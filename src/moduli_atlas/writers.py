"""Run-by-run writers of the report formats: text, CSV and JSON.

A report is a head, a `report.ReportRecord` without components, and the
classifier's listings (see `hn`): one per run, with the fields its
components share, plus the untyped semistable or beta entry.  The writers
read the head's fields by name and never its components.
Each format has one writer, `write_text`, `write_csv` or `write_json`, that
formats every listing's shared part once and hands the listing's lines to
`write` in a few large pieces (`format_types`), so the command line prints
a report run by run without building a record per component or the whole
document.  `polygon` formats its legend with `format_types` too, and the
scan tables of `report` share the JSON and CSV cell helpers below.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from .brill_noether import VERDICT_COMPONENTS, VERDICT_WHOLE
from .hn import listing_size

__all__ = [
    "SCHEMA_REPORT",
    "CSV_COLUMNS",
    "format_types",
    "write_text",
    "write_csv",
    "write_json",
    "WRITERS",
]

SCHEMA_REPORT = "moduli-atlas/report/v1"

CSV_COLUMNS = "kind,m,ell1,ell2,dimension,codimension,absorbed,threshold_sensitive"


# types per piece of a listing that `format_types` formats at once
_BLOCK = 4096


def format_types(
    before: str, mid: str, after: str, ell1s, ell2s, sep: str = ""
) -> Iterator[str]:
    """`before + ell1 + mid + ell2 + after` for each type of a listing, joined by `sep`.

    Yields the text in pieces of at most `_BLOCK` types, which the caller joins
    by `sep` too, so memory stays bounded however long a run is.  Only the
    two lengths are formatted per type; the parts a listing shares are put
    in between by one `str.join` per piece.
    """
    glue = after + sep + before
    for i in range(0, len(ell1s), _BLOCK):
        block = zip(ell1s[i : i + _BLOCK], ell2s[i : i + _BLOCK])
        yield before + glue.join([f"{ell1}{mid}{ell2}" for ell1, ell2 in block]) + after


# The JSON documents are written from fixed templates that reproduce
# `json.dumps(doc, indent=2, sort_keys=True) + "\n"` byte for byte, because
# `json.dumps` takes its pure-Python encoder when it indents.  Keys are in
# sorted order ("N" sorts before the lowercase keys), one list entry a line,
# `[]` for an empty list.  Strings go through `json.dumps`, the C escaper.

# Only for the bool-or-None fields: 1 == True, so an int would print as true.
_LITERAL = {None: "null", True: "true", False: "false"}

_JSON_SEP = ",\n    "  # between two entries of a top-level list


def _scalar(x: int | bool | None) -> str:
    """null, true, false or the integer, as `json.dumps` writes them."""
    if x is None or x is True or x is False:
        return _LITERAL[x]
    return str(x)


def _list(items: list[str]) -> str:
    """A list value of the top-level object: `[]`, or one rendered item a line."""
    return "[\n    " + _JSON_SEP.join(items) + "\n  ]" if items else "[]"


# Each `_<format>_entries` gives a listing's text in pieces (see
# `format_types`); pieces of JSON entries are separated by `_JSON_SEP`.


def _json_entries(kind, dim, codim, absorbed, sensitive, m, ell1s, ell2s) -> Iterable[str]:
    before = (
        "{\n"
        f'      "absorbed": {_LITERAL[absorbed]},\n'
        f'      "codimension": {_scalar(codim)},\n'
        f'      "dimension": {dim},\n'
        f'      "kind": {json.dumps(kind)},\n'
        f'      "threshold_sensitive": {_LITERAL[sensitive]},\n'
        '      "type": '
    )
    if m is None:
        return (before + "null\n    }",)
    return format_types(
        f"{before}[\n        {m},\n        ", ",\n        ", "\n      ]\n    }",
        ell1s, ell2s, _JSON_SEP,
    )


def write_json(write, head, listings: list[tuple]) -> None:
    write(f'{{\n  "N": {_scalar(head.length)},\n  "components": ')
    pieces = (piece for listing in listings for piece in _json_entries(*listing))
    first = next(pieces, None)
    if first is None:
        write("[]")
    else:
        write("[\n    ")
        write(first)
        for piece in pieces:
            write(_JSON_SEP)
            write(piece)
        write("\n  ]")
    write(
        ",\n"
        f'  "h2": {head.h_squared},\n'
        f'  "hilb_dimension": {_scalar(head.hilb_dimension)},\n'
        f'  "kind": {json.dumps(head.kind)},\n'
        f'  "n": {_scalar(head.n)},\n'
        f'  "notes": {_list([json.dumps(x) for x in head.notes])},\n'
        f'  "schema": {json.dumps(SCHEMA_REPORT)},\n'
        f'  "threshold": {head.threshold},\n'
        f'  "tool_version": {json.dumps(head.tool_version)},\n'
        f'  "vector": {_list([str(x) for x in head.vector])},\n'
        f'  "verdict": {"null" if head.verdict is None else json.dumps(head.verdict)},\n'
        f'  "window": {_scalar(head.window)}\n'
        "}\n"
    )


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _csv_entries(kind, dim, codim, absorbed, sensitive, m, ell1s, ell2s) -> Iterable[str]:
    after = f",{_cell(dim)},{_cell(codim)},{_cell(absorbed)},{_cell(sensitive)}\n"
    if m is None:
        return (f"{_cell(kind)},,,{after}",)
    return format_types(f"{_cell(kind)},{m},", ",", after, ell1s, ell2s)


def write_csv(write, head, listings: list[tuple]) -> None:
    write(CSV_COLUMNS + "\n")
    for listing in listings:
        for piece in _csv_entries(*listing):
            write(piece)


def _text_entries(kind, dim, codim, absorbed, sensitive, m, ell1s, ell2s) -> Iterable[str]:
    # the untyped kinds print no triple: their listings are single entries
    if kind == "semistable":
        return (f"  semistable         stack dimension {dim}\n",)
    if kind == "beta":
        return (f"  beta               dimension {dim}  codimension {codim}\n",)
    if kind == "hn":
        before = "  type "
        after = f"   stack dimension {dim}{'  [absorbed]' if absorbed else ''}\n"
    else:
        before = "  alpha "
        tag = "  [threshold-sensitive]" if sensitive else ""
        after = f"  dimension {dim}  codimension {codim}{tag}\n"
    if m is None:
        return (f"{before}None{after}",)
    return format_types(f"{before}({m}, ", ", ", ")" + after, ell1s, ell2s)


def write_text(write, head, listings: list[tuple]) -> None:
    h2, threshold, hilb_dim = head.h_squared, head.threshold, head.hilb_dimension
    vec = "({}, {}, {})".format(*head.vector)
    count = sum(listing_size(listing) for listing in listings)
    if head.kind == "torsion-free":
        lines = [f"torsion-free stack  h2={h2}  v={vec}  window m<={head.window}  threshold={threshold}"]
    else:
        lines = [f"locus in Hilb^{head.length}  h2={h2}  n={head.n}  v={vec}  threshold={threshold}"]
        if head.verdict == VERDICT_WHOLE:
            lines.append(f"verdict: whole Hilbert scheme (dimension {hilb_dim})")
        elif head.verdict == VERDICT_COMPONENTS:
            lines.append(
                f"verdict: {count} component(s) inside a Hilbert scheme of dimension {hilb_dim}"
            )
        else:
            lines.append("verdict: empty locus")
    lines.extend(f"note: {note}" for note in head.notes)
    write("\n".join(lines) + "\n")
    for listing in listings:
        for piece in _text_entries(*listing):
            write(piece)
    if head.kind == "torsion-free":
        write(f"{count} component(s)\n")


# format name -> writer(write, head, listings), in the order of the help text
WRITERS = {"text": write_text, "json": write_json, "csv": write_csv}
