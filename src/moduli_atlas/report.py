"""The report/v1 and scan/v1 formats: report heads, writers and records, and scan tables.

A report is a head, a `ReportRecord` without components (input echo,
verdict, enumeration window, threshold, tool version, notes; `tf_head`,
`bn_head`), and the classifier's listings (see `hn`): one per run, with the
fields its components share, plus the untyped semistable or beta entry.
Each format has one writer, `write_text`, `write_csv` or `write_json`, that
reads the head's fields by name, never its components, formats every
listing's shared part once and hands the listing's lines to `write` in a
few large pieces (`format_types`, which `polygon` formats its legend with
too), so the command line prints a report run by run without building a
record per component or the whole document.  A full `ReportRecord` is the
same report as one flat record with a `ComponentRecord` per component;
`render_text`, `render_csv` and `render_json` run the same writers on it
and collect the pieces into a string, and `parse_json(render_json(r)) == r`.
A scan row summarises the listings of `bn_runs` at one point, as
`classify-bn` prints them, without expanding them.  `scan_rows` checks its
inputs at once, then makes the rows lazily, one `bn_row` per twist, and
`write_scan_csv` and `write_scan_json` write them as they come, in pieces
of at most `_BLOCK` rows, so a scan holds one row table and one piece
however large its rectangle.

The bytes follow one set of rules, and every rendering is deterministic.
A JSON document carries its schema tag (`SCHEMA_REPORT`, `SCHEMA_SCAN`) and
is written from a fixed template that reproduces
`json.dumps(doc, indent=2, sort_keys=True) + "\n"` byte for byte, because
`json.dumps` takes its pure-Python encoder when it indents: keys in sorted
order ("N" sorts before the lowercase keys), one list entry a line, `[]`
for an empty list, null, true and false as `_LITERAL` spells them, and
strings through `json.dumps`, the C escaper.  A CSV table opens with its
header (`CSV_COLUMNS`, `SCAN_COLUMNS`) and writes null as an empty cell and
a flag as true or false.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import chain, islice

from .brill_noether import VERDICT_COMPONENTS, VERDICT_WHOLE, BNInput, BNReport, bn_row
from .hn import ComponentRecord, listing_size
from .lattice import MukaiVector, Surface, _Record
from .version import VERSION

__all__ = [
    "SCHEMA_REPORT",
    "SCHEMA_SCAN",
    "CSV_COLUMNS",
    "SCAN_COLUMNS",
    "format_types",
    "write_text",
    "write_csv",
    "write_json",
    "WRITERS",
    "ReportRecord",
    "ScanRow",
    "tf_head",
    "bn_head",
    "tf_record",
    "bn_record",
    "render_json",
    "parse_json",
    "render_csv",
    "render_text",
    "scan_rows",
    "write_scan_csv",
    "write_scan_json",
    "SCAN_WRITERS",
    "render_scan_csv",
    "render_scan_json",
]

SCHEMA_REPORT = "moduli-atlas/report/v1"
SCHEMA_SCAN = "moduli-atlas/scan/v1"

CSV_COLUMNS = "kind,m,ell1,ell2,dimension,codimension,absorbed,threshold_sensitive"
SCAN_COLUMNS = "h2,n,N,verdict,alpha_count,beta,min_dim,max_dim,threshold"

NOTE_SEMISTABLE_EMPTY = "semistable stack empty"
NOTE_EXCEPTIONAL = "exceptional case: no semistable component"


# types per piece of a listing that `format_types` formats at once, and
# rows per piece of a scan table
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


# Only for the bool-or-None fields: 1 == True, so an int would print as true.
_LITERAL = {None: "null", True: "true", False: "false"}

_JSON_SEP = ",\n    "  # between two entries of a top-level list


def _scalar(x: int | bool | None) -> str:
    """null, true, false or the integer, as `json.dumps` writes them."""
    if x is None or x is True or x is False:
        return _LITERAL[x]
    return str(x)


def _collect(fill) -> str:
    """What `fill(write)` writes, as one string."""
    parts: list[str] = []
    fill(parts.append)
    return "".join(parts)


def _write_list(write, pieces: Iterator[str]) -> None:
    """A list value of the top-level object, from pieces of rendered entries
    joined by `_JSON_SEP`: `[]`, or one entry a line."""
    first = next(pieces, None)
    if first is None:
        write("[]")
        return
    write("[\n    ")
    write(first)
    for piece in pieces:
        write(_JSON_SEP)
        write(piece)
    write("\n  ]")


def _list(items: list[str]) -> str:
    """`_write_list` of rendered items, as one string."""
    return _collect(lambda write: _write_list(write, iter(items)))


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
    _write_list(write, (piece for listing in listings for piece in _json_entries(*listing)))
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


class ReportRecord(_Record):
    """The head of one report; `kind` is "torsion-free" or "brill-noether"."""

    __slots__ = (
        "kind", "h_squared", "vector", "n", "length", "verdict", "hilb_dimension", "window",
        "threshold", "tool_version", "notes", "components",
    )


def tf_head(s: Surface, v: MukaiVector, listings, m_max: int, threshold: int) -> ReportRecord:
    """Head of a torsion-free report over `listings` (of `tf_listings`); notes
    an empty semistable locus, read from whether the listings open with the
    semistable entry, which is never absorbed and so never filtered out."""
    notes = () if listings and listings[0][0] == "semistable" else (NOTE_SEMISTABLE_EMPTY,)
    return ReportRecord("torsion-free", s.h_squared, v.triple(), None, None, None, None,
                        m_max, threshold, VERSION, notes, ())


def bn_head(inp: BNInput, rep, threshold: int) -> ReportRecord:
    """Head of a Brill-Noether report; `rep` is a `BNReport` or a `BNRuns`.
    The exceptional point, N = 6 on H.H = 2, lies below h0(3H) = 11, so a
    flagged report is never the whole Hilbert scheme."""
    notes = (NOTE_EXCEPTIONAL,) if rep.exceptional_case else ()
    return ReportRecord("brill-noether", inp.surface.h_squared, rep.mukai_vector.triple(),
                        inp.n, inp.length, rep.verdict, rep.hilb_dimension, None, threshold,
                        VERSION, notes, ())


def tf_record(
    s: Surface,
    v: MukaiVector,
    components: list[ComponentRecord],
    m_max: int,
    threshold: int,
    include_absorbed: bool = False,
) -> ReportRecord:
    """Record for a torsion-free classification; absorbed strata are hidden
    unless `include_absorbed` (they are not irreducible components)."""
    return _full(
        tf_head(s, v, _record_listings(components[:1]), m_max, threshold),
        tuple(c for c in components if include_absorbed or not c.absorbed),
    )


def bn_record(inp: BNInput, rep: BNReport, threshold: int) -> ReportRecord:
    return _full(bn_head(inp, rep, threshold), rep.components)


def _full(head: ReportRecord, components: tuple[ComponentRecord, ...]) -> ReportRecord:
    """The full record: `head`'s fields, with `components` as its last."""
    return ReportRecord(*head._values(head)[:-1], components)


def _record_listings(components) -> list[tuple]:
    """One single-component listing per record."""
    out = []
    for c in components:
        shared = (c.kind, c.dimension, c.codimension, c.absorbed, c.threshold_sensitive)
        if c.triple is None:
            out.append((*shared, None, None, None))
        else:
            m, ell1, ell2 = c.triple
            out.append((*shared, m, (ell1,), (ell2,)))
    return out


def _render(writer, r: ReportRecord) -> str:
    """What `writer` writes for the record, as one string."""
    return _collect(lambda write: writer(write, r, _record_listings(r.components)))


def render_json(r: ReportRecord) -> str:
    return _render(write_json, r)


def render_csv(r: ReportRecord) -> str:
    return _render(write_csv, r)


def render_text(r: ReportRecord) -> str:
    return _render(write_text, r)


def parse_json(text: str) -> ReportRecord:
    d = json.loads(text)
    if d.get("schema") != SCHEMA_REPORT:
        raise ValueError(f"unsupported report schema: {d.get('schema')!r}")
    comps = tuple(
        ComponentRecord(
            c["kind"],
            tuple(c["type"]) if c["type"] is not None else None,
            c["dimension"],
            c["codimension"],
            c["absorbed"],
            c["threshold_sensitive"],
        )
        for c in d["components"]
    )
    return ReportRecord(
        d["kind"],
        d["h2"],
        tuple(d["vector"]),
        d["n"],
        d["N"],
        d["verdict"],
        d["hilb_dimension"],
        d["window"],
        d["threshold"],
        d["tool_version"],
        tuple(d["notes"]),
        comps,
    )


class ScanRow(_Record):
    """One `scan` row."""

    __slots__ = (
        "h_squared", "n", "length", "verdict", "alpha_count", "beta", "min_dim", "max_dim",
        "threshold",
    )


def scan_rows(
    s: Surface,
    n_range: tuple[int, int],
    length_range: tuple[int, int],
    threshold: int,
) -> Iterator[ScanRow]:
    """One classification row per (n, N) over inclusive ranges, in row order.

    Each twist is one `bn_row`.  The row of a point reads its listings
    (those of `bn_runs`) and never expands them, so it costs O(#runs) however
    many components the point has.  The inputs are checked at once: the
    ranges as `GridSpec` checks its own, then s, the first twist and the
    threshold by the first `bn_row`.  The rows are then made as they are
    read, so a caller that writes them as it goes holds one row table.
    """
    _Record._check_ranges(n_range, length_range)
    twists = range(n_range[0], n_range[1] + 1)
    lengths = range(length_range[0], length_range[1] + 1)
    first = bn_row(s, twists[0], lengths, threshold)  # checks s before it is read
    rows = chain((first,), (bn_row(s, n, lengths, threshold) for n in twists[1:]))
    return _scan_rows(s.h_squared, twists, lengths, threshold, rows)


def _scan_rows(h2: int, twists, lengths, threshold: int, rows) -> Iterator[ScanRow]:
    """The rows of `scan_rows`, from the `bn_row` of each twist."""
    for n, row in zip(twists, rows):
        for length, runs in zip(lengths, row):
            # one pass: the whole scheme has no listings, only its dimension
            alpha, beta = 0, False
            lo = hi = runs.hilb_dimension if runs.verdict == VERDICT_WHOLE else None
            for x in runs.listings:
                if x[0] == "beta":
                    beta = True
                else:
                    alpha += listing_size(x)
                dim = x[1]
                if lo is None or dim < lo:
                    lo = dim
                if hi is None or dim > hi:
                    hi = dim
            yield ScanRow(h2, n, length, runs.verdict, alpha, beta, lo, hi, threshold)


def _blocks(rows: Iterable[ScanRow]) -> Iterator[list[ScanRow]]:
    """`rows` in lists of at most `_BLOCK`, so a writer's memory stays bounded."""
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK)):
        yield block


def write_scan_csv(write, rows: Iterable[ScanRow]) -> None:
    write(SCAN_COLUMNS + "\n")
    for block in _blocks(rows):
        write("".join([
            f"{r.h_squared},{r.n},{r.length},{r.verdict},{r.alpha_count},"
            f"{_LITERAL[r.beta]},{'' if r.min_dim is None else r.min_dim},"
            f"{'' if r.max_dim is None else r.max_dim},{r.threshold}\n"
            for r in block
        ]))


def _scan_row_json(r: ScanRow) -> str:
    return (
        "{\n"
        f'      "N": {r.length},\n'
        f'      "alpha_count": {r.alpha_count},\n'
        f'      "beta": {_LITERAL[r.beta]},\n'
        f'      "h2": {r.h_squared},\n'
        f'      "max_dim": {_scalar(r.max_dim)},\n'
        f'      "min_dim": {_scalar(r.min_dim)},\n'
        f'      "n": {r.n},\n'
        f'      "threshold": {r.threshold},\n'
        f'      "verdict": {json.dumps(r.verdict)}\n'
        "    }"
    )


def write_scan_json(write, rows: Iterable[ScanRow]) -> None:
    write('{\n  "rows": ')
    _write_list(write, (_JSON_SEP.join([_scan_row_json(r) for r in b]) for b in _blocks(rows)))
    write(
        ",\n"
        f'  "schema": {json.dumps(SCHEMA_SCAN)},\n'
        f'  "tool_version": {json.dumps(VERSION)}\n'
        "}\n"
    )


# format name -> scan table writer(write, rows), in the order of the help text
SCAN_WRITERS = {"csv": write_scan_csv, "json": write_scan_json}


def render_scan_csv(rows: Iterable[ScanRow]) -> str:
    """`write_scan_csv` as one string.  The command line does not call it: it
    stays because `bench/tracing.py` binds it and `tests/test_report.py` pins
    the scan bytes through it, as `render_scan_json`."""
    return _collect(lambda write: write_scan_csv(write, rows))


def render_scan_json(rows: Iterable[ScanRow]) -> str:
    """`write_scan_json` as one string, kept for the same reasons as `render_scan_csv`."""
    return _collect(lambda write: write_scan_json(write, rows))
