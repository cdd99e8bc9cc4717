"""Report heads and records, and scan tables.

A report is a head (input echo, verdict, enumeration window, threshold, tool
version, notes; `tf_head`, `bn_head`) and the classifier's listings, which
the writers of `writers` print run by run.  A head is a `ReportRecord`
without components.  A full `ReportRecord` is the same report as one flat
record with a `ComponentRecord` per component; `render_text`,
`render_csv` and `render_json` run the same writers on it and collect the
pieces into a string.  JSON output carries a schema tag and round-trips
exactly through `parse_json(render_json(r)) == r`; all renderings are
byte-deterministic.  A scan row summarises the listings of `bn_runs` at
one point, as `classify-bn` prints them, without expanding them; `scan_rows`
reads them row by row from `bn_row`.
"""

from __future__ import annotations

import json

from .brill_noether import BNInput, BNReport, VERDICT_WHOLE, bn_row
from .hn import ComponentRecord, listing_size
from .lattice import MukaiVector, Surface, _Record
from .version import VERSION

# the scan tables share the JSON and CSV cell helpers of the report writers
from .writers import (
    CSV_COLUMNS,
    SCHEMA_REPORT,
    _LITERAL,
    _list,
    _scalar,
    write_csv,
    write_json,
    write_text,
)

__all__ = [
    "SCHEMA_REPORT",
    "SCHEMA_SCAN",
    "ComponentRecord",
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
    "render_scan_csv",
    "render_scan_json",
    "SCAN_RENDERERS",
    "SCAN_COLUMNS",
    "CSV_COLUMNS",
]

SCHEMA_SCAN = "moduli-atlas/scan/v1"

SCAN_COLUMNS = "h2,n,N,verdict,alpha_count,beta,min_dim,max_dim,threshold"

NOTE_SEMISTABLE_EMPTY = "semistable stack empty"
NOTE_EXCEPTIONAL = "exceptional case: no semistable component"


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
    """Head of a Brill-Noether report; `rep` is a `BNReport` or a `BNRuns`."""
    notes = ()
    if rep.exceptional_case and rep.verdict != VERDICT_WHOLE:
        notes = (NOTE_EXCEPTIONAL,)
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
    parts: list[str] = []
    writer(parts.append, r, _record_listings(r.components))
    return "".join(parts)


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
) -> list[ScanRow]:
    """One classification row per (n, N) over inclusive ranges, in row order.

    Each twist is one `bn_row`.  The row of a point reads its listings
    (those of `bn_runs`) and never expands them, so it costs O(#runs) however
    many components the point has.
    """
    if n_range[0] > n_range[1] or length_range[0] > length_range[1]:
        raise ValueError("empty range")
    h2 = s.h_squared
    lengths = range(length_range[0], length_range[1] + 1)
    rows = []
    for n in range(n_range[0], n_range[1] + 1):
        for length, runs in zip(lengths, bn_row(s, n, lengths, threshold)):
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
            rows.append(ScanRow(h2, n, length, runs.verdict, alpha, beta, lo, hi, threshold))
    return rows


def render_scan_csv(rows: list[ScanRow]) -> str:
    lines = [SCAN_COLUMNS]
    for r in rows:
        lo = "" if r.min_dim is None else r.min_dim
        hi = "" if r.max_dim is None else r.max_dim
        lines.append(
            f"{r.h_squared},{r.n},{r.length},{r.verdict},{r.alpha_count},"
            f"{_LITERAL[r.beta]},{lo},{hi},{r.threshold}"
        )
    return "\n".join(lines) + "\n"


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


def render_scan_json(rows: list[ScanRow]) -> str:
    return (
        "{\n"
        f'  "rows": {_list([_scan_row_json(r) for r in rows])},\n'
        f'  "schema": {json.dumps(SCHEMA_SCAN)},\n'
        f'  "tool_version": {json.dumps(VERSION)}\n'
        "}\n"
    )


# format name -> scan table renderer(rows)
SCAN_RENDERERS = {"csv": render_scan_csv, "json": render_scan_json}
