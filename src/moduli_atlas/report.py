"""Report records and their text, JSON and CSV renderings.

A `ReportRecord` is a flat, immutable snapshot of one classifier run: input
echo, enumeration window, threshold, tool version, and the component list.
JSON output carries a schema tag and round-trips exactly through
`parse_json(render_json(r)) == r`; all renderings are byte-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .brill_noether import (
    BNInput,
    BNReport,
    VERDICT_COMPONENTS,
    VERDICT_WHOLE,
    bn_runs,
)
from .lattice import MukaiVector, Surface
from .torsion_free import TfComponent
from .version import VERSION

__all__ = [
    "SCHEMA_REPORT",
    "SCHEMA_SCAN",
    "ComponentRecord",
    "ReportRecord",
    "ScanRow",
    "tf_record",
    "bn_record",
    "render_json",
    "parse_json",
    "render_csv",
    "render_text",
    "scan_rows",
    "render_scan_csv",
    "render_scan_json",
    "SCAN_COLUMNS",
    "CSV_COLUMNS",
]

SCHEMA_REPORT = "moduli-atlas/report/v1"
SCHEMA_SCAN = "moduli-atlas/scan/v1"

CSV_COLUMNS = "kind,m,ell1,ell2,dimension,codimension,absorbed,threshold_sensitive"
SCAN_COLUMNS = "h2,n,N,verdict,alpha_count,beta,min_dim,max_dim,threshold"

NOTE_SEMISTABLE_EMPTY = "semistable stack empty"
NOTE_EXCEPTIONAL = "exceptional case: no semistable component"


@dataclass(frozen=True, slots=True)
class ComponentRecord:
    kind: str  # semistable | hn | beta | alpha
    triple: tuple[int, int, int] | None
    dimension: int
    codimension: int | None
    absorbed: bool | None
    threshold_sensitive: bool | None


@dataclass(frozen=True, slots=True)
class ReportRecord:
    kind: str  # torsion-free | brill-noether
    h_squared: int
    vector: tuple[int, int, int]
    n: int | None
    length: int | None
    verdict: str | None
    hilb_dimension: int | None
    window: int | None
    threshold: int
    tool_version: str
    notes: tuple[str, ...]
    components: tuple[ComponentRecord, ...]


def tf_record(
    s: Surface,
    v: MukaiVector,
    components: list[TfComponent],
    m_max: int,
    threshold: int,
    include_absorbed: bool = False,
) -> ReportRecord:
    """Record for a torsion-free classification; absorbed strata are hidden
    unless `include_absorbed` (they are not irreducible components)."""
    semistable_present = any(c.is_semistable for c in components)
    recs = []
    for c in components:
        if c.absorbed and not include_absorbed:
            continue
        recs.append(
            ComponentRecord(
                "semistable" if c.is_semistable else "hn",
                None if c.is_semistable else c.hn_type.triple(),
                c.stack_dimension,
                None,
                c.absorbed,
                None,
            )
        )
    notes = () if semistable_present else (NOTE_SEMISTABLE_EMPTY,)
    return ReportRecord(
        "torsion-free",
        s.h_squared,
        v.triple(),
        None,
        None,
        None,
        None,
        m_max,
        threshold,
        VERSION,
        notes,
        tuple(recs),
    )


def bn_record(inp: BNInput, rep: BNReport, threshold: int) -> ReportRecord:
    recs = tuple(
        ComponentRecord(
            c.kind,
            c.hn_type.triple() if c.hn_type is not None else None,
            c.dimension,
            c.codimension,
            None,
            c.threshold_sensitive,
        )
        for c in rep.components
    )
    notes = ()
    if rep.exceptional_case and rep.verdict != VERDICT_WHOLE:
        notes = (NOTE_EXCEPTIONAL,)
    return ReportRecord(
        "brill-noether",
        inp.surface.h_squared,
        rep.mukai_vector.triple(),
        inp.n,
        inp.length,
        rep.verdict,
        rep.hilb_dimension,
        None,
        threshold,
        VERSION,
        notes,
        recs,
    )


def from_dict(d: dict) -> ReportRecord:
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


# The JSON documents are written from fixed templates that reproduce
# `json.dumps(doc, indent=2, sort_keys=True) + "\n"` byte for byte, because
# `json.dumps` takes its pure-Python encoder when it indents.  Keys are in
# sorted order ("N" sorts before the lowercase keys), one list entry a line,
# `[]` for an empty list.  Strings go through `json.dumps`, the C escaper.

# Only for the bool-or-None fields: 1 == True, so an int would print as true.
_LITERAL = {None: "null", True: "true", False: "false"}


def _scalar(x: int | bool | None) -> str:
    """null, true, false or the integer, as `json.dumps` writes them."""
    if x is None or x is True or x is False:
        return _LITERAL[x]
    return str(x)


def _list(items: list[str]) -> str:
    """A list value of the top-level object: `[]`, or one rendered item a line."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _component_json(c: ComponentRecord) -> str:
    if c.triple is None:
        typ = "null"
    else:
        m, ell1, ell2 = c.triple
        typ = f"[\n        {m},\n        {ell1},\n        {ell2}\n      ]"
    return (
        "{\n"
        f'      "absorbed": {_LITERAL[c.absorbed]},\n'
        f'      "codimension": {_scalar(c.codimension)},\n'
        f'      "dimension": {c.dimension},\n'
        f'      "kind": {json.dumps(c.kind)},\n'
        f'      "threshold_sensitive": {_LITERAL[c.threshold_sensitive]},\n'
        f'      "type": {typ}\n'
        "    }"
    )


def render_json(r: ReportRecord) -> str:
    return (
        "{\n"
        f'  "N": {_scalar(r.length)},\n'
        f'  "components": {_list([_component_json(c) for c in r.components])},\n'
        f'  "h2": {r.h_squared},\n'
        f'  "hilb_dimension": {_scalar(r.hilb_dimension)},\n'
        f'  "kind": {json.dumps(r.kind)},\n'
        f'  "n": {_scalar(r.n)},\n'
        f'  "notes": {_list([json.dumps(x) for x in r.notes])},\n'
        f'  "schema": {json.dumps(SCHEMA_REPORT)},\n'
        f'  "threshold": {r.threshold},\n'
        f'  "tool_version": {json.dumps(r.tool_version)},\n'
        f'  "vector": {_list([str(x) for x in r.vector])},\n'
        f'  "verdict": {"null" if r.verdict is None else json.dumps(r.verdict)},\n'
        f'  "window": {_scalar(r.window)}\n'
        "}\n"
    )


def parse_json(text: str) -> ReportRecord:
    return from_dict(json.loads(text))


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def render_csv(r: ReportRecord) -> str:
    lines = [CSV_COLUMNS]
    for c in r.components:
        m, e1, e2 = c.triple if c.triple is not None else (None, None, None)
        cells = (c.kind, m, e1, e2, c.dimension, c.codimension, c.absorbed, c.threshold_sensitive)
        lines.append(",".join(_cell(x) for x in cells))
    return "\n".join(lines) + "\n"


def render_text(r: ReportRecord) -> str:
    lines = []
    vec = "({}, {}, {})".format(*r.vector)
    if r.kind == "torsion-free":
        lines.append(
            f"torsion-free stack  h2={r.h_squared}  v={vec}  window m<={r.window}  threshold={r.threshold}"
        )
    else:
        lines.append(
            f"locus in Hilb^{r.length}  h2={r.h_squared}  n={r.n}  v={vec}  threshold={r.threshold}"
        )
        if r.verdict == VERDICT_WHOLE:
            lines.append(f"verdict: whole Hilbert scheme (dimension {r.hilb_dimension})")
        elif r.verdict == VERDICT_COMPONENTS:
            lines.append(
                f"verdict: {len(r.components)} component(s) inside a Hilbert scheme of dimension {r.hilb_dimension}"
            )
        else:
            lines.append("verdict: empty locus")
    for note in r.notes:
        lines.append(f"note: {note}")
    for c in r.components:
        if c.kind == "semistable":
            lines.append(f"  semistable         stack dimension {c.dimension}")
        elif c.kind == "hn":
            tag = "  [absorbed]" if c.absorbed else ""
            lines.append(f"  type {c.triple}   stack dimension {c.dimension}{tag}")
        elif c.kind == "beta":
            lines.append(
                f"  beta               dimension {c.dimension}  codimension {c.codimension}"
            )
        else:
            tag = "  [threshold-sensitive]" if c.threshold_sensitive else ""
            lines.append(
                f"  alpha {c.triple}  dimension {c.dimension}  codimension {c.codimension}{tag}"
            )
    if r.kind == "torsion-free":
        lines.append(f"{len(r.components)} component(s)")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class ScanRow:
    h_squared: int
    n: int
    length: int
    verdict: str
    alpha_count: int
    beta: bool
    min_dim: int | None
    max_dim: int | None
    threshold: int


def scan_rows(
    s: Surface,
    n_range: tuple[int, int],
    length_range: tuple[int, int],
    threshold: int,
) -> list[ScanRow]:
    """One classification row per (n, N) over inclusive ranges, in row order.

    Rows count the per-m runs of `bn_runs` and never list components, so a
    row costs O(n) however many components its point has.
    """
    if n_range[0] > n_range[1] or length_range[0] > length_range[1]:
        raise ValueError("empty range")
    rows = []
    for n in range(n_range[0], n_range[1] + 1):
        for length in range(length_range[0], length_range[1] + 1):
            runs = bn_runs(BNInput(s, n, length), threshold)
            if runs.verdict == VERDICT_WHOLE:
                alpha, beta = 0, False
                lo = hi = runs.hilb_dimension
            else:
                alpha = sum(r.ell1_hi - r.ell1_lo + 1 for r in runs.alpha_runs)
                beta = runs.beta_dimension is not None
                dims = [r.dimension + runs.chi for r in runs.alpha_runs]
                if beta:
                    dims.append(runs.beta_dimension)
                lo, hi = (min(dims), max(dims)) if dims else (None, None)
            rows.append(ScanRow(s.h_squared, n, length, runs.verdict, alpha, beta, lo, hi, threshold))
    return rows


def render_scan_csv(rows: list[ScanRow]) -> str:
    lines = [SCAN_COLUMNS]
    for r in rows:
        cells = (
            r.h_squared, r.n, r.length, r.verdict, r.alpha_count, r.beta,
            r.min_dim, r.max_dim, r.threshold,
        )
        lines.append(",".join(_cell(x) for x in cells))
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
