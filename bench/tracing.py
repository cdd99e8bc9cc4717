"""Per-layer tracing for the benchmark's traced run.

`installed(tracer)` rebinds the package's public functions, in every
`moduli_atlas` module that holds a reference to them, to wrappers that
record a span (name, start, end, parent) or bump a counter, and restores the
originals on exit.  Nothing is patched outside that block, so untraced runs
execute the program unchanged.

Spans are kept in memory in flat arrays and written out once, at the end of
the run; self time is a span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

# span name -> (module, attribute) of each function it wraps
SPANS = {
    "cli.main": [("moduli_atlas.cli", "main")],
    "brill_noether.classify_bn": [("moduli_atlas.brill_noether", "classify_bn")],
    "hn.enumerate_hn_types": [("moduli_atlas.hn", "enumerate_hn_types")],
    "hn.dim_hn_stratum": [("moduli_atlas.hn", "dim_hn_stratum")],
    "hn.dim_hn_closed_form": [("moduli_atlas.hn", "dim_hn_closed_form")],
    "torsion_free.classify_tf_components": [("moduli_atlas.torsion_free", "classify_tf_components")],
    "report.bn_record": [("moduli_atlas.report", "bn_record")],
    "report.tf_record": [("moduli_atlas.report", "tf_record")],
    "report.render_json": [("moduli_atlas.report", "render_json")],
    "report.render_text": [("moduli_atlas.report", "render_text")],
    "report.render_csv": [("moduli_atlas.report", "render_csv")],
    "report.scan_rows": [("moduli_atlas.report", "scan_rows")],
    "report.render_scan": [("moduli_atlas.report", "render_scan_csv"),
                           ("moduli_atlas.report", "render_scan_json")],
    "polygon.polygon_svg": [("moduli_atlas.polygon", "polygon_svg")],
    "oracle.sweep": [("moduli_atlas.oracle", "sweep")],
    "oracle.oracle_enumerate": [("moduli_atlas.oracle", "oracle_enumerate")],
    "oracle.oracle_bn": [("moduli_atlas.oracle", "oracle_bn")],
}
# functions too cheap to time: counted only
COUNTED = {
    "lattice.mukai_pairing": ("moduli_atlas.lattice", "mukai_pairing"),
    "lattice.ideal_sheaf_vector": ("moduli_atlas.lattice", "ideal_sheaf_vector"),
}
BN_SPAN = "brill_noether.classify_bn"


def _count_bn(counts, args, result):
    counts["brill_noether.components"] += len(result.components)
    counts["brill_noether.alpha"] += sum(1 for c in result.components if c.hn_type is not None)


def _count_tf(counts, args, result):
    counts["torsion_free.strata"] += len(result)
    counts["torsion_free.absorbed"] += sum(1 for c in result if c.absorbed)


def _count_types(counts, args, result):
    counts["hn.types"] += len(result)


def _count_bytes(key):
    def count(counts, args, result):
        counts[key] += len(result.encode("utf-8"))
    return count


def _count_sweep(counts, args, result):
    grid = args[0]
    (n_lo, n_hi), (len_lo, len_hi) = grid.n_range, grid.length_range
    counts["oracle.points"] += len(grid.h_squared_values) * (n_hi - n_lo + 1) * (len_hi - len_lo + 1)
    counts["oracle.discrepancies"] += len(result)


AFTER = {
    "brill_noether.classify_bn": _count_bn,
    "torsion_free.classify_tf_components": _count_tf,
    "hn.enumerate_hn_types": _count_types,
    "report.render_json": _count_bytes("report.bytes_out"),
    "report.render_text": _count_bytes("report.bytes_out"),
    "report.render_csv": _count_bytes("report.bytes_out"),
    "report.render_scan": _count_bytes("report.bytes_out"),
    "polygon.polygon_svg": _count_bytes("polygon.bytes_out"),
    "oracle.sweep": _count_sweep,
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        name_id = self.names.index(name)
        after = AFTER.get(name)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self.stack
        counts, clock = self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pairing(self, fn):
        """HNType.sub_quotient_pairing; a call directly under classify_bn is
        one brill_noether candidate."""
        counts, stack, span_name = self.counts, self.stack, self.span_name
        bn_id = self.names.index(BN_SPAN)

        @functools.wraps(fn)
        def wrapper(self_, *args, **kwargs):
            counts["hn.sub_quotient_pairing.calls"] += 1
            if stack and span_name[stack[-1]] == bn_id:
                counts["brill_noether.candidates"] += 1
            return fn(self_, *args, **kwargs)

        return wrapper

    def span_totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, busy ns, self ns)."""
        child = array("q", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, busy, own = Counter(), Counter(), Counter()
        for i, name_id in enumerate(self.span_name):
            duration = self.end[i] - self.start[i]
            calls[name_id] += 1
            busy[name_id] += duration
            own[name_id] += duration - child[i]
        return {name: (calls[i], busy[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span as `name start_ns end_ns parent` (tab separated)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for i, name_id in enumerate(self.span_name):
                handle.write(f"{names[name_id]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "moduli_atlas" or name.startswith("moduli_atlas."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function in every package module that names it."""
    from moduli_atlas.hn import HNType

    wrappers = []
    for name, targets in SPANS.items():
        for module, attr in targets:
            original = getattr(sys.modules[module], attr)
            wrappers.append((original, tracer.span(name, original)))
    for name, (module, attr) in COUNTED.items():
        original = getattr(sys.modules[module], attr)
        wrappers.append((original, tracer.counted(name, original)))
    undo = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        original_pairing = HNType.sub_quotient_pairing
        HNType.sub_quotient_pairing = tracer.pairing(original_pairing)
        undo.append((HNType, "sub_quotient_pairing", original_pairing))
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in ms)."""
    totals = tracer.span_totals()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name, (calls, busy, own) in totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_ms"] = busy / 1e6
        metrics[f"{name}.self_ms"] = own / 1e6
    for key in ("brill_noether.components", "brill_noether.candidates", "hn.types",
                "hn.sub_quotient_pairing.calls", "torsion_free.strata", "report.bytes_out",
                "polygon.bytes_out", "oracle.points", "oracle.discrepancies"):
        metrics[key] = counts[key]
    for name in COUNTED:
        metrics[f"{name}.calls"] = counts[name]
    candidates = counts["brill_noether.candidates"]
    metrics["brill_noether.kept_ratio"] = counts["brill_noether.alpha"] / candidates if candidates else 0.0
    strata = counts["torsion_free.strata"]
    metrics["torsion_free.absorbed_ratio"] = counts["torsion_free.absorbed"] / strata if strata else 0.0
    return metrics


def is_count(name: str) -> bool:
    """Whether a per-layer metric is an exact count that must repeat."""
    return name.endswith((".calls", ".types", ".candidates", ".components", ".strata",
                          ".points", ".discrepancies", ".bytes_out"))
