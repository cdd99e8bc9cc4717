"""The benchmark's traced run finds every function it wraps, and puts each back.

`bench/tracing.py` rebinds the package's public functions, named by module
and attribute, for `bench/run.py --trace 1`.  A renamed or moved function
stops that run, so the suite enters and leaves the rebinding once.
"""

import importlib
import sys
from pathlib import Path

import moduli_atlas.cli  # noqa: F401  (loads every module the benchmark traces)
from moduli_atlas.hn import HNType

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_bindings() -> dict:
    """(module name, attribute) -> value, over every loaded package module."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "moduli_atlas" or name.startswith("moduli_atlas.")
        for attr, value in vars(module).items()
    }


def test_trace_targets_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    targets = [t for spans in tracing.SPANS.values() for t in spans] + list(tracing.COUNTED.values())
    before = _package_bindings()
    pairing = HNType.sub_quotient_pairing
    with tracing.installed(tracing.Tracer()):
        during = _package_bindings()
        rebound = {key for key, value in before.items() if during[key] is not value}
        assert set(targets) <= rebound
        assert HNType.sub_quotient_pairing is not pairing
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert HNType.sub_quotient_pairing is pairing
