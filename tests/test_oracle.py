import pytest

from hypothesis import given, settings

from moduli_atlas.brill_noether import BNInput, classify_bn
from moduli_atlas.hn import enumerate_hn_types
from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.oracle import (
    DEFAULT_GRID,
    GridSpec,
    oracle_bn,
    oracle_enumerate,
    sweep,
)

from util import windowed_contexts

S2 = Surface(2)
S4 = Surface(4)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="empty range"):
        GridSpec((), (0, 3), (0, 3))
    with pytest.raises(ValueError, match="empty range"):
        GridSpec((2,), (3, 0), (0, 3))
    with pytest.raises(ValueError, match="empty range"):
        GridSpec((2,), (0, 3), (3, 0))
    with pytest.raises(ValueError, match="h2 must be even"):
        GridSpec((3,), (0, 3), (0, 3))
    with pytest.raises(ValueError, match="negative enumeration margin"):
        GridSpec((2,), (0, 3), (0, 3), -1)


def test_default_grid_shape():
    assert DEFAULT_GRID.h_squared_values == (2, 4, 6)
    assert DEFAULT_GRID.n_range == (0, 8)
    assert DEFAULT_GRID.length_range == (0, 40)
    assert DEFAULT_GRID.m_margin == 4


def test_oracle_enumerate_examples():
    assert len(oracle_enumerate(S2, MukaiVector(2, 3, 5), 3)) == 10
    assert oracle_enumerate(S2, MukaiVector(2, 3, 9), 2) == []
    assert oracle_enumerate(S2, MukaiVector(2, 2, 2), 1) == [(1, 0, 2)]


def test_oracle_bn_examples():
    summary = oracle_bn(S4, 1, 4, 1)
    assert (summary.verdict, summary.alpha_count, summary.beta) == ("components", 0, True)
    assert summary.dimensions == (7,)
    summary = oracle_bn(S2, 3, 6, 1)
    assert (summary.verdict, summary.alpha_count, summary.beta) == ("components", 3, False)
    assert summary.dimensions == (8, 8, 8)


def test_oracle_bn_threshold_showcase():
    assert oracle_bn(S2, 3, 7, 1).alpha_count == 3
    assert oracle_bn(S2, 3, 7, -1).alpha_count == 0
    assert oracle_bn(S2, 3, 7, -1).beta


def test_oracle_bn_whole_verdict():
    assert oracle_bn(S2, 1, 5, 1).verdict == "whole_hilbert_scheme"


def test_sweep_small_grid_clean():
    assert sweep(GridSpec((2, 4), (0, 6), (0, 30), 4), 1) == []


def test_sweep_degenerate_grid_clean():
    assert sweep(GridSpec((2,), (0, 0), (0, 1)), 1) == []


def test_sweep_detects_seeded_fault(monkeypatch):
    # corrupt the per-m run dimensions the classifier resolves at call time
    import dataclasses

    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    honest = hn.hn_runs
    monkeypatch.setattr(
        bn,
        "hn_runs",
        lambda s, v, m_max: [
            dataclasses.replace(r, dimension=r.dimension + 1) for r in honest(s, v, m_max)
        ],
    )
    records = sweep(GridSpec((2,), (2, 3), (0, 8)), 1)
    assert records
    assert any(r.check == "bn_summary" for r in records)


def test_sweep_detects_seeded_enumeration_fault(monkeypatch):
    import moduli_atlas.oracle as oracle

    honest = enumerate_hn_types
    monkeypatch.setattr(
        oracle, "enumerate_hn_types", lambda s, v, m_max: honest(s, v, m_max)[:-1]
    )
    records = sweep(GridSpec((2,), (3, 3), (6, 6)), 1)
    assert any(r.check == "enumeration" for r in records)


@settings(deadline=None, max_examples=40)
@given(windowed_contexts())
def test_oracle_enumerate_matches_main(ctx):
    s, v, m_max = ctx
    assert oracle_enumerate(s, v, m_max) == [
        t.triple() for t in enumerate_hn_types(s, v, m_max)
    ]


@settings(deadline=None, max_examples=40)
@given(windowed_contexts())
def test_oracle_bn_matches_main(ctx):
    s, v, _ = ctx
    n = v.deg
    length = (n * n * s.h_squared) // 2 + 2 - v.a
    for threshold in (1, -1):
        summary = oracle_bn(s, n, length, threshold)
        rep = classify_bn(BNInput(s, n, length), threshold)
        assert summary.verdict == rep.verdict
        assert summary.dimensions == tuple(sorted(c.dimension for c in rep.components))
        assert summary.beta == any(c.kind == "beta" for c in rep.components)
        assert summary.alpha_count == sum(1 for c in rep.components if c.kind == "alpha")
