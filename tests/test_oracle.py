import itertools
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from moduli_atlas.brill_noether import BNInput, BNRuns, bn_mukai_vector, bn_runs, classify_bn
from moduli_atlas.hn import HNType, dim_hn_stratum, enumerate_hn_types, table_runs
from moduli_atlas.lattice import MukaiVector, Surface
from moduli_atlas.oracle import (
    DEFAULT_GRID,
    GridSpec,
    bn_component_dimension_identities,
    oracle_bn,
    oracle_enumerate,
    oracle_strata,
    sweep,
)
from moduli_atlas.report import scan_rows

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
    with pytest.raises(ValueError, match="repeated h2 2"):
        GridSpec((2, 4, 2), (0, 3), (0, 3))


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


def _identities(s, n, length):
    inp = BNInput(s, n, length)
    return bn_component_dimension_identities(inp, bn_runs(inp))


def test_dimension_identities_beta():
    assert _identities(S4, 1, 4) == [("beta", None, 7, 7)]


def test_dimension_identities_alpha():
    checks = _identities(S2, 3, 6)
    assert len(checks) == 3
    assert all(kind == "alpha" and dim == closed == 8 for kind, _, dim, closed in checks)


def test_dimension_identities_step_four_case():
    assert _identities(S2, 2, 3) == [("alpha", (1, 0, 1), 4, 4)]


def test_dimension_identities_empty_without_components():
    assert _identities(S2, 3, 2) == []
    assert _identities(S2, 1, 5) == []


@pytest.mark.parametrize("margin", [4, 0])
def test_sweep_small_grid_clean(margin):
    # margin 0 is the smallest window, where the oracle's m < n stop matters
    assert sweep(GridSpec((2, 4), (0, 6), (0, 30), margin), 1, 0) == []


def test_sweep_degenerate_grid_clean():
    assert sweep(GridSpec((2,), (0, 0), (0, 1)), 1) == []


def bump_run_dimensions(c2, table):
    """`table_runs` with every run's dimension one too high."""
    return ((*run[:4], run[4] + 1) for run in table_runs(c2, table))


def test_sweep_detects_seeded_fault(monkeypatch):
    # corrupt the per-m run dimensions the classifier resolves at call time
    import moduli_atlas.brill_noether as bn

    monkeypatch.setattr(bn, "table_runs", bump_run_dimensions)
    records = sweep(GridSpec((2,), (2, 3), (0, 8)), 1)
    assert records
    assert any(r.check == "bn_summary" for r in records)
    assert any(r.check.startswith("bn_dimension_identity[alpha") for r in records)


def test_sweep_and_scan_see_a_seeded_listing_fault(monkeypatch):
    # corrupt the alpha listings each point gets, after the per-m runs are right
    import moduli_atlas.brill_noether as bn

    honest = bn._row_runs

    def off_by_one(*args):
        for runs in honest(*args):
            listings = tuple(
                (kind, dimension + 1 if kind == "alpha" else dimension, *rest)
                for kind, dimension, *rest in runs.listings
            )
            yield BNRuns(runs.verdict, runs.hilb_dimension, runs.mukai_vector,
                         runs.exceptional_case, listings)

    monkeypatch.setattr(bn, "_row_runs", off_by_one)
    for threshold in (1, -1):
        records = sweep(GridSpec((2,), (2, 3), (0, 8)), threshold)
        assert any(r.check == "bn_summary" for r in records)
        assert any(r.check.startswith("bn_dimension_identity[alpha") for r in records)
    want = max(oracle_bn(S2, 3, 6, 1).dimensions) + 1
    assert scan_rows(S2, (3, 3), (6, 6), 1)[0].max_dim == want


def test_sweep_classifies_each_point_once(monkeypatch):
    import moduli_atlas.brill_noether as bn
    import moduli_atlas.oracle as oracle

    calls = []
    honest = bn.bn_runs

    def counting(*args, **kwargs):
        calls.append(args[0])
        return honest(*args, **kwargs)

    monkeypatch.setattr(bn, "bn_runs", counting)
    monkeypatch.setattr(oracle, "bn_runs", counting)
    grid = GridSpec((2, 4), (0, 4), (0, 12))
    assert sweep(grid, 1) == []
    assert len(calls) == 2 * 5 * 13


def test_sweep_detects_seeded_enumeration_fault(monkeypatch):
    import moduli_atlas.oracle as oracle

    honest = oracle.hn_runs

    def drop_last_type(s, v, m_max):
        runs = honest(s, v, m_max)
        m, hi, budget, pairing, dimension = runs[-1]
        if hi == 0:
            return runs[:-1]
        return runs[:-1] + [(m, hi - 1, budget, pairing, dimension)]

    monkeypatch.setattr(oracle, "hn_runs", drop_last_type)
    records = sweep(GridSpec((2,), (3, 3), (6, 6)), 1)
    assert any(r.check == "enumeration" for r in records)


def test_sweep_detects_run_dimension_fault(monkeypatch):
    # the fault only the reported per-type dimensions show: bump the dimension
    # of every run with m >= n, in every module that binds table_runs (hn_runs
    # resolves it in hn at call time, for the oracle and torsion_free too)
    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    honest = hn.table_runs

    def bumped(c2, table):
        # for n >= 0, m >= n exactly when m*(n-m)*H.H <= 0, i.e. budget >= c2
        for m, hi, budget, pairing, dimension in honest(c2, table):
            yield m, hi, budget, pairing, dimension + (budget >= c2)

    for module in (hn, bn):
        monkeypatch.setattr(module, "table_runs", bumped)
    records = sweep(GridSpec((2, 4), (0, 6), (0, 30), 4), 1, -1)
    for threshold in (1, -1):
        checks = {r.check.split("(")[0].split("[")[0] for r in records if r.threshold == threshold}
        assert {"stratum_dimension", "dim_formula"} <= checks


def test_sweep_runs_the_oracle_once_per_point(monkeypatch):
    import moduli_atlas.oracle as oracle

    calls = []
    honest = oracle.oracle_strata

    def counting(s, v, m_max, *pieces):
        calls.append((s, v, m_max))
        return honest(s, v, m_max, *pieces)

    monkeypatch.setattr(oracle, "oracle_strata", counting)
    grid = GridSpec((2, 4), (0, 4), (0, 12))
    assert sweep(grid, 1, -1) == []
    first = list(calls)
    assert len(first) == len(set(first)) == 2 * 5 * 13
    calls.clear()
    assert sweep(grid, 1, -1) == []
    assert calls == first


def test_sweep_pairs_each_candidate_once_per_point(monkeypatch):
    # the Brill-Noether oracle reads oracle_strata's pairings: no second cross pairing
    import moduli_atlas.lattice as lattice
    import moduli_atlas.oracle as oracle

    cross, hits = [], []
    honest_strata = oracle.oracle_strata

    def counting_pairing(s, v, w):
        if v != w:
            cross.append(1)
        return lattice.mukai_pairing(s, v, w)

    def counting_strata(*args):
        found = honest_strata(*args)
        hits.append(len(found))
        return found

    monkeypatch.setattr(oracle, "mukai_pairing", counting_pairing)
    monkeypatch.setattr(oracle, "oracle_strata", counting_strata)
    assert sweep(GridSpec((2, 4), (0, 4), (0, 12)), 1, 0, -1) == []
    assert len(hits) == 2 * 5 * 13
    assert len(cross) == sum(hits) > 0


def test_sweep_sees_a_torsion_free_pairing_fault(monkeypatch):
    # the run pairing that tf_listings reads for `absorbed`, one too high in
    # hn alone: only the per-type pairing check can see it
    import moduli_atlas.hn as hn

    def bump_run_pairings(c2, table):
        return ((*run[:3], run[3] + 1, run[4]) for run in table_runs(c2, table))

    monkeypatch.setattr(hn, "table_runs", bump_run_pairings)
    grid = GridSpec((2, 4), (0, 4), (0, 12))
    records = sweep(grid, 1, -1)
    assert records
    assert {r.check.split("(")[0] for r in records} == {"stratum_pairing"}
    # one record per type, at every point that has one, in grid and scan order
    want = []
    for h2 in grid.h_squared_values:
        s = Surface(h2)
        for n in range(grid.n_range[0], grid.n_range[1] + 1):
            for length in range(grid.length_range[0], grid.length_range[1] + 1):
                v = bn_mukai_vector(BNInput(s, n, length))
                want.extend(
                    (h2, n, length, f"stratum_pairing{t[:3]}")
                    for t in oracle_strata(s, v, n + grid.m_margin)
                )
    for threshold in (1, -1):
        found = [(r.h_squared, r.n, r.length, r.check) for r in records if r.threshold == threshold]
        assert found == want


@settings(deadline=None, max_examples=25)
@given(st.lists(windowed_contexts(), min_size=1, max_size=6))
def test_shared_piece_memo_changes_no_result(contexts):
    # one memo across calls, vectors and surfaces gives what fresh scans give
    pieces = {}
    for s, v, m_max in contexts:
        assert oracle_strata(s, v, m_max, pieces) == oracle_strata(s, v, m_max)


def test_sweep_memo_hides_no_seeded_lattice_fault(monkeypatch):
    import moduli_atlas.oracle as oracle

    grid = GridSpec((2, 4), (0, 4), (0, 12))
    honest_vector, honest_pairing = oracle.ideal_sheaf_vector, oracle.mukai_pairing

    def shifted_vector(entry):
        def build(s, deg, length):
            w = honest_vector(s, deg, length)
            fields = {"rank": w.rank, "deg": w.deg, "a": w.a}
            fields[entry] += 1
            return MukaiVector(**fields) if length == 3 else w

        return build

    def shifted_cross_pairing(s, v, w):
        return honest_pairing(s, v, w) + (v != w and v.deg == 2)

    # the re-check compares every entry of v1 + v2 with v: a shift in any one
    # shows, to the type checks and to oracle_bn, which reads the same hits
    for entry in ("rank", "deg", "a"):
        monkeypatch.setattr(oracle, "ideal_sheaf_vector", shifted_vector(entry))
        checks = [r.check for r in sweep(grid, 1, -1)]
        assert (checks.count("enumeration"), checks.count("bn_summary")) == (260, 12), entry
        assert len(checks) == 260 + 12, entry
        monkeypatch.undo()

    monkeypatch.setattr(oracle, "mukai_pairing", shifted_cross_pairing)
    checks = [r.check.split("(")[0] for r in sweep(grid, 1, -1)]
    counts = [checks.count(c) for c in ("stratum_dimension", "stratum_pairing", "bn_summary")]
    assert counts == [2160, 2160, 21]
    assert len(checks) == 2160 + 2160 + 21
    monkeypatch.undo()

    assert sweep(grid, 1, -1) == []


def test_every_hit_gets_its_own_cross_pairing(monkeypatch):
    import moduli_atlas.lattice as lattice
    import moduli_atlas.oracle as oracle

    cross = []

    def counting(s, v, w):
        p = lattice.mukai_pairing(s, v, w)
        if v != w:
            cross.append(p)
        return p

    monkeypatch.setattr(oracle, "mukai_pairing", counting)
    s, v = S2, MukaiVector(2, 5, 3)
    hits = oracle_strata(s, v, 9)
    assert len(cross) == len(hits) == 315
    for (m, ell1, ell2, dim, pairing), p12 in zip(hits, cross):
        v1 = lattice.ideal_sheaf_vector(s, m, ell1)
        v2 = lattice.ideal_sheaf_vector(s, v.deg - m, ell2)
        p11, p22 = lattice.mukai_pairing(s, v1, v1), lattice.mukai_pairing(s, v2, v2)
        assert p12 == lattice.mukai_pairing(s, v1, v2)
        assert pairing == p12 == HNType(s, v, m, ell1, ell2).sub_quotient_pairing()
        assert dim == p11 + p22 + p12 + 2


def test_scans_cache_nothing_between_calls(monkeypatch):
    # a second identical scan builds every piece again and leaves no state
    import copy

    import moduli_atlas.oracle as oracle

    def snapshot():
        return {k: copy.copy(v) if isinstance(v, (dict, list, set)) else v
                for k, v in vars(oracle).items()}

    built = []
    honest = oracle.ideal_sheaf_vector

    def building(s, deg, length):
        built.append((s.h_squared, deg, length))
        return honest(s, deg, length)

    monkeypatch.setattr(oracle, "ideal_sheaf_vector", building)
    before = snapshot()
    for scan in (
        lambda: sweep(GridSpec((2, 4), (0, 3), (0, 8)), 1, -1),
        lambda: oracle_strata(S2, MukaiVector(2, 3, 5), 3),
    ):
        first, first_built = scan(), list(built)
        built.clear()
        assert scan() == first
        assert built == first_built != []
        built.clear()
    assert snapshot() == before


def test_sweep_orders_one_points_findings(monkeypatch):
    # per threshold: bn_summary, then the shared checks, then the failing identities
    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    monkeypatch.setattr(hn, "table_runs", bump_run_dimensions)
    monkeypatch.setattr(bn, "table_runs", bump_run_dimensions)
    records = sweep(GridSpec((2,), (3, 3), (6, 6)), 1, -1)
    groups = [
        (threshold, kind, len(list(group)))
        for (threshold, kind), group in itertools.groupby(
            records, lambda r: (r.threshold, re.match(r"[a-z_]+", r.check).group())
        )
    ]
    per_threshold = [
        ("bn_summary", 1),
        ("stratum_dimension", 158),
        ("dim_formula", 6),
        ("bn_dimension_identity", 3),
    ]
    assert groups == [(t, kind, count) for t in (1, -1) for kind, count in per_threshold]


def test_sweep_thresholds_concatenate_single_sweeps(monkeypatch):
    import moduli_atlas.brill_noether as bn

    monkeypatch.setattr(bn, "table_runs", bump_run_dimensions)
    grid = GridSpec((2,), (2, 3), (0, 8))
    both = sweep(grid, 1, -1)
    assert {r.threshold for r in both} == {1, -1}
    assert both == sweep(grid, 1) + sweep(grid, -1)


def test_shared_bn_scan_leaks_nothing_between_thresholds(monkeypatch):
    # an oracle-side fault: cross pairings with a degree-2 piece read one too high
    import moduli_atlas.oracle as oracle

    honest = oracle.mukai_pairing

    def shifted_cross_pairing(s, v, w):
        return honest(s, v, w) + (v != w and v.deg == 2)

    monkeypatch.setattr(oracle, "mukai_pairing", shifted_cross_pairing)
    grid = GridSpec((2, 4), (0, 4), (0, 12))
    records = sweep(grid, 1, 0, -1)
    assert records == sweep(grid, 1) + sweep(grid, 0) + sweep(grid, -1)
    assert sweep(grid, -1, 1) == sweep(grid, -1) + sweep(grid, 1)
    summaries = {
        t: {(r.h_squared, r.n, r.length): r.oracle for r in records
            if r.check == "bn_summary" and r.threshold == t}
        for t in (1, 0, -1)
    }
    assert [len(summaries[t]) for t in (1, 0, -1)] == [13, 11, 8]
    assert summaries[1] != summaries[0] != summaries[-1] != summaries[1]
    for t, points in summaries.items():
        for (h2, n, length), summary in points.items():
            assert summary == oracle_bn(Surface(h2), n, length, t)


def test_sweep_needs_a_threshold():
    with pytest.raises(ValueError, match="no threshold"):
        sweep(GridSpec((2,), (0, 0), (0, 1)))


def stem(label):
    """The label stem of a check, without its type or run suffix."""
    return re.match(r"[a-z_]+", label).group()


def seed_run_dimensions(monkeypatch):
    import moduli_atlas.brill_noether as bn
    import moduli_atlas.hn as hn

    monkeypatch.setattr(hn, "table_runs", bump_run_dimensions)
    monkeypatch.setattr(bn, "table_runs", bump_run_dimensions)


def seed_cross_pairing(monkeypatch):
    import moduli_atlas.oracle as oracle

    honest = oracle.mukai_pairing

    def shifted(s, v, w):
        return honest(s, v, w) + (v != w and v.deg == 2)

    monkeypatch.setattr(oracle, "mukai_pairing", shifted)


def seed_lattice_entry(monkeypatch):
    import moduli_atlas.oracle as oracle

    honest = oracle.ideal_sheaf_vector

    def shifted(s, deg, length):
        w = honest(s, deg, length)
        return MukaiVector(w.rank, w.deg, w.a + 1) if length == 3 else w

    monkeypatch.setattr(oracle, "ideal_sheaf_vector", shifted)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("per_threshold", [False, True])
def test_a_table_entry_records_at_its_place(monkeypatch, per_threshold, position):
    # a shared entry runs once per point and is recorded under every threshold;
    # either scope lands at its place in the table at each point and threshold
    import moduli_atlas.oracle as oracle

    seed_run_dimensions(monkeypatch)
    grid = GridSpec((2,), (3, 3), (5, 7))
    honest = sweep(grid, 1, -1)
    entry_of = {label: i for i, (labels, _, _) in enumerate(oracle._CHECKS) for label in labels}
    calls = []

    def probe(labels, point, *at):
        if at:
            runs, threshold = at
            assert runs == bn_runs(point.inp, threshold)
        calls.append((point.inp.length, *at[1:]))
        return [(f"{labels[0]}[{point.inp.length}]", point.inp.length, at[1] if at else None)]

    table = list(oracle._CHECKS)
    table.insert(position, (("probe",), per_threshold, probe))
    monkeypatch.setattr(oracle, "_CHECKS", tuple(table))
    entry_of["probe"] = position - 0.5  # after the entries before it, before the rest
    records = sweep(grid, 1, -1)
    assert [r for r in records if stem(r.check) != "probe"] == honest

    lengths = range(5, 8)
    if per_threshold:
        assert calls == [(length, t) for length in lengths for t in (1, -1)]
    else:
        assert calls == [(length,) for length in lengths]
    for (threshold, length), group in itertools.groupby(records, lambda r: (r.threshold, r.length)):
        group = list(group)
        order = [entry_of[stem(r.check)] for r in group]
        assert order == sorted(order)
        probes = [r for r in group if stem(r.check) == "probe"]
        assert [(r.check, r.main, r.oracle) for r in probes] == [
            (f"probe[{length}]", length, threshold if per_threshold else None)
        ]
    assert len(records) == len(honest) + 2 * len(lengths)


def test_each_finding_has_a_stem_its_entry_declares(monkeypatch):
    # each stem is declared by one entry, only that entry's check emits it,
    # and the seeded faults between them reach every stem
    import moduli_atlas.oracle as oracle

    declared = [label for labels, _, _ in oracle._CHECKS for label in labels]
    assert len(declared) == len(set(declared))
    emitted = []

    def tagged(labels, check):
        def run(*args):
            found = check(*args)
            emitted.extend((labels, label) for label, _, _ in found)
            return found

        return run

    table = tuple((labels, each, tagged(labels, check)) for labels, each, check in oracle._CHECKS)
    monkeypatch.setattr(oracle, "_CHECKS", table)
    grid = GridSpec((2, 4), (0, 4), (0, 12))
    seen = set()
    for seed in (seed_run_dimensions, seed_cross_pairing, seed_lattice_entry):
        emitted.clear()
        with pytest.MonkeyPatch.context() as faults:
            seed(faults)
            records = sweep(grid, 1, -1)
        assert records, seed.__name__
        assert all(stem(label) in labels for labels, label in emitted), seed.__name__
        assert {label for _, label in emitted} == {r.check for r in records}, seed.__name__
        seen |= {stem(r.check) for r in records}
    assert seen == set(declared)


@settings(deadline=None, max_examples=40)
@given(windowed_contexts())
def test_oracle_strata_extends_oracle_enumerate(ctx):
    s, v, m_max = ctx
    strata = oracle_strata(s, v, m_max)
    assert [t[:3] for t in strata] == oracle_enumerate(s, v, m_max)
    for m, ell1, ell2, dim, pairing in strata:
        t = HNType(s, v, m, ell1, ell2)
        assert dim == dim_hn_stratum(t)
        assert pairing == t.sub_quotient_pairing()


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
    for threshold in (2, 1, 0, -1):
        summary = oracle_bn(s, n, length, threshold)
        rep = classify_bn(BNInput(s, n, length), threshold)
        assert summary.verdict == rep.verdict
        assert summary.dimensions == tuple(sorted(c.dimension for c in rep.components))
        assert summary.beta == any(c.kind == "beta" for c in rep.components)
        assert summary.alpha_count == sum(1 for c in rep.components if c.kind == "alpha")
