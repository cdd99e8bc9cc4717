"""The per-m run core against per-type formulas and the brute-force oracle.

`scan_rows` counts the runs of `bn_row` without listing components, while
`classify_bn` and `classify_tf_components` expand them; every figure must
agree with what the per-type formulas (`dim_hn_stratum`,
`HNType.sub_quotient_pairing`) and the oracle give.
"""

import pytest

from moduli_atlas.brill_noether import (
    VERDICT_COMPONENTS,
    VERDICT_EMPTY,
    VERDICT_WHOLE,
    BNInput,
    bn_mukai_vector,
    bn_row,
    bn_runs,
    classify_bn,
)
from moduli_atlas.hn import dim_hn_stratum, make_hn_type
from moduli_atlas.lattice import MukaiVector, Surface, euler_characteristic, h0_line_bundle
from moduli_atlas.oracle import oracle_bn, oracle_enumerate
from moduli_atlas.report import ScanRow, scan_rows
from moduli_atlas.torsion_free import classify_tf_components, mss_nonempty

N_MAX, LENGTH_MAX = 12, 120


def expanded_row(s: Surface, n: int, length: int, threshold: int) -> ScanRow:
    """The scan row built from the components classify_bn lists."""
    rep = classify_bn(BNInput(s, n, length), threshold)
    dims = [c.dimension for c in rep.components]
    if rep.verdict == VERDICT_WHOLE:
        lo = hi = rep.hilb_dimension
    else:
        lo, hi = (min(dims), max(dims)) if dims else (None, None)
    alpha = sum(1 for c in rep.components if c.kind == "alpha")
    beta = any(c.kind == "beta" for c in rep.components)
    return ScanRow(s.h_squared, n, length, rep.verdict, alpha, beta, lo, hi, threshold)


# the N range from 0, and one that starts mid-row and crosses h0(n*H) (at
# n = 6..12 for h2 = 2), so offset starts and whole-scheme suffixes are compared
LENGTH_RANGES = [(0, LENGTH_MAX), (37, 160)]


@pytest.mark.parametrize("length_range", LENGTH_RANGES)
@pytest.mark.parametrize("threshold", [1, 0, -1])
@pytest.mark.parametrize("h2", [2, 4, 6])
def test_scan_rows_match_expanded_components_and_oracle(h2, threshold, length_range):
    s = Surface(h2)
    rows = scan_rows(s, (0, N_MAX), length_range, threshold)
    lengths = range(length_range[0], length_range[1] + 1)
    assert [(r.n, r.length) for r in rows] == [
        (n, length) for n in range(N_MAX + 1) for length in lengths
    ]
    whole = {r.n for r in rows if r.verdict == VERDICT_WHOLE}
    assert whole & {r.n for r in rows if r.verdict != VERDICT_WHOLE}  # a row crosses h0
    for row in rows:
        assert row == expanded_row(s, row.n, row.length, threshold)
        ora = oracle_bn(s, row.n, row.length, threshold)
        assert (row.verdict, row.alpha_count, row.beta) == (ora.verdict, ora.alpha_count, ora.beta)
        if row.verdict != VERDICT_WHOLE:
            dims = ora.dimensions
            assert (row.min_dim, row.max_dim) == ((dims[0], dims[-1]) if dims else (None, None))


def brute_alpha_types(s: Surface, n: int, length: int, threshold: int) -> list:
    """The alpha types (m, ell1, ell2) at one point, type by type from the conditions."""
    v = bn_mukai_vector(BNInput(s, n, length))
    if euler_characteristic(v) <= 0 or length > h0_line_bundle(s, n):
        return []
    found = []
    for m in range(n):  # m <= n - 1
        q = n - m
        for ell2 in range(h0_line_bundle(s, q)):
            ell1 = length - m * q * s.h_squared - ell2
            try:
                t = make_hn_type(s, v, m, ell1)
            except ValueError:
                continue
            assert t.ell2 == ell2
            if t.sub_quotient_pairing() <= threshold:
                found.append(t.triple())
    return sorted(found)


@pytest.mark.parametrize("threshold", [1, 0, -1])
@pytest.mark.parametrize("h2", [2, 4, 6])
def test_bn_alpha_listings_expand_to_brute_force_types(h2, threshold):
    # the oracle compares counts and dimensions only, so this pins the ranges
    # themselves: a listing shifted by one in ell1 fails here
    s = Surface(h2)
    listed = 0
    for n in range(N_MAX + 1):
        for length in range(161):
            runs = bn_runs(BNInput(s, n, length), threshold)
            types = [
                (m, ell1, ell2)
                for kind, _, _, _, _, m, ell1s, ell2s in runs.listings
                if kind == "alpha"
                for ell1, ell2 in zip(ell1s, ell2s)
            ]
            assert types == brute_alpha_types(s, n, length, threshold), (n, length)
            listed += len(types)
    assert listed > 0


def test_scan_rows_build_one_run_table_per_twist(monkeypatch):
    import moduli_atlas.brill_noether as bn

    calls = []
    honest = bn.run_table

    def counting(s, n, m_max, c2_max):
        calls.append((s, n, m_max, c2_max))
        return honest(s, n, m_max, c2_max)

    monkeypatch.setattr(bn, "run_table", counting)
    s = Surface(2)
    rows = scan_rows(s, (0, 4), (0, 12), 1)
    assert len(rows) == 5 * 13
    # each table reaches the row's largest length that is not the whole scheme
    assert calls == [(s, n, n - 1, min(12, h0_line_bundle(s, n))) for n in range(5)]


def test_a_point_costs_its_runs_not_its_twist():
    # at n = 10**6 and N <= 9 every m has m*(n-m)*H.H > N, so no run is
    # nonempty; at N near h^0 every m has a nonnegative budget, but the
    # pairing N - 2 - (m^2 + q^2)*H.H/2 exceeds the threshold, so only the
    # beta component is listed; and N = 2*10**12 > h^0 is the whole scheme,
    # which reads no run.  The run table must not hold the n/2 rows they skip
    import tracemalloc

    s = Surface(2)
    n = 10**6
    h0 = h0_line_bundle(s, n)
    tracemalloc.start()
    try:
        runs = bn_runs(BNInput(s, n, 5))
        row = list(bn_row(s, n, range(10), 1))
        whole = list(bn_row(s, n, [2 * 10**12], 1))
        top = bn_runs(BNInput(s, n, h0))
        top_row = list(bn_row(s, n, range(h0 - 9, h0 + 1), 1))
        whole_point = bn_runs(BNInput(s, n, 2 * 10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (runs.verdict, runs.listings) == (VERDICT_EMPTY, ())
    assert [(r.verdict, r.listings) for r in row] == [(VERDICT_EMPTY, ())] * 10
    assert [(r.verdict, r.listings) for r in whole] == [(VERDICT_WHOLE, ())]
    for r in [top, *top_row]:
        assert r.verdict == VERDICT_COMPONENTS
        assert [listing[0] for listing in r.listings] == ["beta"]
    assert len(top_row) == 10
    assert (whole_point.verdict, whole_point.listings) == (VERDICT_WHOLE, ())


@pytest.mark.parametrize("window", [0, 2])
def test_tf_strata_match_per_type_formulas(window):
    checked = 0
    for h2 in (2, 4, 6):
        s = Surface(h2)
        for deg in range(-3, 16):
            m_max = -(-deg // 2) + window
            for c2 in range(-4, 31):
                v = MukaiVector(2, deg, (deg * deg * h2) // 2 + 2 - c2)
                nonempty = mss_nonempty(s, v)
                for threshold in (1, -1, -3):
                    strata = [
                        c for c in classify_tf_components(s, v, m_max, threshold)
                        if c.kind != "semistable"
                    ]
                    assert [c.triple for c in strata] == oracle_enumerate(s, v, m_max)
                    for c in strata:
                        t = make_hn_type(s, v, *c.triple[:2])
                        assert c.dimension == dim_hn_stratum(t)
                        assert c.absorbed == (nonempty and t.sub_quotient_pairing() > threshold)
                    checked += len(strata)
    assert checked > 0
