"""The per-m run core against per-type formulas and the brute-force oracle.

`scan_rows` counts runs without listing components, while `classify_bn` and
`classify_tf_components` expand them; every figure must agree with what the
per-type formulas (`dim_hn_stratum`, `HNType.sub_quotient_pairing`) and the
oracle give.
"""

import pytest

from moduli_atlas.brill_noether import VERDICT_WHOLE, BNInput, classify_bn
from moduli_atlas.hn import dim_hn_stratum, make_hn_type
from moduli_atlas.lattice import MukaiVector, Surface
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


@pytest.mark.parametrize("threshold", [1, -1])
@pytest.mark.parametrize("h2", [2, 4, 6])
def test_scan_rows_match_expanded_components_and_oracle(h2, threshold):
    s = Surface(h2)
    rows = scan_rows(s, (0, N_MAX), (0, LENGTH_MAX), threshold)
    assert [(r.n, r.length) for r in rows] == [
        (n, length) for n in range(N_MAX + 1) for length in range(LENGTH_MAX + 1)
    ]
    for row in rows:
        assert row == expanded_row(s, row.n, row.length, threshold)
        ora = oracle_bn(s, row.n, row.length, threshold)
        assert (row.verdict, row.alpha_count, row.beta) == (ora.verdict, ora.alpha_count, ora.beta)
        if row.verdict != VERDICT_WHOLE:
            dims = ora.dimensions
            assert (row.min_dim, row.max_dim) == ((dims[0], dims[-1]) if dims else (None, None))


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
