import pytest

from hypothesis import example, given, settings, strategies as st

from moduli_atlas.hn import (
    HNType,
    SEMISTABLE,
    dim_hn_closed_form,
    dim_hn_stratum,
    enumerate_hn_types,
    hn_runs,
    hnp_dominates,
    make_hn_type,
    run_listing,
)
from moduli_atlas.lattice import (
    MukaiVector,
    Surface,
    mukai_pairing,
    second_chern,
)

from util import rank2_contexts, windowed_contexts

S2 = Surface(2)
S4 = Surface(4)
V235 = MukaiVector(2, 3, 5)


def test_make_hn_type_solves_budget():
    t = make_hn_type(S2, V235, 2, 0)
    assert t.triple() == (2, 0, 2)
    assert t.sub_vector() + t.quotient_vector() == V235


def test_make_hn_type_rejects_increasing_slope():
    with pytest.raises(ValueError, match="not a Harder-Narasimhan ordering"):
        make_hn_type(S2, V235, 1, 0)


def test_make_hn_type_equal_slope():
    t = make_hn_type(S2, MukaiVector(2, 2, 2), 1, 0)
    assert t.triple() == (1, 0, 2)


def test_make_hn_type_rejects_equal_slope_tie():
    # budget 2 at m=1, so ell1=1 forces ell1 == ell2
    with pytest.raises(ValueError, match="not a Harder-Narasimhan ordering"):
        make_hn_type(S2, MukaiVector(2, 2, 2), 1, 1)


def test_make_hn_type_rejects_overdrawn_budget():
    with pytest.raises(ValueError, match="length budget exhausted"):
        make_hn_type(S2, V235, 2, 3)


def test_make_hn_type_rejects_negative_length():
    with pytest.raises(ValueError, match="negative subscheme length"):
        make_hn_type(S2, V235, 2, -1)


def test_make_hn_type_rejects_other_ranks():
    with pytest.raises(ValueError, match="unsupported rank"):
        make_hn_type(S2, MukaiVector(1, 3, 5), 2, 0)


def test_enumerate_window_three():
    types = enumerate_hn_types(S2, V235, 3)
    assert len(types) == 10
    assert sum(1 for t in types if t.m == 2) == 3
    assert sum(1 for t in types if t.m == 3) == 7


def test_enumerate_empty_budget():
    assert enumerate_hn_types(S2, MukaiVector(2, 3, 9), 2) == []


def test_enumerate_equal_slope_filter():
    # m=1 budget 2 keeps only (0,2); m=2 budget 4 keeps all five splits
    types = enumerate_hn_types(S2, MukaiVector(2, 2, 2), 2)
    assert [t.triple() for t in types] == [
        (1, 0, 2),
        (2, 0, 4),
        (2, 1, 3),
        (2, 2, 2),
        (2, 3, 1),
        (2, 4, 0),
    ]


def test_enumerate_rejects_other_ranks():
    with pytest.raises(ValueError, match="unsupported rank"):
        enumerate_hn_types(S2, MukaiVector(1, 3, 5), 3)


def test_dim_hn_stratum_values():
    assert dim_hn_stratum(make_hn_type(S2, V235, 2, 0)) == 1
    assert dim_hn_stratum(make_hn_type(S2, MukaiVector(2, 2, 6), 2, 0)) == -8


def test_dim_hn_closed_form_values():
    for ell1 in range(3):
        assert dim_hn_closed_form(make_hn_type(S2, V235, 2, ell1)) == 1
    assert dim_hn_closed_form(make_hn_type(S2, MukaiVector(2, 2, 6), 2, 0)) == -8


def test_dim_formulas_agree_at_equal_slope():
    t = make_hn_type(S4, MukaiVector(2, 2, 5), 1, 0)
    assert dim_hn_stratum(t) == -1
    assert dim_hn_closed_form(t) == -1
    # the square term vanishes: 3*c2 - 4 - 3*n^2*h2/4
    assert dim_hn_closed_form(t) == 3 * second_chern(S4, t.total) - 4 - 12


def test_dominates_by_kink_height():
    t1 = make_hn_type(S2, V235, 3, 0)
    t2 = make_hn_type(S2, V235, 2, 0)
    assert t1.triple() == (3, 0, 6)
    assert hnp_dominates(t1, t2)
    assert not hnp_dominates(t2, t1)


def test_dominates_reflexive_on_examples():
    for t in enumerate_hn_types(S2, V235, 3):
        assert hnp_dominates(t, t)


def test_semistable_is_minimum():
    t = make_hn_type(S2, V235, 2, 0)
    assert hnp_dominates(t, SEMISTABLE)
    assert not hnp_dominates(SEMISTABLE, t)
    assert hnp_dominates(SEMISTABLE, SEMISTABLE)
    assert repr(SEMISTABLE) == "Semistable"


def test_dominates_rejects_mixed_contexts():
    t1 = make_hn_type(S2, V235, 2, 0)
    t2 = make_hn_type(S2, MukaiVector(2, 2, 2), 1, 0)
    with pytest.raises(ValueError, match="incomparable contexts"):
        hnp_dominates(t1, t2)
    with pytest.raises(ValueError, match="incomparable contexts"):
        hnp_dominates(make_hn_type(S2, V235, 2, 0), make_hn_type(S4, MukaiVector(2, 3, 5), 2, 0))


@settings(deadline=None)
@given(windowed_contexts())
def test_dim_formulas_agree(ctx):
    s, v, m_max = ctx
    for t in enumerate_hn_types(s, v, m_max):
        assert dim_hn_stratum(t) == dim_hn_closed_form(t)


@settings(deadline=None)
@given(windowed_contexts())
def test_budget_conservation(ctx):
    s, v, m_max = ctx
    c2 = second_chern(s, v)
    n = v.deg
    for t in enumerate_hn_types(s, v, m_max):
        assert t.ell1 + t.ell2 + t.m * (n - t.m) * s.h_squared == c2
        assert t.sub_vector() + t.quotient_vector() == v


@settings(deadline=None)
@given(windowed_contexts())
def test_pairing_identity(ctx):
    s, v, m_max = ctx
    n = v.deg
    for t in enumerate_hn_types(s, v, m_max):
        spread = 2 * t.m - n
        expected = t.ell1 + t.ell2 - 2 - (s.h_squared // 2) * spread * spread
        assert t.sub_quotient_pairing() == expected


@settings(deadline=None)
@given(windowed_contexts())
def test_enumeration_complete(ctx):
    # independent double loop over the whole (m, ell1) rectangle
    s, v, m_max = ctx
    n = v.deg
    c2 = second_chern(s, v)
    expected = []
    for m in range(-abs(m_max) - abs(n), m_max + 1):
        budget = c2 - m * (n - m) * s.h_squared
        for ell1 in range(0, budget + 1):
            ell2 = budget - ell1
            if not (m > n - m or (m == n - m and ell1 < ell2)):
                continue
            expected.append((m, ell1, ell2))
    assert [t.triple() for t in enumerate_hn_types(s, v, m_max)] == sorted(expected)


@settings(deadline=None)
@given(windowed_contexts())
@example((S2, MukaiVector(2, 4, 8), 6))  # its m = 2 run has equal slope, budget 2
@example((S4, MukaiVector(2, 2, 0), 2))  # equal slope, budget 6
def test_run_triples_expand_ell1_in_order(ctx):
    s, v, m_max = ctx
    for m, hi, budget, pairing, dimension in hn_runs(s, v, m_max):
        if m == v.deg - m:
            assert 2 * hi < budget
        expected = [(m, e, budget - e) for e in range(hi + 1)]
        listing = run_listing("hn", dimension, None, False, None, m, 0, hi, budget)
        assert [(listing[5], e1, e2) for e1, e2 in zip(listing[6], listing[7])] == expected


@settings(deadline=None)
@given(windowed_contexts())
def test_enumeration_deterministic_and_monotone(ctx):
    s, v, m_max = ctx
    first = enumerate_hn_types(s, v, m_max)
    assert first == enumerate_hn_types(s, v, m_max)
    wider = enumerate_hn_types(s, v, m_max + 2)
    assert wider[: len(first)] == first


@settings(deadline=None)
@given(windowed_contexts(max_c2=20))
def test_dominance_partial_order(ctx):
    s, v, m_max = ctx
    window = [SEMISTABLE] + enumerate_hn_types(s, v, m_max)[:8]
    for t1 in window:
        assert hnp_dominates(t1, t1)
        for t2 in window:
            if hnp_dominates(t1, t2) and hnp_dominates(t2, t1):
                assert t1 is t2 or t1 == t2
            for t3 in window:
                if hnp_dominates(t1, t2) and hnp_dominates(t2, t3):
                    assert hnp_dominates(t1, t3)


@settings(deadline=None)
@given(rank2_contexts(), st.integers(0, 6), st.integers(1, 4))
def test_dimension_grows_with_kink(ctx, lo, step):
    # closed form is strictly increasing in m above the balance point
    s, v = ctx
    n = v.deg
    m1 = (n + 1) // 2 + lo
    m2 = m1 + step
    d1 = dim_of_balanced(s, v, m1)
    d2 = dim_of_balanced(s, v, m2)
    assert d2 > d1


def dim_of_balanced(s, v, m):
    # dimension depends only on m, so any lengths will do
    return dim_hn_closed_form(HNType(s, v, m, 0, 0))
