import pytest

from hypothesis import example, given, settings, strategies as st

from moduli_atlas.hn import SEMISTABLE, enumerate_hn_types, hnp_dominates, make_hn_type
from moduli_atlas.lattice import MukaiVector, Surface, divisibility, mukai_pairing, primitive_part
from moduli_atlas.torsion_free import (
    DEFAULT_THRESHOLD,
    classify_tf_components,
    dim_mss,
    mss_nonempty,
    tf_listings,
)

from util import windowed_contexts

S2 = Surface(2)
S4 = Surface(4)
V235 = MukaiVector(2, 3, 5)


def test_mss_nonempty_values():
    assert mss_nonempty(S2, V235)
    assert not mss_nonempty(S2, MukaiVector(2, 3, 9))
    assert mss_nonempty(S4, MukaiVector(2, 1, 0))


def test_dim_mss_values():
    assert dim_mss(S4, MukaiVector(2, 1, 0)) == 5
    assert dim_mss(S4, MukaiVector(2, 2, 6)) == -4
    assert dim_mss(S2, MukaiVector(2, 2, 2)) == 2
    # primitive rigid vector: the <v0,v0> = -2 branch with l = 1
    assert dim_mss(S2, V235) == -1


def test_dim_mss_raises_when_empty():
    with pytest.raises(ValueError, match="semistable stack is empty"):
        dim_mss(S2, MukaiVector(2, 3, 9))


def _mss_by_primitive_part(s, v):
    """The semistable stack dimension worked out from v0, or None when empty."""
    d = divisibility(v)
    v0 = primitive_part(v)
    norm0 = mukai_pairing(s, v0, v0)
    norm = mukai_pairing(s, v, v)
    if norm0 < -2:
        return None
    if norm0 == -2:
        return norm + d * d
    if norm > 0:
        return norm + 1
    return d


@settings(deadline=None)
@given(st.sampled_from([S2, S4, Surface(6)]), st.integers(-12, 12), st.integers(-60, 60))
@example(S2, 2, 0)  # d = 2, <v,v> = 8
@example(S4, 2, 6)  # d = 2, <v0,v0> = -2: the d^2 branch, dimension -4
@example(S2, 2, 2)  # <v,v> = 0 with d = 2
@example(S4, 1, 1)  # <v,v> = 0 with d = 1
@example(S2, 3, 9)  # empty locus
def test_semistable_dimension_matches_primitive_part(s, deg, a):
    v = MukaiVector(2, deg, a)
    expected = _mss_by_primitive_part(s, v)
    assert mss_nonempty(s, v) == (expected is not None)
    if expected is None:
        with pytest.raises(ValueError, match="semistable stack is empty"):
            dim_mss(s, v)
    else:
        assert dim_mss(s, v) == expected


def test_classify_rigid_vector():
    comps = classify_tf_components(S2, V235, 3)
    assert len(comps) == 11
    assert comps[0].kind == "semistable"
    assert comps[0].dimension == -1
    pairings = {
        c.triple[0]: make_hn_type(S2, V235, *c.triple[:2]).sub_quotient_pairing()
        for c in comps[1:]
    }
    assert pairings == {2: -1, 3: -5}
    assert not any(c.absorbed for c in comps)


def test_classify_without_semistable_locus():
    comps = classify_tf_components(S2, MukaiVector(2, 3, 9), 3)
    assert len(comps) == 3
    assert all(c.triple[0] == 3 for c in comps)
    assert not any(c.kind == "semistable" for c in comps)
    assert not any(c.absorbed for c in comps)


def test_classify_divisible_vector():
    comps = classify_tf_components(S2, MukaiVector(2, 2, 2), 1)
    assert len(comps) == 2
    assert comps[0].kind == "semistable" and comps[0].dimension == 2
    assert comps[1].triple == (1, 0, 2)
    t = make_hn_type(S2, MukaiVector(2, 2, 2), *comps[1].triple[:2])
    assert t.sub_quotient_pairing() == 0
    assert comps[1].dimension == 2
    assert not comps[1].absorbed


def test_classify_flags_absorbed_strata():
    # equal-slope splittings of (2,0,-4) all have pairing 4 > 1
    comps = classify_tf_components(S2, MukaiVector(2, 0, -4), 0)
    assert comps[0].kind == "semistable" and comps[0].dimension == 17
    assert [c.triple for c in comps[1:]] == [(0, 0, 6), (0, 1, 5), (0, 2, 4)]
    assert all(c.absorbed for c in comps[1:])
    # a lenient threshold keeps them
    lenient = classify_tf_components(S2, MukaiVector(2, 0, -4), 0, threshold=4)
    assert not any(c.absorbed for c in lenient)


def test_classify_rejects_other_ranks():
    with pytest.raises(ValueError, match="unsupported rank"):
        classify_tf_components(S2, MukaiVector(1, 3, 5), 3)


@pytest.mark.parametrize("rank", [-2, -1, 0, 1, 3, 4])
@pytest.mark.parametrize("deg, a", [(0, 0), (3, 5), (-1, 7)])
def test_tf_listings_rejects_every_rank_but_two(rank, deg, a):
    with pytest.raises(ValueError, match="unsupported rank"):
        tf_listings(S2, MukaiVector(rank, deg, a), 3)


@settings(deadline=None)
@given(windowed_contexts(), st.sampled_from([1, -1, 0]))
def test_absorption_criterion(ctx, threshold):
    s, v, m_max = ctx
    nonempty = mss_nonempty(s, v)
    for c in classify_tf_components(s, v, m_max, threshold):
        if c.kind == "semistable":
            assert nonempty
            continue
        pairing = make_hn_type(s, v, *c.triple[:2]).sub_quotient_pairing()
        expected = nonempty and pairing > threshold
        assert c.absorbed == expected


@settings(deadline=None)
@given(windowed_contexts())
def test_divisible_low_norm_strata_never_absorbed(ctx):
    # <v0,v0> in {0,-2} with divisible v forces <v1,v2> <= 0 on every stratum
    s, v, m_max = ctx
    if divisibility(v) < 2:
        return
    v0 = primitive_part(v)
    if mukai_pairing(s, v0, v0) not in (0, -2):
        return
    for t in enumerate_hn_types(s, v, m_max):
        assert t.sub_quotient_pairing() <= 0


@settings(deadline=None)
@given(windowed_contexts(max_c2=20))
def test_no_mutual_dominance_between_components(ctx):
    s, v, m_max = ctx
    kept = [
        SEMISTABLE if c.kind == "semistable" else make_hn_type(s, v, *c.triple[:2])
        for c in classify_tf_components(s, v, m_max)
        if not c.absorbed
    ]
    for i, t1 in enumerate(kept):
        for t2 in kept[i + 1 :]:
            assert not (hnp_dominates(t1, t2) and hnp_dominates(t2, t1))


@settings(deadline=None)
@given(windowed_contexts(), st.integers(1, 3))
def test_count_stability_under_window_growth(ctx, extra):
    s, v, m_max = ctx
    narrow = classify_tf_components(s, v, m_max)
    wide = classify_tf_components(s, v, m_max + extra)
    assert wide[: len(narrow)] == narrow


@settings(deadline=None)
@given(windowed_contexts())
def test_mss_stratum_dimension_gap(ctx):
    # dim_mss - dim_hn = <v1,v2> - 1 on every stratum of a positive-norm vector
    s, v, m_max = ctx
    if mukai_pairing(s, v, v) <= 0:
        return
    top = dim_mss(s, v)
    for c in classify_tf_components(s, v, m_max):
        if c.kind == "semistable":
            continue
        pairing = make_hn_type(s, v, *c.triple[:2]).sub_quotient_pairing()
        assert top - c.dimension == pairing - 1


def test_component_kind_flag():
    comps = classify_tf_components(S2, V235, 2)
    assert comps[0].kind == "semistable"
    assert comps[1].kind == "hn"
