import pytest

from hypothesis import given, settings, strategies as st

from moduli_atlas.brill_noether import (
    BNInput,
    VERDICT_COMPONENTS,
    VERDICT_EMPTY,
    VERDICT_WHOLE,
    bn_mukai_vector,
    bn_row,
    bn_runs,
    classify_bn,
    exceptional,
)
from moduli_atlas import torsion_free
from moduli_atlas.hn import make_hn_type
from moduli_atlas.lattice import (
    MukaiVector,
    Surface,
    euler_characteristic,
    h0_line_bundle,
    mukai_pairing,
    second_chern,
)
from moduli_atlas.report import NOTE_EXCEPTIONAL, bn_head

from util import surfaces

S2 = Surface(2)
S4 = Surface(4)

bn_inputs = st.builds(
    BNInput, surfaces, st.integers(0, 8), st.integers(0, 40)
)


def test_input_validation():
    with pytest.raises(ValueError, match="twist degree must be nonnegative"):
        BNInput(S2, -1, 3)
    with pytest.raises(ValueError, match="negative subscheme length"):
        BNInput(S2, 1, -3)


def test_bn_row_checks_its_inputs_as_bn_input_does():
    # before any point is classified, and the twist before the lengths
    with pytest.raises(ValueError, match="twist degree must be nonnegative"):
        bn_row(S2, -1, range(3))
    with pytest.raises(ValueError, match="twist degree must be nonnegative"):
        bn_row(S2, -1, range(-3, 3))
    with pytest.raises(ValueError, match="negative subscheme length"):
        bn_row(S2, 1, range(-3, 3))
    with pytest.raises(ValueError, match="negative subscheme length"):
        bn_row(S2, 1, [4, -1, 2])
    assert list(bn_row(S2, 1, range(0))) == []
    with pytest.raises(ValueError, match="twist degree must be nonnegative"):
        bn_row(S2, -1, [])
    assert list(bn_row(S2, 2, [])) == []
    with pytest.raises(ValueError, match="negative subscheme length"):
        bn_row(S2, 0, [3, -2, 0])


@settings(deadline=None, max_examples=60)
@given(
    surfaces,
    st.integers(0, 12),
    st.integers(0, 200),
    st.integers(0, 40),
    st.integers(-3, 3),
)
def test_bn_row_is_bn_runs_point_by_point(s, n, start, width, threshold):
    lengths = range(start, start + width)
    assert list(bn_row(s, n, lengths, threshold)) == [
        bn_runs(BNInput(s, n, length), threshold) for length in lengths
    ]


def test_bn_mukai_vector_values():
    assert bn_mukai_vector(BNInput(S2, 3, 6)) == MukaiVector(2, 3, 5)
    assert bn_mukai_vector(BNInput(S4, 2, 4)) == MukaiVector(2, 2, 6)
    assert bn_mukai_vector(BNInput(S2, 0, 0)) == MukaiVector(2, 0, 2)


@given(bn_inputs)
def test_bn_vector_has_c2_equal_length(inp):
    assert second_chern(inp.surface, bn_mukai_vector(inp)) == inp.length


def test_exceptional_values():
    assert exceptional(S2, MukaiVector(2, 3, 5))
    assert not exceptional(S4, MukaiVector(2, 3, 5))
    assert not exceptional(S2, MukaiVector(2, 3, 9))


def test_bn_row_flags_the_exceptional_point_at_every_length():
    # bn_row decides its exceptional point once per row; bn_runs is a
    # one-length row, so the row-against-point property cannot see a wrong
    # hoist: check each length against `exceptional` directly
    flagged = []
    for s in (S2, S4):
        for n in range(7):
            for runs in bn_row(s, n, range(60)):
                assert runs.exceptional_case == exceptional(s, runs.mukai_vector)
                if runs.exceptional_case:
                    flagged.append((s.h_squared, n, runs.mukai_vector))
    assert flagged == [(2, 3, MukaiVector(2, 3, 5))]


def test_bn_head_notes_exactly_the_exceptional_point():
    # the note reads `exceptional_case` alone: the flagged point is never whole
    for s in (S2, S4):
        for n in range(7):
            for length, runs in enumerate(bn_row(s, n, range(60))):
                notes = bn_head(BNInput(s, n, length), runs, 1).notes
                assert notes == ((NOTE_EXCEPTIONAL,) if exceptional(s, runs.mukai_vector) else ())
                assert not (notes and runs.verdict == VERDICT_WHOLE)


def test_bn_runs_pairs_v_once_per_semistable_check(monkeypatch):
    # a point that can have a beta (n >= 1, not whole, not exceptional) costs
    # one self-pairing of v; any other point costs none
    calls = []
    real = torsion_free.mukai_pairing

    def counted(s, v, w):
        calls.append(v)
        return real(s, v, w)

    monkeypatch.setattr(torsion_free, "mukai_pairing", counted)
    for s in (S2, S4):
        for n in range(5):
            for length in range(30):
                calls.clear()
                runs = bn_runs(BNInput(s, n, length))
                checked = n >= 1 and runs.verdict != VERDICT_WHOLE and not runs.exceptional_case
                assert len(calls) == checked


def test_classify_single_beta_degree_one():
    rep = classify_bn(BNInput(S4, 1, 4))
    assert rep.verdict == VERDICT_COMPONENTS
    assert [c.kind for c in rep.components] == ["beta"]
    assert rep.components[0].dimension == 7
    assert rep.components[0].codimension == 1


def test_classify_single_beta_degree_two():
    rep = classify_bn(BNInput(S4, 2, 4))
    assert [c.kind for c in rep.components] == ["beta"]
    assert rep.components[0].dimension == 4


def test_classify_small_lengths():
    for n in (1, 2):
        rep = classify_bn(BNInput(S2, n, 2))
        assert [c.kind for c in rep.components] == ["beta"]
        assert rep.components[0].dimension == 2
    assert classify_bn(BNInput(S2, 3, 2)).verdict == VERDICT_EMPTY


def test_classify_exceptional_case():
    rep = classify_bn(BNInput(S2, 3, 6))
    assert rep.exceptional_case
    assert rep.verdict == VERDICT_COMPONENTS
    assert all(c.kind == "alpha" for c in rep.components)
    assert [c.triple for c in rep.components] == [(2, 0, 2), (2, 1, 1), (2, 2, 0)]
    assert [c.dimension for c in rep.components] == [8, 8, 8]


def test_classify_whole_hilbert_scheme():
    rep = classify_bn(BNInput(S2, 1, 5))
    assert rep.verdict == VERDICT_WHOLE
    assert rep.hilb_dimension == 10
    assert rep.components == ()


def test_classify_degree_zero_is_never_proper():
    assert classify_bn(BNInput(S2, 0, 0)).verdict == VERDICT_EMPTY
    assert classify_bn(BNInput(S2, 0, 1)).verdict == VERDICT_EMPTY
    assert classify_bn(BNInput(S2, 0, 2)).verdict == VERDICT_WHOLE


def test_threshold_sensitivity_showcase():
    strict = classify_bn(BNInput(S2, 3, 7), threshold=-1)
    loose = classify_bn(BNInput(S2, 3, 7), threshold=1)
    assert [c.kind for c in strict.components] == ["beta"]
    alphas = [c for c in loose.components if c.kind == "alpha"]
    assert len(alphas) == 3
    assert all(c.threshold_sensitive for c in alphas)
    v = loose.mukai_vector
    assert all(make_hn_type(S2, v, *c.triple[:2]).sub_quotient_pairing() == 0 for c in alphas)
    beta = [c for c in loose.components if c.kind == "beta"]
    assert [c.dimension for c in beta] == [9]
    assert not beta[0].threshold_sensitive


@given(bn_inputs)
def test_whole_verdict_is_the_h0_cut(inp):
    rep = classify_bn(inp)
    assert (rep.verdict == VERDICT_WHOLE) == (
        inp.length > h0_line_bundle(inp.surface, inp.n)
    )
    assert rep.hilb_dimension == 2 * inp.length


@given(bn_inputs)
def test_chi_positive_below_the_cut(inp):
    if inp.length > h0_line_bundle(inp.surface, inp.n):
        return
    assert euler_characteristic(bn_mukai_vector(inp)) >= 2


@settings(deadline=None)
@given(bn_inputs, st.sampled_from([1, -1]))
def test_codimension_identities(inp, threshold):
    s = inp.surface
    rep = classify_bn(inp, threshold)
    v = rep.mukai_vector
    for c in rep.components:
        assert c.dimension + c.codimension == 2 * inp.length
        assert c.codimension >= 1
        if c.kind == "alpha":
            m = c.triple[0]
            assert c.codimension == m * (inp.n - m) * s.h_squared
            assert c.codimension >= s.h_squared >= 2
        elif mukai_pairing(s, v, v) > 0:
            assert c.codimension == h0_line_bundle(s, inp.n) - inp.length + 1


@settings(deadline=None)
@given(bn_inputs, st.sampled_from([1, -1]))
def test_component_uniqueness(inp, threshold):
    rep = classify_bn(inp, threshold)
    triples = [c.triple for c in rep.components if c.kind == "alpha"]
    assert len(triples) == len(set(triples))
    assert sum(1 for c in rep.components if c.kind == "beta") <= 1
    # beta leads, alphas follow in (m, ell1) order
    kinds = [c.kind for c in rep.components]
    if "beta" in kinds:
        assert kinds[0] == "beta" and "beta" not in kinds[1:]
    assert triples == sorted(triples)


@settings(deadline=None)
@given(surfaces, st.integers(0, 6), st.sampled_from([1, -1]))
def test_empty_propagates_downward(s, n, threshold):
    # observed on grids: an empty locus stays empty for smaller N
    # as long as the semistable source is absent there too
    verdicts = {
        length: classify_bn(BNInput(s, n, length), threshold).verdict
        for length in range(0, 25)
    }
    for length, verdict in verdicts.items():
        if verdict != VERDICT_EMPTY:
            continue
        for smaller in range(length):
            rep = classify_bn(BNInput(s, n, smaller), threshold)
            if any(c.kind == "beta" for c in rep.components):
                continue
            assert verdicts[smaller] == VERDICT_EMPTY


@settings(deadline=None)
@given(bn_inputs)
def test_exceptional_exclusion_is_the_only_beta_veto(inp):
    from moduli_atlas.torsion_free import mss_nonempty

    rep = classify_bn(inp)
    if rep.verdict == VERDICT_WHOLE:
        return
    v = rep.mukai_vector
    has_beta = any(c.kind == "beta" for c in rep.components)
    source_exists = inp.n >= 1 and mss_nonempty(inp.surface, v)
    if exceptional(inp.surface, v):
        assert source_exists and not has_beta
    else:
        assert has_beta == source_exists
