"""Acceptance gate: ten criteria, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
comparison is exact integer equality; grid criteria loop h2 in {2, 4, 6},
n in [0, 8], N in [0, 40] with window m <= n + 4.
"""

import random

from moduli_atlas.brill_noether import (
    BNInput,
    VERDICT_COMPONENTS,
    VERDICT_EMPTY,
    VERDICT_WHOLE,
    bn_mukai_vector,
    classify_bn,
)
from moduli_atlas.hn import (
    SEMISTABLE,
    dim_hn_closed_form,
    dim_hn_stratum,
    enumerate_hn_types,
    hnp_dominates,
    make_hn_type,
)
from moduli_atlas.lattice import (
    MukaiVector,
    Surface,
    divisibility,
    euler_characteristic,
    h0_line_bundle,
    ideal_sheaf_vector,
    mukai_pairing,
    primitive_part,
)
from moduli_atlas.oracle import DEFAULT_GRID, oracle_bn, sweep
from moduli_atlas.torsion_free import classify_tf_components, dim_mss, mss_nonempty

GRID_H2 = (2, 4, 6)
GRID_N = range(0, 9)
GRID_LENGTH = range(0, 41)


def _report(num, description, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    assert ok, line


def _grid_points():
    for h2 in GRID_H2:
        s = Surface(h2)
        for n in GRID_N:
            for length in GRID_LENGTH:
                yield s, n, length


def test_criterion_01_beta_dimension_seven():
    rep = classify_bn(BNInput(Surface(4), 1, 4))
    ok = (
        len(rep.components) == 1
        and rep.components[0].kind == "beta"
        and rep.components[0].dimension == 7
    )
    _report(1, "single beta of dimension 7 at (h2=4, n=1, N=4)", ok)


def test_criterion_02_beta_dimension_four():
    rep = classify_bn(BNInput(Surface(4), 2, 4))
    betas = [c for c in rep.components if c.kind == "beta"]
    alphas = [c for c in rep.components if c.kind == "alpha"]
    ok = len(betas) == 1 and betas[0].dimension == 4 and alphas == []
    _report(2, "single beta of dimension 4, no alpha, at (h2=4, n=2, N=4)", ok)


def test_criterion_03_small_lengths():
    s = Surface(2)
    ok = True
    for n in (1, 2):
        rep = classify_bn(BNInput(s, n, 2))
        ok = ok and len(rep.components) == 1
        ok = ok and rep.components[0].kind == "beta"
        ok = ok and rep.components[0].dimension == 2
    ok = ok and classify_bn(BNInput(s, 3, 2)).verdict == VERDICT_EMPTY
    _report(3, "beta of dimension 2 at (h2=2, N=2) for n=1,2; empty for n=3", ok)


def test_criterion_04_exceptional_case():
    rep = classify_bn(BNInput(Surface(2), 3, 6))
    alphas = [c for c in rep.components if c.kind == "alpha"]
    ok = (
        not any(c.kind == "beta" for c in rep.components)
        and len(alphas) == 3
        and all(c.dimension == 8 for c in alphas)
    )
    _report(4, "no beta and three alphas of dimension 8 at (h2=2, n=3, N=6)", ok)


def test_criterion_05_whole_scheme_fallback():
    rep = classify_bn(BNInput(Surface(2), 1, 5))
    ok = rep.verdict == VERDICT_WHOLE and rep.hilb_dimension == 10
    _report(5, "whole Hilbert scheme of dimension 10 at (h2=2, n=1, N=5)", ok)


def test_criterion_06_dimension_formulas_agree_on_grid():
    checked = 0
    ok = True
    for s, n, length in _grid_points():
        v = bn_mukai_vector(BNInput(s, n, length))
        for t in enumerate_hn_types(s, v, n + 4):
            checked += 1
            if dim_hn_stratum(t) != dim_hn_closed_form(t):
                ok = False
    ok = ok and checked > 0
    _report(6, f"stratum dimension equals its closed form on {checked} grid types", ok)


def test_criterion_07_codimension_identities_on_grid():
    checked = 0
    ok = True
    for s, n, length in _grid_points():
        for threshold in (1, -1):
            rep = classify_bn(BNInput(s, n, length), threshold)
            v = rep.mukai_vector
            for c in rep.components:
                if c.kind == "alpha":
                    checked += 1
                    m = c.triple[0]
                    if c.codimension != m * (n - m) * s.h_squared:
                        ok = False
                elif mukai_pairing(s, v, v) > 0:
                    checked += 1
                    if c.codimension != h0_line_bundle(s, n) - length + 1:
                        ok = False
    ok = ok and checked > 0
    _report(7, f"codimension closed forms hold for {checked} grid components", ok)


def test_criterion_08_oracle_equivalence():
    clean = sweep(DEFAULT_GRID, 1) == [] and sweep(DEFAULT_GRID, -1) == []
    s = Surface(2)
    loose = oracle_bn(s, 3, 7, 1)
    strict = oracle_bn(s, 3, 7, -1)
    showcase = loose.alpha_count == 3 and strict.alpha_count == 0
    main_loose = classify_bn(BNInput(s, 3, 7), 1)
    main_strict = classify_bn(BNInput(s, 3, 7), -1)
    showcase = showcase and sum(1 for c in main_loose.components if c.kind == "alpha") == 3
    showcase = showcase and sum(1 for c in main_strict.components if c.kind == "alpha") == 0
    _report(8, "zero sweep discrepancies at both thresholds; alpha count 3 vs 0 at (2,3,7)", showcase and clean)


def test_criterion_09_randomized_lattice_suite():
    rng = random.Random(20240915)
    trials = 10_000

    def rand_vector():
        return MukaiVector(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))

    def rand_surface():
        return Surface(2 * rng.randint(1, 6))

    failures = {}

    count = 0
    for _ in range(trials):
        s, v, w = rand_surface(), rand_vector(), rand_vector()
        count += 1
        if mukai_pairing(s, v, w) != mukai_pairing(s, w, v):
            failures["symmetry"] = (s, v, w)
    symmetry = count

    count = 0
    for _ in range(trials):
        s, u, v, w = rand_surface(), rand_vector(), rand_vector(), rand_vector()
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        count += 1
        lhs = mukai_pairing(s, u.scale(a) + v.scale(b), w)
        if lhs != a * mukai_pairing(s, u, w) + b * mukai_pairing(s, v, w):
            failures["bilinearity"] = (s, u, v, w, a, b)
    bilinearity = count

    count = 0
    for _ in range(trials):
        s, v = rand_surface(), rand_vector()
        count += 1
        if mukai_pairing(s, v, v) % 2 != 0:
            failures["evenness"] = (s, v)
    evenness = count

    count = 0
    structure = MukaiVector(1, 0, 1)
    for _ in range(trials):
        s, v = rand_surface(), rand_vector()
        count += 1
        if euler_characteristic(v) != -mukai_pairing(s, structure, v):
            failures["chi-duality"] = (s, v)
    chi_duality = count

    count = 0
    for _ in range(trials):
        s = rand_surface()
        deg, length = rng.randint(-9, 9), rng.randint(0, 60)
        count += 1
        w = ideal_sheaf_vector(s, deg, length)
        if mukai_pairing(s, w, w) != 2 * length - 2:
            failures["ideal-norm"] = (s, deg, length)
    ideal_norm = count

    pools = []
    for _ in range(300):
        s = rand_surface()
        n = rng.randint(0, 5)
        c2 = rng.randint(0, 12)
        v = MukaiVector(2, n, (n * n * s.h_squared) // 2 + 2 - c2)
        pools.append([SEMISTABLE] + enumerate_hn_types(s, v, n + 2))
    count = 0
    for _ in range(trials):
        pool = pools[rng.randrange(len(pools))]
        t1, t2, t3 = (pool[rng.randrange(len(pool))] for _ in range(3))
        count += 1
        if not hnp_dominates(t1, t1):
            failures["dominance-reflexive"] = t1
        if hnp_dominates(t1, t2) and hnp_dominates(t2, t1) and not (t1 == t2 or t1 is t2):
            failures["dominance-antisymmetric"] = (t1, t2)
        if hnp_dominates(t1, t2) and hnp_dominates(t2, t3) and not hnp_dominates(t1, t3):
            failures["dominance-transitive"] = (t1, t2, t3)
    dominance = count

    count = 0
    for _ in range(trials):
        s = rand_surface()
        n = rng.randint(0, 5)
        c2 = rng.randint(0, 10)
        v = MukaiVector(2, n, (n * n * s.h_squared) // 2 + 2 - c2)
        m_max = n + rng.randint(0, 3)
        count += 1
        first = enumerate_hn_types(s, v, m_max)
        if first != enumerate_hn_types(s, v, m_max):
            failures["enumeration-determinism"] = (s, v, m_max)
        wider = enumerate_hn_types(s, v, m_max + rng.randint(1, 3))
        if wider[: len(first)] != first:
            failures["enumeration-monotone"] = (s, v, m_max)
    enumeration = count

    counts = (symmetry, bilinearity, evenness, chi_duality, ideal_norm, dominance, enumeration)
    ok = not failures and all(c >= 10_000 for c in counts)
    _report(
        9,
        f"randomized lattice suite clean: {len(counts)} families x {min(counts)} checks"
        + (f"; failures {failures}" if failures else ""),
        ok,
    )


def test_criterion_10_torsion_free_properties_on_grid():
    absorbed_checked = 0
    case_c_checked = 0
    gap_checked = 0
    ok = True
    for s, n, length in _grid_points():
        v = bn_mukai_vector(BNInput(s, n, length))
        nonempty = mss_nonempty(s, v)
        norm = mukai_pairing(s, v, v)
        v0 = primitive_part(v)
        case_c = divisibility(v) >= 2 and mukai_pairing(s, v0, v0) in (0, -2)
        for threshold in (1, -1):
            for c in classify_tf_components(s, v, n + 4, threshold):
                if c.kind == "semistable":
                    continue
                pairing = make_hn_type(s, v, *c.triple[:2]).sub_quotient_pairing()
                absorbed_checked += 1
                if c.absorbed != (nonempty and pairing > threshold):
                    ok = False
                if case_c:
                    case_c_checked += 1
                    if pairing > 0:
                        ok = False
                if norm > 0 and threshold == 1:
                    gap_checked += 1
                    if dim_mss(s, v) - c.dimension != pairing - 1:
                        ok = False
    ok = ok and absorbed_checked > 0 and case_c_checked > 0 and gap_checked > 0
    _report(
        10,
        "absorption criterion, case-(c) bound and dimension gap hold on "
        f"{absorbed_checked}/{case_c_checked}/{gap_checked} grid strata",
        ok,
    )
