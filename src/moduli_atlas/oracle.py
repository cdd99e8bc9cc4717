"""Independent recomputation of the classifiers, and the grid sweep comparing both.

`oracle_strata` (with its triples-only view `oracle_enumerate`) and
`oracle_bn` rebuild their answers from raw pairing arithmetic and brute-force
scans, sharing only the lattice primitives with the main modules; they
deliberately loop differently (quotient length major, and sub-degrees scanned
from n - m_max upward) so a bug in one side cannot hide in the other.
`bn_component_dimension_identities` holds the paper's closed-form component
dimensions and pairs them with a report the main side already built.

`sweep` runs both sides over a grid at one or more thresholds and returns
every disagreement.  At each point it runs the threshold-independent checks
once and shares them across the thresholds: the filtration types and the
per-type dimensions the classifiers report (expanded `hn_runs`) against
`oracle_strata`, and each run's dimension against the closed form.  The
locus classification against `oracle_bn` and the component dimension
identities are checked per threshold, classifying the point once for each.
Grid points are independent of each other and records come back in grid
order.  Nothing is cached between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brill_noether import BNInput, BNReport, bn_mukai_vector, classify_bn
from .hn import HNType, dim_hn_closed_form, hn_runs
from .lattice import (
    MukaiVector,
    Surface,
    divisibility,
    h0_line_bundle,
    ideal_sheaf_vector,
    mukai_pairing,
    primitive_part,
    second_chern,
)

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "BnSummary",
    "Discrepancy",
    "oracle_strata",
    "oracle_enumerate",
    "oracle_bn",
    "bn_component_dimension_identities",
    "sweep",
]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Sweep domain; ranges are inclusive.

    The enumeration window at a grid point with twist degree n is
    m <= n + m_margin (the natural comparison window grows with n).
    """

    h_squared_values: tuple[int, ...]
    n_range: tuple[int, int]
    length_range: tuple[int, int]
    m_margin: int = 4

    def __post_init__(self) -> None:
        if not self.h_squared_values:
            raise ValueError("empty range")
        for h2 in self.h_squared_values:
            Surface(h2)
        if self.n_range[0] > self.n_range[1] or self.length_range[0] > self.length_range[1]:
            raise ValueError("empty range")
        if self.m_margin < 0:
            raise ValueError("negative enumeration margin")


DEFAULT_GRID = GridSpec((2, 4, 6), (0, 8), (0, 40), 4)


@dataclass(frozen=True, slots=True)
class BnSummary:
    verdict: str
    alpha_count: int
    beta: bool
    dimensions: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Discrepancy:
    h_squared: int
    n: int
    length: int
    threshold: int
    check: str
    main: object
    oracle: object


def oracle_strata(s: Surface, v: MukaiVector, m_max: int) -> list[tuple[int, int, int, int]]:
    """Brute-force scan for valid filtration types on v with m <= m_max.

    Scans sub-degrees from n - m_max upward so the slope bound is exercised,
    not assumed, and re-verifies each candidate by rebuilding both pieces and
    adding them.  Each hit (m, ell1, ell2, dim) carries the stratum dimension
    <v1,v1> + <v2,v2> + <v1,v2> + 2 of those two pieces.
    """
    n, h2 = v.deg, s.h_squared
    c2 = second_chern(s, v)
    found: list[tuple[int, int, int, int]] = []
    for m in range(n - m_max, m_max + 1):
        quot_deg = n - m
        if m < quot_deg:
            continue
        budget = c2 - m * quot_deg * h2
        for ell1 in range(max(budget, -1) + 1):
            ell2 = budget - ell1
            if ell2 < 0:
                continue
            if m == quot_deg and not ell1 < ell2:
                continue
            v1 = ideal_sheaf_vector(s, m, ell1)
            v2 = ideal_sheaf_vector(s, quot_deg, ell2)
            if v1 + v2 != v:
                continue
            dim = (
                mukai_pairing(s, v1, v1)
                + mukai_pairing(s, v2, v2)
                + mukai_pairing(s, v1, v2)
                + 2
            )
            found.append((m, ell1, ell2, dim))
    return found


def oracle_enumerate(s: Surface, v: MukaiVector, m_max: int) -> list[tuple[int, int, int]]:
    """The triples (m, ell1, ell2) of oracle_strata, in the same order."""
    return [t[:3] for t in oracle_strata(s, v, m_max)]


def oracle_bn(s: Surface, n: int, length: int, threshold: int) -> BnSummary:
    """Re-derive the locus classification straight from the defining conditions."""
    h2 = s.h_squared
    v = MukaiVector(2, n, (n * n * h2) // 2 - length + 2)
    if length > h0_line_bundle(s, n):
        return BnSummary("whole_hilbert_scheme", 0, False, ())
    chi = 2 + v.a
    dims: list[int] = []
    beta = False
    v0 = primitive_part(v)
    norm0 = mukai_pairing(s, v0, v0)
    if n >= 1 and norm0 >= -2 and not (h2 == 2 and v == MukaiVector(2, 3, 5)):
        d = divisibility(v)
        norm = mukai_pairing(s, v, v)
        if norm0 == -2:
            mss_dim = norm + d * d
        elif norm > 0:
            mss_dim = norm + 1
        else:
            mss_dim = d
        beta = True
        dims.append(mss_dim + chi)
    alpha_count = 0
    for m in range(1, n):
        if 2 * m < n:
            continue
        quot_deg = n - m
        for ell2 in range(length + 1):
            ell1 = length - m * quot_deg * h2 - ell2
            if ell1 < 0:
                continue
            if 2 * m == n and ell2 <= ell1:
                continue
            v1 = MukaiVector(1, m, (m * m * h2) // 2 - ell1 + 1)
            v2 = MukaiVector(1, quot_deg, (quot_deg * quot_deg * h2) // 2 - ell2 + 1)
            if v1 + v2 != v:
                continue
            if h0_line_bundle(s, quot_deg) <= ell2:
                continue
            if chi <= 0:
                continue
            p12 = mukai_pairing(s, v1, v2)
            if p12 > threshold:
                continue
            alpha_count += 1
            dims.append(
                mukai_pairing(s, v1, v1) + mukai_pairing(s, v2, v2) + p12 + 2 + chi
            )
    verdict = "components" if dims else "empty"
    return BnSummary(verdict, alpha_count, beta, tuple(sorted(dims)))


def bn_component_dimension_identities(
    inp: BNInput, report: BNReport
) -> list[tuple[str, tuple[int, int, int] | None, int, int]]:
    """Pair each component of `report` that has a closed form with it.

    Returns (kind, triple, dimension, closed_form) per component: every alpha
    component should have dimension 2*length - m*(n-m)*H.H, and the beta
    component 3*length - 3 - n^2*H.H/2 whenever <v,v> > 0 (otherwise it has
    no closed form and is left out).  A report without components gives [].
    """
    s, n, length = inp.surface, inp.n, inp.length
    h2, v = s.h_squared, report.mukai_vector
    checks = []
    for comp in report.components:
        if comp.kind == "alpha":
            m = comp.triple[0]
            closed_form = 2 * length - m * (n - m) * h2
            checks.append(("alpha", comp.triple, comp.dimension, closed_form))
        elif mukai_pairing(s, v, v) > 0:
            closed_form = 3 * length - 3 - (n * n * h2) // 2
            checks.append(("beta", None, comp.dimension, closed_form))
    return checks


def _main_summary(report) -> BnSummary:
    alpha_count = sum(1 for c in report.components if c.kind == "alpha")
    beta = any(c.kind == "beta" for c in report.components)
    dims = tuple(sorted(c.dimension for c in report.components))
    return BnSummary(report.verdict, alpha_count, beta, dims)


def _type_checks(s: Surface, v: MukaiVector, m_max: int) -> list[tuple[str, object, object]]:
    """The threshold-independent checks at one point, as (check, main, oracle).

    The types of the expanded hn_runs, each with its run's dimension, are
    compared with oracle_strata: the triples as a list (`enumeration`), and
    the dimension of every type both sides list (`stratum_dimension`).  Each
    run's dimension is also compared with dim_hn_closed_form on its first
    type (`dim_formula[m]`).
    """
    runs = hn_runs(s, v, m_max)
    strata = oracle_strata(s, v, m_max)
    main = [(*t, r.dimension) for r in runs for t in r.triples()]
    found: list[tuple[str, object, object]] = []
    if main != strata:
        main_triples = [t[:3] for t in main]
        ora_triples = [t[:3] for t in strata]
        if main_triples != ora_triples:
            found.append(("enumeration", main_triples, ora_triples))
        ora_dims = {t[:3]: t[3] for t in strata}
        for t in main:
            want = ora_dims.get(t[:3], t[3])
            if want != t[3]:
                found.append((f"stratum_dimension{t[:3]}", t[3], want))
    for r in runs:
        closed = dim_hn_closed_form(HNType(s, v, *next(r.triples())))
        if r.dimension != closed:
            found.append((f"dim_formula[{r.m}]", r.dimension, closed))
    return found


def sweep(grid: GridSpec, *thresholds: int) -> list[Discrepancy]:
    """Compare main classifiers against the oracles over the whole grid.

    Shared by all thresholds, and computed once per point: the expanded
    hn_runs against oracle_strata (`enumeration`, `stratum_dimension`) and
    each run's dimension against the closed form (`dim_formula`).  Per
    threshold: the locus classification against oracle_bn (`bn_summary`) and
    the closed-form component dimension identities
    (`bn_dimension_identity`).  A shared mismatch is recorded under every
    threshold.  Records come back threshold by threshold, in the order given,
    each in grid order, so the result equals the concatenation of one sweep
    per threshold.
    """
    if not thresholds:
        raise ValueError("no threshold to sweep")
    per_threshold: list[list[Discrepancy]] = [[] for _ in thresholds]
    n_lo, n_hi = grid.n_range
    len_lo, len_hi = grid.length_range
    for h2 in grid.h_squared_values:
        s = Surface(h2)
        for n in range(n_lo, n_hi + 1):
            m_max = n + grid.m_margin
            for length in range(len_lo, len_hi + 1):
                inp = BNInput(s, n, length)
                shared = _type_checks(s, bn_mukai_vector(inp), m_max)
                for threshold, records in zip(thresholds, per_threshold):
                    report = classify_bn(inp, threshold)
                    main = _main_summary(report)
                    ora = oracle_bn(s, n, length, threshold)
                    if main != ora:
                        records.append(
                            Discrepancy(h2, n, length, threshold, "bn_summary", main, ora)
                        )
                    records.extend(
                        Discrepancy(h2, n, length, threshold, check, lhs, rhs)
                        for check, lhs, rhs in shared
                    )
                    for kind, triple, dim, closed in bn_component_dimension_identities(
                        inp, report
                    ):
                        if dim != closed:
                            label = f"bn_dimension_identity[{kind}{triple or ''}]"
                            records.append(
                                Discrepancy(h2, n, length, threshold, label, dim, closed)
                            )
    return [r for records in per_threshold for r in records]
