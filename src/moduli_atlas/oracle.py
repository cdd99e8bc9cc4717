"""Independent recomputation of the classifiers, and the grid sweep comparing both.

`oracle_strata` (with its triples-only view `oracle_enumerate`) is the
oracle's one scan of filtration types.  It rebuilds them from raw pairing
arithmetic, sharing only the lattice primitives with the main modules, and
scans sub-degrees from n - m_max upward so a bug in one side cannot hide in
the other.  Each hit carries its stratum dimension and cross pairing, and
`oracle_bn` reads its alpha components off the hits: it loops over no type.
`bn_component_dimension_identities` holds the paper's closed-form component
dimensions and pairs them with the listings of `bn_runs`, the main side's
one classification of a point, which the command line prints too.

`sweep` runs both sides over a grid at one or more thresholds and returns
every disagreement that a check of `_CHECKS` finds.  Once per point it works
out what no threshold changes (`_Point`): one `oracle_strata` scan,
`hn_runs` and, from the same hits, `_bn_scan`; per threshold, only `bn_runs`
and the per-threshold checks.

Within one `sweep` call, each ideal-sheaf piece I_Z(deg*H) that
`oracle_strata` tries is built once per surface, together with its
self-pairing, and reused at every point on that surface.  This is safe
because a piece is a pure function of (H.H, deg, length), and the memo files
it under exactly that, and because every candidate is still checked in full:
both pieces are looked up, their rank, deg and a are summed and compared
with those of v, entry by entry and without building a vector, and the cross
pairing <v1,v2> is computed afresh.  So the records equal those of memo-free
scans.  The memo is a local of `sweep`, dropped when it moves to the next
surface; nothing is cached at module level or between calls.
"""

from __future__ import annotations

from .brill_noether import BNInput, BNRuns, bn_mukai_vector, bn_runs
from .hn import HNType, dim_hn_closed_form, hn_runs, listing_size
from .lattice import (
    MukaiVector,
    Surface,
    _Record,
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


class GridSpec(_Record):
    """Sweep domain; ranges are inclusive.

    The enumeration window at a grid point with twist degree n is
    m <= n + m_margin (the natural comparison window grows with n).
    """

    __slots__ = ("h_squared_values", "n_range", "length_range", "m_margin")

    def __init__(
        self,
        h_squared_values: tuple[int, ...],
        n_range: tuple[int, int],
        length_range: tuple[int, int],
        m_margin: int = 4,
    ) -> None:
        if not h_squared_values:
            raise ValueError("empty range")
        if not isinstance(h_squared_values, tuple):
            raise ValueError(f"h2 values must be a tuple, got {h_squared_values!r}")
        for i, h2 in enumerate(h_squared_values):
            Surface(h2)
            if h2 in h_squared_values[:i]:
                raise ValueError(f"repeated h2 {h2}")
        self._check_ranges(n_range, length_range)
        self._check_ints("enumeration margin", m_margin)
        if m_margin < 0:
            raise ValueError("negative enumeration margin")
        self.h_squared_values = h_squared_values
        self.n_range = n_range
        self.length_range = length_range
        self.m_margin = m_margin


DEFAULT_GRID = GridSpec((2, 4, 6), (0, 8), (0, 40), 4)


class BnSummary(_Record):
    __slots__ = ("verdict", "alpha_count", "beta", "dimensions")


class Discrepancy(_Record):
    __slots__ = ("h_squared", "n", "length", "threshold", "check", "main", "oracle")


def oracle_strata(
    s: Surface, v: MukaiVector, m_max: int, pieces: dict | None = None
) -> list[tuple[int, int, int, int, int]]:
    """Brute-force scan for valid filtration types on v with m <= m_max.

    Scans sub-degrees from n - m_max upward so the slope bound is exercised,
    not assumed, and re-verifies each candidate against v: the rank, deg and
    a of its two pieces are summed and compared entry by entry, so no vector
    is built.  Each hit (m, ell1, ell2, dim, pairing), in (m, ell1) order,
    carries the cross pairing <v1,v2> of those two pieces and the stratum
    dimension <v1,v1> + <v2,v2> + <v1,v2> + 2.  `pieces` memoizes the pieces
    with their self-pairings (see `_pieces`); by default it lasts for this
    call only.
    """
    rank, n, a = v.rank, v.deg, v.a
    h2 = s.h_squared
    c2 = second_chern(s, v)
    if pieces is None:
        pieces = {}
    found: list[tuple[int, int, int, int, int]] = []
    for m in range(n - m_max, m_max + 1):
        quot_deg = n - m
        if m < quot_deg:
            continue
        budget = c2 - m * quot_deg * h2
        if budget < 0:
            continue
        subs = _pieces(s, m, budget, pieces)
        quots = _pieces(s, quot_deg, budget, pieces)
        for ell1, (v1, p11), (v2, p22) in zip(range(budget + 1), subs, quots[budget::-1]):
            ell2 = budget - ell1
            if m == quot_deg and not ell1 < ell2:
                continue
            if v1.rank + v2.rank != rank or v1.deg + v2.deg != n or v1.a + v2.a != a:
                continue
            pairing = mukai_pairing(s, v1, v2)
            found.append((m, ell1, ell2, p11 + p22 + pairing + 2, pairing))
    return found


def _pieces(s: Surface, deg: int, top: int, pieces: dict) -> list[tuple[MukaiVector, int]]:
    """The vectors of I_Z(deg*H) for lengths 0..top, each with its self-pairing.

    `pieces` maps (H.H, deg) to that list, indexed by length, and is
    extended in place, so one dict may serve several surfaces and scans.
    """
    row = pieces.setdefault((s.h_squared, deg), [])
    for length in range(len(row), top + 1):
        w = ideal_sheaf_vector(s, deg, length)
        row.append((w, mukai_pairing(s, w, w)))
    return row


def oracle_enumerate(s: Surface, v: MukaiVector, m_max: int) -> list[tuple[int, int, int]]:
    """The triples (m, ell1, ell2) of oracle_strata, in the same order."""
    return [t[:3] for t in oracle_strata(s, v, m_max)]


def oracle_bn(s: Surface, n: int, length: int, threshold: int) -> BnSummary:
    """Re-derive the locus classification straight from the defining conditions.

    The summary at `threshold` of the point's threshold-free part
    (`_bn_scan`), which reads the alpha types off `oracle_strata` at window
    n - 1; `sweep` works that part out once per point from its own scan's
    hits and summarises it at each of its thresholds.
    """
    return _scan_summary(_bn_scan(s, n, length), threshold)


def _bn_scan(
    s: Surface, n: int, length: int, hits: list | None = None
) -> tuple[int | None, list[tuple[int, int]]] | None:
    """Everything `oracle_bn` finds at one point that does not depend on the threshold.

    None when `length` exceeds h0(O(nH)) (the whole Hilbert scheme).  Else
    the beta component's dimension (None without one) and the
    (pairing, dimension) of every alpha type, in scan order.  The alpha
    types are the `hits` of `oracle_strata` on the point's vector with
    m < n and ell2 < h0(O((n-m)H)), the quotient cap; `hits` must come from
    a window m_max >= n - 1, and by default the scan runs `oracle_strata`
    at window n - 1 itself.
    """
    h2 = s.h_squared
    if length > h0_line_bundle(s, n):
        return None
    v = MukaiVector(2, n, (n * n * h2) // 2 - length + 2)
    if hits is None:
        hits = oracle_strata(s, v, n - 1)
    chi = 2 + v.a
    beta_dim = None
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
        beta_dim = mss_dim + chi
    alphas: list[tuple[int, int]] = []
    for m, _, ell2, dim, pairing in hits:
        if m >= n:  # hits come in m order
            break
        if ell2 < h0_line_bundle(s, n - m):
            alphas.append((pairing, dim + chi))
    return beta_dim, alphas


def _scan_summary(
    scan: tuple[int | None, list[tuple[int, int]]] | None, threshold: int
) -> BnSummary:
    """The `BnSummary` of one `_bn_scan` at `threshold`: alphas paired within it, and beta."""
    if scan is None:
        return BnSummary("whole_hilbert_scheme", 0, False, ())
    beta_dim, alphas = scan
    dims = [dim for pairing, dim in alphas if pairing <= threshold]
    alpha_count = len(dims)
    if beta_dim is not None:
        dims.append(beta_dim)
    verdict = "components" if dims else "empty"
    return BnSummary(verdict, alpha_count, beta_dim is not None, tuple(sorted(dims)))


def bn_component_dimension_identities(
    inp: BNInput, runs: BNRuns
) -> list[tuple[str, tuple[int, int, int] | None, int, int]]:
    """Pair each component of `runs` (from `bn_runs(inp)`) that has a closed form with it.

    Returns (kind, triple, dimension, closed_form) per component, in the
    order `classify_bn` lists them: every alpha component should have
    dimension 2*length - m*(n-m)*H.H, and the beta component
    3*length - 3 - n^2*H.H/2 whenever <v,v> > 0 (otherwise it has no closed
    form and is left out).  A classification without components gives [].
    """
    s, n, length = inp.surface, inp.n, inp.length
    h2, v = s.h_squared, runs.mukai_vector
    checks = []
    for kind, dim, _, _, _, m, ell1s, ell2s in runs.listings:
        if kind == "alpha":
            closed_form = 2 * length - m * (n - m) * h2
            checks.extend(
                ("alpha", (m, ell1, ell2), dim, closed_form) for ell1, ell2 in zip(ell1s, ell2s)
            )
        elif mukai_pairing(s, v, v) > 0:
            closed_form = 3 * length - 3 - (n * n * h2) // 2
            checks.append(("beta", None, dim, closed_form))
    return checks


class _Point(_Record):
    """What `sweep` works out once per point, for every check to read."""

    __slots__ = ("s", "inp", "v", "strata", "hn_runs", "bn_scan")


def _bn_summary(labels, point: _Point, runs: BNRuns, threshold: int) -> list:
    """The summary of `runs`' listings against `oracle_bn`'s at `threshold`."""
    alpha_count = sum(listing_size(x) for x in runs.listings if x[0] == "alpha")
    beta = any(x[0] == "beta" for x in runs.listings)
    dims = tuple(sorted(x[1] for x in runs.listings for _ in range(listing_size(x))))
    main = BnSummary(runs.verdict, alpha_count, beta, dims)
    ora = _scan_summary(point.bn_scan, threshold)
    return [(labels[0], main, ora)] if main != ora else []


def _types(labels, point: _Point) -> list:
    """The expanded hn_runs against the hits: the triples as a list, then for
    every type both sides' dimension, then their pairing."""
    enumeration, dim_label, pairing_label = labels
    main = [(m, e, b - e, dim, p) for m, hi, b, p, dim in point.hn_runs for e in range(hi + 1)]
    found = []
    if main != point.strata:
        main_triples = [t[:3] for t in main]
        ora_triples = [t[:3] for t in point.strata]
        if main_triples != ora_triples:
            found.append((enumeration, main_triples, ora_triples))
        ora = {t[:3]: t[3:] for t in point.strata}
        for m, ell1, ell2, dim, pairing in main:
            triple = (m, ell1, ell2)
            ora_dim, ora_pairing = ora.get(triple, (dim, pairing))
            if ora_dim != dim:
                found.append((f"{dim_label}{triple}", dim, ora_dim))
            if ora_pairing != pairing:
                found.append((f"{pairing_label}{triple}", pairing, ora_pairing))
    return found


def _dim_formula(labels, point: _Point) -> list:
    """Each run's dimension against dim_hn_closed_form on its first type."""
    found = []
    for m, _, budget, _, dim in point.hn_runs:
        closed = dim_hn_closed_form(HNType(point.s, point.v, m, 0, budget))
        if dim != closed:
            found.append((f"{labels[0]}[{m}]", dim, closed))
    return found


def _bn_dimension_identities(labels, point: _Point, runs: BNRuns, threshold: int) -> list:
    """The failing `bn_component_dimension_identities` of `runs`."""
    return [
        (f"{labels[0]}[{kind}{triple or ''}]", dim, closed)
        for kind, triple, dim, closed in bn_component_dimension_identities(point.inp, runs)
        if dim != closed
    ]


# Every check of `sweep` in recording order, as (labels, per_threshold, check):
# `check(labels, point[, bn_runs at the threshold, threshold])` returns its
# findings as (label, main, oracle), each label a stem of `labels` plus any
# suffix; a shared check runs once per point, for every threshold.
_CHECKS = (
    (("bn_summary",), True, _bn_summary),
    (("enumeration", "stratum_dimension", "stratum_pairing"), False, _types),
    (("dim_formula",), False, _dim_formula),
    (("bn_dimension_identity",), True, _bn_dimension_identities),
)


def sweep(grid: GridSpec, *thresholds: int) -> list[Discrepancy]:
    """Compare main classifiers against the oracles over the whole grid.

    At each point and threshold, findings come in `_CHECKS` order.  Records
    come back threshold by threshold, in the order given, each in grid order,
    so the result equals the concatenation of one sweep per threshold.
    """
    if not thresholds:
        raise ValueError("no threshold to sweep")
    per_threshold: list[list[Discrepancy]] = [[] for _ in thresholds]
    n_lo, n_hi = grid.n_range
    len_lo, len_hi = grid.length_range
    for h2 in grid.h_squared_values:
        s = Surface(h2)
        pieces: dict = {}
        for n in range(n_lo, n_hi + 1):
            m_max = n + grid.m_margin
            for length in range(len_lo, len_hi + 1):
                inp = BNInput(s, n, length)
                v = bn_mukai_vector(inp)
                strata = oracle_strata(s, v, m_max, pieces)
                scan = _bn_scan(s, n, length, strata)
                point = _Point(s, inp, v, strata, hn_runs(s, v, m_max), scan)
                shared = [() if each else check(labels, point) for labels, each, check in _CHECKS]
                for threshold, records in zip(thresholds, per_threshold):
                    runs = bn_runs(inp, threshold)
                    for (labels, each, check), found in zip(_CHECKS, shared):
                        if each:
                            found = check(labels, point, runs, threshold)
                        if found:
                            records.extend(Discrepancy(h2, n, length, threshold, *f) for f in found)
    return [r for records in per_threshold for r in records]
