"""Components of the Brill-Noether locus W = {Z : h^1 of I_Z(n*H) > 0} in Hilb^N.

A point of W comes with a nonsplit extension of I_Z(n*H) by the structure
sheaf, a rank-2 sheaf with vector v = (2, n, n^2*H.H/2 - N + 2), so c2(v) = N
and chi(v) = n^2*H.H/2 + 4 - N.  Classification of the components of W:

* N > h^0(O(n*H)): the locus is all of Hilb^N (dimension 2N).
* one component for each filtration type (m, ell1, ell2) of v with
  n > m >= n - m >= 1, with the quotient twist effective in the sense
  a(quotient) > -1, and with sub/quotient pairing <= threshold; its dimension
  is the stratum dimension plus chi(v).
* one component from the semistable locus when that locus is nonempty, of
  dimension dim_mss(v) + chi(v), except in the single rigid case
  H.H = 2, v = (2, 3, 5), where the would-be component is contained in the
  others and is dropped.

The semistable case also needs n >= 1: a semistable sheaf of slope zero maps
onto the structure sheaf, so its h^2 cannot vanish and no component arises;
with that guard n = 0 always classifies as empty or as the whole scheme.

The threshold defaults to 1; components whose sub/quotient pairing is 0 or 1
exist under one reading of the inclusion bound but not the other, and carry a
`threshold_sensitive` flag.

`bn_row(s, n, lengths, threshold)` is the one classification: per
sub-degree m, it gives at each length along one twist n the components as
listings (see `hn`), the beta entry and one per alpha run.  `scan_rows`
reads rows; `bn_runs` is the one-length row, which the command line writes,
`oracle.sweep` reads and `classify_bn` expands into `ComponentRecord`s.  A
row works out the run table of `hn` once, cut twice: by the budget at N,
the row's largest length that is not the whole scheme, and by the pairing
at N0, its shortest length (an m with (m^2+q^2)*H.H/2 < N0 - 2 - threshold
has a pairing above the threshold at every length).  Both cuts bound
m*q*H.H from above, so the table is built up to the smaller bound, and a
point costs O(#runs), not O(n).  Each point reads the plain run tuples of `hn.table_runs` and
hands each kept alpha run to `hn.run_listing`.

The quotient cap.  a(quotient) > -1 caps the quotient length at
ell2 <= (n-m)^2*H.H/2 + 1, a lower bound on ell1 of the run of m.  With
q = n - m, budget - cap = N - m*q*H.H - q^2*H.H/2 - 1 and q*(2m + q) =
n^2 - m^2, so the bound is

    ell1 >= N - 1 - (n^2 - m^2)*H.H/2,

affine in N with a constant per (H.H, n, m): the part N - 1 - n^2*H.H/2 is
worked out once per point and m^2*H.H/2 is added per run.

The paper's closed-form component dimensions are not used here;
`oracle.bn_component_dimension_identities` checks the listings against them.
"""

from __future__ import annotations

from collections.abc import Iterator

from .hn import expand_listings, run_listing, run_table, table_runs
from .lattice import (
    MukaiVector,
    Surface,
    _Record,
    euler_characteristic,
    h0_line_bundle,
)
from .torsion_free import DEFAULT_THRESHOLD, _mss_dim

__all__ = [
    "VERDICT_WHOLE",
    "VERDICT_COMPONENTS",
    "VERDICT_EMPTY",
    "BNInput",
    "BNReport",
    "BNRuns",
    "bn_mukai_vector",
    "exceptional",
    "bn_runs",
    "bn_row",
    "classify_bn",
]

VERDICT_WHOLE = "whole_hilbert_scheme"
VERDICT_COMPONENTS = "components"
VERDICT_EMPTY = "empty"


class BNInput(_Record):
    """Locus datum: W sits in Hilb^length(X) and twists by n*H."""

    __slots__ = ("surface", "n", "length")

    def __init__(self, surface: Surface, n: int, length: int) -> None:
        if not isinstance(surface, Surface):
            raise ValueError(f"surface must be a Surface, got {surface!r}")
        self._check_ints("twist degree", n)
        if n < 0:
            raise ValueError("twist degree must be nonnegative")
        self._check_ints("subscheme length", length)
        if length < 0:
            raise ValueError("negative subscheme length")
        self.surface = surface
        self.n = n
        self.length = length


class BNReport(_Record):
    __slots__ = ("verdict", "hilb_dimension", "components", "mukai_vector", "exceptional_case")


def bn_mukai_vector(inp: BNInput) -> MukaiVector:
    """The extension vector (2, n, n^2*H.H/2 - length + 2); its c2 is `length`."""
    n = inp.n
    return MukaiVector(2, n, (n * n * inp.surface.h_squared) // 2 - inp.length + 2)


_EXCEPTIONAL_VECTOR = MukaiVector(2, 3, 5)  # on H.H = 2


def exceptional(s: Surface, v: MukaiVector) -> bool:
    """The one rigid case whose semistable locus contributes no component."""
    return s.h_squared == 2 and v == _EXCEPTIONAL_VECTOR


class BNRuns(_Record):
    """The classification of W, with its components as listings (see `hn`).

    The beta entry comes first when there is one, then one alpha listing per
    run, already cut by the quotient cap and the threshold.
    """

    __slots__ = ("verdict", "hilb_dimension", "mukai_vector", "exceptional_case", "listings")


def bn_runs(inp: BNInput, threshold: int = DEFAULT_THRESHOLD) -> BNRuns:
    """Classify W in O(#runs) whatever the number of components: the one-length `bn_row`."""
    return next(bn_row(inp.surface, inp.n, (inp.length,), threshold))


def bn_row(
    s: Surface, n: int, lengths, threshold: int = DEFAULT_THRESHOLD
) -> Iterator[BNRuns]:
    """Classify W at twist n and each length of `lengths` (a sequence), in order.

    The inputs are checked, before any point is classified, as the `BNInput`
    of the row's shortest length (0 for no lengths), then the threshold must
    be an `int`; h^0(O(n*H)) and the run table (see the module docstring) are
    worked out once for the whole row.
    """
    shortest = BNInput(s, n, min(lengths, default=0)).length
    _Record._check_ints("threshold", threshold)
    h0 = h0_line_bundle(s, n)
    c2_max = max(filter(h0.__ge__, lengths), default=-1)
    # the second term is the pairing cut at the row's shortest length: an m
    # with m*q*H.H above it has a pairing above the threshold at every length.
    # h0 = n^2*H.H/2 + 2 for n >= 1; at n = 0 the table (m <= -1) is empty.
    table = run_table(s, n, n - 1, min(c2_max, h0 - shortest + threshold))
    return _row_runs(s, n, lengths, h0, table, threshold)


def _row_runs(s: Surface, n: int, lengths, h0: int, table, threshold: int) -> Iterator[BNRuns]:
    """Classify W at each length, given h^0(O(n*H)) and a `run_table` of twist n
    that holds every run some length can list.

    m <= n - 1 keeps the quotient twist n - m >= 1.  Each alpha run's
    dimension (stratum dimension plus chi(v)), codimension and
    `threshold_sensitive` flag (pairing 0 or 1) are worked out once for the
    whole run, and the run is cut from below by the quotient cap (see the
    module docstring).
    """
    half = s.h_squared // 2
    top = n * n * half  # n^2*H.H/2
    # the row's one possible exceptional point: the vector (2, n, 5) sits at
    # length top - 3, and only H.H = 2 with n = 3 makes it exceptional
    exc_length = top - 3 if exceptional(s, MukaiVector(2, n, 5)) else None
    for length in lengths:
        # bn_mukai_vector's vector, built here without a BNInput or another call
        v = MukaiVector(2, n, top - length + 2)
        hilb_dim = 2 * length
        is_exc = length == exc_length
        if length > h0:
            yield BNRuns(VERDICT_WHOLE, hilb_dim, v, is_exc, ())
            continue
        chi = euler_characteristic(v)
        listings: list[tuple] = []
        mss = _mss_dim(s, v) if n >= 1 and not is_exc else None
        if mss is not None:
            dim = mss + chi
            listings.append(("beta", dim, hilb_dim - dim, None, False, None, None, None))
        capped = length - 1 - top  # the cap's bound on ell1, less m^2*H.H/2
        for m, hi, budget, pairing, dimension in table_runs(length, table):
            if pairing > threshold:
                continue
            lo = capped + m * m * half
            if lo < 0:
                lo = 0
            if lo <= hi:
                dim = dimension + chi
                sensitive = pairing in (0, 1)
                listings.append(
                    run_listing("alpha", dim, hilb_dim - dim, None, sensitive, m, lo, hi, budget)
                )
        verdict = VERDICT_COMPONENTS if listings else VERDICT_EMPTY
        yield BNRuns(verdict, hilb_dim, v, is_exc, tuple(listings))


def classify_bn(inp: BNInput, threshold: int = DEFAULT_THRESHOLD) -> BNReport:
    """Classify the components of W inside Hilb^length, exactly.

    The unstable search window is intrinsic (n > m > n/2 - 1 is finite), so
    unlike the torsion-free classifier no m_max is needed; the output is
    complete.  Components are listed beta first, then alphas by (m, ell1):
    the expansion of `bn_runs(inp, threshold).listings`.
    """
    runs = bn_runs(inp, threshold)
    comps = tuple(expand_listings(runs.listings))
    return BNReport(
        runs.verdict, runs.hilb_dimension, comps, runs.mukai_vector, runs.exceptional_case
    )
