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

`bn_runs` is the one classification: it works per sub-degree m and returns
the components as listings (see `hn`), the beta entry and one per alpha run.
The command line writes them, `report.scan_rows` and `oracle.sweep` read
them, and `classify_bn` expands them into `ComponentRecord`s.

The paper's closed-form component dimensions are not used here;
`oracle.bn_component_dimension_identities` checks the listings against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hn import ComponentRecord, expand_listings, hn_runs, run_listing
from .lattice import (
    MukaiVector,
    Surface,
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
    "classify_bn",
]

VERDICT_WHOLE = "whole_hilbert_scheme"
VERDICT_COMPONENTS = "components"
VERDICT_EMPTY = "empty"


@dataclass(frozen=True, slots=True)
class BNInput:
    """Locus datum: W sits in Hilb^length(X) and twists by n*H."""

    surface: Surface
    n: int
    length: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("twist degree must be nonnegative")
        if self.length < 0:
            raise ValueError("negative subscheme length")


@dataclass(frozen=True, slots=True)
class BNReport:
    verdict: str
    hilb_dimension: int
    components: tuple[ComponentRecord, ...]
    mukai_vector: MukaiVector
    exceptional_case: bool


def bn_mukai_vector(inp: BNInput) -> MukaiVector:
    """The extension vector (2, n, n^2*H.H/2 - length + 2); its c2 is `length`."""
    n = inp.n
    return MukaiVector(2, n, (n * n * inp.surface.h_squared) // 2 - inp.length + 2)


_EXCEPTIONAL_VECTOR = MukaiVector(2, 3, 5)  # on H.H = 2


def exceptional(s: Surface, v: MukaiVector) -> bool:
    """The one rigid case whose semistable locus contributes no component."""
    return s.h_squared == 2 and v == _EXCEPTIONAL_VECTOR


@dataclass(frozen=True, slots=True)
class BNRuns:
    """The classification of W, with its components as listings (see `hn`).

    The beta entry comes first when there is one, then one alpha listing per
    run, already cut by the quotient cap and the threshold.
    """

    verdict: str
    hilb_dimension: int
    mukai_vector: MukaiVector
    exceptional_case: bool
    listings: tuple[tuple, ...]


def bn_runs(inp: BNInput, threshold: int = DEFAULT_THRESHOLD) -> BNRuns:
    """Classify W per sub-degree m, in O(n) whatever the number of components.

    Each alpha run's dimension (stratum dimension plus chi(v)), codimension
    and `threshold_sensitive` flag (pairing 0 or 1) are worked out once for
    the whole run.
    """
    s = inp.surface
    n = inp.n
    v = bn_mukai_vector(inp)
    hilb_dim = 2 * inp.length
    is_exc = exceptional(s, v)
    if inp.length > h0_line_bundle(s, n):
        return BNRuns(VERDICT_WHOLE, hilb_dim, v, is_exc, ())
    chi = euler_characteristic(v)
    listings: list[tuple] = []
    mss = _mss_dim(s, v) if n >= 1 and not is_exc else None
    if mss is not None:
        dim = mss + chi
        listings.append(("beta", dim, hilb_dim - dim, None, False, None, None, None))
    # m <= n - 1 keeps the quotient twist n - m >= 1
    for run in hn_runs(s, v, n - 1):
        if run.pairing > threshold:
            continue
        q = n - run.m
        # a(quotient) > -1 caps the quotient length, a lower bound on ell1
        quot_cap = (q * q * s.h_squared) // 2 + 1
        lo = max(0, run.budget - quot_cap)
        if lo <= run.ell1_hi:
            dim = run.dimension + chi
            sensitive = run.pairing in (0, 1)
            listings.append(run_listing("alpha", dim, hilb_dim - dim, None, sensitive, run, lo))
    verdict = VERDICT_COMPONENTS if listings else VERDICT_EMPTY
    return BNRuns(verdict, hilb_dim, v, is_exc, tuple(listings))


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
