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

The paper's closed-form component dimensions are not used here;
`oracle.bn_component_dimension_identities` checks reports against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hn import ComponentRecord, HNRun, hn_runs
from .lattice import (
    MukaiVector,
    Surface,
    euler_characteristic,
    h0_line_bundle,
)
from .torsion_free import DEFAULT_THRESHOLD, dim_mss, mss_nonempty

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


def exceptional(s: Surface, v: MukaiVector) -> bool:
    """The one rigid case whose semistable locus contributes no component."""
    return s.h_squared == 2 and v == MukaiVector(2, 3, 5)


@dataclass(frozen=True, slots=True)
class BNRuns:
    """The classification of W before its alpha components are listed.

    Each alpha run is already cut by the quotient cap and the threshold, and
    every component it stands for has dimension run.dimension + chi.
    `beta_dimension` is None when there is no beta component.
    """

    verdict: str
    hilb_dimension: int
    mukai_vector: MukaiVector
    exceptional_case: bool
    chi: int
    beta_dimension: int | None
    alpha_runs: tuple[HNRun, ...]


def bn_runs(inp: BNInput, threshold: int = DEFAULT_THRESHOLD) -> BNRuns:
    """Classify W per sub-degree m, in O(n) whatever the number of components."""
    s = inp.surface
    n = inp.n
    v = bn_mukai_vector(inp)
    hilb_dim = 2 * inp.length
    is_exc = exceptional(s, v)
    chi = euler_characteristic(v)
    if inp.length > h0_line_bundle(s, n):
        return BNRuns(VERDICT_WHOLE, hilb_dim, v, is_exc, chi, None, ())
    beta = None
    if n >= 1 and mss_nonempty(s, v) and not is_exc:
        beta = dim_mss(s, v) + chi
    alphas: list[HNRun] = []
    # m <= n - 1 keeps the quotient twist n - m >= 1
    for run in hn_runs(s, v, n - 1):
        if run.pairing > threshold:
            continue
        q = n - run.m
        # a(quotient) > -1 caps the quotient length, a lower bound on ell1
        quot_cap = (q * q * s.h_squared) // 2 + 1
        lo = max(run.ell1_lo, run.budget - quot_cap)
        if lo <= run.ell1_hi:
            alphas.append(HNRun(run.m, lo, run.ell1_hi, run.pairing, run.dimension))
    verdict = VERDICT_COMPONENTS if beta is not None or alphas else VERDICT_EMPTY
    return BNRuns(verdict, hilb_dim, v, is_exc, chi, beta, tuple(alphas))


def classify_bn(inp: BNInput, threshold: int = DEFAULT_THRESHOLD) -> BNReport:
    """Classify the components of W inside Hilb^length, exactly.

    The unstable search window is intrinsic (n > m > n/2 - 1 is finite), so
    unlike the torsion-free classifier no m_max is needed; the output is
    complete.  Components are listed beta first, then alphas by (m, ell1).
    """
    runs = bn_runs(inp, threshold)
    hilb_dim = runs.hilb_dimension
    comps: list[ComponentRecord] = []
    if runs.beta_dimension is not None:
        dim = runs.beta_dimension
        comps.append(ComponentRecord("beta", None, dim, hilb_dim - dim, None, False))
    for run in runs.alpha_runs:
        dim = run.dimension + runs.chi
        sensitive = run.pairing in (0, 1)
        comps.extend(
            ComponentRecord("alpha", t, dim, hilb_dim - dim, None, sensitive)
            for t in run.triples()
        )
    return BNReport(
        runs.verdict, hilb_dim, tuple(comps), runs.mukai_vector, runs.exceptional_case
    )
