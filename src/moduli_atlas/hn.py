"""Destabilizing filtration types of rank-2 classes and their stratum dimensions.

An unstable rank-2 torsion-free sheaf with vector v = (2, n, a) sits in a
unique exact sequence whose sub and quotient are twisted ideal sheaves

    0 -> I_{Z1}(m*H) -> E -> I_{Z2}((n-m)*H) -> 0

and the discrete data of the filtration is the triple (m, ell1, ell2) with
ell_i = len(Z_i).  Validity of a triple:

* length budget: ell1 + ell2 = c2(v) - m*(n-m)*H.H with both lengths >= 0;
* the sub strictly precedes the quotient: slope m > n-m, refined at equal
  slope by Euler characteristics, which amounts to ell1 < ell2.

The union over all m of the strata with fixed sub-degree m is infinite, so
every enumeration here takes an explicit window m <= m_max.

Per-m runs.  Fix m, put q = n - m and b = c2(v) - m*q*H.H, the length
budget.  The sub and quotient have vectors

    v1 = (1, m, m^2*H.H/2 - ell1 + 1),    v2 = (1, q, q^2*H.H/2 - ell2 + 1),

so a(v1) + a(v2) = (m^2 + q^2)*H.H/2 - b + 2 and

    <v1, v2> = m*q*H.H - a(v1) - a(v2) = c2(v) - 2 - (m^2 + q^2)*H.H/2,
    <vi, vi> = 2*ell_i - 2,

which makes the stratum dimension <v1,v1> + <v2,v2> + <v1,v2> + 2 equal to
2*b - 2 + <v1, v2>.  Neither the pairing nor the dimension depends on ell1,
so all types of one m form a run of consecutive ell1 with one pairing and
one dimension (`HNRun`, built by `hn_runs`).  The cuts on a type become
bounds on ell1: the length budget gives 0 <= ell1 <= b, the equal-slope
order ell1 < ell2 gives ell1 <= (b - 1)/2, and the Brill-Noether quotient
cap ell2 <= cap gives ell1 >= b - cap.  Classifiers therefore work per m and
only list types when they must report them one by one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .lattice import (
    MukaiVector,
    Surface,
    ideal_sheaf_vector,
    mukai_pairing,
    second_chern,
)

__all__ = [
    "HNType",
    "HNRun",
    "ComponentRecord",
    "SEMISTABLE",
    "make_hn_type",
    "hn_runs",
    "enumerate_hn_types",
    "dim_hn_stratum",
    "dim_hn_closed_form",
    "hnp_dominates",
]


@dataclass(frozen=True, slots=True)
class HNType:
    """Filtration type (m, ell1, ell2) of a rank-2 class, with its ambient context."""

    surface: Surface
    total: MukaiVector
    m: int
    ell1: int
    ell2: int

    def sub_vector(self) -> MukaiVector:
        return ideal_sheaf_vector(self.surface, self.m, self.ell1)

    def quotient_vector(self) -> MukaiVector:
        return ideal_sheaf_vector(self.surface, self.total.deg - self.m, self.ell2)

    def sub_quotient_pairing(self) -> int:
        return mukai_pairing(self.surface, self.sub_vector(), self.quotient_vector())

    def triple(self) -> tuple[int, int, int]:
        return (self.m, self.ell1, self.ell2)


@dataclass(frozen=True, slots=True)
class HNRun:
    """The types (m, ell1, budget - ell1) of one m, for ell1_lo <= ell1 <= ell1_hi.

    `pairing` (sub/quotient) and `dimension` (of the stratum) are shared by
    every type of the run; see the module docstring.
    """

    m: int
    ell1_lo: int
    ell1_hi: int
    pairing: int
    dimension: int

    @property
    def budget(self) -> int:
        """ell1 + ell2, solved from dimension = 2*budget - 2 + pairing."""
        return (self.dimension + 2 - self.pairing) // 2

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """The run's types (m, ell1, ell2), in increasing ell1."""
        m, budget = self.m, self.budget
        for ell1 in range(self.ell1_lo, self.ell1_hi + 1):
            yield (m, ell1, budget - ell1)


@dataclass(frozen=True, slots=True)
class ComponentRecord:
    """One listed stratum or component, as both classifiers report it.

    `kind` is "semistable" or "hn" (torsion-free stack), "beta" or "alpha"
    (Brill-Noether locus); `triple` is the filtration type (m, ell1, ell2),
    None for the semistable and beta entries.  Fields a kind does not use
    are None.
    """

    kind: str
    triple: tuple[int, int, int] | None
    dimension: int
    codimension: int | None
    absorbed: bool | None
    threshold_sensitive: bool | None

    @property
    def hn_type(self) -> tuple[int, int, int] | None:
        # Read-only alias of `triple`, kept because `_count_bn` in
        # bench/tracing.py counts the alpha components of `classify_bn`
        # results by `c.hn_type is not None`; drop it once that reads `triple`.
        return self.triple


class _SemistablePolygon:
    """Sentinel for the straight polygon: the minimum of the dominance order."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Semistable"


SEMISTABLE = _SemistablePolygon()


def _ordered(sub_deg: int, quot_deg: int, ell1: int, ell2: int) -> bool:
    # sub strictly before quotient; ties in slope are broken by chi, i.e. by lengths
    return sub_deg > quot_deg or (sub_deg == quot_deg and ell1 < ell2)


def make_hn_type(s: Surface, v: MukaiVector, m: int, ell1: int) -> HNType:
    """Build the type (m, ell1, ell2) on v, solving the length budget for ell2.

    Raises ValueError when v is not rank 2, when a length is negative or the
    budget c2(v) - m*(n-m)*H.H cannot absorb ell1, or when (m, ell1) does not
    give a strictly decreasing filtration.
    """
    if v.rank != 2:
        raise ValueError("unsupported rank")
    if ell1 < 0:
        raise ValueError("negative subscheme length")
    n = v.deg
    ell2 = second_chern(s, v) - m * (n - m) * s.h_squared - ell1
    if ell2 < 0:
        raise ValueError("length budget exhausted")
    if not _ordered(m, n - m, ell1, ell2):
        raise ValueError("not a Harder-Narasimhan ordering")
    return HNType(s, v, m, ell1, ell2)


def hn_runs(s: Surface, v: MukaiVector, m_max: int) -> list[HNRun]:
    """The nonempty runs of valid types on v, one per m in ceil(n/2) <= m <= m_max.

    This is where the per-m pairing and dimension are computed; expanding
    the runs in order gives enumerate_hn_types(s, v, m_max).
    """
    if v.rank != 2:
        raise ValueError("unsupported rank")
    n = v.deg
    c2 = second_chern(s, v)
    h2 = s.h_squared
    out: list[HNRun] = []
    for m in range((n + 1) // 2, m_max + 1):
        q = n - m
        budget = c2 - m * q * h2
        # equal slope: only splits with ell1 < ell2
        top = (budget - 1) // 2 if m == q else budget
        if top < 0:
            continue
        pairing = c2 - 2 - ((m * m + q * q) * h2) // 2
        out.append(HNRun(m, 0, top, pairing, 2 * budget - 2 + pairing))
    return out


def enumerate_hn_types(s: Surface, v: MukaiVector, m_max: int) -> list[HNType]:
    """All valid types on v with m <= m_max, sorted by (m, ell1).

    Deterministic, duplicate-free, and monotone in the window: the list for a
    smaller m_max is a prefix of the list for a larger one.
    """
    return [HNType(s, v, *t) for run in hn_runs(s, v, m_max) for t in run.triples()]


def dim_hn_stratum(t: HNType) -> int:
    """Stack dimension <v1,v1> + <v2,v2> + <v1,v2> + 2 of the stratum of t."""
    s = t.surface
    v1 = t.sub_vector()
    v2 = t.quotient_vector()
    return (
        mukai_pairing(s, v1, v1)
        + mukai_pairing(s, v2, v2)
        + mukai_pairing(s, v1, v2)
        + 2
    )


def dim_hn_closed_form(t: HNType) -> int:
    """The same dimension as H.H*(m - n/2)^2 + 3*c2(v) - 4 - 3*n^2*H.H/4.

    The two quarter-integral terms are combined over the denominator 4; the
    numerator is divisible by 4 because (2m-n)^2 = n^2 mod 4 and H.H is even,
    so the value is an integer and the division below is exact.
    """
    s = t.surface
    n = t.total.deg
    spread = 2 * t.m - n
    quarters, rem = divmod(s.h_squared * (spread * spread - 3 * n * n), 4)
    assert rem == 0, "dimension formula produced a non-integer"
    return quarters + 3 * second_chern(s, t.total) - 4


def hnp_dominates(
    t1: "HNType | _SemistablePolygon", t2: "HNType | _SemistablePolygon"
) -> bool:
    """Polygon order: does the filtration polygon of t1 lie on or above t2's?

    The straight polygon SEMISTABLE is the global minimum.  Two genuine types
    compare by the height of the kink and, at equal height, by how the length
    budget is tilted toward the sub: t1 >= t2 iff m1 > m2, or m1 = m2 and
    ell1(t1) <= ell1(t2).  Raises ValueError when the two types live on
    different (surface, total vector) contexts.
    """
    if isinstance(t1, _SemistablePolygon):
        return isinstance(t2, _SemistablePolygon)
    if isinstance(t2, _SemistablePolygon):
        return True
    if t1.surface != t2.surface or t1.total != t2.total:
        raise ValueError("incomparable contexts")
    return t1.m > t2.m or (t1.m == t2.m and t1.ell1 <= t2.ell1)
