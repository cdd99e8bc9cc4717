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
one dimension.  The cuts on a type become bounds on ell1: the length budget
gives 0 <= ell1 <= b, the equal-slope order ell1 < ell2 gives
ell1 <= (b - 1)/2, and the Brill-Noether quotient cap ell2 <= cap gives
ell1 >= b - cap.  Classifiers therefore work per m and only list types when
they must report them one by one.

The run table.  Of all this, only b and the pairing depend on c2, and each
is c2 minus a constant of (H.H, n, m): m*q*H.H and (m^2 + q^2)*H.H/2.
`run_table(s, n, m_max, c2_max)` holds those two constants and the
equal-slope flag m == q once per m, and `table_runs(c2, table)` turns a
table into the runs at one c2 <= c2_max as plain tuples (m, ell1_hi,
budget, pairing, dimension): the one place where the budget, ell1_hi, the
pairing and the dimension are computed, and the one shape of a run.  The
run of such a tuple holds the types (m, ell1, budget - ell1) for
0 <= ell1 <= ell1_hi.  A table leaves out the low m whose budget is
negative even at c2_max.  `hn_runs` lists the tuples of one vector; the
Brill-Noether classifier builds one table per twist n and reads it at
every length of a row.

Listings.  What a classifier reports for one run is a plain tuple

    (kind, dimension, codimension, absorbed, threshold_sensitive, m, ell1s, ell2s)

whose first five entries are the fields every component of the run shares,
worked out once per run, and whose ell1s and ell2s are equal-length
sequences of the lengths: for a run, the two ranges that `run_listing`, and
nothing else, builds.  An untyped entry (the semistable or the beta
component) has m = ell1s = ell2s = None and stands for one component.
The writers of `report` print listings as they are, and `expand_listings`
turns them into the `ComponentRecord`s of the library API.
"""

from __future__ import annotations

from collections.abc import Iterator

from .lattice import (
    MukaiVector,
    Surface,
    _Record,
    ideal_sheaf_vector,
    mukai_pairing,
    second_chern,
)

__all__ = [
    "HNType",
    "ComponentRecord",
    "SEMISTABLE",
    "run_listing",
    "listing_size",
    "expand_listings",
    "make_hn_type",
    "run_table",
    "table_runs",
    "hn_runs",
    "enumerate_hn_types",
    "dim_hn_stratum",
    "dim_hn_closed_form",
    "hnp_dominates",
]


class HNType(_Record):
    """Filtration type (m, ell1, ell2) of a rank-2 class, with its ambient context."""

    __slots__ = ("surface", "total", "m", "ell1", "ell2")

    def sub_vector(self) -> MukaiVector:
        return ideal_sheaf_vector(self.surface, self.m, self.ell1)

    def quotient_vector(self) -> MukaiVector:
        return ideal_sheaf_vector(self.surface, self.total.deg - self.m, self.ell2)

    def sub_quotient_pairing(self) -> int:
        return mukai_pairing(self.surface, self.sub_vector(), self.quotient_vector())

    def triple(self) -> tuple[int, int, int]:
        return (self.m, self.ell1, self.ell2)


class ComponentRecord(_Record):
    """One listed stratum or component, as both classifiers report it.

    `kind` is "semistable" or "hn" (torsion-free stack), "beta" or "alpha"
    (Brill-Noether locus); `triple` is the filtration type (m, ell1, ell2),
    None for the semistable and beta entries.  Fields a kind does not use
    are None.
    """

    __slots__ = ("kind", "triple", "dimension", "codimension", "absorbed", "threshold_sensitive")

    @property
    def hn_type(self) -> tuple[int, int, int] | None:
        # Read-only alias of `triple`, kept because `_count_bn` in
        # bench/tracing.py counts the alpha components of `classify_bn`
        # results by `c.hn_type is not None`; drop it once that reads `triple`.
        return self.triple


def run_listing(
    kind: str,
    dimension: int,
    codimension: int | None,
    absorbed: bool | None,
    threshold_sensitive: bool | None,
    m: int,
    lo: int,
    hi: int,
    budget: int,
) -> tuple:
    """The listing of the types (m, ell1, budget - ell1) with lo <= ell1 <= hi.

    The one place where a listing's two length ranges are built; every
    component of the listing shares the fields given before m.
    """
    return (
        kind, dimension, codimension, absorbed, threshold_sensitive,
        m, range(lo, hi + 1), range(budget - lo, budget - hi - 1, -1),
    )


def listing_size(listing: tuple) -> int:
    """How many components a listing stands for."""
    return 1 if listing[5] is None else len(listing[6])


def expand_listings(listings) -> list[ComponentRecord]:
    """One `ComponentRecord` per component the listings stand for, in order."""
    out: list[ComponentRecord] = []
    for kind, dim, codim, absorbed, sensitive, m, ell1s, ell2s in listings:
        if m is None:
            out.append(ComponentRecord(kind, None, dim, codim, absorbed, sensitive))
        else:
            out.extend(
                ComponentRecord(kind, (m, ell1, ell2), dim, codim, absorbed, sensitive)
                for ell1, ell2 in zip(ell1s, ell2s)
            )
    return out


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


def run_table(
    s: Surface, n: int, m_max: int, c2_max: int
) -> list[tuple[int, int, int, bool]]:
    """The per-m constants of every rank-2 vector of degree n and c2 <= c2_max.

    One row (m, m*q*H.H, (m^2 + q^2)*H.H/2, m == q) per m, with q = n - m:
    what the runs of one m share whatever c2 is (see `table_runs`).  The
    rows run up to m_max, and down from it only as far as m*q*H.H <= c2_max:
    for m >= n/2, m*q*H.H grows as m falls, so no lower m would pass.  A
    table costs the rows it keeps, not the width of the window.
    """
    h2 = s.h_squared
    half = (n * n * h2) // 2  # m*q + (m^2 + q^2)/2 = n^2/2, since m + q = n
    rows = []
    for m in range(m_max, (n + 1) // 2 - 1, -1):
        cross = m * (n - m) * h2
        if cross > c2_max:
            break
        rows.append((m, cross, half - cross, 2 * m == n))
    rows.reverse()
    return rows


def table_runs(c2: int, table) -> Iterator[tuple[int, int, int, int, int]]:
    """The nonempty runs at second Chern number c2 over a `run_table`.

    Yields (m, ell1_hi, budget, pairing, dimension) per m in table order:
    this is where the per-m budget, pairing and dimension are computed.
    """
    for m, cross, square, equal in table:
        budget = c2 - cross
        # equal slope: only splits with ell1 < ell2
        top = (budget - 1) // 2 if equal else budget
        if top >= 0:
            pairing = c2 - 2 - square
            yield m, top, budget, pairing, 2 * budget - 2 + pairing


def hn_runs(s: Surface, v: MukaiVector, m_max: int) -> list[tuple[int, int, int, int, int]]:
    """The nonempty runs of valid types on v, one per m in ceil(n/2) <= m <= m_max.

    The `table_runs` tuples (m, ell1_hi, budget, pairing, dimension) over
    `run_table`; expanding them in order gives enumerate_hn_types(s, v, m_max).
    """
    if v.rank != 2:
        raise ValueError("unsupported rank")
    c2 = second_chern(s, v)
    return list(table_runs(c2, run_table(s, v.deg, m_max, c2)))


def enumerate_hn_types(s: Surface, v: MukaiVector, m_max: int) -> list[HNType]:
    """All valid types on v with m <= m_max, sorted by (m, ell1).

    Deterministic, duplicate-free, and monotone in the window: the list for a
    smaller m_max is a prefix of the list for a larger one.
    """
    return [
        HNType(s, v, m, ell1, budget - ell1)
        for m, hi, budget, _, _ in hn_runs(s, v, m_max)
        for ell1 in range(hi + 1)
    ]


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
