"""Exact arithmetic in the algebraic Mukai lattice of a Picard-rank-1 K3 surface.

With Pic(X) = Z.H, every class of interest here is an integer triple
(rank, deg, a) standing for (rank, deg*H, a) in Z + Pic(X) + Z.  The surface
only enters through the self-intersection number H.H, which is even and >= 2
for a K3, and which we keep once in `Surface`.  The pairing is

    <v, w> = -rank(v)*a(w) + deg(v)*deg(w)*H.H - a(v)*rank(w)

so that <v, v> = deg(v)^2 * H.H - 2*rank(v)*a(v) is always even.

Everything in this module is a pure function of its arguments and all
arithmetic is exact: Python integers never overflow, and every halving below
is an exact division because H.H is even.  `Surface`, `MukaiVector` and
the records of the other modules are plain slotted classes on `_Record`,
which gives each record that does not define `__init__` one that assigns its
`__slots__` in order; the records that check their arguments (`Surface`,
`brill_noether.BNInput`, `oracle.GridSpec`) write their own.
"""

from __future__ import annotations

import math
from operator import attrgetter

__all__ = [
    "Surface",
    "MukaiVector",
    "mukai_pairing",
    "euler_characteristic",
    "divisibility",
    "primitive_part",
    "ideal_sheaf_vector",
    "h0_line_bundle",
    "second_chern",
]


class _Record:
    """Construction, equality, hash and repr by the fields a subclass names
    in `__slots__`.

    A subclass declares its fields once, in `__slots__`.  Unless it defines
    `__init__` itself, it gets `__init__(self, <fields in order>)` that only
    assigns them; a record that checks its arguments writes its own.  A
    record equals only a record of its own class with equal fields, and
    prints as `Name(field=value, ...)`.  Records are not frozen: nothing in
    the package assigns a field after `__init__`, and the hash assumes that
    nothing does.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        # all fields at once (one field: its value), for a cheap `==`
        cls._values = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            # compiled once per class, as `dataclasses` and `namedtuple` do
            body = "".join(f"\n    self.{name} = {name}" for name in fields)
            namespace = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__module__ = cls.__module__
            cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    @staticmethod
    def _check_ints(what: str, *values) -> None:
        """For the checking records: each value must be an `int`, and no `bool`."""
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{what} must be an integer, got {x!r}")

    @staticmethod
    def _check_ranges(*ranges) -> None:
        """For `oracle.GridSpec` and `report.scan_rows`: each range must be a
        tuple (low, high) of `int`s, and none may be empty (low > high)."""
        for bounds in ranges:
            if not isinstance(bounds, tuple) or len(bounds) != 2:
                raise ValueError(f"range must be a pair (low, high), got {bounds!r}")
        _Record._check_ints("range bound", *(x for bounds in ranges for x in bounds))
        if any(low > high for low, high in ranges):
            raise ValueError("empty range")


class Surface(_Record):
    """Ambient datum: the self-intersection of the ample generator."""

    __slots__ = ("h_squared",)

    def __init__(self, h_squared: int) -> None:
        self._check_ints("h2", h_squared)
        # the intersection form of a K3 is even, and H is ample
        if h_squared % 2 != 0 or h_squared < 2:
            raise ValueError("h2 must be even and >= 2")
        self.h_squared = h_squared


class MukaiVector(_Record):
    """Lattice element (rank, deg, a); `deg` is the coefficient of H."""

    __slots__ = ("rank", "deg", "a")

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.rank + other.rank, self.deg + other.deg, self.a + other.a)

    def scale(self, k: int) -> "MukaiVector":
        return MukaiVector(k * self.rank, k * self.deg, k * self.a)

    def is_zero(self) -> bool:
        return self.rank == 0 and self.deg == 0 and self.a == 0

    def triple(self) -> tuple[int, int, int]:
        return (self.rank, self.deg, self.a)


def mukai_pairing(s: Surface, v: MukaiVector, w: MukaiVector) -> int:
    """Symmetric bilinear form <v, w> on the rank-3 sublattice Z + Z.H + Z."""
    return -v.rank * w.a + v.deg * w.deg * s.h_squared - v.a * w.rank


def euler_characteristic(v: MukaiVector) -> int:
    """chi of any sheaf with vector v; equals -<(1,0,1), v> = rank(v) + a(v)."""
    return v.rank + v.a


def divisibility(v: MukaiVector) -> int:
    """Largest d >= 1 with v = d * v0 for an integral v0."""
    d = math.gcd(v.rank, v.deg, v.a)
    if d == 0:
        raise ValueError("zero vector has no primitive part")
    return d


def primitive_part(v: MukaiVector) -> MukaiVector:
    """The primitive vector v0 with v = divisibility(v) * v0."""
    d = divisibility(v)
    return MukaiVector(v.rank // d, v.deg // d, v.a // d)


def ideal_sheaf_vector(s: Surface, deg: int, length: int) -> MukaiVector:
    """Vector of I_Z(deg*H) for a length-`length` zero-dimensional subscheme Z.

    The trailing entry is deg^2*H.H/2 - length + 1, and the self-pairing of
    the result is 2*length - 2.
    """
    if length < 0:
        raise ValueError("negative subscheme length")
    return MukaiVector(1, deg, (deg * deg * s.h_squared) // 2 - length + 1)


def h0_line_bundle(s: Surface, n: int) -> int:
    """Number of independent sections of O(n*H).

    Vanishing for n < 0, the constants for n = 0, and n^2*H.H/2 + 2 for n > 0
    (higher cohomology of an ample line bundle on a K3 vanishes).
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    return (n * n * s.h_squared) // 2 + 2


def second_chern(s: Surface, v: MukaiVector) -> int:
    """c2 of a sheaf with vector v, for the ranks occurring here.

    Inverting a = c1^2/2 - c2 + rank gives c2 = deg^2*H.H/2 + rank - a; we
    only ever need ranks 1 and 2.
    """
    if v.rank not in (1, 2):
        raise ValueError("unsupported rank")
    return (v.deg * v.deg * s.h_squared) // 2 + v.rank - v.a
