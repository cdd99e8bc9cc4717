"""Irreducible components of the stack of rank-2 torsion-free sheaves.

For a fixed vector v = (2, n, a) the stack is stratified by the semistable
locus and by the destabilizing filtration types of `hn.py`.  The semistable
locus is nonempty exactly when the primitive part v0 of v has <v0,v0> >= -2,
and its stack dimension is, with v = d*v0:

    <v,v> + d^2   if <v0,v0> = -2
    <v,v> + 1     if <v,v> > 0
    d             if <v,v> = 0

(The first case wins the dispatch: it is the only one with <v,v> < 0, and for
d = 1 it gives dimension -1, the stack of a rigid sheaf with its
automorphisms.)  The pairing is quadratic, so <v0,v0> = <v,v>/d^2 exactly:
one self-pairing of v and its divisibility decide both questions, and no v0
is built here.  The oracle still builds v0 and pairs it, so the two sides
reach the answer independently.

An unstable stratum is swallowed by the closure of the semistable locus
exactly when the pairing of its sub and quotient exceeds a threshold; the
threshold is a parameter with default 1 everywhere.
"""

from __future__ import annotations

from .hn import ComponentRecord, expand_listings, hn_runs, run_listing
from .lattice import MukaiVector, Surface, _Record, divisibility, mukai_pairing

__all__ = [
    "DEFAULT_THRESHOLD",
    "mss_nonempty",
    "dim_mss",
    "tf_listings",
    "classify_tf_components",
]

DEFAULT_THRESHOLD = 1


def _mss_dim(s: Surface, v: MukaiVector) -> int | None:
    """Stack dimension of the semistable locus, or None when it is empty."""
    d = divisibility(v)
    norm = mukai_pairing(s, v, v)
    norm0 = norm // (d * d)  # <v0,v0>, exact
    if norm0 < -2:
        return None
    if norm0 == -2:
        return norm + d * d
    if norm > 0:
        return norm + 1
    return d


def mss_nonempty(s: Surface, v: MukaiVector) -> bool:
    """Whether a Gieseker-semistable sheaf with vector v exists."""
    return _mss_dim(s, v) is not None


def dim_mss(s: Surface, v: MukaiVector) -> int:
    """Stack dimension of the semistable locus; raises when it is empty."""
    dim = _mss_dim(s, v)
    if dim is None:
        raise ValueError("semistable stack is empty")
    return dim


def tf_listings(
    s: Surface, v: MukaiVector, m_max: int, threshold: int = DEFAULT_THRESHOLD
) -> list[tuple]:
    """The strata of `classify_tf_components` as listings, one per run.

    The semistable entry comes first when that locus is nonempty, then one
    "hn" listing per run of `hn_runs`, whose `absorbed` flag is worked out
    once for the whole run.
    """
    runs = hn_runs(s, v, m_max)  # rejects a rank other than 2 first
    _Record._check_ints("threshold", threshold)
    mss = _mss_dim(s, v)
    nonempty = mss is not None
    out: list[tuple] = []
    if nonempty:
        out.append(("semistable", mss, None, False, None, None, None, None))
    for m, hi, budget, pairing, dimension in runs:
        absorbed = nonempty and pairing > threshold
        out.append(run_listing("hn", dimension, None, absorbed, None, m, 0, hi, budget))
    return out


def classify_tf_components(
    s: Surface, v: MukaiVector, m_max: int, threshold: int = DEFAULT_THRESHOLD
) -> list[ComponentRecord]:
    """Strata of the rank-2 torsion-free stack with vector v, sub-degree <= m_max.

    The "semistable" entry comes first when it is nonempty, followed by the
    "hn" filtration strata in (m, ell1) order, each flagged `absorbed` when
    the semistable locus is nonempty and the sub/quotient pairing exceeds the
    threshold.  Absorbed strata lie in the closure of the semistable locus and
    are not irreducible components; when that locus is empty every stratum is
    a genuine component and none is absorbed.  Dimensions are stack
    dimensions.  Enlarging m_max only appends entries.  This is the expansion
    of `tf_listings`.
    """
    return expand_listings(tf_listings(s, v, m_max, threshold))
