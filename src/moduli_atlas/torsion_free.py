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
automorphisms.)  An unstable stratum is swallowed by the closure of the
semistable locus exactly when the pairing of its sub and quotient exceeds a
threshold; the threshold is a parameter with default 1 everywhere.
"""

from __future__ import annotations

from .hn import ComponentRecord, hn_runs
from .lattice import MukaiVector, Surface, divisibility, mukai_pairing, primitive_part

__all__ = [
    "mss_nonempty",
    "dim_mss",
    "classify_tf_components",
]

DEFAULT_THRESHOLD = 1


def mss_nonempty(s: Surface, v: MukaiVector) -> bool:
    """Whether a Gieseker-semistable sheaf with vector v exists."""
    v0 = primitive_part(v)
    return mukai_pairing(s, v0, v0) >= -2


def dim_mss(s: Surface, v: MukaiVector) -> int:
    """Stack dimension of the semistable locus; raises when it is empty."""
    d = divisibility(v)
    v0 = primitive_part(v)
    if mukai_pairing(s, v0, v0) < -2:
        raise ValueError("semistable stack is empty")
    norm = mukai_pairing(s, v, v)
    if mukai_pairing(s, v0, v0) == -2:
        return norm + d * d
    if norm > 0:
        return norm + 1
    return d


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
    dimensions.  Enlarging m_max only appends entries.
    """
    if v.rank != 2:
        raise ValueError("unsupported rank")
    nonempty = mss_nonempty(s, v)
    out: list[ComponentRecord] = []
    if nonempty:
        out.append(ComponentRecord("semistable", None, dim_mss(s, v), None, False, None))
    for run in hn_runs(s, v, m_max):
        absorbed = nonempty and run.pairing > threshold
        dim = run.dimension
        out.extend(ComponentRecord("hn", t, dim, None, absorbed, None) for t in run.triples())
    return out
