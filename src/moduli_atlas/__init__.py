"""Exact-integer classification of rank-2 sheaf moduli on a Picard-rank-1 K3 surface.

Two classifiers share one lattice core: `tf_listings` gives the strata of
the stack of rank-2 torsion-free sheaves with a given vector, and `bn_runs`
the irreducible components of the locus of length-N subschemes whose
twisted ideal sheaf has a nonvanishing h^1 (in `bn_runs(...).listings`).
Both answer with listings, one per sub-degree m, whose components share one
filtration-type shape, one exact stack or locus dimension and one set of
flags.  The writers of `report` print the listings as they are, run by run,
so a report costs what its bytes cost; `scan` and `oracle.sweep` read the same
listings.  `classify_tf_components` and `classify_bn` expand them into one
`ComponentRecord` per stratum or component, with its filtration type
(m, ell1, ell2).  `oracle.sweep` cross-checks the classifiers against
independent brute-force recomputations.

The package re-exports the `__all__` of `lattice`, `hn`, `torsion_free`,
`brill_noether` and `oracle`; a name is published in its own module.
"""

from . import brill_noether, hn, lattice, oracle, torsion_free
from .brill_noether import *  # noqa: F403
from .hn import *  # noqa: F403
from .lattice import *  # noqa: F403
from .oracle import *  # noqa: F403
from .torsion_free import *  # noqa: F403
from .version import VERSION

__version__ = VERSION

__all__ = [
    "__version__",
    *lattice.__all__,
    *hn.__all__,
    *torsion_free.__all__,
    *brill_noether.__all__,
    *oracle.__all__,
]
