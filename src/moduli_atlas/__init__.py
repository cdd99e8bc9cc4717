"""Exact-integer classification of rank-2 sheaf moduli on a Picard-rank-1 K3 surface.

Two classifiers share one lattice core: `tf_listings` gives the strata of
the stack of rank-2 torsion-free sheaves with a given vector, and `bn_runs`
the irreducible components of the locus of length-N subschemes whose
twisted ideal sheaf has a nonvanishing h^1 (in `bn_runs(...).listings`).
Both answer with listings, one per sub-degree m, whose components share one
filtration-type shape, one exact stack or locus dimension and one set of
flags.  The report writers print the listings as they are, run by run, so a
report costs what its bytes cost; `scan` and `oracle.sweep` read the same
listings.  `classify_tf_components` and `classify_bn` expand them into one
`ComponentRecord` per stratum or component, with its filtration type
(m, ell1, ell2).  `oracle.sweep` cross-checks the classifiers against
independent brute-force recomputations.
"""

from .brill_noether import (
    BNInput,
    BNReport,
    VERDICT_COMPONENTS,
    VERDICT_EMPTY,
    VERDICT_WHOLE,
    bn_mukai_vector,
    bn_runs,
    classify_bn,
    exceptional,
)
from .hn import (
    ComponentRecord,
    HNType,
    SEMISTABLE,
    dim_hn_closed_form,
    dim_hn_stratum,
    enumerate_hn_types,
    hnp_dominates,
    make_hn_type,
)
from .lattice import (
    MukaiVector,
    Surface,
    divisibility,
    euler_characteristic,
    h0_line_bundle,
    ideal_sheaf_vector,
    mukai_pairing,
    primitive_part,
    second_chern,
)
from .oracle import (
    DEFAULT_GRID,
    BnSummary,
    Discrepancy,
    GridSpec,
    bn_component_dimension_identities,
    oracle_bn,
    oracle_enumerate,
    sweep,
)
from .torsion_free import (
    DEFAULT_THRESHOLD,
    classify_tf_components,
    dim_mss,
    mss_nonempty,
    tf_listings,
)
from .version import VERSION

__version__ = VERSION

__all__ = [
    "__version__",
    "Surface",
    "MukaiVector",
    "mukai_pairing",
    "euler_characteristic",
    "divisibility",
    "primitive_part",
    "ideal_sheaf_vector",
    "h0_line_bundle",
    "second_chern",
    "HNType",
    "ComponentRecord",
    "SEMISTABLE",
    "make_hn_type",
    "enumerate_hn_types",
    "dim_hn_stratum",
    "dim_hn_closed_form",
    "hnp_dominates",
    "DEFAULT_THRESHOLD",
    "mss_nonempty",
    "dim_mss",
    "classify_tf_components",
    "tf_listings",
    "BNInput",
    "BNReport",
    "VERDICT_WHOLE",
    "VERDICT_COMPONENTS",
    "VERDICT_EMPTY",
    "bn_mukai_vector",
    "exceptional",
    "classify_bn",
    "bn_runs",
    "GridSpec",
    "DEFAULT_GRID",
    "BnSummary",
    "Discrepancy",
    "oracle_enumerate",
    "oracle_bn",
    "bn_component_dimension_identities",
    "sweep",
]
