"""Exact-integer classification of rank-2 sheaf moduli on a Picard-rank-1 K3 surface.

Two classifiers share one lattice core: `classify_tf_components` lists the
strata of the stack of rank-2 torsion-free sheaves with a given vector, and
`classify_bn` lists the irreducible components of the locus of length-N
subschemes whose twisted ideal sheaf has a nonvanishing h^1.  Both list one
`ComponentRecord` per stratum or component, with its filtration type
(m, ell1, ell2) and its exact stack or locus dimension; the report renderers
print these records as they are.  `oracle.sweep` cross-checks the
classifiers against independent brute-force recomputations.
"""

from .brill_noether import (
    BNInput,
    BNReport,
    VERDICT_COMPONENTS,
    VERDICT_EMPTY,
    VERDICT_WHOLE,
    bn_mukai_vector,
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
    "BNInput",
    "BNReport",
    "VERDICT_WHOLE",
    "VERDICT_COMPONENTS",
    "VERDICT_EMPTY",
    "bn_mukai_vector",
    "exceptional",
    "classify_bn",
    "GridSpec",
    "DEFAULT_GRID",
    "BnSummary",
    "Discrepancy",
    "oracle_enumerate",
    "oracle_bn",
    "bn_component_dimension_identities",
    "sweep",
]
