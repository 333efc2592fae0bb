"""fourg: classification of Riemann surfaces of genus g with exactly 4g automorphisms.

The package computes, for each genus g >= 2, the quotient signatures a group
of order 4g can act with, the (unique, dihedral) large action, its extensions
by reflections, the real forms those extensions carry, and the nodal limits of
the family inside the moduli space boundary.
"""

from .signatures import (
    INF,
    Signature,
    SignatureSyntaxError,
    TAG_FAMILY1,
    TAG_FAMILY2,
    TAG_FAMILY3,
    TAG_FAMILY4,
    TAG_QUADRUPLE,
    TAG_SPORADIC,
    chain_signature,
    enumerate_4g_signatures,
    mixed_signature,
    normalized_area,
    parse_signature,
    sporadic_genera,
    wiman_quotient_signature,
)
from .errors import (
    FourgError,
    GroupConstructionError,
    InputFormatError,
    InvariantViolation,
    UsageError,
)
from .groups import (
    COMPLETE_CATALOG_ORDERS,
    MAX_ORDER,
    FiniteGroup,
    GroupElement,
    abelianization,
    automorphism_search,
    close_generator_map,
    cyclic,
    dicyclic,
    dihedral,
    dihedral_from_reflections,
    direct_product,
    from_permutations,
    from_table,
    from_text,
    is_isomorphic,
    iso_search,
    metacyclic,
    recognize,
    semidirect_cyclic,
    small_groups,
)
from .actions import (
    EXCEPTIONAL_SURFACE_GENERA,
    QUADRUPLE_FAMILY_GENERA,
    ActionClass,
    GeneratingVector,
    braid_move,
    canonical_vector,
    classify,
    eliminate_cases,
    exceptional_search,
    family_group,
    kernel_genus,
    main_action_class,
    smooth_vectors,
)
from .extensions import (
    KIND_A,
    KIND_B,
    ExtendedAction,
    build_extensions,
    chain_target_group,
    cone_target_group,
    restrict_to_index2,
)
from .realforms import (
    signed_species,
    species_set,
    symmetry_classes_with_ovals,
)
from .boundary import (
    ARC_ENDPOINTS,
    boundary_description,
    nodal_graph,
)
from .report import (
    CATALOGUED_SPORADIC_GENERA,
    atlas_reports,
    atlas_summary,
    build_report,
    report_markdown,
)
from .checks import run_all_checks

__version__ = "0.1.0"
