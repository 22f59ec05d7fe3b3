"""trusskit: finite heaps, trusses, braces and their extensions.

Everything is a small operation table over indices 0..n-1, every axiom is
checked exhaustively at every order, and every structural claim ships with
the check that verifies it.  Distributivity-type laws say that rows of a
table are heap morphisms, and a heap morphism is an affine map of retracts,
so those checks need only a generating set of the retract (n^2 log n
comparisons instead of n^4).
"""

from .lawcheck import Check, ConsistencyError, Report, ValidationError
from .heaps import (
    AbGroup,
    Heap,
    closed_subheaps,
    heap_from_group,
    heap_law_report,
    product_heap,
    quotient_heap,
    retract,
    subheap_closure,
    subheap_relation_classes,
    subheap_witness,
    translate,
    validate_ternary_table,
)
from .groups import (
    FiniteGroup,
    GroupFingerprint,
    abelian_invariants,
    cyclic_group,
    dihedral_group,
    direct_product,
    fingerprint,
    group_from_spec,
    is_isomorphic,
    named_group,
    named_match,
    quaternion_group,
)
from .trusses import (
    Paragon,
    ParagonReport,
    Truss,
    UnitsParagonReport,
    group_from_units,
    inverse_in,
    is_brace_type,
    is_normal_paragon,
    is_paragon,
    is_ring_type,
    is_zn_truss,
    lambda_q,
    odd_multiple_check,
    opposite_truss,
    paragons,
    quotient_truss,
    rho_q,
    truss_from_ring,
    truss_isomorphism,
    truss_law_report,
    units,
    units_paragon_report,
)
from .modules import (
    TModule,
    absorbers,
    all_induced_submodules,
    congruence_correspondence_report,
    congruences,
    induced_action,
    induced_module,
    is_induced_submodule,
    is_submodule,
    module_law_report,
    product_module,
    quotient_module,
    regular_module,
    shift_submodule,
    trivial_module,
    zero_module,
)
from .extensions import (
    ExtTruss,
    anchor_iso,
    base_subtruss,
    ext_action,
    ext_units,
    extend,
    extension_clause_report,
    fiber_paragon,
    iterated_extension_matches_product,
    module_over_extension,
    ring_type_check,
    split_sequence_check,
)
from .braces import (
    Brace,
    brace_from_truss,
    brace_ideals,
    brace_law_report,
    ideal_cosets,
    ideal_iff_normal_paragon,
    is_brace_ideal,
    socle,
    truss_from_brace,
    units_brace,
)
from .catalog import (
    GroupRing,
    Ring,
    TruncPoly,
    end_truss,
    endomorphism_maps,
    group_ring,
    group_ring_paragon_report,
    integer_paragon_probe,
    order_congruence_check,
    trunc_poly_truss,
    za_mul,
    za_power,
    za_truss,
    zn_ring,
    zn_truss,
)

__version__ = "0.1.0"
