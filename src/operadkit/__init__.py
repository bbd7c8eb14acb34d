"""operadkit: exact symbolic calculus for colored dg operads.

Free non-symmetric colored operads on planar tree monomials, derivation
differentials with exact Koszul bookkeeping, constructive tail solving,
polarizations, finite-dimensional representations over the rationals, and
the arity-by-arity homotopy-transfer extension.
"""

from .core import (
    BwRelations,
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    UnboundedEnumerationError,
    compose_full,
    enumerate_basis,
    graft,
    graft_oriented,
    normalize_bw,
    parse_element,
    parse_tree,
)
from .differentials import (
    DerivationDifferential,
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    extend_derivation,
    rename_element,
    rename_model,
    verify_d_squared,
    verify_minimality,
)
from .forests import (
    ForestElement,
    ForestMonomial,
    build_dull_operad,
    compose_forests,
    conjugate_forest,
    forest_differential,
    polarization_iso_m2,
    polarization_ns,
    polarization_sym,
    symmetrize_forest,
    tensor_forests,
    verify_polarization,
)
from .linalg import (
    ChainComplex,
    RationalMatrix,
    homology_dims,
    kernel_basis,
    rank,
    solve_linear,
)
from .reps import (
    MultilinearMap,
    Representation,
    check_homotopy,
    check_representation,
    check_sh_equivalence,
    check_sh_morphism,
    compose_at,
    compose_maps,
    evaluate_element,
    hom_differential,
    identity_map,
    zero_map,
)
from .tails import (
    ObstructionNotCycleError,
    TailedModel,
    TailNotFoundError,
    TailProblem,
    build_model_btow,
    build_model_homotopy,
    build_model_iso_principal,
    principal_part_btow,
    solve_tail,
)
from .transfer import (
    ExtensionObstructionError,
    ExtensionState,
    extend_to_arity,
    extension_step,
    find_homotopy,
    is_quasi_iso,
    scenario_abelization,
    scenario_symmetrization,
)

__version__ = "0.1.0"
