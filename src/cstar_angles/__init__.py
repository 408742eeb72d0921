"""Numerics for finite-index inclusions of matrix C*-algebras.

Computes Watatani indices and quasi-bases, realizes the basic construction
with its Jones projections and dual expectations on explicit modules, and
evaluates interior and exterior angles between compatible intermediate
subalgebras through two independent routes (closed formulas in quasi-basis
data, and the definition on tower matrices).  Includes the full 2x2 model
inclusion and group-algebra inclusions of finite groups.
"""

from .algebra import (
    CauchySchwarzResult,
    CheckResult,
    ConditionalExpectation,
    MatrixStarAlgebra,
    VerificationReport,
    cauchy_schwarz_check,
    conjugate_expectation,
    identity_expectation,
    is_compatible,
    restrict_expectation,
    verify_expectation,
    verify_quasi_basis,
    verify_star_algebra,
    watatani_index,
)
from .angles import (
    AngleDiagnostics,
    AngleResult,
    Route,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
)
from .groups import (
    FiniteGroup,
    GroupInclusion,
    Subgroup,
    all_subgroups,
    group_algebra_inclusion,
    group_angle,
    make_group,
    normalizer_angle_profile,
)
from .matrices import (
    coordinates_in_span,
    default_rng,
    is_positive_semidefinite,
    operator_norm,
)
from .tower import (
    TowerLevel,
    build_tower_level,
    dual_expectation_value,
    intermediate_dual_expectation,
    iterate_tower,
)

__version__ = "0.1.0"

__all__ = [
    "CauchySchwarzResult",
    "CheckResult",
    "ConditionalExpectation",
    "MatrixStarAlgebra",
    "VerificationReport",
    "cauchy_schwarz_check",
    "conjugate_expectation",
    "identity_expectation",
    "is_compatible",
    "restrict_expectation",
    "verify_expectation",
    "verify_quasi_basis",
    "verify_star_algebra",
    "watatani_index",
    "AngleDiagnostics",
    "AngleResult",
    "Route",
    "exterior_angle",
    "interior_angle_definition",
    "interior_angle_formula",
    "FiniteGroup",
    "GroupInclusion",
    "Subgroup",
    "all_subgroups",
    "group_algebra_inclusion",
    "group_angle",
    "make_group",
    "normalizer_angle_profile",
    "coordinates_in_span",
    "default_rng",
    "is_positive_semidefinite",
    "operator_norm",
    "TowerLevel",
    "build_tower_level",
    "dual_expectation_value",
    "intermediate_dual_expectation",
    "iterate_tower",
    "__version__",
]
