"""Interior and exterior angles between compatible intermediate subalgebras.

Two independent routes are implemented for the interior angle between
intermediates C, D of (B <= A, E):

* the *definition* route works with Jones projections in the basic
  construction,

      cos a(C, D) = ||<e_C - e_B, e_D - e_B>_A||
                    / (||e_C - e_B||_{A_1} ||e_D - e_B||_{A_1}),

  where <s, t>_A = E_1(s* t) and ||t||_{A_1} = ||E_1(t* t)||^(1/2);

* the *formula* route consumes only quasi-bases {mu_j} of E|_C and
  {delta_k} of E|_D,

      cos a(C, D) = ||Ind(E)^{-1} (sum_{j,k} mu_j E(mu_j* delta_k) delta_k* - 1)||
                    / (||Ind(E)^{-1}(Ind(E|_C) - 1)||^(1/2)
                       ||Ind(E)^{-1}(Ind(E|_D) - 1)||^(1/2)),

  with the scalar-index simplification applied (and cross-checked) when
  Ind(E) is a multiple of the identity.

The exterior angle b(C, D) is the interior angle between C_1 and D_1 one
tower level up, with respect to the dual expectation E_1 of A <= A_1; it is
evaluated both by the definition route at level two and by the formula route
on (A <= A_1, E_1), and the two must agree.  The formula route reads level
one alone: with {l_i} E's quasi-basis, {L_{l_i} e_C L_c},
c = Ind(E)^(1/2) Ind(E|_C)^{-1}, is a quasi-basis of E_1 on C_1 when
Ind(E|_C) is central (Watatani, *Index for C*-subalgebras*, 1990, on the
basic construction's quasi-basis), and likewise for D_1.

Cosines are clamped to [0, 1] only after a range assertion: values outside
[-1e-9, 1 + 1e-9] indicate a broken quasi-basis and raise instead of being
silently clamped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import matrices as mx
from .algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    verify_quasi_basis,
)
from .errors import DegenerateIntermediate, NoQuasiBasis, NotInAlgebra, NumericIntegrityError
from .tower import (
    TowerLevel,
    _dual_expectation_from,
    intermediate_data,
    iterate_tower,
)

__all__ = [
    "Route",
    "AngleDiagnostics",
    "AngleResult",
    "interior_angle_formula",
    "interior_angle_definition",
    "angle_from_projections",
    "exterior_angle",
]

COS_RANGE_SLACK = 1e-9
ROUTE_AGREEMENT_TOL = 1e-8
EXTERIOR_AGREEMENT_TOL = 1e-7


class Route(enum.Enum):
    FORMULA = "formula"
    DEFINITION = "definition"


@dataclass(frozen=True)
class AngleDiagnostics:
    numerator: float
    denominator_first: float
    denominator_second: float
    raw_cos: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AngleResult:
    cos_value: float
    angle_rad: float
    route: Route
    diagnostics: AngleDiagnostics

    @property
    def angle_deg(self) -> float:
        return math.degrees(self.angle_rad)


def _clamped(raw: float) -> float:
    if raw < -COS_RANGE_SLACK or raw > 1.0 + COS_RANGE_SLACK:
        raise NumericIntegrityError(
            f"cosine {raw!r} outside [0, 1] beyond tolerance; quasi-basis is broken"
        )
    return min(max(raw, 0.0), 1.0)


def _result(num: float, den1: float, den2: float, route: Route, extra=None) -> AngleResult:
    if den1 <= 0.0 or den2 <= 0.0:
        raise DegenerateIntermediate("angle denominator vanished (C = B or D = B?)")
    raw = num / (den1 * den2)
    cos = _clamped(raw)
    return AngleResult(
        cos_value=cos,
        angle_rad=math.acos(cos),
        route=route,
        diagnostics=AngleDiagnostics(num, den1, den2, raw, extra or {}),
    )


def _screened_norm(m: np.ndarray, bound: float) -> float:
    """||m||, or a Frobenius bound of it on the same side of ``bound`` (either side), for a two-sided test.

    See :func:`~cstar_angles.matrices.screened_norms`.
    """
    return float(mx.screened_norms(m[None], bound, settle_above=True)[0])


def _check_degenerate(ind_restricted: np.ndarray, which: str):
    n = ind_restricted.shape[0]
    if _screened_norm(ind_restricted - np.eye(n), mx.DEFAULT_TOL) < mx.DEFAULT_TOL:
        raise DegenerateIntermediate(f"{which} equals the corner algebra (index 1)")


def interior_angle_formula(
    E: ConditionalExpectation,
    mu,
    delta,
    *,
    C: MatrixStarAlgebra | None = None,
    D: MatrixStarAlgebra | None = None,
) -> AngleResult:
    """Interior angle from quasi-bases of the two restricted expectations.

    ``mu`` and ``delta`` are quasi-bases of E|_C and E|_D.  When the
    intermediate algebras are supplied the quasi-bases are verified against
    them first, at ``QUASI_BASIS_TOL`` (raising :class:`NoQuasiBasis` on
    failure, also for a family element outside its algebra).  The
    restrictions are taken by rows of E's coordinate matrix, so the check
    also fails for an E whose images leave its target by more than that.
    An empty family is no quasi-basis and raises :class:`NoQuasiBasis`.
    """
    mus, deltas = ([mx.as_matrix(m) for m in mats] for mats in (mu, delta))
    for mats, label in ((mus, "C"), (deltas, "D")):
        if not mats:
            raise NoQuasiBasis(f"an empty family is no quasi-basis of E|_{label}")
    mus, deltas = np.stack(mus), np.stack(deltas)
    for mats, alg, label in ((mus, C, "C"), (deltas, D, "D")):
        if alg is not None:
            rows = alg.basis_over(E.source) @ E._t
            restricted = ConditionalExpectation.from_coordinates(alg, E.target, rows)
            try:
                verified = verify_quasi_basis(restricted, mats, mx.QUASI_BASIS_TOL)
            except NotInAlgebra as exc:
                raise NoQuasiBasis(f"family has an element outside {label}") from exc
            if not verified or E._off_target[0] > mx.QUASI_BASIS_TOL:
                raise NoQuasiBasis(f"family is not a quasi-basis of E|_{label}")

    n = E.ambient_dim
    eye = np.eye(n, dtype=np.complex128)
    ind_e = E.index_element()
    ind_c, ind_d = mx.sum_times_adjoint(mus), mx.sum_times_adjoint(deltas)
    _check_degenerate(ind_c, "C")
    _check_degenerate(ind_d, "D")

    # sum_{j,k} mu_j E(mu_j* delta_k) delta_k*, with E on stacks of mu_j* delta_k
    # as in E.on_source, but at the pre-check's tolerance; charged per mu_j:
    # its r arguments, their images and the products
    coords_e = E.coordinates(mx.QUASI_BASIS_TOL)
    cross = np.zeros((n, n), dtype=np.complex128)
    for rows in mx.stack_slices(len(mus), 3 * len(deltas) * n * n * 16):
        args = mx.adjoint(mus[rows])[:, None] @ deltas[None]
        values = E._through(coords_e, args.reshape(-1, n, n)).reshape(args.shape)
        cross += (mus[rows, None] @ values @ mx.adjoint(deltas)[None]).sum(axis=(0, 1))

    ind_inv = np.linalg.inv(ind_e)
    num = mx.operator_norm(ind_inv @ (cross - eye))
    den1 = math.sqrt(mx.operator_norm(ind_inv @ (ind_c - eye)))
    den2 = math.sqrt(mx.operator_norm(ind_inv @ (ind_d - eye)))
    extra = {}

    scalar = np.trace(ind_e).real / n
    bound = mx.DEFAULT_TOL * scalar
    if _screened_norm(ind_e - scalar * eye, bound) <= bound:
        # scalar-index simplification; must agree with the general form
        num_s = mx.operator_norm(cross - eye)
        den1_s = math.sqrt(mx.operator_norm(ind_c - eye))
        den2_s = math.sqrt(mx.operator_norm(ind_d - eye))
        cos_general = num / (den1 * den2)
        cos_scalar = num_s / (den1_s * den2_s)
        if abs(cos_general - cos_scalar) > ROUTE_AGREEMENT_TOL:
            raise NumericIntegrityError(
                "scalar-index simplification disagrees with the general formula"
            )
        extra["cos_general_form"] = cos_general
        num, den1, den2 = num_s, den1_s, den2_s

    return _result(num, den1, den2, Route.FORMULA, extra)


def interior_angle_definition(
    level: TowerLevel,
    F: ConditionalExpectation,
    F_prime: ConditionalExpectation,
) -> AngleResult:
    """Interior angle from Jones projections in the basic construction."""
    e_c, restricted_c = intermediate_data(level, F)
    e_d, restricted_d = intermediate_data(level, F_prime)
    _check_degenerate(restricted_c.index_element(), "C")
    _check_degenerate(restricted_d.index_element(), "D")
    return angle_from_projections(level, e_c, e_d)


def angle_from_projections(level: TowerLevel, e_c, e_d) -> AngleResult:
    """Definition-route angle from the intermediate projections e_C, e_D of ``level``."""
    dc, dd = e_c - level.jones_projection, e_d - level.jones_projection
    num = mx.operator_norm(level.dual_inner(dc, dd))
    return _result(num, level.module_norm(dc), level.module_norm(dd), Route.DEFINITION)


def exterior_angle(
    level: TowerLevel,
    F: ConditionalExpectation,
    F_prime: ConditionalExpectation,
) -> AngleResult:
    """Exterior angle: the interior angle of (C_1, D_1) one tower level up.

    Iterates the tower once, forms e_2, e_{C_1}, e_{D_1} from the
    quasi-bases supplied by the compatible dual expectations G, and runs the
    definition route at level two.  The formula route on (A <= A_1, E_1),
    fed the families {L_{l_i} e_C L_c} and {L_{l_i} e_D L_c'} (c' as c,
    with Ind(E|_D)) built from level one alone (see the module docstring),
    runs alongside; the two must agree within ``EXTERIOR_AGREEMENT_TOL``
    (1e-7), and its cosine is kept as ``diagnostics.extra["closed_cos"]``.
    """
    if F.target.same_span(level.algebra):
        raise DegenerateIntermediate("C equals A; exterior angle undefined")
    if F_prime.target.same_span(level.algebra):
        raise DegenerateIntermediate("D equals A; exterior angle undefined")

    e_c, restricted_c = intermediate_data(level, F)
    e_d, restricted_d = intermediate_data(level, F_prime)
    g_c = _dual_expectation_from(level, e_c, restricted_c)
    g_d = _dual_expectation_from(level, e_d, restricted_d)

    level2 = iterate_tower(level)
    e_c1 = intermediate_data(level2, g_c)[0]
    e_d1 = intermediate_data(level2, g_d)[0]
    result = angle_from_projections(level2, e_c1, e_d1)

    def family(e_x, restricted):
        # L_{l_i} e_X L_c, c = Ind(E)^(1/2) Ind(E|_X)^-1: a quasi-basis of E_1 on X_1
        c = level.index_sqrt @ np.linalg.inv(restricted.index_element())
        return level._quasi_left @ (e_x @ level.embed(c))

    formula = interior_angle_formula(
        level.dual_expectation, family(e_c, restricted_c), family(e_d, restricted_d)
    )
    if abs(formula.cos_value - result.cos_value) > EXTERIOR_AGREEMENT_TOL:
        raise NumericIntegrityError(
            "exterior angle: the formula route one rung up disagrees with the "
            f"level-two definition route ({formula.cos_value} vs {result.cos_value})"
        )
    extra = {**result.diagnostics.extra, "closed_cos": formula.cos_value}
    return replace(result, diagnostics=replace(result.diagnostics, extra=extra))
