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
tower level up, with respect to the dual expectation; it is evaluated both
by the level-two definition route and by closed expressions in level-one
data, and the two must agree.

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


def _check_degenerate(ind_restricted: np.ndarray, which: str, tol: float = 1e-9):
    n = ind_restricted.shape[0]
    if mx.operator_norm(ind_restricted - np.eye(n)) < tol:
        raise DegenerateIntermediate(f"{which} equals the corner algebra (index 1)")


def interior_angle_formula(
    E: ConditionalExpectation,
    mu,
    delta,
    *,
    C: MatrixStarAlgebra | None = None,
    D: MatrixStarAlgebra | None = None,
    tol: float = mx.DEFAULT_TOL,
) -> AngleResult:
    """Interior angle from quasi-bases of the two restricted expectations.

    ``mu`` and ``delta`` are quasi-bases of E|_C and E|_D.  When the
    intermediate algebras are supplied the quasi-bases are verified against
    them first (raising :class:`NoQuasiBasis` on failure, also for a family
    element outside its algebra).  The restrictions
    are taken by rows of E's coordinate matrix, so the check also fails for
    an E whose images leave its target.  An empty family is no quasi-basis
    and raises :class:`NoQuasiBasis`.
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
            check_tol = max(tol, 1e-8)
            try:
                verified = verify_quasi_basis(restricted, mats, check_tol)
            except NotInAlgebra as exc:
                raise NoQuasiBasis(f"family has an element outside {label}") from exc
            if not verified or E._off_target[0] > check_tol:
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
    coords_e = E.coordinates(max(tol, 1e-8))
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
    if mx.operator_norm(ind_e - scalar * eye) <= tol * scalar:
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
    tol: float = mx.DEFAULT_TOL,
) -> AngleResult:
    """Interior angle from Jones projections in the basic construction."""
    e_c, restricted_c = intermediate_data(level, F, tol)
    e_d, restricted_d = intermediate_data(level, F_prime, tol)
    _check_degenerate(restricted_c.index_element(tol), "C")
    _check_degenerate(restricted_d.index_element(tol), "D")
    return angle_from_projections(level, e_c, e_d)


def angle_from_projections(level: TowerLevel, e_c, e_d) -> AngleResult:
    """Definition-route angle from the intermediate projections e_C, e_D of ``level``."""
    dc, dd = e_c - level.jones_projection, e_d - level.jones_projection
    num = mx.operator_norm(level.dual_inner(dc, dd))
    return _result(num, level.module_norm(dc), level.module_norm(dd), Route.DEFINITION)


def _exterior_closed_expressions(
    level: TowerLevel,
    level2: TowerLevel,
    e_c: np.ndarray,
    e_d: np.ndarray,
    restricted_c: ConditionalExpectation,
    restricted_d: ConditionalExpectation,
    F: ConditionalExpectation,
    F_prime: ConditionalExpectation,
) -> tuple[float, float, float]:
    """Closed forms for the exterior-angle inner product and norms.

    All three are norms of elements of A_1, assembled from level-one data:
    the quasi-basis {l_i} of E, quasi-bases {mu_j}, {delta_k} of the
    restrictions, the intermediate projections and the index elements.
    E is evaluated on stacks, one :meth:`ConditionalExpectation.on_source`
    call per chunk of (i, i') pairs; quasi-basis elements that are exactly
    zero are dropped first, since each adds only zeros.
    """
    E = level.expectation
    lams, mus, deltas = (
        exp.quasi_stack[exp.quasi_stack.any(axis=(1, 2))]
        for exp in (E, restricted_c, restricted_d)
    )
    ind_e = level.index_matrix
    ind_c_inv = np.linalg.inv(restricted_c.index_element())
    ind_d_inv = np.linalg.inv(restricted_d.index_element())
    ind_f = ind_e @ ind_c_inv  # Ind(F), by multiplicativity of scalar chains
    ind_f_prime = ind_e @ ind_d_inv

    d = level.module_dim
    eye_d = np.eye(d, dtype=np.complex128)
    ind_e1_inv = level2.index_inverse

    # numerator element: Ind(E_1)^{-1} [ Ind(E|C)^{-2} Ind(E|D)^{-1}
    #   sum_{i,i'} l_i e_C Ind(F') inner_{ii'} e_D l_i'* - 1 ],
    # inner_{ii'} = sum_{j,k} mu_j E(mu_j* l_i* l_i' d_k) d_k*
    q, p, r, n = len(lams), len(mus), len(deltas), ind_e.shape[0]
    pairs = (mx.adjoint(lams)[:, None] @ lams[None]).reshape(q * q, n, n)
    mu_star, delta_star = mx.adjoint(mus), mx.adjoint(deltas)
    inner = np.empty_like(pairs)
    # charged per pair: the p r arguments, their images and the products
    for rows in mx.stack_slices(q * q, 3 * p * r * n * n * 16):
        args = mu_star[None, :, None] @ pairs[rows, None, None] @ deltas[None, None]
        values = E.on_source(args.reshape(-1, n, n)).reshape(args.shape)
        inner[rows] = (mus[None, :, None] @ values @ delta_star[None, None]).sum(axis=(1, 2))
        del args, values
    middle = level.embed(ind_f_prime @ inner).reshape(q, q, d, d)
    lmats = level.embed(lams)
    right = e_d @ mx.adjoint(lmats)  # e_D L_{l_i'}*
    total = ((lmats @ e_c) @ (middle @ right[None]).sum(axis=1)).sum(axis=0)
    scalar_pre = level.embed(ind_c_inv @ ind_c_inv @ ind_d_inv)
    numerator_elem = ind_e1_inv @ (scalar_pre @ total - eye_d)

    def denominator_elem(e_x, ind_x_inv, ind_g, G):
        f_ind = G(ind_g)  # F(Ind(F)); equals Ind(F) in the central case
        acc = (level.embed(lams @ f_ind) @ e_x @ mx.adjoint(lmats)).sum(axis=0)
        return ind_e1_inv @ (level.embed(ind_x_inv) @ acc - eye_d)

    num = mx.operator_norm(numerator_elem)
    den1 = math.sqrt(
        mx.operator_norm(denominator_elem(e_c, ind_c_inv, ind_f, F))
    )
    den2 = math.sqrt(
        mx.operator_norm(denominator_elem(e_d, ind_d_inv, ind_f_prime, F_prime))
    )
    return num, den1, den2


def exterior_angle(
    level: TowerLevel,
    F: ConditionalExpectation,
    F_prime: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
) -> AngleResult:
    """Exterior angle: the interior angle of (C_1, D_1) one tower level up.

    Iterates the tower once, forms e_2, e_{C_1}, e_{D_1} from the
    quasi-bases supplied by the compatible dual expectations G, and runs the
    definition route at level two.  The closed expressions in level-one data
    are evaluated alongside and must agree within 1e-7.
    """
    if F.target.same_span(level.algebra, tol):
        raise DegenerateIntermediate("C equals A; exterior angle undefined")
    if F_prime.target.same_span(level.algebra, tol):
        raise DegenerateIntermediate("D equals A; exterior angle undefined")

    e_c, restricted_c = intermediate_data(level, F, tol)
    e_d, restricted_d = intermediate_data(level, F_prime, tol)
    g_c = _dual_expectation_from(level, e_c, restricted_c, tol)
    g_d = _dual_expectation_from(level, e_d, restricted_d, tol)

    level2 = iterate_tower(level, tol=tol)
    e_c1 = intermediate_data(level2, g_c, tol)[0]
    e_d1 = intermediate_data(level2, g_d, tol)[0]
    result = angle_from_projections(level2, e_c1, e_d1)

    num_x, den1_x, den2_x = _exterior_closed_expressions(
        level, level2, e_c, e_d, restricted_c, restricted_d, F, F_prime
    )
    closed = _result(num_x, den1_x, den2_x, Route.FORMULA)
    if abs(closed.cos_value - result.cos_value) > EXTERIOR_AGREEMENT_TOL:
        raise NumericIntegrityError(
            "exterior angle: closed expressions disagree with the level-two "
            f"definition route ({closed.cos_value} vs {result.cos_value})"
        )
    extra = {
        **result.diagnostics.extra,
        "closed_cos": closed.cos_value,
        "closed_numerator": num_x,
        "closed_denominator_first": den1_x,
        "closed_denominator_second": den2_x,
    }
    return replace(result, diagnostics=replace(result.diagnostics, extra=extra))
