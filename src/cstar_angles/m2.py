"""The 2x2 model inclusion: scalars inside M_2(C), diagonals in between.

This module wires up the canonical tracial expectation E on A = M_2(C)
onto B = C.I_2 (quasi-basis {sqrt(2) e_ij}, index 4), the diagonal
expectation F onto Delta (quasi-basis {e_ij}, index 2), their conjugates
F_u onto u Delta u*, and the closed forms for the angle and for the Jones
projection of u Delta u* inside the basic construction.

Fixed coordinates
-----------------
The basic construction of C.I_2 <= M_2 is identified with M_4(C) through
the module basis (e_11, e_12, e_21, e_22), in that order, orthonormal for
the inner product Tr(E(x* y)).  Under this identification

    L_x = kron(x, I_2),      e_B acts as x -> E(x),

and all 4x4 matrices produced here (``jones_projection``, intermediate
projections, ``closed_form_eD``) are written in exactly these coordinates.
A module vector is the row-major ravel of its 2x2 matrix.

The closed-form entry list for e_D carries chained sign and conjugation
relations that are easy to get wrong, so the assembled matrix is always
validated against the two defining conditions (it must be a projection
implementing F_u); failures raise :class:`ClosedFormMismatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matrices as mx
from .algebra import ConditionalExpectation, MatrixStarAlgebra, restrict_expectation
from .angles import AngleResult, interior_angle_definition, interior_angle_formula
from .errors import ClosedFormMismatch, NotUnitary
from .tower import TowerLevel, build_tower_level, intermediate_data

__all__ = [
    "Unitary2",
    "M2Inclusion",
    "canonical_inclusion",
    "canonical_tower",
    "rotation",
    "is_hadamard",
    "fu_map",
    "fu_expectation",
    "interior_routes",
    "skewed_scalar_expectation",
    "closed_form_angle",
    "exact_angle",
    "closed_form_eD",
    "hadamard_gap_demo",
    "angle_sweep",
    "delta_algebra",
    "conjugated_diagonal_algebra",
]

_E = [
    [np.zeros((2, 2), dtype=np.complex128) for _ in range(2)] for _ in range(2)
]
for _i in range(2):
    for _j in range(2):
        _E[_i][_j][_i, _j] = 1.0
E11, E12, E21, E22 = _E[0][0], _E[0][1], _E[1][0], _E[1][1]


class Unitary2:
    """A 2x2 unitary, validated at construction."""

    def __init__(self, matrix, tol: float = 1e-12):
        m = mx.as_matrix(matrix)
        if m.shape != (2, 2):
            raise NotUnitary("expected a 2x2 matrix")
        if mx.operator_norm(mx.adjoint(m) @ m - np.eye(2)) > tol:
            raise NotUnitary("matrix is not unitary within tolerance")
        self.matrix = m

    @property
    def lam11(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def lam12(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def lam21(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def lam22(self) -> complex:
        return complex(self.matrix[1, 1])


def _coerce(u, tol: float = 1e-9) -> Unitary2:
    return u if isinstance(u, Unitary2) else Unitary2(u, tol=tol)


def rotation(theta: float) -> Unitary2:
    c, s = math.cos(theta), math.sin(theta)
    return Unitary2(np.array([[c, -s], [s, c]], dtype=np.complex128))


def is_hadamard(u, tol: float = 1e-9) -> bool:
    """All four entries share the modulus 1/sqrt(2)."""
    m = _coerce(u).matrix
    return bool(np.all(np.abs(np.abs(m) - 1.0 / math.sqrt(2.0)) <= tol))


class M2Inclusion(NamedTuple):
    A: MatrixStarAlgebra
    B: MatrixStarAlgebra
    E: ConditionalExpectation
    F: ConditionalExpectation
    delta: MatrixStarAlgebra


def delta_algebra() -> MatrixStarAlgebra:
    return MatrixStarAlgebra.from_orthonormal([E11, E22])


def conjugated_diagonal_algebra(u) -> MatrixStarAlgebra:
    m = _coerce(u).matrix
    ms = mx.adjoint(m)
    return MatrixStarAlgebra.from_orthonormal([m @ E11 @ ms, m @ E22 @ ms])


def canonical_inclusion() -> M2Inclusion:
    """A = M_2, B = C.I_2, tracial E, diagonal F, and Delta."""
    sqrt2 = math.sqrt(2.0)
    A = MatrixStarAlgebra.from_orthonormal([E11, E12, E21, E22])
    eye = np.eye(2, dtype=np.complex128)
    B = MatrixStarAlgebra([eye / sqrt2])
    E = ConditionalExpectation.from_rule(
        A,
        B,
        lambda x: (np.trace(x) / 2.0) * eye,
        quasi_basis=[sqrt2 * E11, sqrt2 * E12, sqrt2 * E21, sqrt2 * E22],
        name="E",
    )
    delta = delta_algebra()
    F = ConditionalExpectation.from_rule(
        A,
        delta,
        lambda x: np.diag(np.diag(x)),
        quasi_basis=[E11, E12, E21, E22],
        name="F",
    )
    return M2Inclusion(A, B, E, F, delta)


def canonical_tower(
    inclusion: M2Inclusion | None = None, *, materialize: bool = True
) -> TowerLevel:
    inc = inclusion or canonical_inclusion()
    return build_tower_level(inc.E, materialize=materialize)


def embed(x) -> np.ndarray:
    """L_x on the module of the canonical inclusion: kron(x, I_2)."""
    return np.kron(np.asarray(x, dtype=np.complex128), np.eye(2))


def fu_map(u, a) -> np.ndarray:
    """Closed form of F_u = Ad_u o F o Ad_u* on a 2x2 matrix."""
    uu = _coerce(u)
    l11, l12, l21, l22 = uu.lam11, uu.lam12, uu.lam21, uu.lam22
    a = mx.as_matrix(a)
    p, q = abs(l11) ** 2, abs(l12) ** 2
    x = a[0, 0] * p + a[1, 1] * q + a[0, 1] * l21 * np.conj(l11) + a[1, 0] * np.conj(l21) * l11
    y = a[0, 0] * q + a[1, 1] * p + a[0, 1] * l22 * np.conj(l12) + a[1, 0] * np.conj(l22) * l12
    return np.array(
        [
            [x * p + y * q, x * np.conj(l21) * l11 + y * np.conj(l22) * l12],
            [x * l21 * np.conj(l11) + y * l22 * np.conj(l12), x * q + y * p],
        ],
        dtype=np.complex128,
    )


def fu_expectation(u, inclusion: M2Inclusion | None = None) -> ConditionalExpectation:
    """F_u : M_2 -> u Delta u*, with quasi-basis {e_ij u}, index 2."""
    uu = _coerce(u)
    inc = inclusion or canonical_inclusion()
    target = conjugated_diagonal_algebra(uu)
    quasi = [eij @ uu.matrix for eij in (E11, E12, E21, E22)]
    return ConditionalExpectation.from_rule(
        inc.A, target, lambda a: fu_map(uu, a), quasi_basis=quasi, name="F_u"
    )


def interior_routes(
    u, inclusion: M2Inclusion, level: TowerLevel, mu
) -> tuple[AngleResult, AngleResult]:
    """(formula, definition) angles of Delta and u Delta u*; ``mu`` is E|Delta's quasi-basis.

    The routes share only F_u: one reads quasi-bases, the other ``level``.
    """
    f_u = fu_expectation(u, inclusion)
    delta = restrict_expectation(inclusion.E, f_u.target, f_u).quasi_basis
    formula = interior_angle_formula(inclusion.E, mu, delta)
    return formula, interior_angle_definition(level, inclusion.F, f_u)


def skewed_scalar_expectation(t: float) -> ConditionalExpectation:
    """E_t([a_ij]) = (a_11 t + a_22 (1 - t)) I_2 on M_2, for t in (0, 1).

    Tracial only at t = 1/2.  Quasi-basis: {e_11/sqrt(t), e_12/sqrt(1-t),
    e_21/sqrt(t), e_22/sqrt(1-t)}, so Ind(E_t) = 1/(t(1-t)) . I_2.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    A = MatrixStarAlgebra.from_orthonormal([E11, E12, E21, E22])
    eye = np.eye(2, dtype=np.complex128)
    B = MatrixStarAlgebra([eye / math.sqrt(2.0)])
    st, s1t = math.sqrt(t), math.sqrt(1.0 - t)
    quasi = [E11 / st, E12 / s1t, E21 / st, E22 / s1t]
    return ConditionalExpectation.from_rule(
        A,
        B,
        lambda x: (x[0, 0] * t + x[1, 1] * (1.0 - t)) * eye,
        quasi_basis=quasi,
        name=f"E_t({t})",
    )


def closed_form_angle(u) -> float:
    """The fourth-power closed form arccos sqrt(1 - (2 |l_11| |l_12|)^4).

    Coincides with the realized angle exactly at the extremes (u diagonal,
    antidiagonal, or Hadamard) but overestimates the cosine in between:
    the projection geometry yields cos = | |l_11|^2 - |l_12|^2 |, whose
    square is 1 - (2 |l_11| |l_12|)^2, smaller by the factor
    1 + (2 |l_11| |l_12|)^2.  See :func:`exact_angle` for the value that
    both computation routes realize; the test suite pins down the mismatch.
    """
    uu = _coerce(u)
    prod = 2.0 * abs(uu.lam11) * abs(uu.lam12)
    inside = max(0.0, 1.0 - prod**4)
    return math.acos(min(1.0, math.sqrt(inside)))


def exact_angle(u) -> float:
    """The realized interior angle: arccos | |l_11|^2 - |l_12|^2 |.

    This is the value produced by both the quasi-basis formula route and
    the tower definition route (they are cross-checked against it in the
    tests).  Along the rotation family it is exactly theta -> 2 theta on
    [0, pi/4], which makes the surjectivity of the angle map onto
    [0, pi/2] transparent.
    """
    uu = _coerce(u)
    cos = abs(abs(uu.lam11) ** 2 - abs(uu.lam12) ** 2)
    return math.acos(min(1.0, cos))


def closed_form_eD(u, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
    """The Jones projection of u Delta u* in the 4x4 coordinates.

    Assembled from the closed-form entry list and its symmetry relations
    (the two entries the list leaves implicit are filled in as
    x_34 = -x_12 and x_43 = conj(x_34)), then validated: the matrix must be
    a self-adjoint idempotent satisfying e_D L_a e_D = L_{F_u(a)} e_D and
    e_D . vec(a) = vec(F_u(a)).
    """
    uu = _coerce(u)
    l11, l12, l21 = uu.lam11, uu.lam12, uu.lam21
    p, q = abs(l11) ** 2, abs(l12) ** 2

    x11 = p * p + q * q
    x12 = l21 * np.conj(l11) * (p - q)
    x14 = 2.0 * p * q
    x22 = 2.0 * p * abs(l21) ** 2
    x23 = 2.0 * np.conj(l21) ** 2 * l11**2

    e_d = np.array(
        [
            [x11, x12, np.conj(x12), x14],
            [np.conj(x12), x22, x23, -np.conj(x12)],
            [x12, np.conj(x23), x22, -x12],
            [x14, -x12, -np.conj(x12), x11],
        ],
        dtype=np.complex128,
    )

    worst = max(
        mx.operator_norm(e_d @ e_d - e_d),
        mx.operator_norm(e_d - mx.adjoint(e_d)),
    )
    for a in (E11, E12, E21, E22):
        la, lfa = embed(a), embed(fu_map(uu, a))
        worst = max(worst, mx.operator_norm(e_d @ la @ e_d - lfa @ e_d))
        worst = max(worst, float(np.linalg.norm(e_d @ a.ravel() - fu_map(uu, a).ravel())))
    if worst > tol:
        raise ClosedFormMismatch(
            f"assembled e_D violates its defining conditions (residual {worst:.2e})"
        )
    return e_d


@dataclass(frozen=True)
class GapDemo:
    u_eC_u_star: np.ndarray
    e_uCu_star: np.ndarray
    equal: bool


def hadamard_gap_demo(u, tol: float = mx.DEFAULT_TOL) -> GapDemo:
    """Contrast u e_Delta u* with the Jones projection of u Delta u*.

    The two coincide exactly when u fixes Delta; conjugating the projection
    is not the same as taking the projection of the conjugate.
    """
    uu = _coerce(u)
    inc = canonical_inclusion()
    level = canonical_tower(inc, materialize=False)
    e_delta = intermediate_data(level, inc.F)[0]
    lu = embed(uu.matrix)
    conjugated = lu @ e_delta @ mx.adjoint(lu)
    direct = closed_form_eD(uu)
    gap = mx.operator_norm(conjugated - direct)
    return GapDemo(conjugated, direct, bool(gap <= tol))


def angle_sweep(thetas, angle_fn=None) -> list[tuple[float, float]]:
    """(theta, angle) along the rotation family, theta in [0, pi/4].

    Uses the realized angle by default, so the image sweeps [0, pi/2]
    linearly; pass ``angle_fn=closed_form_angle`` for the fourth-power
    variant (same endpoints, same monotonicity).
    """
    fn = angle_fn or exact_angle
    out = []
    for theta in thetas:
        if not 0.0 <= theta <= math.pi / 4 + 1e-12:
            raise ValueError("sweep angles must lie in [0, pi/4]")
        out.append((float(theta), fn(rotation(theta))))
    return out
