"""The basic construction, realized concretely on a finite-dimensional module.

Given an inclusion B <= A of matrix star-algebras with a finite-index
expectation E, the algebra A becomes a module over B with B-valued inner
product E(x*y).  To get computable matrices we coordinatize A with the
scalar inner product

    <x, y> = Tr(E(x* y)),

which is positive definite because E is faithful.  The module basis is A's
HS basis times the inverse square root of its Gram matrix, which commutes
with left multiplication (:class:`GenericModule`), so every element x acts
by left multiplication as the d x d matrix L_x of HS coordinates
(d = dim A), the map a -> E(a)
becomes the Jones projection e_B, and

    A_1 = span{ L_x e_B L_y : x, y in A }

is the basic construction, faithfully represented on the module, so
C*-norms of its elements are plain operator norms of d x d matrices.  A_1
is spanned by d q products instead of d^2, with q the size of the
quasi-basis {l_k} of E: every y in A is sum_k E(y l_k) l_k*, and e_B
commutes with B, so

    x e_B y = sum_k x E(y l_k) e_B l_k*   and   A_1 = span{ L_{b_i} e_B L_{l_k*} }

over the basis {b_i} of A (Watatani, Index for C*-subalgebras, 1990).
The same argument with e_C, which commutes with C >= B, spans C_1 by
{L_{b_i} e_C L_{l_k*}}.  A level builds A_1 only when it is first read,
and stops with :class:`TooLarge` before it builds a family whose
estimated size exceeds ``MATERIALIZE_BUDGET_BYTES``.  The dual
expectation E_1 : A_1 -> A is pinned down by E_1(x e_B y) =
Ind(E)^{-1} x y; on the whole of A_1 this is evaluated through the
decomposition-free identity

    E_1(t) = Ind(E)^{-1} * sum_i  t(l_i) l_i*,

where {l_i} is the quasi-basis of E and t(l_i) is the module action (for a
spanning element x e_B y the sum collapses to x y by the quasi-basis
identity, and both sides are linear).  It is evaluated in module
coordinates, with q_i = coords(l_i) and the star matrix J, whose column j
is coords(m_j*) for the module basis {m_j}, so that
coords(x*) = J conj(coords(x)).  Since t(l_i) has coordinates t q_i and
coords(l_i a*) = L_{l_i} J conj(coords(a)),

    coords(E_1(t)) = L_{Ind(E)^-1} J conj(v),   v = sum_i L_{l_i} J conj(t q_i),

where v holds the coordinates of (sum_i t(l_i) l_i*)*.  An element costs
three products of q d x d matrices with vectors, about 3 q d^2, and one
conversion from coordinates; J, the L_{l_i} and L_{Ind(E)^-1} J are built
once per level.  The same identity, t = sum_i L_{t(l_i)} e_B L_{l_i*} on
A_1, gives the compatible expectation onto C_1 as
G(t) = L_{Ind(E|_C)^-1} sum_i L_{t(l_i)} e_C L_{l_i*}.  The route that
decomposes t over the spanning family of A_1 by least squares,
:func:`dual_expectation_value`, is kept as the oracle of E_1, and the two
are cross-checked.

Iterating: a :class:`TowerLevel` is itself a valid (algebra, subalgebra,
expectation) triple one rung up, with A embedded into A_1 as {L_x}, so the
same constructor produces level two, giving e_2 and E_2 for exterior
angles; its A_2 too is built only if it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matrices as mx
from .algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    _centrality_residual,
    compatibility_residual,
    restrict_expectation,
    verify_quasi_basis,
)
from .errors import (
    ConstructionFailure,
    NoQuasiBasis,
    NonCentralIndex,
    NotCompatible,
    NotInAlgebra,
    NotInSpan,
    NotIntermediate,
    TooLarge,
)

__all__ = [
    "GenericModule",
    "TowerLevel",
    "build_tower_level",
    "dual_expectation_value",
    "iterate_tower",
    "intermediate_dual_expectation",
]

# largest estimated size (16 bytes per entry) of a spanning family, or of
# a next rung, that a tower level may build
MATERIALIZE_BUDGET_BYTES = 1 << 30


def _check_budget(need: int, what: str):
    """Raise :class:`TooLarge` when ``what``, estimated at ``need`` bytes, exceeds the budget."""
    if need > MATERIALIZE_BUDGET_BYTES:
        raise TooLarge(
            f"{what} need about {need / 2**20:.0f} MiB "
            f"(budget {MATERIALIZE_BUDGET_BYTES / 2**20:.0f} MiB)"
        )


def _check_family_budget(count: int, n: int, what: str):
    """Raise :class:`TooLarge` before ``count`` n x n spanning matrices are built."""
    _check_budget(
        16 * (count * n * n + 2 * count * count),
        f"{what}: {count} spanning matrices of size {n}x{n}, with room for two "
        f"{count}x{count} matrices (no Gram pseudo-inverse is formed),",
    )


class GenericModule:
    """The module of (A, E): A's coordinates scaled by the square root of its Gram matrix.

    Let {b_j} be A's HS-orthonormal basis, with coordinates
    ``A.hs_coordinates`` and ``A.combine``.  The module Gram matrix
    G[j, l] = Tr(E(b_j* b_l)) = <b_j, b_l rho>_HS is right multiplication by
    the density rho of Tr o E, and the module basis m_k = b_k rho^{-1/2} =
    sum_j b_j G^{-1/2}[j, k] is the symmetric (Loewdin) orthonormalization of
    {b_j}.  HS coordinates h become h conj(G^{1/2}), and a map h -> h X on HS
    rows has the module matrix (conj(G^{-1/2}) X conj(G^{1/2}))^T.  G commutes
    with left multiplication, so column j of L_x is the HS coordinates of
    x b_j.  When Tr o E = c Tr, the module basis is A's basis over sqrt(c).

    The density is rho = sum_k tau_k b_k*, tau_k = Tr(E(b_k)), since
    Tr(E(y)) = sum_k tau_k <b_k, y>_HS = Tr(y rho) on A; so G is the
    transpose of R_rho, the right multiplication matrix of
    :meth:`MatrixStarAlgebra.multiplication_matrices`.
    """

    def __init__(self, algebra: MatrixStarAlgebra, expectation: ConditionalExpectation):
        self.algebra = algebra
        self.dim = algebra.dim
        traces = np.trace(algebra.basis_stack, axis1=1, axis2=2)
        tau = self._hs_matrix(expectation) @ traces  # Tr(E(b_j))
        rho = mx.adjoint(algebra.combine(np.conjugate(tau)))
        gram = algebra.multiplication_matrices(rho[None], left=False)[0].T
        values, vectors = np.linalg.eigh(gram)
        del gram
        # no Gram-Schmidt pivot is below sqrt(values[0]), so this fires
        # whenever the pivot rule cutoff (1 + ||b_j||_E) would
        low, high = np.sqrt(np.maximum(values[[0, -1]], 0.0))
        if not low > mx.RANK_CUTOFF * (1.0 + high):
            raise ConstructionFailure(
                "module inner product is degenerate (expectation not faithful?)"
            )
        # conj(V diag(s) V*) = conj(V) diag(s) V^T for s = values^(+-1/2)
        scaled = np.conjugate(vectors) * np.sqrt(values)
        self._to_module = scaled @ vectors.T
        scaled /= values
        self._from_module = scaled @ vectors.T

    def _hs_matrix(self, F: ConditionalExpectation) -> np.ndarray:
        """F on A's HS coordinates: row j holds the HS coordinates of F(b_j)."""
        A = self.algebra
        onto = F.coordinate_matrix @ A.hs_coordinates(F.target.basis_stack)
        return onto if F.source is A else F.source.hs_coordinates(A.basis_stack) @ onto

    def coords(self, y) -> np.ndarray:
        """Coordinates of one element, or rows of coordinates of a (k, n, n) stack."""
        return self.algebra.hs_coordinates(y) @ self._to_module

    def from_coords(self, v) -> np.ndarray:
        """Inverse of :meth:`coords`; rows of coordinates give a stack."""
        return self.algebra.combine(np.asarray(v) @ self._from_module)

    def left_mult(self, x) -> np.ndarray:
        """L_x, or the stack of them: column j holds the HS coordinates of x b_j."""
        x = np.asarray(x, dtype=np.complex128)
        stack = x.reshape((-1,) + x.shape[-2:])
        on_hs = self.algebra.multiplication_matrices(stack, left=True)
        return np.swapaxes(on_hs, 1, 2).reshape(x.shape[:-2] + (self.dim, self.dim))

    def expectation_matrix(self, F: ConditionalExpectation) -> np.ndarray:
        """Module matrix of an expectation F defined on A, from its coordinate matrix."""
        return (self._from_module @ self._hs_matrix(F) @ self._to_module).T

    def operator_matrix(self, fn) -> np.ndarray:
        """Matrix of a map on A (columns are images in coordinates).

        ``fn`` takes module basis elements as (k, n, n) stacks; it may be
        conjugate-linear, as the adjoint is for the star matrix.
        """
        eye = np.eye(self.dim)
        rows = mx.stack_slices(self.dim, 16 * self.algebra.ambient_dim**2)
        return np.concatenate(
            [self.coords(fn(self.from_coords(eye[r]))) for r in rows]
        ).T


@dataclass
class TowerLevel:
    """One rung of the Jones tower for (B <= A, E), fully coordinatized.

    ``basic_construction`` (A_1, spanned by the products L_{b_i} e_B L_{l_k*},
    row i q + k of its ``spanning_stack``), ``embedded_algebra`` ({L_x})
    and ``dual_expectation`` (E_1) are built on first read and cached: A_1
    after its budget check, then checked to span A_1 when the level was
    built with ``check``, at the level's ``tol``.

    A level is treated as immutable once built: :func:`iterate_tower` keeps
    the next rung in ``_rungs``, keyed by its ``(check, tol)``, so level two
    is built once per level and freed with it.
    """

    algebra: MatrixStarAlgebra
    subalgebra: MatrixStarAlgebra
    expectation: ConditionalExpectation
    module: GenericModule
    jones_projection: np.ndarray
    index_matrix: np.ndarray
    index_inverse: np.ndarray
    index_sqrt: np.ndarray
    dual_quasi_basis: tuple
    _check: bool = field(default=True, repr=False)
    _tol: float = field(default=mx.DEFAULT_TOL, repr=False)
    _rungs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def module_dim(self) -> int:
        return self.module.dim

    def embed(self, x) -> np.ndarray:
        """Left-multiplication matrix L_x of an algebra element."""
        return self.module.left_mult(x)

    @cached_property
    def basic_construction(self) -> MatrixStarAlgebra:
        """A_1, spanned by the d q products L_{b_i} e_B L_{l_k*}."""
        A = self.algebra
        _check_family_budget(A.dim * len(self.expectation.quasi_stack), A.dim, "A_1")
        a1 = MatrixStarAlgebra.from_spanning(self._spanning_products(self.jones_projection))
        if self._check:
            # a seeded sample of the products x e_B y the family replaces
            lmats, e_b = self.embedded_algebra.spanning_stack, self.jones_projection
            i, j = mx.default_rng().integers(A.dim, size=(2, min(20, A.dim**2)))
            if not a1.contains_all(lmats[i] @ e_b @ lmats[j], self._tol):
                raise ConstructionFailure(
                    "the family {x e_B l_k*} does not span the products x e_B y"
                )
            if not a1.contains_all(lmats, self._tol):
                raise ConstructionFailure(
                    "basic construction does not contain the embedded algebra"
                )
        return a1

    @cached_property
    def embedded_algebra(self) -> MatrixStarAlgebra:
        """A inside A_1, spanned by the L_{b_i}."""
        return MatrixStarAlgebra.from_spanning(self.embed(self.algebra.basis_stack))

    @cached_property
    def dual_expectation(self) -> ConditionalExpectation:
        """E_1 : A_1 -> {L_x}, by :meth:`dual_value`."""
        return ConditionalExpectation(
            self.basic_construction, self.embedded_algebra,
            lambda ts: self.embed(self.dual_value(ts)),
            quasi_basis=self.dual_quasi_basis, name="E1",
        )

    def _spanning_products(self, projection: np.ndarray) -> np.ndarray:
        """L_{b_i} p L_{l_k*}, row i * q + k of one read-only stack.

        Read-only, so that an algebra spanned by it holds it uncopied.
        """
        left = self.embed(self.algebra.basis_stack) @ projection
        right = self.embed(mx.adjoint(self.expectation.quasi_stack))
        products = (left[:, None] @ right[None]).reshape((-1,) + projection.shape)
        products.setflags(write=False)
        return products

    @cached_property
    def quasi_coords(self) -> np.ndarray:
        """Module coordinates of the quasi-basis {l_i} of E, one row each."""
        return self.module.coords(self.expectation.quasi_stack)

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """J with coords(x*) = J conj(coords(x)): column j is coords(m_j*)."""
        return self.module.operator_matrix(mx.adjoint)

    @cached_property
    def _quasi_left(self) -> np.ndarray:
        """The (q, d, d) stack L_{l_i} (on the regular module, the quasi-basis itself)."""
        return self.embed(self.expectation.quasi_stack)

    @cached_property
    def _index_inverse_star(self) -> np.ndarray:
        """L_{Ind(E)^-1} J: conj(coords(y*)) to coords(Ind(E)^-1 y)."""
        return self.embed(self.index_inverse) @ self.star_matrix

    def dual_value(self, t) -> np.ndarray:
        """E_1(t) as an ambient matrix, via the decomposition-free identity.

        ``t`` is one module operator or a (k, d, d) stack of them; a stack
        gives the (k, n, n) stack of values.  Computed in module coordinates
        (see the module docstring): v = sum_i L_{l_i} J conj(t q_i) holds the
        coordinates of (sum_i t(l_i) l_i*)*, and E_1(t) is the element with
        coordinates L_{Ind(E)^-1} J conj(v).
        """
        t = np.asarray(t, dtype=np.complex128)
        stack = t[None] if t.ndim == 2 else t
        quasi, lmats = self.quasi_coords, self._quasi_left
        q, d = quasi.shape
        coords = np.empty((len(stack), d), dtype=np.complex128)
        # charged per element: two (q, d) intermediates and the (q, d) terms
        for rows in mx.stack_slices(len(stack), 3 * q * d * 16):
            # row i of acted[k] is conj(t_k q_i), then J of it, as rows
            acted = np.conjugate(quasi @ np.swapaxes(stack[rows], 1, 2))
            acted = (acted.reshape(-1, d) @ self.star_matrix.T).reshape(-1, q, d)
            # sum_i L_{l_i} J conj(t_k q_i), for every k: one product per i
            terms = np.swapaxes(acted, 0, 1) @ np.swapaxes(lmats, 1, 2)
            coords[rows] = np.conjugate(terms.sum(axis=0))
            del acted, terms
        out = self.module.from_coords(coords @ self._index_inverse_star.T)
        return out[0] if t.ndim == 2 else out

    def module_norm(self, t) -> float:
        """||t||_{A_1} = ||E_1(t* t)||^(1/2) for t in the basic construction."""
        return float(np.sqrt(mx.operator_norm(self.dual_value(mx.adjoint(t) @ t))))

    def dual_inner(self, s, t) -> np.ndarray:
        """The A-valued inner product <s, t> = E_1(s* t) on A_1."""
        return self.dual_value(mx.adjoint(s) @ t)


def _check_level(level: TowerLevel, tol: float) -> dict:
    """The residual of each level invariant; raises when one exceeds ``tol``."""
    e = level.jones_projection
    residuals = {}
    residuals["jones_idempotent"] = mx.operator_norm(e @ e - e)
    residuals["jones_selfadjoint"] = mx.operator_norm(e - mx.adjoint(e))

    # e L_a e = L_{E(a)} e over the source basis of E, whose images E(b_k)
    # are the rows of its coordinate matrix.  R = e L_a e - L_{E(a)} e
    # satisfies R = R e, so ||R|| = ||R V|| for an orthonormal basis V
    # (d x rank e) of range(e): e (L_a V) - L_{E(a)} V costs 3 d^2 rank(e)
    # per element instead of 3 d^3.
    E = level.expectation
    basis, t = E.source.basis_stack, E.coordinates(tol)
    values, vectors = np.linalg.eigh((e + mx.adjoint(e)) / 2.0)
    range_e = vectors[:, values > 0.5]
    residuals["exchange_law"] = max(
        mx.max_operator_norm(
            e @ (level.embed(basis[rows]) @ range_e)
            - level.embed(E.target.combine(t[rows])) @ range_e
        )
        for rows in mx.stack_slices(len(basis), e.nbytes)
    )

    basis = level.algebra.basis_stack
    d = len(basis)
    # the HS Gram matrix of the embedded basis, block by block over row
    # chunks of at most 8 stack budgets each, so no d x d^2 array is held
    chunks = mx.stack_slices(d, e.nbytes // 8)
    gram = np.empty((d, d), dtype=np.complex128)
    for a, rows in enumerate(chunks):
        left = np.conjugate(level.embed(basis[rows]).reshape(-1, e.size))
        for cols in chunks[a:]:
            block = left @ level.embed(basis[cols]).reshape(-1, e.size).T
            gram[rows, cols] = block
            gram[cols, rows] = np.conjugate(block.T)
        del left
    smallest = float(np.linalg.eigvalsh(gram)[0])
    residuals["representation_faithful"] = 0.0 if smallest > 1e-12 else 1.0

    # dual rule on a seeded sample of spanning elements, one stacked call
    rng = mx.default_rng()
    d = len(basis)
    i, j = np.array(
        [(rng.integers(d), rng.integers(d)) for _ in range(min(20, d * d))]
    ).T
    misses = level.dual_value(level.embed(basis[i]) @ e @ level.embed(basis[j]))
    misses -= level.index_inverse @ (basis[i] @ basis[j])
    residuals["dual_rule"] = float(np.linalg.norm(misses.reshape(len(i), -1), axis=1).max())

    bad = {k: v for k, v in residuals.items() if v > tol}
    if bad:
        raise ConstructionFailure(f"tower invariants failed: {bad}", residuals)
    return residuals


def build_tower_level(
    A: MatrixStarAlgebra,
    B: MatrixStarAlgebra,
    E: ConditionalExpectation,
    *,
    module=None,
    materialize: bool = True,
    check: bool = True,
    tol: float = mx.DEFAULT_TOL,
) -> TowerLevel:
    """Construct the basic-construction level for (B <= A, E).

    ``materialize`` reads ``basic_construction``, ``embedded_algebra`` and
    ``dual_expectation`` at once instead of on first use.  Raises
    :class:`NoQuasiBasis` when E has none, :class:`NotIntermediate` when B
    is not inside A, and :class:`ConstructionFailure` with a residual
    report when an invariant check fails.
    """
    if E.quasi_basis is None:
        raise NoQuasiBasis("tower needs an expectation with a quasi-basis")
    if not E.source.same_span(A, tol):
        raise NotIntermediate("E.source must be A")
    if not E.target.same_span(B, tol):
        raise NotIntermediate("E must map onto B")
    if not A.contains_all(B.basis_stack, tol):
        raise NotIntermediate("B is not contained in A")

    mod = module if module is not None else GenericModule(A, E)
    e_b = mod.expectation_matrix(E)

    ind = E.index_element(tol)
    level = TowerLevel(
        algebra=A,
        subalgebra=B,
        expectation=E,
        module=mod,
        jones_projection=e_b,
        index_matrix=ind,
        index_inverse=np.linalg.inv(ind),
        index_sqrt=mx.psd_sqrt(ind),
        dual_quasi_basis=(),
        _check=check,
        _tol=tol,
    )
    level.dual_quasi_basis = tuple(
        level._quasi_left @ (e_b @ level.embed(level.index_sqrt))
    )

    if check:
        _check_level(level, tol)

    if materialize:
        level.dual_expectation  # reads A_1 and the embedded algebra too
    return level


def intermediate_data(
    level: TowerLevel,
    C: MatrixStarAlgebra,
    F: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
) -> tuple[np.ndarray, ConditionalExpectation]:
    """Jones projection of a compatible intermediate, plus the restricted E.

    e_C = sum_j L_{mu_j} e_B L_{mu_j}* over any quasi-basis {mu_j} of the
    restriction of E to C.  Postconditions checked: e_C agrees with the
    matrix of the map a -> F(a), is a projection, and absorbs e_B.
    """
    E = level.expectation
    if compatibility_residual(E, F) > tol:
        raise NotCompatible("E does not factor through F (not a compatible pair)")
    restricted = restrict_expectation(E, C, F, tol)

    e_b = level.jones_projection
    lm = level.embed(restricted.quasi_stack)
    e_c = sum(
        np.tensordot(lm[rows] @ e_b, np.conjugate(lm[rows]), axes=([0, 2], [0, 2]))
        for rows in mx.stack_slices(len(lm), 4 * e_b.nbytes)
    )

    residuals = {
        "matches_expectation_matrix": mx.operator_norm(
            e_c - level.module.expectation_matrix(F)
        ),
        "idempotent": mx.operator_norm(e_c @ e_c - e_c),
        "selfadjoint": mx.operator_norm(e_c - mx.adjoint(e_c)),
        "absorbs_jones": max(
            mx.operator_norm(e_c @ e_b - e_b), mx.operator_norm(e_b @ e_c - e_b)
        ),
    }
    bound = tol * (1.0 + mx.operator_norm(e_c))
    bad = {k: v for k, v in residuals.items() if v > bound}
    if bad:
        raise ConstructionFailure(f"intermediate projection failed: {bad}", residuals)
    return e_c, restricted


def dual_expectation_value(
    level: TowerLevel, t, tol: float = mx.DEFAULT_TOL
) -> np.ndarray:
    """E_1(t) for t in the basic construction, the oracle of :meth:`TowerLevel.dual_value`.

    t is decomposed over the spanning family {L_{b_i} e_B L_{l_k*}} of A_1
    by least squares (membership enforced) and the rule
    x e_B y -> Ind(E)^{-1} x y is applied termwise; redundant decompositions
    give the same answer because E_1 is well defined.
    """
    t = mx.as_matrix(t)
    try:
        coeffs = mx.coordinates_in_span(level.basic_construction.spanning_set, t, tol)
    except NotInSpan:
        raise NotInAlgebra("element is not in the basic construction") from None
    basis, lam_star = level.algebra.basis_stack, mx.adjoint(level.expectation.quasi_stack)
    products = (basis[:, None] @ lam_star[None]).reshape((-1,) + basis.shape[1:])
    return level.index_inverse @ np.tensordot(coeffs, products, axes=1)


def iterate_tower(
    level: TowerLevel, *, check: bool = True, tol: float = mx.DEFAULT_TOL
) -> TowerLevel:
    """Next rung: the basic construction of (A <= A_1, E_1).

    Built once per ``(check, tol)`` and kept on ``level``; later calls
    return the same rung, a level like any other, whose A_2 is built only
    if it is read.  The budget is checked on every call, so an over-budget
    level raises :class:`TooLarge` even with a rung kept.
    """
    # the rung builds the module of A_1 (a (d1, n1, n1) stack for its Gram
    # matrix, at most four d1 x d1 matrices at once while G^(+-1/2) are
    # formed), e_2, J, _quasi_left and dual_quasi_basis
    d1, n1, q = level.basic_construction.dim, level.module_dim, len(level.dual_quasi_basis)
    _check_budget(
        16 * (d1 * n1 * n1 + 6 * d1 * d1 + 2 * q * d1 * d1),
        f"the next rung (module dimension {d1}, {q} dual quasi-basis elements)",
    )
    key = (check, tol)
    if key not in level._rungs:
        level._rungs[key] = build_tower_level(
            level.basic_construction,
            level.embedded_algebra,
            level.dual_expectation,
            materialize=False,
            check=check,
            tol=tol,
        )
    return level._rungs[key]


def intermediate_dual_expectation(
    level: TowerLevel,
    C: MatrixStarAlgebra,
    F: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
) -> ConditionalExpectation:
    """The compatible expectation G : A_1 -> C_1, x e_B y -> Ind(E|_C)^{-1} x e_C y.

    C_1 = span{L_x e_C L_y : x, y in A} = span{L_{b_i} e_C L_{l_k*}} sits
    inside A_1; G carries the quasi-basis {L_{l_i} e_B Ind(E|_C)^(1/2)} and
    satisfies E_1 = E_1|_{C_1} o G.  Requires the restricted index to be
    central.
    """
    e_c, restricted = intermediate_data(level, C, F, tol)
    return _dual_expectation_from(level, e_c, restricted, tol)


def _dual_expectation_from(
    level: TowerLevel,
    e_c: np.ndarray,
    restricted: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
) -> ConditionalExpectation:
    """:func:`intermediate_dual_expectation` from the output of :func:`intermediate_data`."""
    q, d = len(level.expectation.quasi_stack), level.module_dim
    _check_family_budget(d * q, d, "the intermediate dual expectation")
    ind_c = restricted.index_element(tol)
    worst = _centrality_residual(level.algebra, ind_c)
    if worst > tol * (1.0 + mx.operator_norm(ind_c)):
        raise NonCentralIndex(f"Ind(E|_C) is not central (residual {worst:.2e})")

    # the images x e_C l_k* of the spanning family x e_B l_k* span C_1
    c1 = MatrixStarAlgebra.from_spanning(level._spanning_products(e_c))
    ind_c_inv = np.linalg.inv(ind_c)
    right = e_c @ mx.adjoint(level._quasi_left)  # e_C L_{l_i*}

    def g_apply(ts: np.ndarray) -> np.ndarray:
        # sum_i L_{Ind^-1 t(l_i)} e_C L_{l_i*}, t(l_i) with coordinates t q_i;
        # charged per element: the q values t(l_i), their L's and the products
        out = np.empty_like(ts)
        for rows in mx.stack_slices(len(ts), 3 * q * d * d * 16):
            acted = np.swapaxes(ts[rows] @ level.quasi_coords.T, 1, 2).reshape(-1, d)
            lefts = level.embed(ind_c_inv @ level.module.from_coords(acted))
            out[rows] = (lefts.reshape(-1, q, d, d) @ right).sum(axis=1)
        return out

    quasi = level._quasi_left @ (
        level.jones_projection @ level.embed(mx.psd_sqrt(ind_c))
    )
    g = ConditionalExpectation(
        level.basic_construction, c1, g_apply, quasi_basis=quasi, name="G"
    )
    if not verify_quasi_basis(g, quasi, max(tol, 1e-8)):
        raise ConstructionFailure("quasi-basis of G failed verification")
    return g
