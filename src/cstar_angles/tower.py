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

where v holds the coordinates of (sum_i t(l_i) l_i*)*.  The level takes
t -> [t q_i] as one product with the q_i, and the module forms
X -> sum_i L_{l_i} J conj(X_i) (:meth:`GenericModule.left_star`) as a map
the level builds once.  J needs no module operator: with S the star of A's
basis in HS coordinates (row l holds those of b_l*) and M the module Gram
matrix of :class:`GenericModule`,

    J = (M^{-1/2} S conj(M^{1/2}))^T.

M commutes with left multiplication, so on every module L_y is the matrix
of left multiplication on A's coordinates.  A's product table is the one
switch for how it is applied: where A has one (a monomial basis from
``GATHER_MIN_DIM`` elements on: group algebras, and matrix units one rung
up), every L_y X is a gather of X's rows
(:meth:`~cstar_angles.algebra.MatrixStarAlgebra.multiplication_gathers`),
w d c work for y of w nonzero coordinates and X of c columns; elsewhere
L_y is formed, d^2 c.  Where A has a table and M is diagonal as well, S^T
and so J are scaled partial permutations, and the module fuses J into the
gathers of L_y: about q w d per element for sum_i L_{l_i} J conj(X_i)
(w = 1 on the group route), where the dense J takes q d^2 more.  The rule
rests on the table and the diagonal M alone, never on the module's class.

The same identity, t = sum_i L_{t(l_i)} e_B L_{l_i*} on
A_1, gives the compatible expectation onto C_1 as
G(t) = L_{Ind(E|_C)^-1} sum_i L_{t(l_i)} e_C L_{l_i*}.  The route that
decomposes t over the spanning family of A_1 by least squares,
:func:`dual_expectation_value`, is kept as the oracle of E_1, and the two
are cross-checked.

A checked level also confirms that {L_x} represents A faithfully without
forming the L_{b_i}.  With {b_k} A's HS-orthonormal basis, {m_k} the
module basis and rho the density of Tr o E,

    Tr(L_{b_i}* L_{b_j}) = sum_k <b_i m_k, b_j m_k>_E = Tr(b_i* b_j c),
    c = sum_k m_k rho m_k* = sum_k b_k b_k*,

since m_k = b_k rho^{-1/2}; so the HS Gram matrix of the embedded basis is
R_c^T, one right multiplication matrix in A's coordinates, d^3 work where
the d x d^2 product of the embedded basis is d^4.  The identity needs L to
be left multiplication, which the check confirms on every basis element
by one matrix-vector product each.

e_B has rank r = dim B, usually far below d, so every product the level
builds with e_B as a factor goes through its range.  The level keeps V
(:attr:`TowerLevel.jones_range`), the d x r matrix whose column a holds the
module coordinates of B's basis element beta_a.  E is the identity on B,
so <beta_a, beta_b> = Tr(E(beta_a* beta_b)) = Tr(beta_a* beta_b) = delta_ab
and V is an isometry onto B's coordinates, the range of e_B: e_B = V V* and
x e_B y = (x V)(V* y), with no eigensolve of e_B.  A checked level
compares V V* with e_B itself.  In particular the Jones projection
of an intermediate C is

    e_C = sum_j L_{mu_j} e_B L_{mu_j}* = W W*,   W = [L_{mu_1} V ... L_{mu_p} V],

2 p d^2 r work where the sum of products is 2 p d^3.  W, and the L_{b_k} V
of the exchange law and of the dual-rule sample, are the module's products
L_y X (:meth:`GenericModule.left_times`), gathers of V's rows wherever A
has a product table.  e_C is carried as W from there on
(:func:`_intermediate_factors`): its postconditions are taken on W, at
(p r)^2 and d r size where they stand for d x d quantities, and the
definition route reads e_C - e_B only through its images W (W* x) -
V (V* x) (:func:`~cstar_angles.angles.interior_angle_definition`), so
neither forms a d x d x d product.  The checks of a level keep their
dense operands wherever a wrong module could hide: e_B's own laws
(idempotent, self-adjoint, and the e_B of the exchange law) and the
faithfulness of the representation are taken on the matrices
themselves, never on V or on a product the module forms, and V itself is
checked against the dense e_B (e_B = V V*), which licenses every product
through V, the postconditions of e_C among them; e_C is checked against
F's module matrix, the map a -> F(a) read off F alone.  Left
multiplication is checked on both routes a level takes it by: the
module's products for every basis element, and :meth:`TowerLevel.embed`
for one random element.  Each check compares a sound bound of its
quantity first, a Frobenius norm or Gershgorin's bound, and takes the SVD
or eigensolve only where the bound does not settle it
(:func:`_check_level`, :func:`_check_projections`).

An inclusion is named by its expectation: :func:`build_tower_level`
takes E alone, with A = E.source and B = E.target, and an intermediate C
is named by its compatible expectation F, with C = F.target.  Iterating:
the dual expectation E_1 : A_1 -> {L_x} of a :class:`TowerLevel` names
the inclusion one rung up, so the same constructor produces level two,
giving e_2 and E_2 for exterior angles; its A_2 too is built only if it is
read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import matrices as mx
from .algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    _centrality_residual,
    _compatibility_core,
    _coordinates_on,
    _exceeds_scaled_tol,
    _gather_times,
    _intermediate,
    _restrict_core,
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
    ShapeMismatch,
    TooLarge,
)

__all__ = [
    "GenericModule",
    "TowerLevel",
    "build_tower_level",
    "dual_expectation_value",
    "iterate_tower",
    "intermediate_data",
    "intermediate_projections",
    "intermediate_dual_expectation",
]

# largest estimated size (16 bytes per entry) of a spanning family, of a
# next rung, or of the checks of a level, that a tower level may build
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


def _scaled(x: np.ndarray, factor: np.ndarray, *, left: bool = False) -> np.ndarray:
    """x factor, or factor x with ``left``, for a module factor G^(+-1/2) of :class:`GenericModule`.

    A factor is a matrix, or the vector of its diagonal where the module
    Gram matrix is diagonal: then the product is a broadcast, the same
    values as the product with the diagonal matrix.
    """
    if factor.ndim == 2:
        return factor @ x if left else x @ factor
    return factor[:, None] * x if left else x * factor


class GenericModule:
    """The module of (A, E): A's coordinates scaled by the square root of its Gram matrix.

    A is E's source.  Let {b_j} be A's HS-orthonormal basis, with coordinates
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
    :meth:`MatrixStarAlgebra.multiplication_matrices`.  Where G is exactly
    diagonal (every off-diagonal entry zero, the test of
    :func:`~cstar_angles.matrices.hermitian_eigh`), as G = c 1 is where
    Tr o E = c Tr (group algebras, crossed products), no eigensolve is
    taken, and G^(+-1/2) are kept as the vectors of their diagonals: then
    :meth:`coords`, :meth:`from_coords`, module matrices, J and the
    coordinates a level reads through them (E's quasi-basis, e_B's range V)
    are broadcasts where they would be d x d products, the same values
    (:func:`_scaled`).

    Two more module quantities follow in A's coordinates.  The star matrix
    J (coords(x*) = J conj(coords(x))) is (G^{-1/2} S conj(G^{1/2}))^T, with
    S = :meth:`MatrixStarAlgebra.star_coordinates`.  And since the m_k are
    orthonormal for <x, y> = Tr(x* y rho),
    Tr(L_{b_i}* L_{b_j}) = sum_k Tr(m_k* b_i* b_j m_k rho) = Tr(b_i* b_j c)
    with c = sum_k m_k rho m_k* = sum_k b_k b_k*, so the HS Gram matrix of
    the L_{b_i} is R_c^T.

    The products a tower level takes with an L_y and with L_y J are the
    module's (:meth:`left_times`, :meth:`left_star`): maps built once per
    operand.  Since G commutes with left multiplication, L_y X is a gather of
    X's rows wherever A has a product table, for every E, and L_y J is one
    too where G is also diagonal, as on every group algebra and on the
    matrix units of the M2+M3 level two; otherwise J is the dense
    :attr:`star_matrix`, which stays the oracle of the gathered J.
    """

    def __init__(self, expectation: ConditionalExpectation):
        self.algebra = algebra = expectation.source
        self.dim = algebra.dim
        traces = algebra.traces()
        tau = self._hs_matrix(expectation) @ traces  # Tr(E(b_j))
        rho = mx.adjoint(algebra.combine(np.conjugate(tau)))
        gram = algebra.multiplication_matrices(rho[None], left=False)[0].T
        diagonal = mx.is_diagonal(gram)  # where Tr o E = c Tr
        values, vectors = (gram.diagonal().real, None) if diagonal else mx.hermitian_eigh(gram)
        del gram
        # no Gram-Schmidt pivot is below sqrt(min(values)), so this fires
        # whenever the pivot rule cutoff (1 + ||b_j||_E) would
        low, high = np.sqrt(np.maximum([values.min(), values.max()], 0.0))
        if not low > mx.RANK_CUTOFF * (1.0 + high):
            raise ConstructionFailure(
                "module inner product is degenerate (expectation not faithful?)"
            )
        if diagonal:
            # G^(+-1/2) as the vectors of their diagonals (_scaled)
            self._to_module = np.sqrt(values)
            self._from_module = self._to_module / values
            return
        # conj(V diag(s) V*) = conj(V) diag(s) V^T for s = values^(+-1/2)
        scaled = np.conjugate(vectors) * np.sqrt(values)
        self._to_module = scaled @ vectors.T
        scaled /= values
        self._from_module = scaled @ vectors.T

    def _hs_matrix(self, F: ConditionalExpectation) -> np.ndarray:
        """F on A's HS coordinates: row j holds the HS coordinates of F(b_j).

        F's source must span A; raises :class:`NotIntermediate` otherwise
        (:func:`~cstar_angles.algebra._coordinates_on`).
        """
        A = self.algebra
        return _coordinates_on(A, F)() @ F.target.basis_over(A)

    def coords(self, y) -> np.ndarray:
        """Coordinates of one element, or rows of coordinates of a (k, n, n) stack."""
        return _scaled(self.algebra.hs_coordinates(y), self._to_module)

    def from_coords(self, v) -> np.ndarray:
        """Inverse of :meth:`coords`; rows of coordinates give a stack."""
        return self.algebra.combine(_scaled(np.asarray(v), self._from_module))

    def left_mult(self, x) -> np.ndarray:
        """L_x, or the stack of them: column j holds the HS coordinates of x b_j."""
        x = np.asarray(x, dtype=np.complex128)
        stack = x.reshape((-1,) + x.shape[-2:])
        on_hs = self.algebra.multiplication_matrices(stack, left=True)
        return np.swapaxes(on_hs, 1, 2).reshape(x.shape[:-2] + (self.dim, self.dim))

    def expectation_matrix(self, F: ConditionalExpectation) -> np.ndarray:
        """Module matrix of an expectation F on A, from its coordinate matrix.

        F's source must span A; raises :class:`NotIntermediate` otherwise.
        """
        return self._module_matrix(self._hs_matrix(F))

    def _module_matrix(self, hs: np.ndarray) -> np.ndarray:
        """Module matrix of a map on A's HS coordinates, given as :meth:`_hs_matrix` gives it."""
        return _scaled(_scaled(hs, self._from_module, left=True), self._to_module).T

    def operator_matrix(self, fn) -> np.ndarray:
        """Matrix of a map on A (columns are images in coordinates).

        ``fn`` takes module basis elements as (k, n, n) stacks; it may be
        conjugate-linear, as the adjoint is: ``operator_matrix(mx.adjoint)``
        is J, which :attr:`star_matrix` builds in A's coordinates.
        """
        eye = np.eye(self.dim)
        rows = mx.stack_slices(self.dim, 16 * self.algebra.ambient_dim**2)
        return np.concatenate(
            [self.coords(fn(self.from_coords(eye[r]))) for r in rows]
        ).T

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """J with coords(x*) = J conj(coords(x)): column j is coords(m_j*).

        Built in A's coordinates: m_j has HS coordinates row j of
        ``_from_module``, so m_j* has conj(that row) S, with S the star of A's
        basis (:meth:`MatrixStarAlgebra.star_coordinates`), and
        J = (conj(_from_module) S _to_module)^T.
        """
        star = self.algebra.star_coordinates()
        conj_from = np.conjugate(self._from_module)
        return _scaled(_scaled(star, conj_from, left=True), self._to_module).T

    def left_times(self, coords: np.ndarray):
        """The map X -> [L_{y_1} X ... L_{y_m} X] for the y_a with A-coordinates ``coords`` (rows).

        X is one (d, c) matrix or an (m, d, c) stack, one matrix per y_a,
        and the map gives the (m, d, c) stack.  With a product table the
        map gathers X's rows
        (:meth:`~cstar_angles.algebra.MatrixStarAlgebra.multiplication_gathers`);
        otherwise the L_{y_a} are formed here, once.
        """
        gathers = self.algebra.multiplication_gathers(coords, left=True)
        if gathers is not None:
            return partial(_gather_times, *gathers)
        lmats = self.left_mult(self.algebra.combine(coords))
        return lambda x: lmats @ x

    def left_star(self, coords: np.ndarray):
        """The map X -> sum_a L_{y_a} J conj(X[:, :, a]) for the y_a with A-coordinates ``coords``.

        X is a (k, d, m) stack whose column a goes with y_a, and the map
        gives the (k, d) rows of the sums.  Where A has a product table and
        G is diagonal, J is a row gather too: S^T's
        (:attr:`~cstar_angles.algebra.MatrixStarAlgebra._star_rows`) with
        row k scaled by G^(1/2)[k] conj(G^(-1/2)[s]), s the row it reads
        (exactly 1 where G = 1, as on a group algebra), and it is fused
        into the gathers of L_{y_a}: w d work per element for y_a of w
        nonzero coordinates.  Otherwise J is the dense :attr:`star_matrix`,
        m d^2 work per element, and as much again for the L_{y_a} unless
        :meth:`left_times` gathers.
        """
        diagonal = self._to_module.ndim == 1
        gathers = self.algebra.multiplication_gathers(coords, left=True) if diagonal else None
        if gathers is None:
            left, star = self.left_times(coords), self.star_matrix
            return lambda x: left(star @ np.conjugate(x).T).sum(axis=0).T
        # row r of L_{y_a} J is sum_u weights[a, u, r] scale[s] e_s, s = star[rows[a, u, r]],
        # read off the (d, m) image of an element taken flat at s m + a
        star, scale = self.algebra._star_rows
        scale = scale * (np.conjugate(self._from_module[star]) * self._to_module)
        rows, weights = gathers
        m, d = len(rows), self.dim
        flat = star[rows] * m + np.arange(m)[:, None, None]
        conj_weights = np.conjugate(weights * scale[rows])
        return lambda x: np.conjugate(np.einsum(
            "awr,kawr->kr", conj_weights, np.take(x.reshape(len(x), d * m), flat, axis=1)
        ))


@dataclass
class TowerLevel:
    """One rung of the Jones tower for (B <= A, E), fully coordinatized.

    ``basic_construction`` (A_1, spanned by the rows i q + k = L_{b_i} e_B
    L_{l_k*} of ``spanning_products``), ``embedded_algebra`` ({L_x}),
    ``dual_quasi_basis`` and ``dual_expectation`` (E_1) are built on first
    read and cached: A_1 after its budget check, then checked to span A_1
    when the level was built with ``check``, at ``DEFAULT_TOL``; so is
    ``index_sqrt``.  ``jones_range`` is the d x r isometry V with
    e_B = V V*: B's basis in module coordinates, one column per element,
    which a checked level compares with e_B.  Every product the level forms
    with e_B inside, x e_B y, is taken as (x V)(V* y)
    (:meth:`_through_jones`); the level's own checks read e_B itself.  An
    intermediate's e_C is held as its range factor W (e_C = W W*), and
    E_1 of a product of differences D = e_C - e_B is read from the images
    D x of the quasi-basis coordinates alone (:meth:`_dual_coords`), so
    the definition route forms no d x d operator.

    A level is treated as immutable once built: :func:`iterate_tower` keeps
    the next rung in ``_rung``, so level two is built once per level and
    freed with it.  A and B are read off the expectation
    (:attr:`algebra`, :attr:`subalgebra`), and ``module`` is built on A.
    """

    expectation: ConditionalExpectation
    module: GenericModule
    jones_projection: np.ndarray
    jones_range: np.ndarray
    index_matrix: np.ndarray
    index_inverse: np.ndarray
    _check: bool = field(default=True, repr=False)
    _rung: TowerLevel | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def algebra(self) -> MatrixStarAlgebra:
        """A, the source of E."""
        return self.expectation.source

    @property
    def subalgebra(self) -> MatrixStarAlgebra:
        """B, the target of E."""
        return self.expectation.target

    @property
    def module_dim(self) -> int:
        return self.module.dim

    def embed(self, x) -> np.ndarray:
        """Left-multiplication matrix L_x of an algebra element."""
        return self.module.left_mult(x)

    @cached_property
    def index_sqrt(self) -> np.ndarray:
        """Ind(E)^(1/2), read by ``dual_quasi_basis`` and the exterior angle alone."""
        return mx.psd_sqrt(self.index_matrix)

    def _through_jones(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """left e_B right as (left V)(V* right), for a matrix or a stack ``left``."""
        v = self.jones_range
        return (left @ v) @ (mx.adjoint(v) @ right)

    @cached_property
    def dual_quasi_basis(self) -> tuple:
        """The quasi-basis {L_{l_i} e_B L_{Ind(E)^(1/2)}} of E_1, one d x d matrix each."""
        return tuple(self._through_jones(self._quasi_left, self.embed(self.index_sqrt)))

    @cached_property
    def basic_construction(self) -> MatrixStarAlgebra:
        """A_1, spanned by the d q products L_{b_i} e_B L_{l_k*}."""
        A = self.algebra
        _check_family_budget(A.dim * len(self.expectation.quasi_stack), A.dim, "A_1")
        a1 = MatrixStarAlgebra.from_spanning(self.spanning_products(self.jones_projection))
        if self._check:
            # a seeded sample of the products x e_B y the family replaces
            lmats, e_b = self.embed(A.basis_stack), self.jones_projection
            i, j = mx.default_rng().integers(A.dim, size=(2, min(20, A.dim**2)))
            if not a1.contains_all(lmats[i] @ e_b @ lmats[j]):
                raise ConstructionFailure(
                    "the family {x e_B l_k*} does not span the products x e_B y"
                )
            if not a1.contains_all(lmats):
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
        """E_1 : A_1 -> {L_x} by :meth:`dual_value`; E_1(t) is E_1 of t's projection onto A_1."""
        return ConditionalExpectation(
            self.basic_construction, self.embedded_algebra,
            lambda ts: self.embed(self.dual_value(ts)),
            quasi_basis=self.dual_quasi_basis, name="E1",
        )

    def spanning_products(self, projection: np.ndarray) -> np.ndarray:
        """L_{b_i} p L_{l_k*}, row i * q + k of one stack.

        With p = e_B this is the spanning family of A_1, with p = e_C that of
        C_1; neither algebra keeps it, so its readers rebuild it here.
        """
        left = self.embed(self.algebra.basis_stack) @ projection
        right = self.embed(mx.adjoint(self.expectation.quasi_stack))
        return (left[:, None] @ right[None]).reshape((-1,) + projection.shape)

    @cached_property
    def quasi_coords(self) -> np.ndarray:
        """Module coordinates of the quasi-basis {l_i} of E, one row each, from E's Y."""
        return _scaled(self.expectation._quasi_coords, self.module._to_module)

    @cached_property
    def _quasi_left(self) -> np.ndarray:
        """The (q, d, d) stack L_{l_i} (on the regular module, the quasi-basis itself)."""
        return self.embed(self.expectation.quasi_stack)

    def _quasi_images(self, ts: np.ndarray) -> np.ndarray:
        """[t q_1 ... t q_q] for each t of a (k, d, d) stack, q_i = coords(l_i)."""
        return ts @ self.quasi_coords.T

    # the module maps of E_1 and of its check, one per operand, built on first use

    @cached_property
    def _quasi_star(self):
        """X -> sum_i L_{l_i} J conj(X[:, :, i])."""
        return self.module.left_star(self.expectation._quasi_coords)

    @cached_property
    def _index_star(self):
        """x -> L_{Ind(E)^-1} J conj(x): conj(coords(y*)) to coords(Ind(E)^-1 y)."""
        return self.module.left_star(self.algebra.hs_coordinates(self.index_inverse)[None])

    @cached_property
    def _index_left(self):
        """X -> L_{Ind(E)^-1} X."""
        return self.module.left_times(self.algebra.hs_coordinates(self.index_inverse)[None])

    def dual_value(self, t) -> np.ndarray:
        """E_1(t) as an ambient matrix, via the decomposition-free identity.

        ``t`` is one module operator or a (k, d, d) stack of them; a stack
        gives the (k, n, n) stack of values (see :meth:`_dual_coords`).
        """
        t = np.asarray(t, dtype=np.complex128)
        ts = t[None] if t.ndim == 2 else t
        out = self.module.from_coords(self._dual_coords(self._quasi_images(ts)))
        return out[0] if t.ndim == 2 else out

    def _dual_coords(self, images: np.ndarray) -> np.ndarray:
        """Module coordinates of E_1(t_k), from the (k, d, q) stack whose column i is t_k q_i.

        Computed as in the module docstring: v = sum_i L_{l_i} J conj(t q_i)
        holds the coordinates of (sum_i t(l_i) l_i*)*, and E_1(t) is the
        element with coordinates L_{Ind(E)^-1} J conj(v).
        """
        return self._index_star(self._quasi_star(images)[:, :, None])

    def module_norm(self, t) -> float:
        """||t||_{A_1} = ||E_1(t* t)||^(1/2) for t in the basic construction."""
        return float(np.sqrt(mx.operator_norm(self.dual_value(mx.adjoint(t) @ t))))

    def dual_inner(self, s, t) -> np.ndarray:
        """The A-valued inner product <s, t> = E_1(s* t) on A_1."""
        return self.dual_value(mx.adjoint(s) @ t)


def _faithfulness_gram(A: MatrixStarAlgebra) -> np.ndarray:
    """The HS Gram matrix Tr(L_{b_i}* L_{b_j}) of the embedded basis, as R_c^T.

    c = :meth:`MatrixStarAlgebra.square_sum`, sum_k b_k b_k*, is the same for
    every HS-orthonormal basis (module docstring).
    """
    return A.multiplication_matrices(A.square_sum()[None], left=False)[0].T


def _left_times_bytes(A: MatrixStarAlgebra, coords: np.ndarray) -> int:
    """Bytes :meth:`GenericModule.left_times` holds per element beyond its output, for these A-coordinates (rows).

    Where A has a product table, its row gathers: indices, weights and
    scales, 40 d bytes per nonzero coordinate of the fullest row; otherwise
    the element and its dense L_y, which the module forms.
    """
    if A._gathers is not None:
        return 40 * A.dim * max(1, int(np.count_nonzero(coords, axis=1).max(initial=0)))
    return 16 * (A.dim**2 + A.ambient_dim**2)


def _left_products(module: GenericModule, coords: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (m, d, c) stack [L_{y_1} x ... L_{y_m} x] for the y_a with A-coordinates ``coords`` (rows).

    The module's products (:meth:`GenericModule.left_times`), taken a chunk
    of elements under ``STACK_BUDGET_BYTES`` at a time, each element charged
    :func:`_left_times_bytes` and three arrays of its image's size (the
    image, and the two a gather of a second nonzero coordinate forms): the
    same values as one call, without all the elements' gathers or L_y at
    once.
    """
    out = np.empty((len(coords),) + x.shape, dtype=np.complex128)
    per = _left_times_bytes(module.algebra, coords) + 3 * 16 * x.size
    for rows in mx.stack_slices(len(coords), per):
        out[rows] = module.left_times(coords[rows])(x)
    return out


def _left_multiplication_residual(level: TowerLevel) -> float:
    """max ||L_x coords(z) - coords(x z)|| / ||coords(z)|| over A's basis and one more x, for a seeded random z in A.

    coords(b_k z) are the rows of the right multiplication matrix R_z in
    module coordinates, and coords(y z) = c R_z for y = sum_k c_k b_k.  A
    random z is not central unless A is commutative, so a right
    multiplication in place of L fails here, where z = 1 would not tell the
    two apart.  The L_{b_k} coords(z) are the module's products
    (:meth:`GenericModule.left_times`): on an algebra with a product table
    they are row gathers, d work per element, and otherwise each L_{b_k} is
    formed, d^2.  One more x, a seeded random y of unit HS coordinates,
    takes L_y from :meth:`TowerLevel.embed`, the matrix the level's other
    products read, so that a wrong ``left_mult`` fails on any algebra.
    """
    A, mod = level.algebra, level.module
    rng = mx.default_rng()
    z = A.combine(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    v = mod.coords(z)
    want = _scaled(A.multiplication_matrices(z[None], left=False)[0], mod._to_module)
    c = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    c /= np.linalg.norm(c)
    worst = float(np.linalg.norm(level.embed(A.combine(c)) @ v - c @ want))
    got = _left_products(mod, np.eye(A.dim), v[:, None])[:, :, 0]
    worst = max(worst, float(mx.row_norms(got - want).max()))
    return worst / float(np.linalg.norm(v))


def _check_level(level: TowerLevel) -> dict:
    """The residual of each level invariant; raises when one exceeds ``DEFAULT_TOL``.

    This is the fast route, run on every checked level; it works in A's
    coordinates and forms no d x d^2 array.  Its oracles are verify's
    per-element ``exchange_law`` and ``module_representation_faithful`` on
    the 2x2 model (``verify._suite_tower``) and the dense forms kept in the
    tests.  ``representation_faithful`` reads the HS Gram matrix of the
    L_{b_i} from the identity Tr(L_{b_i}* L_{b_j}) = Tr(b_i* b_j c) (module
    docstring), which holds when L is left multiplication;
    ``left_multiplication`` checks that on every basis element.
    ``jones_range`` is ||e_B - V V*|| for V = :attr:`TowerLevel.jones_range`,
    read off B's basis rather than e_B: it licenses every product the
    level takes through V, the exchange law's among them.

    Each check compares a sound bound first and takes the exact value only
    where the bound does not settle it, so no verdict differs from the
    exact one: the operator-norm residuals are Frobenius norms where those
    are below ``DEFAULT_TOL`` (:func:`~cstar_angles.matrices.screened_norms`),
    and the Gram matrix's smallest eigenvalue is Gershgorin's lower bound
    where that exceeds 1e-12
    (:func:`~cstar_angles.matrices.smallest_eigenvalue`).  A reported
    residual is the quantity compared, so a failing one is exact.
    """
    e, v, tol = level.jones_projection, level.jones_range, mx.DEFAULT_TOL
    laws = np.stack([e @ e - e, e - mx.adjoint(e), e - v @ mx.adjoint(v)])
    names = ("jones_idempotent", "jones_selfadjoint", "jones_range")
    residuals = dict(zip(names, mx.screened_norms(laws, tol).tolist()))
    del laws

    # e L_a e = L_{E(a)} e over the source basis of E, whose images E(b_k)
    # are the rows of its coordinate matrix.  R = e L_a e - L_{E(a)} e
    # satisfies R = R e, so ||R|| = ||R U|| for any U with e = U U*: V where
    # the jones_range residual licenses it, and on a level where it fails
    # the eigenvectors of e's Hermitian part above 1/2, so that the residual
    # reported is still ||R||.  e (L_a U) - L_{E(a)} U costs 3 d^2 rank(e)
    # per element instead of 3 d^3, and e multiplies a whole chunk
    # [L_a U ...] in one GEMM.  L is linear, so L_{E(b_k)} U is
    # sum_m T[k, m] L_{beta_m} U over E's target basis {beta_m}: one module
    # product per level, then one contraction per chunk.  The basis
    # elements b_k have A-coordinates e_k.
    E, A, mod = level.expectation, level.algebra, level.module
    t, unit = E.coordinates(), np.eye(A.dim)
    range_e = v
    if residuals["jones_range"] > tol:
        values, vectors = mx.hermitian_eigh((e + mx.adjoint(e)) / 2.0)
        range_e = vectors[:, values > 0.5]
    d, r = range_e.shape
    target_on_range = _left_products(mod, E.target.basis_over(A), range_e)

    def exchange_residual(rows):
        # (L_a U) for the chunk, side by side as one d x k r matrix
        wide = np.swapaxes(mod.left_times(unit[rows])(range_e), 0, 1).reshape(d, -1)
        acted = np.swapaxes((e @ wide).reshape(d, -1, r), 0, 1)
        diff = acted - np.tensordot(t[rows], target_on_range, axes=1)
        return float(mx.screened_norms(diff, tol).max(initial=0.0))

    # charged per element: its module product and the four d x r matrices
    # L_a U, e L_a U, L_{E(a)} U and their difference
    residuals["exchange_law"] = max(
        exchange_residual(rows)
        for rows in mx.stack_slices(A.dim, _left_times_bytes(A, unit) + 4 * 16 * d * r)
    )
    del target_on_range

    residuals["left_multiplication"] = _left_multiplication_residual(level)
    smallest = mx.smallest_eigenvalue(_faithfulness_gram(A), 1e-12)
    residuals["representation_faithful"] = 0.0 if smallest > 1e-12 else 1.0

    # dual rule on a seeded sample of spanning elements t = L_{b_i} e L_{b_j},
    # one stacked call on their images t q_k = (L_{b_i} V)(V* (L_{b_j} q_k))
    # (no t is formed), compared in HS coordinates: those of b_i b_j are
    # column j of L_{b_i}
    i, j = mx.default_rng().integers(d, size=(min(20, d * d), 2)).T
    left_i = mod.left_times(unit[i])
    on_quasi = mod.left_times(unit[j])(level.quasi_coords.T)  # L_{b_j} q_k
    images = left_i(range_e) @ (mx.adjoint(range_e) @ on_quasi)
    column = left_i(unit[j][:, :, None])[:, :, 0]
    del left_i, on_quasi  # before E_1's maps are first built
    got = _scaled(level._dual_coords(images), mod._from_module)
    want = level._index_left(column.T)[0].T
    del images
    residuals["dual_rule"] = float(mx.row_norms(got - want).max())

    bad = {k: v for k, v in residuals.items() if v > tol}
    if bad:
        raise ConstructionFailure(f"tower invariants failed: {bad}", residuals)
    return residuals


def build_tower_level(
    E: ConditionalExpectation,
    *,
    module=None,
    check: bool = True,
) -> TowerLevel:
    """Construct the basic-construction level for (B <= A, E), with A = E.source and B = E.target.

    ``module``, when given, must be built on A itself (``module.algebra is
    A``).  A_1, the embedded algebra and E_1 are built when first read
    (:class:`TowerLevel`), so a level whose A_1 is over budget still
    builds, and raises :class:`TooLarge` only when A_1 is read.  Raises
    :class:`NoQuasiBasis` when E has none, :class:`NotIntermediate` when B
    is not inside A, and :class:`ConstructionFailure` with a residual
    report when an invariant check fails.  Every read and check runs at
    ``DEFAULT_TOL``.  With ``check``, :class:`TooLarge` is raised before
    the module is built when the checks' estimated size exceeds
    ``MATERIALIZE_BUDGET_BYTES``.
    """
    A, B = E.source, E.target
    if E._quasi is None:
        raise NoQuasiBasis("tower needs an expectation with a quasi-basis")
    b_on_a = B.basis_over(A, checked=True)  # the containment test and e_B's coordinates
    if b_on_a is None:
        raise NotIntermediate("B is not contained in A")
    if module is not None and module.algebra is not A:
        raise ShapeMismatch("the module must be built on the source of E")
    if check:
        # _check_level holds the L_beta V over B's basis {beta} whole, dim B x d
        # x rank(e_B) entries with rank(e_B) = dim B, beside the level's d x d
        # matrices: the module's two, its Gram matrix and eigenvectors while
        # it is built, e_B and the three residuals of e_B's own laws
        d, b = A.dim, B.dim
        _check_budget(
            16 * (b * d * b + 6 * d * d),
            f"the checks of a level of dimension {d} over {b}, {b} x {d} x {b} "
            f"entries and six {d}x{d} matrices,",
        )

    # E is read once: e_B and a module built here both take that read
    t = E.coordinates()
    if module is None:
        module = GenericModule(ConditionalExpectation.from_coordinates(A, B, t, name=E.name))
    e_b = module._module_matrix(t @ b_on_a)

    ind = E.index_element()
    level = TowerLevel(
        expectation=E,
        module=module,
        jones_projection=e_b,
        # column a: the module coordinates of B's basis element beta_a
        jones_range=_scaled(b_on_a, module._to_module).T,
        index_matrix=ind,
        index_inverse=mx.hermitian_inverse(ind),
        _check=check,
    )

    if check:
        _check_level(level)
    return level


def intermediate_data(
    level: TowerLevel,
    F: ConditionalExpectation,
) -> tuple[np.ndarray, ConditionalExpectation]:
    """Jones projection of the compatible intermediate C = target(F), plus the restricted E.

    e_C = sum_j L_{mu_j} e_B L_{mu_j}* over any quasi-basis {mu_j} of the
    restriction of E to C, formed as W W* with W = [L_{mu_1} V ... L_{mu_p} V]
    the p blocks side by side and V = ``level.jones_range`` (e_B = V V*):
    2 p d^2 r work for e_B of rank r.  Postconditions checked on W
    (:func:`_projection_norms`): e_C agrees with F's module matrix, the
    matrix of the map a -> F(a), is a projection, and absorbs e_B.

    This is :func:`~cstar_angles.algebra.compatibility_residual` (above
    ``DEFAULT_TOL``: :class:`NotCompatible`), then
    :func:`~cstar_angles.algebra.restrict_expectation`, with each of their
    checks run once, at ``DEFAULT_TOL``, and F read once, into
    the record of :func:`~cstar_angles.algebra._intermediate`: its F on
    A's HS coordinates feeds the compatibility residual and F's module
    matrix, C's basis over A the restricted coordinate matrix, and B's
    basis over C the quasi-basis check.  It is the one-member case of
    :func:`intermediate_projections`, through the same steps
    (:func:`_intermediate_factors`).  The definition route reads W itself,
    never the d x d e_C returned here.
    """
    ((w, restricted),) = _intermediate_factors(level, [F])
    return w @ mx.adjoint(w), restricted


def intermediate_projections(level: TowerLevel, members) -> np.ndarray:
    """The e_C of :func:`intermediate_data` for every expectation F of an iterable.

    Returns them as one (k, d, d) stack in the order of ``members``, each
    W W* of its factor from :func:`_intermediate_factors`.
    """
    ws = [w for w, _ in _intermediate_factors(level, members)]
    d = level.module_dim
    out = np.empty((len(ws), d, d), dtype=np.complex128)
    for k, w in enumerate(ws):
        np.matmul(w, mx.adjoint(w), out=out[k])
    return out


def _intermediate_factors(level: TowerLevel, members) -> list:
    """(W, restricted E) for every expectation F of an iterable, with e_C = W W* checked.

    ``members`` is read once, a chunk at a time
    (:func:`_compatible_members`).  Each member's containment tests,
    restriction, quasi-basis check and W run on it alone
    (:func:`_member_projection`), reading E's quasi-basis in A's
    coordinates as E holds it, and each member's record is freed once its
    W is formed.  The compatibility residuals of a chunk come from one
    stacked SVD call, and then its postconditions are checked
    (:func:`_check_projections`).  Every check runs over the whole chunk
    before the next, in the order of :func:`intermediate_data`, so a family
    whose other members pass raises for a failing member what
    :func:`intermediate_data` raises for it alone.  W is d x p r, p the
    size of the restriction's quasi-basis and r = dim B.
    """
    members, out = iter(members), []
    while chunk := _compatible_members(level, members):
        chunk.reverse()  # taken from the end, so that each record is freed once used
        factors = [_member_projection(level, chunk.pop()) for _ in range(len(chunk))]
        ws, e_fs, restricted = zip(*factors)
        del factors
        _check_projections(ws, level.jones_range, e_fs)
        del e_fs  # freed before the next chunk is read
        out += zip(ws, restricted)
    return out


def _compatible_members(level: TowerLevel, expectations) -> list:
    """The containment tests and compatibility residuals of the next chunk of expectations.

    Reads expectations F from the iterator ``expectations`` until their
    targets' bases and the matrices :func:`_member_projection` keeps fill
    ``STACK_BUDGET_BYTES``, or it runs out (an empty list then).  Returns one
    :func:`~cstar_angles.algebra._intermediate` record per F, its checks
    run at ``DEFAULT_TOL``: F's coordinate matrix over A, C's
    basis over A, B's basis over C and F on A's HS coordinates.  No later
    step reads F's quasi-basis, which is freed with the caller's F.  The
    residuals of the chunk come from one
    :func:`~cstar_angles.algebra._compatibility_core` call; one above
    ``DEFAULT_TOL`` raises :class:`NotCompatible`.
    """
    E = level.expectation
    members, held, n = [], 0, level.algebra.ambient_dim
    for F in expectations:
        members.append(_intermediate(E, F))
        # charged per member: its target basis as dense rows (a slice holds
        # none, but a read builds them), and three d x d matrices: its hs,
        # e_F and W (d x dim C at most, on a group level)
        held += 16 * F.target.dim * n * n + 3 * level.jones_projection.nbytes
        if held >= mx.STACK_BUDGET_BYTES:
            break
    if np.any(_compatibility_core(E, members) > mx.DEFAULT_TOL):
        raise NotCompatible("E does not factor through F (not a compatible pair)")
    return members


def _member_projection(
    level: TowerLevel, member
) -> tuple[np.ndarray, np.ndarray, ConditionalExpectation]:
    """W with e_C = W W*, F's module matrix and the restricted E, for one record of :func:`_compatible_members`.

    F's module matrix is that of the record's ``hs``.  The checks of the
    restriction are those :func:`_compatible_members` has run.
    """
    restricted = _restrict_core(level.expectation, member)
    # W[a, (j, k)] = (L_{mu_j} V)[a, k]: d x p r, no larger than one L_{mu_j}
    # per quasi-basis element; the mu_j are read over A as their
    # coordinates over C times C's basis over A
    mu_on_a = restricted._quasi_coords @ member.c_on_a
    w = np.swapaxes(_left_products(level.module, mu_on_a, level.jones_range), 0, 1)
    e_f = level.module._module_matrix(member.hs)
    return w.reshape(level.module_dim, -1), e_f, restricted


def _check_projections(ws, v: np.ndarray, e_fs):
    """The postconditions of :func:`intermediate_data` for the factors W of e_C = W W*.

    ``ws`` and ``e_fs`` hold one W and one module matrix of F per member, V
    is ``level.jones_range``.  A member whose residual exceeds
    ``DEFAULT_TOL (1 + ||e_C||)`` raises :class:`ConstructionFailure`.  The
    bound compared is the one :func:`_projection_norms` reports: a member
    its Frobenius screen settles is compared with ``DEFAULT_TOL``, at most
    that bound, and any other with the bound itself, on exact operator
    norms.
    """
    for w, e_f in zip(ws, e_fs):
        residuals, size = _projection_residuals(_projection_norms(w, v, e_f))
        bound = mx.DEFAULT_TOL * (1.0 + size)
        bad = {name: r for name, r in residuals.items() if r > bound}
        if bad:
            raise ConstructionFailure(f"intermediate projection failed: {bad}", residuals)


def _projection_norms(w: np.ndarray, v: np.ndarray, e_f: np.ndarray) -> np.ndarray:
    """The postcondition norms of one member and the ||e_C|| its bound is taken with, from e_C = W W*.

    The norms of e_C - e_F (e_F the module matrix of F), M^2 - M and
    W (W* V) - V, with M = W* W (p r x p r) and e_B = V V*, and the norm of
    M.  Each equals the quantity it stands for on the dense e_C:

    * e_C^2 - e_C = W (M - 1) W* and M^2 - M = W* W (M - 1) are Hermitian
      with the same nonzero eigenvalues, s^4 - s^2 over the singular values
      s of W, so they have the same operator and Frobenius norms; and
      ||M|| = ||W||^2 = ||e_C||;
    * V is an isometry (V* V = 1), so e_C e_B - e_B = (e_C V - V) V* has the
      operator and Frobenius norms of e_C V - V = W (W* V) - V, and
      e_B e_C - e_B is its adjoint.  e_B here is V V*, the e_B every product
      of the level and the angle reads; a checked level compares it with
      the dense e_B (:func:`_check_level`);
    * e_C - e_F is formed, W W* in d^2 p r work;
    * e_C - e_C* vanishes for e_C = W W*, and the definition route reads
      e_C through W alone, so there is no residual to take.

    No d x d x d product is formed.  The three residuals are screened
    first: where each has a Frobenius norm below ``DEFAULT_TOL``, their
    operator norms are too, within the member's bound
    ``DEFAULT_TOL (1 + ||e_C||)`` since ||e_C|| >= 0, so the row holds those
    Frobenius norms and 0 for ||e_C||.  Otherwise it holds all four
    operator norms, by SVDs.
    """
    wh = mx.adjoint(w)
    m = wh @ w
    residuals = [w @ wh - e_f, m @ m - m, w @ (wh @ v) - v]
    norms = [mx.frobenius_norm(r) for r in residuals]
    if max(norms) < mx.DEFAULT_TOL:
        return np.array(norms + [0.0])
    return np.array([mx.operator_norm(r) for r in (*residuals, m)])


def _projection_residuals(norms: np.ndarray) -> tuple[dict, float]:
    """The postconditions of :func:`intermediate_data` and ||e_C||, from :func:`_projection_norms`."""
    norms = norms.tolist()
    residuals = {
        "matches_expectation_matrix": norms[0],
        "idempotent": norms[1],
        "absorbs_jones": norms[2],
    }
    return residuals, norms[3]


def dual_expectation_value(level: TowerLevel, t) -> np.ndarray:
    """E_1(t) for t in the basic construction, the oracle of :meth:`TowerLevel.dual_value`.

    t is decomposed over the spanning family {L_{b_i} e_B L_{l_k*}} of A_1
    by least squares (membership enforced) and the rule
    x e_B y -> Ind(E)^{-1} x y is applied termwise; redundant decompositions
    give the same answer because E_1 is well defined.
    """
    t = mx.as_matrix(t)
    d, q = level.module_dim, len(level.expectation.quasi_stack)
    _check_family_budget(d * q, d, "A_1")
    try:
        coeffs = mx.coordinates_in_span(level.spanning_products(level.jones_projection), t)
    except NotInSpan:
        raise NotInAlgebra("element is not in the basic construction") from None
    basis, lam_star = level.algebra.basis_stack, mx.adjoint(level.expectation.quasi_stack)
    products = (basis[:, None] @ lam_star[None]).reshape((-1,) + basis.shape[1:])
    return level.index_inverse @ np.tensordot(coeffs, products, axes=1)


def iterate_tower(level: TowerLevel) -> TowerLevel:
    """Next rung: the basic construction of (A <= A_1, E_1), checked at ``DEFAULT_TOL``.

    Built once and kept on ``level``; later calls
    return the same rung, a level like any other, whose A_2 is built only
    if it is read.  The budget is checked on every call, so an over-budget
    level raises :class:`TooLarge` even with a rung kept.
    """
    # the rung builds the module of A_1 (a (d1, n1, n1) stack for its Gram
    # matrix, at most four d1 x d1 matrices at once while G^(+-1/2) are
    # formed), e_2, J, _quasi_left and dual_quasi_basis; q is read off E's
    # quasi-basis, so that the lazy dual_quasi_basis is not built for it
    d1, n1 = level.basic_construction.dim, level.module_dim
    q = len(level.expectation.quasi_stack)
    _check_budget(
        16 * (d1 * n1 * n1 + 6 * d1 * d1 + 2 * q * d1 * d1),
        f"the next rung (module dimension {d1}, {q} dual quasi-basis elements)",
    )
    if level._rung is None:
        level._rung = build_tower_level(level.dual_expectation)
    return level._rung


def intermediate_dual_expectation(
    level: TowerLevel,
    F: ConditionalExpectation,
) -> ConditionalExpectation:
    """The compatible expectation G : A_1 -> C_1, x e_B y -> Ind(E|_C)^{-1} x e_C y, C = target(F).

    C_1 = span{L_x e_C L_y : x, y in A} = span{L_{b_i} e_C L_{l_k*}} sits
    inside A_1; G carries the quasi-basis {L_{l_i} e_B Ind(E|_C)^(1/2)} and
    satisfies E_1 = E_1|_{C_1} o G.  Requires the restricted index to be
    central.  G(t) is G of t's HS projection onto A_1.
    """
    e_c, restricted = intermediate_data(level, F)
    return _dual_expectation_from(level, e_c, restricted)


def _dual_expectation_from(
    level: TowerLevel,
    e_c: np.ndarray,
    restricted: ConditionalExpectation,
) -> ConditionalExpectation:
    """:func:`intermediate_dual_expectation` from the output of :func:`intermediate_data`."""
    q, d = len(level.expectation.quasi_stack), level.module_dim
    _check_family_budget(d * q, d, "the intermediate dual expectation")
    ind_c = restricted.index_element()
    worst = _centrality_residual(level.algebra, ind_c)
    if _exceeds_scaled_tol(worst, ind_c):
        raise NonCentralIndex(f"Ind(E|_C) is not central (residual {worst:.2e})")

    # the images x e_C l_k* of the spanning family x e_B l_k* span C_1
    c1 = MatrixStarAlgebra.from_spanning(level.spanning_products(e_c))
    ind_c_inv = mx.hermitian_inverse(ind_c)
    right = e_c @ mx.adjoint(level._quasi_left)  # e_C L_{l_i*}

    def g_rule(ts: np.ndarray) -> np.ndarray:
        # sum_i L_{Ind^-1 t(l_i)} e_C L_{l_i*}, t(l_i) with coordinates t q_i;
        # charged per element: the q values t(l_i), their L's and the products
        out = np.empty_like(ts)
        for rows in mx.stack_slices(len(ts), 3 * q * d * d * 16):
            acted = np.swapaxes(level._quasi_images(ts[rows]), 1, 2).reshape(-1, d)
            lefts = level.embed(ind_c_inv @ level.module.from_coords(acted))
            out[rows] = (lefts.reshape(-1, q, d, d) @ right).sum(axis=1)
        return out

    quasi = level._through_jones(level._quasi_left, level.embed(mx.psd_sqrt(ind_c)))
    g = ConditionalExpectation(
        level.basic_construction, c1, g_rule, quasi_basis=quasi, name="G"
    )
    if not verify_quasi_basis(g, quasi, mx.QUASI_BASIS_TOL):
        raise ConstructionFailure("quasi-basis of G failed verification")
    return g
