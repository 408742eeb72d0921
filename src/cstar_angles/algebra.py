"""Matrix star-algebras and finite-index conditional expectations.

A :class:`MatrixStarAlgebra` is a unital *-subalgebra of M_n(C) held as a
Hilbert-Schmidt-orthonormal basis, derived once from any spanning family;
all membership questions are answered against it.  One algebra's basis in
the coordinates of another, with or without the test that it lies there,
is one pass of :meth:`MatrixStarAlgebra.basis_over`; on a monomial basis
(a group algebra and its subgroup slices) that pass reads the supports
alone, and a slice holds no dense rows unless one is read.  A
:class:`ConditionalExpectation` is a linear idempotent map between nested
algebras, held as one matrix in the two algebras' orthonormal bases, built
once from a rule on stacks when the expectation is made (E(x), stacks of
elements, the checks below and the full ambient matrix all read it; so
E(x) is E of x's HS projection onto the source), optionally carrying a
quasi-basis, i.e. a finite family {l_i} with

    x = sum_i E(x l_i) l_i*  =  sum_i l_i E(l_i* x)        for all x,

which witnesses finite index.  The Watatani index is sum_i l_i l_i*, a
positive invertible central element independent of the quasi-basis.

A quasi-basis is held as it was given: as n x n matrices, or as Y, the
q x d_src array of the l_i's source coordinates, which is how the group
route and the restriction of an expectation produce it.  Either form gives
the other on first read, once: a Y-held expectation builds its matrices
(``source.combine(Y)``) only when they are read, and a matrix-held one takes
their HS coordinates only when they are read.  On a source with a product
table (:attr:`MatrixStarAlgebra._table`) the index of a Y-held quasi-basis
is summed in coordinates, one row gather per l_i with no n x n product;
every other expectation sums l_i l_i* densely.

Both identities and the centrality of the index are checked in source
coordinates, through the products of coordinate rows with basis elements
(:meth:`MatrixStarAlgebra.multiplication_matrices`), on every algebra.  The
product table is the one switch for the cheaper form of those products: on
a source with a table, multiplication by an element given by its
coordinates is a gather of rows
(:meth:`MatrixStarAlgebra.multiplication_gathers`), and the identities,
the index and every product of the tower with an L_y take it, with no
d x d multiplication matrix formed.  The same table, on the algebra a basis
is read over, lets :meth:`MatrixStarAlgebra.basis_over` work from the
supports of both bases.

Everything here is a pure function over immutable values; arrays are
write-protected after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import matrices as mx
from .errors import (
    EmptyAlgebra,
    NoQuasiBasis,
    NotInAlgebra,
    NotIntermediate,
    NotUnitary,
    NumericIntegrityError,
    ShapeMismatch,
)

__all__ = [
    "MatrixStarAlgebra",
    "ConditionalExpectation",
    "CheckResult",
    "VerificationReport",
    "CauchySchwarzResult",
    "verify_star_algebra",
    "verify_expectation",
    "verify_quasi_basis",
    "watatani_index",
    "restrict_expectation",
    "is_compatible",
    "compatibility_residual",
    "conjugate_expectation",
    "cauchy_schwarz_check",
    "identity_expectation",
    "matrix_to_json",
    "matrix_from_json",
]


def _stack_of(mats: Sequence[np.ndarray], n: int) -> np.ndarray:
    """A validated (k, n, n) stack of a family of n x n matrices (k may be 0).

    A (k, n, n) array is copied at most once: a read-only complex stack is
    immutable already and is returned as it is, not copied.
    """
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        stack = mx.as_stack(mats)
        if stack.shape[1:] != (n, n):
            raise ShapeMismatch(f"expected {n}x{n} matrices, got {stack.shape[1:]}")
        return stack.copy() if stack is mats and mats.flags.writeable else stack
    mats = [mx.as_matrix(m) for m in mats]
    for m in mats:
        if m.shape != (n, n):
            raise ShapeMismatch(f"expected {n}x{n} matrices, got {m.shape}")
    return np.array(mats, dtype=np.complex128).reshape(len(mats), n, n)


# Bases of at least this many elements whose elements have pairwise disjoint
# supports (group algebras and their subgroup slices) take HS coordinates by
# a gather along the supports, O(n^2) per element, instead of the dense
# O(d n^2) product.  Below it the dense product is faster, since the gather
# costs a few more numpy calls.  Measured on a 2-core host, one coordinate
# round trip (hs_coordinates, then combine) on the regular representation of
# Z_d takes, dense against gather: 15-20 against 18-28 us at d = 16, 24
# against 18-24 us at d = 24; for a stack of 20 elements, 51-61 against
# 42-57 us at d = 16 and 130 against 73-76 us at d = 24.  The same bound
# gates the product table (``MatrixStarAlgebra._table``), which is only
# looked for on a basis with disjoint supports.  It decides for an algebra
# built from its basis; a slice of a basis with disjoint supports
# (``MatrixStarAlgebra.basis_slice``, C[K] inside C[G]) inherits its supports
# and product table whatever its dimension, since it needs no scan and its
# table spares the dense n x n products, which cost far more than a gather.
# Such a slice holds no dense rows at all: its supports are its basis, and
# ``MatrixStarAlgebra.basis_over`` reads them, O(n) per element, where a
# containment test on dense rows rebuilds O(n^2) entries per element.
GATHER_MIN_DIM = 20


class MatrixStarAlgebra:
    """A unital *-subalgebra of M_n(C) given by an HS-orthonormal basis.

    The orthonormal basis is the one family an algebra stores: as the
    read-only rows of ``_flat`` (shape d x n^2), or, on a :meth:`basis_slice`
    of a basis with disjoint supports, as the inherited supports alone, from
    which ``_flat`` is built on first read and kept.  ``basis_stack`` and
    ``basis`` are n x n views into those rows.  :meth:`from_spanning` derives
    the basis from any spanning family and keeps nothing of that family.
    One basis over another algebra (:meth:`basis_over`), the containment
    tests included, never needs the rows of a slice over an algebra with a
    product table.

    Products go through one primitive, :meth:`multiplication_matrices`, the
    coordinates of y b_k or b_k y for every basis element b_k: the
    centrality tests of index elements (:func:`_centrality_residual`),
    :func:`verify_quasi_basis`, the module Gram matrix and left
    multiplication all read it.  A basis of scaled partial permutation
    matrices closed under products up to scalars (group algebras) has a
    product table, ``_table``, built on first read, and the primitive
    scatters by it; on any other basis it takes dense n x n products.  A
    subalgebra spanned by some of the basis elements (:meth:`basis_slice`,
    a subgroup's C[K] inside C[G]) inherits the supports and the table of
    its parent, restricted and renumbered, whatever its dimension.
    """

    def __init__(self, basis: Sequence[np.ndarray]):
        """From an HS-orthonormal family, or (d, n, n) stack with d >= 0, kept verbatim."""
        if len(basis) == 0 and np.ndim(basis) != 3:
            raise EmptyAlgebra("basis is empty")
        n = np.shape(basis[0])[0] if len(basis) else basis.shape[1]
        self.ambient_dim, self.dim = n, len(basis)
        self._flat = _stack_of(basis, n).reshape(len(basis), n * n)
        self._flat.setflags(write=False)

    @classmethod
    def from_spanning(cls, mats: Sequence[np.ndarray]):
        """Build from an arbitrary (possibly redundant) family or (k, n, n) stack."""
        if len(mats) == 0:
            raise EmptyAlgebra("spanning set is empty")
        basis = mx.orthonormalize(mats)
        basis.setflags(write=False)  # nothing else holds it: enter uncopied
        return cls(basis)

    @classmethod
    def from_orthonormal(cls, mats: Sequence[np.ndarray]):
        """Build from a family known to be HS-orthonormal (kept verbatim)."""
        return cls(mats)

    @property
    def unit(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)

    @property
    def basis_stack(self) -> np.ndarray:
        """The orthonormal basis as one read-only (d, n, n) view of ``_flat``."""
        n = self.ambient_dim
        return self._flat.reshape(self.dim, n, n)

    @cached_property
    def basis(self) -> tuple:
        """The basis elements, n x n views into ``_flat``."""
        return tuple(self.basis_stack)

    @cached_property
    def _flat(self) -> np.ndarray:
        """The basis as read-only rows, shape d x n^2, built from ``_supports`` on first read.

        An algebra built from its basis holds these rows from the start; a
        :meth:`basis_slice` of a basis with disjoint supports holds none
        until one is read here, and keeps them then.  The rows equal the
        parent's kept rows bit for bit: the entries are the parent's.
        """
        sup, n = self._supports, self.ambient_dim
        flat = np.zeros((self.dim, n * n), dtype=np.complex128)
        flat[sup.owner[sup.positions], sup.positions] = sup.entries[sup.positions]
        flat.setflags(write=False)
        return flat

    @cached_property
    def _supports(self):
        """Index arrays of the nonzero basis entries, or None.

        Set when the basis has at least ``GATHER_MIN_DIM`` elements and no two
        of them share a nonzero entry (exact zeros decide), and on every
        :meth:`basis_slice` of such a basis, whatever its dimension, which
        inherits the arrays instead of scanning.  ``positions`` lists the
        flat positions of the nonzero entries ordered by owning basis
        element, ``starts`` cuts that list into one run per element, and
        ``conj_values`` holds the conjugated entries.  ``owner`` maps every
        flat position to the basis element owning it and ``entries`` to its
        entry (owner 0 and entry 0 off every support).
        """
        if self.dim < GATHER_MIN_DIM:
            return None
        support = self._flat != 0
        if support.sum(axis=0).max() > 1 or not support.any(axis=1).all():
            return None
        owners, positions = np.nonzero(support)
        return self._support_arrays(owners, positions, self._flat[owners, positions])

    def _support_arrays(self, owners, positions, values) -> SimpleNamespace:
        """``_supports`` from the nonzero entries, listed in order of their owners."""
        n = self.ambient_dim
        owner = np.zeros(n * n, dtype=np.intp)
        owner[positions] = owners
        entries = np.zeros(n * n, dtype=np.complex128)
        entries[positions] = values
        return SimpleNamespace(
            positions=positions, starts=np.searchsorted(owners, np.arange(self.dim)),
            conj_values=np.conjugate(values), owner=owner, entries=entries,
        )

    def basis_slice(self, mask) -> "MatrixStarAlgebra":
        """The span of the basis elements at a boolean ``mask``.

        The caller vouches that they span a *-subalgebra, as the elements of
        a subgroup do in a group algebra.  On a basis with disjoint supports
        the slice holds no rows: it inherits ``_supports`` and ``_table``
        rather than copying its rows, scanning them and building its table,
        and builds its dense rows (``_flat``) only if one is read.  It keeps
        the kept runs of the supports and the table's entries at kept pairs
        (i, j), renumbered and in the same row-major order.  The table is
        None when the parent has none or a product of kept elements lands on
        a dropped one (the kept elements are not closed).  So a slice takes
        the gather and table paths whatever its dimension; ``GATHER_MIN_DIM``
        decides only for an algebra built from its basis, as it does for a
        slice of a basis without disjoint supports, which holds a copy of
        its rows.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.dim,):
            raise ShapeMismatch(f"expected a mask of {self.dim} basis elements")
        sup = self._supports
        if sup is None or not mask.any():  # an empty slice gathers nothing
            rows = self.basis_stack[mask]
            rows.setflags(write=False)  # a fresh copy already: enter uncopied
            return MatrixStarAlgebra(rows)
        sliced = MatrixStarAlgebra.__new__(MatrixStarAlgebra)
        sliced.ambient_dim, sliced.dim = self.ambient_dim, int(np.count_nonzero(mask))
        renumber = np.cumsum(mask) - 1
        owners = sup.owner[sup.positions]
        kept = mask[owners]
        positions = sup.positions[kept]
        inherited = sliced._support_arrays(
            renumber[owners[kept]], positions, sup.entries[positions]
        )
        table = self._table
        if table is not None:
            pairs = mask[table.i] & mask[table.j]
            if mask[table.k[pairs]].all():
                i, j, k = (renumber[a[pairs]] for a in (table.i, table.j, table.k))
                s = table.s[pairs]
                for a in (i, j, k, s):
                    a.setflags(write=False)
                table = SimpleNamespace(i=i, j=j, k=k, s=s)
            else:
                table = None
        sliced.__dict__.update(_supports=inherited, _table=table)
        return sliced

    @cached_property
    def _table(self):
        """The product table of a monomial basis, or None.

        Looked for only on a basis with disjoint supports (so from
        ``GATHER_MIN_DIM`` elements on; a :meth:`basis_slice` inherits its
        parent's instead) whose elements b_i are each v_i
        times a partial permutation matrix (one value v_i on every nonzero
        entry, at most one per row and column).  Then every nonzero product
        is one scaled basis element, b_i b_j = s b_k, and the table holds
        them as flat arrays ``i``, ``j``, ``k`` and ``s``, one entry per
        nonzero product in row-major (i, j) order; it is what
        :meth:`multiplication_matrices` scatters by.  Built from the
        column -> row maps of the elements: the map of b_i b_j is p_i o p_j,
        and it is compared with the map of the basis element owning its
        first entry on every column, integer work a chunk of left factors at
        a time with no n x n product.  None when some product is not one
        scaled basis element.
        """
        sup = self._supports
        if sup is None:
            return None
        d, n = self.dim, self.ambient_dim
        owners = sup.owner[sup.positions]
        rows, cols = np.divmod(sup.positions, n)
        values = sup.entries[sup.positions[sup.starts]]
        if np.any(sup.entries[sup.positions] != values[owners]):
            return None
        if not values.imag.any():
            values = values.real  # and so is every scale
        # maps[i, c]: the row of b_i's entry in column c, and n for an empty
        # column; column n maps to n, so that maps compose through it
        maps = np.full((d, n + 1), n, dtype=np.int32)
        maps[owners, cols] = rows
        by_row = np.zeros((d, n), dtype=bool)
        by_row[owners, rows] = True
        if min(np.count_nonzero(maps < n), np.count_nonzero(by_row)) < len(owners):
            return None  # two entries share a column or a row

        def owning(composed):
            """The basis element whose map each map of ``composed`` is, or None."""
            defined = composed < n
            nonempty, first = defined.any(axis=-1), defined.argmax(axis=-1)
            row = np.take_along_axis(composed, first[..., None], axis=-1)[..., 0]
            pos = np.where(nonempty, row.astype(np.intp) * n + first, 0)
            index = np.where(nonempty, sup.owner[pos], 0)
            if np.any(nonempty & (sup.entries[pos] == 0)):
                return None
            if not np.all((composed == maps[index, :n]).all(axis=-1) | ~nonempty):
                return None
            return index, nonempty

        parts = []
        # charged per left factor: the composed maps, their comparison maps
        # and two boolean masks
        for block in mx.stack_slices(d, 10 * d * n):
            found = owning(maps[block][:, maps[:, :n]])
            if found is None:
                return None
            index, nonempty = found
            i, j = np.nonzero(nonempty)
            i, k = i + block.start, index[i, j]
            parts.append((i, j, k, values[i] * values[j] / values[k]))
        i, j, k, s = (np.concatenate(a) for a in zip(*parts))
        for a in (i, j, k, s):
            a.setflags(write=False)
        return SimpleNamespace(i=i, j=j, k=k, s=s)

    @cached_property
    def _gathers(self):
        """The product table as row maps of the multiplication matrices, or None without a table.

        With b_i b_j = s b_k: row k of L_{b_i}, the transpose of slice i of
        :meth:`multiplication_matrices` from the left (the matrix of
        left multiplication on coordinates), is s e_j, held as
        ``left[i, k] = j`` and ``left_scale[i, k] = s``; row i of slice j
        from the right is s e_k, held as ``right[j, i] = k`` and
        ``right_scale[j, i] = s``.  A row with no entry holds index 0 and
        scale 0.  No row has two entries: for a fixed factor, distinct basis
        elements have distinct nonzero products with it (see
        :meth:`multiplication_matrices`).  So the multiplication matrix of an
        element with w nonzero coordinates applies as w row gathers
        (:meth:`multiplication_gathers`), read from the table once per algebra.
        """
        table = self._table
        if table is None:
            return None
        d = self.dim
        left, right = np.zeros((2, d, d), dtype=np.intp)
        left_scale, right_scale = np.zeros((2, d, d), dtype=table.s.dtype)
        left[table.i, table.k], left_scale[table.i, table.k] = table.j, table.s
        right[table.j, table.i], right_scale[table.j, table.i] = table.k, table.s
        for a in (left, right, left_scale, right_scale):
            a.setflags(write=False)
        return SimpleNamespace(
            left=left, left_scale=left_scale, right=right, right_scale=right_scale
        )

    def multiplication_gathers(self, coords: np.ndarray, left: bool):
        """Multiplication by the elements with the given coordinates (rows), as row gathers.

        Returns (rows, weights), each (m, w, d) for m elements of at most w
        nonzero coordinates (:func:`_row_nonzeros`), or None without a
        product table.  Row k of element a's matrix is
        sum_u weights[a, u, k] e_{rows[a, u, k]}, since the matrix of
        sum_g c_g b_g is the sum of the c_g-scaled maps of the b_g
        (:attr:`_gathers`).  With ``left`` the matrix is L_y, whose column j
        holds coords(y b_j) (the transpose of a slice of
        :meth:`multiplication_matrices`); otherwise it is R_y, the slice
        itself, whose row k holds coords(b_k y).  :func:`_gather_times`
        applies them, w d c work for a d x c operand where the dense product
        is d^2 c.
        """
        maps = self._gathers
        if maps is None:
            return None
        index, scale = (maps.left, maps.left_scale) if left else (maps.right, maps.right_scale)
        positions, values = _row_nonzeros(coords)
        return index[positions], values[..., None] * scale[positions]

    def hs_coordinates(self, x) -> np.ndarray:
        """Coordinates of the HS-orthogonal projection of ``x`` onto the span.

        ``x`` is one n x n matrix or a (k, n, n) stack (rows of coordinates).
        On a basis with disjoint supports, coordinate k sums x against the
        conjugate entries of basis element k over its support alone.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim != 3:
            x = mx.as_matrix(x)
        flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
        sup = self._supports
        if sup is None:
            return np.conjugate(np.conjugate(flat) @ self._flat.T)
        rows = flat.reshape(-1, flat.shape[-1])
        coords = np.empty((len(rows), self.dim), dtype=np.complex128)
        for block in mx.stack_slices(len(rows), 16 * len(sup.positions)):
            taken = np.take(rows[block], sup.positions, axis=1)
            taken *= sup.conj_values
            coords[block] = np.add.reduceat(taken, sup.starts, axis=1)
        return coords.reshape(flat.shape[:-1] + (self.dim,))

    def star_coordinates(self) -> np.ndarray:
        """S, the star of the basis: row l holds hs_coordinates(b_l*).

        So hs_coordinates(x*) = conj(hs_coordinates(x)) @ S.  On a basis with
        disjoint supports, b_l* holds conj(b_l[r, c]) at (c, r), a position
        owned by one basis element b_k, so S[l, k] sums
        conj(b_k[c, r] b_l[r, c]) over the support of b_l: one scatter over
        the support positions, with no n x n matrix formed.  Otherwise S is
        the HS coordinates of the adjoint basis.  Not kept: an algebra holds
        only its basis, and its readers keep what they build from S.
        """
        sup = self._supports
        if sup is None:
            return self.hs_coordinates(mx.adjoint(self.basis_stack))
        d, n = self.dim, self.ambient_dim
        rows, cols = np.divmod(sup.positions, n)
        moved = cols * n + rows
        cells = sup.owner[sup.positions] * d + sup.owner[moved]
        values = np.conjugate(sup.entries[moved]) * sup.conj_values
        star = np.bincount(cells, values.real, d * d) + 1j * np.bincount(
            cells, values.imag, d * d
        )
        return star.reshape(d, d)

    def _star_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """S^T as a row gather on a basis with disjoint supports: row k is scale[k] e_{rows[k]}.

        Returns (rows, scale).  S^T[k, l] is the coordinate of b_l* on b_k,
        and b_l* has b_l's support transposed, so b_k lies in b_l* for one l
        alone: the owner of any transposed position of b_k.
        """
        sup, n = self._supports, self.ambient_dim
        r, c = np.divmod(sup.positions[sup.starts], n)
        rows = sup.owner[c * n + r]
        return rows, self.star_coordinates()[rows, np.arange(self.dim)]

    def square_sum(self) -> np.ndarray:
        """c = sum_k b_k b_k*, the same for every HS-orthonormal basis of the span.

        With a product table every b_k is a scaled partial permutation, so
        b_k b_k* is diagonal and c holds the squared moduli of the basis
        entries summed along each row; otherwise c is one (n x d n)(d n x n)
        product.
        """
        n = self.ambient_dim
        if self._table is not None:
            weights = np.abs(self._supports.entries.reshape(n, n)) ** 2
            return np.diag(weights.sum(axis=1)).astype(np.complex128)
        wide = np.swapaxes(self.basis_stack, 0, 1).reshape(n, -1)  # [b_1 ... b_d]
        return wide @ np.conjugate(wide).T

    def project(self, x) -> np.ndarray:
        return self.combine(self.hs_coordinates(x))

    def membership_residual(self, x) -> float:
        return mx.frobenius_norm(self.project(x) - mx.as_matrix(x))

    def _projected(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(coordinates, ||P x - x||_F, ||x||_F) of a (k, n, n) stack, P the HS projection onto the span."""
        flat = xs.reshape(len(xs), xs.shape[1] * xs.shape[2])
        coords = self.hs_coordinates(xs)
        residuals = mx.row_norms(self.combine(coords).reshape(len(xs), -1) - flat)
        return coords, residuals, mx.row_norms(flat)

    def _member_coordinates(self, xs: np.ndarray, tol: float) -> np.ndarray | None:
        """HS coordinates of a (k, n, n) stack, or None when one of its matrices is no member.

        The membership core of :meth:`contains`, :meth:`contains_all` and
        :meth:`coordinates`: x is a member when ||P x - x||_F <= tol
        (1 + ||x||_F), with P the HS projection onto the span.  One pass per
        chunk of the stack takes the coordinates, rebuilds P x from them and
        compares; it stops at the first chunk holding a non-member.
        """
        coords = np.empty((len(xs), self.dim), dtype=np.complex128)
        # charged per matrix: its projection, the difference and the
        # temporaries of hs_coordinates
        for rows in mx.stack_slices(len(xs), 3 * 16 * xs.shape[1] * xs.shape[2]):
            coords[rows], residuals, sizes = self._projected(xs[rows])
            if _misses(residuals, sizes, tol):
                return None
        return coords

    def basis_over(self, other: "MatrixStarAlgebra", tol: float | None = None) -> np.ndarray | None:
        """This algebra's basis over ``other``'s: row a holds the HS coordinates of b_a, d x d_other.

        With ``tol`` the pass also runs the membership test of
        :meth:`contains_all` on every b_a, ||P b_a - b_a||_F <= tol
        (1 + ||b_a||_F) with P the HS projection onto ``other``, and returns
        None when one misses.  Every question "this basis in the coordinates
        of that algebra" is answered here, by one pass (:meth:`_basis_over`).
        """
        coords, residuals, sizes = self._basis_over(other, tol is not None)
        if tol is not None and _misses(residuals, sizes, tol):
            return None
        return coords

    def _basis_over(self, other: "MatrixStarAlgebra", residuals: bool):
        """The pass of :meth:`basis_over`: (coordinates, ||P b_a - b_a||_F, ||b_a||_F).

        The two norms are taken only with ``residuals`` (None otherwise).
        When ``other`` has a product table and this basis has disjoint
        supports, the pass reads the supports alone, O(nnz + d d_other) work
        with no dense row formed.  The coordinates are one bincount of
        b_a conj(e) over the cells (a, owner in ``other``) of b_a's support,
        e the entry of ``other``'s basis there.  ``other``'s elements are
        v_j times partial permutations (it has a table), so
        ||P b_a - b_a||^2 is the sum over b_a's support of |c e - b_a|^2,
        plus sum_j |c_j|^2 |v_j|^2 (n_j - m_j) for the part of P b_a off
        that support: n_j and m_j are integer counts, the support size of
        element j and how many of b_a's positions lie on it.  (||b_a||^2 -
        ||c||^2 would be one subtraction, but its cancellation leaves a
        floor of about 1e-8, above the membership bounds.)  Otherwise the
        pass is ``other``'s HS coordinates of this basis stack, with its
        projections rebuilt a chunk at a time for the norms.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ShapeMismatch("the algebras must share the ambient algebra")
        sup = self._supports
        if sup is None or other._table is None:
            stack = self.basis_stack
            if not residuals:
                return other.hs_coordinates(stack), None, None
            coords = np.empty((self.dim, other.dim), dtype=np.complex128)
            offs, sizes = np.empty((2, self.dim))
            # charged per element as in _member_coordinates
            for rows in mx.stack_slices(self.dim, 3 * 16 * self.ambient_dim**2):
                coords[rows], offs[rows], sizes[rows] = other._projected(stack[rows])
            return coords, offs, sizes
        on = other._supports
        d, d_other = self.dim, other.dim
        owners, values = sup.owner[sup.positions], sup.entries[sup.positions]
        their, entries = on.owner[sup.positions], on.entries[sup.positions]
        cells = owners * d_other + their
        products = values * np.conjugate(entries)
        coords = np.bincount(cells, products.real, d * d_other) + 1j * np.bincount(
            cells, products.imag, d * d_other
        )
        coords = coords.reshape(d, d_other)
        if not residuals:
            return coords, None, None
        misfit = np.abs(coords[owners, their] * entries - values) ** 2
        squares = np.bincount(owners, misfit, d)
        hits = np.bincount(cells[entries != 0], minlength=d * d_other).reshape(d, d_other)
        counts = np.diff(on.starts, append=len(on.positions))
        weights = np.abs(on.entries[on.positions[on.starts]]) ** 2
        squares += (np.abs(coords) ** 2 * ((counts - hits) * weights)).sum(axis=1)
        sizes = np.sqrt(np.bincount(owners, np.abs(values) ** 2, d))
        return coords, np.sqrt(squares), sizes

    def contains(self, x, tol: float = mx.DEFAULT_TOL) -> bool:
        return self._member_coordinates(mx.as_matrix(x)[None], tol) is not None

    def contains_all(self, xs, tol: float = mx.DEFAULT_TOL) -> bool:
        """:meth:`contains` for every matrix of a (k, n, n) stack at once."""
        return self._member_coordinates(mx.as_stack(xs), tol) is not None

    def coordinates(self, x, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """Orthonormal-basis coordinates of members; raises NotInAlgebra off the span.

        ``x`` is one n x n matrix or a (k, n, n) stack (rows of coordinates).
        A matrix is off the span when its projection misses it by more than
        ``tol (1 + ||x||_F)`` in Frobenius norm.  The coordinates and that
        test come from one pass over the stack, a chunk of at most
        ``STACK_BUDGET_BYTES`` at a time; the coordinates are those of
        :meth:`hs_coordinates`.
        """
        x = np.asarray(x, dtype=np.complex128)
        stack = mx.as_stack(x) if x.ndim == 3 else mx.as_matrix(x)[None]
        coords = self._member_coordinates(stack, tol)
        if coords is None:
            raise NotInAlgebra("element is not in the algebra span")
        return coords if x.ndim == 3 else coords[0]

    def combine(self, coords: np.ndarray) -> np.ndarray:
        """The element(s) with the given coordinates; rows give a stack."""
        coords = np.asarray(coords, dtype=np.complex128)
        n = self.ambient_dim
        sup = self._supports
        if sup is None:
            return (coords @ self._flat).reshape(coords.shape[:-1] + (n, n))
        # one gather into the output, scaled in place: no other array of its
        # size is allocated
        out = np.take(coords.reshape(-1, self.dim), sup.owner, axis=1)
        out *= sup.entries
        return out.reshape(coords.shape[:-1] + (n, n))

    def multiplication_matrices(self, ys, left: bool) -> np.ndarray:
        """Multiplication by each element y of a (m, n, n) stack, in coordinates.

        Row k of slice a of the (m, d, d) result holds coords(y_a b_k) when
        ``left`` (y multiplies from the left), else coords(b_k y_a), so that
        coords(y x), or coords(x y), is coords(x) @ slice.  The y must lie in
        the algebra.  With a product table, for a fixed factor b_k the
        nonzero products with distinct basis elements are distinct basis
        elements (their supports are disjoint), so each slice is one scatter
        of coords(y_a).  Otherwise each element takes one GEMM against the
        basis stacked as a (d n, n) matrix, and the HS coordinates of the
        products.
        """
        ys = np.asarray(ys, dtype=np.complex128)
        d, n = self.dim, self.ambient_dim
        table = self._table
        if table is not None:
            coords = self.hs_coordinates(ys)
            out = np.zeros((len(coords), d, d), dtype=np.complex128)
            out[:, table.j if left else table.i, table.k] = (
                coords[:, table.i if left else table.j] * table.s
            )
            return out
        basis = self.basis_stack
        # b_k, or b_k^T for products from the left, stacked as a (d n, n)
        # matrix: one GEMM per element gives the d products b_k y, or their
        # transposes (y b_k)^T = b_k^T y^T
        stacked = (np.swapaxes(basis, 1, 2) if left else basis).reshape(d * n, n)
        out = np.empty((len(ys), d, d), dtype=np.complex128)
        # charged per element: its d products, transposed and conjugated (by
        # hs_coordinates), though no more than two of them are held at once
        for rows in mx.stack_slices(len(ys), 3 * 16 * d * n * n):
            if left:
                products = stacked @ np.swapaxes(ys[rows], 1, 2)
                products = np.swapaxes(products.reshape(-1, d, n, n), 2, 3).reshape(-1, n * n)
            else:
                products = stacked @ ys[rows]
            out[rows] = self.hs_coordinates(products.reshape(-1, n, n)).reshape(-1, d, d)
        return out

    def same_span(self, other: "MatrixStarAlgebra", tol: float = mx.DEFAULT_TOL) -> bool:
        """Equality as subspaces (bases are never canonical)."""
        if other is self:
            return True
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return other.basis_over(self, tol) is not None and self.basis_over(other, tol) is not None

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return mx.random_combination(self.basis, rng)

    def to_json(self) -> dict:
        return {
            "schema": "cstar-angles.algebra/1",
            "ambient_dim": self.ambient_dim,
            "spanning_set": [matrix_to_json(m) for m in self.basis],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MatrixStarAlgebra":
        mats = [matrix_from_json(m) for m in payload["spanning_set"]]
        n = int(payload["ambient_dim"])
        if any(m.shape != (n, n) for m in mats):
            raise ShapeMismatch(f"spanning_set must hold {n}x{n} matrices")
        return cls.from_spanning(mats) if mats else cls(np.zeros((0, n, n)))

    def __repr__(self):
        return f"MatrixStarAlgebra(dim={self.dim}, ambient={self.ambient_dim})"


def _misses(residuals: np.ndarray, sizes: np.ndarray, tol: float) -> bool:
    """Whether some x is off the span: ||P x - x||_F > tol (1 + ||x||_F), given both norms."""
    return bool(np.any(residuals > tol * (1.0 + sizes)))


def _row_nonzeros(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, values), each (m, w): the nonzero entries of each row of ``coords``.

    w is the largest count of nonzero entries in a row, at least 1; shorter
    rows are padded with zero values at position 0, which add nothing where
    the values weigh what the positions gather.
    """
    rows, cols = np.nonzero(coords)
    if len(rows) == len(coords) and (rows == np.arange(len(rows))).all():
        # one entry a row, as on the group route
        return cols[:, None], coords[rows, cols][:, None]
    counts = np.bincount(rows, minlength=len(coords))
    w = max(1, int(counts.max(initial=0)))
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    positions = np.zeros((len(coords), w), dtype=np.intp)
    values = np.zeros((len(coords), w), dtype=coords.dtype)
    positions[rows, slot] = cols
    values[rows, slot] = coords[rows, cols]
    return positions, values


def _gather_times(rows: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (m, d, c) products of row gathers (rows, weights) with x.

    The gathers are those of :meth:`MatrixStarAlgebra.multiplication_gathers`.

    x is one (d, c) matrix or an (m, d, c) stack, one matrix per element,
    real or complex: w d c work per element, where a dense product is d^2 c.
    """
    m, w, d = rows.shape
    if x.ndim == 3:  # element a gathers from rows a d ... a d + d - 1 of the stacked x
        rows = rows + (np.arange(m) * d)[:, None, None]
    flat = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1, x.shape[-1])
    out = np.take(flat, rows[:, 0], axis=0)
    out *= weights[:, 0, :, None]
    for u in range(1, w):
        out += np.take(flat, rows[:, u], axis=0) * weights[:, u, :, None]
    return out


def _gather_sandwich(rows: np.ndarray, weights: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_a G_a p G_a* over row gathers G_a (:func:`_gather_times`): G_a (G_a p*)*."""
    half = _gather_times(rows, weights, mx.adjoint(p))
    return _gather_times(rows, weights, mx.adjoint(half)).sum(axis=0)


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class VerificationReport:
    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float, detail: str = ""):
        self.checks.append(CheckResult(name, residual <= tol, float(residual), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_star_algebra(
    alg: MatrixStarAlgebra, tol: float = mx.DEFAULT_TOL, max_pairs: int | None = None
) -> VerificationReport:
    """Check unit membership and closure under adjoints and products.

    ``max_pairs`` caps the number of product pairs tested (seeded sample);
    by default every pair of basis elements is checked.
    """
    report = VerificationReport(subject=repr(alg))
    basis, d, n = alg.basis_stack, alg.dim, alg.ambient_dim

    def worst_residual(mats: np.ndarray) -> float:
        off = (alg.project(mats) - mats).reshape(len(mats), n * n)
        return float(mx.row_norms(off).max(initial=0.0))

    report.add("unit_in_span", alg.membership_residual(alg.unit), tol)
    report.add("adjoint_closed", worst_residual(mx.adjoint(basis)), tol)

    pairs = np.arange(d * d)  # pair (i, j) is number i d + j
    if max_pairs is not None and len(pairs) > max_pairs:
        pairs = mx.default_rng().choice(len(pairs), size=max_pairs, replace=False)
    i, j = np.divmod(pairs, d)
    # charged per pair: its product, the projection and their difference
    chunks = mx.stack_slices(len(pairs), 3 * 16 * n * n)
    worst = max((worst_residual(basis[i[r]] @ basis[j[r]]) for r in chunks), default=0.0)
    report.add("product_closed", worst, tol)
    return report


# ---------------------------------------------------------------------------
# conditional expectations


class ConditionalExpectation:
    """A linear idempotent B-bimodular positive unital map E: A -> B.

    An expectation is its coordinate matrix T (:meth:`coordinates`), built
    once by the constructor: ``apply_fn`` takes a (k, n, n) stack of source
    elements and returns the (k, n, n) stack of their images, and it is
    called once per chunk of source basis elements and not kept.  Every
    reading of the map goes through T: ``E(x)``, :meth:`on_source`,
    :attr:`map_matrix` and :meth:`to_json`.  So E(x) is E of x's HS
    projection onto the source, whatever ``apply_fn`` does off the source
    span, and each of them refuses an E whose images left the target (at
    the default tolerance; :meth:`coordinates` takes the caller's).
    :meth:`from_rule` takes a rule on single matrices instead,
    :meth:`from_coordinates` T itself.

    ``quasi_basis`` is the family {l_i} witnessing finite index, when known,
    given to any constructor either as n x n matrices or as Y, a 2-D
    (q, d_src) array whose row i holds the source coordinates of l_i.  It is
    held in the form it was given, read-only.  :attr:`quasi_stack` (one
    (q, n, n) stack) and :attr:`quasi_basis` (views into it) are built from
    Y on first read and kept; the coordinates of given matrices are taken
    on first read and kept (:attr:`_quasi_coords`), as the index is.
    """

    def __init__(
        self,
        source: MatrixStarAlgebra,
        target: MatrixStarAlgebra,
        apply_fn: Callable[[np.ndarray], np.ndarray],
        quasi_basis: Sequence[np.ndarray] | None = None,
        name: str = "E",
    ):
        self._hold(source, target, quasi_basis, name)
        d, n = source.dim, source.ambient_dim
        t = np.empty((d, target.dim), dtype=np.complex128)
        ratios = np.zeros(max(d, 1))  # relative off-target residuals; none off a dim-0 source
        for rows in mx.stack_slices(d, 16 * n * n):
            xs = source.basis_stack[rows]
            images = mx.as_stack(apply_fn(xs))  # finite, or InvalidMatrix
            if images.shape != xs.shape:
                raise ShapeMismatch(f"{name}: images of shape {images.shape}, not {xs.shape}")
            t[rows] = target.hs_coordinates(images)
            off = mx.row_norms((target.combine(t[rows]) - images).reshape(len(xs), n * n))
            ratios[rows] = off / (1.0 + mx.row_norms(images.reshape(len(xs), n * n)))
        t.setflags(write=False)
        k = int(np.argmax(ratios))
        self._t, self._off_target = t, (float(ratios[k]), f"image of source basis element {k}")

    def _hold(self, source, target, quasi_basis, name):
        """Everything an expectation holds but T and its off-target residual."""
        if source.ambient_dim != target.ambient_dim:
            raise ShapeMismatch("source and target must share the ambient algebra")
        self.source = source
        self.target = target
        # the quasi-basis as given, read-only: a (q, n, n) stack of matrices
        # or Y, their (q, d_src) source coordinates
        self._quasi = None
        if isinstance(quasi_basis, np.ndarray) and quasi_basis.ndim == 2:
            y = np.asarray(quasi_basis, dtype=np.complex128)
            if y.shape[1] != source.dim:
                raise ShapeMismatch(
                    f"{name}: quasi-basis coordinates must have {source.dim} columns, "
                    f"not shape {y.shape}"
                )
            self._quasi = y.copy() if y is quasi_basis and y.flags.writeable else y
        elif quasi_basis is not None:
            self._quasi = _stack_of(quasi_basis, source.ambient_dim)
        if self._quasi is not None:
            self._quasi.setflags(write=False)
        self.name = name
        self._index_cache: _IndexChecks | None = None  # Ind(E) and its checks: watatani_index

    @cached_property
    def quasi_stack(self) -> np.ndarray | None:
        """The quasi-basis as one read-only (q, n, n) stack, built from Y on first read."""
        if self._quasi is None or self._quasi.ndim == 3:
            return self._quasi
        stack = self.source.combine(self._quasi)
        stack.setflags(write=False)
        return stack

    @cached_property
    def quasi_basis(self) -> tuple | None:
        """The quasi-basis {l_i}, views into :attr:`quasi_stack`; None when E carries none."""
        return None if self._quasi is None else tuple(self.quasi_stack)

    @cached_property
    def _quasi_coords(self) -> np.ndarray | None:
        """Y, the quasi-basis in source coordinates, one read-only row each.

        Held as given, or the HS coordinates of given matrices, taken on
        first read (their projections onto the source).
        """
        if self._quasi is None or self._quasi.ndim == 2:
            return self._quasi
        y = self.source.hs_coordinates(self._quasi)
        y.setflags(write=False)
        return y

    def __call__(self, x) -> np.ndarray:
        return self.on_source(mx.as_matrix(x)[None])[0]

    def on_source(self, xs) -> np.ndarray:
        """E on a (k, n, n) stack of source elements, through :attr:`coordinate_matrix`.

        Off the source span this acts as :attr:`map_matrix` does, as E after
        HS-projection onto the source.
        """
        return self._through(self.coordinate_matrix, xs)

    def _through(self, t, xs) -> np.ndarray:
        """The target elements with coordinates hs_coordinates(x) t, for a stack xs."""
        return self.target.combine(self.source.hs_coordinates(mx.as_stack(xs)) @ t)

    @property
    def ambient_dim(self) -> int:
        return self.source.ambient_dim

    @classmethod
    def from_rule(
        cls,
        source: MatrixStarAlgebra,
        target: MatrixStarAlgebra,
        rule: Callable[[np.ndarray], np.ndarray],
        quasi_basis: Sequence[np.ndarray] | None = None,
        name: str = "E",
    ) -> "ConditionalExpectation":
        """Extend ``rule``, called on each source basis element once, linearly."""

        def stacked(xs: np.ndarray) -> np.ndarray:
            return _stack_of([rule(x) for x in xs], source.ambient_dim)

        return cls(source, target, stacked, quasi_basis, name=name)

    @classmethod
    def from_coordinates(
        cls,
        source: MatrixStarAlgebra,
        target: MatrixStarAlgebra,
        coordinate_matrix: np.ndarray,
        quasi_basis: Sequence[np.ndarray] | None = None,
        name: str = "E",
    ) -> "ConditionalExpectation":
        """The map with the given :attr:`coordinate_matrix`, calling no rule.

        ``quasi_basis`` may be Y, the (q, d_src) array of the quasi-basis's
        source coordinates, as its callers here have it (class docstring).
        """
        t = np.array(coordinate_matrix, dtype=np.complex128)
        if t.shape != (source.dim, target.dim):
            raise ShapeMismatch(f"coordinate matrix must be {source.dim}x{target.dim}")
        t.setflags(write=False)
        exp = cls.__new__(cls)
        exp._hold(source, target, quasi_basis, name)
        exp._t, exp._off_target = t, (0.0, "")
        return exp

    def coordinates(self, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """T, of shape d_src x d_tgt: row k holds the target coordinates of E(b_k).

        The images the constructor took T from are projected onto the target
        span; one off it by more than ``tol (1 + ||E(b_k)||_F)`` raises
        :class:`NumericIntegrityError` here instead of being projected
        silently.  :func:`conjugate_expectation` has no rule and carries
        F's residual instead, and the message names F.
        """
        worst, where = self._off_target
        if worst > tol:
            raise NumericIntegrityError(
                f"{self.name}: {where} lies off the target span "
                f"(relative residual {worst:.2e} > {tol:.1e})"
            )
        return self._t

    @property
    def coordinate_matrix(self) -> np.ndarray:
        """:meth:`coordinates` at the default tolerance."""
        return self.coordinates()

    @cached_property
    def map_matrix(self) -> np.ndarray:
        """The map on ambient coordinates, as an n^2 x n^2 matrix.

        Row-major ``vec`` convention: ``vec(E(x)) = map_matrix @ vec(x)``.
        Off the source span the map acts as E after HS-projection.  Read from
        :attr:`coordinate_matrix`: an E off its target is refused, here and by :meth:`to_json`.
        """
        s, b = self.source._flat, self.target._flat
        return b.T @ (self.coordinate_matrix.T @ np.conjugate(s))

    def index_element(self, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """The Watatani index; see :func:`watatani_index`."""
        return watatani_index(self, tol)

    def to_json(self) -> dict:
        return {
            "schema": "cstar-angles.expectation/1",
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "map_matrix": matrix_to_json(self.map_matrix),
            "quasi_basis": None
            if self._quasi is None
            else [matrix_to_json(m) for m in self.quasi_basis],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ConditionalExpectation":
        mat = matrix_from_json(payload["map_matrix"])
        n2 = int(payload["source"]["ambient_dim"]) ** 2
        if mat.shape != (n2, n2):
            raise ShapeMismatch(f"map_matrix must be {n2}x{n2}, got {mat.shape}")
        source = MatrixStarAlgebra.from_json(payload["source"])
        target = MatrixStarAlgebra.from_json(payload["target"])

        def rule(xs: np.ndarray) -> np.ndarray:
            return (xs.reshape(len(xs), -1) @ mat.T).reshape(xs.shape)

        qb = payload.get("quasi_basis")
        quasi = None if qb is None else [matrix_from_json(m) for m in qb]
        return cls(source, target, rule, quasi, name=payload.get("name", "E"))

    def __repr__(self):
        return (
            f"ConditionalExpectation({self.name}: dim {self.source.dim} -> "
            f"{self.target.dim}, ambient {self.ambient_dim})"
        )


def identity_expectation(alg: MatrixStarAlgebra) -> ConditionalExpectation:
    """The identity map of an algebra, with quasi-basis {1}."""
    return ConditionalExpectation.from_coordinates(
        alg, alg, np.eye(alg.dim), quasi_basis=(alg.unit,), name="id"
    )


def verify_expectation(
    E: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
    rng: np.random.Generator | None = None,
    positivity_samples: int = 100,
    bimodular_samples: int | None = None,
) -> VerificationReport:
    """Check the defining properties of a conditional expectation.

    Covers: E fixes the target, E maps into the target span, bimodularity
    E(b x b') = b E(x) b' over target pairs and source elements, E(1) = 1,
    and positivity of E(x*x) on random samples (sampled, not certified).
    Each runs on stacks through the coordinate matrix, unchecked.  T holds
    only the projections of E's images onto the target, so
    ``range_in_target`` is the images' own relative residual, the one
    :meth:`ConditionalExpectation.coordinates` checks.
    """
    rng = rng or mx.default_rng()
    report = VerificationReport(subject=repr(E))
    src, tgt, n = E.source, E.target, E.ambient_dim
    betas = tgt.basis_stack

    def worst(diffs: np.ndarray) -> float:
        return float(mx.row_norms(diffs.reshape(len(diffs), n * n)).max(initial=0.0))

    def apply(xs: np.ndarray) -> np.ndarray:  # unchecked: range_in_target reports
        return E._through(E._t, xs)

    report.add("fixes_target", worst(apply(betas) - betas), tol)
    report.add("range_in_target", E._off_target[0], tol)

    shape = (tgt.dim, tgt.dim, src.dim)  # the triples (b, b', x), numbered in this order
    triples = np.arange(np.prod(shape))
    if bimodular_samples is not None and len(triples) > bimodular_samples:
        triples = rng.choice(len(triples), size=bimodular_samples, replace=False)
    left, right, x = np.unravel_index(triples, shape)
    res = 0.0
    # charged per triple: its two target factors, its product, E of it, E(x)
    # and the difference
    for r in mx.stack_slices(len(triples), 6 * 16 * n * n):
        b, b2 = betas[left[r]], betas[right[r]]
        images = tgt.combine(E._t[x[r]])  # E(x), from its row of T
        res = max(res, worst(apply(b @ src.basis_stack[x[r]] @ b2) - b @ images @ b2))
    report.add("bimodular", res, tol)

    report.add("unital", worst(apply(src.unit[None]) - tgt.unit), tol)

    # the samples, one random_element call each
    xs = np.reshape([src.random_element(rng) for _ in range(positivity_samples)], (-1, n, n))
    values = apply(mx.adjoint(xs) @ xs)
    smallest = np.linalg.eigvalsh((values + mx.adjoint(values)) / 2.0)[:, :1]
    skew = mx.operator_norms(values - mx.adjoint(values))
    res = float(max(0.0, -smallest.min(initial=0.0), skew.max(initial=0.0)))
    report.add("positive_on_samples", res, tol * 10)
    return report


def verify_quasi_basis(
    E: ConditionalExpectation,
    lambdas: Sequence[np.ndarray],
    tol: float = mx.DEFAULT_TOL,
) -> bool:
    """Check both reconstruction identities on every source basis element.

    x = sum_i E(x l_i) l_i* and x = sum_i l_i E(l_i* x), each within
    ``tol (1 + ||x||_F)``, for every source basis element x at once, as
    d_src x d_src coordinate sums.  With R_y (row k = coords(b_k y)) and L_y
    (row k = coords(y b_k)) from
    :meth:`MatrixStarAlgebra.multiplication_matrices`, and E in source
    coordinates T B (B holds the target basis in source coordinates), row k
    of sum_i R_{l_i} T B R_{l_i*} holds coords(sum_i E(b_k l_i) l_i*), and
    row k of sum_i L_{l_i*} T B L_{l_i} holds coords(sum_i l_i E(l_i* b_k)).
    The basis is orthonormal, so the row norms of each sum minus the
    identity are the Frobenius residuals of the identities on the source.

    The sums run on the HS projections p_i of the nonzero l_i onto the
    source, and B on that of the target basis.  What they leave off, the
    d_i = l_i - p_i and the target basis's part off the source (Frobenius
    norm e over the whole basis, from the one pass of
    :meth:`MatrixStarAlgebra.basis_over` that reads B over the source),
    moves either residual by at most
    ||T||_F (sum_i ||d_i|| (2 ||l_i|| + ||d_i||) + e sum_i ||l_i||^2) in
    Frobenius norms (each x has operator norm at most 1), and that charge
    is taken off the bound: the check passes only where the identities hold
    with E acting, as :attr:`ConditionalExpectation.map_matrix` does, after
    HS projection onto the source.  An l_i off the source by more than
    ``tol (1 + ||l_i||_F)`` raises :class:`NotInAlgebra`.  An E whose images
    leave its target by more than ``tol`` (see
    :meth:`ConditionalExpectation.coordinates`) is no expectation onto that
    target, and fails the check.
    """
    src, n = E.source, E.ambient_dim
    lams = _stack_of(lambdas, n)
    lams = lams[lams.reshape(len(lams), n * n).any(axis=1)]  # a zero element adds nothing
    coords = src.hs_coordinates(lams)
    sizes = mx.row_norms(lams.reshape(len(lams), n * n))
    offs = mx.row_norms((lams - src.combine(coords)).reshape(len(lams), n * n))
    if np.any(offs > tol * (1.0 + sizes)):
        raise NotInAlgebra("quasi-basis element outside the source algebra")
    onto, off, _ = E.target._basis_over(src, True)
    return _quasi_basis_core(E, coords, onto, np.linalg.norm(off), tol, sizes, offs)


def _quasi_basis_core(
    E: ConditionalExpectation,
    coords: np.ndarray,
    onto: np.ndarray,
    off_target: float,
    tol: float,
    sizes: np.ndarray | None = None,
    offs: np.ndarray | float = 0.0,
) -> bool:
    """:func:`verify_quasi_basis`, from the quasi-basis and the target basis in source coordinates.

    ``coords`` holds the source coordinates of the l_i, one row each (the
    p_i), and ``onto`` those of E's target basis, with ``off_target`` the
    Frobenius norm of that basis's part off the source, as one pass of
    :meth:`MatrixStarAlgebra.basis_over` takes them (:func:`_intermediate`).
    ``sizes`` and ``offs`` hold the ||l_i||_F and ||d_i||_F of a family
    given as matrices; a family given by its coordinates lies on the source
    (d_i = 0, and ||l_i||_F is the norm of its row).

    On a source with a product table every multiplication matrix is a row
    gather (:meth:`MatrixStarAlgebra.multiplication_gathers`), so an element
    with w nonzero coordinates costs four gathers of w d^2 each; otherwise
    it costs two multiplication matrices and dense products of
    d^2 dim(target).
    """
    src = E.source
    if sizes is None:
        sizes = mx.row_norms(coords)
    try:
        t = E.coordinates(tol)
    except NumericIntegrityError:
        return False
    charge = np.linalg.norm(t) * (np.sum(offs * (2.0 * sizes + offs)) + off_target * sizes @ sizes)
    d = src.dim
    sums = np.zeros((2, d, d), dtype=np.complex128)  # the two reconstructions
    p = t @ onto
    # charged per element: its two multiplication matrices and their
    # adjoints, or its gathered rows and the half products
    for rows in mx.stack_slices(len(coords), 4 * 16 * d * d):
        on_right = src.multiplication_gathers(coords[rows], left=False)
        if on_right is None:
            # on the span with the HS inner product, multiplication by l* is the
            # adjoint of multiplication by l: R_{l*} = R_l* and L_{l*} = L_l*
            elements = src.combine(coords[rows])
            on_right = src.multiplication_matrices(elements, left=False)
            sums[0] += np.tensordot(on_right @ t, onto @ mx.adjoint(on_right), axes=([0, 2], [0, 1]))
            on_left = src.multiplication_matrices(elements, left=True)
            sums[1] += np.tensordot(mx.adjoint(on_left) @ t, onto @ on_left, axes=([0, 2], [0, 1]))
        else:
            # with P = T B the terms are R P R* and L* P L = conj(M) P conj(M)*,
            # M = L^T the matrix of left multiplication, whose rows the left
            # gathers hold
            sums[0] += _gather_sandwich(*on_right, p)
            index, weights = src.multiplication_gathers(coords[rows], left=True)
            sums[1] += _gather_sandwich(index, np.conjugate(weights), p)
    residuals = mx.row_norms((sums - np.eye(d)).reshape(2 * d, d))
    return bool(np.all(residuals <= 2.0 * tol - charge))  # tol (1 + ||x||_F), ||x||_F = 1


def watatani_index(
    E: ConditionalExpectation, tol: float = mx.DEFAULT_TOL
) -> np.ndarray:
    """sum_i l_i l_i* for the stored quasi-basis, with its guarantees checked.

    A quasi-basis held as its source coordinates Y on a source with a
    product table is summed in coordinates (:func:`_table_index`); any other
    is summed as dense products.  The result must be self-adjoint, commute
    with every source basis element (centrality) and have spectrum >= 1;
    violations raise :class:`NumericIntegrityError` since they indicate a
    broken quasi-basis.  Centrality is tested in coordinates, against an
    upper bound of the largest commutator norm (:func:`_centrality_residual`).
    The element and the bounds of :class:`_IndexChecks` are computed once
    per expectation and kept on it.  Every call tests against its own
    ``tol``, each test by its bound first: an exact operator norm or
    eigenvalue is taken, and kept, only for a test the bound does not
    settle, and every error reports the exact value.
    """
    if E._index_cache is None:
        if E._quasi is None:
            raise NoQuasiBasis("expectation carries no quasi-basis")
        ind = _table_index(E.source, E._quasi) if E._quasi.ndim == 2 else None
        if ind is None:
            ind = mx.sum_times_adjoint(E.quasi_stack)
        ind.setflags(write=False)
        E._index_cache = _IndexChecks(ind, E.source)
    checks = E._index_cache
    if checks.skew_bound > tol and checks.skew > tol:
        raise NumericIntegrityError("index element is not self-adjoint")
    if checks.exceeds(checks.central, tol):
        raise NumericIntegrityError(f"index element not central (residual {checks.central:.2e})")
    if checks.smallest_bound < 1.0 - tol and checks.smallest < 1.0 - tol:
        raise NumericIntegrityError(f"index has eigenvalue {checks.smallest:.6f} below 1")
    return checks.ind


class _IndexChecks:
    """Ind(E), the residual of its centrality, and the bounds that settle its other checks.

    Each bound lies on the passing side of the value it stands for:
    ``skew_bound`` = ||ind - ind*||_F >= ||ind - ind*||, ``scale_bound`` =
    1 + ||ind||_F / sqrt(n) <= 1 + ||ind||, and ``smallest_bound``, the
    Gershgorin bound of the Hermitian part h = (ind + ind*) / 2
    (:func:`~cstar_angles.matrices.gershgorin_lower`), <= its smallest
    eigenvalue.  The exact values ``skew``, ``scale`` and ``smallest`` are
    computed on first read and kept; h is formed again for the eigensolve,
    not held.
    """

    def __init__(self, ind: np.ndarray, source: MatrixStarAlgebra):
        self.ind = ind
        self.central = _centrality_residual(source, ind)
        self.skew_bound = mx.frobenius_norm(ind - mx.adjoint(ind))
        self.scale_bound = 1.0 + mx.frobenius_norm(ind) / math.sqrt(len(ind))
        self.smallest_bound = mx.gershgorin_lower(self.hermitian)

    @cached_property
    def skew(self) -> float:
        return mx.operator_norm(self.ind - mx.adjoint(self.ind))

    @cached_property
    def scale(self) -> float:
        return 1.0 + mx.operator_norm(self.ind)

    @property
    def hermitian(self) -> np.ndarray:
        return (self.ind + mx.adjoint(self.ind)) / 2.0

    @cached_property
    def smallest(self) -> float:
        return float(np.linalg.eigvalsh(self.hermitian)[0])

    def exceeds(self, residual: float, tol: float) -> bool:
        """Whether ``residual`` > tol (1 + ||ind||), settled by ``scale_bound`` where it can be."""
        return residual > tol * self.scale_bound and residual > tol * self.scale


def _table_index(alg: MatrixStarAlgebra, y: np.ndarray) -> np.ndarray | None:
    """sum_i l_i l_i* from the l_i's coordinates Y over ``alg``, or None without a product table.

    l_i* has coordinates conj(Y) S (S = :meth:`MatrixStarAlgebra.star_coordinates`),
    and coords(l_i l_i*) = L_{l_i} coords(l_i*), one row gather of w d work
    for an l_i of w nonzero coordinates
    (:meth:`MatrixStarAlgebra.multiplication_gathers`); the sum takes one
    combine, where the dense sum is q n^3.
    """
    gathers = alg.multiplication_gathers(y, left=True)
    if gathers is None:
        return None
    stars = (np.conjugate(y) @ alg.star_coordinates())[:, :, None]
    return alg.combine(_gather_times(*gathers, stars).sum(axis=0)[:, 0])


def _centrality_residual(alg: MatrixStarAlgebra, x: np.ndarray) -> float:
    """An upper bound of max_k ||[x, b_k]|| over the basis.

    With P the HS projection onto the span, the commutators [P x, b_k] have
    coordinates coords(P x b_k) - coords(b_k P x), rows of
    :meth:`MatrixStarAlgebra.multiplication_matrices`, whose norm is their
    Frobenius norm, and ||[x - P x, b_k]|| <= 2 ||x - P x||_F, since
    ||b_k|| <= ||b_k||_F = 1.
    """
    projected = alg.project(x)[None]
    commutators = (
        alg.multiplication_matrices(projected, left=True)[0]
        - alg.multiplication_matrices(projected, left=False)[0]
    )
    off = mx.frobenius_norm(x - projected[0])
    return float(mx.row_norms(commutators).max()) + 2.0 * off


def restrict_expectation(
    E: ConditionalExpectation,
    C: MatrixStarAlgebra,
    F: ConditionalExpectation,
    tol: float = mx.DEFAULT_TOL,
) -> ConditionalExpectation:
    """E restricted to the intermediate target(F) = C, with derived quasi-basis {F(l_i)}.

    Raises :class:`NotIntermediate` unless F's target spans C, and then
    unless F's source spans E's and target(E) <= target(F) <= source(E),
    each within ``tol`` (:func:`_intermediate`).  The restriction
    (:func:`_restrict_core`) reads F only as the record those checks
    return, so neither basis is projected twice.  The restriction's source
    is F's target.  The F(l_i) whose norm is at most ``tol`` times the
    largest are left out of the derived quasi-basis (:func:`_restrict_core`).
    """
    if not F.target.same_span(C, tol):
        raise NotIntermediate("F does not map onto C")
    return _restrict_core(E, _intermediate(E, F, tol), tol)


class _Intermediate(NamedTuple):
    """A compatible intermediate C = target(F), read in the coordinates of A = source(E).

    ``t`` is F's coordinate matrix with its rows over A's basis, ``c_on_a``
    C's basis over A and ``b_on_c`` the basis of B = target(E) over C, each
    from the pass that tests its containment
    (:meth:`MatrixStarAlgebra.basis_over`), with ``b_off_c`` the Frobenius
    norm of B's basis off C from that pass; ``hs`` is F on A's HS
    coordinates, ``t @ c_on_a``.  F itself, and its quasi-basis, are not kept.
    """

    target: MatrixStarAlgebra
    t: np.ndarray
    c_on_a: np.ndarray
    b_on_c: np.ndarray
    b_off_c: float
    hs: np.ndarray


def _intermediate(E: ConditionalExpectation, F: ConditionalExpectation, tol: float):
    """The checks of :func:`compatibility_residual`, at ``tol``; returns F as a record.

    Raises :class:`NotIntermediate` unless F's source spans A = source(E),
    then unless target(E) <= target(F), then unless target(F) <= A.  Only
    then is F's coordinate matrix read, on A (:func:`_coordinates_on`), into
    the :class:`_Intermediate` returned.
    """
    A = E.source
    read_t = _coordinates_on(A, F, tol)
    b_on_c, off, sizes = E.target._basis_over(F.target, True)
    if _misses(off, sizes, tol):
        raise NotIntermediate("target(E) is not contained in target(F)")
    c_on_a = F.target.basis_over(A, tol)
    if c_on_a is None:
        raise NotIntermediate("target(F) is not contained in the source")
    t = read_t()
    return _Intermediate(F.target, t, c_on_a, b_on_c, float(np.linalg.norm(off)), t @ c_on_a)


def _coordinates_on(
    A: MatrixStarAlgebra, F: ConditionalExpectation, tol: float
) -> Callable[[], np.ndarray]:
    """A reader of F's coordinate matrix T with its rows over A's basis {a_j}.

    The one place an F is read on an algebra object other than its source:
    raises :class:`NotIntermediate` at once unless F's source spans A, at
    ``tol``, and the reader gives Q T, Q[j] = a_j over F's source basis.
    T is read, at the default tolerance, only when the reader is called.
    """
    if F.source is A:
        return F.coordinates
    if not A.same_span(F.source, tol):
        raise NotIntermediate("E and F must share their source algebra")
    return lambda: A.basis_over(F.source) @ F.coordinate_matrix


def _restrict_core(E: ConditionalExpectation, member, tol: float) -> ConditionalExpectation:
    """:func:`restrict_expectation` after its checks, from the record :func:`_intermediate` returns.

    E(c_j) = sum_k <b_k, c_j> E(b_k), so the coordinate matrix restricts by
    rows: ``member.c_on_a`` (row j holds the <b_k, c_j> for C's basis
    {c_j}) times E's.  The derived quasi-basis is held as its coordinates
    over C, Y = E's Y, read as E holds it, times ``member.t``, with the rows
    whose norm is at most ``tol`` times the largest row norm left out: exact
    zeros add nothing to either identity, and an F read on another algebra
    object of A's span (:func:`_coordinates_on`) leaves rounding noise where
    F on A gives zeros.  It is checked from Y by the core of
    :func:`verify_quasi_basis` on ``member.b_on_c``, and
    :class:`NoQuasiBasis` is raised when it fails.
    """
    quasi = E._quasi_coords
    if quasi is not None:
        quasi = quasi @ member.t  # the F(l_i), zeros and noise left out
        norms = mx.row_norms(quasi)
        quasi = quasi[norms > tol * norms.max(initial=0.0)]
        quasi.setflags(write=False)  # shared by the expectation and the check
    restricted = ConditionalExpectation.from_coordinates(
        member.target, E.target, member.c_on_a @ E.coordinates(tol), quasi_basis=quasi,
        name=f"{E.name}|C",
    )
    if quasi is not None and not _quasi_basis_core(
        restricted, quasi, member.b_on_c, member.b_off_c, tol
    ):
        raise NoQuasiBasis("derived quasi-basis {F(l_i)} failed verification")
    return restricted


def compatibility_residual(
    E: ConditionalExpectation, F: ConditionalExpectation
) -> float:
    """max over source basis of ||E(x) - E(F(x))||.

    F's source must span E's, with target(E) <= target(F) <= source, each
    within the default tolerance (:func:`_intermediate`); otherwise
    :class:`NotIntermediate` is raised.  The residual itself
    (:func:`_compatibility_core`) reads F on A's HS coordinates from the
    record those checks return.
    """
    return float(_compatibility_core(E, [_intermediate(E, F, mx.DEFAULT_TOL)])[0])


def _compatibility_core(E: ConditionalExpectation, members) -> np.ndarray:
    """:func:`compatibility_residual` after its checks, for each :func:`_intermediate` record.

    Both terms come from coordinate matrices, as target coordinates of E
    for every source basis element at once: F(x) in source coordinates is
    the record's ``hs``.  Each member's rows go through their own Frobenius
    screen (:func:`~cstar_angles.matrices.norm_screen`), and the survivors
    of every member through one stacked SVD call, a chunk of
    ``STACK_BUDGET_BYTES`` at a time.  A member whose rows are all below
    ``NOISE_FLOOR`` reports its largest Frobenius norm, as
    :func:`~cstar_angles.matrices.max_operator_norm` does.
    """
    n = E.ambient_dim
    t_e = E.coordinate_matrix
    residuals = np.zeros(len(members))
    kept, owners = [], []
    for i, member in enumerate(members):
        # F(x) in source coordinates, then E of it in target coordinates
        diff = t_e - member.hs @ t_e
        # the target basis is HS-orthonormal, so row norms are Frobenius norms
        frobenius = np.linalg.norm(diff, axis=1)
        residuals[i] = frobenius.max(initial=0.0)
        if residuals[i] >= mx.NOISE_FLOOR:
            keep = mx.norm_screen(frobenius, n)
            kept.append(diff[keep])
            owners.append(np.full(len(keep), i))
    if kept:
        rows, owners = np.concatenate(kept), np.concatenate(owners)
        residuals[owners] = 0.0
        for chunk in mx.stack_slices(len(rows), 16 * n * n):
            norms = mx.operator_norms(E.target.combine(rows[chunk]))
            np.maximum.at(residuals, owners[chunk], norms)
    return residuals


def is_compatible(
    E: ConditionalExpectation, F: ConditionalExpectation, tol: float = mx.DEFAULT_TOL
) -> bool:
    """Membership test for the compatible-intermediate condition E = E|_C o F."""
    return compatibility_residual(E, F) <= tol


def conjugate_expectation(
    F: ConditionalExpectation, u, tol: float = mx.DEFAULT_TOL
) -> ConditionalExpectation:
    """Ad_u o F o Ad_u*: maps onto u C u*, quasi-basis {u eta_i u*}.

    u must normalize F's source A: :class:`NotIntermediate` is raised, before
    anything is built, unless every u* b_k u lies in A within ``tol``
    (:meth:`MatrixStarAlgebra.contains_all`), since F is only defined on A.
    """
    u = mx.as_matrix(u)
    n = F.ambient_dim
    if u.shape != (n, n):
        raise ShapeMismatch("unitary must live in the ambient algebra")
    if mx.screened_norms((mx.adjoint(u) @ u - np.eye(n))[None], tol)[0] > tol:
        raise NotUnitary("matrix is not unitary")
    ustar = mx.adjoint(u)
    moved = F.source._member_coordinates(ustar @ F.source.basis_stack @ u, tol)
    if moved is None:
        raise NotIntermediate("u does not normalize the source of F")
    # conjugation preserves HS-orthonormality, so the basis maps over directly
    new_target = MatrixStarAlgebra.from_orthonormal(u @ F.target.basis_stack @ ustar)
    quasi = None if F.quasi_stack is None else u @ F.quasi_stack @ ustar
    # row k: F(u* b_k u) in F's target basis, which is u F(u* b_k u) u* in
    # the conjugated one
    t = moved @ F._t
    f_u = ConditionalExpectation.from_coordinates(F.source, new_target, t, quasi, f"{F.name}_u")
    # F's off-target residual, measured on F's images of the source basis: no
    # rule gives F_u's, and F_u leaves u C u* exactly when F leaves C (for u
    # normalizing the source)
    worst, where = F._off_target
    f_u._off_target = (worst, f"{where} (in {F.name}, which it is made from)")
    return f_u


@dataclass(frozen=True)
class CauchySchwarzResult:
    lhs: float
    rhs: float
    holds: bool


def cauchy_schwarz_check(
    E: ConditionalExpectation, x, y, tol: float = mx.DEFAULT_TOL
) -> CauchySchwarzResult:
    """||E(x*y)|| <= ||E(x*x)||^(1/2) ||E(y*y)||^(1/2), the module inequality.

    Equality does not imply linear dependence of {x, y}; see the tests for
    the diagonal witness.
    """
    x, y = mx.as_matrix(x), mx.as_matrix(y)
    # E(x* y), E(x* x) and E(y* y) from one stack
    products = mx.adjoint(np.stack([x, x, y])) @ np.stack([y, x, y])
    lhs, xx, yy = mx.operator_norms(E.on_source(products))
    rhs = np.sqrt(xx) * np.sqrt(yy)
    return CauchySchwarzResult(lhs=float(lhs), rhs=float(rhs), holds=lhs <= rhs + tol)


# ---------------------------------------------------------------------------
# JSON wire format: matrices as arrays of [re, im] pairs, row-major


def matrix_to_json(m) -> dict:
    a = mx.as_matrix(m)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in np.ravel(a)],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    rows, cols = int(payload["rows"]), int(payload["cols"])
    entries = payload["entries"]
    if len(entries) != rows * cols:
        raise ShapeMismatch("entry count does not match rows*cols")
    flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    return flat.reshape(rows, cols)
