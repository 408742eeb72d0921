"""Matrix star-algebras and finite-index conditional expectations.

A :class:`MatrixStarAlgebra` is a unital *-subalgebra of M_n(C) described by
a spanning set; a Hilbert-Schmidt-orthonormal basis is derived once and all
membership questions are answered against it.  A
:class:`ConditionalExpectation` is a linear idempotent map between nested
algebras, stored as a callable on stacks of ambient matrices together with
one lazily built coordinate matrix in the two algebras' orthonormal bases
(stacks of elements, the checks below and the full ambient matrix go
through it), optionally carrying a quasi-basis, i.e. a finite family {l_i}
with

    x = sum_i E(x l_i) l_i*  =  sum_i l_i E(l_i* x)        for all x,

which witnesses finite index.  The Watatani index is sum_i l_i l_i*, a
positive invertible central element independent of the quasi-basis.

Both identities and the centrality of the index are checked in source
coordinates, through the products of coordinate rows with basis elements
(:meth:`MatrixStarAlgebra.multiplication_matrices`), on every algebra.

Everything here is a pure function over immutable values; arrays are
write-protected after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Callable, Sequence
from types import SimpleNamespace

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
# looked for on a basis with disjoint supports.
GATHER_MIN_DIM = 20


class MatrixStarAlgebra:
    """A unital *-subalgebra of M_n(C) given by a spanning set of matrices.

    The orthonormal basis is stored once, as the read-only rows of ``_flat``
    (shape d x n^2); ``basis`` holds n x n views into those rows.  The
    spanning set is one read-only (k, n, n) ``spanning_stack``, with
    ``spanning_set`` its views; both share the basis storage when the
    spanning set is the basis.

    Products go through one primitive, :meth:`multiplication_matrices`, the
    coordinates of y b_k or b_k y for every basis element b_k: the
    centrality tests of index elements (:func:`_centrality_residual`),
    :func:`verify_quasi_basis`, the module Gram matrix and left
    multiplication all read it.  A basis of scaled partial permutation
    matrices closed under products up to scalars (group algebras and their
    subgroup slices) has a product table, ``_table``, built on first read,
    and the primitive scatters by it; on any other basis it takes dense
    n x n products.
    """

    def __init__(self, spanning_set: Sequence[np.ndarray], basis: Sequence[np.ndarray]):
        if len(spanning_set) == 0:
            raise EmptyAlgebra("spanning set is empty")
        n = np.shape(spanning_set[0])[0]
        self.ambient_dim = n
        self._flat = _stack_of(basis, n).reshape(len(basis), n * n)
        self._flat.setflags(write=False)
        self._supports = self._disjoint_supports()
        self.basis = tuple(self.basis_stack)
        if spanning_set is basis:
            self.spanning_stack = self.basis_stack
            self.spanning_set = self.basis
        else:
            self.spanning_stack = _stack_of(spanning_set, n)
            self.spanning_stack.setflags(write=False)
            self.spanning_set = tuple(self.spanning_stack)

    @classmethod
    def from_spanning(cls, mats: Sequence[np.ndarray], cutoff: float = mx.RANK_CUTOFF):
        """Build from an arbitrary (possibly redundant) family or (k, n, n) stack."""
        if len(mats) == 0:
            raise EmptyAlgebra("spanning set is empty")
        basis = mx.orthonormalize(mats, cutoff=cutoff)
        basis.setflags(write=False)  # nothing else holds it: enter uncopied
        return cls(mats, basis)

    @classmethod
    def from_orthonormal(cls, mats: Sequence[np.ndarray]):
        """Build from a family known to be HS-orthonormal (kept verbatim)."""
        return cls(mats, mats)

    @property
    def dim(self) -> int:
        return self._flat.shape[0]

    @property
    def unit(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=np.complex128)

    @property
    def basis_stack(self) -> np.ndarray:
        """The orthonormal basis as one read-only (d, n, n) view of ``_flat``."""
        n = self.ambient_dim
        return self._flat.reshape(self.dim, n, n)

    def _disjoint_supports(self):
        """Index arrays of the nonzero basis entries, or None.

        Set when the basis has at least ``GATHER_MIN_DIM`` elements and no two
        of them share a nonzero entry (exact zeros decide).  ``positions``
        lists the flat positions of the nonzero entries ordered by owning
        basis element, ``starts`` cuts that list into one run per element,
        and ``conj_values`` holds the conjugated entries.  ``owner`` maps
        every flat position to the basis element owning it and ``entries``
        to its entry (owner 0 and entry 0 off every support).
        """
        d, n = self.dim, self.ambient_dim
        if d < GATHER_MIN_DIM:
            return None
        support = self._flat != 0
        if support.sum(axis=0).max() > 1 or not support.any(axis=1).all():
            return None
        owners, positions = np.nonzero(support)
        owner = np.zeros(n * n, dtype=np.intp)
        owner[positions] = owners
        entries = np.zeros(n * n, dtype=np.complex128)
        entries[positions] = self._flat[owners, positions]
        return SimpleNamespace(
            positions=positions, starts=np.searchsorted(owners, np.arange(d)),
            conj_values=np.conjugate(entries[positions]), owner=owner, entries=entries,
        )

    @cached_property
    def _table(self):
        """The product table of a monomial basis, or None.

        Looked for only on a basis with disjoint supports (so from
        ``GATHER_MIN_DIM`` elements on) whose elements b_i are each v_i
        times a partial permutation matrix (one value v_i on every nonzero
        entry, at most one per row and column).  Then b_i b_j = scale[i, j]
        b_index[i, j], with scale 0 (and index 0) for a zero product; it is
        what :meth:`multiplication_matrices` scatters by.  Built from the
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

        index = np.zeros((d, d), dtype=np.int32)
        scale = np.zeros((d, d), dtype=values.dtype)
        # charged per left factor: the composed maps, their comparison maps
        # and two boolean masks
        for block in mx.stack_slices(d, 10 * d * n):
            found = owning(maps[block][:, maps[:, :n]])
            if found is None:
                return None
            index[block], nonempty = found
            scale[block] = np.where(
                nonempty, values[block, None] * values / values[index[block]], 0.0
            )
        for a in (index, scale):
            a.setflags(write=False)
        return SimpleNamespace(index=index, scale=scale)

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

    def project(self, x) -> np.ndarray:
        return self.combine(self.hs_coordinates(x))

    def membership_residual(self, x) -> float:
        return mx.frobenius_norm(self.project(x) - mx.as_matrix(x))

    def contains(self, x, tol: float = mx.DEFAULT_TOL) -> bool:
        return self.membership_residual(x) <= tol * (1.0 + mx.frobenius_norm(x))

    def contains_all(self, xs, tol: float = mx.DEFAULT_TOL) -> bool:
        """:meth:`contains` for every matrix of a (k, n, n) stack at once."""
        xs = mx.as_stack(xs)
        flat = xs.reshape(len(xs), xs.shape[1] * xs.shape[2])
        for rows in mx.stack_slices(len(xs), 3 * 16 * flat.shape[1]):
            recon = self.project(xs[rows]).reshape(-1, flat.shape[1])
            residual = np.linalg.norm(recon - flat[rows], axis=1)
            if np.any(residual > tol * (1.0 + np.linalg.norm(flat[rows], axis=1))):
                return False
        return True

    def coordinates(self, x, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """Orthonormal-basis coordinates; raises NotInAlgebra off the span."""
        if not self.contains(x, tol):
            raise NotInAlgebra("element is not in the algebra span")
        return self.hs_coordinates(x)

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
            i, j = np.nonzero(table.scale)
            out = np.zeros((len(ys), d, d), dtype=np.complex128)
            terms = coords[:, i if left else j] * table.scale[i, j]
            out[:, j if left else i, table.index[i, j]] = terms
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
        return self.contains_all(other.basis_stack, tol) and other.contains_all(
            self.basis_stack, tol
        )

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return mx.random_combination(self.basis, rng)

    def to_json(self) -> dict:
        return {
            "schema": "cstar-angles.algebra/1",
            "ambient_dim": self.ambient_dim,
            "spanning_set": [matrix_to_json(m) for m in self.spanning_set],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MatrixStarAlgebra":
        mats = [matrix_from_json(m) for m in payload["spanning_set"]]
        return cls.from_spanning(mats)

    def __repr__(self):
        return f"MatrixStarAlgebra(dim={self.dim}, ambient={self.ambient_dim})"


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
    n, flat = alg.ambient_dim, alg._flat

    def span_residual_rows(rows: np.ndarray) -> np.ndarray:
        coeffs = np.conjugate(flat @ np.conjugate(rows).T)
        recon = coeffs.T @ flat
        return np.linalg.norm(recon - rows, axis=1)

    report.add("unit_in_span", alg.membership_residual(alg.unit), tol)

    adjoints = np.stack([np.ravel(mx.adjoint(b)) for b in alg.basis])
    report.add("adjoint_closed", float(span_residual_rows(adjoints).max()), tol)

    d = alg.dim
    pairs = [(i, j) for i in range(d) for j in range(d)]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = mx.default_rng()
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[k] for k in idx]
    worst = 0.0
    chunk = 2048
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        rows = np.stack([np.ravel(alg.basis[i] @ alg.basis[j]) for i, j in block])
        worst = max(worst, float(span_residual_rows(rows).max()))
    report.add("product_closed", worst, tol)
    return report


# ---------------------------------------------------------------------------
# conditional expectations


class ConditionalExpectation:
    """A linear idempotent B-bimodular positive unital map E: A -> B.

    ``apply_fn`` takes a (k, n, n) stack of elements and returns the
    (k, n, n) stack of their images; it must be defined (at least) on the
    span of ``source``.  The generic constructor :meth:`from_rule` extends
    any rule given on single basis elements by HS-projection onto the
    source span.  ``quasi_basis`` is the family {l_i} witnessing finite
    index, when known.

    Besides the callable, an expectation has one cached matrix in the
    algebras' own orthonormal coordinates, :meth:`coordinates`; stacks of
    source elements (:meth:`on_source`), the checks and :attr:`map_matrix`
    go through it.
    """

    def __init__(
        self,
        source: MatrixStarAlgebra,
        target: MatrixStarAlgebra,
        apply_fn: Callable[[np.ndarray], np.ndarray],
        quasi_basis: Sequence[np.ndarray] | None = None,
        name: str = "E",
    ):
        if source.ambient_dim != target.ambient_dim:
            raise ShapeMismatch("source and target must share the ambient algebra")
        self.source = source
        self.target = target
        self._apply = apply_fn
        # one read-only (q, n, n) stack; quasi_basis holds views into it
        self.quasi_stack = None
        self.quasi_basis = None
        if quasi_basis is not None:
            self.quasi_stack = _stack_of(quasi_basis, source.ambient_dim)
            self.quasi_stack.setflags(write=False)
            self.quasi_basis = tuple(self.quasi_stack)
        self.name = name
        self._index_cache: np.ndarray | None = None
        # (T, worst relative off-target residual, its source basis index)
        self._coords: tuple[np.ndarray, float, int] | None = None

    def __call__(self, x) -> np.ndarray:
        return self._apply(mx.as_matrix(x)[None])[0]

    def on_source(self, xs) -> np.ndarray:
        """E on a (k, n, n) stack of source elements, through :meth:`coordinates`.

        Off the source span this acts as :attr:`map_matrix` does, as E after
        HS-projection onto the source, which may differ from E itself.
        """
        coords = self.source.hs_coordinates(mx.as_stack(xs))
        return self.target.combine(coords @ self.coordinate_matrix)

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
        """Extend ``rule`` (given on source basis elements) linearly."""
        images = np.stack([np.ravel(rule(b)) for b in source.basis])
        n = source.ambient_dim

        def apply_fn(xs: np.ndarray) -> np.ndarray:
            coords = source.hs_coordinates(xs)
            return (coords @ images).reshape(coords.shape[:-1] + (n, n))

        return cls(source, target, apply_fn, quasi_basis, name=name)

    @classmethod
    def from_coordinates(
        cls,
        source: MatrixStarAlgebra,
        target: MatrixStarAlgebra,
        coordinate_matrix: np.ndarray,
        quasi_basis: Sequence[np.ndarray] | None = None,
        name: str = "E",
    ) -> "ConditionalExpectation":
        """The map with the given :attr:`coordinate_matrix`, extended as :meth:`from_rule` is."""
        t = np.array(coordinate_matrix, dtype=np.complex128)
        if t.shape != (source.dim, target.dim):
            raise ShapeMismatch(f"coordinate matrix must be {source.dim}x{target.dim}")
        t.setflags(write=False)

        def apply_fn(xs: np.ndarray) -> np.ndarray:
            return target.combine(source.hs_coordinates(xs) @ t)

        exp = cls(source, target, apply_fn, quasi_basis, name=name)
        exp._coords = (t, 0.0, 0)
        return exp

    def coordinates(self, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """T, of shape d_src x d_tgt: row k holds the target coordinates of E(b_k).

        Built once, with one call of the rule per chunk of source basis
        elements (the rule takes stacks).  An image off the target span by
        more than ``tol (1 + ||E(b_k)||_F)`` raises
        :class:`NumericIntegrityError` instead of being projected silently.
        On the source span, E(y) = sum_m phi_m(y) beta_m over the target
        basis {beta_m}, with the linear functional
        phi_m(y) = sum_p vec(y)[p] (conj(S)^T T)[p, m] for the source basis
        rows S.
        """
        if self._coords is None:
            self._coords = self._build_coordinates()
        t, worst, k = self._coords
        if worst > tol:
            raise NumericIntegrityError(
                f"{self.name}: image of source basis element {k} lies off the "
                f"target span (relative residual {worst:.2e} > {tol:.1e})"
            )
        return t

    @property
    def coordinate_matrix(self) -> np.ndarray:
        """:meth:`coordinates` at the default tolerance."""
        return self.coordinates()

    def _build_coordinates(self) -> tuple[np.ndarray, float, int]:
        src, tgt = self.source, self.target
        blocks, ratios = [], []
        for rows in mx.stack_slices(src.dim, src._flat[0].nbytes):
            images = self._apply(src.basis_stack[rows])
            coords = tgt.hs_coordinates(images)
            flat = images.reshape(len(images), -1)
            off = np.linalg.norm(coords @ tgt._flat - flat, axis=1)
            ratios.append(off / (1.0 + np.linalg.norm(flat, axis=1)))
            blocks.append(coords)
        t = np.concatenate(blocks)
        t.setflags(write=False)
        ratios = np.concatenate(ratios)
        k = int(np.argmax(ratios))
        return t, float(ratios[k]), k

    @cached_property
    def map_matrix(self) -> np.ndarray:
        """The map on ambient coordinates, as an n^2 x n^2 matrix.

        Row-major ``vec`` convention: ``vec(E(x)) = map_matrix @ vec(x)``.
        Off the source span the map acts as E after HS-projection.
        """
        s, b = self.source._flat, self.target._flat
        return b.T @ (self.coordinate_matrix.T @ np.conjugate(s))

    def index_element(self, tol: float = mx.DEFAULT_TOL) -> np.ndarray:
        """Cached Watatani index; see :func:`watatani_index`."""
        if self._index_cache is None:
            self._index_cache = watatani_index(self, tol)
        return self._index_cache

    def to_json(self) -> dict:
        n = self.ambient_dim
        return {
            "schema": "cstar-angles.expectation/1",
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "map_matrix": matrix_to_json(self.map_matrix),
            "quasi_basis": None
            if self.quasi_basis is None
            else [matrix_to_json(m) for m in self.quasi_basis],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ConditionalExpectation":
        source = MatrixStarAlgebra.from_json(payload["source"])
        target = MatrixStarAlgebra.from_json(payload["target"])
        mat = matrix_from_json(payload["map_matrix"])

        def apply_fn(xs: np.ndarray) -> np.ndarray:
            return (xs.reshape(len(xs), -1) @ mat.T).reshape(xs.shape)

        qb = payload.get("quasi_basis")
        quasi = None if qb is None else [matrix_from_json(m) for m in qb]
        return cls(source, target, apply_fn, quasi)

    def __repr__(self):
        return (
            f"ConditionalExpectation({self.name}: dim {self.source.dim} -> "
            f"{self.target.dim}, ambient {self.ambient_dim})"
        )


def identity_expectation(alg: MatrixStarAlgebra) -> ConditionalExpectation:
    """The identity map of an algebra, with quasi-basis {1}."""
    return ConditionalExpectation(
        alg, alg, lambda x: x, quasi_basis=(alg.unit,), name="id"
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
    """
    rng = rng or mx.default_rng()
    report = VerificationReport(subject=repr(E))

    res = max(mx.frobenius_norm(E(b) - b) for b in E.target.basis)
    report.add("fixes_target", res, tol)

    res = max(E.target.membership_residual(E(b)) for b in E.source.basis)
    report.add("range_in_target", res, tol)

    triples = [
        (b, x, b2) for b in E.target.basis for b2 in E.target.basis for x in E.source.basis
    ]
    if bimodular_samples is not None and len(triples) > bimodular_samples:
        idx = rng.choice(len(triples), size=bimodular_samples, replace=False)
        triples = [triples[k] for k in idx]
    res = max(
        mx.frobenius_norm(E(b @ x @ b2) - b @ E(x) @ b2) for b, x, b2 in triples
    )
    report.add("bimodular", res, tol)

    report.add("unital", mx.frobenius_norm(E(E.source.unit) - E.target.unit), tol)

    worst = 0.0
    for _ in range(positivity_samples):
        x = E.source.random_element(rng)
        value = E(mx.adjoint(x) @ x)
        herm = (value + mx.adjoint(value)) / 2.0
        smallest = float(np.linalg.eigvalsh(herm)[0])
        worst = max(worst, max(0.0, -smallest))
        worst = max(worst, mx.operator_norm(value - mx.adjoint(value)))
    report.add("positive_on_samples", worst, tol * 10)
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
    norm e over the whole basis), moves either residual by at most
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
    src, tgt, n = E.source, E.target, E.ambient_dim
    lams = _stack_of(lambdas, n)
    lams = lams[lams.reshape(len(lams), n * n).any(axis=1)]  # a zero element adds nothing
    projected = src.project(lams)
    sizes = mx.row_norms(lams.reshape(len(lams), n * n))
    offs = mx.row_norms((lams - projected).reshape(len(lams), n * n))
    if np.any(offs > tol * (1.0 + sizes)):
        raise NotInAlgebra("quasi-basis element outside the source algebra")
    try:
        t = E.coordinates(tol)
    except NumericIntegrityError:
        return False
    onto = src.hs_coordinates(tgt.basis_stack)
    off_target = mx.frobenius_norm(src.combine(onto) - tgt.basis_stack)
    charge = np.linalg.norm(t) * (offs @ (2.0 * sizes + offs) + off_target * sizes @ sizes)
    d = src.dim
    sums = np.zeros((2, d, d), dtype=np.complex128)  # the two reconstructions
    # charged per element: its two multiplication matrices and their adjoints
    for rows in mx.stack_slices(len(lams), 4 * 16 * d * d):
        # on the span with the HS inner product, multiplication by l* is the
        # adjoint of multiplication by l: R_{l*} = R_l* and L_{l*} = L_l*
        on_right = src.multiplication_matrices(projected[rows], left=False)
        sums[0] += np.tensordot(on_right @ t, onto @ mx.adjoint(on_right), axes=([0, 2], [0, 1]))
        on_left = src.multiplication_matrices(projected[rows], left=True)
        sums[1] += np.tensordot(mx.adjoint(on_left) @ t, onto @ on_left, axes=([0, 2], [0, 1]))
    residuals = mx.row_norms((sums - np.eye(d)).reshape(2 * d, d))
    return bool(np.all(residuals <= 2.0 * tol - charge))  # tol (1 + ||x||_F), ||x||_F = 1


def watatani_index(
    E: ConditionalExpectation, tol: float = mx.DEFAULT_TOL
) -> np.ndarray:
    """sum_i l_i l_i* for the stored quasi-basis, with its guarantees checked.

    The result must be self-adjoint, commute with every source basis element
    (centrality) and have spectrum >= 1; violations raise
    :class:`NumericIntegrityError` since they indicate a broken quasi-basis.
    Centrality is tested in coordinates, against an upper bound of the
    largest commutator norm (:func:`_centrality_residual`).
    """
    if E.quasi_basis is None:
        raise NoQuasiBasis("expectation carries no quasi-basis")
    n = E.ambient_dim
    ind = np.zeros((n, n), dtype=np.complex128)
    for lam in E.quasi_basis:
        if lam.any():  # a zero element adds nothing
            ind += lam @ mx.adjoint(lam)

    if mx.operator_norm(ind - mx.adjoint(ind)) > tol:
        raise NumericIntegrityError("index element is not self-adjoint")
    worst = _centrality_residual(E.source, ind)
    if worst > tol * (1.0 + mx.operator_norm(ind)):
        raise NumericIntegrityError(f"index element not central (residual {worst:.2e})")
    smallest = float(np.linalg.eigvalsh((ind + mx.adjoint(ind)) / 2.0)[0])
    if smallest < 1.0 - tol:
        raise NumericIntegrityError(f"index has eigenvalue {smallest:.6f} below 1")
    return ind


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
    """E restricted to an intermediate C, with derived quasi-basis {F(l_i)}.

    Requires target(E) <= C <= source(E) and F mapping source(E) onto C.
    The F(l_i) that are exactly zero add nothing to either identity and are
    left out of the derived quasi-basis.
    """
    if not C.contains_all(E.target.basis_stack, tol):
        raise NotIntermediate("target(E) is not contained in C")
    if not E.source.contains_all(C.basis_stack, tol):
        raise NotIntermediate("C is not contained in source(E)")
    if not F.target.same_span(C, tol):
        raise NotIntermediate("F does not map onto C")

    quasi = None
    if E.quasi_basis is not None:
        coords = F.source.hs_coordinates(E.quasi_stack) @ F.coordinate_matrix
        quasi = F.target.combine(coords[coords.any(axis=1)])  # F.on_source, zeros left out
        quasi.setflags(write=False)  # shared by the expectation and the check
    # E(c_j) = sum_k <b_k, c_j> E(b_k): the coordinate matrix restricts by rows
    restricted = ConditionalExpectation.from_coordinates(
        C,
        E.target,
        E.source.hs_coordinates(C.basis_stack) @ E.coordinates(tol),
        quasi_basis=quasi,
        name=f"{E.name}|C",
    )
    if quasi is not None and not verify_quasi_basis(restricted, quasi, tol):
        raise NoQuasiBasis("derived quasi-basis {F(l_i)} failed verification")
    return restricted


def compatibility_residual(
    E: ConditionalExpectation, F: ConditionalExpectation
) -> float:
    """max over source basis of ||E(x) - E(F(x))||.

    Both terms come from the coordinate matrices, as target coordinates of
    E for every source basis element at once; the norms go through one
    Frobenius screen and one stacked SVD.
    """
    src = E.source
    if not src.same_span(F.source):
        raise NotIntermediate("E and F must share their source algebra")
    if not F.target.contains_all(E.target.basis_stack):
        raise NotIntermediate("target(E) is not contained in target(F)")
    if not src.contains_all(F.target.basis_stack):
        raise NotIntermediate("target(F) is not contained in the source")
    t_e, t_f = E.coordinate_matrix, F.coordinate_matrix
    if F.source is not src:
        # F's coordinate rows belong to F's own source basis
        t_f = F.source.hs_coordinates(src.basis_stack) @ t_f
    # F(x) in source coordinates, then E of it in target coordinates
    f_of_x = t_f @ src.hs_coordinates(F.target.basis_stack)
    diff = t_e - f_of_x @ t_e
    # the target basis is HS-orthonormal, so row norms are Frobenius norms
    keep = mx.norm_screen(np.linalg.norm(diff, axis=1), E.ambient_dim)
    return mx.max_operator_norm(E.target.combine(diff[keep]))


def is_compatible(
    E: ConditionalExpectation, F: ConditionalExpectation, tol: float = mx.DEFAULT_TOL
) -> bool:
    """Membership test for the compatible-intermediate condition E = E|_C o F."""
    return compatibility_residual(E, F) <= tol


def conjugate_expectation(
    F: ConditionalExpectation, u, tol: float = mx.DEFAULT_TOL
) -> ConditionalExpectation:
    """Ad_u o F o Ad_u*: maps onto u C u*, quasi-basis {u eta_i u*}."""
    u = mx.as_matrix(u)
    n = F.ambient_dim
    if u.shape != (n, n):
        raise ShapeMismatch("unitary must live in the ambient algebra")
    if mx.operator_norm(mx.adjoint(u) @ u - np.eye(n)) > tol:
        raise NotUnitary("matrix is not unitary")
    ustar = mx.adjoint(u)
    # conjugation preserves HS-orthonormality, so the basis maps over directly
    new_target = MatrixStarAlgebra.from_orthonormal(
        [u @ b @ ustar for b in F.target.basis]
    )
    quasi = None
    if F.quasi_basis is not None:
        quasi = [u @ lam @ ustar for lam in F.quasi_basis]

    def apply_fn(xs: np.ndarray) -> np.ndarray:
        return u @ F._apply(ustar @ xs @ u) @ ustar

    return ConditionalExpectation(
        F.source, new_target, apply_fn, quasi_basis=quasi, name=f"{F.name}_u"
    )


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
    lhs = mx.operator_norm(E(mx.adjoint(x) @ y))
    rhs = np.sqrt(mx.operator_norm(E(mx.adjoint(x) @ x))) * np.sqrt(
        mx.operator_norm(E(mx.adjoint(y) @ y))
    )
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
