"""Dense complex-matrix kernel.

Everything downstream works with plain ``numpy`` arrays of dtype
``complex128``.  This module provides the few primitives the rest of the
package relies on: adjoints, operator norms (largest singular value),
positivity tests, Hilbert-Schmidt geometry, least-squares membership in a
matrix span, batched norm screening over stacks of matrices, and
Hilbert-Schmidt orthonormalization of (possibly redundant) spanning sets.

All tolerances are absolute, scaled by ``1 + norm`` wherever a residual is
compared, and every routine is pure.  A check compares a sound bound of
its quantity first, and takes the exact operator norm or eigenvalue only
where the bound does not settle it (:func:`screened_norms`,
:func:`smallest_eigenvalue`); the residual it reports is the quantity it
compared.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence

import numpy as np

from .errors import InvalidMatrix, NotInSpan, ShapeMismatch

DEFAULT_TOL = 1e-9
# quasi-basis checks of an expectation built from others (the formula
# route's restrictions of E, the intermediate dual G), and the off-target
# read of E that the formula route takes with them
QUASI_BASIS_TOL = 1e-8
# relative singular-value cutoff for pseudo-inverses of Gram matrices
GRAM_CUTOFF = 1e-12
# relative cutoff deciding the rank of a spanning set
RANK_CUTOFF = 1e-10
DEFAULT_SEED = 42
# Frobenius norms below this are reported as they are, without an SVD
NOISE_FLOOR = 1e-13
# largest temporary stack a batched routine builds at once
STACK_BUDGET_BYTES = 1 << 22
# orthonormalize: candidates projected against the basis so far at once
ORTHONORMALIZE_BLOCK = 128


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Seeded generator; ``ANGLES_SEED`` overrides the built-in default 42."""
    if seed is None:
        seed = int(os.environ.get("ANGLES_SEED", DEFAULT_SEED))
    return np.random.default_rng(seed)


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def operator_norm(m) -> float:
    """Largest singular value, i.e. the C*-norm in a faithful representation."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def operator_norms(mats) -> np.ndarray:
    """Operator norm of each matrix of a family or (k, n, m) stack, by stacked SVDs.

    The SVDs run a chunk of at most ``STACK_BUDGET_BYTES`` at a time, and a
    family is stacked one chunk at a time, so no copy of the whole family
    is made.
    """
    if len(mats) == 0:
        return np.zeros(0)
    item_bytes = 16 * np.size(mats[0])
    return np.concatenate([
        np.linalg.svd(as_stack(mats[rows]), compute_uv=False)[:, 0]
        for rows in stack_slices(len(mats), item_bytes)
    ])


def sum_times_adjoint(mats) -> np.ndarray:
    """sum_k m_k m_k* of a (k, n, n) stack; an exactly-zero m_k adds nothing and is skipped."""
    total = np.zeros(mats.shape[1:], dtype=np.complex128)
    for m in mats:
        if m.any():
            total += m @ adjoint(m)
    return total


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def is_positive_semidefinite(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``m`` is self-adjoint within ``tol`` and min eigenvalue >= -tol.

    Both tests are settled by a bound where one does
    (:func:`screened_norms`, :func:`smallest_eigenvalue`).
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"positivity needs a square matrix, got {a.shape}")
    if screened_norms((a - adjoint(a))[None], tol)[0] > tol:
        return False
    return smallest_eigenvalue((a + adjoint(a)) / 2.0, -tol) >= -tol


def screened_norms(mats, bound, *, settle_above: bool = False) -> np.ndarray:
    """The operator norm of each matrix of a (k, n, m) stack, or a bound of it that settles a check.

    A check compares each norm with ``bound`` (a scalar, or one per
    matrix).  Since ||x|| <= ||x||_F <= sqrt(r) ||x||, r = min(n, m), a
    matrix whose Frobenius norm is below ``bound`` has its operator norm
    below it too, and its Frobenius norm is returned.  With
    ``settle_above``, for a check that a matrix is not small, one whose
    ||x||_F / sqrt(r) exceeds ``bound`` has its operator norm above it,
    and that lower bound is returned.  Every other matrix gets its exact
    operator norm, from stacked SVDs of those matrices alone
    (:func:`operator_norms`).  Each value lies strictly on the side of
    ``bound`` the operator norm lies on, or is the operator norm, so a
    check comparing it with ``bound`` gives the verdict an SVD would, and
    the value it reports is the quantity it compared.
    """
    stack = np.asarray(mats)
    if stack.ndim != 3:
        raise ShapeMismatch(f"expected a (k, n, m) stack, got ndim={stack.ndim}")
    out = row_norms(stack.reshape(len(stack), math.prod(stack.shape[1:])))
    settled = out < bound
    if settle_above:
        lower = out / math.sqrt(min(stack.shape[1:]))
        above = lower > bound
        out, settled = np.where(above, lower, out), settled | above
    if not settled.all():  # NaN included: the SVD's input check refuses it
        rest = np.flatnonzero(~settled)
        out[rest] = operator_norms(stack[rest])
    return out


def gershgorin_lower(h) -> float:
    """min_i (h_ii - sum_{j != i} |h_ij|), a lower bound of the smallest eigenvalue of Hermitian h.

    Every eigenvalue lies in a disc centred at some h_ii with that radius
    (Gershgorin; Golub and Van Loan, *Matrix Computations*, 7.2).  Each
    off-diagonal pair is charged max(|h_ij|, |h_ji|), so the bound also
    holds for the Hermitian matrix ``np.linalg.eigvalsh`` reads from either
    triangle of an h that is Hermitian only up to rounding.
    """
    off = np.abs(h)
    off = np.maximum(off, off.T)
    off.flat[:: len(off) + 1] = 0.0
    return float((h.diagonal().real - off.sum(axis=1)).min(initial=np.inf))


def smallest_eigenvalue(h, floor: float) -> float:
    """The smallest eigenvalue of Hermitian h, or a lower bound of it that exceeds ``floor``.

    Gershgorin's bound (:func:`gershgorin_lower`) is returned where it
    exceeds ``floor``: the eigenvalue does as well.  Otherwise
    ``np.linalg.eigvalsh`` gives the eigenvalue itself.  So a check
    comparing the value with ``floor`` gives the eigensolve's verdict.
    """
    lower = gershgorin_lower(h)
    if lower > floor:
        return lower
    return float(np.linalg.eigvalsh(h)[0])


def coordinates_in_span(
    basis: Sequence[np.ndarray], target, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Least-squares coordinates of ``target`` over ``basis``.

    Solves the normal equations against the Hilbert-Schmidt Gram matrix,
    regularized by pseudo-inversion with a relative singular-value cutoff
    (the basis may be linearly dependent).  Raises :class:`NotInSpan` when
    the reconstruction residual exceeds ``tol * (1 + ||target||_F)``.
    """
    if len(basis) == 0:
        raise ShapeMismatch("empty basis")
    t = as_matrix(target)
    mats = [as_matrix(b) for b in basis]
    shape = mats[0].shape
    for b in mats:
        if b.shape != shape:
            raise ShapeMismatch(f"basis shapes differ: {b.shape} vs {shape}")
    if t.shape != shape:
        raise ShapeMismatch(f"target shape {t.shape} does not match basis {shape}")

    flat = np.stack([np.ravel(m) for m in mats])
    gram = np.conjugate(flat) @ flat.T
    rhs = np.conjugate(flat) @ np.ravel(t)
    coeffs = np.linalg.pinv(gram, rcond=GRAM_CUTOFF, hermitian=True) @ rhs

    residual = float(np.linalg.norm(coeffs @ flat - np.ravel(t)))
    bound = tol * (1.0 + float(np.linalg.norm(t)))
    if residual > bound:
        raise NotInSpan(residual, bound)
    return coeffs


def orthonormalize(mats) -> np.ndarray:
    """HS-orthonormal basis of span(mats), under <a, b> = Tr(a* b).

    ``mats`` is a family or a (k, n, m) stack.  Blocked classical
    Gram-Schmidt with one re-orthogonalization pass (CGS2), taking the
    inputs in order: each block of ``ORTHONORMALIZE_BLOCK`` candidates is
    projected against the whole basis so far with two matrix-matrix
    passes, then its candidates are taken one at a time, each pass one
    matrix-vector product against the rows the block has kept so far.
    Candidates whose residual norm falls below ``RANK_CUTOFF * (1 +
    original norm)`` are dropped, which is how the rank of a redundant spanning set
    is decided.  Inputs that are already orthonormal are returned unchanged
    (so a caller-chosen basis ordering survives).  The result is an
    (r, n, m) stack whose storage holds r matrices, not one per input.
    """
    stack = as_stack(mats)
    shape = stack.shape[1:]
    flat = stack.reshape(len(stack), -1)
    basis = np.empty_like(flat)
    rank = 0
    for start in range(0, len(flat), ORTHONORMALIZE_BLOCK):
        block = flat[start : start + ORTHONORMALIZE_BLOCK].copy()
        scales = np.linalg.norm(block, axis=1)
        for _ in range(2):  # second pass for numerical stability
            # <b, v> for every pair, conjugating the block rather than the basis
            coeffs = np.conjugate(basis[:rank] @ np.conjugate(block).T)
            block -= coeffs.T @ basis[:rank]
        first = rank
        for v, scale in zip(block, scales):
            for _ in range(2):
                coeffs = np.conjugate(basis[first:rank] @ np.conjugate(v))
                v -= coeffs @ basis[first:rank]
            nrm = math.sqrt(np.vdot(v, v).real)
            if nrm > RANK_CUTOFF * (1.0 + scale):
                basis[rank] = v / nrm
                rank += 1
    if rank < len(basis):
        # release the unused rows in place (no views of them remain), so a
        # caller keeping the basis does not keep one row per candidate
        basis.resize((rank, basis.shape[1]), refcheck=False)
    return basis.reshape((rank,) + shape)


def as_stack(m) -> np.ndarray:
    """Validate and convert to a finite (k, n, m) complex128 stack of matrices."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 3:
        raise ShapeMismatch(f"expected a (k, n, m) stack, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return a


def stack_slices(count: int, item_bytes: int):
    """Slices cutting ``range(count)`` into runs of at most ``STACK_BUDGET_BYTES``."""
    step = max(1, STACK_BUDGET_BYTES // max(1, item_bytes))
    return [slice(start, start + step) for start in range(0, count, step)]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, with no temporary of its size.

    ``np.linalg.norm(rows, axis=1)`` of a complex array first forms the
    squared moduli, an array as large as ``rows``; this reads each row as
    real and imaginary parts side by side and sums their squares.
    """
    pairs = np.ascontiguousarray(rows, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", pairs, pairs))


def norm_screen(frobenius: np.ndarray, n: int) -> np.ndarray:
    """Indices of the matrices that can attain the largest operator norm.

    ``frobenius`` holds the Frobenius norms of a family of matrices with at
    most ``n`` singular values.  Since ||m|| <= ||m||_F <= sqrt(n) ||m||, no
    matrix whose Frobenius norm is below max_F / sqrt(n) can win.  Below
    ``NOISE_FLOOR`` only the largest one is kept: its Frobenius norm is
    accurate enough for any tolerance this package uses.
    """
    frobenius = np.asarray(frobenius)
    if frobenius.size == 0:
        return np.zeros(0, dtype=np.intp)
    top = float(frobenius.max())
    if top < NOISE_FLOOR:
        return np.array([int(frobenius.argmax())])
    return np.flatnonzero(frobenius >= top / np.sqrt(n))


def max_operator_norm(mats) -> float:
    """Exact maximum of operator norms over a family or a (k, n, m) stack.

    The family goes through one Frobenius screen (:func:`norm_screen`) and
    the survivors through one stacked SVD.  Below ``NOISE_FLOOR`` the
    largest Frobenius norm itself is returned.
    """
    stack = mats if isinstance(mats, np.ndarray) else list(mats)
    if len(stack) == 0:
        return 0.0
    stack = np.asarray(stack)
    frob = np.linalg.norm(stack.reshape(len(stack), -1), axis=1)
    top = float(frob.max())
    if top < NOISE_FLOOR:
        return top
    keep = norm_screen(frob, min(stack.shape[1:]))
    return float(np.linalg.svd(stack[keep], compute_uv=False)[:, 0].max())


def psd_sqrt(m) -> np.ndarray:
    """Square root of a positive-semidefinite self-adjoint matrix."""
    a = as_matrix(m)
    w, v = np.linalg.eigh((a + adjoint(a)) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v)


def random_matrix(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random complex n-by-n matrix with independent Gaussian entries."""
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with the standard phase fix."""
    q, r = np.linalg.qr(random_matrix(n, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_combination(
    basis: Sequence[np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return sum(c * b for c, b in zip(coeffs, basis))
