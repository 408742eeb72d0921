import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles.errors import InvalidMatrix, NotInSpan, ShapeMismatch
from cstar_angles.tower import intermediate_data, iterate_tower

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def test_operator_norm_identity_and_zero():
    assert mx.operator_norm(np.eye(2)) == pytest.approx(1.0)
    assert mx.operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        mx.operator_norm(np.array([[np.nan, 0], [0, 1]]))


def test_operator_norm_vanishes_for_balanced_unitary(inclusion, tower_level):
    # the inner-product matrix of the two difference projections collapses
    # to zero when |l11| = |l12| = 1/sqrt(2)
    u = m2.Unitary2(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u, inclusion)
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    e_d = intermediate_data(tower_level, f_u)[0]
    t = tower_level.dual_value(e_delta @ e_d - tower_level.jones_projection)
    assert mx.operator_norm(t) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_operator_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    a, b = mx.random_matrix(4, rng), mx.random_matrix(4, rng)
    assert mx.operator_norm(a @ b) <= mx.operator_norm(a) * mx.operator_norm(b) + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_operator_norm_adjoint_invariant(seed):
    rng = np.random.default_rng(seed)
    a = mx.random_matrix(5, rng)
    assert abs(mx.operator_norm(a) - mx.operator_norm(mx.adjoint(a))) <= 1e-10


def test_operator_norm_selfadjoint_is_spectral_radius(rng):
    a = mx.random_matrix(4, rng)
    h = (a + mx.adjoint(a)) / 2
    assert mx.operator_norm(h) == pytest.approx(
        float(np.max(np.abs(np.linalg.eigvalsh(h)))), abs=1e-11
    )


def test_psd_basic_cases():
    assert mx.is_positive_semidefinite(np.diag([1.0, 2.0]))
    assert not mx.is_positive_semidefinite(np.diag([1.0, -1.0]))
    with pytest.raises(ShapeMismatch):
        mx.is_positive_semidefinite(np.zeros((2, 3)))


def test_psd_index_element(inclusion):
    from cstar_angles.algebra import watatani_index

    assert mx.is_positive_semidefinite(watatani_index(inclusion.E))


def test_coordinates_scalar_case():
    coords = mx.coordinates_in_span([np.eye(2)], 3.0 * np.eye(2))
    np.testing.assert_allclose(coords, [3.0])


def test_coordinates_not_in_span():
    with pytest.raises(NotInSpan):
        mx.coordinates_in_span([E11, E22], E12)


def test_coordinates_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mx.coordinates_in_span([np.eye(2)], np.eye(3))


def test_coordinates_match_quasi_basis_pattern(rng):
    # over {sqrt(2) e_ij} the coordinates of x are x_ij / sqrt(2), which is
    # the same expansion the reconstruction identity x = sum E(x l) l* uses
    basis = [math.sqrt(2) * e for e in (E11, E12, E21, E22)]
    x = mx.random_matrix(2, rng)
    coords = mx.coordinates_in_span(basis, x)
    np.testing.assert_allclose(coords, x.ravel() / math.sqrt(2), atol=1e-12)
    recon = sum(c * b for c, b in zip(coords, basis))
    np.testing.assert_allclose(recon, x, atol=1e-12)


def test_coordinates_roundtrip_random(rng):
    basis = [mx.random_matrix(3, rng) for _ in range(5)]
    for _ in range(100):
        target = mx.random_combination(basis, rng)
        coords = mx.coordinates_in_span(basis, target)
        recon = sum(c * b for c, b in zip(coords, basis))
        assert mx.frobenius_norm(recon - target) <= 1e-9 * (
            1 + mx.frobenius_norm(target)
        )


def test_coordinates_with_redundant_basis(rng):
    basis = [E11, E22, E11 + E22, np.eye(2)]  # rank 2 family of four
    target = np.diag([2.0, -1.0]).astype(complex)
    coords = mx.coordinates_in_span(basis, target)
    recon = sum(c * b for c, b in zip(coords, basis))
    np.testing.assert_allclose(recon, target, atol=1e-10)


def test_orthonormalize_preserves_orthonormal_order():
    out = mx.orthonormalize([E11, E12, E21, E22])
    assert len(out) == 4
    for got, expected in zip(out, (E11, E12, E21, E22)):
        np.testing.assert_allclose(got, expected, atol=1e-14)


def test_orthonormalize_drops_dependents():
    out = mx.orthonormalize([E11, E11 * 2.0, E22, E11 + E22])
    assert len(out) == 2


def _orthonormalize_cases(tower_level, d2_family, rng):
    """(redundant family, rank) for the oracle test."""
    yield d2_family(tower_level), 16
    u = mx.random_unitary(16, rng)  # complex entries, same rank
    yield u @ d2_family(iterate_tower(tower_level)) @ mx.adjoint(u), 64
    # a redundant complex family of 3 x 3 matrices
    mats = np.stack([mx.random_matrix(3, rng) for _ in range(6)])
    yield np.concatenate([mats, np.tensordot(rng.standard_normal((3, 6)), mats, axes=1)]), 6
    yield from _block_boundary_cases(rng)


def _block_boundary_cases(rng):
    """Families whose rank decisions fall on the blocks of ``mx.orthonormalize``."""
    block = mx.ORTHONORMALIZE_BLOCK
    n = math.isqrt(3 * block) + 1  # room for 3 blocks of independent matrices
    fresh = np.stack([mx.random_matrix(n, rng) for _ in range(3 * block)])

    def mix(mats, count):
        return np.tensordot(rng.standard_normal((count, len(mats))), mats, axes=1)

    # a rank drop exactly at a block boundary: the first candidate of block 2
    yield np.concatenate([fresh[:block], mix(fresh[:block], 1), fresh[block : block + 2]]), block + 2
    # a block that is entirely redundant, between two that are not
    yield np.concatenate([fresh[:block], mix(fresh[:block], block), fresh[block : 2 * block]]), 2 * block
    # a nearly dependent pair split across two blocks
    near = fresh[block - 1] + 1e-6 * fresh[block]
    yield np.concatenate([fresh[:block], near[None], fresh[block + 1 : block + 3]]), block + 3


def test_orthonormalize_matches_per_pair_reference(
    tower_level, d2_family, reference_orthonormalize, rng, monkeypatch
):
    # the default blocks, then blocks small enough for every family to cross them
    for block in (mx.ORTHONORMALIZE_BLOCK, 4, 8):
        monkeypatch.setattr(mx, "ORTHONORMALIZE_BLOCK", block)
        for mats, rank in _orthonormalize_cases(tower_level, d2_family, rng):
            ref = np.stack(reference_orthonormalize(mats, np.vdot))
            new = mx.orthonormalize(mats)
            assert len(new) == len(ref) == rank
            # orthonormal rows give the projector onto the span
            q_new, q_ref = new.reshape(rank, -1), ref.reshape(rank, -1)
            np.testing.assert_allclose(
                np.conjugate(q_new) @ q_new.T, np.eye(rank), atol=1e-12
            )
            np.testing.assert_allclose(
                q_new.T @ np.conjugate(q_new), q_ref.T @ np.conjugate(q_ref), atol=1e-12
            )


def test_orthonormalize_nearly_dependent_family(rng):
    # one Gram-Schmidt pass alone leaves these far from orthogonal
    a, b, c = (mx.random_matrix(3, rng) for _ in range(3))
    mats = [a, a + 1e-6 * b, a + 1e-6 * c]
    q = mx.orthonormalize(mats).reshape(3, -1)
    np.testing.assert_allclose(np.conjugate(q) @ q.T, np.eye(3), atol=1e-12)
    flat = np.stack(mats).reshape(3, -1)
    np.testing.assert_allclose((flat @ np.conjugate(q).T) @ q, flat, atol=1e-9)


def test_random_unitary_is_unitary(rng):
    u = mx.random_unitary(4, rng)
    np.testing.assert_allclose(mx.adjoint(u) @ u, np.eye(4), atol=1e-12)


def test_psd_sqrt(rng):
    a = mx.random_matrix(3, rng)
    p = mx.adjoint(a) @ a
    r = mx.psd_sqrt(p)
    np.testing.assert_allclose(r @ r, p, atol=1e-10)


def _eigh_calls(monkeypatch) -> list:
    """Record each ``np.linalg.eigh`` call in the list returned."""
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(np.shape(h)) or eigh(h))
    return calls


def test_hermitian_eigh_reads_a_diagonal_off_its_diagonal(monkeypatch):
    eigh = np.linalg.eigh
    calls = _eigh_calls(monkeypatch)
    diagonals = {
        "scalar": np.full(5, 27.0),
        "repeated and zero": np.array([3.0, 0.0, -1.5, 3.0, 0.0, 2.0]),
        "complex dtype": np.array([2.0, 0.5, 2.0, 1.0]) + 0j,
        "empty": np.zeros(0),
    }
    for name, diagonal in diagonals.items():
        h = np.diag(diagonal)
        values, vectors = mx.hermitian_eigh(h)
        want_values, want_vectors = eigh(h)
        assert values.tolist() == want_values.tolist(), name
        assert vectors.dtype == want_vectors.dtype, name
        # the unit vectors, each one of an eigenvalue's eigenspace
        assert np.array_equal(np.abs(vectors), np.abs(vectors) ** 2), name
        assert np.array_equal(np.abs(vectors).sum(axis=0), np.ones(len(h))), name
        np.testing.assert_array_equal((vectors * values) @ mx.adjoint(vectors), h)
        for value in np.unique(diagonal):  # eigenspace projections agree
            mine, theirs = vectors[:, values == value], want_vectors[:, want_values == value]
            np.testing.assert_allclose(
                mine @ mx.adjoint(mine), theirs @ mx.adjoint(theirs), rtol=0, atol=1e-15
            )
    assert calls == []
    # one off-diagonal entry, however small, sends h to the eigensolve
    h = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    h[0, 2] = h[2, 0] = 1e-300
    values, _ = mx.hermitian_eigh(h)
    assert calls == [(3, 3)]
    assert values.tolist() == eigh(h)[0].tolist()


def test_functions_of_a_diagonal_read_its_diagonal(monkeypatch):
    # diag(fn(diagonal)) in the diagonal's own order: no spectral
    # decomposition, so no product with its permuted unit vectors
    def refused(h):
        raise AssertionError("a diagonal input took the spectral route")

    monkeypatch.setattr(mx, "hermitian_eigh", refused)
    diagonal = np.array([4.0, 1.0, 9.0, 0.25])
    for got, want in (
        (mx.psd_sqrt(np.diag(diagonal)), np.sqrt(diagonal)),
        (mx.hermitian_inverse(np.diag(diagonal)), 1.0 / diagonal),
    ):
        assert got.dtype == np.complex128
        np.testing.assert_array_equal(got, np.diag(want))


def test_index_functions_of_a_scalar_take_no_eigensolve(monkeypatch, rng):
    calls = _eigh_calls(monkeypatch)
    ind = 27.0 * np.eye(81, dtype=np.complex128)
    np.testing.assert_array_equal(mx.hermitian_inverse(ind), np.eye(81) / 27.0)
    np.testing.assert_array_equal(mx.psd_sqrt(ind), math.sqrt(27.0) * np.eye(81))
    assert calls == []
    a = mx.random_matrix(4, rng)
    p = mx.adjoint(a) @ a + np.eye(4)
    np.testing.assert_allclose(mx.hermitian_inverse(p), np.linalg.inv(p), atol=1e-12)
    assert calls == [(4, 4)]


def test_max_operator_norm_matches_direct(rng):
    mats = [mx.random_matrix(3, rng, scale=s) for s in (1e-3, 1.0, 2.0, 0.5)]
    direct = max(mx.operator_norm(m) for m in mats)
    assert mx.max_operator_norm(mats) == pytest.approx(direct, abs=1e-12)


def test_max_operator_norm_on_stacks(rng):
    # rank-one matrices with a large Frobenius norm next to a full-rank one
    # with a larger operator norm: the screen must keep the right candidates
    stack = np.stack(
        [mx.random_matrix(4, rng, scale=s) for s in (1e-3, 1.0, 2.0, 0.5)]
        + [np.outer(np.ones(4), np.ones(4)) * 0.7, 3.0 * np.eye(4)]
    )
    direct = max(mx.operator_norm(m) for m in stack)
    assert mx.max_operator_norm(stack) == pytest.approx(direct, abs=1e-12)
    assert mx.max_operator_norm(list(stack)) == pytest.approx(direct, abs=1e-12)
    assert mx.max_operator_norm([]) == 0.0
    tiny = np.full((3, 2, 2), 1e-15)
    assert mx.max_operator_norm(tiny) == pytest.approx(2e-15, rel=1e-12)


def test_norm_screen_keeps_every_possible_maximum(rng):
    for _ in range(20):
        stack = np.stack([mx.random_matrix(3, rng, scale=s) for s in rng.random(8)])
        frob = np.linalg.norm(stack, axis=(1, 2))
        ops = np.array([mx.operator_norm(m) for m in stack])
        assert int(np.argmax(ops)) in mx.norm_screen(frob, 3)


def test_default_rng_env_override(monkeypatch):
    monkeypatch.setenv("ANGLES_SEED", "7")
    a = mx.default_rng().standard_normal(3)
    b = np.random.default_rng(7).standard_normal(3)
    np.testing.assert_allclose(a, b)


def test_operator_norms_by_chunks_equal_the_single_norms(rng, monkeypatch):
    mats = [mx.random_matrix(5, rng) for _ in range(7)]
    want = [mx.operator_norm(m) for m in mats]
    # one chunk, then chunks of two matrices with a remainder
    for budget in (mx.STACK_BUDGET_BYTES, 2 * mats[0].nbytes):
        monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
        assert mx.operator_norms(mats).tolist() == want
        assert mx.operator_norms(np.stack(mats)).tolist() == want
    assert mx.operator_norms([]).shape == (0,)


def test_sum_times_adjoint_skips_zero_matrices(rng):
    mats = np.stack([mx.random_matrix(4, rng) for _ in range(7)])
    mats[3] = 0.0  # adds nothing
    want = sum(m @ mx.adjoint(m) for m in mats)
    np.testing.assert_allclose(mx.sum_times_adjoint(mats), want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(mx.sum_times_adjoint(np.zeros((2, 3, 3))), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# checks settled by a bound first: the verdict is always the exact one


def _svd_calls(monkeypatch) -> list:
    """Record the number of matrices of each ``np.linalg.svd`` call in the list returned."""
    calls, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(len(a) if np.ndim(a) == 3 else 1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_screened_norms_agree_with_the_svd_on_every_verdict(rng, monkeypatch):
    tol, d = mx.DEFAULT_TOL, 4
    cases = np.stack([
        np.zeros((d, d)),
        0.5 * tol * np.eye(d),  # Frobenius tol: settled only by the SVD
        0.9 * tol * np.eye(d),  # Frobenius 1.8 tol, operator norm 0.9 tol: passes
        0.9 * tol * np.diag([1.0, 0, 0, 0]),  # Frobenius 0.9 tol: settled, passes
        1.1 * tol * np.eye(d),  # fails, with its exact norm
        mx.random_matrix(d, rng, scale=tol),
        mx.random_matrix(d, rng),
    ]).astype(np.complex128)
    exact = np.array([mx.operator_norm(m) for m in cases])
    calls = _svd_calls(monkeypatch)
    for settle_above in (False, True):
        got = mx.screened_norms(cases, tol, settle_above=settle_above)
        for value, want in zip(got, exact):
            for test in (np.less, np.less_equal, np.greater, np.greater_equal):
                assert test(value, tol) == test(want, tol)
        # every value the SVD was asked for is the exact norm
        unsettled = np.flatnonzero(
            ~((np.linalg.norm(cases, axis=(1, 2)) < tol)
              | (settle_above & (np.linalg.norm(cases, axis=(1, 2)) / 2 > tol)))
        )
        assert calls.pop() == len(unsettled)
        np.testing.assert_array_equal(got[unsettled], exact[unsettled])
    with pytest.raises(ShapeMismatch):
        mx.screened_norms(cases[2], tol)  # one matrix is no stack
    assert mx.screened_norms(np.zeros((0, 3, 3)), tol).shape == (0,)
    # a per-matrix bound, and a non-finite matrix refused by the SVD's input check
    bounds = np.array([0.0, 1.0])
    np.testing.assert_array_equal(
        mx.screened_norms(cases[[4, 4]], bounds), [exact[4], np.linalg.norm(cases[4])]
    )
    with pytest.raises(InvalidMatrix):
        mx.screened_norms(np.full((1, 2, 2), np.nan), tol)


def test_smallest_eigenvalue_is_the_eigensolve_verdict(rng, monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
    w = mx.random_unitary(3, rng)
    dominant = np.diag([2.0, 3.0, 4.0]) + 0.1
    rotated = w @ np.diag([1.0, 2.0, 4.0]) @ mx.adjoint(w)
    assert mx.gershgorin_lower(dominant) == pytest.approx(1.9)
    assert mx.gershgorin_lower(rotated) < 1.0
    # settled by Gershgorin: no eigensolve
    assert mx.smallest_eigenvalue(dominant, 1.0) == pytest.approx(1.9)
    assert calls == []
    # not settled: the eigenvalue itself
    assert mx.smallest_eigenvalue(rotated, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-12)
    assert calls == [1]
    # an h Hermitian only up to rounding: the bound holds for the matrix
    # eigvalsh reads from either triangle
    skewed = dominant + np.triu(np.full((3, 3), 0.05), 1)
    for uplo in ("L", "U"):
        assert mx.gershgorin_lower(skewed) <= eigvalsh(skewed, UPLO=uplo)[0]
    assert mx.gershgorin_lower(skewed) == pytest.approx(1.8)


def test_psd_test_settles_by_bounds_and_keeps_its_verdicts(rng, monkeypatch):
    w = mx.random_unitary(3, rng)
    on_the_edge = w @ np.diag([-0.5e-9, 1.0, 2.0]) @ mx.adjoint(w)
    below = w @ np.diag([-2e-9, 1.0, 2.0]) @ mx.adjoint(w)
    skew = np.diag([1.0, 2.0, 3.0]) + 0.3e-9 * (np.eye(3, k=1) - np.eye(3, k=-1))
    assert mx.is_positive_semidefinite(on_the_edge)
    assert not mx.is_positive_semidefinite(below)
    assert mx.is_positive_semidefinite(skew)  # ||a - a*||: 0.85e-9, and 1.2e-9 in Frobenius norm
    wider = np.diag([1.0, 2.0, 3.0]) + 0.4e-9 * (np.eye(3, k=1) - np.eye(3, k=-1))
    assert not mx.is_positive_semidefinite(wider)  # 1.13e-9, and 1.6e-9: the SVD decides
    calls = _svd_calls(monkeypatch)
    assert mx.is_positive_semidefinite(np.diag([1.0, 2.0]))  # settled by both bounds
    assert calls == []
