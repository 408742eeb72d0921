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
