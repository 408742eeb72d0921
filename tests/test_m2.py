import math

import numpy as np
import pytest

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles.algebra import verify_expectation, verify_quasi_basis, watatani_index
from cstar_angles.errors import NotUnitary
from cstar_angles.tower import intermediate_data

SQ2 = math.sqrt(2.0)
COMPLEX_HADAMARD_U = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / SQ2)


def test_canonical_inclusion_constants(inclusion):
    np.testing.assert_allclose(watatani_index(inclusion.E), 4 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(watatani_index(inclusion.F), 2 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(inclusion.E(m2.E12), np.zeros((2, 2)), atol=1e-15)
    assert verify_quasi_basis(inclusion.E, inclusion.E.quasi_basis)
    assert verify_quasi_basis(inclusion.F, inclusion.F.quasi_basis)


def test_canonical_expectations_are_expectations(inclusion, rng):
    assert verify_expectation(inclusion.E, rng=rng).passed
    assert verify_expectation(inclusion.F, rng=rng).passed


def test_unitary2_validation():
    m2.Unitary2(np.eye(2))
    with pytest.raises(NotUnitary):
        m2.Unitary2(np.diag([1.0, 2.0]))
    with pytest.raises(NotUnitary):
        m2.Unitary2(np.eye(3))


def test_rotation_entries():
    u = m2.rotation(0.3)
    assert u.lam11 == pytest.approx(math.cos(0.3))
    assert u.lam12 == pytest.approx(-math.sin(0.3))


def test_is_hadamard():
    assert m2.is_hadamard(COMPLEX_HADAMARD_U)
    assert m2.is_hadamard(m2.rotation(math.pi / 4))
    assert not m2.is_hadamard(np.eye(2))


# ---------------------------------------------------------------------------
# the two closed forms


def test_closed_form_angle_printed_values():
    # the fourth-power form: endpoints, and the sin^4 shape in between
    assert m2.closed_form_angle(np.eye(2)) == pytest.approx(0.0)
    assert m2.closed_form_angle(m2.rotation(math.pi / 4)) == pytest.approx(math.pi / 2)
    assert m2.closed_form_angle(m2.rotation(math.pi / 8)) == pytest.approx(math.pi / 6)


def test_exact_angle_values():
    assert m2.exact_angle(np.eye(2)) == pytest.approx(0.0)
    assert m2.exact_angle(m2.rotation(math.pi / 4)) == pytest.approx(math.pi / 2)
    # the realized angle doubles the rotation parameter
    for theta in (0.1, math.pi / 8, 0.5):
        assert m2.exact_angle(m2.rotation(theta)) == pytest.approx(2 * theta, abs=1e-12)


def test_closed_forms_agree_only_at_extremes(rng):
    # equality holds exactly at cos = 0 and cos = 1; strict inequality between
    u = m2.rotation(0.3)
    assert m2.closed_form_angle(u) < m2.exact_angle(u)
    for extreme in (np.eye(2), m2.rotation(math.pi / 4).matrix):
        uu = m2.Unitary2(extreme)
        assert m2.closed_form_angle(uu) == pytest.approx(m2.exact_angle(uu), abs=1e-12)


def test_exact_angle_matches_definition_route(tower_level, inclusion, rng):
    from cstar_angles.angles import interior_angle_definition

    for _ in range(10):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        res = interior_angle_definition(tower_level, inclusion.F, f_u)
        assert res.angle_rad == pytest.approx(m2.exact_angle(u), abs=1e-8)


# ---------------------------------------------------------------------------
# F_u and e_D


def test_fu_closed_form_for_antidiagonal_style_unitary():
    # for u with all entries of modulus 1/sqrt(2) the conjugated expectation
    # averages the diagonal and skew-symmetrizes the off-diagonal
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    got = m2.fu_map(COMPLEX_HADAMARD_U, a)
    expected = np.array([[2.5, -0.5], [0.5, 2.5]], dtype=complex)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_fu_expectation_properties(inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    assert verify_quasi_basis(f_u, f_u.quasi_basis)
    np.testing.assert_allclose(watatani_index(f_u), 2 * np.eye(2), atol=1e-10)
    assert verify_expectation(f_u, rng=rng).passed


def test_closed_form_eD_identity_and_balanced():
    np.testing.assert_allclose(
        m2.closed_form_eD(np.eye(2)), np.diag([1.0, 0, 0, 1.0]), atol=1e-14
    )
    # real balanced unitary with signs (+,+;+,-): corners 1/2, middle block 1/2
    h = m2.Unitary2(np.array([[1, 1], [1, -1]], dtype=complex) / SQ2)
    e_d = m2.closed_form_eD(h)
    expected = np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 0.5, 0.5, 0],
            [0, 0.5, 0.5, 0],
            [0.5, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(e_d, expected, atol=1e-12)


def test_closed_form_eD_displayed_matrix():
    e_d = m2.closed_form_eD(COMPLEX_HADAMARD_U)
    expected = np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 0.5, -0.5, 0],
            [0, -0.5, 0.5, 0],
            [0.5, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(e_d, expected, atol=1e-12)


def test_closed_form_eD_matches_tower(tower_level, inclusion, rng):
    for _ in range(25):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        e_d = intermediate_data(tower_level, f_u)[0]
        np.testing.assert_allclose(e_d, m2.closed_form_eD(u), atol=1e-9)


def test_t_star_t_is_scalar(tower_level, inclusion, rng):
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    for _ in range(10):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        e_d = intermediate_data(tower_level, f_u)[0]
        t = tower_level.dual_value(e_delta @ e_d - tower_level.jones_projection)
        tt = mx.adjoint(t) @ t
        lam = (abs(u.lam11) ** 2 - abs(u.lam12) ** 2) ** 2 / 16.0
        assert mx.operator_norm(tt - lam * np.eye(2)) <= 1e-10


# ---------------------------------------------------------------------------
# conjugating the projection is not the projection of the conjugate


def test_gap_demo_displayed_matrices():
    demo = m2.hadamard_gap_demo(COMPLEX_HADAMARD_U)
    conj_expected = np.array(
        [
            [0.5, 0, -0.5j, 0],
            [0, 0.5, 0, 0.5j],
            [0.5j, 0, 0.5, 0],
            [0, -0.5j, 0, 0.5],
        ],
        dtype=complex,
    )
    direct_expected = np.array(
        [
            [0.5, 0, 0, 0.5],
            [0, 0.5, -0.5, 0],
            [0, -0.5, 0.5, 0],
            [0.5, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(demo.u_eC_u_star, conj_expected, atol=1e-12)
    np.testing.assert_allclose(demo.e_uCu_star, direct_expected, atol=1e-12)
    assert not demo.equal
    assert mx.operator_norm(demo.u_eC_u_star - demo.e_uCu_star) > 0.4


def test_gap_demo_identity_and_diagonal(rng):
    assert m2.hadamard_gap_demo(np.eye(2)).equal
    phase = np.diag([np.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(2)])
    assert m2.hadamard_gap_demo(phase).equal


# ---------------------------------------------------------------------------
# sweep


def test_angle_sweep_values():
    pairs = m2.angle_sweep([0.0, math.pi / 8, math.pi / 4])
    angles = [a for _, a in pairs]
    assert angles[0] == pytest.approx(0.0)
    assert angles[1] == pytest.approx(math.pi / 4)
    assert angles[2] == pytest.approx(math.pi / 2)


def test_angle_sweep_fourth_power_variant():
    pairs = m2.angle_sweep([0.0, math.pi / 8, math.pi / 4], angle_fn=m2.closed_form_angle)
    assert [round(a, 10) for _, a in pairs] == [
        0.0,
        round(math.pi / 6, 10),
        round(math.pi / 2, 10),
    ]


def test_angle_sweep_monotone_dense():
    thetas = np.linspace(0, math.pi / 4, 1000)
    angles = [a for _, a in m2.angle_sweep(thetas)]
    assert all(b >= a for a, b in zip(angles, angles[1:]))
    assert max(b - a for a, b in zip(angles, angles[1:])) < 0.01


def test_angle_sweep_rejects_out_of_range():
    with pytest.raises(ValueError):
        m2.angle_sweep([1.0])


def test_angle_zero_iff_diagonal_or_antidiagonal():
    zero_cases = [
        np.eye(2),
        np.diag([np.exp(0.4j), np.exp(-1.1j)]),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, np.exp(0.7j)], [np.exp(0.2j), 0]]),
    ]
    for u in zero_cases:
        assert m2.exact_angle(m2.Unitary2(u)) < 1e-6
    for theta in (0.05, 0.4, math.pi / 4):
        assert m2.exact_angle(m2.rotation(theta)) > 1e-6
