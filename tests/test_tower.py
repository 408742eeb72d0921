import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles import tower
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    conjugate_expectation,
    identity_expectation,
    restrict_expectation,
    verify_quasi_basis,
    watatani_index,
)
from cstar_angles.angles import (
    ROUTE_AGREEMENT_TOL,
    interior_angle_definition,
    interior_angle_formula,
)
from cstar_angles.errors import (
    ConstructionFailure,
    NoQuasiBasis,
    NotCompatible,
    NotInAlgebra,
    NotIntermediate,
    TooLarge,
)
from cstar_angles.groups import (
    FiniteGroup,
    generated_subgroup,
    group_algebra_inclusion,
    trivial_subgroup,
)
from cstar_angles.tower import (
    GenericModule,
    TowerLevel,
    build_tower_level,
    dual_expectation_value,
    intermediate_data,
    intermediate_dual_expectation,
    iterate_tower,
)

E1_MATRIX = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)
E_DELTA_MATRIX = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)


def z4_over_z2():
    G = FiniteGroup.cyclic(4)
    H = generated_subgroup(G, [G.index_of((2,))])
    return group_algebra_inclusion(G, H)


# ---------------------------------------------------------------------------
# level one


def test_canonical_jones_projection(tower_level):
    np.testing.assert_allclose(tower_level.jones_projection, E1_MATRIX, atol=1e-12)


def test_module_coordinates_are_matrix_units(tower_level):
    # the fixed identification: module basis is (e11, e12, e21, e22)
    for k, unit in enumerate((m2.E11, m2.E12, m2.E21, m2.E22)):
        coords = tower_level.module.coords(unit)
        expected = np.zeros(4)
        expected[k] = 1.0
        np.testing.assert_allclose(coords, expected, atol=1e-12)


def test_left_mult_is_kron(tower_level, rng):
    x = mx.random_matrix(2, rng)
    np.testing.assert_allclose(tower_level.embed(x), np.kron(x, np.eye(2)), atol=1e-12)


def test_basic_construction_is_full_m4(tower_level):
    assert tower_level.basic_construction.dim == 16
    assert tower_level.basic_construction.contains(mx.random_matrix(4, mx.default_rng()))


def test_trivial_inclusion(inclusion):
    level = build_tower_level(
        inclusion.A, inclusion.A, identity_expectation(inclusion.A)
    )
    np.testing.assert_allclose(level.jones_projection, np.eye(4), atol=1e-12)
    assert level.basic_construction.dim == 4  # A_1 isomorphic to A


def test_group_jones_projection_is_coefficient_mask():
    inc = z4_over_z2()
    level = inc.tower(materialize=True)
    mask = inc.subgroup.mask().astype(float)
    np.testing.assert_allclose(level.jones_projection, np.diag(mask), atol=1e-12)


def test_build_requires_quasi_basis(inclusion):
    bare = ConditionalExpectation.from_rule(inclusion.A, inclusion.B, inclusion.E)
    with pytest.raises(NoQuasiBasis):
        build_tower_level(inclusion.A, inclusion.B, bare)


def test_build_rejects_mismatched_target(inclusion):
    # E maps onto the scalars, not onto this two-dimensional algebra
    other = MatrixStarAlgebra.from_spanning([np.eye(2), m2.E12 + m2.E21])
    with pytest.raises(NotIntermediate):
        build_tower_level(inclusion.A, other, inclusion.E)


def test_build_rejects_non_subalgebra(inclusion):
    outside = MatrixStarAlgebra.from_spanning([np.eye(2), m2.E12 + m2.E21])
    bogus = ConditionalExpectation.from_rule(
        inclusion.delta, outside, lambda x: x, quasi_basis=(np.eye(2),)
    )
    with pytest.raises(NotIntermediate):
        build_tower_level(inclusion.delta, outside, bogus)


# ---------------------------------------------------------------------------
# intermediate projections


def test_diagonal_intermediate_projection(tower_level, inclusion):
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    np.testing.assert_allclose(e_delta, E_DELTA_MATRIX, atol=1e-12)


def test_intermediate_for_corner_is_jones(tower_level, inclusion):
    e_b = intermediate_data(tower_level, inclusion.B, inclusion.E)[0]
    np.testing.assert_allclose(e_b, tower_level.jones_projection, atol=1e-12)


def test_conjugated_intermediate_matches_entry_list(tower_level, inclusion, rng):
    for _ in range(10):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        e_d = intermediate_data(tower_level, f_u.target, f_u)[0]
        np.testing.assert_allclose(e_d, m2.closed_form_eD(u), atol=1e-10)


def test_projection_laws(tower_level, inclusion, rng):
    e_b = tower_level.jones_projection
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    for e in (
        intermediate_data(tower_level, inclusion.delta, inclusion.F)[0],
        intermediate_data(tower_level, f_u.target, f_u)[0],
    ):
        assert mx.operator_norm(e @ e - e) <= 1e-9
        assert mx.operator_norm(e - mx.adjoint(e)) <= 1e-9
        assert mx.operator_norm(e @ e_b - e_b) <= 1e-9
        assert mx.operator_norm(e_b @ e - e_b) <= 1e-9


def test_incompatible_pair_rejected(tower_level):
    skew = m2.skewed_scalar_expectation(0.3)
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u)
    level = build_tower_level(skew.source, skew.target, skew)
    with pytest.raises(NotCompatible):
        intermediate_data(level, f_u.target, f_u)


# ---------------------------------------------------------------------------
# dual expectation


def test_dual_values_on_projections(tower_level, inclusion):
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    np.testing.assert_allclose(
        dual_expectation_value(tower_level, tower_level.jones_projection),
        np.eye(2) / 4.0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        dual_expectation_value(tower_level, e_delta), np.eye(2) / 2.0, atol=1e-12
    )


def test_dual_value_block_oracle(tower_level, rng):
    # independent oracle: E_1 on M_4 is the entrywise compression
    # X -> [tr(X_blocks)/2], acting block by block
    for _ in range(20):
        t = mx.random_matrix(4, rng)
        blocks = np.array(
            [
                [np.trace(t[:2, :2]), np.trace(t[:2, 2:])],
                [np.trace(t[2:, :2]), np.trace(t[2:, 2:])],
            ]
        ) / 2.0
        np.testing.assert_allclose(
            dual_expectation_value(tower_level, t), blocks, atol=1e-10
        )


def test_dual_value_group_intermediate():
    # E_1(e_C) = Ind(E)^{-1} Ind(E|_C): here [K:H]/[G:H] = 2/4 on C[Z4] over C
    G = FiniteGroup.cyclic(4)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    level = inc.tower(materialize=True)
    K = generated_subgroup(G, [G.index_of((2,))])
    F = inc.expectation_onto(K)
    e_k = intermediate_data(level, F.target, F)[0]
    np.testing.assert_allclose(
        dual_expectation_value(level, e_k), np.eye(4) / 2.0, atol=1e-10
    )


def test_dual_value_outside_construction_rejected(rng):
    inc = z4_over_z2()
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # maps lambda-coordinates across cosets: not in A_1
    # membership is enforced on every level, also one built lazily
    for level in (inc.tower(materialize=True), inc.tower(materialize=False)):
        for t in (bad, mx.random_matrix(4, rng)):
            with pytest.raises(NotInAlgebra):
                dual_expectation_value(level, t)
        assert level.basic_construction.dim == 8  # strictly smaller than M_4
        assert not level.basic_construction.contains(bad)


def test_dual_value_well_defined_across_decompositions(tower_level, rng):
    # the spanning family is redundant; least squares vs closed form must agree
    family = tower_level.basic_construction.spanning_set
    coeffs = rng.standard_normal(len(family))
    t = sum(c * s for c, s in zip(coeffs, family))
    np.testing.assert_allclose(
        dual_expectation_value(tower_level, t), tower_level.dual_value(t), atol=1e-10
    )


def test_dual_quasi_basis_verifies(tower_level):
    assert verify_quasi_basis(
        tower_level.dual_expectation, tower_level.dual_quasi_basis, 1e-8
    )


def test_dual_quasi_basis_matches_the_per_element_loop(tower_level, c_plus_m2):
    S3 = FiniteGroup.symmetric(3)
    s3 = group_algebra_inclusion(S3, generated_subgroup(S3, [S3.index_of((1, 0, 2))]))
    for level in (tower_level, c_plus_m2.level, s3.tower(materialize=False)):
        e_b, ind_sqrt_l = level.jones_projection, level.embed(level.index_sqrt)
        want = [level.embed(lam) @ e_b @ ind_sqrt_l for lam in level.expectation.quasi_basis]
        got = level.dual_quasi_basis
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == (level.module_dim, level.module_dim)
            assert np.max(np.abs(g - w)) <= 1e-13


# ---------------------------------------------------------------------------
# iterating the tower


def test_iterated_tower_m2(tower_level):
    level2 = iterate_tower(tower_level)
    assert level2.module_dim == 16
    # scalar index passes up unchanged: Ind(E_1) = Ind(E) = 4
    np.testing.assert_allclose(level2.index_matrix, 4.0 * np.eye(4), atol=1e-9)
    # E_2(e_2) = Ind(E_1)^{-1}
    np.testing.assert_allclose(
        level2.dual_value(level2.jones_projection), np.eye(4) / 4.0, atol=1e-9
    )


def test_iterate_tower_keeps_one_rung_per_check_and_tol(inclusion, monkeypatch):
    level = m2.canonical_tower(inclusion)
    builds = []
    build = tower.build_tower_level

    def counted(*args, **kwargs):
        builds.append((kwargs["check"], kwargs["tol"]))
        return build(*args, **kwargs)

    monkeypatch.setattr(tower, "build_tower_level", counted)
    level2 = iterate_tower(level)
    assert iterate_tower(level) is level2
    looser = iterate_tower(level, tol=1e-8)
    unchecked = iterate_tower(level, check=False)
    assert looser is not level2 and unchecked is not level2 and looser is not unchecked
    assert iterate_tower(level, tol=1e-8) is looser
    assert iterate_tower(level, check=False) is unchecked
    assert builds == [(True, mx.DEFAULT_TOL), (True, 1e-8), (False, mx.DEFAULT_TOL)]
    # a rung belongs to its level, not to an equal-looking copy of it
    assert iterate_tower(m2.canonical_tower(inclusion)) is not level2


def test_kept_rung_does_not_bypass_the_budget(inclusion, monkeypatch):
    level = m2.canonical_tower(inclusion)
    level2 = iterate_tower(level)

    def no_module(*args, **kwargs):
        raise AssertionError("module built before the budget check")

    monkeypatch.setattr(tower, "GenericModule", no_module)
    assert iterate_tower(level) is level2  # kept: no module is built
    need = 16 * (16 * 4 * 4 + 6 * 16 * 16 + 2 * 4 * 16 * 16)  # the m2 rung, as below
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need - 1)
    with pytest.raises(TooLarge):
        iterate_tower(level)
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need)
    assert iterate_tower(level) is level2


def test_iterated_tower_trivial(inclusion):
    level = build_tower_level(
        inclusion.A, inclusion.A, identity_expectation(inclusion.A)
    )
    level2 = iterate_tower(level)
    np.testing.assert_allclose(level2.jones_projection, np.eye(4), atol=1e-10)


def test_iterated_tower_group():
    inc = z4_over_z2()
    level2 = iterate_tower(inc.tower(materialize=True))
    np.testing.assert_allclose(
        level2.dual_value(level2.jones_projection),
        np.eye(4) / 2.0,  # [G:H]^{-1} of the embedded unit
        atol=1e-9,
    )


# ---------------------------------------------------------------------------
# the compatible dual expectation G


def test_interior_dual_expectation_scaling(tower_level, inclusion):
    g = intermediate_dual_expectation(tower_level, inclusion.delta, inclusion.F)
    e_b = tower_level.jones_projection
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    for x in inclusion.A.basis:
        for y in inclusion.A.basis:
            t = tower_level.embed(x) @ e_b @ tower_level.embed(y)
            expected = 0.5 * tower_level.embed(x) @ e_delta @ tower_level.embed(y)
            np.testing.assert_allclose(g(t), expected, atol=1e-10)


def test_interior_dual_expectation_corner_is_identity(tower_level, inclusion):
    g = intermediate_dual_expectation(tower_level, inclusion.B, inclusion.E)
    for b in tower_level.basic_construction.basis:
        np.testing.assert_allclose(g(b), b, atol=1e-9)


def test_restricted_dual_equals_dual_of_restriction(tower_level, inclusion):
    # E_1(x e_C y) = Ind(F)^{-1} x y on spanning elements
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    ind_f_inv = np.linalg.inv(watatani_index(inclusion.F))
    for x in inclusion.A.basis:
        for y in inclusion.A.basis:
            t = tower_level.embed(x) @ e_delta @ tower_level.embed(y)
            np.testing.assert_allclose(
                tower_level.dual_value(t), ind_f_inv @ x @ y, atol=1e-10
            )


def least_squares_g(level, C, F):
    """G as formerly built, kept as the oracle of the quasi-basis identity.

    t is decomposed over the family {L_{b_i} e_B L_{l_k*}} of A_1 through the
    pseudo-inverse of its HS Gram matrix, and each term x e_B l_k* is mapped
    to Ind(E|_C)^{-1} x e_C l_k*.  Returns G on a (k, d, d) stack.
    """
    e_c, restricted = intermediate_data(level, C, F)
    family = level.basic_construction.spanning_stack
    flat = family.reshape(len(family), -1)
    gram_pinv = np.linalg.pinv(
        np.conjugate(flat) @ flat.T, rcond=mx.GRAM_CUTOFF, hermitian=True
    )
    ind_c_inv = np.linalg.inv(restricted.index_element())
    rule_values = level.embed(ind_c_inv) @ level._spanning_products(e_c)

    def g(ts):
        coeffs = gram_pinv @ (np.conjugate(flat) @ ts.reshape(len(ts), -1).T)
        return np.tensordot(coeffs.T, rule_values, axes=1)

    return g


def m2_plus_m3():
    """The M2+M3 >= C+C level of ``scripts/exterior_m2_plus_m3.py``, with its F and F'."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "exterior_m2_plus_m3.py"
    spec = importlib.util.spec_from_file_location("exterior_m2_plus_m3", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    A, B, _, E, F, F_prime = script.fixture(mx.DEFAULT_SEED)
    return build_tower_level(A, B, E), F, F_prime


def test_g_by_the_identity_matches_least_squares(tower_level, inclusion, c_plus_m2):
    f_u = m2.fu_expectation(m2.rotation(0.5), inclusion)
    level5, F5, F5_prime = m2_plus_m3()
    cases = (
        (tower_level, inclusion.F),
        (tower_level, f_u),
        (c_plus_m2.level, c_plus_m2.F),
        (level5, F5),
        (level5, F5_prime),
    )
    for level, F in cases:
        basis = level.basic_construction.basis_stack
        g = intermediate_dual_expectation(level, F.target, F)
        got = np.stack([g(b) for b in basis])
        want = least_squares_g(level, F.target, F)(basis)
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("case", ["m2", "z4_over_z2"])
def test_lazy_level_iterates_and_gives_g(case, inclusion, rng):
    # a level built with materialize=False builds A_1 when it is first read
    if case == "m2":
        C, F = inclusion.delta, inclusion.F
        lazy = m2.canonical_tower(inclusion, materialize=False)
        eager = m2.canonical_tower(inclusion, materialize=True)
    else:
        inc = z4_over_z2()
        C, F = inc.A, identity_expectation(inc.A)
        lazy, eager = inc.tower(materialize=False), inc.tower(materialize=True)
    assert "basic_construction" not in vars(lazy)
    assert "basic_construction" in vars(eager)

    def close(a, b):
        return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= 1e-12

    lazy2, eager2 = iterate_tower(lazy), iterate_tower(eager)
    assert lazy2.module_dim == eager2.module_dim
    for name in ("jones_projection", "index_matrix", "index_inverse", "dual_quasi_basis"):
        assert close(getattr(lazy2, name), getattr(eager2, name)), name
    ts = np.stack([mx.random_matrix(lazy2.module_dim, rng) for _ in range(3)])
    assert close(lazy2.dual_value(ts), eager2.dual_value(ts))

    basis = eager.basic_construction.basis_stack
    assert close(lazy.basic_construction.basis_stack, basis)
    g_lazy = intermediate_dual_expectation(lazy, C, F)
    g_eager = intermediate_dual_expectation(eager, C, F)
    assert close([g_lazy(b) for b in basis], [g_eager(b) for b in basis])
    assert close(g_lazy.target.basis_stack, g_eager.target.basis_stack)


def test_g_idempotent_compatible_group_case():
    inc = z4_over_z2()
    level = inc.tower(materialize=True)
    g = intermediate_dual_expectation(level, inc.A, identity_expectation(inc.A))
    for b in level.basic_construction.basis[:4]:
        np.testing.assert_allclose(g(g(b)), g(b), atol=1e-9)


# ---------------------------------------------------------------------------
# non-commuting intermediate projections


def test_noncommutation_witness(tower_level, inclusion):
    u = m2.rotation(0.5)  # generic: not diagonal, not antidiagonal, not balanced
    f_u = m2.fu_expectation(u, inclusion)
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    e_d = intermediate_data(tower_level, f_u.target, f_u)[0]
    prod = e_delta @ e_d
    assert mx.operator_norm(prod - e_d @ e_delta) > 1e-6

    p, q = abs(u.lam11) ** 2, abs(u.lam12) ** 2
    a = u.lam21 * np.conj(u.lam11) * (p - q)
    b = np.conj(u.lam21) * u.lam11 * (p - q)
    expected = np.array(
        [
            [p * p + q * q, a, b, 2 * p * q],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [2 * p * q, -a, -b, p * p + q * q],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(prod, expected, atol=1e-10)
    np.testing.assert_allclose(e_d @ e_delta, mx.adjoint(expected), atol=1e-10)


def test_commuting_for_diagonal_conjugation(tower_level, inclusion):
    u = m2.Unitary2(np.diag([np.exp(0.3j), np.exp(-0.9j)]))
    f_u = m2.fu_expectation(u, inclusion)
    e_delta = intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]
    e_d = intermediate_data(tower_level, f_u.target, f_u)[0]
    np.testing.assert_allclose(e_delta, e_d, atol=1e-10)


# ---------------------------------------------------------------------------
# module calls on stacks


def _module_cases(tower_level):
    yield tower_level.module, tower_level.algebra
    inc = z4_over_z2()
    yield inc.module, inc.A


def test_module_coords_accept_stacks(tower_level, rng):
    for module, alg in _module_cases(tower_level):
        xs = np.stack([alg.random_element(rng) for _ in range(3)])
        coords = module.coords(xs)
        assert coords.shape == (3, module.dim)
        for x, c in zip(xs, coords):
            np.testing.assert_allclose(c, module.coords(x), atol=1e-12)
        back = module.from_coords(coords)
        assert back.shape == xs.shape
        for c, y in zip(coords, back):
            np.testing.assert_allclose(y, module.from_coords(c), atol=1e-12)
        np.testing.assert_allclose(back, xs, atol=1e-12)


def test_star_matrix_conjugates_coordinates(tower_level, c_plus_m2, rng):
    # coords(x*) = J conj(coords(x)) on generic and regular modules
    skewed = m2.skewed_scalar_expectation(0.3)  # non-tracial
    S3, Z4xZ2 = FiniteGroup.symmetric(3), FiniteGroup.direct_product([4, 2])
    levels = (
        tower_level,
        c_plus_m2.level,
        build_tower_level(skewed.source, skewed.target, skewed, materialize=False),
        group_algebra_inclusion(S3, trivial_subgroup(S3)).tower(),
        group_algebra_inclusion(
            Z4xZ2, generated_subgroup(Z4xZ2, [Z4xZ2.index_of((2, 0))])
        ).tower(),
    )
    for level in levels:
        mod, star = level.module, level.star_matrix
        xs = np.stack([level.algebra.random_element(rng) for _ in range(4)])
        np.testing.assert_allclose(
            mod.coords(mx.adjoint(xs)),
            np.conjugate(mod.coords(xs)) @ star.T,
            rtol=0,
            atol=1e-12,
        )


def _state_on_m3(rng):
    """The non-tracial state E(x) = Tr(rho x) 1 on M_3, rho a random full-rank density.

    A's HS basis is a random unitary mix of the matrix units, so the module
    Gram matrix is not block diagonal.  On matrix units it is, and then any
    block-diagonal factor of it, not only its square root, commutes with
    left multiplication.
    """
    units = np.eye(9, dtype=np.complex128).reshape(9, 3, 3)
    A = MatrixStarAlgebra.from_orthonormal(
        np.tensordot(mx.random_unitary(9, rng), units, axes=1)
    )
    scalars = MatrixStarAlgebra.from_orthonormal([np.eye(3) / math.sqrt(3.0)])
    g = mx.random_matrix(3, rng)
    rho = mx.adjoint(g) @ g + 0.1 * np.eye(3)
    rho /= np.trace(rho)
    return ConditionalExpectation.from_rule(A, scalars, lambda x: np.trace(rho @ x) * np.eye(3))


def _expectation_cases(tower_level, rng):
    """(E, module or None) on skewed m2, its unitary conjugate, m2 level two and an M3 state."""
    skewed = m2.skewed_scalar_expectation(0.3)
    level2 = iterate_tower(tower_level)
    return (
        (skewed, None),
        (conjugate_expectation(skewed, mx.random_unitary(2, rng)), None),  # complex rho
        (level2.expectation, level2.module),  # E_1 on A_1, tracial
        (_state_on_m3(rng), None),  # d = 9
    )


def test_generic_module_basis_is_orthonormal(tower_level, rng):
    # the module basis is A's basis times G^(-1/2), G[j, l] = Tr(E(b_j* b_l))
    # taken pair by pair, on tracial and non-tracial expectations alike
    for E, module in _expectation_cases(tower_level, rng):
        module = module or GenericModule(E.source, E)
        basis = module.from_coords(np.eye(module.dim))
        hs_basis = module.algebra.basis_stack
        gram = np.array(
            [[np.trace(E(mx.adjoint(a) @ b)) for b in hs_basis] for a in hs_basis]
        )
        inv_root = np.linalg.inv(mx.psd_sqrt(gram))
        assert module.dim == E.source.dim
        np.testing.assert_allclose(
            basis, np.tensordot(inv_root, hs_basis, axes=([0], [0])), rtol=0, atol=1e-12
        )
        gram = np.array([[np.trace(E(mx.adjoint(a) @ b)) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(module.dim), atol=1e-12)


def test_left_mult_is_the_hs_matrix_of_left_multiplication(tower_level, rng):
    # no change of basis: column j of L_x is hs_coordinates(x b_j) on every module,
    # L_x represents the product on coordinates, and L_{x*} = L_x*
    for E, module in _expectation_cases(tower_level, rng):
        module = module or GenericModule(E.source, E)
        A = module.algebra
        xs = np.stack([A.random_element(rng) for _ in range(3)])
        lmats = module.left_mult(xs)
        for x, lx in zip(xs, lmats):
            np.testing.assert_allclose(
                lx, np.swapaxes(A.hs_coordinates(x @ A.basis_stack), 0, 1),
                rtol=0, atol=1e-13,
            )
            y = A.random_element(rng)
            np.testing.assert_allclose(
                module.coords(x @ y), lx @ module.coords(y), rtol=0, atol=1e-12
            )
        np.testing.assert_allclose(
            module.left_mult(mx.adjoint(xs)), mx.adjoint(lmats), rtol=0, atol=1e-12
        )


def m2_tensor_m3():
    """M2(x)M3 >= C(x)M3, with E = tr (x) id and F = (diagonal projection) (x) id.

    A takes a seeded unitary mix of the matrix units of M6 as its basis, so
    its basis elements share their supports and A has no product table: its
    module (d = 36) multiplies by dense products.
    """
    units2 = (m2.E11, m2.E12, m2.E21, m2.E22)
    units3 = np.eye(9, dtype=np.complex128).reshape(9, 3, 3)
    eye2, eye3 = np.eye(2), np.eye(3)
    units6 = np.stack([np.kron(a, b) for a in units2 for b in units3])
    A = MatrixStarAlgebra.from_orthonormal(
        np.tensordot(mx.random_unitary(36, mx.default_rng(5)), units6, axes=1)
    )
    B = MatrixStarAlgebra.from_orthonormal([np.kron(eye2, b) / math.sqrt(2.0) for b in units3])
    C = MatrixStarAlgebra.from_orthonormal(
        [np.kron(p, b) for p in (m2.E11, m2.E22) for b in units3]
    )
    corners = [np.kron(p, eye3) for p in (m2.E11, m2.E22)]

    def trace_first(x):  # 1 (x) sum_i x[(i, .), (i, .)] / 2
        return np.kron(eye2, np.einsum("iaib->ab", x.reshape(2, 3, 2, 3)) / 2.0)

    quasi = [np.kron(m, eye3) for m in units2]
    E = ConditionalExpectation.from_rule(
        A, B, trace_first, quasi_basis=[math.sqrt(2.0) * m for m in quasi]
    )
    F = ConditionalExpectation.from_rule(
        A, C, lambda x: sum(p @ x @ p for p in corners), quasi_basis=quasi, name="F"
    )
    return E, F


def test_generic_module_beyond_d17_m2_tensor_m3(rng):
    E, F = m2_tensor_m3()
    A = E.source
    assert A.dim == 36 and A._supports is None
    # the dense primitive against products formed one element at a time
    ys = np.stack([A.random_element(rng) for _ in range(2)])
    on_left = A.multiplication_matrices(ys, left=True)
    on_right = A.multiplication_matrices(ys, left=False)
    for y, lm, rm in zip(ys, on_left, on_right):
        want_left = np.stack([A.hs_coordinates(y @ b) for b in A.basis])
        want_right = np.stack([A.hs_coordinates(b @ y) for b in A.basis])
        np.testing.assert_allclose(lm, want_left, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rm, want_right, rtol=0, atol=1e-12)
    # both interior routes against the 2x2 model's exact angle
    level = build_tower_level(A, E.target, E, materialize=False)
    assert type(level.module) is GenericModule and level.module_dim == 36
    u = m2.Unitary2(mx.random_unitary(2, rng))
    F_prime = conjugate_expectation(F, np.kron(u.matrix, np.eye(3)))
    want = math.cos(m2.exact_angle(u))
    definition = interior_angle_definition(level, F, F_prime).cos_value
    mu = restrict_expectation(E, F.target, F).quasi_basis
    delta = restrict_expectation(E, F_prime.target, F_prime).quasi_basis
    formula = interior_angle_formula(E, mu, delta).cos_value
    assert abs(definition - want) <= ROUTE_AGREEMENT_TOL
    assert abs(formula - want) <= ROUTE_AGREEMENT_TOL


@pytest.mark.parametrize("eps", [0.0, 1e-25])
def test_non_faithful_expectation_gives_a_degenerate_module(inclusion, eps):
    # E(x) = x_11 1 (eps = 0) kills e_22; eps = 1e-25 leaves a pivot below the cutoff
    E = ConditionalExpectation.from_rule(
        inclusion.A, inclusion.B, lambda x: ((1 - eps) * x[0, 0] + eps * x[1, 1]) * np.eye(2)
    )
    with pytest.raises(ConstructionFailure, match="degenerate"):
        GenericModule(inclusion.A, E)


def test_expectation_matrix_matches_operator_matrix(tower_level, c_plus_m2, inclusion, rng):
    # the module matrix of F from its coordinate matrix against F on the module basis
    skewed = m2.skewed_scalar_expectation(0.3)
    level2 = iterate_tower(tower_level)
    S3, Z4xZ2 = FiniteGroup.symmetric(3), FiniteGroup.direct_product([4, 2])
    z_inc = group_algebra_inclusion(Z4xZ2, trivial_subgroup(Z4xZ2))
    K = generated_subgroup(Z4xZ2, [Z4xZ2.index_of((2, 0))])
    # F on another algebra object with the same span as A: the change of basis Q
    mixed = np.tensordot(mx.random_matrix(4, rng), inclusion.A.basis_stack, axes=1)
    F_other = ConditionalExpectation.from_rule(
        MatrixStarAlgebra.from_spanning(mixed), inclusion.delta, inclusion.F
    )
    assert F_other.source is not tower_level.algebra
    cases = (
        (tower_level, inclusion.E),
        (tower_level, inclusion.F),
        (tower_level, F_other),
        (c_plus_m2.level, c_plus_m2.E),
        (c_plus_m2.level, c_plus_m2.F_prime),
        (build_tower_level(skewed.source, skewed.target, skewed, materialize=False), skewed),
        (level2, level2.expectation),
        (group_algebra_inclusion(S3, trivial_subgroup(S3)).tower(), None),
        (z_inc.tower(), z_inc.expectation_onto(K)),
    )
    for level, F in cases:
        F = F or level.expectation
        np.testing.assert_allclose(
            level.module.expectation_matrix(F),
            level.module.operator_matrix(F.on_source),
            rtol=0,
            atol=1e-13,
        )


def test_operator_matrix_matches_per_element_columns(tower_level, rng):
    for module, alg in _module_cases(tower_level):
        basis = module.from_coords(np.eye(module.dim))
        a = alg.random_element(rng)
        for fn in (lambda x: x, lambda x: a @ x):
            expected = np.stack([module.coords(fn(m)) for m in basis], axis=1)
            np.testing.assert_allclose(
                module.operator_matrix(fn), expected, atol=1e-12
            )


def test_dual_value_matches_per_element_sum(tower_level, rng):
    lams = tower_level.expectation.quasi_basis
    mod = tower_level.module
    for _ in range(5):
        t = mx.random_matrix(tower_level.module_dim, rng)
        total = sum(mod.from_coords(t @ mod.coords(lam)) @ mx.adjoint(lam) for lam in lams)
        np.testing.assert_allclose(
            tower_level.dual_value(t), tower_level.index_inverse @ total, atol=1e-12
        )


@pytest.mark.parametrize("budget", [mx.STACK_BUDGET_BYTES, 1])
def test_stacked_dual_value_matches_per_element_sum(
    tower_level, c_plus_m2, rng, monkeypatch, budget
):
    S3 = FiniteGroup.symmetric(3)
    levels = (
        tower_level,  # GenericModule, m2
        c_plus_m2.level,  # non-scalar index
        group_algebra_inclusion(S3, trivial_subgroup(S3)).tower(materialize=False),
        iterate_tower(tower_level),  # level two
    )
    # budget 1 cuts every stack into single elements
    monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
    for level in levels:
        mod, lams = level.module, level.expectation.quasi_basis
        ts = np.stack([mx.random_matrix(level.module_dim, rng) for _ in range(5)])
        stacked = level.dual_value(ts)
        assert stacked.shape == (5,) + level.index_inverse.shape
        for t, value in zip(ts, stacked):
            total = sum(mod.from_coords(t @ mod.coords(l)) @ mx.adjoint(l) for l in lams)
            np.testing.assert_allclose(
                value, level.index_inverse @ total, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(level.dual_value(t), value, rtol=0, atol=1e-12)
        assert level.dual_value(ts[:0]).shape == (0,) + level.index_inverse.shape


# ---------------------------------------------------------------------------
# the d q spanning family {x e_B l_k*} of A_1


def test_dq_family_spans_the_d2_family(tower_level, c_plus_m2, d2_family):
    G = FiniteGroup.direct_product([2, 2])
    group_inc = group_algebra_inclusion(G, trivial_subgroup(G))
    for level in (
        tower_level,
        iterate_tower(tower_level),
        group_inc.tower(materialize=True),
        c_plus_m2.level,
        iterate_tower(c_plus_m2.level),
    ):
        d, q = level.algebra.dim, len(level.expectation.quasi_basis)
        assert len(level.basic_construction.spanning_stack) == d * q
        d2 = MatrixStarAlgebra.from_spanning(d2_family(level))
        assert d2.same_span(level.basic_construction)


def test_dual_expectation_value_on_dq_families(tower_level, c_plus_m2, rng):
    # m2 level two, and the redundant C+M2 families (25 for dim 17, 85 for 65)
    for level in (
        iterate_tower(tower_level),
        c_plus_m2.level,
        iterate_tower(c_plus_m2.level),
    ):
        coeffs = rng.standard_normal(len(level.basic_construction.spanning_stack))
        t = np.tensordot(coeffs, level.basic_construction.spanning_stack, axes=1)
        np.testing.assert_allclose(
            dual_expectation_value(level, t), level.dual_value(t), atol=1e-10
        )
        lmats = level.embed(level.algebra.basis_stack)
        for i, j in rng.integers(len(lmats), size=(5, 2)):
            t = lmats[i] @ level.jones_projection @ lmats[j]
            np.testing.assert_allclose(
                dual_expectation_value(level, t), level.dual_value(t), atol=1e-10
            )


def test_family_without_the_quasi_basis_fails_the_check(inclusion, monkeypatch):
    # {L_x} and {x e_B} contain the embedded algebra but miss most of A_1
    def short_family(self, p):
        lmats = self.embed(self.algebra.basis_stack)
        return np.concatenate([lmats, lmats @ p])

    monkeypatch.setattr(TowerLevel, "_spanning_products", short_family)
    with pytest.raises(ConstructionFailure, match="does not span"):
        build_tower_level(inclusion.A, inclusion.B, inclusion.E)


def test_over_budget_raises_before_building(tower_level, inclusion, monkeypatch):
    # the m2 rung: the module of A_1 (dim 16, ambient 4) with its (16, 4, 4)
    # stack and four 16 x 16 matrices, e_2, J, and two stacks of 4 16 x 16
    need = 16 * (16 * 4 * 4 + 6 * 16 * 16 + 2 * 4 * 16 * 16)
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need - 1)

    def no_module(*args, **kwargs):
        raise AssertionError("module built before the budget check")

    monkeypatch.setattr(tower, "GenericModule", no_module)
    with pytest.raises(TooLarge):
        iterate_tower(tower_level)
    # level one (16 matrices of 4 x 4) fits; its intermediate G does not at 1 byte
    assert build_tower_level(
        inclusion.A, inclusion.B, inclusion.E, module=tower_level.module
    ).basic_construction.dim == 16
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", 1)
    with pytest.raises(TooLarge):
        intermediate_dual_expectation(tower_level, inclusion.delta, inclusion.F)


# ---------------------------------------------------------------------------
# the exchange law on range(e)


def exchange_law_dense(level, tol=mx.DEFAULT_TOL):
    """max ||e L_b e - L_{E(b)} e|| with three d x d products per element, the oracle."""
    e, E = level.jones_projection, level.expectation
    basis, t = E.source.basis_stack, E.coordinates(tol)
    return max(
        mx.max_operator_norm(
            e @ level.embed(basis[rows]) @ e - level.embed(E.target.combine(t[rows])) @ e
        )
        for rows in mx.stack_slices(len(basis), e.nbytes)
    )


def test_exchange_law_on_range_matches_dense_form(tower_level, inclusion, c_plus_m2):
    G = FiniteGroup.direct_product([2, 3])
    group_level = group_algebra_inclusion(G, trivial_subgroup(G)).tower(materialize=False)
    levels = [tower_level, iterate_tower(tower_level), c_plus_m2.level, group_level]
    for level in levels:
        got = tower._check_level(level, mx.DEFAULT_TOL)["exchange_law"]
        want = exchange_law_dense(level)
        assert abs(got - want) <= 1e-12 * (1.0 + want)

    # with an intermediate projection e_C in place of e_B the law fails
    swaps = [
        (tower_level, intermediate_data(tower_level, inclusion.delta, inclusion.F)[0]),
        (c_plus_m2.level, intermediate_data(c_plus_m2.level, c_plus_m2.C, c_plus_m2.F)[0]),
    ]
    for level, e_c in swaps:
        swapped = dataclasses.replace(level, jones_projection=e_c)
        with pytest.raises(ConstructionFailure) as failure:
            tower._check_level(swapped, mx.DEFAULT_TOL)
        got = failure.value.residuals["exchange_law"]
        want = exchange_law_dense(swapped)
        assert want > 0.1
        assert abs(got - want) <= 1e-12 * want
