import contextlib
import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cstar_angles import algebra, m2
from cstar_angles import matrices as mx
from cstar_angles import tower
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    compatibility_residual,
    conjugate_expectation,
    identity_expectation,
    restrict_expectation,
    verify_quasi_basis,
    watatani_index,
)
from cstar_angles.angles import (
    ROUTE_AGREEMENT_TOL,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
)
from cstar_angles.errors import (
    ConstructionFailure,
    NoQuasiBasis,
    NotCompatible,
    NotInAlgebra,
    NotIntermediate,
    NumericIntegrityError,
    ShapeMismatch,
    TooLarge,
)
from cstar_angles.groups import (
    FiniteGroup,
    RegularModule,
    _masking_expectation,
    all_subgroups,
    generated_subgroup,
    group_algebra_inclusion,
    left_coset_reps,
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
    level = build_tower_level(identity_expectation(inclusion.A))
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
        build_tower_level(bare)


def test_build_reads_e_at_the_default_tol(inclusion):
    # E's images leave B by 1e-8 relative, above DEFAULT_TOL
    E = inclusion.E
    off = ConditionalExpectation.from_rule(
        E.source, E.target, lambda x: E(x) + 1e-8 * (x - E(x)), E.quasi_basis
    )
    with pytest.raises(NumericIntegrityError, match="off the target span"):
        build_tower_level(off)


def test_build_rejects_non_subalgebra(inclusion):
    # an E whose target leaves its source: the tower reads A and B off E alone
    outside = MatrixStarAlgebra.from_spanning([np.eye(2), m2.E12 + m2.E21])
    bogus = ConditionalExpectation.from_rule(
        inclusion.delta, outside, lambda x: x, quasi_basis=(np.eye(2),)
    )
    with pytest.raises(NotIntermediate):
        build_tower_level(bogus)


# ---------------------------------------------------------------------------
# intermediate projections


def test_diagonal_intermediate_projection(tower_level, inclusion):
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    np.testing.assert_allclose(e_delta, E_DELTA_MATRIX, atol=1e-12)


def test_intermediate_for_corner_is_jones(tower_level, inclusion):
    e_b = intermediate_data(tower_level, inclusion.E)[0]
    np.testing.assert_allclose(e_b, tower_level.jones_projection, atol=1e-12)


def test_conjugated_intermediate_matches_entry_list(tower_level, inclusion, rng):
    for _ in range(10):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        e_d = intermediate_data(tower_level, f_u)[0]
        np.testing.assert_allclose(e_d, m2.closed_form_eD(u), atol=1e-10)


def test_projection_laws(tower_level, inclusion, rng):
    e_b = tower_level.jones_projection
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    for e in (
        intermediate_data(tower_level, inclusion.F)[0],
        intermediate_data(tower_level, f_u)[0],
    ):
        assert mx.operator_norm(e @ e - e) <= 1e-9
        assert mx.operator_norm(e - mx.adjoint(e)) <= 1e-9
        assert mx.operator_norm(e @ e_b - e_b) <= 1e-9
        assert mx.operator_norm(e_b @ e - e_b) <= 1e-9


def test_incompatible_pair_rejected(tower_level):
    skew = m2.skewed_scalar_expectation(0.3)
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u)
    level = build_tower_level(skew)
    with pytest.raises(NotCompatible):
        intermediate_data(level, f_u)


# ---------------------------------------------------------------------------
# dual expectation


def test_dual_values_on_projections(tower_level, inclusion):
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
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
    e_k = intermediate_data(level, F)[0]
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
    family = tower_level.spanning_products(tower_level.jones_projection)
    coeffs = rng.standard_normal(len(family))
    t = sum(c * s for c, s in zip(coeffs, family))
    np.testing.assert_allclose(
        dual_expectation_value(tower_level, t), tower_level.dual_value(t), atol=1e-10
    )


def test_dual_quasi_basis_verifies(tower_level):
    assert verify_quasi_basis(
        tower_level.dual_expectation, tower_level.dual_quasi_basis, 1e-8
    )


def test_dual_quasi_basis_matches_the_per_element_loop(inclusion, c_plus_m2):
    S3 = FiniteGroup.symmetric(3)
    s3 = group_algebra_inclusion(S3, generated_subgroup(S3, [S3.index_of((1, 0, 2))]))
    z3 = group_numeric_inclusion()
    lazy = [
        build_tower_level(inclusion.E),
        s3.tower(materialize=False),
        z3.tower(materialize=False),
    ]
    # a level built without materialize forms its dual quasi-basis on first read
    for level in lazy:
        assert "dual_quasi_basis" not in vars(level)
    for level in [c_plus_m2.level] + lazy:
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


def test_iterate_tower_keeps_one_rung_per_level(inclusion, monkeypatch):
    level = m2.canonical_tower(inclusion)
    builds = []
    build = tower.build_tower_level

    def counted(E, **kwargs):
        builds.append(E)
        return build(E, **kwargs)

    monkeypatch.setattr(tower, "build_tower_level", counted)
    level2 = iterate_tower(level)
    assert iterate_tower(level) is level2 is level._rung
    exterior_angle(level, inclusion.F, m2.fu_expectation(m2.rotation(0.5), inclusion))
    assert iterate_tower(level) is level2
    assert builds == [level.dual_expectation]
    # a rung belongs to its level, not to a copy of it nor to an equal-looking level
    twin = dataclasses.replace(level)
    assert twin._rung is None
    assert iterate_tower(twin) is not level2
    assert iterate_tower(m2.canonical_tower(inclusion)) is not level2
    assert len(builds) == 3


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
    level = build_tower_level(identity_expectation(inclusion.A))
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
    g = intermediate_dual_expectation(tower_level, inclusion.F)
    e_b = tower_level.jones_projection
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    for x in inclusion.A.basis:
        for y in inclusion.A.basis:
            t = tower_level.embed(x) @ e_b @ tower_level.embed(y)
            expected = 0.5 * tower_level.embed(x) @ e_delta @ tower_level.embed(y)
            np.testing.assert_allclose(g(t), expected, atol=1e-10)


def test_interior_dual_expectation_corner_is_identity(tower_level, inclusion):
    g = intermediate_dual_expectation(tower_level, inclusion.E)
    for b in tower_level.basic_construction.basis:
        np.testing.assert_allclose(g(b), b, atol=1e-9)


def test_restricted_dual_equals_dual_of_restriction(tower_level, inclusion):
    # E_1(x e_C y) = Ind(F)^{-1} x y on spanning elements
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    ind_f_inv = np.linalg.inv(watatani_index(inclusion.F))
    for x in inclusion.A.basis:
        for y in inclusion.A.basis:
            t = tower_level.embed(x) @ e_delta @ tower_level.embed(y)
            np.testing.assert_allclose(
                tower_level.dual_value(t), ind_f_inv @ x @ y, atol=1e-10
            )


def least_squares_g(level, F):
    """G as formerly built, kept as the oracle of the quasi-basis identity.

    t is decomposed over the family {L_{b_i} e_B L_{l_k*}} of A_1 through the
    pseudo-inverse of its HS Gram matrix, and each term x e_B l_k* is mapped
    to Ind(E|_C)^{-1} x e_C l_k*, with C = target(F).  Returns G on a
    (k, d, d) stack.
    """
    e_c, restricted = intermediate_data(level, F)
    family = level.spanning_products(level.jones_projection)
    flat = family.reshape(len(family), -1)
    gram_pinv = np.linalg.pinv(
        np.conjugate(flat) @ flat.T, rcond=mx.GRAM_CUTOFF, hermitian=True
    )
    ind_c_inv = np.linalg.inv(restricted.index_element())
    rule_values = level.embed(ind_c_inv) @ level.spanning_products(e_c)

    def g(ts):
        coeffs = gram_pinv @ (np.conjugate(flat) @ ts.reshape(len(ts), -1).T)
        return np.tensordot(coeffs.T, rule_values, axes=1)

    return g


def _exterior_script():
    """``scripts/exterior_m2_plus_m3.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "exterior_m2_plus_m3.py"
    spec = importlib.util.spec_from_file_location("exterior_m2_plus_m3", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def m2_plus_m3():
    """The M2+M3 >= C+C level of ``scripts/exterior_m2_plus_m3.py``, with its F and F'."""
    _, _, _, E, F, F_prime = _exterior_script().fixture(mx.DEFAULT_SEED)
    return build_tower_level(E), F, F_prime


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
        g = intermediate_dual_expectation(level, F)
        got = np.stack([g(b) for b in basis])
        want = least_squares_g(level, F)(basis)
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("case", ["m2", "z4_over_z2"])
def test_lazy_level_iterates_and_gives_g(case, inclusion, rng):
    # a level that has not read E_1 builds A_1 when it is first read
    if case == "m2":
        F = inclusion.F
        lazy = build_tower_level(inclusion.E)
        eager = m2.canonical_tower(inclusion)
    else:
        inc = z4_over_z2()
        F = identity_expectation(inc.A)
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
    g_lazy = intermediate_dual_expectation(lazy, F)
    g_eager = intermediate_dual_expectation(eager, F)
    assert close([g_lazy(b) for b in basis], [g_eager(b) for b in basis])
    assert close(g_lazy.target.basis_stack, g_eager.target.basis_stack)


def test_g_idempotent_compatible_group_case():
    inc = z4_over_z2()
    level = inc.tower(materialize=True)
    g = intermediate_dual_expectation(level, identity_expectation(inc.A))
    for b in level.basic_construction.basis[:4]:
        np.testing.assert_allclose(g(g(b)), g(b), atol=1e-9)


# ---------------------------------------------------------------------------
# non-commuting intermediate projections


def test_noncommutation_witness(tower_level, inclusion):
    u = m2.rotation(0.5)  # generic: not diagonal, not antidiagonal, not balanced
    f_u = m2.fu_expectation(u, inclusion)
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    e_d = intermediate_data(tower_level, f_u)[0]
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
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    e_d = intermediate_data(tower_level, f_u)[0]
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
        build_tower_level(skewed),
        group_algebra_inclusion(S3, trivial_subgroup(S3)).tower(),
        group_algebra_inclusion(
            Z4xZ2, generated_subgroup(Z4xZ2, [Z4xZ2.index_of((2, 0))])
        ).tower(),
    )
    for level in levels:
        mod, star = level.module, level.module.star_matrix
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
        module = module or GenericModule(E)
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
        module = module or GenericModule(E)
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
    level = build_tower_level(E)
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


def test_level_and_module_read_a_and_b_off_the_expectation(tower_level, inclusion):
    E = tower_level.expectation
    assert tower_level.algebra is E.source and tower_level.subalgebra is E.target
    with pytest.raises(AttributeError):
        tower_level.algebra = inclusion.B
    swapped = dataclasses.replace(tower_level, expectation=inclusion.F)
    assert swapped.algebra is inclusion.F.source and swapped.subalgebra is inclusion.F.target
    assert GenericModule(E).algebra is E.source
    # a module built on another algebra, even one of the same span, is refused
    same_span = MatrixStarAlgebra.from_spanning(E.source.basis_stack[::-1])
    other = ConditionalExpectation.from_rule(same_span, E.target, E, quasi_basis=E.quasi_basis)
    with pytest.raises(ShapeMismatch, match="source of E"):
        build_tower_level(E, module=GenericModule(other))


def test_expectation_matrix_refuses_a_foreign_source(tower_level, inclusion):
    # the restriction of E to Delta has source Delta (dim 2), not A (dim 4)
    restricted = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F)
    assert restricted.source.dim == 2
    with pytest.raises(NotIntermediate, match="E and F must share their source algebra"):
        tower_level.module.expectation_matrix(restricted)


def test_an_expectation_on_a_same_span_source_reads_as_on_a(tower_level, inclusion, rng):
    # F on another algebra object with A's span (a mixed spanning family)
    # gives what the same F on A gives, through every reader of an intermediate
    A, E, F = inclusion.A, inclusion.E, inclusion.F
    mixed = np.tensordot(mx.random_matrix(4, rng), A.basis_stack, axes=1)
    F_other = ConditionalExpectation.from_rule(
        MatrixStarAlgebra.from_spanning(mixed), inclusion.delta, F
    )
    assert F_other.source is not A and F_other.source.same_span(A)

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-13

    e_c, got = intermediate_data(tower_level, F_other)
    want_e, want = intermediate_data(tower_level, F)
    close(e_c, want_e)
    close(tower.intermediate_projections(tower_level, [F_other, F_other]), np.stack([want_e] * 2))
    for restricted in (got, restrict_expectation(E, inclusion.delta, F_other)):
        assert restricted.source is inclusion.delta
        close(restricted.coordinate_matrix, want.coordinate_matrix)
        # the F(l_i) that are zero on A are rounding noise off it, and are
        # left out as the exact zeros are: two elements, as on A
        assert len(restricted.quasi_stack) == len(want.quasi_stack) == 2
        close(restricted.quasi_stack, want.quasi_stack)
    close(compatibility_residual(E, F_other), compatibility_residual(E, F))


@pytest.mark.parametrize("eps", [0.0, 1e-25])
def test_non_faithful_expectation_gives_a_degenerate_module(inclusion, eps):
    # E(x) = x_11 1 (eps = 0) kills e_22; eps = 1e-25 leaves a pivot below the cutoff
    E = ConditionalExpectation.from_rule(
        inclusion.A, inclusion.B, lambda x: ((1 - eps) * x[0, 0] + eps * x[1, 1]) * np.eye(2)
    )
    with pytest.raises(ConstructionFailure, match="degenerate"):
        GenericModule(E)


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
        (build_tower_level(skewed), skewed),
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
        assert len(level.spanning_products(level.jones_projection)) == d * q
        d2 = MatrixStarAlgebra.from_spanning(d2_family(level))
        assert d2.same_span(level.basic_construction)


def test_dual_expectation_value_on_dq_families(tower_level, c_plus_m2, rng):
    # m2 level two, and the redundant C+M2 families (25 for dim 17, 85 for 65)
    for level in (
        iterate_tower(tower_level),
        c_plus_m2.level,
        iterate_tower(c_plus_m2.level),
    ):
        family = level.spanning_products(level.jones_projection)
        coeffs = rng.standard_normal(len(family))
        t = np.tensordot(coeffs, family, axes=1)
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

    monkeypatch.setattr(TowerLevel, "spanning_products", short_family)
    level = build_tower_level(inclusion.E)  # A_1 is built, and checked, when read
    with pytest.raises(ConstructionFailure, match="does not span"):
        level.basic_construction


def test_over_budget_rung_leaves_the_dual_quasi_basis_unbuilt(inclusion, monkeypatch):
    # the budget check reads q off E's quasi-basis, not off the lazy dual
    # quasi-basis, so an over-budget rung forms none of it
    level = build_tower_level(inclusion.E)
    level.basic_construction  # A_1 (16 matrices of 4 x 4) within the default budget
    need = 16 * (16 * 4 * 4 + 6 * 16 * 16 + 2 * 4 * 16 * 16)
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need - 1)
    with pytest.raises(TooLarge):
        iterate_tower(level)
    assert "dual_quasi_basis" not in vars(level)
    assert level._rung is None


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
        inclusion.E, module=tower_level.module
    ).basic_construction.dim == 16
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", 1)
    with pytest.raises(TooLarge):
        intermediate_dual_expectation(tower_level, inclusion.F)


def test_checked_level_over_budget_raises_before_its_checks(monkeypatch):
    # the checks hold dim B x d x rank(e_B) entries, rank(e_B) = dim B, and
    # six d x d matrices: M2(x)M3 over C(x)M3 has d = 36 and dim B = 9
    E, _ = m2_tensor_m3()
    d, b = E.source.dim, E.target.dim
    need = 16 * (b * d * b + 6 * d * d)

    def unreached(*args, **kwargs):
        raise AssertionError("built before the budget check")

    with monkeypatch.context() as patch:
        patch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need - 1)
        patch.setattr(tower, "GenericModule", unreached)
        patch.setattr(tower, "_left_products", unreached)
        with pytest.raises(TooLarge, match=f"level of dimension {d} over {b}"):
            build_tower_level(E)
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need - 1)
    build_tower_level(E, check=False)  # nothing to charge
    monkeypatch.setattr(tower, "MATERIALIZE_BUDGET_BYTES", need)
    build_tower_level(E)


def test_dual_rule_sample_is_the_per_pair_draw(inclusion, monkeypatch):
    # one draw of shape (k, 2) gives the pairs k scalar draws gave, in order
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    group = group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((0, 0, 0, 1))]))
    drawn, make = [], mx.default_rng

    class Recording:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def integers(self, *args, **kwargs):
            drawn.append(self._rng.integers(*args, **kwargs))
            return drawn[-1]

    monkeypatch.setattr(mx, "default_rng", lambda seed=None: Recording(make(seed)))
    for build, d in ((lambda: build_tower_level(inclusion.E), 4),
                     (group.tower, G.order)):
        drawn.clear()
        build()
        (pairs,) = drawn
        rng = make()
        loop = [(rng.integers(d), rng.integers(d)) for _ in range(min(20, d * d))]
        assert pairs.tolist() == [[int(i), int(j)] for i, j in loop]


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
        got = tower._check_level(level)["exchange_law"]
        want = exchange_law_dense(level)
        assert abs(got - want) <= 1e-12 * (1.0 + want)

    # with an intermediate projection e_C in place of e_B the law fails, and
    # so does e_B = V V*, V being B's range still: the law is then taken on
    # e_C's own range, so the residual reported is the dense one
    swaps = [
        (tower_level, intermediate_data(tower_level, inclusion.F)[0]),
        (c_plus_m2.level, intermediate_data(c_plus_m2.level, c_plus_m2.F)[0]),
    ]
    for level, e_c in swaps:
        swapped = dataclasses.replace(level, jones_projection=e_c)
        with pytest.raises(ConstructionFailure) as failure:
            tower._check_level(swapped)
        assert failure.value.residuals["jones_range"] > 0.1
        got = failure.value.residuals["exchange_law"]
        want = exchange_law_dense(swapped)
        assert want > 0.1
        assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# the range of e_B


def group_numeric_inclusion():
    """C[H] <= C[Z3^4] with H = <(0, 0, 0, 1)>: d = 81, rank(e_B) = 3."""
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    return group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((0, 0, 0, 1))]))


@pytest.fixture(scope="module")
def range_levels(tower_level):
    """The m2 level, C[H] <= C[Z3^4] and M2+M3 level two (d = 97)."""
    return {
        "m2": tower_level,
        "C[Z3^4]": group_numeric_inclusion().tower(),
        "M2+M3 level 2": iterate_tower(m2_plus_m3()[0]),
    }


def test_jones_range_is_an_isometry_onto_range_e(range_levels, c_plus_m2):
    # V is B's basis in module coordinates, read with no eigensolve of e_B;
    # a level whose e_B is swapped keeps B's V and fails its jones_range
    # check (test_exchange_law_on_range_matches_dense_form)
    levels = {**range_levels, "c_plus_m2": c_plus_m2.level}
    for name, level in levels.items():
        v, rank = level.jones_range, level.subalgebra.dim
        assert v.shape == (level.module_dim, rank), name
        assert np.abs(mx.adjoint(v) @ v - np.eye(rank)).max() <= 1e-13, name
        assert np.abs(v @ mx.adjoint(v) - level.jones_projection).max() <= 1e-13, name


def dual_rule_dense(level):
    """max ||E_1(t) - Ind(E)^-1 b_i b_j||_F over the seeded pairs of ``_check_level``,
    each t = L_{b_i} e_B L_{b_j} formed as a d x d matrix, the oracle."""
    basis, e = level.algebra.basis_stack, level.jones_projection
    rng, d = mx.default_rng(), len(basis)
    pairs = [(rng.integers(d), rng.integers(d)) for _ in range(min(20, d * d))]
    return max(
        mx.frobenius_norm(
            level.dual_value(level.embed(basis[i]) @ e @ level.embed(basis[j]))
            - level.index_inverse @ basis[i] @ basis[j]
        )
        for i, j in pairs
    )


def test_dual_rule_through_the_range_matches_formed_products(range_levels):
    for name, level in range_levels.items():
        got = tower._check_level(level)["dual_rule"]
        assert abs(got - dual_rule_dense(level)) <= 1e-12, name
    # with a wrong star map both forms see the same large residual: C[Z3^4]
    # has a product table and a diagonal module Gram matrix, so its module
    # reads J off A's star rows.  A fresh level builds E_1's maps from them
    level = range_levels["C[Z3^4]"]
    A, d = level.algebra, level.module_dim
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(vars(A), "_star_rows", (np.arange(d), np.ones(d)))
        broken = dataclasses.replace(level)
        with pytest.raises(ConstructionFailure, match="dual_rule") as failure:
            tower._check_level(broken)
        got, want = failure.value.residuals["dual_rule"], dual_rule_dense(broken)
    assert want > 1e6 * mx.DEFAULT_TOL
    assert abs(got - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# the faithfulness Gram, the star matrix and the dual rule in A's coordinates


def faithfulness_gram_dense(level):
    """The HS Gram matrix of the embedded basis, block by block, the oracle.

    Forms every L_{b_i} and a d x d^2 product over row chunks of at most 8
    stack budgets each.
    """
    e, basis = level.jones_projection, level.algebra.basis_stack
    d = len(basis)
    chunks = mx.stack_slices(d, e.nbytes // 8)
    gram = np.empty((d, d), dtype=np.complex128)
    for a, rows in enumerate(chunks):
        left = np.conjugate(level.embed(basis[rows]).reshape(-1, e.size))
        for cols in chunks[a:]:
            block = left @ level.embed(basis[cols]).reshape(-1, e.size).T
            gram[rows, cols] = block
            gram[cols, rows] = np.conjugate(block.T)
    return gram


@pytest.fixture(scope="module")
def coordinate_levels(tower_level, c_plus_m2):
    """m2 levels 1 and 2, a non-tracial m2 level with a complex module Gram matrix,
    C+M2, M2+M3 level 2 (d = 97), C[Z2xZ3] and C[S4] (product table)."""
    Z2xZ3, S4 = FiniteGroup.direct_product([2, 3]), FiniteGroup.symmetric(4)
    level5 = m2_plus_m3()[0]
    skewed = conjugate_expectation(
        m2.skewed_scalar_expectation(0.3), mx.random_unitary(2, mx.default_rng(3))
    )
    return {
        "m2": tower_level,
        "m2 level 2": iterate_tower(tower_level),
        "skewed m2": build_tower_level(skewed),
        "C+M2": c_plus_m2.level,
        "M2+M3 level 2": iterate_tower(level5),
        "C[Z2xZ3]": group_algebra_inclusion(
            Z2xZ3, generated_subgroup(Z2xZ3, [Z2xZ3.index_of((1, 0))])
        ).tower(),
        "C[S4]": group_algebra_inclusion(
            S4, generated_subgroup(S4, [S4.index_of((1, 0, 2, 3))])
        ).tower(),
    }


def test_faithfulness_gram_by_right_multiplication_matches_the_embedded_gram(
    coordinate_levels,
):
    assert coordinate_levels["M2+M3 level 2"].algebra.dim == 97
    assert coordinate_levels["C[S4]"].algebra._table is not None
    assert coordinate_levels["C[Z2xZ3]"].algebra._table is None
    assert np.abs(coordinate_levels["skewed m2"].module._to_module.imag).max() > 0.01
    for name, level in coordinate_levels.items():
        got = tower._faithfulness_gram(level.algebra)
        want = faithfulness_gram_dense(level)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * scale, name
        smallest = np.linalg.eigvalsh(want)[0]
        assert abs(np.linalg.eigvalsh(got)[0] - smallest) <= 1e-13 * scale, name
        assert smallest > 1e-12, name


def test_star_matrix_in_algebra_coordinates_matches_operator_matrix(coordinate_levels):
    for name, level in coordinate_levels.items():
        A = level.algebra
        np.testing.assert_allclose(
            A.star_coordinates(), A.hs_coordinates(mx.adjoint(A.basis_stack)),
            rtol=0, atol=1e-13, err_msg=name,
        )
        want = level.module.operator_matrix(mx.adjoint)
        got = level.module.star_matrix
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def _loewdin_factors(level):
    """conj(G^(1/2)) and conj(G^(-1/2)) of the module Gram matrix, by eigh of G[j, l] = Tr(E(b_j* b_l))."""
    E, basis = level.expectation, level.algebra.basis_stack
    gram = np.stack([
        np.trace(E.on_source(mx.adjoint(b) @ basis), axis1=1, axis2=2) for b in basis
    ])
    values, vectors = np.linalg.eigh(gram)
    return tuple(
        np.conjugate((vectors * values**power) @ mx.adjoint(vectors)) for power in (0.5, -0.5)
    )


def test_diagonal_module_factors_match_the_dense_loewdin_forms(coordinate_levels, rng):
    # where the Gram matrix is diagonal the module keeps G^(+-1/2) as scale
    # vectors, and every form it builds from them matches the dense product;
    # the skewed state on M2's matrix units gives the diagonal 2 rho_bb, not c 1
    levels = {**coordinate_levels, "skewed m2, unconjugated": build_tower_level(
        m2.skewed_scalar_expectation(0.3)
    )}
    diagonal = {name for name, level in levels.items() if level.module._to_module.ndim == 1}
    assert {"C[S4]", "C[Z2xZ3]", "M2+M3 level 2", "skewed m2, unconjugated"} <= diagonal
    assert "skewed m2" not in diagonal
    assert np.ptp(levels["skewed m2, unconjugated"].module._to_module) > 0.1
    for name, level in levels.items():
        mod, A, E = level.module, level.algebra, level.expectation
        to, back = _loewdin_factors(level)
        scale = np.abs(to).max()
        for got, want in ((mod._to_module, to), (mod._from_module, back)):
            dense = np.diag(got) if got.ndim == 1 else got
            assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max(), name
        to, back = (np.diag(f) if f.ndim == 1 else f for f in (mod._to_module, mod._from_module))
        x = A.combine(rng.standard_normal((3, A.dim)) + 1j * rng.standard_normal((3, A.dim)))
        v = rng.standard_normal((3, A.dim)) + 1j * rng.standard_normal((3, A.dim))
        hs = E.coordinate_matrix @ E.target.basis_over(A)
        forms = [
            (mod.coords(x), A.hs_coordinates(x) @ to),
            (mod.from_coords(v), A.combine(v @ back)),
            (mod._module_matrix(hs), (back @ hs @ to).T),
            (mod.star_matrix, (np.conjugate(back) @ A.star_coordinates() @ to).T),
            (level.quasi_coords, E._quasi_coords @ to),
            (level.jones_range, (E.target.basis_over(A) @ to).T),
        ]
        for k, (got, want) in enumerate(forms):
            assert got.shape == want.shape, (name, k)
            assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max()) * scale, (name, k)


class _RightMultiplicationModule(GenericModule):
    """A module whose ``left_mult`` returns right multiplication: column j is hs(b_j x)."""

    def left_mult(self, x):
        x = np.asarray(x, dtype=np.complex128)
        stack = x.reshape((-1,) + x.shape[-2:])
        on_hs = self.algebra.multiplication_matrices(stack, left=False)
        return np.swapaxes(on_hs, 1, 2).reshape(x.shape[:-2] + (self.dim, self.dim))


@pytest.mark.parametrize("case", ["m2", "C[S3]", "C[S4]"])
def test_right_multiplication_fails_the_left_multiplication_check(case, inclusion):
    if case == "m2":
        E = inclusion.E
    else:
        # C[S4] has a product table: its basis products are gathered, and
        # only the check's one embedded y reads the wrong left_mult
        n = int(case[-2])
        S = FiniteGroup.symmetric(n)
        swap = (1, 0) + tuple(range(2, n))
        E = group_algebra_inclusion(S, generated_subgroup(S, [S.index_of(swap)])).E
        assert (E.source._gathers is not None) == (n == 4)
    module = _RightMultiplicationModule(E)
    with pytest.raises(ConstructionFailure, match="left_multiplication") as failure:
        build_tower_level(E, module=module)
    assert failure.value.residuals["left_multiplication"] > 0.1
    # the true module passes, with a residual at rounding level
    level = build_tower_level(E)
    assert tower._check_level(level)["left_multiplication"] <= 1e-14


def _counted_left_mult(module, patch) -> list:
    """Record the number of elements of each ``left_mult`` call of ``module`` in the list returned."""
    calls, left_mult = [], module.left_mult

    def counted(x):
        calls.append(len(x) if np.ndim(x) == 3 else 1)
        return left_mult(x)

    patch.setattr(module, "left_mult", counted)
    return calls


def _counted_left_times(module, patch) -> list:
    """Record the number of elements of each ``left_times`` call of ``module`` in the list returned."""
    calls, left_times = [], module.left_times

    def counted(coords):
        calls.append(len(coords))
        return left_times(coords)

    patch.setattr(module, "left_times", counted)
    return calls


def test_check_level_embeds_each_basis_chunk_once(monkeypatch):
    level = iterate_tower(m2_plus_m3()[0])
    A, unit = level.algebra, np.eye(level.algebra.dim)
    d, r = level.jones_range.shape
    assert A._gathers is not None
    # ten basis elements per chunk of the left-multiplication check, each
    # charged its row gathers and three arrays of its (d, 1) image's size
    per = tower._left_times_bytes(A, unit) + 3 * 16 * d
    assert per == 88 * d
    monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", 10 * per)
    chunks = mx.stack_slices(d, per)
    assert len(chunks) == 10
    products = _counted_left_times(level.module, monkeypatch)
    calls = _counted_left_mult(level.module, monkeypatch)
    tower._left_multiplication_residual(level)
    # on a product table the basis goes through one gathered module product
    # per chunk, and only the one random y is embedded
    assert products == [len(range(d)[rows]) for rows in chunks]
    assert calls == [1]
    calls.clear()
    tower._faithfulness_gram(A)
    assert calls == []
    with _table_off(A):
        # without gathers each element is charged its dense L_a as well
        dense = tower._left_times_bytes(A, unit)
        assert dense == 16 * (d * d + A.ambient_dim**2)
        target = mx.stack_slices(level.expectation.target.dim, dense + 3 * 16 * d * r)
        exchange = mx.stack_slices(d, dense + 4 * 16 * d * r)
        basis = mx.stack_slices(d, dense + 3 * 16 * d)
        tower._check_level(level)
    # with the table off: one per chunk of E's target basis and of the
    # exchange law, one for y and one per basis chunk, two for the
    # dual-rule sample
    assert calls == (
        [len(range(level.expectation.target.dim)[rows]) for rows in target]
        + [len(range(d)[rows]) for rows in exchange]
        + [1] + [len(range(d)[rows]) for rows in basis] + [20, 20]
    )


def test_generic_module_on_a_table_gathers_its_products(monkeypatch, rng):
    # level two of M2+M3: a GenericModule on A_1, whose matrix-unit basis
    # has a product table, against the same level with the table off
    level5 = m2_plus_m3()[0]
    on = build_tower_level(level5.dual_expectation, check=False)
    assert on.algebra.dim == 97 and on.algebra._table is not None
    assert type(on.module) is GenericModule
    with _table_off(on.algebra):
        off = build_tower_level(level5.dual_expectation)
        want = tower._check_level(off)
    calls = _counted_left_mult(on.module, monkeypatch)
    products = _counted_left_times(on.module, monkeypatch)
    got = tower._check_level(on)
    # only the left-multiplication check forms an L_x, that of its one
    # random y.  Every other product is gathered: E's target basis, every
    # basis element in the exchange law and again in the left-multiplication
    # check, the dual-rule sample's 20 + 20, and E_1's maps, built on first
    # use: L_{Ind(E)^-1}.  The Gram matrix is diagonal, so E_1's star maps
    # L_{Ind(E)^-1} J and L_{l_i} J gather J with the products and take no
    # left_times
    assert calls == [1]
    d, target = on.algebra.dim, on.expectation.target.dim
    assert on.module._to_module.ndim == 1
    assert products[0] == target and products[-3:] == [20, 20, 1]
    assert sum(products[1:-3]) == 2 * d
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-13, key
    d = on.module_dim
    ts = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    got = on.dual_value(ts)
    with _table_off(off.algebra):
        want = off.dual_value(ts)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
    # the gathered rung never reads the dense J
    assert "star_matrix" not in vars(on.module)


def test_wrong_star_matrix_fails_the_dual_rule():
    S3 = FiniteGroup.symmetric(3)
    level = group_algebra_inclusion(S3, trivial_subgroup(S3)).tower()
    assert tower._check_level(level)["dual_rule"] <= 1e-14
    module = copy.copy(level.module)
    module.star_matrix = np.eye(level.module_dim)  # coords(x*) = conj(coords(x)): false on S3
    broken = dataclasses.replace(level, module=module)
    with pytest.raises(ConstructionFailure, match="dual_rule"):
        tower._check_level(broken)


# ---------------------------------------------------------------------------
# products with L_x by gathers along the product table, against GenericModule


def _random_transversal(G, H, rng):
    """A left transversal of H: each smallest coset representative g becomes g h, h random in H."""
    reps = left_coset_reps(G, H)
    picks = rng.integers(H.order, size=len(reps))
    return [G.mult(g, H.elements[i]) for g, i in zip(reps, picks)]


def gather_cases(rng):
    """(name, inclusion, intermediates) on C[Z3^4] with a random transversal, S4 and Z2xZ2xZ3xZ4.

    Every C[K] is a slice of C[G] with its inherited product table.
    """
    Z3 = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return generated_subgroup(Z3, [Z3.index_of(g) for g in gens])

    H = sub((0, 0, 0, 1))
    z3 = group_algebra_inclusion(Z3, H, reps=_random_transversal(Z3, H, rng))
    K, L = sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)), sub((0, 1, 0, 0), (0, 0, 0, 1))
    cases = [("C[Z3^4]", z3, [K, L])]
    for G in (FiniteGroup.symmetric(4), FiniteGroup.direct_product([2, 2, 3, 4])):
        subs = all_subgroups(G)
        H = next(S for S in subs if S.order == 2)
        inters = [K for K in subs if H.issubset(K) and K.order not in (H.order, G.order)]
        cases.append((G.name, group_algebra_inclusion(G, H), inters))
    return cases


def _refused(*args):
    raise AssertionError("a dense module product or a gather was formed")


@contextlib.contextmanager
def _table_off(*algebras):
    """Switch the product table's gathers off on ``algebras`` and refuse every gather.

    The dense side of a comparison runs inside: the table is the one switch
    of the gathered products, so a module on one of these algebras forms
    its products densely, whatever its class.
    """
    with pytest.MonkeyPatch.context() as patch:
        for alg in algebras:
            patch.setitem(vars(alg), "_gathers", None)
        for module in (algebra, tower):
            patch.setattr(module, "_gather_times", _refused)
        yield patch


def _unitary_of(A, rng):
    """The unitary part of a random element of A."""
    z = A.combine(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
    return z @ np.linalg.inv(mx.psd_sqrt(mx.adjoint(z) @ z))


@pytest.fixture(scope="module")
def gathered_levels():
    """(name, inclusion, regular level, GenericModule level on the same E, the F onto each C[K]).

    The GenericModule levels are built with A's table off and every gather
    refused (:func:`_table_off`), and the tests run them so.  The last case
    conjugates the S4 inclusion by a unitary u of C[S4]: E_u still preserves
    the trace, so the regular module still holds, but its quasi-basis
    {u l_i u*} has dense coordinates, and F_u on A is not a mask.
    """
    rng, out = mx.default_rng(7), []
    for name, inc, inters in gather_cases(rng):
        regular = inc.tower()
        with _table_off(inc.A):
            dense = build_tower_level(inc.E)
        assert regular.algebra._gathers is not None and type(dense.module) is GenericModule, name
        out.append((name, inc, regular, dense, [inc.expectation_onto(K) for K in inters]))
    _, inc, _, _, members = out[1]
    u = _unitary_of(inc.A, rng)
    E_u = conjugate_expectation(inc.E, u)
    regular = build_tower_level(E_u, module=RegularModule(E_u))
    with _table_off(inc.A):
        dense = build_tower_level(E_u)
    conjugated = [conjugate_expectation(F, u) for F in members]
    out.append(("S4 under Ad u", None, regular, dense, conjugated))
    return out


def test_gathered_dual_value_matches_the_dense_module(gathered_levels, rng):
    for name, _, regular, dense, _ in gathered_levels:
        d = regular.module_dim
        ts = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
        got = regular.dual_value(ts)
        with _table_off(dense.algebra):
            want = dense.dual_value(ts)
        bound = 1e-13 * (1.0 + np.abs(want).max())
        assert np.abs(got - want).max() <= bound, name
        # one element as a matrix, and an empty stack
        assert np.abs(regular.dual_value(ts[1]) - want[1]).max() <= bound, name
        assert regular.dual_value(ts[:0]).shape == (0, d, d)


def test_dual_value_of_an_empty_stack_on_a_generic_module_over_a_table_algebra(rng):
    # the gathers of L_y J met an (m, d, 0) operand, which reshape(-1, 0)
    # could not size: level one of C[S4] on a GenericModule, and level two
    # of C[S3] over the trivial subgroup, on the matrix units of M6 (d = 36)
    S4, S3 = FiniteGroup.symmetric(4), FiniteGroup.symmetric(3)
    inc = group_algebra_inclusion(S4, trivial_subgroup(S4))
    generic = build_tower_level(inc.E, module=GenericModule(inc.E))
    level_two = iterate_tower(
        group_algebra_inclusion(S3, trivial_subgroup(S3)).tower(materialize=False)
    )
    for level in (generic, level_two):
        assert type(level.module) is GenericModule and level.algebra._gathers is not None
        d, n = level.module_dim, level.algebra.ambient_dim
        ts = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        assert level.dual_value(ts[:0]).shape == (0, n, n)
        np.testing.assert_array_equal(level.dual_value(ts)[1], level.dual_value(ts[1:])[0])


def _state_on_m5(rng, diagonal: bool) -> ConditionalExpectation:
    """E(x) = Tr(rho x) 1 on M_5's 25 matrix units (a product table), rho a random full-rank density.

    The module Gram matrix is R_rho^T on the units: diagonal, and not scalar,
    for a diagonal rho, and not diagonal otherwise.  The quasi-basis is
    {f rho^(-1/2)} over the units f, orthonormal for Tr(rho a* b).
    """
    units = np.eye(25, dtype=np.complex128).reshape(25, 5, 5)
    A = MatrixStarAlgebra.from_orthonormal(units)
    scalars = MatrixStarAlgebra.from_orthonormal([np.eye(5) / math.sqrt(5.0)])
    if diagonal:
        rho = np.diag(rng.uniform(0.5, 2.0, 5)).astype(np.complex128)
    else:
        g = mx.random_matrix(5, rng)
        rho = mx.adjoint(g) @ g + 0.1 * np.eye(5)
    rho /= np.trace(rho)
    root = np.linalg.inv(mx.psd_sqrt(rho))
    return ConditionalExpectation.from_rule(
        A, scalars, lambda x: np.trace(rho @ x) * np.eye(5), quasi_basis=units @ root
    )


def test_gathered_star_map_matches_the_dense_star_matrix(range_levels, rng):
    # J read off A's star rows, scaled by the diagonal G^(+-1/2), against the
    # dense J, and the fused L_y J conj(X) against its dense products: on
    # C[S4], C[Z3^4], the M2+M3 level two (G diagonal within an ulp of 1)
    # and M_5's units under a diagonal state (G diagonal and not scalar)
    S4 = FiniteGroup.symmetric(4)
    modules = {
        "C[S4]": group_algebra_inclusion(S4, trivial_subgroup(S4)).module,
        "C[Z3^4]": range_levels["C[Z3^4]"].module,
        "M2+M3 level 2": range_levels["M2+M3 level 2"].module,
        "M5 diagonal state": GenericModule(_state_on_m5(rng, diagonal=True)),
    }
    assert np.ptp(modules["M5 diagonal state"]._to_module) > 0.1
    for name, module in modules.items():
        A, d = module.algebra, module.dim
        assert A._gathers is not None and module._to_module.ndim == 1, name
        module = copy.copy(module)  # no dense J read yet, whatever the fixture read
        vars(module).pop("star_matrix", None)
        unit = A.hs_coordinates(np.eye(A.ambient_dim))[None]
        gathered = module.left_star(unit)(np.eye(d)[:, :, None]).T  # column k: J e_k
        y = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        y[0, 3:] = 0.0  # one element of three nonzero coordinates, two dense
        x = rng.standard_normal((2, d, 3)) + 1j * rng.standard_normal((2, d, 3))
        fused = module.left_star(y)(x)
        assert "star_matrix" not in vars(module), name
        star = module.star_matrix
        assert np.abs(gathered - star).max() <= 1e-15 * max(1.0, np.abs(star).max()), name
        lmats = module.left_mult(A.combine(y))
        want = np.einsum("aij,jl,kla->ki", lmats, star, np.conjugate(x))
        assert np.abs(fused - want).max() <= 1e-13 * (1.0 + np.abs(want).max()), name


def test_non_diagonal_gram_on_a_table_algebra_takes_the_dense_star(rng):
    # M_5's units have a product table, but under a non-diagonal density the
    # Gram matrix is not diagonal: E_1's star maps take the dense J, and the
    # dual values match the level with the table off
    E = _state_on_m5(rng, diagonal=False)
    on = build_tower_level(E)
    assert on.algebra._gathers is not None and on.module._to_module.ndim == 2
    with _table_off(on.algebra):
        off = build_tower_level(E)
    d = on.module_dim
    ts = rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))
    got = on.dual_value(ts)
    assert "star_matrix" in vars(on.module)
    with _table_off(off.algebra):
        want = off.dual_value(ts)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())


def test_a_level_over_the_budget_of_its_a1_builds_and_refuses_a1():
    # M2(x)M8 >= C(x)M8 (d = 256): the level and its checks fit the budget,
    # A_1 (1,024 matrices of 256 x 256) does not, and is refused when read
    level, F = _exterior_script().tensor_fixture(3)
    assert level.module_dim == 256
    with pytest.raises(TooLarge, match="A_1"):
        level.basic_construction
    assert "basic_construction" not in vars(level)


def test_gathered_level_checks_match_the_dense_module(gathered_levels):
    for name, _, regular, dense, _ in gathered_levels:
        got = tower._check_level(regular)
        with _table_off(dense.algebra):
            want = tower._check_level(dense)
        assert got.keys() == want.keys(), name
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-13, (name, key)


def test_gathered_intermediate_projections_match_the_dense_module(gathered_levels):
    for name, _, regular, dense, members in gathered_levels:
        got = tower.intermediate_projections(regular, members)
        # the restrictions' quasi-basis checks on C = F.target take their
        # dense path too (the table path is compared with it below)
        with _table_off(dense.algebra, *(F.target for F in members)):
            want = tower.intermediate_projections(dense, members)
        assert got.shape == want.shape == (len(members),) + regular.jones_projection.shape
        assert np.abs(got - want).max() <= 1e-13, name


def _core_verdict_and_sums(expectation, coords, patch):
    """The verdict of the quasi-basis check and its two reconstructions minus 1, as it forms them."""
    from cstar_angles.algebra import _quasi_basis_core

    seen, row_norms = [], mx.row_norms

    def recorded(rows):
        seen.append(np.array(rows))
        return row_norms(rows)

    patch.setattr(mx, "row_norms", recorded)
    onto, off, _ = expectation.target._basis_over(expectation.source, True)
    verdict = _quasi_basis_core(expectation, coords, onto, np.linalg.norm(off), mx.DEFAULT_TOL)
    return verdict, seen[-1]  # the residual rows are its last norms


def test_gathered_quasi_basis_check_matches_dense_products(gathered_levels, monkeypatch, rng):
    # the table path of the quasi-basis check, on C[G] and on every C[K]
    # slice, against the dense products it replaces (the source's gathers
    # forced off): the verdict and both reconstructions
    for name, inc, regular, _, members in gathered_levels:
        E = regular.expectation
        # E's own quasi-basis, and one element short
        cases = [(E, E._quasi_coords, True), (E, E._quasi_coords[1:], False)]
        if inc is not None:  # under Ad u, C = u C[K] u* is no slice and has no table
            cases += _group_quasi_cases(inc, rng)
            for F in members:
                restricted = restrict_expectation(E, F.target, F)
                cases.append((restricted, restricted._quasi_coords, True))
                cases.append((restricted, restricted._quasi_coords[1:], False))
        for expectation, coords, valid in cases:
            src = expectation.source
            assert src._gathers is not None, name
            with monkeypatch.context() as patch:
                got, got_sums = _core_verdict_and_sums(expectation, coords, patch)
            with monkeypatch.context() as patch:
                patch.setitem(vars(src), "_gathers", None)
                want, want_sums = _core_verdict_and_sums(expectation, coords, patch)
            assert got is want is valid, name
            assert np.abs(got_sums - want_sums).max() <= 1e-13, name


def _group_quasi_cases(inc, rng):
    """(E, coordinates, is a quasi-basis) for more families of a group inclusion's E."""
    E, G = inc.E, inc.group
    # two representatives of one coset: the first, and the first times h != e
    wrong = E._quasi_coords.copy()
    wrong[1] = 0.0
    wrong[1, G.mult(inc.coset_reps[0], inc.subgroup.elements[1])] = math.sqrt(G.order)
    # a unitary mix of a quasi-basis is one: of the last two elements (rows
    # of two and of one nonzero coordinates, padded), and of all of them
    q = len(wrong)
    pair = np.eye(q, dtype=complex)
    pair[-2:, -2:] = mx.random_unitary(2, rng)
    # so is {lambda_g u} for a unitary u of C[H], whose coordinates give
    # the Gram matrix Y* Y entries that are not real
    u = _unitary_of(inc.B, rng)
    twisted = inc.A.hs_coordinates(np.stack([G.regular_matrix(g) @ u for g in inc.coset_reps]))
    return [
        (E, pair @ E._quasi_coords, True),
        (E, mx.random_unitary(q, rng) @ E._quasi_coords, True),
        (E, twisted, True),
        (E, twisted[1:], False),
        (E, wrong, False),
    ]


def test_wrong_star_map_on_a_table_algebra_fails_the_dual_rule(monkeypatch):
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    level = group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((0, 0, 0, 1))])).tower()
    A, d = level.algebra, level.module_dim
    # the rule's two conditions: a product table and a diagonal Gram matrix
    assert A._table is not None and level.module._to_module.ndim == 1
    assert tower._check_level(level)["dual_rule"] <= 1e-14
    # coords(x*) = conj(coords(x)): false on Z3^4; a fresh level reads it
    monkeypatch.setitem(vars(A), "_star_rows", (np.arange(d), np.ones(d)))
    broken = dataclasses.replace(level)
    with pytest.raises(ConstructionFailure, match="dual_rule"):
        tower._check_level(broken)


def test_interior_angle_on_a_regular_level_forms_no_quasi_stack(monkeypatch):
    G = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return generated_subgroup(G, [G.index_of(g) for g in gens])

    # no product of the dense module is formed: neither (q, d, d) stack of
    # its L_{l_i} J, nor its L_{Ind(E)^-1} J, nor E's own stack.  The dense
    # J is refused, and so is every t q_i stack, and the dense branch of
    # left_times, whose L_y come from left_mult, which only the
    # left-multiplication check may call
    monkeypatch.setattr(GenericModule, "star_matrix", property(_refused))
    monkeypatch.setattr(TowerLevel, "_quasi_images", _refused)
    inc = group_algebra_inclusion(G, sub((0, 0, 0, 1)))
    calls = _counted_left_mult(inc.module, monkeypatch)
    level = inc.tower()
    K = sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    L = sub((0, 1, 0, 0), (0, 0, 0, 1))
    F, F_prime = inc.expectation_onto(K), inc.expectation_onto(L)
    cos = interior_angle_definition(level, F, F_prime).cos_value
    assert abs(cos - 0.5) <= 1e-12
    # the left-multiplication check gathers the basis's products and embeds
    # its one random y
    assert calls == [1]
    held = vars(level)
    assert "_quasi_left" not in held and "_quasi_star" in held
    for expectation in (inc.E, F, F_prime):
        assert "quasi_stack" not in vars(expectation)


# ---------------------------------------------------------------------------
# intermediate_data against the composition of the public checks


def intermediate_data_composed(level, F):
    """intermediate_data as the composition it replaces: the oracle of its one-pass form.

    compatibility_residual, then restrict_expectation, then
    expectation_matrix, with one SVD per norm.  Returns e_C, the restricted
    expectation and the residuals.
    """
    E = level.expectation
    if compatibility_residual(E, F) > mx.DEFAULT_TOL:
        raise NotCompatible("E does not factor through F")
    restricted = restrict_expectation(E, F.target, F)
    e_b = level.jones_projection
    lm = level.embed(restricted.quasi_stack)
    e_c = sum(
        np.tensordot(lm[rows] @ e_b, np.conjugate(lm[rows]), axes=([0, 2], [0, 2]))
        for rows in mx.stack_slices(len(lm), 4 * e_b.nbytes)
    )
    norms = _dense_projection_norms(e_c[None], e_b, level.module.expectation_matrix(F)[None])[0]
    return e_c, restricted, _dense_residuals(norms)


def _dense_projection_norms(e_cs, e_b, e_fs):
    """Row k: the dense postcondition norms of member k and ||e_C||, the oracle of the factor form.

    The norms of e_C - e_F, e_C^2 - e_C, e_C - e_C*, e_C e_B - e_B,
    e_B e_C - e_B and e_C for (k, d, d) stacks of e_C and e_F, each an
    operator norm.
    """
    k, d = len(e_cs), len(e_b)
    stack = np.empty((k, 6, d, d), dtype=np.complex128)
    np.subtract(e_cs, e_fs, out=stack[:, 0])
    np.matmul(e_cs, e_cs, out=stack[:, 1])
    stack[:, 1] -= e_cs
    np.subtract(e_cs, mx.adjoint(e_cs), out=stack[:, 2])
    np.matmul(e_cs, e_b, out=stack[:, 3])
    stack[:, 3] -= e_b
    np.matmul(e_b, e_cs, out=stack[:, 4])
    stack[:, 4] -= e_b
    stack[:, 5] = e_cs
    return np.stack([mx.operator_norms(member) for member in stack])


def _dense_residuals(norms):
    """The residuals the factor form reports, from a row of :func:`_dense_projection_norms`.

    The factor form has no self-adjointness residual: W W* is self-adjoint
    by its form, and the dense one is checked to be so within rounding.
    """
    assert norms[2] <= 1e-13
    return {
        "matches_expectation_matrix": norms[0],
        "idempotent": norms[1],
        "absorbs_jones": max(norms[3], norms[4]),
    }


def intermediate_cases(tower_level, inclusion):
    """(name, level, F) for intermediate_data.

    m2's Delta and F_u, C[A4] in C[S4], C[K] and C[L] in C[Z3^4] over C[Z3]
    (the group-numeric benchmark's inclusion), and an intermediate of M2+M3
    at level two.
    """
    f_u = m2.fu_expectation(m2.rotation(0.5), inclusion)
    S4 = FiniteGroup.symmetric(4)
    s4 = group_algebra_inclusion(S4, trivial_subgroup(S4))
    A4 = next(K for K in all_subgroups(S4) if K.order == 12)
    Z3 = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return generated_subgroup(Z3, [Z3.index_of(g) for g in gens])

    z3 = group_algebra_inclusion(Z3, sub((0, 0, 0, 1)))
    z3_level = z3.tower()
    K = sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    L = sub((0, 1, 0, 0), (0, 0, 0, 1))
    level5, F5, _ = m2_plus_m3()
    g = intermediate_dual_expectation(level5, F5)
    return [
        ("m2 Delta", tower_level, inclusion.F),
        ("m2 F_u", tower_level, f_u),
        ("S4 over A4", s4.tower(), s4.expectation_onto(A4)),
        ("Z3^4 K", z3_level, z3.expectation_onto(K)),
        ("Z3^4 L", z3_level, z3.expectation_onto(L)),
        ("M2+M3 level two", iterate_tower(level5), g),
    ]


def test_intermediate_data_matches_the_composed_checks(tower_level, inclusion, monkeypatch):
    recorded = []
    residuals_of = tower._projection_residuals

    def recording(*args):
        residuals, size = residuals_of(*args)
        recorded.append(residuals)
        return residuals, size

    monkeypatch.setattr(tower, "_projection_residuals", recording)
    svds = _svd_inputs(monkeypatch)
    for name, level, F in intermediate_cases(tower_level, inclusion):
        svds.clear()
        e_c, restricted = intermediate_data(level, F)
        # the Frobenius screen settles every member: no residual takes an SVD
        assert all(shape[-2:] != e_c.shape for shape in svds), name
        want_e, want_restricted, want_residuals = intermediate_data_composed(level, F)
        # W W* through range(e_B) against the dense sum of products
        assert np.abs(e_c - want_e).max() <= 1e-13, name
        assert restricted.coordinate_matrix.tobytes() == want_restricted.coordinate_matrix.tobytes()
        assert restricted.quasi_stack.tobytes() == want_restricted.quasi_stack.tobytes(), name
        got = recorded.pop()
        assert got.keys() == want_residuals.keys()
        for key, want in want_residuals.items():
            assert abs(got[key] - want) <= 1e-13, (name, key)


def _svd_inputs(monkeypatch) -> list:
    """Record the shape of each ``np.linalg.svd`` input in the list returned."""
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def _member_factor(level, F):
    """(W, e_F) of one member: the factor with e_C = W W* and F's module matrix."""
    (member,) = tower._compatible_members(level, iter([F]))
    w, e_f, _ = tower._member_projection(level, member)
    return w, e_f


def test_factor_postconditions_match_the_dense_norms(tower_level, inclusion):
    # each residual of the factor form is the dense quantity it stands for,
    # on the exact operator norms a member the screen does not settle takes:
    # W scaled by 1 + 0.45 tol moves every residual to about 0.9 tol
    tol = mx.DEFAULT_TOL
    for name, level, F in intermediate_cases(tower_level, inclusion):
        w, e_f = _member_factor(level, F)
        v, e_b = level.jones_range, level.jones_projection
        for scale in (1.0, 1.0 + 0.45 * tol, 1.0 + 1e-6):
            ws = scale * w
            e_c = ws @ mx.adjoint(ws)
            got = tower._projection_norms(ws, v, e_f)
            dense = _dense_projection_norms(e_c[None], e_b, e_f[None])[0]
            want = _dense_residuals(dense)
            if scale == 1.0:
                # settled by the screen: Frobenius norms below tol, ||e_C|| read as 0
                assert got[3] == 0.0 and max(got[:3]) < tol, name
                assert all(g <= 1e-13 for g in got[:3]), name
                continue
            assert got[3] == pytest.approx(dense[5], abs=1e-13), name
            for g, key in zip(got, want):
                assert abs(g - want[key]) <= 1e-15 + 1e-12 * want[key], (name, key)


def test_projection_checks_take_exact_norms_where_the_screen_does_not_settle(
    tower_level, inclusion, monkeypatch
):
    level, F = tower_level, inclusion.F
    w, e_f = _member_factor(level, F)
    v, tol = level.jones_range, mx.DEFAULT_TOL
    recorded, residuals_of = [], tower._projection_residuals
    monkeypatch.setattr(
        tower, "_projection_residuals", lambda norms: recorded.append(residuals_of(norms)) or recorded[-1]
    )

    def exact(ws):
        e_c = ws @ mx.adjoint(ws)
        norms = _dense_projection_norms(e_c[None], level.jones_projection, e_f[None])[0]
        return _dense_residuals(norms), norms[5]

    # settled by the screen: compared with DEFAULT_TOL, ||e_C|| read as 0
    tower._check_projections([w], v, [e_f])
    assert recorded.pop()[1] == 0.0
    # W scaled by 1 + 0.45 tol: e_C by about 1 + 0.9 tol, Frobenius norms
    # about 1.3 tol on e_C of rank 2, operator norms about 0.9 tol, so the
    # screen does not settle it and the SVDs pass it
    scaled = (1.0 + 0.45 * tol) * w
    tower._check_projections([scaled], v, [e_f])
    residuals, size = recorded.pop()
    want, want_size = exact(scaled)
    assert np.linalg.norm(scaled @ mx.adjoint(scaled) - e_f) > tol
    assert size == pytest.approx(want_size, abs=1e-15)
    for key, value in want.items():
        assert residuals[key] == pytest.approx(value, abs=1e-15), key
        assert value <= tol * (1.0 + size)


@pytest.mark.parametrize("corruption", ["scaled by 1 + 1e-6", "one block dropped"])
def test_corrupted_factors_fail_the_postconditions(tower_level, inclusion, corruption):
    # W = [L_{mu_1} V ... L_{mu_p} V], r columns a block
    for name, level, F in intermediate_cases(tower_level, inclusion):
        w, e_f = _member_factor(level, F)
        v = level.jones_range
        if corruption == "one block dropped":
            bad, keys = w[:, v.shape[1]:], {"matches_expectation_matrix"}
        else:
            bad = (1.0 + 1e-6) * w
            keys = {"matches_expectation_matrix", "idempotent", "absorbs_jones"}
        with pytest.raises(ConstructionFailure, match="intermediate projection failed") as failure:
            tower._check_projections([bad], v, [e_f])
        residuals = failure.value.residuals
        size = mx.operator_norm(bad @ mx.adjoint(bad))
        failed = {key for key, r in residuals.items() if r > mx.DEFAULT_TOL * (1.0 + size)}
        assert keys <= failed, (name, residuals)
        # the reported residuals are exact operator norms, as the dense ones
        want = _dense_residuals(_dense_projection_norms(
            (bad @ mx.adjoint(bad))[None], level.jones_projection, e_f[None]
        )[0])
        for key, value in want.items():
            assert residuals[key] == pytest.approx(value, abs=1e-13), (name, key)


def test_a_checked_regular_level_and_its_angle_take_three_svds_and_no_eigvalsh(monkeypatch):
    # the group-numeric benchmark's inclusion: every check of the level and
    # of the intermediate factors is settled by its bound, so the only SVDs
    # are the angle's three values (its numerator and two module norms), in
    # one stacked call, and no eigenvalue is computed for a check
    G = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return generated_subgroup(G, [G.index_of(g) for g in gens])

    inc = group_algebra_inclusion(G, sub((0, 0, 0, 1)))
    F = inc.expectation_onto(sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)))
    F_prime = inc.expectation_onto(sub((0, 1, 0, 0), (0, 0, 0, 1)))
    svds, spectral = _svd_inputs(monkeypatch), []
    # nor does it take an eigensolve or an inverse its inputs answer: the
    # module Gram matrix and Ind(E) are diagonal, and V is B's coordinates
    for name in ("eigvalsh", "eigh", "inv"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda h, _f=f, _name=name: spectral.append(_name) or _f(h)
        )
    level = inc.tower()
    assert abs(interior_angle_definition(level, F, F_prime).cos_value - 0.5) <= 1e-12
    assert spectral == []
    assert svds == [(3, 81, 81)]


def test_a_module_whose_gram_matrix_is_not_diagonal_takes_the_eigensolve(range_levels, monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(np.shape(h)) or eigh(h))
    # matrix units give a diagonal Gram matrix, even one rung up (d = 97)
    GenericModule(range_levels["M2+M3 level 2"].expectation)
    assert shapes == []
    # a basis mixed by a unitary does not (d = 36)
    GenericModule(m2_tensor_m3()[0])
    assert shapes == [(36, 36)]


def _basis_over_passes(monkeypatch, basis, over):
    """A list that records each basis_over pass of ``basis`` over ``over``.

    A pass is one call of MatrixStarAlgebra._basis_over: every answer of
    :meth:`MatrixStarAlgebra.basis_over` is one, and so is a containment
    test that keeps its residuals as well.  The list holds whether each
    pass took the residuals.
    """
    passes, over_of = [], MatrixStarAlgebra._basis_over

    def counted(alg, other, residuals):
        if alg is basis and other is over:
            passes.append(residuals)
        return over_of(alg, other, residuals)

    monkeypatch.setattr(MatrixStarAlgebra, "_basis_over", counted)
    return passes


def test_intermediate_data_takes_c_to_a_by_one_coordinate_pass(tower_level, inclusion, monkeypatch):
    for name, level, F in intermediate_cases(tower_level, inclusion):
        passes = _basis_over_passes(monkeypatch, F.target, level.algebra)
        intermediate_data(level, F)
        assert passes == [True], name  # the containment test gives the coordinates
        passes.clear()
        intermediate_data_composed(level, F)
        # the composition: one in each public function, one for F's module matrix
        assert len(passes) == 3, name
        monkeypatch.undo()


def test_intermediate_data_fails_as_the_composed_checks(tower_level, inclusion):
    skew = m2.skewed_scalar_expectation(0.3)
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u)
    G = FiniteGroup.cyclic(4)
    z4 = z4_over_z2()
    # C[Z4] over C[Z2], and F onto the trivial subgroup, which misses Z2
    trivial = _masking_expectation(z4.A, trivial_subgroup(G), range(4), "F")
    E = inclusion.E
    broken = ConditionalExpectation.from_coordinates(
        E.source, E.target, E.coordinate_matrix, quasi_basis=1.1 * E.quasi_stack
    )
    broken_level = dataclasses.replace(tower_level, expectation=broken)
    cases = [
        (NotCompatible, build_tower_level(skew), f_u),
        (NotIntermediate, z4.tower(), trivial),
        # a quasi-basis of E scaled by 1.1 derives none of E|_Delta
        (NoQuasiBasis, broken_level, inclusion.F),
    ]
    for error, level, F in cases:
        with pytest.raises(error):
            intermediate_data_composed(level, F)
        with pytest.raises(error):
            intermediate_data(level, F)


def test_intermediate_data_takes_b_to_c_by_one_coordinate_pass(tower_level, inclusion, monkeypatch):
    # the containment test B <= C and the quasi-basis check share one pass
    for name, level, F in intermediate_cases(tower_level, inclusion):
        passes = _basis_over_passes(monkeypatch, level.expectation.target, F.target)
        intermediate_data(level, F)
        assert passes == [True], name
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# intermediate_projections: a family of members in one call


def _z4_perturbed(z4, k, j):
    """F onto C[Z4]: the identity of C[Z4] plus b_k -> b_j, b the basis of C[Z4]."""
    t = np.eye(z4.A.dim)
    t[k, j] = 1.0
    return ConditionalExpectation.from_coordinates(z4.A, z4.A, t, name="F")


def test_intermediate_projections_fail_as_the_failing_member_alone():
    z4 = z4_over_z2()
    level = z4.tower()
    G = z4.group
    good = [z4.expectation_onto(K) for K in all_subgroups(G) if z4.subgroup.issubset(K)]
    assert len(good) == 2
    trivial = _masking_expectation(z4.A, trivial_subgroup(G), range(4), "F")
    bad = [
        # onto the trivial subgroup, which misses Z2
        (NotIntermediate, trivial),
        # E(F(b_1)) = E(b_1 + b_0) = b_0, where E(b_1) = 0
        (NotCompatible, _z4_perturbed(z4, 1, 0)),
        # compatible, but {F(l_i)} = {b_0, b_1 + b_3} up to scale is no quasi-basis
        (NoQuasiBasis, _z4_perturbed(z4, 1, 3)),
        # the quasi-basis {F(l_i)} is E's own, so e_C = 1, but F is no identity
        (ConstructionFailure, _z4_perturbed(z4, 2, 1)),
    ]
    want = np.stack([intermediate_data(level, F)[0] for F in good])
    assert np.abs(tower.intermediate_projections(level, iter(good)) - want).max() == 0.0
    for error, member in bad:
        with pytest.raises(error) as alone:
            intermediate_data(level, member)
        for family in ([member, *good], [good[0], member, good[1]], [*good, member]):
            with pytest.raises(error) as failure:
                tower.intermediate_projections(level, iter(family))
            assert str(failure.value) == str(alone.value)


@pytest.mark.parametrize("budget", [mx.STACK_BUDGET_BYTES, 1])
def test_intermediate_projections_match_the_composed_checks(tower_level, inclusion, monkeypatch, budget):
    families = {}  # the cases of one level form one family, in their order
    for name, level, F in intermediate_cases(tower_level, inclusion):
        families.setdefault(id(level), (level, []))[1].append((name, F))
    recorded, chunks = [], []
    residuals_of, members_of = tower._projection_residuals, tower._compatible_members

    def recording(*args):
        residuals, size = residuals_of(*args)
        recorded.append(residuals)
        return residuals, size

    def chunked(*args):
        members = members_of(*args)
        chunks.append(len(members))
        return members

    monkeypatch.setattr(tower, "_projection_residuals", recording)
    monkeypatch.setattr(tower, "_compatible_members", chunked)
    monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
    assert any(len(cases) > 1 for _, cases in families.values())
    for level, cases in families.values():
        chunks.clear()
        e_cs = tower.intermediate_projections(level, (F for _, F in cases))
        # the reads of the iterator, the last one finding it empty
        assert chunks[-1] == 0 and sum(chunks) == len(cases)
        if budget == 1:
            assert chunks[:-1] == [1] * len(cases)
        got = recorded[-len(cases):]
        for (name, F), e_c, residuals in zip(cases, e_cs, got):
            want_e, _, want_residuals = intermediate_data_composed(level, F)
            assert np.abs(e_c - want_e).max() <= 1e-13, name
            assert residuals.keys() == want_residuals.keys()
            for key, want in want_residuals.items():
                assert abs(residuals[key] - want) <= 1e-13, (name, key)
