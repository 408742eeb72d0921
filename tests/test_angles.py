import math

import numpy as np
import pytest

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles import algebra, angles, tower
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    conjugate_expectation,
    restrict_expectation,
    watatani_index,
)
from cstar_angles.tower import intermediate_data, iterate_tower
from cstar_angles.angles import (
    Route,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
)
from cstar_angles.errors import (
    DegenerateIntermediate,
    NoQuasiBasis,
    NotInAlgebra,
    NumericIntegrityError,
)
from cstar_angles.groups import (
    FiniteGroup,
    all_subgroups,
    generated_subgroup,
    group_algebra_inclusion,
    group_angle,
    intermediate_subgroups,
    intersection,
    trivial_subgroup,
)
from cstar_angles.verify import lattice_route_sweep


def diagonal_quasi_basis(inclusion):
    return restrict_expectation(inclusion.E, inclusion.delta, inclusion.F).quasi_basis


def conjugated_quasi_basis(inclusion, u):
    f_u = m2.fu_expectation(u, inclusion)
    return f_u, restrict_expectation(inclusion.E, f_u.target, f_u).quasi_basis


# ---------------------------------------------------------------------------
# formula route


def test_formula_self_angle_is_zero(inclusion):
    mu = diagonal_quasi_basis(inclusion)
    res = interior_angle_formula(inclusion.E, mu, mu)
    assert res.route is Route.FORMULA
    assert res.cos_value == pytest.approx(1.0, abs=1e-12)
    assert res.angle_rad == pytest.approx(0.0, abs=1e-8)


def test_formula_right_angle_for_balanced_unitary(inclusion):
    u = m2.Unitary2(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    _, delta = conjugated_quasi_basis(inclusion, u)
    res = interior_angle_formula(inclusion.E, diagonal_quasi_basis(inclusion), delta)
    assert res.angle_rad == pytest.approx(math.pi / 2, abs=1e-8)


def test_formula_rotation_eighth_pi(inclusion):
    # oracle: the definition route on tower matrices gives pi/4 here (the
    # fourth-power closed form would say pi/6; see the acceptance suite)
    u = m2.rotation(math.pi / 8)
    f_u, delta = conjugated_quasi_basis(inclusion, u)
    res = interior_angle_formula(inclusion.E, diagonal_quasi_basis(inclusion), delta)
    assert res.angle_rad == pytest.approx(math.pi / 4, abs=1e-10)


def test_formula_rejects_corner_intermediate(inclusion):
    corner = restrict_expectation(
        inclusion.E, inclusion.B, inclusion.E
    ).quasi_basis  # quasi-basis of E restricted to B itself: index 1
    with pytest.raises(DegenerateIntermediate):
        interior_angle_formula(inclusion.E, corner, diagonal_quasi_basis(inclusion))


def test_formula_pre_check_tolerates_a_slightly_off_target_expectation(inclusion):
    # E plus eps (x - E(x)) leaves the scalars by eps on the diagonal
    mu = diagonal_quasi_basis(inclusion)
    _, delta = conjugated_quasi_basis(inclusion, m2.rotation(math.pi / 8))
    E = inclusion.E

    def off_target(eps):
        return ConditionalExpectation.from_rule(
            E.source, E.target, lambda x: E(x) + eps * (x - E(x)), E.quasi_basis
        )

    res = interior_angle_formula(off_target(5e-9), mu, delta, C=inclusion.delta)
    assert res.angle_rad == pytest.approx(math.pi / 4, abs=1e-7)
    with pytest.raises(NoQuasiBasis):
        interior_angle_formula(off_target(1e-6), mu, delta, C=inclusion.delta)


def test_formula_pre_check_refuses_an_expectation_off_target_only_outside_c(inclusion):
    # E leaves the scalars only on e_12, which lies outside the diagonal C:
    # E|_C is exact, but E is no expectation onto the scalars
    mu = diagonal_quasi_basis(inclusion)
    _, delta = conjugated_quasi_basis(inclusion, m2.rotation(math.pi / 8))
    E, eps = inclusion.E, 1e-6

    def rule(x):
        return E(x) + eps * np.vdot(m2.E12, x) * (x - E(x))

    for c in inclusion.delta.basis:
        np.testing.assert_array_equal(rule(c), E(c))
    off = ConditionalExpectation.from_rule(E.source, E.target, rule, E.quasi_basis)
    with pytest.raises(NoQuasiBasis):
        interior_angle_formula(off, mu, delta, C=inclusion.delta)


def test_formula_pre_check_makes_no_single_matrix_expectation_calls(inclusion, monkeypatch):
    u = m2.Unitary2(mx.random_unitary(2, mx.default_rng(3)))
    f_u, delta = conjugated_quasi_basis(inclusion, u)
    calls = []
    call = ConditionalExpectation.__call__
    monkeypatch.setattr(
        ConditionalExpectation, "__call__", lambda self, x: calls.append(1) or call(self, x)
    )
    res = interior_angle_formula(
        inclusion.E, diagonal_quasi_basis(inclusion), delta, C=inclusion.delta, D=f_u.target
    )
    assert calls == []
    assert res.cos_value == pytest.approx(math.cos(m2.exact_angle(u)), abs=1e-8)


def test_formula_rejects_an_empty_family(inclusion):
    mu = diagonal_quasi_basis(inclusion)
    for families in (([], mu), (mu, []), ([], []), (np.zeros((0, 2, 2)), mu)):
        with pytest.raises(NoQuasiBasis, match="empty family"):
            interior_angle_formula(inclusion.E, *families)
        with pytest.raises(NoQuasiBasis, match="empty family"):
            interior_angle_formula(inclusion.E, *families, C=inclusion.delta, D=inclusion.delta)


def test_formula_verifies_quasi_basis_when_algebra_given(inclusion):
    with pytest.raises(NoQuasiBasis):
        interior_angle_formula(
            inclusion.E,
            [np.eye(2)],
            diagonal_quasi_basis(inclusion),
            C=inclusion.delta,
        )


def test_formula_pre_check_refuses_a_family_element_outside_the_algebra(inclusion):
    # E12 lies outside Delta: the pre-check raises NoQuasiBasis, from NotInAlgebra
    mu = diagonal_quasi_basis(inclusion)
    family = [np.eye(2), m2.E12]
    cases = (((family, mu), {"C": inclusion.delta}), ((mu, family), {"D": inclusion.delta}))
    for families, algebras in cases:
        with pytest.raises(NoQuasiBasis, match="outside") as failure:
            interior_angle_formula(inclusion.E, *families, **algebras)
        assert isinstance(failure.value.__cause__, NotInAlgebra)


def test_formula_scalar_form_agrees_with_general(inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    _, delta = conjugated_quasi_basis(inclusion, u)
    res = interior_angle_formula(inclusion.E, diagonal_quasi_basis(inclusion), delta)
    assert "cos_general_form" in res.diagnostics.extra
    assert res.diagnostics.extra["cos_general_form"] == pytest.approx(
        res.cos_value, abs=1e-10
    )


# ---------------------------------------------------------------------------
# definition route


def test_definition_self_angle(tower_level, inclusion):
    res = interior_angle_definition(tower_level, inclusion.F, inclusion.F)
    assert res.route is Route.DEFINITION
    assert res.cos_value == pytest.approx(1.0, abs=1e-12)


def test_definition_diagnostics_values(tower_level, inclusion, rng):
    # denominators are both exactly 1/2; the numerator norm is
    # | |l11|^2 - |l12|^2 | / 4 (the tower matrices prove it; the
    # fourth-power radicand would predict a larger numerator)
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    res = interior_angle_definition(tower_level, inclusion.F, f_u)
    d = res.diagnostics
    assert d.denominator_first == pytest.approx(0.5, abs=1e-10)
    assert d.denominator_second == pytest.approx(0.5, abs=1e-10)
    expected_num = abs(abs(u.lam11) ** 2 - abs(u.lam12) ** 2) / 4.0
    assert d.numerator == pytest.approx(expected_num, abs=1e-10)


def test_definition_degenerate_corner(tower_level, inclusion):
    with pytest.raises(DegenerateIntermediate):
        interior_angle_definition(tower_level, inclusion.E, inclusion.F)


def test_definition_index_check_reads_both_indices_at_the_default_tol(
    tower_level, inclusion, rng, monkeypatch
):
    seen = []
    index = algebra.watatani_index

    def recorded(E, tol=mx.DEFAULT_TOL):
        seen.append(tol)
        return index(E, tol)

    monkeypatch.setattr(algebra, "watatani_index", recorded)
    f_u = m2.fu_expectation(m2.Unitary2(mx.random_unitary(2, rng)), inclusion)
    interior_angle_definition(tower_level, inclusion.F, f_u)
    assert seen == [mx.DEFAULT_TOL, mx.DEFAULT_TOL]


def test_routes_agree_on_random_unitaries(tower_level, inclusion, rng):
    mu = diagonal_quasi_basis(inclusion)
    for _ in range(25):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u, delta = conjugated_quasi_basis(inclusion, u)
        a = interior_angle_formula(inclusion.E, mu, delta)
        b = interior_angle_definition(tower_level, inclusion.F, f_u)
        assert abs(a.cos_value - b.cos_value) <= 1e-8
        assert abs(b.cos_value - math.cos(m2.exact_angle(u))) <= 1e-8


def test_angle_symmetric(tower_level, inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    ab = interior_angle_definition(tower_level, inclusion.F, f_u)
    ba = interior_angle_definition(tower_level, f_u, inclusion.F)
    assert ab.cos_value == pytest.approx(ba.cos_value, abs=1e-9)


def test_angle_range_and_clamping(tower_level, inclusion, rng):
    for _ in range(20):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inclusion)
        res = interior_angle_definition(tower_level, inclusion.F, f_u)
        assert -1e-9 <= res.diagnostics.raw_cos <= 1 + 1e-9
        assert 0.0 <= res.cos_value <= 1.0
        assert 0.0 <= res.angle_rad <= math.pi / 2


def test_group_angle_z2_cubed():
    G = FiniteGroup.direct_product([2, 2, 2])
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((1, 0, 0)), G.index_of((0, 1, 0))])
    L = generated_subgroup(G, [G.index_of((1, 0, 0)), G.index_of((0, 0, 1))])
    exact = group_angle(G, H, K, L)
    assert exact.cos_value == pytest.approx(1.0 / 3.0, abs=1e-15)

    inc = group_algebra_inclusion(G, H)
    level = inc.tower(materialize=False)
    numeric = interior_angle_definition(
        level, inc.expectation_onto(K), inc.expectation_onto(L)
    )
    assert numeric.cos_value == pytest.approx(exact.cos_value, abs=1e-10)


def test_group_lattice_agreement_small():
    for G in (FiniteGroup.symmetric(3), FiniteGroup.direct_product([4, 2])):
        count, worst = lattice_route_sweep(G)
        assert count > 0
        assert worst <= 1e-7


# ---------------------------------------------------------------------------
# exterior angle


def test_exterior_self_angle_zero(tower_level, inclusion):
    res = exterior_angle(tower_level, inclusion.F, inclusion.F)
    assert res.angle_rad == pytest.approx(0.0, abs=1e-8)


def test_exterior_two_routes_agree_m2(tower_level, inclusion):
    for theta in (0.2, 0.6, math.pi / 4):
        f_u = m2.fu_expectation(m2.rotation(theta), inclusion)
        res = exterior_angle(tower_level, inclusion.F, f_u)
        assert abs(res.cos_value - res.diagnostics.extra["closed_cos"]) <= 1e-7


def test_exterior_group_tower():
    G = FiniteGroup.direct_product([2, 2])
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((1, 0))])
    L = generated_subgroup(G, [G.index_of((0, 1))])
    inc = group_algebra_inclusion(G, H)
    level = inc.tower(materialize=True)
    res = exterior_angle(level, inc.expectation_onto(K), inc.expectation_onto(L))
    assert abs(res.cos_value - res.diagnostics.extra["closed_cos"]) <= 1e-7
    same = exterior_angle(level, inc.expectation_onto(K), inc.expectation_onto(K))
    assert same.angle_rad == pytest.approx(0.0, abs=1e-8)


def test_exterior_runs_each_intermediate_once(tower_level, inclusion, monkeypatch):
    # C and D at level one, C_1 and D_1 at level two; G reuses level one's
    calls, original = [], tower.intermediate_data

    def counted(level, F, *args):
        calls.append(F)
        return original(level, F, *args)

    for module in (angles, tower):
        monkeypatch.setattr(module, "intermediate_data", counted)
    f_u = m2.fu_expectation(m2.rotation(0.4), inclusion)
    exterior_angle(tower_level, inclusion.F, f_u)
    assert len(calls) == 4 and calls[:2] == [inclusion.F, f_u]


def test_exterior_rejects_full_algebra(tower_level, inclusion):
    from cstar_angles.algebra import identity_expectation

    with pytest.raises(DegenerateIntermediate):
        exterior_angle(tower_level, identity_expectation(inclusion.A), inclusion.F)


# ---------------------------------------------------------------------------
# non-scalar index: C+M2 >= C+C in M3, Ind(E) = 1+4


def test_non_scalar_index_routes_agree(c_plus_m2):
    fx = c_plus_m2
    ind = fx.level.index_matrix
    np.testing.assert_allclose(ind, np.diag([1.0, 4.0, 4.0]), atol=1e-12)
    mu = restrict_expectation(fx.E, fx.C, fx.F).quasi_basis
    delta = restrict_expectation(fx.E, fx.F_prime.target, fx.F_prime).quasi_basis
    formula = interior_angle_formula(fx.E, mu, delta)
    assert "cos_general_form" not in formula.diagnostics.extra  # general branch
    definition = interior_angle_definition(fx.level, fx.F, fx.F_prime)
    assert abs(formula.cos_value - definition.cos_value) <= 1e-8
    assert 1e-3 < formula.cos_value < 1.0 - 1e-3


def test_exterior_non_scalar_index(c_plus_m2):
    fx = c_plus_m2
    res = exterior_angle(fx.level, fx.F, fx.F_prime)
    assert abs(res.cos_value - res.diagnostics.extra["closed_cos"]) <= 1e-7
    # level two is spanned by d q = 17 * 5 products instead of d^2 = 289
    level2 = iterate_tower(fx.level)
    assert len(level2.spanning_products(level2.jones_projection)) == 85


def test_exterior_angle_never_builds_level_two_algebra(inclusion, c_plus_m2):
    # the kept rung serves e_2, its module and E_2; A_2 is never read
    fx = c_plus_m2
    f_u = m2.fu_expectation(m2.rotation(0.5), inclusion)
    cases = (
        (m2.canonical_tower(inclusion), inclusion.F, f_u),
        (tower.build_tower_level(fx.E), fx.F, fx.F_prime),
    )
    for level, F, F_prime in cases:
        exterior_angle(level, F, F_prime)
        level2 = level._rung
        assert iterate_tower(level) is level2 is not None
        built = {"basic_construction", "embedded_algebra", "dual_expectation"}
        assert not built & set(vars(level2))


# ---------------------------------------------------------------------------
# exterior angle against BG2's closed expressions, one call of E per term


def closed_expressions_loop(
    level, level2, e_c, e_d, restricted_c, restricted_d, F, F_prime
):
    """The closed forms with one call of E per (l_i, l_i', mu_j, delta_k), kept as the oracle."""
    E = level.expectation
    lams = E.quasi_basis
    mus = restricted_c.quasi_basis
    deltas = restricted_d.quasi_basis
    ind_e = level.index_matrix
    ind_c_inv = np.linalg.inv(watatani_index(restricted_c))
    ind_d_inv = np.linalg.inv(watatani_index(restricted_d))
    ind_f = ind_e @ ind_c_inv
    ind_f_prime = ind_e @ ind_d_inv

    d = level.module_dim
    eye_d = np.eye(d, dtype=np.complex128)
    ind_e1_inv = level2.index_inverse

    scalar_pre = level.embed(ind_c_inv @ ind_c_inv @ ind_d_inv)
    total = np.zeros((d, d), dtype=np.complex128)
    for li in lams:
        left = level.embed(li) @ e_c
        for lj in lams:
            inner = np.zeros_like(ind_e)
            for m in mus:
                m_star = mx.adjoint(m)
                for dk in deltas:
                    inner += m @ E(m_star @ mx.adjoint(li) @ lj @ dk) @ mx.adjoint(dk)
            total += left @ level.embed(ind_f_prime @ inner) @ e_d @ mx.adjoint(
                level.embed(lj)
            )
    numerator_elem = ind_e1_inv @ (scalar_pre @ total - eye_d)

    def denominator_elem(e_x, ind_x_inv, ind_g, G):
        acc = np.zeros((d, d), dtype=np.complex128)
        f_ind = G(ind_g)
        for li in lams:
            acc += level.embed(li @ f_ind) @ e_x @ mx.adjoint(level.embed(li))
        return ind_e1_inv @ (level.embed(ind_x_inv) @ acc - eye_d)

    num = mx.operator_norm(numerator_elem)
    den1 = math.sqrt(mx.operator_norm(denominator_elem(e_c, ind_c_inv, ind_f, F)))
    den2 = math.sqrt(
        mx.operator_norm(denominator_elem(e_d, ind_d_inv, ind_f_prime, F_prime))
    )
    return num, den1, den2


def closed_form_inputs(level, level2, F, F_prime):
    """The arguments of :func:`closed_expressions_loop` for (F, F')."""
    e_c, restricted_c = intermediate_data(level, F)
    e_d, restricted_d = intermediate_data(level, F_prime)
    return level, level2, e_c, e_d, restricted_c, restricted_d, F, F_prime


def closed_form_cases(tower_level, inclusion, c_plus_m2):
    """m2 (10 seeded unitaries both ways, a rotation, the self-angle), C[Z2xZ2], C+M2."""
    level2 = iterate_tower(tower_level)
    rng = mx.default_rng(5)
    others = [
        m2.fu_expectation(m2.Unitary2(mx.random_unitary(2, rng)), inclusion)
        for _ in range(10)
    ]
    others += [m2.fu_expectation(m2.rotation(0.6), inclusion), inclusion.F]
    for f in others:
        yield closed_form_inputs(tower_level, level2, inclusion.F, f)
    # in this order mu_j = F_u(l_i) is not self-adjoint, so mu_j* is tested
    for f in others[:10]:
        yield closed_form_inputs(tower_level, level2, f, inclusion.F)

    G = FiniteGroup.direct_product([2, 2])
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    level = inc.tower(materialize=True)
    K, L = (generated_subgroup(G, [G.index_of(g)]) for g in ((1, 0), (0, 1)))
    yield closed_form_inputs(
        level, iterate_tower(level), inc.expectation_onto(K), inc.expectation_onto(L)
    )

    fx = c_plus_m2
    yield closed_form_inputs(fx.level, iterate_tower(fx.level), fx.F, fx.F_prime)


def test_closed_cos_matches_the_loop(tower_level, inclusion, c_plus_m2):
    # the formula route one rung up against BG2's closed expressions, term by term
    for args in closed_form_cases(tower_level, inclusion, c_plus_m2):
        num, den1, den2 = closed_expressions_loop(*args)
        level, F, F_prime = args[0], args[-2], args[-1]
        got = exterior_angle(level, F, F_prime).diagnostics.extra["closed_cos"]
        assert abs(got - num / (den1 * den2)) <= 1e-12


def test_exterior_angle_calls_no_single_matrix_expectation(
    tower_level, inclusion, c_plus_m2, monkeypatch
):
    cases = [(args[0], args[-2], args[-1]) for args in closed_form_cases(
        tower_level, inclusion, c_plus_m2
    )]
    called, original = [], ConditionalExpectation.__call__

    def counted(self, x):
        called.append(self)
        return original(self, x)

    monkeypatch.setattr(ConditionalExpectation, "__call__", counted)
    for level, F, F_prime in cases:
        exterior_angle(level, F, F_prime)
    assert len(cases) == 24 and called == []


def test_exterior_formula_route_reads_nothing_level_two_builds(
    tower_level, inclusion, monkeypatch
):
    # both G's made the G of C: the level-two route then sees C_1 twice, so the
    # formula route, fed from level one, must disagree with it
    first, original = [], tower._dual_expectation_from

    def g_of_c(level, e_x, restricted):
        if not first:
            first.append(original(level, e_x, restricted))
        return first[0]

    monkeypatch.setattr(angles, "_dual_expectation_from", g_of_c)
    f_u = m2.fu_expectation(m2.rotation(0.6), inclusion)
    with pytest.raises(NumericIntegrityError):
        exterior_angle(tower_level, inclusion.F, f_u)


@pytest.mark.parametrize(
    "G",
    [FiniteGroup.symmetric(3), FiniteGroup.cyclic(12), FiniteGroup.direct_product([4, 2])],
    ids=["S3", "Z12", "Z4xZ2"],
)
def test_exterior_group_lattice_exact(G):
    # the Hilbert-Schmidt cosine of P_K - P_G and P_L - P_G on l2(G), from
    # subgroup orders alone; neither route reads it
    pairs = 0
    for H in all_subgroups(G):
        inters = intermediate_subgroups(G, H)
        if len(inters) < 2:
            continue
        inc = group_algebra_inclusion(G, H)
        level = inc.tower()
        for a, K in enumerate(inters):
            for L in inters[a + 1:]:
                res = exterior_angle(level, inc.expectation_onto(K), inc.expectation_onto(L))
                n, k, m = G.order, K.order, L.order
                exact = (n * intersection(K, L).order / (k * m) - 1) / math.sqrt(
                    (n // k - 1) * (n // m - 1)
                )
                assert abs(res.cos_value - exact) <= 1e-12
                assert abs(res.diagnostics.extra["closed_cos"] - exact) <= 1e-12
                pairs += 1
    assert pairs == {6: 6, 12: 7, 8: 18}[G.order]


def test_exterior_indices_outside_the_intermediate():
    # A = M2+M2 in M4 over B = C1, E the trace with block weights (0.3, 0.7);
    # C = {x+x}, F = weighted block average, D = wCw*: Ind(E) and Ind(F) are
    # not in C
    def unit(i, j):
        m = np.zeros((4, 4), dtype=np.complex128)
        m[i, j] = 1.0
        return m

    blocks, weights = ((0, 1), (2, 3)), (0.3, 0.7)
    cells = [(w, i, j) for w, b in zip(weights, blocks) for i in b for j in b]
    A = MatrixStarAlgebra.from_orthonormal([unit(i, j) for _, i, j in cells])
    B = MatrixStarAlgebra.from_spanning([np.eye(4)])
    E = ConditionalExpectation.from_rule(
        A, B,
        lambda x: sum(w * x[i, i] / 2 for w, i, j in cells if i == j) * np.eye(4),
        quasi_basis=[math.sqrt(2 / w) * unit(i, j) for w, i, j in cells],
    )

    def doubled(x):
        return np.kron(np.eye(2), x)

    C = MatrixStarAlgebra.from_spanning(
        [doubled(unit(i, j)[:2, :2]) for i in (0, 1) for j in (0, 1)]
    )
    F = ConditionalExpectation.from_rule(
        A, C, lambda x: doubled(0.3 * x[:2, :2] + 0.7 * x[2:, 2:])
    )
    rng = mx.default_rng(7)
    w = np.zeros((4, 4), dtype=np.complex128)
    w[:2, :2], w[2:, 2:] = mx.random_unitary(2, rng), mx.random_unitary(2, rng)
    level = tower.build_tower_level(E)
    np.testing.assert_allclose(
        level.index_matrix, np.diag([40 / 3, 40 / 3, 40 / 7, 40 / 7]), atol=1e-12
    )
    res = exterior_angle(level, F, conjugate_expectation(F, w))
    assert res.cos_value == pytest.approx(0.71362459175682, abs=1e-12)
    assert abs(res.cos_value - res.diagnostics.extra["closed_cos"]) <= 1e-12


def test_degenerate_check_keeps_its_verdict_on_both_sides_of_the_screen(monkeypatch):
    tol, n = mx.DEFAULT_TOL, 4
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    cases = [
        (np.eye(n), True, 0),  # index 1: ||ind - 1||_F = 0 < tol
        (3.0 * np.eye(n), False, 0),  # [K:H] 1: ||ind - 1||_F / 2 = 2 > tol
        (np.eye(n) + 0.9 * tol * np.diag([1.0, 0, 0, 0]), True, 0),
        # neither bound settles these: the SVD decides, 0.5 tol and 2 tol
        (np.eye(n) + 0.5 * tol * np.eye(n), True, 1),
        (np.eye(n) + 2.0 * tol * np.diag([1.0, 0, 0, 0]), False, 1),
    ]
    for ind, degenerate, svds in cases:
        calls.clear()
        if degenerate:
            with pytest.raises(DegenerateIntermediate, match="C equals the corner algebra"):
                angles._check_degenerate(ind.astype(complex), "C")
        else:
            angles._check_degenerate(ind.astype(complex), "C")
        assert len(calls) == svds
