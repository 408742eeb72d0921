import json
import math

import numpy as np
import pytest

from cstar_angles import algebra, m2
from cstar_angles import matrices as mx
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    cauchy_schwarz_check,
    compatibility_residual,
    conjugate_expectation,
    identity_expectation,
    is_compatible,
    matrix_from_json,
    matrix_to_json,
    restrict_expectation,
    verify_expectation,
    verify_quasi_basis,
    verify_star_algebra,
    watatani_index,
)
from cstar_angles.errors import (
    EmptyAlgebra,
    InvalidMatrix,
    NoQuasiBasis,
    NotInAlgebra,
    NotIntermediate,
    NotUnitary,
    NumericIntegrityError,
    ShapeMismatch,
)
from cstar_angles.groups import (
    FiniteGroup,
    generated_subgroup,
    group_algebra_inclusion,
    left_coset_reps,
    trivial_subgroup,
)
from cstar_angles.tower import GenericModule, intermediate_dual_expectation

E11, E12 = m2.E11, m2.E12
E21, E22 = m2.E21, m2.E22


# ---------------------------------------------------------------------------
# star algebras


def test_diagonal_algebra_verifies():
    report = verify_star_algebra(MatrixStarAlgebra.from_spanning([E11, E22]))
    assert report.passed


def test_unitless_span_fails():
    report = verify_star_algebra(MatrixStarAlgebra.from_spanning([E12]))
    assert not report.passed
    assert any(c.name == "unit_in_span" and not c.passed for c in report.checks)


def test_conjugated_algebra_verifies(rng):
    u = mx.random_unitary(2, rng)
    alg = MatrixStarAlgebra.from_spanning(
        [u @ E11 @ mx.adjoint(u), u @ E22 @ mx.adjoint(u)]
    )
    assert verify_star_algebra(alg).passed


def test_empty_spanning_set_rejected():
    with pytest.raises(EmptyAlgebra):
        MatrixStarAlgebra.from_spanning([])
    # a ready stack is validated as a family is: shapes, then finite entries
    with pytest.raises(ShapeMismatch):
        MatrixStarAlgebra.from_orthonormal(np.zeros((2, 2, 3)))
    bad = np.stack([E11, E22]).astype(np.complex128)
    bad[1, 1, 1] = np.nan
    for family in (bad, list(bad)):
        with pytest.raises(InvalidMatrix):
            MatrixStarAlgebra.from_orthonormal(family)


def test_same_span_insensitive_to_basis(rng):
    a = MatrixStarAlgebra.from_spanning([E11, E22])
    b = MatrixStarAlgebra.from_spanning([E11 + E22, E11 - E22])
    assert a.same_span(b)
    assert not a.same_span(MatrixStarAlgebra.from_spanning([np.eye(2)]))


# ---------------------------------------------------------------------------
# quasi-bases and the index


def test_trace_expectation_quasi_basis(inclusion):
    assert verify_quasi_basis(inclusion.E, inclusion.E.quasi_basis)


def test_diagonal_expectation_quasi_basis(inclusion):
    assert verify_quasi_basis(inclusion.F, [E11, E12, E21, E22])


def test_identity_alone_is_not_a_quasi_basis(inclusion):
    # sum_i 1 E(1 x) = E(x) != x already for x = e12
    assert not verify_quasi_basis(inclusion.E, [np.eye(2)])
    # nor is a family of zeros, or no family at all (which the span holds)
    assert not verify_quasi_basis(inclusion.E, [np.zeros((2, 2))])
    assert not verify_quasi_basis(inclusion.E, np.zeros((0, 2, 2)))
    assert inclusion.A.contains_all(np.zeros((0, 2, 2)))


def test_quasi_basis_elements_must_be_in_source(inclusion):
    with pytest.raises(NotInAlgebra):
        delta = MatrixStarAlgebra.from_spanning([E11, E22])
        restricted = ConditionalExpectation.from_rule(delta, inclusion.B, inclusion.E)
        verify_quasi_basis(restricted, [E12])


def test_watatani_index_values(inclusion):
    np.testing.assert_allclose(watatani_index(inclusion.E), 4.0 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(watatani_index(inclusion.F), 2.0 * np.eye(2), atol=1e-12)


def test_watatani_index_group_case():
    G = FiniteGroup.direct_product([2, 3])
    H = generated_subgroup(G, [G.index_of((0, 1))])
    inc = group_algebra_inclusion(G, H)
    np.testing.assert_allclose(
        watatani_index(inc.E), 2.0 * np.eye(G.order), atol=1e-12
    )
    assert verify_quasi_basis(inc.E, inc.E.quasi_basis)


def test_watatani_requires_quasi_basis(inclusion):
    bare = ConditionalExpectation.from_rule(inclusion.A, inclusion.B, inclusion.E)
    with pytest.raises(NoQuasiBasis):
        watatani_index(bare)


def test_index_independent_of_quasi_basis(inclusion, rng):
    # mix by any unitary coefficient matrix: still a quasi-basis, same index
    w = mx.random_unitary(4, rng)
    qb = inclusion.E.quasi_basis
    mixed = [sum(w[i, j] * qb[j] for j in range(4)) for i in range(4)]
    assert verify_quasi_basis(inclusion.E, mixed)
    ind = sum(lam @ mx.adjoint(lam) for lam in mixed)
    np.testing.assert_allclose(ind, watatani_index(inclusion.E), atol=1e-12)


# ---------------------------------------------------------------------------
# restriction, compatibility, composition


def test_restrict_to_diagonal(inclusion):
    restricted = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F)
    # F(sqrt(2) E12) = F(sqrt(2) E21) = 0 are left out
    expected = [math.sqrt(2) * E11, math.sqrt(2) * E22]
    assert len(restricted.quasi_basis) == len(expected)
    for got, want in zip(restricted.quasi_basis, expected):
        np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(
        watatani_index(restricted), 2.0 * np.eye(2), atol=1e-12
    )


def test_restrict_to_full_source_is_identity_basis(inclusion):
    ident = identity_expectation(inclusion.A)
    restricted = restrict_expectation(inclusion.E, inclusion.A, ident)
    for got, want in zip(restricted.quasi_basis, inclusion.E.quasi_basis):
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_restrict_group_case_uses_coset_reps_in_subgroup():
    G = FiniteGroup.direct_product([4])
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((2,))])
    inc = group_algebra_inclusion(G, H)
    F = inc.expectation_onto(K)
    restricted = restrict_expectation(inc.E, F.target, F)
    nonzero = [m for m in restricted.quasi_basis if mx.frobenius_norm(m) > 1e-12]
    assert len(nonzero) == 2  # [K:H] = 2
    np.testing.assert_allclose(
        watatani_index(restricted), 2.0 * np.eye(4), atol=1e-12
    )


def test_restrict_rejects_non_intermediate(inclusion):
    outside = MatrixStarAlgebra.from_spanning([np.eye(2), E12 + E21])
    with pytest.raises(NotIntermediate):
        restrict_expectation(inclusion.E, outside, inclusion.F)


def test_compatibility_diagonal(inclusion):
    assert is_compatible(inclusion.E, inclusion.F)
    assert is_compatible(inclusion.E, inclusion.E)


def test_compatibility_skewed_counterexample():
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u)
    skewed = m2.skewed_scalar_expectation(0.3)
    assert not is_compatible(skewed, f_u)
    assert compatibility_residual(skewed, f_u) > 0.05
    assert is_compatible(m2.skewed_scalar_expectation(0.5), f_u)


def test_index_multiplicative(inclusion):
    restricted = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F)
    np.testing.assert_allclose(
        watatani_index(inclusion.E),
        watatani_index(restricted) @ watatani_index(inclusion.F),
        atol=1e-9,
    )


def test_index_multiplicative_group_chain():
    G = FiniteGroup.cyclic(12)
    H = generated_subgroup(G, [G.index_of((6,))])
    K = generated_subgroup(G, [G.index_of((3,))])
    inc = group_algebra_inclusion(G, H)
    F = inc.expectation_onto(K)
    restricted = restrict_expectation(inc.E, F.target, F)
    # [G:H] = 6 = [K:H] * [G:K] = 2 * 3
    np.testing.assert_allclose(
        watatani_index(inc.E),
        watatani_index(restricted) @ watatani_index(F),
        atol=1e-9,
    )


def test_composite_quasi_basis(inclusion):
    restricted = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F)
    composite = [
        g @ mid for g in inclusion.F.quasi_basis for mid in restricted.quasi_basis
    ]
    assert verify_quasi_basis(inclusion.E, composite)


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_by_identity(inclusion):
    f_id = conjugate_expectation(inclusion.F, np.eye(2))
    for b in inclusion.A.basis:
        np.testing.assert_allclose(f_id(b), inclusion.F(b), atol=1e-12)


def test_conjugate_matches_closed_form(inclusion, rng):
    u = mx.random_unitary(2, rng)
    f_u = conjugate_expectation(inclusion.F, u)
    for b in inclusion.A.basis:
        np.testing.assert_allclose(f_u(b), m2.fu_map(m2.Unitary2(u), b), atol=1e-12)


def test_conjugate_index_invariant(inclusion, rng):
    for _ in range(5):
        u = mx.random_unitary(2, rng)
        f_u = conjugate_expectation(inclusion.F, u)
        np.testing.assert_allclose(watatani_index(f_u), 2.0 * np.eye(2), atol=1e-10)


def test_conjugate_rejects_non_unitary(inclusion):
    with pytest.raises(NotUnitary):
        conjugate_expectation(inclusion.F, np.diag([1.0, 2.0]))


def test_skewed_expectation_quasi_basis_scaling():
    # the reconstruction identities force the 1/sqrt weights; the sqrt-weighted
    # family is not a quasi-basis for any t, including t = 1/2
    for t in (0.3, 0.5):
        skewed = m2.skewed_scalar_expectation(t)
        assert verify_quasi_basis(skewed, skewed.quasi_basis)
        st_, s1t = math.sqrt(t), math.sqrt(1 - t)
        wrong = [st_ * E11, s1t * E12, st_ * E21, s1t * E22]
        assert not verify_quasi_basis(skewed, wrong)
        np.testing.assert_allclose(
            watatani_index(skewed), np.eye(2) / (t * (1 - t)), atol=1e-10
        )


# ---------------------------------------------------------------------------
# expectation axioms, idempotency, Cauchy-Schwarz


def test_expectation_axioms(inclusion, rng):
    for exp in (inclusion.E, inclusion.F):
        assert verify_expectation(exp, rng=rng).passed


def test_expectation_idempotent_as_map(inclusion):
    for exp in (inclusion.E, inclusion.F):
        m = exp.map_matrix
        assert mx.operator_norm(m @ m - m) <= 1e-9


def test_cauchy_schwarz_equality_on_same_vector(inclusion, rng):
    x = mx.random_matrix(2, rng)
    res = cauchy_schwarz_check(inclusion.E, x, x)
    assert res.holds
    assert res.lhs == pytest.approx(res.rhs, abs=1e-12)


def test_cauchy_schwarz_equality_without_dependence(inclusion):
    x = np.diag([1.0, 1.0]).astype(complex)
    y = np.diag([1j, 1.0])
    res = cauchy_schwarz_check(inclusion.F, x, y)
    assert res.holds
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    # and yet {x, y} is linearly independent
    assert mx.frobenius_norm(x * 1j - y) > 0.5 and mx.frobenius_norm(x + y) > 0.5


def test_cauchy_schwarz_random_trials(inclusion, rng):
    for _ in range(200):
        res = cauchy_schwarz_check(
            inclusion.E, mx.random_matrix(2, rng), mx.random_matrix(2, rng)
        )
        assert res.holds


# ---------------------------------------------------------------------------
# JSON round-trips


def test_matrix_json_roundtrip(rng):
    a = mx.random_matrix(3, rng)
    payload = json.loads(json.dumps(matrix_to_json(a)))
    np.testing.assert_allclose(matrix_from_json(payload), a, atol=0)


def test_algebra_json_roundtrip(inclusion):
    payload = json.loads(json.dumps(inclusion.delta.to_json()))
    rebuilt = MatrixStarAlgebra.from_json(payload)
    assert rebuilt.same_span(inclusion.delta)


def test_expectation_json_roundtrip(inclusion):
    payload = json.loads(json.dumps(inclusion.F.to_json()))
    rebuilt = ConditionalExpectation.from_json(payload)
    for b in inclusion.A.basis:
        np.testing.assert_allclose(rebuilt(b), inclusion.F(b), atol=1e-12)
    assert verify_quasi_basis(rebuilt, rebuilt.quasi_basis)


# ---------------------------------------------------------------------------
# the coordinate matrix against per-element references


def _reference_verify_quasi_basis(E, lambdas, tol=mx.DEFAULT_TOL):
    """The per-element loop: both identities, E called on every product."""
    lams = [mx.as_matrix(m) for m in lambdas]
    for lam in lams:
        if not E.source.contains(lam, tol):
            raise NotInAlgebra("quasi-basis element outside the source algebra")
    for x in E.source.basis:
        left = sum(E(x @ lam) @ mx.adjoint(lam) for lam in lams)
        right = sum(lam @ E(mx.adjoint(lam) @ x) for lam in lams)
        bound = tol * (1.0 + mx.frobenius_norm(x))
        if mx.frobenius_norm(left - x) > bound or mx.frobenius_norm(right - x) > bound:
            return False
    return True


def _reference_map_matrix(E):
    n = E.ambient_dim
    cols = np.zeros((n * n, n * n), dtype=np.complex128)
    for b in E.source.basis:
        cols += np.outer(np.ravel(E(b)), np.conjugate(np.ravel(b)))
    return cols


def _z2z3_inclusion():
    G = FiniteGroup.direct_product([2, 3])
    return group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((0, 1))]))


def _assert_same_outcome(E, lambdas, tol=mx.DEFAULT_TOL):
    expected = _reference_verify_quasi_basis(E, lambdas, tol)
    assert verify_quasi_basis(E, lambdas, tol) == expected
    return expected


def test_quasi_basis_oracle_m2(inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    for exp in (inclusion.E, inclusion.F, f_u):
        assert _assert_same_outcome(exp, exp.quasi_basis)
        # negative cases: the identity alone, and a slightly scaled quasi-basis
        assert not _assert_same_outcome(exp, [np.eye(2)])
        assert not _assert_same_outcome(
            exp, [(1.0 + 1e-6) * lam for lam in exp.quasi_basis]
        )


def test_quasi_basis_oracle_group_random_transversal(rng):
    G = FiniteGroup.direct_product([4, 2])
    H = generated_subgroup(G, [G.index_of((2, 0))])
    reps = [
        G.mult(g, int(rng.choice(list(H.elements))))
        for g in left_coset_reps(G, H)
    ]
    inc = group_algebra_inclusion(G, H, reps=reps)
    assert _assert_same_outcome(inc.E, inc.E.quasi_basis)
    assert not _assert_same_outcome(inc.E, [np.eye(G.order)])
    assert not _assert_same_outcome(
        inc.E, [(1.0 + 1e-6) * lam for lam in inc.E.quasi_basis]
    )
    K = generated_subgroup(G, [G.index_of((1, 0))])
    F = inc.expectation_onto(K)
    assert _assert_same_outcome(F, F.quasi_basis)
    restricted = restrict_expectation(inc.E, F.target, F)
    assert _assert_same_outcome(restricted, restricted.quasi_basis)


def test_quasi_basis_oracle_level_two_dual(inclusion, tower_level):
    g = intermediate_dual_expectation(tower_level, inclusion.delta, inclusion.F)
    assert _assert_same_outcome(g, g.quasi_basis, 1e-8)
    assert not _assert_same_outcome(g, [np.eye(4)], 1e-8)
    assert not _assert_same_outcome(
        g, [(1.0 + 1e-6) * lam for lam in g.quasi_basis], 1e-8
    )


def test_quasi_basis_off_the_span_never_passes_where_the_loop_fails(c_plus_m2, rng):
    # quasi-bases scaled to either side of the tolerance, each element moved
    # off the source by more than NOISE_FLOOR and less than tol
    S4 = FiniteGroup.symmetric(4)
    A4 = generated_subgroup(S4, [S4.index_of(p) for p in ((1, 0, 3, 2), (1, 2, 0, 3))])
    s4 = group_algebra_inclusion(S4, A4)  # C[S4] has a product table
    assert s4.A._table is not None
    tol = mx.DEFAULT_TOL
    outcomes = []
    for E in (c_plus_m2.E, c_plus_m2.F, s4.E):
        n = E.ambient_dim
        lams = E.quasi_stack[E.quasi_stack.any(axis=(1, 2))]
        away = np.stack([mx.random_matrix(n, rng) for _ in lams])
        away -= E.source.project(away)
        away /= np.linalg.norm(away.reshape(len(away), -1), axis=1)[:, None, None]
        for scale in (0.0, 0.5e-9, 0.9e-9, 0.99e-9, 1.01e-9, 1.1e-9):
            for size in (2 * mx.NOISE_FLOOR, 1e-12, 1e-11, 1e-10, 0.5 * tol):
                moved = (1.0 + scale) * lams + size * away
                got = verify_quasi_basis(E, moved, tol)
                want = _reference_verify_quasi_basis(E, moved, tol)
                assert want or not got, (E, scale, size)
                outcomes.append((got, want, scale, size))
    # the check is not vacuous: it passes and fails, and where the charge
    # for the moved part is far below the margin it agrees with the loop
    assert {got for got, *_ in outcomes} == {True, False}
    for got, want, scale, size in outcomes:
        if size < 1e-12 and abs(scale - 1e-9) > 0.05e-9:
            assert got == want


def test_expectation_leaving_its_target_raises(inclusion):
    # the identity map, declared to land in the scalars
    bogus = ConditionalExpectation.from_rule(
        inclusion.A, inclusion.B, lambda x: x, quasi_basis=inclusion.E.quasi_basis
    )
    with pytest.raises(NumericIntegrityError):
        bogus.coordinate_matrix
    # no expectation onto the scalars, so no quasi-basis of one either
    assert not _assert_same_outcome(bogus, bogus.quasi_basis)


def _off_target(E, eps):
    """E plus eps (x - E(x)): images leave the target by eps ||x - E(x)||."""
    return ConditionalExpectation.from_rule(
        E.source, E.target, lambda x: E(x) + eps * (x - E(x)), E.quasi_basis
    )


def test_off_target_check_uses_the_callers_tolerance(inclusion):
    # off the scalars by 5e-9 relative; the identities hold within 1.5e-8
    near = _off_target(inclusion.E, 5e-9)
    with pytest.raises(NumericIntegrityError):
        near.coordinate_matrix
    t = near.coordinates(1e-8)
    np.testing.assert_allclose(t, inclusion.E.coordinate_matrix, atol=1e-8)
    assert _assert_same_outcome(near, near.quasi_basis, 1e-8)
    assert not _assert_same_outcome(near, near.quasi_basis)
    assert not verify_quasi_basis(_off_target(inclusion.E, 1e-6), near.quasi_basis, 1e-8)


def test_coordinate_matrix_rows_are_target_coordinates(inclusion):
    for exp in (inclusion.E, inclusion.F):
        t = exp.coordinate_matrix
        assert t.shape == (exp.source.dim, exp.target.dim)
        assert not t.flags.writeable
        for b, row in zip(exp.source.basis, t):
            np.testing.assert_allclose(exp.target.combine(row), exp(b), atol=1e-13)


def test_on_source_matches_single_calls(inclusion, rng):
    xs = np.stack([inclusion.A.random_element(rng) for _ in range(5)])
    for exp in (inclusion.E, inclusion.F):
        got = exp.on_source(xs)
        for x, y in zip(xs, got):
            np.testing.assert_allclose(y, exp(x), atol=1e-12)
    with pytest.raises(ShapeMismatch):
        inclusion.E(xs)


# ---------------------------------------------------------------------------
# one read-only copy of the basis


def test_basis_views_are_read_only_and_share_flat():
    for alg in (m2.canonical_inclusion().A, _z2z3_inclusion().A):
        for b in alg.basis:
            assert not b.flags.writeable
            assert np.shares_memory(b, alg._flat)
            with pytest.raises(ValueError):
                b[0, 0] = 1.0
        assert np.shares_memory(alg.basis_stack, alg._flat)
    # a writable stack is copied once; a read-only one is taken as it is
    stack = np.stack([E11, E22]).astype(np.complex128)
    assert not np.shares_memory(MatrixStarAlgebra.from_orthonormal(stack)._flat, stack)
    stack.setflags(write=False)
    assert np.shares_memory(MatrixStarAlgebra.from_orthonormal(stack)._flat, stack)


def test_redundant_spanning_set_keeps_a_compact_basis():
    # the basis enters uncopied, so its storage must hold only rank rows
    alg = MatrixStarAlgebra.from_spanning([E11, 2.0 * E11, E22, E11 + E22, 3.0 * E22])
    assert alg.dim == 2
    root = alg.basis_stack
    while root.base is not None:
        root = root.base
    assert root.nbytes == alg.basis_stack.nbytes == 2 * 4 * 16


def test_orthonormal_spanning_set_shares_the_basis(inclusion):
    assert inclusion.A.spanning_set is inclusion.A.basis
    # group algebras are built from their orthonormal basis lambda_g / sqrt(|G|)
    G = FiniteGroup.symmetric(3)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])
    for alg in (inc.A, inc.B, inc.expectation_onto(K).target):
        assert alg.spanning_set is alg.basis


def test_hs_coordinates_and_map_matrix_match_old_formulas(inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    z = _z2z3_inclusion()
    G = z.group
    over_trivial = group_algebra_inclusion(G, trivial_subgroup(G))
    F = over_trivial.expectation_onto(generated_subgroup(G, [G.index_of((1, 0))]))
    f_u = m2.fu_expectation(u, inclusion)
    # M_2 again, with a complex orthonormal basis, carrying F_u
    w = mx.random_unitary(2, rng)
    rotated = MatrixStarAlgebra.from_orthonormal(
        [w @ b @ mx.adjoint(w) for b in inclusion.A.basis]
    )
    f_u_rotated = ConditionalExpectation.from_rule(
        rotated, f_u.target, lambda x: m2.fu_map(u, x)
    )
    # group algebras from GATHER_MIN_DIM elements on take coordinates by gather
    S4 = FiniteGroup.symmetric(4)
    s4 = group_algebra_inclusion(S4, generated_subgroup(S4, [S4.index_of((1, 0, 3, 2))]))
    A4 = generated_subgroup(S4, [S4.index_of(p) for p in ((1, 0, 3, 2), (1, 2, 0, 3))])
    big = FiniteGroup.direct_product([2, 2, 3, 4])
    over_big = group_algebra_inclusion(big, trivial_subgroup(big))
    K24 = generated_subgroup(big, [big.index_of(e) for e in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))])
    F24 = over_big.expectation_onto(K24)
    cases = [
        (inclusion.A, (inclusion.E, inclusion.F, f_u)),
        (rotated, (f_u_rotated,)),
        (z.A, (z.E, F)),
        (s4.A, (s4.E, s4.expectation_onto(A4))),
        (F24.target, ()),
    ]
    assert [alg._supports is not None for alg, _ in cases] == [False] * 3 + [True] * 2
    for alg, exps in cases:
        n = alg.ambient_dim
        xs = np.stack([mx.random_matrix(n, rng) for _ in range(5)])  # off the span
        for x in xs:
            old = np.conjugate(alg._flat) @ np.ravel(x)
            assert np.max(np.abs(alg.hs_coordinates(x) - old)) <= 1e-13
        coords = alg.hs_coordinates(xs)
        old = xs.reshape(len(xs), -1) @ np.conjugate(alg._flat).T
        assert np.max(np.abs(coords - old)) <= 1e-13
        old = (coords @ alg._flat).reshape(xs.shape)
        assert np.max(np.abs(alg.combine(coords) - old)) <= 1e-13
        # contains_all keeps the explicit reconstruction residual: the span
        # passes, and one off-span element fails the whole stack
        inside = alg.combine(coords)
        assert alg.contains_all(inside)
        assert alg.contains_all(np.concatenate([inside, xs[:1]])) == (alg.dim == n * n)
        for exp in exps:
            diff = exp.map_matrix - _reference_map_matrix(exp)
            assert np.max(np.abs(diff)) <= 1e-13


# ---------------------------------------------------------------------------
# the product table of monomial bases


def _z3_power_inclusion(H_gens=((0, 0, 0, 1),)):
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    H = generated_subgroup(G, [G.index_of(g) for g in H_gens])
    K = generated_subgroup(
        G, [G.index_of(g) for g in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))]
    )
    return group_algebra_inclusion(G, H), K


def _block_diagonal_s3_z4z4() -> MatrixStarAlgebra:
    """C[S3] + C[Z4 x Z4] on C^6 + C^16: d = 22, every cross product zero."""
    blocks = (FiniteGroup.symmetric(3), FiniteGroup.direct_product([4, 4]))
    n = sum(G.order for G in blocks)
    mats, offset = [], 0
    for G in blocks:
        for g in range(G.order):
            m = np.zeros((n, n), dtype=np.complex128)
            span = slice(offset, offset + G.order)
            m[span, span] = G.regular_matrix(g) / math.sqrt(G.order)
            mats.append(m)
        offset += G.order
    return MatrixStarAlgebra.from_orthonormal(np.stack(mats))


def test_product_table_matches_dense_products():
    S4 = FiniteGroup.symmetric(4)
    z81, K = _z3_power_inclusion()
    algebras = [
        group_algebra_inclusion(S4, trivial_subgroup(S4)).A,
        z81.A,
        z81.intermediate_algebra(K),
        _block_diagonal_s3_z4z4(),
    ]
    assert [alg.dim for alg in algebras] == [24, 81, 27, 22]
    for alg in algebras:
        table, basis = alg._table, alg.basis_stack
        assert table is not None
        d, n = alg.dim, alg.ambient_dim
        # b_i b_j, all j at once as one product with the basis side by side
        side_by_side = np.swapaxes(basis, 0, 1).reshape(n, d * n)
        for i in range(d):
            products = np.swapaxes((basis[i] @ side_by_side).reshape(n, d, n), 0, 1)
            want = table.scale[i][:, None, None] * basis[table.index[i]]
            assert np.max(np.abs(products - want)) <= 1e-13
    # the two blocks of the direct sum annihilate each other
    block = algebras[-1]._table
    assert not block.scale[:6, 6:].any() and not block.scale[6:, :6].any()


def test_multiplication_matrices_match_dense_products(inclusion, tower_level, c_plus_m2, monkeypatch):
    # the four algebras with a product table, then m2 A, C+M2 and m2 A_1,
    # each once more with the table forced off
    def build():
        S4 = FiniteGroup.symmetric(4)
        z81, K = _z3_power_inclusion()
        algebras = [
            group_algebra_inclusion(S4, trivial_subgroup(S4)).A,
            z81.A,
            z81.intermediate_algebra(K),
            _block_diagonal_s3_z4z4(),
            inclusion.A,
            c_plus_m2.A,
            tower_level.basic_construction,
        ]
        rng, out = mx.default_rng(), []
        for alg in algebras:
            basis, d = alg.basis_stack, alg.dim
            ys = alg.combine(rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))
            on_left = alg.multiplication_matrices(ys, left=True)
            on_right = alg.multiplication_matrices(ys, left=False)
            assert on_left.shape == on_right.shape == (2, d, d)
            for y, lm, rm in zip(ys, on_left, on_right):
                assert np.max(np.abs(lm - alg.hs_coordinates(y @ basis))) <= 1e-13
                assert np.max(np.abs(rm - alg.hs_coordinates(basis @ y))) <= 1e-13
            out.append((alg._table is not None, on_left, on_right))
        return out

    on_table, dense = _dense_and_table(monkeypatch, build)
    assert [got[0] for got in on_table] == [True] * 4 + [False] * 3
    assert not any(want[0] for want in dense)
    for got, want in zip(on_table, dense):
        for a, b in zip(got[1:], want[1:]):
            assert np.max(np.abs(a - b)) <= 1e-13


def _diagonal_family(first: np.ndarray, n: int = 22) -> np.ndarray:
    """``first`` on the top 3 x 3 corner, then the matrix units E_kk for k >= 3."""
    mats = np.zeros((n - 2, n, n), dtype=np.complex128)
    mats[0, :3, :3] = first
    mats[np.arange(1, n - 2), np.arange(3, n), np.arange(3, n)] = 1.0
    return mats


def test_product_table_is_none_off_monomial_closed_families():
    cycle = np.roll(np.eye(3), 1, axis=0)  # the 3-cycle, with inverse cycle^2
    non_monomial = [
        np.diag([0.6, 0.8, 0.0]),  # two values
        np.array([[1, 0, 0], [1, 0, 0], [0, 0, 0]]) / math.sqrt(2),  # two entries in a column
    ]
    for first in non_monomial:
        alg = MatrixStarAlgebra.from_orthonormal(_diagonal_family(first))
        assert alg._supports is not None and alg._table is None
    # cycle and cycle^2 are closed under adjoints, but cycle cycle^2 is the
    # unit of the corner, which is no basis element
    mats = _diagonal_family(cycle / math.sqrt(3))
    mats[1] = 0.0
    mats[1, :3, :3] = cycle @ cycle / math.sqrt(3)
    alg = MatrixStarAlgebra.from_orthonormal(mats)
    assert alg._supports is not None and alg._table is None
    # with the corner unit as well, the family is closed again
    mats = np.concatenate([mats, _diagonal_family(np.eye(3) / math.sqrt(3))[:1]])
    assert MatrixStarAlgebra.from_orthonormal(mats)._table is not None


def _dense_and_table(monkeypatch, build):
    """``build()`` once as it is and once with the product table forced off."""
    on_table = build()
    with monkeypatch.context() as patch:
        patch.setattr(MatrixStarAlgebra, "_table", None)
        dense = build()
    return on_table, dense


def test_table_and_dense_paths_agree(monkeypatch):
    def build():
        inc, K = _z3_power_inclusion()
        F = inc.expectation_onto(K)
        restricted = restrict_expectation(inc.E, F.target, F)
        wrong = list(inc.coset_reps)
        wrong[1] = inc.group.mult(wrong[0], inc.subgroup.elements[1])  # coset of wrong[0]
        lambdas = [inc.group.regular_matrix(g) for g in wrong]
        out = []
        for E in (inc.E, restricted):
            module = GenericModule(E.source, E)
            out.append((
                E.source._table is not None,
                watatani_index(E),
                verify_quasi_basis(E, E.quasi_stack),
                verify_quasi_basis(E, lambdas) if E is inc.E else None,
                module._to_module,
                module._from_module,
                module.left_mult(E.source.basis_stack[::5]),
            ))
        return out

    on_table, dense = _dense_and_table(monkeypatch, build)
    for got, want in zip(on_table, dense):
        assert got[0] and not want[0]
        assert got[2] is want[2] is True
        assert got[3] is want[3]
        for a, b in zip(got[1:], want[1:]):
            if isinstance(a, np.ndarray):
                assert np.max(np.abs(a - b)) <= 1e-13
    assert on_table[0][3] is False  # two representatives of one coset


def test_table_path_centrality_passes_without_dense_commutators(monkeypatch):
    inc, _ = _z3_power_inclusion()
    fresh = ConditionalExpectation.from_coordinates(
        inc.A, inc.B, inc.E.coordinate_matrix, quasi_basis=inc.E.quasi_stack
    )

    def dense(*args):
        raise AssertionError("dense commutators on the table path")

    monkeypatch.setattr(mx, "max_operator_norm", dense)
    np.testing.assert_allclose(watatani_index(fresh), 27.0 * np.eye(81), atol=1e-12)


def test_centrality_residual_bounds_the_dense_commutators(c_plus_m2, monkeypatch, rng):
    S4 = FiniteGroup.symmetric(4)
    swap = S4.regular_matrix(S4.index_of((1, 0, 2, 3)))
    # the class sum of the six transpositions, labelled "(ab)"
    class_sum = sum(S4.regular_matrix(g) for g, lab in enumerate(S4.labels) if len(lab) == 4)

    def dense(alg, x):
        basis = alg.basis_stack
        return mx.max_operator_norm(x @ basis - basis @ x)

    def build():
        alg = group_algebra_inclusion(S4, trivial_subgroup(S4)).A
        got = [algebra._centrality_residual(alg, x) for x in (swap, class_sum)]
        return alg._table is not None, got, alg

    (tabled, got, alg), (untabled, got_off, _) = _dense_and_table(monkeypatch, build)
    assert tabled and not untabled
    want = [dense(alg, x) for x in (swap, class_sum)]
    for residuals in (got, got_off):
        # the transposition is flagged on both paths, and the class sum passes
        assert residuals[0] >= want[0] > 0.1
        assert residuals[1] <= 1e-9
    # off the span, 2 ||x - P x||_F keeps the bound above the commutators
    for alg in (alg, c_plus_m2.A):
        for _ in range(3):
            x = mx.random_matrix(alg.ambient_dim, rng)
            assert algebra._centrality_residual(alg, x) >= dense(alg, x) > 0.1


def test_non_central_index_fails_the_same_on_both_paths(monkeypatch):
    S4 = FiniteGroup.symmetric(4)
    swap = S4.index_of((1, 0, 2, 3))

    def build():
        inc = group_algebra_inclusion(S4, trivial_subgroup(S4))
        lambdas = [S4.regular_matrix(g) for g in range(S4.order)]
        lambdas[S4.identity] = lambdas[S4.identity] + S4.regular_matrix(swap)
        E = ConditionalExpectation.from_coordinates(
            inc.A, inc.B, inc.E.coordinate_matrix, quasi_basis=lambdas
        )
        with pytest.raises(NumericIntegrityError, match="index element not central") as err:
            watatani_index(E)
        return inc.A._table is not None, str(err.value)

    (tabled, message), (untabled, dense_message) = _dense_and_table(monkeypatch, build)
    assert tabled and not untabled
    assert message == dense_message


# ---------------------------------------------------------------------------
# the coordinate matrix from stacked rule calls


def _reference_build_coordinates(E):
    """The former per-element build of T: one call of E per source basis element."""
    src, tgt = E.source, E.target
    images = np.stack([E(b) for b in src.basis])
    coords = tgt.hs_coordinates(images)
    flat = images.reshape(len(images), -1)
    off = np.linalg.norm(coords @ tgt._flat - flat, axis=1)
    ratios = off / (1.0 + np.linalg.norm(flat, axis=1))
    k = int(np.argmax(ratios))
    return coords, float(ratios[k]), k


def _stacked_rule_cases(inclusion, tower_level, c_plus_m2, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    G = FiniteGroup.direct_product([2, 2])
    z2z2 = group_algebra_inclusion(G, trivial_subgroup(G)).tower(materialize=True)
    return {
        "E1 m2": tower_level.dual_expectation,
        "E1 C+M2": c_plus_m2.level.dual_expectation,
        "E1 C[Z2xZ2]": z2z2.dual_expectation,
        "G m2 F": intermediate_dual_expectation(tower_level, inclusion.delta, inclusion.F),
        "G m2 F_u": intermediate_dual_expectation(tower_level, f_u.target, f_u),
        "G C+M2": intermediate_dual_expectation(c_plus_m2.level, c_plus_m2.C, c_plus_m2.F),
        "from_rule": f_u,
        "from_json": ConditionalExpectation.from_json(f_u.to_json()),
        "conjugate": conjugate_expectation(inclusion.F, mx.random_unitary(2, rng)),
        "identity": identity_expectation(c_plus_m2.A),
    }


def test_stacked_coordinates_match_the_per_element_loop(
    inclusion, tower_level, c_plus_m2, rng, monkeypatch
):
    for name, E in _stacked_rule_cases(inclusion, tower_level, c_plus_m2, rng).items():
        want, want_worst, _ = _reference_build_coordinates(E)
        item = E.source._flat[0].nbytes
        # one chunk, one element per chunk, and two per chunk with a remainder
        for budget in (mx.STACK_BUDGET_BYTES, 1, 2 * item):
            monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
            got, worst, _ = E._build_coordinates()
            monkeypatch.undo()
            assert np.max(np.abs(got - want)) <= 1e-12, (name, budget)
            assert abs(worst - want_worst) <= 1e-12, (name, budget)


def test_coordinates_call_the_rule_once_per_chunk(c_plus_m2):
    level = c_plus_m2.level
    E1 = level.dual_expectation
    shapes = []

    def recorded(xs):
        shapes.append(xs.shape)
        return E1._apply(xs)

    spy = ConditionalExpectation(E1.source, E1.target, recorded, name="spy")
    np.testing.assert_allclose(spy.coordinate_matrix, E1.coordinate_matrix, atol=1e-12)
    n = level.module_dim
    assert shapes == [(E1.source.dim, n, n)]
    # a single matrix reaches the rule as a stack of one
    spy(E1.source.basis[0])
    assert shapes[-1] == (1, n, n)


def test_off_target_check_reads_every_image_of_a_chunk(inclusion):
    # only the last source basis element leaves the scalars, by eps relative
    A, E, eps = inclusion.A, inclusion.E, 1e-6
    last = A.basis[-1]

    def rule(b):
        weight = np.vdot(last, b)  # 1 on the last basis element, 0 on the rest
        return E(b) + eps * weight * (b - E(b))

    skewed = ConditionalExpectation.from_rule(A, E.target, rule, E.quasi_basis)
    k = A.dim - 1
    assert k > 0
    with pytest.raises(NumericIntegrityError, match=f"source basis element {k} "):
        skewed.coordinates(1e-8)
    np.testing.assert_allclose(skewed.coordinates(1e-5), E.coordinate_matrix, atol=1e-5)
