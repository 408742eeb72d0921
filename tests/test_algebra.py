import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from cstar_angles import algebra, groups, m2, verify
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


def test_star_algebra_product_check_reads_every_pair(rng, monkeypatch):
    # a subspace not closed under products: each pair has its own residual
    family = [np.eye(3)] + [mx.random_matrix(3, rng) for _ in range(3)]
    alg = MatrixStarAlgebra.from_spanning(family)
    flat = alg._flat
    residuals = []
    for k in range(16):  # pair (k // 4, k % 4)
        product = np.ravel(alg.basis[k // 4] @ alg.basis[k % 4])
        residuals.append(np.linalg.norm((np.conjugate(flat) @ product) @ flat - product))
    # one chunk of all 16 pairs, then chunks of 5 pairs with one left over
    for budget in (mx.STACK_BUDGET_BYTES, 3 * 16 * 9 * 5):
        monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
        check = next(c for c in verify_star_algebra(alg).checks if c.name == "product_closed")
        assert check.residual == pytest.approx(max(residuals), rel=1e-12)
        assert check.residual > 0.1 and not check.passed


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


def test_zero_family_spans_the_zero_algebra():
    alg = MatrixStarAlgebra.from_spanning(np.zeros((2, 3, 3)))
    assert (alg.dim, alg.ambient_dim) == (0, 3)
    payload = json.loads(json.dumps(alg.to_json()))
    assert payload["spanning_set"] == []
    back = MatrixStarAlgebra.from_json(payload)
    assert (back.dim, back.ambient_dim) == (0, 3) and back.same_span(alg)


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


def test_a_failing_index_raises_on_every_call_and_only_a_passing_one_is_kept(inclusion):
    # one quasi-basis element scaled by 1 + 1e-6: central only to about 4e-6
    E = inclusion.E
    quasi = np.array(E.quasi_stack)
    quasi[0] *= 1.0 + 1e-6
    skewed = ConditionalExpectation.from_coordinates(
        E.source, E.target, E.coordinate_matrix, quasi_basis=quasi
    )
    for check in (skewed.index_element, lambda: watatani_index(skewed)) * 2:
        with pytest.raises(NumericIntegrityError, match="not central"):
            check()
        assert skewed._index is None
    fresh = ConditionalExpectation.from_coordinates(
        E.source, E.target, E.coordinate_matrix, quasi_basis=E.quasi_stack
    )
    ind = fresh.index_element()
    np.testing.assert_allclose(ind, 4.0 * np.eye(2), atol=1e-12)
    assert watatani_index(fresh) is ind and fresh._index is ind and not ind.flags.writeable


def test_index_checks_take_the_exact_value_where_no_bound_settles_them(rng, monkeypatch):
    # E onto the scalars of M3 with a quasi-basis {sqrt(v_i) p_i}, p_i = w e_ii w*
    # for a seeded unitary w, so Ind(E) = w diag(v) w*: central in the span of
    # the p_i (commutative), not in M3
    w = mx.random_unitary(3, rng)
    projections = [w @ np.diag(np.eye(3)[i]) @ mx.adjoint(w) for i in range(3)]
    units = [np.outer(a, b) for a in np.eye(3) for b in np.eye(3)]
    diagonal = MatrixStarAlgebra.from_orthonormal(projections)
    scalars = MatrixStarAlgebra.from_spanning([np.eye(3)])

    def expectation(source, values):
        quasi = [math.sqrt(v) * p for v, p in zip(values, projections)]
        return ConditionalExpectation.from_rule(
            source, scalars, lambda x: np.trace(x) / 3.0 * np.eye(3), quasi_basis=quasi
        )

    calls, eigvalsh, svd = [], np.linalg.eigvalsh, np.linalg.svd
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append("eigvalsh") or eigvalsh(h))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    # spectrum {1, 2, 4}: Gershgorin does not settle it, the eigensolve passes it
    E = expectation(diagonal, [1.0, 2.0, 4.0])
    ind = watatani_index(E)
    assert mx.gershgorin_lower((ind + mx.adjoint(ind)) / 2.0) < 1.0 - mx.DEFAULT_TOL
    assert calls == ["eigvalsh"]
    assert watatani_index(E) is ind and calls == ["eigvalsh"]  # checked once, then kept
    # an eigenvalue at 1 - 1e-6 raises, with that eigenvalue
    low = expectation(diagonal, [1.0 - 1e-6, 2.0, 4.0])
    with pytest.raises(NumericIntegrityError, match=r"eigenvalue 0\.999999 below 1"):
        watatani_index(low)
    # a non-central index still raises, with its residual
    with pytest.raises(NumericIntegrityError, match=r"index element not central \(residual"):
        watatani_index(expectation(MatrixStarAlgebra.from_orthonormal(units), [1.0, 2.0, 4.0]))
    # [G:H] times the unit is settled by all three bounds: no exact value is
    # taken, and of the n x n arrays E holds, the index alone is new
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    group = group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((0, 0, 0, 1))])).E

    def square_arrays():
        return {k for k, v in vars(group).items() if np.shape(v) == (81, 81)}

    held = square_arrays()
    calls.clear()
    np.testing.assert_allclose(watatani_index(group), 27.0 * np.eye(81), atol=1e-12)
    assert calls == [] and square_arrays() - held == {"_index"}


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
    # M2 holds F's target but is not its span
    with pytest.raises(NotIntermediate, match="onto C"):
        restrict_expectation(inclusion.E, inclusion.A, inclusion.F)
    # an F on Delta alone shares no source with E
    with pytest.raises(NotIntermediate, match="share their source"):
        restrict_expectation(inclusion.E, inclusion.delta, identity_expectation(inclusion.delta))


def test_restrict_reads_c_off_f(inclusion):
    # a C built apart from F, spanning F's target: the restriction is E's on F's target
    G = FiniteGroup.cyclic(12)
    inc = group_algebra_inclusion(G, generated_subgroup(G, [G.index_of((6,))]))
    K = generated_subgroup(G, [G.index_of((3,))])
    cases = (
        (inclusion.E, MatrixStarAlgebra.from_spanning([E11 + E22, E11 - E22]), inclusion.F),
        (inc.E, inc.intermediate_algebra(K), inc.expectation_onto(K)),
    )
    for E, C, F in cases:
        assert C is not F.target and C.same_span(F.target)
        got = restrict_expectation(E, C, F)
        want = restrict_expectation(E, F.target, F)
        assert got.source is F.target
        assert np.abs(got.coordinate_matrix - want.coordinate_matrix).max() <= 1e-13
        assert np.abs(got.quasi_stack - want.quasi_stack).max() <= 1e-13


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


def test_conjugate_rejects_a_unitary_that_does_not_normalize_the_source(rng):
    # C[S3] in M_6: a Haar-random u moves the source off itself, where F is
    # not defined; a group element's matrix normalizes it
    S3 = FiniteGroup.symmetric(3)
    E = group_algebra_inclusion(S3, generated_subgroup(S3, [S3.index_of((1, 0, 2))])).E
    with pytest.raises(NotIntermediate, match="normalize"):
        conjugate_expectation(E, mx.random_unitary(6, rng))
    f_u = conjugate_expectation(E, S3.regular_matrix(S3.index_of((1, 2, 0))))
    report = verify_expectation(f_u)
    assert report.passed, report.failures()
    np.testing.assert_allclose(watatani_index(f_u), 3.0 * np.eye(6), atol=1e-12)


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


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"rows": -1, "cols": -1, "entries": [[1.0, 0.0]]}, ShapeMismatch),
        ({"rows": 1.5, "cols": 2, "entries": [[1.0, 0.0]] * 3}, ShapeMismatch),
        ({"rows": "1", "cols": 1, "entries": [[1.0, 0.0]]}, ShapeMismatch),
        ({"rows": True, "cols": 1, "entries": [[1.0, 0.0]]}, ShapeMismatch),
        ({"rows": 1, "cols": 1, "entries": [[1.0, 0.0, 2.0]]}, ShapeMismatch),
        ({"rows": 1, "cols": 1, "entries": [1.0]}, ShapeMismatch),
        ({"rows": 1, "cols": 2, "entries": ["ab", "cd"]}, ShapeMismatch),
        ({"rows": 2, "cols": 1, "entries": "ab"}, ShapeMismatch),
        ({"rows": 1, "cols": 1, "entries": [["1", "2"]]}, InvalidMatrix),
        ({"rows": 1, "cols": 1, "entries": [[None, 0.0]]}, InvalidMatrix),
        ({"rows": 1, "cols": 1, "entries": [[True, 0.0]]}, InvalidMatrix),
        ({"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}, InvalidMatrix),
        ({"rows": 1, "cols": 2, "entries": [[0.0, 0.0], [0.0, float("-inf")]]}, InvalidMatrix),
        ({"rows": 1, "cols": 1, "entries": [[10**400, 0.0]]}, InvalidMatrix),
    ],
)
def test_matrix_json_rejects_malformed_payloads(payload, error):
    with pytest.raises(error):
        matrix_from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize(
    "payload", [{}, 5, {"rows": 1}], ids=["empty object", "a number", "rows alone"]
)
def test_matrix_json_rejects_a_payload_of_the_wrong_type_or_missing_fields(payload):
    # these raised KeyError and TypeError
    with pytest.raises(ShapeMismatch):
        matrix_from_json(payload)


@pytest.mark.parametrize(
    "spanning_set", [{"a": 1}, "xy", None], ids=["an object", "a string", "null"]
)
def test_algebra_json_rejects_a_spanning_set_that_is_no_list(inclusion, spanning_set):
    # each raised TypeError
    payload = json.loads(json.dumps(inclusion.delta.to_json()))
    payload["spanning_set"] = spanning_set
    with pytest.raises(ShapeMismatch, match="spanning_set"):
        MatrixStarAlgebra.from_json(payload)


def test_json_loaders_reject_an_ambient_dim_that_is_not_an_integer(inclusion):
    # int() read 2.7 and "2" as 2
    for bad in (2.7, "2", -2, True):
        payload = json.loads(json.dumps(inclusion.delta.to_json()))
        payload["ambient_dim"] = bad
        with pytest.raises(ShapeMismatch, match="ambient_dim"):
            MatrixStarAlgebra.from_json(payload)
        payload = json.loads(json.dumps(inclusion.F.to_json()))
        payload["source"]["ambient_dim"] = bad
        with pytest.raises(ShapeMismatch, match="ambient_dim"):
            ConditionalExpectation.from_json(payload)


def test_matrix_json_reads_integers_and_empty_matrices():
    payload = {"rows": 1, "cols": 2, "entries": [[1, -2], [0.5, 0]]}
    np.testing.assert_array_equal(matrix_from_json(payload), [[1 - 2j, 0.5]])
    assert matrix_from_json({"rows": 0, "cols": 3, "entries": []}).shape == (0, 3)


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


def test_algebra_json_rejects_matrices_off_the_ambient_dim(inclusion):
    payload = json.loads(json.dumps(inclusion.delta.to_json()))
    payload["ambient_dim"] = 3
    with pytest.raises(ShapeMismatch):
        MatrixStarAlgebra.from_json(payload)


def test_algebra_json_rejects_mixed_matrix_shapes(inclusion):
    payload = json.loads(json.dumps(inclusion.delta.to_json()))
    payload["spanning_set"].append(matrix_to_json(np.eye(3)))
    with pytest.raises(ShapeMismatch):
        MatrixStarAlgebra.from_json(payload)


def test_expectation_json_rejects_a_map_matrix_of_the_wrong_size(inclusion):
    payload = json.loads(json.dumps(inclusion.F.to_json()))
    payload["map_matrix"] = matrix_to_json(np.eye(9))
    with pytest.raises(ShapeMismatch):
        ConditionalExpectation.from_json(payload)


def test_expectation_json_keeps_the_name(inclusion):
    assert inclusion.F.name != "E"
    payload = json.loads(json.dumps(inclusion.F.to_json()))
    assert ConditionalExpectation.from_json(payload).name == inclusion.F.name
    # a payload written without the field loads with the default name
    del payload["name"]
    assert ConditionalExpectation.from_json(payload).name == "E"


# ---------------------------------------------------------------------------
# the coordinate matrix against per-element references


def _reference_verify_quasi_basis(rule, E, lambdas, tol=mx.DEFAULT_TOL):
    """The per-element loop: both identities, the rule E was built from called on every product.

    ``rule`` maps one matrix to its image, so the oracle never reads E's
    coordinate matrix; an image off E's target counts as it is.
    """
    lams = [mx.as_matrix(m) for m in lambdas]
    for lam in lams:
        if E.source.membership_residual(lam) > tol * (1.0 + mx.frobenius_norm(lam)):
            raise NotInAlgebra("quasi-basis element outside the source algebra")
    for x in E.source.basis:
        left = sum(rule(x @ lam) @ mx.adjoint(lam) for lam in lams)
        right = sum(lam @ rule(mx.adjoint(lam) @ x) for lam in lams)
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


def _assert_same_outcome(rule, E, lambdas, tol=mx.DEFAULT_TOL):
    expected = _reference_verify_quasi_basis(rule, E, lambdas, tol)
    assert verify_quasi_basis(E, lambdas, tol) == expected
    return expected


def _trace_rule(x):
    """The rule of the 2x2 model's E: the normalized trace."""
    return np.trace(x) / 2.0 * np.eye(2)


def _diagonal_rule(x):
    """The rule of the 2x2 model's F: the diagonal part."""
    return np.diag(np.diag(x))


def _group_rule(G, H):
    """E_H on C[G]: keeps the coefficient Tr(lambda_h* x) / |G| of each h in H."""
    lams = np.stack([G.regular_matrix(h) for h in H.elements])

    def rule(x):
        coeffs = np.trace(mx.adjoint(lams) @ x, axis1=1, axis2=2) / G.order
        return np.tensordot(coeffs, lams, axes=1)

    return rule


def _recorded_rules(monkeypatch):
    """The stacked rule handed to the constructor, by expectation, from now on."""
    rules = {}
    init = ConditionalExpectation.__init__

    def recording(self, source, target, apply_fn, *args, **kwargs):
        init(self, source, target, apply_fn, *args, **kwargs)
        rules[self] = apply_fn

    monkeypatch.setattr(ConditionalExpectation, "__init__", recording)
    return rules


def test_quasi_basis_oracle_m2(inclusion, rng):
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    cases = (
        (_trace_rule, inclusion.E),
        (_diagonal_rule, inclusion.F),
        (lambda x: m2.fu_map(u, x), f_u),
    )
    for rule, exp in cases:
        assert _assert_same_outcome(rule, exp, exp.quasi_basis)
        # negative cases: the identity alone, and a slightly scaled quasi-basis
        assert not _assert_same_outcome(rule, exp, [np.eye(2)])
        assert not _assert_same_outcome(
            rule, exp, [(1.0 + 1e-6) * lam for lam in exp.quasi_basis]
        )


def test_quasi_basis_oracle_group_random_transversal(rng):
    G = FiniteGroup.direct_product([4, 2])
    H = generated_subgroup(G, [G.index_of((2, 0))])
    reps = [
        G.mult(g, int(rng.choice(list(H.elements))))
        for g in left_coset_reps(G, H)
    ]
    inc = group_algebra_inclusion(G, H, reps=reps)
    e_h = _group_rule(G, H)
    assert _assert_same_outcome(e_h, inc.E, inc.E.quasi_basis)
    assert not _assert_same_outcome(e_h, inc.E, [np.eye(G.order)])
    assert not _assert_same_outcome(
        e_h, inc.E, [(1.0 + 1e-6) * lam for lam in inc.E.quasi_basis]
    )
    K = generated_subgroup(G, [G.index_of((1, 0))])
    F = inc.expectation_onto(K)
    assert _assert_same_outcome(_group_rule(G, K), F, F.quasi_basis)
    restricted = restrict_expectation(inc.E, F.target, F)
    assert _assert_same_outcome(e_h, restricted, restricted.quasi_basis)


def test_quasi_basis_oracle_level_two_dual(inclusion, tower_level, monkeypatch):
    rules = _recorded_rules(monkeypatch)
    g = intermediate_dual_expectation(tower_level, inclusion.F)
    monkeypatch.undo()

    def rule(x):
        return rules[g](x[None])[0]

    assert _assert_same_outcome(rule, g, g.quasi_basis, 1e-8)
    assert not _assert_same_outcome(rule, g, [np.eye(4)], 1e-8)
    assert not _assert_same_outcome(
        rule, g, [(1.0 + 1e-6) * lam for lam in g.quasi_basis], 1e-8
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
    rules = [c_plus_m2.rules["E"], c_plus_m2.rules["F"], _group_rule(S4, A4)]
    for rule, E in zip(rules, (c_plus_m2.E, c_plus_m2.F, s4.E)):
        n = E.ambient_dim
        lams = E.quasi_stack[E.quasi_stack.any(axis=(1, 2))]
        away = np.stack([mx.random_matrix(n, rng) for _ in lams])
        away -= E.source.project(away)
        away /= np.linalg.norm(away.reshape(len(away), -1), axis=1)[:, None, None]
        for scale in (0.0, 0.5e-9, 0.9e-9, 0.99e-9, 1.01e-9, 1.1e-9):
            for size in (2 * mx.NOISE_FLOOR, 1e-12, 1e-11, 1e-10, 0.5 * tol):
                moved = (1.0 + scale) * lams + size * away
                got = verify_quasi_basis(E, moved, tol)
                want = _reference_verify_quasi_basis(rule, E, moved, tol)
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
    def identity(x):
        return x

    bogus = ConditionalExpectation.from_rule(
        inclusion.A, inclusion.B, identity, quasi_basis=inclusion.E.quasi_basis
    )
    with pytest.raises(NumericIntegrityError):
        bogus.coordinate_matrix
    # no expectation onto the scalars, so no quasi-basis of one either
    assert not _assert_same_outcome(identity, bogus, bogus.quasi_basis)


def _off_target(E, eps):
    """E plus eps (x - E(x)), and its rule: images leave the target by eps ||x - E(x)||."""

    def rule(x):
        return E(x) + eps * (x - E(x))

    return ConditionalExpectation.from_rule(E.source, E.target, rule, E.quasi_basis), rule


def test_off_target_check_uses_the_callers_tolerance(inclusion):
    # off the scalars by 5e-9 relative; the identities hold within 1.5e-8
    near, rule = _off_target(inclusion.E, 5e-9)
    with pytest.raises(NumericIntegrityError):
        near.coordinate_matrix
    t = near.coordinates(1e-8)
    np.testing.assert_allclose(t, inclusion.E.coordinate_matrix, atol=1e-8)
    assert _assert_same_outcome(rule, near, near.quasi_basis, 1e-8)
    assert not _assert_same_outcome(rule, near, near.quasi_basis)
    assert not verify_quasi_basis(_off_target(inclusion.E, 1e-6)[0], near.quasi_basis, 1e-8)


def test_every_reading_of_an_off_target_expectation_refuses_it(inclusion):
    off, _ = _off_target(inclusion.E, 1e-6)
    x = inclusion.A.basis[0]
    for read in (lambda: off(x), lambda: off.on_source(x[None]), lambda: off.map_matrix):
        with pytest.raises(NumericIntegrityError):
            read()
    # verify_expectation reports the residual instead of raising
    report = verify_expectation(off)
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == ["range_in_target"]


def test_conjugated_expectation_carries_and_names_its_source_residual(inclusion):
    u = mx.random_unitary(2, mx.default_rng(5))
    off, _ = _off_target(inclusion.E, 1e-6)
    with pytest.raises(NumericIntegrityError, match=r"E_u: .*\(in E, which it is made from\)"):
        conjugate_expectation(off, u).coordinates(1e-8)
    np.testing.assert_allclose(
        conjugate_expectation(off, u).coordinates(1e-5),
        conjugate_expectation(inclusion.E, u).coordinate_matrix,
        atol=1e-5,
    )


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


def test_algebra_holds_only_its_orthonormal_basis(inclusion, c_plus_m2):
    # group algebras are built from their orthonormal basis lambda_g / sqrt(|G|);
    # C+M2's A_1 from a redundant family of 25 products for dimension 17
    G = FiniteGroup.symmetric(3)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])
    a1 = c_plus_m2.level.basic_construction
    assert a1.dim == 17
    for alg in (inclusion.A, inc.A, inc.B, inc.expectation_onto(K).target, a1):
        held = [v for v in vars(alg).values() if isinstance(v, np.ndarray)]
        assert all(np.shares_memory(a, alg._flat) for a in held + list(alg.basis))
        # the basis is what travels, and it reads back as the same span
        payload = json.loads(json.dumps(alg.to_json()))
        sent = np.array([matrix_from_json(m) for m in payload["spanning_set"]])
        np.testing.assert_array_equal(sent, alg.basis_stack)
        assert MatrixStarAlgebra.from_json(payload).same_span(alg)


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
        # the nonzero products b_i b_j = s b_k, in row-major (i, j) order
        assert np.all(np.diff(table.i * d + table.j) > 0)
        scale = np.zeros((d, d), dtype=table.s.dtype)
        scale[table.i, table.j] = table.s
        index = np.zeros((d, d), dtype=np.intp)
        index[table.i, table.j] = table.k
        # b_i b_j, all j at once as one product with the basis side by side
        side_by_side = np.swapaxes(basis, 0, 1).reshape(n, d * n)
        for i in range(d):
            products = np.swapaxes((basis[i] @ side_by_side).reshape(n, d, n), 0, 1)
            want = scale[i][:, None, None] * basis[index[i]]
            assert np.max(np.abs(products - want)) <= 1e-13
    # the two blocks of the direct sum annihilate each other
    block = algebras[-1]._table
    assert np.all((block.i < 6) == (block.j < 6))


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


# ---------------------------------------------------------------------------
# subgroup slices inherit the supports and the product table of C[G]


def _inherited_slices():
    """C[K], C[L], C[H] and C[1] of Z3^4 (d = 27, 9, 3, 1), and C[A4] in C[S4] (d = 12)."""
    z81, K = _z3_power_inclusion()
    G = z81.group
    L = generated_subgroup(G, [G.index_of(g) for g in ((0, 1, 0, 0), (0, 0, 0, 1))])
    S4 = FiniteGroup.symmetric(4)
    A4 = generated_subgroup(S4, [S4.index_of(p) for p in ((1, 0, 3, 2), (1, 2, 0, 3))])
    s4 = group_algebra_inclusion(S4, trivial_subgroup(S4))
    slices = {
        "C[K]": z81.intermediate_algebra(K),
        "C[L]": z81.expectation_onto(L).target,
        "C[H]": z81.B,
        # C[1] lies below C[H], so it is no intermediate: a slice of C[G] itself
        "C[1]": z81.A.basis_slice(trivial_subgroup(G).mask()),
        "C[A4]": s4.intermediate_algebra(A4),
    }
    assert [alg.dim for alg in slices.values()] == [27, 9, 3, 1, 12]
    return slices


def _dense_coordinates(alg, xs):
    """HS coordinates of a stack by one dense product with the basis."""
    return xs.reshape(len(xs), -1) @ np.conjugate(alg._flat).T


def test_slices_match_dense_products(rng):
    for name, alg in _inherited_slices().items():
        assert alg._supports is not None and alg._table is not None, name
        basis, d, n = alg.basis_stack, alg.dim, alg.ambient_dim
        xs = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        coords = alg.hs_coordinates(xs)
        assert np.max(np.abs(coords - _dense_coordinates(alg, xs))) <= 1e-13, name
        want = (coords @ alg._flat).reshape(xs.shape)
        assert np.max(np.abs(alg.combine(coords) - want)) <= 1e-13, name
        ys = alg.combine(rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))
        on_left = alg.multiplication_matrices(ys, left=True)
        on_right = alg.multiplication_matrices(ys, left=False)
        for y, lm, rm in zip(ys, on_left, on_right):
            assert np.max(np.abs(lm - _dense_coordinates(alg, y @ basis))) <= 1e-13, name
            assert np.max(np.abs(rm - _dense_coordinates(alg, basis @ y))) <= 1e-13, name
        star = alg.hs_coordinates(mx.adjoint(basis))
        assert np.max(np.abs(alg.star_coordinates() - star)) <= 1e-13, name
        rows, scale = alg._star_rows  # S^T as a row gather
        gathered = np.zeros((d, d), dtype=np.complex128)
        gathered[np.arange(d), rows] = scale
        assert np.max(np.abs(gathered - star.T)) <= 1e-13, name
        assert np.max(np.abs(star - _dense_coordinates(alg, mx.adjoint(basis)))) <= 1e-13, name


def _assert_same_arrays(got, want, name):
    assert vars(got).keys() == vars(want).keys(), name
    for key, a in vars(got).items():
        b = getattr(want, key)
        assert a.dtype == b.dtype and np.array_equal(a, b), (name, key)


def test_inherited_supports_and_table_equal_a_fresh_build(monkeypatch):
    for name, alg in _inherited_slices().items():
        fresh = MatrixStarAlgebra(alg.basis_stack)
        if alg.dim >= algebra.GATHER_MIN_DIM:
            assert fresh._table is not None, name
        else:
            assert fresh._supports is None, name  # a basis this small is not scanned
            with monkeypatch.context() as patch:
                patch.setattr(algebra, "GATHER_MIN_DIM", 1)
                fresh = MatrixStarAlgebra(alg.basis_stack)
                fresh._table
        for key in ("_supports", "_table"):
            _assert_same_arrays(getattr(alg, key), getattr(fresh, key), (name, key))
        assert all(not a.flags.writeable for a in vars(alg._table).values()), name


def _relabelled(G, seed):
    """The same group with its element indices permuted at random."""
    perm = np.random.default_rng(seed).permutation(G.order)
    return FiniteGroup(np.argsort(perm)[G.cayley[np.ix_(perm, perm)]], name=G.name)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FiniteGroup.symmetric(4),
        lambda: FiniteGroup.direct_product([3, 3, 3, 3]),
        lambda: _relabelled(FiniteGroup.symmetric(4), 11),
    ],
)
def test_map_built_group_algebra_equals_the_dense_build(make):
    G = make()
    alg, dense = G.regular_algebra, groups._regular_stack(G, range(G.order), 1 / math.sqrt(G.order))
    fresh = MatrixStarAlgebra(dense)  # its supports from a scan of the dense rows
    assert "_supports" in vars(alg) and "_flat" not in vars(alg)
    for key in ("_supports", "_table", "_gathers"):
        _assert_same_arrays(getattr(alg, key), getattr(fresh, key), (G.name, key))
    empty = alg.basis_slice(np.zeros(G.order, dtype=bool))
    assert empty.dim == 0 and empty.basis_stack.shape == (0, G.order, G.order)
    assert "_flat" not in vars(alg)  # nor did the table, the gathers or a slice read a row
    assert alg._flat.tobytes() == dense.tobytes() and not alg._flat.flags.writeable
    assert alg.basis_stack.shape == dense.shape


def test_small_map_built_algebra_holds_dense_rows():
    G = FiniteGroup.symmetric(3)  # order 6, below GATHER_MIN_DIM
    alg = G.regular_algebra
    assert "_flat" in vars(alg) and alg._supports is None and alg._table is None
    dense = groups._regular_stack(G, range(G.order), 1 / math.sqrt(G.order))
    assert alg._flat.tobytes() == dense.tobytes() and not alg._flat.flags.writeable


@pytest.mark.parametrize("d", [4, algebra.GATHER_MIN_DIM])
def test_monomial_maps_must_be_disjoint_partial_permutations(d):
    maps = np.arange(d)[:, None] * np.ones(d, dtype=np.int64)  # column c of b_k to row k
    maps = (maps + np.arange(d)) % d  # b_k: column c to row c + k, Z_d's regular maps
    assert MatrixStarAlgebra.from_monomial(maps, 1 / math.sqrt(d)).dim == d
    cases = [
        (maps[[0, 0] + list(range(2, d))], InvalidMatrix, "share a position"),
        (np.where(np.arange(d) == 1, maps[:, :1], maps), InvalidMatrix, "two columns to one row"),
        (np.where(np.arange(d)[:, None] == 0, -1, maps), InvalidMatrix, "no entry"),
        (maps + 1, ShapeMismatch, "past row"),
        (maps.astype(float), ShapeMismatch, "integer"),
    ]
    for bad, error, message in cases:
        with pytest.raises(error, match=message):
            MatrixStarAlgebra.from_monomial(bad, 1.0)
    for scale in (0.0, np.inf):
        with pytest.raises(InvalidMatrix, match="scale"):
            MatrixStarAlgebra.from_monomial(maps, np.full(d, scale))


def test_traces_match_the_dense_trace(inclusion):
    z81, K = _z3_power_inclusion()
    cases = {
        "C[G]": z81.A,
        "C[K]": z81.intermediate_algebra(K),
        "C[S4]": FiniteGroup.symmetric(4).regular_algebra,
        "2x2 model": inclusion.A,
        "its subalgebra": inclusion.B,
    }
    for name, alg in cases.items():
        held = "_flat" in vars(alg)
        got = alg.traces()
        assert ("_flat" in vars(alg)) == held, name  # read from the supports where held
        want = np.trace(alg.basis_stack, axis1=1, axis2=2)
        # sums of n entries each, taken in another order
        bound = alg.ambient_dim * np.finfo(float).eps * (1.0 + np.abs(want).max())
        assert got.shape == want.shape and np.max(np.abs(got - want)) <= bound, name


def test_slice_off_a_subalgebra_gets_no_table(rng):
    inc, _ = _z3_power_inclusion()
    G = inc.group
    g = G.index_of((1, 0, 0, 0))
    mask = np.zeros(G.order, dtype=bool)
    mask[[G.identity, g]] = True  # g g = g^2 is dropped
    alg = inc.A.basis_slice(mask)
    assert alg.dim == 2 and alg._supports is not None and alg._table is None
    basis = alg.basis_stack
    ys = alg.combine(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    on_left = alg.multiplication_matrices(ys, left=True)
    on_right = alg.multiplication_matrices(ys, left=False)
    for y, lm, rm in zip(ys, on_left, on_right):
        assert np.max(np.abs(lm - _dense_coordinates(alg, y @ basis))) <= 1e-13
        assert np.max(np.abs(rm - _dense_coordinates(alg, basis @ y))) <= 1e-13
    # closed again with g^2: the three powers of g are C[<g>]
    mask[G.mult(g, g)] = True
    assert inc.A.basis_slice(mask)._table is not None
    with pytest.raises(ShapeMismatch):
        inc.A.basis_slice(mask[:-1])


# ---------------------------------------------------------------------------
# basis_over: one basis in the coordinates of another algebra


def _basis_over_cases():
    """(name, Y, X, whether Y lies in X) for Y.basis_over(X).

    Slices of C[S4] and C[Z3^4] over their parent, over a sibling slice and
    under one; a slice over an algebra of the same rows without a table; the
    2x2 model, which has neither supports nor a table.
    """
    S4 = FiniteGroup.symmetric(4)
    s4 = S4.regular_algebra

    def sub(*perms):
        return generated_subgroup(S4, [S4.index_of(p) for p in perms])

    A4 = sub((1, 0, 3, 2), (1, 2, 0, 3))
    c_a4, c_v4, c_s3 = (
        s4.basis_slice(S.mask())
        for S in (A4, sub((1, 0, 3, 2), (2, 3, 0, 1)), sub((1, 0, 2, 3), (1, 2, 0, 3)))
    )
    z81, K = _z3_power_inclusion()
    G = z81.group
    L = generated_subgroup(G, [G.index_of(g) for g in ((0, 1, 0, 0), (0, 0, 0, 1))])
    c_k, c_l = (z81.A.basis_slice(S.mask()) for S in (K, L))
    inc = m2.canonical_inclusion()
    return [
        ("C[A4] over C[S4]", c_a4, s4, True),
        ("C[V4] over C[A4]", c_v4, c_a4, True),
        ("C[S3] over C[A4]", c_s3, c_a4, False),
        ("C[S4] over C[A4]", s4, c_a4, False),
        ("C[K] over C[Z3^4]", c_k, z81.A, True),
        ("C[L] over C[K]", c_l, c_k, True),
        ("C[K] over C[L]", c_k, c_l, False),
        ("C[A4] over its rows", c_a4, MatrixStarAlgebra(s4.basis_stack[A4.mask()]), True),
        ("m2 Delta over A", inc.delta, inc.A, True),
        ("m2 A over Delta", inc.A, inc.delta, False),
    ]


def test_basis_over_matches_the_dense_membership_pass():
    cases = _basis_over_cases()
    got, held = [], []
    for _, Y, X, _ in cases:
        got.append((Y.basis_over(X), Y.basis_over(X, checked=True), Y._basis_over(X, True)))
        held.append("_flat" in vars(Y))
    # a slice over an algebra with a table reads its supports alone; C[S4]
    # and m2 hold their rows, and C[A4] over a table-less copy builds them
    assert held == [False] * 3 + [True] + [False] * 3 + [True] * 3
    assert [name for name, Y, X, _ in cases if X._table is None] == [
        "C[A4] over its rows", "m2 Delta over A", "m2 A over Delta"
    ]
    for (name, Y, X, member), (coords, checked, (passed, residuals, sizes)) in zip(cases, got):
        # the dense oracle: X's coordinates of Y's rows, projected back
        stack = Y.basis_stack
        want = X.hs_coordinates(stack)
        oracle = X._member_coordinates(stack)
        assert (oracle is not None) is (checked is not None) is member, name
        for a in (coords, passed) + ((checked,) if member else ()):
            assert a.shape == (Y.dim, X.dim) and np.abs(a - want).max() <= 1e-13, name
        if member:
            assert np.abs(checked - oracle).max() <= 1e-13, name
        off = mx.row_norms((X.combine(want) - stack).reshape(Y.dim, -1))
        assert np.abs(residuals - off).max() <= 1e-13, name
        assert np.abs(sizes - 1.0).max() <= 1e-13, name
        assert (off.max() > 0.5) is not member, name
    with pytest.raises(ShapeMismatch):
        cases[0][1].basis_over(cases[-1][1])


def test_basis_over_of_a_slice_on_its_parent_passes_at_1e_12():
    # the residual sums the squared misfit over the support; ||b||^2 - ||c||^2
    # would cancel to a floor of about 1e-8, above this bound
    for name, Y, X, member in _basis_over_cases():
        if name.endswith(("over C[S4]", "over C[Z3^4]", "over C[A4]", "over C[K]")) and member:
            assert Y.basis_over(X, checked=True) is not None, name
            _, residuals, sizes = Y._basis_over(X, True)
            assert np.all(residuals <= 1e-12 * (1.0 + sizes)) and residuals.max() <= 1e-14, name


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
            module = GenericModule(E)
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


def _y_held_family(case):
    """A masking E and its restrictions onto C[K] and C[L], whose source is that slice of C[G]."""
    if case == "Z3^4":
        inc, K = _z3_power_inclusion()
        G = inc.group
        L = generated_subgroup(G, [G.index_of(g) for g in ((0, 1, 0, 0), (0, 0, 0, 1))])
    else:
        G = FiniteGroup.symmetric(4)
        H = generated_subgroup(G, [G.index_of((1, 0, 3, 2))])
        inc = group_algebra_inclusion(G, H)
        K = generated_subgroup(G, [G.index_of(g) for g in ((1, 0, 3, 2), (2, 3, 0, 1))])
        L = generated_subgroup(G, [G.index_of(g) for g in ((1, 0, 2, 3), (0, 1, 3, 2))])
    out = [(inc.E, inc.coset_reps)]
    for S in (K, L):
        F = inc.expectation_onto(S)
        out.append((F, left_coset_reps(G, S)))
        restricted = restrict_expectation(inc.E, F.target, F)
        assert restricted.source is F.target  # the C[S] slice
        out.append((restricted, None))
    return inc, out


@pytest.mark.parametrize("case", ["Z3^4", "S4"])
def test_held_quasi_coordinates_are_those_of_the_stack(case):
    inc, family = _y_held_family(case)
    for E, reps in family:
        y = E._quasi_coords
        assert y is E._quasi and y.ndim == 2 and not y.flags.writeable  # held, not taken
        np.testing.assert_allclose(
            y, E.source.hs_coordinates(E.quasi_stack), rtol=0, atol=1e-14
        )
        if reps is not None:  # a masking expectation: {lambda_g} over its coset reps
            want = groups._regular_stack(inc.group, reps)
            np.testing.assert_allclose(E.quasi_stack, want, rtol=0, atol=1e-15)
            assert not E.quasi_stack.flags.writeable
            assert all(np.shares_memory(m, E.quasi_stack) for m in E.quasi_basis)


@pytest.mark.parametrize("case", ["Z3^4", "S4"])
def test_table_index_matches_the_dense_sum(case, monkeypatch, rng):
    _, family = _y_held_family(case)
    # each l_i times a phase is a quasi-basis too, with complex coordinates
    E = family[0][0]
    phases = np.exp(2j * np.pi * rng.random(len(E._quasi)))[:, None]
    phased = ConditionalExpectation.from_coordinates(
        E.source, E.target, E.coordinate_matrix, quasi_basis=phases * E._quasi
    )
    for E in [phased] + [E for E, _ in family]:
        want = mx.sum_times_adjoint(E.quasi_stack)
        with monkeypatch.context() as patch:
            patch.setattr(mx, "sum_times_adjoint", None)  # the table path calls no dense sum
            patch.setattr(MatrixStarAlgebra, "star_coordinates", None)  # nor forms S
            got = watatani_index(E)
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + mx.operator_norm(want))
        assert not got.flags.writeable


def test_random_element_combines_without_dense_rows():
    A = _z3_power_inclusion()[0].A  # the order-81 C[G], built from its maps
    got = A.random_element(np.random.default_rng(5))
    assert "_flat" not in vars(A)
    want = mx.random_combination(A.basis, np.random.default_rng(5))  # the loop it replaces
    assert np.max(np.abs(got - want)) <= 1e-13


def test_matrix_held_quasi_basis_keeps_the_dense_index_and_takes_coordinates_once(monkeypatch):
    inc, _ = _z3_power_inclusion()
    held = ConditionalExpectation.from_coordinates(
        inc.A, inc.B, inc.E.coordinate_matrix, quasi_basis=inc.E.quasi_stack
    )
    assert held.quasi_stack is inc.E.quasi_stack  # read-only: kept uncopied
    calls = []
    dense = mx.sum_times_adjoint
    monkeypatch.setattr(mx, "sum_times_adjoint", lambda mats: calls.append(1) or dense(mats))
    np.testing.assert_allclose(watatani_index(held), 27.0 * np.eye(81), atol=1e-12)
    assert calls == [1]
    y = held._quasi_coords
    assert held._quasi_coords is y
    np.testing.assert_allclose(y, inc.E._quasi, rtol=0, atol=1e-14)


def test_quasi_coordinates_of_the_wrong_shape_are_refused():
    inc, _ = _z3_power_inclusion()
    t = inc.E.coordinate_matrix
    for y in (np.zeros((27, 80)), np.zeros((27, 82))):
        with pytest.raises(ShapeMismatch, match="81 columns"):
            ConditionalExpectation.from_coordinates(inc.A, inc.B, t, quasi_basis=y)
    y = np.array(inc.E._quasi)  # writable: copied in, not shared
    E = ConditionalExpectation.from_coordinates(inc.A, inc.B, t, quasi_basis=y)
    assert not np.shares_memory(E._quasi, y)
    np.testing.assert_array_equal(E._quasi, y)


def test_lattice_sweep_builds_no_dense_stack_for_an_intermediate(monkeypatch):
    built = []
    stack_of = ConditionalExpectation.__dict__["quasi_stack"].func

    def recorded(self):
        stack = stack_of(self)
        if stack is not None:
            built.append(self.name)
        return stack

    monkeypatch.setattr(ConditionalExpectation, "quasi_stack", property(recorded))
    count, worst = verify.lattice_route_sweep(FiniteGroup.symmetric(4))
    assert (count, worst <= 1e-12) == (1065, True)
    # C[S4] has a product table: its levels gather, and read no stack at all
    assert built == []
    # C[S3] has none: its levels multiply by E's stack, never by an F's
    count, worst = verify.lattice_route_sweep(FiniteGroup.symmetric(3))
    assert (count, worst <= 1e-12) == (16, True)
    assert "E" in built and "F" not in built


def test_centrality_residual_bounds_the_dense_commutators(c_plus_m2, monkeypatch, rng):
    S4 = FiniteGroup.symmetric(4)
    swap = S4.regular_matrix(S4.index_of((1, 0, 2, 3)))
    # the class sum of the six transpositions, labelled "(ab)"
    class_sum = sum(S4.regular_matrix(g) for g, lab in enumerate(S4.labels) if len(lab) == 4)

    def dense(alg, x):
        basis = alg.basis_stack
        return mx.max_operator_norm(x @ basis - basis @ x)

    def build():
        # a fresh group on each path: C[G] is kept on its group, and the
        # dense path must not reuse an algebra whose table is already built
        G = FiniteGroup.symmetric(4)
        alg = group_algebra_inclusion(G, trivial_subgroup(G)).A
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
    def build():
        S4 = FiniteGroup.symmetric(4)  # fresh on each path, as is its C[G]
        swap = S4.index_of((1, 0, 2, 3))
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


def _reference_build_coordinates(rule, E):
    """T and its worst off-target residual, one stacked rule call per source basis element."""
    src, tgt = E.source, E.target
    images = np.stack([rule(b[None])[0] for b in src.basis])
    coords = tgt.hs_coordinates(images)
    flat = images.reshape(len(images), -1)
    off = np.linalg.norm(coords @ tgt._flat - flat, axis=1)
    ratios = off / (1.0 + np.linalg.norm(flat, axis=1))
    k = int(np.argmax(ratios))
    return coords, float(ratios[k]), k


def _rule_built(inclusion, tower_level, c_plus_m2, rng):
    """Builders of expectations made from a stacked rule, by name: E_1, G, from_rule, from_json."""
    u = m2.Unitary2(mx.random_unitary(2, rng))
    f_u = m2.fu_expectation(u, inclusion)
    payload = f_u.to_json()
    G = FiniteGroup.direct_product([2, 2])
    z2z2 = group_algebra_inclusion(G, trivial_subgroup(G))
    return {
        "E1 m2": lambda: dataclasses.replace(tower_level).dual_expectation,
        "E1 C+M2": lambda: dataclasses.replace(c_plus_m2.level).dual_expectation,
        "E1 C[Z2xZ2]": lambda: z2z2.tower(materialize=False).dual_expectation,
        "G m2 F": lambda: intermediate_dual_expectation(tower_level, inclusion.F),
        "G m2 F_u": lambda: intermediate_dual_expectation(tower_level, f_u),
        "G C+M2": lambda: intermediate_dual_expectation(c_plus_m2.level, c_plus_m2.F),
        "from_rule": lambda: m2.fu_expectation(u, inclusion),
        "from_json": lambda: ConditionalExpectation.from_json(payload),
    }


def test_stacked_coordinates_match_the_per_element_loop(
    inclusion, tower_level, c_plus_m2, rng, monkeypatch
):
    for name, build in _rule_built(inclusion, tower_level, c_plus_m2, rng).items():
        rules = _recorded_rules(monkeypatch)
        E = build()
        monkeypatch.undo()
        want, want_worst, _ = _reference_build_coordinates(rules[E], E)
        item = 16 * E.ambient_dim**2
        # one chunk, one element per chunk, and two per chunk with a remainder
        for budget in (mx.STACK_BUDGET_BYTES, 1, 2 * item):
            monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
            built = ConditionalExpectation(E.source, E.target, rules[E], name=name)
            monkeypatch.undo()
            worst, _ = built._off_target
            assert np.max(np.abs(built.coordinates(1.0) - want)) <= 1e-12, (name, budget)
            assert abs(worst - want_worst) <= 1e-12, (name, budget)


def _every_construction(inclusion, tower_level, c_plus_m2, rng, monkeypatch):
    """(name, expectation, its stacked rule or None) for every way to build one."""
    rules = _recorded_rules(monkeypatch)
    builders = _rule_built(inclusion, tower_level, c_plus_m2, rng)
    built = {name: build() for name, build in builders.items()}
    w = mx.random_unitary(2, rng)
    built["constructor"] = ConditionalExpectation(
        inclusion.A, inclusion.delta, lambda xs: np.stack([np.diag(np.diag(x)) for x in xs])
    )
    monkeypatch.undo()
    G = FiniteGroup.direct_product([2, 3])
    groups = group_algebra_inclusion(G, trivial_subgroup(G))
    built.update({
        "from_coordinates": groups.expectation_onto(generated_subgroup(G, [G.index_of((0, 1))])),
        "conjugate": conjugate_expectation(inclusion.F, w),
        "identity": identity_expectation(c_plus_m2.A),
    })
    return [(name, E, rules.get(E)) for name, E in built.items()]


def test_every_construction_reads_one_map(inclusion, tower_level, c_plus_m2, rng, monkeypatch):
    # E(x), E.on_source and map_matrix are one map, on members and off the
    # source span; on members it is the rule's map
    for name, E, rule in _every_construction(inclusion, tower_level, c_plus_m2, rng, monkeypatch):
        assert not any(callable(v) for v in vars(E).values()), name
        n = E.ambient_dim
        members = np.stack([E.source.random_element(rng) for _ in range(3)])
        others = np.stack([mx.random_matrix(n, rng) for _ in range(3)])
        assert np.max(np.abs(others - E.source.project(others))) > 0.1 or E.source.dim == n * n
        for x in (*members, *others):
            one = E(x)
            by_matrix = (E.map_matrix @ x.reshape(-1)).reshape(n, n)
            for other in (E.on_source(x[None])[0], by_matrix):
                np.testing.assert_allclose(other, one, rtol=0, atol=1e-13, err_msg=name)
        if rule is not None:
            np.testing.assert_allclose(E.on_source(members), rule(members), rtol=0, atol=1e-12)
    # the closed forms hold the maps they stand for
    w = mx.random_unitary(2, rng)
    conj = conjugate_expectation(inclusion.F, w)
    x = mx.random_matrix(2, rng)
    want = w @ inclusion.F(mx.adjoint(w) @ x @ w) @ mx.adjoint(w)
    np.testing.assert_allclose(conj(x), want, rtol=0, atol=1e-13)
    members = c_plus_m2.A.combine(rng.standard_normal((3, c_plus_m2.A.dim)))
    ident = identity_expectation(c_plus_m2.A)
    np.testing.assert_allclose(ident.on_source(members), members, rtol=0, atol=1e-13)


def test_coordinates_call_the_rule_once_per_chunk(c_plus_m2, monkeypatch):
    level = c_plus_m2.level
    E1 = level.dual_expectation
    d, n = E1.source.dim, level.module_dim
    assert d == 17
    shapes = []

    def recorded(xs):
        shapes.append(xs.shape)
        return E1.on_source(xs)

    # one chunk, then chunks of two elements with one left over
    for budget, chunks in ((mx.STACK_BUDGET_BYTES, [d]), (2 * 16 * n * n, [2] * 8 + [1])):
        monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
        spy = ConditionalExpectation(E1.source, E1.target, recorded, E1.quasi_basis, name="spy")
        monkeypatch.undo()
        assert shapes == [(k, n, n) for k in chunks]
        assert not any(callable(v) for v in vars(spy).values())
        np.testing.assert_allclose(spy.coordinate_matrix, E1.coordinate_matrix, atol=1e-12)
        # every reading goes through T: the rule is not called again
        spy(E1.source.basis[0])
        spy.on_source(E1.source.basis_stack)
        spy.map_matrix
        assert verify_quasi_basis(spy, spy.quasi_basis, 1e-8)
        watatani_index(spy)
        verify_expectation(spy)
        assert len(shapes) == len(chunks)
        shapes.clear()


def test_rule_images_are_checked_when_the_expectation_is_built(inclusion):
    A, B, E = inclusion.A, inclusion.B, inclusion.E

    def nan_on_e22(x):
        return np.full((2, 2), np.nan) if np.array_equal(x, E22) else E(x)

    def stacked(rule):
        return lambda xs: np.stack([rule(x) for x in xs])

    with pytest.raises(InvalidMatrix):
        ConditionalExpectation.from_rule(A, B, nan_on_e22)
    with pytest.raises(InvalidMatrix):
        ConditionalExpectation(A, B, stacked(nan_on_e22))
    # every image of the wrong shape, or only one of them
    for rule in (lambda x: np.eye(3), lambda x: np.eye(3) if np.array_equal(x, E22) else E(x)):
        with pytest.raises(ShapeMismatch):
            ConditionalExpectation.from_rule(A, B, rule)
    with pytest.raises(ShapeMismatch):
        ConditionalExpectation(A, B, lambda xs: xs.reshape(len(xs), -1))


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


# ---------------------------------------------------------------------------
# coordinates of members, and membership, from one pass


def _membership_algebras(c_plus_m2):
    """An algebra on each coordinate path: the Z24 group algebra gathers, C+M2 is dense."""
    G = FiniteGroup.cyclic(24)
    gather = group_algebra_inclusion(G, trivial_subgroup(G)).A
    assert gather._supports is not None and c_plus_m2.A._supports is None
    return {"gather": gather, "dense": c_plus_m2.A}


def _members(alg, count, rng):
    shape = (count, alg.dim)
    return alg.combine(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("path", ["gather", "dense"])
def test_stacked_coordinates_are_the_hs_coordinates_of_members(path, c_plus_m2, rng, monkeypatch):
    alg = _membership_algebras(c_plus_m2)[path]
    members = _members(alg, 7, rng)
    want = alg.hs_coordinates(members)
    assert np.array_equal(alg.coordinates(members), want)  # one chunk: the same pass
    np.testing.assert_allclose(alg.coordinates(members[3]), want[3], rtol=0, atol=1e-13)
    # chunks of two members, with a remainder
    monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", 3 * 2 * members[0].nbytes)
    np.testing.assert_allclose(alg.coordinates(members), want, rtol=0, atol=1e-13)
    assert alg.contains_all(members) and all(alg.contains(x) for x in members)


@pytest.mark.parametrize("path", ["gather", "dense"])
def test_stacked_coordinates_raise_on_one_element_off_the_span(path, c_plus_m2, rng, monkeypatch):
    alg, tol = _membership_algebras(c_plus_m2)[path], mx.DEFAULT_TOL
    members = _members(alg, 5, rng)
    x = mx.random_matrix(alg.ambient_dim, rng)
    off = x - alg.project(x)
    off /= mx.frobenius_norm(off)  # a unit matrix HS-orthogonal to the span
    # one chunk, then chunks of two members, so the last one sits alone
    for budget in (mx.STACK_BUDGET_BYTES, 3 * 2 * members[0].nbytes):
        monkeypatch.setattr(mx, "STACK_BUDGET_BYTES", budget)
        for k in (0, len(members) - 1):
            # the residual of x_k + s off is s; the bound is tol (1 + ||x_k + s off||_F)
            for factor, member in ((2.0, False), (0.5, True)):
                xs = members.copy()
                xs[k] += factor * tol * (1.0 + mx.frobenius_norm(xs[k])) * off
                assert alg.contains_all(xs) is member
                singles = [alg.contains(x) for x in xs]
                assert singles == [i != k or member for i in range(len(xs))]
                if member:
                    np.testing.assert_allclose(
                        alg.coordinates(xs), alg.hs_coordinates(xs), rtol=0, atol=1e-13
                    )
                    continue
                with pytest.raises(NotInAlgebra):
                    alg.coordinates(xs)
                with pytest.raises(NotInAlgebra):
                    alg.coordinates(xs[k])
                alg.coordinates(np.delete(xs, k, axis=0))  # the others are members


# ---------------------------------------------------------------------------
# the tolerance inventory: one bound per check


def _public_signatures():
    """(qualified name, signature) of every public function and method of the numeric layers.

    Public: a name without a leading underscore, in a class without one,
    plus ``__init__``; only what each module defines itself.
    """
    from cstar_angles import angles, tower

    for module in (mx, algebra, tower, angles):
        short = module.__name__.rsplit(".", 1)[-1]
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{short}.{name}", inspect.signature(value)
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{short}.{name}.{attr}", inspect.signature(fn)


def test_only_two_public_functions_take_a_tolerance():
    signatures = dict(_public_signatures())
    assert {"algebra.watatani_index", "tower.build_tower_level", "matrices.screened_norms"} <= set(
        signatures
    )
    takes_tol = sorted(name for name, sig in signatures.items() if "tol" in sig.parameters)
    assert takes_tol == ["algebra.ConditionalExpectation.coordinates", "algebra.verify_quasi_basis"]
    removed = {"max_pairs", "positivity_samples", "bimodular_samples"}
    assert [name for name, sig in signatures.items() if removed & set(sig.parameters)] == []
