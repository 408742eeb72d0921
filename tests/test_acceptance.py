"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1 checks both computation routes against the closed form that
the interior-angle definition yields for C <= Delta, u Delta u* <= M_2:
cos = sqrt(1 - (2|l11||l12|)^2) = ||l11|^2 - |l12|^2|, at 1e-8.  It also
pins the fourth-power variant sqrt(1 - (2|l11||l12|)^4) of
``m2.closed_form_angle`` by its exact factor: its squared cosine is the
routes' squared cosine times 1 + (2|l11||l12|)^2.  The companion test
directly below it checks route agreement and ``m2.exact_angle``.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles.algebra import (
    compatibility_residual,
    is_compatible,
    restrict_expectation,
    verify_quasi_basis,
    watatani_index,
)
from cstar_angles.angles import exterior_angle, interior_angle_definition
from cstar_angles.groups import (
    FiniteGroup,
    generated_subgroup,
    group_algebra_inclusion,
    group_angle,
    trivial_subgroup,
)
from cstar_angles.tower import (
    intermediate_data,
    intermediate_dual_expectation,
)
from cstar_angles.verify import lattice_route_sweep


def _line(number: str, passed: bool, description: str):
    print(f"\ncriterion {number}: {'PASS' if passed else 'FAIL'} - {description}")


def _m2_routes(inclusion, level, u, mu):
    formula, definition = m2.interior_routes(u, inclusion, level, mu)
    return formula.cos_value, definition.cos_value


HADAMARD_SET = [
    np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2),
    np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
    np.array(
        [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
         [math.sin(math.pi / 4), math.cos(math.pi / 4)]],
        dtype=complex,
    ),
]

DIAGONAL_SET = [
    np.eye(2, dtype=complex),
    np.diag([1.0, 1j]),
    np.diag([np.exp(0.3j), np.exp(-1.1j)]),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[0, np.exp(0.7j)], [np.exp(0.2j), 0]], dtype=complex),
]


def test_criterion_01_closed_form_on_both_routes(inclusion, tower_level, rng):
    """100 seeded unitaries: routes vs sqrt(1-(2|l11||l12|)^2), 1e-8, < 5 s.

    With B = C the projections e_Delta - e_1 and e_{u Delta u*} - e_1 are
    rank one, onto vec(z)/sqrt(2) and vec(u z u*)/sqrt(2) with
    z = diag(1, -1), so the definition gives cos = |<z, u z u*>|/2 =
    ||l11|^2 - |l12|^2|.  The fourth-power form of ``closed_form_angle``
    is held to its stated relation with it:
    cos^2(closed_form_angle(u)) = cos^2 * (1 + (2|l11||l12|)^2).
    """
    started = time.monotonic()
    mu = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F).quasi_basis
    worst, worst_factor = 0.0, 0.0
    for _ in range(100):
        m = mx.random_unitary(2, rng)
        u = m2.Unitary2(m)
        prod = 2.0 * abs(m[0, 0]) * abs(m[0, 1])
        closed_cos = math.sqrt(max(0.0, 1.0 - prod**2))
        fourth_sq = math.cos(m2.closed_form_angle(u)) ** 2
        for cos_route in _m2_routes(inclusion, tower_level, u, mu):
            worst = max(worst, abs(cos_route - closed_cos))
            worst_factor = max(
                worst_factor, abs(fourth_sq - cos_route**2 * (1.0 + prod**2))
            )
    elapsed = time.monotonic() - started
    passed = worst < 1e-8 and worst_factor < 1e-8 and elapsed < 5.0
    _line(
        "01",
        passed,
        "second-power closed form vs both routes "
        f"(worst {worst:.3e}, fourth-power factor {worst_factor:.3e}, {elapsed:.1f}s)",
    )
    assert elapsed < 5.0
    assert worst < 1e-8, (
        "a route deviates from sqrt(1 - (2|l11||l12|)^2) by up to "
        f"{worst:.3e}"
    )
    assert worst_factor < 1e-8, (
        "cos^2 of closed_form_angle differs from cos^2 of a route times "
        f"1 + (2|l11||l12|)^2 by up to {worst_factor:.3e}"
    )


def test_criterion_01_companion_attainable_form(inclusion, tower_level, rng):
    """What the routes do satisfy: mutual agreement and the second-power form."""
    started = time.monotonic()
    mu = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F).quasi_basis
    worst_pair, worst_exact = 0.0, 0.0
    for _ in range(100):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        exact_cos = math.cos(m2.exact_angle(u))
        cos_f, cos_d = _m2_routes(inclusion, tower_level, u, mu)
        worst_pair = max(worst_pair, abs(cos_f - cos_d))
        worst_exact = max(worst_exact, abs(cos_f - exact_cos), abs(cos_d - exact_cos))
    elapsed = time.monotonic() - started
    passed = worst_pair < 1e-8 and worst_exact < 1e-8 and elapsed < 5.0
    _line(
        "01b",
        passed,
        "route agreement and second-power closed form "
        f"(pair {worst_pair:.3e}, closed {worst_exact:.3e}, {elapsed:.1f}s)",
    )
    assert passed


def test_criterion_02_index_constants_and_projections(inclusion, tower_level):
    """Ind(E) = 4, Ind(F) = 2, e_1 and e_Delta entrywise at 1e-10, < 1 s."""
    started = time.monotonic()
    ok = True
    ok &= np.allclose(watatani_index(inclusion.E), 4 * np.eye(2), atol=1e-10)
    ok &= np.allclose(watatani_index(inclusion.F), 2 * np.eye(2), atol=1e-10)
    e1 = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
    )
    ok &= np.allclose(tower_level.jones_projection, e1, atol=1e-10)
    e_delta = intermediate_data(tower_level, inclusion.F)[0]
    ok &= np.allclose(e_delta, np.diag([1.0, 0, 0, 1.0]), atol=1e-10)
    elapsed = time.monotonic() - started
    passed = bool(ok) and elapsed < 1.0
    _line("02", passed, f"index constants and displayed projections ({elapsed:.2f}s)")
    assert passed


def test_criterion_03_right_angle_iff_balanced(inclusion, tower_level):
    """pi/2 exactly on the balanced set, 0 on diagonal set, square iff balanced."""
    started = time.monotonic()
    mu = restrict_expectation(inclusion.E, inclusion.delta, inclusion.F).quasi_basis
    ok = True
    for mat in HADAMARD_SET:
        u = m2.Unitary2(mat)
        cos_f, cos_d = _m2_routes(inclusion, tower_level, u, mu)
        ok &= abs(math.acos(min(1, cos_f)) - math.pi / 2) < 1e-8
        ok &= abs(math.acos(min(1, cos_d)) - math.pi / 2) < 1e-8
    for mat in DIAGONAL_SET:
        u = m2.Unitary2(mat)
        cos_f, cos_d = _m2_routes(inclusion, tower_level, u, mu)
        ok &= math.acos(min(1, cos_f)) < 1e-8 and math.acos(min(1, cos_d)) < 1e-8

    def is_commuting_square(u):
        f_u = m2.fu_expectation(u, inclusion)
        residual = max(
            mx.max_operator_norm(
                inclusion.F(f_u(x)) - inclusion.E(x) for x in inclusion.A.basis
            ),
            mx.max_operator_norm(
                f_u(inclusion.F(x)) - inclusion.E(x) for x in inclusion.A.basis
            ),
        )
        return residual <= 1e-8

    for mat in HADAMARD_SET:
        ok &= is_commuting_square(m2.Unitary2(mat))
    for mat in DIAGONAL_SET + [m2.rotation(0.3).matrix, m2.rotation(0.6).matrix]:
        ok &= not is_commuting_square(m2.Unitary2(mat))
    elapsed = time.monotonic() - started
    passed = bool(ok)
    _line("03", passed, f"right angle and commuting square iff balanced ({elapsed:.1f}s)")
    assert passed


def test_criterion_04_sweep_covers_interval():
    """1000-point rotation sweep: exact endpoints, max gap < 0.01 rad, < 10 s."""
    started = time.monotonic()
    thetas = np.linspace(0.0, math.pi / 4, 1000)
    angles = [a for _, a in m2.angle_sweep(thetas)]
    gap = max(b - a for a, b in zip(angles, angles[1:]))
    monotone = all(b >= a - 1e-12 for a, b in zip(angles, angles[1:]))
    elapsed = time.monotonic() - started
    passed = (
        abs(angles[0]) < 1e-12
        and abs(angles[-1] - math.pi / 2) < 1e-12
        and gap < 0.01
        and monotone
        and elapsed < 10.0
    )
    _line("04", passed, f"sweep endpoints exact, max gap {gap:.4f} rad ({elapsed:.1f}s)")
    assert passed


def test_criterion_05_conjugated_projection_matrices():
    """u e_Delta u* and e_{u Delta u*}: displayed values, far apart in norm."""
    started = time.monotonic()
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    demo = m2.hadamard_gap_demo(u)
    conj_expected = np.array(
        [[0.5, 0, -0.5j, 0], [0, 0.5, 0, 0.5j], [0.5j, 0, 0.5, 0], [0, -0.5j, 0, 0.5]],
        dtype=complex,
    )
    direct_expected = np.array(
        [[0.5, 0, 0, 0.5], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0.5, 0, 0, 0.5]],
        dtype=complex,
    )
    separation = mx.operator_norm(demo.u_eC_u_star - demo.e_uCu_star)
    passed = (
        np.allclose(demo.u_eC_u_star, conj_expected, atol=1e-10)
        and np.allclose(demo.e_uCu_star, direct_expected, atol=1e-10)
        and separation > 0.4
    )
    elapsed = time.monotonic() - started
    _line("05", passed, f"conjugated vs direct projection, gap {separation:.3f} ({elapsed:.1f}s)")
    assert passed


def test_criterion_06_order_225_example():
    """cos = 1/2 exactly; angle = pi/3 within 1e-12; numeric route at 1e-6 < 5 min."""
    started = time.monotonic()
    G = FiniteGroup.direct_product([3, 3, 5, 5])
    K = generated_subgroup(
        G, [G.index_of(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))]
    )
    L = generated_subgroup(G, [G.index_of(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0))])
    H = generated_subgroup(G, [G.index_of((0, 0, 1, 0))])
    exact = group_angle(G, H, K, L)
    extra = exact.diagnostics.extra
    exact_ok = (
        Fraction(extra["cos_squared_numerator"], extra["cos_squared_denominator"])
        == Fraction(1, 4)
        and exact.cos_value == 0.5
        and abs(exact.angle_rad - math.pi / 3) <= 1e-12
    )

    inc = group_algebra_inclusion(G, H)
    level = inc.tower(materialize=False, check=True)
    numeric = interior_angle_definition(
        level, inc.expectation_onto(K), inc.expectation_onto(L)
    )
    numeric_ok = abs(numeric.cos_value - 0.5) <= 1e-6
    elapsed = time.monotonic() - started
    passed = exact_ok and numeric_ok and elapsed < 300.0
    _line(
        "06",
        passed,
        f"order-225 example: exact 1/2, numeric dev {abs(numeric.cos_value - 0.5):.2e} "
        f"({elapsed:.0f}s)",
    )
    assert passed


def test_criterion_07_lattice_agreement():
    """Full (H, K, L) lattices of S3, S4, Z2^3, Z12: routes within 1e-7, < 2 min."""
    started = time.monotonic()
    worst, total = 0.0, 0
    for G in (
        FiniteGroup.symmetric(3),
        FiniteGroup.symmetric(4),
        FiniteGroup.direct_product([2, 2, 2]),
        FiniteGroup.cyclic(12),
    ):
        count, dev = lattice_route_sweep(G)
        total += count
        worst = max(worst, dev)
    elapsed = time.monotonic() - started
    passed = worst <= 1e-7 and elapsed < 120.0
    _line(
        "07",
        passed,
        f"{total} lattice triples, worst route deviation {worst:.2e} ({elapsed:.0f}s)",
    )
    assert passed


def _identity_suite(level, F, tol=1e-8) -> float:
    """Worst residual over the projection/index/dual identities for C = target(F)."""
    E = level.expectation
    e_b = level.jones_projection
    e_c, restricted = intermediate_data(level, F)
    ind_e = level.index_matrix
    ind_e_inv = level.index_inverse
    ind_c = watatani_index(restricted)
    ind_f = watatani_index(F)
    worst = max(
        mx.operator_norm(e_c @ e_b - e_b),
        mx.operator_norm(e_b @ e_c - e_b),
        mx.frobenius_norm(level.dual_value(e_b) - ind_e_inv),
        mx.frobenius_norm(level.dual_value(e_c) - ind_e_inv @ ind_c),
        mx.operator_norm(ind_e - ind_f @ ind_c),
    )
    ind_f_inv = np.linalg.inv(ind_f)
    for x in level.algebra.basis:
        lx = level.embed(x)
        for y in level.algebra.basis:
            t = lx @ e_c @ level.embed(y)
            worst = max(
                worst, mx.frobenius_norm(level.dual_value(t) - ind_f_inv @ (x @ y))
            )
    g = intermediate_dual_expectation(level, F)
    assert verify_quasi_basis(g, g.quasi_basis, tol)
    for b in level.basic_construction.basis:
        gb = g(b)
        worst = max(worst, mx.frobenius_norm(g(gb) - gb))
        worst = max(
            worst, mx.frobenius_norm(level.dual_value(b) - level.dual_value(gb))
        )
    return worst


def test_criterion_08_identity_suite(inclusion, tower_level):
    """Projection, index and dual-expectation identities at 1e-8 on three cases."""
    started = time.monotonic()
    worst = _identity_suite(tower_level, inclusion.F)

    for G, hgen, cgen in (
        (FiniteGroup.cyclic(4), (), ((2,),)),
        (FiniteGroup.direct_product([2, 2]), (), ((1, 0),)),
    ):
        H = (
            trivial_subgroup(G)
            if not hgen
            else generated_subgroup(G, [G.index_of(e) for e in hgen])
        )
        C = generated_subgroup(G, [G.index_of(e) for e in cgen])
        inc = group_algebra_inclusion(G, H)
        level = inc.tower(materialize=True)
        F = inc.expectation_onto(C)
        worst = max(worst, _identity_suite(level, F))
    elapsed = time.monotonic() - started
    passed = worst <= 1e-8
    _line("08", passed, f"identity suite worst residual {worst:.2e} ({elapsed:.1f}s)")
    assert passed


def test_criterion_09_exterior_angle(inclusion, tower_level):
    """Exterior angle: level-2 definition vs formula route on (A <= A_1, E_1), 1e-7; b(C,C) = 0."""
    started = time.monotonic()
    worst = 0.0
    unitaries = [m2.rotation(t) for t in np.linspace(0.0, math.pi / 4, 5)]
    rng = mx.default_rng()
    unitaries += [m2.Unitary2(mx.random_unitary(2, rng)) for _ in range(5)]
    for u in unitaries:
        f_u = m2.fu_expectation(u, inclusion)
        res = exterior_angle(tower_level, inclusion.F, f_u)
        worst = max(worst, abs(res.cos_value - res.diagnostics.extra["closed_cos"]))
    self_m2 = exterior_angle(tower_level, inclusion.F, inclusion.F).angle_rad

    G = FiniteGroup.cyclic(4)
    incg = group_algebra_inclusion(G, trivial_subgroup(G))
    levelg = incg.tower(materialize=True)
    Fk = incg.expectation_onto(generated_subgroup(G, [G.index_of((2,))]))
    self_group = exterior_angle(levelg, Fk, Fk).angle_rad

    G2 = FiniteGroup.direct_product([2, 2])
    incg2 = group_algebra_inclusion(G2, trivial_subgroup(G2))
    levelg2 = incg2.tower(materialize=True)
    res2 = exterior_angle(
        levelg2,
        incg2.expectation_onto(generated_subgroup(G2, [G2.index_of((1, 0))])),
        incg2.expectation_onto(generated_subgroup(G2, [G2.index_of((0, 1))])),
    )
    worst = max(worst, abs(res2.cos_value - res2.diagnostics.extra["closed_cos"]))
    elapsed = time.monotonic() - started
    passed = worst <= 1e-7 and self_m2 <= 1e-8 and self_group <= 1e-8
    _line(
        "09",
        passed,
        f"exterior two-route dev {worst:.2e}, self angles {self_m2:.1e}/{self_group:.1e} "
        f"({elapsed:.1f}s)",
    )
    assert passed


def test_criterion_10_traciality_counterexample():
    """Compatibility fails for the skewed trace (t = 0.3) and holds at t = 1/2."""
    started = time.monotonic()
    u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
    f_u = m2.fu_expectation(u)
    skew_bad = m2.skewed_scalar_expectation(0.3)
    skew_good = m2.skewed_scalar_expectation(0.5)
    residual = compatibility_residual(skew_bad, f_u)
    passed = (
        not is_compatible(skew_bad, f_u)
        and residual > 0.05
        and is_compatible(skew_good, f_u)
    )
    elapsed = time.monotonic() - started
    _line("10", passed, f"skewed-trace incompatibility, residual {residual:.3f} ({elapsed:.1f}s)")
    assert passed
