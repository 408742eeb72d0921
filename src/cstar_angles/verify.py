"""Named invariant suites: every property the package promises, as checks.

Each suite returns a list of :class:`CheckResult` rows (name, pass,
residual).  The CLI ``verify`` command prints them and exits nonzero when
any check fails; the acceptance tests reuse the same helpers.  All
randomness is drawn from the seeded package generator, so runs are
reproducible and two runs with the same seed produce identical residuals.

Every check is expected to pass.  The computation routes realize the
second-power form ``m2.exact_angle``; ``m2_printed_closed_form_agreement``
holds the fourth-power closed form ``m2.closed_form_angle`` to its exact
relation with them, cos^2(closed_form_angle(u)) = cos^2 * (1 + (2|l11||l12|)^2).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import matrices as mx
from . import m2
from .algebra import (
    CheckResult,
    MatrixStarAlgebra,
    cauchy_schwarz_check,
    compatibility_residual,
    conjugate_expectation,
    restrict_expectation,
    verify_expectation,
    verify_quasi_basis,
    verify_star_algebra,
    watatani_index,
)
from .angles import (
    angle_from_projections,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
    _result,
    Route,
)
from .groups import (
    FiniteGroup,
    all_subgroups,
    group_algebra_inclusion,
    group_angle,
    intermediate_subgroups,
    intersection,
    left_coset_reps,
    normalizer,
    normalizer_angle_profile,
    parse_group_spec,
    trivial_subgroup,
    generated_subgroup,
)
from .tower import (
    dual_expectation_value,
    intermediate_data,
    intermediate_projections,
    intermediate_dual_expectation,
    iterate_tower,
)

__all__ = [
    "SUITE_NAMES",
    "run_suite",
    "angle_from_projections",
    "lattice_route_sweep",
    "lattice_route_cosines",
]


def _record(checks: list, name: str, fn, tol: float, detail: str = ""):
    """Run a residual-valued check, converting exceptions into failures."""
    try:
        residual = float(fn())
    except Exception as exc:  # a crashed check is a failed check
        checks.append(CheckResult(name, False, float("inf"), f"{type(exc).__name__}: {exc}"))
        return
    checks.append(CheckResult(name, residual <= tol, residual, detail))


def lattice_route_sweep(G: FiniteGroup) -> tuple[int, float]:
    """Exact formula vs definition route over every (H, K, L) chain in G.

    Returns (number of triples checked, worst cosine deviation).
    """
    worst, count = 0.0, 0
    for _, _, _, exact, numeric in lattice_route_cosines(G):
        worst = max(worst, abs(exact.cos_value - numeric.cos_value))
        count += 1
    return count, worst


def lattice_route_cosines(G: FiniteGroup):
    """Yield (H, K, L, exact, numeric) over every (H, K, L) chain in G.

    For each base H the definition route runs on stacks.  One
    :func:`~cstar_angles.tower.intermediate_projections` call gives the
    e_K of all m intermediates K, taking their masking expectations from a
    generator, so they are held only while H is processed; D_K = e_K - e_B.
    E_1 is *-preserving, so ||E_1(D_K* D_L)|| = ||E_1(D_L* D_K)||: row K
    takes the numerators of the L from K on, from one stacked dual value and
    one stacked SVD, so m dual-value calls per H, and the denominators
    ||E_1(D_K* D_K)||^(1/2) are read off the diagonal.  ``group_angle`` is
    called per triple and never read by the numeric route.
    """
    subs = all_subgroups(G)
    for H in subs:
        inters = [
            K for K in subs
            if H.issubset(K) and K.order != H.order and K.order != G.order
        ]
        if not inters:
            continue
        inc = group_algebra_inclusion(G, H)
        level = inc.tower(materialize=False, check=False)
        diffs = intermediate_projections(level, (inc.expectation_onto(K) for K in inters))
        diffs -= level.jones_projection
        nums = np.empty((len(inters), len(inters)))
        for i, d_k in enumerate(diffs):
            nums[i, i:] = mx.operator_norms(level.dual_value(mx.adjoint(d_k) @ diffs[i:]))
            nums[i:, i] = nums[i, i:]
        del inc, level, diffs
        dens = np.sqrt(np.diagonal(nums))
        for K, row, den_k in zip(inters, nums, dens):
            for L, num, den_l in zip(inters, row, dens):
                numeric = _result(float(num), float(den_k), float(den_l), Route.DEFINITION)
                yield H, K, L, group_angle(G, H, K, L), numeric


# groups whose whole lattices both route checks sweep (the groups suite adds S4)
_SWEPT_GROUPS = ("S3", "Z2xZ2xZ2", "Z4xZ2", "Z12")


@functools.cache
def _sweep_deviation(spec: str) -> float:
    """Worst deviation of :func:`lattice_route_sweep`; draws no random numbers."""
    return lattice_route_sweep(parse_group_spec(spec))[1]


# ---------------------------------------------------------------------------
# suites


def _suite_algebra(rng) -> list[CheckResult]:
    checks: list[CheckResult] = []
    inc = m2.canonical_inclusion()

    def submultiplicative():
        worst = 0.0
        for _ in range(100):
            a, b = mx.random_matrix(3, rng), mx.random_matrix(3, rng)
            worst = max(
                worst,
                mx.operator_norm(a @ b) - mx.operator_norm(a) * mx.operator_norm(b),
            )
        return max(worst, 0.0)

    _record(checks, "operator_norm_submultiplicative", submultiplicative, 1e-9)

    def adjoint_invariant():
        return max(
            abs(mx.operator_norm(m) - mx.operator_norm(mx.adjoint(m)))
            for m in (mx.random_matrix(4, rng) for _ in range(50))
        )

    _record(checks, "operator_norm_adjoint_invariant", adjoint_invariant, 1e-10)

    def span_roundtrip():
        basis = [mx.random_matrix(3, rng) for _ in range(5)]
        worst = 0.0
        for _ in range(100):
            target = mx.random_combination(basis, rng)
            coords = mx.coordinates_in_span(basis, target)
            recon = sum(c * b for c, b in zip(coords, basis))
            worst = max(worst, mx.frobenius_norm(recon - target))
        return worst

    _record(checks, "span_coordinates_roundtrip", span_roundtrip, 1e-9)

    u = mx.random_unitary(2, rng)
    algebras = {
        "diagonal": inc.delta,
        "conjugated_diagonal": MatrixStarAlgebra.from_spanning(
            [u @ b @ mx.adjoint(u) for b in inc.delta.basis]
        ),
        "full": inc.A,
    }
    for label, alg in algebras.items():
        _record(
            checks,
            f"star_algebra_closure_{label}",
            lambda alg=alg: verify_star_algebra(alg).worst_residual,
            1e-9,
        )

    for label, exp in (("trace", inc.E), ("diagonal", inc.F)):
        _record(
            checks,
            f"expectation_axioms_{label}",
            lambda exp=exp: verify_expectation(exp, rng=rng).worst_residual,
            1e-8,
        )
        _record(
            checks,
            f"expectation_idempotent_{label}",
            lambda exp=exp: mx.operator_norm(
                exp.map_matrix @ exp.map_matrix - exp.map_matrix
            ),
            1e-9,
        )

    def quasi_basis_independent():
        ind1 = watatani_index(inc.E)
        w = mx.random_unitary(2, rng)
        other = [w @ lam @ mx.adjoint(w) for lam in inc.E.quasi_basis]
        if not verify_quasi_basis(inc.E, other):
            return math.inf  # the rotated family is no quasi-basis
        ind2 = sum(lam @ mx.adjoint(lam) for lam in other)
        return mx.operator_norm(ind1 - ind2)

    _record(checks, "index_quasi_basis_independent", quasi_basis_independent, 1e-9)

    def multiplicative_m2():
        e_c = restrict_expectation(inc.E, inc.delta, inc.F)
        ind = watatani_index(inc.E)
        prod = watatani_index(e_c) @ watatani_index(inc.F)
        return mx.operator_norm(ind - prod)

    _record(checks, "index_multiplicative_m2", multiplicative_m2, 1e-9)

    def multiplicative_groups():
        G = FiniteGroup.cyclic(12)
        H = generated_subgroup(G, [G.index_of((6,))])
        K = generated_subgroup(G, [G.index_of((3,))])
        inc_g = group_algebra_inclusion(G, H)
        F = inc_g.expectation_onto(K)
        e_c = restrict_expectation(inc_g.E, F.target, F)
        prod = watatani_index(e_c) @ watatani_index(F)
        return mx.operator_norm(watatani_index(inc_g.E) - prod)

    _record(checks, "index_multiplicative_groups", multiplicative_groups, 1e-9)

    def composite_quasi_basis():
        e_c = restrict_expectation(inc.E, inc.delta, inc.F)
        composite = [
            gamma @ mu for gamma in inc.F.quasi_basis for mu in e_c.quasi_basis
        ]
        return 0.0 if verify_quasi_basis(inc.E, composite) else 1.0

    _record(checks, "composite_quasi_basis", composite_quasi_basis, 0.5)

    def cauchy_schwarz_random():
        worst = 0.0
        for _ in range(1000):
            x, y = mx.random_matrix(2, rng), mx.random_matrix(2, rng)
            res = cauchy_schwarz_check(inc.E, x, y)
            worst = max(worst, res.lhs - res.rhs)
        return max(worst, 0.0)

    _record(checks, "cauchy_schwarz_random", cauchy_schwarz_random, 1e-9)

    def cauchy_schwarz_anomaly():
        x = np.diag([1.0, 1.0]).astype(complex)
        y = np.diag([1j, 1.0]).astype(complex)
        res = cauchy_schwarz_check(inc.F, x, y)
        independent = mx.frobenius_norm(x - np.trace(mx.adjoint(y) @ x) / 2 * y) > 0.1
        return abs(res.lhs - res.rhs) + (0.0 if independent else 1.0)

    _record(checks, "cauchy_schwarz_equality_anomaly", cauchy_schwarz_anomaly, 1e-9)

    def traciality_counterexample():
        u = m2.Unitary2(
            np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2.0)
        )
        f_u = m2.fu_expectation(u)
        bad = compatibility_residual(m2.skewed_scalar_expectation(0.3), f_u)
        good = compatibility_residual(m2.skewed_scalar_expectation(0.5), f_u)
        return good + (0.0 if bad > 0.05 else 1.0)

    _record(checks, "traciality_needed_for_conjugates", traciality_counterexample, 1e-9)

    def conjugation_index():
        u = mx.random_unitary(2, rng)
        f_u = conjugate_expectation(inc.F, u)
        return mx.operator_norm(watatani_index(f_u) - 2.0 * np.eye(2))

    _record(checks, "conjugated_expectation_index", conjugation_index, 1e-9)
    return checks


def _suite_tower(rng) -> list[CheckResult]:
    """The level invariants on the 2x2 model, by the direct per-element forms.

    ``exchange_law`` forms e_B L_a e_B and ``module_representation_faithful``
    the HS Gram matrix of the embedded basis, one L_a per basis element:
    they are the oracles of ``tower._check_level``, the fast route every
    checked level runs (the exchange law on range(e_B), the Gram matrix as
    R_c^T in A's coordinates).
    """
    checks: list[CheckResult] = []
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    e_b = level.jones_projection
    u = mx.random_unitary(2, rng)
    f_u = m2.fu_expectation(m2.Unitary2(u), inc)
    e_delta, _ = intermediate_data(level, inc.F)
    e_d, _ = intermediate_data(level, f_u)

    def projection_laws():
        worst = 0.0
        for e in (e_b, e_delta, e_d):
            worst = max(
                worst,
                mx.operator_norm(e @ e - e),
                mx.operator_norm(e - mx.adjoint(e)),
            )
        for e in (e_delta, e_d):
            worst = max(
                worst,
                mx.operator_norm(e @ e_b - e_b),
                mx.operator_norm(e_b @ e - e_b),
            )
        return worst

    _record(checks, "jones_projection_laws", projection_laws, 1e-9)

    _record(
        checks,
        "exchange_law",
        lambda: mx.max_operator_norm(
            e_b @ level.embed(a) @ e_b - level.embed(inc.E(a)) @ e_b
            for a in inc.A.basis
        ),
        1e-9,
    )

    def faithful():
        flats = np.stack([np.ravel(level.embed(b)) for b in inc.A.basis])
        gram = np.conjugate(flats) @ flats.T
        return 0.0 if float(np.linalg.eigvalsh(gram)[0]) > 1e-10 else 1.0

    _record(checks, "module_representation_faithful", faithful, 0.5)

    def dual_rule():
        worst = 0.0
        basis = inc.A.basis
        for _ in range(100):
            i, j = rng.integers(len(basis)), rng.integers(len(basis))
            t = level.embed(basis[i]) @ e_b @ level.embed(basis[j])
            expected = level.index_inverse @ (basis[i] @ basis[j])
            worst = max(
                worst,
                mx.frobenius_norm(dual_expectation_value(level, t) - expected),
                mx.frobenius_norm(level.dual_value(t) - expected),
            )
        return worst

    _record(checks, "dual_rule_on_spanning", dual_rule, 1e-9)

    def dual_well_defined():
        # redundant decompositions of the same element must agree
        worst = 0.0
        family = level.spanning_products(e_b)
        for _ in range(10):
            coeffs = rng.standard_normal(len(family))
            t = sum(c * m for c, m in zip(coeffs, family))
            worst = max(
                worst,
                mx.frobenius_norm(
                    dual_expectation_value(level, t) - level.dual_value(t)
                ),
            )
        return worst

    _record(checks, "dual_value_well_defined", dual_well_defined, 1e-9)

    def dual_of_jones():
        return mx.frobenius_norm(level.dual_value(e_b) - level.index_inverse)

    _record(checks, "dual_of_jones_projection", dual_of_jones, 1e-9)

    def dual_of_intermediate():
        e_c, restricted = intermediate_data(level, inc.F)
        expected = level.index_inverse @ watatani_index(restricted)
        return mx.frobenius_norm(level.dual_value(e_c) - expected)

    _record(checks, "dual_of_intermediate_projection", dual_of_intermediate, 1e-9)

    def iterated_index():
        level2 = iterate_tower(level)
        return mx.operator_norm(
            level2.index_matrix - level.embed(level.index_matrix)
        )

    _record(checks, "iterated_index_equal", iterated_index, 1e-9)

    def restricted_dual_is_dual_of_restriction():
        # E_1(x e_C y) must equal Ind(F)^{-1} x y on spanning elements
        ind_f_inv = np.linalg.inv(watatani_index(inc.F))
        basis = inc.A.basis_stack
        lmats = level.embed(basis)
        ts = ((lmats @ e_delta)[:, None] @ lmats[None]).reshape(-1, 4, 4)
        want = ind_f_inv @ (basis[:, None] @ basis[None]).reshape(-1, 2, 2)
        return max(mx.frobenius_norm(d) for d in level.dual_value(ts) - want)

    _record(checks, "restricted_dual_matches", restricted_dual_is_dual_of_restriction, 1e-8)

    def interior_dual_expectation_laws():
        # G's own images lie in C_1 (coordinates raises otherwise), G is
        # idempotent and E_1 o G = E_1, on the basis of A_1 as one stack
        g = intermediate_dual_expectation(level, inc.F)
        t = g.coordinates(1e-8)
        basis = level.basic_construction.basis_stack
        gb = g._through(t, basis)
        idempotent = g._through(t, gb) - gb
        compatible = level.dual_value(basis) - level.dual_value(gb)
        return max(mx.frobenius_norm(d) for d in (*idempotent, *compatible))

    _record(checks, "interior_dual_expectation_laws", interior_dual_expectation_laws, 1e-8)

    def half_scaling():
        # G(x e_B y) = (1/2) x e_Delta y on the 2x2 model's spanning set
        g = intermediate_dual_expectation(level, inc.F)
        lmats = level.embed(inc.A.basis_stack)
        ts = ((lmats @ e_b)[:, None] @ lmats[None]).reshape(16, 4, 4)
        want = ((lmats @ e_delta)[:, None] @ lmats[None]).reshape(16, 4, 4)
        return max(mx.frobenius_norm(d) for d in g.on_source(ts) - 0.5 * want)

    _record(checks, "interior_dual_expectation_scaling", half_scaling, 1e-8)

    def noncommutation():
        uu = m2.rotation(0.5)  # generic: neither diagonal nor Hadamard
        e_dd = m2.closed_form_eD(uu)
        commutator = mx.operator_norm(e_delta @ e_dd - e_dd @ e_delta)
        l11, l12, l21 = uu.lam11, uu.lam12, uu.lam21
        p, q = abs(l11) ** 2, abs(l12) ** 2
        x11, x14 = p * p + q * q, 2 * p * q
        a, b = l21 * np.conj(l11) * (p - q), np.conj(l21) * l11 * (p - q)
        expected_cd = np.array(
            [
                [x11, a, b, x14],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [x14, -a, -b, x11],
            ],
            dtype=complex,
        )
        resid = mx.operator_norm(e_delta @ e_dd - expected_cd)
        resid = max(resid, mx.operator_norm(e_dd @ e_delta - mx.adjoint(expected_cd)))
        return resid + (0.0 if commutator > 1e-6 else 1.0)

    _record(checks, "projection_noncommutation_witness", noncommutation, 1e-9)
    return checks


def _suite_angles(rng) -> list[CheckResult]:
    checks: list[CheckResult] = []
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    mu = restrict_expectation(inc.E, inc.delta, inc.F).quasi_basis

    def route_agreement_m2():
        worst = 0.0
        for _ in range(100):
            u = m2.Unitary2(mx.random_unitary(2, rng))
            a, b = m2.interior_routes(u, inc, level, mu)
            worst = max(worst, abs(a.cos_value - b.cos_value))
        return worst

    _record(checks, "route_agreement_m2", route_agreement_m2, 1e-8)

    def route_agreement_groups():
        return max(_sweep_deviation(spec) for spec in _SWEPT_GROUPS)

    _record(checks, "route_agreement_groups", route_agreement_groups, 1e-7)

    def symmetry():
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inc)
        ab = interior_angle_definition(level, inc.F, f_u)
        ba = interior_angle_definition(level, f_u, inc.F)
        return abs(ab.cos_value - ba.cos_value)

    _record(checks, "angle_symmetric", symmetry, 1e-9)

    def self_angle():
        res = interior_angle_definition(level, inc.F, inc.F)
        formula = interior_angle_formula(inc.E, mu, mu)
        return max(res.angle_rad, formula.angle_rad)

    _record(checks, "self_angle_zero", self_angle, 1e-8)

    def quasi_basis_invariance():
        # mixing a quasi-basis by any unitary matrix of coefficients gives
        # another quasi-basis; the angle must not notice
        u = m2.Unitary2(mx.random_unitary(2, rng))
        f_u = m2.fu_expectation(u, inc)
        delta_qb = restrict_expectation(inc.E, f_u.target, f_u).quasi_basis
        w = mx.random_unitary(len(mu), rng)
        mixed = [
            sum(w[i, j] * mu[j] for j in range(len(mu))) for i in range(len(mu))
        ]
        a = interior_angle_formula(inc.E, mu, delta_qb)
        b = interior_angle_formula(inc.E, mixed, delta_qb, C=inc.delta)
        return abs(a.cos_value - b.cos_value)

    _record(checks, "quasi_basis_invariance", quasi_basis_invariance, 1e-8)

    def commuting_square_link():
        mismatch = 0.0
        unitaries = [m2.rotation(t) for t in np.linspace(0, math.pi / 4, 9)]
        unitaries.append(
            m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
        )
        for uu in unitaries:
            f_u = m2.fu_expectation(uu, inc)
            basis, e_x = inc.A.basis_stack, inc.E.on_source(inc.A.basis_stack)
            square = max(
                mx.max_operator_norm(inc.F.on_source(f_u.on_source(basis)) - e_x),
                mx.max_operator_norm(f_u.on_source(inc.F.on_source(basis)) - e_x),
            )
            res = interior_angle_definition(level, inc.F, f_u)
            is_square = square <= 1e-8
            is_right_angle = res.cos_value <= 1e-8
            if is_square != is_right_angle:
                mismatch = 1.0
        return mismatch

    _record(checks, "commuting_square_link", commuting_square_link, 0.5)

    def cosine_range():
        worst = 0.0
        for _ in range(50):
            u = m2.Unitary2(mx.random_unitary(2, rng))
            f_u = m2.fu_expectation(u, inc)
            res = interior_angle_definition(level, inc.F, f_u)
            raw = res.diagnostics.raw_cos
            worst = max(worst, -raw, raw - 1.0, 0.0)
            if not 0.0 <= res.angle_rad <= math.pi / 2 + 1e-12:
                worst = max(worst, 1.0)
        return worst

    _record(checks, "cosine_range", cosine_range, 1e-9)

    def exterior_two_route():
        worst = 0.0
        for theta in (0.2, 0.5):
            f_u = m2.fu_expectation(m2.rotation(theta), inc)
            res = exterior_angle(level, inc.F, f_u)
            worst = max(
                worst, abs(res.cos_value - res.diagnostics.extra["closed_cos"])
            )
        return worst

    _record(checks, "exterior_two_route", exterior_two_route, 1e-7)

    def exterior_self_zero():
        res = exterior_angle(level, inc.F, inc.F)
        return res.angle_rad

    _record(checks, "exterior_self_zero", exterior_self_zero, 1e-8)
    return checks


def _suite_m2(rng) -> list[CheckResult]:
    checks: list[CheckResult] = []
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    mu = restrict_expectation(inc.E, inc.delta, inc.F).quasi_basis
    unitaries = [m2.Unitary2(mx.random_unitary(2, rng)) for _ in range(100)]

    @functools.cache
    def route_table():
        # (formula cos, definition cos) per unitary, shared by three checks
        return [
            tuple(r.cos_value for r in m2.interior_routes(u, inc, level, mu))
            for u in unitaries
        ]

    def two_route():
        return max(abs(a - b) for a, b in route_table())

    _record(checks, "m2_two_route_agreement", two_route, 1e-8)

    def printed_form():
        # the fourth-power radicand exceeds the routes' squared cosine by
        # exactly the factor 1 + (2|l11||l12|)^2
        worst = 0.0
        for u, cosines in zip(unitaries, route_table()):
            factor = 1.0 + (2.0 * abs(u.lam11) * abs(u.lam12)) ** 2
            printed_sq = math.cos(m2.closed_form_angle(u)) ** 2
            for cos_route in cosines:
                worst = max(worst, abs(printed_sq - cos_route**2 * factor))
        return worst

    _record(
        checks,
        "m2_printed_closed_form_agreement",
        printed_form,
        1e-8,
        detail="cos^2 of the fourth-power form = cos^2 of each route * (1 + (2|l11||l12|)^2)",
    )

    def exact_form():
        worst = 0.0
        for u, (a, b) in zip(unitaries, route_table()):
            exact = math.cos(m2.exact_angle(u))
            worst = max(worst, abs(a - exact), abs(b - exact))
        return worst

    _record(checks, "m2_exact_closed_form_agreement", exact_form, 1e-8)

    @functools.cache
    def projection(i):
        # e_D of the i-th unitary, shared by the next two checks
        f_u = m2.fu_expectation(unitaries[i], inc)
        return intermediate_data(level, f_u)[0]

    def ed_matches():
        worst = 0.0
        for i, u in enumerate(unitaries):
            worst = max(worst, mx.operator_norm(projection(i) - m2.closed_form_eD(u)))
        return worst

    _record(checks, "ed_closed_form_matches_projection", ed_matches, 1e-9)

    def t_scalar():
        worst = 0.0
        e_delta = intermediate_data(level, inc.F)[0]
        for i, u in enumerate(unitaries[:25]):
            t = level.dual_value(e_delta @ projection(i) - level.jones_projection)
            tt = mx.adjoint(t) @ t
            lam = (abs(u.lam11) ** 2 - abs(u.lam12) ** 2) ** 2 / 16.0
            worst = max(worst, mx.operator_norm(tt - lam * np.eye(2)))
        return worst

    _record(checks, "t_star_t_scalar", t_scalar, 1e-10)

    def angle_zero_characterization():
        bad = 0.0
        samples = [
            (m2.Unitary2(np.diag([1.0, 1.0]).astype(complex)), True),
            (m2.Unitary2(np.diag([np.exp(0.4j), np.exp(-1.1j)])), True),
            (m2.Unitary2(np.array([[0, 1], [1, 0]], dtype=complex)), True),
            (m2.Unitary2(np.array([[0, np.exp(0.7j)], [np.exp(0.2j), 0]])), True),
            (m2.rotation(0.3), False),
            (m2.rotation(math.pi / 4), False),
        ]
        for u, expected_zero in samples:
            if (m2.exact_angle(u) < 1e-6) != expected_zero:
                bad = 1.0
        return bad

    _record(checks, "angle_zero_characterization", angle_zero_characterization, 0.5)

    def sweep():
        thetas = np.linspace(0.0, math.pi / 4, 1000)
        pairs = m2.angle_sweep(thetas)
        values = [a for _, a in pairs]
        resid = max(abs(values[0]), abs(values[-1] - math.pi / 2))
        monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        gap = max(b - a for a, b in zip(values, values[1:]))
        return resid + (0.0 if monotone and gap < 0.01 else 1.0)

    _record(checks, "sweep_monotone_covering", sweep, 1e-9)

    def gap_demo():
        u = m2.Unitary2(np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2))
        demo = m2.hadamard_gap_demo(u)
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
        resid = max(
            mx.operator_norm(demo.u_eC_u_star - conj_expected),
            mx.operator_norm(demo.e_uCu_star - direct_expected),
        )
        separated = mx.operator_norm(demo.u_eC_u_star - demo.e_uCu_star) > 0.4
        return resid + (0.0 if separated and not demo.equal else 1.0)

    _record(checks, "conjugated_projection_gap", gap_demo, 1e-9)
    return checks


def _suite_groups(rng) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def lattice_agreement():
        return max(_sweep_deviation(spec) for spec in _SWEPT_GROUPS + ("S4",))

    _record(checks, "lattice_formula_numeric_agreement", lattice_agreement, 1e-7)

    def example_225():
        G = FiniteGroup.direct_product([3, 3, 5, 5])
        K = generated_subgroup(
            G, [G.index_of(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))]
        )
        L = generated_subgroup(G, [G.index_of(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0))])
        H = generated_subgroup(G, [G.index_of((0, 0, 1, 0))])
        res = group_angle(G, H, K, L)
        num = res.diagnostics.extra["cos_squared_numerator"]
        den = res.diagnostics.extra["cos_squared_denominator"]
        exact = 0.0 if (num, den) == (1, 4) or num * 4 == den else 1.0
        return exact + abs(res.angle_rad - math.acos(0.5))

    _record(checks, "z3z3z5z5_cos_one_half", example_225, 1e-12)

    def coset_invariance():
        # the whole numeric route must not care which transversal E carries,
        # nor which quasi-bases the formula route is handed
        G = FiniteGroup.direct_product([4, 2])
        H = generated_subgroup(G, [G.index_of((2, 0))])
        K = generated_subgroup(G, [G.index_of((1, 0))])
        L = generated_subgroup(G, [G.index_of((2, 0)), G.index_of((0, 1))])
        worst = 0.0
        base = None
        for trial in range(4):
            reps = None if trial == 0 else _shuffled_reps(G, H, rng)
            inc = group_algebra_inclusion(G, H, reps=reps)
            level = inc.tower(materialize=False, check=False)
            res = interior_angle_definition(
                level, inc.expectation_onto(K), inc.expectation_onto(L)
            )
            mu = [G.regular_matrix(g) for g in _transversal_in(G, H, K, rng, trial)]
            delta = [G.regular_matrix(g) for g in _transversal_in(G, H, L, rng, trial)]
            formula = interior_angle_formula(inc.E, mu, delta)
            if base is None:
                base = res.cos_value
            worst = max(
                worst,
                abs(res.cos_value - base),
                abs(formula.cos_value - base),
            )
        return worst

    _record(checks, "coset_representative_invariance", coset_invariance, 1e-8)

    def zero_characterization():
        G = FiniteGroup.symmetric(3)
        bad = 0.0
        for H in all_subgroups(G):
            inters = intermediate_subgroups(G, H)
            for K in inters:
                for L in inters:
                    res = group_angle(G, H, K, L)
                    if (res.angle_rad < 1e-12) != (K.elements == L.elements):
                        bad = 1.0
                    if (abs(res.angle_rad - math.pi / 2) < 1e-12) != (
                        intersection(K, L).order == H.order
                    ):
                        bad = 1.0
        return bad

    _record(checks, "zero_and_right_angle_characterizations", zero_characterization, 0.5)

    def normalizer_profile():
        G = FiniteGroup.symmetric(3)
        H = trivial_subgroup(G)
        K = generated_subgroup(G, [G.index_of((1, 0, 2))])
        profile = normalizer_angle_profile(G, H, K)
        zero_set = {g for g, res in profile if res.angle_rad < 1e-12}
        expected = set(normalizer(G, K).elements)
        return 0.0 if zero_set == expected else 1.0

    _record(checks, "normalizer_zero_angle_set", normalizer_profile, 0.5)

    def abelian_all_zero():
        G = FiniteGroup.direct_product([2, 4])
        H = trivial_subgroup(G)
        K = generated_subgroup(G, [G.index_of((0, 1))])
        profile = normalizer_angle_profile(G, H, K)
        return max(res.angle_rad for _, res in profile)

    _record(checks, "abelian_conjugates_zero_angle", abelian_all_zero, 1e-12)
    return checks


def _shuffled_reps(G, K, rng) -> list[int]:
    """A randomized transversal: rotate each deterministic rep inside its coset."""
    reps = []
    for g in left_coset_reps(G, K):
        k = int(rng.choice(list(K.elements)))
        reps.append(G.mult(g, k))
    return reps


def _transversal_in(G, H, K, rng, trial) -> list[int]:
    """Representatives of H-cosets inside K (randomized after trial 0)."""
    reps = left_coset_reps(G, H, within=K)
    if trial == 0:
        return reps
    return [G.mult(g, int(rng.choice(list(H.elements)))) for g in reps]


SUITE_NAMES = ("algebra", "tower", "angles", "m2", "groups")
_SUITES = {
    "algebra": _suite_algebra,
    "tower": _suite_tower,
    "angles": _suite_angles,
    "m2": _suite_m2,
    "groups": _suite_groups,
}


def run_suite(name: str, rng=None) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns the check rows."""
    rng = rng or mx.default_rng()
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, rng))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](rng)
