"""The named invariant suites behind the verify command, and the lattice sweep.

Every check passes.  The fourth-power closed form is held to its exact
factor over the computation routes, so its check passes too.  The stacked
lattice sweep is held to the per-pair definition route.
"""

import ast
from pathlib import Path

import pytest

from cstar_angles.angles import interior_angle_definition
from cstar_angles.groups import FiniteGroup, group_algebra_inclusion
from cstar_angles.tower import intermediate_data
from cstar_angles.verify import (
    angle_from_projections,
    lattice_route_cosines,
    lattice_route_sweep,
    run_suite,
)


# the checks of ``verify --suite all``, in the order it reports them
ALL_CHECK_NAMES = [
    "operator_norm_submultiplicative", "operator_norm_adjoint_invariant",
    "span_coordinates_roundtrip", "star_algebra_closure_diagonal",
    "star_algebra_closure_conjugated_diagonal", "star_algebra_closure_full",
    "expectation_axioms_trace", "expectation_idempotent_trace",
    "expectation_axioms_diagonal", "expectation_idempotent_diagonal",
    "index_quasi_basis_independent", "index_multiplicative_m2",
    "index_multiplicative_groups", "composite_quasi_basis", "cauchy_schwarz_random",
    "cauchy_schwarz_equality_anomaly", "traciality_needed_for_conjugates",
    "conjugated_expectation_index",
    "jones_projection_laws", "exchange_law", "module_representation_faithful",
    "dual_rule_on_spanning", "dual_value_well_defined", "dual_of_jones_projection",
    "dual_of_intermediate_projection", "iterated_index_equal", "restricted_dual_matches",
    "interior_dual_expectation_laws", "interior_dual_expectation_scaling",
    "projection_noncommutation_witness",
    "route_agreement_m2", "route_agreement_groups", "angle_symmetric", "self_angle_zero",
    "quasi_basis_invariance", "commuting_square_link", "cosine_range",
    "exterior_two_route", "exterior_self_zero",
    "m2_two_route_agreement", "m2_printed_closed_form_agreement",
    "m2_exact_closed_form_agreement", "ed_closed_form_matches_projection",
    "t_star_t_scalar", "angle_zero_characterization", "sweep_monotone_covering",
    "conjugated_projection_gap",
    "lattice_formula_numeric_agreement", "z3z3z5z5_cos_one_half",
    "coset_representative_invariance", "zero_and_right_angle_characterizations",
    "normalizer_zero_angle_set", "abelian_conjugates_zero_angle",
]


def test_all_suites_pass():
    checks = run_suite("all")
    names = [c.name for c in checks]
    assert names == ALL_CHECK_NAMES
    assert [c.name for c in checks if not c.passed] == []
    # the fourth-power form is pinned by its factor, to roundoff
    printed = checks[names.index("m2_printed_closed_form_agreement")]
    assert printed.residual < 1e-10


def test_groups_suite_check_names():
    checks = run_suite("groups")
    assert all(c.passed for c in checks)
    assert {c.name for c in checks} >= {
        "lattice_formula_numeric_agreement",
        "z3z3z5z5_cos_one_half",
        "coset_representative_invariance",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


@pytest.mark.parametrize(
    "G, triples",
    [(FiniteGroup.symmetric(3), 16), (FiniteGroup.direct_product([4, 2]), 47)],
    ids=["S3", "Z4xZ2"],
)
def test_lattice_sweep_matches_per_pair_reference(G, triples):
    rows = list(lattice_route_cosines(G))
    assert len(rows) == triples
    levels = {}
    for H, K, L, exact, numeric in rows:
        if H not in levels:
            inc = group_algebra_inclusion(G, H)
            levels[H] = (inc, inc.tower(materialize=False, check=False), {})
        inc, level, projections = levels[H]
        for S in (K, L):
            if S not in projections:
                F = inc.expectation_onto(S)
                projections[S] = intermediate_data(level, F)[0]
        reference = angle_from_projections(level, projections[K], projections[L])
        assert abs(numeric.cos_value - reference.cos_value) <= 1e-12
        assert abs(numeric.diagnostics.numerator - reference.diagnostics.numerator) <= 1e-12
        assert abs(exact.cos_value - numeric.cos_value) <= 1e-7
    count, worst = lattice_route_sweep(G)
    assert count == triples and worst <= 1e-12


@pytest.mark.parametrize(
    "G, triples",
    [(FiniteGroup.symmetric(3), 16), (FiniteGroup.direct_product([2, 2, 2]), 259)],
    ids=["S3", "Z2xZ2xZ2"],
)
def test_lattice_sweep_matches_the_definition_route_per_triple(G, triples):
    # the oracle runs intermediate_data once per expectation and the
    # definition on one pair, with no stack shared between triples
    count, levels = 0, {}
    for H, K, L, _, numeric in lattice_route_cosines(G):
        if H not in levels:
            inc = group_algebra_inclusion(G, H)
            levels[H] = (inc, inc.tower(materialize=False, check=False))
        inc, level = levels[H]
        want = interior_angle_definition(level, inc.expectation_onto(K), inc.expectation_onto(L))
        assert abs(numeric.cos_value - want.cos_value) <= 1e-12, (H, K, L)
        count += 1
    assert count == triples


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop testing anything
    sources = sorted((Path(__file__).parents[1] / "src" / "cstar_angles").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
