"""The named invariant suites behind the verify command.

Every check passes.  The fourth-power closed form is held to its exact
factor over the computation routes, so its check passes too.
"""

from cstar_angles.verify import SUITE_NAMES, run_suite


def test_all_suites_pass():
    checks = [c for suite in SUITE_NAMES for c in run_suite(suite)]
    names = [c.name for c in checks]
    assert len(names) > 40
    assert len(set(names)) == len(names)
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
    import pytest

    with pytest.raises(ValueError):
        run_suite("bogus")
