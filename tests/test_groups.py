import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_angles.angles import AngleDiagnostics, AngleResult, Route, interior_angle_definition
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    verify_expectation,
    verify_quasi_basis,
    watatani_index,
)
from cstar_angles.errors import (
    DegenerateIntermediate,
    InvalidGroup,
    NoQuasiBasis,
    NotIntermediate,
    NotSubgroup,
    TooLarge,
)
from cstar_angles.groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    conjugate_subgroup,
    full_subgroup,
    generated_subgroup,
    group_algebra_inclusion,
    group_angle,
    intermediate_subgroups,
    intersection,
    is_normal,
    left_coset_reps,
    make_group,
    normalizer,
    normalizer_angle_profile,
    parse_group_spec,
    parse_subgroup,
    subgroup_index,
    trivial_subgroup,
)
from cstar_angles.verify import lattice_route_sweep


def example_lattice():
    """G = Z3+Z3+Z5+Z5 with K, L, H nested as in the order-225 example."""
    G = FiniteGroup.direct_product([3, 3, 5, 5])
    K = generated_subgroup(
        G, [G.index_of(e) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))]
    )
    L = generated_subgroup(G, [G.index_of(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0))])
    H = generated_subgroup(G, [G.index_of((0, 0, 1, 0))])
    return G, H, K, L


# ---------------------------------------------------------------------------
# construction and validation


def test_cyclic_one_is_trivial():
    G = FiniteGroup.cyclic(1)
    assert G.order == 1 and G.identity == 0


def test_direct_product_order():
    assert FiniteGroup.direct_product([3, 3, 5, 5]).order == 225


def test_symmetric_three_nonabelian():
    G = FiniteGroup.symmetric(3)
    assert G.order == 6
    a, b = G.index_of((1, 0, 2)), G.index_of((0, 2, 1))
    assert G.mult(a, b) != G.mult(b, a)


def test_make_group_dispatch():
    assert make_group("S4").order == 24
    assert make_group(7).order == 7
    assert make_group([2, 2]).order == 4


def test_too_large_rejected():
    with pytest.raises(TooLarge):
        FiniteGroup.symmetric(6)
    with pytest.raises(TooLarge):
        parse_group_spec("S6")
    with pytest.raises(TooLarge):
        FiniteGroup.direct_product([2] * 11)


def test_invalid_tables_rejected():
    with pytest.raises(InvalidGroup):
        FiniteGroup([[0, 0], [1, 1]])  # not a Latin square
    # a Latin square with two-sided identity that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidGroup):
        FiniteGroup(loop)


def test_elements_and_labels_must_give_one_per_table_row():
    table = FiniteGroup.cyclic(4).cayley
    bad = [
        {"elements": [0, 1]},  # too few: label(3) was an IndexError
        {"elements": [0, 1, 2, 3, 4]},
        {"elements": [0, 0, 1, 2]},  # repeated: index_of(0) was 1
        {"elements": [0, 1, 2, 3, 3]},  # four distinct, but five of them
        {"labels": ["e", "a", "b"]},
        {"labels": ["e", "a", "b", "c", "d"]},
    ]
    for kwargs in bad:
        with pytest.raises(InvalidGroup, match="one distinct element and one label per table row"):
            FiniteGroup(table, **kwargs)
    G = FiniteGroup(table, elements="wxyz", labels=["e", "a", "a", "b"])  # labels may repeat
    assert [G.index_of(e) for e in "wxyz"] == [0, 1, 2, 3] and G.label(3) == "b"


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 24))
def test_cyclic_groups_validate(n):
    G = FiniteGroup.cyclic(n)  # constructor runs the full axiom check
    assert G.order == n
    assert G.inv(G.identity) == G.identity


def test_regular_matrices_are_homomorphic(rng):
    G = FiniteGroup.symmetric(3)
    for _ in range(10):
        a, b = int(rng.integers(6)), int(rng.integers(6))
        np.testing.assert_allclose(
            G.regular_matrix(a) @ G.regular_matrix(b),
            G.regular_matrix(G.mult(a, b)),
            atol=0,
        )


# ---------------------------------------------------------------------------
# subgroup machinery


def test_subgroup_validation():
    G = FiniteGroup.cyclic(6)
    with pytest.raises(NotSubgroup):
        Subgroup(G, (0, 1))  # 1 generates everything; not closed


def test_example_lattice_indices():
    G, H, K, L = example_lattice()
    assert (K.order, L.order, H.order) == (45, 15, 5)
    assert subgroup_index(K, H) == 9
    assert subgroup_index(L, H) == 3
    assert intersection(K, L).elements == L.elements
    assert subgroup_index(intersection(K, L), H) == 3
    assert subgroup_index(G, full_subgroup(G)) == 1


def test_coset_reps_deterministic_and_covering():
    G = FiniteGroup.symmetric(3)
    H = generated_subgroup(G, [G.index_of((1, 0, 2))])
    reps = left_coset_reps(G, H)
    assert len(reps) == 3
    assert reps == sorted(reps)
    covered = {G.mult(g, h) for g in reps for h in H.elements}
    assert covered == set(range(G.order))


def _reference_coset_reps(G, H, within=None):
    """The former left_coset_reps: the first uncovered element of each coset."""
    members = within.elements if within is not None else range(G.order)
    covered, reps = set(), []
    for g in members:
        if g not in covered:
            reps.append(g)
            covered.update(G.mult(g, h) for h in H.elements)
    return reps


def test_coset_reps_match_the_per_element_loop():
    G = FiniteGroup.symmetric(4)
    subs = all_subgroups(G)
    for H in subs:
        reps = left_coset_reps(G, H)
        assert reps == _reference_coset_reps(G, H)
        assert all(type(g) is int for g in reps)
        for K in subs:
            if H.issubset(K):
                assert left_coset_reps(G, H, within=K) == _reference_coset_reps(G, H, K)
            else:
                with pytest.raises(NotIntermediate):
                    left_coset_reps(G, H, within=K)


def test_coset_reps_within_a_subgroup_not_containing_h():
    G = FiniteGroup.symmetric(3)
    H, K = parse_subgroup(G, "(12)"), parse_subgroup(G, "(13)")
    # the per-element loop gave [0, 5]: no transversal of H's cosets in K
    with pytest.raises(NotIntermediate, match="H is not contained in K"):
        left_coset_reps(G, H, within=K)
    assert left_coset_reps(G, H, within=H) == [H.elements[0]]


@pytest.mark.parametrize(
    "reps, error",
    [
        ([0], NoQuasiBasis),  # one coset of three: index 1
        ([0, 1, 2, 4], NoQuasiBasis),  # 1 and 4 share a coset: index 4
        ([0, 1, 4], NoQuasiBasis),  # three reps, two cosets
        ([-1, 1, 2], NotSubgroup),  # numpy would wrap -1 to element 5
        ([0, 1, 8], NotSubgroup),
    ],
)
def test_coset_reps_must_be_a_left_transversal(reps, error):
    G = FiniteGroup.cyclic(6)
    H = generated_subgroup(G, [3])
    with pytest.raises(error):
        group_algebra_inclusion(G, H, reps=reps)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    with pytest.raises(error):
        inc.expectation_onto(H, reps=reps)
    # any transversal passes, in any order, and gives the index [G:H] = 3
    for good in ([0, 1, 2], [5, 3, 4], (2, 0, 1)):
        E = group_algebra_inclusion(G, H, reps=good).E
        np.testing.assert_allclose(watatani_index(E), 3.0 * np.eye(6), rtol=0, atol=1e-12)
        F = inc.expectation_onto(H, reps=good)
        assert verify_quasi_basis(F, [G.regular_matrix(g) for g in good])


def test_normalizer_of_transposition_in_s3():
    G = FiniteGroup.symmetric(3)
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])
    assert normalizer(G, K).elements == K.elements
    assert not is_normal(G, K)
    three_cycle = generated_subgroup(G, [G.index_of((1, 2, 0))])
    assert is_normal(G, three_cycle)


def test_conjugate_subgroup_in_s3():
    G = FiniteGroup.symmetric(3)
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])  # <(12)>
    g = G.index_of((1, 2, 0))  # a 3-cycle
    L = conjugate_subgroup(K, g)
    assert L.order == 2 and L.elements != K.elements
    # -1 would wrap to the last element, G.order would index past the table
    for bad in (-1, G.order):
        with pytest.raises(NotSubgroup, match="out of range"):
            conjugate_subgroup(K, bad)


def test_all_subgroups_counts():
    assert len(all_subgroups(FiniteGroup.symmetric(3))) == 6
    assert len(all_subgroups(FiniteGroup.symmetric(4))) == 30
    assert len(all_subgroups(FiniteGroup.cyclic(12))) == 6
    assert len(all_subgroups(FiniteGroup.direct_product([2, 2, 2]))) == 16


def _reference_closure(G, generators):
    """The former generated_subgroup: breadth-first products with the generators."""
    els = {G.identity}
    boundary = [G.identity]
    gens = [int(g) for g in generators]
    for g in gens:
        if g not in els:
            els.add(g)
            boundary.append(g)
    while boundary:
        fresh = []
        for a in gens:
            for b in boundary:
                c = G.mult(a, b)
                if c not in els:
                    els.add(c)
                    fresh.append(c)
        boundary = fresh
    return frozenset(els)


def _reference_all_subgroups(G):
    """The former enumeration: close every (known subgroup, element) pair."""
    seed = frozenset({G.identity})
    found = {seed}
    frontier = [seed]
    while frontier:
        fresh = []
        for S in frontier:
            for g in range(G.order):
                if g in S:
                    continue
                T = _reference_closure(G, tuple(S) + (g,))
                if T not in found:
                    found.add(T)
                    fresh.append(T)
        frontier = fresh
    return sorted((len(s), tuple(sorted(s))) for s in found)


def _relabel(G, rng):
    """The same group with its element indices permuted at random."""
    perm = rng.permutation(G.order)
    inverse = np.argsort(perm)
    table = inverse[G.cayley[np.ix_(perm, perm)]]
    return FiniteGroup(
        table,
        elements=[G.elements[p] for p in perm],
        labels=[G.labels[p] for p in perm],
        name=G.name,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: FiniteGroup.symmetric(3),
        lambda: FiniteGroup.symmetric(4),
        lambda: FiniteGroup.cyclic(12),
        lambda: FiniteGroup.direct_product([2, 2, 2]),
        lambda: FiniteGroup.direct_product([4, 2]),
        lambda: FiniteGroup.direct_product([2, 2, 3, 4]),
        lambda: _relabel(FiniteGroup.symmetric(4), np.random.default_rng(5)),
    ],
    ids=["S3", "S4", "Z12", "Z2^3", "Z4xZ2", "Z2xZ2xZ3xZ4", "S4-relabelled"],
)
def test_all_subgroups_matches_the_closure_enumeration(make):
    G = make()
    subs = all_subgroups(G)
    assert [(s.order, s.elements) for s in subs] == _reference_all_subgroups(G)
    if G.order == 48:
        assert len(subs) == 54


def test_all_subgroups_of_s5():
    subs = all_subgroups(FiniteGroup.symmetric(5))
    assert len(subs) == 156
    assert [s.order for s in subs].count(60) == 1  # A5


def test_largest_proper_subgroup_order():
    for n, bound in ((1, 0), (2, 1), (7, 1), (12, 6), (81, 27), (120, 60), (125, 25)):
        assert FiniteGroup.cyclic(n)._largest_proper_order == bound
    G = FiniteGroup.symmetric(5)
    assert max(s.order for s in all_subgroups(G) if s.order < G.order) == 60


@pytest.mark.parametrize("spec", ["S5", "Z3xZ3xZ3xZ3", "Z2xZ2xZ3xZ4"])
def test_generated_subgroup_matches_the_reference_closure(spec):
    # the closure stops at G once past the largest proper order: the
    # generator sets include ones that generate G and ones that do not
    G = parse_group_spec(spec)
    rng = np.random.default_rng(11)
    for size in (1, 2, 2, 3):
        for _ in range(8):
            gens = rng.choice(G.order, size=size, replace=False).tolist()
            assert set(generated_subgroup(G, gens).elements) == _reference_closure(G, gens)


def test_all_subgroups_of_relabelled_s5_is_the_relabelled_lattice():
    G = FiniteGroup.symmetric(5)
    perm = np.random.default_rng(7).permutation(G.order)
    relabelled = FiniteGroup(
        np.argsort(perm)[G.cayley[np.ix_(perm, perm)]], elements=[G.elements[p] for p in perm]
    )
    # element i of the relabelled group is element perm[i] of G
    image = sorted(
        (s.order, tuple(sorted(perm[i] for i in s.elements))) for s in all_subgroups(relabelled)
    )
    assert len(image) == 156
    assert image == [(s.order, s.elements) for s in all_subgroups(G)]


def test_normalizer_matches_per_element_reference():
    G = FiniteGroup.symmetric(4)
    for K in all_subgroups(G):
        k_set = set(K.elements)
        expected = tuple(
            g for g in range(G.order)
            if {G.mult(G.mult(G.inv(g), k), g) for k in K.elements} == k_set
        )
        assert normalizer(G, K).elements == expected


def test_subgroup_mask_and_membership():
    G = FiniteGroup.cyclic(6)
    K = Subgroup(G, [3, 0, 3])
    assert K.elements == (0, 3)
    assert K.order == 2 and type(K.order) is int
    assert K.mask().tolist() == [True, False, False, True, False, False]
    assert not K.mask().flags.writeable
    assert 3 in K and 1 not in K and -3 not in K and 9 not in K


def test_membership_takes_integers_only():
    G = FiniteGroup.cyclic(6)
    K = Subgroup(G, [0, 3])
    # int() truncated these to the member 3
    for value in (3.5, 3.0, np.float64(3.0), "3", None):
        assert value not in K
    for value in (np.int64(3), np.int32(3), np.uint8(3), np.array(3)):
        assert value in K
    assert np.int64(1) not in K and np.int64(-3) not in K


def test_subgroup_rejections_name_the_failed_property():
    G = FiniteGroup.cyclic(6)
    with pytest.raises(NotSubgroup, match="identity"):
        Subgroup(G, (2, 4))
    with pytest.raises(NotSubgroup, match="inverses"):
        Subgroup(G, (0, 1))
    # closed under inverses, not under products: 1 + 1 = 2
    with pytest.raises(NotSubgroup, match="products"):
        Subgroup(G, (0, 1, 5))


def test_out_of_range_indices_are_rejected():
    G = FiniteGroup.cyclic(6)
    with pytest.raises(NotSubgroup, match="out of range"):
        Subgroup(G, (0, 3, -3))  # -3 would wrap to 3
    with pytest.raises(NotSubgroup, match="out of range"):
        Subgroup(G, (0, 99))
    with pytest.raises(NotSubgroup, match="out of range"):
        generated_subgroup(G, [7])
    with pytest.raises(NotSubgroup, match="out of range"):
        generated_subgroup(G, [-1])


def test_subgroups_of_another_group_are_rejected():
    S3, Z6 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(6)
    H = trivial_subgroup(S3)
    K = generated_subgroup(S3, [S3.index_of((1, 0, 2))])
    L = generated_subgroup(S3, [S3.index_of((2, 1, 0))])
    foreign = trivial_subgroup(Z6)
    with pytest.raises(NotSubgroup):
        foreign.issubset(K)
    with pytest.raises(NotSubgroup):
        group_angle(S3, foreign, K, L)
    with pytest.raises(NotSubgroup):
        group_angle(S3, H, full_subgroup(Z6), L)
    with pytest.raises(NotSubgroup):
        group_angle(S3, H, K, full_subgroup(Z6))
    with pytest.raises(NotSubgroup):
        group_angle(Z6, H, K, L)
    with pytest.raises(NotSubgroup):
        subgroup_index(Z6, H)
    with pytest.raises(NotSubgroup):
        subgroup_index(full_subgroup(Z6), H)
    with pytest.raises(NotSubgroup):
        intersection(K, foreign)
    with pytest.raises(NotSubgroup):
        normalizer(Z6, K)
    with pytest.raises(NotSubgroup):
        intermediate_subgroups(Z6, H)
    with pytest.raises(NotSubgroup):
        left_coset_reps(Z6, H)
    with pytest.raises(NotSubgroup):
        left_coset_reps(S3, H, within=full_subgroup(Z6))
    inc = group_algebra_inclusion(S3, H)
    with pytest.raises(NotSubgroup):
        inc.expectation_onto(full_subgroup(Z6))


def test_intermediate_subgroups():
    G = FiniteGroup.cyclic(12)
    H = generated_subgroup(G, [G.index_of((6,))])
    mids = intermediate_subgroups(G, H)
    assert sorted(s.order for s in mids) == [4, 6]


# ---------------------------------------------------------------------------
# the exact angle


def test_example_angle_is_exactly_half():
    G, H, K, L = example_lattice()
    res = group_angle(G, H, K, L)
    extra = res.diagnostics.extra
    assert Fraction(
        extra["cos_squared_numerator"], extra["cos_squared_denominator"]
    ) == Fraction(1, 4)
    assert res.cos_value == 0.5  # exact: sqrt(0.25) is exact in binary
    assert res.angle_rad == pytest.approx(math.pi / 3, abs=1e-12)


def test_right_angle_iff_trivial_intersection():
    G = FiniteGroup.symmetric(3)
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])
    L = generated_subgroup(G, [G.index_of((2, 1, 0))])
    assert intersection(K, L).order == 1
    assert group_angle(G, H, K, L).angle_rad == pytest.approx(math.pi / 2)


def test_group_angle_errors():
    G = FiniteGroup.cyclic(12)
    H = generated_subgroup(G, [G.index_of((6,))])
    K = generated_subgroup(G, [G.index_of((3,))])
    with pytest.raises(DegenerateIntermediate):
        group_angle(G, H, H, K)
    outside = generated_subgroup(G, [G.index_of((4,))])  # does not contain H
    with pytest.raises(NotIntermediate):
        group_angle(G, H, outside, K)


def _reference_group_angle(G, H, K, L):
    """The former group_angle: the squared cosine as a Fraction."""
    if any(S.parent is not G for S in (H, K, L)):
        raise NotSubgroup("subgroups of different parents")
    for S, name in ((K, "K"), (L, "L")):
        if not H.issubset(S):
            raise NotIntermediate(f"H is not contained in {name}")
    if K.order == H.order or L.order == H.order:
        raise DegenerateIntermediate("K = H or L = H: angle undefined")
    a = intersection(K, L).order // H.order
    b = K.order // H.order
    c = L.order // H.order
    cos_sq = Fraction((a - 1) ** 2, (b - 1) * (c - 1))
    cos = min(1.0, math.sqrt(float(cos_sq)))
    diagnostics = AngleDiagnostics(
        numerator=float(a - 1),
        denominator_first=math.sqrt(b - 1),
        denominator_second=math.sqrt(c - 1),
        raw_cos=cos,
        extra={
            "cos_squared_numerator": cos_sq.numerator,
            "cos_squared_denominator": cos_sq.denominator,
            "index_intersection": a,
            "index_K": b,
            "index_L": c,
        },
    )
    return AngleResult(
        cos_value=cos, angle_rad=math.acos(cos), route=Route.FORMULA,
        diagnostics=diagnostics,
    )


@pytest.mark.parametrize(
    "make, seed",
    [
        (lambda: FiniteGroup.symmetric(4), 3),
        (lambda: FiniteGroup.direct_product([2, 2, 3, 4]), 4),
    ],
    ids=["S4-relabelled", "Z2xZ2xZ3xZ4-relabelled"],
)
def test_group_angle_equals_the_fraction_reference(make, seed):
    G = _relabel(make(), np.random.default_rng(seed))
    subs = all_subgroups(G)
    chains = 0
    for H in subs:
        inters = [K for K in subs if H.issubset(K) and K.order not in (H.order, G.order)]
        for K in inters:
            for L in inters:
                res = group_angle(G, H, K, L)
                assert res == _reference_group_angle(G, H, K, L)
                assert all(type(v) is int for v in res.diagnostics.extra.values())
                chains += 1
    assert chains == {24: 1065, 48: 6424}[G.order]


def _s3_angle_cases():
    S3, Z6 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(6)
    H = parse_subgroup(S3, "(12)")
    A3, other = parse_subgroup(S3, "(123)"), parse_subgroup(S3, "(13)")
    G = full_subgroup(S3)
    return {
        # a foreign parent comes first, before K's failed containment
        "foreign-first": ((S3, H, other, full_subgroup(Z6)), NotSubgroup, "parents"),
        "foreign-group": ((Z6, H, other, A3), NotSubgroup, "parents"),
        # K is tested before L
        "K-before-L": ((S3, H, A3, other), NotIntermediate, "contained in K"),
        # containment before degeneracy: K = H, L misses H
        "L-before-degenerate": ((S3, H, H, A3), NotIntermediate, "contained in L"),
        "degenerate": ((S3, H, G, H), DegenerateIntermediate, "undefined"),
    }


@pytest.mark.parametrize("case", list(_s3_angle_cases()))
def test_group_angle_error_precedence(case):
    args, error, message = _s3_angle_cases()[case]
    for fn in (group_angle, _reference_group_angle):
        with pytest.raises(error, match=message):
            fn(*args)


def test_zero_iff_equal_over_s3_lattice():
    G = FiniteGroup.symmetric(3)
    subs = all_subgroups(G)
    for H in subs:
        inters = [
            K for K in subs
            if H.issubset(K) and K.order not in (H.order, G.order)
        ]
        for K in inters:
            for L in inters:
                res = group_angle(G, H, K, L)
                assert (res.angle_rad < 1e-12) == (K.elements == L.elements)
                assert (abs(res.angle_rad - math.pi / 2) < 1e-12) == (
                    intersection(K, L).order == H.order
                )


# ---------------------------------------------------------------------------
# group-algebra inclusions


def test_full_subgroup_gives_identity_expectation():
    G = FiniteGroup.cyclic(4)
    inc = group_algebra_inclusion(G, full_subgroup(G))
    np.testing.assert_allclose(watatani_index(inc.E), np.eye(4), atol=1e-12)


def test_z2_inclusion():
    G = FiniteGroup.cyclic(2)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    assert inc.A.dim == 2
    np.testing.assert_allclose(watatani_index(inc.E), 2 * np.eye(2), atol=1e-12)


def test_inclusion_expectation_properties(rng):
    G = FiniteGroup.symmetric(3)
    H = generated_subgroup(G, [G.index_of((1, 0, 2))])
    inc = group_algebra_inclusion(G, H)
    assert verify_quasi_basis(inc.E, inc.E.quasi_basis)
    assert verify_expectation(inc.E, rng=rng).passed
    np.testing.assert_allclose(watatani_index(inc.E), 3 * np.eye(6), atol=1e-12)


def _per_element_masking(inc, S, F):
    """F rebuilt on the former per-element callable: kill the coefficients off S."""
    mask = S.mask()

    def apply_fn(x):
        return inc.module.from_coords(np.where(mask, inc.module.coords(x), 0.0))

    return ConditionalExpectation(
        inc.A, F.target, apply_fn, quasi_basis=F.quasi_basis, name="reference"
    )


@pytest.mark.parametrize(
    "spec, h_gens, k_gens",
    [
        ("Z4xZ2", ["(2,0)"], ["(1,0)"]),
        ("S4", ["(12)(34)"], ["(12)(34)", "(13)(24)", "(123)"]),
    ],
)
def test_masking_matrix_matches_the_per_element_callable(spec, h_gens, k_gens, rng):
    G = parse_group_spec(spec)
    H = parse_subgroup(G, ",".join(h_gens))
    K = parse_subgroup(G, ",".join(k_gens))
    hs = list(H.elements)
    reps = [G.mult(g, int(rng.choice(hs))) for g in left_coset_reps(G, H)]
    inc = group_algebra_inclusion(G, H, reps=reps)
    k_elems = list(K.elements)
    k_reps = [G.mult(g, int(rng.choice(k_elems))) for g in left_coset_reps(G, K)]
    for S, exp in ((H, inc.E), (K, inc.expectation_onto(K, reps=k_reps))):
        reference = _per_element_masking(inc, S, exp)
        for got, want in (
            (exp.coordinate_matrix, reference.coordinate_matrix),
            (exp.map_matrix, reference.map_matrix),
        ):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert verify_quasi_basis(exp, exp.quasi_basis)


def _cayley_gather(G):
    """The former coordinates of the regular module, gathered along the Cayley table.

    Entry (a, b) of the n x n matrix belongs to g = a b^-1, and lambda_g
    covers the flat positions (g b) n + b; coordinates are the group
    coefficients over sqrt(|G|).
    """
    n, scale = G.order, math.sqrt(G.order)
    support = (G.cayley * n + np.arange(n)).ravel()  # row g: lambda_g's support
    owner = G.cayley[:, G.inverse].ravel()  # flat position -> a b^-1

    def coords(y):
        picked = np.take(y.reshape(y.shape[:-2] + (n * n,)), support, axis=-1)
        return picked.reshape(y.shape[:-2] + (n, n)).sum(axis=-1) / scale

    def from_coords(v):
        return np.take(v / scale, owner, axis=-1).reshape(v.shape[:-1] + (n, n))

    return coords, from_coords


@pytest.mark.parametrize("spec", ["S4", "Z3xZ3xZ3xZ3"])
def test_regular_coordinates_match_the_cayley_gather(spec, rng):
    G = parse_group_spec(spec)
    inc = group_algebra_inclusion(G, trivial_subgroup(G))
    coords, from_coords = _cayley_gather(G)
    n = G.order
    v = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    elements = from_coords(v)
    ambient = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    for ys in (elements, ambient):  # off A both give the HS projection's coordinates
        np.testing.assert_allclose(inc.module.coords(ys), coords(ys), rtol=0, atol=1e-14)
        np.testing.assert_allclose(inc.module.coords(ys[0]), coords(ys[0]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(inc.module.from_coords(v), elements, rtol=0, atol=1e-14)
    np.testing.assert_allclose(inc.module.from_coords(v[0]), elements[0], rtol=0, atol=1e-14)
    x = elements[0]
    assert np.shares_memory(inc.module.left_mult(x), x)  # L_x is x, not a copy


def test_group_owns_its_cayley_table():
    table = FiniteGroup.cyclic(4).cayley.copy()  # the caller's int64 array
    G = FiniteGroup(table)
    table[:] = table[::-1]
    np.testing.assert_array_equal(G.cayley, FiniteGroup.cyclic(4).cayley)
    for held in (G.cayley, G.inverse):
        with pytest.raises(ValueError):
            held[0] = 1
    assert G.mult(1, 1) == 2 and G.inv(1) == 3


def test_inclusions_of_one_group_share_its_algebra():
    G = FiniteGroup.direct_product([3, 3, 3, 3])
    H = generated_subgroup(G, [G.index_of((0, 0, 0, 1))])
    K = generated_subgroup(G, [G.index_of((0, 1, 0, 0)), G.index_of((0, 0, 0, 1))])
    first, second = group_algebra_inclusion(G, H), group_algebra_inclusion(G, K)
    assert first.A is second.A is G.regular_algebra
    assert first.A._table is not None  # built once, for every inclusion of G
    # a rebuilt group, or the same group relabelled, gets its own
    rebuilt = FiniteGroup.direct_product([3, 3, 3, 3])
    perm = np.random.default_rng(5).permutation(G.order)
    relabelled = FiniteGroup(np.argsort(perm)[G.cayley[np.ix_(perm, perm)]])
    for other in (rebuilt, relabelled):
        inc = group_algebra_inclusion(other, trivial_subgroup(other))
        assert inc.A is other.regular_algebra and inc.A is not first.A
    # TooLarge comes before anything is built, and leaves nothing on the group
    big = FiniteGroup.direct_product([17, 17])
    with pytest.raises(TooLarge):
        big.regular_algebra
    assert "regular_algebra" not in vars(big)


def test_intermediate_algebra_checks_k_as_expectation_onto_does():
    # Z6 over H = <2>: K = <3> misses H, and a K of another group of order 6
    Z6, S3 = FiniteGroup.cyclic(6), FiniteGroup.symmetric(3)
    inc = group_algebra_inclusion(Z6, generated_subgroup(Z6, [Z6.index_of((2,))]))
    cases = [
        (NotIntermediate, "K must contain H", generated_subgroup(Z6, [Z6.index_of((3,))])),
        (NotSubgroup, "subgroups of different parents", full_subgroup(S3)),
    ]
    for error, message, K in cases:
        for build in (inc.intermediate_algebra, inc.expectation_onto):
            with pytest.raises(error, match=message):
                build(K)
    # an intermediate K gives the target of its expectation
    K = full_subgroup(Z6)
    assert inc.intermediate_algebra(K).same_span(inc.expectation_onto(K).target)


def _recorded_slices(monkeypatch) -> list:
    """(parent, mask, slice) for every MatrixStarAlgebra.basis_slice call from here on."""
    made, slice_of = [], MatrixStarAlgebra.basis_slice

    def recording(alg, mask):
        sliced = slice_of(alg, mask)
        made.append((alg, np.array(mask, dtype=bool), sliced))
        return sliced

    monkeypatch.setattr(MatrixStarAlgebra, "basis_slice", recording)
    return made


def test_slices_hold_no_dense_rows_through_a_job_and_a_sweep(monkeypatch):
    # the group-numeric benchmark's job on Z3^4, then the whole S4 lattice:
    # C[G] and every C[K] stay their supports and table, and each C[K]
    # reads back as C[G]'s rows
    made = _recorded_slices(monkeypatch)
    G = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return generated_subgroup(G, [G.index_of(g) for g in gens])

    inc = group_algebra_inclusion(G, sub((0, 0, 0, 1)))
    K, L = sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)), sub((0, 1, 0, 0), (0, 0, 0, 1))
    res = interior_angle_definition(inc.tower(), inc.expectation_onto(K), inc.expectation_onto(L))
    assert abs(res.cos_value - 0.5) <= 1e-12
    job = len(made)
    assert lattice_route_sweep(FiniteGroup.symmetric(4)) == (1065, pytest.approx(0.0, abs=1e-12))
    assert 0 < job < len(made)
    for parent, mask, sliced in made:
        assert parent._table is not None and "_flat" not in vars(sliced)
        assert "_flat" not in vars(parent)  # C[G], built from its maps
    assert {id(parent) for parent, _, _ in made} == {
        id(G.regular_algebra), id(made[-1][0])
    }
    for parent, mask, sliced in made:
        assert sliced.basis_stack.tobytes() == parent.basis_stack[mask].tobytes()


def test_inclusion_too_large():
    with pytest.raises(TooLarge):
        G = FiniteGroup.direct_product([17, 17])
        group_algebra_inclusion(G, trivial_subgroup(G))


# ---------------------------------------------------------------------------
# normalizer profiles


def test_abelian_profile_all_zero():
    G = FiniteGroup.direct_product([3, 3])
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((1, 0))])
    profile = normalizer_angle_profile(G, H, K)
    assert len(profile) == G.order
    assert all(res.angle_rad < 1e-12 for _, res in profile)


def test_s3_profile_zero_set_is_normalizer():
    G = FiniteGroup.symmetric(3)
    H = trivial_subgroup(G)
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])  # <(12)>
    profile = normalizer_angle_profile(G, H, K)
    zero_set = {g for g, res in profile if res.angle_rad < 1e-12}
    assert zero_set == set(K.elements)
    g = G.index_of((1, 2, 0))
    by_g = dict(profile)[g]
    assert by_g.angle_rad == pytest.approx(math.pi / 2)  # conjugate meets K trivially


def test_profile_requires_nesting():
    G = FiniteGroup.symmetric(3)
    K = generated_subgroup(G, [G.index_of((1, 0, 2))])
    with pytest.raises(DegenerateIntermediate):
        normalizer_angle_profile(G, K, K)


# ---------------------------------------------------------------------------
# parsing


def test_parse_group_specs():
    assert parse_group_spec("Z12").order == 12
    assert parse_group_spec("S4").order == 24
    assert parse_group_spec("Z3xZ3xZ5xZ5").order == 225
    with pytest.raises(InvalidGroup):
        parse_group_spec("Q8")
    with pytest.raises(InvalidGroup):
        parse_group_spec("S3xZ2")
    # a degree below 1 is no symmetric group, not one too large to build
    with pytest.raises(InvalidGroup, match="degree must be positive"):
        parse_group_spec("S0")


def test_parse_subgroup_tuples():
    G = parse_group_spec("Z3xZ3xZ5xZ5")
    K = parse_subgroup(G, "(1,0,0,0),(0,1,0,0),(0,0,1,0)")
    assert K.order == 45
    assert parse_subgroup(G, "").order == 1


def test_parse_subgroup_cycles():
    G = parse_group_spec("S3")
    assert parse_subgroup(G, "(12)").order == 2
    assert parse_subgroup(G, "(123)").order == 3
    assert parse_subgroup(G, "(12),(13)").order == 6
    G4 = parse_group_spec("S4")
    assert parse_subgroup(G4, "(12)(34)").order == 2


def test_parse_subgroup_errors():
    G = parse_group_spec("S3")
    with pytest.raises(InvalidGroup):
        parse_subgroup(G, "(17)")
    Gz = parse_group_spec("Z4")
    with pytest.raises(InvalidGroup):
        parse_subgroup(Gz, "(1,2)")  # wrong arity
    with pytest.raises(InvalidGroup):
        parse_subgroup(Gz, "((1)")  # unbalanced
