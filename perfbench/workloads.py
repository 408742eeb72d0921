"""The benchmark's four workloads: fixtures, seeded inputs and checked jobs.

A workload builds its fixtures once (``setup``), then runs passes of jobs in
a closed loop with one client.  ``make_pass`` draws the inputs of one pass
from a generator seeded by the benchmark's ``--seed`` and the pass number,
so a pass can be replayed exactly (the traced run replays the passes of the
untraced one).  Each job calls the package's public API, cross-checks its
angle against an independent reference through :class:`Checker` and
returns the number of angles it checked.

Why each workload exists, which layer it loads and which ROADMAP item it is
the gain or the no-change partner for is written up in ``README.md``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import cstar_angles as ca
from cstar_angles import groups, m2, verify
from cstar_angles import matrices as mx
from cstar_angles.groups import FiniteGroup

SETUP_STREAM = 0
PASS_STREAM = 1


class Mismatch(Exception):
    """A job's computed value missed its reference by more than the tolerance."""


class Checker:
    """Compares computed values with references and keeps the worst deviation.

    ``perturb`` is added to every computed value before the comparison; it
    exists so that a test can show a wrong value is counted as a failed job.
    """

    def __init__(self, perturb: float = 0.0):
        self.perturb = perturb
        self.worst = 0.0

    def __call__(self, computed: float, reference: float, tol: float, what: str):
        deviation = abs(float(computed) + self.perturb - float(reference))
        if math.isnan(deviation):
            deviation = math.inf
        self.worst = max(self.worst, deviation)
        if deviation > tol:
            raise Mismatch(f"{what}: {computed!r} vs {reference!r} (tol {tol:g})")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[np.random.Generator], object]
    # (fixture, rng) -> jobs of one pass; a job takes a Checker and returns
    # the number of angles it checked
    make_pass: Callable[[object, np.random.Generator], list]


def setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, SETUP_STREAM])


def pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, PASS_STREAM, pass_index])


# ---------------------------------------------------------------------------
# group-numeric: the definition route on C[H] <= C[Z3xZ3xZ3xZ3], order 81


def _group_numeric_setup(rng):
    G = FiniteGroup.direct_product([3, 3, 3, 3])

    def sub(*gens):
        return groups.generated_subgroup(G, [G.index_of(g) for g in gens])

    # the criterion-06 shape: [K:H] = 9, [L:H] = 3, K n L = L, so cos = 1/2
    H = sub((0, 0, 0, 1))
    K = sub((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    L = sub((0, 1, 0, 0), (0, 0, 0, 1))
    exact = groups.group_angle(G, H, K, L)
    return SimpleNamespace(
        G=G, H=H, K=K, L=L, exact_cos=exact.cos_value,
        coset_reps=groups.left_coset_reps(G, H), h_elements=H.elements,
    )


def _group_numeric_job(fx, reps, check):
    inc = ca.group_algebra_inclusion(fx.G, fx.H, reps=reps)
    level = inc.tower(materialize=False, check=True)
    res = ca.interior_angle_definition(
        level, inc.expectation_onto(fx.K), inc.expectation_onto(fx.L)
    )
    check(res.cos_value, fx.exact_cos, 1e-6, "definition route vs exact group_angle")
    return 1


def _group_numeric_pass(fx, rng):
    # a random left transversal of H: each smallest coset rep g becomes g h
    hs = rng.choice(len(fx.h_elements), size=len(fx.coset_reps))
    reps = [fx.G.mult(g, fx.h_elements[i]) for g, i in zip(fx.coset_reps, hs)]
    return [functools.partial(_group_numeric_job, fx, reps)]


# ---------------------------------------------------------------------------
# lattice: whole subgroup lattices, numeric sweep plus exact-only angles

# the criterion-07 groups with their (H, K, L) triple counts
SWEEP_GROUPS = (
    (lambda: FiniteGroup.symmetric(3), 16),
    (lambda: FiniteGroup.cyclic(12), 21),
    (lambda: FiniteGroup.direct_product([2, 2, 2]), 259),
    (lambda: FiniteGroup.symmetric(4), 1065),
)
EXACT_GROUP_ORDERS = (2, 2, 3, 4)
EXACT_SUBGROUPS = 54
EXACT_CHAINS = 6424


def relabel(G: FiniteGroup, rng: np.random.Generator) -> FiniteGroup:
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


def _lattice_setup(rng):
    sweeps = [(relabel(make(), rng), count) for make, count in SWEEP_GROUPS]
    exact = relabel(FiniteGroup.direct_product(list(EXACT_GROUP_ORDERS)), rng)
    return SimpleNamespace(sweeps=sweeps, exact=exact)


def _sweep_job(G, expected, check):
    count, worst = verify.lattice_route_sweep(G)
    check(count, expected, 0, f"{G.name} triple count")
    check(worst, 0.0, 1e-7, f"{G.name} worst route deviation")
    return count


def _exact_lattice_job(G, check):
    subs = groups.all_subgroups(G)
    check(len(subs), EXACT_SUBGROUPS, 0, f"{G.name} subgroup count")
    chains = 0
    for H in subs:
        inters = [
            K for K in subs
            if H.issubset(K) and K.order != H.order and K.order != G.order
        ]
        for K in inters:
            for L in inters:
                res = groups.group_angle(G, H, K, L)
                check(
                    float(res.angle_rad == 0.0), float(K.elements == L.elements), 0,
                    f"{G.name} angle is 0 iff K = L",
                )
                chains += 1
    check(chains, EXACT_CHAINS, 0, f"{G.name} chain count")
    return chains


def _lattice_pass(fx, rng):
    jobs = [functools.partial(_sweep_job, G, count) for G, count in fx.sweeps]
    jobs.append(functools.partial(_exact_lattice_job, fx.exact))
    return jobs


# ---------------------------------------------------------------------------
# m2: both interior routes on the 2x2 model, one Haar-random unitary per job


def _m2_setup(rng):
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    mu = ca.restrict_expectation(inc.E, inc.delta, inc.F).quasi_basis
    return SimpleNamespace(inc=inc, level=level, mu=mu)


def _m2_job(fx, matrix, check):
    inc = fx.inc
    u = m2.Unitary2(matrix)
    f_u = m2.fu_expectation(u, inc)
    delta = ca.restrict_expectation(inc.E, f_u.target, f_u).quasi_basis
    formula = ca.interior_angle_formula(inc.E, fx.mu, delta).cos_value
    definition = ca.interior_angle_definition(fx.level, inc.F, f_u).cos_value
    # m2.exact_angle, not m2.closed_form_angle: the fourth-power closed form
    # is off by design (criterion 01)
    exact = math.cos(m2.exact_angle(u))
    check(formula, exact, 1e-8, "formula route vs m2.exact_angle")
    check(definition, exact, 1e-8, "definition route vs m2.exact_angle")
    check(formula, definition, 1e-8, "formula vs definition route")
    return 1


def _m2_pass(fx, rng):
    return [functools.partial(_m2_job, fx, mx.random_unitary(2, rng))]


# ---------------------------------------------------------------------------
# exterior: level-two towers, materialized

EXTERIOR_UNITARIES_PER_PASS = 3


def _exterior_setup(rng):
    inc = m2.canonical_inclusion()
    level = m2.canonical_tower(inc)
    G = FiniteGroup.direct_product([2, 2])
    incg = ca.group_algebra_inclusion(G, groups.trivial_subgroup(G))
    levelg = incg.tower(materialize=True)
    pair = tuple(
        incg.expectation_onto(groups.generated_subgroup(G, [G.index_of(g)]))
        for g in ((1, 0), (0, 1))
    )
    return SimpleNamespace(inc=inc, level=level, levelg=levelg, pair=pair)


def _exterior_job(level, F, F_prime, check):
    res = ca.exterior_angle(level, F, F_prime)
    check(
        res.cos_value, res.diagnostics.extra["closed_cos"], 1e-7,
        "level-two definition vs closed_cos",
    )
    return 1


def _exterior_m2_job(fx, matrix, check):
    f_u = m2.fu_expectation(m2.Unitary2(matrix), fx.inc)
    return _exterior_job(fx.level, fx.inc.F, f_u, check)


def _exterior_pass(fx, rng):
    jobs = [
        functools.partial(_exterior_m2_job, fx, mx.random_unitary(2, rng))
        for _ in range(EXTERIOR_UNITARIES_PER_PASS)
    ]
    jobs.append(functools.partial(_exterior_job, fx.levelg, *fx.pair))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("group-numeric", _group_numeric_setup, _group_numeric_pass),
        Workload("lattice", _lattice_setup, _lattice_pass),
        Workload("m2", _m2_setup, _m2_pass),
        Workload("exterior", _exterior_setup, _exterior_pass),
    )
}
