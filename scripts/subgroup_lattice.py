"""Subgroup lattices: enumeration times and the criterion-07 sweeps.

Times ``all_subgroups`` on S4, S5 and Z2xZ2xZ3xZ4, the exact route alone
on Z2xZ2xZ3xZ4 (``exact_chains``: ``all_subgroups`` and then
``group_angle`` on every strict chain H < K, L < G), and
``lattice_route_sweep`` on S3, Z12, Z2^3, S4 and Z2xZ2xZ3xZ4 (order 48,
so the definition route runs on group algebras of order 48), and prints
one JSON object with the counts, the wall times (best of ``--repeats``),
the worst route deviation of each sweep and the peak resident set size of
the run (``ru_maxrss_mib``).  Exits with status 1 unless the subgroup
counts are 30, 156 and 54, the exact route meets 6424 chains with the
angle 0 exactly when K = L, the sweeps check 16, 21, 259, 1065 and 6424
triples with every deviation within 1e-7, and the run peaks at no more
than 70 MiB.

    PYTHONPATH=src python scripts/subgroup_lattice.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from cstar_angles.groups import FiniteGroup, all_subgroups, group_angle
from cstar_angles.verify import lattice_route_sweep

LATTICES = (
    ("S4", lambda: FiniteGroup.symmetric(4), 30),
    ("S5", lambda: FiniteGroup.symmetric(5), 156),
    ("Z2xZ2xZ3xZ4", lambda: FiniteGroup.direct_product([2, 2, 3, 4]), 54),
)
EXACT_CHAINS = ("Z2xZ2xZ3xZ4", lambda: FiniteGroup.direct_product([2, 2, 3, 4]), 6424)
SWEEPS = (
    ("S3", lambda: FiniteGroup.symmetric(3), 16),
    ("Z12", lambda: FiniteGroup.cyclic(12), 21),
    ("Z2xZ2xZ2", lambda: FiniteGroup.direct_product([2, 2, 2]), 259),
    ("S4", lambda: FiniteGroup.symmetric(4), 1065),
    ("Z2xZ2xZ3xZ4", lambda: FiniteGroup.direct_product([2, 2, 3, 4]), 6424),
)
ROUTE_TOL = 1e-7
RSS_LIMIT_MIB = 70  # peak resident set size allowed to the run


def best_of(repeats: int, fn):
    """(result, best wall time in ms) over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, round(best * 1e3, 1)


def exact_chains(G):
    """(strict chains H < K, L < G, chains whose angle is 0 iff K = L)."""
    subs = all_subgroups(G)
    chains = zero_iff_equal = 0
    for H in subs:
        inters = [
            K for K in subs
            if H.issubset(K) and K.order != H.order and K.order != G.order
        ]
        for K in inters:
            for L in inters:
                res = group_angle(G, H, K, L)
                chains += 1
                zero_iff_equal += (res.angle_rad == 0.0) == (K.elements == L.elements)
    return chains, zero_iff_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    ok = True
    lattices = {}
    for name, make, expected in LATTICES:
        G = make()
        subs, ms = best_of(args.repeats, lambda: all_subgroups(G))
        lattices[name] = {"subgroups": len(subs), "expected": expected, "ms": ms}
        ok &= len(subs) == expected
    name, make, expected = EXACT_CHAINS
    G = make()
    (chains, zero_iff_equal), ms = best_of(args.repeats, lambda: exact_chains(G))
    exact = {
        "group": name, "chains": chains, "expected": expected,
        "zero_iff_equal": zero_iff_equal, "ms": ms,
    }
    ok &= chains == expected and zero_iff_equal == chains
    sweeps = {}
    for name, make, expected in SWEEPS:
        G = make()
        (count, worst), ms = best_of(args.repeats, lambda: lattice_route_sweep(G))
        sweeps[name] = {
            "triples": count, "expected": expected, "worst_deviation": worst, "ms": ms,
        }
        ok &= count == expected and worst <= ROUTE_TOL
    peak = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    ok &= peak <= RSS_LIMIT_MIB
    report = {
        "all_subgroups": lattices, "exact_chains": exact, "sweeps": sweeps,
        "ru_maxrss_mib": peak, "ok": ok,
    }
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
