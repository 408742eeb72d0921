"""Exterior angle on M2+M3 >= C+C, a non-scalar index at level two.

A = M2 + M3 block-diagonal in M5, B = C + C (the two block units), E the
blockwise normalized trace with quasi-basis {sqrt2 e_ij} + {sqrt3 e_ij}, so
Ind(E) = 4 + 9.  C is the diagonal with the diagonal projection F, and D
is the diagonal conjugated by a seeded block-diagonal unitary u2 + u3.
The module of A has dimension 13 and A_1 = M4 + M9 dimension 97, so the
second tower level is spanned by 97 * 13 = 1261 matrices of size 97 x 97.

Prints one JSON object: the cosines of both interior routes and of both
exterior routes (level-two definition and closed expressions), their
differences, the wall time and the peak resident set size.  Exits
nonzero when the interior routes differ by more than
``angles.ROUTE_AGREEMENT_TOL``; ``exterior_angle`` itself raises when the
exterior routes differ by more than ``EXTERIOR_AGREEMENT_TOL``.

    PYTHONPATH=src python scripts/exterior_m2_plus_m3.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time

import numpy as np

from cstar_angles import matrices as mx
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    conjugate_expectation,
    restrict_expectation,
)
from cstar_angles.angles import (
    ROUTE_AGREEMENT_TOL,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
)
from cstar_angles.tower import build_tower_level

BLOCKS = ((0, 2), (2, 5))  # index ranges of M2 and M3 in M5


def unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((5, 5), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def fixture(seed: int):
    blocks = [(lo, hi, unit(i, j)) for lo, hi in BLOCKS
              for i in range(lo, hi) for j in range(lo, hi)]
    units = [m for _, _, m in blocks]
    A = MatrixStarAlgebra.from_orthonormal(units)
    corners = [sum(unit(i, i) for i in range(lo, hi)) for lo, hi in BLOCKS]
    B = MatrixStarAlgebra.from_spanning(corners)
    C = MatrixStarAlgebra.from_orthonormal([unit(i, i) for i in range(5)])

    def blockwise_trace(x):
        return sum(
            np.trace(x[lo:hi, lo:hi]) / (hi - lo) * corner
            for (lo, hi), corner in zip(BLOCKS, corners)
        )

    quasi = [math.sqrt(hi - lo) * m for lo, hi, m in blocks]
    E = ConditionalExpectation.from_rule(A, B, blockwise_trace, quasi_basis=quasi)
    F = ConditionalExpectation.from_rule(
        A, C, lambda x: np.diag(np.diag(x)), quasi_basis=units, name="F"
    )
    rng = mx.default_rng(seed)
    w = np.zeros((5, 5), dtype=np.complex128)
    for lo, hi in BLOCKS:
        w[lo:hi, lo:hi] = mx.random_unitary(hi - lo, rng)
    return A, B, C, E, F, conjugate_expectation(F, w)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=mx.DEFAULT_SEED)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    A, B, C, E, F, F_prime = fixture(args.seed)
    level = build_tower_level(A, B, E)
    mu = restrict_expectation(E, C, F).quasi_basis
    delta = restrict_expectation(E, F_prime.target, F_prime).quasi_basis
    formula = interior_angle_formula(E, mu, delta).cos_value
    definition = interior_angle_definition(level, F, F_prime).cos_value
    ext = exterior_angle(level, F, F_prime)
    closed = ext.diagnostics.extra["closed_cos"]
    report = {
        "seed": args.seed,
        "index": np.diag(level.index_matrix).real.round(12).tolist(),
        "interior_formula_cos": formula,
        "interior_definition_cos": definition,
        "interior_route_gap": abs(formula - definition),
        "exterior_definition_cos": ext.cos_value,
        "exterior_closed_cos": closed,
        "exterior_route_gap": abs(ext.cos_value - closed),
        "wall_s": round(time.perf_counter() - start, 2),
        "ru_maxrss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }
    print(json.dumps(report, indent=2))
    if report["interior_route_gap"] > ROUTE_AGREEMENT_TOL:
        raise SystemExit(
            f"interior routes differ by {report['interior_route_gap']:.2e} "
            f"> {ROUTE_AGREEMENT_TOL:.0e}"
        )
    return report


if __name__ == "__main__":
    main()
