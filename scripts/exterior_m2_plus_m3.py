"""Exterior angles beyond the 2x2 model: M2+M3 >= C+C, M2(x)M_{2^k} >= C(x)M_{2^k} and M3+M4 >= C+C.

A = M2 + M3 block-diagonal in M5, B = C + C (the two block units), E the
blockwise normalized trace with quasi-basis {sqrt2 e_ij} + {sqrt3 e_ij}, so
Ind(E) = 4 + 9.  C is the diagonal with the diagonal projection F, and D
is the diagonal conjugated by a seeded block-diagonal unitary u2 + u3.
The module of A has dimension 13 and A_1 = M4 + M9 dimension 97, so the
second tower level acts on a module of dimension 97; the exterior angle
reads its e_2, its module and E_2, and never builds A_2.

The second case tensors the 2x2 model with M_m, m = 2^k for k = 1, 2, a
finite-dimensional shadow of the tensor stability of angles: A =
M2(x)M_m over B = C(x)M_m with E = tr (x) id, C = Delta(x)M_m and D =
u Delta u*(x)M_m for three seeded unitaries u.  Its interior angle must
be ``m2.exact_angle(u)``, and both of its exterior routes must give the
2x2 model's exterior angle for u.  At k = 2 the module has dimension 64
and the second level one of dimension 256.

The third case, run last, is the first case on blocks of sizes 3 and 4:
A = M3 + M4 in M7 with Ind(E) = 9 + 16, a module of dimension 25 and a
second level on a module of dimension 337.

Prints one JSON object: for M2+M3, the cosines of both interior routes
and of both exterior routes (the definition route at level two, and the
formula route on (A <= A_1, E_1) fed quasi-bases built from level one,
kept under the key ``exterior_closed_cos``), their differences, its wall
time and the peak resident set size before the tensor cases run; the
worst deviations of each tensor case from the 2x2 model, with its wall
time, under ``m2_tensor_m2`` (k = 1) and ``m2_tensor_m4`` (k = 2); the
same fields as M2+M3 for
M3+M4 under ``m3_plus_m4``; and the peak resident set size of the whole
run, read at its end.  Exits nonzero when the M2+M3 part peaks
above ``RSS_LIMIT_MIB`` or the whole run above ``RUN_RSS_LIMIT_MIB``,
when the interior routes of M2+M3 or of M3+M4 differ by more than
``angles.ROUTE_AGREEMENT_TOL``, when a tensor interior cosine of either
stage is off
``cos(m2.exact_angle(u))`` by more than that, or when a tensor exterior
cosine of either route is off the 2x2 model's by more than
``EXTERIOR_AGREEMENT_TOL``; ``exterior_angle`` itself raises when its two
routes differ by more than ``EXTERIOR_AGREEMENT_TOL``.

    PYTHONPATH=src python scripts/exterior_m2_plus_m3.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time

import numpy as np

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    conjugate_expectation,
    restrict_expectation,
)
from cstar_angles.angles import (
    EXTERIOR_AGREEMENT_TOL,
    ROUTE_AGREEMENT_TOL,
    exterior_angle,
    interior_angle_definition,
    interior_angle_formula,
)
from cstar_angles.tower import build_tower_level

TENSOR_UNITARIES = 3  # seeded unitaries u of each tensor case
TENSOR_STAGES = (1, 2)  # the k of M2(x)M_{2^k}
RSS_LIMIT_MIB = 256  # peak resident set size allowed to the M2+M3 part
RUN_RSS_LIMIT_MIB = 300  # peak resident set size allowed to the whole run


def fixture(seed: int, sizes=(2, 3)):
    """M_{s_1} + ... + M_{s_k} >= C + ... + C for block sizes ``sizes``, with E, F and F'."""
    n = sum(sizes)
    edges = np.cumsum((0,) + tuple(sizes))
    ranges = list(zip(edges[:-1], edges[1:]))

    def unit(i: int, j: int) -> np.ndarray:
        m = np.zeros((n, n), dtype=np.complex128)
        m[i, j] = 1.0
        return m

    blocks = [(lo, hi, unit(i, j)) for lo, hi in ranges
              for i in range(lo, hi) for j in range(lo, hi)]
    units = [m for _, _, m in blocks]
    A = MatrixStarAlgebra.from_orthonormal(units)
    corners = [sum(unit(i, i) for i in range(lo, hi)) for lo, hi in ranges]
    B = MatrixStarAlgebra.from_spanning(corners)
    C = MatrixStarAlgebra.from_orthonormal([unit(i, i) for i in range(n)])

    def blockwise_trace(x):
        return sum(
            np.trace(x[lo:hi, lo:hi]) / (hi - lo) * corner
            for (lo, hi), corner in zip(ranges, corners)
        )

    quasi = [math.sqrt(hi - lo) * m for lo, hi, m in blocks]
    E = ConditionalExpectation.from_rule(A, B, blockwise_trace, quasi_basis=quasi)
    F = ConditionalExpectation.from_rule(
        A, C, lambda x: np.diag(np.diag(x)), quasi_basis=units, name="F"
    )
    rng = mx.default_rng(seed)
    w = np.zeros((n, n), dtype=np.complex128)
    for lo, hi in ranges:
        w[lo:hi, lo:hi] = mx.random_unitary(hi - lo, rng)
    return A, B, C, E, F, conjugate_expectation(F, w)


def tensor_fixture(k: int = 1):
    """M2(x)M_m >= C(x)M_m, m = 2^k, with E = tr (x) id, and F = (diagonal projection) (x) id."""
    m = 2**k
    units = (m2.E11, m2.E12, m2.E21, m2.E22)
    small = [np.outer(a, b).astype(np.complex128) for a in np.eye(m) for b in np.eye(m)]
    eye2, eye_m = np.eye(2, dtype=np.complex128), np.eye(m, dtype=np.complex128)
    A = MatrixStarAlgebra.from_orthonormal([np.kron(a, b) for a in units for b in small])
    B = MatrixStarAlgebra.from_spanning([np.kron(eye2, b) for b in small])
    C = MatrixStarAlgebra.from_orthonormal(
        [np.kron(a, b) for a in (m2.E11, m2.E22) for b in small]
    )
    corners = [np.kron(p, eye_m) for p in (m2.E11, m2.E22)]

    def trace_first(x):  # 1 (x) sum_i x[(i, .), (i, .)] / 2
        return np.kron(eye2, np.einsum("iaib->ab", x.reshape(2, m, 2, m)) / 2.0)

    quasi = [np.kron(u, eye_m) for u in units]
    E = ConditionalExpectation.from_rule(
        A, B, trace_first, quasi_basis=[math.sqrt(2.0) * q for q in quasi]
    )
    F = ConditionalExpectation.from_rule(
        A, C, lambda x: sum(p @ x @ p for p in corners), quasi_basis=quasi, name="F"
    )
    return build_tower_level(E), F


def tensor_deviations(seed: int, k: int) -> dict:
    """Worst deviations of the M2(x)M_{2^k} angles from the 2x2 model's over seeded unitaries, with the wall time."""
    start = time.perf_counter()
    level, F = tensor_fixture(k)
    inc = m2.canonical_inclusion()
    model = m2.canonical_tower(inc)
    rng = mx.default_rng(seed)
    interior, exterior = 0.0, 0.0
    for _ in range(TENSOR_UNITARIES):
        u = m2.Unitary2(mx.random_unitary(2, rng))
        F_prime = conjugate_expectation(F, np.kron(u.matrix, np.eye(2**k)))
        cos = interior_angle_definition(level, F, F_prime).cos_value
        interior = max(interior, abs(cos - math.cos(m2.exact_angle(u))))
        ext = exterior_angle(level, F, F_prime)
        want = exterior_angle(model, inc.F, m2.fu_expectation(u, inc)).cos_value
        for got in (ext.cos_value, ext.diagnostics.extra["closed_cos"]):
            exterior = max(exterior, abs(got - want))
    return {
        "unitaries": TENSOR_UNITARIES,
        "interior_deviation": interior,
        "exterior_deviation": exterior,
        "wall_s": round(time.perf_counter() - start, 2),
    }


def block_sum_case(seed: int, sizes) -> dict:
    """Both interior and both exterior routes on the block sum of ``sizes``, with its wall time."""
    start = time.perf_counter()
    _, _, C, E, F, F_prime = fixture(seed, sizes)
    level = build_tower_level(E)
    mu = restrict_expectation(E, C, F).quasi_basis
    delta = restrict_expectation(E, F_prime.target, F_prime).quasi_basis
    formula = interior_angle_formula(E, mu, delta).cos_value
    definition = interior_angle_definition(level, F, F_prime).cos_value
    ext = exterior_angle(level, F, F_prime)
    closed = ext.diagnostics.extra["closed_cos"]
    return {
        "index": np.diag(level.index_matrix).real.round(12).tolist(),
        "interior_formula_cos": formula,
        "interior_definition_cos": definition,
        "interior_route_gap": abs(formula - definition),
        "exterior_definition_cos": ext.cos_value,
        "exterior_closed_cos": closed,
        "exterior_route_gap": abs(ext.cos_value - closed),
        "wall_s": round(time.perf_counter() - start, 2),
    }


def max_rss_mib() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=mx.DEFAULT_SEED)
    args = parser.parse_args(argv)

    report = {"seed": args.seed, **block_sum_case(args.seed, (2, 3))}
    report["ru_maxrss_mib"] = max_rss_mib()
    tensors = {f"M2(x)M{2**k}": tensor_deviations(args.seed, k) for k in TENSOR_STAGES}
    report["m2_tensor_m2"], report["m2_tensor_m4"] = tensors.values()
    large = block_sum_case(args.seed, (3, 4))
    report["m3_plus_m4"] = large
    report["ru_maxrss_mib_at_end"] = max_rss_mib()
    print(json.dumps(report, indent=2))
    failures = []
    if report["ru_maxrss_mib"] > RSS_LIMIT_MIB:
        failures.append(
            f"the M2+M3 part peaked at {report['ru_maxrss_mib']} MiB "
            f"> {RSS_LIMIT_MIB} MiB"
        )
    if report["ru_maxrss_mib_at_end"] > RUN_RSS_LIMIT_MIB:
        failures.append(
            f"the run peaked at {report['ru_maxrss_mib_at_end']} MiB "
            f"> {RUN_RSS_LIMIT_MIB} MiB"
        )
    for name, case in (("M2+M3", report), ("M3+M4", large)):
        if case["interior_route_gap"] > ROUTE_AGREEMENT_TOL:
            failures.append(
                f"{name} interior routes differ by {case['interior_route_gap']:.2e} "
                f"> {ROUTE_AGREEMENT_TOL:.0e}"
            )
    for name, tensor in tensors.items():
        if tensor["interior_deviation"] > ROUTE_AGREEMENT_TOL:
            failures.append(
                f"{name} interior cosine is off m2.exact_angle by "
                f"{tensor['interior_deviation']:.2e} > {ROUTE_AGREEMENT_TOL:.0e}"
            )
        if tensor["exterior_deviation"] > EXTERIOR_AGREEMENT_TOL:
            failures.append(
                f"{name} exterior cosine is off the 2x2 model's by "
                f"{tensor['exterior_deviation']:.2e} > {EXTERIOR_AGREEMENT_TOL:.0e}"
            )
    if failures:
        raise SystemExit("; ".join(failures))
    return report


if __name__ == "__main__":
    main()
