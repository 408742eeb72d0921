import math
from types import SimpleNamespace

import numpy as np
import pytest

from cstar_angles import m2
from cstar_angles import matrices as mx
from cstar_angles.algebra import (
    ConditionalExpectation,
    MatrixStarAlgebra,
    conjugate_expectation,
)
from cstar_angles.tower import build_tower_level


@pytest.fixture(scope="session")
def inclusion():
    return m2.canonical_inclusion()


@pytest.fixture(scope="session")
def tower_level(inclusion):
    # materialized canonical 2x2 tower; immutable, safe to share
    return m2.canonical_tower(inclusion)


@pytest.fixture
def rng():
    return mx.default_rng()


@pytest.fixture(scope="session")
def reference_orthonormalize():
    """Per-pair Gram-Schmidt under any inner product, kept as the oracle.

    Two passes, inputs in order, a candidate dropped below
    ``cutoff (1 + its norm)``: the rule of ``mx.orthonormalize``.
    """

    def orthonormalize(mats, inner, cutoff=mx.RANK_CUTOFF):
        basis = []
        for m in mats:
            v = np.array(m, dtype=np.complex128)
            scale = np.sqrt(abs(inner(v, v)))
            for _ in range(2):
                for b in basis:
                    v = v - inner(b, v) * b
            nrm = np.sqrt(abs(inner(v, v)))
            if nrm > cutoff * (1.0 + scale):
                basis.append(v / nrm)
        return basis

    return orthonormalize


@pytest.fixture(scope="session")
def d2_family():
    """The former spanning family {L_x e_B L_y} of a level's A_1, as one stack."""

    def family(level):
        lmats = level.embed(level.algebra.basis_stack)
        d = len(lmats)
        products = (lmats @ level.jones_projection)[:, None] @ lmats[None]
        return products.reshape((d * d,) + lmats.shape[1:])

    return family


@pytest.fixture(scope="session")
def c_plus_m2():
    """C+M2 >= C+C in M3 with the blockwise normalized trace: Ind(E) = 1+4.

    C is the diagonal, with the diagonal projection F (quasi-basis: the
    in-block matrix units), and D is the diagonal conjugated by a seeded
    block unitary 1+u, with F' = Ad(1+u) o F o Ad(1+u)*.
    """

    def unit(i, j):
        m = np.zeros((3, 3), dtype=np.complex128)
        m[i, j] = 1.0
        return m

    block = [(1, 1), (1, 2), (2, 1), (2, 2)]
    units = [unit(0, 0)] + [unit(i, j) for i, j in block]
    A = MatrixStarAlgebra.from_orthonormal(units)
    B = MatrixStarAlgebra.from_spanning([unit(0, 0), unit(1, 1) + unit(2, 2)])
    C = MatrixStarAlgebra.from_orthonormal([unit(k, k) for k in range(3)])

    def blockwise_trace(x):
        return np.diag([x[0, 0], *[(x[1, 1] + x[2, 2]) / 2.0] * 2])

    E = ConditionalExpectation.from_rule(
        A, B, blockwise_trace,
        quasi_basis=[units[0]] + [math.sqrt(2.0) * m for m in units[1:]],
    )
    def diagonal(x):
        return np.diag(np.diag(x))

    F = ConditionalExpectation.from_rule(A, C, diagonal, quasi_basis=units, name="F")
    w = np.eye(3, dtype=np.complex128)
    w[1:, 1:] = mx.random_unitary(2, mx.default_rng(11))
    F_prime = conjugate_expectation(F, w)
    level = build_tower_level(E)
    return SimpleNamespace(
        A=A, B=B, E=E, C=C, F=F, F_prime=F_prime, level=level,
        rules={"E": blockwise_trace, "F": diagonal},  # the rules E and F are built from
    )
