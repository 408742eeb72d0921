"""Finite groups, their algebras under the left regular representation, and
the closed-form angle between intermediate group-algebra subalgebras.

Groups are Cayley tables over element indices.  Constructors cover cyclic
groups, direct products of cyclic groups, and symmetric groups up to S_5.
A subgroup is a sorted tuple of element indices together with a boolean
mask over the parent's elements, validated by one gather per property
(identity, inverses, and the products cayley[e[:, None], e]); subgroups of
different parents never mix.  Subgroup generation closes a mask under
products of its elements.  The lattice is found by cyclic extension (Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 2005, sections
2.3 and 10.1): start from the distinct cyclic subgroups, join each newly
found subgroup with every cyclic subgroup it does not contain, and
deduplicate by mask.

For nested subgroups H <= K, L <= G the interior angle between C[K] and
C[L] inside C[H] <= C[G] has the exact value

    cos a(C[K], C[L]) = ([K n L : H] - 1) / (sqrt([K:H] - 1) sqrt([L:H] - 1)),

computed here on Python ints (the square of the cosine is a fraction
reduced by its gcd) with conversion to floating point only for the square
root and the arccos.  The numeric cross-check route materializes
C[H] <= C[G] on the left regular representation.  E preserves the trace,
so the tower module of C[G] is the algebra's own basis
{lambda_g / sqrt(|G|)}: module coordinates are the algebra's HS
coordinates, the scaled group coefficients (read off the disjoint supports
of the lambda_g), and left multiplication acts by the same matrix as the
element itself.

The CLI mini-language for groups and subgroup generators is parsed at the
bottom of this module; grammar in README.md.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matrices as mx
from .algebra import ConditionalExpectation, MatrixStarAlgebra
from .angles import AngleDiagnostics, AngleResult, Route
from .errors import (
    DegenerateIntermediate,
    InvalidGroup,
    NoQuasiBasis,
    NotIntermediate,
    NotSubgroup,
    TooLarge,
)
from .tower import GenericModule, TowerLevel, build_tower_level

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "make_group",
    "trivial_subgroup",
    "full_subgroup",
    "generated_subgroup",
    "intersection",
    "subgroup_index",
    "left_coset_reps",
    "conjugate_subgroup",
    "normalizer",
    "is_normal",
    "all_subgroups",
    "intermediate_subgroups",
    "group_angle",
    "GroupInclusion",
    "group_algebra_inclusion",
    "normalizer_angle_profile",
    "RegularModule",
    "parse_group_spec",
    "parse_subgroup",
]

MAX_GROUP_ORDER = 1024
MAX_ALGEBRA_ORDER = 256
_FULL_ASSOC_LIMIT = 32


class FiniteGroup:
    """A finite group as a Cayley table on element indices 0..order-1.

    The group owns a read-only copy of its table, so a caller's later
    write to the array it passed in cannot change the group, nor the group
    algebra kept on it (:attr:`regular_algebra`).
    """

    def __init__(self, cayley, elements=None, labels=None, name="G", kind="table",
                 radices=None):
        table = np.array(cayley, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise InvalidGroup("Cayley table must be square")
        order = table.shape[0]
        if order == 0 or table.min() < 0 or table.max() >= order:
            raise InvalidGroup("Cayley entries must be element indices")
        self.cayley = table
        self.order = order
        self.name = name
        self.kind = kind
        self.radices = None if radices is None else tuple(radices)
        self.elements = tuple(elements) if elements is not None else tuple(range(order))
        self.labels = (
            tuple(labels) if labels is not None else tuple(str(e) for e in self.elements)
        )
        self._index_of = {e: i for i, e in enumerate(self.elements)}
        if {len(self.elements), len(self._index_of), len(self.labels)} != {order}:
            raise InvalidGroup(f"need one distinct element and one label per table row ({order})")
        self._validate()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        table.setflags(write=False)
        self.inverse.setflags(write=False)

    def _validate(self):
        n, t = self.order, self.cayley
        expect = np.arange(n)
        if not (np.all(np.sort(t, axis=1) == expect) and np.all(np.sort(t, axis=0) == expect[:, None])):
            raise InvalidGroup("Cayley table is not a Latin square")
        if n <= _FULL_ASSOC_LIMIT:
            a = np.arange(n)
            left = t[t[a[:, None, None], a[None, :, None]], a[None, None, :]]
            right = t[a[:, None, None], t[a[None, :, None], a[None, None, :]]]
            if not np.array_equal(left, right):
                raise InvalidGroup("multiplication is not associative")
        else:
            rng = mx.default_rng()
            a = rng.integers(0, n, size=4096)
            b = rng.integers(0, n, size=4096)
            c = rng.integers(0, n, size=4096)
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
                raise InvalidGroup("multiplication is not associative (sampled)")

    def _find_identity(self) -> int:
        expect = np.arange(self.order)
        for e in range(self.order):
            if np.array_equal(self.cayley[e], expect) and np.array_equal(
                self.cayley[:, e], expect
            ):
                return e
        raise InvalidGroup("no identity element")

    def _find_inverses(self) -> np.ndarray:
        inv = np.empty(self.order, dtype=np.int64)
        for g in range(self.order):
            hits = np.nonzero(self.cayley[g] == self.identity)[0]
            h = int(hits[0])
            if self.cayley[h, g] != self.identity:
                raise InvalidGroup("one-sided inverse found")
            inv[g] = h
        return inv

    @cached_property
    def _largest_proper_order(self) -> int:
        """|G| / p for p the smallest prime factor of |G|: by Lagrange, no
        proper subgroup is larger (0 for the trivial group)."""
        n = self.order
        return n // next((p for p in range(2, n + 1) if n % p == 0), n + 1)

    def mult(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def index_of(self, element) -> int:
        return self._index_of[element]

    def label(self, g: int) -> str:
        return self.labels[g]

    def regular_matrix(self, g: int) -> np.ndarray:
        """Left-regular permutation matrix of g: column b has a 1 at row g*b."""
        return _regular_stack(self, [g])[0]

    @cached_property
    def regular_algebra(self) -> MatrixStarAlgebra:
        """C[G] on the left regular representation, basis {lambda_g / sqrt(|G|)}.

        Built on first read and kept on the group for its lifetime, so every
        inclusion of one group shares it and it is freed with the group;
        ``TooLarge`` above ``MAX_ALGEBRA_ORDER``, before anything is allocated.
        Built from the column -> row maps of the lambda_g, the Cayley table's
        rows (:meth:`MatrixStarAlgebra.from_monomial`): from
        ``GATHER_MIN_DIM`` elements on it holds their supports, |G|^2
        entries, and no dense basis, which is |G|^3 entries and is built only
        if something reads it (``_regular_stack`` gives the same rows).
        """
        if self.order > MAX_ALGEBRA_ORDER:
            raise TooLarge(
                f"group algebra route supports order <= {MAX_ALGEBRA_ORDER}"
            )
        # lambda_g's column b has its entry at row g b
        return MatrixStarAlgebra.from_monomial(self.cayley, 1.0 / math.sqrt(self.order))

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls.direct_product([n], name=f"Z{n}")

    @classmethod
    def direct_product(cls, orders, name=None) -> "FiniteGroup":
        orders = [int(r) for r in orders]
        if any(r < 1 for r in orders) or not orders:
            raise InvalidGroup("cyclic orders must be positive")
        total = math.prod(orders)
        if total > MAX_GROUP_ORDER:
            raise TooLarge(f"group order {total} exceeds {MAX_GROUP_ORDER}")
        elements = list(itertools.product(*[range(r) for r in orders]))
        digits = np.array(elements, dtype=np.int64)  # (total, k)
        sums = (digits[:, None, :] + digits[None, :, :]) % np.array(orders)
        weights = np.ones(len(orders), dtype=np.int64)
        for k in range(len(orders) - 2, -1, -1):
            weights[k] = weights[k + 1] * orders[k + 1]
        cayley = np.tensordot(sums, weights, axes=(2, 0))
        labels = ["(" + ",".join(map(str, e)) + ")" for e in elements]
        return cls(
            cayley,
            elements=elements,
            labels=labels,
            name=name or "x".join(f"Z{r}" for r in orders),
            kind="cyclic_product",
            radices=orders,
        )

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise InvalidGroup("symmetric degree must be positive")
        if n > 5:
            raise TooLarge("symmetric groups supported up to S5")
        elements = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(elements)}
        order = len(elements)
        cayley = np.empty((order, order), dtype=np.int64)
        for i, p in enumerate(elements):
            for j, q in enumerate(elements):
                cayley[i, j] = index[tuple(p[q[k]] for k in range(n))]
        labels = [_cycle_label(p) for p in elements]
        return cls(
            cayley, elements=elements, labels=labels, name=f"S{n}", kind="symmetric"
        )

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _cycle_label(perm: tuple) -> str:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle, k = [], start
        while k not in seen:
            seen.add(k)
            cycle.append(k + 1)  # 1-based in labels
            k = perm[k]
        cycles.append("(" + "".join(map(str, cycle)) + ")")
    return "".join(cycles) if cycles else "e"


def make_group(spec) -> FiniteGroup:
    """Constructor dispatch: cyclic(n), direct_product(list), symmetric(n)."""
    if isinstance(spec, str):
        return parse_group_spec(spec)
    if isinstance(spec, int):
        return FiniteGroup.cyclic(spec)
    return FiniteGroup.direct_product(list(spec))


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup: a sorted tuple of element indices and its mask.

    ``order`` is the number of elements, an int stored at validation.
    """

    parent: FiniteGroup
    elements: tuple

    def __post_init__(self):
        G = self.parent
        mask = _index_mask(G, self.elements, "element")
        idx = np.flatnonzero(mask)
        if not mask[G.identity]:
            raise NotSubgroup("subgroup must contain the identity")
        if not mask[G.inverse[idx]].all():
            raise NotSubgroup("subgroup not closed under inverses")
        if not mask[G.cayley[idx[:, None], idx]].all():
            raise NotSubgroup("subgroup not closed under products")
        mask.flags.writeable = False
        object.__setattr__(self, "elements", tuple(idx.tolist()))
        object.__setattr__(self, "order", idx.size)
        object.__setattr__(self, "_mask", mask)
        # the same set as a Python int, for constant-time subset tests
        bits = np.packbits(mask, bitorder="little").tobytes()
        object.__setattr__(self, "_bits", int.from_bytes(bits, "little"))

    def __contains__(self, g) -> bool:
        """Membership of an element index; a value that is not an integer is no member."""
        try:
            g = operator.index(g)
        except TypeError:
            return False
        return 0 <= g < self.parent.order and bool(self._mask[g])

    def __iter__(self):
        return iter(self.elements)

    def mask(self) -> np.ndarray:
        """Read-only boolean mask over the parent's element indices."""
        return self._mask

    def issubset(self, other: "Subgroup") -> bool:
        _same_parent(self, other)
        return self._bits & ~other._bits == 0

    def labels(self) -> list[str]:
        return [self.parent.label(g) for g in self.elements]

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


def _element_indices(indices, what: str) -> list[int]:
    """``indices`` as Python ints; :class:`NotSubgroup` for a value that is no integer.

    Integers of any kind pass (``operator.index``, as
    :meth:`Subgroup.__contains__` reads them), NumPy integers included; a
    float or a string is refused rather than truncated or parsed.
    """
    try:
        return [operator.index(e) for e in indices]
    except TypeError:
        raise NotSubgroup(f"{what} indices must be integers") from None


def _index_mask(G: FiniteGroup, indices, what: str) -> np.ndarray:
    """Mask of element indices; numpy would wrap negative ones, so check the range."""
    idx = np.array(_element_indices(indices, what), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= G.order):
        raise NotSubgroup(f"{what} index out of range 0..{G.order - 1}")
    mask = np.zeros(G.order, dtype=bool)
    mask[idx] = True
    return mask


def _same_parent(*subgroups: Subgroup, group: FiniteGroup | None = None):
    parent = subgroups[0].parent if group is None else group
    if any(S.parent is not parent for S in subgroups):
        raise NotSubgroup("subgroups of different parents")


def _closure(G: FiniteGroup, mask: np.ndarray, known=()) -> np.ndarray:
    """Mask of the subgroup generated by a mask: products until closed.

    Each round adds every product of two current elements, so round r
    reaches all words of length 2^r; a finite set closed under products
    (with the identity) is a subgroup.  The search stops early at a mask
    whose bytes are in ``known`` (masks of subgroups), and at the whole
    group once the mask outgrows every proper subgroup
    (``FiniteGroup._largest_proper_order``).
    """
    mask = mask.copy()
    mask[G.identity] = True
    size = np.count_nonzero(mask)
    while size < G.order and mask.tobytes() not in known:
        if size > G._largest_proper_order:
            mask[:] = True
            break
        idx = mask.nonzero()[0]
        mask[G.cayley[idx[:, None], idx]] = True
        grown = np.count_nonzero(mask)
        if grown == size:
            break
        size = grown
    return mask


def _cyclic_masks(G: FiniteGroup) -> np.ndarray:
    """Row g is the mask of the cyclic subgroup <g>, all rows at once."""
    n = G.order
    masks = np.zeros((n, n), dtype=bool)
    rows, power = np.arange(n), np.full(n, G.identity)
    while rows.size:
        masks[rows, power] = True
        power = G.cayley[power, rows]
        live = power != G.identity
        rows, power = rows[live], power[live]
    return masks


def _from_mask(G: FiniteGroup, mask: np.ndarray) -> Subgroup:
    return Subgroup(G, tuple(np.flatnonzero(mask).tolist()))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def generated_subgroup(G: FiniteGroup, generators) -> Subgroup:
    """Closure of a generator set under the group operation."""
    return _from_mask(G, _closure(G, _index_mask(G, generators, "generator")))


def intersection(K: Subgroup, L: Subgroup) -> Subgroup:
    _same_parent(K, L)
    return _from_mask(K.parent, K.mask() & L.mask())


def subgroup_index(K, H: Subgroup) -> int:
    """[K : H] for nested subgroups (K may be the whole group)."""
    if isinstance(K, FiniteGroup):
        _same_parent(H, group=K)
        contained, order = True, K.order
    else:
        contained, order = H.issubset(K), K.order
    if not contained:
        raise NotIntermediate("H is not contained in K")
    if order % H.order:
        raise NotSubgroup("order does not divide (Lagrange violated)")
    return order // H.order


def left_coset_reps(G: FiniteGroup, H: Subgroup, within=None) -> list[int]:
    """Deterministic left-coset representatives: smallest index per coset.

    One per coset g H of the elements g of ``within`` (a subgroup K
    containing H; all of G when None), in increasing order: g is a
    representative exactly when it is the smallest element of g H.  Raises
    :class:`NotIntermediate` when K does not contain H, as its elements then
    meet cosets that K does not cover.
    """
    _same_parent(H, *([] if within is None else [within]), group=G)
    if within is None:
        members = np.arange(G.order)
    elif H.issubset(within):
        members = np.array(within.elements)
    else:
        raise NotIntermediate("H is not contained in K")
    smallest = G.cayley[members[:, None], H.elements].min(axis=1)
    return members[smallest == members].tolist()


def conjugate_subgroup(K: Subgroup, g: int) -> Subgroup:
    """g^{-1} K g."""
    G = K.parent
    _index_mask(G, [g], "conjugating element")  # NotSubgroup unless 0 <= g < |G|
    k = np.array(K.elements)
    return Subgroup(G, tuple(G.cayley[G.cayley[G.inverse[g], k], g].tolist()))


def normalizer(G: FiniteGroup, K: Subgroup) -> Subgroup:
    _same_parent(K, group=G)
    # row g holds g^{-1} k g over k in K; conjugation is injective, so g
    # normalizes K exactly when the whole row lies in K
    g, k = np.arange(G.order)[:, None], np.array(K.elements)[None, :]
    conj = G.cayley[G.cayley[G.inverse[g], k], g]
    return _from_mask(G, K.mask()[conj].all(axis=1))


def is_normal(G: FiniteGroup, K: Subgroup) -> bool:
    return normalizer(G, K).order == G.order


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """The full subgroup lattice, by joins with cyclic subgroups.

    Starts from the distinct cyclic subgroups and joins every newly found
    subgroup with each cyclic subgroup it does not contain, deduplicating
    by mask.  Every subgroup is the join of its cyclic subgroups, so the
    search is complete.  Each distinct seed S | C is closed once, and each
    distinct subgroup is validated once.
    """
    cyclic = np.array(list({m.tobytes(): m for m in _cyclic_masks(G)}.values()))
    found = {m.tobytes(): m for m in cyclic}
    seeds = set()
    frontier = list(cyclic)
    while frontier:
        fresh = []
        for S in frontier:
            for C in cyclic[np.any(cyclic & ~S, axis=1)]:
                seed = S | C
                seed_key = seed.tobytes()
                if seed_key in seeds:
                    continue
                seeds.add(seed_key)
                joined = _closure(G, seed, found)
                key = joined.tobytes()
                if key not in found:
                    found[key] = joined
                    fresh.append(joined)
        frontier = fresh
    return sorted(
        (_from_mask(G, m) for m in found.values()), key=lambda s: (s.order, s.elements)
    )


def intermediate_subgroups(G: FiniteGroup, H: Subgroup) -> list[Subgroup]:
    """Subgroups K with H < K < G: those containing H, without K = H and K = G."""
    _same_parent(H, group=G)
    return [
        K for K in all_subgroups(G)
        if H.issubset(K) and K.order not in (H.order, G.order)
    ]


# ---------------------------------------------------------------------------
# the exact angle formula


def group_angle(
    G: FiniteGroup, H: Subgroup, K: Subgroup, L: Subgroup
) -> AngleResult:
    """cos a(C[K], C[L]) = ([KnL:H] - 1) / (sqrt([K:H]-1) sqrt([L:H]-1)).

    The squared cosine is exact: a fraction of Python ints reduced by their
    gcd, whose quotient is the correctly rounded float.  Floating point
    enters only in that quotient, the square root and the arccos.
    """
    if H.parent is not G or K.parent is not G or L.parent is not G:
        raise NotSubgroup("subgroups of different parents")
    h_bits, k_bits, l_bits = H._bits, K._bits, L._bits
    if h_bits & ~k_bits:
        raise NotIntermediate("H is not contained in K")
    if h_bits & ~l_bits:
        raise NotIntermediate("H is not contained in L")
    h, k, l = H.order, K.order, L.order
    if k == h or l == h:
        raise DegenerateIntermediate("K = H or L = H: angle undefined")

    # K n L is a subgroup containing H, and Lagrange holds for H <= K, L
    a = (k_bits & l_bits).bit_count() // h
    b = k // h
    c = l // h
    num, den = (a - 1) ** 2, (b - 1) * (c - 1)
    gcd = math.gcd(num, den)
    num //= gcd
    den //= gcd
    cos = min(1.0, math.sqrt(num / den))
    diagnostics = AngleDiagnostics(
        numerator=float(a - 1),
        denominator_first=math.sqrt(b - 1),
        denominator_second=math.sqrt(c - 1),
        raw_cos=cos,
        extra={
            "cos_squared_numerator": num,
            "cos_squared_denominator": den,
            "index_intersection": a,
            "index_K": b,
            "index_L": c,
        },
    )
    return AngleResult(
        cos_value=cos, angle_rad=math.acos(cos), route=Route.FORMULA,
        diagnostics=diagnostics,
    )


def normalizer_angle_profile(
    G: FiniteGroup, H: Subgroup, K: Subgroup
) -> list[tuple[int, AngleResult]]:
    """Angles a(C[K], C[g^{-1} K g]) for g normalizing H.

    The hypothesis g in N_G(H) keeps C[H] inside the conjugated algebra; the
    zero-angle set is exactly N_G(K) intersected with N_G(H).
    """
    if not H.issubset(K):
        raise NotIntermediate("H must be contained in K")
    if K.order == H.order:
        raise DegenerateIntermediate("K = H")
    out = []
    for g in normalizer(G, H).elements:
        L = conjugate_subgroup(K, g)
        out.append((g, group_angle(G, H, K, L)))
    return out


# ---------------------------------------------------------------------------
# the numeric route: group algebras on the regular representation


class RegularModule(GenericModule):
    """Tower module of C[H] <= C[G]: the algebra is its own module.

    E preserves the trace, so the module basis is A's own basis
    {lambda_g / sqrt(|G|)} and module coordinates are A's coordinates,
    the scaled group coefficients.  What this class adds is the definition
    of the regular representation: L_x is the ambient matrix of x itself
    (:meth:`left_mult`), where :class:`~cstar_angles.tower.GenericModule`
    forms it from A's multiplication matrices.  Every other rule is the
    generic module's, keyed on properties of A and E, not on this class:
    L_y X is a row gather wherever A has a product table (from
    ``GATHER_MIN_DIM`` elements on), and so is L_y J where the Gram matrix
    is also diagonal, as it is here; below that size both are dense
    products.
    """

    def left_mult(self, x) -> np.ndarray:
        """L_x is x itself: a complex128 input comes back as it is, not copied."""
        return np.asarray(x, dtype=np.complex128)

    # named on this class too: the benchmark traces methods by class attribute
    coords = GenericModule.coords
    from_coords = GenericModule.from_coords
    operator_matrix = GenericModule.operator_matrix


def _regular_stack(G: FiniteGroup, elements, value: float = 1.0) -> np.ndarray:
    """Left-regular matrices of ``elements`` as one stack: ``value`` at [g b, b]."""
    g, n = np.asarray(elements, dtype=np.int64), G.order
    stack = np.zeros((len(g), n, n), dtype=np.complex128)
    stack[np.arange(len(g))[:, None], G.cayley[g], np.arange(n)] = value
    return stack


def _masking_expectation(
    A: MatrixStarAlgebra, S: Subgroup, reps, name: str
) -> ConditionalExpectation:
    """The expectation onto C[S] killing coefficients off S, from its exact 0/1 matrix.

    C[S] takes A's basis rows at S (inheriting their supports and product
    table), so the coordinate matrix keeps the columns of the identity at S:
    basis element lambda_g / sqrt(|G|) maps to itself for g in S and to zero
    otherwise.  The quasi-basis {lambda_g} over the coset representatives
    ``reps`` (a transversal, :func:`_transversal`) is handed over as its
    coordinates, sqrt(|G|) at basis element g, so no (q, n, n) stack is
    filled unless it is read.
    """
    mask = S.mask()
    target = A.basis_slice(mask)
    quasi = np.zeros((len(reps), A.dim), dtype=np.complex128)
    quasi[np.arange(len(reps)), reps] = math.sqrt(A.dim)
    quasi.setflags(write=False)  # so that the expectation takes it uncopied
    return ConditionalExpectation.from_coordinates(
        A, target, np.eye(A.dim)[:, mask], quasi_basis=quasi, name=name
    )


def _transversal(G: FiniteGroup, S: Subgroup, reps) -> list[int]:
    """``reps`` as a list of element indices checked to be a left transversal of S.

    None gives :func:`left_coset_reps`.  Raises :class:`NotSubgroup` for an
    index that is no integer or out of range (numpy would wrap a negative
    one) and
    :class:`NoQuasiBasis` unless the reps meet each left coset g S exactly
    once: there must be [G:S] of them, and their cosets, one row of the
    Cayley table each, must cover G, O(|G|) integer work.
    """
    if reps is None:
        return left_coset_reps(G, S)
    reps = _element_indices(reps, "coset representative")
    _index_mask(G, reps, "coset representative")  # NotSubgroup unless 0 <= g < |G|
    if len(reps) != G.order // S.order:
        raise NoQuasiBasis(
            f"{len(reps)} coset representatives for the {G.order // S.order} left cosets"
        )
    hits = np.bincount(G.cayley[np.ix_(reps, S.elements)].ravel(), minlength=G.order)
    if np.any(hits != 1):
        raise NoQuasiBasis("coset representatives must meet each left coset exactly once")
    return reps


@dataclass
class GroupInclusion:
    """C[H] <= C[G] on the left regular representation, with E and quasi-basis."""

    group: FiniteGroup
    subgroup: Subgroup
    A: MatrixStarAlgebra
    B: MatrixStarAlgebra
    E: ConditionalExpectation
    module: RegularModule
    coset_reps: list[int]

    def intermediate_algebra(self, K: Subgroup) -> MatrixStarAlgebra:
        """C[K], the slice of A's basis at K; K must contain H, as for :meth:`expectation_onto`.

        Raises :class:`NotSubgroup` for a K of another group and
        :class:`NotIntermediate` for a K not containing H, in that order.
        """
        if not self.subgroup.issubset(K):
            raise NotIntermediate("K must contain H")
        return self.A.basis_slice(K.mask())

    def expectation_onto(self, K: Subgroup, reps=None) -> ConditionalExpectation:
        """The coefficient-masking expectation onto C[K], coset-rep quasi-basis.

        ``reps``, when given, must be a left transversal of K, as in
        :func:`group_algebra_inclusion`.
        """
        if not self.subgroup.issubset(K):
            raise NotIntermediate("K must contain H")
        return _masking_expectation(self.A, K, _transversal(self.group, K, reps), "F")

    def tower(self, *, materialize: bool = False, check: bool = True) -> TowerLevel:
        """The level of (C[H] <= C[G], E) on the regular module.

        ``materialize`` reads E_1, and with it A_1 and the embedded algebra,
        before returning; otherwise they are built on first read.
        """
        level = build_tower_level(self.E, module=self.module, check=check)
        if materialize:
            level.dual_expectation
        return level


def group_algebra_inclusion(
    G: FiniteGroup, H: Subgroup, reps=None
) -> GroupInclusion:
    """Build C[H] <= C[G] with E killing coefficients off H.

    A is ``G.regular_algebra``: C[G] is built once per group and kept on it
    for the group's lifetime, so every inclusion of one group shares it, its
    supports and its product table.  B = C[H] and every C[K] of
    :meth:`GroupInclusion.expectation_onto` are slices of its basis
    (:meth:`MatrixStarAlgebra.basis_slice`) and inherit both.  The
    quasi-basis is a set of left-coset representatives (the deterministic
    smallest-index transversal unless ``reps`` overrides it; any
    transversal gives the same index [G:H] times the identity).  ``reps``
    must be a left transversal of H: an index out of range raises
    :class:`NotSubgroup`, and reps that miss a coset or meet one twice raise
    :class:`NoQuasiBasis`.
    """
    A = G.regular_algebra  # TooLarge above MAX_ALGEBRA_ORDER, before any allocation
    if H.parent is not G:
        raise NotSubgroup("H must be a subgroup of G")
    reps = _transversal(G, H, reps)
    E = _masking_expectation(A, H, reps, "E")
    return GroupInclusion(G, H, A, E.target, E, RegularModule(E), reps)


# ---------------------------------------------------------------------------
# CLI mini-language


_TERM_RE = re.compile(r"^(Z|S)(\d+)$")


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse specs like "Z12", "S4", "Z3xZ3xZ5xZ5" (x-separated terms)."""
    text = spec.strip()
    if not text:
        raise InvalidGroup("empty group spec")
    terms = text.split("x")
    parsed = []
    for term in terms:
        m = _TERM_RE.match(term.strip())
        if not m:
            raise InvalidGroup(f"cannot parse group term {term!r}")
        parsed.append((m.group(1), int(m.group(2))))
    if all(kind == "Z" for kind, _ in parsed):
        orders = [n for _, n in parsed]
        return FiniteGroup.direct_product(orders, name=text)
    if len(parsed) == 1 and parsed[0][0] == "S":
        return FiniteGroup.symmetric(parsed[0][1])
    raise InvalidGroup("symmetric groups cannot be combined in products")


def _split_top_level(text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidGroup("unbalanced parentheses in generator list")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise InvalidGroup("unbalanced parentheses in generator list")
    if current:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_cycles(G: FiniteGroup, token: str) -> int:
    """One generator in cycle notation, e.g. "(12)" or "(12)(34)"; 1-based."""
    n = len(G.elements[0])
    cycles = re.findall(r"\(([0-9]+)\)", token)
    if not cycles or "".join(f"({c})" for c in cycles) != token.replace(" ", ""):
        raise InvalidGroup(f"cannot parse permutation {token!r}")
    perm = list(range(n))
    for cyc in reversed(cycles):  # rightmost cycle acts first
        points = [int(d) - 1 for d in cyc]
        if any(p < 0 or p >= n for p in points) or len(set(points)) != len(points):
            raise InvalidGroup(f"bad cycle {cyc!r} for S{n}")
        c = list(range(n))
        for i, p in enumerate(points):
            c[p] = points[(i + 1) % len(points)]
        perm = [c[perm[i]] for i in range(n)]
    return G.index_of(tuple(perm))


def _parse_tuple(G: FiniteGroup, token: str) -> int:
    body = token.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        values = tuple(int(v) for v in body.split(",") if v.strip() != "")
    except ValueError as exc:
        raise InvalidGroup(f"cannot parse element tuple {token!r}") from exc
    if G.radices is None or len(values) != len(G.radices):
        raise InvalidGroup(f"tuple {token!r} does not fit {G.name}")
    reduced = tuple(v % r for v, r in zip(values, G.radices))
    return G.index_of(reduced)


def parse_subgroup(G: FiniteGroup, text: str) -> Subgroup:
    """Parse a generator list: tuples for cyclic products, cycles for S_n.

    An empty string denotes the trivial subgroup.
    """
    tokens = _split_top_level(text or "")
    if not tokens:
        return trivial_subgroup(G)
    if G.kind == "symmetric":
        gens = [_parse_cycles(G, tok) for tok in tokens]
    else:
        gens = [_parse_tuple(G, tok) for tok in tokens]
    return generated_subgroup(G, gens)
