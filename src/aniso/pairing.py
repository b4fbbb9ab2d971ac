"""Alternating fraction-valued pairings on finite abelian groups.

Values live in Q/Z, stored as Fractions in [0, 1). The headline operation
finds a subgroup on which the pairing vanishes whose order squared is a
multiple of the group order, by the splitting construction: work one prime
at a time, pick an element of maximal order, pass to its kernel, split the
chosen element off as a direct factor, and recurse on the complement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import AnisoError
from . import fieldmatrix
from .lattice import IntMatrix, abelian_quotient, integer_kernel, solve_left
from .scalars import (FieldElement, _prime_factors, _split_prime_power, least_power,
                      root_of_unity_log)


class PairingError(AnisoError):
    pass


class InvalidPairing(PairingError):
    pass


class GroupTooLarge(PairingError):
    pass


class CommutatorNotScalar(PairingError):
    pass


class NotProjectivelyFinite(PairingError):
    pass


class FiniteAbelianGroup:
    """Elements are integer tuples, coordinate i taken mod the i-th factor."""

    def __init__(self, invariant_factors: Sequence[int]):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise PairingError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise PairingError("invariant factors must form a divisibility chain")
        self.invariant_factors = factors

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    def reduce(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(v) % d for v, d in zip(x, self.invariant_factors))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % d for a, d in zip(x, self.invariant_factors))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def element_order(self, x) -> int:
        out = 1
        for a, d in zip(x, self.invariant_factors):
            out = math.lcm(out, d // math.gcd(d, a % d))
        return out

    def elements(self):
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def __repr__(self):
        return "FiniteAbelianGroup" + repr(self.invariant_factors)

    def __eq__(self, other):
        return (isinstance(other, FiniteAbelianGroup)
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash(("FiniteAbelianGroup", self.invariant_factors))


def _mod1(q: Fraction) -> Fraction:
    return q - Fraction(q.numerator // q.denominator)


class AlternatingPairing:
    """gram[i][j] = value of the pairing on the i-th and j-th generators."""

    def __init__(self, group: FiniteAbelianGroup, gram: Sequence[Sequence]):
        k = group.ngens
        if len(gram) != k or any(len(row) != k for row in gram):
            raise InvalidPairing("gram shape does not match the generator count")
        self.group = group
        self.gram = tuple(tuple(_mod1(Fraction(v)) for v in row) for row in gram)

    def value(self, x, y) -> Fraction:
        x = self.group.reduce(x)
        y = self.group.reduce(y)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj and self.gram[i][j]:
                        total += xi * yj * self.gram[i][j]
        return _mod1(total)

    def to_json(self) -> dict:
        return {"invariant_factors": [str(d) for d in self.group.invariant_factors],
                "gram": [[f"{v.numerator}/{v.denominator}" for v in row]
                         for row in self.gram]}

    @staticmethod
    def from_json(obj: dict) -> "AlternatingPairing":
        group = FiniteAbelianGroup([int(d) for d in obj["invariant_factors"]])
        gram = [[Fraction(v) for v in row] for row in obj["gram"]]
        return AlternatingPairing(group, gram)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    message: str

    def __bool__(self):
        return self.ok


def validate_pairing(p: AlternatingPairing) -> ValidationResult:
    """Well-definedness, antisymmetry, and vanishing on the diagonal.

    Checked on the generators: a zero diagonal, antisymmetry and entries
    killed by the factor orders. By bilinearity this forces q(x, x) = 0 for
    every element x, so no element is enumerated.
    """
    group = p.group
    factors = group.invariant_factors
    k = group.ngens
    for i in range(k):
        if p.gram[i][i] != 0:
            return ValidationResult(False, f"generator {i} pairs nontrivially with itself")
        for j in range(k):
            v = p.gram[i][j]
            if _mod1(factors[i] * v) != 0 or _mod1(factors[j] * v) != 0:
                return ValidationResult(
                    False, f"entry ({i},{j}) is not killed by the factor orders")
            if _mod1(v + p.gram[j][i]) != 0:
                return ValidationResult(False, f"entries ({i},{j}) and ({j},{i}) do not cancel")
    return ValidationResult(True, "valid alternating pairing")


def pairing_radical(p: AlternatingPairing, cap: int = 4096) -> list[tuple[int, ...]]:
    """All elements pairing trivially with the whole group (exhaustive)."""
    if p.group.order > cap:
        raise GroupTooLarge(f"group order {p.group.order} exceeds cap {cap}")
    gens = [tuple(1 if i == j else 0 for j in range(p.group.ngens))
            for i in range(p.group.ngens)]
    return [x for x in p.group.elements()
            if all(p.value(x, e) == 0 for e in gens)]


def is_perfect(p: AlternatingPairing, cap: int = 4096) -> bool:
    return len(pairing_radical(p, cap)) == 1


# ---------------------------------------------------------------------------
# the isotropic-subgroup construction

@dataclass(frozen=True)
class IsotropicSubgroup:
    generators: tuple[tuple[int, ...], ...]
    generator_orders: tuple[int, ...]
    order: int


def isotropic_subgroup(p: AlternatingPairing) -> IsotropicSubgroup:
    """Subgroup on which the pairing vanishes, with |group| dividing order².

    Splits the group into its prime-power parts, and in each part repeats:
    take the lexicographically smallest element g of maximal order, restrict
    to the kernel of pairing against g, split off g as a direct factor, and
    recurse on the complement. No element is enumerated: the invariant
    factors of a part ascend, so g is always (0, ..., 0, 1).
    """
    check = validate_pairing(p)
    if not check:
        raise InvalidPairing(check.message)
    group = p.group
    if not group.invariant_factors:
        return IsotropicSubgroup((), (), 1)
    gens_out: list[tuple[int, ...]] = []
    orders_out: list[int] = []
    for ell in sorted(set(_prime_factors(group.exponent))):
        part_factors = []
        embed = []  # embedding of the part's generators into the full group
        for j, d in enumerate(group.invariant_factors):
            rest, v = _split_prime_power(d, ell)
            if v:
                part_factors.append(d // rest)
                vec = [0] * group.ngens
                vec[j] = rest
                embed.append(tuple(vec))
        k = len(part_factors)
        # gram of the part through the embedding
        part_gram = [[p.value(embed[a], embed[b]) for b in range(k)]
                     for a in range(k)]
        part_gens = _isotropic_primary(ell, part_factors, part_gram)
        for coeffs, order in part_gens:
            vec = group.zero
            for c, e in zip(coeffs, embed):
                vec = group.add(vec, group.scale(c, e))
            gens_out.append(vec)
            orders_out.append(order)
    total = math.prod(orders_out) if orders_out else 1
    result = IsotropicSubgroup(tuple(gens_out), tuple(orders_out), total)
    for a in result.generators:
        for b in result.generators:
            assert p.value(a, b) == 0, "constructed subgroup is not isotropic"
    assert (result.order * result.order) % group.order == 0, \
        "order-squared divisibility failed"
    return result


def _isotropic_primary(ell: int, factors: list[int],
                       gram: list[list[Fraction]]) -> list[tuple[tuple[int, ...], int]]:
    """Recursion for one prime-power part; returns (coefficient vector, order)
    pairs relative to the current generator basis."""
    k = len(factors)
    if k == 0:
        return []
    group = FiniteAbelianGroup(factors)
    pairing = AlternatingPairing(group, gram)
    big = group.exponent  # = ell^r, maximal element order
    # the lexicographically first element of order big: only zero precedes
    # it, and the last invariant factor is the largest
    g = (0,) * (k - 1) + (1,)

    # kernel of pairing against g inside the part, as a sublattice of Z^k
    coeffs = [pairing.value(g, tuple(1 if i == j else 0 for j in range(k)))
              for i in range(k)]
    arow = [int(c * big) for c in coeffs] + [big]
    kernel_rows = [row[:-1] for row in integer_kernel(IntMatrix.from_rows([arow]))]
    den_rows = [[factors[j] if i == j else 0 for j in range(k)] for i in range(k)]
    structure, torsion_gens, free_gens = abelian_quotient(kernel_rows, den_rows, k)
    assert not free_gens, "kernel quotient must be finite"
    hs = [group.reduce(h) for h in torsion_gens]
    ms = list(structure.invariant_factors)

    if not hs:
        return []

    # write g in terms of the kernel generators
    rows = [list(h) for h in hs] + den_rows
    sol = solve_left(IntMatrix.from_rows(rows), list(g))
    assert sol is not None, "maximal-order element must lie in its own kernel"
    gamma = [sol[i] % ms[i] for i in range(len(hs))]

    split = None
    for i in range(len(hs) - 1, -1, -1):
        if ms[i] == big and gamma[i] % ell:
            split = i
            break
    assert split is not None, "no unit coordinate at maximal order"

    rest = [hs[i] for i in range(len(hs)) if i != split]
    rest_orders = [ms[i] for i in range(len(hs)) if i != split]
    if rest:
        sub_gram = [[pairing.value(a, b) for b in rest] for a in rest]
        sub = _isotropic_primary(ell, rest_orders, sub_gram)
    else:
        sub = []

    out = [(tuple(g), big)]
    for coeffs_sub, order in sub:
        vec = group.zero
        for c, h in zip(coeffs_sub, rest):
            vec = group.add(vec, group.scale(c, h))
        out.append((vec, order))
    return out


# ---------------------------------------------------------------------------
# brute-force oracle

def brute_force_isotropic_max(p: AlternatingPairing, order_cap: int = 4096,
                              work_cap: int = 200000):
    """(max order, witness subgroup elements) by closing isotropic subgroups.

    Walks the poset of isotropic subgroups upward from cyclic ones; every
    isotropic subgroup is reached since all its intermediate joins stay
    inside it. Pairing values are tabulated as integers once so the walk is
    pure table lookups; work_cap bounds the number of join attempts and a
    GroupTooLarge signals the exact answer was not reached.
    """
    group = p.group
    check = validate_pairing(p)
    if not check:
        raise InvalidPairing(check.message)
    if group.order > order_cap:
        raise GroupTooLarge(f"group order {group.order} exceeds cap {order_cap}")
    elems = list(group.elements())
    index = {x: i for i, x in enumerate(elems)}
    size = len(elems)
    expo = group.exponent
    # pairing values as integers mod the exponent; 0 means orthogonal
    k = group.ngens
    gi = [[int(p.gram[i][j] * expo) for j in range(k)] for i in range(k)]
    val = [[sum(x[i] * y[j] * gi[i][j] for i in range(k) for j in range(k)) % expo
            for y in elems] for x in elems]
    add = [[index[group.add(x, y)] for y in elems] for x in elems]
    # one candidate per isotropic cyclic subgroup (B(x,x)=0 makes the whole
    # cyclic subgroup isotropic by bilinearity), smallest generator index
    candidates = []
    seen_cyclic = set()
    for i in range(1, size):
        if val[i][i]:
            continue
        cyc = [0]
        j = i
        while j != 0:
            cyc.append(j)
            j = add[j][i]
        key = frozenset(cyc)
        if key not in seen_cyclic:
            seen_cyclic.add(key)
            candidates.append((i, cyc))
    start = frozenset([0])
    seen = {start}
    queue = [start]
    best = (1, start)
    work = 0
    while queue:
        nxt = []
        for sub in queue:
            for x, cyc in candidates:
                if x in sub:
                    continue
                work += 1
                if work > work_cap:
                    raise GroupTooLarge(f"join attempts exceeded cap {work_cap}")
                row = val[x]
                if any(row[s] for s in sub):
                    continue
                joined = frozenset(add[s][t] for s in sub for t in cyc)
                if joined in seen:
                    continue
                seen.add(joined)
                nxt.append(joined)
                if len(joined) > best[0]:
                    best = (len(joined), joined)
        queue = nxt
    return best[0], tuple(sorted(elems[i] for i in best[1]))


# ---------------------------------------------------------------------------
# commutator pairings from lifted generators

@dataclass(frozen=True)
class CommutatorPairingResult:
    pairing: AlternatingPairing
    generator_orders: tuple[int, ...]
    # rows express the pairing's group generators in the given lifts
    basis_change: tuple[tuple[int, ...], ...]


def commutator_pairing_from_central_extension(
        lifts: Sequence, *,
        mul: Callable, inv: Callable,
        scalar_part: Callable[[object], Optional[FieldElement]],
        order_bound: int = 64) -> CommutatorPairingResult:
    """Pairing induced on a finite abelian group of projective units.

    Each lift is raised to powers until it becomes a scalar (its projective
    order); pairwise commutators must be scalars, and are converted to
    fractions via discrete logarithms of roots of unity. The resulting
    group is presented with invariant factors in a divisibility chain.
    """
    n = len(lifts)
    if n == 0:
        raise PairingError("need at least one lift")
    orders = []
    for x in lifts:
        found = least_power(x, mul, lambda a: scalar_part(a) is not None, order_bound)
        if found is None:
            raise NotProjectivelyFinite(
                f"no power up to {order_bound} is scalar")
        orders.append(found[0])
    invs = [inv(x) for x in lifts]
    raw = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            c = mul(mul(lifts[i], lifts[j]), mul(invs[i], invs[j]))
            s = scalar_part(c)
            if s is None:
                raise CommutatorNotScalar(
                    f"commutator of lifts {i} and {j} is not scalar")
            log = root_of_unity_log(s)
            raw[i][j] = _mod1(log)
    for i in range(n):
        for j in range(n):
            if _mod1(raw[i][j] + raw[j][i]) != 0:
                raise InvalidPairing("commutator values are not antisymmetric")
            if _mod1(orders[i] * raw[i][j]) != 0:
                raise InvalidPairing(
                    "commutator value not killed by the projective order")

    chain = all(orders[i + 1] % orders[i] == 0 for i in range(n - 1))
    if chain:
        group = FiniteAbelianGroup(orders)
        pairing = AlternatingPairing(group, raw)
        basis = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        result = CommutatorPairingResult(pairing, tuple(orders), basis)
    else:
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rel = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
        structure, torsion_gens, free_gens = abelian_quotient(ident, rel, n)
        assert not free_gens
        group = FiniteAbelianGroup(structure.invariant_factors)
        gram = [[_mod1(sum((Fraction(a[i] * b[j]) * raw[i][j]
                            for i in range(n) for j in range(n)), Fraction(0)))
                 for b in torsion_gens] for a in torsion_gens]
        pairing = AlternatingPairing(group, gram)
        result = CommutatorPairingResult(pairing, tuple(orders),
                                         tuple(tuple(t) for t in torsion_gens))
    check = validate_pairing(result.pairing)
    if not check:
        raise InvalidPairing(f"induced pairing invalid: {check.message}")
    return result


def matrix_commutator_pairing(matrices: Sequence, order_bound: int = 64) -> CommutatorPairingResult:
    """Commutator pairing for lifts given as square matrices over one field."""
    return commutator_pairing_from_central_extension(
        list(matrices),
        mul=fieldmatrix.mat_mul,
        inv=fieldmatrix.mat_inverse,
        scalar_part=fieldmatrix.scalar_of,
        order_bound=order_bound)


# ---------------------------------------------------------------------------
# randomized pairing generator for property tests

def random_pairing(rng, max_order: int = 256, max_gens: int = 4) -> AlternatingPairing:
    """Seeded random valid pairing on a group of bounded order."""
    while True:
        k = rng.randrange(1, max_gens + 1)
        factors = []
        d = rng.choice([2, 2, 2, 3, 4, 5, 6, 8, 9, 12])
        factors.append(d)
        for _ in range(k - 1):
            d = d * rng.choice([1, 1, 2, 2, 3, 4])
            factors.append(d)
        if math.prod(factors) <= max_order:
            break
    group = FiniteAbelianGroup(factors)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = math.gcd(factors[i], factors[j])
            num = rng.randrange(d)
            gram[i][j] = Fraction(num, d)
            gram[j][i] = _mod1(-gram[i][j])
    return AlternatingPairing(group, gram)
