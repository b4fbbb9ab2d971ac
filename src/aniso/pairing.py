"""Alternating fraction-valued pairings on finite abelian groups.

Values live in Q/Z. A pairing keeps its gram as reduced Fractions in
[0, 1) for JSON and display, and as integer numerators over one common
denominator for work: a value is one integer bilinear sum taken mod that
denominator, validation runs as integer congruences, and the isotropic
recursion passes integer grams from level to level. The headline operation
finds a subgroup on which the pairing vanishes whose order squared is a
multiple of the group order, by the splitting construction: work one prime
at a time, pick an element of maximal order, pass to its kernel, split the
chosen element off as a direct factor, and recurse on the complement.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import AnisoError, _exact_fraction, _exact_int
from .integers import _TRIAL_DIVISION_LIMIT, _prime_factors, _split_prime_power, least_power
from .lattice import (IntMatrix, _int_tuple, _quotient, _vec_mat, abelian_quotient,
                      closure, integer_kernel)

if TYPE_CHECKING:
    from .scalars import FieldElement


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
        factors = _int_tuple(invariant_factors, PairingError)
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

    def _fit(self, x) -> tuple[int, ...]:
        """The factors, once x has one coordinate per factor."""
        if len(x) != len(self.invariant_factors):
            raise PairingError(f"element has {len(x)} coordinates, "
                               f"the group has {len(self.invariant_factors)} factors")
        return self.invariant_factors

    def reduce(self, x: Sequence[int]) -> tuple[int, ...]:
        factors = self._fit(x)
        try:
            return tuple(operator.index(v) % d for v, d in zip(x, factors))
        except TypeError:
            raise PairingError(f"element coordinates must be integers, got {tuple(x)!r}") from None

    def add(self, x, y) -> tuple[int, ...]:
        self._fit(y)
        return tuple((a + b) % d for a, b, d in zip(x, y, self._fit(x)))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self._fit(x)))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return tuple((k * a) % d for a, d in zip(x, self._fit(x)))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def element_order(self, x) -> int:
        out = 1
        for a, d in zip(x, self._fit(x)):
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


def _pair(gram: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """sum_ij x_i gram_ij y_j: the numerator of the value on x and y."""
    return sum(map(operator.mul, _vec_mat(x, gram, len(y)), y))


def _pair_all(gram: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """_pair(gram, a, b) for every a (rows) and b (columns) of vectors, each
    row a @ gram taken once."""
    rows = [_vec_mat(a, gram, len(gram)) for a in vectors]
    return [[sum(map(operator.mul, row, b)) for b in vectors] for row in rows]


class AlternatingPairing:
    """gram[i][j] = value of the pairing on the i-th and j-th generators.

    The same values are kept as integer numerators _num over the common
    denominator _den, the lcm of the gram's denominators, each in
    [0, _den): gram[i][j] = _num[i][j] / _den.
    """

    def __init__(self, group: FiniteAbelianGroup, gram: Sequence[Sequence]):
        k = group.ngens
        if len(gram) != k or any(len(row) != k for row in gram):
            raise InvalidPairing("gram shape does not match the generator count")
        inexact = next((v for row in gram for v in row if isinstance(v, (bool, float))), None)
        if inexact is not None:
            raise InvalidPairing(f"gram entry {inexact!r} is not an int or a Fraction")
        self.group = group
        self.gram = tuple(tuple(Fraction(v) % 1 for v in row) for row in gram)
        self._den = math.lcm(*(v.denominator for row in self.gram for v in row))
        self._num = tuple(tuple(v.numerator * (self._den // v.denominator) for v in row)
                          for row in self.gram)

    def value(self, x, y) -> Fraction:
        x = self.group.reduce(x)
        y = self.group.reduce(y)
        return Fraction(_pair(self._num, x, y) % self._den, self._den)

    def to_json(self) -> dict:
        return {"invariant_factors": [str(d) for d in self.group.invariant_factors],
                "gram": [[f"{v.numerator}/{v.denominator}" for v in row]
                         for row in self.gram]}

    @staticmethod
    def from_json(obj: dict) -> "AlternatingPairing":
        group = FiniteAbelianGroup([_exact_int(d) for d in obj["invariant_factors"]])
        gram = [[_exact_fraction(v) for v in row] for row in obj["gram"]]
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
    every element x, so no element is enumerated. Each test is an integer
    congruence on the numerators, mod their common denominator.
    """
    factors = p.group.invariant_factors
    num, den = p._num, p._den
    for i, row in enumerate(num):
        if row[i]:
            return ValidationResult(False, f"generator {i} pairs nontrivially with itself")
        for j, v in enumerate(row):
            if factors[i] * v % den or factors[j] * v % den:
                return ValidationResult(
                    False, f"entry ({i},{j}) is not killed by the factor orders")
            if (v + num[j][i]) % den:
                return ValidationResult(False, f"entries ({i},{j}) and ({j},{i}) do not cancel")
    return ValidationResult(True, "valid alternating pairing")


def _require_valid(p: AlternatingPairing) -> None:
    check = validate_pairing(p)
    if not check:
        raise InvalidPairing(check.message)


def _units(k: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def _orthogonal(gram: Sequence[Sequence[int]], den: int, big: int,
                vectors: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the lattice {y in Z^k : p(v, y) = 0 for every v in vectors},
    for the pairing p with numerators gram over den, killed by big.

    Vector j gives the row [p(v_j, e_i) * big for each i] with big, the
    group exponent, in its own slack column k + j; the first k coordinates
    of the integer kernel of these rows are the lattice, since the slack
    entries only absorb integer parts. p(v_j, e_i) * big is the integer
    (t mod den) * big / den, t = (v_j @ gram)_i. One Smith form of a
    len(vectors) x (k + len(vectors)) matrix; no element is enumerated.
    """
    k = len(gram)
    rows = [[t % den * big // den for t in _vec_mat(v, gram, k)]
            + [big if col == j else 0 for col in range(len(vectors))]
            for j, v in enumerate(vectors)]
    return [row[:k] for row in integer_kernel(IntMatrix.from_rows(rows))]


def _radical_generators(p: AlternatingPairing) -> list[tuple[int, ...]]:
    _require_valid(p)
    group = p.group
    if not group.ngens:
        return []  # the trivial group is its own radical
    return [group.reduce(y)
            for y in _orthogonal(p._num, p._den, group.exponent, _units(group.ngens))]


def is_perfect(p: AlternatingPairing) -> bool:
    """Whether only zero pairs trivially with the whole group.

    The radical is the lattice orthogonal to the k generators, taken modulo
    the group's relations, so the pairing is perfect when every basis
    vector of that lattice reduces to zero: one Smith form of a k x 2k
    integer matrix, whatever the group order.
    """
    return not any(any(y) for y in _radical_generators(p))


def pairing_radical(p: AlternatingPairing) -> list[tuple[int, ...]]:
    """All elements pairing trivially with the whole group, in
    lexicographic order.

    The generators come from is_perfect's Smith form; only the radical
    itself is listed, by closure, at most 2k group additions per element. Raises
    GroupTooLarge when the radical has more than 4096 elements.
    """
    group = p.group
    return sorted(closure(group.zero, _radical_generators(p), group.add, 4096,
                          GroupTooLarge("radical exceeds 4096 elements"))[0])


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
    _require_valid(p)
    group = p.group
    if not group.invariant_factors:
        return IsotropicSubgroup((), (), 1)
    gens_out: list[tuple[int, ...]] = []
    orders_out: list[int] = []
    undecided = GroupTooLarge(f"trial division to {_TRIAL_DIVISION_LIMIT} and Miller-Rabin "
                              "leave the group exponent unfactored")
    for ell in sorted(set(_prime_factors(group.exponent, _TRIAL_DIVISION_LIMIT, undecided))):
        part_factors = []
        embed = []  # embedding of the part's generators into the full group
        for j, d in enumerate(group.invariant_factors):
            rest, v = _split_prime_power(d, ell)
            if v:
                part_factors.append(d // rest)
                vec = [0] * group.ngens
                vec[j] = rest
                embed.append(tuple(vec))
        # gram of the part through the embedding, as numerators over the
        # part's exponent big: each value is killed by big, so value * big
        # is the integer (t mod den) * big / den
        big = part_factors[-1]
        part_gram = [[t % p._den * big // p._den for t in row]
                     for row in _pair_all(p._num, embed)]
        part_gens = _isotropic_primary(ell, part_factors, part_gram, big)
        for coeffs, order in part_gens:
            vec = group.zero
            for c, e in zip(coeffs, embed):
                vec = group.add(vec, group.scale(c, e))
            gens_out.append(vec)
            orders_out.append(order)
    total = math.prod(orders_out) if orders_out else 1
    result = IsotropicSubgroup(tuple(gens_out), tuple(orders_out), total)
    assert not any(t % p._den for row in _pair_all(p._num, result.generators) for t in row), \
        "constructed subgroup is not isotropic"
    assert (result.order * result.order) % group.order == 0, \
        "order-squared divisibility failed"
    return result


def _isotropic_primary(ell: int, factors: list[int], gram: list[list[int]],
                       den: int) -> list[tuple[tuple[int, ...], int]]:
    """Recursion for one prime-power part, with gram[i][j] / den the value
    on the i-th and j-th generators; returns (coefficient vector, order)
    pairs relative to the current generator basis.

    Three Smith forms per level: one for the kernel of pairing against g,
    and the quotient's two. The relations diag(f_1 | ... | f_k), f_i >= 2,
    need none: the pivot rule does no operation on them, so they are their
    own row basis, and reducing modulo them is group.reduce.
    """
    k = len(factors)
    if k == 0:
        return []
    group = FiniteAbelianGroup(factors)
    big = group.exponent  # = ell^r, maximal element order
    # the lexicographically first element of order big: only zero precedes
    # it, and the last invariant factor is the largest
    g = (0,) * (k - 1) + (1,)

    # kernel of pairing against g inside the part, as a sublattice of Z^k
    kernel_rows = _orthogonal(gram, den, big, [g])
    relations = [[factors[j] if i == j else 0 for j in range(k)] for i in range(k)]
    structure, torsion_gens, free_gens, coordinates = _quotient(kernel_rows, relations, k)
    assert not free_gens, "kernel quotient must be finite"
    hs = [group.reduce(h) for h in torsion_gens]
    ms = list(structure.invariant_factors)

    if not hs:
        return []

    # g in terms of the kernel generators, unique mod each m_i
    gamma = coordinates(g)
    assert gamma is not None, "maximal-order element must lie in its own kernel"

    split = None
    for i in range(len(hs) - 1, -1, -1):
        if ms[i] == big and gamma[i] % ell:
            split = i
            break
    assert split is not None, "no unit coordinate at maximal order"

    rest = [hs[i] for i in range(len(hs)) if i != split]
    rest_orders = [ms[i] for i in range(len(hs)) if i != split]
    sub_gram = [[t % den for t in row] for row in _pair_all(gram, rest)]
    sub = _isotropic_primary(ell, rest_orders, sub_gram, den)

    out = [(tuple(g), big)]
    for coeffs_sub, order in sub:
        vec = group.zero
        for c, h in zip(coeffs_sub, rest):
            vec = group.add(vec, group.scale(c, h))
        out.append((vec, order))
    return out


# ---------------------------------------------------------------------------
# brute-force oracle

def _lex_sums(parts: Sequence[Sequence[int]]) -> list[int]:
    """For every element x in lexicographic order, sum_i parts[i][x_i]."""
    sums = [0]
    for part in parts:
        sums = [s + c for s in sums for c in part]
    return sums


_BRUTE_FORCE_ORDER_CAP = 4096
_BRUTE_FORCE_WORK_CAP = 200000


def brute_force_isotropic_max(p: AlternatingPairing):
    """(max order, witness subgroup elements) by closing isotropic subgroups.

    Walks the poset of isotropic subgroups upward from cyclic ones; every
    isotropic subgroup is reached since all its intermediate joins stay
    inside it. GroupTooLarge signals the exact answer was not reached: the
    group has more than _BRUTE_FORCE_ORDER_CAP elements, or the walk took
    more than _BRUTE_FORCE_WORK_CAP join attempts.

    Elements are their lexicographic indices, so x + y has the mixed-radix
    index sum_i ((x_i + y_i) mod d_i) * stride_i, and one table row per
    element is built from per-coordinate digit lists. The elements
    orthogonal to x form a bitmask built from the single row x * gram, so
    a subgroup joins x only if its own bitmask lies inside that of x.
    """
    group = p.group
    _require_valid(p)
    if group.order > _BRUTE_FORCE_ORDER_CAP:
        raise GroupTooLarge(f"group order {group.order} exceeds cap {_BRUTE_FORCE_ORDER_CAP}")
    factors = group.invariant_factors
    elems = list(group.elements())
    size = len(elems)
    expo = group.exponent
    strides = [math.prod(factors[i + 1:]) for i in range(group.ngens)]
    add = [_lex_sums([[(a + xi) % d * stride for a in range(d)]
                      for xi, d, stride in zip(x, factors, strides)]) for x in elems]
    # bit y of orth[x] is set when x pairs to zero with y; values are kept
    # as integers mod the exponent
    gi = [[int(v * expo) for v in row] for row in p.gram]
    orth = []
    for x in elems:
        row = [sum(xi * g[j] for xi, g in zip(x, gi)) for j in range(group.ngens)]
        values = _lex_sums([[w * a for a in range(d)] for w, d in zip(row, factors)])
        orth.append(int("".join("0" if v % expo else "1" for v in reversed(values)), 2))
    # one candidate per isotropic cyclic subgroup (B(x,x)=0 makes the whole
    # cyclic subgroup isotropic by bilinearity), smallest generator index
    candidates = []
    seen_cyclic = set()
    for i in range(1, size):
        if not orth[i] >> i & 1:
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
    queue = [(1, start)]  # (bitmask, members) of each subgroup
    best = (1, start)
    work = 0
    while queue:
        nxt = []
        for mask, sub in queue:
            for x, cyc in candidates:
                if mask >> x & 1:
                    continue
                work += 1
                if work > _BRUTE_FORCE_WORK_CAP:
                    raise GroupTooLarge(f"join attempts exceeded cap {_BRUTE_FORCE_WORK_CAP}")
                if mask & ~orth[x]:
                    continue
                # sub + <x> is the union of the cosets sub + t for the
                # multiples t of x up to the first one inside sub
                members = list(sub)
                for t in cyc[1:]:
                    if mask >> t & 1:
                        break
                    row = add[t]
                    members.extend(row[s] for s in sub)
                joined = frozenset(members)
                if joined in seen:
                    continue
                seen.add(joined)
                nxt.append((sum(1 << s for s in joined), joined))
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
    group is presented with invariant factors in a divisibility chain; a
    scalar lift (order 1) is the trivial element and drops out.
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
            log = s.descriptor.root_of_unity_log(s.payload)
            raw[i][j] = log % 1
    for i in range(n):
        for j in range(n):
            if (raw[i][j] + raw[j][i]) % 1:
                raise InvalidPairing("commutator values are not antisymmetric")
            if orders[i] * raw[i][j] % 1:
                raise InvalidPairing(
                    "commutator value not killed by the projective order")

    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rel = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
    structure, torsion_gens, free_gens = abelian_quotient(ident, rel, n)
    assert not free_gens
    group = FiniteAbelianGroup(structure.invariant_factors)
    gram = [[sum((Fraction(a[i] * b[j]) * raw[i][j] for i in range(n) for j in range(n)),
                 Fraction(0))
             for b in torsion_gens] for a in torsion_gens]
    result = CommutatorPairingResult(AlternatingPairing(group, gram), tuple(orders),
                                     tuple(tuple(t) for t in torsion_gens))
    check = validate_pairing(result.pairing)
    if not check:
        raise InvalidPairing(f"induced pairing invalid: {check.message}")
    return result


def matrix_commutator_pairing(matrices: Sequence, order_bound: int = 64) -> CommutatorPairingResult:
    """Commutator pairing for lifts given as square matrices over one field,
    run on their payload rows."""
    from functools import partial

    from . import fieldmatrix  # only here: the integer paths load no field layer
    from .scalars import FieldElement
    d = fieldmatrix.mat_descriptor(matrices[0]) if matrices else None
    if any(fieldmatrix._square(m) != len(matrices[0]) for m in matrices):
        raise fieldmatrix.MatrixError("shape mismatch")

    def scalar_part(a):
        c = fieldmatrix._scalar_of(d, a)
        return None if c is None else FieldElement(d, c)

    return commutator_pairing_from_central_extension(
        [fieldmatrix._payload_rows(m, d) for m in matrices],
        mul=partial(fieldmatrix._mul, d),
        inv=partial(fieldmatrix._inverse, d),
        scalar_part=scalar_part,
        order_bound=order_bound)


# ---------------------------------------------------------------------------
# randomized pairing generator for property tests

def random_pairing(rng, max_order: int = 256, max_gens: int = 4) -> AlternatingPairing:
    """Seeded random valid pairing on a group of bounded order."""
    if max_order < 2:  # every draw has a factor >= 2, so none would fit
        raise PairingError(f"max_order must be >= 2, got {max_order}")
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
            gram[j][i] = -gram[i][j] % 1
    return AlternatingPairing(group, gram)
