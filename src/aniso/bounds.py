"""Numeric bound calculators and divisibility checkers.

Covers the classical least-common-multiple bound for finite subgroups of
integer matrix groups, the torsion-prime table keyed by Dynkin type, the
exponent-to-order divisibility theorem for finite matrix groups, and the
composite divisor bounds for tori, reductive groups, division-algebra
automorphisms, and pointless quadrics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import fieldmatrix
from .errors import AnisoError
from .integers import _split_prime_power
from .lattice import closure, closure_orders
from .scalars import Field, FieldDescriptor, _is_prime, _primes_upto


class BoundsError(AnisoError):
    pass


class UnknownType(BoundsError):
    pass


class GroupTooLarge(BoundsError):
    pass


class MissingParameter(BoundsError):
    pass


class HypothesisFails(BoundsError):
    """The exponent hypothesis fails on some element of coprime order."""


# ---------------------------------------------------------------------------
# integer matrix group bounds

_MAX_ORDER_TABLE = {1: 2, 2: 12, 3: 48}


@dataclass(frozen=True)
class MinkowskiValues:
    n: int
    upsilon_a: Optional[int]
    upsilon_m: int

    @property
    def upsilon_a_known(self) -> bool:
        return self.upsilon_a is not None


def minkowski_values(n: int) -> MinkowskiValues:
    """Bounds for finite subgroups of the n x n integer matrix group.

    upsilon_m is the least common multiple of all finite subgroup orders,
    computed from the prime-by-prime floor formula; upsilon_a is the
    maximal single order, known from the table only for n <= 3.
    """
    if n < 1:
        raise BoundsError("n must be positive")
    upsilon_m = 1
    for p in _primes_upto(n + 1):
        exponent = 0
        block = p - 1
        while block <= n:
            exponent += n // block
            block *= p
        upsilon_m *= p ** exponent
    for p in _primes_upto(n + 1):
        if upsilon_m % p:
            raise BoundsError("internal consistency: missing prime factor")
    return MinkowskiValues(n=n, upsilon_a=_MAX_ORDER_TABLE.get(n),
                           upsilon_m=upsilon_m)


# ---------------------------------------------------------------------------
# torsion primes by Dynkin type

def torsion_primes(type_list: Iterable[tuple[str, int]]) -> frozenset:
    """Union of torsion-prime sets over quasi-simple factors.

    Types A and C contribute nothing; B, D, and G2 contribute 2;
    F4, E6, and E7 contribute {2, 3}; E8 contributes {2, 3, 5}.
    """
    out: set[int] = set()
    for entry in type_list:
        letter, rank = entry
        letter = letter.upper()
        if letter in ("A", "B", "C"):
            if rank < 1:
                raise UnknownType(f"{letter}_{rank} is not a valid type")
            if letter in ("B",):
                out |= {2}
        elif letter == "D":
            if rank < 2:
                raise UnknownType(f"D_{rank} is not a valid type")
            out |= {2}
        elif letter == "G":
            if rank != 2:
                raise UnknownType(f"G_{rank} is not a valid type")
            out |= {2}
        elif letter == "F":
            if rank != 4:
                raise UnknownType(f"F_{rank} is not a valid type")
            out |= {2, 3}
        elif letter == "E":
            if rank in (6, 7):
                out |= {2, 3}
            elif rank == 8:
                out |= {2, 3, 5}
            else:
                raise UnknownType(f"E_{rank} is not a valid type")
        else:
            raise UnknownType(f"unknown Dynkin letter {letter!r}")
    return frozenset(out)


# ---------------------------------------------------------------------------
# explicit finite matrix groups and the exponent-order theorem

class FiniteMatrixGroup:
    """An explicit finite group of invertible matrices over an exact field.

    One lattice.closure over the list, refusing singular generators, reaches
    every element; it fits in len(elements) exactly when the list is a group.
    """

    def __init__(self, descriptor: FieldDescriptor, elements: Sequence):
        if not elements:
            raise BoundsError("a group needs at least the identity")
        self.descriptor = descriptor
        self.field = Field(descriptor)
        self.elements = list(elements)
        self.degree = n = len(self.elements[0])
        ident = fieldmatrix.identity(self.field, n)
        index = {}
        for pos, m in enumerate(self.elements):
            if len(m) != n or any(len(row) != n for row in m):
                raise BoundsError("mixed matrix shapes in one group")
            if m in index:
                raise BoundsError("duplicate element in group list")
            index[m] = pos
        if ident not in index:
            raise BoundsError("identity matrix missing")
        found, right = closure(ident, self.elements, fieldmatrix.mat_mul, len(self.elements),
                               BoundsError("element list is not closed under multiplication"),
                               _refuse_singular)
        at = [0] * len(found)  # found is the list, reordered breadth first
        for c, m in enumerate(found):
            at[index[m]] = c
        self._cayley = right, at

    @classmethod
    def from_generators(cls, descriptor: FieldDescriptor, generators,
                        cap: int = 100000) -> "FiniteMatrixGroup":
        if not generators:
            raise BoundsError("need at least one generator")
        ident = fieldmatrix.identity(Field(descriptor), len(generators[0]))
        gens = [fieldmatrix.mat_from_rows([list(r) for r in g])
                for g in generators]
        elements, right = closure(ident, gens, fieldmatrix.mat_mul, cap,
                                  GroupTooLarge(f"closure exceeded cap {cap}"))
        for g in gens:  # a closure is closed: only a singular generator is refused
            _refuse_singular(g)
        group = object.__new__(cls)
        group.descriptor, group.field, group.elements, group.degree = (
            descriptor, Field(descriptor), elements, len(ident))
        group._cayley = right, range(len(elements))
        return group

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def _cayley(self):
        """(right, at): the Cayley graph of the closure of the list over its
        kept generators (lattice.closure) and the closure index of each
        listed element. The constructors record it; an object built around
        a list that is no group finds the closure outgrowing the list."""
        found, right = closure(fieldmatrix.identity(self.field, self.degree), self.elements,
                               fieldmatrix.mat_mul, self.order,
                               BoundsError("element order exceeds the group order"))
        index = {m: c for c, m in enumerate(found)}
        return right, [index[m] for m in self.elements]

    def element_orders(self) -> list[int]:
        """The order of every element, in list order, walked by index
        through the Cayley graph (lattice.closure_orders), with no product."""
        right, at = self._cayley
        orders = closure_orders(right)
        return [orders[c] for c in at]


def _refuse_singular(m) -> None:
    if fieldmatrix.mat_rank(m) < len(m):
        raise BoundsError("singular matrix in group list")


def coprime_part(value: int, p: int) -> int:
    """Largest factor of value not divisible by p; value itself when p = 0."""
    if p <= 0:
        return value
    if p == 1:
        raise BoundsError("every integer is divisible by p = 1")
    if value == 0:
        raise BoundsError("0 is divisible by every power of p")
    return _split_prime_power(value, p)[0]


@dataclass(frozen=True)
class BurnsideReport:
    group_order: int
    degree: int
    d: int
    characteristic: int
    coprime_order: int
    bound: int
    hypothesis_holds: bool
    violating_orders: tuple
    divides: Optional[bool]


def burnside_divisibility_check(group: FiniteMatrixGroup, d: int,
                                strict: bool = False) -> BurnsideReport:
    """Exponent hypothesis and order conclusion for a finite matrix group.

    If every element of order coprime to the characteristic satisfies
    g^d = 1, the part of the group order coprime to the characteristic
    must divide d^degree. A failed hypothesis is reported (or raised with
    strict=True); a failed conclusion under a true hypothesis is an
    implementation bug and raises.
    """
    if d < 1:
        raise BoundsError("d must be positive")
    p = group.field.characteristic
    violating = []
    for order in group.element_orders():
        if p and order % p == 0:
            continue
        if d % order:
            violating.append(order)
    hypothesis = not violating
    coprime = coprime_part(group.order, p)
    bound = d ** group.degree
    divides: Optional[bool] = None
    if hypothesis:
        divides = bound % coprime == 0
        if not divides:
            raise BoundsError("conclusion failed under a true hypothesis; "
                              "this indicates an implementation bug")
    elif strict:
        raise HypothesisFails(f"element orders {sorted(set(violating))} "
                              f"do not divide {d}")
    return BurnsideReport(group_order=group.order, degree=group.degree, d=d,
                          characteristic=p, coprime_order=coprime,
                          bound=bound, hypothesis_holds=hypothesis,
                          violating_orders=tuple(sorted(set(violating))),
                          divides=divides)


# ---------------------------------------------------------------------------
# composite divisor bounds

BOUND_KINDS = ("torus", "reductive_perfect", "general_lag",
               "semisimple_char_p", "severi_brauer", "quadric_odd",
               "quadric_even")


@dataclass(frozen=True)
class BoundQuery:
    kind: str
    n: Optional[int] = None
    r: Optional[int] = None
    N: Optional[int] = None
    p: Optional[int] = None
    m: Optional[int] = None


@dataclass(frozen=True)
class BoundResult:
    query: BoundQuery
    divisor_bound: int
    meaning: str


def _need(query: BoundQuery, *names: str) -> list[int]:
    out = []
    for name in names:
        value = getattr(query, name)
        if value is None:
            raise MissingParameter(f"kind {query.kind!r} needs parameter "
                                   f"{name!r}")
        if value < 1 and name != "m":
            raise BoundsError(f"parameter {name!r} must be positive")
        if name == "m" and value < 0:
            raise BoundsError("parameter 'm' must be non-negative")
        out.append(value)
    return out


def bound_calculator(query: BoundQuery) -> BoundResult:
    """The exact integer divisor bound for a supported scenario."""
    kind = query.kind
    if kind == "torus":
        (n,) = _need(query, "n")
        um = minkowski_values(n).upsilon_m
        return BoundResult(query, um ** n,
                           f"order of a finite subgroup of an anisotropic "
                           f"rank-{n} torus divides {um}^{n}")
    if kind == "reductive_perfect":
        n, r, big_n = _need(query, "n", "r", "N")
        um = minkowski_values(n).upsilon_m
        return BoundResult(query, r * um ** big_n,
                           f"order of a finite subgroup divides "
                           f"{r}*{um}^{big_n} for anisotropic reductive "
                           f"groups over perfect fields")
    if kind == "general_lag":
        n, r, big_n = _need(query, "n", "r", "N")
        um = minkowski_values(n).upsilon_m
        return BoundResult(query, r * um ** big_n,
                           f"part of the subgroup order coprime to the "
                           f"characteristic divides {r}*{um}^{big_n}")
    if kind == "semisimple_char_p":
        n, r, big_n, p, m = _need(query, "n", "r", "N", "p", "m")
        if not _is_prime(p):
            raise BoundsError(f"parameter 'p' must be prime, got {p}")
        um = minkowski_values(n).upsilon_m
        return BoundResult(query, r * um ** big_n,
                           f"subgroups split as a normal part of order "
                           f"coprime to {p} dividing {r}*{um}^{big_n}, "
                           f"extended by an abelian {p}-group of exponent "
                           f"at most {p}^{m}")
    if kind == "severi_brauer":
        (n,) = _need(query, "n")
        return BoundResult(query, n * n,
                           f"finite automorphism groups are abelian of "
                           f"exponent dividing {n} and order dividing "
                           f"{n}^2 when the algebra is division")
    if kind == "quadric_odd":
        (n,) = _need(query, "n")
        if n % 2 == 0 or n < 3:
            raise BoundsError("quadric_odd needs odd n >= 3")
        return BoundResult(query, 2 ** (n - 1),
                           f"finite automorphism groups of a pointless "
                           f"quadric in {n} variables are elementary "
                           f"abelian 2-groups of order dividing 2^{n - 1}")
    if kind == "quadric_even":
        (n,) = _need(query, "n")
        if n % 2 or n < 4:
            raise BoundsError("quadric_even needs even n >= 4")
        return BoundResult(query, 8 ** (n - 1),
                           f"order of a finite automorphism group of a "
                           f"pointless quadric in {n} variables divides "
                           f"8^{n - 1}")
    raise BoundsError(f"unknown bound kind {kind!r}; expected one of "
                      f"{BOUND_KINDS}")


def pi1_order_split(order_and_p: tuple[int, int]) -> tuple[int, int]:
    """Factor order = l * p^m with l coprime to p; returns (l, m)."""
    order, p = order_and_p
    if order < 1:
        raise BoundsError("order must be positive")
    if p < 2:
        raise BoundsError("p must be a prime")
    return _split_prime_power(order, p)
