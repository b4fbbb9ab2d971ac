"""Tori modeled as integer lattices with a finite matrix group acting.

A torus over a field with enough roots of unity is captured, for every
purpose of this package, by its rank-n lattice of one-parameter subgroups
together with the finite group of integer matrices acting on it. The field
never appears: all questions (anisotropy, torsion, exponent bounds) reduce
to exact integer linear algebra, and this module imports no field
arithmetic.

Each model caches the one certified Smith form of its stacked g - 1 (Cohen,
GTM 138, §2.4). Its diagonal s_1 | ... | s_n and V answer every question
here for every modulus: anisotropy is "every s_i ≠ 0", and the d-torsion
is read off in O(n^2) per d.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import AnisoError, _exact_int
from .lattice import (AbelianGroupStructure, ClosureCapExceeded, IntMatrix,
                      NotUnimodular, _int_tuple, _kernel_from_smith, _stack_smith, cayley_table,
                      closure, closure_cap, group_closure)


class TorusError(AnisoError):
    pass


class TrivialGroup(TorusError):
    pass


class NotAnisotropic(TorusError):
    pass


class NotInvariant(TorusError):
    pass


class OrderMismatch(TorusError):
    pass


class CharDividesOrder(TorusError):
    pass


class BadGroupTable(TorusError):
    pass


def _refuse_non_unimodular(gens: Sequence[IntMatrix]) -> None:
    if any(abs(g.det()) != 1 for g in gens):
        raise TorusError("generators must be invertible over the integers")


class TorusModel:
    """Rank-n lattice with a finite action; immutable after construction.

    characteristic is the characteristic of the intended base field
    scenario (0 if none); torsion orders are required to be coprime to it.
    norm_group_order is set by norm_quotient_torus and tightens the
    exponent bound that exponent_bound_check verifies. The Smith form of
    the stacked g - 1 is computed on first use and kept (stack_smith).
    """

    def __init__(self, rank: int, theta_generators: Sequence[IntMatrix],
                 label: str = "", characteristic: int = 0,
                 norm_group_order: Optional[int] = None,
                 cap: Optional[int] = None):
        if rank < 1:
            raise TorusError("rank must be positive")
        gens = tuple(theta_generators)
        if not gens:
            gens = (IntMatrix.identity(rank),)
        for k, g in enumerate(gens):
            if g.rows != rank or g.cols != rank:
                _refuse_non_unimodular(gens[:k])
                raise TorusError("generator size does not match rank")
        self.rank = rank
        self.theta_generators = gens
        self.label = label
        self.characteristic = characteristic
        self.norm_group_order = norm_group_order
        # The closure admits each kept generator through int_inverse, in
        # order, and a skipped one is a product of those admitted: so the
        # first generator it refuses is the first one that is not unimodular.
        try:
            self.theta_elements = group_closure(gens, cap)
        except NotUnimodular:
            raise TorusError("generators must be invertible over the integers") from None
        except ClosureCapExceeded:
            _refuse_non_unimodular(gens)  # the generators past the cap go unchecked
            raise

    @property
    def theta_order(self) -> int:
        return len(self.theta_elements)

    @functools.cached_property
    def stack_smith(self) -> tuple[tuple[int, ...], IntMatrix]:
        """Diagonal s_1 | ... | s_n and V of the certified Smith form of the
        given generators' stacked g - 1; the stack has at least n rows, so
        the diagonal has length n."""
        return _stack_smith(self.theta_generators)

    def __repr__(self):
        tag = self.label or "torus"
        return f"TorusModel({tag!r}, rank={self.rank}, theta order {self.theta_order})"

    def to_json(self) -> dict:
        out = {"rank": str(self.rank),
               "theta_generators": [g.to_json() for g in self.theta_generators],
               "label": self.label}
        if self.characteristic:
            out["characteristic"] = str(self.characteristic)
        if self.norm_group_order is not None:
            out["norm_group_order"] = str(self.norm_group_order)
        return out

    @staticmethod
    def from_json(obj: dict) -> "TorusModel":
        gens = [IntMatrix.from_json(g) for g in obj["theta_generators"]]
        order = obj.get("norm_group_order")
        return TorusModel(
            _exact_int(obj["rank"]), gens, obj.get("label", ""),
            characteristic=_exact_int(obj.get("characteristic", 0)),
            norm_group_order=None if order is None else _exact_int(order))


def is_anisotropic(t: TorusModel) -> bool:
    """True iff no nonzero lattice vector is fixed by the whole action: the
    fixed vectors are V's columns at the zero diagonal entries."""
    return all(t.stack_smith[0])


@dataclass(frozen=True)
class TorsionReport:
    d: int
    group: AbelianGroupStructure
    witnesses: tuple[tuple[int, ...], ...]
    divisibility_check: bool


def torsion_points(t: TorusModel, d: int) -> TorsionReport:
    """Structure of the d-torsion fixed by the action, with witnesses.

    The d-torsion of the torus is the lattice tensored with d-th roots of
    unity; with all those roots in the base field the rational points are
    exactly the action-invariant vectors mod d. The report also records
    whether the group exponent divides the acting group's order, which
    must hold whenever the torus is anisotropic.
    """
    if t.characteristic and d % t.characteristic == 0:
        raise CharDividesOrder(
            f"torsion order {d} not coprime to characteristic {t.characteristic}")
    structure, witnesses = _kernel_from_smith(*t.stack_smith, d)
    exponent = structure.exponent
    check = exponent is not None and t.theta_order % exponent == 0
    return TorsionReport(d, structure, tuple(witnesses), check)


def coset_order(vbar: Sequence[int], d: int) -> int:
    """Order of the class of vbar in (Z/d)^n."""
    return d // math.gcd(d, *_int_tuple(vbar, TorusError))


@dataclass(frozen=True)
class AveragingCertificate:
    """Machine check that an invariant class of exact order d forces d | #Θ.

    The lift v is summed over the whole acting group; anisotropy forces the
    invariant sum w to vanish, while invariance of the class makes w congruent
    to (#Θ)·v mod d. Both facts are recomputed here rather than trusted.
    """
    d: int
    lift: tuple[int, ...]
    theta_order: int
    sum_vector: tuple[int, ...]
    sum_is_zero: bool
    multiple_vanishes: bool
    d_divides_theta_order: bool

    @property
    def holds(self) -> bool:
        return self.sum_is_zero and self.multiple_vanishes and self.d_divides_theta_order


def averaging_certificate(t: TorusModel, d: int,
                          vbar: Sequence[int]) -> AveragingCertificate:
    if d < 2:
        raise TorusError("modulus must be >= 2")
    if len(vbar) != t.rank:
        raise TorusError("coset vector length does not match rank")
    if not is_anisotropic(t):
        raise NotAnisotropic("certificate requires an anisotropic torus")
    v = tuple(x % d for x in _int_tuple(vbar, TorusError))
    for g in t.theta_generators:
        if tuple(x % d for x in g.apply(v)) != v:
            raise NotInvariant(f"{v} is moved mod {d} by a generator")
    if coset_order(v, d) != d:
        raise OrderMismatch(
            f"class of {v} has order {coset_order(v, d)}, expected exactly {d}")
    w = [0] * t.rank
    for g in t.theta_elements:
        gv = g.apply(v)
        w = [a + b for a, b in zip(w, gv)]
    w = tuple(w)
    order = t.theta_order
    sum_is_zero = all(x == 0 for x in w)
    multiple_vanishes = all((order * x) % d == 0 for x in v)
    cert = AveragingCertificate(d, v, order, w, sum_is_zero,
                                multiple_vanishes, order % d == 0)
    assert cert.holds, "averaging identity failed on a checked-valid input"
    return cert


# ---------------------------------------------------------------------------
# finite groups by multiplication table, and the norm-quotient construction

def validate_group_table(table: Sequence[Sequence[int]]) -> None:
    """Table rows give products: table[i][j] = index of g_i g_j, identity 0.

    Associativity is Light's test (Clifford–Preston, The Algebraic Theory of
    Semigroups I, §1.2): (xy)g = x(yg) for all x, y and each g of a
    generating set, here the generators the closure keeps. The a with
    (xy)a = x(ya) for all x, y hold the identity and are closed under
    products, so they are the whole table. That costs n²k lookups, k <=
    log2 n on a group, instead of n³.
    """
    n = len(table)
    if n < 1:
        raise BadGroupTable("empty table")
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise BadGroupTable("table is not square over valid indices")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise BadGroupTable("index 0 must act as the identity")
        if sorted(table[i]) != list(range(n)) or sorted(r[i] for r in table) != list(range(n)):
            raise BadGroupTable("table rows and columns must be permutations")
    # the labels are 0..n-1, so the cap n is never hit
    elements, right = closure(0, range(n), lambda x, g: table[x][g], n,
                              BadGroupTable("closure exceeded the table"))
    for g in (elements[i] for i in right[0]):
        times_g = [row[g] for row in table]  # y -> yg
        for row in table:  # y -> xy
            if any(times_g[xy] != row[yg] for xy, yg in zip(row, times_g)):
                raise BadGroupTable("associativity fails")


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(k: int) -> list[list[int]]:
    """Multiplication table of all permutations of k letters, identity first.

    Elements are ordered lexicographically as tuples; composition is
    (s*t)(i) = s(t(i)).
    """
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(s[t[i]] for i in range(k))] for t in perms] for s in perms]


def table_from_permutation_generators(generators: Sequence[Sequence[int]],
                                      cap: Optional[int] = None) -> list[list[int]]:
    """Close permutation generators and return the multiplication table.

    Permutations are given in one-line notation on 0..m-1 and act on the
    group they generate by composition; the identity gets index 0.
    """
    if not generators:
        raise TrivialGroup("no generators")
    m = len(generators[0])
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(m)):
            raise BadGroupTable("generator is not a permutation")
    limit = closure_cap(cap)

    def compose(s, t):
        return tuple(s[t[i]] for i in range(m))

    _, right = closure(tuple(range(m)), gens, compose, limit,
                       ClosureCapExceeded(f"group exceeded cap {limit}"))
    return cayley_table(right)


def norm_quotient_torus(table: Sequence[Sequence[int]],
                        label: str = "") -> TorusModel:
    """Torus of norm-one directions for the regular action of a finite group.

    The lattice is the augmentation ideal of Z[G] (the elements whose
    coefficients sum to zero), of rank |G| - 1, with basis the differences
    (g - identity) for g != identity. Left multiplication by s sends that
    basis vector to (sg - identity) minus (s - identity).
    """
    validate_group_table(table)
    n = len(table)
    if n < 2:
        raise TrivialGroup("need a group of order at least 2")
    rank = n - 1

    def action_matrix(s: int) -> IntMatrix:
        cols = []
        for g in range(1, n):
            col = [0] * rank
            sg = table[s][g]
            if sg != 0:
                col[sg - 1] += 1
            if s != 0:
                col[s - 1] -= 1
            cols.append(col)
        return IntMatrix(tuple(zip(*cols)))

    gens = [action_matrix(s) for s in range(1, n)]
    if not label:
        label = f"norm-quotient torus of a group of order {n}"
    return TorusModel(rank, gens, label, norm_group_order=n)


@dataclass(frozen=True)
class ExponentBoundReport:
    d_range: int
    theta_order: int
    group_bound: Optional[int]
    rows: tuple[tuple[int, int], ...]  # (d, exponent of d-torsion)
    all_pass: bool


def exponent_bound_check(t: TorusModel, d_range: int) -> ExponentBoundReport:
    """Check for every d up to d_range that the d-torsion exponent divides
    the acting group's order (and the norm group order when present).

    One Smith form of the stacked g - 1, with diagonal s_1 | ... | s_n,
    answers every d: the torus is anisotropic iff every s_i ≠ 0, and then
    the d-torsion exponent is gcd(s_n, d). Proof: the invariant d-torsion
    is ⊕ Z/gcd(s_i, d) (see kernel_mod_d); s_i | s_n makes each gcd(s_i, d)
    divide gcd(s_n, d), so the largest order, the exponent, is gcd(s_n, d).
    """
    diag, _ = t.stack_smith
    if not all(diag):
        raise NotAnisotropic("exponent bounds only hold for anisotropic tori")
    rows = []
    ok = True
    for d in range(2, d_range + 1):
        if t.characteristic and d % t.characteristic == 0:
            continue
        e = math.gcd(diag[-1], d)
        rows.append((d, e))
        if t.theta_order % e:
            ok = False
        if t.norm_group_order is not None and t.norm_group_order % e:
            ok = False
    return ExponentBoundReport(d_range, t.theta_order, t.norm_group_order,
                               tuple(rows), ok)
