"""Brute-force reference routines that the tests compare the library against.

Each one enumerates a whole finite space, so each keeps its own cap and
raises before it starts a scan past it. None of them is part of the
library: the library answers the same questions in closed form.
"""

import itertools
from typing import Iterator, Optional

from aniso import fieldmatrix
from aniso.bounds import BoundsError, FiniteMatrixGroup
from aniso.pairing import AlternatingPairing, GroupTooLarge
from aniso.quadform import QuadraticForm, is_nondegenerate
from aniso.scalars import (Field, FieldDescriptor, FieldElement, FieldTooLarge,
                           ScalarError, _FiniteField, least_power)
from aniso.torus import TorusError, TorusModel


class EnumerationTooLarge(TorusError):
    pass


# ---------------------------------------------------------------------------
# scalars

def artin_schreier_image(field: Field, max_size: int = 16) -> list[FieldElement]:
    """The set {c^2 - c : c in F} for F of characteristic 2, sorted in the
    canonical element order. Enumeration is capped (default 16 elements)."""
    d = field.descriptor
    if d.characteristic != 2 or not isinstance(d, _FiniteField):
        raise ScalarError("Artin-Schreier image needs a finite field of characteristic 2")
    q = field.size()
    if q > max_size:
        raise FieldTooLarge(f"field has {q} elements, cap is {max_size}")
    seen = []
    for c in field.elements():
        v = c * c - c
        if v not in seen:
            seen.append(v)
    return sorted(seen, key=lambda e: e.payload)


# ---------------------------------------------------------------------------
# quadratic forms

def represents_zero_exhaustive(q: QuadraticForm,
                               cap: int = 65536) -> Optional[tuple]:
    """A nonzero vector with q = 0, or None; scans the whole space."""
    size = q.field.size()
    if size is None:
        raise FieldTooLarge("exhaustive search needs a finite field")
    if size ** q.dim > cap:
        raise FieldTooLarge(f"{size}^{q.dim} vectors exceed the cap {cap}")
    for vec in itertools.product(q.field.elements(), repeat=q.dim):
        if all(x.is_zero for x in vec):
            continue
        if q.evaluate(vec).is_zero:
            return vec
    return None


def enumerate_nondegenerate_forms(descriptor: FieldDescriptor, dim: int,
                                  cap: int = 65536) -> Iterator[QuadraticForm]:
    """All nondegenerate forms of the given dimension, fixed order."""
    field = Field(descriptor)
    size = field.size()
    if size is None:
        raise FieldTooLarge("enumeration needs a finite field")
    slots = [(i, j) for i in range(dim) for j in range(i, dim)]
    if size ** len(slots) > cap:
        raise FieldTooLarge("form space exceeds the cap")
    for values in itertools.product(field.elements(), repeat=len(slots)):
        q = QuadraticForm(descriptor, dim, dict(zip(slots, values)))
        if is_nondegenerate(q):
            yield q


def invertible_matrices(descriptor: FieldDescriptor, dim: int,
                        cap: int = 65536) -> Iterator[tuple]:
    """All invertible dim x dim matrices over a finite field, fixed order."""
    field = Field(descriptor)
    size = field.size()
    if size is None or size ** (dim * dim) > cap:
        raise FieldTooLarge("matrix space exceeds the cap")
    for values in itertools.product(field.elements(), repeat=dim * dim):
        rows = [values[r * dim:(r + 1) * dim] for r in range(dim)]
        m = fieldmatrix.mat_from_rows(rows)
        if not fieldmatrix.mat_det(m).is_zero:
            yield m


def forms_equivalent_bruteforce(q1: QuadraticForm, q2: QuadraticForm,
                                cap: int = 65536) -> bool:
    """Equivalence test by scanning every invertible change of basis."""
    if q1.descriptor != q2.descriptor or q1.dim != q2.dim:
        return False
    for m in invertible_matrices(q1.descriptor, q1.dim, cap):
        if q1.transform(m) == q2:
            return True
    return False


# ---------------------------------------------------------------------------
# tori

def enumerate_invariant_cosets(t: TorusModel, d: int,
                               cap: int = 10 ** 6) -> list[tuple[int, ...]]:
    """All vectors in (Z/d)^n fixed mod d by every generator, zero included."""
    if d < 2:
        raise TorusError("modulus must be >= 2")
    if d ** t.rank > cap:
        raise EnumerationTooLarge(f"{d}^{t.rank} exceeds cap {cap}")
    out = []
    # first coordinate varying fastest
    for high_first in itertools.product(range(d), repeat=t.rank):
        v = high_first[::-1]
        if all(tuple(x % d for x in g.apply(v)) == v for g in t.theta_generators):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# pairings

def pairing_radical_by_enumeration(p: AlternatingPairing,
                                   cap: int = 4096) -> list[tuple[int, ...]]:
    """All elements pairing trivially with the generators, in lexicographic
    order, by a scan of the whole group."""
    if p.group.order > cap:
        raise GroupTooLarge(f"group order {p.group.order} exceeds cap {cap}")
    gens = [tuple(1 if i == j else 0 for j in range(p.group.ngens))
            for i in range(p.group.ngens)]
    return [x for x in p.group.elements()
            if all(p.value(x, e) == 0 for e in gens)]


# ---------------------------------------------------------------------------
# finite matrix groups

def closed_under_all_products(elements, cap: int = 2000) -> bool:
    """Whether every product a @ b of two listed matrices is listed, by
    all |G|^2 products."""
    if len(elements) > cap:
        raise BoundsError(f"{len(elements)} elements exceed the cap {cap}")
    index = set(elements)
    return all(fieldmatrix.mat_mul(a, b) in index
               for a in elements for b in elements)


def element_orders_by_least_power(group: FiniteMatrixGroup) -> list[int]:
    """The order of each element in list order, one power scan each."""
    ident = fieldmatrix.identity(group.field, group.degree)
    orders = []
    for m in group.elements:
        found = least_power(m, fieldmatrix.mat_mul, lambda a: a == ident, group.order)
        if found is None:
            raise BoundsError("element order exceeds the group order")
        orders.append(found[0])
    return orders
