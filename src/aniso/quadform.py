"""Quadratic forms over exact fields.

Forms are stored as upper-triangular coefficient dictionaries. The module
provides the associated bilinear form, diagonalization away from
characteristic 2, the canonical normal form with its Arf parameter over
finite fields of characteristic 2, extraction of an isotropic vector from
an isometry of order p in characteristic p, order checks for projective
isometries, and the multiplier-form construction that yields non-abelian
finite isometry groups of pointless quadrics in dimension 2^k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from . import fieldmatrix
from .errors import AnisoError, _exact_int
from .integers import least_power
from .lattice import cayley_table, closure, closure_orders
from .scalars import (
    Field,
    FieldDescriptor,
    FieldElement,
    descriptor_from_json,
    descriptor_to_json,
    element_from_json,
    element_to_json,
    function_field,
    rationals,
)


class QuadFormError(AnisoError):
    pass


class DegenerateForm(QuadFormError):
    pass


class CharTwo(QuadFormError):
    pass


class WrongCharacteristic(QuadFormError):
    pass


class NotOrderP(QuadFormError):
    pass


class NotIsometry(QuadFormError):
    pass


class NotDiagonalizable(QuadFormError):
    pass


class OrderExceedsBound(QuadFormError):
    """An element order incompatible with the asserted anisotropy."""


class KTooLarge(QuadFormError):
    pass


class AllZeroCandidate(QuadFormError):
    pass


class ConsistencyAlarm(QuadFormError):
    """A computation reached a state the supporting theory rules out."""


# ---------------------------------------------------------------------------
# the form type

class QuadraticForm:
    """q(x) = sum of coeffs[(i, j)] * x_i * x_j over pairs i <= j."""

    __slots__ = ("descriptor", "field", "dim", "coeffs")

    def __init__(self, descriptor: FieldDescriptor, dim: int, coeffs):
        if dim < 1:
            raise QuadFormError("dimension must be positive")
        field = Field(descriptor)
        clean = {}
        for key, value in dict(coeffs).items():
            i, j = key
            if not (0 <= i <= j < dim):
                raise QuadFormError(f"coefficient index {key} outside the "
                                    f"upper triangle of dimension {dim}")
            c = field(value)
            if not c.is_zero:
                clean[(i, j)] = c
        self.descriptor = descriptor
        self.field = field
        self.dim = dim
        self.coeffs = clean

    def coeff(self, i: int, j: int) -> FieldElement:
        if i > j:
            i, j = j, i
        return self.coeffs.get((i, j), self.field.zero)

    def evaluate(self, vector: Sequence) -> FieldElement:
        """q(vector) on payloads: one d.dot of the pairs (c x_i, x_j) over
        the nonzero terms, in coefficient order. An entry of another field
        raises DescriptorMismatch, one that is no field element nor number
        TypeError."""
        if len(vector) != self.dim:
            raise QuadFormError(f"vector length {len(vector)} != dim {self.dim}")
        d = self.descriptor
        vec = []
        for x in vector:
            e = self.field(x)
            if e is NotImplemented:
                raise TypeError(f"{x!r} is not an element of {d!r}")
            vec.append(e.payload)
        mul, is_zero = d.mul, d.is_zero
        return FieldElement(d, d.dot([(mul(c.payload, vec[i]), vec[j])
                                      for (i, j), c in self.coeffs.items()
                                      if not (is_zero(vec[i]) or is_zero(vec[j]))]))

    def transform(self, matrix) -> "QuadraticForm":
        """The composed form x -> q(matrix @ x), on payloads: each
        coefficient is one d.dot of the pairs (c m_ik, m_jl) that land on
        it; an entry of another field raises DescriptorMismatch."""
        n = self.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise QuadFormError("change of basis has the wrong shape")
        d = self.descriptor
        mul, is_zero = d.mul, d.is_zero
        supports = [[(k, x) for k, x in enumerate(row) if not is_zero(x)]
                    for row in fieldmatrix._payload_rows(matrix, d)]
        pairs: dict = {}
        for (i, j), c in self.coeffs.items():
            for k, cik in supports[i]:
                ck = mul(c.payload, cik)
                for l, cjl in supports[j]:
                    pairs.setdefault((k, l) if k <= l else (l, k), []).append((ck, cjl))
        return QuadraticForm(d, n, {key: FieldElement(d, d.dot(ps)) for key, ps in pairs.items()})

    def scale(self, c) -> "QuadraticForm":
        c = self.field(c)
        return QuadraticForm(self.descriptor, self.dim,
                             {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.descriptor == other.descriptor and self.dim == other.dim
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.descriptor, self.dim,
                     tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        terms = []
        for (i, j), c in sorted(self.coeffs.items()):
            mono = f"x{i}^2" if i == j else f"x{i}*x{j}"
            terms.append(f"({c!r})*{mono}")
        body = " + ".join(terms) if terms else "0"
        return f"QuadraticForm(dim={self.dim}, {body})"

    def to_json(self) -> dict:
        return {
            "field": descriptor_to_json(self.descriptor),
            "dim": str(self.dim),
            "coeffs": {f"{i},{j}": element_to_json(c)
                       for (i, j), c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuadraticForm":
        descriptor = descriptor_from_json(obj["field"])
        coeffs = {}
        for key, val in obj["coeffs"].items():
            i, j = (_exact_int(part) for part in key.split(","))
            coeffs[(i, j)] = element_from_json(val, descriptor)
        return cls(descriptor, _exact_int(obj["dim"]), coeffs)


def associated_bilinear(q: QuadraticForm):
    """Gram matrix of (v, w) -> q(v + w) - q(v) - q(w).

    Symmetric always; in characteristic 2 the diagonal vanishes, so the
    matrix is alternating.
    """
    n, two = q.dim, q.field.from_int(2)
    return fieldmatrix.mat_from_rows([[two * q.coeff(i, i) if i == j else q.coeff(i, j)
                                       for j in range(n)] for i in range(n)])


def is_nondegenerate(q: QuadraticForm) -> bool:
    return not fieldmatrix.mat_det(associated_bilinear(q)).is_zero


def _bil(gram, x, y, field) -> FieldElement:
    """x^T gram y on payloads: one d.dot of the pairs (x_i g_ij, y_j) over
    the nonzero terms in row order; an entry of another field raises
    DescriptorMismatch."""
    d = field.descriptor
    mul, is_zero = d.mul, d.is_zero
    xs, ys = fieldmatrix._payload_rows((x, y), d)
    return FieldElement(d, d.dot([(mul(xi, gij), yj)
                                  for xi, row in zip(xs, fieldmatrix._payload_rows(gram, d))
                                  if not is_zero(xi)
                                  for gij, yj in zip(row, ys)
                                  if not (is_zero(yj) or is_zero(gij))]))


def _columns_matrix(vectors, n):
    return fieldmatrix.mat_from_rows(
        [[vectors[col][row] for col in range(len(vectors))] for row in range(n)])


# ---------------------------------------------------------------------------
# diagonalization away from characteristic 2

@dataclass(frozen=True)
class Diagonalization:
    change_of_basis: tuple
    diagonal: tuple


def diagonalize(q: QuadraticForm) -> Diagonalization:
    """Change of basis C with q(Cx) = sum a_i x_i^2, char != 2 only."""
    field = q.field
    if field.characteristic == 2:
        raise CharTwo("diagonalization needs characteristic != 2")
    if not is_nondegenerate(q):
        raise DegenerateForm("form has singular Gram matrix")
    gram = associated_bilinear(q)
    n = q.dim
    basis = [[field.one if i == j else field.zero for i in range(n)]
             for j in range(n)]
    for t in range(n):
        if _bil(gram, basis[t], basis[t], field).is_zero:
            swap = next((s for s in range(t + 1, n)
                         if not _bil(gram, basis[s], basis[s], field).is_zero),
                        None)
            if swap is not None:
                basis[t], basis[swap] = basis[swap], basis[t]
            else:
                mate = next((s for s in range(t + 1, n)
                             if not _bil(gram, basis[t], basis[s],
                                         field).is_zero), None)
                if mate is None:
                    raise DegenerateForm("residual block pairs to zero")
                basis[t] = [a + b for a, b in zip(basis[t], basis[mate])]
        d = _bil(gram, basis[t], basis[t], field)
        for s in range(t + 1, n):
            c = _bil(gram, basis[t], basis[s], field)
            if c.is_zero:
                continue
            f = c / d
            basis[s] = [a - f * b for a, b in zip(basis[s], basis[t])]
    change = _columns_matrix(basis, n)
    diag = tuple(q.evaluate(vec) for vec in basis)
    expected = QuadraticForm(q.descriptor, n, {(i, i): diag[i] for i in range(n)})
    if q.transform(change) != expected:
        raise ConsistencyAlarm("diagonalization verification failed")
    return Diagonalization(change_of_basis=change, diagonal=diag)


# ---------------------------------------------------------------------------
# characteristic-2 normal form and its Arf parameter

def canonical_char2_form(descriptor: FieldDescriptor, dim: int,
                         a) -> QuadraticForm:
    """x1^2 + x1 x2 + a x2^2 + x3 x4 + ... in the given even dimension."""
    if dim % 2:
        raise DegenerateForm("characteristic-2 normal form needs even dimension")
    field = Field(descriptor)
    coeffs = {(0, 0): field.one, (0, 1): field.one, (1, 1): field(a)}
    for t in range(1, dim // 2):
        coeffs[(2 * t, 2 * t + 1)] = field.one
    return QuadraticForm(descriptor, dim, coeffs)


def _finite_char2(descriptor: FieldDescriptor) -> bool:
    return (descriptor.characteristic == 2
            and descriptor.kind in ("prime_field", "finite_field"))


def _sqrt_char2(x: FieldElement, descriptor: FieldDescriptor) -> FieldElement:
    # Frobenius is bijective on F_{2^m}; the square root is x^(2^(m-1))
    return x ** (2 ** (descriptor.m - 1))


@dataclass(frozen=True)
class ArfNormalForm:
    arf: FieldElement
    change_of_basis: tuple
    canonical_form: QuadraticForm


def _block_value(gamma1, gamma2, c, field) -> FieldElement:
    c1, c2, c3, c4 = c
    return (c1 * c1 + c1 * c2 + gamma1 * c2 * c2
            + c3 * c3 + c3 * c4 + gamma2 * c4 * c4)


def _char2_bits(x: FieldElement) -> int:
    """The coefficients of x in F_{2^m} as an m-bit integer, the constant
    coefficient highest, so that integer order is the element order of
    Field.elements()."""
    coeffs = x.payload if isinstance(x.payload, tuple) else (x.payload,)
    return int("".join(str(b) for b in coeffs), 2)


def _char2_element(bits: int, field: Field) -> FieldElement:
    """The inverse of _char2_bits."""
    d = field.descriptor
    if d.kind == "prime_field":
        return FieldElement(d, bits)
    return FieldElement(d, tuple(bits >> (d.m - 1 - i) & 1 for i in range(d.m)))


def _artin_schreier_reduce(gamma: FieldElement, field: Field) -> tuple:
    """(r, c): r is the first element of gamma + {c^2 + c} in element
    order, and c the first element with gamma + c^2 + c = r.

    c -> c^2 + c is F_2-linear with kernel {0, 1}. An xor basis of its image
    in the _char2_bits encoding, with distinct leading bits and each vector
    kept with a preimage, clears every leading bit that gamma can lose when
    applied from the highest lead down; what is left is the smallest
    element of the coset. The cost is m field products and O(m^2) word
    operations, not a scan of the field.
    """
    basis = {}
    for b in range(field.descriptor.m):
        e = _char2_element(1 << b, field)
        img, pre = _char2_bits(e * e + e), 1 << b
        while img and img.bit_length() in basis:
            b_img, b_pre = basis[img.bit_length()]
            img, pre = img ^ b_img, pre ^ b_pre
        if img:
            basis[img.bit_length()] = (img, pre)
    r, c = _char2_bits(gamma), 0
    for lead in sorted(basis, reverse=True):
        if r >> (lead - 1) & 1:
            b_img, b_pre = basis[lead]
            r, c = r ^ b_img, c ^ b_pre
    # c and c + 1 reach the same r; 1 (the highest bit) is in the kernel, so
    # no basis preimage uses it and c is the smaller of the two
    return _char2_element(r, field), _char2_element(c, field)


def _first_isotropic(g1, g2, field: Field) -> tuple:
    """The first nonzero zero of the block form x1^2 + x1 x2 + g1 x2^2
    + x3^2 + x3 x4 + g2 x4^2 (g1, g2 nonzero) in the order of
    itertools.product(field.elements(), repeat=4).

    With e1 the first nonzero element: the vectors (0, 0, c3, c4) come
    first; (0, 0, 0, c4) is never a zero, and any zero of the second plane
    scales to one with c3 = e1, so the second plane is isotropic exactly
    when some (0, 0, e1, c4) is a zero. Writing c4 = e1 z / g2, that is
    z^2 + z = g2, solved by _artin_schreier_reduce; the two roots z and
    z + 1 give the two candidates for c4. Otherwise that plane is
    anisotropic and, over a finite field, represents g1 e1^2; the first
    zero then has c1 = 0, c2 = e1, c3 = 0 and g2 c4^2 = g1 e1^2, so
    c4 = e1 sqrt(g1/g2).
    """
    e1 = _char2_element(1, field)
    zero = field.zero
    r, z = _artin_schreier_reduce(g2, field)
    if r.is_zero:
        c4 = min(e1 * z / g2, e1 * (z + field.one) / g2, key=_char2_bits)
        return (zero, zero, e1, c4)
    return (zero, e1, zero, e1 * _sqrt_char2(g1 / g2, field.descriptor))


def _plane_block(q: QuadraticForm, u, w) -> tuple:
    """Normalize the plane spanned by u and w, with b(u, w) = 1, to a block.

    If q(u) or q(w) is zero the plane is hyperbolic and the block is
    (u, w, None) with q(u) = q(w) = 0, so q = x y on it. Otherwise u is
    scaled to q(u) = 1 (w by the inverse, keeping b(u, w) = 1) and the
    block is (u, w, g) with q = x^2 + x y + g y^2.
    """
    alpha, beta = q.evaluate(u), q.evaluate(w)
    if not alpha.is_zero and beta.is_zero:
        u, w, alpha, beta = w, u, beta, alpha
    if alpha.is_zero:
        if not beta.is_zero:
            # q(w + beta u) = beta + beta b(w, u) = 0 in characteristic 2
            w = tuple(a + beta * b for a, b in zip(w, u))
        return (u, w, None)
    c = _sqrt_char2(alpha.inverse(), q.descriptor)
    u = tuple(c * x for x in u)
    w = tuple(x / c for x in w)
    return (u, w, q.evaluate(w))


def arf_normal_form(q: QuadraticForm) -> ArfNormalForm:
    """Carry q over F_{2^m} to the canonical even-dimensional shape.

    The change of basis C satisfies q(Cx) = x1^2 + x1 x2 + a x2^2
    + x3 x4 + ... exactly; a is returned reduced to the smallest
    representative of its coset modulo the image of c -> c^2 - c.
    """
    descriptor = q.descriptor
    if not _finite_char2(descriptor):
        raise WrongCharacteristic("normal form needs a finite field of "
                                  "characteristic 2")
    field = q.field
    n = q.dim
    gram = associated_bilinear(q)
    if n % 2 or fieldmatrix.mat_det(gram).is_zero:
        raise DegenerateForm("alternating Gram matrix is singular")

    # greedy symplectic reduction: pair off basis vectors with unit pairing
    remaining = [tuple(field.one if i == j else field.zero for i in range(n))
                 for j in range(n)]
    pairs = []
    while remaining:
        u = remaining.pop(0)
        idx = next((s for s, w in enumerate(remaining)
                    if not _bil(gram, u, w, field).is_zero), None)
        if idx is None:
            raise DegenerateForm("vector pairs to zero with the rest")
        w = remaining.pop(idx)
        inv = _bil(gram, u, w, field).inverse()
        w = tuple(x * inv for x in w)
        cleaned = []
        for v in remaining:
            bvw = _bil(gram, v, w, field)
            bvu = _bil(gram, v, u, field)
            cleaned.append(tuple(a + bvw * b + bvu * c
                                 for a, b, c in zip(v, u, w)))
        remaining = cleaned
        pairs.append([u, w])

    blocks = [_plane_block(q, u, w) for u, w in pairs]

    # merge pairs of non-split blocks through an explicit isotropic vector
    while True:
        hot = [t for t, blk in enumerate(blocks) if blk[2] is not None]
        if len(hot) < 2:
            break
        t1, t2 = hot[0], hot[1]
        u1, w1, g1 = blocks[t1]
        u2, w2, g2 = blocks[t2]
        span = (u1, w1, u2, w2)
        iso = _first_isotropic(g1, g2, field)
        # the block Gram matrix pairs coordinates 0 with 1 and 2 with 3, so
        # a vector's row against it swaps within each pair
        pair_row = [iso[1], iso[0], iso[3], iso[2]]
        col = next(j for j in range(4) if not pair_row[j].is_zero)
        w0 = [field.zero] * 4
        w0[col] = pair_row[col].inverse()
        qv = _block_value(g1, g2, tuple(w0), field)
        mate = tuple(a + qv * b for a, b in zip(w0, iso))
        comp_rows = [pair_row, [mate[1], mate[0], mate[3], mate[2]]]
        comp = fieldmatrix.nullspace(comp_rows)
        if len(comp) != 2:
            raise ConsistencyAlarm("orthogonal complement has wrong rank")
        z1, z2 = comp
        b12 = z1[0] * z2[1] + z1[1] * z2[0] + z1[2] * z2[3] + z1[3] * z2[2]
        if b12.is_zero:
            raise ConsistencyAlarm("complement block pairs to zero")
        z2 = tuple(x * b12.inverse() for x in z2)

        def to_ambient(coeff):
            vec = [field.zero] * n
            for c, base_vec in zip(coeff, span):
                if c.is_zero:
                    continue
                vec = [a + c * b for a, b in zip(vec, base_vec)]
            return tuple(vec)

        blocks[t1] = (to_ambient(iso), to_ambient(mate), None)
        blocks[t2] = _plane_block(q, to_ambient(z1), to_ambient(z2))

    # reduce the surviving parameter to its smallest coset representative
    hot = [t for t, blk in enumerate(blocks) if blk[2] is not None]
    if hot:
        t = hot[0]
        u, w, gamma = blocks[t]
        gamma, c = _artin_schreier_reduce(gamma, field)
        w = tuple(a + c * b for a, b in zip(w, u))
        blocks[t] = (u, w, gamma)
        blocks.insert(0, blocks.pop(t))
        arf = gamma
    else:
        u, w, _ = blocks[0]
        blocks[0] = (tuple(a + b for a, b in zip(u, w)), w, None)
        arf = field.zero

    change = _columns_matrix([v for u, w, _ in blocks for v in (u, w)], n)
    canonical = canonical_char2_form(descriptor, n, arf)
    if q.transform(change) != canonical:
        raise ConsistencyAlarm("normal-form verification failed")
    return ArfNormalForm(arf=arf, change_of_basis=change,
                         canonical_form=canonical)


def arf_invariant_class(a, a_prime, field: Field) -> bool:
    """Whether two Arf parameters agree modulo the image of c -> c^2 - c.

    The difference lies in that image exactly when its smallest coset
    representative is zero, so this is one _artin_schreier_reduce: a cost
    polynomial in m over any F_{2^m}, with no scan of the field.
    """
    if not _finite_char2(field.descriptor):
        raise WrongCharacteristic("Arf classes live over finite fields of "
                                  "characteristic 2")
    return _artin_schreier_reduce(field(a) - field(a_prime), field)[0].is_zero


# ---------------------------------------------------------------------------
# isotropic vectors from isometries of order p = char

def extract_isotropic_from_order_p(g, q: QuadraticForm) -> tuple:
    """An isotropic vector fixed by an isometry of order p = char > 2.

    g - 1 is nilpotent; the top of any maximal Jordan chain is a fixed
    vector v1 that some v2 maps onto v1 + v2, which forces q(v1) = 0.
    """
    p = q.field.characteristic
    if p <= 2:
        raise WrongCharacteristic("needs odd positive characteristic")
    n = q.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise NotIsometry("matrix shape does not match the form")
    if q.transform(g) != q:
        raise NotIsometry("the map does not preserve the form")
    ident = fieldmatrix.identity(q.field, n)
    if g == ident:
        raise NotOrderP("the identity has order 1")
    if fieldmatrix.mat_pow(g, p) != ident:
        raise NotOrderP(f"the map does not have order {p}")
    # top walks the powers of g - 1 (nonzero, as g is not the identity)
    # and stops at the last nonzero one
    nil = top = fieldmatrix.mat_sub(g, ident)
    while True:
        power = fieldmatrix.mat_mul(top, nil)
        if all(x.is_zero for row in power for x in row):
            break
        top = power
    col = next(j for j in range(n)
               if any(not top[i][j].is_zero for i in range(n)))
    v1 = tuple(top[i][col] for i in range(n))
    if not q.evaluate(v1).is_zero:
        raise ConsistencyAlarm("chain top is not isotropic")
    return v1


# ---------------------------------------------------------------------------
# finite-order checks for projective isometries

@dataclass(frozen=True)
class InvolutionReport:
    scaling: FieldElement
    projective_order: int
    lift_order: Optional[int]
    squares_to_identity: bool
    diagonalizable_over_base: Optional[bool]


def _similitude_factor(g, q: QuadraticForm) -> FieldElement:
    composed, key = q.transform(g), min(q.coeffs)
    lam = composed.coeffs[key] / q.coeffs[key] if key in composed.coeffs else None
    if lam is None or composed != q.scale(lam):
        raise NotIsometry("the map does not preserve the form up to scalar")
    return lam


def involution_check(g, q: QuadraticForm,
                     order_bound: int = 8) -> InvolutionReport:
    """Verify the order restrictions a pointless quadric forces.

    When the map is verifiably diagonalizable over the base field, a
    form-preserving map must square to the identity and a projective
    isometry must have order 1, 2, or 4; violations raise OrderExceedsBound
    since they refute the asserted anisotropy. Without enough roots of
    unity in the field, diagonalizability stays undecided and the report
    carries the observed orders without a verdict.
    """
    field = q.field
    if field.characteristic == 2:
        raise WrongCharacteristic("order analysis is for characteristic != 2")
    lam = _similitude_factor(g, q)
    n = q.dim
    ident = fieldmatrix.identity(field, n)

    found = least_power(g, fieldmatrix.mat_mul,
                        lambda a: fieldmatrix.scalar_of(a) is not None, order_bound)
    if found is None:
        raise OrderExceedsBound(f"no power up to {order_bound} is scalar")
    proj_order = found[0]
    found = least_power(g, fieldmatrix.mat_mul, lambda a: a == ident, order_bound)
    lift_order = found[0] if found else None
    squares = fieldmatrix.mat_pow(g, 2) == ident

    diagonalizable: Optional[bool] = None
    if lift_order is not None:
        p = field.characteristic
        if p and lift_order % p == 0:
            raise NotDiagonalizable(f"order divisible by the characteristic {p}")
        candidates = []
        for e in range(1, lift_order + 1):
            if lift_order % e:
                continue
            try:
                zeta = field.zeta(e)
            except AnisoError:
                continue
            mu = field.one
            for _ in range(e):
                mu = mu * zeta
                if mu not in candidates:
                    candidates.append(mu)
        acc = ident
        for mu in candidates:
            acc = fieldmatrix.mat_mul(
                acc, fieldmatrix.mat_sub(g, fieldmatrix.mat_scale(ident, mu)))
        if all(x.is_zero for row in acc for x in row):
            diagonalizable = True
    if diagonalizable:
        if lam.is_one and not squares:
            raise OrderExceedsBound("a diagonalizable form-preserving map "
                                    "fails g^2 = 1, contradicting the "
                                    "asserted anisotropy")
        if proj_order not in (1, 2, 4):
            raise OrderExceedsBound(f"projective order {proj_order} "
                                    "contradicts the asserted anisotropy")
    return InvolutionReport(scaling=lam, projective_order=proj_order,
                            lift_order=lift_order,
                            squares_to_identity=squares,
                            diagonalizable_over_base=diagonalizable)


# ---------------------------------------------------------------------------
# the 2^k-dimensional multiplier form and its projective isometries

def _subset_coefficient(avars, mask: int, field: Field) -> FieldElement:
    c = field.one
    for i, a in enumerate(avars):
        if mask & (1 << i):
            c = c * a
    return c


def _pfister_descriptor(k: int) -> FieldDescriptor:
    """Q(a1, ..., ak), the field of the k-fold multiplier form."""
    if not 1 <= k <= 5:
        raise KTooLarge("supported range is 1 <= k <= 5")
    return function_field(rationals(), tuple(f"a{i}" for i in range(1, k + 1)))


class PfisterData:
    """Diagonal form sum a_I x_I^2 on coordinates indexed by subset bitmask.

    Coordinate j corresponds to the subset with characteristic vector j in
    binary, so the order is the empty set, {1}, {2}, {1,2}, {3}, and so on.
    """

    def __init__(self, k: int):
        self.k = k
        self.n = 2 ** k
        self.descriptor = _pfister_descriptor(k)
        self.field = Field(self.descriptor)
        avars = self.field.vars()
        coeffs = {(j, j): _subset_coefficient(avars, j, self.field)
                  for j in range(self.n)}
        self.form = QuadraticForm(self.descriptor, self.n, coeffs)
        self.top_coefficient = _subset_coefficient(avars, self.n - 1,
                                                   self.field)

    @cached_property
    def sigma(self):
        """Negates the two singleton coordinates x_{1} and x_{2}."""
        if self.k < 2:
            raise KTooLarge("the sign map needs two singleton coordinates")
        field = self.field
        rows = [[field.zero] * self.n for _ in range(self.n)]
        for j in range(self.n):
            rows[j][j] = -field.one if j in (1, 2) else field.one
        return fieldmatrix.mat_from_rows(rows)

    @cached_property
    def tau(self):
        """Sends x_I to a_(complement I) x_(complement I)."""
        field = self.field
        avars = field.vars()
        full = self.n - 1
        rows = [[field.zero] * self.n for _ in range(self.n)]
        for j in range(self.n):
            rows[j][full ^ j] = _subset_coefficient(avars, full ^ j, field)
        return fieldmatrix.mat_from_rows(rows)


@lru_cache(maxsize=None)
def pfister_build(k: int) -> PfisterData:
    """The multiplier form with its two projective isometries, verified,
    once per k: every Pfister routine below reads this one build."""
    data = PfisterData(k)
    if k >= 2:
        if data.form.transform(data.sigma) != data.form:
            raise ConsistencyAlarm("sign map fails to preserve the form")
        if data.form.transform(data.tau) != data.form.scale(data.top_coefficient):
            raise ConsistencyAlarm("complement map has the wrong multiplier")
    return data


@dataclass(frozen=True)
class PfisterGroup:
    k: int
    elements: tuple
    table: tuple
    order: int
    sigma_index: int
    tau_index: int
    iota_index: int
    nonabelian: bool
    projective_orders: tuple
    order_bound: int

    @property
    def order_divides_bound(self) -> bool:
        return self.order_bound % self.order == 0

    def to_json(self) -> dict:
        return {"closure_order": str(self.order),
                "closure_nonabelian": self.nonabelian,
                "order_bound": str(self.order_bound),
                "order_divides_bound": self.order_divides_bound,
                "projective_orders": sorted({str(o) for o in self.projective_orders})}


def pfister_group_closure(k: int, cap: Optional[int] = None) -> PfisterGroup:
    """Projective closure of the two isometries under the cap (default
    4096 elements), with multiplication table.

    Elements are matrices normalized so the first nonzero entry is 1;
    the table indexes products; it and the element orders are read off
    the closure's Cayley graph, with no product past the closure.
    """
    data = pfister_build(k)
    if not 2 <= k <= 5:
        raise KTooLarge("closure needs 2 <= k <= 5")
    cap = 4096 if cap is None else cap
    ident = fieldmatrix.identity(data.field, data.n)
    gens = [fieldmatrix.projective_normalize(data.sigma),
            fieldmatrix.projective_normalize(data.tau)]

    def mul(a, b):
        return fieldmatrix.projective_normalize(fieldmatrix.mat_mul(a, b))

    elements, right = closure(ident, gens, mul, cap,
                              QuadFormError(f"closure exceeded the cap {cap}"))
    table = tuple(map(tuple, cayley_table(right)))
    sigma_index = elements.index(gens[0])
    tau_index = elements.index(gens[1])
    iota_index = 0
    for step in (sigma_index, tau_index, sigma_index, tau_index):
        iota_index = table[iota_index][step]
    return PfisterGroup(
        k=k, elements=tuple(elements), table=table, order=len(elements),
        sigma_index=sigma_index, tau_index=tau_index, iota_index=iota_index,
        nonabelian=table[sigma_index][tau_index] != table[tau_index][sigma_index],
        projective_orders=tuple(closure_orders(right)),
        order_bound=8 ** (2 ** k - 1))


# ---------------------------------------------------------------------------
# refuting alleged points on the multiplier quadric

@dataclass(frozen=True)
class RefutationReport:
    k: int
    value: FieldElement
    candidate: tuple


def _polynomial_payload(elt: FieldElement) -> tuple:
    """The stored numerator of a polynomial element; requires denominator 1."""
    num, den = elt.payload
    if den != elt.descriptor.one()[1]:
        raise QuadFormError("candidate entries must be polynomials")
    return num


def descent_step(k: int, candidate):
    """One level of the degree-descent on an alleged zero candidate.

    Splits off the top power of the last variable and returns the index of
    the surviving half (0 for subsets without the last element, 1 with it)
    together with the leading-coefficient tuple over one fewer variable.
    """
    field = pfister_build(k).field
    entries = [field(x) for x in candidate]
    nums = [_polynomial_payload(x) for x in entries]
    top = max((exp[k - 1] for num in nums for exp, _ in num), default=0)
    small = pfister_build(k - 1) if k >= 2 else None
    small_field = small.field if small else Field(rationals())

    def leading(mask: int) -> FieldElement:
        total = small_field.zero
        for exp, coeff in nums[mask]:
            if exp[k - 1] != top:
                continue
            term = FieldElement(field.descriptor.base, coeff)
            if small is None:
                total = total + small_field(term)
            else:
                mono = small_field.lift(term)
                for i, e in enumerate(exp[:k - 1]):
                    mono = mono * small_field.vars()[i] ** e
                total = total + mono
        return total

    half = 2 ** (k - 1)
    without = tuple(leading(j) for j in range(half))
    with_last = tuple(leading(j + half) for j in range(half))
    if any(not x.is_zero for x in without):
        return 0, without
    return 1, with_last


def pfister_refute_point(k: int, candidate) -> RefutationReport:
    """Evaluate the multiplier form on a candidate point and refute it.

    A nonzero value refutes the candidate. A zero value is impossible for
    the pointless form, so it trips a loud consistency alarm carrying the
    degree-descent chain down to the one-variable parity contradiction.
    """
    data = pfister_build(k)
    field = data.field
    entries = tuple(field(x) for x in candidate)
    if len(entries) != data.n:
        raise QuadFormError(f"candidate needs {data.n} entries")
    if all(x.is_zero for x in entries):
        raise AllZeroCandidate("projective candidates cannot vanish entirely")
    value = data.form.evaluate(entries)
    if not value.is_zero:
        return RefutationReport(k=k, value=value, candidate=entries)
    trace = []
    level, current = k, entries
    while level > 1:
        which, current = descent_step(level, current)
        trace.append(f"level {level}: kept half {which}")
        level -= 1
    trace.append("level 1: x^2 + a1 y^2 = 0 forces an even degree to "
                 "match an odd one")
    raise ConsistencyAlarm(
        "candidate evaluates to zero on the pointless form; descent: "
        + "; ".join(trace))


def random_candidate(k: int, rng, degree: int = 3, terms: int = 2) -> tuple:
    """A seeded not-all-zero polynomial candidate tuple for refutation runs:
    each entry sums 1..terms monomials c * a1^e1 * ... * ak^ek, drawing c in
    -4..4 and then each e_i in 0..degree, built directly as its payload."""
    d = _pfister_descriptor(k)
    unit = d.one()[1]
    while True:
        out = []
        for _ in range(2 ** k):
            poly: dict = {}
            for _ in range(rng.randint(1, terms)):
                c = rng.randint(-4, 4)
                e = tuple(rng.randint(0, degree) for _ in range(k))
                poly[e] = poly.get(e, 0) + c
            num = tuple(sorted(((e, c) for e, c in poly.items() if c), reverse=True))
            out.append(FieldElement(d, (num, unit)))
        if any(not x.is_zero for x in out):
            return tuple(out)


def pfister_run(k: int, trials: int, seed: int,
                cap: Optional[int] = None) -> tuple[PfisterGroup, int]:
    """The closure under the cap, and the number of trials candidates
    drawn from random.Random(seed) that are refuted."""
    group = pfister_group_closure(k, cap)
    rng = random.Random(seed)
    refuted = sum(not pfister_refute_point(k, random_candidate(k, rng)).value.is_zero
                  for _ in range(trials))
    return group, refuted
