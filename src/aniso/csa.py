"""Two families of noncommutative algebras at desk scale.

Symbol algebras: generated by u, v over a field containing a primitive
n-th root of unity z, with u^n = a, v^n = b, and v u = z u v. Elements are
kept in the normal form sum c_{ij} u^i v^j with 0 <= i, j < n.

Characteristic-p Weyl-type algebras: generated by u, v over F_p(x, y) with
v^p = x, u^p = y, and v u - u v = 1; same normal-form shape with p in
place of n.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Optional, Sequence

from .errors import AnisoError, _exact_int
from . import fieldmatrix
from .integers import binary_power, least_power
from .scalars import (Field, FieldDescriptor, FieldElement, MinimalPolynomial,
                      _cy_normal, _cy_reduce_ints, _fp_is_irreducible, _is_prime, _p_to_tuple,
                      element_from_json, element_to_json, function_field, is_kth_power,
                      minimal_polynomial_power_relation, prime_field)


class AlgebraError(AnisoError):
    pass


class SpecMismatch(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class PrimeTooLarge(AlgebraError):
    pass


class RankTooLarge(AlgebraError):
    pass


class DegreeTooLarge(AlgebraError):
    pass


class ZeroPolynomial(AlgebraError):
    pass


class AlgebraSpec:
    """Members both algebra families share; subclasses set base, field,
    degree, a = u^n and b = v^n, and define reorder(j, k)."""

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    @property
    def one(self) -> "AlgebraElement":
        return self.scalar(self.field.one)

    @property
    def u(self) -> "AlgebraElement":
        return AlgebraElement(self, {(1, 0): self.field.one})

    @property
    def v(self) -> "AlgebraElement":
        return AlgebraElement(self, {(0, 1): self.field.one})

    def scalar(self, c) -> "AlgebraElement":
        return AlgebraElement._from_payloads(self, {(0, 0): self._payload(c)})

    def _payload(self, c):
        """The payload of a scalar c in the base field."""
        if isinstance(c, FieldElement):
            if c.descriptor is not self.base and c.descriptor != self.base:
                raise SpecMismatch("scalar from a different field")
            return c.payload
        return self.field.payload(c)


class SymbolAlgebraSpec(AlgebraSpec):
    """u^n = a, v^n = b, vu = z uv over a base containing z = zeta_n."""

    def __init__(self, base: FieldDescriptor, degree: int,
                 a: FieldElement, b: FieldElement):
        if degree < 2:
            raise AlgebraError("degree must be at least 2")
        field = Field(base)
        self.base = base
        self.field = field
        self.degree = degree
        self.zeta = field.zeta(degree)  # raises RootOfUnityMissing if absent
        self.zeta_powers = list(itertools.accumulate([self.zeta] * (degree - 1), operator.mul,
                                                     initial=field.one))
        self._reorder = [((0, z.payload),) for z in self.zeta_powers]
        if a.descriptor != base or b.descriptor != base:
            raise SpecMismatch("parameters must live in the base field")
        if a.is_zero or b.is_zero:
            raise AlgebraError("parameters must be nonzero")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"SymbolAlgebraSpec(degree={self.degree}, base={self.base!r})"

    def __eq__(self, other):
        return (isinstance(other, SymbolAlgebraSpec)
                and (self.base, self.degree, self.a, self.b)
                == (other.base, other.degree, other.a, other.b))

    def __hash__(self):
        return hash((self.base, self.degree, self.a, self.b))

    def reorder(self, j: int, k: int) -> tuple:
        """v^j u^k = z^(jk) u^k v^j, as the single term (t, factor) = (0, z^(jk)),
        the factor a payload."""
        return self._reorder[j * k % self.degree]


class WeylModPSpec(AlgebraSpec):
    """v^p = x, u^p = y, vu - uv = 1 over F_p(x, y)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise AlgebraError("p must be prime")
        self.p = p
        self.degree = p
        self.base = function_field(prime_field(p), ("x", "y"))
        self.field = Field(self.base)
        self.a = self.field.var("y")  # u^p
        self.b = self.field.var("x")  # v^p
        self._reorder: dict = {}  # (j, k) -> reorder(j, k), kept for this spec

    def __repr__(self):
        return f"WeylModPSpec(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, WeylModPSpec) and self.p == other.p

    def __hash__(self):
        return hash(("WeylModPSpec", self.p))

    def reorder(self, j: int, k: int) -> tuple:
        """v^j u^k = sum_t j!/(j-t)! C(k,t) u^(k-t) v^(j-t), as the terms
        (t, factor), the factor a payload; for j, k < p no factor is
        divisible by p. Each (j, k) is built once per spec."""
        terms = self._reorder.get((j, k))
        if terms is None:
            terms = self._reorder[(j, k)] = tuple(
                (t, self.base.from_int(math.perm(j, t) * math.comb(k, t)))
                for t in range(min(j, k) + 1))
        return terms

    def v_polynomial(self, coeffs: Sequence[int]) -> "AlgebraElement":
        """Element sum coeffs[j] v^j from prime-field integer coefficients."""
        out = self.zero
        vj = self.one
        for c in coeffs:
            if c % self.p:
                out = out + vj * self.field.from_int(c)
            vj = vj * self.v
        return out


class AlgebraElement:
    """Normal form sum c_{ij} u^i v^j, exponents inside the degree box.

    The nonzero coefficients are kept as payloads of spec.base;
    coefficients is a read-only view of them as FieldElements, built on
    demand.
    """

    __slots__ = ("spec", "_terms")

    def __init__(self, spec, coefficients: dict):
        n = spec.degree
        payload, is_zero = spec._payload, spec.base.is_zero
        terms = {}
        for (i, j), c in coefficients.items():
            if not (0 <= i < n and 0 <= j < n):
                raise AlgebraError("exponents outside the normal-form box")
            c = payload(c)
            if not is_zero(c):
                terms[(i, j)] = c
        self.spec = spec
        self._terms = terms

    @classmethod
    def _from_payloads(cls, spec, terms: dict) -> "AlgebraElement":
        """The element with these payload coefficients, keyed inside the
        box; zeros dropped."""
        x = object.__new__(cls)
        is_zero = spec.base.is_zero
        x.spec = spec
        x._terms = {key: c for key, c in terms.items() if not is_zero(c)}
        return x

    @property
    def coefficients(self) -> MappingProxyType:
        d = self.spec.base
        return MappingProxyType({key: FieldElement(d, c) for key, c in self._terms.items()})

    # -------------------------------------------------- ring structure
    def __add__(self, other):
        self._check(other)
        add = self.spec.base.add
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key)
            out[key] = c if s is None else add(s, c)
        return AlgebraElement._from_payloads(self.spec, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.spec.base.neg
        return AlgebraElement._from_payloads(self.spec,
                                             {k: neg(c) for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement) or isinstance(other, (int, Fraction)):
            return self._scaled(self.spec._payload(other))
        self._check(other)
        return algebra_multiply(self, other)

    def __rmul__(self, other):
        return self * other

    def _scaled(self, c) -> "AlgebraElement":
        """self times the base-field payload c."""
        mul = self.spec.base.mul
        return AlgebraElement._from_payloads(self.spec,
                                             {k: mul(v, c) for k, v in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            return algebra_inverse(self) ** (-e)
        return binary_power(self, e, self.spec.one, operator.mul)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.spec == other.spec
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))))

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.spec != self.spec:
            raise SpecMismatch("elements from different algebras")

    # -------------------------------------------------- structure queries
    @property
    def is_zero(self) -> bool:
        return not self._terms

    def scalar_part(self) -> Optional[FieldElement]:
        """The base-field value when the element is scalar, else None."""
        if not self.is_scalar:
            return None
        d = self.spec.base
        return FieldElement(d, self._terms.get((0, 0), d.zero()))

    @property
    def is_scalar(self) -> bool:
        return not self._terms or self._terms.keys() == {(0, 0)}

    def v_only(self) -> bool:
        return all(i == 0 for i, _ in self._terms)

    def __repr__(self):
        if not self._terms:
            return "0"
        render = self.spec.base.render
        bits = []
        for (i, j) in sorted(self._terms):
            c = render(self._terms[(i, j)])
            mono = "".join((f"u^{i}" if i > 1 else "u" * min(i, 1),
                            f"v^{j}" if j > 1 else "v" * min(j, 1)))
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {f"{i},{j}": element_to_json(c)
                for (i, j), c in sorted(self.coefficients.items())}

    @staticmethod
    def from_json(spec, obj: dict) -> "AlgebraElement":
        out = {}
        for key, val in obj.items():
            i, j = (_exact_int(t) for t in key.split(","))
            out[(i, j)] = element_from_json(val, spec.base)
        return AlgebraElement(spec, out)


def algebra_multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in normal form: u^i (v^j u^k) v^l, with v^j u^k reordered by
    spec.reorder and powers past the box reduced through u^n = a, v^n = b:
    each term is the payload pair (c d, f), f the reorder factor times a or
    b per wrapped power, and each coefficient one base dot of its pairs."""
    spec = x.spec
    if spec != y.spec:
        raise SpecMismatch("elements from different algebras")
    base, n = spec.base, spec.degree
    mul, wrap_a, wrap_b = base.mul, spec.a.payload, spec.b.payload
    pairs: dict = {}
    for (i, j), c in x._terms.items():
        for (k, l), d in y._terms.items():
            cd = mul(c, d)
            for t, f in spec.reorder(j, k):
                a, b = i + k - t, j + l - t
                if a >= n:
                    f, a = mul(f, wrap_a), a - n
                if b >= n:
                    f, b = mul(f, wrap_b), b - n
                pairs.setdefault((a, b), []).append((cd, f))
    return AlgebraElement._from_payloads(spec, {key: base.dot(ps) for key, ps in pairs.items()})


def algebra_inverse(x: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse by the adjugate: for M the matrix of y -> y x over
    R = K[u]/(u^n - a), y = e_(v^0) M^-1 solves y x = 1, its entries the
    cofactors of M's v^0 column over det M, the reduced norm, which
    vanishes exactly on zero divisors. _cofactors takes them over R on the
    transpose of M with that column first: at most n 2^(n-1) ring products,
    far fewer when M is sparse, plus the final scaling. As in reduced_norm
    they are taken of D x, so no gcd runs before it: x^-1 = D (D x)^-1.
    """
    if x.is_zero:
        raise NotInvertible("zero has no inverse")
    spec = x.spec
    d, n = spec.base, spec.degree
    common = _common_denominator(spec, [x])
    if common != d.one():
        x = x._scaled(common)
    *columns, first = zip(*_right_multiplication(x))
    cofactors = _cofactors([first, *columns], *_upoly_ring(spec))
    det = _upoly_dot(spec, first, cofactors)
    assert all(map(d.is_zero, det[1:])), "reduced norm must be scalar in the u-subfield"
    if d.is_zero(det[0]):
        raise NotInvertible("element is a zero divisor")
    # cofactor r belongs to row r of M, the row of v^(n-1-r)
    y = AlgebraElement._from_payloads(spec, {(i, n - 1 - r): c for r, f in enumerate(cofactors)
                                             for i, c in enumerate(f)})
    return y._scaled(d.div(common, det[0]))


# ---------------------------------------------------------------------------
# cofactors of y -> y x over K[u]/(u^n - a): reduced norm and inverse

def _upoly_dot(spec, fs, gs) -> list:
    """sum_i f_i g_i in K[u]/(u^n - a), for length-n lists in u of payloads
    of spec.base.

    The products are gathered by power of u and each power summed by one
    spec.base.dot: a product f_i g_j past u^(n-1) lands on u^(i+j-n) as
    the pair (f_i a, g_j), since u^n = a, with f_i a made once per f_i.
    """
    d, n = spec.base, spec.degree
    is_zero, mul, a = d.is_zero, d.mul, spec.a.payload
    terms = [[] for _ in range(n)]
    for f, g in zip(fs, gs):
        for i, ci in enumerate(f):
            if not is_zero(ci):
                wrapped = None
                for j, cj in enumerate(g):
                    if not is_zero(cj):
                        if i + j < n:
                            terms[i + j].append((ci, cj))
                        else:
                            if wrapped is None:
                                wrapped = mul(ci, a)
                            terms[i + j - n].append((wrapped, cj))
    zero = d.zero()
    return [d.dot(t) if t else zero for t in terms]


def _right_multiplication(x: AlgebraElement) -> list:
    """Payload matrix of the left R-linear map y -> y x on A = sum R v^c,
    R = K[u]/(u^n - a): the row of v^r is v^r x = sum c v^r u^i v^m in
    normal form (spec.reorder and v^n = b), each entry a length-n list in
    u. Rows and columns run from v^(n-1) down to v^0, ending on the row of
    x itself, free of reorder factors, where _cofactors starts: on
    payloads, the dense-n4 norm golden reduced mod Phi_4 43 times in that
    order and 97 in the increasing one.
    """
    spec = x.spec
    d, n = spec.base, spec.degree
    mul, b = d.mul, spec.b.payload
    mat = [[[d.zero()] * n for _ in range(n)] for _ in range(n)]
    for r in range(n):
        pairs: dict = {}
        for (i, m), c in x._terms.items():
            for t, f in spec.reorder(r, i):
                col = r - t + m
                if col >= n:
                    f, col = mul(f, b), col - n
                pairs.setdefault((n - 1 - col, i - t), []).append((c, f))
        row = mat[n - 1 - r]
        for (col, k), ps in pairs.items():
            row[col][k] = d.dot(ps)
    return mat


def _common_denominator(spec, elements):
    """The payload of the product of the distinct coefficient denominators
    of the elements over a function-field base; 1 over any other base."""
    d = spec.base
    common = one = d.one()
    if d.kind == "function_field":
        for den in {c[1] for g in elements for c in g._terms.values()}:
            common = d.mul(common, (den, one[1]))
    return common


def _cofactors(mat, dot, neg, nonzero) -> list:
    """The cofactors (-1)^c det(mat without row 0 and column c) of the first
    row of a square matrix over a commutative ring given by dot(fs, gs),
    the sum of the products f g; neg and nonzero act on its elements. The
    dot of mat[0] with them is det mat.

    Laplace expansion along each row from the last up to row 1, over
    memoized minors (Rote, Division-free algorithms for the determinant
    and the Pfaffian, 2001, section 2): the minors on the bottom k rows
    are kept by their column bitmask, a missing mask standing for a zero
    minor, and the minor on one more row and column set S is one dot of
    the pairs (+-entry of that row in column c, minor on S - c). With
    det's last dot that is at most n 2^(n-1) entry-by-minor products, with
    at most C(n, n/2) minors held at a time. Nothing is divided, so it is
    exact also over a ring with zero divisors.
    """
    n = len(mat)
    minors = {1 << c: e for c, e in enumerate(mat[-1]) if nonzero(e)}
    for r in range(n - 2, 0, -1):
        row = [(1 << c, e, neg(e)) for c, e in enumerate(mat[r]) if nonzero(e)]
        pairs: dict = {}
        for mask, minor in minors.items():
            for bit, e, minus_e in row:
                if not mask & bit:
                    # the sign of column c is (-1)^(columns of the minor left of c)
                    fs, gs = pairs.setdefault(mask | bit, ([], []))
                    fs.append(minus_e if (mask & (bit - 1)).bit_count() % 2 else e)
                    gs.append(minor)
        minors = {}
        for mask, (fs, gs) in pairs.items():
            f = dot(fs, gs)
            if nonzero(f):
                minors[mask] = f
    zero, full = dot((), ()), (1 << n) - 1
    cofactors = [minors.get(full ^ (1 << c), zero) for c in range(n)]
    return [neg(f) if c % 2 else f for c, f in enumerate(cofactors)]


def _upoly_ring(spec) -> tuple:
    """R = K[u]/(u^n - a) on length-n lists in u of payloads of spec.base,
    as _cofactors takes a ring: (dot, neg, nonzero)."""
    d = spec.base
    return (functools.partial(_upoly_dot, spec), lambda f: [d.neg(t) for t in f],
            lambda f: not all(map(d.is_zero, f)))


def _packs(spec) -> bool:
    """Whether the base is Q(z_m)(a, b) with u^n = a and v^n = b its two
    variables, where reduced_norm expands on packed integers."""
    d = spec.base
    if d.kind != "function_field" or d.base.kind != "cyclotomic" or len(d.variables) != 2:
        return False
    one, unit = d.base.one(), d.one()[1]
    return (spec.a.payload, spec.b.payload) == (((((1, 0), one),), unit),
                                                ((((0, 1), one),), unit))


# the most bits _packed_det lays out for det, about 5 times what a dense
# n = 9 norm with integer coefficients in [-3, 3] takes; past it, as for
# large powers of a or b, whose few terms spread over a wide box, the
# expansion runs on payloads
_PACKED_MAX_BITS = 1 << 22


def _packed_det(spec, mat):
    """The payload of det mat over Q(z_m)(a, b) when u^n = a and v^n = b are
    its two variables and every entry has denominator 1: _cofactors run on
    Kronecker-packed integers (von zur Gathen and Gerhard, Modern Computer
    Algebra, section 8.4). None when det would take more than
    _PACKED_MAX_BITS bits.

    a -> u^n maps R = K[u]/(u^n - a) onto K[u], so L mat, L the lcm of the
    Q(z_m) denominators, has its entries in Z[z][u, b], taken mod z^m - 1,
    which Phi_m divides. The sum of c z^s u^i b^j packs into the int sum
    of c 2^(w (s + (2m - 1)(i + U j))): z innermost, in cells of 2m - 1
    slots that hold a product of two z-degrees below m, then u, then b.
    U - 1, the sum of the rows' largest u-degrees, bounds the u-degree of
    every minor. The l1 norm is submultiplicative, so no coefficient of a
    minor, nor of a sum of entry-by-minor products, exceeds in size
    B = prod over rows of sum_j |mat_ij|_1, and slots of w = bits(B) + 1
    bits hold each one apart with its sign.

    An element of that ring is a dict j -> its part at b^j, packed with
    j = 0; {} is zero. A minor is {0: its whole packed int}, while an
    entry keeps one part per power of b it holds: c b^3 then multiplies a
    minor as a short int whose product is shifted by 3 U cells, not as an
    int that spans them (a dense n = 6 norm with a^2 and b^3 in its
    coefficients took 3.2 s with whole entries, 0.8 s with parts). Each
    minor is one sum of int products, folded mod z^m - 1 by biasing every
    slot to a nonnegative digit, adding the high half of each cell onto
    its low half and removing the bias.

    The determinant is unpacked once, by halves that skip the zero ones,
    and each nonzero cell reduced mod Phi_m: one whose u-degree is not a
    multiple of n must vanish, since det mat lies in K; the others are
    the coefficients of a^(i/n) b^j, over L^n.
    """
    d, n = spec.base, spec.degree
    m = d.base.n
    rows = [[(col, k + n * ea, eb, nums, den) for col, e in enumerate(row)
             for k, (num, _) in enumerate(e) if num for (ea, eb), (nums, den) in num]
            for row in mat]
    if not all(rows):
        return d.zero()
    L = math.lcm(*{den for row in rows for *_, den in row})
    bound, ucells, bcells = 1, 1, 1
    for row in rows:
        bound *= sum(sum(map(abs, nums)) * (L // den) for *_, nums, den in row)
        ucells += max(i for _, i, *_ in row)
        bcells += max(j for _, _, j, *_ in row)
    w = bound.bit_length() + 1
    cell, cells = (2 * m - 1) * w, ucells * bcells
    stride = cell * ucells  # of b
    if cells * cell > _PACKED_MAX_BITS:
        return None
    packed = [[{} for _ in row] for row in mat]
    for out, row in zip(packed, rows):
        for col, i, j, nums, den in row:
            scale, e = L // den, out[col]
            e[j] = e.get(j, 0) + sum(c * scale << cell * i + w * s
                                     for s, c in enumerate(nums) if c)
    # the fold masks, over every cell of det: one 1 per cell, the low m and
    # high m - 1 slots of each cell, 2^(w-1) in every slot, and the bias
    # the fold leaves
    ones = ((1 << cells * cell) - 1) // ((1 << cell) - 1)
    low, high = ((1 << m * w) - 1) * ones, ((1 << (m - 1) * w) - 1 << m * w) * ones
    bias = ((1 << cells * cell) - 1) // ((1 << w) - 1) << w - 1
    left = (bias & low) + ((bias & high) >> m * w)

    def dot(fs, gs):
        by_b: dict = {}
        for f, g in zip(fs, gs):
            for k, y in g.items():
                for j, e in f.items():
                    by_b[j + k] = by_b.get(j + k, 0) + e * y
        x = sum(v << stride * j for j, v in by_b.items()) + bias
        x = (x & low) + ((x & high) >> m * w) - left
        return {0: x} if x else {}

    det = dot(packed[0], _cofactors(packed, dot, lambda f: {j: -e for j, e in f.items()}, bool))
    terms, den, digit = {}, L ** n, (1 << w) - 1
    half = bias & low & ((1 << cell) - 1)  # 2^(w-1) in each low slot of a cell

    def unpack(x, first, count):
        if not x:
            return
        if count > 1:
            h = count // 2
            bits = h * cell
            lo = x & ((1 << bits) - 1)
            if lo >> bits - 1:
                lo -= 1 << bits
            unpack(lo, first, h)
            unpack((x - lo) >> bits, first + h, count - h)
            return
        x += half
        nums = _cy_reduce_ints(m, [(x >> w * s & digit) - (1 << w - 1) for s in range(m)])
        if any(nums):
            j, i = divmod(first, ucells)
            assert i % n == 0, "reduced norm must be scalar in the u-subfield"
            terms[(i // n, j)] = _cy_normal(nums, den)

    if det:
        unpack(det[0], 0, cells)
    return (_p_to_tuple(terms), d.one()[1])


def reduced_norm(x: AlgebraElement) -> FieldElement:
    """det M for M the matrix of y -> y x over R = K[u]/(u^n - a), the dot
    of its first row with _cofactors; it lands in the base field. The
    determinant is taken of D x, D the product of the distinct coefficient
    denominators, whose entries have denominator 1 so that no gcd runs,
    and divided by D^n at the end.

    Over Q(zeta_m)(a, b) with u^n = a and v^n = b its variables, the
    generic algebra of `csa norm`, the expansion runs on Kronecker-packed
    integers (_packed_det); over any other base, or past its size cap, on
    lists in u of payloads. A dense element with nonzero integer coefficients takes
    about 3 ms at n = 5, 0.01 s at n = 6, 0.06 s at n = 7, 0.3 s at n = 8
    and 1.9 s at n = 9 (one core of a 2-core x86 machine; on payloads it
    took 0.016, 0.05, 0.3, 0.9 and 3.9 s); the gcds that clear and
    restore D add to that.
    """
    spec = x.spec
    if not isinstance(spec, SymbolAlgebraSpec):
        raise AlgebraError("reduced norm implemented for symbol algebras")
    d = spec.base
    common = _common_denominator(spec, [x])
    if common != d.one():
        x = x._scaled(common)
    mat = _right_multiplication(x)
    norm = _packed_det(spec, mat) if _packs(spec) else None
    if norm is None:
        dot, neg, nonzero = _upoly_ring(spec)
        det = dot(mat[0], _cofactors(mat, dot, neg, nonzero))
        assert all(map(d.is_zero, det[1:])), "reduced norm must be scalar in the u-subfield"
        norm = det[0]
    if common != d.one():
        norm = d.div(norm, d.power(common, spec.degree))
    return FieldElement(d, norm)


# ---------------------------------------------------------------------------
# norm residue classes in K*/(K*)^n

@dataclass(frozen=True)
class NormResidueClass:
    """Class of a norm value modulo n-th powers of the base field."""
    value: FieldElement
    n: int

    def is_trivial(self) -> Optional[bool]:
        return is_kth_power(self.value, self.n)

    def same_class_as(self, other: "NormResidueClass") -> Optional[bool]:
        if self.n != other.n or self.value.descriptor != other.value.descriptor:
            raise SpecMismatch("classes from different settings")
        return is_kth_power(self.value / other.value, self.n)


def norm_residue_class(x: AlgebraElement) -> NormResidueClass:
    nrm = reduced_norm(x)
    if nrm.is_zero:
        raise NotInvertible("zero reduced norm")
    return NormResidueClass(nrm, x.spec.degree)


def norm_residue_injectivity_check(elements: Sequence[AlgebraElement]) -> bool:
    """Definite pairwise-distinctness of norm classes; raises if undecided."""
    classes = [norm_residue_class(x) for x in elements]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            same = classes[i].same_class_as(classes[j])
            if same is None:
                raise AlgebraError("norm-class comparison undecided")
            if same:
                return False
    return True


# ---------------------------------------------------------------------------
# torsion in the projective unit group

@dataclass(frozen=True)
class ProjectiveOrderReport:
    is_torsion: bool
    order: Optional[int]
    scalar_value: Optional[FieldElement]
    divides_degree: Optional[bool]


def finite_order_in_projective_units(x: AlgebraElement) -> ProjectiveOrderReport:
    """Smallest k <= degree² with x^k scalar."""
    spec = x.spec
    if x.is_zero:
        raise NotInvertible("zero is not a unit")
    found = least_power(x, operator.mul, lambda a: a.is_scalar, spec.degree ** 2)
    if found is None:
        return ProjectiveOrderReport(False, None, None, None)
    k, power = found
    s = power.scalar_part()
    if s.is_zero:
        raise NotInvertible("power collapsed to zero; not a unit")
    return ProjectiveOrderReport(True, k, s, spec.degree % k == 0)


def heisenberg_subgroup_elements(spec: SymbolAlgebraSpec) -> list[AlgebraElement]:
    """The n² monomials u^i v^j, a transversal of the subgroup generated by
    the classes of u and v in the projective units."""
    n = spec.degree
    return [AlgebraElement(spec, {(i, j): spec.field.one})
            for i in range(n) for j in range(n)]


# ---------------------------------------------------------------------------
# the characteristic-p split certificate

@dataclass(frozen=True)
class WeylSplitCertificate:
    p: int
    u_matrix: tuple
    v_matrix: tuple
    u_power_is_y: bool
    v_power_is_x: bool
    commutator_is_one: bool
    monomials_independent: bool

    @property
    def ok(self) -> bool:
        return (self.u_power_is_y and self.v_power_is_x
                and self.commutator_is_one and self.monomials_independent)


def weyl_split_verification(spec: WeylModPSpec) -> WeylSplitCertificate:
    """Split the char-p algebra over the field with formal p-th roots.

    Over F_p(X, Y) with x = X^p and y = Y^p, realize u as multiplication by
    z plus Y, and v as d/dz plus X, on the truncated polynomial space of
    dimension p. All defining relations and the independence of the p²
    products of the shifted generators are verified exactly.
    """
    p = spec.p
    if p > 7:
        raise PrimeTooLarge("split verification capped at p = 7")
    d = function_field(prime_field(p), ("X", "Y"))
    big = Field(d)
    X, Y = big.var("X").payload, big.var("Y").payload
    zero, one = d.zero(), d.one()
    mul = functools.partial(fieldmatrix._mul, d)

    um = tuple(tuple(one if r == c + 1 else zero for c in range(p)) for r in range(p))
    vm = tuple(tuple(d.from_int(c) if r == c - 1 else zero for c in range(p)) for r in range(p))
    ident = fieldmatrix._identity(d, p)
    u_full = fieldmatrix._add(d, um, fieldmatrix._scale(d, ident, Y))
    v_full = fieldmatrix._add(d, vm, fieldmatrix._scale(d, ident, X))

    u_pow = fieldmatrix._power(d, u_full, p)
    v_pow = fieldmatrix._power(d, v_full, p)
    y_scalar = fieldmatrix._scale(d, ident, d.power(Y, p))
    x_scalar = fieldmatrix._scale(d, ident, d.power(X, p))
    comm = fieldmatrix._sub(d, mul(v_full, u_full), mul(u_full, v_full))

    rows = []
    acc_u = ident
    for i in range(p):
        acc = acc_u
        for j in range(p):
            rows.append([acc[r][c] for r in range(p) for c in range(p)])
            acc = mul(acc, vm)
        acc_u = mul(acc_u, um)
    rank = fieldmatrix._rank(d, rows)

    return WeylSplitCertificate(
        p=p,
        u_matrix=fieldmatrix._wrap(d, u_full),
        v_matrix=fieldmatrix._wrap(d, v_full),
        u_power_is_y=u_pow == y_scalar,
        v_power_is_x=v_pow == x_scalar,
        commutator_is_one=comm == ident,
        monomials_independent=rank == p * p)


# ---------------------------------------------------------------------------
# inseparable torsion subgroups (classes of polynomials in v)

@dataclass(frozen=True)
class InseparableTorsionReport:
    p: int
    generators: tuple[AlgebraElement, ...]
    orders_divide_p: bool
    commute: bool
    rank: int

    @property
    def group_order(self) -> int:
        return self.p ** self.rank


def inseparable_torsion_subgroup(spec: WeylModPSpec,
                                 generators: Sequence[AlgebraElement]) -> InseparableTorsionReport:
    """Verify that polynomial-in-v classes form an elementary abelian
    p-subgroup of the projective units and compute its rank exactly.

    Polynomials in v make up the field F_p(y)(v), v^p = x, on which d/dv
    kills exactly the scalars F_p(x, y). As (fg)'/(fg) = f'/f + g'/g, the
    product of the g_i^(e_i) is scalar exactly when sum e_i g_i'/g_i = 0,
    so the rank is the F_p-rank of N_i = g_i' * prod_{j != i} g_j (the
    logarithmic derivative times the unit prod g_j). That rank comes from
    elimination mod p on the F_p-coefficients of the N_i once their
    coefficient denominators are cleared: O(m^2) algebra products and one
    small elimination, not the p^m products of an enumeration. Each kernel
    vector is certified by checking that its product is scalar.
    """
    p = spec.p
    gens = list(generators)
    for g in gens:
        if g.is_zero:
            raise ZeroPolynomial("zero polynomial supplied")
        if not g.v_only():
            raise AlgebraError("generators must be polynomials in v")
    orders_ok = all((g ** p).is_scalar for g in gens)
    commute = all(gens[i] * gens[j] == gens[j] * gens[i]
                  for i in range(len(gens)) for j in range(i + 1, len(gens)))
    if not orders_ok or not commute:
        raise AlgebraError("classes must commute and have order dividing p "
                           "for the rank computation to make sense")
    logs = [functools.reduce(operator.mul, gens[:i] + gens[i + 1:], _v_derivative(g))
            for i, g in enumerate(gens)]
    kernel = _fp_kernel(spec, logs)
    for e in kernel:
        prod = spec.one
        for g, ei in zip(gens, e):
            prod = prod * g ** ei
        if not prod.is_scalar:
            raise AlgebraError("a product with zero logarithmic derivative "
                               "is not scalar")
    return InseparableTorsionReport(p, tuple(gens), orders_ok, commute,
                                    len(gens) - len(kernel))


def _v_derivative(g: AlgebraElement) -> AlgebraElement:
    """d/dv of a polynomial in v; it kills the base field F_p(x, y)."""
    d = g.spec.base
    return AlgebraElement._from_payloads(g.spec, {(0, j - 1): d.mul(c, d.from_int(j))
                                                  for (_, j), c in g._terms.items() if j})


def _fp_kernel(spec: WeylModPSpec, elements: Sequence[AlgebraElement]) -> list[list[int]]:
    """Basis of {e in F_p^m : sum e_i elements_i = 0}, entries in range(p).

    Multiplying every coefficient by one common denominator keeps the
    F_p-relations and leaves polynomials in x, y whose F_p-coefficients,
    keyed by power of v and monomial, are the rows eliminated mod p.
    """
    m = len(elements)
    if not m:
        return []
    d = spec.base
    unit = d.one()[1]
    common = _common_denominator(spec, elements)
    fp = prime_field(spec.p)
    rows: dict = {}
    for i, g in enumerate(elements):
        for (_, j), c in g._terms.items():
            num, den = d.mul(c, common)
            assert den == unit, "denominators must clear"
            for monomial, coeff in num:
                rows.setdefault((j, monomial), [fp.zero()] * m)[i] = fp.from_int(coeff)
    return [list(vec) for vec in fieldmatrix._nullspace(fp, list(rows.values()) or [[fp.zero()] * m])]


def distinct_irreducible_family(spec: WeylModPSpec, m: int) -> list[AlgebraElement]:
    """First m monic irreducible polynomials in v over the prime field,
    ordered by degree then coefficient tuple."""
    p = spec.p
    found: list[tuple[int, ...]] = []
    degree = 1
    while len(found) < m:
        # constant term varying fastest
        for high_first in itertools.product(range(p), repeat=degree):
            poly = high_first[::-1] + (1,)
            if _fp_is_irreducible(list(poly), p):
                found.append(poly)
                if len(found) == m:
                    break
        degree += 1
    return [spec.v_polynomial(f) for f in found]


# ---------------------------------------------------------------------------
# separability

@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    minimal_polynomial: MinimalPolynomial
    witness: Optional[InseparableTorsionReport]


def separability_check(spec, power: int, value: FieldElement) -> SeparabilityReport:
    """Separability of an element given by a power relation elt^power = value.

    For an inseparable element of a char-p algebra the report carries the
    order-p subgroup witness generated by the class of v.
    """
    minpoly = minimal_polynomial_power_relation(Field(value.descriptor), power, value)
    witness = None
    if not minpoly.separable and isinstance(spec, WeylModPSpec):
        witness = inseparable_torsion_subgroup(spec, [spec.v])
    return SeparabilityReport(minpoly.separable, minpoly, witness)
