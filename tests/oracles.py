"""Reference routines that the tests compare the library against.

Most enumerate a whole finite space, so each of those keeps its own cap and
raises before it starts a scan past it. Some are the longer derivations
that the library replaced by reading one Smith form: a Smith form per d
and per query instead of one per torus model, H¹ through a lattice
quotient, row bases through V^-1, quotients through a second
elimination, the Smith form with its full m x m U, and associativity of a
group table over all n^3 triples. None of them is part of the library: the library answers the
same questions in closed form. The rest are the library's former
arithmetic: F_{p^m} by polynomial products and remainders, with its
element scans for roots of unity, discrete logs and k-th roots, Q with a
Fraction for every value, Q(zeta_n) with one Fraction per coefficient,
function-field polynomials as dicts (the _p_* kernels for sums, products, exact
division, the primitive pseudo-remainder gcd and k-th roots, with
normalize_by_dicts and kth_root_by_dicts on top of them), the reduced
norm on FieldElements over the left regular representation, inverses in
the algebra through an n^2 x n^2 linear system on the element-level
Gauss-Jordan elimination, dense integer and field matrix products, field
matrix products, quadratic-form values, substitutions and bilinear
values, and Pfister candidates built from FieldElements, and
pairing values,
validation and the isotropic recursion over Fractions, with a solve per
level, and the breadth-first closure over every given generator with the
generator walk that certified finite matrix groups on top of it.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from aniso import bounds, fieldmatrix
from aniso.bounds import BoundsError, FiniteMatrixGroup
from aniso.csa import AlgebraElement, AlgebraError, NotInvertible, SymbolAlgebraSpec
from aniso.errors import _exact_fraction, _exact_json, _json_list
from aniso.lattice import (AbelianGroupStructure, IntMatrix, LatticeError, _apply_row_op,
                           _bareiss, _is_chain, _pivot_rows, _reduce_mod_rows, _smith_dv,
                           _smith_reduce, _unimodular_bareiss, _vec_mat, abelian_quotient,
                           fixed_sublattice, group_closure, integer_kernel, kernel_mod_d)
from aniso.pairing import (AlternatingPairing, FiniteAbelianGroup, GroupTooLarge,
                           InvalidPairing, IsotropicSubgroup, ValidationResult)
from aniso.integers import _prime_factors, _split_prime_power
from aniso.quadform import QuadraticForm, _pfister_descriptor, is_nondegenerate
from aniso.integers import binary_power, least_power
from aniso.scalars import (DivisionByZero, Field, FieldDescriptor, FieldElement,
                           FieldTooLarge, RootOfUnityMissing, ScalarError,
                           UndecidedPower, _FiniteField, _Rationals,
                           _fraction_kth_root, _p_to_tuple, _render_uni,
                           _u_inverse, cyclotomic_polynomial,
                           modulus_polynomial, prime_field, rationals)
from aniso.torus import (BadGroupTable, CharDividesOrder, ExponentBoundReport,
                         NotAnisotropic, TorsionReport, TorusError, TorusModel)


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


def kth_roots_in_newton_box(elt: FieldElement, k: int, cap: int = 4096) -> list[FieldElement]:
    """Every r with r^k = elt among the polynomials whose exponent of each
    variable x_i is at most deg_{x_i}(elt)/k, by a scan of all their
    coefficient vectors over the finite base field. elt is a nonzero
    polynomial in a function field over a finite field."""
    d = elt.descriptor
    field = Field(d)
    num, den = elt.payload
    if den != field.one.payload[1] or not num:
        raise ScalarError("the Newton box scan needs a nonzero polynomial")
    box = [max(e[i] for e, _ in num) // k for i in range(len(d.variables))]
    monomials = []
    for exps in itertools.product(*(range(b + 1) for b in box)):
        m = field.one
        for x, e in zip(field.vars(), exps):
            m = m * x ** e
        monomials.append(m)
    constants = [field.lift(c) for c in Field(d.base).elements()]
    if len(constants) ** len(monomials) > cap:
        raise FieldTooLarge(f"{len(constants)}^{len(monomials)} candidates exceed the cap {cap}")
    roots = []
    for coeffs in itertools.product(constants, repeat=len(monomials)):
        r = sum((c * m for c, m in zip(coeffs, monomials)), field.zero)
        if r ** k == elt:
            roots.append(r)
    return roots


# ---------------------------------------------------------------------------
# finite fields by polynomials and scans: the library's former F_{p^m}
# arithmetic, a product and a remainder in F_p[t] and an extended Euclid
# for the inverse, and its former element scans for roots of unity,
# discrete logs and k-th roots, which multiply with the field's own mul

def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_rem(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        c = (a[-1] * inv_lead) % p
        k = len(a) - 1 - df
        for j in range(df + 1):
            a[k + j] = (a[k + j] - c * f[j]) % p
        _fp_trim(a)
    return a


def _coefficients(d, x) -> list:
    """The coefficients [c_0, ..., c_{m-1}] of an F_{p^m} payload: its m
    base-p digits, the constant coefficient highest."""
    out = []
    for _ in range(d.m):
        x, c = divmod(x, d.p)
        out.append(c)
    return out[::-1]


def _from_coefficients(d, a: list):
    """The payload of the coefficients a = [c_0, ..., c_k], k < m."""
    x = 0
    for c in a + [0] * (d.m - len(a)):
        x = x * d.p + c
    return x


def finite_field_mul_by_polynomials(d, x, y):
    f = list(modulus_polynomial(d.p, d.m))
    return _from_coefficients(d, _fp_rem(_fp_mul(_coefficients(d, x), _coefficients(d, y),
                                                 d.p), f, d.p))


def finite_field_inv_by_polynomials(d, x):
    f = list(modulus_polynomial(d.p, d.m))
    inverse = _u_inverse(prime_field(d.p), _coefficients(d, x), f)
    return _from_coefficients(d, _fp_rem(inverse, f, d.p))


def _mul_by_polynomials(d):
    return lambda x, y: finite_field_mul_by_polynomials(d, x, y)


# the scans multiply by polynomials, not by d.mul, so that they check the
# log tables instead of reading them
def zeta_by_scan(d, order: int):
    """The first element of the given order in element order: x has order
    d when x^d = 1 and x^(d/r) != 1 for each prime r dividing d, each power
    taken by polynomial products."""
    if (d.size() - 1) % order:
        raise RootOfUnityMissing(f"{d!r} has no element of order {order}")
    one, mul, primes = d.one(), _mul_by_polynomials(d), set(_prime_factors(order))
    for x in d.payloads():
        if not d.is_zero(x) and binary_power(x, order, one, mul) == one and all(
                binary_power(x, order // r, one, mul) != one for r in primes):
            return x
    raise RootOfUnityMissing(f"{d!r} has no element of order {order}")


def root_of_unity_log_by_scan(d, x, cap: int = 65536) -> Optional[Fraction]:
    """t / (q - 1) for x = zeta(q - 1)^t, by walking the powers of
    zeta_by_scan(d, q - 1); None for zero."""
    q = d.size()
    if q > cap:
        raise FieldTooLarge(f"discrete log capped at {cap} elements")
    gen, acc, mul = zeta_by_scan(d, q - 1), d.one(), _mul_by_polynomials(d)
    for t in range(q - 1):
        if x == acc:
            return Fraction(t, q - 1)
        acc = mul(acc, gen)
    return None


def kth_roots_by_scan(d, xs, ks, cap: int = 4096) -> dict:
    """{(x, k): the first r in element order with r^k = x, or None} for
    each x in xs and k in ks, by one scan that takes r^1, ..., r^max(ks)
    of every r."""
    if d.size() > cap:
        raise UndecidedPower(f"k-th roots in {d!r} are searched only up to {cap} elements")
    mul, wanted, roots = _mul_by_polynomials(d), {(x, k) for x in xs for k in ks}, {}
    for r in d.payloads():
        power = d.one()
        for k in range(1, max(ks) + 1):
            power = mul(power, r)
            if (power, k) in wanted:
                roots.setdefault((power, k), r)
    return {key: roots.get(key) for key in wanted}


# ---------------------------------------------------------------------------
# function-field payloads through dicts: the library's former polynomial
# kernels on {exponent tuple: nonzero base payload}, normalize, the
# primitive pseudo-remainder gcd and k-th roots on them, and sums and
# products that sort back into stored tuples once

def _p_add(bd, A, B):
    out = dict(A)
    for e, c in B.items():
        if e in out:
            s = bd.add(out[e], c)
            if bd.is_zero(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def _p_sub(bd, A, B):
    return _p_add(bd, A, {e: bd.neg(c) for e, c in B.items()})


def _p_mul(bd, A, B):
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(map(operator.add, ea, eb))
            c = bd.mul(ca, cb)
            if e in out:
                c = bd.add(out[e], c)
            if bd.is_zero(c):
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _p_scale(bd, A, c):
    if bd.is_zero(c):
        return {}
    return {e: bd.mul(a, c) for e, a in A.items()}


def _p_deg(A, i) -> int:
    return max((e[i] for e in A), default=0)


def _p_lead(A):
    e = max(A)
    return e, A[e]


def _p_monic(bd, A):
    if not A:
        return A
    _, c = _p_lead(A)
    if c == bd.one():
        return A
    return _p_scale(bd, A, bd.inv(c))


def _p_exact_div(bd, A, B):
    # works over a field whenever B divides A; lex-greedy cancellation
    if not B:
        raise DivisionByZero("polynomial division by zero")
    eb, cb = _p_lead(B)
    inv_cb = bd.inv(cb)
    R = dict(A)
    Q = {}
    while R:
        e, c = _p_lead(R)
        de = tuple(i - j for i, j in zip(e, eb))
        if any(i < 0 for i in de):
            raise ArithmeticError("polynomial division not exact")
        qc = bd.mul(c, inv_cb)
        Q[de] = qc
        R = _p_sub(bd, R, _p_mul(bd, {de: qc}, B))
    return Q


def _p_coeffs_in_var(A, i):
    # split A by the power of variable i; coefficient polys keep arity with slot i zeroed
    out = {}
    for e, c in A.items():
        key = e[i]
        re = e[:i] + (0,) + e[i + 1:]
        out.setdefault(key, {})[re] = c
    return out


def _p_content_pp(bd, A, i, nv):
    coeffs = list(_p_coeffs_in_var(A, i).values())
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = _p_gcd(bd, cont, c, nv)
        if len(cont) == 1 and max(cont) == (0,) * nv:
            break
    cont = _p_monic(bd, cont)
    return cont, _p_exact_div(bd, A, cont)


def _p_prem(bd, A, B, i):
    # pseudo-remainder of A by B in variable i
    dB = _p_deg(B, i)
    lcB = {e[:i] + (0,) + e[i + 1:]: c for e, c in B.items() if e[i] == dB}
    R = dict(A)
    nv = len(next(iter(B)))
    while R and _p_deg(R, i) >= dB:
        dR = _p_deg(R, i)
        lcR = {e[:i] + (0,) + e[i + 1:]: c for e, c in R.items() if e[i] == dR}
        shift = (0,) * i + (dR - dB,) + (0,) * (nv - i - 1)
        R = _p_sub(bd, _p_mul(bd, lcB, R), _p_mul(bd, _p_mul(bd, lcR, {shift: bd.one()}), B))
    return R


def _p_gcd(bd, A, B, nv):
    """gcd in base[x1..xnv], normalized with leading coefficient 1."""
    if not A:
        return _p_monic(bd, dict(B))
    if not B:
        return _p_monic(bd, dict(A))
    if len(A) == 1 or len(B) == 1:
        # gcd with a monomial: componentwise min over every exponent present
        mins = None
        for e in itertools.chain(A, B):
            mins = e if mins is None else tuple(map(min, mins, e))
        return {mins: bd.one()}
    main = next((i for i in range(nv) if _p_deg(A, i) or _p_deg(B, i)), None)
    if main is None:
        return {(0,) * nv: bd.one()}
    contA, ppA = _p_content_pp(bd, A, main, nv)
    contB, ppB = _p_content_pp(bd, B, main, nv)
    contG = _p_gcd(bd, contA, contB, nv)
    R0, R1 = ppA, ppB
    if _p_deg(R0, main) < _p_deg(R1, main):
        R0, R1 = R1, R0
    while R1:
        R = _p_prem(bd, R0, R1, main)
        if R:
            # a monic primitive part keeps base-field coefficients bounded
            R = _p_monic(bd, _p_content_pp(bd, R, main, nv)[1])
        R0, R1 = R1, R
    if _p_deg(R0, main) > 0:
        R0 = _p_content_pp(bd, R0, main, nv)[1]
    return _p_monic(bd, _p_mul(bd, contG, R0))


def _p_kth_root(bd, A: dict, k: int, nv: int):
    """k-th root of a polynomial, char coprime to k, or None: greedy on lex
    terms inside the Newton box deg_{x_i} <= deg_{x_i}(A)/k."""
    le, lc = _p_lead(A)
    if any(e % k for e in le):
        return None
    rc = bd.kth_root(lc, k)
    if rc is None:
        return None
    ge = tuple(e // k for e in le)
    G = {ge: rc}
    k_elem = bd.from_int(k)
    if bd.is_zero(k_elem):
        raise AssertionError("characteristic divides k in coprime branch")
    he = tuple(e * (k - 1) for e in ge)
    hc = bd.mul(k_elem, bd.power(rc, k - 1))
    box = [max(e[i] for e in A) // k for i in range(nv)]
    while True:
        Gpow = G
        for _ in range(k - 1):
            Gpow = _p_mul(bd, Gpow, G)
        diff = _p_sub(bd, A, Gpow)
        if not diff:
            return G
        de, dc = _p_lead(diff)
        # next term t satisfies lt(diff) = k * lt(G)^(k-1) * t
        te = tuple(a - b for a, b in zip(de, he))
        if any(not 0 <= t <= b for t, b in zip(te, box)):
            return None
        G[te] = bd.div(dc, hc)


def kth_root_by_dicts(bd, A: dict, k, nv, char):
    """A k-th root of the dict polynomial A, or None if there is none."""
    if not A:
        return {}
    if char and k % char == 0:
        # Frobenius branch: exponents divisible by char, coefficients have char-th roots
        if any(e % char for exp in A for e in exp):
            return None
        root = {}
        for e, c in A.items():
            rc = bd.kth_root(c, char)
            if rc is None:
                return None
            root[tuple(x // char for x in e)] = rc
        if k == char:
            return root
        return kth_root_by_dicts(bd, root, k // char, nv, char)
    return _p_kth_root(bd, A, k, nv)


def normalize_by_dicts(d, num: dict, den: dict):
    """The canonical payload of num/den in the function field d, through the
    dict gcd and exact division, sorted into stored tuples at the end."""
    bd, nv = d.base, len(d.variables)
    if not den:
        raise DivisionByZero(f"zero denominator in {d!r}")
    if not num:
        return ((), d.one()[1])
    if den != {(0,) * nv: bd.one()}:
        g = _p_gcd(bd, num, den, nv)
        if len(g) > 1 or max(g) != (0,) * nv:
            num = _p_exact_div(bd, num, g)
            den = _p_exact_div(bd, den, g)
    _, lc = _p_lead(den)
    if lc != bd.one():
        inv = bd.inv(lc)
        num = _p_scale(bd, num, inv)
        den = _p_scale(bd, den, inv)
    return (_p_to_tuple(num), _p_to_tuple(den))


def function_field_add_by_dicts(d, x, y):
    """x + y for payloads of the function field d, with both stored tuples
    turned into dicts and the sum sorted back into a tuple."""
    bd = d.base
    n1, d1 = dict(x[0]), dict(x[1])
    n2, d2 = dict(y[0]), dict(y[1])
    if x[1] == y[1]:
        num = _p_add(bd, n1, n2)
        if x[1] == d.one()[1]:
            return (_p_to_tuple(num), x[1])
        return normalize_by_dicts(d, num, d1)
    num = _p_add(bd, _p_mul(bd, n1, d2), _p_mul(bd, n2, d1))
    return normalize_by_dicts(d, num, _p_mul(bd, d1, d2))


def function_field_mul_by_dicts(d, x, y):
    """x * y for payloads of the function field d, through dicts and one
    sort, zero operands included."""
    bd = d.base
    num = _p_mul(bd, dict(x[0]), dict(y[0]))
    one = d.one()[1]
    if x[1] == one and y[1] == one:
        return (_p_to_tuple(num), one)
    return normalize_by_dicts(d, num, _p_mul(bd, dict(x[1]), dict(y[1])))


def dot_by_fold(d, pairs):
    """sum x y over payload pairs, one mul and one add per pair: the oracle
    for each kind's FieldDescriptor.dot."""
    acc = d.zero()
    for x, y in pairs:
        acc = d.add(acc, d.mul(x, y))
    return acc


# ---------------------------------------------------------------------------
# Q(zeta_n) payloads as tuples of Fractions, length deg(Phi_n)

def cy_reduce(n: int, cs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    cs = list(cs) + [Fraction(0)] * max(0, d - len(cs))
    for k in range(len(cs) - 1, d - 1, -1):
        c = cs[k]
        if c:
            for j in range(d):
                cs[k - d + j] -= c * phi[j]
            cs[k] = Fraction(0)
    return tuple(cs[:d])


def cy_mul(n, x, y):
    # integer numerators over one denominator per factor; Phi_n is monic
    # with integer coefficients, so cy_reduce keeps them integers
    dx = math.lcm(*(c.denominator for c in x))
    dy = math.lcm(*(c.denominator for c in y))
    xs = [c.numerator * (dx // c.denominator) for c in x]
    ys = [c.numerator * (dy // c.denominator) for c in y]
    out = [0] * (len(xs) + len(ys) - 1)
    for i, xi in enumerate(xs):
        if xi:
            for j, yj in enumerate(ys):
                if yj:
                    out[i + j] += xi * yj
    den = dx * dy
    return tuple(Fraction(c, den) for c in cy_reduce(n, out))


class FractionOnlyQ(_Rationals):
    """Q with every payload a Fraction, integral or not: the rules the
    rationals descriptor had before an integral value became an int."""

    def from_int(self, k: int):
        return Fraction(k)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    # the fold of the add and mul above, not the int-making fused sum of Q
    dot = FieldDescriptor.dot

    def _inv(self, x):
        return Fraction(1) / x

    def payload_from_json(self, obj):
        return _exact_fraction(obj)

    def random_payload(self, rng, height, degree, terms):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def _kth_root(self, x, k: int):
        return _fraction_kth_root(x, k)


class FractionCyclotomic:
    """Q(zeta_n) on tuples of Fractions: the payload rules the cyclotomic
    descriptor had before it kept integer numerators over one
    denominator."""

    def __init__(self, n: int):
        self.n = n

    def from_int(self, k: int):
        return cy_reduce(self.n, [Fraction(k)])

    def one(self):
        return self.from_int(1)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return cy_mul(self.n, x, y)

    def inv(self, x):
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        return cy_reduce(self.n, _u_inverse(rationals(), x, phi))

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def power(self, x, e: int):
        return binary_power(x, e, self.one(), self.mul)

    def render(self, x) -> str:
        return _render_uni(x, f"z{self.n}")

    def payload_to_json(self, x):
        return [str(c) for c in x]

    def payload_from_json(self, obj):
        return cy_reduce(self.n, [Fraction(_exact_json(c)) for c in _json_list(obj)])

    def random_payload(self, rng, height, degree, terms):
        return tuple(Fraction(rng.randint(-height, height))
                     for _ in range(len(cyclotomic_polynomial(self.n)) - 1))


# ---------------------------------------------------------------------------
# reduced norms on FieldElements, and inverses through a linear system

def regular_representation(x) -> list[list[list[FieldElement]]]:
    """Matrix of left multiplication by x on the right-module basis v^j.

    Entry [r][c] is a length-n coefficient list in u: x * v^c equals
    sum_r v^r * (entry polynomial in u), using u^i v^t = z^{-it} v^t u^i.
    """
    spec = x.spec
    if not isinstance(spec, SymbolAlgebraSpec):
        raise AlgebraError("regular representation is for symbol algebras")
    n = spec.degree
    field = spec.field
    mat = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for (i, m), c in x.coefficients.items():
        for col in range(n):
            t = m + col
            coeff = c
            if t >= n:
                t -= n
                coeff = coeff * spec.b
            # u^i v^t = z^{-i t} v^t u^i
            coeff = coeff * spec.zeta_powers[(-i * t) % n]
            mat[t][col][i] = mat[t][col][i] + coeff
    return mat


def gauss_jordan_by_elements(m: list[list], ncols: int) -> tuple[list[int], FieldElement]:
    """Reduce the FieldElement rows m in place to reduced echelon form on
    the first ncols columns, one element operation at a time.

    Pivot rule: in each column, the first row at or below the current rank
    with a nonzero entry. Pivot rows are scaled to a leading one, and each
    row operation touches only the columns from the pivot on. Returns the
    pivot columns and the product of the pivots signed by the row swaps.
    """
    det = Field(m[0][0].descriptor).one
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][col]
        inv = m[rank][col].inverse()
        tail = [x * inv for x in m[rank][col:]]
        m[rank][col:] = tail
        for r, row in enumerate(m):
            f = row[col]
            if r != rank and not f.is_zero:
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return pivots, det


def inverse_by_elements(a) -> Optional[tuple]:
    """a^-1 by gauss_jordan_by_elements on [a | 1], or None when singular."""
    F, n = Field(fieldmatrix.mat_descriptor(a)), len(a)
    m = [list(row) + [F.one if i == j else F.zero for j in range(n)] for i, row in enumerate(a)]
    if len(gauss_jordan_by_elements(m, n)[0]) < n:
        return None
    return tuple(tuple(row[n:]) for row in m)


def nullspace_by_elements(a) -> list[tuple]:
    """The right kernel read off gauss_jordan_by_elements, one vector per
    free column."""
    F, cols = Field(fieldmatrix.mat_descriptor(a)), len(a[0])
    m = [list(row) for row in a]
    pivots, _ = gauss_jordan_by_elements(m, cols)
    basis = []
    for free in range(cols):
        if free not in pivots:
            vec = [F.zero] * cols
            vec[free] = F.one
            for row, col in zip(m, pivots):
                vec[col] = -row[free]
            basis.append(tuple(vec))
    return basis


def solve_right(a: fieldmatrix.Matrix, b) -> Optional[tuple]:
    """One solution x of a @ x = b, or None. a need not be square."""
    F = Field(fieldmatrix.mat_descriptor(a))
    cols = len(a[0])
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    pivots, _ = gauss_jordan_by_elements(m, cols)
    if any(not row[cols].is_zero for row in m[len(pivots):]):
        return None
    x = [F.zero] * cols
    for row, col in zip(m, pivots):
        x[col] = row[cols]
    return tuple(x)


def algebra_inverse_by_solve(x) -> AlgebraElement:
    """x^-1 as the solution y of x * y = 1, an n^2 x n^2 linear system over
    the base field in the normal-form coordinates."""
    spec = x.spec
    n = spec.degree
    if x.is_zero:
        raise NotInvertible("zero has no inverse")
    basis = [(i, j) for i in range(n) for j in range(n)]
    pos = {key: t for t, key in enumerate(basis)}
    cols = []
    for key in basis:
        prod = x * AlgebraElement(spec, {key: spec.field.one})
        col = [spec.field.zero] * len(basis)
        for k2, c in prod.coefficients.items():
            col[pos[k2]] = c
        cols.append(col)
    mat = fieldmatrix.mat_from_rows([[cols[j][i] for j in range(len(basis))]
                                     for i in range(len(basis))])
    rhs = [spec.field.one if t == pos[(0, 0)] else spec.field.zero
           for t in range(len(basis))]
    sol = solve_right(mat, rhs)
    if sol is None:
        raise NotInvertible("element is a zero divisor")
    return AlgebraElement(spec, {key: sol[t] for key, t in pos.items()})


def _upoly_dot_by_elements(spec, fs, gs) -> list:
    """sum_i f_i g_i in K[u]/(u^n - a), for length-n coefficient lists in u.

    Terms past u^(n-1) are collected first and multiplied by a once per
    coefficient.
    """
    n = spec.degree
    out = [spec.field.zero] * (2 * n - 1)
    for f, g in zip(fs, gs):
        for i, ci in enumerate(f):
            if ci.is_zero:
                continue
            for j, cj in enumerate(g):
                if not cj.is_zero:
                    out[i + j] = out[i + j] + ci * cj
    return [out[k] + out[k + n] * spec.a for k in range(n - 1)] + [out[n - 1]]


def reduced_norm_by_elements(x) -> FieldElement:
    """The reduced norm by Berkowitz's division-free recurrence (Inf.
    Process. Lett. 18 (1984) 147-150), which grows det(t - M) one leading
    principal block at a time, run on FieldElements to its constant term:
    a second determinant of the regular representation, against which
    the minor expansion of csa.reduced_norm is checked."""
    spec = x.spec
    if not isinstance(spec, SymbolAlgebraSpec):
        raise AlgebraError("reduced norm implemented for symbol algebras")
    n = spec.degree
    mat = regular_representation(x)
    one = [spec.field.one] + [spec.field.zero] * (n - 1)
    # coefficients of det(t - M_k), highest power of t first, where M_k is
    # the leading k x k block; M_{k+1} = [[M_k, col], [row, corner]]
    charpoly = [one, [-c for c in mat[0][0]]]
    for k in range(1, n):
        row = mat[k][:k]
        col = [mat[r][k] for r in range(k)]
        # first column of the Toeplitz factor:
        # 1, -corner, -row col, -row M_k col, ..., -row M_k^(k-1) col
        toeplitz = [one, mat[k][k]]
        for step in range(k):
            if step:
                col = [_upoly_dot_by_elements(spec, mat[r][:k], col) for r in range(k)]
            toeplitz.append(_upoly_dot_by_elements(spec, row, col))
        toeplitz[1:] = [[-c for c in f] for f in toeplitz[1:]]
        # the last block needs only the constant term det(-M)
        charpoly = [_upoly_dot_by_elements(spec, toeplitz[i::-1], charpoly)
                    for i in (range(k + 2) if k < n - 1 else [n])]
    total = charpoly[-1] if n % 2 == 0 else [-c for c in charpoly[-1]]
    assert all(c.is_zero for c in total[1:]), \
        "reduced norm must be scalar in the u-subfield"
    return total[0]


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


def torsion_points_per_call(t: TorusModel, d: int) -> TorsionReport:
    """torsion_points with a Smith form of the given stack on every call,
    instead of the one the model caches."""
    if t.characteristic and d % t.characteristic == 0:
        raise CharDividesOrder(
            f"torsion order {d} not coprime to characteristic {t.characteristic}")
    structure, witnesses = kernel_mod_d(t.theta_generators, d)
    exponent = structure.exponent
    check = exponent is not None and t.theta_order % exponent == 0
    return TorsionReport(d, structure, tuple(witnesses), check)


def exponent_bound_check_per_d(t: TorusModel, d_range: int) -> ExponentBoundReport:
    """exponent_bound_check by one Smith form per d and one for the
    anisotropy test, none of them the model's cached one."""
    if fixed_sublattice(t.theta_generators):
        raise NotAnisotropic("exponent bounds only hold for anisotropic tori")
    rows = []
    ok = True
    for d in range(2, d_range + 1):
        if t.characteristic and d % t.characteristic == 0:
            continue
        rep = torsion_points_per_call(t, d)
        e = rep.group.exponent
        rows.append((d, e))
        if t.theta_order % e:
            ok = False
        if t.norm_group_order is not None and t.norm_group_order % e:
            ok = False
    return ExponentBoundReport(d_range, t.theta_order, t.norm_group_order,
                               tuple(rows), ok)


def validate_group_table_by_triples(table) -> None:
    """torus.validate_group_table with associativity checked on all n^3
    triples, and the inverse scan after it."""
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise BadGroupTable("associativity fails")
    for i in range(n):
        if 0 not in table[i]:
            raise BadGroupTable(f"element {i} has no inverse")


# ---------------------------------------------------------------------------
# field matrices

def _dot(u, v):
    """Sum of u[i] * v[i] over the pairs with both factors nonzero, each
    pair tested; u[0] * v[0] when there is none."""
    acc = None
    for x, y in zip(u, v):
        if x.is_zero or y.is_zero:
            continue
        acc = x * y if acc is None else acc + x * y
    return u[0] * v[0] if acc is None else acc


def mat_mul_dense(a, b):
    """a @ b with every one of the n³ entry pairs tested for zero."""
    if len(a[0]) != len(b):
        raise fieldmatrix.MatrixError("shape mismatch")
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def mat_vec_dense(a, v) -> tuple:
    """a @ v with every entry pair tested for zero."""
    return tuple(_dot(row, tuple(v)) for row in a)


def products_by_elements(a, b):
    """a @ b on FieldElements, nonzero pairs in row-by-column order; an
    entry with no such pair is row[0] * b[0][j], so a product across two
    fields raises DescriptorMismatch through the element arithmetic."""
    supports = [[(j, y) for j, y in enumerate(row) if not y.is_zero] for row in b]
    first = b[0]
    out = []
    for row in a:
        acc = {}
        for x, support in zip(row, supports):
            if not x.is_zero:
                for j, y in support:
                    acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(tuple(acc[j] if j in acc else row[0] * first[j] for j in range(len(first))))
    return tuple(out)


def mat_scale_by_elements(a, c):
    """c * a, one element product per entry."""
    return tuple(tuple(c * x for x in row) for row in a)


# ---------------------------------------------------------------------------
# quadratic-form sums on FieldElements, one + per term

def evaluate_by_elements(q: QuadraticForm, vector) -> FieldElement:
    """q(vector): c x_i x_j summed over the nonzero terms in coefficient
    order."""
    total = q.field.zero
    for (i, j), c in q.coeffs.items():
        if not (vector[i].is_zero or vector[j].is_zero):
            total = total + c * vector[i] * vector[j]
    return total


def transform_by_elements(q: QuadraticForm, matrix) -> QuadraticForm:
    """The form x -> q(matrix @ x): each term c m_ik m_jl added into the
    coefficient of x_k x_l, the coefficients in order of first appearance."""
    out: dict = {}
    for (i, j), c in q.coeffs.items():
        for k, cik in enumerate(matrix[i]):
            if cik.is_zero:
                continue
            ck = c * cik
            for l, cjl in enumerate(matrix[j]):
                if not cjl.is_zero:
                    key, term = (min(k, l), max(k, l)), ck * cjl
                    out[key] = out[key] + term if key in out else term
    return QuadraticForm(q.descriptor, q.dim, out)


def bil_by_elements(gram, x, y, field) -> FieldElement:
    """x^T gram y, summed over the nonzero terms in row order."""
    total = field.zero
    for xi, row in zip(x, gram):
        for gij, yj in zip(row, y):
            if not (xi.is_zero or gij.is_zero or yj.is_zero):
                total = total + xi * gij * yj
    return total


# ---------------------------------------------------------------------------
# Pfister candidates

def random_candidate_by_elements(k: int, rng, degree: int = 3, terms: int = 2) -> tuple:
    """A Pfister candidate tuple built by element arithmetic: each entry a
    sum of products of a coefficient and powers of the variables, drawing
    from rng in the library's order."""
    field = Field(_pfister_descriptor(k))
    avars = field.vars()
    while True:
        out = []
        for _ in range(2 ** k):
            total = field.zero
            for _ in range(rng.randint(1, terms)):
                mono = field.from_int(rng.randint(-4, 4))
                for a in avars:
                    mono = mono * a ** rng.randint(0, degree)
                total = total + mono
            out.append(total)
        if any(not x.is_zero for x in out):
            return tuple(out)


# ---------------------------------------------------------------------------
# lattices

def int_matmul_dense(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a @ b as the dense sum over every row of a and column of b."""
    if a.cols != b.rows:
        raise LatticeError("shape mismatch")
    bt = tuple(zip(*b.entries))
    return IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                           for row in a.entries))


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, by the Gauss-Jordan of [m | I];
    the library's quotient certificate runs the same elimination on V."""
    n = m.cols
    a = [list(row) + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(m.entries)]
    _unimodular_bareiss(a, n)
    # every pivot entry equals +-1 = its own inverse
    return IntMatrix(tuple(tuple(row[i] * x for x in row[n:])
                           for i, row in enumerate(a)))


@dataclass(frozen=True)
class SNFResult:
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols)))

    def verify(self, m: IntMatrix) -> bool:
        if (self.U @ m @ self.V) != self.D:
            return False
        if abs(self.U.det()) != 1 or abs(self.V.det()) != 1:
            return False
        for i in range(self.D.rows):
            for j in range(self.D.cols):
                if i != j and self.D.entries[i][j]:
                    return False
        return _is_chain(self.diagonal)


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """U @ m @ V = D from lattice._smith_reduce, with the full m x m matrix
    U (all m rows pushed backwards through the log, as _pivot_rows does
    for r) and the full check U @ m @ V = D."""
    a, v, log = _smith_reduce(m.entries)
    result = SNFResult(IntMatrix.from_rows(_pivot_rows(log, m.rows, m.rows)),
                       IntMatrix.from_rows(a),
                       IntMatrix.from_rows(v))
    assert result.verify(m), "internal SNF inconsistency"
    return result


def smith_reduce_reference(m: IntMatrix):
    """lattice._smith_reduce with every column operation over all rows and
    the divisibility scan after every pivot, even one of ±1: the same pivot
    rule, so the same (D, V, log)."""
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    log: list[tuple[int, ...]] = []

    def row_op(op):
        log.append(op)
        _apply_row_op(a, op)

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in itertools.chain(a, v):
            if row[j]:
                row[i] -= q * row[j]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            row_op((pi, t))
        if pj != t:
            swap_cols(pj, t)
        p = a[t][t]
        reduced = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_op((i, t, a[i][t] // p))
                reduced = True
        for j in range(t + 1, cols):
            if a[t][j]:
                col_op(j, t, a[t][j] // p)
                reduced = True
        if reduced:
            continue
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op((t, bad, -1))
            continue
        if a[t][t] < 0:
            row_op((t,))
        t += 1
    return a, v, log


def row_basis_by_inverse(rows, ambient: int) -> list[tuple[int, ...]]:
    """row_basis as s_i times row i of V^-1, with V inverted."""
    rows = [tuple(int(x) for x in r) for r in rows if any(r)]
    if not rows:
        return []
    m = IntMatrix.from_rows(rows)
    if m.cols != ambient:
        raise LatticeError("ambient dimension mismatch")
    diag, v, _, _ = _smith_dv(m.entries)
    vinv = int_inverse(IntMatrix.from_rows(v))
    out = []
    for i, s in enumerate(diag):
        if s:
            out.append(tuple(s * x for x in vinv.row(i)))
    return out


def solve_left(a: IntMatrix, b) -> Optional[tuple[int, ...]]:
    """One integer solution x of x @ a = b, or None."""
    if len(b) != a.cols:
        raise LatticeError("vector length mismatch")
    # with y = x @ U^-1, x @ a = b reads y @ D = b @ V = c: solvable iff
    # d_i | c_i below the rank r and c_i = 0 from r on; taking y_i = 0
    # from r on, x = y @ U needs only U's first r rows
    diag, v, u_r, _ = _smith_dv(a.entries)
    c = _vec_mat(b, v, a.cols)
    r = len(u_r)
    if any(c[i] % diag[i] for i in range(r)) or any(c[r:]):
        return None
    return tuple(_vec_mat([c[i] // diag[i] for i in range(r)], u_r, a.rows))


def abelian_quotient_by_bareiss(numerator_rows, denominator_rows, ambient: int):
    """abelian_quotient with the denominator rows written in the numerator
    basis by one fraction-free elimination of [num^T | den^T]."""
    num = row_basis_by_inverse(numerator_rows, ambient)
    den = [tuple(int(x) for x in r) for r in denominator_rows if any(r)]
    if not num:
        return AbelianGroupStructure(()), [], []
    r = len(num)
    if not den:
        return (AbelianGroupStructure((), free_rank=r), [], list(num))
    # num is independent, so the pivots are 0..r-1
    aug = [[row[k] for row in num] + [row[k] for row in den] for k in range(ambient)]
    _bareiss(aug, r)
    scale = aug[0][0]
    if (any(x for row in aug[r:] for x in row[r:])
            or any(x % scale for row in aug[:r] for x in row[r:])):
        raise LatticeError("denominator lattice not contained in numerator lattice")
    coeff_rows = [tuple(aug[i][r + t] // scale for i in range(r)) for t in range(len(den))]
    c = IntMatrix.from_rows(coeff_rows)
    diag, v, _, _ = _smith_dv(c.entries)
    vinv = int_inverse(IntMatrix.from_rows(v))
    diag = list(diag) + [0] * (r - len(diag))
    torsion, free = [], []
    factors = []
    den_basis = row_basis_by_inverse(den, ambient)
    for i in range(r):
        w = vinv.row(i)
        gen = tuple(sum(w[j] * num[j][k] for j in range(r)) for k in range(ambient))
        s = diag[i]
        if s == 0:
            free.append(gen)
        elif s > 1:
            factors.append(s)
            torsion.append(_reduce_mod_rows(gen, den_basis))
    structure = AbelianGroupStructure(tuple(factors), free_rank=len(free))
    return structure, torsion, free


def h1_through_quotient(generators, cap: Optional[int] = None) -> AbelianGroupStructure:
    """H¹(Θ, Z^n) as (L/NL)^Θ / (L^Θ/NL^Θ), N = |Θ|: the witnesses of the
    N-torsion and the fixed sublattice, each with N Z^n added, and their
    quotient, in five Smith forms."""
    order = len(group_closure(generators, cap))
    if order == 1:
        return AbelianGroupStructure(())
    n = generators[0].cols
    _, witnesses = kernel_mod_d(generators, order)
    multiples = [tuple(order if i == j else 0 for j in range(n)) for i in range(n)]
    structure, _, _ = abelian_quotient_by_bareiss(witnesses + multiples,
                                                  fixed_sublattice(generators) + multiples, n)
    return structure


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


def _mod1(q: Fraction) -> Fraction:
    return q - Fraction(q.numerator // q.denominator)


def _value_on(group: FiniteAbelianGroup, gram, x, y) -> Fraction:
    x = group.reduce(x)
    y = group.reduce(y)
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj and gram[i][j]:
                    total += xi * yj * gram[i][j]
    return _mod1(total)


def value_by_fractions(p: AlternatingPairing, x, y) -> Fraction:
    """The pairing's value as a sum of Fractions over its reduced gram."""
    return _value_on(p.group, p.gram, x, y)


def validate_pairing_by_fractions(p: AlternatingPairing) -> ValidationResult:
    """validate_pairing's three tests, in its order, on the Fraction gram."""
    factors = p.group.invariant_factors
    k = p.group.ngens
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


def _orthogonal_by_fractions(group: FiniteAbelianGroup, gram, vectors):
    k = group.ngens
    big = group.exponent
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rows = [[int(_value_on(group, gram, v, e) * big) for e in units]
            + [big if col == j else 0 for col in range(len(vectors))]
            for j, v in enumerate(vectors)]
    return [row[:k] for row in integer_kernel(IntMatrix.from_rows(rows))]


def isotropic_subgroup_by_solve(p: AlternatingPairing) -> IsotropicSubgroup:
    """isotropic_subgroup with Fraction values, and per level the kernel,
    abelian_quotient with its reduced generators, and a solve_left for the
    coordinates of g: five Smith forms per level."""
    check = validate_pairing_by_fractions(p)
    if not check:
        raise InvalidPairing(check.message)
    group = p.group
    if not group.invariant_factors:
        return IsotropicSubgroup((), (), 1)
    gens_out, orders_out = [], []
    for ell in sorted(set(_prime_factors(group.exponent))):
        part_factors, embed = [], []
        for j, d in enumerate(group.invariant_factors):
            rest, v = _split_prime_power(d, ell)
            if v:
                part_factors.append(d // rest)
                vec = [0] * group.ngens
                vec[j] = rest
                embed.append(tuple(vec))
        part_gram = [[value_by_fractions(p, a, b) for b in embed] for a in embed]
        for coeffs, order in _isotropic_primary_by_solve(ell, part_factors, part_gram):
            vec = group.zero
            for c, e in zip(coeffs, embed):
                vec = group.add(vec, group.scale(c, e))
            gens_out.append(vec)
            orders_out.append(order)
    return IsotropicSubgroup(tuple(gens_out), tuple(orders_out), math.prod(orders_out))


def _isotropic_primary_by_solve(ell, factors, gram):
    k = len(factors)
    if k == 0:
        return []
    group = FiniteAbelianGroup(factors)
    big = group.exponent
    g = (0,) * (k - 1) + (1,)
    kernel_rows = _orthogonal_by_fractions(group, gram, [g])
    den_rows = [[factors[j] if i == j else 0 for j in range(k)] for i in range(k)]
    structure, torsion_gens, free_gens = abelian_quotient(kernel_rows, den_rows, k)
    assert not free_gens
    hs = [group.reduce(h) for h in torsion_gens]
    ms = list(structure.invariant_factors)
    if not hs:
        return []
    sol = solve_left(IntMatrix.from_rows([list(h) for h in hs] + den_rows), list(g))
    assert sol is not None
    gamma = [sol[i] % ms[i] for i in range(len(hs))]
    split = next(i for i in range(len(hs) - 1, -1, -1) if ms[i] == big and gamma[i] % ell)
    rest = [hs[i] for i in range(len(hs)) if i != split]
    rest_orders = [ms[i] for i in range(len(hs)) if i != split]
    sub_gram = [[_value_on(group, gram, a, b) for b in rest] for a in rest]
    out = [(g, big)]
    for coeffs_sub, order in _isotropic_primary_by_solve(ell, rest_orders, sub_gram):
        vec = group.zero
        for c, h in zip(coeffs_sub, rest):
            vec = group.add(vec, group.scale(c, h))
        out.append((vec, order))
    return out


# ---------------------------------------------------------------------------
# finite matrix groups

def closure_over_all_generators(identity, generators, mul, key, cap: int,
                                error: Exception) -> list:
    """Breadth-first closure from identity, multiplying each element found
    on the right by every given generator in order: |G| m products for m
    generators. Raises error when a new element would exceed cap."""
    seen = {key(identity)}
    elements = [identity]
    for x in elements:
        for g in generators:
            y = mul(x, g)
            k = key(y)
            if k not in seen:
                if len(elements) >= cap:
                    raise error
                seen.add(k)
                elements.append(y)
    return elements


def group_order_by_walk(descriptor: FieldDescriptor, elements) -> int:
    """The order of the matrix group listed in elements, certified by the
    generator walk over the list: a listed matrix becomes a generator when
    the closure of the generators so far misses it, a singular one is
    refused, and each closure must fit within the list."""
    if not elements:
        raise BoundsError("a group needs at least the identity")
    n = len(elements[0])
    ident = fieldmatrix.identity(Field(descriptor), n)
    index = {}
    for m in elements:
        if len(m) != n or any(len(row) != n for row in m):
            raise BoundsError("mixed matrix shapes in one group")
        if m in index:
            raise BoundsError("duplicate element in group list")
        index[m] = True
    if ident not in index:
        raise BoundsError("identity matrix missing")
    gens, reached = [], {ident}
    for m in elements:
        if m not in reached:
            if fieldmatrix.mat_rank(m) < n:
                raise BoundsError("singular matrix in group list")
            gens.append(m)
            reached = set(closure_over_all_generators(
                ident, gens, fieldmatrix.mat_mul, lambda x: x, len(elements),
                BoundsError("element list is not closed under multiplication")))
    return len(elements)


def group_order_by_closure_and_walk(descriptor: FieldDescriptor, generators,
                                    cap: int = 100000) -> int:
    """The order of the group the generators make: their breadth-first
    closure, certified again by group_order_by_walk."""
    if not generators:
        raise BoundsError("need at least one generator")
    ident = fieldmatrix.identity(Field(descriptor), len(generators[0]))
    gens = [fieldmatrix.mat_from_rows([list(r) for r in g]) for g in generators]
    elements = closure_over_all_generators(ident, gens, fieldmatrix.mat_mul, lambda m: m,
                                           cap, bounds.GroupTooLarge(f"closure exceeded cap {cap}"))
    return group_order_by_walk(descriptor, elements)


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
