"""Exact scalar arithmetic for the field towers used across the package.

Five kinds of coefficient fields, each with a canonical representation so
that ``==`` on elements is plain representation equality:

- ``rationals()``             stdlib Fraction
- ``cyclotomic(n)``           Q(z), z a primitive n-th root of unity; tuples
                              of Fractions reduced mod the n-th cyclotomic
                              polynomial
- ``prime_field(p)``          integers mod p
- ``finite_field(p, m)``      F_p[t] mod a fixed irreducible polynomial: the
                              first monic irreducible of degree m in lex
                              order on the coefficient tuple (c_0..c_{m-1});
                              deterministic, cached, reproducible bit-exactly
- ``function_field(base, v)`` rational functions over any base above;
                              reduced fractions of multivariate polynomials,
                              gcd(num, den) = 1, denominator monic under lex
                              monomial order in the declared variable order

Zero always has a unique encoding, so equality and hashing never need
normalization at comparison time.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Union

from .errors import AnisoError


class ScalarError(AnisoError):
    pass


class DescriptorMismatch(ScalarError):
    pass


class DivisionByZero(ScalarError):
    pass


class RootOfUnityMissing(ScalarError):
    pass


class FieldTooLarge(ScalarError):
    pass


class NotAlgebraic(ScalarError):
    pass


class UndecidedPower(ScalarError):
    """k-th power recognition fell outside the decidable fragment."""


_KINDS = ("rationals", "cyclotomic", "prime_field", "finite_field", "function_field")


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str
    n: int = 0
    p: int = 0
    m: int = 0
    base: Optional["FieldDescriptor"] = None
    variables: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScalarError(f"unknown field kind {self.kind!r}")
        if self.kind == "cyclotomic" and self.n < 1:
            raise ScalarError("cyclotomic order must be >= 1")
        if self.kind in ("prime_field", "finite_field"):
            if self.p < 2 or not _is_prime(self.p):
                raise ScalarError(f"{self.p} is not prime")
        if self.kind == "finite_field" and self.m < 1:
            raise ScalarError("finite field degree must be >= 1")
        if self.kind == "function_field":
            if self.base is None or not self.variables:
                raise ScalarError("function field needs a base and variables")
            if len(set(self.variables)) != len(self.variables):
                raise ScalarError("function field variables must be distinct")

    @property
    def characteristic(self) -> int:
        if self.kind in ("prime_field", "finite_field"):
            return self.p
        if self.kind == "function_field":
            return self.base.characteristic
        return 0

    def __repr__(self):
        if self.kind == "rationals":
            return "Q"
        if self.kind == "cyclotomic":
            return f"Q(z{self.n})"
        if self.kind == "prime_field":
            return f"F_{self.p}"
        if self.kind == "finite_field":
            return f"F_{self.p ** self.m}"
        return f"{self.base!r}({', '.join(self.variables)})"


def rationals() -> FieldDescriptor:
    return FieldDescriptor("rationals")


def cyclotomic(n: int) -> FieldDescriptor:
    return FieldDescriptor("cyclotomic", n=n)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor("prime_field", p=p)


def finite_field(p: int, m: int) -> FieldDescriptor:
    return FieldDescriptor("finite_field", p=p, m=m)


def function_field(base: FieldDescriptor, variables) -> FieldDescriptor:
    return FieldDescriptor("function_field", base=base, variables=tuple(variables))


# ---------------------------------------------------------------------------
# integer helpers: primality, factorisation, prime-power parts, power orders

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _primes_upto(n: int) -> list[int]:
    sieve = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for k in range(p * p, n + 1, p):
                sieve[k] = False
    return out


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 in ascending order, with multiplicity."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(m, e) with n = m * p**e and p not dividing m; n nonzero, p >= 2."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def binary_power(x, e: int, one, mul):
    """x**e for e >= 0 by square and multiply, starting from one."""
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def least_power(x, mul, test, bound: int):
    """(k, x**k) for the least k in 1..bound with test(x**k), else None.

    Powers are built by repeated right multiplication with mul, so x may
    be a field element, a matrix or an algebra element.
    """
    acc = x
    for k in range(1, bound + 1):
        if test(acc):
            return k, acc
        acc = mul(acc, x)
    return None


# ---------------------------------------------------------------------------
# integer univariate helpers (cyclotomic polynomial table)

def _int_poly_exact_div(a: list[int], b) -> list[int]:
    # b monic; division over Z must be exact
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    out = [0] * (da - db + 1)
    for k in range(da, db - 1, -1):
        c = a[k]
        if c:
            out[k - db] = c
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    if any(a):
        raise AssertionError("division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _cyclo_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# ---------------------------------------------------------------------------
# cyclotomic payloads: tuples of Fractions, length deg(Phi_n)

def _cy_reduce(n: int, cs: list[Fraction]) -> tuple[Fraction, ...]:
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


def _cy_mul(n, x, y):
    # integer numerators over one denominator per factor; Phi_n is monic
    # with integer coefficients, so _cy_reduce keeps them integers
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
    return tuple(Fraction(c, den) for c in _cy_reduce(n, out))


def _qpoly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _qpoly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    inv_lead = 1 / b[-1]
    q = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv_lead
        k = len(a) - 1 - db
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        _qpoly_trim(a)
        if not a:
            break
    return q, a


def _cy_inv(n, x):
    if not any(x):
        raise DivisionByZero("cyclotomic inverse of zero")
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    # extended Euclid: s*x + t*phi = gcd (constant since Phi_n is irreducible)
    r0, r1 = phi, _qpoly_trim(list(x))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _qpoly_divmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        r0, s0, r1, s1 = r1, s1, _qpoly_trim(r), _qpoly_trim(s)
    c = 1 / r0[0]
    return _cy_reduce(n, [ci * c for ci in s0])


# ---------------------------------------------------------------------------
# F_p[t] helpers and the fixed irreducible-modulus table

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


def _fp_powmod(a, e, f, p):
    return binary_power(_fp_rem(a, f, p), e, [1],
                        lambda x, y: _fp_rem(_fp_mul(x, y, p), f, p))


def _fp_gcd(a, b, p):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_rem(a, b, p)
    return a


def _fp_is_irreducible(f, p):
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    if _fp_powmod(x, p ** m, f, p) != x:
        return False
    for q in set(_prime_factors(m)):
        g = _fp_powmod(x, p ** (m // q), f, p)
        g = _fp_trim([(gi - xi) % p for gi, xi in itertools.zip_longest(g, x, fillvalue=0)])
        if len(_fp_gcd(g, f, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def modulus_polynomial(p: int, m: int) -> tuple[int, ...]:
    """Fixed modulus for F_{p^m}: first monic irreducible of degree m in lex
    order on (c_0, ..., c_{m-1}). Ascending coefficients including lead 1."""
    # for m > 1 a zero c_0 makes t a factor, so the search starts at c_0 = 1
    first = range(p) if m == 1 else range(1, p)
    for tail in itertools.product(first, *[range(p)] * (m - 1)):
        f = list(tail) + [1]
        if _fp_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _gf_inv(x, p, m):
    if not any(x):
        raise DivisionByZero("finite field inverse of zero")
    f = list(modulus_polynomial(p, m))
    r0, r1 = f, _fp_trim(list(x))
    s0, s1 = [], [1]
    while r1:
        # division step of extended Euclid over F_p
        q = []
        a, b = list(r0), r1
        db = len(b) - 1
        inv_lead = pow(b[-1], p - 2, p)
        q = [0] * max(0, len(a) - db)
        while len(a) - 1 >= db and a:
            c = (a[-1] * inv_lead) % p
            k = len(a) - 1 - db
            q[k] = c
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
            _fp_trim(a)
        s = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - qi * sj) % p
        r0, s0, r1, s1 = r1, s1, _fp_trim(a), _fp_trim(s)
    c = pow(r0[0], p - 2, p)
    out = [(si * c) % p for si in s0]
    out += [0] * (m - len(out))
    return tuple(out[:m])


# ---------------------------------------------------------------------------
# base-kind dispatch on raw payloads

def _kzero(d):
    if d.kind == "rationals":
        return Fraction(0)
    if d.kind == "cyclotomic":
        return (Fraction(0),) * _cyclo_degree(d.n)
    if d.kind == "prime_field":
        return 0
    if d.kind == "finite_field":
        return (0,) * d.m
    return ((), _ff_one(d))


def _kone(d):
    if d.kind == "rationals":
        return Fraction(1)
    if d.kind == "cyclotomic":
        return _cy_reduce(d.n, [Fraction(1)])
    if d.kind == "prime_field":
        return 1
    if d.kind == "finite_field":
        return tuple([1] + [0] * (d.m - 1))
    return (_ff_one(d), _ff_one(d))


def _kfrom_int(d, k: int):
    if d.kind == "rationals":
        return Fraction(k)
    if d.kind == "cyclotomic":
        return _cy_reduce(d.n, [Fraction(k)])
    if d.kind == "prime_field":
        return k % d.p
    if d.kind == "finite_field":
        return tuple([k % d.p] + [0] * (d.m - 1))
    c = _kfrom_int(d.base, k)
    nv = len(d.variables)
    num = {} if _kis_zero(d.base, c) else {(0,) * nv: c}
    return (_p_to_tuple(num), _ff_one(d))


def _kis_zero(d, x) -> bool:
    if d.kind == "rationals":
        return x == 0
    if d.kind == "cyclotomic":
        return not any(x)
    if d.kind == "prime_field":
        return x == 0
    if d.kind == "finite_field":
        return not any(x)
    return not x[0]


def _kadd(d, x, y):
    if d.kind == "rationals":
        return x + y
    if d.kind == "cyclotomic":
        return tuple(a + b for a, b in zip(x, y))
    if d.kind == "prime_field":
        return (x + y) % d.p
    if d.kind == "finite_field":
        return tuple((a + b) % d.p for a, b in zip(x, y))
    return _ff_add(d, x, y)


def _kneg(d, x):
    if d.kind == "rationals":
        return -x
    if d.kind == "cyclotomic":
        return tuple(-a for a in x)
    if d.kind == "prime_field":
        return (-x) % d.p
    if d.kind == "finite_field":
        return tuple((-a) % d.p for a in x)
    num, den = x
    bd = d.base
    return (tuple((e, _kneg(bd, c)) for e, c in num), den)


def _ksub(d, x, y):
    return _kadd(d, x, _kneg(d, y))


def _kmul(d, x, y):
    if d.kind == "rationals":
        return x * y
    if d.kind == "cyclotomic":
        return _cy_mul(d.n, x, y)
    if d.kind == "prime_field":
        return (x * y) % d.p
    if d.kind == "finite_field":
        prod = _fp_mul(list(x), list(y), d.p)
        red = _fp_rem(prod, list(modulus_polynomial(d.p, d.m)), d.p)
        red += [0] * (d.m - len(red))
        return tuple(red[:d.m])
    return _ff_mul(d, x, y)


def _kinv(d, x):
    if _kis_zero(d, x):
        raise DivisionByZero(f"inverse of zero in {d!r}")
    if d.kind == "rationals":
        return 1 / x
    if d.kind == "cyclotomic":
        return _cy_inv(d.n, x)
    if d.kind == "prime_field":
        return pow(x, d.p - 2, d.p)
    if d.kind == "finite_field":
        return _gf_inv(x, d.p, d.m)
    num, den = x
    return _ff_normalize(d, _p_from_tuple(den), _p_from_tuple(num))


def _kdiv(d, x, y):
    return _kmul(d, x, _kinv(d, y))


# ---------------------------------------------------------------------------
# multivariate polynomials as dicts {exponent tuple: nonzero base payload};
# canonical stored form is a tuple of items sorted descending by exponent
# (lex order = componentwise tuple comparison in the declared variable order)

def _p_to_tuple(A: dict) -> tuple:
    return tuple(sorted(A.items(), reverse=True))

def _p_from_tuple(t) -> dict:
    return dict(t)


def _p_add(bd, A, B):
    out = dict(A)
    for e, c in B.items():
        if e in out:
            s = _kadd(bd, out[e], c)
            if _kis_zero(bd, s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return out


def _p_neg(bd, A):
    return {e: _kneg(bd, c) for e, c in A.items()}


def _p_sub(bd, A, B):
    return _p_add(bd, A, _p_neg(bd, B))


def _p_mul(bd, A, B):
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            c = _kmul(bd, ca, cb)
            if e in out:
                c = _kadd(bd, out[e], c)
            if _kis_zero(bd, c):
                out.pop(e, None)
            else:
                out[e] = c
    return out


def _p_scale(bd, A, c):
    if _kis_zero(bd, c):
        return {}
    return {e: _kmul(bd, a, c) for e, a in A.items()}


def _p_deg(A, i) -> int:
    return max((e[i] for e in A), default=0)


def _p_lead(A):
    e = max(A)
    return e, A[e]


def _p_monic(bd, A):
    if not A:
        return A
    _, c = _p_lead(A)
    if _kis_zero(bd, _ksub(bd, c, _kone(bd))):
        return A
    return _p_scale(bd, A, _kinv(bd, c))


def _p_exact_div(bd, A, B):
    # works over a field whenever B divides A; lex-greedy cancellation
    if not B:
        raise DivisionByZero("polynomial division by zero")
    eb, cb = _p_lead(B)
    inv_cb = _kinv(bd, cb)
    R = dict(A)
    Q = {}
    while R:
        e, c = _p_lead(R)
        de = tuple(i - j for i, j in zip(e, eb))
        if any(i < 0 for i in de):
            raise ArithmeticError("polynomial division not exact")
        qc = _kmul(bd, c, inv_cb)
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
        R = _p_sub(bd, _p_mul(bd, lcB, R), _p_mul(bd, _p_mul(bd, lcR, {shift: _kone(bd)}), B))
    return R


def _p_is_monomial(A) -> bool:
    return len(A) == 1


def _p_gcd(bd, A, B, nv):
    """gcd in base[x1..xnv], normalized with leading coefficient 1."""
    if not A:
        return _p_monic(bd, dict(B))
    if not B:
        return _p_monic(bd, dict(A))
    if _p_is_monomial(A) or _p_is_monomial(B):
        # gcd with a monomial: componentwise min over every exponent present
        mins = None
        for e in itertools.chain(A, B):
            mins = e if mins is None else tuple(map(min, mins, e))
        return {mins: _kone(bd)}
    main = next((i for i in range(nv) if _p_deg(A, i) or _p_deg(B, i)), None)
    if main is None:
        return {(0,) * nv: _kone(bd)}
    contA, ppA = _p_content_pp(bd, A, main, nv)
    contB, ppB = _p_content_pp(bd, B, main, nv)
    contG = _p_gcd(bd, contA, contB, nv)
    R0, R1 = ppA, ppB
    if _p_deg(R0, main) < _p_deg(R1, main):
        R0, R1 = R1, R0
    while R1:
        R = _p_prem(bd, R0, R1, main)
        if R:
            R = _p_content_pp(bd, R, main, nv)[1]
        R0, R1 = R1, R
    if _p_deg(R0, main) > 0:
        R0 = _p_content_pp(bd, R0, main, nv)[1]
    return _p_monic(bd, _p_mul(bd, contG, R0))


def _ff_normalize(d, num: dict, den: dict):
    bd, nv = d.base, len(d.variables)
    if not den:
        raise DivisionByZero(f"zero denominator in {d!r}")
    if not num:
        return ((), _ff_one(d))
    if not (len(den) == 1 and max(den) == (0,) * nv and
            _kis_zero(bd, _ksub(bd, den[(0,) * nv], _kone(bd)))):
        g = _p_gcd(bd, num, den, nv)
        if len(g) > 1 or max(g) != (0,) * nv:
            num = _p_exact_div(bd, num, g)
            den = _p_exact_div(bd, den, g)
    _, lc = _p_lead(den)
    if not _kis_zero(bd, _ksub(bd, lc, _kone(bd))):
        inv = _kinv(bd, lc)
        num = _p_scale(bd, num, inv)
        den = _p_scale(bd, den, inv)
    return (_p_to_tuple(num), _p_to_tuple(den))


@lru_cache(maxsize=None)
def _ff_one(d):
    """The canonical denominator 1 of a function field: the constant polynomial."""
    return _p_to_tuple({(0,) * len(d.variables): _kone(d.base)})


def _ff_add(d, x, y):
    bd = d.base
    n1, d1 = _p_from_tuple(x[0]), _p_from_tuple(x[1])
    n2, d2 = _p_from_tuple(y[0]), _p_from_tuple(y[1])
    if x[1] == y[1]:
        num = _p_add(bd, n1, n2)
        if x[1] == _ff_one(d):
            return (_p_to_tuple(num), x[1])
        return _ff_normalize(d, num, d1)
    num = _p_add(bd, _p_mul(bd, n1, d2), _p_mul(bd, n2, d1))
    return _ff_normalize(d, num, _p_mul(bd, d1, d2))


def _ff_mul(d, x, y):
    bd = d.base
    num = _p_mul(bd, _p_from_tuple(x[0]), _p_from_tuple(y[0]))
    one = _ff_one(d)
    if x[1] == one and y[1] == one:
        return (_p_to_tuple(num), one)
    return _ff_normalize(d, num, _p_mul(bd, _p_from_tuple(x[1]), _p_from_tuple(y[1])))


# ---------------------------------------------------------------------------
# elements

_Coercible = Union[int, Fraction, "FieldElement"]


class FieldElement:
    """Immutable element of one of the supported fields."""

    __slots__ = ("descriptor", "payload")

    def __init__(self, descriptor: FieldDescriptor, payload):
        self.descriptor = descriptor
        self.payload = payload

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.descriptor != self.descriptor:
                raise DescriptorMismatch(
                    f"{other.descriptor!r} vs {self.descriptor!r}")
            return other
        if isinstance(other, int):
            return FieldElement(self.descriptor, _kfrom_int(self.descriptor, other))
        if isinstance(other, Fraction) and self.descriptor.characteristic == 0:
            num = FieldElement(self.descriptor, _kfrom_int(self.descriptor, other.numerator))
            den = FieldElement(self.descriptor, _kfrom_int(self.descriptor, other.denominator))
            return num / den
        return NotImplemented

    def _binary(self, other, op):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return FieldElement(self.descriptor, op(self.descriptor, self.payload, rhs.payload))

    def __add__(self, other):
        return self._binary(other, _kadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, _ksub)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        return self._binary(other, _kmul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, _kdiv)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs / self

    def __neg__(self):
        return FieldElement(self.descriptor, _kneg(self.descriptor, self.payload))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        return binary_power(base, e, FieldElement(self.descriptor, _kone(self.descriptor)),
                            operator.mul)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.descriptor, _kinv(self.descriptor, self.payload))

    @property
    def is_zero(self) -> bool:
        return _kis_zero(self.descriptor, self.payload)

    @property
    def is_one(self) -> bool:
        return self.payload == _kone(self.descriptor)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.descriptor == other.descriptor and self.payload == other.payload

    def __hash__(self):
        return hash((self.descriptor, self.payload))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return _render(self.descriptor, self.payload)


def _render(d, payload) -> str:
    if d.kind == "rationals":
        return str(payload)
    if d.kind == "prime_field":
        return str(payload)
    if d.kind == "cyclotomic":
        return _render_uni(payload, f"z{d.n}")
    if d.kind == "finite_field":
        return _render_uni(payload, "t")
    num, den = payload
    ns = _render_poly(d, _p_from_tuple(num))
    if den == _ff_one(d):
        return ns
    ds = _render_poly(d, _p_from_tuple(den))
    return f"({ns})/({ds})"


def _render_uni(coeffs, var) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            terms.append(f"{head}{var}" + (f"**{i}" if i > 1 else ""))
    return " + ".join(terms) if terms else "0"


def _render_poly(d, A) -> str:
    if not A:
        return "0"
    names = d.variables
    parts = []
    for e, c in sorted(A.items(), reverse=True):
        mon = "*".join(
            n + (f"**{k}" if k > 1 else "")
            for n, k in zip(names, e) if k)
        cs = _render(d.base, c)
        if mon:
            if cs == "1":
                parts.append(mon)
            elif cs == "-1":
                parts.append(f"-{mon}")
            else:
                if ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mon}")
        else:
            parts.append(f"({cs})" if ("+" in cs[1:] or "/" in cs) else cs)
    return " + ".join(parts).replace("+ -", "- ")


class Field:
    """Facade bundling a descriptor with element constructors."""

    def __init__(self, descriptor: FieldDescriptor):
        self.descriptor = descriptor

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self.descriptor, _kzero(self.descriptor))

    @property
    def one(self) -> FieldElement:
        return FieldElement(self.descriptor, _kone(self.descriptor))

    @property
    def characteristic(self) -> int:
        return self.descriptor.characteristic

    def from_int(self, k: int) -> FieldElement:
        return FieldElement(self.descriptor, _kfrom_int(self.descriptor, k))

    def __call__(self, value: _Coercible) -> FieldElement:
        return self.one._coerce(value)

    def var(self, name: str) -> FieldElement:
        d = self.descriptor
        if d.kind != "function_field":
            raise ScalarError(f"{d!r} has no variables")
        if name not in d.variables:
            raise ScalarError(f"unknown variable {name!r} in {d!r}")
        i = d.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(d.variables)))
        num = _p_to_tuple({e: _kone(d.base)})
        return FieldElement(d, (num, _ff_one(d)))

    def vars(self) -> tuple[FieldElement, ...]:
        return tuple(self.var(n) for n in self.descriptor.variables)

    def lift(self, elt: FieldElement) -> FieldElement:
        """Embed a base-field element as a constant rational function."""
        d = self.descriptor
        if d.kind != "function_field":
            raise ScalarError(f"{d!r} is not a function field")
        if elt.descriptor != d.base:
            raise DescriptorMismatch(f"{elt.descriptor!r} is not the base of {d!r}")
        nv = len(d.variables)
        num = {} if elt.is_zero else {(0,) * nv: elt.payload}
        return FieldElement(d, (_p_to_tuple(num), _ff_one(d)))

    def generator(self) -> FieldElement:
        """Class of the defining generator (z for cyclotomic, t for F_{p^m})."""
        d = self.descriptor
        if d.kind == "cyclotomic":
            return FieldElement(d, _cy_reduce(d.n, [Fraction(0), Fraction(1)]))
        if d.kind == "finite_field":
            red = _fp_rem([0, 1], list(modulus_polynomial(d.p, d.m)), d.p)
            red += [0] * (d.m - len(red))
            return FieldElement(d, tuple(red[:d.m]))
        raise ScalarError(f"{d!r} has no distinguished generator")

    def size(self) -> Optional[int]:
        d = self.descriptor
        if d.kind == "prime_field":
            return d.p
        if d.kind == "finite_field":
            return d.p ** d.m
        return None

    def elements(self) -> Iterator[FieldElement]:
        """All elements of a finite field, in a fixed deterministic order."""
        d = self.descriptor
        if d.kind == "prime_field":
            for v in range(d.p):
                yield FieldElement(d, v)
        elif d.kind == "finite_field":
            for tup in itertools.product(range(d.p), repeat=d.m):
                yield FieldElement(d, tup)
        else:
            raise FieldTooLarge(f"{d!r} is not finite")

    def zeta(self, order: int) -> FieldElement:
        """A primitive root of unity of the given order, or RootOfUnityMissing.

        -1 is served for order 2 in every field of characteristic != 2 even
        when the descriptor does not name it.
        """
        d = self.descriptor
        if order < 1:
            raise ScalarError("root order must be >= 1")
        if order == 1:
            return self.one
        p = d.characteristic
        if p:
            if order % p == 0:
                raise RootOfUnityMissing(f"no {order}-th roots in characteristic {p}")
            if d.kind == "function_field":
                return self.lift(Field(d.base).zeta(order))
            q = self.size()
            if (q - 1) % order:
                raise RootOfUnityMissing(f"{d!r} has no element of order {order}")
            for x in self.elements():
                if x.is_zero:
                    continue
                if _has_order(x, order):
                    return x
            raise RootOfUnityMissing(f"{d!r} has no element of order {order}")
        if d.kind == "rationals":
            if order == 2:
                return self.from_int(-1)
            raise RootOfUnityMissing(f"Q has no primitive {order}-th root")
        if d.kind == "cyclotomic":
            if d.n % order == 0:
                return self.generator() ** (d.n // order)
            if order == 2:
                return self.from_int(-1)
            if d.n % 2 == 1 and order % 2 == 0 and order // 2 > 1 and d.n % (order // 2) == 0:
                e = order // 2
                if e % 2 == 1:
                    w = self.generator() ** (d.n // e)
                    return -(w ** ((e + 1) // 2))
            raise RootOfUnityMissing(f"{d!r} has no primitive {order}-th root")
        # char-0 function field
        return self.lift(Field(d.base).zeta(order))

    def random_element(self, rng, *, height: int = 9, degree: int = 2,
                       terms: int = 2, nonzero: bool = False) -> FieldElement:
        """Seeded random element for property tests; exact, never floats."""
        d = self.descriptor
        while True:
            if d.kind == "rationals":
                e = FieldElement(d, Fraction(rng.randint(-height, height),
                                             rng.randint(1, height)))
            elif d.kind == "cyclotomic":
                deg = _cyclo_degree(d.n)
                e = FieldElement(d, tuple(Fraction(rng.randint(-height, height))
                                          for _ in range(deg)))
            elif d.kind == "prime_field":
                e = FieldElement(d, rng.randrange(d.p))
            elif d.kind == "finite_field":
                e = FieldElement(d, tuple(rng.randrange(d.p) for _ in range(d.m)))
            else:
                base = Field(d.base)
                nv = len(d.variables)

                def rand_poly(tmax):
                    out = {}
                    for _ in range(rng.randint(1, tmax)):
                        exp = tuple(rng.randint(0, degree) for _ in range(nv))
                        c = base.random_element(rng, height=height, degree=degree,
                                                terms=terms)
                        if not c.is_zero:
                            out[exp] = c.payload
                    return out

                num = rand_poly(terms)
                den = rand_poly(max(1, terms - 1)) or dict(_ff_one(d))
                if rng.random() < 0.5:
                    den = dict(_ff_one(d))
                try:
                    e = FieldElement(d, _ff_normalize(d, num, den))
                except DivisionByZero:
                    continue
            if nonzero and e.is_zero:
                continue
            return e


def _has_order(x: FieldElement, order: int) -> bool:
    found = least_power(x, operator.mul, lambda a: a.is_one, order)
    return found is not None and found[0] == order


# ---------------------------------------------------------------------------
# roots of unity: discrete log into Q/Z

def root_of_unity_log(elt: FieldElement) -> Optional[Fraction]:
    """Write elt as a root of unity and return its class in Q/Z, else None.

    The embedding is canonical per field: cyclotomic z_n maps to 1/n (with
    -z^j handled through order 2n when n is odd); the multiplicative group
    of a finite field maps through its first primitive element in element
    order; in Q and char-0 function-field constants only +-1 qualify.
    """
    d = elt.descriptor
    F = Field(d)
    if elt.is_zero:
        return None
    if d.kind == "rationals":
        if elt.is_one:
            return Fraction(0)
        if elt == -1:
            return Fraction(1, 2)
        return None
    if d.kind == "cyclotomic":
        z = F.generator()
        acc = F.one
        for j in range(d.n):
            if elt == acc:
                return Fraction(j, d.n) % 1
            if elt == -acc:
                return (Fraction(1, 2) + Fraction(j, d.n)) % 1
            acc = acc * z
        return None
    if d.kind in ("prime_field", "finite_field"):
        q = F.size()
        if q > 65536:
            raise FieldTooLarge("discrete log capped at 65536 elements")
        gen = None
        for x in F.elements():
            if not x.is_zero and _has_order(x, q - 1):
                gen = x
                break
        acc = F.one
        for t in range(q - 1):
            if elt == acc:
                return Fraction(t, q - 1) % 1
            acc = acc * gen
        return None
    # function field: only constants can be roots of unity
    num, den = elt.payload
    nv = len(d.variables)
    if den != _ff_one(d) or len(num) != 1 or num[0][0] != (0,) * nv:
        return None
    return root_of_unity_log(FieldElement(d.base, num[0][1]))


# ---------------------------------------------------------------------------
# k-th power recognition (decidable fragment) and k-th roots

_UNKNOWN = object()


def _int_kth_root(x: int, k: int) -> Optional[int]:
    if x < 0:
        return None
    if x in (0, 1):
        return x
    if k == 2:
        r = math.isqrt(x)
    else:
        # integer Newton iteration from above; it decreases to floor(x^(1/k))
        r = 1 << -(-x.bit_length() // k)
        while True:
            s = ((k - 1) * r + x // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == x else None


def _fraction_kth_root(x: Fraction, k: int) -> Optional[Fraction]:
    neg = x < 0
    if neg and k % 2 == 0:
        return None
    x = abs(x)
    rn = _int_kth_root(x.numerator, k)
    rd = _int_kth_root(x.denominator, k)
    if rn is None or rd is None:
        return None
    r = Fraction(rn, rd)
    return -r if neg else r


def _kth_root_payload(d, payload, k: int):
    """Return a payload r with r^k == payload, None if provably absent,
    or _UNKNOWN when outside the decidable fragment."""
    if k == 1:
        return payload
    if _kis_zero(d, payload):
        return payload
    if d.kind == "rationals":
        r = _fraction_kth_root(payload, k)
        return r if r is not None else None
    if d.kind in ("prime_field", "finite_field"):
        F = Field(d)
        q = F.size()
        if q > 4096:
            return _UNKNOWN
        target = FieldElement(d, payload)
        for x in F.elements():
            if x ** k == target:
                return x.payload
        return None
    if d.kind == "cyclotomic":
        deg = _cyclo_degree(d.n)
        if deg == 1:
            # Q(z1) and Q(z2) are Q itself
            r = _fraction_kth_root(payload[0], k)
            return (r,) if r is not None else None
        F = Field(d)
        target = FieldElement(d, payload)
        m_order = d.n if d.n % 2 == 0 else 2 * d.n
        z = F.zeta(m_order)
        acc = F.one
        for _ in range(m_order):
            quo = target * (acc ** (-k))
            if all(c == 0 for c in quo.payload[1:]):
                s = _fraction_kth_root(quo.payload[0], k)
                if s is not None:
                    return (acc * s).payload
            acc = acc * z
        # roots outside the unit*rational family are undecidable here
        return _UNKNOWN
    return _ff_kth_root(d, payload, k)


def _p_kth_root(bd, A: dict, k: int, nv: int):
    """k-th root of a polynomial, char coprime to k. Greedy on lex terms."""
    le, lc = _p_lead(A)
    if any(e % k for e in le):
        return None
    rc = _kth_root_payload(bd, lc, k)
    if rc is None or rc is _UNKNOWN:
        return rc
    ge = tuple(e // k for e in le)
    G = {ge: rc}
    k_elem = _kfrom_int(bd, k)
    if _kis_zero(bd, k_elem):
        raise AssertionError("characteristic divides k in coprime branch")
    he = tuple(e * (k - 1) for e in ge)
    hc = _kmul(bd, k_elem, _kmul_pow(bd, rc, k - 1))
    for _ in range(4096):
        Gpow = G
        for _ in range(k - 1):
            Gpow = _p_mul(bd, Gpow, G)
        diff = _p_sub(bd, A, Gpow)
        if not diff:
            return G
        de, dc = _p_lead(diff)
        # next term t satisfies lt(diff) = k * lt(G)^(k-1) * t
        te = tuple(a - b for a, b in zip(de, he))
        if any(t < 0 for t in te) or te >= ge:
            return None
        G[te] = _kdiv(bd, dc, hc)
    return None


def _kmul_pow(bd, c, e):
    out = _kone(bd)
    for _ in range(e):
        out = _kmul(bd, out, c)
    return out


def _poly_root_or_status(bd, A, k, nv, char):
    if not A:
        return {}
    if char and k % char == 0:
        # Frobenius branch: exponents divisible by char, coefficients have char-th roots
        if any(e % char for exp in A for e in exp):
            return None
        root = {}
        for e, c in A.items():
            rc = _kth_root_payload(bd, c, char)
            if rc is None or rc is _UNKNOWN:
                return rc
            root[tuple(x // char for x in e)] = rc
        if k == char:
            return root
        return _poly_root_or_status(bd, root, k // char, nv, char)
    return _p_kth_root(bd, A, k, nv)


def _ff_kth_root(d, payload, k):
    bd, nv = d.base, len(d.variables)
    char = d.characteristic
    num, den = _p_from_tuple(payload[0]), _p_from_tuple(payload[1])
    rn = _poly_root_or_status(bd, num, k, nv, char)
    if rn is None or rn is _UNKNOWN:
        return rn
    rd = _poly_root_or_status(bd, den, k, nv, char)
    if rd is None or rd is _UNKNOWN:
        return rd
    return _ff_normalize(d, rn, rd)


def kth_root(elt: FieldElement, k: int) -> Optional[FieldElement]:
    """Exact k-th root, None if provably none exists, UndecidedPower if the
    question falls outside the decidable fragment (general cyclotomic units)."""
    if k < 1:
        raise ScalarError("root index must be >= 1")
    r = _kth_root_payload(elt.descriptor, elt.payload, k)
    if r is _UNKNOWN:
        raise UndecidedPower(f"{k}-th power recognition undecided for {elt!r}")
    if r is None:
        return None
    return FieldElement(elt.descriptor, r)


def is_kth_power(elt: FieldElement, k: int) -> Optional[bool]:
    """True / False when decidable, None otherwise."""
    try:
        r = kth_root(elt, k)
    except UndecidedPower:
        return None
    return r is not None


# ---------------------------------------------------------------------------
# univariate polynomials over a field (lists of FieldElements, ascending)

def uni_trim(coeffs: list[FieldElement]) -> list[FieldElement]:
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def uni_divmod(a: list[FieldElement], b: list[FieldElement]):
    if not b:
        raise DivisionByZero("univariate division by zero polynomial")
    F = Field(b[0].descriptor)
    a = list(a)
    db = len(b) - 1
    inv_lead = b[-1].inverse()
    q = [F.zero] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        c = a[-1] * inv_lead
        k = len(a) - 1 - db
        q[k] = c
        for j in range(db + 1):
            a[k + j] = a[k + j] - c * b[j]
        uni_trim(a)
    return q, a


def uni_gcd(a, b) -> list[FieldElement]:
    a, b = uni_trim(list(a)), uni_trim(list(b))
    while b:
        a, b = b, uni_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def uni_derivative(a: list[FieldElement]) -> list[FieldElement]:
    if len(a) <= 1:
        return []
    return uni_trim([a[i] * i for i in range(1, len(a))])


# ---------------------------------------------------------------------------
# minimal polynomials for the algebraic-element specs we support

@dataclass(frozen=True)
class MinimalPolynomial:
    coeffs: tuple[FieldElement, ...]  # ascending, monic
    separable: bool

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _separable_flag(coeffs) -> bool:
    g = uni_gcd(list(coeffs), uni_derivative(list(coeffs)))
    return len(g) == 1


def minimal_polynomial_of_constant(c: FieldElement) -> MinimalPolynomial:
    F = Field(c.descriptor)
    coeffs = (-c, F.one)
    return MinimalPolynomial(coeffs, _separable_flag(list(coeffs)))


def minimal_polynomial_power_relation(field: Field, k: int,
                                      value: FieldElement) -> MinimalPolynomial:
    """Minimal polynomial of a root of t^k = value.

    Certified minimal when k = 1, or k is prime and value is provably not a
    k-th power in the base. Uncertifiable inputs raise NotAlgebraic rather
    than returning a possibly non-minimal answer.
    """
    if value.descriptor != field.descriptor:
        raise DescriptorMismatch("value lives in a different field")
    if k < 1:
        raise NotAlgebraic("power relation needs k >= 1")
    if k == 1:
        return minimal_polynomial_of_constant(value)
    if not _is_prime(k):
        raise NotAlgebraic(f"minimality of t^{k} - value certified only for prime k")
    power = is_kth_power(value, k)
    if power is None:
        raise NotAlgebraic("cannot certify that the value is not a k-th power")
    if power:
        raise NotAlgebraic("value is a k-th power, the relation is not minimal")
    coeffs = [-value] + [field.zero] * (k - 1) + [field.one]
    return MinimalPolynomial(tuple(coeffs), _separable_flag(coeffs))


# ---------------------------------------------------------------------------
# Artin-Schreier image of a small field of characteristic 2

def artin_schreier_image(field: Field, max_size: int = 16) -> list[FieldElement]:
    """The set {c^2 - c : c in F} for F of characteristic 2, sorted in the
    canonical element order. Enumeration is capped (default 16 elements)."""
    d = field.descriptor
    if d.characteristic != 2 or d.kind not in ("prime_field", "finite_field"):
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
# JSON forms

def descriptor_to_json(d: FieldDescriptor) -> dict:
    if d.kind == "rationals":
        return {"kind": "rationals"}
    if d.kind == "cyclotomic":
        return {"kind": "cyclotomic", "n": str(d.n)}
    if d.kind == "prime_field":
        return {"kind": "prime_field", "p": str(d.p)}
    if d.kind == "finite_field":
        return {"kind": "finite_field", "p": str(d.p), "m": str(d.m)}
    return {"kind": "function_field", "base": descriptor_to_json(d.base),
            "variables": list(d.variables)}


def descriptor_from_json(obj) -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScalarError("descriptor JSON must be an object with a kind")
    kind = obj["kind"]
    if kind == "rationals":
        return rationals()
    if kind == "cyclotomic":
        return cyclotomic(int(obj["n"]))
    if kind == "prime_field":
        return prime_field(int(obj["p"]))
    if kind == "finite_field":
        return finite_field(int(obj["p"]), int(obj["m"]))
    if kind == "function_field":
        return function_field(descriptor_from_json(obj["base"]), obj["variables"])
    raise ScalarError(f"unknown field kind {kind!r}")


def _payload_to_json(d, payload):
    if d.kind == "rationals":
        return str(payload)
    if d.kind == "cyclotomic":
        return [str(c) for c in payload]
    if d.kind == "prime_field":
        return str(payload)
    if d.kind == "finite_field":
        return [str(c) for c in payload]
    num, den = payload

    def poly(t):
        return {",".join(str(e) for e in exps): _payload_to_json(d.base, c)
                for exps, c in t}

    return {"num": poly(num), "den": poly(den)}


def _payload_from_json(d, obj):
    if d.kind == "rationals":
        return Fraction(obj)
    if d.kind == "cyclotomic":
        vals = [Fraction(c) for c in obj]
        return _cy_reduce(d.n, vals)
    if d.kind == "prime_field":
        return int(obj) % d.p
    if d.kind == "finite_field":
        if len(obj) > d.m:
            raise ScalarError(f"{d!r} element has {len(obj)} coefficients, "
                              f"at most {d.m} allowed")
        vals = [int(c) % d.p for c in obj]
        return tuple(vals + [0] * (d.m - len(vals)))
    nv = len(d.variables)

    def poly(o):
        out = {}
        for key, c in o.items():
            exps = tuple(int(x) for x in key.split(","))
            if len(exps) != nv:
                raise ScalarError(f"exponent key {key!r} has wrong arity")
            cp = _payload_from_json(d.base, c)
            if not _kis_zero(d.base, cp):
                out[exps] = cp
        return out

    if isinstance(obj, (int, str)):
        return _kfrom_int(d, int(obj))
    num = poly(obj["num"])
    den = poly(obj["den"]) if "den" in obj else dict(_ff_one(d))
    return _ff_normalize(d, num, den)


def element_to_json(e: FieldElement) -> dict:
    return {"descriptor": descriptor_to_json(e.descriptor),
            "value": _payload_to_json(e.descriptor, e.payload)}


def element_from_json(obj, descriptor: Optional[FieldDescriptor] = None) -> FieldElement:
    if isinstance(obj, dict) and "descriptor" in obj:
        d = descriptor_from_json(obj["descriptor"])
        if descriptor is not None and d != descriptor:
            raise DescriptorMismatch("descriptor in payload disagrees with context")
        return FieldElement(d, _payload_from_json(d, obj["value"]))
    if descriptor is None:
        raise ScalarError("element JSON without descriptor context")
    if isinstance(obj, (int, str)) and descriptor.kind == "function_field":
        return FieldElement(descriptor, _kfrom_int(descriptor, int(obj)))
    return FieldElement(descriptor, _payload_from_json(descriptor, obj))
