"""Exact scalar arithmetic for the field towers used across the package.

Five kinds of coefficient fields, each with a canonical representation so
that ``==`` on elements is plain representation equality:

- ``rationals()``             an int when integral, else a reduced stdlib
                              Fraction; function-field coefficients over Q
                              are Q payloads too
- ``cyclotomic(n)``           Q(z), z a primitive n-th root of unity;
                              (numerators, denominator): integers over one
                              positive integer in lowest terms, reduced mod
                              the n-th cyclotomic polynomial
- ``prime_field(p)``          integers mod p
- ``finite_field(p, m)``      F_p[t] mod a fixed irreducible polynomial: the
                              first monic irreducible of degree m in lex
                              order on the coefficient tuple (c_0..c_{m-1});
                              deterministic, cached, reproducible bit-exactly;
                              payload: the int with base-p digits c_0..c_{m-1}
- ``function_field(base, v)`` rational functions over any base above;
                              reduced fractions of multivariate polynomials,
                              gcd(num, den) = 1, denominator monic under lex
                              monomial order in the declared variable order

Each kind is one frozen FieldDescriptor subclass that owns the rules for
its payloads (the raw values a FieldElement wraps), so a descriptor is
also the ops object for its field. The five factories and
``descriptor_from_json`` intern their results: one shared instance per
descriptor, so identity decides the common case of equality;
descriptors built directly still compare and hash by value.

Zero always has a unique encoding, so equality and hashing never need
normalization at comparison time.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import ClassVar, Iterator, Optional, Union

from .errors import AnisoError, _exact_fraction, _exact_int, _exact_json, _json_list
from .integers import (_MR_LIMIT, _TRIAL_DIVISION_LIMIT, _is_prime as _miller_rabin,
                       _prime_factors, binary_power)


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


# ---------------------------------------------------------------------------
# primality past integers._MR_LIMIT raising FieldTooLarge, and a prime sieve

def _is_prime(n: int) -> bool:
    return _miller_rabin(n, FieldTooLarge(f"primality is decided only below {_MR_LIMIT}"))


def _primes_upto(n: int) -> list[int]:
    sieve = [True] * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for k in range(p * p, n + 1, p):
                sieve[k] = False
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the n-th cyclotomic polynomial:
    x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _u_divmod(rationals(), poly, cyclotomic_polynomial(d))
            assert not rem, "cyclotomic division must be exact"
    return tuple(poly)


# ---------------------------------------------------------------------------
# cyclotomic payloads: (nums, den), integer coefficients of the power basis
# of length deg(Phi_n) over one denominator den >= 1, gcd(den, *nums) = 1

def _cy_normal(nums: tuple, den: int) -> tuple:
    """The payload nums/den in lowest terms."""
    g = math.gcd(den, *nums)
    if g == 1:
        return (nums, den)
    return (tuple(c // g for c in nums), den // g)


def _cy_from_fractions(n: int, cs) -> tuple:
    """The payload of the power-basis polynomial with rational coefficients
    cs (ints or Fractions), of any length."""
    den = math.lcm(*(c.denominator for c in cs))
    nums = [c.numerator * (den // c.denominator) for c in cs]
    return _cy_normal(_cy_reduce_ints(n, nums), den)


@lru_cache(maxsize=None)
def _cy_reduction(n: int) -> tuple[int, tuple]:
    """deg(Phi_n), and the (j, c) with c the nonzero coefficient of x^j in
    Phi_n for j < deg(Phi_n)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    return d, tuple((j, c) for j, c in enumerate(phi[:d]) if c)


def _cy_reduce_ints(n: int, cs: list) -> tuple:
    """The integer list cs, modified in place, reduced mod Phi_n: a tuple
    of length deg(Phi_n). Phi_n divides x^n - 1, so x^k folds onto
    x^(k - n) first; Phi_n is monic with integer coefficients, so the
    division that follows stays in the integers."""
    d, terms = _cy_reduction(n)
    for k in range(len(cs) - 1, n - 1, -1):
        cs[k - n] += cs[k]
    for k in range(min(len(cs), n) - 1, d - 1, -1):
        c = cs[k]
        if c:
            for j, pj in terms:
                cs[k - d + j] -= c * pj
    if len(cs) < d:
        return tuple(cs) + (0,) * (d - len(cs))
    return tuple(cs[:d])


# ---------------------------------------------------------------------------
# Rabin's irreducibility test over F_p and the fixed irreducible-modulus table

def _fp_is_irreducible(f, p):
    """Rabin's test (SIAM J. Comput. 9 (1980)): the monic f of degree m
    over F_p is irreducible exactly when x^(p^m) = x mod f and, for each
    prime q dividing m, gcd(x^(p^(m/q)) - x, f) = 1."""
    m = len(f) - 1
    if m == 1:
        return True
    fp, x = prime_field(p), [0, 1]

    def mul_mod_f(a, b):
        return _u_divmod(fp, _u_mul(fp, a, b), f)[1]

    def frobenius_gap(k):  # x^(p^k) - x mod f
        return _u_sub(fp, binary_power(x, p ** k, [1], mul_mod_f), x)

    return not frobenius_gap(m) and all(
        len(_u_gcd(fp, frobenius_gap(m // q), f)) == 1 for q in set(_prime_factors(m)))


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


# ---------------------------------------------------------------------------
# univariate polynomials over any field: ascending lists of payloads of d

def _u_trim(d, a: list) -> list:
    while a and d.is_zero(a[-1]):
        a.pop()
    return a


def _u_sub(d, a, b) -> list:
    """a - b, trimmed."""
    return _u_trim(d, [d.sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=d.zero())])


def _u_mul(d, a, b) -> list:
    """The product of a and b, trimmed."""
    out = [d.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not d.is_zero(ai):
            for k, bj in enumerate(b, i):
                out[k] = d.add(out[k], d.mul(ai, bj))
    return _u_trim(d, out)


def _u_divmod(d, a, b):
    """(quotient, remainder) of a by b; b trimmed and nonzero.

    A monic b needs no inverse, so over Q integer payloads stay integers.
    """
    a = list(a)
    db = len(b) - 1
    monic = b[-1] == d.one()
    inv_lead = None if monic else d.inv(b[-1])
    q = [d.zero()] * max(0, len(a) - db)
    while len(a) > db:
        # the leading term cancels exactly, so it is popped, not subtracted
        c = a.pop() if monic else d.mul(a.pop(), inv_lead)
        k = len(a) - db
        q[k] = c
        a[k:] = [d.sub(x, d.mul(c, y)) for x, y in zip(a[k:], b)]
        _u_trim(d, a)
    return q, a


def _u_gcd(d, a, b) -> list:
    """The monic gcd of a and b ([] when both are zero)."""
    a, b = _u_trim(d, list(a)), _u_trim(d, list(b))
    while b:
        a, b = b, _u_divmod(d, a, b)[1]
    if a:
        inv = d.inv(a[-1])
        a = [d.mul(c, inv) for c in a]
    return a


def _u_inverse(d, x, f) -> list:
    """s with s x = 1 modulo f and deg s < deg f, by extended Euclid; x is
    nonzero and prime to f (f irreducible and deg x < deg f suffice)."""
    r0, r1 = list(f), _u_trim(d, list(x))
    s0, s1 = [], [d.one()]
    while r1:
        q, r = _u_divmod(d, r0, r1)
        r0, s0, r1, s1 = r1, s1, r, _u_sub(d, s0, _u_mul(d, q, s1))
    c = d.inv(r0[0])
    return [d.mul(si, c) for si in s0]


# ---------------------------------------------------------------------------
# field descriptors: one class per kind, owning its payload rules

@dataclass(frozen=True, repr=False)
class FieldDescriptor:
    """A field; each subclass is one kind.

    A subclass defines from_int, is_zero, add, neg, mul, _inv, render,
    to_json, payload_to_json, payload_from_json, random_payload, zeta,
    root_of_unity_log and _kth_root on raw payloads; zero and one default
    to from_int, and dot to a fold of add over mul, which a kind may
    override with a fused sum of products. Every sum of products is a dot,
    in fieldmatrix, quadform and csa too; on stored polynomials it is
    _t_dot, the only place that groups products by monomial, and _u_mul is
    the one convolution outside dot. Payloads are canonical, so == on them
    is field equality.
    """

    kind: ClassVar[str]

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash of the fields, computed once: each subclass names
        # this __hash__, or its decorator would rehash the whole base tower
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def characteristic(self) -> int:
        return 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def inv(self, x):
        if self.is_zero(x):
            raise DivisionByZero(f"inverse of zero in {self!r}")
        return self._inv(x)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def dot(self, pairs):
        """sum x y over a list of (x, y) payload pairs: one pair is one mul."""
        return reduce(self.add, itertools.starmap(self.mul, pairs)) if pairs else self.zero()

    def power(self, x, e: int):
        """x^e; a negative e inverts first, so zero raises DivisionByZero."""
        if e < 0:
            return self.power(self.inv(x), -e)
        return binary_power(x, e, self.one(), self.mul)

    def kth_root(self, x, k: int):
        """A payload r with r^k == x, or None if provably absent; raises
        UndecidedPower outside the decidable fragment."""
        if k == 1 or self.is_zero(x):
            return x
        return self._kth_root(x, k)

    def size(self) -> Optional[int]:
        return None

    def payloads(self) -> Iterator:
        raise FieldTooLarge(f"{self!r} is not finite")

    def generator(self):
        raise ScalarError(f"{self!r} has no distinguished generator")


def _integral(x):
    """x, an int or a Fraction, as an int when it is integral."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


@dataclass(frozen=True, repr=False)
class _Rationals(FieldDescriptor):
    """Q: a payload is an int when integral and a reduced Fraction
    otherwise. The two agree on ==, hash and str, so an integral value
    keys and prints the same either way."""

    kind = "rationals"
    __hash__ = FieldDescriptor.__hash__

    def __repr__(self):
        return "Q"

    def to_json(self) -> dict:
        return {"kind": "rationals"}

    def from_int(self, k: int):
        return operator.index(k)

    def is_zero(self, x) -> bool:
        return x == 0

    def add(self, x, y):
        return _integral(x + y)

    def sub(self, x, y):
        return _integral(x - y)

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return _integral(x * y)

    def dot(self, pairs):
        """sum x y, made integral once."""
        s = 0
        for x, y in pairs:
            s += x * y
        return _integral(s)

    def _inv(self, x):
        # 1 / x on an int payload would be a float
        return _integral(Fraction(1) / x)

    def render(self, x) -> str:
        return str(x)

    payload_to_json = render

    def payload_from_json(self, obj):
        return _integral(_exact_fraction(obj))

    def random_payload(self, rng, height, degree, terms):
        return _integral(Fraction(rng.randint(-height, height), rng.randint(1, height)))

    def zeta(self, order: int):
        if order == 2:
            return self.from_int(-1)
        raise RootOfUnityMissing(f"Q has no primitive {order}-th root")

    def root_of_unity_log(self, x) -> Optional[Fraction]:
        if x == 1:
            return Fraction(0)
        if x == -1:
            return Fraction(1, 2)
        return None

    def _kth_root(self, x, k: int):
        r = _fraction_kth_root(x, k)
        return None if r is None else _integral(r)


@dataclass(frozen=True, repr=False)
class _Cyclotomic(FieldDescriptor):
    n: int
    kind = "cyclotomic"
    __hash__ = FieldDescriptor.__hash__

    def __post_init__(self):
        if self.n < 1:
            raise ScalarError("cyclotomic order must be >= 1")

    def __repr__(self):
        return f"Q(z{self.n})"

    def to_json(self) -> dict:
        return {"kind": "cyclotomic", "n": str(self.n)}

    @property
    def _degree(self) -> int:
        return _cy_reduction(self.n)[0]

    def fractions(self, x) -> tuple[Fraction, ...]:
        """The power-basis coefficients of x as reduced Fractions."""
        nums, den = x
        return tuple(Fraction(c, den) for c in nums)

    def _rational(self, r):
        """The payload of r, an int or a Fraction: a constant needs no
        reduction, and r's own denominator is in lowest terms."""
        return ((r.numerator,) + (0,) * (self._degree - 1), r.denominator)

    from_int = _rational

    def is_zero(self, x) -> bool:
        return not any(x[0])

    def add(self, x, y):
        (xs, dx), (ys, dy) = x, y
        if dx == dy:
            s = tuple(map(operator.add, xs, ys))
            return (s, 1) if dx == 1 else _cy_normal(s, dx)
        g = math.gcd(dx, dy)
        mx, my = dy // g, dx // g
        s = tuple(a * mx + b * my for a, b in zip(xs, ys))
        # x and y are in lowest terms, so a prime that divides dx * mx and
        # every entry of s divides g (Knuth, TAOCP 2, 4.5.1)
        return (s, dx * mx) if g == 1 else _cy_normal(s, dx * mx)

    def neg(self, x):
        return (tuple(-c for c in x[0]), x[1])

    def mul(self, x, y):
        if not any(x[0][1:]):
            x, y = y, x
        if any(y[0][1:]):
            return self.dot(((x, y),))
        # a rational factor scales the other one's numerators
        (xs, dx), (ys, dy) = x, y
        nums, den = tuple(a * ys[0] for a in xs), dx * dy
        return (nums, 1) if den == 1 else _cy_normal(nums, den)

    def dot(self, pairs):
        """sum x y reduced mod Phi_n once: the convolutions, each scaled to
        the lcm L of the denominator products, share one integer list."""
        d = self._degree
        L = math.lcm(*(dx * dy for (_, dx), (_, dy) in pairs))
        out = [0] * (2 * d - 1)
        for (xs, dx), (ys, dy) in pairs:
            s = L // (dx * dy)
            for i, a in enumerate(xs):
                if a:
                    a *= s
                    for k, b in enumerate(ys, i):
                        out[k] += a * b
        nums = _cy_reduce_ints(self.n, out) if any(out[d:]) else tuple(out[:d])
        return (nums, 1) if L == 1 else _cy_normal(nums, L)

    def _inv(self, x):
        return _cy_from_fractions(self.n, _u_inverse(rationals(), self.fractions(x),
                                                     cyclotomic_polynomial(self.n)))

    def generator(self):
        return (_cy_reduce_ints(self.n, [0, 1]), 1)

    def render(self, x) -> str:
        return _render_uni(self.fractions(x), f"z{self.n}")

    def payload_to_json(self, x):
        return [str(c) for c in self.fractions(x)]

    def payload_from_json(self, obj):
        return _cy_from_fractions(self.n, [_exact_fraction(c) for c in _json_list(obj)])

    def random_payload(self, rng, height, degree, terms):
        return (tuple(rng.randint(-height, height) for _ in range(self._degree)), 1)

    def zeta(self, order: int):
        n, z = self.n, self.generator()
        if n % order == 0:
            return self.power(z, n // order)
        if order == 2:
            return self.from_int(-1)
        e = order // 2
        if n % 2 == 1 and order % 2 == 0 and e > 1 and n % e == 0:
            # e divides the odd n, so e is odd and -w^((e+1)/2) has order 2e
            return self.neg(self.power(self.power(z, n // e), (e + 1) // 2))
        raise RootOfUnityMissing(f"{self!r} has no primitive {order}-th root")

    def root_of_unity_log(self, x) -> Optional[Fraction]:
        z, acc = self.generator(), self.one()
        for j in range(self.n):
            if x == acc:
                return Fraction(j, self.n) % 1
            if x == self.neg(acc):
                return (Fraction(1, 2) + Fraction(j, self.n)) % 1
            acc = self.mul(acc, z)
        return None

    def _kth_root(self, x, k: int):
        if self._degree == 1:
            # Q(z1) and Q(z2) are Q itself
            r = _fraction_kth_root(self.fractions(x)[0], k)
            return self._rational(r) if r is not None else None
        m_order = self.n if self.n % 2 == 0 else 2 * self.n
        z, acc = self.zeta(m_order), self.one()
        for _ in range(m_order):
            quo = self.div(x, self.power(acc, k))
            if not any(quo[0][1:]):
                s = _fraction_kth_root(self.fractions(quo)[0], k)
                if s is not None:
                    return self.mul(acc, self._rational(s))
            acc = self.mul(acc, z)
        raise UndecidedPower(f"{k}-th roots in {self!r} beyond roots of unity times rationals")


# F_q with at most this many elements keeps log and antilog tables and
# decides k-th roots; a larger field multiplies polynomials and refuses them
_TABLE_LIMIT = 1 << 12
# past the tables, a discrete log walks the powers of zeta(q - 1) up to here
_LOG_SCAN_LIMIT = 1 << 16


@dataclass(frozen=True, repr=False)
class _FiniteField(FieldDescriptor):
    """F_{p^m} = F_p[t] mod modulus_polynomial(p, m); a payload is the int
    c_0 p^(m-1) + c_1 p^(m-2) + ... + c_{m-1} of the reduced polynomial
    c_0 + c_1 t + ... + c_{m-1} t^(m-1), each c_i in range(p), so int order
    is the element order of payloads() (Lidl-Niederreiter, Finite Fields).
    Over p = 2 the sum is XOR and -x = x.

    A field with q <= _TABLE_LIMIT elements builds, on first use, log and
    antilog lists indexed by payload to the base zeta(q - 1), the first
    element of order q - 1, and for odd p Zech logarithms Z(k) with
    1 + g^k = g^Z(k) (Huber, IEEE Trans. Inf. Theory 36 (1990)): mul,
    _inv, power, roots of unity, discrete logs and k-th roots are lookups,
    and an odd-p sum is g^(log x + Z(log y - log x)). The build walks the
    q - 2 powers of the base by polynomial products: the tables of F_256
    hold 10 KiB (tracemalloc) and take 7 ms on one core of a 2-core x86
    machine, those of F_4096 hold 0.4 MiB and take 0.14 s. A larger field
    multiplies and adds coefficient lists, raises UndecidedPower for a k-th
    root, and finds a discrete log by walking the powers of zeta(q - 1) up
    to _LOG_SCAN_LIMIT elements and raises FieldTooLarge past it.
    """

    p: int
    m: int
    kind = "finite_field"
    __hash__ = FieldDescriptor.__hash__

    def __post_init__(self):
        if self.p < 2 or not _is_prime(self.p):
            raise ScalarError(f"{self.p} is not prime")
        if self.m < 1:
            raise ScalarError("finite field degree must be >= 1")

    @property
    def characteristic(self) -> int:
        return self.p

    def __repr__(self):
        return f"F_{self.p ** self.m}"

    def to_json(self) -> dict:
        return {"kind": "finite_field", "p": str(self.p), "m": str(self.m)}

    def _digits(self, x) -> list:
        """The coefficients [c_0, ..., c_{m-1}] of the payload x."""
        p, m = self.p, self.m
        return [x // p ** (m - 1 - i) % p for i in range(m)]

    def _from_digits(self, cs) -> int:
        """The payload of the coefficients [c_0, ..., c_k] in range(p), k < m."""
        p, x = self.p, 0
        for c in cs:
            x = x * p + c
        return x * p ** (self.m - len(cs))

    def _reduce(self, poly: list):
        """The payload of an F_p[t] coefficient list modulo the fixed modulus."""
        return self._from_digits(
            _u_divmod(prime_field(self.p), poly, modulus_polynomial(self.p, self.m))[1])

    @cached_property
    def _tables(self):
        """(log, exp, q - 1, zech) with exp[e] = zeta(q - 1)^e and
        log[exp[e]] = e for 0 <= e < q - 1, or None above _TABLE_LIMIT
        elements. exp is doubled, and log maps zero to 2(q - 1), past which
        exp holds zero, so exp[log[x] + log[y]] is x * y for every x and y.
        For odd p, exp[zech[k]] = 1 + exp[k] (zech[k] = 2(q - 1) where that
        is zero); for p = 2, zech is None."""
        q = self.size()
        if q > _TABLE_LIMIT:
            return None
        n, one = q - 1, self.one()
        primes = set(_prime_factors(n))
        base = next(x for x in range(1, q) if all(
            binary_power(x, n // r, one, self._poly_mul) != one for r in primes))
        exp = [one]
        for _ in range(n - 1):
            exp.append(self._poly_mul(exp[-1], base))
        log = [2 * n] * q
        for e, x in enumerate(exp):
            log[x] = e
        # adding one adds one to the highest digit c_0, mod p
        top = q - one
        zech = [log[x + one if x < top else x - top] for x in exp] if self.p > 2 else None
        return log, exp + exp + [0] * (2 * n + 1), n, zech

    def _poly_mul(self, x, y):
        return self._reduce(_u_mul(prime_field(self.p), self._digits(x), self._digits(y)))

    def from_int(self, k: int):
        return k % self.p * self.p ** (self.m - 1)

    def is_zero(self, x) -> bool:
        return not x

    def add(self, x, y):
        if self.p == 2:
            return x ^ y
        if not x or not y:
            return x or y
        tables = self._tables
        if tables is None:
            p = self.p
            return self._from_digits([(a + b) % p for a, b in
                                      zip(self._digits(x), self._digits(y))])
        log, exp, _, zech = tables
        e = log[x]
        # log y - log x lies in (-(q - 1), q - 1): a negative index wraps mod q - 1
        return exp[e + zech[log[y] - e]]

    def neg(self, x):
        return x if self.p == 2 else self.mul(x, self.from_int(-1))

    def mul(self, x, y):
        tables = self._tables
        if tables is None:
            return self._poly_mul(x, y)
        log, exp, _, _ = tables
        return exp[log[x] + log[y]]

    def dot(self, pairs):
        """sum x y: over p = 2 with tables, one XOR fold of antilog lookups."""
        tables = self._tables
        if self.p != 2 or tables is None:
            return super().dot(pairs)
        log, exp, _, _ = tables
        s = 0
        for x, y in pairs:
            s ^= exp[log[x] + log[y]]
        return s

    def _inv(self, x):
        tables = self._tables
        if tables is None:
            return self._from_digits(_u_inverse(prime_field(self.p), self._digits(x),
                                                modulus_polynomial(self.p, self.m)))
        log, exp, n, _ = tables
        return exp[n - log[x]]

    def power(self, x, e: int):
        tables = self._tables
        if tables is None or self.is_zero(x):
            return super().power(x, e)
        log, exp, n, _ = tables
        return exp[log[x] * e % n]

    def generator(self):
        return self._reduce([0, 1])

    def size(self) -> Optional[int]:
        return self.p ** self.m

    def payloads(self) -> Iterator:
        return iter(range(self.p ** self.m))

    def render(self, x) -> str:
        return _render_uni(self._digits(x), "t")

    def payload_to_json(self, x):
        return [str(c) for c in self._digits(x)]

    def payload_from_json(self, obj):
        if len(_json_list(obj)) > self.m:
            raise ScalarError(f"{self!r} element has {len(obj)} coefficients, "
                              f"at most {self.m} allowed")
        return self._from_digits([_exact_int(c) % self.p for c in obj])

    def random_payload(self, rng, height, degree, terms):
        return self._from_digits([rng.randrange(self.p) for _ in range(self.m)])

    def zeta(self, order: int):
        """The first element of the given order in element order: x has
        order d when x^d = 1 and x^(d/r) != 1 for each prime r dividing d.
        The primes r come from trial division to _TRIAL_DIVISION_LIMIT and
        Miller-Rabin; an order they leave unfactored raises FieldTooLarge."""
        if (self.size() - 1) % order:
            raise RootOfUnityMissing(f"{self!r} has no element of order {order}")
        undecided = FieldTooLarge(f"trial division to {_TRIAL_DIVISION_LIMIT} and "
                                  f"Miller-Rabin leave {order} unfactored")
        one, primes = self.one(), set(_prime_factors(order, _TRIAL_DIVISION_LIMIT, undecided))
        return next(x for x in range(1, self.size()) if self.power(x, order) == one
                    and all(self.power(x, order // r) != one for r in primes))

    def root_of_unity_log(self, x) -> Optional[Fraction]:
        tables = self._tables
        if tables is not None:
            log, _, n, _ = tables
            return None if self.is_zero(x) else Fraction(log[x], n)
        q = self.size()
        if q > _LOG_SCAN_LIMIT:
            raise FieldTooLarge(f"discrete log capped at {_LOG_SCAN_LIMIT} elements")
        gen, acc = self.zeta(q - 1), self.one()
        for t in range(q - 1):
            if x == acc:
                return Fraction(t, q - 1)
            acc = self.mul(acc, gen)
        return None

    def _kth_root(self, x, k: int):
        """The least root in element order: r^k = x for r = zeta^e exactly
        when k e = log x mod q - 1, which has g = gcd(k, q - 1) solutions
        e, spaced (q - 1) / g apart, when g divides log x and none else."""
        tables = self._tables
        if tables is None:
            raise UndecidedPower(f"{k}-th roots in {self!r} are searched only up to "
                                 f"{_TABLE_LIMIT} elements")
        log, exp, n, _ = tables
        g = math.gcd(k, n)
        if log[x] % g:
            return None
        step = n // g
        e = log[x] // g * pow(k // g, -1, step) % step
        return min(exp[e + j * step] for j in range(g))


class _PrimeField(_FiniteField):
    """F_p: the finite field with m = 1, mod-p operators and bare-string JSON."""

    kind = "prime_field"

    def to_json(self) -> dict:
        return {"kind": "prime_field", "p": str(self.p)}

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    _poly_mul = mul

    def dot(self, pairs):
        """sum x y, reduced mod p once."""
        return sum(itertools.starmap(operator.mul, pairs)) % self.p

    def _inv(self, x):
        return pow(x, self.p - 2, self.p)

    def power(self, x, e: int):
        return pow(x, e, self.p)

    generator = FieldDescriptor.generator

    payload_to_json = staticmethod(str)

    def payload_from_json(self, obj):
        return _exact_int(obj) % self.p


@dataclass(frozen=True, repr=False)
class _FunctionField(FieldDescriptor):
    base: FieldDescriptor
    variables: tuple[str, ...]
    kind = "function_field"
    __hash__ = FieldDescriptor.__hash__

    def __post_init__(self):
        if self.base is None or not self.variables:
            raise ScalarError("function field needs a base and variables")
        if len(set(self.variables)) != len(self.variables):
            raise ScalarError("function field variables must be distinct")

    @cached_property
    def _unit_den(self):
        """The canonical denominator 1: the constant polynomial."""
        return (((0,) * len(self.variables), self.base.one()),)

    @property
    def characteristic(self) -> int:
        return self.base.characteristic

    def __repr__(self):
        return f"{self.base!r}({', '.join(self.variables)})"

    def to_json(self) -> dict:
        return {"kind": "function_field", "base": self.base.to_json(),
                "variables": list(self.variables)}

    def constant(self, c):
        """The payload of the constant function c, a base payload."""
        num = () if self.base.is_zero(c) else (((0,) * len(self.variables), c),)
        return (num, self._unit_den)

    def zero(self):
        return ((), self._unit_den)

    def one(self):
        return (self._unit_den, self._unit_den)

    def from_int(self, k: int):
        return self.constant(self.base.from_int(k))

    def is_zero(self, x) -> bool:
        return not x[0]

    def add(self, x, y):
        (n1, d1), (n2, d2) = x, y
        if not n1 or not n2:
            return x if n1 else y
        bd = self.base
        if d1 == d2:
            num = _t_add(bd, n1, n2)
            if d1 == self._unit_den:
                return (num, d1)
            return self.normalize(num, d1)
        num = _t_dot(bd, ((n1, d2), (n2, d1)))
        return self.normalize(num, _t_mul(bd, d1, d2))

    def neg(self, x):
        return (_t_neg(self.base, x[0]), x[1])

    def mul(self, x, y):
        (n1, d1), (n2, d2) = x, y
        one = self._unit_den
        if not n1 or not n2:
            return ((), one)
        bd = self.base
        num = _t_mul(bd, n1, n2)
        if d1 == one and d2 == one:
            return (num, one)
        return self.normalize(num, _t_mul(bd, d1, d2))

    def dot(self, pairs):
        """sum x y: over unit denominators, one _t_dot of the numerators;
        a lone pair is one mul."""
        one = self._unit_den
        if len(pairs) == 1:
            return self.mul(*pairs[0])
        if not pairs or any(xd != one or yd != one for (_, xd), (_, yd) in pairs):
            return super().dot(pairs)
        return (_t_dot(self.base, [(xn, yn) for (xn, _), (yn, _) in pairs]), one)

    def _inv(self, x):
        return self.normalize(x[1], x[0])

    def normalize(self, num: tuple, den: tuple):
        """The canonical payload of the stored polynomials num/den: common
        factors cancelled and the denominator monic."""
        bd = self.base
        if not den:
            raise DivisionByZero(f"zero denominator in {self!r}")
        if not num:
            return ((), self._unit_den)
        if den != self._unit_den:
            g = _t_gcd(bd, num, den)
            if g != self._unit_den:
                num, den = _t_exact_div(bd, num, g), _t_exact_div(bd, den, g)
        lc = den[0][1]
        if lc != bd.one():
            inv = bd.inv(lc)
            num, den = _t_scale(bd, num, inv), _t_scale(bd, den, inv)
        return (num, den)

    def render(self, x) -> str:
        num, den = x
        ns = _render_poly(self, num)
        if den == self._unit_den:
            return ns
        ds = _render_poly(self, den)
        return f"({ns})/({ds})"

    def payload_to_json(self, x):
        num, den = x

        def poly(t):
            return {",".join(str(e) for e in exps): self.base.payload_to_json(c)
                    for exps, c in t}

        return {"num": poly(num), "den": poly(den)}

    def payload_from_json(self, obj):
        if isinstance(_exact_json(obj), (int, str)):
            if self.characteristic:
                return self.from_int(_exact_int(obj))
            r, bd = _exact_fraction(obj), self.base
            return self.constant(bd.div(bd.from_int(r.numerator), bd.from_int(r.denominator)))
        nv = len(self.variables)

        def poly(o):
            out = {}
            for key, c in o.items():
                exps = tuple(_exact_int(x) for x in key.split(","))
                if len(exps) != nv or min(exps) < 0 or exps in out:
                    raise ScalarError(f"exponent key {key!r}: expected {nv} nonnegative "
                                      "exponents, each monomial once")
                out[exps] = self.base.payload_from_json(c)
            return _p_to_tuple({e: c for e, c in out.items() if not self.base.is_zero(c)})

        num = poly(obj["num"])
        den = poly(obj["den"]) if "den" in obj else self._unit_den
        return self.normalize(num, den)

    def random_payload(self, rng, height, degree, terms):
        bd, nv = self.base, len(self.variables)

        def rand_poly(tmax):
            out = {}
            for _ in range(rng.randint(1, tmax)):
                exp = tuple(rng.randint(0, degree) for _ in range(nv))
                c = bd.random_payload(rng, height, degree, terms)
                if not bd.is_zero(c):
                    out[exp] = c
            return _p_to_tuple(out)

        num = rand_poly(terms)
        den = rand_poly(max(1, terms - 1)) or self._unit_den
        if rng.random() < 0.5:
            den = self._unit_den
        return self.normalize(num, den)

    def zeta(self, order: int):
        return self.constant(self.base.zeta(order))

    def root_of_unity_log(self, x) -> Optional[Fraction]:
        # only constants can be roots of unity
        num, den = x
        if den != self._unit_den or len(num) != 1 or num[0][0] != (0,) * len(self.variables):
            return None
        return self.base.root_of_unity_log(num[0][1])

    def _kth_root(self, x, k: int):
        rn = _poly_kth_root(self.base, x[0], k)
        rd = None if rn is None else _poly_kth_root(self.base, x[1], k)
        return None if rd is None else self.normalize(rn, rd)


_INTERNED: dict = {}


def _interned(cls, *fields) -> FieldDescriptor:
    """The one shared instance of cls(*fields)."""
    key = (cls, *fields)
    d = _INTERNED.get(key)
    if d is None:
        d = _INTERNED[key] = cls(*fields)
    return d


def rationals() -> FieldDescriptor:
    return _interned(_Rationals)


def cyclotomic(n: int) -> FieldDescriptor:
    return _interned(_Cyclotomic, n)


def prime_field(p: int) -> FieldDescriptor:
    return _interned(_PrimeField, p, 1)


def finite_field(p: int, m: int) -> FieldDescriptor:
    return _interned(_FiniteField, p, m)


def function_field(base: FieldDescriptor, variables) -> FieldDescriptor:
    return _interned(_FunctionField, base, tuple(variables))


# ---------------------------------------------------------------------------
# multivariate polynomials, one form: a tuple of (exponent tuple, nonzero
# base payload) in descending lex order in the declared variable order, so
# the leading term is A[0]. Every kernel takes and returns this form; only
# the JSON and random readers gather terms in a dict and sort once.

def _p_to_tuple(A: dict) -> tuple:
    return tuple(sorted(A.items(), reverse=True))


def _t_add(bd, A, B) -> tuple:
    """A + B on stored polynomials: one merge of the two descending lists,
    O(s + t) base operations for s and t terms."""
    add, is_zero = bd.add, bd.is_zero
    out, i, j = [], 0, 0
    while i < len(A) and j < len(B):
        ea, eb = A[i][0], B[j][0]
        if ea > eb:
            out.append(A[i])
            i += 1
        elif ea < eb:
            out.append(B[j])
            j += 1
        else:
            c = add(A[i][1], B[j][1])
            if not is_zero(c):
                out.append((ea, c))
            i, j = i + 1, j + 1
    return tuple(out) + A[i:] + B[j:]


def _t_dot(bd, pairs) -> tuple:
    """sum A B over pairs of stored polynomials: the base products that land
    on one monomial are summed by one bd.dot each, and the sum is sorted
    once. The only place that groups products by monomial."""
    groups = {}
    for A, B in pairs:
        for ea, ca in A:
            for eb, cb in B:
                groups.setdefault(tuple(map(operator.add, ea, eb)), []).append((ca, cb))
    return _p_to_tuple({e: c for e, ps in groups.items() if not bd.is_zero(c := bd.dot(ps))})


def _t_mul(bd, A, B) -> tuple:
    """A B on stored polynomials. A one-term factor shifts the exponents of
    the other in O(t) with no sort: adding a fixed exponent vector keeps lex
    order, and nonzero base payloads have a nonzero product."""
    if len(B) == 1:
        A, B = B, A
    if len(A) == 1:
        (ea, ca), = A
        return tuple([(tuple(map(operator.add, ea, eb)), bd.mul(ca, cb)) for eb, cb in B])
    return _t_dot(bd, ((A, B),))


def _t_neg(bd, A) -> tuple:
    return tuple([(e, bd.neg(c)) for e, c in A])


def _t_scale(bd, A, c) -> tuple:
    """c A for a nonzero base payload c: the exponents keep their order."""
    return tuple([(e, bd.mul(a, c)) for e, a in A])


def _t_monic(bd, A) -> tuple:
    if not A or A[0][1] == bd.one():
        return A
    return _t_scale(bd, A, bd.inv(A[0][1]))


def _t_deg(A, i) -> int:
    return max((e[i] for e, _ in A), default=0)


def _t_slice(A, i, d, k) -> tuple:
    """The terms of A with x_i to the power d, that power set to k; they
    share e[i], so they keep A's order."""
    return tuple([(e[:i] + (k,) + e[i + 1:], c) for e, c in A if e[i] == d])


def _t_exact_div(bd, A, B) -> tuple:
    """A / B over a field when B divides A, by lex-greedy cancellation of
    leading terms; the quotient's terms come out in descending order. A
    monic B, as every gcd and content is, needs no inverse."""
    eb, cb = B[0]
    inv_cb = None if cb == bd.one() else bd.inv(cb)
    Q = []
    while A:
        e, c = A[0]
        de = tuple(map(operator.sub, e, eb))
        if min(de) < 0:
            raise ArithmeticError("polynomial division not exact")
        qc = c if inv_cb is None else bd.mul(c, inv_cb)
        Q.append((de, qc))
        A = _t_add(bd, A, _t_mul(bd, ((de, bd.neg(qc)),), B))
    return tuple(Q)


def _t_content_pp(bd, A, i):
    """The monic content of A in x_i and A's primitive part. The content is
    the gcd of the coefficients in x_i taken in their order of first
    appearance in A, grouped in one pass: ascending powers of x_i give the
    same content through larger intermediate gcds."""
    groups = {}
    for e, c in A:
        groups.setdefault(e[i], []).append((e[:i] + (0,) + e[i + 1:], c))
    cont, *rest = map(tuple, groups.values())
    for c in rest:
        cont = _t_gcd(bd, cont, c)
        if len(cont) == 1 and not any(cont[0][0]):
            break
    cont = _t_monic(bd, cont)
    return cont, _t_exact_div(bd, A, cont)


def _t_prem(bd, A, B, i):
    """The pseudo-remainder of A by B in x_i."""
    dB = _t_deg(B, i)
    lcB = _t_slice(B, i, dB, 0)
    while A and (dA := _t_deg(A, i)) >= dB:
        A = _t_dot(bd, ((lcB, A), (_t_neg(bd, _t_slice(A, i, dA, dA - dB)), B)))
    return A


def _t_gcd(bd, A, B):
    """The monic gcd in base[x1..xn]: the classical primitive
    pseudo-remainder sequence in the first variable present, times the gcd
    of the contents (Geddes-Czapor-Labahn, Algorithms for Computer Algebra,
    ch. 7)."""
    if not A or not B:
        return _t_monic(bd, A or B)
    if len(A) == 1 or len(B) == 1:
        # gcd with a monomial: componentwise min over every exponent present
        mins = tuple(map(min, *(e for e, _ in itertools.chain(A, B))))
        return ((mins, bd.one()),)
    # A has two distinct exponents, so some variable occurs
    main = next(i for i in range(len(A[0][0])) if _t_deg(A, i) or _t_deg(B, i))
    contA, ppA = _t_content_pp(bd, A, main)
    contB, ppB = _t_content_pp(bd, B, main)
    contG = _t_gcd(bd, contA, contB)
    R0, R1 = ppA, ppB
    if _t_deg(R0, main) < _t_deg(R1, main):
        R0, R1 = R1, R0
    while R1:
        R = _t_prem(bd, R0, R1, main)
        if R:
            # a monic primitive part keeps base-field coefficients bounded
            R = _t_monic(bd, _t_content_pp(bd, R, main)[1])
        R0, R1 = R1, R
    if _t_deg(R0, main) > 0:
        R0 = _t_content_pp(bd, R0, main)[1]
    return _t_monic(bd, _t_mul(bd, contG, R0))


# ---------------------------------------------------------------------------
# elements

_Coercible = Union[int, Fraction, "FieldElement"]


class FieldElement:
    """Immutable element of one of the supported fields."""

    __slots__ = ("descriptor", "payload")

    def __init__(self, descriptor: FieldDescriptor, payload):
        self.descriptor = descriptor
        self.payload = payload

    def _binary(self, other, op: str):
        d = self.descriptor
        rhs = _payload(d, other)
        if rhs is None:
            return NotImplemented
        return FieldElement(d, getattr(d, op)(self.payload, rhs))

    # the common case first: two elements sharing one (interned) descriptor
    def __add__(self, other):
        d = self.descriptor
        if other.__class__ is FieldElement and other.descriptor is d:
            return FieldElement(d, d.add(self.payload, other.payload))
        return self._binary(other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        d = self.descriptor
        if other.__class__ is FieldElement and other.descriptor is d:
            return FieldElement(d, d.sub(self.payload, other.payload))
        return self._binary(other, "sub")

    def __rsub__(self, other):
        d = self.descriptor
        lhs = _payload(d, other)
        if lhs is None:
            return NotImplemented
        return FieldElement(d, d.sub(lhs, self.payload))

    def __mul__(self, other):
        d = self.descriptor
        if other.__class__ is FieldElement and other.descriptor is d:
            return FieldElement(d, d.mul(self.payload, other.payload))
        return self._binary(other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        d = self.descriptor
        lhs = _payload(d, other)
        if lhs is None:
            return NotImplemented
        return FieldElement(d, d.div(lhs, self.payload))

    def __neg__(self):
        return FieldElement(self.descriptor, self.descriptor.neg(self.payload))

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        return FieldElement(self.descriptor, self.descriptor.power(base.payload, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.descriptor, self.descriptor.inv(self.payload))

    @property
    def is_zero(self) -> bool:
        return self.descriptor.is_zero(self.payload)

    @property
    def is_one(self) -> bool:
        return self.payload == self.descriptor.one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            rhs = _payload(self.descriptor, other)
            return NotImplemented if rhs is None else self.payload == rhs
        if not isinstance(other, FieldElement):
            return NotImplemented
        d, e = self.descriptor, other.descriptor
        return (d is e or d == e) and self.payload == other.payload

    def __hash__(self):
        return hash((self.descriptor, self.payload))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return self.descriptor.render(self.payload)


def _payload(d: FieldDescriptor, value):
    """The payload in d of an element of d, an int, or a Fraction when d has
    characteristic 0; None for any other value. An element of another field
    raises DescriptorMismatch."""
    if isinstance(value, FieldElement):
        if value.descriptor is not d and value.descriptor != d:
            raise DescriptorMismatch(f"{value.descriptor!r} vs {d!r}")
        return value.payload
    if isinstance(value, int):
        return d.from_int(value)
    if isinstance(value, Fraction) and d.characteristic == 0:
        return d.div(d.from_int(value.numerator), d.from_int(value.denominator))
    return None


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
    """A stored polynomial as text, terms in its descending lex order."""
    if not A:
        return "0"
    names = d.variables
    parts = []
    for e, c in A:
        mon = "*".join(
            n + (f"**{k}" if k > 1 else "")
            for n, k in zip(names, e) if k)
        cs = d.base.render(c)
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
        return FieldElement(self.descriptor, self.descriptor.zero())

    @property
    def one(self) -> FieldElement:
        return FieldElement(self.descriptor, self.descriptor.one())

    @property
    def characteristic(self) -> int:
        return self.descriptor.characteristic

    def from_int(self, k: int) -> FieldElement:
        return FieldElement(self.descriptor, self.descriptor.from_int(k))

    def payload(self, value: _Coercible):
        """The payload of self(value), built without a FieldElement."""
        p = _payload(self.descriptor, value)
        if p is None:
            raise TypeError(f"{value!r} is not an element of {self.descriptor!r}")
        return p

    def __call__(self, value: _Coercible) -> FieldElement:
        """value as an element of this field: an element of it is returned as
        it is, an int or (in characteristic 0) a Fraction converted, and any
        other value raises TypeError."""
        if isinstance(value, FieldElement):
            self.payload(value)  # DescriptorMismatch for another field
            return value
        return FieldElement(self.descriptor, self.payload(value))

    def var(self, name: str) -> FieldElement:
        d = self.descriptor
        if not isinstance(d, _FunctionField):
            raise ScalarError(f"{d!r} has no variables")
        if name not in d.variables:
            raise ScalarError(f"unknown variable {name!r} in {d!r}")
        i = d.variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(d.variables)))
        return FieldElement(d, (((e, d.base.one()),), d._unit_den))

    def vars(self) -> tuple[FieldElement, ...]:
        return tuple(self.var(n) for n in getattr(self.descriptor, "variables", ()))

    def lift(self, elt: FieldElement) -> FieldElement:
        """Embed a base-field element as a constant rational function."""
        d = self.descriptor
        if not isinstance(d, _FunctionField):
            raise ScalarError(f"{d!r} is not a function field")
        if elt.descriptor != d.base:
            raise DescriptorMismatch(f"{elt.descriptor!r} is not the base of {d!r}")
        return FieldElement(d, d.constant(elt.payload))

    def generator(self) -> FieldElement:
        """Class of the defining generator (z for cyclotomic, t for F_{p^m})."""
        return FieldElement(self.descriptor, self.descriptor.generator())

    def size(self) -> Optional[int]:
        return self.descriptor.size()

    def elements(self) -> Iterator[FieldElement]:
        """All elements of a finite field, in a fixed deterministic order."""
        d = self.descriptor
        for x in d.payloads():
            yield FieldElement(d, x)

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
        if p and order % p == 0:
            raise RootOfUnityMissing(f"no {order}-th roots in characteristic {p}")
        return FieldElement(d, d.zeta(order))

    def random_element(self, rng, *, height: int = 9, degree: int = 2,
                       terms: int = 2, nonzero: bool = False) -> FieldElement:
        """Seeded random element for property tests; exact, never floats."""
        d = self.descriptor
        while True:
            e = FieldElement(d, d.random_payload(rng, height, degree, terms))
            if not (nonzero and e.is_zero):
                return e


# ---------------------------------------------------------------------------
# roots of unity: discrete log into Q/Z

def root_of_unity_log(elt: FieldElement) -> Optional[Fraction]:
    """Write elt as a root of unity and return its class in Q/Z, else None.

    The embedding is canonical per field: cyclotomic z_n maps to 1/n (with
    -z^j handled through order 2n when n is odd); the multiplicative group
    of a finite field maps through its first primitive element in element
    order; in Q and char-0 function-field constants only +-1 qualify.
    """
    if elt.is_zero:
        return None
    return elt.descriptor.root_of_unity_log(elt.payload)


# ---------------------------------------------------------------------------
# k-th power recognition (decidable fragment) and k-th roots

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


def _t_kth_root(bd, A: tuple, k: int):
    """k-th root of a polynomial, char coprime to k, or None if there is none.

    Greedy on lex terms: each step cancels the leading term of A - G^k, so
    the terms come strictly lex-decreasing and each one is appended. If a root R leading with rc
    exists (roots differ by units), they are R's terms, which lie in the
    finite Newton box deg_{x_i} <= deg_{x_i}(A)/k. So a term outside the
    box proves that there is no root, and the loop ends inside it.
    """
    le, lc = A[0]
    if any(e % k for e in le):
        return None
    rc = bd.kth_root(lc, k)
    if rc is None:
        return None
    ge = tuple(e // k for e in le)
    G = ((ge, rc),)
    k_elem = bd.from_int(k)
    if bd.is_zero(k_elem):
        raise AssertionError("characteristic divides k in coprime branch")
    he = tuple(e * (k - 1) for e in ge)
    hc = bd.mul(k_elem, bd.power(rc, k - 1))
    box = [_t_deg(A, i) // k for i in range(len(le))]
    while True:
        Gpow = G
        for _ in range(k - 1):
            Gpow = _t_mul(bd, Gpow, G)
        diff = _t_add(bd, A, _t_neg(bd, Gpow))
        if not diff:
            return G
        de, dc = diff[0]
        # next term t satisfies lt(diff) = k * lt(G)^(k-1) * t
        te = tuple(a - b for a, b in zip(de, he))
        if any(not 0 <= t <= b for t, b in zip(te, box)):
            return None
        G += ((te, bd.div(dc, hc)),)


def _poly_kth_root(bd, A, k):
    """A k-th root of a stored polynomial over the coefficient ops bd, or
    None if there is none."""
    if not A:
        return ()
    char = bd.characteristic
    if char and k % char == 0:
        # Frobenius branch: exponents divisible by char, coefficients have
        # char-th roots; dividing every exponent by char keeps their order
        if any(e % char for exp, _ in A for e in exp):
            return None
        root = []
        for e, c in A:
            rc = bd.kth_root(c, char)
            if rc is None:
                return None
            root.append((tuple(x // char for x in e), rc))
        root = tuple(root)
        return root if k == char else _poly_kth_root(bd, root, k // char)
    return _t_kth_root(bd, A, k)


def kth_root(elt: FieldElement, k: int) -> Optional[FieldElement]:
    """Exact k-th root, None if provably none exists, UndecidedPower if the
    question falls outside the decidable fragment (general cyclotomic units)."""
    if k < 1:
        raise ScalarError("root index must be >= 1")
    r = elt.descriptor.kth_root(elt.payload, k)
    return None if r is None else FieldElement(elt.descriptor, r)


def is_kth_power(elt: FieldElement, k: int) -> Optional[bool]:
    """True / False when decidable, None otherwise."""
    try:
        r = kth_root(elt, k)
    except UndecidedPower:
        return None
    return r is not None


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
    d = coeffs[0].descriptor
    a = [c.payload for c in coeffs]
    derivative = [d.mul(a[i], d.from_int(i)) for i in range(1, len(a))]
    return len(_u_gcd(d, a, derivative)) == 1


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
# JSON forms

def descriptor_to_json(d: FieldDescriptor) -> dict:
    return d.to_json()


def descriptor_from_json(obj) -> FieldDescriptor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScalarError("descriptor JSON must be an object with a kind")
    kind = obj["kind"]
    if kind == "rationals":
        return rationals()
    if kind == "cyclotomic":
        return cyclotomic(_exact_int(obj["n"]))
    if kind == "prime_field":
        return prime_field(_exact_int(obj["p"]))
    if kind == "finite_field":
        return finite_field(_exact_int(obj["p"]), _exact_int(obj["m"]))
    if kind == "function_field":
        variables = _json_list(obj["variables"])
        if not all(isinstance(v, str) for v in variables):
            raise TypeError(f"function field variables must be strings, got {variables!r}")
        return function_field(descriptor_from_json(obj["base"]), variables)
    raise ScalarError(f"unknown field kind {kind!r}")


def element_to_json(e: FieldElement) -> dict:
    return {"descriptor": descriptor_to_json(e.descriptor),
            "value": e.descriptor.payload_to_json(e.payload)}


def element_from_json(obj, descriptor: Optional[FieldDescriptor] = None) -> FieldElement:
    if isinstance(obj, dict) and "descriptor" in obj:
        d = descriptor_from_json(obj["descriptor"])
        if descriptor is not None and d != descriptor:
            raise DescriptorMismatch("descriptor in payload disagrees with context")
        return FieldElement(d, d.payload_from_json(obj["value"]))
    if descriptor is None:
        raise ScalarError("element JSON without descriptor context")
    return FieldElement(descriptor, descriptor.payload_from_json(obj))
