import contextlib
import hashlib
import itertools
import json
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from aniso.scalars import (DescriptorMismatch, DivisionByZero, Field, FieldElement,
                           FieldTooLarge, RootOfUnityMissing, ScalarError,
                           UndecidedPower,
                           _Cyclotomic, _FiniteField, _FunctionField,
                           _PrimeField, _Rationals,
                           _int_kth_root, _is_prime, _p_to_tuple,
                           _primes_upto, _t_add, _t_dot, _t_monic, _t_mul, _t_neg,
                           _u_gcd, _u_inverse,
                           modulus_polynomial,
                           cyclotomic, cyclotomic_polynomial,
                           descriptor_from_json, descriptor_to_json,
                           element_from_json, element_to_json, finite_field,
                           function_field, is_kth_power, kth_root,
                           minimal_polynomial_of_constant,
                           prime_field, rationals, root_of_unity_log)
from aniso.integers import binary_power, least_power
from deadline import deadline
from oracles import (FractionCyclotomic, FractionOnlyQ, _fp_trim, _p_add, _p_mul,
                     artin_schreier_image, cy_mul, cy_reduce, dot_by_fold,
                     finite_field_inv_by_polynomials, finite_field_mul_by_polynomials,
                     function_field_add_by_dicts, function_field_mul_by_dicts,
                     kth_roots_by_scan, kth_roots_in_newton_box,
                     root_of_unity_log_by_scan, zeta_by_scan)


def _all_fields():
    return [
        rationals(),
        cyclotomic(4),
        cyclotomic(5),
        prime_field(2),
        prime_field(7),
        finite_field(2, 3),
        finite_field(3, 2),
        function_field(rationals(), ("t",)),
        function_field(prime_field(2), ("x", "y")),
        function_field(cyclotomic(3), ("a", "b")),
    ]


def _built_directly():
    """ALL_FIELDS again, built past the factories' interning."""
    return [
        _Rationals(),
        _Cyclotomic(4),
        _Cyclotomic(5),
        _PrimeField(2, 1),
        _PrimeField(7, 1),
        _FiniteField(2, 3),
        _FiniteField(3, 2),
        _FunctionField(_Rationals(), ("t",)),
        _FunctionField(_PrimeField(2, 1), ("x", "y")),
        _FunctionField(_Cyclotomic(3), ("a", "b")),
    ]


ALL_FIELDS = _all_fields()

# repr, kind, characteristic and JSON of each entry of ALL_FIELDS
CONTRACT = [
    ("Q", "rationals", 0, {"kind": "rationals"}),
    ("Q(z4)", "cyclotomic", 0, {"kind": "cyclotomic", "n": "4"}),
    ("Q(z5)", "cyclotomic", 0, {"kind": "cyclotomic", "n": "5"}),
    ("F_2", "prime_field", 2, {"kind": "prime_field", "p": "2"}),
    ("F_7", "prime_field", 7, {"kind": "prime_field", "p": "7"}),
    ("F_8", "finite_field", 2, {"kind": "finite_field", "p": "2", "m": "3"}),
    ("F_9", "finite_field", 3, {"kind": "finite_field", "p": "3", "m": "2"}),
    ("Q(t)", "function_field", 0,
     {"kind": "function_field", "base": {"kind": "rationals"}, "variables": ["t"]}),
    ("F_2(x, y)", "function_field", 2,
     {"kind": "function_field", "base": {"kind": "prime_field", "p": "2"},
      "variables": ["x", "y"]}),
    ("Q(z3)(a, b)", "function_field", 0,
     {"kind": "function_field", "base": {"kind": "cyclotomic", "n": "3"},
      "variables": ["a", "b"]}),
]


@pytest.mark.parametrize("index", range(len(ALL_FIELDS)))
def test_descriptor_contract(index):
    descriptor, again = ALL_FIELDS[index], _built_directly()[index]
    text, kind, characteristic, obj = CONTRACT[index]
    assert repr(descriptor) == text == repr(again)
    assert descriptor.kind == kind
    assert descriptor.characteristic == characteristic == Field(descriptor).characteristic
    # key order too: reports serialize these dicts as they are
    assert list(descriptor_to_json(descriptor).items()) == list(obj.items())
    # the factories and the JSON reader intern: one instance per descriptor
    assert _all_fields()[index] is descriptor
    assert descriptor_from_json(obj) is descriptor
    # a descriptor built directly still compares and hashes by value
    assert again == descriptor and hash(again) == hash(descriptor)
    assert again is not descriptor
    others = ALL_FIELDS[:index] + ALL_FIELDS[index + 1:]
    assert all(other != descriptor for other in others)


def test_same_parameters_different_kinds_are_unequal():
    kinds = [prime_field(7), finite_field(7, 1), cyclotomic(7)]
    for a, b in itertools.combinations(kinds, 2):
        assert a != b and b != a
    assert Field(prime_field(7)).one != Field(finite_field(7, 1)).one
    with pytest.raises(DescriptorMismatch):
        Field(prime_field(7)).one + Field(finite_field(7, 1)).one


@pytest.mark.parametrize("descriptor", ALL_FIELDS)
def test_field_axioms_random(descriptor):
    field = Field(descriptor)
    rng = random.Random(11)
    for _ in range(30):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert a + field.zero == a
        assert a * field.one == a
        assert a - a == field.zero
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == field.one
            assert (a / a) == field.one


@pytest.mark.parametrize("descriptor", ALL_FIELDS)
def test_json_roundtrip(descriptor):
    assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor
    field = Field(descriptor)
    rng = random.Random(5)
    for _ in range(10):
        a = field.random_element(rng)
        back = element_from_json(element_to_json(a))
        assert back == a


def test_rationals_coerce_and_divide():
    field = Field(rationals())
    x = field(Fraction(3, 4))
    assert x + field(1) == field(Fraction(7, 4))
    with pytest.raises(DivisionByZero):
        field.one / field.zero


def test_cyclotomic_root_orders():
    field = Field(cyclotomic(12))
    z = field.zeta(12)
    powers = [z ** k for k in range(12)]
    assert len(set(powers)) == 12
    assert z ** 12 == field.one
    assert root_of_unity_log(z) == Fraction(1, 12)
    assert root_of_unity_log(z ** 5) == Fraction(5, 12)
    # -1 is the primitive square root of 1 in any cyclotomic field
    assert field.zeta(2) == field.from_int(-1)
    with pytest.raises(RootOfUnityMissing):
        field.zeta(7)


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _int_poly_exact_div(a, b):
    """Oracle: a / b over Z for a monic b that divides a exactly."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    out = [0] * (da - db + 1)
    for k in range(da, db - 1, -1):
        c = a[k]
        if c:
            out[k - db] = c
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    assert not any(a), "division not exact"
    return out


def test_cyclotomic_polynomial_matches_integer_division():
    table = {}
    for n in range(1, 500):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _int_poly_exact_div(poly, table[d])
        table[n] = tuple(poly)
        assert cyclotomic_polynomial(n) == table[n], n


def _cy_mul_by_fractions(n, x, y):
    """Oracle: the power-basis product with Fraction arithmetic throughout,
    reduced modulo Phi_n."""
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return cy_reduce(n, out)


def test_cyclotomic_product_matches_fraction_reference():
    rng = random.Random(13)
    for n in (1, 3, 4, 5, 7, 9, 12):
        d = len(cyclotomic_polynomial(n)) - 1
        descriptor = cyclotomic(n)
        for _ in range(40):
            x, y = (tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                          if rng.random() < 0.8 else Fraction(0) for _ in range(d))
                    for _ in range(2))
            expected = _cy_mul_by_fractions(n, x, y)
            assert cy_mul(n, x, y) == expected, (n, x, y)
            got = descriptor.mul(descriptor.payload_from_json([str(c) for c in x]),
                                 descriptor.payload_from_json([str(c) for c in y]))
            assert descriptor.fractions(got) == expected, (n, x, y)


def _cyclotomic_samples(n, rng):
    """Fraction tuples for Q(zeta_n): zero, one, z, seeded elements with
    mixed denominators, and pairs whose sum cancels to a smaller
    denominator."""
    d = len(cyclotomic_polynomial(n)) - 1

    def fractional():
        return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9, 10, 35)))
                     if rng.random() < 0.8 else Fraction(0) for _ in range(d))

    oracle = FractionCyclotomic(n)
    out = [oracle.from_int(0), oracle.from_int(1), oracle.from_int(-7),
           cy_reduce(n, [Fraction(0), Fraction(1)])]
    for _ in range(10):
        x = fractional()
        # x + y has every denominator dividing 2
        y = tuple(Fraction(rng.randint(-3, 3), 2) - c for c in x)
        out += [x, y]
    return out


def _is_canonical(descriptor, x):
    nums, den = x
    return (len(nums) == len(cyclotomic_polynomial(descriptor.n)) - 1
            and all(isinstance(c, int) for c in nums) and isinstance(den, int)
            and den >= 1 and math.gcd(den, *nums) == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12])
def test_cyclotomic_payloads_match_fraction_oracle(n):
    """Integer numerators over one denominator agree with Fraction tuples
    at the boundary, for every operation and every rendering."""
    descriptor, oracle = cyclotomic(n), FractionCyclotomic(n)
    rng = random.Random(7100 + n)
    samples = _cyclotomic_samples(n, rng)
    payloads = [descriptor.payload_from_json(oracle.payload_to_json(x)) for x in samples]
    for x, px in zip(samples, payloads):
        assert _is_canonical(descriptor, px)
        assert descriptor.fractions(px) == x
        assert descriptor.payload_to_json(px) == oracle.payload_to_json(x)
        assert descriptor.render(px) == oracle.render(x)
        assert descriptor.is_zero(px) == (not any(x))
        assert descriptor.fractions(descriptor.neg(px)) == oracle.neg(x)
        for e in range(4):
            assert descriptor.fractions(descriptor.power(px, e)) == oracle.power(x, e)
        if any(x):
            assert descriptor.fractions(descriptor.inv(px)) == oracle.inv(x)
    pairs = list(zip(samples, payloads))
    for (x, px), (y, py) in itertools.product(pairs, repeat=2):
        for op in ("add", "sub", "mul"):
            got = getattr(descriptor, op)(px, py)
            assert _is_canonical(descriptor, got), (op, x, y)
            assert descriptor.fractions(got) == getattr(oracle, op)(x, y), (op, x, y)
        if any(y):
            assert descriptor.fractions(descriptor.div(px, py)) == oracle.div(x, y)
        assert (px == py) == (x == y)
    # the cancelling sums land on denominators dividing 2
    for px, py in zip(payloads[4::2], payloads[5::2]):
        assert 2 % descriptor.add(px, py)[1] == 0
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        for height in (1, 9, 100):
            got = descriptor.random_payload(ours, height, 2, 2)
            assert _is_canonical(descriptor, got)
            assert descriptor.fractions(got) == oracle.random_payload(theirs, height, 2, 2)
        assert ours.getstate() == theirs.getstate()


def test_finite_field_enumeration_and_generator():
    field = Field(finite_field(2, 3))
    elems = list(field.elements())
    assert len(elems) == 8 == field.size()
    assert len(set(elems)) == 8
    g = field.generator()
    orbit = {g ** k for k in range(7)}
    assert len(orbit) == 7  # multiplicative group is cyclic of order 7
    assert g ** 7 == field.one


def test_prime_field_zeta():
    field = Field(prime_field(7))
    z = field.zeta(6)
    assert z ** 6 == field.one
    assert all(z ** k != field.one for k in range(1, 6))
    with pytest.raises(RootOfUnityMissing):
        field.zeta(5)


def test_function_field_arithmetic():
    field = Field(function_field(rationals(), ("t",)))
    t = field.var("t")
    lhs = (t + field.one) * (t - field.one)
    assert lhs == t * t - field.one
    ratio = (t * t - field.one) / (t - field.one)
    assert ratio == t + field.one


def test_function_field_two_vars_cancellation():
    field = Field(function_field(prime_field(3), ("x", "y")))
    x, y = field.vars()
    expr = (x + y) ** 3
    assert expr == x ** 3 + y ** 3  # freshman's dream mod 3
    with pytest.raises(DivisionByZero):
        x / (y - y)


def test_function_field_gcd_terminates_over_cyclotomic_base():
    # unless the gcd's pseudo-remainders are kept monic, their base-field
    # coefficients grow and squaring this element of Q(z3)(a, b) takes minutes
    field = Field(function_field(cyclotomic(3), ("a", "b")))
    a, b = field.vars()
    z = field.zeta(3)

    def c(p, q):
        return field(Fraction(p, 109)) + field(Fraction(q, 109)) * z

    x = (c(136, 43) * a ** 2 * b + c(9, 87) * a + c(-10, -24) * b ** 2) \
        / (a ** 2 * b ** 2 + c(68, 76) * a)

    # the failure mode is a run without end, so stop it rather than hang the suite
    with deadline(10):
        start = time.perf_counter()
        square = x * x
        assert time.perf_counter() - start < 1.0
    assert square / x == x


def test_negative_powers_end():
    # binary_power looped without end for e < 0 (e >>= 1 stays -1), and the
    # descriptor's power passed e through; an alarm turns a hang into a failure
    with deadline(5):
        with pytest.raises(ValueError, match="exponent >= 0"):
            binary_power(2, -1, 1, operator.mul)
        assert rationals().power(Fraction(2), -3) == Fraction(1, 8)
        rng = random.Random(77)
        for d in _all_fields() + [finite_field(2, 13)]:  # F_8192 has no tables
            field = Field(d)
            x = field.random_element(rng)
            if not x:
                x = field.one
            for e in (-1, -2, -5):
                assert d.power(x.payload, e) == (x ** e).payload
                assert FieldElement(d, d.power(x.payload, e)) * x ** -e == field.one
            if d.kind != "prime_field":  # pow(0, -1, p) raises ValueError, as before
                with pytest.raises(DivisionByZero):
                    d.power(d.zero(), -1)


def test_lift_into_function_field():
    base = cyclotomic(4)
    tower = Field(function_field(base, ("s",)))
    i = Field(base).zeta(4)
    lifted = tower.lift(i)
    assert lifted * lifted == tower.from_int(-1)
    with pytest.raises(DescriptorMismatch):
        lifted + i


def test_kth_root_and_power_detection():
    field = Field(rationals())
    assert kth_root(field(Fraction(4, 9)), 2) == field(Fraction(2, 3))
    assert is_kth_power(field(Fraction(4, 9)), 2) is True
    assert is_kth_power(field(3), 2) is False

    f4 = Field(finite_field(2, 2))
    for a in f4.elements():
        r = kth_root(a, 2)
        assert r is not None and r * r == a  # squaring is bijective

    f7 = Field(prime_field(7))
    squares = {a * a for a in f7.elements()}
    assert sum(1 for a in f7.elements() if is_kth_power(a, 2)) == len(squares)


def test_polynomial_kth_roots_match_a_newton_box_scan():
    # every exponent of a k-th root of A is at most deg_{x_i}(A)/k, so a scan
    # of that box decides whether a root exists
    rng = random.Random(77)
    found = refused = 0
    for p, names, k, degree in ((5, ("x",), 2, 2), (5, ("x",), 3, 1), (7, ("x",), 2, 2),
                                (3, ("x", "y"), 2, 1)):
        field = Field(function_field(prime_field(p), names))
        monomials = [field.one]
        for exps in itertools.product(range(degree + 1), repeat=len(names)):
            m = field.one
            for x, e in zip(field.vars(), exps):
                m = m * x ** e
            monomials.append(m)
        for trial in range(12):
            r = field.zero
            while r.is_zero:
                r = sum((field(rng.randrange(p)) * m for m in monomials), field.zero)
            a = r ** k
            if trial % 2:
                a = a + field(rng.randrange(1, p)) * rng.choice(monomials)
            if a.is_zero:
                continue
            roots = kth_roots_in_newton_box(a, k)
            got = kth_root(a, k)
            if roots:
                found += 1
                assert got in roots
            else:
                refused += 1
                assert got is None
    assert found >= 20 and refused >= 10


def test_undecided_powers_raise_one_error():
    z3 = Field(cyclotomic(3))
    w = (z3(2) + z3.generator()) ** 2  # a square, but not of a root of unity times a rational
    with pytest.raises(UndecidedPower):
        kth_root(w, 2)
    assert is_kth_power(w, 2) is None
    over = Field(function_field(cyclotomic(3), ("t",)))
    with pytest.raises(UndecidedPower):
        kth_root(over.lift(w) * over.var("t") ** 2, 2)
    big = Field(finite_field(2, 13))
    with pytest.raises(UndecidedPower):
        kth_root(big.generator(), 3)
    assert is_kth_power(big.generator(), 3) is None


def test_f4096_tables_take_4186_products_and_later_lookups_take_none(monkeypatch):
    # a fresh descriptor, not the interned one, so its whole build is counted
    # once the modulus is known: the search for the base and the walk of its
    # 4094 powers. Once built, logs, products, inverses, powers, roots of
    # unity and k-th roots are lookups that multiply no polynomials
    from aniso import scalars
    modulus_polynomial(2, 12)
    calls, u_mul = [], scalars._u_mul
    monkeypatch.setattr(scalars, "_u_mul", lambda *args: calls.append(args) or u_mul(*args))
    d = _FiniteField(2, 12)
    assert d.root_of_unity_log(d.one()) == 0 and len(calls) == 4186
    calls.clear()
    x, z = d.generator(), d.zeta(4095)
    assert d.root_of_unity_log(z) == Fraction(1, 4095)
    d.root_of_unity_log(x), d.mul(x, z), d.inv(x), d.power(x, 1000), d._kth_root(x, 3)
    assert calls == []
    assert z == zeta_by_scan(d, 4095)


def test_finite_fields_past_the_tables_multiply_polynomials_and_walk_logs():
    # F_8192 and F_6561 keep no tables: products and inverses are the
    # polynomial ones, a discrete log walks the powers of zeta(q - 1), and
    # k-th roots raise
    for d in (finite_field(2, 13), finite_field(3, 8)):
        n = d.size() - 1
        x, z = d.generator(), d.zeta(n)
        assert d._tables is None
        assert d.mul(x, z) == finite_field_mul_by_polynomials(d, x, z)
        assert d.inv(x) == finite_field_inv_by_polynomials(d, x)
        w = d.power(z, 5)
        assert d.root_of_unity_log(w) == Fraction(5, n) == root_of_unity_log_by_scan(d, w)
        with pytest.raises(UndecidedPower):
            d._kth_root(w, 3)


@contextlib.contextmanager
def _ends_within(seconds: int):
    # the failure mode is a run without end, so an alarm at five times the
    # budget stops it rather than hang the suite
    with deadline(5 * seconds):
        start = time.perf_counter()
        yield
        assert time.perf_counter() - start < seconds


def test_zeta_of_a_huge_prime_field_factors_its_order_by_bounded_trial_division():
    # a safe prime near 2^62 and its prime (p - 1) / 2: trial division stops
    # at 2^20 and Miller-Rabin decides the cofactor, so the order's only
    # prime is found at once
    p, order = 4611686018427394499, 2305843009213697249
    with _ends_within(1):
        z = Field(prime_field(p)).zeta(order)
    assert z.payload != 1 and pow(z.payload, order, p) == 1


def test_zeta_refuses_an_order_with_two_prime_factors_past_trial_division():
    rng = random.Random(27)

    def prime_in(lo, hi):
        while True:
            q = rng.randrange(lo, hi)
            if _is_prime(q):
                return q

    q1, q2 = prime_in(1 << 20, 1 << 21), prime_in(1 << 20, 1 << 21)
    p = next(p for p in range(2 * q1 * q2 + 1, 1 << 62, 2 * q1 * q2) if _is_prime(p))
    with _ends_within(1), pytest.raises(FieldTooLarge, match="unfactored"):
        Field(prime_field(p)).zeta(q1 * q2)


def test_cyclotomic_kth_roots_of_unit_times_rational():
    # the scan over roots of unity when phi(n) > 1: x = (zeta * r)^k has a
    # root, and the one found differs from zeta * r by a k-th root of unity
    for n in (3, 4, 5, 8):
        field = Field(cyclotomic(n))
        z = field.generator()
        for k in (2, 3):
            for j in range(2 * n):
                for r in (Fraction(2, 3), Fraction(-5), Fraction(7, 4)):
                    base = (-z if j % 2 else z) ** (j // 2) * field(r)
                    x = base ** k
                    root = kth_root(x, k)
                    assert root is not None and root ** k == x
                    assert root_of_unity_log(root / base) is not None
                    assert is_kth_power(x, k) is True


def test_rational_roots_of_unity_log():
    q = Field(rationals())
    assert root_of_unity_log(q.one) == 0
    assert root_of_unity_log(q(-1)) == Fraction(1, 2)
    for x in (q(2), q(Fraction(1, 2)), q(-2), q.zero):
        assert root_of_unity_log(x) is None
    functions = Field(function_field(rationals(), ("t",)))
    assert root_of_unity_log(functions(-1)) == Fraction(1, 2)
    assert root_of_unity_log(functions.var("t")) is None


def test_finite_field_roots_of_unity_log_matches_a_power_walk():
    # the log base is the first element of order q - 1 in element order
    for descriptor in (prime_field(7), prime_field(11), finite_field(2, 2), finite_field(2, 3),
                       finite_field(3, 2), finite_field(2, 4), finite_field(5, 2)):
        field = Field(descriptor)
        q = field.size()
        generator = next(x for x in field.elements()
                         if not x.is_zero and len({x ** t for t in range(q - 1)}) == q - 1)
        logs, acc = {}, field.one
        for t in range(q - 1):
            logs[acc] = Fraction(t, q - 1)
            acc = acc * generator
        assert len(logs) == q - 1
        for x in field.elements():
            assert root_of_unity_log(x) == logs.get(x)
    with pytest.raises(FieldTooLarge):
        root_of_unity_log(Field(finite_field(2, 17)).generator())
    # past the tables zeta tests orders by powers of polynomials; 2^17 - 1 is
    # prime, so the first element other than 0 and 1 has order 2^17 - 1
    assert finite_field(2, 17).zeta(2 ** 17 - 1) == (0,) * 16 + (1,)


def _finite_fields_upto(q_max: int) -> list:
    fields = []
    for p in _primes_upto(q_max):
        fields.append(prime_field(p))
        fields.extend(finite_field(p, m) for m in range(2, 64) if p ** m <= q_max)
    return fields


def test_finite_field_tables_match_the_polynomial_and_scan_oracles():
    # the log/antilog tables against the polynomial arithmetic and the element
    # scans they replaced, over every F_{p^m} with m >= 2 and q <= 4096, a
    # seeded sample of the prime fields up to 4096 (a scan is O(q), so all
    # 564 would take minutes) and four of them as finite_field(p, 1), with
    # 1-tuple payloads: products, inverses and powers of seeded elements,
    # zeta of every order dividing q - 1, discrete logs and k-th roots for
    # k = 2..6
    rng = random.Random(19)
    fields = _finite_fields_upto(4096)
    primes = [d for d in fields if d.kind == "prime_field"]
    primes = primes[:4] + rng.sample(primes[4:], 12) + primes[-1:]
    fields = [d for d in fields if d.kind == "finite_field"] + primes
    fields += [finite_field(d.p, 1) for d in primes[:4]]
    for d in fields:
        q, one = d.size(), d.one()
        nonzero = [x for x in d.payloads() if not d.is_zero(x)]
        sample = [one, d.neg(one)] + rng.sample(nonzero, min(6, q - 1))

        def mul(x, y):
            return finite_field_mul_by_polynomials(d, x, y)

        for x in sample:
            for y in sample:
                assert d.mul(x, y) == mul(x, y), (d, x, y)
            assert d.mul(x, d.zero()) == d.mul(d.zero(), x) == d.zero()
            assert d.inv(x) == finite_field_inv_by_polynomials(d, x), (d, x)
            e = rng.randrange(3 * q)
            assert d.power(x, e) == binary_power(x, e, one, mul), (d, x, e)
        for order in (k for k in range(1, q) if (q - 1) % k == 0):
            assert d.zeta(order) == zeta_by_scan(d, order), (d, order)
        for x in sample[:3] + [d.zero()]:
            assert d.root_of_unity_log(x) == root_of_unity_log_by_scan(d, x), (d, x)
        for (x, k), root in kth_roots_by_scan(d, sample[:3], range(2, 7)).items():
            assert d._kth_root(x, k) == root, (d, x, k)


def test_artin_schreier_image_f2():
    field = Field(prime_field(2))
    image = artin_schreier_image(field)
    assert image == [field.zero]  # x^2 + x hits only 0 over F_2

    f4 = Field(finite_field(2, 2))
    image4 = artin_schreier_image(f4)
    assert field.zero.payload is not None
    assert len(image4) == 2  # index-2 additive subgroup

    big = Field(finite_field(2, 10))
    with pytest.raises(FieldTooLarge):
        artin_schreier_image(big, max_size=16)


def test_minimal_polynomial_of_constant():
    field = Field(cyclotomic(4))
    i = field.zeta(4)
    mp = minimal_polynomial_of_constant(i)
    assert mp.degree == 1  # x - i over the field containing i
    assert mp.coeffs == (-i, field.one)
    assert mp.separable


def test_random_element_determinism():
    field = Field(function_field(rationals(), ("t",)))
    a = field.random_element(random.Random(99))
    b = field.random_element(random.Random(99))
    assert a == b


def test_finite_field_elements_order_is_stable():
    field = Field(finite_field(3, 2))
    first = list(field.elements())
    second = list(field.elements())
    assert first == second


def test_kth_root_of_huge_integers_is_exact():
    field = Field(rationals())
    big = field(10 ** 400)
    assert kth_root(big, 2) == field(10 ** 200)
    assert kth_root(field(10 ** 400 + 1), 2) is None
    assert kth_root(field(Fraction(3 ** 301, 2 ** 700)), 7) == field(Fraction(3 ** 43, 2 ** 100))
    assert kth_root(field(3 ** 301 + 1), 7) is None
    for k in (2, 3, 5, 11):
        for r in (2, 3, 10 ** 40 + 7, 2 ** 333 - 1):
            assert _int_kth_root(r ** k, k) == r
            assert _int_kth_root(r ** k - 1, k) is None
            assert _int_kth_root(r ** k + 1, k) is None


@pytest.mark.parametrize("descriptor", [
    rationals(), cyclotomic(5), prime_field(7), finite_field(2, 3),
    function_field(prime_field(3), ("x", "y"))])
def test_payload_json_roundtrip_is_exact(descriptor):
    # every field kind: JSON -> element -> JSON reproduces the JSON exactly
    field = Field(descriptor)
    rng = random.Random(23)
    for _ in range(20):
        text = element_to_json(field.random_element(rng))["value"]
        assert element_to_json(element_from_json(text, descriptor))["value"] == text


def test_payload_from_json_rejects_lossy_inputs():
    f4 = finite_field(2, 2)
    assert element_from_json(["1"], f4).payload == (1, 0)  # short lists pad
    with pytest.raises(ScalarError, match="coefficients"):
        element_from_json(["0", "0", "1"], f4)
    rational_functions = function_field(rationals(), ("t",))
    with pytest.raises(DivisionByZero):
        element_from_json({"num": {"1": "1"}, "den": {}}, rational_functions)
    assert element_from_json({"num": {"1": "1"}}, rational_functions) == \
        Field(rational_functions).var("t")
    # JSON floats and booleans would be rounded or read as 0/1: every kind refuses them
    for descriptor, obj in [(rationals(), 0.5), (rationals(), True), (cyclotomic(3), ["1", 2.0]),
                            (prime_field(2), 1.9), (prime_field(2), True), (f4, [False]),
                            (rational_functions, True), (rational_functions, {"num": {"1": 1.5}})]:
        with pytest.raises(TypeError, match="expected an integer or a string"):
            element_from_json(obj, descriptor)


def test_descriptor_and_list_json_refuse_what_int_and_iteration_would_reinterpret():
    # bare int() read a JSON true as 1 and 2.9 as 2; iterating a string read
    # it as a list of one-character coefficients
    for obj in ({"kind": "cyclotomic", "n": True}, {"kind": "cyclotomic", "n": 3.0},
                {"kind": "prime_field", "p": 2.5}, {"kind": "finite_field", "p": 2, "m": 2.9},
                {"kind": "function_field", "base": {"kind": "rationals"}, "variables": "ab"},
                {"kind": "function_field", "base": {"kind": "rationals"}, "variables": ["a", 1]}):
        with pytest.raises(TypeError):
            descriptor_from_json(obj)
    assert descriptor_from_json({"kind": "finite_field", "p": "2", "m": 2}) is finite_field(2, 2)
    q_ab = {"kind": "function_field", "base": {"kind": "rationals"}, "variables": ["a", "b"]}
    assert descriptor_from_json(q_ab) is function_field(rationals(), ("a", "b"))
    for descriptor in (cyclotomic(3), finite_field(2, 3)):
        with pytest.raises(TypeError, match="expected a list"):
            element_from_json("11", descriptor)
        assert element_from_json(["1", "1"], descriptor) == \
            Field(descriptor).one + Field(descriptor).generator()
    # t^-1 rendered as t, and "1" and "01" both naming t with one value lost
    functions = function_field(rationals(), ("t",))
    for poly in ({"-1": "1"}, {"1": "1", "01": "2"}, {"1": "0", "01": "2"}, {"0,1": "1"}):
        with pytest.raises(ScalarError, match="exponent key"):
            element_from_json({"num": poly}, functions)
    assert element_from_json({"num": {"1": "0", "0": "2"}}, functions) == Field(functions)(2)
    from aniso.quadform import QuadraticForm
    form = {"field": {"kind": "prime_field", "p": "3"}, "dim": "2", "coeffs": {"0,0": "1"}}
    assert QuadraticForm.from_json(form).dim == 2
    for dim in (2.0, True):
        with pytest.raises(TypeError):
            QuadraticForm.from_json({**form, "dim": dim})


# strings that are not -?[0-9]+; int() reads the first six as integers
NOT_DECIMAL = ["1_0", " 1", "1 ", "+1", "\uff11", "1\u0661", "--1", "-", "", "0x1", "1e3", "1.0"]


@pytest.mark.parametrize("text", NOT_DECIMAL, ids=repr)
def test_payload_integers_refuse_what_int_would_read(text):
    from aniso.cli import _generic_symbol_spec
    from aniso.csa import AlgebraElement
    from aniso.errors import _exact_int
    from aniso.lattice import IntMatrix
    from aniso.pairing import AlternatingPairing
    from aniso.quadform import QuadraticForm
    from aniso.torus import TorusModel
    f3 = {"kind": "prime_field", "p": "3"}
    minus_one = {"rows": "1", "cols": "1", "entries": [["-1"]]}
    readers = [
        lambda: _exact_int(text),
        lambda: element_from_json({"num": {f"{text},0": "1"}}, function_field(rationals(), "ab")),
        lambda: element_from_json(text, function_field(prime_field(5), "x")),
        lambda: element_from_json(text, prime_field(13)),
        lambda: element_from_json(["1", text], finite_field(2, 2)),
        lambda: descriptor_from_json({"kind": "cyclotomic", "n": text}),
        lambda: IntMatrix.from_json([[text]]),
        lambda: IntMatrix.from_json({**minus_one, "rows": text}),
        lambda: AlgebraElement.from_json(_generic_symbol_spec(2), {f"0,{text}": "1"}),
        lambda: QuadraticForm.from_json({"field": f3, "dim": "2", "coeffs": {f"{text},0": "1"}}),
        lambda: QuadraticForm.from_json({"field": f3, "dim": text, "coeffs": {}}),
        lambda: TorusModel.from_json({"rank": text, "theta_generators": [minus_one]}),
        lambda: AlternatingPairing.from_json({"invariant_factors": [text], "gram": [["0"]]}),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="not a decimal integer"):
            read()


def test_payload_integers_accept_json_ints_and_decimal_strings():
    from aniso.errors import _exact_int
    assert [_exact_int(x) for x in (7, -7, "12", "-12", "007", "-0", str(10 ** 40))] == \
        [7, -7, 12, -12, 7, 0, 10 ** 40]
    for obj in (True, 1.0, None, [1], {"1": 1}):
        with pytest.raises(TypeError, match="expected an integer or a string"):
            _exact_int(obj)


@pytest.mark.parametrize("text", ["1_000", "1e3", " 3/4 ", "+1", "1/0"])
def test_payload_rationals_are_decimal_strings(text):
    # Fraction() read "1_000" and "1e3" as 1000, " 3/4 " as 3/4 and "+1" as
    # 1, and "1/0" raised ZeroDivisionError; each reader now raises ValueError
    from aniso.errors import _exact_fraction
    from aniso.pairing import AlternatingPairing
    readers = [
        lambda: _exact_fraction(text),
        lambda: element_from_json(text, rationals()),
        lambda: element_from_json([text, "0"], cyclotomic(3)),
        lambda: element_from_json({"num": {"1,0": text}}, function_field(rationals(), "ab")),
        lambda: element_from_json({"num": {"0": [text, "1"]}}, function_field(cyclotomic(3), "x")),
        lambda: AlternatingPairing.from_json({"invariant_factors": ["2", "2"],
                                              "gram": [["0", text], ["0", "0"]]}),
    ]
    for read in readers:
        with pytest.raises(ValueError):
            read()


def test_payload_rationals_accept_json_ints_and_decimal_fractions():
    from aniso.errors import _exact_fraction
    assert [_exact_fraction(x) for x in (7, -7, "12", "-3/4", "4/2", "007/010", "-0/5")] == \
        [7, -7, 12, Fraction(-3, 4), 2, Fraction(7, 10), 0]
    for obj in (True, 1.5, None, ["1"], {"1": 1}):
        with pytest.raises(TypeError, match="expected an integer or a string"):
            _exact_fraction(obj)


def test_power_helpers():
    f7 = Field(prime_field(7))
    three = f7(3)
    assert least_power(three, operator.mul, lambda a: a.is_one, 6) == (6, f7.one)
    assert least_power(three, operator.mul, lambda a: a.is_one, 5) is None
    assert least_power(f7(2), operator.mul, lambda a: a == f7(4), 6) == (2, f7(4))
    assert binary_power(three, 0, f7.one, operator.mul) == f7.one
    assert binary_power(three, 13, f7.one, operator.mul) == three ** 13 == f7(3 ** 13)


def _ff_add_generic(d, x, y):
    """Sum of function-field payloads by the general rule n1/d1 + n2/d2."""
    bd = d.base
    n1, d1 = dict(x[0]), dict(x[1])
    n2, d2 = dict(y[0]), dict(y[1])
    num = _p_add(bd, _p_mul(bd, n1, d2), _p_mul(bd, n2, d1))
    return d.normalize(_p_to_tuple(num), _p_to_tuple(_p_mul(bd, d1, d2)))


def _ff_mul_generic(d, x, y):
    """Product of function-field payloads by the general rule n1 n2/(d1 d2)."""
    bd = d.base
    num = _p_mul(bd, dict(x[0]), dict(y[0]))
    den = _p_mul(bd, dict(x[1]), dict(y[1]))
    return d.normalize(_p_to_tuple(num), _p_to_tuple(den))


@pytest.mark.parametrize("descriptor", [
    function_field(rationals(), ("a1", "a2", "a3")),
    function_field(prime_field(5), ("x", "y")),
    function_field(cyclotomic(5), ("a", "b")),
])
def test_function_field_add_mul_match_generic_rule(descriptor):
    rng = random.Random(41)
    field = Field(descriptor)
    elements = [field.zero, field.one, -field.one]
    elements += [field.random_element(rng, terms=3) for _ in range(14)]
    assert any(e.payload[1] != field.one.payload[1] for e in elements)
    assert sum(e.is_zero for e in elements) >= 1
    for x in elements:
        for y in elements:
            assert descriptor.add(x.payload, y.payload) == \
                _ff_add_generic(descriptor, x.payload, y.payload)
            assert descriptor.mul(x.payload, y.payload) == \
                _ff_mul_generic(descriptor, x.payload, y.payload)
    assert field.zero.payload == ((), field.one.payload[1])


DOT_FIELDS = ([rationals()] + [cyclotomic(n) for n in (1, 3, 4, 5, 7, 9)]
              + [prime_field(2), prime_field(7), finite_field(2, 4), finite_field(3, 2),
                 finite_field(2, 13)]
              + [function_field(bd, ("a", "b"))
                 for bd in (rationals(), cyclotomic(5), prime_field(5))])


@pytest.mark.parametrize("d", DOT_FIELDS, ids=repr)
def test_dot_matches_the_add_mul_fold(d):
    # payload for payload, and repr too, so an int and an equal Fraction
    # differ: the empty list, one pair, sums that cancel to zero, and seeded
    # lists; in characteristic 0 with denominators (F_2^13 is past the tables)
    rng = random.Random(2024)
    field = Field(d)
    xs = [d.zero(), d.one()] + [field.random_element(rng, terms=3).payload
                                for _ in range(8)]
    if not d.characteristic:
        xs += [d.div(x, d.from_int(rng.randint(2, 12))) for x in xs[2:7]]
        if d.kind == "rationals":
            assert {type(x) for x in xs} == {int, Fraction}
        half = d.inv(d.from_int(2))
        assert d.dot([(half, d.one()), (d.one(), half)]) == d.one()
    cases = [[], [(xs[2], xs[3])], [(xs[0], xs[4])]]
    for x, y in zip(xs[2:], xs[3:]):
        cases += [[(x, y), (d.neg(x), y)], [(x, y), (d.one(), d.neg(d.mul(x, y)))]]
    pool = xs
    if d.kind == "function_field":
        # a sum over several distinct denominators runs multivariate gcds
        # for seconds, so a seeded list holds at most one of them
        unit = d.one()[1]
        pool = [x for x in xs if x[1] == unit]
        other = [x for x in xs if x[1] != unit]
        assert len(pool) > 4 and other
        for _ in range(20):
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 4))]
            pairs.insert(rng.randint(0, len(pairs)), (rng.choice(other), rng.choice(pool)))
            cases.append(pairs)
    cases += [[(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(2, 6))]
              for _ in range(30)]
    for pairs in cases:
        got, want = d.dot(pairs), dot_by_fold(d, pairs)
        assert got == want and repr(got) == repr(want), pairs
    assert repr(d.dot([])) == repr(d.zero())
    for pairs in cases[3:3 + 2 * (len(xs) - 3)]:
        assert repr(d.dot(pairs)) == repr(d.zero())


def test_bare_rational_constants_read_over_function_fields():
    # a bare string or integer is a constant: in characteristic 0 any
    # decimal rational, as the base reads it; in characteristic p an
    # integer, as F_p reads it
    for bd, wrap in ((rationals(), str), (cyclotomic(3), lambda t: [t])):
        d = function_field(bd, ("a",))
        for text in ("1/2", "-3/4", "6/3", "0/5", "-7", 5, "007"):
            spelled = element_from_json({"num": {"0": wrap(str(text))}}, d)
            assert element_from_json(text, d) == spelled
            assert repr(element_from_json(text, d)) == repr(spelled)
        assert element_from_json("1/2", d) * 2 == Field(d).one
        for text in ("1/0", "1_0", " 1/2", "1/-2", "1/2/3", "+1", "x", "1.5", ""):
            with pytest.raises(ValueError):
                element_from_json(text, d)
    d = function_field(prime_field(5), ("a",))
    assert repr(element_from_json("8", d)) == "3"
    for text in ("1/2", "1_0", "x"):
        with pytest.raises(ValueError, match="not a decimal integer"):
            element_from_json(text, d)


KERNEL_BASES = [rationals(), cyclotomic(3), cyclotomic(5), prime_field(7), finite_field(2, 2)]


def _kernel_operands(descriptor, rng):
    """Payloads of the function field: zero and one, random elements with unit
    and non-unit denominators, one-term numerators over both kinds of
    denominator, each operand's negative, and partners y with x + y a
    monomial, so that whole runs of terms cancel."""
    field, bd = Field(descriptor), descriptor.base
    nv = len(descriptor.variables)
    unit = field.one.payload[1]

    def monomial():
        e = tuple(rng.randint(0, 2) for _ in range(nv))
        return ((e, Field(bd).random_element(rng, nonzero=True).payload),)

    xs = [field.zero.payload, field.one.payload]
    # degree 1 in three variables: a sum over two denominators takes a
    # multivariate gcd, which over Q(z5)(v0, v1, v2) runs for seconds at degree 2
    degree = 2 if nv < 3 else 1
    xs += [field.random_element(rng, degree=degree, terms=3).payload for _ in range(5)]
    xs += [(monomial(), unit) for _ in range(3)]
    # v0 + c, with c a nonzero constant, and the denominators drawn above
    den = {(1,) + (0,) * (nv - 1): bd.one(),
           (0,) * nv: Field(bd).random_element(rng, nonzero=True).payload}
    xs.append(descriptor.normalize(xs[2][0] or (((0,) * nv, bd.one()),), _p_to_tuple(den)))
    dens = [x[1] for x in xs if x[1] != unit]
    xs += [descriptor.normalize(monomial(), d) for d in dens[-2:]]
    xs += [descriptor.neg(x) for x in xs[2:6]]
    xs += [function_field_add_by_dicts(descriptor, (monomial(), unit), descriptor.neg(x))
           for x in xs[2:5]]
    if descriptor.characteristic:
        # p copies of x sum to zero: one more addition after p - 1
        x = xs[3]
        acc = x
        for _ in range(descriptor.characteristic - 2):
            acc = function_field_add_by_dicts(descriptor, acc, x)
        xs.append(acc)
    return xs


@pytest.mark.parametrize("nv", [1, 2, 3])
@pytest.mark.parametrize("base", KERNEL_BASES, ids=repr)
def test_stored_tuple_kernels_match_dict_oracles(base, nv):
    descriptor = function_field(base, [f"v{i}" for i in range(nv)])
    rng = random.Random(1300 + 10 * KERNEL_BASES.index(base) + nv)
    xs = _kernel_operands(descriptor, rng)
    unit = descriptor.one()[1]
    assert any(x[1] != unit for x in xs) and any(len(x[0]) == 1 for x in xs)
    zeros = 0
    for x in xs:
        for y in xs:
            for kernel, oracle in ((descriptor.add, function_field_add_by_dicts),
                                   (descriptor.mul, function_field_mul_by_dicts)):
                got, want = kernel(x, y), oracle(descriptor, x, y)
                assert got == want
                assert descriptor.render(got) == descriptor.render(want)
                assert got[0] == tuple(sorted(got[0], reverse=True))
                assert all(not base.is_zero(c) for _, c in got[0])
                zeros += kernel == descriptor.add and not got[0]
    # each operand against its negative, at least, and char p's p-fold sums
    assert zeros >= 4 + bool(descriptor.characteristic)
    # _t_dot on the raw numerators and denominators against a sum of dict
    # products: seeded lists of 1-5 pairs, one-term factors among them, and
    # each A B beside (-A) B, which cancels to ()
    polys = list(dict.fromkeys(p for x in xs for p in x if p))
    cases = [[(A, B), (_t_neg(base, A), B)] for A, B in zip(polys, polys[1:])]
    cases += [[(rng.choice(polys), rng.choice(polys)) for _ in range(rng.randint(1, 5))]
              for _ in range(40)]
    assert {len(pairs) for pairs in cases} == {1, 2, 3, 4, 5}
    assert any(len(A) == 1 and len(B) > 1 for pairs in cases[len(polys) - 1:] for A, B in pairs)
    for pairs in cases:
        want = {}
        for A, B in pairs:
            want = _p_add(base, want, _p_mul(base, dict(A), dict(B)))
        assert _t_dot(base, pairs) == _p_to_tuple(want), pairs
    assert all(_t_dot(base, pairs) == () for pairs in cases[:len(polys) - 1])


SWEEP_FIELDS = [
    (function_field(rationals(), ("a1", "a2", "a3")), 2),
    (function_field(prime_field(5), ("x", "y")), 2),
    (function_field(prime_field(3), ("X", "Y")), 2),
    (function_field(finite_field(2, 2), ("x", "y")), 2),
    (function_field(cyclotomic(5), ("a", "b")), 2),
    (function_field(cyclotomic(3), ("v0", "v1", "v2")), 1),
    (function_field(function_field(rationals(), ("a",)), ("b", "c")), 1),
]


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ScalarError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("descriptor,degree", SWEEP_FIELDS, ids=lambda d: repr(d))
def test_tuple_normalize_and_kth_roots_match_dict_oracles(descriptor, degree):
    from aniso.scalars import _poly_kth_root, _t_exact_div
    from oracles import _p_exact_div, kth_root_by_dicts, normalize_by_dicts
    field, bd = Field(descriptor), descriptor.base
    nv, p = len(descriptor.variables), descriptor.characteristic
    rng = random.Random(1800 + SWEEP_FIELDS.index((descriptor, degree)))

    def poly(nonzero=True):
        return field.random_element(rng, degree=degree, terms=3, nonzero=nonzero).payload[0]

    def oracle_normalize(num, den):
        return normalize_by_dicts(descriptor, dict(num), dict(den))

    # products over a shared factor whose denominators are not monomials
    cases = [(poly(False), ()), ((), poly())]
    for _ in range(12):
        a, b, c = poly(), poly(), poly()
        cases += [(_t_mul(bd, a, c), _t_mul(bd, b, c)), (a, b), (c, _t_mul(bd, c, c))]
    assert sum(len(den) > 1 for _, den in cases) >= 12
    for num, den in cases:
        assert _outcome(descriptor.normalize, num, den) == _outcome(oracle_normalize, num, den)

    def oracle_root(A, k):
        root = kth_root_by_dicts(bd, dict(A), k, nv, p)
        return root if root is None else _p_to_tuple(root)

    # powers, which have a root, and powers plus a term, which may not; a
    # monic polynomial has a leading coefficient with a root in every base
    seen = set()
    for k in sorted({2, 3} | ({p, 2 * p} if p else set())):
        for a in (poly(), _t_monic(bd, poly()), _t_monic(bd, poly())):
            power = binary_power(a, k, descriptor.one()[0], lambda x, y: _t_mul(bd, x, y))
            for A in (power, _t_add(bd, power, a), a):
                got = _outcome(_poly_kth_root, bd, A, k)
                assert got == _outcome(oracle_root, A, k)
                raised = got is not None and got[:1] and isinstance(got[0], type)
                seen.add("none" if got is None else "raised" if raised else "root")
    assert seen >= {"root", "none"}
    if descriptor.base == cyclotomic(5):
        assert "raised" in seen  # UndecidedPower for coefficients beyond roots of unity

    one_more = _t_add(bd, poly(), descriptor.one()[0])
    shifted = _t_mul(bd, one_more, field.vars()[0].payload[0])
    not_exact = (ArithmeticError, "polynomial division not exact")
    assert _outcome(_t_exact_div, bd, one_more, shifted) == not_exact
    assert _outcome(_p_exact_div, bd, dict(one_more), dict(shifted)) == not_exact


FINGERPRINT_FIELDS = (
    rationals(),
    cyclotomic(3),
    cyclotomic(5),
    cyclotomic(12),
    prime_field(2),
    prime_field(7),
    finite_field(2, 2),
    finite_field(3, 2),
    function_field(rationals(), ("a1", "a2", "a3")),
    function_field(cyclotomic(3), ("a", "b")),
    function_field(cyclotomic(5), ("a",)),
    function_field(prime_field(7), ("x", "y")),
    function_field(finite_field(2, 2), ("x", "y", "z")),
    function_field(prime_field(2), ("s",)),
)
# sha256 of _scalar_fingerprint_text(), taken before function-field sums and
# products ran on stored tuples; any change to a rendered or JSON byte moves it
SCALAR_FINGERPRINT = "05c170e998922ebc12e74e0820adc40d327c21e36f1c13d78d8d55c9a4e875f8"


def _scalar_fingerprint_text(steps=60) -> str:
    """A seeded stream of sums, differences, products, inverses and element
    JSON over every field kind, one rendered line per step. Every tenth step
    feeds a sum or product back into the operand pool."""
    lines = []
    for index, d in enumerate(FINGERPRINT_FIELDS):
        field, rng = Field(d), random.Random(1300 + index)
        pool = [field.zero, field.one, -field.one]
        pool += [field.random_element(rng, terms=3) for _ in range(9)]
        if d.kind == "function_field":
            pool.append(field.vars()[0])
        elif d.kind in ("cyclotomic", "finite_field"):
            pool.append(field.generator())
        for step in range(steps):
            x, y = rng.choice(pool), rng.choice(pool)
            s, p = x + y, x * y
            row = [repr(d), repr(s), repr(p), repr(x - y),
                   json.dumps(element_to_json(p), sort_keys=True)]
            if not y.is_zero:
                row.append(repr(y.inverse()))
            lines.append(" | ".join(row))
            if step % 10 == 9:
                pool[rng.randrange(3, len(pool))] = s if rng.random() < 0.5 else p
    return "\n".join(lines) + "\n"


def test_scalar_output_fingerprint():
    start = time.perf_counter()
    text = _scalar_fingerprint_text()
    assert hashlib.sha256(text.encode()).hexdigest() == SCALAR_FINGERPRINT
    assert time.perf_counter() - start < 2


def _fraction_coefficients(x):
    """The function-field payload x with every coefficient a Fraction."""
    return tuple(tuple((e, Fraction(c)) for e, c in poly) for poly in x)


def _coefficients(x):
    return [c for poly in x for _, c in poly]


def _is_canonical_coefficient(c):
    """An int when integral, a reduced non-integral Fraction otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_integral_coefficient_ops_match_fraction_ops():
    # the same kernels over the Fraction-only twin of Q: the payloads and
    # their text agree, the Fraction twin makes only Fractions
    d = function_field(rationals(), ("a1", "a2", "a3"))
    twin = _FunctionField(FractionOnlyQ(), d.variables)
    rng = random.Random(1616)
    pool = [d.random_payload(rng, 5, 2, 2) for _ in range(14)]
    pool += [d.one(), d.from_int(-3), Field(d)(Fraction(5, 2)).payload]
    assert any(x[1] != d.one()[1] for x in pool)
    assert any(type(c) is Fraction for x in pool for c in _coefficients(x))
    for x in pool:
        assert all(_is_canonical_coefficient(c) for c in _coefficients(x))

    def agree(got, want):
        assert got == want and d.render(got) == twin.render(want)
        assert all(_is_canonical_coefficient(c) for c in _coefficients(got))
        assert all(type(c) is Fraction for c in _coefficients(want))

    for x, y in itertools.product(pool[:9], pool[5:]):
        fx, fy = _fraction_coefficients(x), _fraction_coefficients(y)
        agree(d.add(x, y), twin.add(fx, fy))
        agree(d.sub(x, y), twin.sub(fx, fy))
        agree(d.mul(x, y), twin.mul(fx, fy))
        if not d.is_zero(y):
            agree(d.inv(y), twin.inv(fy))
            agree(d.normalize(x[0], y[0]), twin.normalize(fx[0], fy[0]))


def test_integral_coefficients_and_q_payloads_are_canonical():
    d = function_field(rationals(), ("a1", "a2"))
    F, q = Field(d), Field(rationals())
    a1, a2 = F.vars()
    rng = random.Random(7)
    made = [F.zero, F.one, F.from_int(6), F(4), F(Fraction(6, 3)), F(Fraction(3, 2)),
            a1, F.lift(q(5)), F.lift(q(Fraction(1, 3))), F.zeta(2),
            element_from_json(element_to_json((a1 + 2) / (a2 - 1)), d),
            element_from_json({"num": {"1,0": "4/2", "0,0": "1/2"}}, d),
            F.random_element(rng), F.random_element(rng, terms=3)]
    made += [x * y for x in made[5:9] for y in made[9:]]
    made += [x + y for x in made[5:9] for y in made[9:]]
    made += [(a1 * 2 + 4) ** 3, (a1 + a2) ** -2, made[5] / made[6], -made[10],
             kth_root((a1 + 2) ** 2 * 9, 2), kth_root(F(Fraction(9, 4)) * a2 ** 4, 2)]
    for x in made:
        assert x.descriptor is d
        assert all(_is_canonical_coefficient(c) for c in _coefficients(x.payload)), x
    assert any(type(c) is int for x in made for c in _coefficients(x.payload))
    qs = [q.zero, q.one, q.from_int(3), q(4), q(Fraction(4, 2)), q(2) * q(3), q(3) + q(1),
          q(2).inverse(), q.zeta(2), element_from_json("4", rationals()),
          q.random_element(rng), kth_root(q(9), 2), q(Fraction(1, 3)) * 3]
    assert all(_is_canonical_coefficient(x.payload) for x in qs), qs
    assert any(type(x.payload) is int for x in qs)


def test_rational_inverses_are_never_floats():
    # 1 / x on an int payload would be a float; Fraction(-5) is not canonical
    for x in (3, -1, 1, Fraction(2, 3), Fraction(-5)):
        r = FieldElement(rationals(), x).inverse().payload
        assert _is_canonical_coefficient(r) and not isinstance(r, float) and r * x == 1


def test_q_payloads_are_canonical_and_match_the_fraction_only_oracle():
    # every way into Q and every operation on it, against the twin whose
    # payloads are all Fractions: equal values, equal text, canonical payloads
    q, twin = Field(rationals()), Field(FractionOnlyQ())
    checked = 0

    def agree(got, want):
        nonlocal checked
        checked += 1
        if want is None:
            assert got is None
            return
        assert _is_canonical_coefficient(got.payload), got.payload
        assert type(want.payload) is Fraction
        assert got.payload == want.payload and repr(got) == repr(want)
        assert element_to_json(got)["value"] == element_to_json(want)["value"]

    pool = [(q.from_int(k), twin.from_int(k)) for k in (-3, 0, 1, 6)]
    pool += [(q(v), twin(v)) for v in (5, -7, True, False, Fraction(6, 3),
                                       Fraction(-3, 4), Fraction(0), Fraction(9, 4))]
    pool += [(element_from_json(o, rationals()), element_from_json(o, twin.descriptor))
             for o in ("4/2", "-3/6", "7", 12, "0/5", "-8/27")]
    rng, twin_rng = random.Random(2323), random.Random(2323)
    pool += [(q.random_element(rng, height=h), twin.random_element(twin_rng, height=h))
             for h in (1, 2, 3, 9) for _ in range(4)]
    assert rng.random() == twin_rng.random()  # the same draws in the same order
    for x, y in pool:
        agree(x, y)
    for (x, tx), (y, ty) in itertools.product(pool[::2], pool[1::3]):
        agree(x + y, tx + ty)
        agree(x - y, tx - ty)
        agree(x * y, tx * ty)
        if not y.is_zero:
            agree(x / y, tx / ty)
    for x, tx in pool:
        for v in (2, -1, Fraction(3, 2), Fraction(-4, 2)):
            agree(x + v, tx + v)
            agree(v - x, v - tx)
            agree(x * v, tx * v)
            agree(x / v, tx / v)
        for e in (0, 1, 2, 3):
            agree(x ** e, tx ** e)
        for k in (1, 2, 3):
            agree(kth_root(x, k), kth_root(tx, k))
            agree(kth_root(x ** k, k), kth_root(tx ** k, k))
        if not x.is_zero:
            agree(x.inverse(), tx.inverse())
            agree(x ** -2, tx ** -2)
            agree(1 / x, 1 / tx)
    assert checked > 1500


def test_booleans_coerce_to_int_payloads():
    for F in (Field(rationals()), Field(function_field(rationals(), ("a",)))):
        assert repr(F(True)) == "1" and repr(F(False)) == "0"
        assert repr(F.from_int(True)) == "1"
        assert F(True) == F.one and F(False) == F.zero
    assert type(Field(rationals())(True).payload) is int
    (_, c), = Field(function_field(rationals(), ("a",)))(True).payload[0]
    assert type(c) is int


def test_equal_descriptors_built_apart_hash_and_compare_equal():
    f5x = _FunctionField(_PrimeField(5, 1), ("x",))
    # (built directly, interned, the tuple of fields whose hash it keeps)
    cases = [(_Rationals(), rationals(), ()),
             (_Cyclotomic(5), cyclotomic(5), (5,)),
             (_PrimeField(7, 1), prime_field(7), (7, 1)),
             (_FiniteField(2, 3), finite_field(2, 3), (2, 3)),
             (_FunctionField(_Cyclotomic(3), ("a", "b")), function_field(cyclotomic(3), ["a", "b"]),
              (cyclotomic(3), ("a", "b"))),
             (_FunctionField(f5x, ("y",)), function_field(function_field(prime_field(5), ("x",)),
                                                          ("y",)), (f5x, ("y",)))]
    for built, interned, fields in cases:
        assert built is not interned
        for _ in range(2):  # the second hash reads the cached value
            assert built == interned and hash(built) == hash(interned) == hash(fields)
        assert FieldElement(built, interned.one()) == FieldElement(interned, interned.one())
        assert len({FieldElement(built, built.one()), FieldElement(interned, interned.one())}) == 1
    assert cyclotomic(5) != _Cyclotomic(7) and prime_field(7) != finite_field(7, 2)
    assert function_field(rationals(), ("a",)) != function_field(rationals(), ("b",))


def _is_prime_by_trial_division(n):
    """Oracle: trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if _is_prime(n)] == \
        [n for n in range(200_000) if _is_prime_by_trial_division(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the first 1, 4, 9 and 12 prime bases
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n), n
    for n in (2 ** 31 - 1, 2 ** 61 - 1, 1_000_000_007):
        assert _is_prime(n), n
    assert not _is_prime((2 ** 31 - 1) * 1_000_000_007)
    # psi_13, the first strong pseudoprime to the first 13 prime bases
    with pytest.raises(FieldTooLarge):
        _is_prime(3317044064679887385961981)
    with pytest.raises(FieldTooLarge):
        prime_field(3317044064679887385961981 + 2)


# ---------------------------------------------------------------------------
# the three univariate Euclids that _u_divmod, _u_gcd and _u_inverse
# replaced, kept as oracles

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
    """Oracle: the Q(zeta_n) inverse by extended Euclid over Fractions."""
    if not any(x):
        raise DivisionByZero("cyclotomic inverse of zero")
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
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
    return cy_reduce(n, [ci * c for ci in s0])


def _gf_inv(x, p, m):
    """Oracle: the F_{p^m} inverse by extended Euclid over F_p, with its
    own division loop."""
    if not any(x):
        raise DivisionByZero("finite field inverse of zero")
    f = list(modulus_polynomial(p, m))
    r0, r1 = f, _fp_trim(list(x))
    s0, s1 = [], [1]
    while r1:
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


def uni_trim(coeffs):
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def uni_divmod(a, b):
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


def uni_gcd(a, b):
    """Oracle: the monic gcd of two lists of FieldElements."""
    a, b = uni_trim(list(a)), uni_trim(list(b))
    while b:
        a, b = b, uni_divmod(a, b)[1]
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3)])
def test_finite_field_inverse_matches_old_euclid(p, m):
    d = finite_field(p, m)
    f = modulus_polynomial(p, m)
    for x in d.payloads():
        if not any(x):
            continue
        expected = _gf_inv(x, p, m)
        s = _u_inverse(prime_field(p), x, f)
        assert len(s) < len(f) and tuple(s + [0] * (m - len(s))) == expected, x
        assert d.inv(x) == expected
        assert d.mul(x, expected) == d.one()


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 12])
def test_cyclotomic_inverse_matches_old_euclid(n):
    d = cyclotomic(n)
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    rng = random.Random(300 + n)
    field = Field(d)
    elements = [field.random_element(rng, nonzero=True) for _ in range(25)]
    elements += [field.generator(), field.one, field.from_int(-3)]
    for e in elements:
        x = tuple(c / rng.randint(1, 6) for c in d.fractions(e.payload))
        expected = _cy_inv(n, x)
        assert cy_reduce(n, _u_inverse(rationals(), x, phi)) == expected, x
        px = d.payload_from_json([str(c) for c in x])
        assert d.fractions(d.inv(px)) == expected
        assert d.mul(px, d.inv(px)) == d.one()


@pytest.mark.parametrize("descriptor", [rationals(), prime_field(5), finite_field(2, 3),
                                        cyclotomic(3), function_field(prime_field(3), ("t",))])
def test_u_gcd_matches_old_euclid(descriptor):
    field = Field(descriptor)
    rng = random.Random(17)

    def poly(degree):
        return [field.random_element(rng) for _ in range(degree)] + \
            [field.random_element(rng, nonzero=True)]

    for _ in range(12):
        common = poly(rng.randint(0, 2))
        a = _times(poly(rng.randint(0, 3)), common, field)
        b = _times(poly(rng.randint(0, 3)), common, field)
        expected = uni_gcd(a, b)
        got = _u_gcd(descriptor, [c.payload for c in a], [c.payload for c in b])
        assert got == [c.payload for c in expected]
        assert len(got) >= len(common)
    assert _u_gcd(descriptor, [], []) == []


def _times(a, b, field):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out
