import itertools
import operator
import random
import signal
import time
from fractions import Fraction

import pytest

from aniso.scalars import (DescriptorMismatch, DivisionByZero, Field,
                           FieldTooLarge, RootOfUnityMissing, ScalarError,
                           _Cyclotomic, _FiniteField, _FunctionField,
                           _PrimeField, _Rationals,
                           _cy_mul, _cy_reduce, _fp_trim,
                           _int_kth_root, _is_prime, _p_add, _p_from_tuple,
                           _p_mul, _u_gcd, _u_inverse, modulus_polynomial,
                           binary_power,
                           cyclotomic, cyclotomic_polynomial,
                           descriptor_from_json, descriptor_to_json,
                           element_from_json, element_to_json, finite_field,
                           function_field, is_kth_power, kth_root,
                           least_power, minimal_polynomial_of_constant,
                           prime_field, rationals, root_of_unity_log)
from oracles import artin_schreier_image


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
    return _cy_reduce(n, out)


def test_cyclotomic_product_matches_fraction_reference():
    rng = random.Random(13)
    for n in (1, 3, 4, 5, 7, 9, 12):
        d = len(cyclotomic_polynomial(n)) - 1
        for _ in range(40):
            x, y = (tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                          if rng.random() < 0.8 else Fraction(0) for _ in range(d))
                    for _ in range(2))
            assert _cy_mul(n, x, y) == _cy_mul_by_fractions(n, x, y), (n, x, y)


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

    def give_up(signum, frame):
        raise TimeoutError("squaring did not finish in 10 s")

    # the failure mode is a run without end, so stop it rather than hang the suite
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        square = x * x
        assert time.perf_counter() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert square / x == x


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
    n1, d1 = _p_from_tuple(x[0]), _p_from_tuple(x[1])
    n2, d2 = _p_from_tuple(y[0]), _p_from_tuple(y[1])
    num = _p_add(bd, _p_mul(bd, n1, d2), _p_mul(bd, n2, d1))
    return d.normalize(num, _p_mul(bd, d1, d2))


def _ff_mul_generic(d, x, y):
    """Product of function-field payloads by the general rule n1 n2/(d1 d2)."""
    bd = d.base
    num = _p_mul(bd, _p_from_tuple(x[0]), _p_from_tuple(y[0]))
    den = _p_mul(bd, _p_from_tuple(x[1]), _p_from_tuple(y[1]))
    return d.normalize(num, den)


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
    return _cy_reduce(n, [ci * c for ci in s0])


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
        x = tuple(c / rng.randint(1, 6) for c in e.payload)
        expected = _cy_inv(n, x)
        assert _cy_reduce(n, _u_inverse(rationals(), x, phi)) == expected, x
        assert d.inv(x) == expected
        assert d.mul(x, expected) == d.one()


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
