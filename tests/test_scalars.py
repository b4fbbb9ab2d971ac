import operator
import random
from fractions import Fraction

import pytest

from aniso.scalars import (DescriptorMismatch, DivisionByZero, Field,
                           FieldTooLarge, RootOfUnityMissing, ScalarError,
                           _cy_mul, _cy_reduce, _ff_add, _ff_mul, _ff_normalize,
                           _int_kth_root, _p_add, _p_from_tuple, _p_mul,
                           artin_schreier_image, binary_power,
                           cyclotomic, cyclotomic_polynomial,
                           descriptor_from_json, descriptor_to_json,
                           element_from_json, element_to_json, finite_field,
                           function_field, is_kth_power, kth_root,
                           least_power, minimal_polynomial_of_constant,
                           prime_field, rationals, root_of_unity_log)


ALL_FIELDS = [
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
    return _ff_normalize(d, num, _p_mul(bd, d1, d2))


def _ff_mul_generic(d, x, y):
    """Product of function-field payloads by the general rule n1 n2/(d1 d2)."""
    bd = d.base
    num = _p_mul(bd, _p_from_tuple(x[0]), _p_from_tuple(y[0]))
    den = _p_mul(bd, _p_from_tuple(x[1]), _p_from_tuple(y[1]))
    return _ff_normalize(d, num, den)


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
            assert _ff_add(descriptor, x.payload, y.payload) == \
                _ff_add_generic(descriptor, x.payload, y.payload)
            assert _ff_mul(descriptor, x.payload, y.payload) == \
                _ff_mul_generic(descriptor, x.payload, y.payload)
    assert field.zero.payload == ((), field.one.payload[1])
