import itertools
import random
from fractions import Fraction

import pytest

from aniso.csa import (AlgebraElement, AlgebraError, NotInvertible,
                       PrimeTooLarge, SpecMismatch, SymbolAlgebraSpec,
                       WeylModPSpec, ZeroPolynomial, algebra_inverse,
                       distinct_irreducible_family,
                       finite_order_in_projective_units,
                       heisenberg_subgroup_elements,
                       inseparable_torsion_subgroup, norm_residue_class,
                       norm_residue_injectivity_check, reduced_norm,
                       separability_check, weyl_split_verification)
from aniso.pairing import commutator_pairing_from_central_extension, is_perfect
from aniso.scalars import (Field, _fp_is_irreducible, cyclotomic, function_field,
                           rationals)


def generic_symbol(n):
    base = function_field(cyclotomic(n), ("a", "b"))
    field = Field(base)
    return SymbolAlgebraSpec(base, n, field.var("a"), field.var("b"))


def rational_quaternions():
    # u^2 = -1, v^2 = -1, vu = -uv: Hamilton's quaternions over Q
    base = rationals()
    field = Field(base)
    return SymbolAlgebraSpec(base, 2, field(-1), field(-1))


def test_quaternion_relations():
    spec = rational_quaternions()
    u, v = spec.u, spec.v
    assert u * u == spec.scalar(-1)
    assert v * v == spec.scalar(-1)
    assert v * u == spec.scalar(-1) * (u * v)


def test_quaternion_norm_is_sum_of_four_squares():
    spec = rational_quaternions()
    rng = random.Random(2)
    for _ in range(20):
        cs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
              for _ in range(4)]
        x = (spec.scalar(cs[0]) + spec.scalar(cs[1]) * spec.u
             + spec.scalar(cs[2]) * spec.v + spec.scalar(cs[3]) * spec.u * spec.v)
        expected = sum(c * c for c in cs)
        assert reduced_norm(x) == spec.field(expected)


def test_norm_multiplicative_random():
    for n in (2, 3):
        spec = generic_symbol(n)
        rng = random.Random(n)
        for _ in range(4):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            assert reduced_norm(x * y) == reduced_norm(x) * reduced_norm(y)


def random_element(spec, rng):
    n = spec.degree
    coeffs = {}
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        coeffs[(i, j)] = spec.field.from_int(rng.randrange(1, 5))
    return AlgebraElement(spec, coeffs)


def test_norm_of_scalar_is_power():
    spec = generic_symbol(3)
    c = spec.field.from_int(5)
    assert reduced_norm(spec.scalar(c)) == c ** 3


def test_norm_of_generators():
    spec = generic_symbol(3)
    assert reduced_norm(spec.u) == spec.a
    assert reduced_norm(spec.v) == spec.b


def test_inverse_random():
    for make in (rational_quaternions, lambda: generic_symbol(3)):
        spec = make()
        rng = random.Random(17)
        for _ in range(5):
            x = random_element(spec, rng)
            if reduced_norm(x).is_zero:
                continue
            inv = algebra_inverse(x)
            assert x * inv == spec.one
            assert inv * x == spec.one


def test_inverse_of_zero_raises():
    spec = rational_quaternions()
    with pytest.raises(NotInvertible):
        algebra_inverse(spec.zero)


def test_associativity_fuzz():
    for make in (rational_quaternions, lambda: generic_symbol(3)):
        spec = make()
        rng = random.Random(23)
        for _ in range(6):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            z = random_element(spec, rng)
            assert (x * y) * z == x * (y * z)


def test_projective_orders_in_symbol_algebra():
    spec = generic_symbol(3)
    u_report = finite_order_in_projective_units(spec.u)
    assert u_report.is_torsion and u_report.order == 3
    assert u_report.scalar_value == spec.a
    assert u_report.divides_degree
    one_report = finite_order_in_projective_units(spec.one)
    assert one_report.order == 1


def test_uv_order_in_quaternions():
    spec = rational_quaternions()
    report = finite_order_in_projective_units(spec.u * spec.v)
    assert report.order == 2
    assert report.scalar_value == spec.field(-1)  # (uv)^2 = -ab with a=b=-1


def test_norm_residue_classes_separate_heisenberg():
    spec = generic_symbol(2)
    transversal = heisenberg_subgroup_elements(spec)
    assert len(transversal) == 4
    assert norm_residue_injectivity_check(transversal)


def test_norm_residue_class_triviality():
    spec = generic_symbol(2)
    square = spec.scalar(spec.field.from_int(4))
    assert norm_residue_class(square).is_trivial() is True
    assert norm_residue_class(spec.u).is_trivial() is False


def test_heisenberg_commutator_pairing_perfect():
    spec = generic_symbol(3)
    result = commutator_pairing_from_central_extension(
        [spec.u, spec.v],
        mul=lambda x, y: x * y,
        inv=algebra_inverse,
        scalar_part=lambda x: x.scalar_part())
    assert result.generator_orders == (3, 3)
    assert result.pairing.group.invariant_factors == (3, 3)
    assert is_perfect(result.pairing)
    assert result.pairing.value((1, 0), (0, 1)) in (Fraction(1, 3),
                                                    Fraction(2, 3))


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        rational_quaternions().u * generic_symbol(2).v


def test_weyl_split_certificates():
    for p in (2, 3, 5):
        cert = weyl_split_verification(WeylModPSpec(p))
        assert cert.ok
        # u acts as multiplication by z: strictly lower triangular shift
        # plus the scalar Y on the diagonal
        u = cert.u_matrix
        one = Field(u[0][0].descriptor).one
        for i in range(p):
            for j in range(p):
                if i == j + 1:
                    assert u[i][j] == one
                elif j > i:
                    assert u[i][j].is_zero
    with pytest.raises(PrimeTooLarge):
        weyl_split_verification(WeylModPSpec(11))


def test_weyl_spec_validates_prime():
    with pytest.raises(AlgebraError):
        WeylModPSpec(4)


def test_inseparable_torsion_ranks():
    spec = WeylModPSpec(2)
    v = spec.v
    one = spec.one
    assert inseparable_torsion_subgroup(spec, [v, v + one]).rank == 2
    assert inseparable_torsion_subgroup(spec, [v]).rank == 1

    spec3 = WeylModPSpec(3)
    v3 = spec3.v
    # v^3 = x is scalar, so [v^2] = [v]^{-1} adds nothing
    rep = inseparable_torsion_subgroup(spec3, [v3, v3 * v3, v3 + spec3.one])
    assert rep.rank == 2
    assert rep.group_order == 9
    assert rep.orders_divide_p and rep.commute


def test_inseparable_torsion_rejects_zero():
    spec = WeylModPSpec(2)
    with pytest.raises(ZeroPolynomial):
        inseparable_torsion_subgroup(spec, [spec.zero])


def test_distinct_irreducible_family_ranks():
    for p in (2, 3, 5):
        spec = WeylModPSpec(p)
        for m in (1, 2, 3, 4):
            family = distinct_irreducible_family(spec, m)
            rep = inseparable_torsion_subgroup(spec, family)
            assert rep.rank == m
            assert rep.group_order == p ** m


def _irreducible_by_trial_division(coeffs, p):
    """Oracle: a monic polynomial over F_p with no monic factor of degree
    1..deg/2, found by dividing by every candidate."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            rem = list(coeffs)
            while len(rem) - 1 >= d:
                lead, shift = rem[-1], len(rem) - 1 - d
                for i, c in enumerate(tail + (1,)):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
                rem.pop()
            if not any(rem):
                return False
    return True


def test_irreducibility_test_matches_trial_division():
    # the family above is drawn with Rabin's test from the scalar layer
    for p in (2, 3, 5):
        for degree in (1, 2, 3, 4):
            if p ** degree > 700:
                continue
            for high_first in itertools.product(range(p), repeat=degree):
                poly = high_first[::-1] + (1,)
                assert _fp_is_irreducible(list(poly), p) == \
                    _irreducible_by_trial_division(poly, p), (p, poly)


def test_separability():
    spec = WeylModPSpec(3)
    report = separability_check(spec, 3, spec.b)  # v^3 = x in char 3
    assert not report.separable
    assert report.witness is not None
    assert report.witness.rank == 1

    char0 = generic_symbol(2)
    report0 = separability_check(char0, 2, char0.a)
    assert report0.separable
    assert report0.witness is None


def test_element_json_roundtrip():
    spec = generic_symbol(2)
    x = spec.u * spec.v + spec.scalar(spec.field.from_int(7))
    back = AlgebraElement.from_json(spec, x.to_json())
    assert back == x
