import itertools
import math
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
                       regular_representation, separability_check,
                       weyl_split_verification)
from aniso.pairing import commutator_pairing_from_central_extension, is_perfect
from aniso.scalars import (Field, _fp_is_irreducible, cyclotomic, function_field,
                           prime_field, rationals)


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


def _ring_mul(spec, f, g):
    """Product in K[u]/(u^n - a), written out independently of the package."""
    n = spec.degree
    out = [spec.field.zero] * n
    for i in range(n):
        for j in range(n):
            if f[i].is_zero or g[j].is_zero:
                continue
            c = f[i] * g[j]
            out[(i + j) % n] = out[(i + j) % n] + (c * spec.a if i + j >= n else c)
    return out


def _reduced_norm_by_leibniz(x):
    """Oracle: the n!-term Leibniz expansion of the regular representation's
    determinant over K[u]/(u^n - a)."""
    spec = x.spec
    n = spec.degree
    mat = regular_representation(x)
    total = [spec.field.zero] * n
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = [spec.field.one] + [spec.field.zero] * (n - 1)
        for r in range(n):
            term = _ring_mul(spec, term, mat[r][perm[r]])
        if inversions % 2:
            term = [-c for c in term]
        total = [s + t for s, t in zip(total, term)]
    assert all(c.is_zero for c in total[1:])
    return total[0]


def _norm_oracle_specs():
    """(spec, label) pairs over every base the norm is used on, n <= 5."""
    out = []
    for n in (2, 3, 4, 5):
        out.append((generic_symbol(n), f"Q(z{n})(a,b) n={n}"))
    out.append((rational_quaternions(), "Q n=2"))
    q2 = Field(rationals())
    out.append((SymbolAlgebraSpec(rationals(), 2, q2(3), q2(-5)), "Q n=2 (3,-5)"))
    for n in (3, 4, 5):
        f = Field(cyclotomic(n))
        out.append((SymbolAlgebraSpec(cyclotomic(n), n, f(2) + f.generator(), f(-3)),
                    f"Q(z{n}) n={n}"))
    f7 = Field(prime_field(7))
    out.append((SymbolAlgebraSpec(prime_field(7), 3, f7(3), f7(5)), "F_7 n=3"))
    f11 = Field(prime_field(11))
    out.append((SymbolAlgebraSpec(prime_field(11), 5, f11(2), f11(7)), "F_11 n=5"))
    # a = 2^3 and a = 3^5: u^n - a is reducible, so K[u]/(u^n - a) has zero divisors
    f3 = Field(cyclotomic(3))
    out.append((SymbolAlgebraSpec(cyclotomic(3), 3, f3(8), f3.generator()), "Q(z3) a=2^3"))
    out.append((SymbolAlgebraSpec(prime_field(11), 5, f11(3) ** 5, f11(2)), "F_11 a=3^5"))
    return out


def test_norm_matches_leibniz_oracle():
    rng = random.Random(41)
    for spec, label in _norm_oracle_specs():
        n = spec.degree
        for trial in range(3 if n < 5 else 2):
            if trial == 0:  # every coefficient nonzero and constant in a, b
                keys, degree = [(i, j) for i in range(n) for j in range(n)], 0
            else:
                keys = {(rng.randrange(n), rng.randrange(n)) for _ in range(n + 1)}
                degree = 1
            x = AlgebraElement(spec, {k: spec.field.random_element(
                rng, height=3, degree=degree, terms=2, nonzero=True) for k in keys})
            assert reduced_norm(x) == _reduced_norm_by_leibniz(x), (label, trial)


def test_norm_zero_on_zero_divisors():
    # u^3 = 8 makes u - 2 a zero divisor: its norm must vanish exactly
    f3 = Field(cyclotomic(3))
    spec = SymbolAlgebraSpec(cyclotomic(3), 3, f3(8), f3.generator())
    x = spec.u - spec.scalar(2)
    assert reduced_norm(x).is_zero
    assert reduced_norm(x + spec.v) == _reduced_norm_by_leibniz(x + spec.v)


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


def algebra_multiply_two_loops(x, y):
    """Oracle: the product with one loop per algebra kind, symbol algebras
    through a table of z powers and Weyl algebras through binomials."""
    spec = x.spec
    n = spec.degree
    field = spec.field
    out = {}

    def accumulate(i, j, c):
        if c.is_zero:
            return
        if i >= n:
            c = c * spec.a
            i -= n
        if j >= n:
            c = c * spec.b
            j -= n
        s = out.get((i, j))
        out[(i, j)] = c if s is None else s + c

    if isinstance(spec, SymbolAlgebraSpec):
        zpow = [field.one]
        for _ in range(2 * n):
            zpow.append(zpow[-1] * spec.zeta)
        for (i, j), c in x.coefficients.items():
            for (k, l), d in y.coefficients.items():
                accumulate(i + k, j + l, c * d * zpow[(j * k) % n])
    else:
        binom = [[1]]
        for i in range(1, 2 * n + 1):
            prev = binom[-1]
            binom.append([1] + [prev[k - 1] + prev[k] for k in range(1, i)] + [1])
        for (i, j), c in x.coefficients.items():
            for (k, l), d in y.coefficients.items():
                cd = c * d
                for t in range(min(j, k) + 1):
                    factor = binom[j][t] * binom[k][t] * math.factorial(t)
                    if factor % spec.p == 0:
                        continue
                    accumulate(i + k - t, j + l - t, cd * field.from_int(factor))
    return AlgebraElement(spec, out)


def test_product_matches_two_loop_oracle():
    specs = [generic_symbol(n) for n in range(2, 7)] + [WeylModPSpec(p) for p in (2, 3, 5, 7)]
    for spec in specs:
        rng = random.Random(40 + spec.degree)
        n = spec.degree
        for _ in range(8):
            x, y = (AlgebraElement(spec, {(rng.randrange(n), rng.randrange(n)):
                                          spec.field.random_element(rng, nonzero=True,
                                                                    height=5, degree=1)
                                          for _ in range(rng.randint(1, 5))})
                    for _ in range(2))
            got, expected = x * y, algebra_multiply_two_loops(x, y)
            assert got == expected, (spec, x, y)
            assert list(got.coefficients) == list(expected.coefficients)


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


def _rank_by_enumeration(spec, gens):
    """Oracle: multiply out all p^m products g_1^e_1 ... g_m^e_m with
    exponents below p; p^(m - rank) of them are scalar."""
    p = spec.p
    scalar_count = 0
    for e in itertools.product(range(p), repeat=len(gens)):
        prod = spec.one
        for g, ei in zip(gens, e):
            if ei:
                prod = prod * g ** ei
        if prod.is_scalar:
            scalar_count += 1
    rank = len(gens)
    while scalar_count > 1:
        assert scalar_count % p == 0
        scalar_count //= p
        rank -= 1
    return rank


def _random_v_polynomial(spec, rng):
    """c_0 + c_1 v + ... + c_d v^d with 1 <= d < p, c_j in F_p(x, y), c_d != 0."""
    degree = rng.randrange(1, spec.p)
    coeffs = {(0, j): spec.field.random_element(rng, height=spec.p, degree=1, terms=2,
                                                nonzero=j == degree)
              for j in range(degree + 1)}
    return AlgebraElement(spec, coeffs)


def test_torsion_rank_matches_enumeration_oracle():
    rng = random.Random(29)
    for p, max_m in ((2, 6), (3, 4), (5, 2)):
        spec = WeylModPSpec(p)
        for m in range(1, max_m + 1):
            for _ in range(2):
                gens = [_random_v_polynomial(spec, rng) for _ in range(m)]
                if m >= 2:
                    # a dependent generator: another one times a scalar of
                    # F_p(x, y), or a product of the others
                    i, j = rng.sample(range(m), 2)
                    k = rng.randrange(m)
                    gens[j] = gens[i] * (gens[k] if k != j else
                                         spec.scalar(spec.field.var("x") + 1))
                if rng.random() < 0.2:
                    gens[rng.randrange(m)] = spec.scalar(spec.field.var("y"))
                rep = inseparable_torsion_subgroup(spec, gens)
                assert rep.rank == _rank_by_enumeration(spec, gens), (p, gens)
                assert rep.group_order == p ** rep.rank
    # all p^m products of the first irreducible family, p^m <= 625
    for p, m in ((2, 4), (3, 4), (5, 4)):
        spec = WeylModPSpec(p)
        family = distinct_irreducible_family(spec, m)
        assert _rank_by_enumeration(spec, family) == m
        family.append(family[0] * family[-1] ** 2)
        assert inseparable_torsion_subgroup(spec, family).rank == m


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
