import hashlib
import itertools
import json
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
                       separability_check, weyl_split_verification)
from aniso.pairing import commutator_pairing_from_central_extension, is_perfect
from aniso.scalars import (Field, _fp_is_irreducible, cyclotomic, element_to_json,
                           function_field, prime_field, rationals)
from deadline import deadline
from oracles import algebra_inverse_by_solve, reduced_norm_by_elements, regular_representation


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_norm_matches_element_level_oracle(n):
    """The payload-level minor expansion against Berkowitz's recurrence on
    FieldElements, with fractional Q(zeta_n) coefficients and coefficients
    whose denominators in a, b are not 1."""
    spec = generic_symbol(n)
    field, base = spec.field, Field(cyclotomic(n))
    a, b = field.vars()
    z = field.lift(base.generator())
    rng = random.Random(880 + n)
    density = {2: 1, 3: 1, 4: 0.8, 5: 0.5, 6: 0.25}[n]
    coeffs = {}
    for key in itertools.product(range(n), repeat=2):
        if rng.random() < density:
            c = base.random_element(rng, nonzero=True) / rng.randint(1, 6)
            coeffs[key] = field.lift(c)
    coeffs[(rng.randrange(n), rng.randrange(n))] = (a + 1) / (b * Fraction(3, 2))
    if n <= 3:  # a gcd over Q(zeta_n)[a, b] per addition: kept to small n
        coeffs[(rng.randrange(n), rng.randrange(n))] = a * Fraction(2, 3) / (b + z)
    x = AlgebraElement(spec, coeffs)
    assert reduced_norm(x) == reduced_norm_by_elements(x)


def _shaped_element(spec, rng, shape, coefficient):
    """"dense" (every u^i v^j), "u" (c0 + c1 u), "v" (c0 + c1 v) or
    "monomial" (c u^i v^j), with nonzero coefficients drawn by coefficient(rng)."""
    n = spec.degree
    keys = {"dense": list(itertools.product(range(n), repeat=2)),
            "u": [(0, 0), (1, 0)], "v": [(0, 0), (0, 1)],
            "monomial": [(rng.randrange(n), rng.randrange(n))]}[shape]
    return AlgebraElement(spec, {key: coefficient(rng) for key in keys})


def test_norm_sweep_matches_element_level_berkowitz():
    """The minor expansion of reduced_norm against Berkowitz's recurrence
    on FieldElements: u, v and monomial shapes at every degree, dense ones
    to n = 5, fractional Q(zeta_n) coefficients, a denominator that is not
    a monomial in a, b, and bases where u^n - a is reducible."""
    rng = random.Random(31)
    cases = []
    for n in range(2, 10):
        spec, base = generic_symbol(n), Field(cyclotomic(n))

        def fractional(rng, spec=spec, base=base):
            c = base.random_element(rng, height=3, nonzero=True) / rng.randint(1, 6)
            return spec.field.lift(c)

        for shape in ("u", "v", "monomial") + (("dense",) if n <= 5 else ()):
            cases.append((_shaped_element(spec, rng, shape, fractional), f"n={n} {shape}"))
    spec = generic_symbol(3)
    a, b = spec.field.vars()
    z = spec.field.lift(Field(cyclotomic(3)).generator())
    x = spec.u * spec.v + spec.scalar(a * Fraction(2, 3) / (b + z)) + spec.v
    cases.append((x, "n=3 over b + z"))
    for spec, label in [case for case in _norm_oracle_specs() if " a=" in case[1]]:
        for shape in ("u", "v", "monomial", "dense"):
            x = _shaped_element(spec, rng, shape,
                                lambda rng: spec.field.random_element(rng, height=3, nonzero=True))
            cases.append((x, f"{label} {shape}"))
        root = spec.field(2 if spec.degree == 3 else 3)
        cases.append((spec.u - spec.scalar(root), f"{label} u - root"))
    zero = []
    for x, label in cases:
        norm = reduced_norm(x)
        assert norm == reduced_norm_by_elements(x), label
        if norm.is_zero:
            zero.append(label)
    # u^5 = 3^5 = 1 in F_11, so the drawn c0 + c1 u is a zero divisor too:
    # -c0/c1 is one of the fifth roots of unity 1, 3, 4, 5, 9
    assert zero == ["Q(z3) a=2^3 u - root", "F_11 a=3^5 u", "F_11 a=3^5 u - root"]


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


def test_weyl_monomials_invert():
    # u v is a unit, yet (u v)(u^(p-1) v^(p-1)) is not scalar when vu - uv = 1
    for p in (2, 3, 5):
        spec = WeylModPSpec(p)
        x = spec.u * spec.v
        inv = algebra_inverse(x)
        assert x * inv == spec.one
        assert inv * x == spec.one


def _inverse_oracle_cases():
    """(spec, elements) pairs: seeded sparse elements with nonzero integer
    coefficients over each base; two- and one-term elements of the Weyl
    algebra at p = 5, where the linear system of a seeded element with three
    terms can run for seconds; and one element whose coefficient
    denominators multiply to D = b + z, so that the inverse is scaled by D."""
    f7, f11 = Field(prime_field(7)), Field(prime_field(11))
    specs = [rational_quaternions(), generic_symbol(2), generic_symbol(3),
             SymbolAlgebraSpec(prime_field(7), 3, f7(3), f7(5)),
             SymbolAlgebraSpec(prime_field(11), 5, f11(2), f11(7)),
             WeylModPSpec(2), WeylModPSpec(3)]
    rng = random.Random(57)
    for spec in specs:
        n, top = spec.degree, spec.base.characteristic or 5
        yield spec, [AlgebraElement(spec, {(rng.randrange(n), rng.randrange(n)):
                                           spec.field.from_int(rng.randrange(1, top))
                                           for _ in range(rng.randint(1, n + 1))})
                     for _ in range(5)]
    spec = WeylModPSpec(5)
    u, v, two, three = spec.u, spec.v, spec.field.from_int(2), spec.field.from_int(3)
    yield spec, [u + v, u + v * v, u ** 2 + v ** 3, u ** 3 * v * two + v ** 4,
                 u ** 4 * v ** 4 + spec.scalar(three), u * u * v]
    spec = generic_symbol(3)
    _, b = spec.field.vars()
    z = Field(cyclotomic(3)).generator()
    c = spec.field.lift(z * Fraction(2, 3) - Fraction(1, 2)) / (b + spec.field.lift(z))
    yield spec, [spec.u * spec.v + spec.scalar(c) + spec.v]


def test_inverse_matches_linear_system_oracle():
    for spec, elements in _inverse_oracle_cases():
        for x in elements:
            try:
                expected = algebra_inverse_by_solve(x)
            except NotInvertible as exc:
                with pytest.raises(NotInvertible, match=str(exc)):
                    algebra_inverse(x)
                continue
            assert algebra_inverse(x).coefficients == expected.coefficients, (spec, x)
    spec = rational_quaternions()
    x = spec.one + spec.u + spec.scalar(2) * spec.v
    assert x ** -2 == algebra_inverse_by_solve(x * x)
    # u^3 = 8 makes u - 2 a zero divisor
    f3 = Field(cyclotomic(3))
    spec = SymbolAlgebraSpec(cyclotomic(3), 3, f3(8), f3.generator())
    for inverse in (algebra_inverse, algebra_inverse_by_solve):
        with pytest.raises(NotInvertible, match="element is a zero divisor"):
            inverse(spec.u - spec.scalar(2))


def _dense_symbol_element(n):
    """Every coefficient a nonzero integer in [-3, 3], drawn with seed n."""
    spec = generic_symbol(n)
    rng = random.Random(n)
    return AlgebraElement(spec, {(i, j): spec.field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
                                 for i in range(n) for j in range(n)})


def test_dense_inverses_of_degree_3_and_4_end():
    # the n^2 x n^2 linear system ran for minutes on both; an alarm turns a
    # slow path into a failure
    with deadline(10):
        x = _dense_symbol_element(3)
        inv = algebra_inverse(x)
        assert x * inv == inv * x == x.spec.one
        digest = hashlib.sha256(json.dumps(inv.to_json()).encode()).hexdigest()
        assert digest == "c19ec3d9198c08f1d8f9155a8439eae81f759035a58e08afa96437d931dfeb4a"
        # Nrd(x) x^-1 has denominator 1, so its product with x runs no gcd
        x = _dense_symbol_element(4)
        inv, nrm = algebra_inverse(x), reduced_norm(x)
        assert x * (inv * nrm) == x.spec.scalar(nrm)
        digest = hashlib.sha256(json.dumps(inv.to_json()).encode()).hexdigest()
        assert digest == "f32aea019816dfd1409c956e16912ffd7fd74873dc3f1420b4ade6ab28c3372e"


def test_sparse_weyl_inverse_past_the_crossover_ends():
    # at p = 23, p 2^(p-1) ring products would exceed p^4: the matrix of
    # y -> y (u + v) is sparse, so its expansion must keep few minors
    spec = WeylModPSpec(23)
    x = spec.u + spec.v
    with deadline(5):
        inv = algebra_inverse(x)
        assert x * inv == inv * x == spec.one


def test_dense_n6_norm_is_pinned():
    # every coefficient a nonzero integer: the sha256 was taken on the
    # Berkowitz recurrence's norm, 0.08 s there and 0.06 s by minors (one
    # core of a 2-core x86 machine); an alarm turns a slow path into a failure
    with deadline(10):
        norm = reduced_norm(_dense_symbol_element(6))
    digest = hashlib.sha256(json.dumps(element_to_json(norm)).encode()).hexdigest()
    assert digest == "0d607b0777e0013a354ecadfcc3a53e8fbbc1521034681b8c41c17c33e8af398"


def test_reduced_norm_refuses_weyl_algebras():
    with pytest.raises(AlgebraError, match="reduced norm implemented for symbol algebras"):
        reduced_norm(WeylModPSpec(3).u)


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
    for p in (2, 3, 5, 7):
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
