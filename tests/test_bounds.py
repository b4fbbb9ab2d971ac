import itertools
import math
import random

import pytest

from aniso import fieldmatrix
from aniso.bounds import (MAX_BOUND_DIGITS, BoundQuery, BoundTooLarge, BoundsError,
                          FiniteMatrixGroup, GroupTooLarge, HypothesisFails,
                          MissingParameter, UnknownType,
                          bound_calculator, burnside_divisibility_check,
                          coprime_part, minkowski_values, pi1_order_split,
                          torsion_primes)
from aniso.fieldmatrix import mat_from_rows
from aniso.scalars import Field, FieldElement, cyclotomic, prime_field, rationals
from aniso.errors import AnisoError
from oracles import (closed_under_all_products, element_orders_by_least_power,
                     group_order_by_closure_and_walk, group_order_by_walk,
                     invertible_matrices)


def test_minkowski_table():
    assert (minkowski_values(1).upsilon_a, minkowski_values(1).upsilon_m) == (2, 2)
    assert (minkowski_values(2).upsilon_a, minkowski_values(2).upsilon_m) == (12, 24)
    assert (minkowski_values(3).upsilon_a, minkowski_values(3).upsilon_m) == (48, 48)


def test_minkowski_beyond_table():
    mv = minkowski_values(4)
    assert mv.upsilon_a is None and not mv.upsilon_a_known
    assert mv.upsilon_m == 5760
    assert minkowski_values(5).upsilon_m == 11520


def test_minkowski_prime_support():
    # every prime <= n + 1 contributes at least one factor
    for n in (1, 2, 3, 4, 6, 10):
        um = minkowski_values(n).upsilon_m
        p = 2
        while p <= n + 1:
            if all(p % q for q in range(2, p)):
                assert um % p == 0
            p += 1


def test_torsion_primes_table():
    assert torsion_primes([("A", 4)]) == frozenset()
    assert torsion_primes([("C", 3)]) == frozenset()
    assert torsion_primes([("B", 2)]) == frozenset({2})
    assert torsion_primes([("D", 4)]) == frozenset({2})
    assert torsion_primes([("G", 2)]) == frozenset({2})
    assert torsion_primes([("F", 4)]) == frozenset({2, 3})
    assert torsion_primes([("E", 6)]) == frozenset({2, 3})
    assert torsion_primes([("E", 8)]) == frozenset({2, 3, 5})
    assert torsion_primes([("B", 2), ("F", 4)]) == frozenset({2, 3})
    assert torsion_primes([]) == frozenset()


def test_torsion_primes_rejects_bad_types():
    for bad in [("G", 3), ("F", 5), ("E", 9), ("D", 1), ("A", 0), ("X", 2)]:
        with pytest.raises(UnknownType):
            torsion_primes([bad])


def test_coprime_part():
    assert coprime_part(24, 3) == 8
    assert coprime_part(24, 2) == 3
    assert coprime_part(7, 5) == 7
    assert coprime_part(1, 2) == 1


def test_coprime_part_rejects_unbounded_inputs():
    # p = 1 and value = 0 have no largest factor prime to p
    with pytest.raises(BoundsError):
        coprime_part(12, 1)
    with pytest.raises(BoundsError):
        coprime_part(0, 2)


def s3_matrices():
    field = Field(rationals())
    # order-3 rotation and a transposition in the standard 2-dim model
    r = mat_from_rows([[field(0), field(-1)], [field(1), field(-1)]])
    t = mat_from_rows([[field(0), field(1)], [field(1), field(0)]])
    return r, t


def test_finite_matrix_group_closure():
    r, t = s3_matrices()
    group = FiniteMatrixGroup.from_generators(rationals(), [r, t])
    assert group.order == 6
    orders = sorted(group.element_orders())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_finite_matrix_group_breadth_first_order():
    f5 = Field(prime_field(5))
    o, z = f5.one, f5.zero
    group = FiniteMatrixGroup.from_generators(
        prime_field(5), [((z, -o), (o, z)), ((o, o), (z, o))])
    assert group.order == 120  # SL_2(F_5)
    first = [tuple(tuple(x.payload for x in row) for row in m) for m in group.elements[:6]]
    assert first == [((1, 0), (0, 1)), ((0, 4), (1, 0)), ((1, 1), (0, 1)),
                     ((4, 0), (0, 4)), ((0, 4), (1, 1)), ((1, 4), (1, 0))]


def test_finite_matrix_group_cap():
    field = Field(rationals())
    shear = mat_from_rows([[field.one, field.one], [field.zero, field.one]])
    with pytest.raises(GroupTooLarge):
        FiniteMatrixGroup.from_generators(rationals(), [shear], cap=50)


def test_burnside_cyclic_size_one():
    field = Field(cyclotomic(5))
    z = field.zeta(5)
    elements = [mat_from_rows([[z ** k]]) for k in range(5)]
    group = FiniteMatrixGroup(cyclotomic(5), elements)
    report = burnside_divisibility_check(group, 5)
    assert report.hypothesis_holds and report.divides
    assert report.coprime_order == 5 and report.bound == 5


def test_burnside_s3():
    r, t = s3_matrices()
    group = FiniteMatrixGroup.from_generators(rationals(), [r, t])
    report = burnside_divisibility_check(group, 6)
    assert report.hypothesis_holds
    assert report.coprime_order == 6 and report.bound == 36
    assert report.divides


def sl2_f3_group():
    field = Field(prime_field(3))
    a = mat_from_rows([[field(1), field(1)], [field(0), field(1)]])
    b = mat_from_rows([[field(0), field(-1)], [field(1), field(0)]])
    return FiniteMatrixGroup.from_generators(prime_field(3), [a, b])


def test_burnside_char_p_group():
    group = sl2_f3_group()
    assert group.order == 24
    report = burnside_divisibility_check(group, 4)
    assert report.characteristic == 3
    assert report.coprime_order == 8  # 24 with the 3-part removed
    assert report.hypothesis_holds
    assert report.bound == 16 and report.divides


def test_burnside_hypothesis_failure_reported():
    group = sl2_f3_group()
    report = burnside_divisibility_check(group, 2)
    assert not report.hypothesis_holds
    assert 4 in report.violating_orders
    with pytest.raises(HypothesisFails):
        burnside_divisibility_check(group, 2, strict=True)


def _monomial_matrices(descriptor, n, entries):
    """Every n x n matrix with one nonzero entry per row and column, taken
    from entries."""
    field = Field(descriptor)
    out = []
    for perm in itertools.permutations(range(n)):
        for values in itertools.product(entries, repeat=n):
            out.append(mat_from_rows([[values[i] if perm[i] == j else field.zero
                                       for j in range(n)] for i in range(n)]))
    return out


def _ambient_groups():
    """Finite matrix groups to draw seeded subgroups from: signed 3 x 3
    permutations over Q (order 48), 2 x 2 monomials in the powers of z5
    over Q(z5) (order 50) and GL_2(F_3) (order 48)."""
    q, z5 = Field(rationals()), Field(cyclotomic(5))
    return {
        "Q": (rationals(), _monomial_matrices(rationals(), 3, [q.one, -q.one])),
        "Q(z5)": (cyclotomic(5), _monomial_matrices(
            cyclotomic(5), 2, [z5.zeta(5) ** k for k in range(5)])),
        "F_3": (prime_field(3), list(invertible_matrices(prime_field(3), 2))),
    }


@pytest.mark.parametrize("name", ["Q", "Q(z5)", "F_3"])
def test_closure_certificate_matches_all_products_oracle(name):
    descriptor, ambient = _ambient_groups()[name]
    ident = fieldmatrix.identity(Field(descriptor), len(ambient[0]))
    rng = random.Random(811)
    rejected = 0
    for _ in range(6):
        group = FiniteMatrixGroup.from_generators(
            descriptor, rng.sample(ambient, rng.randint(1, 2)))
        elements = list(group.elements)
        rng.shuffle(elements)  # the certificate must not rely on BFS order
        cases = [elements]
        others = [m for m in elements if m != ident]
        if others:
            gone = rng.choice(others)
            cases.append([m for m in elements if m != gone])
        members = set(elements)
        outside = [m for m in ambient if m not in members]
        if outside:
            foreign = list(elements)
            foreign.insert(rng.randrange(len(foreign) + 1), rng.choice(outside))
            cases.append(foreign)
        # the product set A B of two subgroups, A listed first: closed
        # exactly when A B = B A
        other = FiniteMatrixGroup.from_generators(descriptor, [rng.choice(ambient)])
        cases.append(list(dict.fromkeys(fieldmatrix.mat_mul(a, b)
                                        for b in other.elements
                                        for a in group.elements)))
        for case in cases:
            if closed_under_all_products(case):
                assert FiniteMatrixGroup(descriptor, case).order == len(case)
            else:
                rejected += 1
                with pytest.raises(BoundsError) as info:
                    FiniteMatrixGroup(descriptor, case)
                assert str(info.value) == ("element list is not closed "
                                           "under multiplication")
        shuffled = FiniteMatrixGroup(descriptor, elements)
        for g in (group, shuffled):
            assert g.element_orders() == element_orders_by_least_power(g)
    assert rejected >= 6


@pytest.mark.parametrize("name", ["Q", "Q(z5)", "F_3"])
def test_element_orders_read_off_the_cayley_graph(name, monkeypatch):
    # the constructors keep the closure's Cayley graph: its table is
    # index[mat_mul(a, b)] over all pairs, and element orders walk it with
    # no product, in list order whatever order the list was given in
    from aniso.lattice import cayley_table
    descriptor, ambient = _ambient_groups()[name]
    rng = random.Random(1212)
    for _ in range(5):
        group = FiniteMatrixGroup.from_generators(
            descriptor, rng.sample(ambient, rng.randint(1, 3)))
        elements = list(group.elements)
        rng.shuffle(elements)
        shuffled = FiniteMatrixGroup(descriptor, elements)
        for g in (group, shuffled):
            right, at = g._cayley
            index = {g.elements[pos]: c for pos, c in enumerate(at)}
            listed = sorted(index, key=index.get)  # the elements in closure order
            assert cayley_table(right) == [[index[fieldmatrix.mat_mul(a, b)] for b in listed]
                                           for a in listed]
            expected = element_orders_by_least_power(g)
            monkeypatch.setattr(fieldmatrix, "mat_mul", None)  # no product from here
            monkeypatch.setattr(fieldmatrix, "_mul", None)
            assert g.element_orders() == expected
            monkeypatch.undo()


def test_closure_certificate_costs_g_log_g_products(monkeypatch):
    f5 = Field(prime_field(5))
    o, z = f5.one, f5.zero
    elements = FiniteMatrixGroup.from_generators(
        prime_field(5), [((z, -o), (o, z)), ((o, o), (z, o))]).elements
    products = []
    mul = fieldmatrix._mul  # the payload product seam the closure runs on

    def counting(d, a, b):
        products.append(1)
        return mul(d, a, b)

    monkeypatch.setattr(fieldmatrix, "_mul", counting)
    group = FiniteMatrixGroup(prime_field(5), elements)
    # SL_2(F_5): 120 elements, at most log2(120) generators, not 120^2 products
    assert group.order == 120
    assert len(products) <= 120 * math.floor(math.log2(120))
    monkeypatch.undo()
    assert group.element_orders() == element_orders_by_least_power(group)


def test_from_generators_closes_once(monkeypatch):
    # the companion matrix of Φ_12 = x^4 - x^2 + 1 has order 12: one
    # product per element, and no second pass over the closed list
    q = Field(rationals())
    rows = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    companion = mat_from_rows([[q(x) for x in row] for row in rows])
    products = []
    mul = fieldmatrix._mul  # the payload product seam the closure runs on

    def counting(d, a, b):
        products.append(1)
        return mul(d, a, b)

    monkeypatch.setattr(fieldmatrix, "_mul", counting)
    assert FiniteMatrixGroup.from_generators(rationals(), [companion]).order == 12
    assert len(products) == 12


def _companion_of_phi12():
    q = Field(rationals())
    rows = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    return mat_from_rows([[q(x) for x in row] for row in rows])


def test_burnside_checks_build_and_hash_no_field_element(monkeypatch):
    # the closure keys on payload matrices and the report reads only the
    # Cayley graph: one check of C12 builds no FieldElement and hashes none
    # (it built 124 and hashed 416 when the closure ran on FieldElements)
    companion = _companion_of_phi12()
    built, hashed = [], []
    init, element_hash = FieldElement.__init__, FieldElement.__hash__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, d, p: built.append(1) or init(self, d, p))
    monkeypatch.setattr(FieldElement, "__hash__",
                        lambda self: hashed.append(1) or element_hash(self))
    for d in (12, 6, 24):
        report = burnside_divisibility_check(
            FiniteMatrixGroup.from_generators(rationals(), [companion]), d)
        assert report.group_order == 12 and report.hypothesis_holds == (d % 12 == 0)
    assert (len(built), len(hashed)) == (0, 0)
    group = FiniteMatrixGroup.from_generators(rationals(), [companion])
    group.element_orders()
    assert (len(built), len(hashed)) == (0, 0)
    assert group.order == 12 and len(built) == 12 * 16  # the API form, on first use
    monkeypatch.undo()
    assert FiniteMatrixGroup(rationals(), group.elements).element_orders() == \
        group.element_orders()


def _outcome(build):
    try:
        return build()
    except AnisoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["Q", "Q(z5)", "F_3"])
def test_group_certificates_match_the_walk_oracle(name):
    descriptor, ambient = _ambient_groups()[name]
    field = Field(descriptor)
    n = len(ambient[0])
    ident = fieldmatrix.identity(field, n)

    def unit(i, j):
        return mat_from_rows([[field.one if (a, b) == (i, j) else field.zero
                               for b in range(n)] for a in range(n)])

    zero = mat_from_rows([[field.zero] * n for _ in range(n)])
    singular = [unit(0, 0), unit(0, 1), zero]  # an idempotent, a nilpotent, 0
    rng = random.Random(2929)
    outcomes = set()
    for _ in range(6):
        gens = rng.sample(ambient, rng.randint(1, 3))
        for extra in (rng.choice(singular), ident, rng.choice(gens)):
            if rng.random() < 0.4:
                gens.insert(rng.randrange(len(gens) + 1), extra)
        for cap in (100000, 10):
            got = _outcome(lambda: FiniteMatrixGroup.from_generators(descriptor, gens, cap).order)
            assert got == _outcome(lambda: group_order_by_closure_and_walk(descriptor, gens, cap))
            outcomes.add(got if isinstance(got, tuple) else "group")
        elements = list(FiniteMatrixGroup.from_generators(
            descriptor, [g for g in gens if g not in singular]).elements)
        rng.shuffle(elements)
        others = [m for m in elements if m != ident]
        members = set(elements)
        outside = [m for m in ambient if m not in members]
        cases = [elements, elements + [zero], elements + [rng.choice(singular)],
                 elements + elements[:1], [m for m in elements if m != ident]]
        if others:
            cases.append([m for m in elements if m != rng.choice(others)])
        if outside:
            cases.append(elements + [rng.choice(outside)])
        for case in cases:
            got = _outcome(lambda: FiniteMatrixGroup(descriptor, case).order)
            assert got == _outcome(lambda: group_order_by_walk(descriptor, case))
            outcomes.add(got if isinstance(got, tuple) else "group")
    assert {"group", (GroupTooLarge, "closure exceeded cap 10"),
            (BoundsError, "singular matrix in group list"),
            (BoundsError, "element list is not closed under multiplication")} <= outcomes


def test_closed_lists_of_singular_matrices_are_refused():
    # I and the idempotents e_i = [[1, 0], [i, 0]] (e_i e_j = e_i): closed
    # under multiplication but not a group, so every e_i would become a
    # generator and the closures would cost about |G|^3 / 3 products
    q = Field(rationals())
    for count in (2, 20, 1999):
        idempotents = [((q.one, q.zero), (q(i), q.zero)) for i in range(1, count + 1)]
        elements = [fieldmatrix.identity(q, 2)] + idempotents
        if count <= 20:
            assert closed_under_all_products(elements)
        with pytest.raises(BoundsError, match="singular matrix in group list"):
            FiniteMatrixGroup(rationals(), elements)
    with pytest.raises(BoundsError, match="singular matrix in group list"):
        FiniteMatrixGroup(rationals(), [((q.one,),), ((q.zero,),)])


def test_long_lists_are_certified_closed():
    # [[2]] generates powers of 2 without end: the closure outgrows the list
    q = Field(rationals())
    with pytest.raises(BoundsError, match="element list is not closed under multiplication"):
        FiniteMatrixGroup(rationals(), [((q(i),),) for i in range(1, 2002)])


def test_element_orders_reject_an_element_of_infinite_order():
    # the constructor refuses this list (test_long_lists_are_certified_closed),
    # so build the object around it for the oracle: 2 has no order, and the
    # power chain must not run forever
    q = Field(rationals())
    group = object.__new__(FiniteMatrixGroup)
    group.descriptor, group.field, group.degree = rationals(), q, 1
    group.elements = [((q(i),),) for i in range(1, 2002)]
    with pytest.raises(BoundsError, match="element order exceeds the group order"):
        element_orders_by_least_power(group)


def test_bound_calculator_examples():
    assert bound_calculator(BoundQuery("torus", n=2)).divisor_bound == 576
    assert bound_calculator(BoundQuery("severi_brauer", n=5)).divisor_bound == 25
    assert bound_calculator(BoundQuery("quadric_even", n=4)).divisor_bound == 512
    assert bound_calculator(BoundQuery("quadric_odd", n=5)).divisor_bound == 16


def test_bounds_at_the_digit_limit():
    # 8^4761 has 4300 digits and prints; 8^4763 does not, nor upsilon_m past
    # n = 1331, and no power is taken past what bit lengths rule out
    assert bound_calculator(BoundQuery("quadric_even", n=4762)).divisor_bound == 8 ** 4761
    assert len(str(8 ** 4761)) == MAX_BOUND_DIGITS
    with pytest.raises(BoundTooLarge, match="quadric_even bound"):
        bound_calculator(BoundQuery("quadric_even", n=4764))
    assert len(str(minkowski_values(1331).upsilon_m)) <= MAX_BOUND_DIGITS
    with pytest.raises(BoundTooLarge, match="upsilon_m for n = 1332"):
        minkowski_values(1332)
    with pytest.raises(BoundTooLarge):
        bound_calculator(BoundQuery("general_lag", n=2, r=1, N=10 ** 100))
    # (10^2150)^2 passes the bit-length test and is refused by the exact one
    big = 10 ** 2150
    assert bound_calculator(BoundQuery("severi_brauer", n=big - 1)).divisor_bound == (big - 1) ** 2
    with pytest.raises(BoundTooLarge, match="severi_brauer bound"):
        bound_calculator(BoundQuery("severi_brauer", n=big))


def test_bound_calculator_torus_matches_table():
    for n in (1, 2, 3, 4):
        expected = minkowski_values(n).upsilon_m ** n
        assert bound_calculator(BoundQuery("torus", n=n)).divisor_bound == expected


def test_bound_calculator_reductive_kinds():
    q = BoundQuery("reductive_perfect", n=2, r=2, N=3)
    assert bound_calculator(q).divisor_bound == 2 * 24 ** 3
    q2 = BoundQuery("general_lag", n=2, r=2, N=3)
    assert bound_calculator(q2).divisor_bound == 2 * 24 ** 3
    q3 = BoundQuery("semisimple_char_p", n=2, r=1, N=4, p=5, m=2)
    assert bound_calculator(q3).divisor_bound == 24 ** 4
    assert "5^2" in bound_calculator(q3).meaning


def test_bound_calculator_missing_parameters():
    with pytest.raises(MissingParameter):
        bound_calculator(BoundQuery("torus"))
    with pytest.raises(MissingParameter):
        bound_calculator(BoundQuery("reductive_perfect", n=2))
    with pytest.raises(BoundsError):
        bound_calculator(BoundQuery("torus", n=0))


def test_bound_calculator_semisimple_char_p_needs_prime():
    for p in (1, 4, 9):
        with pytest.raises(BoundsError, match="prime"):
            bound_calculator(BoundQuery("semisimple_char_p", n=2, r=1, N=2, p=p, m=1))
    assert bound_calculator(BoundQuery("semisimple_char_p", n=2, r=1, N=2, p=7,
                                       m=1)).divisor_bound == 576


def test_bound_calculator_meanings_mention_divisor():
    for query in (BoundQuery("torus", n=1),
                  BoundQuery("severi_brauer", n=3),
                  BoundQuery("quadric_odd", n=3),
                  BoundQuery("quadric_even", n=6)):
        result = bound_calculator(query)
        assert "divid" in result.meaning


def test_pi1_order_split():
    assert pi1_order_split((4, 2)) == (1, 2)
    assert pi1_order_split((12, 2)) == (3, 2)
    assert pi1_order_split((7, 3)) == (7, 0)
    assert pi1_order_split((1, 5)) == (1, 0)
