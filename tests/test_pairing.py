import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from aniso.fieldmatrix import mat_from_rows
from aniso.pairing import (AlternatingPairing, CommutatorNotScalar,
                           FiniteAbelianGroup, GroupTooLarge, InvalidPairing,
                           PairingError, brute_force_isotropic_max,
                           is_perfect, isotropic_subgroup,
                           matrix_commutator_pairing, pairing_radical,
                           random_pairing, validate_pairing)
from aniso.scalars import Field, cyclotomic
from oracles import (isotropic_subgroup_by_solve, pairing_radical_by_enumeration,
                     validate_pairing_by_fractions, value_by_fractions)


def symplectic_z4():
    group = FiniteAbelianGroup([4, 4])
    return AlternatingPairing(group, [[0, Fraction(1, 4)],
                                      [Fraction(-1, 4), 0]])


def test_group_element_arithmetic():
    g = FiniteAbelianGroup([2, 4])
    assert g.order == 8 and g.exponent == 4
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.reduce((5, -1)) == (1, 3)
    assert len(list(g.elements())) == 8


def test_elements_of_the_wrong_length_are_refused():
    # zip would drop the extra coordinates or the missing ones silently
    g = FiniteAbelianGroup([2, 4])
    p = AlternatingPairing(g, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    for call in (lambda: p.value((1, 1, 5), (1,)), lambda: p.value((1, 1), (1,)),
                 lambda: g.reduce((1, 2, 3)), lambda: g.reduce((1,)),
                 lambda: g.add((1, 2), (1, 2, 3)), lambda: g.add((1,), (1, 2)),
                 lambda: g.neg((1, 2, 3)), lambda: g.scale(3, (1,)),
                 lambda: g.element_order((1, 2, 3))):
        with pytest.raises(PairingError, match="coordinates"):
            call()
    assert p.value((1, 1), (0, 1)) == Fraction(1, 2)
    assert g.reduce((1, 6)) == (1, 2) and g.neg((1, 1)) == (1, 3)
    assert g.scale(3, (1, 1)) == (1, 3) and g.element_order((1, 2)) == 2


def test_coordinates_must_be_integers():
    # int() would truncate 1.5 to 1 and 2.9 to 2
    g = FiniteAbelianGroup([2, 4])
    p = AlternatingPairing(g, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    for call in (lambda: g.reduce((1.5, 2.9)), lambda: g.reduce((Fraction(1), 2)),
                 lambda: g.reduce((1, "2")), lambda: p.value((1.5, 1), (0, 1)),
                 lambda: p.value((1, 1), (0, 1.0))):
        with pytest.raises(PairingError, match="integers"):
            call()
    assert g.reduce((3, -1)) == (1, 3) and g.reduce((True, 7)) == (1, 3)


def test_the_pairing_path_loads_no_field_layer():
    code = """
import sys
from fractions import Fraction
import aniso.pairing as pairing
group = pairing.FiniteAbelianGroup([4, 4])
p = pairing.AlternatingPairing(group, [[0, Fraction(1, 4)], [Fraction(3, 4), 0]])
print(pairing.isotropic_subgroup(p).order)
print([name for name in ("scalars", "fieldmatrix") if "aniso." + name in sys.modules])
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.splitlines() == ["4", "[]"]


def test_group_validation():
    with pytest.raises(PairingError):
        FiniteAbelianGroup([4, 2])  # not a divisibility chain
    with pytest.raises(PairingError):
        FiniteAbelianGroup([1])
    with pytest.raises(PairingError, match="max_order must be >= 2"):
        random_pairing(random.Random(0), max_order=1)  # would draw forever


def test_validate_pairing():
    assert validate_pairing(symplectic_z4())
    group = FiniteAbelianGroup([4, 4])
    bad = AlternatingPairing(group, [[0, Fraction(1, 3)],
                                     [Fraction(-1, 3), 0]])
    assert not validate_pairing(bad)  # value order does not divide 4
    not_alt = AlternatingPairing(group, [[Fraction(1, 4), 0],
                                         [0, 0]])
    assert not validate_pairing(not_alt)


def _valid_by_enumeration(p):
    """Oracle: q(x, x) = 0 for every element x, and q on representatives does
    not move when a coordinate moves by its factor order (q(f_i e_i, x) = 0
    = q(x, f_i e_i) for every x)."""
    factors = p.group.invariant_factors
    k = len(factors)

    def raw(x, y):  # the bilinear form on integer vectors, before reduction
        total = sum(x[i] * y[j] * p.gram[i][j] for i in range(k) for j in range(k))
        return total - (total.numerator // total.denominator)

    for x in p.group.elements():
        if raw(x, x) != 0:
            return False
        for i, f in enumerate(factors):
            step = tuple(f if t == i else 0 for t in range(k))
            if raw(step, x) != 0 or raw(x, step) != 0:
                return False
    return True


def test_generator_criterion_matches_enumeration():
    rng = random.Random(7)
    kinds = {"valid": 0, "diagonal": 0, "antisymmetry": 0, "order": 0}
    for _ in range(60):
        p = random_pairing(rng, max_order=144)
        factors = p.group.invariant_factors
        k = len(factors)
        gram = [list(row) for row in p.gram]
        kind = rng.choice(list(kinds) if k >= 2 else ["valid", "diagonal"])
        i, j = rng.sample(range(k), 2) if k >= 2 else (0, 0)
        if kind == "diagonal":
            gram[i][i] = Fraction(rng.randrange(1, factors[i]), factors[i])
        elif kind == "antisymmetry":
            # still killed by both factor orders, but no longer cancels
            g = math.gcd(factors[i], factors[j])
            if g == 1:
                continue
            gram[i][j] += Fraction(rng.randrange(1, g), g)
        elif kind == "order":
            # antisymmetric, but not killed by the factor orders
            bad = Fraction(1, 7 * factors[i] * factors[j])
            gram[i][j] += bad
            gram[j][i] -= bad
        q = AlternatingPairing(p.group, gram)
        assert bool(validate_pairing(q)) == _valid_by_enumeration(q) == (kind == "valid"), \
            (kind, factors, gram)
        kinds[kind] += 1
    assert min(kinds.values()) >= 5, kinds


def test_pairing_values():
    p = symplectic_z4()
    assert p.value((1, 0), (0, 1)) == Fraction(1, 4)
    assert p.value((0, 1), (1, 0)) == Fraction(3, 4)  # reduced mod 1
    assert p.value((2, 0), (0, 2)) == 0
    assert p.value((1, 1), (1, 1)) == 0  # alternating


def test_perfect_and_radical():
    p = symplectic_z4()
    assert is_perfect(p)
    assert pairing_radical(p) == [(0, 0)]
    group = FiniteAbelianGroup([2, 2])
    degenerate = AlternatingPairing(group, [[0, 0], [0, 0]])
    assert not is_perfect(degenerate)
    assert len(pairing_radical(degenerate)) == 4


def test_radical_matches_enumeration_oracle():
    rng = random.Random(11)
    pairings = [random_pairing(rng, max_order=256) for _ in range(300)]
    for factors in ((2, 2), (4, 8), (3, 9, 27), (2, 4, 8, 16)):
        k = len(factors)
        pairings.append(AlternatingPairing(FiniteAbelianGroup(factors),
                                           [[0] * k for _ in range(k)]))
    pairings.append(AlternatingPairing(FiniteAbelianGroup(()), []))
    perfect = 0
    for p in pairings:
        expected = pairing_radical_by_enumeration(p)
        assert pairing_radical(p) == expected, p.to_json()
        assert is_perfect(p) == (len(expected) == 1), p.to_json()
        perfect += is_perfect(p)
    assert 0 < perfect < len(pairings)
    assert pairing_radical(pairings[-1]) == [()]
    assert len(pairing_radical(pairings[-2])) == 2 * 4 * 8 * 16


def test_radical_is_not_enumerated():
    n = 2 ** 20
    group = FiniteAbelianGroup([n, n])
    start = time.perf_counter()
    assert is_perfect(AlternatingPairing(group, [[0, Fraction(1, n)],
                                                 [Fraction(-1, n), 0]]))
    assert time.perf_counter() - start < 0.01
    # the cap counts the radical's elements, not the group's
    half = AlternatingPairing(group, [[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    assert not is_perfect(half)
    with pytest.raises(GroupTooLarge):
        pairing_radical(half)  # the radical 2Z/n x 2Z/n has 2^38 elements
    zero64 = AlternatingPairing(FiniteAbelianGroup([64, 64]), [[0, 0], [0, 0]])
    assert len(pairing_radical(zero64)) == 4096
    with pytest.raises(InvalidPairing):
        is_perfect(AlternatingPairing(FiniteAbelianGroup([2, 2]),
                                      [[0, Fraction(1, 3)], [Fraction(2, 3), 0]]))


def test_isotropic_subgroup_z4_oracle():
    sub = isotropic_subgroup(symplectic_z4())
    assert sub.order == 4
    assert sub.generator_orders == (4,)
    assert 16 % (sub.order ** 2) == 0


def test_isotropic_subgroup_vanishes_and_covers():
    p = symplectic_z4()
    sub = isotropic_subgroup(p)
    for g in sub.generators:
        for h in sub.generators:
            assert p.value(g, h) == 0
    assert (sub.order ** 2) % p.group.order == 0


def test_isotropic_trivial_pairing_takes_everything():
    group = FiniteAbelianGroup([2, 2])
    p = AlternatingPairing(group, [[0, 0], [0, 0]])
    assert isotropic_subgroup(p).order == 4


def test_brute_force_agrees_on_small_groups():
    rng = random.Random(3)
    for _ in range(25):
        p = random_pairing(rng, max_order=36)
        sub = isotropic_subgroup(p)
        best, witness = brute_force_isotropic_max(p)
        assert sub.order == best  # greedy construction hits the maximum
        for g in witness:
            for h in witness:
                assert p.value(g, h) == 0


def test_seeded_random_pairings_property():
    # 200 pairings on groups of order <= 256: isotropic square covers
    rng = random.Random(0)
    for _ in range(200):
        p = random_pairing(rng, max_order=256)
        assert p.group.order <= 256
        assert validate_pairing(p)
        sub = isotropic_subgroup(p)
        for g in sub.generators:
            for h in sub.generators:
                assert p.value(g, h) == 0
        assert (sub.order ** 2) % p.group.order == 0


def test_brute_force_caps():
    group = FiniteAbelianGroup([2] * 13)
    gram = [[0] * 13 for _ in range(13)]
    p = AlternatingPairing(group, gram)
    with pytest.raises(GroupTooLarge):
        brute_force_isotropic_max(p)  # order 8192 over the cap


def test_matrix_commutator_pairing_heisenberg():
    # clock and shift matrices: commutator is the scalar zeta_3
    field = Field(cyclotomic(3))
    z = field.zeta(3)
    zero, one = field.zero, field.one
    clock = mat_from_rows([[one, zero, zero], [zero, z, zero],
                           [zero, zero, z * z]])
    shift = mat_from_rows([[zero, zero, one], [one, zero, zero],
                           [zero, one, zero]])
    result = matrix_commutator_pairing([clock, shift])
    assert result.generator_orders == (3, 3)
    assert result.pairing.group.invariant_factors == (3, 3)
    assert is_perfect(result.pairing)
    values = {result.pairing.value(x, y)
              for x in ((1, 0), (0, 1)) for y in ((1, 0), (0, 1))}
    assert Fraction(1, 3) in values or Fraction(2, 3) in values


def test_matrix_commutator_pairing_drops_scalar_lift():
    # a scalar lift has projective order 1: the trivial element, not a factor 1
    field = Field(cyclotomic(3))
    z = field.zeta(3)
    zero, one = field.zero, field.one
    ident = mat_from_rows([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    shift = mat_from_rows([[zero, zero, one], [one, zero, zero], [zero, one, zero]])
    clock = mat_from_rows([[one, zero, zero], [zero, z, zero], [zero, zero, z * z]])
    plain = matrix_commutator_pairing([shift, clock])
    padded = matrix_commutator_pairing([ident, shift, clock])
    assert plain.basis_change == ((1, 0), (0, 1))
    assert padded.basis_change == ((0, 1, 0), (0, 0, 1))
    assert padded.generator_orders == (1, 3, 3)
    assert padded.pairing.group.invariant_factors == (3, 3)
    assert padded.pairing.gram == plain.pairing.gram
    alone = matrix_commutator_pairing([ident])
    assert alone.pairing.group.invariant_factors == () and alone.basis_change == ()


def test_matrix_commutator_rejects_nonscalar_commutator():
    field = Field(cyclotomic(4))
    zero, one = field.zero, field.one
    a = mat_from_rows([[zero, one], [one, zero]])
    b = mat_from_rows([[one, one], [zero, one]])
    with pytest.raises((CommutatorNotScalar, PairingError)):
        matrix_commutator_pairing([a, b], order_bound=8)


def test_json_roundtrip():
    p = symplectic_z4()
    back = AlternatingPairing.from_json(p.to_json())
    assert back.group.invariant_factors == (4, 4)
    assert back.gram == p.gram


def test_from_json_refuses_float_and_boolean_entries():
    # int(4.7) or Fraction(0.25) would silently change the pairing
    obj = {"invariant_factors": ["4", "4"], "gram": [["0", "1/4"], ["3/4", "0"]]}
    bad_inputs = [{**obj, "invariant_factors": [4.7, "4"]},
                  {**obj, "invariant_factors": [True, "4"]},
                  {**obj, "gram": [["0", 0.25], ["3/4", "0"]]},
                  {**obj, "gram": [["0", "1/4"], ["3/4", False]]}]
    for bad in bad_inputs:
        with pytest.raises(TypeError):
            AlternatingPairing.from_json(bad)
    back = AlternatingPairing.from_json({**obj, "invariant_factors": [4, "4"]})
    assert back.gram == ((0, Fraction(1, 4)), (Fraction(3, 4), 0))


def test_gram_shape_validation():
    group = FiniteAbelianGroup([2, 2])
    with pytest.raises(InvalidPairing):
        AlternatingPairing(group, [[0]])


def _pairing_from_entries(factors, entries):
    k = len(factors)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i, j, v in entries:
        gram[i][j] = Fraction(v)
        gram[j][i] = -Fraction(v)
    return AlternatingPairing(FiniteAbelianGroup(factors), gram)


@pytest.mark.parametrize("factors, entries, expected", [
    ((128, 128), [(0, 1, "1/128")], (((0, 1),), (128,), 128)),
    ((3, 9, 27, 27), [(0, 1, "1/3"), (2, 3, "1/27")],
     (((0, 0, 0, 1), (0, 1, 0, 0)), (27, 9), 243)),
])
def test_isotropic_subgroup_of_primary_parts_past_4096(factors, entries, expected):
    # primary parts of 16384 and 19683 elements: no enumeration, no cap
    p = _pairing_from_entries(factors, entries)
    sub = isotropic_subgroup(p)
    assert (sub.generators, sub.generator_orders, sub.order) == expected
    for g in sub.generators:
        for h in sub.generators:
            assert p.value(g, h) == 0
    assert (sub.order ** 2) % p.group.order == 0


def test_last_basis_vector_is_first_of_maximal_order():
    # the closed form isotropic_subgroup relies on, checked by enumeration
    for factors in ([2], [4], [2, 2], [2, 8], [3, 9], [9, 9], [2, 4, 4],
                    [3, 3, 27], [5, 25], [2, 2, 2, 16]):
        group = FiniteAbelianGroup(factors)
        first = next(x for x in group.elements()
                     if group.element_order(x) == group.exponent)
        assert first == (0,) * (len(factors) - 1) + (1,)


def _perturbed(rng, p):
    """p, or with probability 1/5 a gram entry moved so that one of the
    three validation tests fails."""
    k = p.group.ngens
    if not k or rng.random() < 0.8:
        return p
    gram = [list(row) for row in p.gram]
    i, j = rng.randrange(k), rng.randrange(k)
    gram[i][j] += Fraction(1, rng.choice([2, 3, 4, 5, 8, 9, 64]))
    return AlternatingPairing(p.group, gram)


def test_integer_path_matches_the_fraction_oracle():
    # generators, orders, values and validation messages against the
    # former Fraction path with abelian_quotient and solve_left per level
    rng = random.Random(1414)
    seen = {"valid": 0, "invalid": 0, "orders": set(), "gens": set()}
    for _ in range(1200):
        p = _perturbed(rng, random_pairing(rng, max_order=rng.choice([16, 256, 4096, 100000]),
                                           max_gens=rng.randint(1, 6)))
        k = p.group.ngens
        check = validate_pairing(p)
        oracle = validate_pairing_by_fractions(p)
        assert (check.ok, check.message) == (oracle.ok, oracle.message)
        for _ in range(3):
            x = [rng.randint(-60, 60) for _ in range(k)]
            y = [rng.randint(-60, 60) for _ in range(k)]
            assert p.value(x, y) == value_by_fractions(p, x, y)
        if not check:
            seen["invalid"] += 1
            with pytest.raises(InvalidPairing, match=re.escape(oracle.message)):
                isotropic_subgroup(p)
            continue
        seen["valid"] += 1
        seen["orders"].add(p.group.order)
        seen["gens"].add(k)
        got, want = isotropic_subgroup(p), isotropic_subgroup_by_solve(p)
        assert (got.generators, got.generator_orders, got.order) == \
            (want.generators, want.generator_orders, want.order), p.to_json()
    assert seen["valid"] >= 900 and seen["invalid"] >= 100
    assert seen["gens"] == {1, 2, 3, 4, 5, 6} and max(seen["orders"]) > 4096


def test_three_smith_forms_per_level(monkeypatch):
    from aniso import lattice, pairing
    counts = {"reductions": 0, "levels": 0}
    reduce, primary = lattice._smith_reduce, pairing._isotropic_primary

    def counted_reduce(m):
        counts["reductions"] += 1
        return reduce(m)

    def counted_primary(ell, factors, gram, den):
        counts["levels"] += bool(factors)
        return primary(ell, factors, gram, den)

    monkeypatch.setattr(lattice, "_smith_reduce", counted_reduce)
    monkeypatch.setattr(pairing, "_isotropic_primary", counted_primary)
    rng = random.Random(2121)
    for _ in range(100):
        p = random_pairing(rng, max_order=4096, max_gens=5)
        counts["reductions"] = counts["levels"] = 0
        sub = isotropic_subgroup(p)
        # each level splits off exactly one generator
        assert counts["levels"] == len(sub.generators) >= 1
        assert counts["reductions"] == 3 * counts["levels"]
