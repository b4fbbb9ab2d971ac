"""Acceptance gate: ten exact checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Every
check is exact-arithmetic; the timed ones assert their own budgets.
"""

import random
import time
from fractions import Fraction

from aniso import fieldmatrix
from aniso.bounds import (BoundQuery, FiniteMatrixGroup, bound_calculator,
                          burnside_divisibility_check, minkowski_values)
from aniso.csa import (SymbolAlgebraSpec, WeylModPSpec, algebra_inverse,
                       distinct_irreducible_family,
                       inseparable_torsion_subgroup, weyl_split_verification)
from aniso.lattice import IntMatrix
from aniso.pairing import (GroupTooLarge, brute_force_isotropic_max,
                           commutator_pairing_from_central_extension,
                           is_perfect, isotropic_subgroup, random_pairing,
                           validate_pairing)
from aniso.quadform import (QuadraticForm, arf_invariant_class,
                            arf_normal_form, extract_isotropic_from_order_p,
                            pfister_build, pfister_group_closure,
                            pfister_refute_point, random_candidate)
from aniso.scalars import (Field, cyclotomic, finite_field, function_field,
                           prime_field, rationals)
from aniso.torus import (TorusModel, cyclic_table, exponent_bound_check,
                         norm_quotient_torus, symmetric_table, torsion_points)
from oracles import (enumerate_nondegenerate_forms, invertible_matrices,
                     represents_zero_exhaustive)


def _report(num, ok, text):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_minkowski_table():
    start = time.perf_counter()
    got = [(minkowski_values(n).upsilon_a, minkowski_values(n).upsilon_m)
           for n in (1, 2, 3)]
    elapsed = time.perf_counter() - start
    ok = got == [(2, 2), (12, 24), (48, 48)] and elapsed < 0.001
    _report(1, ok, "value table (2,2), (12,24), (48,48) exact in "
            f"{elapsed * 1000:.3f} ms")


def _scenario_tori():
    yield 1, TorusModel(1, [IntMatrix.from_rows([[-1]])], label="rank-1")
    for n in (2, 3, 4):
        yield n - 1, norm_quotient_torus(cyclic_table(n), label=f"Z/{n}")
    yield 5, norm_quotient_torus(symmetric_table(3), label="S_3")


_TORSION_RUNS = []


def test_criterion_2_torsion_exponents_divide_theta():
    start = time.perf_counter()
    checked = 0
    ok = True
    for rank, model in _scenario_tori():
        assert model.rank == rank
        for d in range(2, 51):
            rep = torsion_points(model, d)
            _TORSION_RUNS.append((rank, rep))
            checked += 1
            if model.theta_order % rep.group.exponent:
                ok = False
        report = exponent_bound_check(model, 50)
        ok = ok and report.all_pass
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(2, ok, f"{checked} torsion groups across 5 tori, every exponent "
            f"divides the acting group order, {elapsed:.2f} s")


def test_criterion_3_torsion_orders_divide_minkowski_power():
    assert _TORSION_RUNS, "criterion 2 must run first"
    checked = 0
    ok = True
    for rank, rep in _TORSION_RUNS:
        if rank > 3:
            continue
        bound = minkowski_values(rank).upsilon_m ** rank
        checked += 1
        if bound % rep.group.order:
            ok = False
    _report(3, ok, f"{checked} torsion groups of rank <= 3 all have order "
            "dividing the n-th power of the table value")


def test_criterion_4_random_pairings_isotropic_property():
    start = time.perf_counter()
    rng = random.Random(0)
    cross_checked = 0
    ok = True
    for _ in range(200):
        p = random_pairing(rng, max_order=256)
        if p.group.order > 256 or not validate_pairing(p):
            ok = False
            break
        sub = isotropic_subgroup(p)
        for g in sub.generators:
            for h in sub.generators:
                if p.value(g, h) != 0:
                    ok = False
        if (sub.order ** 2) % p.group.order:
            ok = False
        try:
            best, _ = brute_force_isotropic_max(p)
            cross_checked += 1
            if best != sub.order:
                ok = False
        except GroupTooLarge:
            pass  # oracle infeasible on this instance; property still checked
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(4, ok, "200 seeded pairings: isotropic subgroup vanishes and its "
            f"square covers the order; {cross_checked} instances "
            f"cross-checked against the exhaustive oracle, {elapsed:.2f} s")


def test_criterion_5_symbol_algebra_heisenberg():
    ok = True
    for n in (2, 3, 5):
        base = function_field(cyclotomic(n), ("a", "b"))
        fld = Field(base)
        spec = SymbolAlgebraSpec(base, n, fld.var("a"), fld.var("b"))
        for i in range(n):
            for j in range(n):
                x = spec.u ** i * spec.v ** j if (i or j) else spec.one
                scalar = x.scalar_part() is not None
                if scalar != ((i, j) == (0, 0)):
                    ok = False  # classes u^i v^j must be pairwise distinct
                if (x ** n).scalar_part() is None:
                    ok = False  # exponent must divide n
        result = commutator_pairing_from_central_extension(
            [spec.u, spec.v], mul=lambda x, y: x * y, inv=algebra_inverse,
            scalar_part=lambda x: x.scalar_part())
        pairing = result.pairing
        if result.generator_orders != (n, n):
            ok = False
        if pairing.group.invariant_factors != (n, n):
            ok = False
        if not is_perfect(pairing):
            ok = False
        if pairing.value((0, 1), (1, 0)) != Fraction(1, n):
            ok = False
    _report(5, ok, "the two-generator projective subgroup has order exactly "
            "n^2 with exponent n and perfect commutator pairing of value "
            "1/n for n in {2, 3, 5}")


def test_criterion_6_weyl_split_and_unbounded_subgroups():
    start = time.perf_counter()
    ok = True
    for p in (2, 3, 5):
        spec = WeylModPSpec(p)
        if not weyl_split_verification(spec).ok:
            ok = False
        for m in (1, 2, 3, 4):
            family = distinct_irreducible_family(spec, m)
            rep = inseparable_torsion_subgroup(spec, family)
            if rep.rank != m or rep.group_order != p ** m:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(6, ok, "split certificates verified for p in {2, 3, 5} and "
            f"elementary abelian subgroups of rank 1..4 built, {elapsed:.2f} s")


def _orbit_count(descriptor):
    forms = list(enumerate_nondegenerate_forms(descriptor, 2))
    matrices = list(invertible_matrices(descriptor, 2))
    remaining = set(forms)
    orbits = []
    while remaining:
        seed_form = min(remaining, key=lambda q: sorted(q.to_json()["coeffs"]))
        orbit = {seed_form.transform(m) for m in matrices}
        orbits.append(orbit)
        remaining -= orbit
    return forms, orbits


def test_criterion_7_char2_classification():
    start = time.perf_counter()
    ok = True
    for descriptor in (prime_field(2), finite_field(2, 2)):
        field = Field(descriptor)
        forms, orbits = _orbit_count(descriptor)
        if len(orbits) != 2:
            ok = False
        arfs = [arf_normal_form(q).arf for q in forms]
        for q1, arf1 in zip(forms, arfs):
            for q2, arf2 in zip(forms, arfs):
                same_orbit = any(q1 in orbit and q2 in orbit
                                 for orbit in orbits)
                same_arf = arf_invariant_class(arf1, arf2, field)
                if same_orbit != same_arf:
                    ok = False
    four_dim = 0
    for q in enumerate_nondegenerate_forms(prime_field(2), 4,
                                           cap=2 ** 20):
        four_dim += 1
        vec = represents_zero_exhaustive(q)
        if vec is None or not q.evaluate(vec).is_zero:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and four_dim == 448 and elapsed < 60.0
    _report(7, ok, "two equivalence classes in dimension 2 over F_2 and F_4 "
            "separated by the normal-form invariant; all 448 nondegenerate "
            f"dimension-4 forms over F_2 represent zero, {elapsed:.2f} s")


def test_criterion_8_isotropic_extraction():
    ok = True
    f3 = prime_field(3)
    field3 = Field(f3)
    q3 = QuadraticForm(f3, 3, {(i, i): field3.one for i in range(3)})
    cyc3 = fieldmatrix.mat_from_rows([
        [field3.zero, field3.zero, field3.one],
        [field3.one, field3.zero, field3.zero],
        [field3.zero, field3.one, field3.zero]])
    vec3 = extract_isotropic_from_order_p(cyc3, q3)
    if not q3.evaluate(vec3).is_zero or all(x.is_zero for x in vec3):
        ok = False

    f5 = prime_field(5)
    field5 = Field(f5)
    q5 = QuadraticForm(f5, 5, {(i, i): field5.one for i in range(5)})
    rows = [[field5.one if j == (i + 1) % 5 else field5.zero
             for j in range(5)] for i in range(5)]
    vec5 = extract_isotropic_from_order_p(fieldmatrix.mat_from_rows(rows), q5)
    if not q5.evaluate(vec5).is_zero or all(x.is_zero for x in vec5):
        ok = False
    _report(8, ok, "order-p isometries yield verified isotropic vectors in "
            "characteristics 3 and 5")


def test_criterion_9_pfister_k3():
    start = time.perf_counter()
    data = pfister_build(3)
    sigma, tau = data.sigma, data.tau
    ident = fieldmatrix.identity(data.field, data.n)
    ok = fieldmatrix.mat_eq(fieldmatrix.mat_pow(sigma, 2), ident)
    tau_sq = fieldmatrix.scalar_of(fieldmatrix.mat_pow(tau, 2))
    ok = ok and tau_sq is not None  # tau^2 = 1 projectively
    ok = ok and not fieldmatrix.mat_eq(
        fieldmatrix.mat_mul(sigma, tau), fieldmatrix.mat_mul(tau, sigma))
    ok = ok and data.form.transform(tau) == data.form.scale(
        data.top_coefficient)
    group = pfister_group_closure(3)
    ok = ok and group.order == 8 and (8 ** 7) % group.order == 0
    ok = ok and group.nonabelian
    iota = group.iota_index
    ok = ok and iota != 0 and group.table[iota][iota] == 0
    ok = ok and set(group.projective_orders) <= {1, 2, 4}
    rng = random.Random(0)
    refuted = 0
    for _ in range(100):
        candidate = random_candidate(3, rng, degree=3)
        if not pfister_refute_point(3, candidate).value.is_zero:
            refuted += 1
    elapsed = time.perf_counter() - start
    ok = ok and refuted == 100 and elapsed < 60.0
    _report(9, ok, "projective isometries verified on the 8-dimensional "
            "multiplier form, closure of order 8 | 8^7 with element orders "
            f"in {{1, 2, 4}}, {refuted}/100 candidates refuted, "
            f"{elapsed:.2f} s")


def test_criterion_10_divisibility_checker():
    ok = True
    field5 = Field(cyclotomic(5))
    z = field5.zeta(5)
    cyclic = FiniteMatrixGroup(cyclotomic(5),
                               [fieldmatrix.mat_from_rows([[z ** k]])
                                for k in range(5)])
    rep1 = burnside_divisibility_check(cyclic, 5)
    ok = ok and rep1.hypothesis_holds and rep1.divides and rep1.bound == 5

    fq = Field(rationals())
    r = fieldmatrix.mat_from_rows([[fq(0), fq(-1)], [fq(1), fq(-1)]])
    t = fieldmatrix.mat_from_rows([[fq(0), fq(1)], [fq(1), fq(0)]])
    s3 = FiniteMatrixGroup.from_generators(rationals(), [r, t])
    rep2 = burnside_divisibility_check(s3, 6)
    ok = (ok and rep2.hypothesis_holds and rep2.divides
          and rep2.coprime_order == 6 and rep2.bound == 36)

    f3 = Field(prime_field(3))
    a = fieldmatrix.mat_from_rows([[f3(1), f3(1)], [f3(0), f3(1)]])
    b = fieldmatrix.mat_from_rows([[f3(0), f3(-1)], [f3(1), f3(0)]])
    sl2 = FiniteMatrixGroup.from_generators(prime_field(3), [a, b])
    rep3 = burnside_divisibility_check(sl2, 4)
    ok = (ok and sl2.order == 24 and rep3.hypothesis_holds and rep3.divides
          and rep3.coprime_order == 8 and rep3.bound == 16)
    _report(10, ok, "hypothesis confirmed and exact divisibility holds on "
            "the cyclic, symmetric, and order-24 matrix groups")
