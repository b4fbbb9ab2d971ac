import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from aniso import lattice
from aniso.cli import main
from aniso.lattice import (AbelianGroupStructure, ClosureCapExceeded, IntMatrix, _stack_smith,
                           h1_of_theta_module)
from aniso.torus import (AveragingCertificate, BadGroupTable,
                         CharDividesOrder, NotAnisotropic, NotInvariant,
                         OrderMismatch, TorusError, TorusModel,
                         averaging_certificate, coset_order, cyclic_table,
                         exponent_bound_check,
                         is_anisotropic, norm_quotient_torus, symmetric_table,
                         table_from_permutation_generators, torsion_points,
                         validate_group_table)
from deadline import deadline
from oracles import enumerate_invariant_cosets


def rank_one_nonsplit():
    return TorusModel(1, [IntMatrix.from_rows([[-1]])], label="nonsplit")


def test_model_validation():
    with pytest.raises(TorusError):
        TorusModel(0, [])
    with pytest.raises(TorusError):
        TorusModel(2, [IntMatrix.from_rows([[1]])])  # wrong size
    with pytest.raises(TorusError):
        TorusModel(1, [IntMatrix.from_rows([[2]])])  # det 2


def test_anisotropy_detection():
    assert is_anisotropic(rank_one_nonsplit())
    assert not is_anisotropic(TorusModel(1, [IntMatrix.identity(1)]))
    swap = TorusModel(2, [IntMatrix.from_rows([[0, 1], [1, 0]])])
    assert not is_anisotropic(swap)  # (1,1) is fixed


def test_rank_one_torsion_structure():
    t = rank_one_nonsplit()
    rep = torsion_points(t, 2)
    assert rep.group.invariant_factors == (2,)
    assert rep.divisibility_check
    assert (1,) in rep.witnesses

    for d in (3, 5, 7, 9):
        assert torsion_points(t, d).group.invariant_factors == ()
    for d in (4, 6, 8, 20):
        assert torsion_points(t, d).group.invariant_factors == (2,)


def test_exponent_bound_rank_one():
    report = exponent_bound_check(rank_one_nonsplit(), 20)
    assert report.all_pass
    assert report.theta_order == 2
    assert {e for _, e in report.rows} == {1, 2}


def test_exponent_bound_requires_anisotropy():
    with pytest.raises(NotAnisotropic):
        exponent_bound_check(TorusModel(1, [IntMatrix.identity(1)]), 5)


def test_characteristic_skips_and_rejects():
    t = TorusModel(1, [IntMatrix.from_rows([[-1]])], characteristic=2)
    with pytest.raises(CharDividesOrder):
        torsion_points(t, 4)
    report = exponent_bound_check(t, 10)
    assert all(d % 2 for d, _ in report.rows)  # even d skipped
    assert report.all_pass


def test_group_tables():
    validate_group_table(cyclic_table(4))
    validate_group_table(symmetric_table(3))
    with pytest.raises(BadGroupTable):
        validate_group_table([[0, 1], [0, 1]])  # second row not a bijection
    assert len(symmetric_table(3)) == 6
    assert len(symmetric_table(4)) == 24


def _relabelled(table, rng):
    """table with the labels 1..n-1 permuted at random; 0 stays the identity."""
    n = len(table)
    new = [0] + rng.sample(range(1, n), n - 1)
    old = [0] * n
    for i, x in enumerate(new):
        old[x] = i
    return [[new[table[old[a]][old[b]]] for b in range(n)] for a in range(n)]


def _random_loop(n, rng):
    """A random Latin square of order n whose row and column 0 are the
    identity, filled row-major by backtracking over shuffled symbols."""
    square = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(square[i][:j]) | {square[k][j] for k in range(i)}
        for x in rng.sample(range(n), n):
            if x not in used:
                square[i][j] = x
                if fill(c + 1):
                    return True
        square[i][j] = None
        return False

    assert fill(0)
    return square


def _direct_product(a, b):
    """The table of pairs (i, j), labelled i + len(a) j."""
    n = len(a)
    return [[a[x % n][y % n] + n * b[x // n][y // n] for y in range(n * len(b))]
            for x in range(n * len(b))]


def _validation_outcome(validate, table):
    try:
        validate(table)
    except BadGroupTable as exc:
        return str(exc)
    return "ok"


def test_light_test_matches_the_triples_oracle():
    from oracles import validate_group_table_by_triples
    rng = random.Random(2222)
    tables = [[], [[0, 1]], [[0, 1], [1, 1]], [[0, 1], [0, 1]], [[1, 0], [0, 1]]]
    for base in [cyclic_table(n) for n in range(1, 9)] + [symmetric_table(3),
                                                          symmetric_table(4)]:
        for _ in range(5):
            table = _relabelled(base, rng)
            tables.append(table)
            if len(table) > 2:  # two entries of a row swapped
                broken = [row[:] for row in table]
                i, j, k = rng.randrange(len(table)), *rng.sample(range(1, len(table)), 2)
                broken[i][j], broken[i][k] = broken[i][k], broken[i][j]
                tables.append(broken)
    tables += [_random_loop(rng.randint(2, 7), rng) for _ in range(150)]
    # C_c x M keeps 1 = (1, e) first, which associates with everything, so
    # only a later kept generator can show that M does not; for c = 4 the
    # labels 2 and 3 lie in <1>, so the kept generators are not labels 1..k
    tables += [_direct_product(cyclic_table(c), _random_loop(rng.randint(5, 6), rng))
               for c in (2, 4) for _ in range(5)]
    outcomes = [_validation_outcome(validate_group_table, t) for t in tables]
    assert outcomes == [_validation_outcome(validate_group_table_by_triples, t)
                        for t in tables]
    assert outcomes.count("ok") > 50 and outcomes.count("associativity fails") > 50
    assert {"empty table", "table is not square over valid indices",
            "index 0 must act as the identity",
            "table rows and columns must be permutations"} <= set(outcomes)


class _CountingRows(list):
    """A table that counts its indexed row reads."""
    reads = 0

    def __getitem__(self, i):
        _CountingRows.reads += 1
        return super().__getitem__(i)


def test_light_test_reads_s5_rows_per_closure_product():
    # 3n reads in the identity and permutation checks, one per product of
    # the closure (566 for the 4 kept generators), and none in Light's
    # loop, which walks the rows; the triple loop read 6,912,480
    table = _CountingRows(symmetric_table(5))
    _CountingRows.reads = 0
    validate_group_table(table)
    assert _CountingRows.reads == 3 * 120 + 566 < 120 ** 3 // 4


def test_table_from_permutation_generators():
    # 3-cycle generates Z/3
    table = table_from_permutation_generators([(1, 2, 0)], 3)
    assert len(table) == 3
    validate_group_table(table)
    # S_4 from a 4-cycle and a transposition: breadth-first element order
    s4 = table_from_permutation_generators([(1, 2, 3, 0), (1, 0, 2, 3)])
    assert len(s4) == 24
    assert s4[1][:12] == [1, 3, 4, 6, 7, 8, 0, 11, 12, 13, 14, 2]
    assert s4[5][:12] == [5, 9, 10, 14, 15, 11, 2, 8, 20, 16, 6, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_norm_quotient_cyclic(n):
    t = norm_quotient_torus(cyclic_table(n), label=f"Z/{n}")
    assert t.rank == n - 1
    assert t.theta_order == n
    assert t.norm_group_order == n
    assert is_anisotropic(t)
    report = exponent_bound_check(t, 30)
    assert report.all_pass  # every torsion exponent divides n


def test_norm_quotient_symmetric():
    t = norm_quotient_torus(symmetric_table(3), label="S_3")
    assert t.rank == 5
    assert t.theta_order == 6
    assert is_anisotropic(t)
    report = exponent_bound_check(t, 30)
    assert report.all_pass


def test_norm_quotient_torsion_realizes_group_order():
    # Z/3 quotient torus: 3-torsion contains a cyclic group of order 3
    t = norm_quotient_torus(cyclic_table(3))
    rep = torsion_points(t, 3)
    assert rep.group.exponent == 3


def _count_closure_work(monkeypatch):
    """Count the products the closure makes, the vector-matrix products
    behind them, and the Bareiss eliminations (determinants, inverses)."""
    counts = {"products": 0, "rows": 0, "bareiss": 0}
    closure, vec_mat, bareiss = lattice.closure, lattice._vec_mat, lattice._bareiss

    def counting_closure(identity, generators, mul, *rest):
        def counting(a, b):
            counts["products"] += 1
            return mul(a, b)
        return closure(identity, generators, counting, *rest)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(lattice, "closure", counting_closure)
    monkeypatch.setattr(lattice, "_vec_mat", counting("rows", vec_mat))
    monkeypatch.setattr(lattice, "_bareiss", counting("bareiss", bareiss))
    return counts


def test_theta_closure_products(monkeypatch):
    # Θ is closed over the generators it needs: 86 products for S_4 (23
    # generators, |Θ| = 24) and 8 for Z_8 (7 generators), within
    # 2 |Θ| log2 |Θ|, where one product per element and given generator
    # would be 552 and 56. Each product reads its rows from one dict per
    # kept generator, so 72 and 8 rows are multiplied out, not 86 * 23 =
    # 1,978 and 8 * 7 = 56; one Bareiss determinant per kept generator
    counts = _count_closure_work(monkeypatch)
    for table, order, products, rows, kept in ((symmetric_table(4), 24, 86, 72, 3),
                                               (cyclic_table(8), 8, 8, 8, 1)):
        counts.update(products=0, rows=0, bareiss=0)
        assert norm_quotient_torus(table).theta_order == order
        assert counts == {"products": products, "rows": rows, "bareiss": kept}
        assert products <= 2 * order * math.floor(math.log2(order))


def test_s5_norm_quotient_build(monkeypatch):
    # |Θ| = 120 from 119 generators of size 119 x 119: 4 are kept, each
    # admitted by one Bareiss determinant (none for the 115 others), and
    # the 566 products multiply out 480 distinct rows
    counts = _count_closure_work(monkeypatch)
    model = norm_quotient_torus(symmetric_table(5))
    assert (model.rank, model.theta_order) == (119, 120)
    assert counts == {"products": 566, "rows": 480, "bareiss": 4}
    digest = hashlib.sha256(repr([m.entries for m in model.theta_elements]).encode())
    assert digest.hexdigest() == ("1396d9deba96807517c6e5093fab4131"
                                  "fd70f185828c4b49436d5b8e089f85e6")


def test_s5_stack_smith_form_is_pinned():
    # the 14,161 x 119 stack of the 119 given generators: the elimination
    # costs the entries it changes, so the certified form takes about 2 s
    # (over 6 s when every row operation walked whole rows and every
    # column operation all rows); an alarm turns a slow path into a failure.
    # The model reduces the 476 x 119 stack of its 4 kept generators, which
    # has the same row lattice, and here the same diagonal and V
    with deadline(15):
        model = norm_quotient_torus(symmetric_table(5))
        given = _stack_smith(model.theta_generators)
        kept = model.theta_elements.stack_smith
        rows = exponent_bound_check(model, 30).rows
    pin = "6a17c3461c44c615fb6d039aa1f41d0c6aba7f0b2d06244b2466ea6a723faaca"
    for diag, v in (given, kept):
        assert hashlib.sha256(repr((diag, v.entries)).encode()).hexdigest() == pin
    assert len(model.theta_elements.kept) == 4
    assert given[0][-1] == 120
    assert rows == tuple((d, math.gcd(120, d)) for d in range(2, 31))


def test_s5_torus_analyze_report_is_pinned(monkeypatch):
    # the report reads only the diagonal, so it is the one the full stack
    # gave (2.4-4.1 s in a fresh process then, about 1.0-1.4 s on the kept
    # stack); H¹ closes Θ again and reduces the kept stack alone
    with deadline(5):
        model = norm_quotient_torus(symmetric_table(5))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(model.to_json())))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        code = main(["torus", "analyze", "--d-max", "30", "--json", "--input", "-"])
        h1 = h1_of_theta_module(model.theta_generators)
    digest = hashlib.sha256(sys.stdout.getvalue().encode()).hexdigest()
    assert code == 0 and digest.startswith("b58b21cd32d8e7e0")
    assert h1 == AbelianGroupStructure((120,))


def test_model_errors_keep_the_first_bad_generator_in_order():
    # the determinant is left to the closure's inverse of each kept
    # generator, but the error is still that of the first bad generator
    bad_det, bad_shape = IntMatrix.from_rows([[2, 0], [0, 1]]), IntMatrix.from_rows([[1]])
    unipotent, swap = IntMatrix.from_rows([[1, 1], [0, 1]]), IntMatrix.from_rows([[0, 1], [1, 0]])
    singular = IntMatrix.from_rows([[1, 0], [0, 0]])
    invertible = "generators must be invertible over the integers"
    cases = [([bad_det, bad_shape], invertible),
             ([swap, bad_det, bad_shape], invertible),
             ([bad_shape, bad_det], "generator size does not match rank"),
             ([swap, bad_shape, singular], "generator size does not match rank"),
             ([swap, singular], invertible),
             ([swap, swap, bad_det], invertible),
             # the closure of [[1, 1], [0, 1]] passes the cap before the
             # closure ever reaches [[2, 0], [0, 1]]
             ([unipotent, bad_det], invertible)]
    for gens, message in cases:
        with pytest.raises(TorusError) as info:
            TorusModel(2, gens)
        assert type(info.value) is TorusError and str(info.value) == message
    with pytest.raises(ClosureCapExceeded, match="closure exceeded cap 10000"):
        TorusModel(2, [unipotent, swap])


def test_averaging_certificate_rank_one():
    cert = averaging_certificate(rank_one_nonsplit(), 2, (1,))
    assert cert.holds
    assert cert.theta_order == 2


def test_averaging_certificate_errors():
    t = rank_one_nonsplit()
    with pytest.raises(OrderMismatch):
        averaging_certificate(t, 2, (0,))  # class of order 1, not 2
    rot = TorusModel(2, [IntMatrix.from_rows([[0, -1], [1, 0]])])
    with pytest.raises(NotInvariant):
        averaging_certificate(rot, 3, (1, 0))
    split = TorusModel(1, [IntMatrix.identity(1)])
    with pytest.raises(NotAnisotropic):
        averaging_certificate(split, 2, (1,))


def test_averaging_certificate_refuses_a_non_integer_lift():
    # int() would certify the lift (1,) of the sign-flip model
    with pytest.raises(TorusError, match=re.escape("entry 1.7 is not an integer")):
        averaging_certificate(rank_one_nonsplit(), 2, (1.7,))


def test_coset_order_refuses_non_integer_entries():
    # int() would read (2.9, 0) as (2, 0), of order 3 mod 6
    for bad in (2.9, Fraction(5, 2)):
        with pytest.raises(TorusError, match=re.escape(f"entry {bad!r} is not an integer")):
            coset_order((bad, 0), 6)


def test_coset_order():
    assert coset_order((1,), 4) == 4
    assert coset_order((2,), 4) == 2
    assert coset_order((0, 3), 9) == 3
    assert coset_order((0,), 5) == 1


def test_enumerate_invariant_cosets():
    t = rank_one_nonsplit()
    found = enumerate_invariant_cosets(t, 2)
    assert (1,) in found
    assert enumerate_invariant_cosets(t, 3) == [(0,)]


def test_json_roundtrip():
    t = norm_quotient_torus(cyclic_table(3), label="Z/3")
    back = TorusModel.from_json(t.to_json())
    assert back.rank == t.rank
    assert back.theta_generators == t.theta_generators
    assert back.label == "Z/3"
    assert back.norm_group_order == 3
    assert back.characteristic == 0
    assert back.to_json() == t.to_json()


def test_json_roundtrip_keeps_characteristic():
    t = TorusModel(1, [IntMatrix.from_rows([[-1]])], "char 5", characteristic=5)
    back = TorusModel.from_json(t.to_json())
    assert back.characteristic == 5
    assert back.norm_group_order is None
    assert back.to_json() == t.to_json()
    # the characteristic still filters torsion orders after the round trip
    with pytest.raises(CharDividesOrder):
        torsion_points(back, 5)


def test_from_json_refuses_float_and_boolean_scalars():
    # reading 2.5 or true as 2 or 1 would change the model
    obj = TorusModel(1, [IntMatrix.from_rows([[-1]])], "char 5",
                     characteristic=5, norm_group_order=2).to_json()
    for key in ("rank", "characteristic", "norm_group_order"):
        for bad in (2.5, True, 1.0):
            with pytest.raises(TypeError):
                TorusModel.from_json({**obj, key: bad})
    assert TorusModel.from_json({**obj, "characteristic": "5"}).characteristic == 5


def test_rotation_order_four_torsion():
    # rank-2 torus with theta of order 4: mod 2 the rotation is the swap,
    # so the invariant classes are the diagonal, a single Z/2
    rot = TorusModel(2, [IntMatrix.from_rows([[0, -1], [1, 0]])])
    assert is_anisotropic(rot)
    rep = torsion_points(rot, 2)
    assert rep.group.invariant_factors == (2,)
    assert rep.divisibility_check
    report = exponent_bound_check(rot, 30)
    assert report.all_pass


def test_the_torus_path_loads_no_field_layer():
    code = """
import sys
from aniso import lattice, torus, replay
assert [r["status"] for r in replay.run_replay(["example-2.5", "example-2.6"])] == ["pass"] * 2
field = ("scalars", "csa", "quadform", "fieldmatrix", "bounds", "pairing")
print([name for name in field if "aniso." + name in sys.modules])
import aniso
print(aniso.csa.SymbolAlgebraSpec.__name__, hasattr(aniso, "no_such_module"))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.splitlines() == ["[]", "SymbolAlgebraSpec False"]
