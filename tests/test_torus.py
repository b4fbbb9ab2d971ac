import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aniso.lattice import IntMatrix
from aniso.torus import (AveragingCertificate, BadGroupTable,
                         CharDividesOrder, NotAnisotropic, NotInvariant,
                         OrderMismatch, TorusError, TorusModel,
                         averaging_certificate, coset_order, cyclic_table,
                         exponent_bound_check,
                         is_anisotropic, norm_quotient_torus, symmetric_table,
                         table_from_permutation_generators, torsion_points,
                         validate_group_table)
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
