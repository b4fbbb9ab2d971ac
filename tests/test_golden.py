"""Byte-identity of CLI reports and demo output against checked-in goldens.

Each case runs one `aniso` command in-process and compares its stdout, byte
for byte, with `tests/golden/<name>.out.json`. Inputs read from stdin live
in `tests/golden/<name>.in.json`. Each `demo-<script>` case runs
`demos/<script>.py` and compares its stdout with
`tests/golden/demo-<script>.out.txt`. The `csa norm` golden whose
denominators are not monomials also has its field inversions counted, and
the dense n = 4 and n = 5 ones their reductions mod Phi_n. A case exits 0
unless EXIT_CODES names the error status it reports with. A change that is meant to alter
one of these outputs rewrites its golden file with

    PYTHONPATH=src python tests/test_golden.py <name> ...
"""

import copy
import functools
import hashlib
import io
import json
import operator
import re
import runpy
import sys
from pathlib import Path
from typing import Optional

import pytest

from aniso.cli import main
from deadline import deadline

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

CASES = {
    "replay-all": ["replay", "--json"],
    "quad-pfister-k3": ["quad", "pfister", "--k", "3", "--trials", "50", "--seed", "0",
                        "--json"],
    "csa-verify-weyl-p5": ["csa", "verify-weyl", "--p", "5", "--json"],
    "csa-verify-weyl-p7": ["csa", "verify-weyl", "--p", "7", "--json"],
    "quad-arf-f16-dim4": ["quad", "arf", "--input", "-", "--json"],
    "quad-extract-isotropic-p5": ["quad", "extract-isotropic", "--input", "-", "--json"],
    "csa-norm-dense-n4": ["csa", "norm", "--input", "-", "--json"],
    "quad-arf-f256-dim4": ["quad", "arf", "--input", "-", "--json"],
    "csa-torsion-p3-m3": ["csa", "torsion", "--p", "3", "--m", "3", "--json"],
    "csa-norm-cyclotomic3-fractional": ["csa", "norm", "--input", "-", "--json"],
    "csa-norm-cyclotomic3-nonmonomial-den": ["csa", "norm", "--input", "-", "--json"],
    "csa-norm-dense-n5-fractional": ["csa", "norm", "--input", "-", "--json"],
    "csa-norm-dense-n7": ["csa", "norm", "--input", "-", "--json"],
    "csa-norm-degree-cap": ["csa", "norm", "--input", "-", "--json"],
    "torus-analyze-s4-d30": ["torus", "analyze", "--input", "-", "--d-max", "30", "--json"],
    "torus-analyze-c6-d30": ["torus", "analyze", "--input", "-", "--d-max", "30", "--json"],
    "torus-analyze-swap-d12": ["torus", "analyze", "--input", "-", "--d-max", "12",
                               "--json"],
    "torus-analyze-d-max-cap": ["torus", "analyze", "--d-max", "100001", "--json"],
    "pairing-isotropic-12-36": ["pairing", "isotropic", "--input", "-", "--json"],
    "pairing-isotropic-12-12-12": ["pairing", "isotropic", "--input", "-", "--json"],
    "pairing-fuzz-defaults": ["pairing", "fuzz", "--json"],
    "pairing-fuzz-max-order-1": ["pairing", "fuzz", "--max-order", "1", "--json"],
}
# the exit status of each case that reports an error; every other case exits 0
EXIT_CODES = {"csa-norm-degree-cap": 2, "torus-analyze-d-max-cap": 2,
              "pairing-fuzz-max-order-1": 2}
DEMO_CASES = sorted(f"demo-{path.stem}" for path in DEMOS.glob("*.py"))


def run_case(name: str, payload: Optional[str] = None) -> tuple[int, str]:
    """Run case name on its golden input, or on payload when given."""
    stdin = GOLDEN / f"{name}.in.json"
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdout = io.StringIO()
    if payload is not None:
        sys.stdin = io.StringIO(payload)
    elif stdin.exists():
        sys.stdin = io.StringIO(stdin.read_text())
    try:
        code = main(CASES[name])
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


def run_demo(name: str) -> str:
    old_out = sys.stdout
    sys.stdout = io.StringIO()
    try:
        runpy.run_path(str(DEMOS / f"{name.removeprefix('demo-')}.py"),
                       run_name="__main__")
        return sys.stdout.getvalue()
    finally:
        sys.stdout = old_out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = run_case(name)
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.out.json").read_text()


def _shape(path: tuple) -> tuple:
    return tuple("*" if isinstance(key, int) or re.fullmatch(r"\d+,\d+", key) else key
                 for key in path)


def _first_fields(node, path: tuple = (), seen: Optional[set] = None):
    """The path of each list or object inside node, the first of each
    shape: list indices and "i,j" keys are one shape whatever they hold."""
    seen = set() if seen is None else seen
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(child, (list, dict)):
            here = path + (key,)
            if _shape(here) not in seen:
                seen.add(_shape(here))
                yield here
            yield from _first_fields(child, here, seen)


def _at(node, keys):
    return functools.reduce(operator.getitem, keys, node)


# the csa norm coefficients, where a string such as "12" is a field element
SCALAR_SHAPES = {("element", "*")}


def _replacements(path: tuple, value) -> list:
    """"12", unless a string is a field element there, {"a": "1"}, and for
    a list of one-character strings those characters as one string, which
    would be read as the list if it were iterated."""
    out = [{"a": "1"}] if _shape(path) in SCALAR_SHAPES else ["12", {"a": "1"}]
    if isinstance(value, list) and all(isinstance(x, str) and len(x) == 1 for x in value):
        out.append("".join(value))
    return out


def test_malformed_shapes_are_json_errors():
    # each list or object field of every golden input, replaced by a string
    # (which must not be iterated as if it were a list) or by an object,
    # is refused with a JSON error and exit 2, never a traceback
    failures, runs = [], 0
    for name in sorted(CASES):
        source = GOLDEN / f"{name}.in.json"
        if not source.exists():
            continue
        good = json.loads(source.read_text())
        for path in _first_fields(good):
            *parents, last = path
            for bad in _replacements(path, _at(good, parents)[last]):
                obj = copy.deepcopy(good)
                _at(obj, parents)[last] = bad
                code, out = run_case(name, json.dumps(obj))
                runs += 1
                if code != 2 or "error" not in json.loads(out):
                    failures.append((name, path, bad, code))
    assert failures == [] and runs == 111


def test_general_gcd_golden_inverts_at_most_65_times(monkeypatch):
    # the one golden whose denominators in a, b are not monomials runs the
    # primitive pseudo-remainder gcd; its base-field inversions count its
    # work, one for each polynomial made monic
    from aniso.scalars import _Cyclotomic
    calls, inv = [], _Cyclotomic._inv
    monkeypatch.setattr(_Cyclotomic, "_inv", lambda self, x: calls.append(x) or inv(self, x))
    code, out = run_case("csa-norm-cyclotomic3-nonmonomial-den")
    assert code == 0 and len(calls) <= 65


def test_second_f256_arf_request_multiplies_no_polynomials(monkeypatch):
    # once F_256 has built its log tables, products, inverses and powers are
    # table lookups: no F_p[t] product runs on a second request
    from aniso import scalars
    run_case("quad-arf-f256-dim4")
    calls, u_mul = [], scalars._u_mul
    monkeypatch.setattr(scalars, "_u_mul", lambda *args: calls.append(args) or u_mul(*args))
    code, out = run_case("quad-arf-f256-dim4")
    assert code == 0 and out == (GOLDEN / "quad-arf-f256-dim4.out.json").read_text()
    assert calls == []


def test_f16_arf_request_builds_30_field_elements(monkeypatch):
    # the form, its Gram rows and the normal form run on payloads, so the
    # FieldElements are the JSON edges: 9 coefficients read, and the Arf
    # parameter, 4 canonical coefficients and 16 matrix entries written
    # (434 when the reduction ran on FieldElements)
    from aniso.scalars import FieldElement
    run_case("quad-arf-f16-dim4")  # field tables built outside the count
    built, init = [], FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, d, p: built.append(1) or init(self, d, p))
    code, out = run_case("quad-arf-f16-dim4")
    monkeypatch.undo()
    assert code == 0 and out == (GOLDEN / "quad-arf-f16-dim4.out.json").read_text()
    assert len(built) == 30


def _count_cyclotomic_reductions(name, monkeypatch) -> int:
    # one warm-up request builds what later requests share, so the count of
    # the second one is exact; csa binds the reduction by name for the
    # packed determinant's cells, so both names are counted
    from aniso import csa, scalars
    run_case(name)
    calls, reduce_ints = [], scalars._cy_reduce_ints

    def counted(*args):
        calls.append(args)
        return reduce_ints(*args)

    monkeypatch.setattr(scalars, "_cy_reduce_ints", counted)
    monkeypatch.setattr(csa, "_cy_reduce_ints", counted)
    code, out = run_case(name)
    assert code == 0 and out == (GOLDEN / f"{name}.out.json").read_text()
    return len(calls)


def test_dense_n4_norm_reduces_47_cyclotomic_products(monkeypatch):
    # the whole request: 19 reductions reading the element, none building
    # right multiplication (its entries are integers times powers of z4),
    # and one per nonzero cell of the packed determinant, whose expansion
    # runs mod z^4 - 1 on integers and reduces nothing: 28 cells, the 16
    # monomials a^i b^j of the norm and 12 cells whose u-degree is not a
    # multiple of 4, each checked to vanish mod Phi_4. The expansion on
    # payloads reduced 24 times, 43 in all; Berkowitz's recurrence took
    # 119, and reducing each product without a rational factor on its own
    # 229
    assert _count_cyclotomic_reductions("csa-norm-dense-n4", monkeypatch) == 47


def test_dense_n5_fractional_norm_reduces_241_cyclotomic_products(monkeypatch):
    # the same over Q(z5)(a, b) with fractional coefficients: 31 reading,
    # 80 building right multiplication and 130 nonzero cells of the packed
    # determinant. The expansion on payloads took 1,210 (1,650 with the
    # products past u^4 summed on their own), Berkowitz's recurrence
    # 2,243, and one reduction per product 14,610
    assert _count_cyclotomic_reductions("csa-norm-dense-n5-fractional", monkeypatch) == 241


def test_dense_n5_norm_with_a_nonmonomial_denominator_ends(monkeypatch):
    # the n5 golden with its one denominator set to b + 1/2 - z5: the
    # expansion runs on the element times its denominator, so no gcd runs
    # per addition. It took 11 s without that; an alarm turns a slow path
    # into a failure
    obj = json.loads((GOLDEN / "csa-norm-dense-n5-fractional.in.json").read_text())
    obj["element"]["2,3"]["den"] = {"0,0": ["1/2", "-1", "0", "0"],
                                    "0,1": ["1", "0", "0", "0"]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    with deadline(5):
        code = main(["csa", "norm", "--input", "-", "--json"])
    digest = hashlib.sha256(sys.stdout.getvalue().encode()).hexdigest()
    assert code == 0
    assert digest == "426978b0e75e137b99928988e9cf025f903da2faba2a1bb78d29ab78a3cb85b3"


def test_every_demo_has_a_golden():
    assert DEMO_CASES == sorted(path.name.removesuffix(".out.txt")
                                for path in GOLDEN.glob("demo-*.out.txt"))


@pytest.mark.parametrize("name", DEMO_CASES)
def test_demo_matches_golden(name):
    assert run_demo(name) == (GOLDEN / f"{name}.out.txt").read_text()


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name in DEMO_CASES:
            (GOLDEN / f"{name}.out.txt").write_text(run_demo(name))
            continue
        code, out = run_case(name)
        if code != EXIT_CODES.get(name, 0):
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out.json").write_text(out)
