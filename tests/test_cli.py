import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from aniso import cli
from aniso.cli import main
from aniso.quadform import QuadraticForm, canonical_char2_form
from aniso.replay import UnknownExampleId, replay_ids, run_replay
from aniso.scalars import (Field, descriptor_from_json, element_from_json,
                           element_to_json)


def run_cli(argv, stdin=None):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdout = io.StringIO()
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


def test_bounds_quadric_even_example():
    code, out = run_cli(["bounds", "--kind", "quadric_even", "--n", "4"])
    obj = json.loads(out)
    assert code == 0
    assert obj["divisor_bound"] == "512"


def test_bounds_minkowski_and_torsion_paths():
    code, out = run_cli(["bounds", "--kind", "minkowski", "--n", "2"])
    obj = json.loads(out)
    assert code == 0 and (obj["upsilon_a"], obj["upsilon_m"]) == ("12", "24")

    code, out = run_cli(["bounds", "--kind", "torsion", "--types", "B:2,F:4"])
    assert json.loads(out)["torsion_primes"] == ["2", "3"]


def test_payload_integers_are_decimal_strings_and_flags_may_hold_spaces():
    # int() read "0_2" as 2; a payload integer is -?[0-9]+ or a JSON integer
    code, out = run_cli(["csa", "norm", "--input", "-"],
                        stdin=json.dumps({"degree": "0_2", "element": {"1,0": "1"}}))
    assert code == 2 and json.loads(out)["error"] == {
        "type": "SchemaError", "path": "$.degree",
        "message": "$.degree: not a decimal integer: '0_2'"}
    # --types is a flag, not JSON: each rank is stripped before it is read
    code, out = run_cli(["bounds", "--kind", "torsion", "--types", "A: 2, G: 2"])
    assert code == 0 and json.loads(out)["types"] == ["A:2", "G:2"]


@pytest.mark.parametrize("text", ["1_000", "1e3", " 3/4 ", "+1", "1/0"])
def test_payload_rationals_are_decimal_strings(text):
    # csa norm read "1_000" as 1000 and " 3/4 " as 3/4, and "1/0" escaped
    # main as a ZeroDivisionError traceback; each is now a JSON error
    def element(c):
        return {"degree": "2", "element": {"0,0": {"num": {"0,0": [c]}}}}

    code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(element("3/4")))
    assert code == 0 and json.loads(out)["norm_repr"] == "(9/16)"
    code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(element(text)))
    assert code == 2 and json.loads(out)["error"]["path"] == "$.element"
    gram = {"invariant_factors": ["2", "2"], "gram": [["0", text], ["0", "0"]]}
    code, out = run_cli(["pairing", "isotropic", "--input", "-"], stdin=json.dumps(gram))
    assert code == 2 and json.loads(out)["error"] == {
        "type": "SchemaError", "path": "$.gram[0][1]",
        "message": f"$.gram[0][1]: not a rational: {text!r}"}


def test_bounds_missing_parameter_is_structured():
    code, out = run_cli(["bounds", "--kind", "torus"])
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["type"] == "MissingParameter"


def test_bounds_semisimple_char_p_rejects_composite_p():
    for p in ("1", "4"):
        code, out = run_cli(["bounds", "--kind", "semisimple_char_p", "--n", "2",
                             "--r", "1", "--N", "2", "--p", p, "--m", "1"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "BoundsError"


@pytest.mark.parametrize("argv", [
    ["--kind", "torus", "--n", "60"],
    ["--kind", "quadric_even", "--n", "100000"],
    ["--kind", "minkowski", "--n", "3000"],
    ["--kind", "reductive_perfect", "--n", "2", "--r", "1", "--N", "1000000000"],
    ["--kind", "minkowski", "--n", "100000000"],
], ids=lambda argv: " ".join(argv[1::2]))
def test_bounds_past_the_digit_limit_are_refused_up_front(argv):
    # the first three ended in a ValueError traceback from int-to-str
    # conversion, the last two ran the power 24^N and the sieve to n for
    # more than 10 s
    start = time.perf_counter()
    code, out = run_cli(["bounds", *argv, "--json"])
    assert time.perf_counter() - start < 1
    assert code == 2 and json.loads(out)["error"]["type"] == "BoundTooLarge"


def test_pairing_isotropic_refuses_an_exponent_it_cannot_factor():
    # trial division to the square root of this prime ran for more than 10 s
    big = 10 ** 48 + 7
    payload = {"invariant_factors": [str(big)] * 2,
               "gram": [["0", f"1/{big}"], [f"-1/{big}", "0"]]}
    start = time.perf_counter()
    code, out = run_cli(["pairing", "isotropic", "--input", "-", "--json"],
                        stdin=json.dumps(payload))
    assert time.perf_counter() - start < 1
    assert code == 2 and json.loads(out)["error"]["type"] == "GroupTooLarge"


def test_all_integers_are_strings():
    code, out = run_cli(["bounds", "--kind", "reductive_perfect",
                         "--n", "2", "--r", "2", "--N", "3"])
    obj = json.loads(out)
    assert code == 0
    for value in obj.values():
        assert not isinstance(value, (int, float))


def test_torus_analyze_stdin():
    model = {"rank": "1",
             "theta_generators": [{"rows": "1", "cols": "1",
                                   "entries": [["-1"]]}],
             "label": "nonsplit"}
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "6"],
                        stdin=json.dumps(model))
    obj = json.loads(out)
    assert code == 0 and obj["anisotropic"]
    exponents = {row["d"]: row["exponent"] for row in obj["torsion"]}
    assert exponents == {"2": "2", "3": "1", "4": "2", "5": "1", "6": "2"}


def test_torus_analyze_refuses_a_malformed_env_cap(monkeypatch):
    model = json.dumps({"rank": "1", "theta_generators": [
        {"rows": "1", "cols": "1", "entries": [["-1"]]}]})
    for raw in ("abc", "1.5", "-3", "0"):
        monkeypatch.setenv("ANISO_CLOSURE_CAP", raw)
        code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3", "--json"],
                            stdin=model)
        assert code == 2
        assert json.loads(out) == {"error": {
            "type": "LatticeError",
            "message": f"ANISO_CLOSURE_CAP must be a positive integer, got {raw!r}"}}


def test_torus_analyze_refuses_float_and_boolean_entries():
    # reading -1.7 as -1 or true as 1 would change the input
    for entry in (-1.7, True):
        model = {"rank": "1",
                 "theta_generators": [{"rows": "1", "cols": "1", "entries": [[entry]]}]}
        code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3"],
                            stdin=json.dumps(model))
        error = json.loads(out)["error"]
        assert code == 2
        assert error["type"] == "SchemaError" and error["path"] == "$"
        assert repr(entry) in error["message"]


@pytest.mark.parametrize("entry, message", [
    ("1_0", "not a decimal integer: '1_0'"),
    (" 1", "not a decimal integer: ' 1'"),
    ("+1", "not a decimal integer: '+1'"),
    ("1,2", "not a decimal integer: '1,2'"),
    ("\u0661", "not a decimal integer: '\u0661'"),
    ("-", "not a decimal integer: '-'"),
    ("", "not a decimal integer: ''"),
    ("--1", "not a decimal integer: '--1'"),
    ("1-2", "not a decimal integer: '1-2'")])
def test_torus_analyze_refuses_each_malformed_entry_by_name(entry, message):
    # floats and booleans: test_torus_analyze_refuses_float_and_boolean_entries
    model = {"rank": "2", "theta_generators": [
        {"rows": "2", "cols": "2", "entries": [["1", entry], ["0", "1"]]}]}
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3", "--json"],
                        stdin=json.dumps(model))
    assert code == 2 and json.loads(out) == {"error": {
        "type": "SchemaError", "path": "$", "message": f"$: bad torus model: {message}"}}


@pytest.mark.parametrize("rank, entries, shown", [
    ("2", ["01", "10"], "'01'"),
    ("1", "1", "'1'")])
def test_torus_analyze_refuses_string_rows(rank, entries, shown):
    # a string is not iterated as a list: ["01", "10"] is not [[0, 1], [1, 0]]
    model = {"rank": rank, "theta_generators": [
        {"rows": rank, "cols": rank, "entries": entries}]}
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3", "--json"],
                        stdin=json.dumps(model))
    assert code == 2 and json.loads(out) == {"error": {
        "type": "SchemaError", "path": "$",
        "message": f"$: bad torus model: expected a list, got {shown}"}}


def test_torus_analyze_refuses_float_and_boolean_scalars():
    # 2.5 used to be read as characteristic 2, which skipped the d = 2 row
    base = {"rank": "1",
            "theta_generators": [{"rows": "1", "cols": "1", "entries": [["-1"]]}]}
    for key, bad in (("characteristic", 2.5), ("characteristic", True),
                     ("norm_group_order", 2.0)):
        code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3"],
                            stdin=json.dumps({**base, key: bad}))
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "SchemaError", "path": f"$.{key}",
            "message": f"$.{key}: expected an integer or a decimal string"}
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "3"],
                        stdin=json.dumps({**base, "characteristic": "3"}))
    assert code == 0 and [row["d"] for row in json.loads(out)["torsion"]] == ["2"]


def test_torus_analyze_refuses_d_max_below_2(monkeypatch):
    with monkeypatch.context() as patch:  # refused before the payload is read
        patch.setattr(cli, "_load_payload", None)
        for d_max in ("-3", "0", "1"):
            code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", d_max])
            assert code == 2 and json.loads(out)["error"] == {
                "type": "SchemaError", "path": "$.d_max",
                "message": f"$.d_max: --d-max must be >= 2, got {d_max}"}
    model = {"rank": "1",
             "theta_generators": [{"rows": "1", "cols": "1", "entries": [["-1"]]}]}
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", "2"],
                        stdin=json.dumps(model))
    assert code == 0 and [row["d"] for row in json.loads(out)["torsion"]] == ["2"]


def test_torus_analyze_caps_d_max(monkeypatch):
    cap = cli.TORUS_MAX_D
    with monkeypatch.context() as patch:  # refused before the payload is read
        patch.setattr(cli, "_load_payload", None)
        for d_max in (cap + 1, 10 ** 12):
            code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", str(d_max)])
            assert code == 2 and json.loads(out)["error"] == {
                "type": "DRangeTooLarge",
                "message": f"torus analyze is capped at --d-max {cap}"}
    golden = Path(__file__).parent / "golden"
    start = time.perf_counter()
    code, out = run_cli(["torus", "analyze", "--input", "-", "--d-max", str(cap)],
                        stdin=(golden / "torus-analyze-c6-d30.in.json").read_text())
    elapsed = time.perf_counter() - start
    rows = json.loads(out)["torsion"]
    first = json.loads((golden / "torus-analyze-c6-d30.out.json").read_text())["torsion"]
    assert code == 0 and len(rows) == cap - 1 and rows[:29] == first
    assert rows[-1] == {"d": str(cap), "invariant_factors": ["2"], "exponent": "2",
                        "exponent_divides_theta_order": True}
    assert elapsed < 10  # about 1.1 s: one Smith form, then O(n^2) per d


def test_malformed_json_is_schema_error():
    code, out = run_cli(["torus", "analyze", "--input", "-"], stdin="{oops")
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["type"] == "SchemaError"
    assert obj["error"]["path"] == "$"


def test_schema_error_points_at_missing_field():
    code, out = run_cli(["torus", "analyze", "--input", "-"],
                        stdin='{"rank": "1"}')
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["path"] == "$.theta_generators"


def test_pairing_isotropic_z4_example():
    payload = {"invariant_factors": ["4", "4"],
               "gram": [["0/1", "1/4"], ["-1/4", "0/1"]]}
    code, out = run_cli(["pairing", "isotropic", "--input", "-"],
                        stdin=json.dumps(payload))
    obj = json.loads(out)
    assert code == 0
    assert obj["isotropic_order"] == "4"
    assert obj["generator_orders"] == ["4"]
    assert obj["order_squared_covers_group"] is True


def test_pairing_bad_gram_entry_path():
    payload = {"invariant_factors": ["2"], "gram": [["zebra"]]}
    code, out = run_cli(["pairing", "isotropic", "--input", "-"],
                        stdin=json.dumps(payload))
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["path"] == "$.gram[0][0]"


def test_pairing_isotropic_refuses_float_and_boolean_gram_entries():
    # a float gram entry is refused even where it is exact, as 0.25 is
    for entry in (0.25, False):
        payload = {"invariant_factors": ["4", "4"], "gram": [["0", entry], ["3/4", "0"]]}
        code, out = run_cli(["pairing", "isotropic", "--input", "-"],
                            stdin=json.dumps(payload))
        error = json.loads(out)["error"]
        assert code == 2
        assert error["type"] == "SchemaError" and error["path"] == "$.gram[0][1]"


def test_pairing_fuzz_is_seeded_and_deterministic():
    first = run_cli(["pairing", "fuzz", "--trials", "8", "--seed", "3"])
    second = run_cli(["pairing", "fuzz", "--trials", "8", "--seed", "3"])
    assert first == second
    code, out = first
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_pairing_fuzz_refuses_max_order_below_2_and_negative_trials(monkeypatch):
    # refused before any trial: no group of order below 2 has a generator,
    # so random_pairing would draw forever
    with monkeypatch.context() as patch:
        patch.setattr(cli.pairing, "random_pairing", None)
        for args, path, message in (
                (["--max-order", "1"], "$.max_order", "--max-order must be >= 2, got 1"),
                (["--max-order", "-5"], "$.max_order", "--max-order must be >= 2, got -5"),
                (["--trials", "-3"], "$.trials", "--trials must be >= 0, got -3"),
                (["--max-order", "0", "--trials", "-1"], "$.max_order",
                 "--max-order must be >= 2, got 0")):
            code, out = run_cli(["pairing", "fuzz", *args])
            assert code == 2 and json.loads(out)["error"] == {
                "type": "SchemaError", "path": path, "message": f"{path}: {message}"}
    code, out = run_cli(["pairing", "fuzz", "--max-order", "2", "--trials", "0"])
    assert code == 0 and json.loads(out)["trials"] == "0"
    code, out = run_cli(["pairing", "fuzz", "--max-order", "2", "--trials", "3"])
    assert code == 0 and json.loads(out)["all_pass"] is True


def test_csa_norm_of_u():
    payload = {"degree": "3", "element": {"1,0": "1"}}
    code, out = run_cli(["csa", "norm", "--input", "-"],
                        stdin=json.dumps(payload))
    obj = json.loads(out)
    assert code == 0
    assert obj["norm_repr"] == "a"


def test_csa_norm_degree_is_capped():
    cap = cli.NORM_MAX_DEGREE
    for degree in (cap + 1, 5000):
        payload = {"degree": str(degree), "element": {"0,0": "1"}}
        start = time.perf_counter()
        code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(payload))
        assert time.perf_counter() - start < 1
        assert code == 2 and json.loads(out)["error"] == {
            "type": "DegreeTooLarge", "message": f"csa norm is capped at degree {cap}"}
    payload = {"degree": str(cap), "element": {"1,0": "1"}}
    code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(payload))
    assert code == 0 and json.loads(out)["norm_repr"] == "a"


def test_bad_ij_keys_are_schema_errors():
    # one bad-key rule for `csa norm` element keys and `quad arf` coeff keys
    cases = [(["csa", "norm"], {"degree": "2", "element": {"1": "1"}},
              "$.element['1']", "keys must look like \"i,j\""),
             (["csa", "norm"], {"degree": "2", "element": {"0,x": "1"}},
              "$.element['0,x']", "not a decimal integer: 'x'"),
             (["quad", "arf"], {"field": {"kind": "prime_field", "p": "2"}, "dim": "2",
                                "coeffs": {"0": "1"}},
              "$.coeffs['0']", "keys must look like \"i,j\""),
             (["quad", "arf"], {"field": {"kind": "prime_field", "p": "2"}, "dim": "2",
                                "coeffs": {"0,1,1": "1"}},
              "$.coeffs['0,1,1']", "keys must look like \"i,j\"")]
    for argv, payload, path, message in cases:
        code, out = run_cli(argv + ["--input", "-"], stdin=json.dumps(payload))
        error = json.loads(out)["error"]
        assert code == 2
        assert error == {"type": "SchemaError", "path": path,
                         "message": f"{path}: {message}"}


def test_csa_norm_bad_coefficients_are_schema_errors():
    # a coefficient that is no number, an int where the Q(z2) list belongs,
    # and a list where the polynomial object belongs
    for value in ({"num": {"0,0": ["abc"]}}, {"num": {"0,0": 5}}, {"num": ["1"]}):
        payload = {"degree": "2", "element": {"0,0": value}}
        code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(payload))
        obj = json.loads(out)
        assert code == 2, obj
        assert obj["error"]["type"] == "SchemaError"
        assert obj["error"]["path"] == "$.element"
    form = {"field": {"kind": "function_field", "base": {"kind": "rationals"},
                      "variables": ["t"]},
            "dim": "2", "coeffs": {"0,1": {"num": ["1"]}}}
    code, out = run_cli(["quad", "arf", "--input", "-"], stdin=json.dumps(form))
    assert code == 2 and json.loads(out)["error"]["type"] == "SchemaError"


def test_field_descriptors_and_coefficient_lists_are_read_exactly():
    # int() would read m = 2.9 as 2 (F_4) and p = 2.5 as 2 (F_2), and a
    # string where a coefficient list belongs would be iterated digit by
    # digit: "12" as 1 + 2 z3
    form = {"dim": "2", "coeffs": {"0,0": ["1"], "0,1": ["1"], "1,1": ["0", "1"]}}
    for field, bad in (({"kind": "finite_field", "p": "2", "m": 2.9}, "2.9"),
                       ({"kind": "finite_field", "p": 2.5, "m": "2"}, "2.5"),
                       ({"kind": "finite_field", "p": "2", "m": True}, "True")):
        code, out = run_cli(["quad", "arf", "--input", "-"],
                            stdin=json.dumps({**form, "field": field}))
        error = json.loads(out)["error"]
        assert code == 2 and error["type"] == "SchemaError" and bad in error["message"]
    code, out = run_cli(["quad", "arf", "--input", "-"], stdin=json.dumps(
        {**form, "field": {"kind": "finite_field", "p": "2", "m": "2"}}))
    assert code == 0
    for coeff in ("12", ["12"]):
        payload = {"degree": "3", "element": {"0,0": {"num": {"0,0": coeff}}}}
        code, out = run_cli(["csa", "norm", "--input", "-"], stdin=json.dumps(payload))
        obj = json.loads(out)
        if isinstance(coeff, str):
            assert code == 2 and obj["error"]["type"] == "SchemaError"
            assert obj["error"]["path"] == "$.element"
        else:
            assert code == 0 and obj["norm_repr"] == "1728"


def test_huge_primes_are_decided_fast():
    p = str(2 ** 61 - 1)
    form = {"field": {"kind": "prime_field", "p": p}, "dim": "2",
            "coeffs": {"0,0": "1", "0,1": "1"}}
    start = time.perf_counter()
    code, out = run_cli(["quad", "arf", "--input", "-"], stdin=json.dumps(form))
    assert time.perf_counter() - start < 2
    assert code == 2 and json.loads(out)["error"]["type"] == "WrongCharacteristic"

    # 131 is the first prime past the `csa torsion` cap of 127
    for big in (p, "131"):
        start = time.perf_counter()
        code, out = run_cli(["csa", "torsion", "--p", big, "--m", "4"])
        assert time.perf_counter() - start < 2
        assert code == 2 and json.loads(out)["error"]["type"] == "PrimeTooLarge"
    code, out = run_cli(["csa", "torsion", "--p", "127", "--m", "1"])
    assert code == 0 and json.loads(out)["rank"] == "1"

    argv = ["bounds", "--kind", "semisimple_char_p", "--n", "2", "--r", "1",
            "--N", "2", "--m", "1", "--p"]
    code, out = run_cli(argv + [p])
    assert code == 0 and json.loads(out)["p"] == p
    # psi_13, beyond the range where the primality test is exact
    code, out = run_cli(argv + ["3317044064679887385961981"])
    assert code == 2 and json.loads(out)["error"]["type"] == "FieldTooLarge"


def test_csa_torsion_rank_is_capped():
    m = cli.TORSION_MAX_M
    start = time.perf_counter()
    code, out = run_cli(["csa", "torsion", "--p", "127", "--m", str(m + 1)])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and json.loads(out)["error"] == {
        "type": "RankTooLarge", "message": f"csa torsion is capped at m = {m}"}
    code, out = run_cli(["csa", "torsion", "--p", "2", "--m", str(m)])
    assert code == 0 and json.loads(out)["rank"] == str(m)


def test_csa_torsion_refuses_a_negative_rank(monkeypatch):
    with monkeypatch.context() as patch:  # refused before any algebra is built
        patch.setattr(cli.csa, "WeylModPSpec", None)
        code, out = run_cli(["csa", "torsion", "--p", "3", "--m", "-3"])
    assert code == 2 and json.loads(out)["error"] == {
        "type": "SchemaError", "path": "$.m", "message": "$.m: --m must be >= 0, got -3"}
    code, out = run_cli(["csa", "torsion", "--p", "3", "--m", "0"])
    assert code == 0 and json.loads(out) == {
        "commute": True, "generators": [], "group_order": "1", "orders_divide_p": True,
        "p": "3", "rank": "0", "requested_rank": "0"}


def test_csa_verify_weyl():
    code, out = run_cli(["csa", "verify-weyl", "--p", "3"])
    obj = json.loads(out)
    assert code == 0
    assert obj["splits_as_full_matrix_algebra"] is True


def test_csa_torsion_rank():
    code, out = run_cli(["csa", "torsion", "--p", "2", "--m", "3"])
    obj = json.loads(out)
    assert code == 0
    assert obj["rank"] == "3" and obj["group_order"] == "8"


def test_quad_arf_roundtrip():
    payload = {"field": {"kind": "prime_field", "p": "2"}, "dim": "2",
               "coeffs": {"0,0": "1", "0,1": "1", "1,1": "1"}}
    code, out = run_cli(["quad", "arf", "--input", "-"],
                        stdin=json.dumps(payload))
    obj = json.loads(out)
    assert code == 0
    assert obj["arf_repr"] == "1"


def _trace(x, m):
    total, y = x, x
    for _ in range(m - 1):
        y = y * y
        total = total + y
    return total


def test_quad_arf_refuses_float_and_boolean_coefficients():
    # over F_2, int() would read both 1.9 and true as 1
    for coeff in (1.9, True):
        form = {"field": {"kind": "prime_field", "p": "2"}, "dim": "2",
                "coeffs": {"0,0": coeff, "0,1": "1"}}
        code, out = run_cli(["quad", "arf", "--input", "-"], stdin=json.dumps(form))
        error = json.loads(out)["error"]
        assert code == 2
        assert error["type"] == "SchemaError" and error["path"] == "$"
        assert repr(coeff) in error["message"]


def test_quad_arf_two_anisotropic_planes_over_large_fields():
    # x1^2 + x1 x2 + a x2^2 + x3^2 + x3 x4 + a x4^2 with Tr(a) = 1: each
    # plane is anisotropic and the sum is hyperbolic, Arf class 0; a form
    # x1^2 + x1 x2 + (t^2 + t) x2^2 is split and reduces to 0 as well
    for m in (5, 8, 9, 40):
        field = {"kind": "finite_field", "p": "2", "m": str(m)}
        descriptor = descriptor_from_json(field)
        gen = Field(descriptor).generator()
        a = next(gen ** k for k in range(m) if _trace(gen ** k, m).is_one)
        one = ["1"] + ["0"] * (m - 1)
        a = element_to_json(a)["value"]
        split = [str(int(i in (1, 2))) for i in range(m)]
        payloads = [
            {"field": field, "dim": "4",
             "coeffs": {"0,0": one, "0,1": one, "1,1": a,
                        "2,2": one, "2,3": one, "3,3": a}},
            {"field": field, "dim": "2",
             "coeffs": {"0,0": one, "0,1": one, "1,1": split}}]
        for payload in payloads:
            dim = int(payload["dim"])
            code, out = run_cli(["quad", "arf", "--input", "-", "--json"],
                                stdin=json.dumps(payload))
            obj = json.loads(out)
            assert code == 0, obj
            assert obj["arf_repr"] == "0"
            change = [[element_from_json(x, descriptor) for x in row]
                      for row in obj["change_of_basis"]]
            assert (QuadraticForm.from_json(payload).transform(change)
                    == canonical_char2_form(descriptor, dim, 0))


def test_quad_extract_isotropic():
    form = {"field": {"kind": "prime_field", "p": "3"}, "dim": "3",
            "coeffs": {"0,0": "1", "1,1": "1", "2,2": "1"}}
    matrix = [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]]
    code, out = run_cli(["quad", "extract-isotropic", "--input", "-"],
                        stdin=json.dumps({"form": form, "matrix": matrix}))
    obj = json.loads(out)
    assert code == 0
    assert obj["form_value_is_zero"] is True


def test_quad_extract_bad_matrix_path():
    form = {"field": {"kind": "prime_field", "p": "3"}, "dim": "2",
            "coeffs": {"0,0": "1", "1,1": "1"}}
    code, out = run_cli(["quad", "extract-isotropic", "--input", "-"],
                        stdin=json.dumps({"form": form, "matrix": [["1"]]}))
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["path"] == "$.matrix[0]"


def test_quad_pfister_subcommand():
    code, out = run_cli(["quad", "pfister", "--k", "3", "--trials", "5"])
    obj = json.loads(out)
    assert code == 0
    assert obj["closure_order"] == "8"
    assert obj["closure_nonabelian"] is True
    assert obj["candidates_refuted"] == "5"


def test_quad_pfister_cap_zero_is_a_cap_error():
    # a cap of 0 is a cap, not a request for the default of 4096
    code, out = run_cli(["quad", "pfister", "--k", "3", "--trials", "1", "--cap", "0"])
    assert code == 2
    assert json.loads(out)["error"] == {"type": "QuadFormError",
                                        "message": "closure exceeded the cap 0"}


@pytest.mark.parametrize("argv, error", [
    (["--k", "9"], {"type": "KTooLarge", "message": "supported range is 1 <= k <= 5"}),
    (["--k", "1"], {"type": "KTooLarge", "message": "closure needs 2 <= k <= 5"}),
    (["--cap", "5"], {"type": "QuadFormError", "message": "closure exceeded the cap 5"}),
    (["--k", "9", "--trials", "-1"],
     {"type": "SchemaError", "path": "$.trials",
      "message": "$.trials: --trials must be >= 0, got -1"}),
    (["--k", "9", "--trials", "10001"],
     {"type": "TrialsTooLarge", "message": "quad pfister is capped at --trials 10000"}),
])
def test_quad_pfister_errors_are_pinned(argv, error):
    # the form is built before the closure, so k = 9 is the form's error;
    # a negative --trials, or one above the cap, is refused before either
    code, out = run_cli(["quad", "pfister", *argv, "--json"])
    assert (code, json.loads(out)) == (2, {"error": error})


def test_trials_above_the_cap_are_refused_before_any_work(monkeypatch):
    # 10,000 trials take about 5 s at k = 5 or in pairing fuzz; one more is
    # a named cap error, raised before any pairing or candidate is drawn
    assert cli.MAX_TRIALS == 10_000
    with monkeypatch.context() as patch:
        patch.setattr(cli.pairing, "random_pairing", None)
        patch.setattr(cli.quadform, "pfister_run", None)
        for command in (["pairing", "fuzz"], ["quad", "pfister", "--k", "5"]):
            for trials in ("10001", str(10 ** 12)):
                code, out = run_cli([*command, "--trials", trials])
                assert code == 2 and json.loads(out)["error"] == {
                    "type": "TrialsTooLarge",
                    "message": f"{' '.join(command[:2])} is capped at --trials 10000"}
    cli._check_trials("pairing fuzz", cli.MAX_TRIALS)  # the cap itself is allowed


def test_replay_ids_registry():
    assert replay_ids() == ("example-2.5", "example-2.6", "example-4.8",
                            "example-5.4", "minkowski-table")


def test_run_replay_filter_and_unknown():
    results = run_replay(["example-2.5"])
    assert len(results) == 1
    assert results[0]["id"] == "example-2.5"
    assert results[0]["status"] == "pass"
    with pytest.raises(UnknownExampleId):
        run_replay(["nonsense"])


def test_replay_cli_unknown_id_exit_code():
    code, out = run_cli(["replay", "nonsense"])
    obj = json.loads(out)
    assert code == 2
    assert obj["error"]["type"] == "UnknownExampleId"


def test_replay_cli_deterministic_bytes():
    first = run_cli(["replay", "minkowski-table", "example-2.5"])
    second = run_cli(["replay", "minkowski-table", "example-2.5"])
    assert first == second
    code, out = first
    arr = json.loads(out)
    assert code == 0
    assert [e["status"] for e in arr] == ["pass", "pass"]


def test_compact_json_flag():
    code, out = run_cli(["bounds", "--kind", "torus", "--n", "1", "--json"])
    assert code == 0
    assert out.count("\n") == 1  # single line
    assert json.loads(out)["divisor_bound"] == "2"


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "aniso.cli", "bounds", "--kind",
         "severi_brauer", "--n", "3", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["divisor_bound"] == "9"


def test_module_entry_point_runs_without_runtime_warning():
    # the package must not import the CLI module before `-m aniso.cli` runs it
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "aniso.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_pairing_isotropic_beyond_former_cap():
    payload = {"invariant_factors": ["128", "128"],
               "gram": [["0", "1/128"], ["127/128", "0"]]}
    code, out = run_cli(["pairing", "isotropic", "--input", "-", "--cap", "16"],
                        stdin=json.dumps(payload))
    obj = json.loads(out)
    assert code == 0
    assert obj["isotropic_order"] == "128"


def test_goldens_in_one_process_forward_and_reverse():
    # main reuses one parser; no request may leave state for the next
    from test_golden import CASES, EXIT_CODES, GOLDEN, run_case
    for name in sorted(CASES) + sorted(CASES, reverse=True):
        code, out = run_case(name)
        assert code == EXIT_CODES.get(name, 0), name
        assert out == (GOLDEN / f"{name}.out.json").read_text(), name


def test_help_and_unknown_subcommand_exit_the_same_twice(capsys):
    def exits(argv, parse):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    for argv in (["--help"], ["frobnicate"], ["csa", "torsion", "--p", "x"]):
        fresh = exits(argv, lambda a: cli.build_parser().parse_args(a))
        cli._shared_parser.cache_clear()  # a first call, then a second
        assert exits(argv, main) == fresh
        assert exits(argv, main) == fresh
    assert fresh[0] == 2 and exits(["--help"], main)[0] == 0
