"""Command-line surface: JSON in, JSON out, exact numbers as strings.

Subcommands mirror the library modules. Every integer in a report is a
decimal string and every rational a "num/den" string, so arbitrary
precision survives any JSON consumer. Output is deterministic: the same
invocation produces byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional

from . import bounds, csa, pairing, quadform, replay, torus
from .errors import AnisoError, _exact_fraction, _exact_int
from .scalars import (Field, cyclotomic, element_from_json, element_to_json,
                      function_field)


class SchemaError(AnisoError):
    """Input payload does not match the expected shape; path points at
    the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DRangeTooLarge(AnisoError):
    """torus analyze was asked for more rows than TORUS_MAX_D allows."""


class TrialsTooLarge(AnisoError):
    """quad pfister or pairing fuzz was asked for more than MAX_TRIALS trials."""


def _expect(obj, path: str, kind, what: str):
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _expect_key(obj: dict, path: str, key: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _expect_int(obj, path: str) -> int:
    try:
        return _exact_int(obj)
    except TypeError:
        raise SchemaError(path, "expected an integer or a decimal string") from None
    except ValueError:
        raise SchemaError(path, f"not a decimal integer: {obj!r}") from None


def _expect_ij_keys(obj: dict, path: str) -> None:
    for key in obj:
        parts = str(key).split(",")
        if len(parts) != 2:
            raise SchemaError(f"{path}[{key!r}]", "keys must look like \"i,j\"")
        for part in parts:
            _expect_int(part, f"{path}[{key!r}]")


def _load_payload(source: Optional[str], path: str = "$") -> dict:
    if source is None:
        raise SchemaError(path, "this subcommand needs --input FILE "
                          "(use - for stdin)")
    try:
        text = sys.stdin.read() if source == "-" else open(source).read()
    except OSError as exc:
        raise SchemaError(path, f"cannot read {source}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"malformed JSON: {exc}") from None
    return _expect(obj, path, dict, "a JSON object")


# ---------------------------------------------------------------------------
# subcommand implementations, each returning (report dict, exit status)


def _cmd_bounds(args) -> tuple[dict, int]:
    kind = args.kind
    if kind == "minkowski":
        if args.n is None:
            raise SchemaError("$.n", "--n is required for kind minkowski")
        mv = bounds.minkowski_values(args.n)
        return {"kind": "minkowski", "n": str(mv.n),
                "upsilon_a": None if mv.upsilon_a is None else str(mv.upsilon_a),
                "upsilon_a_known": mv.upsilon_a_known,
                "upsilon_m": str(mv.upsilon_m)}, 0
    if kind == "torsion":
        if not args.types:
            raise SchemaError("$.types", "--types is required for kind "
                              "torsion, e.g. A:2,E:8")
        type_list = []
        for chunk in args.types.split(","):
            if ":" not in chunk:
                raise SchemaError("$.types", f"bad component {chunk!r}, "
                                  "expected LETTER:RANK")
            letter, _, rank = chunk.partition(":")
            type_list.append((letter.strip(), _expect_int(rank.strip(), "$.types")))
        primes = bounds.torsion_primes(type_list)
        return {"kind": "torsion",
                "types": [f"{l}:{r}" for l, r in type_list],
                "torsion_primes": [str(p) for p in sorted(primes)]}, 0
    query = bounds.BoundQuery(kind=kind, n=args.n, r=args.r, N=args.N,
                              p=args.p, m=args.m)
    result = bounds.bound_calculator(query)
    report = {"kind": kind, "divisor_bound": str(result.divisor_bound),
              "meaning": result.meaning}
    for name in ("n", "r", "N", "p", "m"):
        value = getattr(query, name)
        if value is not None:
            report[name] = str(value)
    return report, 0


def _parse_torus_model(obj: dict) -> torus.TorusModel:
    _expect_int(_expect_key(obj, "$", "rank"), "$.rank")
    for key in ("characteristic", "norm_group_order"):
        if obj.get(key) is not None:
            _expect_int(obj[key], f"$.{key}")
    gens_obj = _expect(_expect_key(obj, "$", "theta_generators"),
                       "$.theta_generators", list, "a list of matrices")
    for idx, g in enumerate(gens_obj):
        gpath = f"$.theta_generators[{idx}]"
        _expect(g, gpath, dict, "a matrix object")
        for key in ("rows", "cols", "entries"):
            _expect_key(g, gpath, key)
    try:
        return torus.TorusModel.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise SchemaError("$", f"bad torus model: {exc}") from None


def _cmd_torus_analyze(args) -> tuple[dict, int]:
    """Torsion rows for d = 2, ..., --d-max.

    The cost is the closure of Θ (at most 2 |Θ| log2 |Θ| products under
    the 10,000 cap, each n row lookups, with one vector-matrix product per
    distinct row and kept generator and one Bareiss determinant per kept
    generator), one Smith form of the stacked g - 1 of the k <= log2 |Θ|
    kept generators, k n rows (476 x 119 on the S_5 norm quotient, whose
    whole report takes about 1.0–1.4 s in a fresh process), plus O(n^2)
    per d to read the row off its diagonal and V. Before
    the payload is read, a --d-max below 2, which would ask for no row, is
    a SchemaError, and one above TORUS_MAX_D raises DRangeTooLarge.
    """
    if args.d_max < 2:
        raise SchemaError("$.d_max", f"--d-max must be >= 2, got {args.d_max}")
    if args.d_max > TORUS_MAX_D:
        raise DRangeTooLarge(f"torus analyze is capped at --d-max {TORUS_MAX_D}")
    model = _parse_torus_model(_load_payload(args.input))
    aniso = torus.is_anisotropic(model)
    rows = []
    for d in range(2, args.d_max + 1):
        if model.characteristic and d % model.characteristic == 0:
            continue
        rep = torus.torsion_points(model, d)
        rows.append({
            "d": str(d),
            "invariant_factors": [str(f) for f in rep.group.invariant_factors],
            "exponent": str(rep.group.exponent),
            "exponent_divides_theta_order": rep.divisibility_check,
        })
    return {"label": model.label, "rank": str(model.rank),
            "theta_order": str(model.theta_order), "anisotropic": aniso,
            "torsion": rows}, 0


def _parse_pairing(obj: dict) -> pairing.AlternatingPairing:
    factors = _expect(_expect_key(obj, "$", "invariant_factors"),
                      "$.invariant_factors", list, "a list")
    for idx, f in enumerate(factors):
        _expect_int(f, f"$.invariant_factors[{idx}]")
    gram = _expect(_expect_key(obj, "$", "gram"), "$.gram", list,
                   "a list of rows")
    for i, row in enumerate(gram):
        _expect(row, f"$.gram[{i}]", list, "a list")
        for j, v in enumerate(row):
            try:
                _exact_fraction(v)
            except (ValueError, TypeError):
                raise SchemaError(f"$.gram[{i}][{j}]",
                                  f"not a rational: {v!r}") from None
    return pairing.AlternatingPairing.from_json(obj)


def _cmd_pairing_isotropic(args) -> tuple[dict, int]:
    pr = _parse_pairing(_load_payload(args.input))
    sub = pairing.isotropic_subgroup(pr)
    total = pr.group.order
    return {
        "group_order": str(total),
        "invariant_factors": [str(d) for d in pr.group.invariant_factors],
        "isotropic_generators": [[str(x) for x in g] for g in sub.generators],
        "generator_orders": [str(o) for o in sub.generator_orders],
        "isotropic_order": str(sub.order),
        "order_squared_covers_group": (sub.order * sub.order) % total == 0,
    }, 0


def _check_trials(command: str, trials: int) -> None:
    if trials < 0:
        raise SchemaError("$.trials", f"--trials must be >= 0, got {trials}")
    if trials > MAX_TRIALS:
        raise TrialsTooLarge(f"{command} is capped at --trials {MAX_TRIALS}")


def _cmd_pairing_fuzz(args) -> tuple[dict, int]:
    """Isotropic-subgroup property trials on seeded random pairings.

    Before any work, a --max-order below 2, which no group with a
    generator fits, is a SchemaError, and so is a negative --trials; more
    than MAX_TRIALS trials raise TrialsTooLarge.
    """
    if args.max_order < 2:
        raise SchemaError("$.max_order", f"--max-order must be >= 2, got {args.max_order}")
    _check_trials("pairing fuzz", args.trials)
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        pr = pairing.random_pairing(rng, max_order=args.max_order)
        sub = pairing.isotropic_subgroup(pr)
        vanishes = all(pr.value(g, h).numerator == 0
                       for g in sub.generators for h in sub.generators)
        covers = (sub.order * sub.order) % pr.group.order == 0
        if not (vanishes and covers):
            failures.append({"trial": str(trial), "pairing": pr.to_json()})
    return {"trials": str(args.trials), "seed": str(args.seed),
            "max_order": str(args.max_order),
            "failures": failures, "all_pass": not failures}, \
        (0 if not failures else 1)


# the largest degree for which a dense `csa norm` finishes in seconds
NORM_MAX_DEGREE = 9
# about 5 s of `quad pfister --k 5` candidates (0.5 ms each) or of
# `pairing fuzz` trials (0.4 ms each), on one core of a 2-core x86 machine
MAX_TRIALS = 10_000
# the largest --d-max for which `torus analyze` on the S_4 norm quotient
# finishes in about 1.8 s in-process and prints about 8.6 MiB
TORUS_MAX_D = 100000
# the largest p for which `csa torsion --m 4` takes about a second
TORSION_MAX_P = 127
# the largest m for which `csa torsion --p 127` stays under about 2 s
TORSION_MAX_M = 8


def _generic_symbol_spec(degree: int) -> csa.SymbolAlgebraSpec:
    base = function_field(cyclotomic(degree), ("a", "b"))
    field = Field(base)
    return csa.SymbolAlgebraSpec(base, degree, field.var("a"), field.var("b"))


def _cmd_csa_norm(args) -> tuple[dict, int]:
    """Reduced norm in the generic symbol algebra of degree n <= 9, by
    expansion in minors on Kronecker-packed integers: at most n 2^(n-1)
    int products, each coefficient in slots wide enough for the l1 bound
    B = prod over rows of sum_j |M_ij|_1 on every minor (csa._packed_det).
    A dense element with integer coefficients takes about 3 ms at n = 5,
    0.06 s at n = 7 and 1.9 s at n = 9 in-process (one core of a 2-core
    x86 machine). A larger degree raises DegreeTooLarge before Phi_n or
    the algebra is built.
    """
    obj = _load_payload(args.input)
    degree = _expect_int(_expect_key(obj, "$", "degree"), "$.degree")
    if degree > NORM_MAX_DEGREE:
        raise csa.DegreeTooLarge(f"csa norm is capped at degree {NORM_MAX_DEGREE}")
    element_obj = _expect(_expect_key(obj, "$", "element"), "$.element",
                          dict, "an object keyed by \"i,j\"")
    spec = _generic_symbol_spec(degree)
    _expect_ij_keys(element_obj, "$.element")
    try:
        element = csa.AlgebraElement.from_json(spec, element_obj)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise SchemaError("$.element", f"bad algebra element: {exc}") from None
    norm = csa.reduced_norm(element)
    return {"degree": str(degree), "reduced_norm": element_to_json(norm),
            "norm_repr": repr(norm)}, 0


def _cmd_csa_verify_weyl(args) -> tuple[dict, int]:
    cert = csa.weyl_split_verification(csa.WeylModPSpec(args.p))
    def matrix_json(m):
        return [[repr(entry) for entry in row] for row in m]
    return {"p": str(cert.p),
            "u_matrix": matrix_json(cert.u_matrix),
            "v_matrix": matrix_json(cert.v_matrix),
            "u_power_is_y": cert.u_power_is_y,
            "v_power_is_x": cert.v_power_is_x,
            "commutator_is_one": cert.commutator_is_one,
            "monomials_independent": cert.monomials_independent,
            "splits_as_full_matrix_algebra": cert.ok}, (0 if cert.ok else 1)


def _cmd_csa_torsion(args) -> tuple[dict, int]:
    """Rank of the first m irreducible polynomials in v, for p <= 127, m <= 8.

    The cost grows as O(m p^2 log p) base-field products: checking that
    each generator's p-th power is scalar takes O(log p) products of
    polynomials in v of degree below p. At p = 127 that is about 0.2 s
    per generator: 0.65 s for m = 4 and 1.6 s for m = 8. A larger p
    raises PrimeTooLarge and a larger m RankTooLarge, both before any
    algebra is built, and so does a negative m, as a SchemaError.
    """
    if args.m < 0:
        raise SchemaError("$.m", f"--m must be >= 0, got {args.m}")
    if args.p > TORSION_MAX_P:
        raise csa.PrimeTooLarge(f"csa torsion is capped at p = {TORSION_MAX_P}")
    if args.m > TORSION_MAX_M:
        raise csa.RankTooLarge(f"csa torsion is capped at m = {TORSION_MAX_M}")
    spec = csa.WeylModPSpec(args.p)
    family = csa.distinct_irreducible_family(spec, args.m)
    report = csa.inseparable_torsion_subgroup(spec, family)
    return {"p": str(args.p), "requested_rank": str(args.m),
            "generators": [repr(g) for g in family],
            "orders_divide_p": report.orders_divide_p,
            "commute": report.commute,
            "rank": str(report.rank),
            "group_order": str(report.group_order)}, \
        (0 if report.rank == args.m else 1)


def _parse_form(obj: dict, path: str = "$") -> quadform.QuadraticForm:
    _expect_key(obj, path, "field")
    _expect_int(_expect_key(obj, path, "dim"), f"{path}.dim")
    coeffs = _expect(_expect_key(obj, path, "coeffs"), f"{path}.coeffs",
                     dict, "an object keyed by \"i,j\"")
    _expect_ij_keys(coeffs, f"{path}.coeffs")
    try:
        return quadform.QuadraticForm.from_json(obj)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise SchemaError(path, f"bad quadratic form: {exc}") from None


def _cmd_quad_arf(args) -> tuple[dict, int]:
    q = _parse_form(_load_payload(args.input))
    result = quadform.arf_normal_form(q)
    return {"dim": str(q.dim),
            "arf_invariant": element_to_json(result.arf),
            "arf_repr": repr(result.arf),
            "canonical_form": result.canonical_form.to_json(),
            "change_of_basis": [[element_to_json(entry) for entry in row]
                                for row in result.change_of_basis]}, 0


def _cmd_quad_pfister(args) -> tuple[dict, int]:
    """The closure and the refutation trials of quadform.pfister_run. A
    negative --trials is a SchemaError and one above MAX_TRIALS raises
    TrialsTooLarge, both before any work."""
    _check_trials("quad pfister", args.trials)
    group, refuted = quadform.pfister_run(args.k, args.trials, args.seed, args.cap)
    ok = refuted == args.trials and group.order_divides_bound
    return {"k": str(args.k), "dim": str(2 ** args.k), **group.to_json(),
            "refutation_trials": str(args.trials),
            "candidates_refuted": str(refuted),
            "seed": str(args.seed)}, (0 if ok else 1)


def _cmd_quad_extract(args) -> tuple[dict, int]:
    obj = _load_payload(args.input)
    form_obj = _expect(_expect_key(obj, "$", "form"), "$.form", dict,
                       "a quadratic form object")
    q = _parse_form(form_obj, "$.form")
    matrix_obj = _expect(_expect_key(obj, "$", "matrix"), "$.matrix", list,
                         "a list of rows")
    rows = []
    for i, row in enumerate(matrix_obj):
        _expect(row, f"$.matrix[{i}]", list, "a list")
        if len(row) != q.dim:
            raise SchemaError(f"$.matrix[{i}]",
                              f"expected {q.dim} entries, got {len(row)}")
        parsed = []
        for j, entry in enumerate(row):
            try:
                parsed.append(element_from_json(entry, q.descriptor))
            except (AnisoError, ValueError, TypeError, KeyError, AttributeError) as exc:
                raise SchemaError(f"$.matrix[{i}][{j}]",
                                  f"bad field element: {exc}") from None
        rows.append(tuple(parsed))
    if len(rows) != q.dim:
        raise SchemaError("$.matrix", f"expected {q.dim} rows, got {len(rows)}")
    vector = quadform.extract_isotropic_from_order_p(tuple(rows), q)
    value = q.evaluate(vector)
    return {"vector": [element_to_json(x) for x in vector],
            "vector_repr": [repr(x) for x in vector],
            "form_value_is_zero": value.is_zero}, 0


def _cmd_replay(args) -> tuple[list, int]:
    results = replay.run_replay(args.ids or None, seed=args.seed)
    failed = any(r["status"] != "pass" for r in results)
    return results, (1 if failed else 0)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized trials (default 0)")
    common.add_argument("--json", action="store_true",
                        help="compact single-line JSON output")
    common.add_argument("--cap", type=int, default=None,
                        help="cap for enumerations and closures")

    parser = argparse.ArgumentParser(
        prog="aniso",
        description="exact finite-subgroup bounds for anisotropic groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="divisor bounds for finite subgroups")
    p_bounds.add_argument("--kind", required=True,
                          choices=list(bounds.BOUND_KINDS)
                          + ["minkowski", "torsion"])
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--r", type=int)
    p_bounds.add_argument("--N", type=int)
    p_bounds.add_argument("--p", type=int)
    p_bounds.add_argument("--m", type=int)
    p_bounds.add_argument("--types", help="comma list LETTER:RANK for kind "
                          "torsion, e.g. A:2,E:8")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_torus = sub.add_parser("torus",
                             help="lattice models of anisotropic tori")
    torus_sub = p_torus.add_subparsers(dest="action", required=True)
    p_analyze = torus_sub.add_parser("analyze", parents=[common],
                                     help="torsion structure of a model")
    p_analyze.add_argument("--input", help="model JSON file, - for stdin")
    p_analyze.add_argument("--d-max", type=int, default=30)
    p_analyze.set_defaults(func=_cmd_torus_analyze)

    p_pairing = sub.add_parser("pairing",
                               help="alternating pairings on finite groups")
    pairing_sub = p_pairing.add_subparsers(dest="action", required=True)
    p_iso = pairing_sub.add_parser("isotropic", parents=[common],
                                   help="isotropic subgroup with order^2 "
                                   "covering the group")
    p_iso.add_argument("--input", help="pairing JSON file, - for stdin")
    p_iso.set_defaults(func=_cmd_pairing_isotropic)
    p_fuzz = pairing_sub.add_parser("fuzz", parents=[common],
                                    help="randomized isotropic-subgroup "
                                    "property trials")
    p_fuzz.add_argument("--trials", type=int, default=50)
    p_fuzz.add_argument("--max-order", type=int, default=128)
    p_fuzz.set_defaults(func=_cmd_pairing_fuzz)

    p_csa = sub.add_parser("csa",
                           help="symbol algebras and their torsion")
    csa_sub = p_csa.add_subparsers(dest="action", required=True)
    p_norm = csa_sub.add_parser("norm", parents=[common],
                                help="reduced norm in a generic symbol "
                                "algebra")
    p_norm.add_argument("--input", help="payload JSON file, - for stdin")
    p_norm.set_defaults(func=_cmd_csa_norm)
    p_weyl = csa_sub.add_parser("verify-weyl", parents=[common],
                                help="split certificate for the mod-p Weyl "
                                "algebra")
    p_weyl.add_argument("--p", type=int, required=True)
    p_weyl.set_defaults(func=_cmd_csa_verify_weyl)
    p_tors = csa_sub.add_parser("torsion", parents=[common],
                                help="elementary abelian p-subgroup of "
                                "requested rank")
    p_tors.add_argument("--p", type=int, required=True)
    p_tors.add_argument("--m", type=int, required=True)
    p_tors.set_defaults(func=_cmd_csa_torsion)

    p_quad = sub.add_parser("quad",
                            help="quadratic forms and their isometries")
    quad_sub = p_quad.add_subparsers(dest="action", required=True)
    p_arf = quad_sub.add_parser("arf", parents=[common],
                                help="characteristic-2 normal form")
    p_arf.add_argument("--input", help="form JSON file, - for stdin")
    p_arf.set_defaults(func=_cmd_quad_arf)
    p_pf = quad_sub.add_parser("pfister", parents=[common],
                               help="pointless multiplier quadric with its "
                               "isometry closure")
    p_pf.add_argument("--k", type=int, default=3)
    p_pf.add_argument("--trials", type=int, default=50)
    p_pf.set_defaults(func=_cmd_quad_pfister)
    p_ext = quad_sub.add_parser("extract-isotropic", parents=[common],
                                help="isotropic vector from an order-p "
                                "isometry in characteristic p")
    p_ext.add_argument("--input", help="payload JSON file, - for stdin")
    p_ext.set_defaults(func=_cmd_quad_extract)

    p_replay = sub.add_parser("replay", parents=[common],
                              help="re-verify the registered worked examples")
    p_replay.add_argument("ids", nargs="*",
                          help="entry ids to run (default: all)")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def _emit(obj, compact: bool) -> None:
    if compact:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(obj, sort_keys=True, indent=2)
    sys.stdout.write(text + "\n")


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: argparse keeps no
    state between parse_args calls, so one parser serves every request."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        report, status = args.func(args)
    except SchemaError as exc:
        _emit({"error": {"type": "SchemaError", "path": exc.path,
                         "message": str(exc)}}, args.json)
        return 2
    except AnisoError as exc:
        _emit({"error": {"type": type(exc).__name__,
                         "message": str(exc)}}, args.json)
        return 2
    _emit(report, args.json)
    return status


if __name__ == "__main__":
    sys.exit(main())
