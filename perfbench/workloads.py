"""The three workloads as fixed, seeded lists of operations.

An operation is one call into the package (a library function or one
in-process CLI request) plus the independent check of its answer. A
workload's list is built once per run from the seed and then replayed
whole, round after round, so every round attempts the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import inputs, oracles


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # exception (or CLI error) type this operation is known to raise today
    known_failure: Optional[str] = None


@dataclass
class CliResult:
    status: int
    text: str

    def report(self):
        return json.loads(self.text)

    def error_type(self) -> Optional[str]:
        try:
            obj = self.report()
        except ValueError:
            return "UnreadableOutput"
        if isinstance(obj, dict) and "error" in obj:
            return obj["error"].get("type", "error")
        return None


def cli_request(argv, payload: str = "") -> CliResult:
    """One `aniso` invocation in this process, stdin and stdout captured."""
    from aniso import cli
    saved = sys.stdin
    sys.stdin = io.StringIO(payload)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return CliResult(status, out.getvalue())


def _cli_check(check):
    def run(result: CliResult):
        return check(result.report(), result.status)
    return run


# ---------------------------------------------------------------------------
# torus-torsion: integer Smith forms, no field arithmetic, no CLI

# Norm-quotient tori of groups of order 2..8, abelian and not. The seed
# relabels every table, which changes the stacked matrices but no answer.
# The groups of order 8 appear under two labellings each: their queries
# set the 90th-percentile latency, and one labelling per group left it
# (and wall_s) moving by 10% between seeds.
NORM_QUOTIENT_GROUPS = ("Z2", "Z3", "Z4", "V4", "Z5", "S3", "Z6", "Z7",
                        "Z8", "D4", "Q8", "Z2xZ4", "Z8", "D4", "Q8", "Z2xZ4")
# Small transitive actions on Z^m: two-generator (or cyclic) inputs whose
# stacked matrices are tiny, next to the large all-elements ones above.
AUGMENTATION_ACTIONS = ("S3", "S4", "S5", "S6", "A4", "A5", "D5", "D6",
                        "D8", "C6", "C7", "C9")
H1_GROUPS = ("Z2", "Z3", "Z4", "V4", "Z5", "S3")
TORSION_D = range(2, 31)


def torus_torsion(seed: int) -> list[Op]:
    from aniso import lattice, replay, torus
    rng = random.Random(seed)
    ops: list[Op] = []

    def add_model(label, build, check_model, m, actions):
        held = {}

        def call_build():
            held.pop("model", None)  # a failed build must not leave a stale model
            held["model"] = build()
            return held["model"]

        ops.append(Op(f"build {label}", call_build, check_model))
        for d in TORSION_D:
            ops.append(Op(
                f"torsion {label} d={d}",
                lambda d=d: torus.torsion_points(held["model"], d),
                lambda rep, d=d: oracles.check_torsion(
                    rep.group.invariant_factors, rep.witnesses,
                    rep.divisibility_check, d, m, actions)))

    for grp in inputs.regular_groups(rng, NORM_QUOTIENT_GROUPS):
        n, table, name = grp["order"], grp["table"], grp["name"]
        actions = [inputs.regular_action_matrix(table, s) for s in range(1, n)]

        def check_model(model, n=n):
            if (model.rank, model.theta_order, model.norm_group_order) != (n - 1, n, n):
                return (f"model rank {model.rank}, acting order "
                        f"{model.theta_order}, expected {n - 1} and {n}")
            return None

        add_model(f"norm-quotient {name}",
                  lambda table=table, name=name: torus.norm_quotient_torus(table, label=name),
                  check_model, n, actions)

    for act in inputs.augmentation_lattices(AUGMENTATION_ACTIONS):
        gens = [lattice.IntMatrix.from_rows(mat) for mat in act["matrices"]]
        m, order = act["m"], act["order"]

        def check_model(model, order=order):
            if model.theta_order != order:
                return f"acting group of order {model.theta_order}, expected {order}"
            return None

        add_model(act["name"],
                  lambda m=m, gens=gens, name=act["name"]: torus.TorusModel(m - 1, gens, name),
                  check_model, m, act["matrices"])

    for grp in inputs.regular_groups(rng, H1_GROUPS):
        gens = [lattice.IntMatrix.from_rows(inputs.regular_action_matrix(grp["table"], g))
                for g in grp["generators"]]
        ops.append(Op(f"h1 {grp['name']}",
                      lambda gens=gens: lattice.h1_of_theta_module(gens),
                      lambda h, n=grp["order"]: oracles.check_h1(
                          h.invariant_factors, h.free_rank, n)))

    for entry, check in (("example-2.5", oracles.check_replay_25),
                         ("example-2.6", oracles.check_replay_26)):
        ops.append(Op(f"replay {entry}",
                      lambda entry=entry: replay.run_replay([entry], seed=seed),
                      lambda res, check=check: check(res[0])))
    return ops


# ---------------------------------------------------------------------------
# field-algebra: scalars, fieldmatrix, csa, quadform and the CLI

NORM_DENSE = {2: 4, 3: 4, 4: 4, 5: 1}  # dense elements per degree
ARF_SHAPES = ((2, 2), (2, 4), (2, 6), (2, 8), (4, 2), (4, 4), (4, 6),
              (16, 2), (16, 4))        # (q, dim), two forms of each Arf class
EXTRACT_SHAPES = ((3, 0), (3, 2), (5, 0), (5, 1), (7, 0), (7, 1))
COMMUTATOR_N = (2, 3, 4, 5, 6)
BURNSIDE_M = (3, 4, 5, 6, 8, 10, 12)  # companion matrices of Phi_m over Q
BURNSIDE_PROBES = 3  # values of d per group, on both sides of the exponent
PFISTER_TRIALS = 50


def _arf_failures() -> list[dict]:
    """x1^2 + x1 x2 + a x2^2 + x3^2 + x3 x4 + a x4^2 with Tr(a) = 1 over
    F_32 and F_256: two anisotropic planes, Arf class 0. The block merge
    searches all q^4 vectors and refuses fields with q^4 > 2^16."""
    out = []
    for q in (32, 256):
        gf = oracles.GF2m(q)
        a = gf.trace_one
        coeffs = {(0, 0): 1, (0, 1): 1, (1, 1): a, (2, 2): 1, (2, 3): 1, (3, 3): a}
        out.append({"q": q, "dim": 4, "arf_class": 0, "coeffs": coeffs, "gf": gf})
    return out


def field_algebra(seed: int) -> list[Op]:
    from aniso import bounds, fieldmatrix, pairing, scalars
    rng = random.Random(seed)
    ops: list[Op] = []
    argv_json = ["--json"]

    def cli_op(label, argv, payload, check, known_failure=None):
        text = json.dumps(payload) if payload is not None else ""
        ops.append(Op(label, lambda: cli_request(argv, text), _cli_check(check),
                      known_failure))

    for n in sorted(NORM_DENSE):
        shapes = ["dense"] * NORM_DENSE[n] + ["u", "v", "monomial"]
        for shape in shapes:
            elt = inputs.symbol_element(rng, n, shape)
            cli_op(f"csa norm n={n} {shape}", ["csa", "norm", "--input", "-", *argv_json],
                   inputs.norm_payload(n, elt),
                   lambda rep, st, n=n, elt=elt: oracles.check_norm(n, elt, rep))

    for p in (2, 3, 5, 7):
        cli_op(f"csa verify-weyl p={p}", ["csa", "verify-weyl", "--p", str(p), *argv_json],
               None, lambda rep, st, p=p: oracles.check_weyl(p, rep, st))
    for p in (2, 3, 5):
        for m in range(1, 5):
            cli_op(f"csa torsion p={p} m={m}",
                   ["csa", "torsion", "--p", str(p), "--m", str(m), *argv_json], None,
                   lambda rep, st, p=p, m=m: oracles.check_csa_torsion(p, m, rep, st))

    zero_counts: dict = {}  # per input form, filled on first check

    def arf_check(form, gf):
        def check(rep, st):
            if "error" in rep:
                return f"error {rep['error']}"
            key = id(form)
            if key not in zero_counts:
                zero_counts[key] = (gf.count_zeros(form["coeffs"], form["dim"])
                                    if gf.q ** form["dim"] <= 1 << 16 else None)
            return oracles.check_arf(gf, form, rep, zero_counts[key])
        return check

    fields = {q: oracles.GF2m(q) for q in (2, 4, 16)}
    for q, dim in ARF_SHAPES:
        for arf_class in (0, 1, 0, 1):
            form = inputs.arf_form(rng, fields[q], dim, arf_class)
            cli_op(f"quad arf F_{q} dim={dim} class={arf_class}",
                   ["quad", "arf", "--input", "-", *argv_json],
                   inputs.form_payload(q, dim, form["coeffs"]), arf_check(form, fields[q]))
    for form in _arf_failures():
        cli_op(f"quad arf F_{form['q']} two anisotropic planes",
               ["quad", "arf", "--input", "-", *argv_json],
               inputs.form_payload(form["q"], 4, form["coeffs"]),
               arf_check(form, form["gf"]), known_failure="FieldTooLarge")

    for p, extra in EXTRACT_SHAPES:
        form = inputs.order_p_isometry(rng, p, extra)
        cli_op(f"quad extract-isotropic p={p} dim={form['dim']}",
               ["quad", "extract-isotropic", "--input", "-", *argv_json],
               inputs.extract_payload(form),
               lambda rep, st, form=form: oracles.check_isotropic_vector(form, rep))

    cli_op("quad pfister k=3", ["quad", "pfister", "--k", "3", "--trials",
                                str(PFISTER_TRIALS), "--seed", str(seed), *argv_json],
           None, lambda rep, st: oracles.check_pfister(rep, st, PFISTER_TRIALS))

    for entry, check in (("example-4.8", oracles.check_replay_48),
                         ("example-5.4", oracles.check_replay_54),
                         ("minkowski-table", oracles.check_minkowski)):
        cli_op(f"replay {entry}", ["replay", entry, "--seed", str(seed), *argv_json], None,
               lambda rep, st, check=check: check(rep[0]))

    for n in COMMUTATOR_N:
        lift = inputs.clock_shift_lift(rng, n)
        field = scalars.Field(scalars.cyclotomic(n))
        zeta = field.zeta(n)
        mats = [fieldmatrix.mat_from_rows(
            [[field.zero if e is None else zeta ** e for e in row] for row in mat])
            for mat in lift["matrices"]]
        ops.append(Op(f"commutator pairing n={n}",
                      lambda mats=mats: pairing.matrix_commutator_pairing(mats),
                      lambda res, n=n: oracles.check_commutator(
                          n, res.pairing.group.invariant_factors, res.pairing.gram)))

    q_field = scalars.Field(scalars.rationals())
    for m in BURNSIDE_M:
        gen = [[q_field.from_int(x) for x in row]
               for row in inputs.companion_of_cyclotomic(m)]
        for d in inputs.pick_divisor_probes(rng, m, BURNSIDE_PROBES):
            ops.append(Op(
                f"burnside C{m} d={d}",
                lambda gen=gen, d=d: bounds.burnside_divisibility_check(
                    bounds.FiniteMatrixGroup.from_generators(scalars.rationals(), [gen]), d),
                lambda rep, m=m, d=d: oracles.check_burnside(rep, m, m, d)))
    return ops


# ---------------------------------------------------------------------------
# pairing-isotropic: enumeration and validation over Fractions

# halves of symplectic groups (Z/n1)^2 + (Z/n2)^2 + ...: order <= 256 ...
SMALL_SYMPLECTIC = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,),
                    (12,), (15,), (16,), (2, 2), (2, 4), (2, 6), (3, 3),
                    (2, 8), (4, 4), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2))
# ... and of order 1024..4096, next to the 4096-element enumeration cap.
# The sixteen (Z/32)^2 set the 90th-percentile latency: their cost hardly
# depends on the gram, while mixed shapes left it moving by 11% between seeds.
LARGE_SYMPLECTIC = ((64,), (4, 16), (8, 8), (2, 4, 8)) + ((32,),) * 16
# degenerate shapes with a random gram: order <= 256, then 1024..4096
SMALL_RANDOM = ((2,), (4,), (2, 4), (2, 6), (3, 9), (4, 4), (9, 9), (5, 5),
                (2, 2, 2), (2, 4, 8), (2, 2, 6), (3, 3, 3), (6, 12), (8, 16),
                (2, 8, 8), (12, 12), (2, 2, 2, 2), (2, 2, 4, 4), (2, 2, 2, 4),
                (4, 4, 4, 4))
LARGE_RANDOM = ((32, 32), (32, 32), (4, 4, 16, 16))
RADICAL = (((2, 4), 4), ((3,), 9), ((2, 2, 2), 4))
# primary parts beyond the enumeration cap; the gram does not use the seed
TOO_LARGE = (
    ((128, 128), ((0, 1, "1/128"),)),
    ((3, 9, 27, 27), ((0, 1, "1/3"), (2, 3, "1/27"))),
)


def _fixed_pairing(factors, entries) -> dict:
    from fractions import Fraction
    k = len(factors)
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i, j, v in entries:
        gram[i][j] = Fraction(v)
        gram[j][i] = (-Fraction(v)) % 1
    return {"factors": list(factors), "gram": gram, "nondegenerate": None}


def pairing_isotropic(seed: int) -> list[Op]:
    from aniso import pairing
    rng = random.Random(seed)
    specs = []
    for halves in SMALL_SYMPLECTIC:
        specs += [("symplectic", inputs.symplectic_pairing(rng, halves)) for _ in range(2)]
    specs += [("random", inputs.random_pairing(rng, shape))
              for shape in SMALL_RANDOM for _ in range(2)]
    specs += [("with radical", inputs.with_radical(rng, halves, r)) for halves, r in RADICAL]
    specs += [("symplectic", inputs.symplectic_pairing(rng, halves)) for halves in LARGE_SYMPLECTIC]
    specs += [("random", inputs.random_pairing(rng, shape)) for shape in LARGE_RANDOM]
    ops = []
    for kind, spec in specs:
        ops.append(_isotropic_op(pairing, kind, spec, None))
    for factors, entries in TOO_LARGE:
        ops.append(_isotropic_op(pairing, "beyond the cap",
                                 _fixed_pairing(factors, entries), "GroupTooLarge"))
    return ops


def _isotropic_op(pairing, kind: str, spec: dict, known_failure) -> Op:
    obj = pairing.AlternatingPairing(pairing.FiniteAbelianGroup(spec["factors"]), spec["gram"])
    return Op(f"isotropic {kind} {tuple(spec['factors'])}",
              lambda: pairing.isotropic_subgroup(obj),
              lambda res: oracles.check_isotropic_subgroup(
                  spec, res.generators, res.generator_orders, res.order),
              known_failure)


WORKLOADS = {
    "torus-torsion": torus_torsion,
    "field-algebra": field_algebra,
    "pairing-isotropic": pairing_isotropic,
}
