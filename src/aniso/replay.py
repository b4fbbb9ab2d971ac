"""Registry of end-to-end verifications for the worked examples.

Each entry re-runs one documented scenario and reports pass or fail with
exact values. Reports are deterministic: identical configuration yields
byte-identical output. Each entry imports the layers it uses, so the torus
entries run without loading the field arithmetic.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import torus
from .errors import AnisoError
from .lattice import IntMatrix


class ReplayError(AnisoError):
    pass


class UnknownExampleId(ReplayError):
    pass


def _minkowski_table(seed: int):
    from . import bounds
    expected = {1: (2, 2), 2: (12, 24), 3: (48, 48)}
    rows = []
    ok = True
    for n in (1, 2, 3):
        mv = bounds.minkowski_values(n)
        good = (mv.upsilon_a, mv.upsilon_m) == expected[n]
        ok = ok and good
        rows.append({"n": str(n), "upsilon_a": str(mv.upsilon_a),
                     "upsilon_m": str(mv.upsilon_m), "matches": good})
    return ok, {"table": rows}


def _rank_one_nonsplit(seed: int):
    model = torus.TorusModel(rank=1,
                             theta_generators=[IntMatrix.from_rows([[-1]])],
                             label="rank-1 nonsplit")
    ok = torus.is_anisotropic(model)
    report = torus.exponent_bound_check(model, 20)
    ok = ok and report.all_pass
    exponents = sorted({e for _, e in report.rows})
    ok = ok and all(e in (1, 2) for e in exponents)
    two = torus.torsion_points(model, 2)
    ok = ok and two.group.invariant_factors == (2,) and two.divisibility_check
    cert = torus.averaging_certificate(model, 2, (1,))
    ok = ok and cert.holds
    return ok, {
        "theta_order": str(model.theta_order),
        "d_range": "20",
        "exponents_seen": [str(e) for e in exponents],
        "torsion_at_2": [str(f) for f in two.group.invariant_factors],
        "averaging_certificate_holds": cert.holds,
    }


def _norm_quotient_family(seed: int):
    cases = [
        ("Z/2", torus.cyclic_table(2)),
        ("Z/3", torus.cyclic_table(3)),
        ("Z/4", torus.cyclic_table(4)),
        ("S_3", torus.symmetric_table(3)),
    ]
    rows = []
    ok = True
    for label, table in cases:
        model = torus.norm_quotient_torus(table, label=label)
        aniso = torus.is_anisotropic(model)
        report = torus.exponent_bound_check(model, 30)
        good = aniso and report.all_pass
        ok = ok and good
        rows.append({
            "group": label,
            "rank": str(model.rank),
            "theta_order": str(model.theta_order),
            "group_order": str(model.norm_group_order),
            "anisotropic": aniso,
            "exponents_divide_group_order": report.all_pass,
        })
    return ok, {"d_range": "30", "tori": rows}


def _weyl_split(seed: int):
    from . import csa
    rows = []
    ok = True
    for p in (2, 3, 5):
        spec = csa.WeylModPSpec(p)
        cert = csa.weyl_split_verification(spec)
        good = cert.ok
        subgroup_orders = []
        for m in range(1, 5):
            family = csa.distinct_irreducible_family(spec, m)
            rep = csa.inseparable_torsion_subgroup(spec, family)
            good = good and rep.rank == m
            subgroup_orders.append(str(rep.group_order))
        ok = ok and good
        rows.append({
            "p": str(p),
            "relations_hold": cert.ok,
            "monomials_independent": cert.monomials_independent,
            "elementary_abelian_orders": subgroup_orders,
        })
    return ok, {"certificates": rows}


def _pfister_k3(seed: int):
    from . import fieldmatrix, quadform
    data = quadform.pfister_build(3)
    sigma, tau = data.sigma, data.tau
    ident = fieldmatrix.identity(data.field, data.n)
    sigma_sq = fieldmatrix.mat_pow(sigma, 2) == ident
    tau_sq_scalar = fieldmatrix.scalar_of(fieldmatrix.mat_pow(tau, 2))
    tau_proj_involution = tau_sq_scalar is not None
    group, refuted = quadform.pfister_run(3, 100, seed)
    iota_ok = (group.iota_index != 0
               and group.table[group.iota_index][group.iota_index] == 0)
    orders_ok = set(group.projective_orders) <= {1, 2, 4}
    ok = (sigma_sq and tau_proj_involution and group.nonabelian
          and group.order == 8 and group.order_divides_bound and iota_ok
          and orders_ok and refuted == 100)
    return ok, {
        "sigma_squared_is_identity": sigma_sq,
        "tau_projectively_squares_to_identity": tau_proj_involution,
        "tau_multiplier_verified": True,
        **group.to_json(),
        "iota_nontrivial_involution": iota_ok,
        "candidates_refuted": str(refuted),
        "seed": str(seed),
    }


_REGISTRY: dict[str, tuple[str, Callable]] = {
    "example-2.5": ("rank-1 nonsplit torus torsion bound", _rank_one_nonsplit),
    "example-2.6": ("norm-quotient torus family bounds", _norm_quotient_family),
    "example-4.8": ("division-algebra split certificate and p-subgroups",
                    _weyl_split),
    "example-5.4": ("pointless quadric with non-abelian isometries",
                    _pfister_k3),
    "minkowski-table": ("integer matrix group bound table", _minkowski_table),
}


def replay_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_replay(ids: Optional[list[str]] = None, seed: int = 0) -> list[dict]:
    """Run the registered verifications; unknown ids raise immediately."""
    selected = list(_REGISTRY) if ids is None else list(ids)
    for entry_id in selected:
        if entry_id not in _REGISTRY:
            raise UnknownExampleId(f"no replay entry {entry_id!r}; known ids: "
                                   + ", ".join(_REGISTRY))
    results = []
    for entry_id in selected:
        title, runner = _REGISTRY[entry_id]
        try:
            ok, details = runner(seed)
        except Exception as exc:  # a crashed entry is a failing entry
            ok, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        results.append({
            "id": entry_id,
            "title": title,
            "status": "pass" if ok else "fail",
            "details": details,
        })
    return results
