#!/usr/bin/env python3
"""Benchmark of the aniso package: three workloads, checked answers.

    python3 perfbench/run.py --workload torus-torsion --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in one process, as a closed loop with one client: one
operation at a time, on one thread. Its fixed, seeded operation list is
replayed whole until --seconds have passed; every answer is checked
against an independent computation (perfbench/oracles.py). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1. The exit status is 0 unless an
answer was wrong or an operation failed in a way not known today.
See perfbench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("torus-torsion", "field-algebra", "pairing-isotropic")

SETUP_PROBES = 5
# Machine speed on a shared host drifts by tens of percent within seconds.
# A fixed calibration loop runs between chunks of operations, and every
# time is scaled to the speed at which that loop takes the reference
# duration below ("reference seconds"); raw times are printed beside them.
CALIBRATION_REFERENCE_S = 0.001
CHUNK_S = 0.05


def _calibration_work():
    acc, table = 0, {}
    for i in range(900):
        key = (i % 97, i * 7 % 13, i & 5)
        table[key] = table.get(key, 0) + i
        acc += sum(x * y for x, y in zip(key, key[1:]))
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i % 7, i)
    return acc, f


def calibrate() -> float:
    """Median duration of three passes of the calibration loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Round:
    def __init__(self):
        self.latencies: list[float] = []  # reference seconds, one per op
        self.raw: list[float] = []        # measured seconds
        self.known_failures = 0
        self.problems: list[str] = []
        self.layers: dict = {}

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def failed(self) -> int:
        return self.known_failures + len(self.problems)


def run_round(ops, tracer=None) -> Round:
    from perfbench.workloads import CliResult
    out = Round()
    chunk: list[float] = []
    before = calibrate()

    def flush():
        nonlocal before, chunk
        after = calibrate()
        factor = CALIBRATION_REFERENCE_S / ((before + after) / 2)
        out.latencies.extend(r * factor for r in chunk)
        out.raw.extend(chunk)
        before, chunk = after, []

    for op in ops:
        gc.collect()  # each operation starts with no garbage of earlier ones
        error = None
        t0 = time.perf_counter()
        try:
            result = tracer.operation(op.label, op.call) if tracer else op.call()
        except Exception as exc:  # the program's failure is the measurement
            result, error = None, type(exc).__name__
        chunk.append(time.perf_counter() - t0)
        if isinstance(result, CliResult):
            error = result.error_type()
        if error is not None:
            if error == op.known_failure:
                out.known_failures += 1
            else:
                out.problems.append(f"{op.label}: raised {error}")
        else:
            try:
                msg = op.check(result)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                msg = f"answer unreadable ({type(exc).__name__}: {exc})"
            if msg:
                out.problems.append(f"{op.label}: {msg}")
        if sum(chunk) >= CHUNK_S:
            flush()
    if chunk:
        flush()
    return out


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times from interpreter start to the first operation.

    Each probe is a fresh interpreter that imports aniso, builds the
    workload's inputs, and prints one line; the time to that line is one
    sample. A first, untimed probe fills the bytecode cache.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    setups, imports = [], []
    for i in range(SETUP_PROBES + 1):
        before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=60)
        if status != 0 or not line:
            raise RuntimeError(f"set-up probe failed with status {status}")
        factor = CALIBRATION_REFERENCE_S / ((before + calibrate()) / 2)
        if i:
            setups.append(elapsed * factor)
            imports.append(json.loads(line)["import_s"])
    return setups, imports


def build(workload: str, seed: int):
    t0 = time.perf_counter()
    import aniso  # noqa: F401  (the import is measured)
    import_s = time.perf_counter() - t0
    from perfbench import workloads
    return workloads.WORKLOADS[workload](seed), import_s


def quantile(values, k: int) -> float:
    """k-th decile by the exclusive method, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[k - 1] if len(values) > 1 else values[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "max_rows": "rows"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(args) -> int:
    from perfbench import oracles, tracer as tracing
    bad_checks = oracles.self_test()
    for name in bad_checks:
        print(f"self-test: the '{name}' check accepts a wrong answer", file=sys.stderr)
    ops, _ = build(args.workload, args.seed)
    gc.collect()
    gc.freeze()  # inputs live for the whole run; keep them out of collections
    setups, imports = probe_setup(args.workload, args.seed)

    rounds: list[Round] = []
    baseline = None
    tr = None
    if args.trace:
        baseline = run_round(ops)
        tr = tracing.Tracer()
        tr.install()
    start = time.perf_counter()
    try:
        while True:
            if tr:
                tr.new_round()
            rnd = run_round(ops, tr)
            if tr:
                rnd.layers = tr.round_metrics()
            rounds.append(rnd)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tr:
            tr.uninstall()

    everything = rounds + ([baseline] if baseline else [])
    attempted = len(ops) * len(everything)
    failed = sum(r.failed for r in everything)
    problems = [p for r in everything for p in r.problems]
    correct = not problems and not bad_checks
    # one latency per operation: its median over the rounds
    latencies = [statistics.median(x) for x in zip(*(r.latencies for r in rounds))]
    raw = [statistics.median(x) for x in zip(*(r.raw for r in rounds))]
    walls = [r.wall for r in rounds]
    wall = sum(latencies)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"{len(rounds)} rounds, {attempted} attempted, {failed} failed")
    print(f"  wall per round {wall:.4f} reference s ({sum(raw):.4f} s measured), "
          f"median op {1000 * statistics.median(latencies):.3f} ms "
          f"({1000 * statistics.median(raw):.3f} ms measured)")
    for p in problems[:20]:
        print(f"  WRONG {p}")

    if tr:
        layer_names = sorted(rounds[0].layers)
        metrics = {name: metric(statistics.median(r.layers[name] for r in rounds),
                                layer_unit(name)) for name in layer_names}
        metrics["aniso.import_s"] = metric(statistics.median(imports), "s")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(walls) / baseline.wall, "ratio")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(path, {"workload": args.workload, "seed": args.seed,
                        "rounds": [r.layers for r in rounds],
                        "untraced_wall_s": baseline.wall, "traced_wall_s": walls})
        print(f"  trace overhead x{metrics['trace.overhead_ratio']['value']:.2f}; "
              f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall, "s"),
            "op_p50_ms": metric(1000 * quantile(latencies, 5), "ms"),
            "op_p90_ms": metric(1000 * quantile(latencies, 9), "ms"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode or (0 if lines else 1)
    print()
    print(f"{'workload':<20}{'attempted':>10}{'failed':>8}  metrics")
    for name, res in results.items():
        if res is None:
            print(f"{name:<20}  no result")
            continue
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name:<20}{res['attempted']:>10}{res['failed']:>8}  {shown}")
    print(json.dumps({"correct": all(r and r["correct"] for r in results.values()),
                      "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "aniso" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        _, import_s = build(args.workload, args.seed)
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
