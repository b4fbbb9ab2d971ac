"""Byte-identity of CLI reports against checked-in golden outputs.

Each case runs one `aniso` command in-process and compares its stdout, byte
for byte, with `tests/golden/<name>.out.json`. Inputs read from stdin live
in `tests/golden/<name>.in.json`. A change that is meant to alter one of
these reports rewrites its golden file with

    PYTHONPATH=src python tests/test_golden.py <name> ...
"""

import io
import sys
from pathlib import Path

import pytest

from aniso.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
}


def run_case(name: str) -> tuple[int, str]:
    stdin = GOLDEN / f"{name}.in.json"
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdout = io.StringIO()
    if stdin.exists():
        sys.stdin = io.StringIO(stdin.read_text())
    try:
        code = main(CASES[name])
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = run_case(name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.out.json").read_text()


if __name__ == "__main__":
    for name in sys.argv[1:]:
        code, out = run_case(name)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out.json").write_text(out)
