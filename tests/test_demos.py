"""Every demo script runs to completion against the source tree and prints
the same bytes.

The stdout hashes were taken on Python 3.11.7 with numpy 2.4.6 on x86-64;
re-take one only when a deliberate output change lands, and record that
change in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_polynomial_objectives": "2e10d2803f8441584a7671762874d017a926dbfbd6d5cfe95eecff45ac157e73",
    "02_cubic_regularization_steps":
        "efc47ac0ae98db02a8978a943c232e3a65fead81fc221f278b122487168beeab",
    "03_escaping_a_degenerate_saddle":
        "0b9a2b88c615190833e469bd56b15a02310038f96ff1cd2158e58c1960ff4f4e",
    "04_certifying_third_order_optimality":
        "e74431a28756035152c42cfdf4ccb3e6235f5bc439fa9f223b18094ce8fe7bbc",
    "05_sampler_and_rate_checks":
        "3eef0b26ab9c29d6f9f773b1ac59e87661f5b60a6eabc5c85addbebf6a594189",
}


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
