"""The library calls the benchmark makes still work.

`perfbench/child.py` drives the benchmark's workloads through `parse_problem`,
`parse_polynomial`, `sigma_gbasis_adaptive`, `interreduce`,
`reduce(certificate=True)`, `replay_certificate` and `reduce_full`.  These
tests run two of its modes in fresh interpreters, from the repository root
with `PYTHONPATH=src`, so a change to any of those calls shows up here rather
than first in a benchmark run.  They take about a second and write no files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _child(*args):
    """The JSON object on the last line of a child.py run's stdout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "perfbench/child.py", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_setup_parses_the_cycle8_problem():
    out = _child("setup", "--input", "tests/data/twisted_cubic_cycle8.dgb")
    assert out["polynomials"] == 2


def test_bench_flow_items_pass():
    out = _child("flow", "--seed", "1", "--batch", "0", "--items", "3")
    assert out["setup_problems"] == []
    assert len(out["items"]) == 3
    assert [problem for _, problem in out["items"]] == [None, None, None]
