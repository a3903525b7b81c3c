"""Pinned command-line outputs.

Each case runs `dgb` in-process from `tests/data` and compares its exit
code, stdout and stderr with `tests/data/cli/<name>.out`, with the wall
clock masked.  After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_snapshots.py

and review the diff.
"""

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from dgb.cli import run

DATA = Path(__file__).parent / "data"

CASES = {
    "flow_adaptive": ["compute", "--input", "navier_stokes.dgb", "--adaptive",
                      "--minimal", "--interreduce", "--stats"],
    "flow_adaptive_json": ["compute", "--input", "navier_stokes.dgb", "--adaptive",
                           "--minimal", "--interreduce", "--stats", "--json"],
    "minimal": ["compute", "--input", "cli/perturbed.dgb", "--adaptive", "--minimal",
                "--stats"],
    "truncate": ["compute", "--input", "cli/grow.dgb", "--truncate", "4"],
    "pair_budget": ["compute", "--input", "cli/grow.dgb", "--pair-budget", "3"],
    "no_chain_json": ["compute", "--input", "cli/perturbed.dgb", "--no-chain",
                      "--adaptive", "--stats", "--json"],
    "verify_complete": ["verify", "--input", "cli/complete.dgb"],
    "verify_perturbed_json": ["verify", "--input", "cli/perturbed.dgb", "--json"],
    "reduce_certificate": ["reduce", "--input", "cli/reduce.dgb",
                           "--poly", "x(3)^2 + x(2)*x(0)", "--certificate"],
    "reduce_certificate_json": ["reduce", "--input", "cli/reduce.dgb",
                                "--poly", "x(3)^2 + x(2)*x(0)", "--certificate",
                                "--json"],
    "normal_form": ["normal-form", "--input", "cli/relations.dgb", "--var", "u(4,5)"],
    "normal_form_json": ["normal-form", "--input", "cli/relations.dgb",
                         "--var", "u(4,5)", "--json"],
    "symmetric_classical": ["symmetric", "--gens", "cli/cycle5.dgb", "--classical",
                            "--stats"],
    "parse_error": ["compute", "--input", "cli/bad.dgb"],
    "usage_error": ["compute", "--input", "cli/grow.dgb", "--adaptive",
                    "--truncate", "2"],
    "order_cap_usage_error": ["compute", "--input", "cli/grow.dgb", "--order-cap", "3"],
}

_WALL_CLOCK = re.compile(r'("wall_clock_seconds": )[0-9.e-]+|(wall clock: )[0-9.]+s')


def _capture(argv):
    """The exit code, stdout and stderr of one run, as one masked text."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return _WALL_CLOCK.sub(lambda m: (m.group(1) or m.group(2)) + "<masked>", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(name):
    expected = (DATA / "cli" / f"{name}.out").read_text(encoding="utf-8")
    assert _capture(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        (DATA / "cli" / f"{name}.out").write_text(_capture(argv), encoding="utf-8")
