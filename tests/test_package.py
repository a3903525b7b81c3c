import json
import os
import subprocess
import sys
import types
from pathlib import Path

import dgb
import golden_navier
from dgb.cli import parse_polynomial, parse_problem

SRC = Path(dgb.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"


def test_all_names_resolve_to_public_objects():
    assert len(set(dgb.__all__)) == len(dgb.__all__)
    for name in dgb.__all__:
        value = getattr(dgb, name)
        assert not isinstance(value, types.ModuleType), name


# --- the runtime does not need sympy ---------------------------------------

_CLI_WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # every import of sympy now raises ImportError
import dgb.cli

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dgb.cli.run(argv)
    return code, out.getvalue(), err.getvalue()

print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))
"""

_PARAMETER_RING = """
import sys
from dgb import DifferenceRing, Signature
from dgb.cli import parse_polynomial

ring = DifferenceRing(Signature(1, ("x",), ("H",)))
f = parse_polynomial(ring, "(H+1)/(H^2-1)*x(1) - x(0)/H")
print(f * f)
print(any(name.split(".")[0] == "sympy" for name in sys.modules))
"""


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _report(stdout):
    """A JSON report without its wall clock and input path."""
    report = json.loads(stdout)
    del report["wall_clock_seconds"]
    del report["config"]["input"]
    return report


# Recorded with the sympy-based field of earlier versions.
_REDUCE_POLY = ("(H+1)/H*u(2,1,0)*v(1,0,0) + H*p(2,0,0) - 1/3*u(1,1,1)^2"
                " + v(2,1,0)/(H^2+1)")
_REDUCE_REPORT = {
    "certificate": [
        {"basis_index": 0, "coefficient": "(H + 1)/H", "coefficient_negative": False,
         "cofactor": "v(1,0,0)", "shift": [1, 1, 0]},
        {"basis_index": 2, "coefficient": "1/(H^2 + 1)", "coefficient_negative": True,
         "cofactor": "1", "shift": [0, 1, 0]}],
    "certificate_ok": True, "command": "reduce", "config": {"poly": _REDUCE_POLY},
    "exit_code": 0, "membership": None,
    "remainder": (
        "-((H + 1)/H)*v(1,2,0)*v(1,0,0) - (1/(H^2 + 1))*v(0,3,0)"
        " - 1/3*u(1,1,1)^2 + H*p(2,0,0) + ((H + 1)/H)*u(1,1,0)*v(1,0,0)"
        " + ((H + 1)/H)*v(1,1,0)*v(1,0,0) + (H/(H^2 + 1))*v(1,1,0)*u(0,1,0)"
        " + (2/(H^2 + 1))*v(1,1,0) + (H/(H^2 + 1))*v(0,2,0)*v(0,1,0)"
        " + (2/(H^2 + 1))*v(0,2,0) + (H/(H^2 + 1))*p(0,2,0)"
        " + (H/(H^2 + 1))*v(0,1,1) - (H/(H^2 + 1))*u(0,1,0)*v(0,1,0)"
        " - (H/(H^2 + 1))*v(0,1,0)^2 - ((H + 2)/(H^2 + 1))*v(0,1,0)"
        " - (H/(H^2 + 1))*p(0,1,0)"),
    "status": "reduced"}
_NORMAL_FORM_REPORT = {
    "command": "normal-form", "config": {"var": "x(6)"}, "exit_code": 0,
    "membership": None,
    "normal_form": (
        "((2*H^8 + 5*H^7 - 5*H^6 - 22*H^5 - 11*H^4 + 16*H^3 + 26*H^2 + 16*H + 4)"
        "/(H^8 - 4*H^6 + 4*H^4))*x(2)"
        " + ((H^7 + 2*H^6 - 7*H^5 - 14*H^4 + 6*H^3 + 22*H^2 + 16*H + 4)"
        "/(2*H^7 - 8*H^5 + 8*H^3))*x(1)"
        " + ((3*H^5 + 6*H^4 - 4*H^3 - 14*H^2 - 12*H - 4)/(4*H^5 - 8*H^3))*x(0)"),
    "normal_variables": 3, "status": "ok"}


def test_cli_runs_over_parameters_without_sympy(tmp_path):
    flow = str(DATA / "navier_stokes.dgb")
    relations = tmp_path / "nf.dgb"
    relations.write_text("ring { shifts: 1; symbols: x; parameters: H; }\n"
                         "ideal { x(3) - (H+1)/H*x(2) + 1/(H^2-2)*x(1) - 1/2*x(0); }\n")
    runs = [["compute", "--input", flow, "--adaptive", "--interreduce", "--stats", "--json"],
            ["reduce", "--input", flow, "--poly", _REDUCE_POLY, "--certificate", "--json"],
            ["normal-form", "--input", str(relations), "--var", "x(6)", "--json"]]
    (code, out, err), reduce_run, normal_form_run = json.loads(
        _python(_CLI_WITHOUT_SYMPY, json.dumps(runs)))

    assert (code, err) == (0, "")
    report = _report(out)
    assert report["status"] == "complete"
    assert report["stats"] == {"generated": 2, "killed_chain": 0, "killed_product": 8,
                               "killed_sigma": 5, "killed_truncation": 0,
                               "new_elements": 2, "reduced_to_zero": 0, "sweeps": 1}
    assert set(report["leading_monomials"]) == golden_navier.LEADING_MONOMIALS
    ring = parse_problem((DATA / "navier_stokes.dgb").read_text()).ring
    basis = [parse_polynomial(ring, text) for text in report["basis"]]
    for text in (golden_navier.REDUCED_SECOND, golden_navier.PRESSURE_ELEMENT):
        assert parse_polynomial(ring, text) in basis

    assert reduce_run[0] == 0 and reduce_run[2] == ""
    assert _report(reduce_run[1]) == _REDUCE_REPORT
    assert normal_form_run[0] == 0 and normal_form_run[2] == ""
    assert _report(normal_form_run[1]) == _NORMAL_FORM_REPORT


def test_parameter_ring_leaves_sympy_unimported():
    square, sympy_loaded = _python(_PARAMETER_RING).splitlines()
    assert square == ("(1/(H^2 - 2*H + 1))*x(1)^2 - (2/(H^2 - H))*x(1)*x(0)"
                      " + (1/H^2)*x(0)^2")
    assert sympy_loaded == "False"


# --- the import footprint ----------------------------------------------------

_ADDED_MODULES = """
import json, sys
bare = set(sys.modules)
import dgb.cli
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def test_cli_import_leaves_the_introspection_modules_unloaded():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a third of a cold `import dgb.cli`, paid by every run of the command.
    added = json.loads(_python(_ADDED_MODULES))
    assert "dgb.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)
