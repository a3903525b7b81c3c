"""Code that nothing in `src/dgb` reaches stays out of it.

Every module-level function and class of `src/dgb`, and every method or
property that is not a dunder, must be referenced somewhere in `src/dgb`
besides its definition, be exported in `dgb.__all__`, be the console-script
entry point, or be on `ALLOWED` with its reason.  The check is name-based:
any name or attribute of the same spelling anywhere in the package counts
as a reference, so it errs toward keeping code and never flags code that is
reached.
"""

import ast
import re
from pathlib import Path

import dgb

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "dgb"

ALLOWED = {
    "cli.serialize_basis": "writes a basis as a problem file; perfbench/README.md "
                           "says it wrote cycle8_basis.dgb",
    "cli._ArgumentParser.error": "argparse calls it on a usage error",
    "ring.DifferenceRing.constant": "README's way to build a constant polynomial",
    "ring.Polynomial.scale": "README's way to multiply by a field constant",
}


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{module}.{node.name}.{member.name}", member.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _entry_points():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return {target.replace(":", ".").removeprefix("dgb.")
            for target in re.findall(r'=\s*"([^"]+)"', scripts)}


def test_every_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    definitions = [(qualified, name) for module, tree in trees.items()
                   for qualified, name in _definitions(module, tree)]
    kept = {name for tree in trees.values() for name in _references(tree)} | set(dgb.__all__)
    entry = _entry_points()
    assert entry == {"cli.main"}
    assert len(ALLOWED) <= 10 and set(ALLOWED) <= {qualified for qualified, _ in definitions}
    unreached = [qualified for qualified, name in definitions
                 if name not in kept and qualified not in entry and qualified not in ALLOWED]
    assert unreached == []
