"""The README's library examples run as written and give the counts they
document, so a renamed or removed public name cannot leave them stale."""

import re
from pathlib import Path

import dgb
from helpers import gamma_basis

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(monkeypatch):
    # the second block computes the cycle8 basis that the acceptance suite
    # also computes; the shared memo runs it once per session
    monkeypatch.setattr(dgb, "groebner_gamma_basis", gamma_basis)
    blocks = _python_blocks()
    assert len(blocks) == 2
    namespaces = []
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        namespaces.append(namespace)
    symmetric = namespaces[1]
    assert len(symmetric["gamma"]) == 32
    assert len(symmetric["classic"]) == 54
