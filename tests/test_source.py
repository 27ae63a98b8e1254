"""Rules that the package source itself must keep."""

import ast
from pathlib import Path

import threshmax


def test_no_assert_statements_in_the_package():
    """Invariants raise explicit exceptions: ``python -O`` strips asserts."""
    modules = sorted(Path(threshmax.__file__).parent.glob("*.py"))
    assert "threshold.py" in {path.name for path in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
