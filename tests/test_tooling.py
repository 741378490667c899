"""Source-level checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hdx"


def test_library_checks_survive_optimised_mode():
    # python -O strips assert statements, so a library check must raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
            elif isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
    assert offenders == []
