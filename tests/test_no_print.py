"""The library reports through return values, manifests and exceptions; only
the CLI writes to the terminal."""

import ast
from pathlib import Path

import emgdecode

PACKAGE = Path(emgdecode.__file__).parent


def terminal_writes(source: str) -> list[int]:
    """Line numbers of ``print`` calls and ``sys.stdout``/``sys.stderr`` uses."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            lines.append(node.lineno)
    return lines


def test_detector_sees_prints_and_stream_writes():
    source = "import sys\nprint('x')\nsys.stderr.write('y')\nsys.stdout.flush()\n"
    assert terminal_writes(source) == [2, 3, 4]


def test_library_never_prints():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")
    assert {"synth.py", "evaluation.py", "regression.py"} <= {p.name for p in modules}
    found = {p.name: terminal_writes(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
