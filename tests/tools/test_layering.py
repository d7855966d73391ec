"""Layering guard: nothing under ``src/repro`` may import the tests.

Reference implementations live in ``tests/oracles/`` so that production
code has one path per behaviour; a ``src/`` module importing them (or any
other test module) would put a test-only arm back behind the package.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_tests(module: str) -> bool:
    return module == "tests" or module.startswith("tests.")


def imports_of_tests(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line, module)`` for every import of ``tests`` in one file:
    ``import``/``from`` statements and ``import_module``/``__import__``
    calls with a literal module name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_tests(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and _is_tests(node.module):
                yield node.lineno, node.module
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            arg = node.args[0]
            if (
                name in ("import_module", "__import__")
                and isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _is_tests(arg.value)
            ):
                yield node.lineno, arg.value


def test_src_never_imports_tests():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: imports {module}"
        for path in files
        for line, module in imports_of_tests(path)
    ]
    assert not offenders, "src/ must not import tests:\n" + "\n".join(offenders)


def test_guard_catches_every_import_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import tests.oracles\n"
        "from tests.oracles.appro import object_appro\n"
        "import importlib\n"
        "importlib.import_module('tests.oracles.gap')\n"
        "from repro.tests_helpers import x\n"
    )
    assert [line for line, _ in imports_of_tests(bad)] == [1, 2, 4]
