"""The package exports only what it runs: every public function in
`ucqaoa` has a caller in the program (the package's own modules,
`scripts/` or `perfbench/`), not in the tests alone, and every public
class is constructed or raised there.  A helper or a type only the tests
use belongs in tests/oracles.py."""

import ast
import inspect
from pathlib import Path

import ucqaoa

ROOT = Path(__file__).resolve().parents[1]

def _called_names() -> set[str]:
    """Names called as f(...) or mod.f(...) anywhere in the program, which
    covers a class built as C(...) or raised as raise C(...)."""
    files = [p for p in (ROOT / "src" / "ucqaoa").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_exported_function_is_called_by_the_program():
    exported = {name for name in dir(ucqaoa)
                if not name.startswith("_") and inspect.isfunction(getattr(ucqaoa, name))}
    assert exported - _called_names() == set()


def test_every_exported_class_is_built_or_raised_by_the_program():
    # objective once built a ContinuousAssignment only to run its checks
    exported = {name for name in dir(ucqaoa)
                if not name.startswith("_") and inspect.isclass(getattr(ucqaoa, name))}
    assert exported - _called_names() == set()
