"""The package's modules import one another in one direction only.

Each module may import from the package only the modules listed before
it, so the operator layer (channels) can never reach back into the
theorem1 suite, the cycle kernel or the sweeps built on it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ottosim"
ORDER = ["_record", "errors", "tolerances", "text", "core", "substances",
         "channels", "measurements", "theorem1", "cycle", "sweeps", "cli",
         "__init__", "__main__"]


def _imported(tree):
    """The package modules a module's syntax tree imports, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "ottosim":
            yield (node.module.split(".") + ["__init__"])[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ottosim":
                    yield (parts + ["__init__"])[1]


def test_every_module_has_its_place_in_the_order():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_each_module_imports_only_modules_below_it():
    for path in sorted(PACKAGE.glob("*.py")):
        rank = ORDER.index(path.stem)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _imported(tree):
            assert ORDER.index(name) < rank, f"{path.stem} imports {name}"
