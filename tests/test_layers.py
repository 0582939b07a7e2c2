"""The package's modules import one another in one direction only.

Each module may import from the package only the modules listed before
it, so the operator layer (channels) can never reach back into the
theorem1 suite, the cycle kernel or the sweeps built on it. The sweep
path (sweeps and the cycle kernel) handles Kraus stacks only, so it
names no builder of KrausChannel records.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ottosim"
ORDER = ["_record", "errors", "tolerances", "text", "core", "substances",
         "channels", "measurements", "theorem1", "cycle", "sweeps", "cli",
         "__init__", "__main__"]
RECORD_BUILDERS = {"_channel_records", "kraus_channel", "projective_channel",
                   "su3_projective_channel", "su3_projective_channels",
                   "local_spin_channel"}


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


def _names(tree):
    """Every name a module's syntax tree imports, reads or looks up."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_the_sweep_path_imports_no_channel_record_builder():
    for stem in ("sweeps", "cycle"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        used = RECORD_BUILDERS.intersection(_names(tree))
        assert not used, f"{stem} uses {sorted(used)}"
