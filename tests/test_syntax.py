"""The package and its tests parse under the oldest Python that
pyproject.toml supports (requires-python >=3.10)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_as_python_3_10():
    paths = sorted([*(ROOT / "src" / "ottosim").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
