"""The package's export list."""

import ast
import re
import types
from pathlib import Path

import fermitree


def test_every_exported_name_resolves():
    for name in fermitree.__all__:
        assert getattr(fermitree, name) is not None, name
    assert len(set(fermitree.__all__)) == len(fermitree.__all__)


def test_every_public_package_attribute_is_exported():
    public = {
        name
        for name, value in vars(fermitree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fermitree.__all__)



ROOT = Path(__file__).resolve().parents[1]

# Exported names that nothing outside tests/ calls, each with its reason.
UNCALLED_EXPORTS = {
    "save_mapping": "writes the mapping files that `fermitree verify --input` reads",
    "save_fiducial": "writes the fiducial files that `fermitree qudit-sic --fiducial` reads",
}


def _names_used(path):
    """Names that a Python file loads, reads as attributes or imports."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    return used


def test_every_export_is_used_outside_the_tests():
    # a name whose only caller is its own unit test is deleted, not exported;
    # the package's own export list and definitions do not count as use
    files = [p for p in (ROOT / "src" / "fermitree").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names_used, files))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert set(UNCALLED_EXPORTS) <= set(fermitree.__all__)
    assert sorted(set(fermitree.__all__) - used - set(UNCALLED_EXPORTS)) == []
