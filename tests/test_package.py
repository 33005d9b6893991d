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

# Public names that nothing outside tests/ calls, each with its reason.
UNCALLED_EXPORTS = {
    "save_fiducial": "writes the fiducial files that `fermitree qudit-sic --fiducial` reads",
}


def _names_used(source):
    """Names that Python source loads, reads as attributes or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    return used


def _attributes_read(source):
    """Names that Python source reads as attributes, ``obj.name``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _names_used_outside_the_tests(names=_names_used):
    """``names`` of the package modules (not its export list), the
    benchmark, the demos and the criteria tests."""
    files = [p for p in (ROOT / "src" / "fermitree").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(*(names(p.read_text(encoding="utf-8")) for p in files))


def test_every_export_is_used_outside_the_tests():
    # a name whose only caller is its own unit test is deleted, not exported;
    # the package's own export list and definitions do not count as use
    used = _names_used_outside_the_tests()
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert set(UNCALLED_EXPORTS) <= set(fermitree.__all__)
    assert sorted(set(fermitree.__all__) - used - set(UNCALLED_EXPORTS)) == []


def _public_definitions():
    """Qualified names of the package's public module-level functions,
    classes and constants and of its classes' public methods and properties."""
    defined = []
    for path in sorted((ROOT / "src" / "fermitree").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    return [(owner, name) for owner, name in defined if not name.startswith("_")]


def _names_used_by_callers(names=_names_used):
    """``names`` outside the tests plus those of the README's python
    blocks; README prose does not count as use."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = _names_used_outside_the_tests(names)
    for block in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        used |= names(block)
    return used


def test_every_public_name_is_used_outside_the_tests():
    # a function, class, constant, method or property whose only caller is
    # a unit test is deleted or moved into the test oracles
    used = _names_used_by_callers()
    unused = sorted(
        f"{owner}.{name}"
        for owner, name in _public_definitions()
        if name not in used and name not in UNCALLED_EXPORTS
    )
    assert not unused, f"reached only by tests: {', '.join(unused)}"


def _public_dataclass_fields():
    """Qualified names of the public fields of the package's public dataclasses."""
    fields = []
    for path in sorted((ROOT / "src" / "fermitree").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            fields += [
                (node.name, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return [(owner, name) for owner, name in fields if not name.startswith("_")]


def test_every_public_dataclass_field_is_read_outside_the_tests():
    # a field that only tests read is a value computed for nobody; only
    # ``obj.field`` counts as a read, not a keyword argument or a local
    # variable of the same name.  BellShotStream.seed passes only through
    # ``args.seed``; it stays for the provenance header that written
    # streams are to carry.
    used = _names_used_by_callers(_attributes_read)
    fields = _public_dataclass_fields()
    assert ("MappingVerification", "max_weight") in fields  # the scan finds fields
    unread = sorted(f"{owner}.{name}" for owner, name in fields if name not in used)
    assert not unread, f"read only by tests: {', '.join(unread)}"


def test_one_module_owns_the_outcome_count_cache():
    # the per-stream counts live beside BellShotStream, and the qudit
    # estimator reaches them without the qubit estimator
    touching = []
    for path in sorted((ROOT / "src" / "fermitree").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_tables"
            or isinstance(node, ast.Constant) and node.value == "_tables"
            for node in ast.walk(tree)
        ):
            touching.append(path.name)
    assert touching == ["statesim.py"]
    qudit = ast.parse((ROOT / "src" / "fermitree" / "qudit.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(qudit):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "statesim" in imported
    assert not [name for name in imported if name.split(".")[-1] == "tomography"]


def test_the_cli_imports_no_private_name_of_the_package():
    # a check the library runs anyway is not run again from the front end
    cli = ast.parse((ROOT / "src" / "fermitree" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(cli)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fermitree"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []
