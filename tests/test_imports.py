"""Static checks: no module in src/, tests/ or bench/ imports a name it never
uses, and tests/reference.py takes only value types from idak."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\nimport os\nimport os.path as osp\n"
        "from a import b, c as d\n__all__ = ['b']\nprint(osp)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "d (line 4)"]


def test_no_unused_imports_in_src_tests_or_bench():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for part in ("src", "tests", "bench")
        for path in sorted(ROOT.glob(f"{part}/**/*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


# the records and constants a reference may build and compare: none of them
# computes anything the tests check against the reference
VALUE_TYPES = {"GElem", "GTElem", "GroupParams", "INFINITY", "FlowMessage", "IdentityKey",
               "PiVariant", "SessionKey", "SharedSecret", "SystemParams"}


def test_the_reference_imports_only_value_types_from_idak():
    # a name from `from idak... import`, or the module of `import idak...`
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
             if (getattr(node, "module", None) or alias.name).split(".")[0] == "idak"}
    assert taken and taken <= VALUE_TYPES
