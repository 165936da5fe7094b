"""Static check: every public top-level name in src/idak/ has a caller in
src/ outside its own definition, or a row in README's "Library surface"
table that says what it serves.

A cmd_* function of idak.cli has no caller by name: main looks it up as
"cmd_" + the subcommand, with "-" read as "_", so it counts as called when
build_parser() has that subcommand.
"""

import argparse
import ast
import collections
import re
from pathlib import Path

import idak
from idak.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
# the package that `import idak` loads, so a mutated copy of src/ is checked
SRC = Path(idak.__file__).parent


def public_names(tree):
    """(name, node) for each top-level def, class or assignment whose name
    does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def uncalled(sources: dict, commands=()) -> list[str]:
    """The public names of sources (module name -> source text) that no
    Name or Attribute outside their own definition reads, in module order.
    An import alone reads nothing.  cmd_X counts as read when X, with "-"
    read as "_", is one of commands."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = collections.Counter(name for tree in trees.values() for name in _reads(tree))
    reached = {"cmd_" + command.replace("-", "_") for command in commands}
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in public_names(tree)
        if name not in reached and reads[name] == list(_reads(definition)).count(name)
    ]


def _reads(tree):
    """The name that each Name or Attribute node of tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def surface_rows(readme: str) -> set[str]:
    """The names in the first column of README's "Library surface" table."""
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.M))


def subcommands() -> set[str]:
    parser = build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return set(action.choices)


def test_the_check_sees_a_public_name_without_a_caller():
    sources = {
        "a": "LIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef lonely():\n    return lonely\n"
             "\ndef _private():\n    return 0\n\ndef cmd_go_on(args):\n    return 0\n"
             "\ndef cmd_stop(args):\n    return 0\n",
        "b": "import a\nfrom a import lonely, used\n\nclass Thing:\n    pass\n\n"
             "print(used(), a.Thing)\n",
    }
    # lonely reads only itself and is imported but never read; cmd_stop
    # has no subcommand
    assert uncalled(sources, commands=["go-on"]) == ["a.lonely", "a.cmd_stop"]
    assert uncalled(sources) == ["a.lonely", "a.cmd_go_on", "a.cmd_stop"]


def test_every_public_name_has_a_caller_in_src_or_a_row_in_the_readme():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
    }
    found = {name.partition(".")[2] for name in uncalled(sources, subcommands())}
    rows = surface_rows((ROOT / "README.md").read_text(encoding="utf-8"))
    # a name with a caller, or gone, has no row; a name with neither needs one
    assert sorted(rows - found) == []
    assert sorted(found - rows) == []
