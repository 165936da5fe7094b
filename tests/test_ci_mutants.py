"""The mutants of the CI workflow, checked without running them.

The workflow's mutant steps replace an exact snippet of src/ and require
a named test to fail.  Each step first asserts that its snippet occurs
exactly once, so a refactor that moves or rewrites a snippet would pass
the tests and fail only in CI.  This check reads the snippets from the
workflow and makes the same assertion.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def loop_words(workflow: str, header: str) -> list[str]:
    """The double-quoted words of the one bash loop that starts with
    header, up to its "; do", with bash's escapes inside double quotes
    undone."""
    assert workflow.count(header) == 1, header
    start = workflow.index(header)
    words = re.findall(r'"((?:[^"\\]|\\.)*)"', workflow[start : workflow.index("; do", start)])
    return [re.sub(r'\\([$`"\\])', r"\1", word) for word in words]


def test_the_loop_reader_undoes_bash_escapes():
    workflow = 'for m in \\\n  "a \\"b\\" \\\\ c|d" \\\n  "e|f"; do\n  "g"\n'
    assert loop_words(workflow, "for m in") == ['a "b" \\ c|d', "e|f"]


def test_every_ci_mutant_snippet_occurs_once_in_its_file():
    workflow = WORKFLOW.read_text(encoding="utf-8")
    # each bilinear mutant is "old|new|test", split as bash's read splits it
    mutants = [word.split("|", 2) for word in loop_words(workflow, "for mutant in")]
    snippets = {"bilinear.py": [old for old, _, _ in mutants],
                "protocol.py": loop_words(workflow, "for snippet in")}
    assert all(snippets.values())
    for name, olds in snippets.items():
        source = (ROOT / "src" / "idak" / name).read_text(encoding="utf-8")
        for old in olds:
            count = source.count(old)
            assert count == 1, (name, old, count)
