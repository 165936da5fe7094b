"""The mutant ledger of tests/mutants.py, checked without running it: a
moved snippet or a renamed test fails tier-1, not only the ledger's run."""

import re

from mutants import MUTANTS, ROOT


def test_every_ci_mutant_snippet_occurs_once_in_its_file():
    for file, old, new, *_ in MUTANTS:
        count = (ROOT / "src" / file).read_text(encoding="utf-8").count(old)
        assert count == 1 and new != old, (file, old, count)


def test_every_ci_mutant_compiles():
    # the runner counts a named test file's collection error as a kill, so a
    # mutant that is not Python would be killed without testing anything
    for file, old, new, *_ in MUTANTS:
        source = (ROOT / "src" / file).read_text(encoding="utf-8")
        compile(source.replace(old, new), file, "exec")


def test_every_test_a_mutant_names_is_defined_in_its_file():
    for test in {test for entry in MUTANTS for test in entry[3]}:
        path, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[[^]]*\])?", test).group(1, 2)
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), test


def test_a_known_survivor_says_why_no_test_catches_it():
    for entry in MUTANTS:
        assert len(entry) in (5, 6), entry[:3]
        if len(entry) == 6:
            status, _, reason = entry[5].partition(": ")
            assert status == "survives" and len(reason.split()) >= 5, entry[5]
