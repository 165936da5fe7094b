"""Compare two trees' scenario runners, line for line, on the bundled
scenarios and on seeded mutations of them.

    python tests/scenario_differential.py OLD_SRC [NEW_SRC] [--n N]

OLD_SRC and NEW_SRC are directories that hold the package idak, such as a
checkout's src/; NEW_SRC defaults to this repository's src/.  Each bundled
scenario of NEW_SRC, and N mutations of each (default 20), runs through
each tree's run_scenario in its own subprocess, once as written and once
with the seed and mode overridden.  A mutation applies one to three edits,
drawn from a generator seeded by the scenario's name and the mutation's
number: drop a line, repeat one, swap two, give a field a value of another
JSON type, change an oracle label, or change a flow reference.  The script
compares each report, as JSON text, and each error, as its type and text.
It prints the first file whose outcome differs, with both outcomes, and
exits 1; when every outcome is byte-identical it prints the count and
exits 0.  Bad arguments exit 2.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the overrides each file runs under: none, then a seed and a mode
OVERRIDES = ({}, {"seed": "differential", "mode": "wpfsbr"})
# values of every JSON type, for a field that changes type; the ints stay
# small, so a k_bits among them builds a world at once
VALUES = (None, True, False, 0, 1, 3, -1, 16, 2.5, "", "x", "alice", [], ["alice"], {}, {"a": 1})
FLOWS = (None, "@{}.out", "@{}.in", "@{}", "@.out", "zz", "", "00", "deadbeef", 7)

# run in each tree: read the files and overrides as JSON from stdin, and
# print one outcome per file and override, in order, as JSON
_RUNNER = """
import json, sys
import idak.sessions
assert idak.sessions.__file__.startswith(sys.argv[1]), idak.sessions.__file__
files, overrides = json.load(sys.stdin)
out = []
for text in files:
    for given in overrides:
        try:
            out.append(json.dumps(idak.sessions.run_scenario(text.splitlines(), **given)))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
json.dump(out, sys.stdout)
"""


def _labels(lines):
    """The oracle labels that the JSON lines of a scenario name."""
    found = set()
    for line in lines:
        entry = _entry(line)
        for name in ("oracle", "a", "b"):
            if isinstance(entry, dict) and isinstance(entry.get(name), str):
                found.add(entry[name])
    return sorted(found) or ["A1"]


def _entry(line):
    try:
        return json.loads(line)
    except ValueError:
        return None


def _edit_entry(rng, lines, labels):
    """Change one field of one JSON line: its type, a label or a flow."""
    objects = [i for i, line in enumerate(lines) if isinstance(_entry(line), dict)]
    if not objects:
        return
    i = rng.choice(objects)
    entry = _entry(lines[i])
    kind = rng.choice(("type", "label", "flow"))
    if kind == "type":
        target = entry
        if isinstance(entry.get("config"), dict) and entry["config"] and rng.random() < 0.5:
            target = entry["config"]
        if target:
            target[rng.choice(sorted(target))] = rng.choice(VALUES)
    elif kind == "label":
        entry[rng.choice(("oracle", "a", "b"))] = rng.choice(labels + ["Z9"])
    else:
        flow = rng.choice(FLOWS)
        entry["x"] = flow.format(rng.choice(labels + ["Z9"])) if isinstance(flow, str) else flow
    lines[i] = json.dumps(entry)


def mutate(text, rng):
    """text with one to three seeded edits."""
    lines = text.splitlines()
    labels = _labels(lines)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "repeat", "swap", "field", "field"))
        if kind == "field":
            _edit_entry(rng, lines, labels)
        elif lines and kind == "drop":
            del lines[rng.randrange(len(lines))]
        elif lines and kind == "repeat":
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        elif lines:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def scenario_files(src, n):
    """(name, text) of each bundled scenario under src and of n mutations
    of each."""
    files = []
    for path in sorted(Path(src, "idak", "scenarios").glob("*.jsonl")):
        text = path.read_text(encoding="utf-8")
        files.append((path.name, text))
        for i in range(n):
            rng = random.Random(f"scenario-differential:{path.name}:{i}")
            files.append((f"{path.name} mutation {i}", mutate(text, rng)))
    return files


def outcomes(src, texts):
    """Each text's outcome under each of OVERRIDES, run by src's idak."""
    src = str(Path(src).resolve())
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _RUNNER, src], env=env, check=True,
                          input=json.dumps([texts, OVERRIDES]), capture_output=True,
                          text=True)
    return json.loads(done.stdout)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--n", type=int, default=20, help="mutations of each scenario")
    args = parser.parse_args(argv)
    if args.n < 0:
        parser.error("--n must not be negative")
    files = scenario_files(args.new_src, args.n)
    texts = [text for _, text in files]
    old, new = outcomes(args.old_src, texts), outcomes(args.new_src, texts)
    runs = [(name, text, given) for name, text in files for given in OVERRIDES]
    for (name, text, given), before, after in zip(runs, old, new):
        if before != after:
            print(f"{name} (overrides {given}) differs:\n{text}\nold: {before}\nnew: {after}")
            return 1
    print(f"{len(files)} scenario files, {len(runs)} runs: every outcome is identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
