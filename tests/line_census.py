"""Line census of `src/dobquery`: the executable lines tier-1 reaches, the
lines the user paths reach, and the lines neither reaches.

    python tests/line_census.py

Run from anywhere; it takes the package from this checkout's `src/`.
Tier-1 runs under a `sys.settrace` line tracer that a pytest plugin
installs again at each test phase, since a `RecursionError` inside the
trace function unsets it for good, and one test raises one on purpose.
The user paths are the README walkthrough (steps 1-4) and
`perfbench/run.py --smoke`, each command a child process traced from its
start by a `sitecustomize` hook. A child process that a test starts with
the inherited `PYTHONPATH` is traced as well. Executable lines are the
line numbers of the bytecode of every code object compiled from a
module. The census prints the lines of each module and how many each
path reached, then every line reached by neither. It exits 1 if a traced
run failed, since its counts are then short, and 0 otherwise; it compares
with no stored count. Tier-1 takes about three times as long traced.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "dobquery"
DATA = ROOT / "tests" / "data"

# Loaded in every traced process through `sitecustomize`; records the
# lines run in files under the package and writes them at exit.
_HOOK = '''
import atexit, json, os, sys, threading

_PACKAGE = os.environ["LINE_CENSUS_PACKAGE"] + os.sep
_reached = {}
_files = {}


def _lines(filename):
    lines = _files.get(filename, False)
    if lines is False:
        path = os.path.realpath(filename)
        inside = path.startswith(_PACKAGE)
        lines = _files[filename] = (
            _reached.setdefault(path, set()) if inside else None
        )
    return lines


def _trace(frame, event, arg):
    lines = _lines(frame.f_code.co_filename)
    if lines is None:
        return None
    add = lines.add
    add(frame.f_lineno)

    def line(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return line

    return line


def install():
    sys.settrace(_trace)
    threading.settrace(_trace)


@atexit.register
def _write():
    sys.settrace(None)
    out = os.path.join(os.environ["LINE_CENSUS_OUT"], f"{os.getpid()}.json")
    with open(out, "w") as fh:
        json.dump({f: sorted(lines) for f, lines in _reached.items()}, fh)


install()
'''

_PLUGIN = '''
import pytest

import _census_hook


def _again():
    _census_hook.install()
    yield


pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_again)
pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_again)
pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_again)
'''

WALKTHROUGH = [
    ["translate", f"{DATA}/carsOnt.owl", f"{DATA}/source1.owl",
     f"{DATA}/source2.owl", "-o", "cars.dob"],
    ["analyze", "cars.dob", "-d", "0.2", "-p", "0.7", "-k", "7",
     "--seed", "42", "-o", "cars.cat"],
    ["query", "cars.dob", "--catalog", "cars.cat",
     "-q", "q(O):-areClasses(C,O),isDProperty(traction,C).", "--explain"],
    ["gen", "synth.json", "-o", "corpus", "--replicas", "10"],
    ["bench", "correlate", "corpus", "-o", "correlate.csv"],
    ["bench", "ratio", "corpus", "-o", "ratio.csv", "--strategies", "all"],
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _s, _e, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def traced(hooks: Path, out: Path, commands, cwd) -> bool:
    """Run each command traced, writing its lines under `out`; True if
    all of them exited 0."""
    out.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hooks), str(SRC)]),
        "LINE_CENSUS_OUT": str(out),
        "LINE_CENSUS_PACKAGE": os.path.realpath(PACKAGE),
    }
    codes = [subprocess.run(c, cwd=cwd, env=env).returncode for c in commands]
    return not any(codes)


def reached(out: Path) -> dict[str, set[int]]:
    lines: dict[str, set[int]] = {}
    for part in out.glob("*.json"):
        for path, found in json.loads(part.read_text()).items():
            lines.setdefault(path, set()).update(found)
    return lines


def _row(name, cells) -> str:
    return f"{name:<16}" + "".join(f"{c:>9}" for c in cells)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        hooks = tmp / "hooks"
        hooks.mkdir()
        (hooks / "_census_hook.py").write_text(_HOOK)
        (hooks / "_census_plugin.py").write_text(_PLUGIN)
        (hooks / "sitecustomize.py").write_text("import _census_hook\n")
        tier1 = [sys.executable, "-m", "pytest", "-q", "-p", "_census_plugin",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        ok = traced(hooks, tmp / "tier1", [tier1], ROOT)
        walk = tmp / "walkthrough"
        walk.mkdir()
        (walk / "synth.json").write_text('{"seed": 0}\n')
        dobq = [sys.executable, "-m", "dobquery.cli"]
        user = [dobq + step for step in WALKTHROUGH]
        user.append([sys.executable, str(ROOT / "perfbench" / "run.py"),
                     "--smoke"])
        ok = traced(hooks, tmp / "user", user, walk) and ok
        by_tier1, by_user = reached(tmp / "tier1"), reached(tmp / "user")

    print("\n" + _row("module", ("lines", "tier-1", "user", "neither")))
    totals = [0, 0, 0, 0]
    neither = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        key = os.path.realpath(path)
        t = lines & by_tier1.get(key, set())
        u = lines & by_user.get(key, set())
        missed = sorted(lines - t - u)
        counts = [len(lines), len(t), len(u), len(missed)]
        totals = [a + b for a, b in zip(totals, counts)]
        print(_row(path.name, counts))
        text = path.read_text(encoding="utf-8").splitlines()
        neither += [(path, n, text[n - 1].strip()) for n in missed]
    print(_row("total", totals))
    print(f"\nreached by neither path: {len(neither)}")
    for path, n, text in neither:
        print(f"  {path.relative_to(ROOT)}:{n}: {text}")
    if not ok:
        print("a traced run failed; its lines are missing", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
