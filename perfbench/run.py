"""dobquery benchmark: one workload per run, or every workload in smoke mode.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ./src. One
process, one thread, one closed-loop client. With --trace 0 the run sets
up its inputs several times (setup_s is the median), then repeats passes
over the workload's operations for about --seconds and prints the
end-to-end metrics, with times scaled to a reference machine speed
(bench_harness.Speedometer). With --trace 1 it makes one untraced pass, then sets
up and passes again with every public function of the package wrapped in
spans, and prints the per-layer metrics and the tracing overhead.

Output: a report line with the inputs, environment and the workload's own
metrics, then as the last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exit code 0 when every checked
output was right, 1 when one was wrong, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("serve", "experiment", "analyze", "recursive")


def import_harness():
    """Import the harness with dobquery taken from this checkout's src/."""
    if not (SRC / "dobquery" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'dobquery'}; "
              "run from the root of a dobquery checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import dobquery

    if Path(dobquery.__file__).resolve().parent != (SRC / "dobquery").resolve():
        print(f"benchmark: dobquery came from {dobquery.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import bench_harness

    return bench_harness


def smoke(harness, seed: int) -> int:
    """Every workload on tiny inputs, untraced and traced; one line each."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            _report, checker, attempted, failed, metrics = harness.run_one(
                name, seed, 1.0, trace, smoke=True)
            correct = not checker.mismatches
            ok = ok and correct and failed == 0
            print(json.dumps({
                "workload": name, "trace": trace, "correct": correct,
                "attempted": attempted, "failed": failed,
                "mismatches": checker.mismatches[:3], "metrics": sorted(metrics),
            }))
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    harness = import_harness()
    if args.smoke:
        return smoke(harness, args.seed)
    report, checker, attempted, failed, metrics = harness.run_one(
        args.workload, args.seed, args.seconds, args.trace, smoke=False)
    report["mismatches"] = checker.mismatches[:10]
    print(json.dumps({"report": report}))
    correct = not checker.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
