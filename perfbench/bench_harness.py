"""Timing, checking and metrics for the benchmark's runs.

run.py imports this module once it has put the checkout's src/ on the
import path.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import dobquery as dq

from bench_tracer import LAYERS, Tracer
from bench_workloads import WORKLOADS, pearson_log, qerror

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Set up at least this many times and for at least this long; setup_s is
# the median. Short set-ups repeat more, so one pause does not decide it.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
MAX_PASSES = 12
CHECK_DEADLINE_S = 10.0
# Tracing slows every call; cut traced operations later so the traced
# pass fails the same operations as the untraced one.
TRACE_DEADLINE_FACTOR = 3.0
# Resident memory operations may add to what the process held after
# set-up. A query whose answers run into the millions fails here, so peak
# memory does not depend on how far it got before its deadline (at a 2 s
# deadline on a 2-core x86-64 virtual machine, the process peak varied from
# 290 to 720 MB between runs). The limit is fixed per run, not per
# operation: memory a failed query leaves to the allocator would otherwise
# raise the next one's limit, and the peak with it.
MEMORY_BUDGET_BYTES = 128 * 2**20
WATCH_INTERVAL_S = 0.02
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

# Host speed. On a shared host the same pure-Python loop ran up to 1.8x
# slower for minutes at a time, in CPU time as much as in wall time (2-core
# x86-64 virtual machine, CPython 3.11). So a fixed loop is timed between
# operations, at most every CALIBRATION_INTERVAL_S, and every time metric
# is divided by the median loop time around it over REFERENCE_CALIBRATION_S:
# the figures read as if the machine ran at that reference speed. In 25-s
# windows over 3 minutes, a recursive query stream's wall time per query
# moved 1.37x; scaled this way it moved 1.03x.
CALIBRATION_LOOPS = 10_000
REFERENCE_CALIBRATION_S = 2.3e-3  # the loop's median on the machine above
CALIBRATION_INTERVAL_S = 0.05
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_MIN_SAMPLES = 8
SETUP_CALIBRATIONS = 10


class OverBudget(Exception):
    """An operation ran past its deadline or its memory budget."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


def memory_limit() -> int:
    gc.collect()
    return _resident_bytes() + MEMORY_BUDGET_BYTES


@contextmanager
def budget(seconds: float, limit: int | None = None):
    """Raise OverBudget once `seconds` have passed or resident memory has
    passed `limit` bytes (by default, MEMORY_BUDGET_BYTES more than now),
    checked every WATCH_INTERVAL_S.

    The check runs in a SIGALRM handler, so it interrupts Python code
    between bytecodes; a hard memory limit instead made CPython crash."""
    end = time.perf_counter() + seconds
    if limit is None:
        limit = memory_limit()

    def watch(signum, frame):
        if time.perf_counter() >= end:
            raise OverBudget("deadline")
        if _resident_bytes() > limit:
            raise OverBudget("memory")

    previous = signal.signal(signal.SIGALRM, watch)
    signal.setitimer(signal.ITIMER_REAL, WATCH_INTERVAL_S, WATCH_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_loop():
    table = {}
    for i in range(CALIBRATION_LOOPS):
        table[i % 1000] = table.get(i % 1000, 0) + i


class Speedometer:
    """Times the calibration loop between operations and says how much
    slower than the reference the machine ran around a given moment."""

    def __init__(self):
        self.at: list[float] = []    # start of each loop, in order
        self.took: list[float] = []  # its duration
        self.spent = 0.0             # total time in the loop
        self._next = -math.inf

    def tick(self, force: bool = False):
        start = time.perf_counter()
        if start < self._next and not force:
            return
        calibration_loop()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += end - start
        self._next = end + CALIBRATION_INTERVAL_S

    def burst(self, n: int = SETUP_CALIBRATIONS):
        for _ in range(n):
            self.tick(force=True)

    def factor(self, start: float, end: float) -> float:
        """Median loop time within CALIBRATION_WINDOW_S of [start, end] (at
        least the CALIBRATION_MIN_SAMPLES nearest loops) over the
        reference: 2.0 means the machine ran at half the reference speed.
        Over 60 s of serve queries, each query's scaled time strayed least
        from its own median with this window and the median; longer
        windows and the mean tracked the speed less closely."""
        lo = bisect_left(self.at, start - CALIBRATION_WINDOW_S)
        hi = bisect_right(self.at, end + CALIBRATION_WINDOW_S)
        if hi - lo < CALIBRATION_MIN_SAMPLES:
            mid = bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - CALIBRATION_MIN_SAMPLES // 2,
                            len(self.at) - CALIBRATION_MIN_SAMPLES))
            hi = lo + CALIBRATION_MIN_SAMPLES
        return statistics.median(self.took[lo:hi]) / REFERENCE_CALIBRATION_S

    def summary(self) -> dict:
        return {"loops": len(self.took),
                "mean_ms": statistics.fmean(self.took) * 1e3 if self.took else 0.0,
                "reference_ms": REFERENCE_CALIBRATION_S * 1e3}


@dataclass
class Outcome:
    key: object
    seconds: float          # wall time
    result: object          # bench_workloads.Result, or None if it failed
    failure: str | None     # "deadline", "memory", a DobError name, or "check"
    start: float = 0.0
    scaled: float = 0.0     # seconds at the reference speed; see Speedometer


class Checker:
    """Checks operation outputs, caching the expected answers per key."""

    def __init__(self, workload, state, keys):
        self.workload, self.state, self.keys = workload, state, keys
        self.expected: dict = {}
        self.mismatches: list[str] = []
        self.unchecked: set = set()

    def __call__(self, key, result) -> bool:
        if key not in self.keys or key in self.unchecked:
            return True
        if key not in self.expected:
            try:
                with budget(CHECK_DEADLINE_S):
                    self.expected[key] = self.workload.reference(
                        self.state, key, result)
            except OverBudget:
                self.unchecked.add(key)
                gc.collect()
                return True
        error = self.workload.check(self.state, key, result, self.expected[key])
        if error:
            self.mismatches.append(error)
        return error is None


def run_pass(workload, state, order, deadline_s, checker, tracer=None, speed=None,
             limit=None):
    """One closed-loop pass: each operation starts when the last ends.

    Each operation starts on a collected heap, so the garbage collections
    it pays for do not depend on what ran before it. With a speedometer,
    the calibration loop runs between operations, and its time inside one
    (see Workload.tick) is not counted. `limit` is the memory limit; by
    default, the budget over what the process holds now."""
    outcomes = []
    if limit is None:
        limit = memory_limit()
    for i, key in enumerate(order):
        if tracer is not None:
            tracer.op_id = i
        gc.collect()
        if speed is not None:
            speed.tick()
        result, failure = None, None
        spent = speed.spent if speed is not None else 0.0
        start = time.perf_counter()
        try:
            with budget(deadline_s, limit):
                result = workload.run(state, key)
        except OverBudget as exc:
            failure = exc.kind
        except dq.DobError as exc:
            failure = type(exc).__name__
        seconds = time.perf_counter() - start
        if speed is not None:
            seconds -= speed.spent - spent
        if failure is not None:
            if tracer is not None:
                tracer.reset_stack()
            result = None
            gc.collect()
        else:
            if tracer is not None:
                tracer.active = False
            if not checker(key, result):
                failure = "check"
            if tracer is not None:
                tracer.active = True
            result.value = None
        outcomes.append(Outcome(key, seconds, result, failure, start))
    return outcomes


def scale(passes, speed):
    """Fill in each outcome's time at the reference speed."""
    for outcomes in passes:
        for o in outcomes:
            factor = speed.factor(o.start, o.start + o.seconds)
            o.scaled = o.seconds / factor
            if o.result is not None and o.result.sub_seconds:
                o.result.sub_seconds = tuple(
                    s / speed.factor(t, t + s) for t, s in o.result.sub_seconds)


def completed(outcomes):
    return [o for o in outcomes if o.failure is None]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: with 100 values, p90 leaves 10 beyond it."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_key_latencies(passes) -> list[float]:
    """Each operation's (or ordering's) median scaled latency over the
    passes; see scale()."""
    by_key = defaultdict(list)
    for outcomes in passes:
        for o in outcomes:
            if o.result is not None and o.result.sub_seconds:
                for j, s in enumerate(o.result.sub_seconds):
                    by_key[(o.key, j)].append(s)
            else:
                by_key[o.key].append(o.scaled)
    return sorted(statistics.median(v) for v in by_key.values())


def counted_cost(outcomes) -> float:
    costs = {}
    for o in completed(outcomes):
        costs.setdefault(o.key, o.result.cost)
    return statistics.fmean(costs.values()) if costs else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(speed) -> dict:
    return {
        "calibration": speed.summary(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- untraced run: end-to-end metrics ---------------------------------------

def measure(workload, seed: int, seconds: float, smoke: bool):
    speed = workload.speed = Speedometer()
    setup_times, setup_scaled = [], []
    while (len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S) \
            and len(setup_times) < SETUP_MAX_REPEATS:
        state = None
        gc.collect()
        speed.burst()
        start = time.perf_counter()
        state = workload.setup(seed)
        end = time.perf_counter()
        speed.burst()
        setup_times.append(end - start)
        setup_scaled.append((end - start) / speed.factor(start, end))

    rng = random.Random(seed)
    checker = Checker(workload, state, workload.check_keys(state, rng))
    pool = workload.pool(state)
    limit = memory_limit()
    passes = []
    # Whole passes only, so every run times the same operations; stop at
    # the pass count whose wall time, checks and collections included,
    # lands closest to the requested seconds.
    began = time.perf_counter()
    elapsed = 0.0
    while not passes or (not smoke and len(passes) < MAX_PASSES
                         and elapsed + elapsed / len(passes) / 2 < seconds):
        order = rng.sample(pool, len(pool))
        passes.append(run_pass(workload, state, order, workload.deadline_s,
                               checker, speed=speed, limit=limit))
        elapsed = time.perf_counter() - began
    speed.burst()
    scale(passes, speed)

    rates, wall_rates = [], []
    for outcomes in passes:
        work = sum(o.result.work for o in completed(outcomes))
        rates.append(work / sum(o.scaled for o in outcomes))
        wall_rates.append(work / sum(o.seconds for o in outcomes))
    latencies = per_key_latencies(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.failure is not None)
    metrics = {
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "ops_per_s": metric(statistics.median(rates), "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": metric(percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "counted_cost": metric(counted_cost(passes[0]), "count"),
    }

    own = {workload.report_names.get(name, name): value
           for name, value in metrics.items()}
    own["failed_ratio"] = metric(failed / attempted, "ratio")
    for name, value in workload.quality([o.result for o in completed(passes[0])]).items():
        own[name] = metric(value, "r" if name == "log_correlation" else "ratio")

    report = {
        "workload": workload.name, "seed": seed, "trace": 0,
        "passes": len(passes), "operations_per_pass": len(pool),
        "measured_s": sum(o.seconds for p in passes for o in p),
        "wall": {"setup_s_each": setup_times,
                 "ops_per_s": statistics.median(wall_rates)},
        "latency_samples": len(latencies),
        "unchecked": len(checker.unchecked),
        "failures": dict(Counter(o.failure for p in passes for o in p if o.failure)),
        "inputs": workload.inputs(state), "environment": environment(speed),
        "metrics": own,
    }
    return report, checker, attempted, failed, metrics


# --- traced run: per-layer metrics ------------------------------------------

class LayerProbes:
    """Counts read from arguments and results at the layer boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.count = Counter()
        self.estimate_s = Counter()
        self.optimize_s = defaultdict(list)
        self.execute_ms: list[float] = []
        tracer.probe("engine.solve", self._memo_before(2), self._after_solve)
        tracer.probe("engine.solve_sequence", self._memo_before(3), self._after_sequence)
        tracer.probe("stats.adaptive_sample", None, self._after_sample)
        tracer.probe("stats.estimate_iob_stats", None, self._after_estimate)
        tracer.probe("optimizer.optimize", None, self._after_optimize)
        tracer.probe("executor.execute", None, self._after_execute)
        tracer.probe("store.match_rows", None, self._after_match)

    @staticmethod
    def _memo_before(position):
        def before(args, kwargs):
            memo = kwargs.get("memo", args[position] if len(args) > position else None)
            return memo, (len(memo.tables) if memo is not None else 0)
        return before

    def _engine_work(self, state, inferred, eob, answers):
        memo, tables_before = state
        self.count["inferred"] += inferred
        self.count["eob"] += eob
        self.count["answers"] += answers
        if memo is not None:
            self.count["tables"] += len(memo.tables) - tables_before

    def _after_solve(self, state, args, kwargs, result, seconds):
        self._engine_work(state, result.inferred_fact_count,
                          result.eob_access_count, len(result.answers))
        if self.tracer.in_span("stats.adaptive_sample"):
            self.count["distinct_samples"] += 1

    def _after_sequence(self, state, args, kwargs, result, seconds):
        substs, counters = result
        self._engine_work(state, counters.inferred_facts,
                          counters.eob_accesses, len(substs))

    def _after_sample(self, state, args, kwargs, run, seconds):
        self.count["draws"] += run.m
        self.count["low_confidence"] += int(run.low_confidence)

    def _after_estimate(self, state, args, kwargs, result, seconds):
        self.estimate_s[args[1]] += seconds

    def _after_optimize(self, state, args, kwargs, plan, seconds):
        self.optimize_s[len(plan.query.body)].append(seconds)

    def _after_execute(self, state, args, kwargs, report, seconds):
        self.execute_ms.append(seconds * 1e3)
        for strategy in args[1].strategies:
            self.count[f"step.{strategy.method.value}"] += 1
        self.count["execute_cost"] += report.actual_cost

    def _after_match(self, state, args, kwargs, rows, seconds):
        self.count["match_rows"] += len(rows)


def layer_metrics(tracer, probes, workload, traced, untraced):
    t, c = tracer, probes.count
    calls = t.calls

    def total(name):
        return t.total_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    execute_ms = sorted(probes.execute_ms)
    pairs = workload.estimates([o.result for o in completed(traced)])
    qerrors = sorted(qerror(e, a) for e, a in pairs)
    m = {
        "parsing.parse_dob_s": metric(total("parsing.parse_dob"), "s"),
        "parsing.parse_query_us": metric(
            ratio(total("parsing.parse_query"), calls["parsing.parse_query"]) * 1e6, "us"),
        "store.load_s": metric(total("store.from_facts"), "s"),
        "store.match_rows_calls": metric(calls["store.match_rows"], "count"),
        "store.match_rows_s": metric(total("store.match_rows"), "s"),
        "store.rows_per_match": metric(ratio(c["match_rows"], calls["store.match_rows"]), "count"),
        "engine.solve_calls": metric(
            calls["engine.solve"] + calls["engine.solve_sequence"], "count"),
        "engine.inferred_facts": metric(c["inferred"], "count"),
        "engine.eob_accesses": metric(c["eob"], "count"),
        "engine.cost_per_answer": metric(
            ratio(c["inferred"] + c["eob"], c["answers"]), "count"),
        "engine.tables_created": metric(c["tables"], "count"),
        "stats.catalog_s": metric(total("stats.build_catalog"), "s"),
    }
    for pred in dq.model.IOB_PREDICATES:
        m[f"stats.estimate_s.{pred}"] = metric(probes.estimate_s[pred], "s")
    m.update({
        "stats.draws": metric(c["draws"], "count"),
        "stats.distinct_sample_ratio": metric(ratio(c["distinct_samples"], c["draws"]), "ratio"),
        "stats.low_confidence_runs": metric(c["low_confidence"], "count"),
        "costmodel.qerror_p50": metric(statistics.median(qerrors) if qerrors else 0.0, "ratio"),
        "costmodel.qerror_p90": metric(percentile(qerrors, 0.9), "ratio"),
        "costmodel.log_correlation": metric(
            pearson_log([e for e, _ in pairs], [a for _, a in pairs])
            if len(pairs) > 1 else 0.0, "r"),
    })
    for n in range(3, 8):
        times = probes.optimize_s.get(n, [])
        m[f"optimizer.optimize_ms.n{n}"] = metric(
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    m.update({
        "executor.execute_ms_p50": metric(statistics.median(execute_ms) if execute_ms else 0.0, "ms"),
        "executor.execute_ms_p90": metric(percentile(execute_ms, 0.9), "ms"),
        "executor.steps.nlj": metric(c["step.nlj"], "count"),
        "executor.steps.bnlj": metric(c["step.bnlj"], "count"),
        "executor.steps.hash": metric(c["step.hash"], "count"),
        "executor.wall_us_per_cost": metric(
            ratio(total("executor.execute"), c["execute_cost"]) * 1e6, "us"),
        "synth.generate_s": metric(total("synth.generate_synthetic"), "s"),
        "bench.run_ratio_self_s": metric(t.name_self_s.get("bench.run_ratio", 0.0), "s"),
    })
    quality = workload.quality([o.result for o in completed(traced)])
    m["optimizer.opt_worst_ratio"] = metric(quality.get("opt_worst_ratio", 0.0), "ratio")
    m["optimizer.plan_regret"] = metric(quality.get("plan_regret", 0.0), "ratio")
    for layer in LAYERS:
        if layer != "bench":  # reported as bench.run_ratio_self_s
            m[f"{layer}.self_s"] = metric(t.self_s.get(layer, 0.0), "s")

    done_untraced = {o.key: o.scaled for o in completed(untraced)}
    both = [o for o in completed(traced) if o.key in done_untraced]
    traced_s = sum(o.scaled for o in both)
    untraced_s = sum(done_untraced[o.key] for o in both)
    m["trace.overhead_ratio"] = metric(ratio(traced_s, untraced_s) - 1.0, "ratio")
    return m


def measure_traced(workload, seed: int):
    state = workload.setup(seed)
    rng = random.Random(seed)
    keys = workload.check_keys(state, rng)
    pool = workload.pool(state)
    order = rng.sample(pool, len(pool))
    checker = Checker(workload, state, keys)
    speed = workload.speed = Speedometer()
    gc.collect()
    untraced = run_pass(workload, state, order, workload.deadline_s, checker,
                        speed=speed)
    # Calibration inside traced calls would count as their layers' time.
    workload.speed = None
    state = checker.state = None
    gc.collect()

    tracer = Tracer()
    probes = LayerProbes(tracer)
    tracer.install()
    tracer.active = True
    try:
        start = time.perf_counter()
        state = workload.setup(seed)
        traced_setup_s = time.perf_counter() - start
        checker.state = state
        traced = run_pass(workload, state, order,
                          workload.deadline_s * TRACE_DEADLINE_FACTOR, checker, tracer,
                          speed)
    finally:
        tracer.active = False
        tracer.uninstall()
    speed.burst()
    scale([untraced, traced], speed)

    metrics = layer_metrics(tracer, probes, workload, traced, untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    attempted = len(untraced) + len(traced)
    failed = sum(1 for o in untraced + traced if o.failure is not None)
    report = {
        "workload": workload.name, "seed": seed, "trace": 1,
        "operations_per_pass": len(pool),
        "untraced_s": sum(o.seconds for o in untraced),
        "traced_s": sum(o.seconds for o in traced), "traced_setup_s": traced_setup_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": len(tracer.records), "spans_not_recorded": tracer.dropped,
        "layer_self_s": dict(tracer.self_s),
        "failures": dict(Counter(o.failure for o in untraced + traced if o.failure)),
        "inputs": workload.inputs(state), "environment": environment(speed),
    }
    return report, checker, attempted, failed, metrics


def run_one(name, seed, seconds, trace, smoke):
    workload = WORKLOADS[name](smoke)
    if trace:
        return measure_traced(workload, seed)
    return measure(workload, seed, seconds, smoke)
