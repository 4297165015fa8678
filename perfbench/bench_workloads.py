"""The benchmark's four workloads over dobquery's public API.

Each workload builds its inputs in `setup`, lists the operations of one
pass in `pool`, runs one operation in `run` and checks its output in
`check`. The harness in bench_harness.py times, orders and repeats the
operations.

The ontology bases, query pools and catalogs of `serve`, `experiment` and
`analyze` come from a fixed corpus seed; the run's seed orders the stream
and picks the queries whose answers are checked against a second
evaluation path. Drawing a new corpus per seed moved p50 and p90 latency
by up to 2x between seeds (6 seeds of 200 serve queries on a 2-core
x86-64 virtual machine: p90 from 152 to 344 ms), because a few queries
with huge answer sets set the tail; a benchmark that noisy would hide any
regression smaller than that.
`recursive` draws node names and fact order from the seed; its query
start depths are fixed, because jittering them by the seed moved p90
latency by 15% between seeds: the deepest queries' cost grows faster than
their depth.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

import dobquery as dq

CORPUS_SEED = 0


def synth_config(scale: int, seed: int, *, chain: int = 0, star: int = 0,
                 subgoals: int = 3) -> dq.SynthConfig:
    """The default SynthConfig with every population count times `scale`."""
    d = dq.SynthConfig()
    return dq.SynthConfig(
        ontologies=d.ontologies * scale,
        subclass_edges=d.subclass_edges * scale,
        object_properties=d.object_properties * scale,
        datatype_properties=d.datatype_properties * scale,
        transitive_properties=d.transitive_properties * scale,
        individuals=d.individuals * scale,
        statements=d.statements * scale,
        import_edges=d.import_edges * scale,
        seed=seed,
        chain_queries=chain,
        star_queries=star,
        query_subgoals=subgoals,
    )


def head_tuples(query: dq.Query, substs) -> set[tuple[str, ...]]:
    names = [t.value for t in query.head.args]
    return {tuple(s[v] for v in names) for s in substs}


def pearson_log(estimates, actuals) -> float:
    r = dq.pearson([math.log1p(x) for x in estimates],
                   [math.log1p(y) for y in actuals])
    return 0.0 if r is None else r


def qerror(estimate: float, actual: float) -> float:
    e, a = estimate + 1.0, actual + 1.0
    return max(e / a, a / e)


def subgoal_histogram(queries) -> dict[int, int]:
    hist: dict[int, int] = {}
    for q in queries:
        hist[len(q.body)] = hist.get(len(q.body), 0) + 1
    return dict(sorted(hist.items()))


@dataclass
class Result:
    """What one operation produced. The harness drops `value` once the
    output is checked and keeps the rest for the metrics."""

    value: object
    work: int                     # queries, orderings or facts completed
    cost: float                   # counted cost (inferred facts + EOB accesses)
    sub_seconds: tuple = ()       # (start, seconds) of each ordering inside the operation
    info: object = None           # what the quality metrics need


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name: str
    deadline_s: float
    # The end-to-end metrics under the names this workload's users know.
    report_names: dict[str, str]
    # The harness's Speedometer while it times operations, else None.
    speed = None

    def tick(self):
        """Let the speedometer time its calibration loop, if it is due.
        Long operations call this between their parts; the harness does
        not count the loop's time."""
        if self.speed is not None:
            self.speed.tick()

    def pool(self, state) -> list:
        return list(range(len(state["texts"])))

    def check_keys(self, state, rng) -> set:
        """Operations whose output is checked; all of them by default."""
        return set(self.pool(state))

    def reference(self, state, key, result):
        """Expected output from a second path, or None if `check` needs none."""
        return None

    def estimates(self, results) -> list[tuple[float, float]]:
        """(estimated, actual) cost pairs of the plans the operations ran."""
        return []

    def quality(self, results) -> dict[str, float]:
        return {}


class Serve(Workload):
    """Ad hoc queries: parse_query -> optimize -> execute, one client."""

    name = "serve"
    deadline_s = 2.0
    report_names = {"ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms",
                    "op_p90_ms": "query_p90_ms", "counted_cost": "counted_cost"}

    def __init__(self, smoke: bool):
        self.scale = 1 if smoke else 4
        self.per_shape = 1 if smoke else 10
        self.subgoals = (3, 4) if smoke else (3, 4, 5, 6, 7)
        self.check_sample = 2 if smoke else 20

    def setup(self, seed):
        base, _ = dq.generate_synthetic(synth_config(self.scale, CORPUS_SEED))
        catalog = dq.build_catalog(base, dq.SamplingConfig())
        queries = []
        for n in self.subgoals:
            queries += dq.generate_synthetic(synth_config(
                self.scale, CORPUS_SEED, chain=self.per_shape,
                star=self.per_shape, subgoals=n))[1]
        return {"base": base, "catalog": catalog, "queries": queries,
                "texts": [str(q) for q in queries]}

    def check_keys(self, state, rng):
        return set(rng.sample(self.pool(state), self.check_sample))

    def run(self, state, key):
        query = dq.parse_query(state["texts"][key])
        plan = dq.optimize(query, state["catalog"])
        report = dq.execute(state["base"], plan)
        return Result(report.answers, 1, report.actual_cost, info=plan.estimate.cost)

    def reference(self, state, key, result):
        """Answers of the written order by nested-loop engine evaluation."""
        query = state["queries"][key]
        substs, _counters = dq.solve_sequence(state["base"], query.body)
        return head_tuples(query, substs)

    def check(self, state, key, result, expected):
        got = {tuple(t.value for t in a.args) for a in result.value}
        if got != expected:
            return (f"{state['texts'][key]}: optimized plan gave "
                    f"{len(got)} answers, written order {len(expected)}")
        return None

    def estimates(self, results):
        return [(r.info, r.cost) for r in results]

    def inputs(self, state):
        return {
            "corpus_seed": CORPUS_SEED, "scale": self.scale,
            "sampling_seed": dq.SamplingConfig().seed,
            "facts": len(state["base"]), "queries": len(state["texts"]),
            "subgoal_histogram": subgoal_histogram(state["queries"]),
            "checked_queries_per_run": self.check_sample,
            "deadline_s": self.deadline_s,
        }


class Experiment(Workload):
    """The paper's harness: bench.run_ratio, one query per operation."""

    name = "experiment"
    deadline_s = 60.0
    report_names = {"ops_per_s": "orderings_per_s", "op_p50_ms": "ordering_p50_ms",
                    "op_p90_ms": "ordering_p90_ms", "counted_cost": "counted_cost"}

    def __init__(self, smoke: bool):
        self.scale = 1 if smoke else 4
        self.per_shape = 1 if smoke else 3
        self.subgoals = 3 if smoke else 4

    def setup(self, seed):
        base, queries = dq.generate_synthetic(synth_config(
            self.scale, CORPUS_SEED, chain=self.per_shape, star=self.per_shape,
            subgoals=self.subgoals))
        return {"base": base, "queries": queries,
                "catalog": dq.build_catalog(base, dq.SamplingConfig())}

    def pool(self, state):
        return list(range(len(state["queries"])))

    def run(self, state, key):
        executions = []
        execute = dq.bench.execute

        def recording_execute(base, plan):
            self.tick()
            start = time.perf_counter()
            report = execute(base, plan)
            executions.append((report.answers, start, time.perf_counter() - start))
            return report

        # run_ratio keeps no answers; record them to compare the orderings.
        dq.bench.execute = recording_execute
        try:
            report = dq.bench.run_ratio(
                [state["base"]], [[state["queries"][key]]], dq.SamplingConfig(),
                catalogs=[state["catalog"]])
        finally:
            dq.bench.execute = execute
        cost = statistics.fmean(r.actual_cost for r in report.rows)
        return Result([e[0] for e in executions], len(executions), cost,
                      tuple(e[1:] for e in executions), info=report)

    def check(self, state, key, result, expected):
        first = result.value[0]
        if any(answers != first for answers in result.value):
            return f"query {key}: orderings disagree on answers"
        return None

    def estimates(self, results):
        return [(row.estimated_cost, row.actual_cost)
                for r in results for row in r.info.rows]

    def quality(self, results):
        """Estimate and plan quality over the operations' orderings.

        plan_regret is the geometric mean over queries of the chosen plan's
        actual cost over the best ordering's, both plus one."""
        if not results:
            return {}
        pairs = self.estimates(results)
        log_regrets, opt_worst = [], []
        for r in results:
            best = min(row.actual_cost for row in r.info.rows)
            for ratio in r.info.ratios:
                log_regrets.append(math.log((1 + ratio.optimal_cost) / (1 + best)))
                opt_worst.append(ratio.opt_worst_ratio)
        return {
            "log_correlation": pearson_log([e for e, _ in pairs],
                                           [a for _, a in pairs]),
            "opt_worst_ratio": statistics.fmean(opt_worst),
            "plan_regret": math.exp(statistics.fmean(log_regrets)),
        }

    def inputs(self, state):
        return {
            "corpus_seed": CORPUS_SEED, "scale": self.scale,
            "sampling_seed": dq.SamplingConfig().seed,
            "facts": len(state["base"]), "queries": len(state["queries"]),
            "subgoal_histogram": subgoal_histogram(state["queries"]),
            "orderings_per_query": math.factorial(self.subgoals),
            "deadline_s": self.deadline_s,
        }


class Analyze(Workload):
    """Cold start: parse_dob -> OntologyBase.from_facts -> build_catalog."""

    name = "analyze"
    deadline_s = 60.0
    report_names = {"ops_per_s": "analyze_facts_per_s", "op_p50_ms": "base_p50_ms",
                    "op_p90_ms": "base_p90_ms", "counted_cost": "catalog_counted_cost"}

    def __init__(self, smoke: bool):
        self.scales = (2,) if smoke else (25, 37, 50)

    def setup(self, seed):
        texts = []
        for i, scale in enumerate(self.scales):
            base, _ = dq.generate_synthetic(synth_config(scale, CORPUS_SEED + i))
            texts.append(dq.render_dob(base.facts()))
        return {"texts": texts}

    def run(self, state, key):
        engine_cost = [0]
        solve = dq.engine.solve

        def counting_solve(*args, **kwargs):
            self.tick()
            result = solve(*args, **kwargs)
            engine_cost[0] += result.actual_cost
            return result

        # The catalog's sampling calls engine.solve; count the work it does.
        dq.engine.solve = counting_solve
        try:
            facts = dq.parse_dob(state["texts"][key], filename=f"base{key}.dob")
            base = dq.OntologyBase.from_facts(facts)
            catalog = dq.build_catalog(base, dq.SamplingConfig())
        finally:
            dq.engine.solve = solve
        return Result(catalog, len(base), engine_cost[0])

    def check(self, state, key, result, expected):
        catalog = result.value
        if dq.stats.catalog_from_text(dq.stats.catalog_to_text(catalog)) != catalog:
            return f"base {key}: catalog changed in a text round trip"
        return None

    def inputs(self, state):
        return {
            "corpus_seeds": [CORPUS_SEED + i for i in range(len(self.scales))],
            "scales": list(self.scales),
            "sampling_seed": dq.SamplingConfig().seed,
            "facts": [t.count("\n") for t in state["texts"]],
            "deadline_s": self.deadline_s,
        }


class Recursive(Workload):
    """Point queries over deep subclass and transitive-statement chains."""

    name = "recursive"
    deadline_s = 10.0
    report_names = {"ops_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms",
                    "op_p90_ms": "query_p90_ms", "counted_cost": "counted_cost"}
    # Each template with the closure of its answers over a chain cut at k:
    # classes, individuals and statements are numbered from the bottom.
    TEMPLATES = (
        ("q(X) :- areSubClasses({c},X).",
         lambda n, k: {(c,) for c in n.cls[k + 1:]}),
        ("q(X) :- areIndividuals(X,{c}).",
         lambda n, k: {(i,) for i in n.ind[:k + 1]}),
        ("q(X) :- areStatements({s},{p},X).",
         lambda n, k: {(s,) for s in n.stm[k + 1:]}),
        ("q(X,O) :- areSubClasses({c},X), isClass(X,O).",
         lambda n, k: {(c, n.ont) for c in n.cls[k + 1:]}),
        ("q(I,C) :- areIndividuals(I,{c}), isIndividual(I,C).",
         lambda n, k: {(n.ind[j], n.cls[j]) for j in range(k + 1)}),
    )

    def __init__(self, smoke: bool):
        self.depth = 20 if smoke else 300
        self.positions = 2 if smoke else 20

    def setup(self, seed):
        rng = random.Random(seed)
        names = _ChainNames(rng, self.depth)
        facts = [_fact("isOntology", names.ont), _fact("isTransitive", names.prop)]
        for j in range(self.depth + 1):
            facts += [_fact("isClass", names.cls[j], names.ont),
                      _fact("isIndividual", names.ind[j], names.cls[j])]
        for j in range(self.depth):
            facts += [_fact("subClassOf", names.cls[j], names.cls[j + 1]),
                      _fact("isStatement", names.stm[j], names.prop, names.stm[j + 1])]
        rng.shuffle(facts)
        base = dq.OntologyBase.from_facts(facts)

        # Start depths: the middle of each stratum of the chain.
        step = self.depth // self.positions
        queries = []
        for template, closure in self.TEMPLATES:
            for i in range(self.positions):
                k = i * step + step // 2
                text = template.format(c=names.cls[k], s=names.stm[k], p=names.prop)
                queries.append((text, closure(names, k)))
        rng.shuffle(queries)
        return {"base": base, "texts": [q[0] for q in queries],
                "expected": [q[1] for q in queries]}

    def run(self, state, key):
        query = dq.parse_query(state["texts"][key])
        memo = dq.MemoTable()
        if len(query.body) == 1:
            res = dq.solve(state["base"], query.body[0], memo)
            substs = [{t.value: g.value for t, g in zip(query.body[0].args, a.args)}
                      for a in res.answers]
            cost = res.actual_cost
        else:
            substs, counters = dq.solve_sequence(state["base"], query.body, memo=memo)
            cost = counters.actual_cost
        return Result(head_tuples(query, substs), 1, cost)

    def reference(self, state, key, result):
        """The closure the benchmark computed from the chain edges."""
        return state["expected"][key]

    def check(self, state, key, result, expected):
        if result.value != expected:
            return (f"{state['texts'][key]}: {len(result.value)} answers, "
                    f"closure has {len(expected)}")
        return None

    def inputs(self, state):
        hist: dict[int, int] = {}
        for text in state["texts"]:
            n = text.count("(") - 1
            hist[n] = hist.get(n, 0) + 1
        return {
            "seeded": "node names, fact order",
            "chain_depth": self.depth, "facts": len(state["base"]),
            "queries": len(state["texts"]),
            "subgoal_histogram": dict(sorted(hist.items())),
            "deadline_s": self.deadline_s,
        }


class _ChainNames:
    """Constants of the recursive workload's chains, numbered bottom-up.

    The names are a seeded permutation of labels, so the interning order
    and index posting order change with the seed while the shape does not.
    """

    def __init__(self, rng: random.Random, depth: int):
        tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
        labels = iter(rng.sample(range(10 * depth), 3 * (depth + 1)))
        self.cls = [f"k{tag}{next(labels)}" for _ in range(depth + 1)]
        self.ind = [f"i{tag}{next(labels)}" for _ in range(depth + 1)]
        self.stm = [f"s{tag}{next(labels)}" for _ in range(depth + 1)]
        self.ont, self.prop = f"o{tag}", f"p{tag}"


def _fact(pred: str, *consts: str) -> dq.Atom:
    return dq.Atom(pred, tuple(dq.Term.const(c) for c in consts))


WORKLOADS = {w.name: w for w in (Serve, Experiment, Analyze, Recursive)}
