"""Statistics catalog: exact counts for extensional predicates, adaptive
sampling estimates for intensional ones.

Extensional statistics are cardinality and per-argument distinct counts
(nKeys), computed by scan. Intensional cost per binding pattern and
all-free cardinality are estimated by an urn-model sampling procedure: the
predicate's instantiation population is partitioned by one or more
arguments, partitions are drawn uniformly with replacement and evaluated
through the engine, and drawing stops once the accumulated metric sum z
exceeds alpha * b(n), where b(n) is the maximum metric value among the
first k samples (double sampling). The estimated mean is z / m.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product

from . import engine
from .model import (
    Atom,
    BUILTIN_SCHEMA,
    DobError,
    IOB_PREDICATES,
    PredicateKind,
    Term,
    read_text,
    schema_for,
)
from .store import OntologyBase


class AnalyzerError(DobError):
    pass


@dataclass(frozen=True)
class BindingPattern:
    """Per-argument bound/free flags, written 'b'/'f' per position."""

    bound: tuple[bool, ...]

    def __str__(self) -> str:
        return "".join("b" if b else "f" for b in self.bound)

    def __len__(self) -> int:
        return len(self.bound)

    @property
    def all_free(self) -> bool:
        return not any(self.bound)

    @property
    def bound_positions(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bound) if b)

    @classmethod
    def parse(cls, text: str) -> BindingPattern:
        if any(c not in "bf" for c in text):
            raise AnalyzerError(f"bad binding pattern: {text!r}")
        return cls(tuple(c == "b" for c in text))

    @classmethod
    def free(cls, arity: int) -> BindingPattern:
        return cls((False,) * arity)


def all_patterns(arity: int) -> list[BindingPattern]:
    return [BindingPattern(p) for p in product((False, True), repeat=arity)]


@dataclass(frozen=True)
class EobStats:
    cardinality: int
    n_keys: tuple[int, ...]


@dataclass
class IobStats:
    distinct_values: tuple[float, ...]
    cardinality: float  # all-free; other patterns: `pattern_cardinality`
    cost: dict[BindingPattern, float]
    low_confidence: bool = field(default=False, compare=False)


def distinct_counts(st: EobStats | IobStats) -> tuple:
    """Per-argument distinct counts: nKeys, or the IOB estimates."""
    return st.n_keys if isinstance(st, EobStats) else st.distinct_values


def pattern_cardinality(st: EobStats | IobStats, pattern) -> float:
    """Expected matches under `pattern` (uniformity assumption): the
    cardinality divided by each bound argument's distinct count, at
    least 1, one position at a time."""
    card, distinct = float(st.cardinality), distinct_counts(st)
    for pos in pattern.bound_positions:
        card /= max(1.0, distinct[pos])
    return card


@dataclass(frozen=True)
class SamplingConfig:
    d: float = 0.2
    p: float = 0.7
    k: int = 7
    m_max: int | None = None  # None: min(4n, 2000) per run
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise AnalyzerError(
                f"relative error d must be positive and finite: {self.d}"
            )
        if not 0 <= self.p < 1:
            raise AnalyzerError(f"confidence p must lie in [0, 1): {self.p}")
        if self.k < 1:
            raise AnalyzerError(f"first-stage sample count must be >= 1: {self.k}")
        if self.m_max is not None and self.m_max < 1:
            raise AnalyzerError(f"sample cap m_max must be >= 1: {self.m_max}")


@dataclass
class SamplingRun:
    n: int
    m: int
    z: float
    b_of_n: float
    mean: float
    low_confidence: bool = False


def alpha(config: SamplingConfig) -> float:
    """Stopping-bound coefficient d*(d+1)/(1 - sqrt(p))."""
    return config.d * (config.d + 1) * (1.0 / (1.0 - math.sqrt(config.p)))


def compute_eob_stats(base: OntologyBase) -> dict[str, EobStats]:
    """Exact cardinality and per-argument distinct counts, by scan."""
    out: dict[str, EobStats] = {}
    for name, schema in BUILTIN_SCHEMA.items():
        if schema.kind is not PredicateKind.EOB:
            continue
        rows = base.rows(name)
        if not rows:
            out[name] = EobStats(0, (0,) * schema.arity)
            continue
        n_keys = tuple(
            len({row[i] for row in rows}) for i in range(schema.arity)
        )
        out[name] = EobStats(len(rows), n_keys)
    return out


def _pick_partition_arg(base: OntologyBase, predicate: str) -> int:
    """Most selective (largest-domain) argument position, 0-based."""
    schema = schema_for(predicate)
    sizes = [len(base.domain_values(d)) for d in schema.arg_domains]
    return max(range(schema.arity), key=lambda i: (sizes[i], -i))


def _partitions(base, predicate, pattern):
    """Partition argument positions of a pattern (the most selective one
    when it is all-free, else its bound positions), their domain pools and
    the partition count."""
    if pattern.all_free:
        partition_args = (_pick_partition_arg(base, predicate),)
    else:
        partition_args = pattern.bound_positions
    domains = schema_for(predicate).arg_domains
    pools = [base.domain_values(domains[i]) for i in partition_args]
    return partition_args, pools, math.prod(map(len, pools))


def _evaluate_sample(base, predicate, bound: dict[int, int], cache):
    """Cardinality and cost of one instantiated call, fresh memo per
    partition so the cost reflects a full derivation. `cache` keeps them,
    with the call's inferred facts and EOB accesses, under the call."""
    key = (predicate, tuple(sorted(bound.items())))
    hit = cache.get(key)
    if hit is not None:
        return hit[:2]
    term = base.symbols.terms
    args = [
        term[bound[i]] if i in bound else Term.var(f"V{i}")
        for i in range(schema_for(predicate).arity)
    ]
    result = engine.solve(base, Atom(predicate, args), engine.MemoTable())
    card, cost = float(len(result.answers)), float(result.actual_cost)
    cache[key] = (
        card, cost, result.inferred_fact_count, result.eob_access_count
    )
    return card, cost


def adaptive_sample(
    base: OntologyBase,
    predicate: str,
    pattern: BindingPattern,
    metric: str,
    config: SamplingConfig,
    *,
    sample_cache: dict | None = None,
) -> SamplingRun:
    """One urn-model sampling run for a predicate and binding pattern.

    An all-free pattern is partitioned on its most selective argument,
    the one with the largest domain; a pattern with bound arguments is
    partitioned on the bound arguments jointly. Cardinality is sampled
    on the all-free pattern only.
    """
    if metric not in ("cost", "cardinality"):
        raise AnalyzerError(f"unknown metric: {metric!r}")
    schema = schema_for(predicate)
    if schema.kind is not PredicateKind.IOB:
        raise AnalyzerError(f"sampling applies to IOB predicates: {predicate}")
    if len(pattern) != schema.arity:
        raise AnalyzerError(f"pattern arity mismatch for {predicate}")
    if metric == "cardinality" and not pattern.all_free:
        raise AnalyzerError("cardinality is sampled on the all-free pattern")
    cache = sample_cache if sample_cache is not None else {}
    partition_args, pools, n = _partitions(base, predicate, pattern)
    if n == 0:
        return SamplingRun(n=0, m=0, z=0.0, b_of_n=0.0, mean=0.0,
                           low_confidence=True)

    rng = random.Random(f"{config.seed}|{predicate}|{pattern}|{metric}")
    m_cap = config.m_max if config.m_max is not None else min(4 * n, 2000)
    m_cap = max(m_cap, config.k)

    def draw():
        bound = {
            pos: pool[rng.randrange(len(pool))]
            for pos, pool in zip(partition_args, pools)
        }
        card, cost = _evaluate_sample(base, predicate, bound, cache)
        return card if metric == "cardinality" else cost

    z = 0.0
    samples = []
    for _ in range(config.k):
        v = draw()
        samples.append(v)
        z += v
    b_of_n = max(samples)
    m = len(samples)
    if b_of_n == 0.0:
        # All first-stage samples empty: the stopping rule z > alpha*b(n)
        # could never fire, so report a zero mean flagged as low confidence.
        return SamplingRun(n=n, m=m, z=z, b_of_n=0.0, mean=0.0,
                           low_confidence=True)
    bound_z = alpha(config) * b_of_n
    while z <= bound_z and m < m_cap:
        z += draw()
        m += 1
    return SamplingRun(n=n, m=m, z=z, b_of_n=b_of_n, mean=z / m)


def _exhaustive_run(base, predicate, pattern, cache) -> SamplingRun:
    """Every partition of a pattern's cost run drawn once: the exact mean.
    Costs are counts, so their float sum is exact in any order."""
    partition_args, pools, n = _partitions(base, predicate, pattern)
    if n == 0:
        return SamplingRun(n=0, m=0, z=0.0, b_of_n=0.0, mean=0.0)
    draws = (dict(zip(partition_args, c)) for c in product(*pools))
    costs = [_evaluate_sample(base, predicate, b, cache)[1] for b in draws]
    z = sum(costs)
    return SamplingRun(n=n, m=n, z=z, b_of_n=max(costs), mean=z / n)


def _iob_stats(card_free, distinct, cost_run, low_confidence):
    """IOB statistics with the cost of every binding pattern: the mean of
    `cost_run(pattern)` for patterns with bound arguments, and mean * n
    over the most selective argument for the all-free pattern."""
    cost: dict[BindingPattern, float] = {}
    for pattern in all_patterns(len(distinct)):
        run = cost_run(pattern)
        low_confidence = low_confidence or run.low_confidence
        cost[pattern] = run.mean * run.n if pattern.all_free else run.mean
    return IobStats(distinct, card_free, cost, low_confidence)


def estimate_iob_stats(
    base: OntologyBase,
    predicate: str,
    config: SamplingConfig,
    *,
    sample_cache: dict | None = None,
) -> IobStats:
    """Sampled cost for every binding pattern plus the cardinality model.

    The all-free cardinality is mean * n of a sampling run; each argument's
    distinct values are estimated as that cardinality capped by its domain
    size. Every run shares one sample cache, `sample_cache` if given.
    """
    schema = schema_for(predicate)
    cache = sample_cache if sample_cache is not None else {}
    card_run = adaptive_sample(
        base, predicate, BindingPattern.free(schema.arity), "cardinality",
        config, sample_cache=cache,
    )
    card_free = card_run.mean * card_run.n
    sizes = [len(base.domain_values(d)) for d in schema.arg_domains]
    distinct = tuple(
        min(card_free, float(size)) if size else 0.0 for size in sizes
    )
    return _iob_stats(
        card_free, distinct,
        lambda pattern: adaptive_sample(
            base, predicate, pattern, "cost", config, sample_cache=cache
        ),
        card_run.low_confidence,
    )


@dataclass
class StatisticsCatalog:
    """Per-predicate statistics. `counters` is the engine work the build
    counted; it is neither compared nor saved."""

    entries: dict[str, EobStats | IobStats]
    config: SamplingConfig
    counters: engine.Counters = field(
        default_factory=engine.Counters, compare=False
    )


def _solved_work(cache, work: engine.Counters) -> engine.Counters:
    """`work` plus the inferred facts and EOB accesses of every call
    solved into the draw `cache`, which keeps one entry per solved call."""
    for hit in cache.values():
        work.inferred_facts += hit[2]
        work.eob_accesses += hit[3]
    return work


def build_catalog(base: OntologyBase, config: SamplingConfig) -> StatisticsCatalog:
    """Exact EOB statistics plus sampled IOB statistics for all patterns."""
    entries: dict[str, EobStats | IobStats] = dict(compute_eob_stats(base))
    cache: dict = {}
    for name in IOB_PREDICATES:
        entries[name] = estimate_iob_stats(
            base, name, config, sample_cache=cache
        )
    return StatisticsCatalog(
        entries, config, counters=_solved_work(cache, engine.Counters())
    )


def build_exact_catalog(base: OntologyBase) -> StatisticsCatalog:
    """Catalog whose intensional numbers are computed exhaustively.

    Cardinalities and distinct values come from the engine's answers to
    each predicate's all-free call; per-pattern costs run the sampled
    catalog's loop with every partition drawn once. Used as the sampling
    oracle in tests and for reproducible plan golden cases. The header
    records the default sampling settings.
    """
    entries: dict[str, EobStats | IobStats] = dict(compute_eob_stats(base))
    memo = engine.MemoTable()
    cache: dict = {}
    work = engine.Counters()
    for name in IOB_PREDICATES:
        arity = schema_for(name).arity
        free = Atom(name, tuple(Term.var(f"V{i}") for i in range(arity)))
        result = engine.solve(base, free, memo)
        work.inferred_facts += result.inferred_fact_count
        work.eob_accesses += result.eob_access_count
        answers = result.answers
        distinct = tuple(
            float(len({row[i] for row in answers.rows})) for i in range(arity)
        )
        entries[name] = _iob_stats(
            float(len(answers)), distinct,
            lambda pattern: _exhaustive_run(base, name, pattern, cache),
            False,
        )
    return StatisticsCatalog(
        entries, SamplingConfig(), counters=_solved_work(cache, work)
    )


# --- catalog file format ----------------------------------------------------
#   # dob catalog v1
#   # config d=<f> p=<f> k=<i> seed=<i> mmax=<i|auto>
#   pred | kind | pattern | cardinality | cost | per-arg tail
# EOB rows carry one line (tail = nKeys); IOB rows carry one line per
# binding pattern (tail = estimated distinct values per argument), its
# cardinality `pattern_cardinality`'s. Unknown config keys and other
# comment lines are read and ignored.

CATALOG_HEADER = "# dob catalog v1"


def catalog_to_text(catalog: StatisticsCatalog) -> str:
    cfg = catalog.config
    mmax = "auto" if cfg.m_max is None else str(cfg.m_max)
    lines = [
        CATALOG_HEADER,
        f"# config d={cfg.d!r} p={cfg.p!r} k={cfg.k} seed={cfg.seed} "
        f"mmax={mmax}",
    ]
    for name, schema in BUILTIN_SCHEMA.items():
        st = catalog.entries.get(name)
        if st is None:
            continue
        if isinstance(st, EobStats):
            rows = [("f" * schema.arity, st.cardinality, st.cardinality)]
        else:
            rows = [
                (p, pattern_cardinality(st, p), st.cost[p])
                for p in all_patterns(schema.arity)
            ]
        tail = " ".join(repr(v) for v in distinct_counts(st))
        lines.extend(
            f"{name} | {schema.kind.value} | {p} | {card!r} | {cost!r} | "
            f"{tail}" for p, card, cost in rows
        )
    return "\n".join(lines) + "\n"


def _parse_config(text: str) -> SamplingConfig:
    """The sampling settings of a `# config key=value ...` header."""
    fields = {}
    for part in text.split():
        key, sep, value = part.partition("=")
        if not sep:
            raise AnalyzerError(f"config field without '=': {part!r}")
        fields[key] = value
    missing = [k for k in ("d", "p", "k", "seed") if k not in fields]
    if missing:
        raise AnalyzerError(f"config is missing {', '.join(missing)}")
    return SamplingConfig(
        d=float(fields["d"]),
        p=float(fields["p"]),
        k=int(fields["k"]),
        m_max=None if fields.get("mmax", "auto") == "auto"
        else int(fields["mmax"]),
        seed=int(fields["seed"]),
    )


def _catalog_number(text: str, what: str, parse=float):
    """A catalog number: `parse(text)`, finite and not negative."""
    value = parse(text)
    if not 0 <= value < math.inf:
        raise AnalyzerError(
            f"{what} must be finite and non-negative, got {text!r}"
        )
    return value


def _count(text: str, what: str):
    """An EOB count; an integer is read exactly, past float precision
    too."""
    return _catalog_number(text, what, int if text.isdecimal() else float)


def catalog_from_text(text: str) -> StatisticsCatalog:
    """Parse `catalog_to_text` output: the version header on line 1, one
    `# config` line before the rows. Each row must agree with the schema
    and with the rows read before it: a pattern has one letter per
    argument, an EOB row has the all-free pattern and its cardinality as
    cost, no predicate (EOB) or (predicate, pattern) (IOB) has a second
    row, and an IOB predicate's rows carry one distinct-value tail and
    `pattern_cardinality`'s cardinality. A fault names its line."""
    config = None
    config_no = 0  # line of the `# config` line, 0 before it is read
    entries: dict[str, EobStats | IobStats] = {}
    iob_rows: dict[str, dict[BindingPattern, tuple[float, float]]] = {}
    # pred -> (distinct values, line read from)
    iob_distinct: dict[str, tuple[tuple[float, ...], int]] = {}
    row_lines: dict[tuple[str, ...], int] = {}  # (pred[, pattern]) -> line

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        try:
            if line_no == 1 and line != CATALOG_HEADER:
                raise AnalyzerError(
                    f"expected {CATALOG_HEADER!r}, got {line!r}"
                )
            if not line:
                continue
            if line.startswith("#"):
                key, _, settings = line.lstrip("#").strip().partition(" ")
                if key == "config":
                    if config_no:
                        raise AnalyzerError(
                            f"second '# config' line (first on line "
                            f"{config_no})"
                        )
                    config, config_no = _parse_config(settings), line_no
                continue
            if not config_no:
                raise AnalyzerError("no '# config' line before the first row")
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 6:
                raise AnalyzerError("expected 6 columns")
            name, kind, pattern_s, card_s, cost_s, tail = parts
            schema = schema_for(name)
            if kind not in ("EOB", "IOB"):
                raise AnalyzerError(f"bad kind {kind!r}")
            if kind != schema.kind.value:
                raise AnalyzerError(
                    f"{name} is an {schema.kind.value} predicate, not {kind}"
                )
            if kind == "EOB":
                if pattern_s != "f" * schema.arity:
                    raise AnalyzerError(
                        f"pattern of {name} must be {'f' * schema.arity!r}, "
                        f"got {pattern_s!r}"
                    )
                n_keys = tuple(
                    _catalog_number(x, "nKeys", int) for x in tail.split()
                )
                if len(n_keys) != schema.arity:
                    raise AnalyzerError(f"nKeys arity mismatch for {name}")
                card = _count(card_s, "cardinality")
                if _count(cost_s, "cost") != card:
                    raise AnalyzerError(
                        f"cost of {name} must equal its cardinality "
                        f"{card_s}, got {cost_s!r}"
                    )
                entries[name] = EobStats(int(card), n_keys)
            elif kind == "IOB":
                pattern = BindingPattern.parse(pattern_s)
                if len(pattern_s) != schema.arity:
                    raise AnalyzerError(
                        f"pattern of {name} must have {schema.arity} "
                        f"letters, got {pattern_s!r}"
                    )
                rows = iob_rows.setdefault(name, {})
                rows[pattern] = (
                    _catalog_number(card_s, "cardinality"),
                    _catalog_number(cost_s, "cost"),
                )
                distinct = tuple(
                    _catalog_number(x, "distinct value") for x in tail.split()
                )
                if len(distinct) != schema.arity:
                    raise AnalyzerError(
                        f"distinct-value arity mismatch for {name}"
                    )
                first, first_no = iob_distinct.setdefault(
                    name, (distinct, line_no)
                )
                if distinct != first:
                    raise AnalyzerError(
                        f"distinct values of {name} differ from line {first_no}"
                    )
            row = (name,) if kind == "EOB" else (name, pattern_s)
            first_no = row_lines.setdefault(row, line_no)
            if first_no != line_no:
                raise AnalyzerError(
                    f"second row for {' '.join(row)} (first on line {first_no})"
                )
        except (DobError, ValueError) as exc:
            raise AnalyzerError(f"catalog line {line_no}: {exc}") from None

    missing = [
        n for n in BUILTIN_SCHEMA if n not in entries and n not in iob_rows
    ]
    if missing:
        raise AnalyzerError(f"catalog has no entry for {', '.join(missing)}")
    for name, rows in iob_rows.items():
        arity = schema_for(name).arity
        lacking = [str(p) for p in all_patterns(arity) if p not in rows]
        if lacking:
            raise AnalyzerError(
                f"catalog is missing patterns for {name}: {', '.join(lacking)}"
            )
        entry = entries[name] = IobStats(
            distinct_values=iob_distinct[name][0],
            cardinality=rows[BindingPattern.free(arity)][0],
            cost={p: rows[p][1] for p in rows},
        )
        for pattern, (card, _) in rows.items():
            derived = pattern_cardinality(entry, pattern)
            if card != derived:
                raise AnalyzerError(
                    f"catalog line {row_lines[(name, str(pattern))]}: "
                    f"cardinality of {name} {pattern} must be {derived!r} "
                    f"by its all-free cardinality and distinct values, "
                    f"got {card!r}"
                )
    return StatisticsCatalog(entries, config)


def save_catalog(catalog: StatisticsCatalog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(catalog_to_text(catalog))


def load_catalog(path) -> StatisticsCatalog:
    """The catalog saved at `path`; a refusal of its text names the file,
    as in `cars.cat: catalog line 4: ...`."""
    text = read_text(path)
    try:
        return catalog_from_text(text)
    except AnalyzerError as exc:
        raise AnalyzerError(f"{path}: {exc}") from None
