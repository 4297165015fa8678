import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from dobquery import (
    Atom,
    JoinMethod,
    JoinStrategy,
    OntologyBase,
    PredicateKind,
    Query,
    SamplingConfig,
    SchemaError,
    SynthConfig,
    build_catalog,
    build_exact_catalog,
    builtin_iob_program,
    execute,
    generate_synthetic,
    parse_atom,
    parse_dob,
    parse_query,
    uniform_plan,
)
from dobquery.engine import EvaluationResult
from dobquery.model import BUILTIN_SCHEMA, Term, schema_for
from dobquery.stats import EobStats, IobStats, StatisticsCatalog, all_patterns

DATA_DIR = Path(__file__).parent / "data"

# The benchmark's serve star query whose last join makes 2,424,832 rows.
SERVE_Q17 = parse_query(
    "q17(Z0,X,Z1,Z2,Z3,Z4,Z5) :- areClasses(Z0,X), areImpOntologies(X,Z1),"
    " areImpOntologies(X,Z2), isClass(Z3,X), isClass(Z4,X),"
    " areClasses(Z5,X)."
)
# A star whose prefix cardinality estimate overflows to infinity.
STAR_400 = parse_query(
    "q(X) :- " + ", ".join(f"isClass(Z{i},X)" for i in range(400)) + "."
)


def load_cars_base() -> OntologyBase:
    text = (DATA_DIR / "cars.dob").read_text(encoding="utf-8")
    return OntologyBase.from_facts(parse_dob(text))


@pytest.fixture(scope="session")
def cars_base() -> OntologyBase:
    return load_cars_base()


@pytest.fixture(scope="session")
def cars_exact_catalog(cars_base):
    return build_exact_catalog(cars_base)


def scaled_config(scale: int, seed: int) -> SynthConfig:
    """The benchmark's corpus settings: every population count of the
    default generator settings times `scale`, no queries."""
    d = SynthConfig()
    scaled = {name: getattr(d, name) * scale for name in (
        "ontologies", "subclass_edges", "object_properties",
        "datatype_properties", "transitive_properties", "individuals",
        "statements", "import_edges",
    )}
    return SynthConfig(
        **scaled, seed=seed, chain_queries=0, star_queries=0
    )


@pytest.fixture(scope="session")
def serve_base() -> OntologyBase:
    """The benchmark's serve base: scale 4, corpus seed 0."""
    return generate_synthetic(scaled_config(4, 0))[0]


@pytest.fixture(scope="session")
def serve_catalog(serve_base):
    return build_catalog(serve_base, SamplingConfig())


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def random_base(rng: random.Random, max_facts: int = 200) -> OntologyBase:
    """Random base over small constant pools; subclass, import and
    transitive-statement cycles are all possible."""
    onts = [f"o{i}" for i in range(rng.randint(1, 4))]
    classes = [f"c{i}" for i in range(rng.randint(2, 12))]
    props = [f"p{i}" for i in range(rng.randint(1, 5))]
    inds = [f"i{i}" for i in range(rng.randint(1, 15))]
    vals = inds + [f"v{i}" for i in range(rng.randint(0, 5))]
    facts = []
    for o in onts:
        facts.append(f"isOntology({o})")
    for _ in range(rng.randint(0, 6)):
        facts.append(f"impOntology({rng.choice(onts)},{rng.choice(onts)})")
    for c in classes:
        if rng.random() < 0.8:
            facts.append(f"isClass({c},{rng.choice(onts)})")
    for _ in range(rng.randint(0, 20)):
        facts.append(f"subClassOf({rng.choice(classes)},{rng.choice(classes)})")
    for p in props:
        if rng.random() < 0.5:
            facts.append(
                f"isOProperty({p},{rng.choice(classes)},{rng.choice(classes)})"
            )
        else:
            facts.append(f"isDProperty({p},{rng.choice(classes)})")
        if rng.random() < 0.4:
            facts.append(f"isTransitive({p})")
    for _ in range(rng.randint(0, 8)):
        facts.append(
            f"allValuesFrom({rng.choice(classes)},{rng.choice(props)},"
            f"{rng.choice(classes)})"
        )
    for i in inds:
        if rng.random() < 0.8:
            facts.append(f"isIndividual({i},{rng.choice(classes)})")
    for _ in range(rng.randint(0, 40)):
        facts.append(
            f"isStatement({rng.choice(inds)},{rng.choice(props)},"
            f"{rng.choice(vals)})"
        )
    return OntologyBase.from_facts(parse_atom(f) for f in facts[:max_facts])


def binding_patterns(arity: int) -> list[tuple]:
    """Every binding pattern of `arity` arguments: None for a constant,
    else a variable number, numbered by first occurrence."""
    out: list[tuple] = [()]
    for _ in range(arity):
        out = [
            p + (x,)
            for p in out
            for x in (None, *range(2 + max(
                (v for v in p if v is not None), default=-1
            )))
        ]
    return out


def random_query(rng, base) -> Query:
    """A random 2- or 3-subgoal query over the populated predicates of
    `base`, its variables drawn from a pool of four."""
    populated = [p for p in ("isClass", "subClassOf", "isIndividual",
                             "isStatement", "areClasses", "areSubClasses",
                             "areIndividuals", "areStatements")
                 if base.rows(p) or p.startswith("are")]
    n = rng.randint(2, 3)
    var_pool = ["X", "Y", "Z", "W"]
    body = []
    for _ in range(n):
        name = rng.choice(populated)
        arity = BUILTIN_SCHEMA[name].arity
        args = tuple(Term.var(rng.choice(var_pool)) for _ in range(arity))
        body.append(Atom(name, args))
    body_vars = {v for a in body for v in a.variables}
    head = Atom("q", tuple(Term.var(v) for v in sorted(body_vars)))
    return Query(head, tuple(body))


def random_catalog(rng: random.Random) -> StatisticsCatalog:
    """Random statistics for every built-in predicate: EOB cardinality up
    to 60 with nKeys up to it, IOB all-free cardinality up to 80 with
    distinct values in [1, 40] and per-pattern costs up to 300."""
    entries = {}
    for name, schema in BUILTIN_SCHEMA.items():
        if schema.kind is PredicateKind.EOB:
            card = rng.randint(0, 60)
            n_keys = tuple(
                rng.randint(1, card) if card else 0
                for _ in range(schema.arity)
            )
            entries[name] = EobStats(card, n_keys)
        else:
            card_free = rng.uniform(0, 80)
            distinct = tuple(rng.uniform(1, 40) for _ in range(schema.arity))
            costs = {p: rng.uniform(0, 300) for p in all_patterns(schema.arity)}
            entries[name] = IobStats(distinct, card_free, costs)
    return StatisticsCatalog(entries, SamplingConfig())


def random_catalog_query(rng: random.Random, max_subgoals: int = 5):
    """A query of 2 to `max_subgoals` subgoals over every built-in
    predicate, for `random_catalog`: each argument is a variable of a pool
    of 2-6 (three times in four) or one of ten constants. None when the
    body has no variable."""
    n = rng.randint(2, max_subgoals)
    names = list(BUILTIN_SCHEMA)
    var_pool = [f"V{i}" for i in range(rng.randint(2, 6))]
    body = []
    for _ in range(n):
        name = rng.choice(names)
        args = tuple(
            Term.var(rng.choice(var_pool))
            if rng.random() < 0.75
            else Term.const(f"k{rng.randint(0, 9)}")
            for _ in range(BUILTIN_SCHEMA[name].arity)
        )
        body.append(Atom(name, args))
    body_vars = [v for a in body for v in a.variables]
    if not body_vars:
        return None
    return Query(Atom("q", (Term.var(rng.choice(body_vars)),)), tuple(body))


def match_eob(base: OntologyBase, pattern: Atom) -> list[Atom]:
    """All facts unifying with `pattern`, in insertion order."""
    schema = schema_for(pattern.predicate, len(pattern.args))
    if schema.kind is not PredicateKind.EOB:
        raise SchemaError(f"match_eob requires an EOB predicate: {pattern}")
    ids: list[int | None] = []
    same: list[tuple[int, int]] = []
    first: dict[str, int] = {}  # variable -> its first position
    for pos, t in enumerate(pattern.args):
        if t.is_var:
            ids.append(None)
            if t.value in first:
                same.append((first[t.value], pos))
            else:
                first[t.value] = pos
        else:
            cid = base.symbols.lookup(t.value)
            if cid is None:
                return []
            ids.append(cid)
    rows = base.match_rows(pattern.predicate, tuple(ids), same)
    return [base.to_atom(pattern.predicate, row) for row in rows]


def execute_all_strategies(
    base,
    query: Query,
    order: tuple[int, ...] | None = None,
) -> dict[JoinMethod, EvaluationResult]:
    """One report per strategy over the same ordering; answers must agree."""
    out = {}
    for method in JoinMethod:
        plan = uniform_plan(query, JoinStrategy(method), order)
        out[method] = execute(base, plan)
    return out


def refuse_text(_symbols, _cid):
    """Stand-in for `SymbolTable.text` in tests that no text is built."""
    raise AssertionError("constant text built")


def bottom_up_oracle(base: OntologyBase) -> set[Atom]:
    """Naive fixpoint of the IOB program over the EOB facts: the reference
    the top-down engine is compared against."""
    derived: dict[str, set[tuple[int, ...]]] = {}
    compiled = []
    for rule in builtin_iob_program():
        head_args = tuple(
            t.value if t.is_var else base.symbols.intern(t.value)
            for t in rule.head.args
        )
        body = []
        for atom in rule.body:
            schema = schema_for(atom.predicate, len(atom.args))
            args = tuple(
                t.value if t.is_var else base.symbols.intern(t.value)
                for t in atom.args
            )
            body.append((atom.predicate, args, schema.kind is PredicateKind.EOB))
        compiled.append((rule.head.predicate, head_args, body))

    def match(pred, inst, eob):
        rows = base.rows(pred) if eob else derived.get(pred, ())
        for row in rows:
            ext = {}
            ok = True
            for a, v in zip(inst, row):
                if isinstance(a, str):
                    prev = ext.setdefault(a, v)
                    if prev != v:
                        ok = False
                        break
                elif a != v:
                    ok = False
                    break
            if ok:
                yield ext

    changed = True
    while changed:
        changed = False
        for head_pred, head_args, body in compiled:
            substs = [{}]
            for pred, args, eob in body:
                if not substs:
                    break
                nxt = []
                for s in substs:
                    inst = tuple(
                        s.get(a, a) if isinstance(a, str) else a for a in args
                    )
                    for ext in match(pred, inst, eob):
                        nxt.append({**s, **ext})
                substs = nxt
            bucket = derived.setdefault(head_pred, set())
            for s in substs:
                fact = tuple(
                    s[a] if isinstance(a, str) else a for a in head_args
                )
                if fact not in bucket:
                    bucket.add(fact)
                    changed = True

    out = set()
    for pred, rows in derived.items():
        for row in rows:
            out.add(base.to_atom(pred, row))
    return out


# Property tests draw the same examples on every run and stay within the
# tier-1 time budget. The `wide` profile draws new random examples on
# every run, many more of them; `HYPOTHESIS_PROFILE` names the profile.
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.register_profile(
    "wide", max_examples=1000, deadline=None, database=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
