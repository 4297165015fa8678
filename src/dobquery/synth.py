"""Synthetic ontology and query workload generation.

Structure is drawn uniformly at random under a seed: an acyclic import
graph between ontologies, classes assigned per ontology, an acyclic
subclass graph bounded by a maximum depth, properties with random
domains and ranges, individuals, and property-value statements. Queries
come in two shapes: chains, whose consecutive subgoals share one linking
variable each, and stars, whose subgoals all share one central variable.
Argument domains are respected when picking predicates so the joins are
type-coherent, and every query contains at least one intensional subgoal.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import accumulate, count

from .model import (
    ArgDomain,
    Atom,
    BUILTIN_SCHEMA,
    DobError,
    PredicateKind,
    Query,
    Term,
)
from .parsing import _fact
from .store import OntologyBase


class SynthError(DobError):
    pass


@dataclass(frozen=True)
class SynthConfig:
    ontologies: int = 3
    classes_per_ontology: int = 8
    subclass_edges: int = 16
    object_properties: int = 4
    datatype_properties: int = 4
    transitive_properties: int = 1
    individuals: int = 30
    statements: int = 50
    import_edges: int = 2
    max_subclass_depth: int = 4
    seed: int = 0
    chain_queries: int = 3
    star_queries: int = 3
    query_subgoals: int = 3
    constant_probability: float = 0.9

    def __post_init__(self):
        for name in (
            "ontologies",
            "classes_per_ontology",
            "subclass_edges",
            "object_properties",
            "datatype_properties",
            "transitive_properties",
            "individuals",
            "statements",
            "import_edges",
            "max_subclass_depth",
            "chain_queries",
            "star_queries",
        ):
            if getattr(self, name) < 0:
                raise SynthError(f"{name} must be nonnegative")
        if self.query_subgoals < 2:
            raise SynthError("queries need at least 2 subgoals")
        if not 0.0 <= self.constant_probability <= 1.0:
            raise SynthError("constant_probability must lie in [0, 1]")
        if self.transitive_properties > self.object_properties:
            raise SynthError(
                "transitive_properties cannot exceed object_properties"
            )
        n = self.ontologies
        if self.import_edges > n * (n - 1) // 2:
            raise SynthError(
                f"{self.import_edges} import edges exceed the "
                f"{n * (n - 1) // 2} available ontology pairs"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> SynthConfig:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SynthError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SynthError("config must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise SynthError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            # a float field also takes an int
            allowed = (int, float) if fields[name].type == "float" else int
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise SynthError(
                    f"config field {name} must be {fields[name].type}, "
                    f"got {value!r}"
                )
        return cls(**data)


def _subclass_pairs(classes: list[str], level: dict[str, int], depth: int):
    """The number of class pairs (a, b) with level[a] > level[b], listed
    a-major in class order, and the function from an index to its pair.

    Edges are drawn as indices into this list without building it.
    `random.sample` draws the same indices for any population of the same
    length, so the edges and the random stream are those of sampling the
    list itself.
    """
    below = [[b for b in classes if level[b] < d] for d in range(depth + 1)]
    counts = (len(below[level[a]]) for a in classes)
    starts = list(accumulate(counts, initial=0))

    def pair(i: int) -> tuple[str, str]:
        k = bisect_right(starts, i) - 1
        a = classes[k]
        return a, below[level[a]][i - starts[k]]

    return starts[-1], pair


def _generate_facts(config: SynthConfig, rng: random.Random) -> list[Atom]:
    facts: list[Atom] = []
    onts = [f"ont{i}" for i in range(config.ontologies)]
    for o in onts:
        facts.append(_fact("isOntology", o))

    # Imports only point from higher to lower index, keeping the graph
    # acyclic. Edges are drawn as indices into the i-major list of pairs
    # (i, j), j < i, without building it, as `_subclass_pairs` does.
    def import_pair(k: int) -> tuple[str, str]:
        i = (1 + math.isqrt(1 + 8 * k)) // 2
        return onts[i], onts[k - i * (i - 1) // 2]

    n_pairs = len(onts) * (len(onts) - 1) // 2
    drawn = rng.sample(range(n_pairs), config.import_edges)
    for src, dst in sorted(map(import_pair, drawn)):
        facts.append(_fact("impOntology", src, dst))

    classes: list[str] = []
    for i, o in enumerate(onts):
        for j in range(config.classes_per_ontology):
            name = f"c{i}_{j}"
            classes.append(name)
            facts.append(_fact("isClass", name, o))

    # Each class sits at a random depth level; subclass edges point to a
    # strictly shallower class, so the graph is acyclic with bounded depth.
    level = {c: rng.randint(0, config.max_subclass_depth) for c in classes}
    n_pairs, pair = _subclass_pairs(classes, level, config.max_subclass_depth)
    if config.subclass_edges > n_pairs:
        raise SynthError(
            f"{config.subclass_edges} subclass edges exceed the "
            f"{n_pairs} available class pairs"
        )
    drawn = rng.sample(range(n_pairs), config.subclass_edges)
    for a, b in sorted(map(pair, drawn)):
        facts.append(_fact("subClassOf", a, b))

    properties: list[tuple[str, bool]] = []  # (name, is_object)
    transitive = set(
        rng.sample(range(config.object_properties), config.transitive_properties)
    )
    for i in range(config.object_properties):
        name = f"op{i}"
        domain = rng.choice(classes) if classes else "owl:Thing"
        range_ = rng.choice(classes) if classes else "owl:Thing"
        facts.append(_fact("isOProperty", name, domain, range_))
        if i in transitive:
            facts.append(_fact("isTransitive", name))
        properties.append((name, True))
    for i in range(config.datatype_properties):
        name = f"dp{i}"
        domain = rng.choice(classes) if classes else "owl:Thing"
        facts.append(_fact("isDProperty", name, domain))
        properties.append((name, False))

    individuals = [f"ind{i}" for i in range(config.individuals)]
    for ind in individuals:
        if classes:
            facts.append(_fact("isIndividual", ind, rng.choice(classes)))

    for i in range(config.statements):
        if not individuals or not properties:
            break
        subject = rng.choice(individuals)
        prop, is_object = rng.choice(properties)
        if is_object:
            value = rng.choice(individuals)
        else:
            value = f"val{rng.randrange(max(1, config.statements // 2))}"
        facts.append(_fact("isStatement", subject, prop, value))
    return facts


def _predicate_pool(base: OntologyBase) -> list[tuple[str, tuple[ArgDomain, ...], bool]]:
    """Built-ins whose argument domains are populated in this base."""
    populated = {d for d in ArgDomain if base.domain_values(d)}
    pool = []
    for name, schema in BUILTIN_SCHEMA.items():
        if name == "isTransitive":
            continue  # the generator never asserts transitivity facts
        if populated.issuperset(schema.arg_domains):
            pool.append(
                (name, schema.arg_domains, schema.kind is PredicateKind.IOB)
            )
    return pool


def _constant_pools(base: OntologyBase) -> dict[ArgDomain, list[str]]:
    """Each domain's distinct constant texts, sorted."""
    text = base.symbols.text
    return {
        d: sorted({text(c) for c in base.domain_values(d)}) for d in ArgDomain
    }


def _inject_constant(atoms, const_pools, rng, probability):
    """Replace one once-occurring variable with a matching-domain constant."""
    if rng.random() >= probability:
        return atoms
    occurrences: dict[str, int] = {}
    for a in atoms:
        for t in a.args:
            if t.is_var:
                occurrences[t.value] = occurrences.get(t.value, 0) + 1
    candidates = []
    for ai, a in enumerate(atoms):
        domains = BUILTIN_SCHEMA[a.predicate].arg_domains
        for pos, t in enumerate(a.args):
            if (
                t.is_var
                and occurrences[t.value] == 1
                and const_pools.get(domains[pos])
            ):
                candidates.append((ai, pos, domains[pos]))
    ai, pos, domain = candidates[rng.randrange(len(candidates))]
    value = rng.choice(const_pools[domain])
    atom = atoms[ai]
    args = list(atom.args)
    args[pos] = Term.const(value)
    atoms = list(atoms)
    atoms[ai] = Atom(atom.predicate, tuple(args))
    return atoms


def _build_query(
    shape: str,
    subgoal_count: int,
    pool,
    const_pools: dict[ArgDomain, list[str]],
    constant_probability: float,
    rng: random.Random,
    query_name: str,
) -> Query | None:
    """A `shape` query, 'chain' or 'star', of `subgoal_count` subgoals
    drawn from `pool` (`_predicate_pool`), with one constant from
    `const_pools` put in with `constant_probability`.

    None when the pool has no IOB predicate, or the draw does not give a
    query: a chain that reaches a one-argument predicate ends short, and
    a query must mix EOB and IOB subgoals.
    """
    iob_pool = [p for p in pool if p[2]]
    if not iob_pool:
        return None
    fresh = count()

    def fresh_var() -> Term:
        return Term.var(f"Z{next(fresh)}")

    atoms: list[Atom] = []
    if shape == "chain":
        link_domain = None
        link_var = None
        for i in range(subgoal_count):
            last = i == subgoal_count - 1
            choices = pool if rng.random() < 0.5 else iob_pool
            if link_domain is not None:
                choices = [
                    c for c in choices if link_domain in c[1]
                ] or [c for c in pool if link_domain in c[1]]
            name, domains, _iob = choices[rng.randrange(len(choices))]
            in_positions = (
                [j for j, d in enumerate(domains) if d == link_domain]
                if link_domain is not None
                else list(range(len(domains)))
            )
            in_pos = in_positions[rng.randrange(len(in_positions))]
            out_candidates = [j for j in range(len(domains)) if j != in_pos]
            out_pos = (
                None
                if last or not out_candidates
                else out_candidates[rng.randrange(len(out_candidates))]
            )
            args: list[Term] = []
            next_var = Term.var(f"L{i + 1}")
            for j in range(len(domains)):
                if link_var is not None and j == in_pos:
                    args.append(link_var)
                elif out_pos is not None and j == out_pos:
                    args.append(next_var)
                else:
                    args.append(fresh_var())
            atoms.append(Atom(name, tuple(args)))
            if out_pos is None:
                break
            link_var = next_var
            link_domain = domains[out_pos]
    else:
        # domains in order of first appearance: no draw depends on hashing
        viable = list(dict.fromkeys(d for _n, ds, _iob in pool for d in ds))
        center_domain = viable[rng.randrange(len(viable))]
        center = Term.var("X")
        compatible = [c for c in pool if center_domain in c[1]]
        compatible_iob = [c for c in compatible if c[2]]
        for i in range(subgoal_count):
            choices = (
                compatible_iob
                if (rng.random() < 0.5 and compatible_iob)
                else compatible
            )
            name, domains, _iob = choices[rng.randrange(len(choices))]
            positions = [j for j, d in enumerate(domains) if d == center_domain]
            pos = positions[rng.randrange(len(positions))]
            args = [
                center if j == pos else fresh_var() for j in range(len(domains))
            ]
            atoms.append(Atom(name, tuple(args)))

    if len(atoms) != subgoal_count:
        return None
    kinds = {BUILTIN_SCHEMA[a.predicate].kind for a in atoms}
    if kinds != {PredicateKind.EOB, PredicateKind.IOB}:
        return None  # queries must mix extensional and intensional subgoals
    atoms = _inject_constant(atoms, const_pools, rng, constant_probability)
    head_vars: dict[str, None] = {}
    for a in atoms:
        for v in a.variables:
            head_vars.setdefault(v, None)
    head = Atom(query_name, tuple(Term.var(v) for v in head_vars))
    return Query(head, tuple(atoms))


def generate_synthetic(config: SynthConfig) -> tuple[OntologyBase, list[Query]]:
    """A seeded random base plus its chain and star query workload."""
    rng = random.Random(config.seed)
    base = OntologyBase.from_facts(_generate_facts(config, rng))

    pool = _predicate_pool(base)
    const_pools = _constant_pools(base)
    queries: list[Query] = []
    want = [("chain", config.chain_queries), ("star", config.star_queries)]
    for shape_name, count in want:
        made = 0
        attempts = 0
        while made < count and attempts < 200 * max(1, count):
            attempts += 1
            q = _build_query(
                shape_name, config.query_subgoals, pool, const_pools,
                config.constant_probability, rng, f"q{len(queries)}",
            )
            if q is not None:
                queries.append(q)
                made += 1
        if made < count:
            raise SynthError(
                f"could not build {count} {shape_name} queries; the base "
                f"has too few populated predicate domains"
            )
    return base, queries
