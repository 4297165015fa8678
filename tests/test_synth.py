import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dobquery
from dobquery import SynthConfig, generate_synthetic
from dobquery.model import BUILTIN_SCHEMA, PredicateKind
from dobquery.synth import SynthError, _subclass_pairs


def test_determinism_under_seed():
    base1, queries1 = generate_synthetic(SynthConfig(seed=42))
    base2, queries2 = generate_synthetic(SynthConfig(seed=42))
    assert [str(a) for a in base1.facts()] == [str(a) for a in base2.facts()]
    assert [str(q) for q in queries1] == [str(q) for q in queries2]


def test_different_seeds_differ():
    base1, _ = generate_synthetic(SynthConfig(seed=1))
    base2, _ = generate_synthetic(SynthConfig(seed=2))
    assert [str(a) for a in base1.facts()] != [str(a) for a in base2.facts()]


def test_class_count_matches_config():
    config = SynthConfig(ontologies=1, classes_per_ontology=10, seed=42,
                         import_edges=0)
    base, _ = generate_synthetic(config)
    assert len(base.rows("isClass")) == 10


def test_fact_counts_match_config():
    config = SynthConfig(seed=9)
    base, _ = generate_synthetic(config)
    assert len(base.rows("isOntology")) == config.ontologies
    assert len(base.rows("impOntology")) == config.import_edges
    assert len(base.rows("subClassOf")) == config.subclass_edges
    assert len(base.rows("isOProperty")) == config.object_properties
    assert len(base.rows("isDProperty")) == config.datatype_properties
    assert len(base.rows("isTransitive")) == config.transitive_properties
    assert len(base.rows("isIndividual")) == config.individuals


def test_subclass_graph_is_acyclic():
    base, _ = generate_synthetic(SynthConfig(seed=5, subclass_edges=40,
                                             classes_per_ontology=10))
    edges = {}
    for row in base.rows("subClassOf"):
        edges.setdefault(row[0], []).append(row[1])
    state = {}

    def dfs(node):
        state[node] = "active"
        for nxt in edges.get(node, ()):
            if state.get(nxt) == "active":
                return False
            if nxt not in state and not dfs(nxt):
                return False
        state[node] = "done"
        return True

    assert all(dfs(n) for n in list(edges) if n not in state)


def test_query_counts_and_shapes():
    config = SynthConfig(seed=3)
    _, queries = generate_synthetic(config)
    assert len(queries) == config.chain_queries + config.star_queries
    for q in queries:
        assert len(q.body) == config.query_subgoals


def test_chain_has_exactly_two_linking_variables():
    config = SynthConfig(seed=8, constant_probability=0.0)
    _, queries = generate_synthetic(config)
    chains = queries[: config.chain_queries]
    for q in chains:
        counts = {}
        for atom in q.body:
            for v in set(atom.variables):
                counts[v] = counts.get(v, 0) + 1
        linking = [v for v, c in counts.items() if c >= 2]
        assert len(linking) == 2


def test_star_shares_central_variable():
    config = SynthConfig(seed=8, constant_probability=0.0)
    _, queries = generate_synthetic(config)
    stars = queries[config.chain_queries:]
    for q in stars:
        shared = set(q.body[0].variables)
        for atom in q.body[1:]:
            shared &= set(atom.variables)
        assert len(shared) == 1


def test_long_star_draws_distinct_fresh_variables():
    """Fresh variables are not capped: a 1,500-subgoal star needs more
    than a thousand of them, each in exactly one subgoal."""
    config = SynthConfig(query_subgoals=1500, chain_queries=0,
                         star_queries=1)
    _, queries = generate_synthetic(config)
    assert len(queries) == 1 and len(queries[0].body) == 1500
    fresh = [v for a in queries[0].body for v in a.variables if v != "X"]
    assert len(fresh) > 1000
    assert len(set(fresh)) == len(fresh)


def test_queries_mix_eob_and_iob():
    _, queries = generate_synthetic(SynthConfig(seed=12))
    for q in queries:
        kinds = {BUILTIN_SCHEMA[a.predicate].kind for a in q.body}
        assert kinds == {PredicateKind.EOB, PredicateKind.IOB}


@pytest.mark.parametrize("seed", range(5))
def test_a_base_without_individuals_draws_no_statement(seed):
    """With no individuals no statement is drawn and no query reads an
    individual; a chain link no IOB predicate takes is drawn from every
    predicate instead, and each query still mixes EOB and IOB subgoals."""
    config = SynthConfig(seed=seed, individuals=0)
    base, queries = generate_synthetic(config)
    without = {"isIndividual", "isStatement", "areIndividuals",
               "areStatements"}
    assert not without & {fact.predicate for fact in base.facts()}
    assert len(queries) == config.chain_queries + config.star_queries
    for q in queries:
        assert not without & {a.predicate for a in q.body}
        kinds = {BUILTIN_SCHEMA[a.predicate].kind for a in q.body}
        assert kinds == {PredicateKind.EOB, PredicateKind.IOB}


def test_config_validation_errors():
    with pytest.raises(SynthError):
        generate_synthetic(SynthConfig(ontologies=2, import_edges=5))
    with pytest.raises(SynthError):
        generate_synthetic(SynthConfig(individuals=-1))
    with pytest.raises(SynthError):
        generate_synthetic(SynthConfig(query_subgoals=1))
    with pytest.raises(SynthError):
        SynthConfig(constant_probability=1.5)
    with pytest.raises(SynthError):
        generate_synthetic(
            SynthConfig(classes_per_ontology=2, ontologies=1,
                        subclass_edges=100)
        )


@pytest.mark.parametrize("name", [
    "transitive_properties", "chain_queries", "star_queries",
])
def test_negative_counts_are_refused(name):
    with pytest.raises(SynthError, match=f"^{name} must be nonnegative$"):
        SynthConfig(**{name: -1})


def test_config_json_roundtrip():
    config = SynthConfig(seed=77, statements=12)
    assert SynthConfig.from_json(config.to_json()) == config
    with pytest.raises(SynthError):
        SynthConfig.from_json('{"bogus_field": 1}')


@pytest.mark.parametrize("seed", range(40))
def test_subclass_pairs_by_index_match_the_pair_list(seed):
    """Pair i is the i-th pair of the full list, and sampling indices
    draws the pairs, and leaves the random stream, as sampling the list
    does: small draws from large lists and near-complete draws both."""
    rng = random.Random(seed)
    classes = [f"c{i}_{j}" for i in range(rng.randint(1, 6))
               for j in range(rng.randint(1, 12))]
    depth = rng.randint(0, 4)
    level = {c: rng.randint(0, depth) for c in classes}
    reference = [
        (a, b) for a in classes for b in classes if level[a] > level[b]
    ]
    n_pairs, pair = _subclass_pairs(classes, level, depth)
    assert n_pairs == len(reference)
    assert [pair(i) for i in range(n_pairs)] == reference
    for k in {0, min(3, n_pairs), n_pairs // 2, n_pairs}:
        by_index, by_list = random.Random(k), random.Random(k)
        drawn = by_index.sample(range(n_pairs), k)
        assert [pair(i) for i in drawn] == by_list.sample(reference, k)
        assert by_index.random() == by_list.random()


@pytest.mark.parametrize("ontologies, edges", [(2, 1), (7, 5), (12, 66)])
def test_import_edges_are_those_of_sampling_the_pair_list(ontologies, edges):
    """Import edges are drawn first, as a sample of the i-major list of
    ontology pairs (i, j), j < i, would draw them."""
    config = SynthConfig(ontologies=ontologies, import_edges=edges, seed=5)
    base, _ = generate_synthetic(config)
    pairs = [(f"ont{i}", f"ont{j}") for i in range(ontologies)
             for j in range(i)]
    want = sorted(random.Random(5).sample(pairs, edges))
    got = [tuple(map(base.symbols.text, row))
           for row in base.rows("impOntology")]
    assert got == want


def test_import_edges_are_drawn_without_listing_every_pair():
    """2,000 ontologies have 1,999,000 pairs; drawing 2,000 import edges
    from them allocates a few MB, not a list of every pair."""
    config = SynthConfig(ontologies=2000, classes_per_ontology=1,
                         import_edges=2000, seed=3)
    tracemalloc.start()
    try:
        base, _ = generate_synthetic(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(base.rows("impOntology")) == 2000
    assert peak < 20_000_000


_CORPUS_DIGEST = """
import hashlib
from dobquery import SynthConfig, generate_synthetic, render_dob
digest = hashlib.sha256()
for seed in range(4):
    for config in (
        SynthConfig(seed=seed, star_queries=6),
        SynthConfig(seed=seed, chain_queries=0, star_queries=4,
                    query_subgoals=5, datatype_properties=0),
        SynthConfig(seed=seed, chain_queries=0, star_queries=3,
                    individuals=0, statements=0),
    ):
        base, queries = generate_synthetic(config)
        digest.update(render_dob(base.facts()).encode())
        digest.update("".join(f"{q}\\n" for q in queries).encode())
print(digest.hexdigest())
"""


def test_corpora_do_not_depend_on_string_hashing():
    """Star queries draw their center domain from an ordered list, so a
    corpus is the same under every `PYTHONHASHSEED`."""
    src = str(Path(dobquery.__file__).resolve().parent.parent)
    digests = []
    for hash_seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _CORPUS_DIGEST], env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        digests.append(proc.stdout)
    assert len(digests[0]) == 65
    assert digests[0] == digests[1]
