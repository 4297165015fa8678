"""Digests of the catalogs, synthetic corpora and experiment CSVs, so that
a refactor of the analyzer, the generator or the evaluation can be checked
byte for byte.

Each pin is the SHA-256 of a text: a catalog's `catalog_to_text`, a
synthetic corpus's `render_dob` output followed by one line per query, or
a correlate or ratio CSV. The `analyze/` pins
cover the benchmark's cold start on its three bases: the catalog of the
base read back from its `render_dob` text. The `csv/` pins run both
experiments on the two scale-1 corpora, as `dobq bench` runs a corpus of
two replicas, with the nested-loop strategy alone and with all three.
Run this file as a script to print fresh pins.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from conftest import load_cars_base, random_base

from dobquery import (
    JoinMethod,
    JoinStrategy,
    OntologyBase,
    SamplingConfig,
    SynthConfig,
    build_catalog,
    build_exact_catalog,
    default_strategies,
    generate_synthetic,
    parse_dob,
    render_dob,
    run_correlation,
    run_ratio,
)
from dobquery.bench import write_correlation_csv, write_ratio_csv
from dobquery.stats import catalog_to_text

PINS = Path(__file__).parent / "data" / "catalog_pins.json"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _catalog_digest(catalog) -> str:
    return _digest(catalog_to_text(catalog))


def _scaled(scale, seed, chain=0, star=0, subgoals=3) -> SynthConfig:
    """The default generator settings with every population times `scale`."""
    d = SynthConfig()
    return SynthConfig(
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


def _bases():
    yield "cars", load_cars_base()
    yield "empty", OntologyBase()
    for seed in range(20):
        yield f"random{seed}", random_base(random.Random(seed))


def _csv_digests():
    """The correlate and ratio CSVs of the scale-1 corpora, per strategy
    set, under the default sampling settings."""
    corpora = [generate_synthetic(_scaled(1, 0, 1, 1, n)) for n in (3, 4)]
    bases = [base for base, _ in corpora]
    queries = [qs for _, qs in corpora]
    catalogs = [build_catalog(base, SamplingConfig()) for base in bases]
    strategy_sets = {
        "nlj": (JoinStrategy(JoinMethod.NESTED_LOOP),),
        "all": default_strategies(),
    }
    experiments = {
        "correlate": (run_correlation, write_correlation_csv),
        "ratio": (run_ratio, write_ratio_csv),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        for label, strategies in strategy_sets.items():
            for mode, (run, write) in experiments.items():
                report = run(bases, queries, SamplingConfig(), strategies,
                             catalogs=catalogs)
                write(report, path)
                yield (f"csv/{mode}/{label}",
                       hashlib.sha256(path.read_bytes()).hexdigest())


# The three bases of the benchmark's analyze workload.
_ANALYZE = [(f"s{scale}/seed{i}", _scaled(scale, i))
            for i, scale in enumerate((25, 37, 50))]


def _synth_configs():
    """The corpora of the benchmark's workloads: scale 1 and 4 with their
    chain and star queries, and the three analyze bases."""
    for n in (3, 4):
        yield f"s1/q{n}", _scaled(1, 0, 1, 1, n)
    for n in (3, 4, 5, 6, 7):
        yield f"s4/q{n}", _scaled(4, 0, 10, 10, n)
    yield "s4/experiment", _scaled(4, 0, 3, 3, 4)
    yield from _ANALYZE


def current_pins() -> dict[str, str]:
    pins = {}
    for name, base in _bases():
        pins[f"catalog/{name}"] = _catalog_digest(
            build_catalog(base, SamplingConfig())
        )
        pins[f"exact/{name}"] = _catalog_digest(build_exact_catalog(base))
    for name, config in _synth_configs():
        base, queries = generate_synthetic(config)
        text = render_dob(base.facts()) + "".join(f"{q}\n" for q in queries)
        pins[f"synth/{name}"] = _digest(text)
    for name, config in _ANALYZE:
        base, _ = generate_synthetic(config)
        loaded = OntologyBase.from_facts(parse_dob(render_dob(base.facts())))
        pins[f"analyze/{name}"] = _catalog_digest(
            build_catalog(loaded, SamplingConfig())
        )
    pins.update(_csv_digests())
    return pins


def test_catalogs_and_corpora_match_their_pins():
    assert current_pins() == json.loads(PINS.read_text())


if __name__ == "__main__":
    json.dump(current_pins(), sys.stdout, indent=1, sort_keys=True)
    print()
