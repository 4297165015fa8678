import random
from pathlib import Path

import pytest
from hypothesis import settings

from dobquery import OntologyBase, build_exact_catalog, parse_atom, parse_dob

DATA_DIR = Path(__file__).parent / "data"


def load_cars_base() -> OntologyBase:
    text = (DATA_DIR / "cars.dob").read_text(encoding="utf-8")
    return OntologyBase.from_facts(parse_dob(text))


@pytest.fixture(scope="session")
def cars_base() -> OntologyBase:
    return load_cars_base()


@pytest.fixture(scope="session")
def cars_exact_catalog(cars_base):
    return build_exact_catalog(cars_base)


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


# Property tests draw the same examples on every run and stay within the
# tier-1 time budget.
settings.register_profile(
    "tier1", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("tier1")
