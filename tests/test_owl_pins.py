"""The OWL reader's outcomes pinned on a corpus of documents.

For each document the pin is either the ordered fact list that
`translate_documents` gives, or the error: its class, its full text and
its location. The corpus is built here from fixed seeds:

  * hand-written cases: every construct keyword in valid and malformed
    forms, every unsupported construct at every place one may stand,
    comments, blank lines and keyword case;
  * seeded mutations of random valid documents: a character dropped or
    inserted, or the case of a character or a word changed;
  * batches of documents translated together: a domain in one document
    and a range in another, one name declared as both an object and a
    datatype property, the same fact from two documents, and random
    batches over a small pool of names.

Run this file as a script to record fresh pins.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from dobquery import DobError, parse_owl, translate_documents

DATA_DIR = Path(__file__).parent / "data"
PINS = DATA_DIR / "owl_pins.json"

MUTATION_SEEDS = range(3000)
BATCH_SEEDS = range(400)

UNSUPPORTED = (
    "complementOf", "unionOf", "intersectionOf", "oneOf",
    "equivalentClasses", "equivalentProperties", "AllDifferent",
    "cardinality", "minCardinality", "maxCardinality", "someValuesFrom",
    "Datatype",
)

HAND_DOCS = [
    # headers and imports
    "",
    "Ontology(o)",
    "ontology ( o )",
    "ONTOLOGY(ns:o.v-1)",
    "Ontology(o)\nOntology(p)",
    "Ontology(o",
    "Ontology o",
    "Ontology()",
    "Ontology(o) x",
    "Ontology('o')",
    "Ontology(1o)",
    "Ontology(_o)",
    "Class(c)",
    "imports o\nOntology(p)",
    "Ontology(o)\nimports p\nIMPORTS q\nimports p",
    "Ontology(o)\nimports",
    "Ontology(o)\nimports (p)",
    "Ontology(o)\nimports p q",
    "% comment\n\n  Ontology(o)  % trailing\n\t\n",
    "Ontology(o) % x (\nimports p%q",
    "Ontology(o)\n% Class(\n",
    "Ontology(o)\r\nClass(c)\r\n",
    "Ontology(o)\nClass(c) Class(d)",
    "Ontology(o)\nClass( c　)",
    "Ontology(o)\nClass(c\x1f)",
    "Ontology(o)\nClass(cé)",
    "Ontology(o)\nClass(c,d)",
    "Ontology(o)\nClass(c.d)",
    "Ontology(o)\nClass(c-)",
    "Ontology(o)\nClass(-c)",
    "Ontology(o)\nClass(c) )",
    "Ontology(o)\n(",
    "Ontology(o)\n)",
    "Ontology(o)\n-",
    # classes
    "Ontology(o)\nClass(c)\nClass (d partial c)\nclass(e PARTIAL c d Thing)",
    "Ontology(o)\nClass(c partial owl:Thing Thing thing)",
    "Ontology(o)\nClass(c partial)",
    "Ontology(o)\nClass(c partial c)",
    "Ontology(o)\nClass(c partial d d)\nClass(c partial d)",
    "Ontology(o)\nClass(c Partial restriction(p allValuesFrom(d)) e)",
    "Ontology(o)\nClass(c partial Restriction(p AllValuesFrom(d))"
    " RESTRICTION(q allvaluesfrom(e)))",
    "Ontology(o)\nClass(c partial restriction(p allValuesFrom(d)))\n"
    "Class(c partial restriction(p allValuesFrom(d)))",
    "Ontology(o)\nClass",
    "Ontology(o)\nClass c",
    "Ontology(o)\nClass()",
    "Ontology(o)\nClass(c",
    "Ontology(o)\nClass(c d)",
    "Ontology(o)\nClass(c ()",
    "Ontology(o)\nClass(c partial (d))",
    "Ontology(o)\nClass(c partial d",
    "Ontology(o)\nClass(c partial d) e",
    "Ontology(o)\nClass(c partial restriction)",
    "Ontology(o)\nClass(c partial restriction(p))",
    "Ontology(o)\nClass(c partial restriction(p d))",
    "Ontology(o)\nClass(c partial restriction(p allValuesFrom d))",
    "Ontology(o)\nClass(c partial restriction(p allValuesFrom()))",
    "Ontology(o)\nClass(c partial restriction(p allValuesFrom(d e)))",
    "Ontology(o)\nClass(c partial restriction(p allValuesFrom(d))",
    "Ontology(o)\nClass(c partial restriction((p allValuesFrom(d)))",
    "Ontology(o)\nClass(c partial restriction(p (d)))",
    # object properties
    "Ontology(o)\nObjectProperty(p)\nObjectProperty(p domain(c))\n"
    "objectproperty(p RANGE(d))\nObjectProperty(q range(d))",
    "Ontology(o)\nObjectProperty(p domain(c))\nObjectProperty(p domain(c))",
    "Ontology(o)\nObjectProperty(p range(c))\nObjectProperty(p range(d))",
    "Ontology(o)\nObjectProperty(p Transitive)\nObjectProperty(p)",
    "Ontology(o)\nObjectProperty(p transitive)\nObjectProperty(p TRANSITIVE)",
    "Ontology(o)\nObjectProperty(p domain(Thing))",
    "Ontology(o)\nObjectProperty(p domain(owl:Thing) range(c))",
    "Ontology(o)\nObjectProperty(p domain(c)",
    "Ontology(o)\nObjectProperty(p domain c)",
    "Ontology(o)\nObjectProperty(p domain())",
    "Ontology(o)\nObjectProperty(p domain(c d))",
    "Ontology(o)\nObjectProperty(p Transitive x)",
    "Ontology(o)\nObjectProperty(p ()",
    "Ontology(o)\nObjectProperty(p",
    "Ontology(o)\nObjectProperty p",
    "Ontology(o)\nObjectProperty()",
    "Ontology(o)\nObjectProperty(p inverseOf(q))",
    "Ontology(o)\nObjectProperty(p) x",
    # datatype properties
    "Ontology(o)\nDatatypeProperty(d)\nDataProperty(d domain(c))\n"
    "datatypeproperty(e DOMAIN(c))\nDATAPROPERTY(e)",
    "Ontology(o)\nDataProperty(d domain(c))\nDataProperty(d domain(c))",
    "Ontology(o)\nDataProperty(d domain(c))\nDatatypeProperty(d domain(e))",
    "Ontology(o)\nDataProperty(d range(c))",
    "Ontology(o)\nDataProperty(d range(c)\n",
    "Ontology(o)\nDataProperty(d Transitive)\nDataProperty(d Transitive)",
    "Ontology(o)\nDataProperty(d domain(c) range(e))",
    "Ontology(o)\nDataProperty(d domain(c)",
    "Ontology(o)\nDataProperty(d domain)",
    "Ontology(o)\nDataProperty(d)\nDataProperty(d domain(c))",
    "Ontology(o)\nDataProperty(d domain(c))\nDataProperty(d)",
    "Ontology(o)\nDatatypeProperty",
    "Ontology(o)\nDatatypeProperty(d x)",
    "Ontology(o)\nDataProperty(d (c))",
    # a name declared as both kinds of property
    "Ontology(o)\nObjectProperty(p domain(c))\nDataProperty(p domain(d))",
    "Ontology(o)\nDataProperty(p domain(d))\nObjectProperty(p domain(c))\n"
    "ObjectProperty(p range(e))",
    "Ontology(o)\nDataProperty(p)\nObjectProperty(p)\nDataProperty(q)\n"
    "ObjectProperty(q)",
    "Ontology(o)\nObjectProperty(p range(c))\nDataProperty(p range(c))",
    # transitive properties
    "Ontology(o)\nProperty(p Transitive)\nproperty(p transitive)",
    "Ontology(o)\nProperty(p)",
    "Ontology(o)\nProperty(p domain(c))",
    "Ontology(o)\nProperty(p Transitive",
    "Ontology(o)\nProperty(p Transitive) x",
    "Ontology(o)\nProperty(p ())",
    "Ontology(o)\nProperty p",
    # individuals
    "Ontology(o)\nIndividual(i)\nindividual(j type(c) TYPE(d) value(p v))",
    "Ontology(o)\nIndividual(o value(owl:imports q))\n"
    "Individual(o Value(owl:imports q))",
    "Ontology(o)\nIndividual(i value(imports q) value(p i))",
    "Ontology(o)\nIndividual(i type(c)\n",
    "Ontology(o)\nIndividual(i type c)",
    "Ontology(o)\nIndividual(i type())",
    "Ontology(o)\nIndividual(i type(c d))",
    "Ontology(o)\nIndividual(i value(p))",
    "Ontology(o)\nIndividual(i value(p v w))",
    "Ontology(o)\nIndividual(i value p v)",
    "Ontology(o)\nIndividual(i (c))",
    "Ontology(o)\nIndividual(i sameAs(j))",
    "Ontology(o)\nIndividual(i type(c)) x",
    "Ontology(o)\nIndividual",
    "Ontology(o)\nIndividual()",
    # top level
    "Ontology(o)\nDisjointClasses(a b)",
    "Ontology(o)\nfoo",
    "Ontology(o)\nClassX(c)",
    "Ontology(o)\n_x",
]

# Every unsupported construct at each place where one is refused.
UNSUPPORTED_SITES = (
    "{w}(c d)",
    "Class(c {w}(d))",
    "Class(c partial {w}(d))",
    "Class(c partial restriction(p {w}(d)))",
    "ObjectProperty(p {w}(d))",
    "DataProperty(p {w}(d))",
    "Individual(i {w}(d))",
    "Property(p {w})",
)
for _site in UNSUPPORTED_SITES:
    for _word in UNSUPPORTED:
        for _form in (_word, _word.upper(), _word.lower()):
            HAND_DOCS.append("Ontology(o)\n" + _site.format(w=_form))


NAMES = ("a", "b", "c", "p", "q", "d1", "x_y", "n-1", "ns:c.d", "Thing")


def _class_line(rng: random.Random) -> str:
    name = rng.choice(NAMES)
    if rng.random() < 0.25:
        return f"Class({name})"
    parts = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.3:
            parts.append(
                f"restriction({rng.choice(NAMES)} "
                f"allValuesFrom({rng.choice(NAMES)}))"
            )
        else:
            parts.append(rng.choice(NAMES + ("owl:Thing",)))
    return f"Class ({name} partial {' '.join(parts)})".replace(" )", ")")


def _property_line(rng: random.Random) -> str:
    kw = rng.choice(("ObjectProperty", "DatatypeProperty", "DataProperty"))
    name = rng.choice(NAMES)
    clause = rng.choice(("", "domain", "range", "Transitive"))
    if kw != "ObjectProperty" and clause == "range":
        clause = "domain"
    if clause == "":
        return f"{kw}({name})"
    if clause == "Transitive":
        return f"{kw}({name} Transitive)"
    return f"{kw}({name} {clause}({rng.choice(NAMES)}))"


def _individual_line(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            parts.append(f"type({rng.choice(NAMES)})")
        else:
            prop = rng.choice(NAMES + ("owl:imports",))
            parts.append(f"value({prop} {rng.choice(NAMES)})")
    return f"Individual({rng.choice(NAMES)} {' '.join(parts)})".replace(
        " )", ")"
    )


def _line(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return _class_line(rng)
    if r < 0.55:
        return _property_line(rng)
    if r < 0.75:
        return _individual_line(rng)
    if r < 0.82:
        return f"Property({rng.choice(NAMES)} Transitive)"
    if r < 0.9:
        return f"imports {rng.choice(NAMES)}"
    if r < 0.95:
        return "% a comment (with parens)"
    return ""


def valid_document(rng: random.Random) -> str:
    """A random document that may still refuse a repeated domain or
    range, over a pool of names small enough for merges to happen."""
    lines = [f"Ontology({rng.choice(NAMES[:4])})"]
    lines += [_line(rng) for _ in range(rng.randint(0, 8))]
    if rng.random() < 0.2:
        lines = [f"  {line}\t% trailing" for line in lines]
    return "\n".join(lines) + "\n"


_INSERTS = "()() ,.%_:-'aZ09\t é\n"


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        i = rng.randrange(len(text))
        how = rng.randrange(4)
        if how == 0:  # drop a character
            text = text[:i] + text[i + 1 :]
        elif how == 1:  # insert a character
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif how == 2:  # change the case of a character
            text = text[:i] + text[i].swapcase() + text[i + 1 :]
        else:  # change the case of the word around i
            j, k = i, i
            while j > 0 and text[j - 1].isalpha():
                j -= 1
            while k < len(text) and text[k].isalpha():
                k += 1
            word = rng.choice((str.upper, str.lower, str.title))(text[j:k])
            text = text[:j] + word + text[k:]
    return text


BATCH_DOCS = [
    ["Ontology(a)\nObjectProperty(p domain(c))",
     "Ontology(b)\nObjectProperty(p range(d))"],
    ["Ontology(a)\nObjectProperty(p range(d))",
     "Ontology(b)\nObjectProperty(p domain(c))\nObjectProperty(p range(e))"],
    ["Ontology(a)\nObjectProperty(p domain(c))",
     "Ontology(b)\nObjectProperty(p domain(e))"],
    ["Ontology(a)\nDataProperty(d)", "Ontology(b)\nDataProperty(d domain(c))"],
    ["Ontology(a)\nDataProperty(d domain(c))",
     "Ontology(b)\nDataProperty(d domain(e))\nDataProperty(d)"],
    ["Ontology(a)\nObjectProperty(p domain(c))",
     "Ontology(b)\nDataProperty(p domain(d))"],
    ["Ontology(a)\nDataProperty(p)\nDataProperty(q domain(c))",
     "Ontology(b)\nObjectProperty(q)\nObjectProperty(p range(c))"],
    ["Ontology(a)\nClass(c partial d)\nIndividual(i type(c))",
     "Ontology(a)\nClass(c partial d)\nIndividual(i type(c))\nimports a"],
    ["Ontology(a)\nimports b\nIndividual(a value(owl:imports b))",
     "Ontology(b)\nProperty(t Transitive)",
     "Ontology(c)\nObjectProperty(t Transitive)\nProperty(t Transitive)"],
    ["Ontology(a)\nClass(c)", "Ontology(b)\nClass(c)"],
    ["Ontology(a)\nClass(c)", "Ontology(b)\nClass(c complementOf(d))"],
    ["Ontology(a)", "Class(c)"],
    [],
]


def outcome(texts) -> dict:
    """The facts of a batch of documents, or the first error."""
    try:
        docs = [parse_owl(t, f"d{i}.owl") for i, t in enumerate(texts)]
        return {"facts": [str(f) for f in translate_documents(docs)]}
    except DobError as exc:
        loc = getattr(exc, "location", None)
        return {"error": [type(exc).__name__, str(exc), str(loc)]}


def hand_outcomes() -> list:
    return [outcome([text]) for text in HAND_DOCS]


def cars_outcome() -> dict:
    return outcome([
        (DATA_DIR / name).read_text(encoding="utf-8")
        for name in ("carsOnt.owl", "source1.owl", "source2.owl")
    ])


def mutation_outcome(seed: int) -> dict:
    rng = random.Random(seed)
    text = valid_document(rng)
    if seed % 10:
        text = mutate(rng, text)
    return outcome([text])


def batch_outcomes() -> list:
    out = [outcome(texts) for texts in BATCH_DOCS]
    for seed in BATCH_SEEDS:
        rng = random.Random(10_000 + seed)
        out.append(outcome(
            [valid_document(rng) for _ in range(rng.randint(2, 4))]
        ))
    return out


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_hand_written_documents_match_pins(pins):
    assert len(HAND_DOCS) == len(pins["hand"])
    for text, got, want in zip(HAND_DOCS, hand_outcomes(), pins["hand"]):
        assert got == want, text


def test_cars_documents_match_pins(pins):
    assert cars_outcome() == pins["cars"]


@pytest.mark.parametrize("chunk", range(0, len(MUTATION_SEEDS), 1000))
def test_mutated_documents_match_pins(pins, chunk):
    for seed in MUTATION_SEEDS[chunk : chunk + 1000]:
        assert mutation_outcome(seed) == pins["mutations"][str(seed)], seed


def test_document_batches_match_pins(pins):
    assert batch_outcomes() == pins["batches"]


def _lines(items) -> str:
    return ",\n".join(f"  {json.dumps(item)}" for item in items)


if __name__ == "__main__":
    mutations = ",\n".join(
        f"  {json.dumps(str(s))}: {json.dumps(mutation_outcome(s))}"
        for s in MUTATION_SEEDS
    )
    sys.stdout.write(
        "{\n"
        f' "batches": [\n{_lines(batch_outcomes())}\n ],\n'
        f' "cars": {json.dumps(cars_outcome())},\n'
        f' "hand": [\n{_lines(hand_outcomes())}\n ],\n'
        f' "mutations": {{\n{mutations}\n }}\n'
        "}\n"
    )
