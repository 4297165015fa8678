import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from dobquery import (
    Atom,
    NonGroundFactError,
    OntologyBase,
    SchemaError,
    Term,
    parse_atom,
)
from conftest import match_eob, random_base


def test_assert_and_match_single_fact():
    base = OntologyBase().assert_fact(parse_atom("isClass(vehicle,carsOnt)"))
    got = match_eob(base, parse_atom("isClass(C,O)"))
    assert [str(a) for a in got] == ["isClass(vehicle,carsOnt)"]


def test_duplicate_assertion_is_idempotent():
    base = OntologyBase()
    fact = parse_atom("isClass(vehicle,carsOnt)")
    base.assert_fact(fact).assert_fact(fact)
    assert len(base) == 1


def test_assert_rejects_non_ground():
    with pytest.raises(NonGroundFactError):
        OntologyBase().assert_fact(parse_atom("isClass(X,carsOnt)"))


def test_assert_rejects_unknown_predicate_and_arity():
    with pytest.raises(SchemaError):
        OntologyBase().assert_fact(parse_atom("isThing(a)"))
    with pytest.raises(SchemaError):
        OntologyBase().assert_fact(parse_atom("isClass(a,b,c)"))


def test_assert_rejects_intensional_predicate():
    with pytest.raises(SchemaError):
        OntologyBase().assert_fact(parse_atom("areClasses(a,b)"))


def test_match_examples_on_cars_base(cars_base):
    got = match_eob(cars_base, parse_atom("isDProperty(traction,C)"))
    assert [str(a) for a in got] == ["isDProperty(traction,suv)"]

    got = match_eob(cars_base, parse_atom("subClassOf(C1,C2)"))
    assert [str(a) for a in got] == [
        "subClassOf(car,vehicle)",
        "subClassOf(suv,vehicle)",
    ]

    assert match_eob(cars_base, parse_atom("isClass(C,noSuchOnt)")) == []


def test_match_requires_eob_predicate(cars_base):
    with pytest.raises(SchemaError):
        match_eob(cars_base, parse_atom("areClasses(C,O)"))


def test_match_repeated_variable_requires_equal_values():
    base = OntologyBase.from_facts(
        [parse_atom("subClassOf(a,a)"), parse_atom("subClassOf(a,b)")]
    )
    got = match_eob(base, parse_atom("subClassOf(X,X)"))
    assert [str(a) for a in got] == ["subClassOf(a,a)"]


def test_insertion_order_preserved(cars_base):
    facts = list(cars_base.facts())
    assert str(facts[0]) == "isOntology(carsOnt)"
    assert str(facts[-1]) == "isIndividual(s123,suv)"
    assert len(facts) == 16


def test_index_isolation():
    base = OntologyBase()
    base.assert_fact(parse_atom("isClass(a,o)"))
    before = [str(x) for x in match_eob(base, parse_atom("isClass(C,O)"))]
    base.assert_fact(parse_atom("subClassOf(a,b)"))
    after = [str(x) for x in match_eob(base, parse_atom("isClass(C,O)"))]
    assert before == after


def _brute_force(base, pattern):
    out = []
    for fact in base.facts():
        if fact.predicate != pattern.predicate:
            continue
        env = {}
        ok = True
        for p, f in zip(pattern.args, fact.args):
            if p.is_var:
                bound = env.setdefault(p.value, f.value)
                if bound != f.value:
                    ok = False
                    break
            elif p.value != f.value:
                ok = False
                break
        if ok:
            out.append(fact)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_index_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    base = random_base(rng)
    consts = sorted({t.value for a in base.facts() for t in a.args}) or ["x"]
    for pred, arity in [
        ("isClass", 2), ("subClassOf", 2), ("isStatement", 3), ("isOntology", 1)
    ]:
        for _ in range(15):
            args = []
            var_names = ["X", "Y", "X"]  # repeats exercise unification
            for i in range(arity):
                if rng.random() < 0.5:
                    args.append(var_names[i])
                else:
                    args.append(rng.choice(consts))
            pattern = parse_atom(f"{pred}({','.join(args)})")
            got = match_eob(base, pattern)
            want = _brute_force(base, pattern)
            assert [str(a) for a in got] == [str(a) for a in want]


_ARITY = {"isOntology": 1, "subClassOf": 2, "isStatement": 3}
_CONSTS = ["a", "b", "c", "d"]
_facts = st.sampled_from(sorted(_ARITY)).flatmap(
    lambda pred: st.tuples(
        st.just(pred),
        st.lists(st.sampled_from(_CONSTS), min_size=_ARITY[pred],
                 max_size=_ARITY[pred]),
    )
)
# Variables repeat; "zz" is a constant no base holds.
_patterns = st.sampled_from(sorted(_ARITY)).flatmap(
    lambda pred: st.tuples(
        st.just(pred),
        st.lists(st.sampled_from(["X", "Y", "a", "b", "zz"]),
                 min_size=_ARITY[pred], max_size=_ARITY[pred]),
    )
)


def _atom(pred, args):
    return Atom(pred, tuple(
        Term.var(a) if a[0].isupper() else Term.const(a) for a in args
    ))


def _position_sets(arity):
    return [c for n in range(arity + 1) for c in combinations(range(arity), n)]


def _naive_probe(base, pred, positions):
    probe = {}
    for row in base.rows(pred):
        probe.setdefault(tuple(row[i] for i in positions), []).append(row)
    return probe


def _naive_match(base, pred, pattern, same):
    return [
        row for row in base.rows(pred)
        if all(c is None or row[i] == c for i, c in enumerate(pattern))
        and all(row[i] == row[j] for i, j in same)
    ]


@given(
    st.lists(_facts, max_size=25),
    st.lists(_facts, max_size=10),
    st.lists(_patterns, min_size=1, max_size=6),
)
def test_probes_match_a_naive_scan(before, after, patterns):
    early = OntologyBase.from_facts(_atom(p, a) for p, a in before)
    for pred, arity in _ARITY.items():
        for positions in _position_sets(arity):
            early.probe_index(pred, positions)
    for pred, args in after:  # each probe built above must see these rows
        early.assert_fact(_atom(pred, args))
    late = OntologyBase.from_facts(_atom(p, a) for p, a in before + after)
    for base in (early, late):
        for pred, arity in _ARITY.items():
            for positions in _position_sets(arity):
                probe = base.probe_index(pred, positions)
                want = _naive_probe(base, pred, positions)
                got = {k: rows for k, rows in probe.items() if rows}
                assert list(got.items()) == list(want.items())
        for pred, args in patterns:
            pattern, same, first = [], [], {}
            for pos, a in enumerate(args):
                if a[0].isupper():
                    pattern.append(None)
                    if a in first:
                        same.append((first[a], pos))
                    first.setdefault(a, pos)
                else:
                    cid = base.symbols.lookup(a)
                    pattern.append(-1 if cid is None else cid)
            got = base.match_rows(pred, tuple(pattern), same)
            assert got == _naive_match(base, pred, pattern, same)
            assert match_eob(base, _atom(pred, args)) == [
                base.to_atom(pred, row) for row in got
            ]
