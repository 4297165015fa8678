import json
import sys
from pathlib import Path

import pytest

from dobquery import SynthConfig, generate_synthetic, render_dob, save_catalog
from dobquery.cli import cli_main
from dobquery.optimizer import MAX_OPTIMIZE_SUBGOALS
from conftest import SERVE_Q17, STAR_400

DATA = Path(__file__).parent / "data"


def run(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate_cars(tmp_path, capsys):
    out = tmp_path / "cars.dob"
    code, _, err = run(
        capsys,
        "translate",
        str(DATA / "carsOnt.owl"),
        str(DATA / "source1.owl"),
        str(DATA / "source2.owl"),
        "-o",
        str(out),
    )
    assert code == 0
    golden = {
        line for line in (DATA / "cars.dob").read_text().splitlines()
        if line and not line.startswith("%")
    }
    assert set(out.read_text().splitlines()) == golden


@pytest.fixture()
def workspace(tmp_path, capsys):
    dob = tmp_path / "cars.dob"
    dob.write_text((DATA / "cars.dob").read_text())
    catalog = tmp_path / "cars.cat"
    code = cli_main(
        ["analyze", str(dob), "--seed", "42", "-o", str(catalog)]
    )
    capsys.readouterr()
    assert code == 0
    return dob, catalog


def test_analyze_writes_loadable_catalog(workspace):
    from dobquery import load_catalog

    _dob, catalog = workspace
    loaded = load_catalog(catalog)
    assert len(loaded.entries) == 15
    assert loaded.config.seed == 42


def test_analyze_twice_writes_the_same_bytes(workspace, capsys):
    dob, catalog = workspace
    again = catalog.with_name("again.cat")
    code, _, _ = run(
        capsys, "analyze", str(dob), "--seed", "42", "-o", str(again)
    )
    assert code == 0
    assert again.read_bytes() == catalog.read_bytes()


def test_query_returns_three_answers(workspace, capsys):
    dob, catalog = workspace
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(O):-areClasses(C,O),isDProperty(traction,C).",
    )
    assert code == 0
    assert out.splitlines() == ["q(carsOnt)", "q(source1)", "q(source2)"]
    assert "answers: 3" in err


def test_query_explain_prints_plan(workspace, capsys):
    dob, catalog = workspace
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(O):-areClasses(C,O),isDProperty(traction,C).",
        "--explain",
    )
    assert code == 0
    assert "isDProperty(traction,C)" in err
    assert "cost=" in err


def test_query_explain_header_is_the_folded_estimate(workspace, capsys):
    # --no-optimize folds the written ordering on the catalog
    dob, catalog = workspace
    code, _, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(O):-areClasses(C,O),isDProperty(traction,C).",
        "--no-optimize", "--strategy", "nlj", "--explain",
    )
    assert code == 0
    assert err.splitlines()[:3] == [
        "plan for q(O)  (cost=50.000, card=3.000)",
        "  1. areClasses(C,O)  [cost=44.000, card=12.000]",
        "  2. isDProperty(traction,C)  via nlj  [cost=50.000, card=3.000]",
    ]


def test_query_no_optimize_keeps_written_order(workspace, capsys):
    dob, catalog = workspace
    answers = {}
    costs = {}
    for text, key in [
        ("q(O):-areClasses(C,O),isDProperty(traction,C).", "q"),
        ("q(O):-isDProperty(traction,C),areClasses(C,O).", "q_prime"),
    ]:
        code, out, err = run(
            capsys,
            "query", str(dob), "--catalog", str(catalog),
            "-q", text, "--no-optimize", "--strategy", "nlj",
        )
        assert code == 0
        answers[key] = out.splitlines()
        costs[key] = int(err.rsplit("actual cost: ", 1)[1])
    assert answers["q"] == answers["q_prime"]
    assert costs["q"] > costs["q_prime"]  # written orderings really ran


def test_query_no_optimize_costs_only_the_written_order(workspace, capsys):
    # 7 subgoals: past the 6-subgoal cap on enumerating every ordering
    dob, catalog = workspace
    text = (
        "q(O):-isDProperty(traction,C),areClasses(C,O),isClass(C,P),"
        "isOntology(O),isOntology(P),areImpOntologies(O,P),"
        "areSubClasses(C,D)."
    )
    answers = {}
    for flags in (["--no-optimize"], []):
        code, out, err = run(
            capsys,
            "query", str(dob), "--catalog", str(catalog), "-q", text,
            "--strategy", "auto", "--explain", *flags,
        )
        assert code == 0, err
        answers[bool(flags)] = sorted(out.splitlines())
    assert answers[True] == answers[False]
    assert answers[True] == ["q(source1)", "q(source2)"]


@pytest.mark.parametrize("strategy", ["nlj", "hash", "auto"])
def test_query_strategy_flag(workspace, capsys, strategy):
    dob, catalog = workspace
    code, out, _ = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(O):-areClasses(C,O),isDProperty(traction,C).",
        "--strategy", strategy,
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_usage_error_exit_code(capsys):
    assert cli_main([]) == 1
    capsys.readouterr()
    assert cli_main(["query"]) == 1
    capsys.readouterr()


def test_data_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.dob"
    code, _, err = run(capsys, "analyze", str(missing), "-o", str(tmp_path / "c"))
    assert code == 2

    bad = tmp_path / "bad.dob"
    bad.write_text("isClass(X,carsOnt).\n")
    code, _, err = run(capsys, "analyze", str(bad), "-o", str(tmp_path / "c"))
    assert code == 2
    assert "variable in fact" in err


def test_intensional_fact_in_a_dob_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.dob"
    bad.write_text("isOntology(o).\nareClasses(c,o).\n")
    code, out, err = run(
        capsys, "analyze", str(bad), "-o", str(tmp_path / "c")
    )
    assert code == 2
    assert out == ""
    assert f"{bad}:2:1: cannot assert intensional fact: areClasses(c,o)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c").exists()


def test_empty_quoted_constant_is_a_data_error(workspace, tmp_path, capsys):
    """`''` in a fact file or a query is refused at its location with
    exit 2, not a traceback."""
    dob, catalog = workspace
    bad = tmp_path / "bad.dob"
    bad.write_text("isOntology(o).\nisOntology('').\n")
    code, out, err = run(capsys, "analyze", str(bad), "-o", str(tmp_path / "c"))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}:2:12: empty quoted constant\n"
    assert not (tmp_path / "c").exists()
    code, out, err = run(
        capsys, "query", str(dob), "--catalog", str(catalog),
        "-q", "q(X):-isClass(X,'').",
    )
    assert (code, out) == (2, "")
    assert err == "error: <string>:1:17: empty quoted constant\n"


@pytest.mark.parametrize("header, detail", [
    ("# config d=0.2", "config is missing p, k, seed"),
    ("# config d=0.2 p=x k=7 seed=0", "could not convert string to float"),
    ("# config d=0.2 p=0.7 k=7 seed", "config field without '='"),
    # a setting out of range is refused as when it is made
    ("# config d=0 p=0.7 k=7 seed=0",
     "relative error d must be positive and finite: 0.0"),
    ("# config d=0.2 p=1 k=7 seed=0", "confidence p must lie in [0, 1): 1.0"),
    ("# config d=0.2 p=0.7 k=0 seed=0",
     "first-stage sample count must be >= 1: 0"),
    ("# config d=0.2 p=0.7 k=7 seed=0 mmax=0",
     "sample cap m_max must be >= 1: 0"),
])
def test_bad_catalog_header_is_data_error(workspace, capsys, header, detail):
    dob, catalog = workspace
    lines = catalog.read_text().splitlines()
    assert lines[1].startswith("# config ")
    lines[1] = header
    catalog.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C):-areClasses(C,carsOnt).",
    )
    assert code == 2
    assert f"catalog line 2: {detail}" in err
    assert "Traceback" not in err


def test_incomplete_catalog_is_data_error(workspace, capsys):
    dob, catalog = workspace
    lines = catalog.read_text().splitlines()
    catalog.write_text("\n".join(
        ln for ln in lines if ln.startswith(("#", "isClass "))
    ) + "\n")
    code, _, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C):-areClasses(C,carsOnt).",
    )
    assert code == 2
    assert "catalog has no entry for isOntology," in err
    assert "areClasses" in err


def test_catalog_missing_a_pattern_row_is_data_error(workspace, capsys):
    dob, catalog = workspace
    lines = catalog.read_text().splitlines()
    kept = [ln for ln in lines if not ln.startswith("areClasses | IOB | bf ")]
    assert len(kept) == len(lines) - 1
    catalog.write_text("\n".join(kept) + "\n")
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C):-areClasses(C,carsOnt).",
    )
    assert code == 2
    assert out == ""
    assert err == "error: catalog is missing patterns for areClasses: bf\n"


def test_query_parse_error_is_data_error(workspace, capsys):
    dob, catalog = workspace
    code, _, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(Z):-isClass(C,O).",
    )
    assert code == 2
    assert "unsafe" in err


def test_gen_and_bench_pipeline(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "ontologies": 2, "classes_per_ontology": 5, "subclass_edges": 6,
        "object_properties": 2, "datatype_properties": 2,
        "transitive_properties": 1, "individuals": 10, "statements": 12,
        "import_edges": 1, "seed": 5,
    }))
    corpus = tmp_path / "corpus"
    code, _, err = run(
        capsys, "gen", str(config), "-o", str(corpus), "--replicas", "2"
    )
    assert code == 0
    assert (corpus / "rep000" / "base.dob").exists()
    assert (corpus / "rep001" / "queries.dq").exists()

    report = tmp_path / "corr.csv"
    code, _, err = run(
        capsys, "bench", "correlate", str(corpus), "-o", str(report)
    )
    assert code == 0
    assert "correlation" in err
    lines = report.read_text().strip().splitlines()
    assert lines[0].startswith("base,query")
    assert len(lines) == 1 + 2 * 6 * 6  # 2 replicas x 6 queries x 3! orderings

    ratio_report = tmp_path / "ratio.csv"
    code, _, err = run(
        capsys, "bench", "ratio", str(corpus), "-o", str(ratio_report),
        "--strategies", "all",
    )
    assert code == 0
    assert len(ratio_report.read_text().strip().splitlines()) == 1 + 2 * 6


def test_query_deep_chain_hits_table_cap_cleanly(workspace, tmp_path, capsys):
    # The right-recursive areSubClasses program tables one call per chain
    # node, so a 3000-deep chain derives about 4.5M answers.
    _dob, catalog = workspace
    chain = tmp_path / "chain.dob"
    chain.write_text("".join(
        f"subClassOf(c{i},c{i + 1}).\n" for i in range(3000)
    ))
    code, out, err = run(
        capsys,
        "query", str(chain), "--catalog", str(catalog),
        "-q", "q(X):-areSubClasses(c0,X).",
        "--no-optimize", "--strategy", "nlj",
    )
    assert code == 2
    assert out == ""
    assert "tabling store exceeded 1000000 entries" in err
    assert "Traceback" not in err


def test_query_past_the_recursion_limit_is_a_data_error(
    workspace, tmp_path, capsys
):
    _dob, catalog = workspace
    chain = tmp_path / "chain.dob"
    chain.write_text("".join(
        f"subClassOf(c{i},c{i + 1}).\n" for i in range(3000)
    ))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run(
            capsys,
            "query", str(chain), "--catalog", str(catalog),
            "-q", "q(X):-areSubClasses(c0,X).",
        )
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out == ""
    assert "calls nest deeper than the recursion limit of 1000" in err
    assert "Traceback" not in err


@pytest.fixture()
def serve_workspace(tmp_path, serve_base, serve_catalog):
    """The benchmark's serve base and catalog, as files."""
    dob = tmp_path / "serve.dob"
    dob.write_text(render_dob(serve_base.facts()), encoding="utf-8")
    catalog = tmp_path / "serve.cat"
    save_catalog(serve_catalog, catalog)
    return dob, catalog


@pytest.mark.parametrize("query, flags", [
    (str(SERVE_Q17), []),
    (str(STAR_400), ["--no-optimize"]),
], ids=["q17", "star400"])
def test_query_past_the_batch_limit_is_a_data_error(
    serve_workspace, capsys, query, flags
):
    """A plan step whose batch would pass 1,000,000 rows stops the query
    with exit 2 and a message naming the limit, before any answer."""
    dob, catalog = serve_workspace
    code, out, err = run(
        capsys, "query", str(dob), "--catalog", str(catalog), "-q", query,
        *flags,
    )
    assert code == 2
    assert out == ""
    assert "over the batch limit of 1000000" in err
    assert "Traceback" not in err


def test_query_past_the_optimizer_cap_is_a_data_error(workspace, capsys):
    dob, catalog = workspace
    n = MAX_OPTIMIZE_SUBGOALS + 1
    body = ",".join(f"subClassOf(C{i},C{i + 1})" for i in range(n))
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", f"q(C0):-{body}.",
    )
    assert code == 2
    assert out == ""
    assert (
        f"optimization is capped at {n - 1} subgoals, the query has {n}"
    ) in err
    assert "Traceback" not in err


def test_bench_past_the_enumeration_cap_names_the_query(tmp_path, capsys):
    """A query too long to enumerate stops the experiment with exit 2 and
    a message naming the query and its size."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"seed": 0, "query_subgoals": 7}))
    corpus = tmp_path / "corpus"
    assert run(capsys, "gen", str(config), "-o", str(corpus))[0] == 0
    report = tmp_path / "ratio.csv"
    code, out, err = run(capsys, "bench", "ratio", str(corpus), "-o", str(report))
    assert code == 2
    assert err == (
        "error: base0/q0: exhaustive enumeration is capped at 6 subgoals,"
        " the query has 7\n"
    )
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("subgoals, warned", [(6, False), (7, True)])
def test_gen_past_the_enumeration_cap_warns(tmp_path, capsys, subgoals, warned):
    """A corpus whose queries the bench commands will refuse is still
    written, the same files as ever, with a warning naming the cap."""
    config = {"seed": 0, "query_subgoals": subgoals}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    corpus = tmp_path / "corpus"
    code, out, err = run(capsys, "gen", str(path), "-o", str(corpus))
    assert (code, out) == (0, "")
    warning = (
        f"warning: query_subgoals {subgoals} is past the exhaustive"
        f" enumeration cap of 6 subgoals; dobq bench correlate and dobq"
        f" bench ratio will refuse this corpus\n"
    )
    assert err == (warning if warned else "") + f"wrote 1 corpora under {corpus}\n"
    base, queries = generate_synthetic(SynthConfig(**config))
    assert (corpus / "rep000" / "base.dob").read_text() == render_dob(base.facts())
    assert (corpus / "rep000" / "queries.dq").read_text() == "".join(
        f"{q}\n" for q in queries
    )


@pytest.mark.parametrize("command, option, message", [
    ("query", ["--strategy", "bnlj"],
     "argument --strategy: invalid choice: 'bnlj' (choose from "),
    ("query", ["--block-size", "8"], "unrecognized arguments: --block-size 8"),
    ("bench", ["--block-size", "8"], "unrecognized arguments: --block-size 8"),
], ids=["query-strategy-bnlj", "query-block-size", "bench-block-size"])
def test_block_nested_loop_options_are_usage_errors(
    workspace, tmp_path, capsys, command, option, message
):
    """Block nested loop and its block size are no options: naming them
    is a usage error, and a wrong strategy lists the valid ones."""
    dob, catalog = workspace
    if command == "query":
        args = ["query", str(dob), "--catalog", str(catalog),
                "-q", "q(C):-areClasses(C,carsOnt)."]
    else:
        args = ["bench", "ratio", str(tmp_path), "-o", str(tmp_path / "r")]
    code, out, err = run(capsys, *args, *option)
    assert code == 1
    assert out == ""
    assert message in err
    if option[0] == "--strategy":
        choices = err.split("choose from ", 1)[1]
        assert all(name in choices for name in ("nlj", "hash", "auto"))
    assert "Traceback" not in err


@pytest.mark.parametrize("text, detail", [
    ("{", "config is not valid JSON"),
    ("[1, 2]", "config must be a JSON object"),
    ('{"seed": "x"}', "config field seed must be int, got 'x'"),
    ('{"constant_probability": "high"}',
     "config field constant_probability must be float, got 'high'"),
])
def test_bad_gen_config_is_a_data_error(tmp_path, capsys, text, detail):
    config = tmp_path / "synth.json"
    config.write_text(text)
    code, out, err = run(capsys, "gen", str(config), "-o", str(tmp_path / "o"))
    assert code == 2
    assert detail in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", [
    "transitive_properties", "chain_queries", "star_queries",
])
def test_negative_gen_count_is_a_data_error(tmp_path, capsys, name):
    """A negative count is refused before anything is written, not
    ended by a traceback or turned into an empty query set."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({name: -1}))
    code, out, err = run(capsys, "gen", str(config), "-o", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {name} must be nonnegative\n"
    assert not (tmp_path / "o").exists()


def test_nonpositive_sample_cap_is_a_data_error(workspace, tmp_path, capsys):
    dob, _catalog = workspace
    code, out, err = run(
        capsys, "analyze", str(dob), "--m-max", "-5",
        "-o", str(tmp_path / "c"),
    )
    assert code == 2
    assert "sample cap m_max must be >= 1: -5" in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("d", ["nan", "inf"])
def test_non_finite_relative_error_is_a_data_error(workspace, tmp_path, capsys,
                                                   d):
    dob, _catalog = workspace
    code, out, err = run(
        capsys, "analyze", str(dob), "-d", d, "-o", str(tmp_path / "c"),
    )
    assert code == 2
    assert f"relative error d must be positive and finite: {d}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_nonpositive_replicas_is_a_usage_error(tmp_path, capsys, replicas):
    config = tmp_path / "synth.json"
    config.write_text("{}")
    corpus = tmp_path / "corpus"
    code, out, err = run(
        capsys, "gen", str(config), "-o", str(corpus), "--replicas", replicas,
    )
    assert code == 1
    assert f"--replicas: expected a positive integer, got '{replicas}'" in err
    assert "Traceback" not in err
    assert not corpus.exists()


@pytest.mark.parametrize("predicate, edit, detail", [
    ("isOntology",
     lambda line: "isOntology | IOB | f | 3 | 3 | 3\n"
                  "isOntology | IOB | b | 1 | 1 | 3",
     "isOntology is an EOB predicate, not IOB"),
    ("areClasses", lambda line: line.rsplit(" ", 1)[0],
     "distinct-value arity mismatch for areClasses"),
    ("isOntology", lambda line: "isOntology | EOB | banana | 3 | -5 | 3",
     "pattern of isOntology must be 'f', got 'banana'"),
], ids=["iob-row-for-eob", "short-distinct-tail", "eob-pattern"])
def test_catalog_row_disagreeing_with_the_schema_is_a_data_error(
    workspace, capsys, predicate, edit, detail
):
    dob, catalog = workspace
    lines = catalog.read_text().splitlines()
    at = [i for i, ln in enumerate(lines) if ln.startswith(predicate + " ")]
    for i in at:
        lines[i] = edit(lines[i])
    catalog.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C):-isOntology(O),areClasses(C,O).",
    )
    assert code == 2
    assert out == ""
    assert f"catalog line {at[0] + 1}: {detail}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["correlate", "ratio"])
def test_corpus_without_queries_is_a_data_error(tmp_path, capsys, mode):
    config = tmp_path / "synth.json"
    config.write_text("{}")
    corpus = tmp_path / "corpus"
    assert run(capsys, "gen", str(config), "-o", str(corpus),
               "--replicas", "2")[0] == 0
    for queries in corpus.glob("rep*/queries.dq"):
        queries.write_text("")
    report = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", mode, str(corpus), "-o", str(report))
    assert code == 2
    assert f"no queries found in the corpora under {corpus}" in err
    assert "Traceback" not in err
    assert not report.exists()


@pytest.mark.parametrize("predicate, edit, detail", [
    ("isClass", lambda f: [f[0], f[1], f[2], "inf", *f[4:]],
     "cardinality must be finite and non-negative, got 'inf'"),
    ("isClass", lambda f: [*f[:5], "-3 1"],
     "nKeys must be finite and non-negative, got '-3'"),
    ("areClasses", lambda f: [*f[:3], "nan", *f[4:]],
     "cardinality must be finite and non-negative, got 'nan'"),
    ("areClasses", lambda f: [*f[:4], "-5", f[5]],
     "cost must be finite and non-negative, got '-5'"),
], ids=["eob-card-inf", "nkeys-negative", "iob-card-nan", "iob-cost-negative"])
def test_catalog_number_out_of_range_is_a_data_error(
    workspace, capsys, predicate, edit, detail
):
    dob, catalog = workspace
    lines = catalog.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(predicate + " "))
    lines[at] = " | ".join(edit(lines[at].split(" | ")))
    catalog.write_text("\n".join(lines) + "\n")
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog), "--explain",
        "-q", "q(C):-isOntology(O),areClasses(C,O).",
    )
    assert code == 2
    assert out == ""
    assert f"catalog line {at + 1}: {detail}" in err
    assert "Traceback" not in err


def _not_utf8(path, valid=b"isOntology(a).\n"):
    path.write_bytes(valid + b"\xff\n")
    return f"{path}: not UTF-8 text (byte {len(valid) + 1})"


def test_analyze_of_non_utf8_facts_is_a_data_error(tmp_path, capsys):
    dob = tmp_path / "bad.dob"
    message = _not_utf8(dob)
    code, out, err = run(capsys, "analyze", str(dob), "-o", str(tmp_path / "c"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "c").exists()


def test_query_with_non_utf8_catalog_is_a_data_error(workspace, capsys):
    dob, catalog = workspace
    message = _not_utf8(catalog, catalog.read_bytes())
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C):-areClasses(C,carsOnt).",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_translate_of_non_utf8_owl_is_a_data_error(tmp_path, capsys):
    owl = tmp_path / "bad.owl"
    message = _not_utf8(owl, b"Ontology(o)\n")
    out_path = tmp_path / "out.dob"
    code, out, err = run(
        capsys, "translate", str(DATA / "carsOnt.owl"), str(owl),
        "-o", str(out_path),
    )
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_translate_refuses_text_after_a_construct(tmp_path, capsys):
    owl = tmp_path / "two.owl"
    owl.write_text("Ontology(o)\nClass(c) Class(d)\n")
    out_path = tmp_path / "out.dob"
    code, out, err = run(capsys, "translate", str(owl), "-o", str(out_path))
    assert code == 2
    assert err == (
        f"error: {owl}:2:10: expected the end of the line, found 'Class'\n"
    )
    assert not out_path.exists()


def test_translate_refuses_conflicting_domains_across_documents(
    tmp_path, capsys
):
    first, second = tmp_path / "a.owl", tmp_path / "b.owl"
    first.write_text("Ontology(a)\nObjectProperty(p domain(c))\n")
    second.write_text("Ontology(b)\nObjectProperty(p domain(e))\n")
    out_path = tmp_path / "out.dob"
    code, out, err = run(
        capsys, "translate", str(first), str(second), "-o", str(out_path)
    )
    assert code == 2
    assert err == (
        f"error: {second}:2:18: unsupported construct: domains c and e for "
        "property p in different documents (class intersection); first "
        f"declared at {first}:2:18\n"
    )
    assert not out_path.exists()


def test_translate_conflict_names_the_first_clause(tmp_path, capsys):
    """A repeated clause that agrees is no conflict; the refusal names
    the clause that first gave the property its domain."""
    paths = [tmp_path / f"{name}.owl" for name in "abc"]
    paths[0].write_text("Ontology(a)\nObjectProperty(p domain(c))\n")
    paths[1].write_text(
        "Ontology(b)\nObjectProperty(p range(d))\n"
        "ObjectProperty(p domain(c))\n"
    )
    paths[2].write_text("Ontology(c)\n\nObjectProperty(p domain(e))\n")
    out_path = tmp_path / "out.dob"
    code, out, err = run(
        capsys, "translate", *map(str, paths), "-o", str(out_path)
    )
    assert code == 2
    assert err == (
        f"error: {paths[2]}:3:18: unsupported construct: domains c and e "
        "for property p in different documents (class intersection); "
        f"first declared at {paths[0]}:2:18\n"
    )
    assert not out_path.exists()


def test_gen_with_non_utf8_config_is_a_data_error(tmp_path, capsys):
    config = tmp_path / "synth.json"
    message = _not_utf8(config, b'{"seed": 1}')
    code, out, err = run(capsys, "gen", str(config), "-o", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_bench_of_non_utf8_queries_is_a_data_error(tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text("{}")
    corpus = tmp_path / "corpus"
    assert run(capsys, "gen", str(config), "-o", str(corpus))[0] == 0
    queries = corpus / "rep000" / "queries.dq"
    message = _not_utf8(queries, queries.read_bytes())
    report = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", "ratio", str(corpus), "-o", str(report))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not report.exists()


# Quoted constants with spaces, commas, quotes and backslashes, next to
# plain ones that are prefixes of each other (`vehicle`, `vehicle2`).
QUOTED_DOB = r"""isOntology(o1).
isOntology('Main Ont').
isClass(vehicle,o1).
isClass(vehicle2,o1).
isClass('SUV Model','Main Ont').
isClass('a, b',o1).
isClass('x\'y',o1).
isClass('back\\slash','Main Ont').
isClass('Car',o1).
subClassOf('SUV Model',vehicle).
subClassOf(vehicle2,vehicle).
subClassOf('a, b','SUV Model').
subClassOf('x\'y','a, b').
subClassOf('back\\slash',vehicle2).
subClassOf('Car',vehicle).
subClassOf(vehicle,'Car').
"""

PINNED_QUOTED_OUT = r"""q('Car','Head K','Car','Car')
q('Car','Head K','Car',vehicle)
q('SUV Model','Head K','SUV Model','Car')
q('SUV Model','Head K','SUV Model',vehicle)
q('a, b','Head K','a, b','Car')
q('a, b','Head K','a, b','SUV Model')
q('a, b','Head K','a, b',vehicle)
q('back\\slash','Head K','back\\slash','Car')
q('back\\slash','Head K','back\\slash',vehicle)
q('back\\slash','Head K','back\\slash',vehicle2)
q('x\'y','Head K','x\'y','Car')
q('x\'y','Head K','x\'y','SUV Model')
q('x\'y','Head K','x\'y','a, b')
q('x\'y','Head K','x\'y',vehicle)
q(vehicle,'Head K',vehicle,'Car')
q(vehicle,'Head K',vehicle,vehicle)
q(vehicle2,'Head K',vehicle2,'Car')
q(vehicle2,'Head K',vehicle2,vehicle)
"""


def test_query_stdout_pin_with_quoted_constants(tmp_path, capsys):
    """`dobq query` prints answers in text order, byte for byte; the head
    carries a constant and a repeated variable."""
    dob = tmp_path / "quoted.dob"
    dob.write_text(QUOTED_DOB, encoding="utf-8")
    catalog = tmp_path / "quoted.cat"
    assert cli_main(["analyze", str(dob), "-o", str(catalog)]) == 0
    capsys.readouterr()
    code, out, err = run(
        capsys,
        "query", str(dob), "--catalog", str(catalog),
        "-q", "q(C,'Head K',C,D):-areSubClasses(C,D),isClass(D,O).",
    )
    assert code == 0, err
    assert out == PINNED_QUOTED_OUT
    assert "answers: 18" in err
