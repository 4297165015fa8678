"""Command-line interface: translate, analyze, query, gen, bench.

Exit codes: 0 success, 1 usage error, 2 data error (parse failures,
unknown predicates, missing files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .costmodel import JoinMethod, JoinStrategy, default_strategies
from .executor import execute
from .model import DobError, read_text
from .optimizer import explain_plan, optimize, plan_for_order
from .parsing import (
    parse_dob,
    parse_owl,
    parse_query,
    render_dob,
    translate_documents,
)
from .stats import SamplingConfig, build_catalog, load_catalog, save_catalog
from .store import OntologyBase
from .synth import SynthConfig, generate_synthetic

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _load_base(path: str) -> OntologyBase:
    text = read_text(path)
    return OntologyBase.from_facts(parse_dob(text, filename=path))


def _enabled_strategies(name: str):
    if name == "auto":
        return default_strategies()
    return (JoinStrategy(JoinMethod(name)),)


def _cmd_translate(args) -> int:
    docs = []
    for path in args.owl:
        text = read_text(path)
        docs.append(parse_owl(text, filename=path))
    facts = translate_documents(docs)
    Path(args.output).write_text(render_dob(facts), encoding="utf-8")
    print(f"wrote {len(facts)} facts to {args.output}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    base = _load_base(args.dob)
    config = SamplingConfig(
        d=args.d, p=args.p, k=args.k, seed=args.seed,
        m_max=args.m_max,
    )
    catalog = build_catalog(base, config)
    save_catalog(catalog, args.output)
    print(f"wrote catalog for {len(catalog.entries)} predicates to "
          f"{args.output}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    base = _load_base(args.dob)
    query = parse_query(args.query)
    strategies = _enabled_strategies(args.strategy)
    catalog = load_catalog(args.catalog)
    if args.no_optimize:
        # keep the written ordering, pick per-step strategies by cost
        plan = plan_for_order(
            query, catalog, range(len(query.body)), strategies
        )
    else:
        plan = optimize(query, catalog, strategies)
    if args.explain:
        print(explain_plan(plan, catalog), file=sys.stderr)
    report = execute(base, plan)
    for answer in report.answers:
        print(answer)
    print(f"answers: {len(report.answers)}  actual cost: "
          f"{report.actual_cost}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    text = read_text(args.config)
    config = SynthConfig.from_json(text)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rep in range(args.replicas):
        rep_config = SynthConfig(
            **{**config.__dict__, "seed": config.seed + rep}
        )
        base, queries = generate_synthetic(rep_config)
        rep_dir = out_dir / f"rep{rep:03d}"
        rep_dir.mkdir(exist_ok=True)
        (rep_dir / "base.dob").write_text(
            render_dob(base.facts()), encoding="utf-8"
        )
        (rep_dir / "queries.dq").write_text(
            "".join(f"{q}\n" for q in queries), encoding="utf-8"
        )
        (rep_dir / "config.json").write_text(
            rep_config.to_json() + "\n", encoding="utf-8"
        )
    print(f"wrote {args.replicas} corpora under {out_dir}", file=sys.stderr)
    return 0


def _load_corpus(directory: str):
    root = Path(directory)
    rep_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not rep_dirs and (root / "base.dob").exists():
        rep_dirs = [root]
    if not rep_dirs:
        raise DobError(f"no corpora found under {directory}")
    bases, queries = [], []
    for rep in rep_dirs:
        bases.append(_load_base(str(rep / "base.dob")))
        lines = read_text(rep / "queries.dq").splitlines()
        queries.append([parse_query(line) for line in lines if line.strip()])
    if not any(queries):
        raise DobError(f"no queries found in the corpora under {directory}")
    return bases, queries


def _cmd_bench(args) -> int:
    bases, queries = _load_corpus(args.corpus)
    config = SamplingConfig(d=args.d, p=args.p, k=args.k, seed=args.seed)
    if args.strategies == "all":
        strategies = default_strategies()
    else:
        strategies = (JoinStrategy(JoinMethod.NESTED_LOOP),)
    if args.mode == "correlate":
        report = bench_mod.run_correlation(bases, queries, config, strategies)
        bench_mod.write_correlation_csv(report, args.output)
        corr = "undefined" if report.correlation is None else f"{report.correlation:.4f}"
        logc = ("undefined" if report.log_correlation is None
                else f"{report.log_correlation:.4f}")
        print(f"{len(report.rows)} (query, ordering) rows; "
              f"correlation: {corr} (log-scale: {logc})", file=sys.stderr)
    else:
        report = bench_mod.run_ratio(bases, queries, config, strategies)
        bench_mod.write_ratio_csv(report, args.output)
        mean_ow = sum(r.opt_worst_ratio for r in report.ratios) / len(report.ratios)
        under10 = sum(r.opt_worst_ratio < 0.10 for r in report.ratios)
        print(f"{len(report.ratios)} queries; mean optimal/worst "
              f"{mean_ow:.4f}; {under10} under 0.10", file=sys.stderr)
    total_wall = sum(r.wall_clock for r in report.rows)
    print(f"total evaluation wall-clock: {total_wall:.3f}s", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dobq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate ontology documents to facts")
    p.add_argument("owl", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("analyze", help="build a statistics catalog")
    p.add_argument("dob")
    p.add_argument("-d", type=float, default=0.2, help="relative error")
    p.add_argument("-p", type=float, default=0.7, help="confidence level")
    p.add_argument("-k", type=int, default=7, help="first-stage samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("query", help="optimize and evaluate a query")
    p.add_argument("dob")
    p.add_argument("--catalog", required=True)
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--explain", action="store_true")
    p.add_argument(
        "--strategy", choices=[*(m.value for m in JoinMethod), "auto"],
        default="auto",
    )
    p.add_argument("--no-optimize", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("gen", help="generate synthetic corpora")
    p.add_argument("config", help="JSON file with generator settings")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--replicas", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the experiment harness")
    p.add_argument("mode", choices=["correlate", "ratio"])
    p.add_argument("corpus")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strategies", choices=["nlj", "all"], default="nlj")
    p.add_argument("-d", type=float, default=0.2)
    p.add_argument("-p", type=float, default=0.7)
    p.add_argument("-k", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (DobError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
