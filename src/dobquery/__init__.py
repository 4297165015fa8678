"""Deductive ontology query engine with cost-based join ordering."""

from .model import (
    ArgDomain,
    Atom,
    BUILTIN_SCHEMA,
    DobError,
    NonGroundFactError,
    PredicateKind,
    Query,
    Rule,
    SchemaError,
    Term,
    UnsafeRuleError,
    builtin_iob_program,
)
from .store import OntologyBase
from .parsing import (
    ParseError,
    parse_atom,
    parse_dob,
    parse_owl,
    parse_query,
    render_dob,
    translate_documents,
)
from .engine import (
    EngineLimitError,
    EvaluationResult,
    MemoTable,
    solve,
    solve_sequence,
)
from .stats import (
    BindingPattern,
    EobStats,
    IobStats,
    SamplingConfig,
    SamplingRun,
    StatisticsCatalog,
    adaptive_sample,
    alpha,
    build_catalog,
    build_exact_catalog,
    compute_eob_stats,
    estimate_iob_stats,
    load_catalog,
    save_catalog,
)
from .costmodel import (
    Estimate,
    JoinMethod,
    JoinStrategy,
    default_strategies,
    join_estimate,
    plan_estimate,
    predicate_estimate,
)
from .optimizer import (
    exhaustive_orderings,
    explain_plan,
    optimize,
)
from .executor import execute
from .synth import SynthConfig, generate_synthetic
from .bench import (
    pearson,
    run_correlation,
    run_ratio,
)

__version__ = "0.1.0"
