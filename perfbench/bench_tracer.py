"""Span tracer for the benchmark's traced run.

It wraps dobquery's public functions from outside the package: every
module attribute (and class attribute) that refers to a wrapped function
is replaced, so calls between modules go through the wrapper too. Each
wrapped call is a span with a name, start, end, parent and operation id.
A layer's self time is a span's duration minus the time its child spans
cover, summed over the layer's spans.

Hot leaf functions (store.match_rows, the costmodel estimates) are timed
and counted like any other span, so that their callers' self time excludes
them, but no span record is kept for them; that keeps the record list to
a size that can be written out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "parsing", "store", "engine", "stats", "costmodel",
    "optimizer", "executor", "synth", "bench",
)

# (layer, module, attribute, keep span records)
MODULE_FUNCTIONS = (
    ("parsing", "dobquery.parsing", "parse_dob", True),
    ("parsing", "dobquery.parsing", "parse_query", True),
    ("parsing", "dobquery.parsing", "parse_atom", True),
    ("parsing", "dobquery.parsing", "render_dob", True),
    ("engine", "dobquery.engine", "solve", True),
    ("engine", "dobquery.engine", "solve_sequence", True),
    ("stats", "dobquery.stats", "build_catalog", True),
    ("stats", "dobquery.stats", "estimate_iob_stats", True),
    ("stats", "dobquery.stats", "adaptive_sample", True),
    ("stats", "dobquery.stats", "compute_eob_stats", True),
    ("costmodel", "dobquery.costmodel", "predicate_estimate", False),
    ("costmodel", "dobquery.costmodel", "join_estimate", False),
    ("costmodel", "dobquery.costmodel", "plan_estimate", False),
    ("optimizer", "dobquery.optimizer", "optimize", True),
    ("optimizer", "dobquery.optimizer", "exhaustive_orderings", True),
    ("executor", "dobquery.executor", "execute", True),
    ("synth", "dobquery.synth", "generate_synthetic", True),
    ("bench", "dobquery.bench", "run_ratio", True),
    ("bench", "dobquery.bench", "run_correlation", True),
)

# (layer, module, class, method, keep span records)
CLASS_METHODS = (
    ("store", "dobquery.store", "OntologyBase", "from_facts", True),
    ("store", "dobquery.store", "OntologyBase", "match_rows", False),
)


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self, max_records: int = 50_000):
        self.max_records = max_records
        self.active = False
        self.op_id: int | None = None
        self.records: list[tuple] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)       # per layer
        self.name_self_s: dict[str, float] = defaultdict(float)  # per span name
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []  # [span id, layer, child seconds, name]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._probes: dict[str, tuple] = {}

    # -- probes: per-name callbacks that read arguments and results ------
    def probe(self, name: str, before=None, after=None):
        """Call `before(args, kwargs)` ahead of span `name` and
        `after(state, args, kwargs, result, seconds)` when it returns."""
        self._probes[name] = (before, after)

    def in_span(self, name: str) -> bool:
        return any(frame[3] == name for frame in self._stack)

    def reset_stack(self):
        """Drop spans left open by an operation cut at its deadline."""
        self._stack.clear()

    # -- installation ----------------------------------------------------
    def _wrap(self, layer: str, name: str, fn, record: bool):
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            probe = tracer._probes.get(name)
            state = probe[0](args, kwargs) if probe and probe[0] else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, layer, 0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                if stack and stack[-1] is frame:
                    stack.pop()
                seconds = end - start
                tracer.self_s[layer] += seconds - frame[2]
                tracer.name_self_s[name] += seconds - frame[2]
                tracer.total_s[name] += seconds
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += seconds
                if record:
                    if len(tracer.records) < tracer.max_records:
                        tracer.records.append((
                            span_id, parent[0] if parent else None,
                            tracer.op_id, name, start, end,
                        ))
                    else:
                        tracer.dropped += 1
            if probe and probe[1]:
                probe[1](state, args, kwargs, result, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every dobquery module and class reference to the wrapped
        functions. Undo with `uninstall`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dobquery" or n.startswith("dobquery.")]
        for layer, mod_name, attr, record in MODULE_FUNCTIONS:
            fn = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(layer, f"{layer}.{attr}", fn, record)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for layer, mod_name, cls_name, attr, record in CLASS_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = vars(cls)[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(layer, name, raw.__func__, record))
            else:
                patched = self._wrap(layer, name, raw, record)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def write_spans(self, path):
        """Write span records as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.records:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": name, "start": start, "end": end,
                }) + "\n")
