"""Spans around the package's public functions, for the traced run only.

`run.py` imports this module only with `--trace 1`, so timed runs carry no
wrapper.  A `Tracer` replaces each traced function at every module attribute
that holds it, so callers that imported the name (`cli.apply_rule`,
`rules.lie_derivative`, ...) are traced too, and puts the originals back on
exit.  Spans stay in memory; self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from odeliveness import arith, cli, kernel, rules, sim, symbolic, syntax, topology

PROVE = "arith.prove_implication"
FALSIFY = "arith.falsify"
EXTRACT_BOX = "arith.extract_box"
CHECK_BOUNDED = "topology.check_bounded"
APPLY_RULE = "rules.apply_rule"
PROVE_INVARIANCE = "rules.prove_invariance"
BOUND_SEARCH = ("rules.upper_bound_on", "rules.lie_lower_bound")
CHECKER_PROVE = "rules.Checker.prove"
PARSE_PROBLEM = "syntax.parse_problem"
LIE = "symbolic.lie_derivative"
RENDER = "kernel.render_trace"
CLI_MAIN = "cli.main"
INTEGRATE = "sim.integrate"
SAMPLE_INIT = "sim.sample_initial_states"

# (span name, defining module, attribute)
FUNCTIONS = (
    (PROVE, arith, "prove_implication"),
    (FALSIFY, arith, "falsify"),
    (EXTRACT_BOX, arith, "extract_box"),
    (CHECK_BOUNDED, topology, "check_bounded"),
    (APPLY_RULE, rules, "apply_rule"),
    (PROVE_INVARIANCE, rules, "prove_invariance"),
    (BOUND_SEARCH[0], rules, "upper_bound_on"),
    (BOUND_SEARCH[1], rules, "lie_lower_bound"),
    (PARSE_PROBLEM, syntax, "parse_problem"),
    (LIE, symbolic, "lie_derivative"),
    (RENDER, kernel, "render_trace"),
    (CLI_MAIN, cli, "main"),
    (INTEGRATE, sim, "integrate"),
    (SAMPLE_INIT, sim, "sample_initial_states"),
)

PROVE_METHODS = (
    "closed-evaluation",
    "empty-box",
    "inconsistent-hypothesis",
    "positive-combination",
    "case-split",
    "unbounded-domain",
    "branch-and-bound",
    "budget-exhausted",
)
SYMBOLIC_METHODS = frozenset(PROVE_METHODS[:4])
BNB_METHODS = frozenset(("branch-and-bound", "budget-exhausted"))
EVENT_KINDS = (sim.GOAL_ENTERED, sim.DOMAIN_EXITED, sim.BLOWUP_SUSPECTED, sim.HORIZON_REACHED)


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_time = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None)
            spans.append(span)
            open_.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                open_.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration

        return traced

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items()) if n == "odeliveness" or n.startswith("odeliveness.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        original = rules.Checker.prove
        self._patched.append((rules.Checker, "prove", original))
        rules.Checker.prove = self._wrap(CHECKER_PROVE, original)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)
        return False

    def patched_attributes(self) -> list:
        return list(self._patched)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, rounds: float, speed: float = 1.0) -> dict:
    """Per-layer metrics, counts and times per round of the workload; times
    are multiplied by `speed`, the run's host-speed correction."""
    by: dict = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name):
        return by.get(name, [])

    def total_self(name):
        return sum(s.self_time for s in get(name))

    def per_call_us(name):
        calls = get(name)
        return _ratio(sum(s.duration for s in calls), len(calls)) * 1e6

    out: dict = {}
    proves = [s for s in get(PROVE) if s.result is not None]
    leaves = [s for s in proves if s.result.trace.get("method") != "case-split"]
    bnb = [s for s in leaves if s.result.trace.get("method") in BNB_METHODS]
    cells = sum(s.result.trace.get("cells", 0) for s in leaves)
    out["arith.bnb.cells"] = (cells / rounds, "count")
    out["arith.bnb.us_per_cell"] = (
        _ratio(sum(s.self_time for s in bnb), sum(s.result.trace.get("cells", 0) for s in bnb)) * 1e6,
        "us",
    )
    out["arith.prove.self_ms"] = (total_self(PROVE) * 1e3 / rounds, "ms")
    out["arith.prove.calls"] = (len(get(PROVE)) / rounds, "count")
    for method in PROVE_METHODS:
        n = sum(1 for s in proves if s.result.trace.get("method") == method)
        out[f"arith.prove.method.{method}"] = (n / rounds, "count")
    symbolic_hits = sum(1 for s in leaves if s.result.trace.get("method") in SYMBOLIC_METHODS)
    out["arith.precheck.hit_rate"] = (_ratio(symbolic_hits, len(leaves)), "ratio")

    falsifies = [s for s in get(FALSIFY) if s.result is not None]
    points = sum(s.result.trace.get("samples", 0) for s in falsifies)
    out["arith.falsify.calls"] = (len(get(FALSIFY)) / rounds, "count")
    out["arith.falsify.points"] = (points / rounds, "count")
    out["arith.falsify.us_per_point"] = (_ratio(total_self(FALSIFY), points) * 1e6, "us")
    hits = sum(1 for s in falsifies if s.result.status == arith.FALSIFIED)
    out["arith.falsify.hit_rate"] = (_ratio(hits, len(falsifies)), "ratio")
    out["arith.extract_box.us_per_call"] = (per_call_us(EXTRACT_BOX), "us")

    out["topology.check_bounded.calls"] = (len(get(CHECK_BOUNDED)) / rounds, "count")
    out["topology.check_bounded.self_ms"] = (total_self(CHECK_BOUNDED) * 1e3 / rounds, "ms")
    out["rules.apply_rule.self_ms"] = (total_self(APPLY_RULE) * 1e3 / rounds, "ms")
    out["rules.prove_invariance.self_ms"] = (total_self(PROVE_INVARIANCE) * 1e3 / rounds, "ms")
    search = sum(s.duration for name in BOUND_SEARCH for s in get(name))
    out["rules.bound_search.ms"] = (search * 1e3 / rounds, "ms")
    checker_calls = get(CHECKER_PROVE)
    backend = sum(1 for s in proves if s.parent is not None and s.parent.name == CHECKER_PROVE)
    out["rules.checker.prove.calls"] = (len(checker_calls) / rounds, "count")
    out["rules.checker.cache_hit_rate"] = (1 - _ratio(backend, len(checker_calls)) if checker_calls else 0.0, "ratio")

    out["syntax.parse_problem.us_per_call"] = (per_call_us(PARSE_PROBLEM), "us")
    out["symbolic.lie_derivative.us_per_call"] = (per_call_us(LIE), "us")
    out["kernel.render_trace.us_per_call"] = (per_call_us(RENDER), "us")
    out["cli.self_ms"] = (total_self(CLI_MAIN) * 1e3 / rounds, "ms")

    trajs = [s for s in get(INTEGRATE) if s.result is not None]
    steps = sum(s.result.stats.get("steps", 0) for s in trajs)
    rejected = sum(s.result.stats.get("rejected", 0) for s in trajs)
    out["sim.integrate.calls"] = (len(get(INTEGRATE)) / rounds, "count")
    out["sim.integrate.self_ms"] = (total_self(INTEGRATE) * 1e3 / rounds, "ms")
    out["sim.steps"] = (steps / rounds, "count")
    out["sim.rejected"] = (rejected / rounds, "count")
    out["sim.step_accept_ratio"] = (_ratio(steps, steps + rejected), "ratio")
    out["sim.us_per_step"] = (_ratio(total_self(INTEGRATE), steps) * 1e6, "us")
    for kind in EVENT_KINDS:
        n = sum(1 for s in trajs for _, k in s.result.events if k == kind)
        out[f"sim.events.{kind}"] = (n / rounds, "count")
    out["sim.sample_initial_states.us_per_call"] = (per_call_us(SAMPLE_INIT), "us")
    return {name: (v * speed if unit in ("ms", "us") else v, unit) for name, (v, unit) in out.items()}
