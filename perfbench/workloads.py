"""The `check`, `arith` and `falsify` workloads.

Each is a closed loop with one client in this process: the next operation
starts when the previous one returns.  Only the package's public functions
are called.  Every operation is scored against a known answer:

* `failed` counts operations that missed their known answer;
* an error is a failure of an exact claim or of reproducibility (a wrong
  `check` exit code, a transcript or verdict that changed between passes or
  processes, a verdict the exact checker contradicts, an exception); any
  error makes the run incorrect.  `falsify` classes come from floating-point
  integration, which the package never claims to be exact, so a wrong class
  counts as failed without being an error.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import hashlib
import io
import re
import statistics
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from odeliveness import arith, cli, sim
from odeliveness.syntax import parse_problem

import corpora
import exact
import known

# ---------------------------------------------------------------------------
# Host-speed correction.  On a shared host the same pure-Python work takes
# 10 ms or 17 ms depending on what runs beside it, and the state changes
# within seconds, so no run length averages it away.  Every reported time is
# rescaled to a nominal speed: a call's wall time t becomes
# t * REF_SECONDS / r, where r is the time of `reference_work` measured at
# most REFRESH_S before the call (for longer calls, the mean of the
# measurements before and after).  Raw wall times are printed beside them.

REF_SECONDS = 0.010
REFRESH_S = 0.25


def reference_work() -> int:
    """Fixed work in the package's mix: small fractions, tuples, dicts, text.
    It must never change, or times before and after stop being comparable."""
    acc = 0
    table: dict = {}
    for i in range(1200):
        a = Fraction(i % 17 - 8, i % 5 + 1)
        b = Fraction(i % 11 - 5, i % 3 + 1)
        lo, hi = min(a * b, a - b), max(a + b, b)
        key = (i % 97, lo <= hi)
        table[key] = table.get(key, 0) + 1
        acc += len(f"{lo}")
    return acc + len(table)


def reference_seconds() -> float:
    """Best of two runs of `reference_work`, with the cyclic garbage collector
    paused so that a collection owed by earlier work does not land in it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = perf_counter()
            reference_work()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


class Clock:
    """Times calls in wall seconds and in seconds at the nominal speed."""

    def __init__(self):
        self.refs: list = []
        self._measure()

    def _measure(self) -> None:
        self.ref = reference_seconds()
        self.refs.append(self.ref)
        self.measured_at = perf_counter()

    def speed(self) -> float:
        """The run's overall correction factor, for times taken elsewhere."""
        return REF_SECONDS / statistics.median(self.refs)

    def call(self, fn, *args, **kwargs) -> tuple:
        """(result, nominal seconds, wall seconds) of fn(*args, **kwargs)."""
        if perf_counter() - self.measured_at > REFRESH_S:
            self._measure()
        before = self.ref
        start = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - start
        ref = before
        if wall > REFRESH_S:
            self._measure()
            ref = (before + self.ref) / 2
        return result, wall * REF_SECONDS / ref, wall


# ---------------------------------------------------------------------------


class Score:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, ok: bool, what: str = "", error: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if error:
                self.errors.append(what)

    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process `odeliv` call; (None, traceback)
    when it raises."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        return None, traceback.format_exc()
    return code, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def closed_loop(op, seconds: float, min_ops: int = 1) -> list:
    """Call op(0), op(1), ... back to back until `seconds` have passed and
    at least `min_ops` calls returned; returns their results."""
    results: list = []
    start = perf_counter()
    while len(results) < min_ops or perf_counter() - start < seconds:
        results.append(op(len(results)))
    return results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(values)
    rank = -(-round(q * 1000) * len(ordered) // 1000)  # ceil(q * n)
    return ordered[max(rank, 1) - 1]


def problem_files(root: Path) -> list:
    files = sorted((root / "problems").glob("*.ode"))
    names = sorted(p.name for p in files)
    if names != sorted(known.CHECK_EXIT):
        raise SystemExit(f"problems/ holds {names}, expected {sorted(known.CHECK_EXIT)}")
    return files


class Workload:
    name = ""
    min_ops = 1  # operations every run completes
    ops_per_round = 1  # operations in one round of the workload's inputs

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.score = Score()
        self.metrics: dict = {}  # name -> (value, unit), printed for the reader
        self.op_ms: list = []  # the repeated operation's nominal times, untraced
        self.op_ms_wall: list = []
        self.tracer = None  # the Tracer of the traced operations
        self.rounds = 0  # rounds the tracer covered

    def prepare(self) -> None:
        """Set-up: read and parse the inputs, generate the corpora."""

    def reference(self):
        """Outputs that a second process of the same seed must reproduce."""
        return None

    def compare_reference(self, ref) -> None:
        pass

    def op(self, index: int) -> tuple:
        """Operation number `index`: (nominal seconds, wall seconds)."""
        raise NotImplementedError

    def report(self) -> None:
        """Adds the workload's named metrics, from an untraced run."""
        raise NotImplementedError

    def trace_seconds(self, seconds: float) -> float:
        return seconds

    def run(self, seconds: float, trace: bool) -> None:
        """Untraced: the closed loop.  Traced: each operation runs twice,
        untraced then traced, so the two medians give the tracing overhead
        under the same host load."""
        self.clock = Clock()
        if not trace:
            ops = closed_loop(self.op, seconds, self.min_ops)
            self.op_ms = [nominal * 1e3 for nominal, _ in ops]
            self.op_ms_wall = [wall * 1e3 for _, wall in ops]
            self.report()
            return
        import tracer

        self.tracer = tracer.Tracer()
        base, traced = [], []

        def pair(index: int) -> None:
            base.append(self.op(index)[0])
            with self.tracer:
                traced.append(self.op(index)[0])

        closed_loop(pair, self.trace_seconds(seconds), self.min_ops)
        self.rounds = len(traced) / self.ops_per_round
        overhead = (statistics.median(traced) / statistics.median(base) - 1) * 100
        self.metrics["trace.overhead_pct"] = (overhead, "%")


# ---------------------------------------------------------------------------
# check: what a certificate author runs after every edit.  Exercises rules,
# topology, cli and syntax, and arith at its share; sim is not used.  One
# operation is one pass over the nine problem files, in a fixed order.


class CheckWorkload(Workload):
    name = "check"

    def prepare(self):
        self.files = problem_files(self.root)
        # Parsed for the set-up time only: `odeliv check` reads each file.
        self.problems = [parse_problem(p.read_text()) for p in self.files]
        self.first: dict = {}  # file name -> transcript digest first seen

    def _argv(self, path) -> list:
        return ["check", str(path), "--seed", str(self.seed)]

    def _judge(self, name: str, code, dig: str, where: str) -> None:
        want = known.CHECK_EXIT[name]
        same = self.first.setdefault(name, dig) == dig
        self.score.record(
            code == want and same,
            f"{where}: check {name} exited {code} (expected {want}); transcript unchanged: {same}",
        )

    def op(self, index: int) -> tuple:
        nominal = wall = 0.0
        for path in self.files:
            (code, out), n, w = self.clock.call(run_cli, self._argv(path))
            nominal, wall = nominal + n, wall + w
            self._judge(path.name, code, digest(out), "pass")
        return nominal, wall

    def reference(self):
        return [(code, digest(out)) for code, out in (run_cli(self._argv(p)) for p in self.files)]

    def compare_reference(self, ref) -> None:
        for path, (code, dig) in zip(self.files, ref):
            self._judge(path.name, code, dig, "fresh process")

    def report(self) -> None:
        self.metrics["check_pass_ms_p50"] = (statistics.median(self.op_ms), "ms")
        self.metrics["check_pass_ms_p90"] = (percentile(self.op_ms, 0.9), "ms")
        self.metrics["check_passes"] = (len(self.op_ms), "count")
        self.metrics["check_fail_rate"] = (self.score.rate(), "ratio")


# ---------------------------------------------------------------------------
# arith: the backend as a library, where almost all of the cost is; sim is
# untouched.  One operation is one obligation through `prove_implication` at
# the fixed cell budget; `falsify` then screens the same obligation with a
# fixed sample count (phase (c)), timed apart.  A round is (a) the
# criterion-6 corpus then (b) the hard corpus, repeated for the whole run.
# A seed's corpus mixes 2 to 9 budget-exhausted obligations that take most
# of a round's time, so a round's throughput (prove_obs_per_s) depends on
# the seed; the median operation, a short branch-and-bound or pre-check,
# depends on it far less.  With `falsify` inside the operation it would:
# its 2000 points on Valid obligations split the times into two clusters.

SAMPLES_C = 2000


class ArithWorkload(Workload):
    name = "arith"

    def prepare(self):
        self.corpus = corpora.criterion6_corpus(self.seed)
        self.hard = corpora.hard_corpus(self.seed)
        self.cases = self.corpus + self.hard
        self.min_ops = self.ops_per_round = len(self.cases)
        self.first: list = []  # outcome of each case in the first round
        self.prove_s = 0.0  # nominal seconds of prove_implication, first round
        self.points = 0
        self.falsify_s = 0.0

    def trace_seconds(self, seconds: float) -> float:
        return 0.0  # exactly one round, so the traced counts repeat

    def _judge_prove(self, case, v, seed: int) -> None:
        if v.status == arith.FALSIFIED:
            ok = not case.true_by_construction and exact.is_counterexample(case, v.counterexample)
        elif v.status == arith.VALID:
            ok = not exact.refutes_valid(case, seed)
        else:
            ok = v.status == arith.UNKNOWN
        self.score.record(ok, f"prove_implication said {v.status} on {case.family}: {case.ob.describe()}")

    def _judge_falsify(self, case, f, proved: str) -> None:
        if f.status == arith.FALSIFIED:
            ok = proved != arith.VALID and exact.is_counterexample(case, f.counterexample)
        else:
            ok = f.status == arith.UNKNOWN
        self.score.record(ok, f"falsify said {f.status} (prove: {proved}) on {case.family}: {case.ob.describe()}")

    def op(self, index: int) -> tuple:
        k = index % len(self.cases)
        case = self.cases[k]
        v, prove_s, prove_wall = self.clock.call(arith.prove_implication, case.ob, budget=corpora.BUDGET)
        f, falsify_s, _ = self.clock.call(arith.falsify, case.ob, samples=SAMPLES_C, seed=k)
        outcome = (v.status, v.trace.get("method"), v.trace.get("cells"), f.status, f.trace.get("samples"))
        if k == len(self.first):  # first time this case runs
            self._judge_prove(case, v, self.seed + k)
            self._judge_falsify(case, f, v.status)
            self.first.append(outcome)
            self.prove_s += prove_s
        else:
            same = outcome == self.first[k]
            self.score.record(same, f"{case.family} #{k} gave {outcome}, first {self.first[k]}")
        self.points += f.trace.get("samples", 0)
        self.falsify_s += falsify_s
        return prove_s, prove_wall

    def report(self) -> None:
        n = len(self.cases)
        statuses = [o[0] for o in self.first]
        corpus = statuses[: len(self.corpus)]
        self.metrics["prove_ms_p90"] = (percentile(self.op_ms, 0.9), "ms")
        self.metrics["prove_calls"] = (len(self.op_ms), "count")
        self.metrics["prove_obs_per_s"] = (n / self.prove_s, "1/s")
        self.metrics["prove_unknown_rate"] = (statuses.count(arith.UNKNOWN) / n, "ratio")
        self.metrics["prove_fail_rate"] = (self.score.rate(), "ratio")
        self.metrics["refute_points_per_s"] = (self.points / self.falsify_s, "1/s")
        for status in (arith.VALID, arith.FALSIFIED, arith.UNKNOWN):
            self.metrics[f"corpus.{status}"] = (corpus.count(status), "count")
        self.metrics["corpus.cells"] = (sum(o[2] or 0 for o in self.first[: len(self.corpus)]), "count")
        self.metrics["hard.unknown"] = (statuses[len(self.corpus) :].count(arith.UNKNOWN), "count")
        self.corpus_digest = digest(repr(self.first))


# ---------------------------------------------------------------------------
# falsify: the only workload where sim does the work.  Blow-ups (ce1, ce4)
# stress RK4 under step collapse; the example files stress event bisection
# and float formula evaluation.  arith is touched only through extract_box.
# One operation is one pass: `falsify` on every problem file, then `catalog`.
# Two samples per file keep every call short, which the host-speed correction
# needs; the blow-ups start from a pinned state, so more samples would repeat
# the same trajectory.

SAMPLES = 2
_SUMMARY = re.compile(r"samples=(\d+) WITNESS=(\d+) REFUTED-SAMPLE=(\d+) BLOWUP=(\d+) INCONCLUSIVE=(\d+)")
_CLASSES = ("WITNESS", "REFUTED-SAMPLE", "BLOWUP", "INCONCLUSIVE")
_CATALOG_LINE = re.compile(r"^(CE-\d+): (ok|FAIL).* counts=(\{.*\})$", re.M)


class FalsifyWorkload(Workload):
    name = "falsify"

    def prepare(self):
        self.files = problem_files(self.root)
        # Parsed for the set-up time only: `odeliv falsify` reads each file.
        self.problems = [parse_problem(p.read_text()) for p in self.files]
        self.catalog = [entry.problem() for entry in sim.catalog()]
        self.trajectories = 0

    def op(self, index: int) -> tuple:
        flags = ["--samples", str(SAMPLES), "--seed", str(self.seed)]
        nominal = wall = 0.0
        for path in self.files:
            (_, out), n, w = self.clock.call(run_cli, ["falsify", str(path)] + flags)
            nominal, wall = nominal + n, wall + w
            self._judge_file(path.name, out)
        (_, out), n, w = self.clock.call(run_cli, ["catalog"] + flags)
        self._judge_catalog(out)
        return nominal + n, wall + w

    def _judge_file(self, name: str, out: str) -> None:
        m = _SUMMARY.search(out)
        if m is None or int(m.group(1)) != SAMPLES:
            for _ in range(SAMPLES):
                self.score.record(False, f"falsify {name}: no summary for {SAMPLES} samples: {out[-300:]}")
            return
        self.trajectories += SAMPLES
        want = known.FALSIFY_CLASS[name]
        for cls, n in zip(_CLASSES, map(int, m.groups()[1:])):
            for _ in range(n):
                self.score.record(cls == want, f"falsify {name}: {cls}, expected {want}", error=False)

    def _judge_catalog(self, out: str) -> None:
        lines = {m.group(1): m for m in _CATALOG_LINE.finditer(out)}
        for ce in known.CATALOG_IDS:
            m = lines.get(ce)
            if m is None:
                self.score.record(False, f"catalog: no line for {ce}: {out[-300:]}")
                continue
            self.trajectories += sum(ast.literal_eval(m.group(3)).values())
            self.score.record(m.group(2) == "ok", f"catalog: {ce} {m.group(2)}", error=False)

    def report(self) -> None:
        self.metrics["falsify_passes"] = (len(self.op_ms), "count")
        self.metrics["falsify_traj_per_s"] = (self.trajectories / (sum(self.op_ms) / 1e3), "1/s")
        self.metrics["falsify_fail_rate"] = (self.score.rate(), "ratio")


WORKLOADS = {w.name: w for w in (CheckWorkload, ArithWorkload, FalsifyWorkload)}
