"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from odeliveness import arith, cli, kernel, rules, sim, symbolic, syntax, topology  # noqa: E402

import corpora  # noqa: E402
import exact  # noqa: E402
import workloads  # noqa: E402


def test_seed_11_reproduces_criterion_6():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_acceptance import random_box_obligation
    finally:
        sys.path.remove(str(ROOT / "tests"))
    rng = Random(11)
    wl = workloads.ArithWorkload(ROOT, 11)
    wl.prepare()
    assert [c.ob for c in wl.corpus] == [random_box_obligation(rng) for _ in range(500)]
    wl.clock = workloads.Clock()
    for index in range(len(wl.corpus)):
        wl.op(index)
    statuses = [outcome[0] for outcome in wl.first]
    assert statuses.count(arith.VALID) == 152
    assert statuses.count(arith.FALSIFIED) == 343
    assert wl.score.errors == []


def test_exact_checker_agrees_with_package_formulas():
    cases = corpora.criterion6_corpus(3, n=40) + corpora.hard_corpus(3) + corpora.hard_corpus(4)
    rng = Random(0)
    for case in cases:
        for _ in range(25):
            pt = {v: Fraction(rng.randrange(-260, 261), 64) for v in corpora.NAMES}
            assert exact.hypothesis_holds(case, pt) == arith.eval_formula_exact(case.ob.hypothesis, pt)
            assert exact.atom_holds(case.concl, pt) == arith.eval_formula_exact(case.ob.conclusion, pt)


def test_exact_checker_rejects_a_false_claim():
    case = corpora.make_case(
        "false",
        [corpora.Alt((("x", Fraction(-1), Fraction(1)), ("y", Fraction(0), Fraction(1))))],
        corpora.Atom(((((("x", 1),), Fraction(1)),)), ">", Fraction(0)),
        False,
    )
    assert exact.refutes_valid(case, seed=0)
    assert exact.is_counterexample(case, {"x": Fraction(-1, 2), "y": Fraction(0)})
    assert not exact.is_counterexample(case, {"x": Fraction(1, 2), "y": Fraction(0)})
    # -y^2 < 0 fails only at y = 0, which the 8 x 8 grid over [-2, 1] misses
    boundary_only = corpora.make_case(
        "false",
        [corpora.Alt((("x", Fraction(-1), Fraction(1)), ("y", Fraction(-2), Fraction(1))))],
        corpora.Atom(((((("y", 2),), Fraction(-1)),)), "<", Fraction(0)),
        False,
    )
    assert exact.refutes_valid(boundary_only, seed=0)


def test_hard_corpus_is_true_and_left_unknown():
    for case in corpora.hard_corpus(11):
        assert case.true_by_construction
        assert not exact.refutes_valid(case, seed=11)
        v = arith.prove_implication(case.ob, budget=corpora.BUDGET)
        assert v.status == arith.UNKNOWN, (case.family, v.trace)


def test_changed_transcript_counts_as_failed():
    wl = workloads.CheckWorkload(ROOT, 1)
    wl.prepare()
    wl._judge("ce1.ode", 2, "digest-a", "pass")
    wl._judge("ce1.ode", 2, "digest-a", "pass")
    assert wl.score.failed == 0
    wl._judge("ce1.ode", 2, "digest-b", "pass")
    wl._judge("ce2.ode", 2, "digest-c", "pass")  # ce2 has no proof block: exit 3
    assert (wl.score.attempted, wl.score.failed, len(wl.score.errors)) == (4, 2, 2)


def test_traced_run_restores_every_wrapped_attribute():
    modules = (arith, cli, kernel, rules, sim, symbolic, syntax, topology)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    checker_prove = rules.Checker.prove
    wl = workloads.CheckWorkload(ROOT, 1)
    wl.prepare()
    wl.run(0.2, trace=True)
    assert wl.score.errors == [] and wl.rounds >= 1
    assert wl.tracer.patched_attributes() == []
    assert {(m.__name__, k): v for m in modules for k, v in vars(m).items()} == before
    assert rules.Checker.prove is checker_prove
    with wl.tracer as tr:
        wrapped = {(getattr(owner, "__name__", ""), key) for owner, key, _ in tr.patched_attributes()}
        assert hasattr(cli.apply_rule, "__wrapped__") and hasattr(rules.Checker.prove, "__wrapped__")
    for owner in ("odeliveness.cli", "odeliveness.rules"):
        assert (owner, "apply_rule") in wrapped
    for owner in ("odeliveness.rules", "odeliveness.symbolic", "odeliveness.sim"):
        assert (owner, "lie_derivative") in wrapped
    assert not hasattr(cli.apply_rule, "__wrapped__")


UNTRACED_RUN = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import run, workloads
from odeliveness import arith, cli, rules, sim, syntax, topology

real = workloads.run_cli
functions = lambda: (cli.main, cli.apply_rule, arith.prove_implication, arith.falsify, rules.Checker.prove,
                     rules.prove_invariance, sim.integrate, syntax.parse_problem, topology.check_bounded)

def guarded(argv):
    assert not any(hasattr(f, "__wrapped__") for f in functions())
    return real(argv)

workloads.run_cli = guarded
assert run.main(["--workload", "check", "--seed", "2", "--seconds", "0.5", "--trace", "0"]) == 0
assert "tracer" not in sys.modules
"""


def test_untraced_run_has_no_tracing_code():
    script = UNTRACED_RUN.format(src=str(ROOT / "src"), here=str(HERE))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert result["correct"] and result["failed"] == 0


def test_per_layer_metrics_match_benchmark_json():
    import tracer

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(tracer.layer_metrics([], 1)) | {"trace.overhead_pct"}
    assert names == {m["name"] for m in declared["per_layer"]}
    units = {name: unit for name, (_, unit) in tracer.layer_metrics([], 1).items()}
    for m in declared["per_layer"]:
        assert units.get(m["name"], "%") == m["unit"]
