"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is a test, so the suite fails loudly if any tolerance is missed.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from odeliveness import arith, sim, topology
from odeliveness.cli import main as cli_main
from odeliveness.errors import OdelivError, RuleRefused
from odeliveness.kernel import PROVED, render_trace
from odeliveness.rules import RULE_BUILDERS, Checker, apply_rule
from odeliveness.symbolic import OdeSystem, Polynomial
from odeliveness.syntax import Cmp, parse_formula, parse_poly, parse_problem

from conftest import PROBLEMS, ROOT, lie_consistency_check, problem_path
from test_kernel import missing_gates, refines_domain_under_goal_negation, step_audit_findings


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def run_cli(capsys, *argv):
    code = cli_main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_criterion_1_example1_end_to_end(capsys):
    """Linear-spiral certificate verifies; its slope premise, argued inside
    the certificate's box, is Valid in <= 1 s; trace names match the
    refinement chain."""
    t0 = time.monotonic()
    code, out = run_cli(capsys, "check", problem_path("example1.ode"))
    elapsed = time.monotonic() - t0
    names = [line.split()[1] for line in out.splitlines() if line[:1].isdigit()]
    pf = parse_problem(problem_path("example1.ode").read_text())
    node = RULE_BUILDERS["dV_geq"](pf, pf.certificate[0], Checker())
    ob = next(ob for ob in node.all_obligations() if ob.label == "variant slope premise").obligation
    t1 = time.monotonic()
    premise = arith.prove_implication(ob)
    premise_time = time.monotonic() - t1
    ok = (
        code == 0
        and names == ["GEx", "dV_geq", "K⟨&⟩", "M◇′"]
        and premise.is_valid
        and premise_time <= 1.0
        and elapsed <= 10.0
    )
    report(1, ok, f"exit={code} chain={names} premise={premise.status} in {premise_time:.3f}s")


def test_criterion_2_example2_end_to_end(capsys):
    """Compact staging-set certificate verifies in <= 2 s with witness B=2 and
    the hinted cut/invariant/weakening chain."""
    t0 = time.monotonic()
    pf = parse_problem(problem_path("example2.ode").read_text())
    node = apply_rule(pf, pf.certificate[0], Checker())
    elapsed = time.monotonic() - t0
    trace = render_trace(node)
    compact = topology.check_compact(
        parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2"), ("u", "v"), arith.prove_implication
    )
    ok = (
        node.verdict() == PROVED
        and elapsed <= 2.0
        and compact.holds
        and compact.witness == 2
        and ". DC " in trace
        and ". DI " in trace
        and ". DW " in trace
    )
    report(2, ok, f"verdict={node.verdict()} in {elapsed:.3f}s witness={compact.witness}")


def test_criterion_3_existence_time_bounds(capsys):
    """GEx discharge shows t > 3/2; BEx discharge shows t > 2/3, verbatim."""
    _, out1 = run_cli(capsys, "check", problem_path("example1.ode"))
    _, out2 = run_cli(capsys, "check", problem_path("example2.ode"))
    gex = next((l for l in out1.splitlines() if " GEx " in l), "")
    bex = next((l for l in out2.splitlines() if " BEx " in l), "")
    ok = "_t > 3/2" in gex and "_t > 2/3" in bex
    report(3, ok, f"GEx: {gex.strip()[:60]} | BEx bound 2/3 present: {'_t > 2/3' in bex}")


def test_criterion_4_counterexample_catalog():
    """All four catalog entries refuse at the stated gate and falsify as stated."""
    results = sim.run_catalog(samples=8, seed=0, horizon=10.0)
    failures = [r for r in results if not r["ok"]]
    # re-assert the stated numeric expectations directly
    ce1 = next(e for e in sim.catalog() if e.id == "CE-1")
    traj = sim.integrate(ce1.problem().system, {"x": 0.0, "t": 0.0}, 10.0, goal=ce1.problem().goal)
    t_blow = traj.event_time(sim.BLOWUP_SUSPECTED)
    ce4 = next(e for e in sim.catalog() if e.id == "CE-4")
    traj4 = sim.integrate(ce4.problem().system, {"x": 2.0, "t": 2.0}, 10.0, goal=ce4.problem().goal)
    t4 = traj4.final().values["t"]
    ok = (
        not failures
        and t_blow is not None
        and abs(t_blow - math.pi / 2) <= 1e-3
        and abs(t4 - 2.5) <= 1e-3
        and t4 < 3.0
    )
    report(4, ok, f"CE-1 blow-up at {t_blow:.6f}; CE-4 max t {t4:.6f}")


def _random_system(rng: Random):
    n = rng.randrange(1, 4)
    names = tuple("xyz"[:n])
    rhs = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = tuple(
                sorted(
                    {v: rng.randrange(1, 4) for v in rng.sample(names, rng.randrange(0, n + 1))}.items()
                )
            )
            if sum(e for _, e in mono) > 3:
                continue
            terms[mono] = Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
        rhs.append(Polynomial(terms))
    return OdeSystem(names, tuple(rhs))


def test_criterion_5_lie_numerical_consistency():
    """Centered differences track the Lie derivative at h=1e-4 within 1e-5,
    with second-order convergence under halving."""
    rng = Random(7)
    h = 1e-4
    checked = 0
    worst = 0.0
    worst_ratio = math.inf
    ratio_checked = 0
    attempts = 0
    while checked < 20 and attempts < 60:
        attempts += 1
        sys = _random_system(rng)
        p = Polynomial()
        for v in sys.vars:
            p = p + Polynomial.var(v) * Polynomial.var(v) + Polynomial.var(v)
        init = {v: Fraction(rng.randrange(-5, 6), 10) for v in sys.vars}
        finit = {k: float(x) for k, x in init.items()}
        probe = sim.integrate(sys, finit, 0.5, stop_on_event=False)
        t_blow = probe.event_time(sim.BLOWUP_SUSPECTED)
        horizon = 0.5 if t_blow is None else min(0.5, 0.5 * t_blow)
        if horizon < 40 * h:
            continue
        traj = sim.integrate(sys, finit, horizon, grid=h, stop_on_event=False)
        if any(abs(x) > 1e3 for s in traj.samples for x in s.values.values()):
            continue
        out = lie_consistency_check(p, sys, traj, h)
        traj2 = sim.integrate(sys, finit, horizon, grid=h / 2, stop_on_event=False)
        out2 = lie_consistency_check(p, sys, traj2, h / 2)
        checked += 1
        worst = max(worst, out["max_error"])
        # the convergence ratio is meaningful only above the float noise floor
        if out["max_error"] > 1e-10:
            ratio_checked += 1
            worst_ratio = min(worst_ratio, out["max_error"] / out2["max_error"])
    ok = checked == 20 and worst <= 1e-5 and ratio_checked >= 5 and worst_ratio >= 3.0
    report(
        5,
        ok,
        f"systems={checked} max_err={worst:.2e} halving ratio>={worst_ratio:.2f} on {ratio_checked}",
    )


def random_box_obligation(rng: Random):
    names = ("x", "y")

    def rand_poly(max_terms=3, max_deg=2):
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            mono = tuple(
                sorted({n: rng.randrange(1, max_deg + 1) for n in rng.sample(names, rng.randrange(0, 3))}.items())
            )
            terms[mono] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return Polynomial(terms)

    bounds = []
    for n in names:
        lo = Fraction(rng.randrange(-3, 1))
        hi = lo + Fraction(rng.randrange(1, 5))
        bounds.append(f"{lo} <= {n} & {n} <= {hi}")
    hyp = parse_formula(" & ".join(bounds))
    op = rng.choice([">=", ">", "<=", "<"])
    concl = Cmp(op, rand_poly(), Polynomial.const(Fraction(rng.randrange(-6, 7), 2)))
    return arith.ArithObligation(names, hyp, concl)


def test_criterion_6_backend_soundness():
    """Over 500 randomized box obligations there is no Valid/Falsified conflict
    and every counterexample re-verifies exactly."""
    rng = Random(11)
    budget = arith.Budget(max_cells=3000, max_seconds=1.0)
    conflicts = 0
    valid_count = 0
    falsified_checked = 0
    for i in range(500):
        ob = random_box_obligation(rng)
        pv = arith.prove_implication(ob, budget=budget)
        if pv.is_valid:
            valid_count += 1
            fv = arith.falsify(ob, samples=100_000, seed=i)
            if fv.status == arith.FALSIFIED:
                conflicts += 1
        elif pv.status == arith.FALSIFIED:
            cx = pv.counterexample
            assert arith.eval_formula_exact(ob.hypothesis, cx)
            assert not arith.eval_formula_exact(ob.conclusion, cx)
            falsified_checked += 1
    ok = conflicts == 0 and valid_count >= 50 and falsified_checked >= 50
    report(6, ok, f"valid={valid_count} falsified={falsified_checked} conflicts={conflicts}")


def test_criterion_7_simulation_oracles(alpha_l, alpha_n):
    """Energy decay matches the closed form; the nonlinear spiral escapes in time."""
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 3.0, stop_on_event=False)
    worst = 0.0
    for s in traj.samples:
        r2 = s.values["u"] ** 2 + s.values["v"] ** 2
        exact = math.exp(-2 * s.time)
        worst = max(worst, abs(r2 - exact) / exact)
    pf = parse_problem(
        "ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }"
        "  assume { u^2 + v^2 = 1 }  goal { u^2 + v^2 >= 2 }"
    )
    rep = sim.falsify_liveness(pf, samples=64, seed=0, horizon=2.0)
    times = [r.t_event for r in rep.results]
    ok = (
        worst <= 1e-6
        and rep.n(sim.WITNESS) == 64
        and all(t is not None and t < 2 / 3 + 0.05 for t in times)
    )
    report(7, ok, f"energy rel err {worst:.2e}; escapes by {max(times):.4f} on 64 samples")


def test_criterion_8_topological_gate(capsys):
    """Half-open annulus domain is refused with TopoUnknown; the closed one verifies."""
    code_bad, out_bad = run_cli(capsys, "check", problem_path("example2_domain_halfopen.ode"))
    code_good, out_good = run_cli(capsys, "check", problem_path("example2_domain.ode"))
    ok = (
        code_bad == 2
        and "TopoUnknown" in out_bad
        and code_good == 0
        and "COR" in out_good
    )
    report(8, ok, f"half-open exit={code_bad}, closed exit={code_good}")


def test_criterion_9_kernel_structural_soundness():
    """Built on a generic sequent, every kernel step constructor is audited:
    only COR refines the domain with the goal negation in a box premise's
    domain, and it carries the topology and initial-state gates; DR keeps
    the plain domain.  Every node of every rule golden's and problem file's
    chain with that shape carries a topology gate.  The punctured line
    documents the semantic failure an ungated refinement would permit."""
    findings = step_audit_findings()
    chain_nodes, shaped = 0, 0
    for path in sorted((ROOT / "tests" / "golden" / "rules").glob("*.ode")) + sorted(PROBLEMS.glob("*.ode")):
        pf = parse_problem(path.read_text())
        if not pf.certificate:
            continue
        try:
            root = RULE_BUILDERS[pf.certificate[0].name](pf, pf.certificate[0], Checker())
        except OdelivError:
            continue  # refused before a chain exists
        for node in root.walk():
            chain_nodes += 1
            if refines_domain_under_goal_negation(node):
                shaped += 1
                if "topology" in missing_gates(node):
                    findings.append(f"{path.name}: {node.step.name} lacks its topology gate")
    entry = next(e for e in sim.catalog() if e.id == "CE-2")
    pf = entry.problem()
    traj = sim.integrate(pf.system, {"x": 0.0}, 3.0, goal=pf.goal, stop_on_event=True)
    cls, t_event = sim.classify(traj)
    ok = (
        not findings
        and shaped > 0
        and cls == sim.REFUTED
        and t_event is not None
        and abs(t_event - 1.0) < 1e-6
    )
    audit = "; ".join(findings) or (
        f"every step constructor audited; {shaped} of {chain_nodes} chain nodes refine under not-P, all topology-gated"
    )
    report(9, ok, f"{audit}; CE-2 {cls} at t={t_event}")
