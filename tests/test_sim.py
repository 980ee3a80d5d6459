import math
import sys

import pytest

from odeliveness import sim
from odeliveness.errors import UnsamplableInitSet
from odeliveness.symbolic import Polynomial, lie_derivative
from odeliveness.syntax import parse_formula, parse_poly, parse_problem

from conftest import InsufficientSamples, _dp_step, fixed_steps, lie_consistency_check, problem_path


# -- integration oracles -------------------------------------------------------


def test_alpha_l_goal_entry_time(alpha_l):
    # r^2(t) = exp(-2t) exactly, so the goal r^2 <= 1/4 is entered at ln(4)/2
    traj = sim.integrate(sim.Plan(alpha_l.system, alpha_l.goal), {"u": 1.0, "v": 0.0}, 3.0)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_goal is not None
    assert abs(t_goal - math.log(4) / 2) < 1e-6


def test_alpha_l_energy_matches_closed_form(alpha_l):
    traj = sim.integrate(sim.Plan(alpha_l.system), {"u": 1.0, "v": 0.0}, 3.0, stop_on_event=False)
    worst = 0.0
    for t, y in traj.rows:
        values = traj.values(y)
        r2 = values["u"] ** 2 + values["v"] ** 2
        exact = math.exp(-2 * t)
        worst = max(worst, abs(r2 - exact) / exact)
    assert worst < 1e-6


def test_alpha_n_reaches_goal_before_two_thirds(alpha_n):
    traj = sim.integrate(sim.Plan(alpha_n.system, alpha_n.goal), {"u": 1.0, "v": 0.0}, 2.0)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_goal is not None and t_goal < 2 / 3 + 0.05


def test_blowup_detected_at_pi_over_two():
    pf = parse_problem("ode { x' = 1 + x^2 }  goal { x >= 2 }")
    traj = sim.integrate(sim.Plan(pf.system), {"x": 0.0}, 10.0, stop_on_event=False)
    t_blow = traj.event_time(sim.BLOWUP_SUSPECTED)
    assert t_blow is not None and abs(t_blow - math.pi / 2) < 1e-3


def test_first_same_as_last_costs_six_rhs_per_trial(monkeypatch):
    # the first trial evaluates f at the initial state and its six stages;
    # every later trial, accepted or rejected, reuses the k1 it starts from
    # (the last trial's k7, or the rejected trial's own k1), and event
    # location bisects the dense output without evaluating f.  Every `f` a
    # plan builds is a generated function named `f`.
    counts = {"f": 0, "locate": 0, "in_locate": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "f" and frame.f_code.co_filename == "<string>":
            counts["f"] += 1

    locate = sim._locate

    def counting_locate(*args):
        before = counts["f"]
        out = locate(*args)
        counts["locate"] += 1
        counts["in_locate"] += counts["f"] - before
        return out

    monkeypatch.setattr(sim, "_locate", counting_locate)
    pf = parse_problem("ode { x' = -100*x }  goal { x <= 1/2 }")
    sys.setprofile(profile)
    try:
        traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 1.0}, 1.0, stop_on_event=False)
    finally:
        sys.setprofile(None)
    assert [k for _, k in traj.events] == [sim.GOAL_ENTERED, sim.HORIZON_REACHED]
    trials = traj.stats["steps"] + traj.stats["rejected"]
    assert traj.stats["rejected"] > 0 and counts["locate"] > 0
    assert counts["f"] == 7 + 6 * (trials - 1)
    assert counts["in_locate"] == 0


def test_atoms_are_evaluated_once_per_accepted_state():
    # outside event location, `integrate` and its stepping kernel (the
    # generated `advance`) read the generated atom vector at the initial
    # state and at each accepted state, and nowhere else
    calls = {"integrate": 0, "other": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "atoms" and frame.f_code.co_filename == "<string>":
            caller = frame.f_back.f_code.co_name
            calls["integrate" if caller in ("integrate", "advance") else "other"] += 1

    pf = parse_problem("ode { x' = -100*x }  domain { x >= -1 }  goal { x <= 1/2 }")
    sys.setprofile(profile)
    try:
        traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 1.0}, 1.0, stop_on_event=False)
    finally:
        sys.setprofile(None)
    assert [k for _, k in traj.events] == [sim.GOAL_ENTERED, sim.HORIZON_REACHED]
    assert calls["integrate"] == traj.stats["steps"] + 1
    assert calls["other"] > 0  # the goal entry's bisection


def test_bisection_passes_over_points_whose_atoms_overflow():
    # x = R sin t peaks at t = pi/2, where y = 0 meets the goal; x^40
    # overflows within about 4.5e-4 of the peak, which no step end reaches
    # but the bisection of y's sign change does: those points count as
    # before the event, so the contact is located at the window's end
    r = 50859008.462246634  # the least float whose 40th power overflows
    pf = parse_problem("ode { x' = y; y' = -x }  goal { x^40 <= -1 | y = 0 }")
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 0.0, "y": r * (1 + 1e-7)}, 3.0)
    ((tau, kind),) = traj.events
    assert kind == sim.GOAL_ENTERED and traj.closed[kind]
    assert 0 < tau - math.pi / 2 < 5e-4


def test_blowup_step_statistics():
    # the Dormand-Prince controller's counts on CE-1's trajectory
    pf = parse_problem("ode { x' = 1 + x^2; t' = 1 }  assume { x = 0, t = 0 }  goal { t >= 2 }")
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 0.0, "t": 0.0}, 10.0)
    assert traj.stats == {"steps": 553, "rejected": 0, "min_h": 3.799078133005522e-11}


def test_dense_output_is_fourth_order_between_the_step_ends():
    # x' = -x from 1: the continuous extension of one step starts at the
    # step's start, ends at its result, and meets exp(-theta*h) with a local
    # error O(h^5) in between
    pf = parse_problem("ode { x' = -x }")
    c = sim.Plan(pf.system).bind(())

    def worst(h):
        y1, _, _, ks = _dp_step(c.f, (1.0,), h, c.f((1.0,)))
        ((r1, r2, r3, r4, r5),) = sim._interpolant((1.0,), y1, h, ks)

        def at(th):
            return r1 + th * (r2 + (1 - th) * (r3 + th * (r4 + (1 - th) * r5)))

        assert at(0.0) == 1.0 and abs(at(1.0) - y1[0]) <= 1e-16
        return max(abs(at(i / 64) - math.exp(-i / 64 * h)) for i in range(65))

    assert worst(0.04) < 1e-10
    assert worst(0.4) / worst(0.2) > 16


@pytest.mark.parametrize("k", [1, 13, 30, 80])
def test_equality_goal_met_on_a_steep_crossing(k):
    # x = 1/2 is crossed at ln(2)/k with slope k/2: the located point is
    # within 1e-9 in time, not in x, and the sign change still puts the
    # equality on its boundary there
    pf = parse_problem(f"ode {{ x' = -{k}*x }}  goal {{ x = 1/2 }}")
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 1.0}, 1.0)
    assert traj.events[0][1] == sim.GOAL_ENTERED and traj.closed[sim.GOAL_ENTERED]
    assert abs(traj.events[0][0] - math.log(2) / k) < 1e-8


def test_integration_deterministic(alpha_n):
    a = sim.integrate(sim.Plan(alpha_n.system, alpha_n.goal), {"u": 1.0, "v": 0.0}, 1.0)
    b = sim.integrate(sim.Plan(alpha_n.system, alpha_n.goal), {"u": 1.0, "v": 0.0}, 1.0)
    assert [t for t, _ in a.rows] == [t for t, _ in b.rows]
    assert a.events == b.events


def test_sampled_state_rounded_just_outside_a_closed_domain_starts_inside():
    # the sampler's 13th of 16 points on the unit circle has u^2 + v^2
    # below 1 in floats, outside the closed annulus 1 <= u^2 + v^2 <= 2 by
    # one rounding: it starts in the domain and reaches the goal
    pf = parse_problem(problem_path("example2_domain.ode").read_text())
    theta = 2 * math.pi * 13 / 16
    init = {"u": math.cos(theta), "v": math.sin(theta)}
    plan = sim.Plan(pf.system, pf.goal)
    c = plan.bind(())
    A = c.atoms((init["u"], init["v"]))
    assert not c.domain(A) and c.domain(sim._on_boundary(A))
    traj = sim.integrate(plan, init, 10.0)
    assert sim.classify(traj)[0] == sim.WITNESS
    # a state far outside a closed domain still exits at t = 0 (CE-3)
    ce3 = parse_problem("ode { x' = 1 }  domain { x <= -1 }  assume { x = 1 }  goal { x >= 0 }")
    assert sim.classify(sim.integrate(sim.Plan(ce3.system, ce3.goal), {"x": 1.0}, 10.0)) == (sim.REFUTED, 0.0)


def test_goal_never_follows_domain_exit_with_stop():
    pf = parse_problem(
        "ode { x' = 1 }  domain { x <= 1 }  assume { x = 0 }  goal { x >= 2 }"
    )
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 0.0}, 5.0, stop_on_event=True)
    kinds = [k for _, k in traj.events]
    assert sim.DOMAIN_EXITED in kinds
    assert sim.GOAL_ENTERED not in kinds


def test_horizon_event():
    # the last step is cut to the horizon and lands exactly on it, so the
    # goal x >= 0.11 just beyond it is never entered
    pf = parse_problem("ode { x' = 1 }  goal { x >= 11/100 }")
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 0.0}, 0.1, stop_on_event=False)
    assert traj.events == [(0.1, sim.HORIZON_REACHED)]
    assert traj.rows[-1][0] == 0.1


# -- sampling -------------------------------------------------------------------


def test_circle_sampler(alpha_l):
    pf = parse_problem(
        "ode { u' = -v - u; v' = u - v }  assume { u^2 + v^2 = 1 }  goal { u <= 0 }"
    )
    pts = sim.sample_initial_states(pf, 8, seed=0)
    assert len(pts) == 8
    for pt in pts:
        assert abs(pt["u"] ** 2 + pt["v"] ** 2 - 1) < 1e-9


def test_pinned_sampler():
    pf = parse_problem("ode { x' = 1; t' = 1 }  assume { x = 0, t = 0 }  goal { t >= 2 }")
    pts = sim.sample_initial_states(pf, 3, seed=0)
    assert all(pt == {"x": 0.0, "t": 0.0} for pt in pts)


def test_box_sampler_rejection():
    pf = parse_problem(
        "ode { x' = 1 }  assume { 0 <= x & x <= 1 & x^2 <= 1/4 }  goal { x >= 2 }"
    )
    pts = sim.sample_initial_states(pf, 16, seed=1)
    assert all(0 <= pt["x"] <= 0.5 + 1e-12 for pt in pts)


def test_unsamplable_disjunction():
    pf = parse_problem("ode { x' = 1 }  assume { x = 0 | x = 1 }  goal { x >= 2 }")
    with pytest.raises(UnsamplableInitSet):
        sim.sample_initial_states(pf, 4, seed=0)


def test_unsamplable_unbounded():
    pf = parse_problem("ode { x' = 1 }  assume { x >= 0 }  goal { x >= 2 }")
    with pytest.raises(UnsamplableInitSet):
        sim.sample_initial_states(pf, 4, seed=0)


# -- liveness falsification -------------------------------------------------------


def test_example1_all_witnesses():
    pf = parse_problem(
        """
        ode { u' = -v - u; v' = u - v }
        assume { u^2 + v^2 = 1 }
        goal { u^2 <= 1/4 & v^2 <= 1/4 & (u^2 >= 1/16 | v^2 >= 1/16) }
        """
    )
    report = sim.falsify_liveness(pf, samples=8, seed=0, horizon=5.0)
    assert report.n(sim.WITNESS) == 8


def test_goal_false_is_inconclusive_or_blowup():
    pf = parse_problem("ode { x' = -x }  assume { x = 1 }  goal { false }")
    report = sim.falsify_liveness(pf, samples=2, seed=0, horizon=1.0)
    assert report.n(sim.WITNESS) == 0
    assert report.n(sim.INCONCLUSIVE) + report.n(sim.BLOWUP) == 2


def test_report_csv_export(tmp_path):
    pf = parse_problem(
        "ode { u' = -v - u; v' = u - v }  assume { u^2 + v^2 = 1 }  goal { u^2 + v^2 <= 1/4 }"
    )
    report = sim.falsify_liveness(pf, samples=2, seed=0, horizon=5.0)
    written = sim.write_report(report, pf, tmp_path)
    names = {p.name for p in written}
    assert "summary.txt" in names
    assert any(n.startswith("sample-") and n.endswith(".csv") for n in names)
    csv = next(p for p in written if p.name.endswith(".csv"))
    header = csv.read_text().splitlines()[0]
    assert header == "t,u,v,event"


# -- one trajectory per distinct initial state -------------------------------------


def _count_integrate(monkeypatch) -> list:
    calls = []
    original = sim.integrate

    def spy(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "integrate", spy)
    return calls


def test_pinned_initial_state_is_integrated_once(monkeypatch, tmp_path):
    from conftest import problem_path

    pf = parse_problem(problem_path("ce1.ode").read_text())
    calls = _count_integrate(monkeypatch)
    report = sim.falsify_liveness(pf, samples=5, seed=0)
    assert len(calls) == 1
    assert [r.index for r in report.results] == [0, 1, 2, 3, 4]
    assert {(r.classification, r.t_event) for r in report.results} == {(sim.BLOWUP, report.results[0].t_event)}
    assert report.summary() == "samples=5 WITNESS=0 REFUTED-SAMPLE=0 BLOWUP=5 INCONCLUSIVE=0"
    written = sim.write_report(report, pf, tmp_path)
    assert sorted(p.name for p in written) == [f"sample-{i:03d}.csv" for i in range(5)] + ["summary.txt"]
    assert len({p.read_text() for p in written if p.suffix == ".csv"}) == 1


def test_distinct_initial_states_are_each_integrated(monkeypatch):
    from conftest import problem_path

    pf = parse_problem(problem_path("example1.ode").read_text())
    calls = _count_integrate(monkeypatch)
    report = sim.falsify_liveness(pf, samples=5, seed=0)
    assert len(calls) == 5
    assert report.n(sim.WITNESS) == 5


def test_signed_zeros_are_distinct_initial_states(monkeypatch):
    pf = parse_problem("ode { x' = 1 }  assume { x = 0 }  goal { x >= 1 }")
    inits = [{"x": 0.0}, {"x": -0.0}, {"x": 0.0}, {"x": -0.0}]
    monkeypatch.setattr(sim, "sample_initial_states", lambda problem, count, seed: inits)
    calls = _count_integrate(monkeypatch)
    report = sim.falsify_liveness(pf, samples=4, seed=0)
    assert [math.copysign(1.0, init["x"]) for init in calls] == [1.0, -1.0]
    assert [r.index for r in report.results] == [0, 1, 2, 3]
    assert report.n(sim.WITNESS) == 4


# -- catalog -----------------------------------------------------------------------


def test_catalog_has_four_entries():
    entries = sim.catalog()
    assert [e.id for e in entries] == ["CE-1", "CE-2", "CE-3", "CE-4"]
    for e in entries:
        e.problem()  # parses


def test_run_catalog_all_pass():
    results = sim.run_catalog(samples=4, seed=0)
    for r in results:
        assert r["ok"], (r["id"], r["errors"])
    assert [(r["id"], r["refusal"], r["counts"]) for r in results] == [
        ("CE-1", "GlobalLipschitz", {sim.BLOWUP: 4}),
        ("CE-2", None, {sim.REFUTED: 4}),
        ("CE-3", "InitialState x < 0", {sim.REFUTED: 4}),
        ("CE-4", "Compact(true)", {sim.BLOWUP: 4}),
    ]


def replace(record, **changes):
    """A copy of `record` with the fields in `changes` replaced."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


@pytest.mark.parametrize("entry", sim.catalog(), ids=lambda e: e.id)
def test_catalog_entry_reports_each_departure(entry):
    report = sim.falsify_liveness(entry.problem(), samples=4, seed=0)
    assert entry.errors(report) == []
    # the stated point moved past its tolerance: every sample departs
    moved = replace(entry, at=entry.at + 2 * entry.tol)
    assert len(moved.errors(report)) == 4
    # one sample of another class
    first = replace(report.results[0], classification=sim.INCONCLUSIVE)
    counts = {entry.expected_outcome: 3, sim.INCONCLUSIVE: 1}
    odd = replace(report, counts=counts, results=[first, *report.results[1:]])
    assert entry.errors(odd) == [f"expected all {entry.expected_outcome}, got {counts}"]


def test_ce4_entry_reads_the_final_t():
    # x blows up half a time unit after the start, when t, which starts at
    # 2, is 2.5: the entry states the final t, not the event time
    entry = next(e for e in sim.catalog() if e.id == "CE-4")
    report = sim.falsify_liveness(entry.problem(), samples=4, seed=0)
    assert entry.errors(report) == []
    assert len(replace(entry, final_var=None).errors(report)) == 4
    r = report.results[0]
    late = replace(r, final=replace(r.final, values={**r.final.values, "t": 3.0}))
    errors = entry.errors(replace(report, results=[late, *report.results[1:]]))
    assert errors == ["final t 3.0, expected 2.5 within 0.001"]


def test_ce2_domain_exit_at_goal_crossing():
    entry = next(e for e in sim.catalog() if e.id == "CE-2")
    pf = entry.problem()
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 0.0}, 5.0, stop_on_event=True)
    t_exit = traj.event_time(sim.DOMAIN_EXITED)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_exit is not None and abs(t_exit - 1.0) < 1e-6
    assert t_goal is None or abs(t_goal - t_exit) < 1e-6


def test_ce4_blowup_before_goal():
    entry = next(e for e in sim.catalog() if e.id == "CE-4")
    pf = entry.problem()
    traj = sim.integrate(sim.Plan(pf.system, pf.goal), {"x": 2.0, "t": 2.0}, 5.0, stop_on_event=True)
    assert traj.event_time(sim.BLOWUP_SUSPECTED) is not None
    assert abs(traj.final().values["t"] - 2.5) < 1e-3


# -- Lie-derivative consistency -------------------------------------------------------


def test_lie_consistency_alpha_l(alpha_l):
    p = parse_poly("u^2 + v^2")
    states = fixed_steps(sim.Plan(alpha_l.system), {"u": 1.0, "v": 0.0}, 1.0, 1e-4)
    out = lie_consistency_check(p, alpha_l.system, states, 1e-4)
    assert out["max_error"] <= 1e-5


def test_lie_consistency_constant_is_exact():
    pf = parse_problem("param c;  ode { x' = 1 }  assume { c = 1 }  goal { x >= 1 }")
    states = fixed_steps(sim.Plan(pf.system), {"x": 0.0, "c": 1.0}, 0.1, 1e-3)
    out = lie_consistency_check(Polynomial.var("c"), pf.system, states, 1e-3)
    assert out["max_error"] <= 1e-12


def test_lie_consistency_clock_unit_rate(alpha_l):
    clocked = alpha_l.system.with_clock("_t")
    states = fixed_steps(sim.Plan(clocked), {"u": 1.0, "v": 0.0, "_t": 0.0}, 0.5, 1e-3)
    out = lie_consistency_check(Polynomial.var("_t"), clocked, states, 1e-3)
    assert out["max_error"] <= 1e-10


def test_lie_consistency_insufficient_samples(alpha_l):
    traj = sim.integrate(sim.Plan(alpha_l.system), {"u": 1.0, "v": 0.0}, 1.0, stop_on_event=False)
    states = [sim.State(traj.values(y), t) for t, y in traj.rows]
    with pytest.raises(InsufficientSamples):
        lie_consistency_check(parse_poly("u"), alpha_l.system, states, 1e-6)


@pytest.mark.parametrize("h,bound", [(1e-3, 1e-3), (1e-4, 1e-5)])
def test_lie_consistency_tolerance_at_steps(alpha_l, h, bound):
    p = parse_poly("u^2 + v^2")
    states = fixed_steps(sim.Plan(alpha_l.system), {"u": 1.0, "v": 0.0}, 1.0, h)
    out = lie_consistency_check(p, alpha_l.system, states, h)
    assert out["max_error"] <= bound


# -- goal entry and domain exit at the same point ------------------------------------

ANNULUS = """
ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }
assume { u^2 + v^2 = 1 }
"""


@pytest.mark.parametrize(
    "domain,goal,expected",
    [
        # r^2 grows from 1 and meets the goal r^2 >= 2 on the closed
        # annulus' outer circle: one point, in the goal and in the domain
        ("1 <= u^2 + v^2 <= 2", "u^2 + v^2 >= 2", sim.WITNESS),
        # r^2 > 2 holds only after the trajectory has left r^2 <= 2
        ("1 <= u^2 + v^2 <= 2", "u^2 + v^2 > 2", sim.REFUTED),
        # the half-open annulus does not contain its outer circle
        ("1 <= u^2 + v^2 < 2", "u^2 + v^2 >= 2", sim.REFUTED),
    ],
)
def test_goal_entry_and_domain_exit_at_one_point(domain, goal, expected):
    pf = parse_problem(ANNULUS + f"domain {{ {domain} }}  goal {{ {goal} }}")
    report = sim.falsify_liveness(pf, samples=2, seed=0, horizon=10.0)
    assert report.n(expected) == 2
    for r in report.results:
        traj = r.trajectory
        assert traj.event_time(sim.GOAL_ENTERED) == traj.event_time(sim.DOMAIN_EXITED) == r.t_event
        assert traj.closed == {
            sim.GOAL_ENTERED: goal.endswith(">= 2"),
            sim.DOMAIN_EXITED: domain.endswith("<= 2"),
        }


@pytest.mark.parametrize(
    "closed,expected",
    [
        ({sim.GOAL_ENTERED: True, sim.DOMAIN_EXITED: True}, sim.WITNESS),
        ({sim.GOAL_ENTERED: True, sim.DOMAIN_EXITED: False}, sim.REFUTED),
        ({sim.GOAL_ENTERED: False, sim.DOMAIN_EXITED: True}, sim.REFUTED),
        ({}, sim.REFUTED),
    ],
)
def test_classify_breaks_ties_by_closedness(closed, expected):
    traj = sim.Trajectory([], [(0.5, sim.DOMAIN_EXITED), (0.5 + 1e-9, sim.GOAL_ENTERED)], {}, closed)
    assert sim.classify(traj)[0] == expected
