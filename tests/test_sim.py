import math

import pytest

from odeliveness import sim
from odeliveness.errors import InsufficientSamples, UnsamplableInitSet
from odeliveness.symbolic import Polynomial, lie_derivative
from odeliveness.syntax import parse_formula, parse_poly, parse_problem


# -- integration oracles -------------------------------------------------------


def test_alpha_l_goal_entry_time(alpha_l):
    # r^2(t) = exp(-2t) exactly, so the goal r^2 <= 1/4 is entered at ln(4)/2
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 3.0, goal=alpha_l.goal)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_goal is not None
    assert abs(t_goal - math.log(4) / 2) < 1e-6


def test_alpha_l_energy_matches_closed_form(alpha_l):
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 3.0, stop_on_event=False)
    worst = 0.0
    for s in traj.samples:
        r2 = s.values["u"] ** 2 + s.values["v"] ** 2
        exact = math.exp(-2 * s.time)
        worst = max(worst, abs(r2 - exact) / exact)
    assert worst < 1e-6


def test_alpha_n_reaches_goal_before_two_thirds(alpha_n):
    traj = sim.integrate(alpha_n.system, {"u": 1.0, "v": 0.0}, 2.0, goal=alpha_n.goal)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_goal is not None and t_goal < 2 / 3 + 0.05


def test_blowup_detected_at_pi_over_two():
    pf = parse_problem("ode { x' = 1 + x^2 }  goal { x >= 2 }")
    traj = sim.integrate(pf.system, {"x": 0.0}, 10.0, stop_on_event=False)
    t_blow = traj.event_time(sim.BLOWUP_SUSPECTED)
    assert t_blow is not None and abs(t_blow - math.pi / 2) < 1e-3


def test_integration_deterministic(alpha_n):
    a = sim.integrate(alpha_n.system, {"u": 1.0, "v": 0.0}, 1.0, goal=alpha_n.goal)
    b = sim.integrate(alpha_n.system, {"u": 1.0, "v": 0.0}, 1.0, goal=alpha_n.goal)
    assert [s.time for s in a.samples] == [s.time for s in b.samples]
    assert a.events == b.events


def test_goal_never_follows_domain_exit_with_stop():
    pf = parse_problem(
        "ode { x' = 1 }  domain { x <= 1 }  assume { x = 0 }  goal { x >= 2 }"
    )
    traj = sim.integrate(pf.system, {"x": 0.0}, 5.0, goal=pf.goal, stop_on_event=True)
    kinds = [k for _, k in traj.events]
    assert sim.DOMAIN_EXITED in kinds
    assert sim.GOAL_ENTERED not in kinds


def test_horizon_event():
    pf = parse_problem("ode { x' = 1 }  goal { x >= 100 }")
    traj = sim.integrate(pf.system, {"x": 0.0}, 1.0, goal=pf.goal, stop_on_event=False)
    assert traj.events[-1][1] == sim.HORIZON_REACHED


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


def test_ce2_domain_exit_at_goal_crossing():
    entry = next(e for e in sim.catalog() if e.id == "CE-2")
    pf = entry.problem()
    traj = sim.integrate(pf.system, {"x": 0.0}, 5.0, goal=pf.goal, stop_on_event=True)
    t_exit = traj.event_time(sim.DOMAIN_EXITED)
    t_goal = traj.event_time(sim.GOAL_ENTERED)
    assert t_exit is not None and abs(t_exit - 1.0) < 1e-6
    assert t_goal is None or abs(t_goal - t_exit) < 1e-6


def test_ce4_blowup_before_goal():
    entry = next(e for e in sim.catalog() if e.id == "CE-4")
    pf = entry.problem()
    traj = sim.integrate(pf.system, {"x": 2.0, "t": 2.0}, 5.0, goal=pf.goal, stop_on_event=True)
    assert traj.event_time(sim.BLOWUP_SUSPECTED) is not None
    assert abs(traj.final().values["t"] - 2.5) < 1e-3


# -- Lie-derivative consistency -------------------------------------------------------


def test_lie_consistency_alpha_l(alpha_l):
    p = parse_poly("u^2 + v^2")
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 1.0, grid=1e-4, stop_on_event=False)
    out = sim.lie_consistency_check(p, alpha_l.system, traj, 1e-4)
    assert out["max_error"] <= 1e-5


def test_lie_consistency_constant_is_exact():
    pf = parse_problem("param c;  ode { x' = 1 }  assume { c = 1 }  goal { x >= 1 }")
    traj = sim.integrate(pf.system, {"x": 0.0, "c": 1.0}, 0.1, grid=1e-3, stop_on_event=False)
    out = sim.lie_consistency_check(Polynomial.var("c"), pf.system, traj, 1e-3)
    assert out["max_error"] <= 1e-12


def test_lie_consistency_clock_unit_rate(alpha_l):
    clocked = alpha_l.system.with_clock("_t")
    traj = sim.integrate(clocked, {"u": 1.0, "v": 0.0, "_t": 0.0}, 0.5, grid=1e-3, stop_on_event=False)
    out = sim.lie_consistency_check(Polynomial.var("_t"), clocked, traj, 1e-3)
    assert out["max_error"] <= 1e-10


def test_lie_consistency_insufficient_samples(alpha_l):
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 1.0, stop_on_event=False)
    with pytest.raises(InsufficientSamples):
        sim.lie_consistency_check(parse_poly("u"), alpha_l.system, traj, 1e-6)


@pytest.mark.parametrize("h,bound", [(1e-3, 1e-3), (1e-4, 1e-5)])
def test_lie_consistency_tolerance_at_steps(alpha_l, h, bound):
    p = parse_poly("u^2 + v^2")
    traj = sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 1.0, grid=h, stop_on_event=False)
    out = sim.lie_consistency_check(p, alpha_l.system, traj, h)
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


def test_plan_is_tied_to_its_system_and_goal(alpha_l):
    plan = sim.Plan(alpha_l.system, alpha_l.goal)
    with pytest.raises(ValueError):
        sim.integrate(alpha_l.system, {"u": 1.0, "v": 0.0}, 1.0, goal=None, plan=plan)
