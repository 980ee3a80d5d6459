"""The falsifier's compiled evaluation against tree-walking references.

`eval_state` and `eval_state_boundary` below are the interpreters `sim`
used before its goal and domain work was compiled, and `_dp_step` (in
`conftest`) is one Dormand-Prince trial written out plainly from the
method's tableau; they stay as the specification.  The compiled functions
must agree on every truth value and produce bit-identical floats (atom
values may differ only in the sign of a zero).
"""

import gc
import itertools
import math
import os
import re
import struct
import subprocess
import sys
import weakref
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness import sim
from odeliveness.codegen import SUM_CHUNK, build, poly_src, returning
from odeliveness.normal import norm_atom
from odeliveness.symbolic import OdeSystem, Polynomial
from odeliveness.syntax import TRUE, And, BoolLit, Cmp, Formula, Or, negate, parse_problem

from conftest import ROOT, _dp_step, eval_float, problem_path

# -- references --------------------------------------------------------------


def cmps_of(f: Formula) -> list:
    """The comparisons of a formula, left to right."""
    if isinstance(f, Cmp):
        return [f]
    if isinstance(f, (And, Or)):
        return cmps_of(f.left) + cmps_of(f.right)
    return []


def eval_state(f: Formula, vals: dict, eq_tol: float = 1e-9) -> bool:
    """Float truth with absolute tolerance on equalities, none on strict atoms."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Cmp):
        d = eval_float(f.lhs - f.rhs, vals)
        if f.op == "=":
            return abs(d) <= eq_tol
        if f.op == "!=":
            return abs(d) > eq_tol
        return {"<": d < 0, "<=": d <= 0, ">": d > 0, ">=": d >= 0}[f.op]
    if isinstance(f, And):
        return eval_state(f.left, vals, eq_tol) and eval_state(f.right, vals, eq_tol)
    if isinstance(f, Or):
        return eval_state(f.left, vals, eq_tol) or eval_state(f.right, vals, eq_tol)
    raise TypeError(f"cannot evaluate {f!r} numerically")


def eval_state_boundary(f: Formula, vals: dict, margin: float = 1e-9) -> bool:
    """Truth at a located event point: strict atoms need a positive margin,
    non-strict atoms hold on their boundary."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Cmp):
        d = eval_float(f.lhs - f.rhs, vals)
        if f.op == "=":
            return abs(d) <= margin
        if f.op == "!=":
            return abs(d) > margin
        if f.op == "<":
            return d < -margin
        if f.op == ">":
            return d > margin
        if f.op == "<=":
            return d <= margin
        return d >= -margin
    if isinstance(f, And):
        return eval_state_boundary(f.left, vals, margin) and eval_state_boundary(f.right, vals, margin)
    if isinstance(f, Or):
        return eval_state_boundary(f.left, vals, margin) or eval_state_boundary(f.right, vals, margin)
    raise TypeError(f"cannot evaluate {f!r} numerically")


def eval_limit(f: Formula, lo: dict, hi: dict, eq_tol: float = 1e-9) -> bool:
    """Truth where a bisection bracket [lo, hi] closes in: atoms whose
    polynomial changes sign across it are on their boundary."""
    if isinstance(f, Cmp):
        p = f.lhs - f.rhs
        if eval_float(p, lo) * eval_float(p, hi) <= 0:
            return f.op in ("<=", ">=", "=")
        return eval_state(f, hi, eq_tol)
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, And):
        return eval_limit(f.left, lo, hi, eq_tol) and eval_limit(f.right, lo, hi, eq_tol)
    if isinstance(f, Or):
        return eval_limit(f.left, lo, hi, eq_tol) or eval_limit(f.right, lo, hi, eq_tol)
    raise TypeError(f"cannot evaluate {f!r} numerically")


def rhs_reference(system: OdeSystem, par: dict):
    """The right-hand side as `sim` generates it: terms in
    `sorted_terms` order, `c*x**e*...`, summed left to right."""
    names = system.state_names()

    def f(*y):
        point = dict(zip(names, y), **par)
        out = []
        for v in names:
            total = None
            p = system.rhs_of(v)
            for m, c in p.sorted_terms():
                term = float(Fraction(c, p.den))
                for var, e in m:
                    term = term * (point[var] if e == 1 else point[var] ** e)
                total = term if total is None else total + term
            out.append(0.0 if total is None else total)
        return tuple(out)

    def fwrapped(*y):
        try:
            return f(*y)
        except OverflowError:
            return tuple(math.inf for _ in y)

    return fwrapped


def reference_integrate(plan, init, horizon, stop_on_event, max_steps, screened):
    """The stepping loop `sim.integrate` ran in Python before its steps
    moved into a generated kernel, with each trial taken by `_dp_step` over
    `rhs_reference` and the plan's compiled atom vector and predicates.  It
    appends to `screened` the step count of every step that may carry an
    event: a non-finite or blown-up result, no atom vector, goal entry,
    domain exit or an atom whose value changes sign.  At the step cap it
    records the stop instead of a `HorizonReached` event.  Returns (rows,
    events, closed, stats, stopped)."""
    system, goal = plan.system, plan.goal
    par = {p: float(init[p]) for p in plan.pnames}
    c = plan.bind(tuple(par[p] for p in plan.pnames))
    f = rhs_reference(system, par)

    def finite(y):
        return all(math.isfinite(v) for v in y)

    def norm(y):
        return max(abs(v) for v in y)

    atoms = c.atoms
    y = tuple(float(init[n]) for n in plan.names)
    t = 0.0
    rows = [(t, y)]
    events, closed = [], {}
    stats = {"steps": 0, "rejected": 0, "min_h": math.inf}
    A = atoms(y)
    if A is None:
        return rows, events, closed, stats, (t, sim.ATOMS_UNDEFINED)
    goal_now = goal is not None and c.goal(A)
    domain_now = c.domain(A) or c.domain(sim._on_boundary(A))
    if goal_now and domain_now:
        events.append((0.0, sim.GOAL_ENTERED))
        closed[sim.GOAL_ENTERED] = True
        if stop_on_event:
            return rows, events, closed, stats, None
    if not domain_now:
        events.append((0.0, sim.DOMAIN_EXITED))
        closed[sim.DOMAIN_EXITED] = False
        if stop_on_event:
            return rows, events, closed, stats, None
    candidates = {}

    def offer(kind, tau, is_closed):
        if kind not in candidates or tau < candidates[kind][0]:
            candidates[kind] = (tau, is_closed)

    def bracket(test):
        tau, y_lo, y_hi = sim._locate(
            c.bisect, lambda yy: (B := atoms(yy)) is not None and test(B), finite, t, h, y, y_new, ks
        )
        return tau, atoms(y_lo) or A, atoms(y_hi)

    k1 = f(*y)
    h = sim.H0
    while t < horizon and stats["steps"] < max_steps:
        h = min(h, horizon - t)
        while True:
            y_new, err, k7, ks = _dp_step(f, y, h, k1)
            if not (finite(y_new) and err == err):
                err = math.inf
            scale = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (sim.TOL / err) ** 0.2))
            if err <= sim.TOL or h <= sim.HMIN:
                break
            h = max(h * scale, sim.HMIN)
            stats["rejected"] += 1
        stats["steps"] += 1
        stats["min_h"] = min(stats["min_h"], h)
        t_new = t + h
        if not finite(y_new) or norm(y_new) > sim.BLOWUP_NORM:
            screened.append(stats["steps"])
            tau, _, y_hit = sim._locate(c.bisect, lambda yy: norm(yy) > sim.BLOWUP_NORM, finite, t, h, y, y_new, ks)
            rows.append((tau, y_hit))
            events.append((tau, sim.BLOWUP_SUSPECTED))
            return rows, events, closed, stats, None
        A_new = atoms(y_new)
        if A_new is None:
            screened.append(stats["steps"])
            return rows, events, closed, stats, (t_new, sim.ATOMS_UNDEFINED)
        goal_new = goal is not None and c.goal(A_new)
        domain_new = c.domain(A_new)
        if (goal_new and not goal_now) or (domain_now and not domain_new) or any(
            d0 * d1 < 0.0 for d0, d1 in zip(A, A_new)
        ):
            screened.append(stats["steps"])
        candidates.clear()
        if goal is not None:
            if goal_new and not goal_now:
                tau, L, H = bracket(c.goal)
                offer(sim.GOAL_ENTERED, tau, c.goal(sim._at_limit(L, H)))
            goal_now = goal_new
        if not domain_new and domain_now:
            tau, L, H = bracket(lambda B: not c.domain(B))
            offer(sim.DOMAIN_EXITED, tau, c.domain(sim._at_limit(L, H)))
        domain_now = domain_new
        for i, (d0, d1) in enumerate(zip(A, A_new)):
            if not (math.isfinite(d0) and math.isfinite(d1)) or d0 * d1 >= 0:
                continue
            tau, L, H = bracket(lambda B, _i=i, _s=d0 > 0: (B[_i] > 0) != _s)
            if i in plan.domain_entries and not c.domain(sim._on_boundary(H)):
                offer(sim.DOMAIN_EXITED, tau, c.domain(sim._at_limit(L, H)))
            if i in plan.goal_entries and not goal_now and c.goal(sim._at_limit(L, H)):
                offer(sim.GOAL_ENTERED, tau, True)
        step_events = sorted(candidates.items(), key=lambda e: (e[1][0], e[0] != sim.DOMAIN_EXITED))
        for kind, (tau, is_closed) in step_events:
            events.append((tau, kind))
            closed.setdefault(kind, is_closed)
        rows.append((t_new, y_new))
        y, t, k1, A = y_new, t_new, k7, A_new
        if stop_on_event and step_events:
            return rows, events, closed, stats, None
        h = min(max(h * scale, sim.HMIN), sim.H0 * 4)
    if t < horizon:
        return rows, events, closed, stats, (t, sim.STEP_CAP)
    events.append((t, sim.HORIZON_REACHED))
    return rows, events, closed, stats, None


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same_float(a: float, b: float, signed_zero: bool = True) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return bits(a) == bits(b) or (not signed_zero and a == b == 0.0)


# -- strategies ----------------------------------------------------------------

STATE = ("x", "y")
PARAM = "c"
CLOCK = "_t"

coefficients = st.sampled_from([Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)])


def polys(names, min_terms=0):
    term = st.tuples(coefficients, st.lists(st.sampled_from(names), max_size=3))

    def build(terms):
        p = Polynomial.const(0)
        for c, factors in terms:
            t = Polynomial.const(c)
            for v in factors:
                t = t * Polynomial.var(v)
            p = p + t
        return p

    return st.lists(term, min_size=min_terms, max_size=4).map(build)


def formulas(names):
    """Formulas as the parser builds them: `!a` is `negate(a)` and `a -> b`
    is `negate(a) | b`."""
    atoms = st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), polys(names), polys(names))
    leaves = atoms | st.sampled_from([BoolLit(True), BoolLit(False)])
    return st.recursive(
        leaves,
        lambda sub: st.builds(negate, sub)
        | st.builds(And, sub, sub)
        | st.builds(Or, sub, sub)
        | st.builds(lambda a, b: Or(negate(a), b), sub, sub),
        max_leaves=5,
    )


# exact small dyadics put many atoms exactly on their boundary
values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.5, 3.0, 1e-10]) | st.floats(-4, 4)
ALL = STATE + (PARAM, CLOCK)
systems = st.builds(
    lambda rhs, domain: OdeSystem(STATE, tuple(rhs), domain, frozenset({PARAM}), CLOCK),
    st.lists(polys(STATE + (PARAM,)), min_size=2, max_size=2),
    formulas(ALL),
)


# -- properties ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(systems, formulas(ALL), st.lists(values, min_size=4, max_size=4), st.lists(values, min_size=4, max_size=4))
def test_compiled_predicates_match_references(system, goal, point, other):
    plan = sim.Plan(system, goal)
    c = plan.bind((point[2],))
    y = (point[0], point[1], point[3])  # x, y, then the clock
    y_lo = (other[0], other[1], other[3])
    vals = dict(zip(("x", "y", CLOCK), y), c=point[2])
    lo = dict(zip(("x", "y", CLOCK), y_lo), c=point[2])
    A, L = c.atoms(y), c.atoms(y_lo)
    for f, state in ((system.domain, c.domain), (goal, c.goal)):
        assert state(A) == eval_state(f, vals)
        assert state(sim._at_limit(L, A)) == eval_limit(f, lo, vals)
    assert c.domain(sim._on_boundary(A)) == eval_state_boundary(system.domain, vals)
    cmps = cmps_of(system.domain) + cmps_of(goal)
    diffs = list(dict.fromkeys(f.lhs - f.rhs for f in cmps))  # one entry per distinct polynomial
    assert len(A) == len(diffs)
    for value, diff in zip(A, diffs):
        assert same_float(value, eval_float(diff, vals), signed_zero=False)
    # the sampler's predicate, over the normalised atoms of the goal's comparisons
    names = ("x", "y", PARAM, CLOCK)
    atoms = [norm_atom(f) for f in cmps_of(goal)]
    if atoms:
        pred = sim._predicate(atoms, names)
        assert pred(tuple(point)) == all(eval_state(a.to_formula(), dict(zip(names, point))) for a in atoms)


big = st.sampled_from([1e100, -1e103, 1e160, math.inf]) | values


@settings(max_examples=200, deadline=None)
@given(systems, st.lists(big, min_size=4, max_size=4), st.sampled_from([1e-3, 0.01, 0.5, 2.0]))
def test_compiled_dp_step_is_bit_identical(system, point, h):
    # the kernel's trial, as one step towards the horizon h: whether the
    # first trial of h is accepted, which its error decides, and the
    # accepted trial's result and last stage, at the step's h (one step, so
    # the smallest)
    par = point[2]
    y = (point[0], point[1], point[3])
    plan = sim.Plan(system)
    c = plan.bind((par,))
    f = rhs_reference(system, {PARAM: par})
    k1 = f(*y)
    assert all(same_float(a, b) for a, b in zip(c.f(*y), k1))
    first_y1, first_err, _, _ = _dp_step(f, y, h, k1)
    if not (all(map(math.isfinite, first_y1)) and first_err == first_err):
        first_err = math.inf

    # an atom vector of NaNs before the step, whose products are never
    # below 0.0, and neither goal nor domain holding there, so only a
    # blow-up or undefined atoms hand the step back
    stats = {"steps": 0, "rejected": 0, "min_h": math.inf}
    A = (math.nan,) * plan.shape[2]
    _, y1, k7, *_, step = c.advance(0.0, y, h, k1, A, False, False, h, 1, [], stats)
    if step is not None:
        y1, k7 = step[2], step[3]
    assert stats["steps"] == 1 and len(y1) == len(y)
    assert (stats["rejected"] == 0) == (first_err <= sim.TOL or h <= sim.HMIN), (stats, first_err)
    want_y1, _, want_k7, _ = _dp_step(f, y, stats["min_h"], k1)
    assert all(same_float(a, b) for a, b in zip(y1, want_y1)), (y1, want_y1)
    assert all(same_float(a, b) for a, b in zip(k7, want_k7)), (k7, want_k7)


def test_generated_max_is_the_builtin_max():
    # the trial's error and `norm` are comparison chains, not calls of `max`;
    # for dimensions 1-4 each returns the float `max` returns, with NaN in
    # every position and ties between 0.0 and -0.0
    values = (0.0, -0.0, math.nan, 1.0)
    for n in range(1, 5):
        names = [f"x{i}" for i in range(n)]
        chain = build("\n".join(sim._def("_m", ", ".join(names), *sim._max_lines("m", names), "return m")), "_m")
        stages = ", ".join(f"a{i}, k1_{i}" for i in range(n))
        trial = build("\n".join(sim._def("_trial", f"f, h, {stages}", *sim._trial(n, {}), "return err")), "_trial")
        norm = sim._kernel(n, (), 0, True).norm
        for point in itertools.product(values, repeat=n):
            assert same_float(chain(*point), max(point)), point
            assert same_float(norm(point), max(abs(v) for v in point)), point
            # y' = y from 1.0 with k1 = point: a NaN in k1 is NaN in every
            # stage of its component, and so in that entry of the error
            y = (1.0,) * n
            got = trial(lambda *a: a, 0.5, *itertools.chain(*zip(y, point)))
            assert same_float(got, _dp_step(lambda *a: a, y, 0.5, point)[1]), point


# constant right-hand sides, which the stepping kernel folds into its trial
constants = st.sampled_from([Polynomial.const(0), Polynomial.const(1), Polynomial.const(Fraction(-3, 7))])


@st.composite
def small_problems(draw):
    """A system of 1-3 variables and a parameter, with a domain (possibly
    `true`), a goal and an initial point.  Each right-hand side has a term
    or is a constant, and the point lies in the domain and off the goal
    (each drawn formula negated where needed), so that events come after
    the first state."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    scope = names + (PARAM,)
    rhs = draw(st.lists(polys(scope, 1) | constants, min_size=len(names), max_size=len(names)))
    domain, goal = draw(formulas(scope) | st.just(TRUE)), draw(formulas(scope))
    init = dict(zip(scope, draw(st.lists(values, min_size=len(scope), max_size=len(scope)))))
    if not eval_state(domain, init):
        domain = negate(domain)
    if eval_state(goal, init):
        goal = negate(goal)
    return OdeSystem(names, tuple(rhs), domain, frozenset({PARAM})), goal, init


def hexes(floats) -> list:
    return [v.hex() for v in floats]


def assert_kernel_matches_the_reference_loop(system, goal, init, horizon, stop_on_event):
    """`integrate` takes the same steps, bit for bit, as the Python loop it
    replaced, and its kernel hands back exactly the steps that may carry an
    event.  A small step cap keeps every case short and reaches the cap."""
    plan = sim.Plan(system, goal)
    exits, screened = [], []
    bind = plan.bind

    def recording_bind(par):
        c = bind(par)
        advance = c.advance

        def recorded(*args):
            out = advance(*args)
            if out[-1] is not None:
                exits.append(args[-1]["steps"])
            return out

        c.advance = recorded
        return c

    cap, sim.MAX_STEPS = sim.MAX_STEPS, 300
    try:
        want = reference_integrate(plan, init, horizon, stop_on_event, 300, screened)
        plan.bind = recording_bind
        traj = sim.integrate(plan, init, horizon, stop_on_event)
    finally:
        sim.MAX_STEPS = cap
    rows, events, closed, stats, stopped = want
    assert [(t.hex(), k) for t, k in traj.events] == [(t.hex(), k) for t, k in events]
    assert traj.closed == closed
    assert traj.stopped == stopped
    assert (traj.stats["steps"], traj.stats["rejected"]) == (stats["steps"], stats["rejected"])
    assert traj.stats["min_h"].hex() == stats["min_h"].hex()
    assert [(t.hex(), hexes(y)) for t, y in traj.rows] == [(t.hex(), hexes(y)) for t, y in rows]
    assert exits == screened


@settings(max_examples=200, deadline=None)
@given(small_problems(), st.sampled_from([0.5, 2.0]), st.booleans())
def test_kernel_matches_the_reference_loop(problem, horizon, stop_on_event):
    system, goal, init = problem
    assert_kernel_matches_the_reference_loop(system, goal, init, horizon, stop_on_event)


def test_a_folded_constant_component_meets_overflow_as_the_unfolded_trial_does():
    # t' = 1 is folded into the trial, which holds only while each stage of
    # t is 1.0.  From x = 30 a stage of x' = t*x^9 overflows, which makes
    # that whole stage infinite; from x = 1e200, x^2 overflows at the first
    # state, so k1 comes in infinite.  Either way the kernel takes the trial
    # again unfolded and keeps the reference's floats
    cases = [
        ("ode { x' = t*x^9; t' = 1 }  goal { x >= 1000 }", {"x": 30.0, "t": 1.0}, ((1, 1.0),)),
        ("ode { x' = x^2; t' = 1 }  goal { t >= 1 }", {"x": 1e200, "t": 0.0}, ((1, 1.0),)),
        # a constant whose stage sums overflow (one is inf - inf) is not folded
        ("ode { x' = 10^308; t' = 1 }  goal { t >= 1 }", {"x": 0.0, "t": 0.0}, ((0, 1e308), (1, 1.0))),
    ]
    for src, init, consts in cases:
        pf = parse_problem(src)
        assert sim.Plan(pf.system, pf.goal).shape[1] == consts
        for stop_on_event in (True, False):
            assert_kernel_matches_the_reference_loop(pf.system, pf.goal, init, 2.0, stop_on_event)


def test_sign_change_screen_reads_every_entry():
    # the kernel's screen is written out over the atom vector's entries: a
    # step hands back exactly when the zip loop it replaced would, with 0, 1
    # and 4 entries, NaN, infinities and signed zeros in the vector before
    # the step and a NaN entry after it (1e308*x^2 - 1e308*x^3 at x = 10 is
    # inf - inf)
    x = Polynomial.var("x")
    entries = [x - 20, x + 2, 10**308 * x**2 - 10**308 * x**3, x]
    values = (1.0, -1.0, 0.0, -0.0, math.nan, math.inf, -math.inf)
    for m in (0, 1, 4):
        goal = None
        for p in entries[:m]:
            atom = Cmp(">=", p, Polynomial.const(0))
            goal = atom if goal is None else Or(goal, atom)
        plan = sim.Plan(OdeSystem(("x",), (Polynomial.const(1),)), goal)
        assert plan.shape == (1, ((0, 1.0),), m, True)
        c = plan.bind(())
        y, h = (10.0,), 0.01

        def step(A):
            # one step of h from y, with the goal holding before it
            stats = {"steps": 0, "rejected": 0, "min_h": math.inf}
            return c.advance(0.0, y, h, c.f(*y), A, True, True, h, 1, [], stats)

        A1 = c.atoms(step((math.nan,) * m)[1])
        assert m < 3 or math.isnan(A1[2])
        for A in itertools.product(values, repeat=m):
            assert (step(A)[-1] is not None) == any(a * b < 0.0 for a, b in zip(A, A1)), A


def test_only_a_source_with_a_power_catches_overflow():
    # a float +, - or * gives an infinity rather than raising, so a plan with
    # no power compiles no handler; where a power overflows, the stage is
    # infinite in every component and the state has no atom vector
    pf = parse_problem("param c; ode { x' = c*y - x; y' = -x + 1 }  domain { x + y <= 3 }  goal { x*y >= 1 }")
    plan = sim.Plan(pf.system, pf.goal)
    src = plan._source(pf.system.domain)
    assert "try" not in src and "OverflowError" not in src
    c = plan.bind((2.0,))
    assert c.f(1e308, 1e308) == (math.inf, -1e308)
    assert c.atoms((1e308, 1e308)) == (math.inf, math.inf)
    pf = parse_problem("ode { x' = x^2; t' = 1 }  goal { t^2 >= 1 }")
    plan = sim.Plan(pf.system, pf.goal)
    assert plan._source(TRUE).count("except OverflowError") == 2
    c = plan.bind(())
    assert c.f(2.0, 1e200) == (4.0, 1.0) and c.f(1e200, 2.0) == (math.inf, math.inf)
    assert c.atoms((1e200, 2.0)) == (3.0,) and c.atoms((2.0, 1e200)) is None
    assert returning("(a0 * a1, )", "None") == ["return (a0 * a1, )"]


def test_a_fresh_process_compiles_one_stepping_kernel_per_plan_shape():
    # ce1 has one shape; the catalog's four entries have three, as CE-1 and
    # CE-4 share (2, ((1, 1.0),), 1, True): a clock, one goal entry, no domain
    code = "import sys; from odeliveness import cli, sim; cli.main(sys.argv[1:]); print(sim._kernel.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, kernels in ((["falsify", str(problem_path("ce1.ode"))], 1), (["catalog"], 3)):
        out = subprocess.run([sys.executable, "-c", code, *argv, "--samples", "2"], capture_output=True,
                             text=True, check=True, env=env, timeout=120).stdout
        assert out.splitlines()[-1] == str(kernels), (argv, out)


def test_compiled_atoms_at_exact_tolerance_edges():
    # values at, inside and outside the 1e-9 equality tolerance and margin,
    # and infinities and NaN, which are never on a boundary
    system = OdeSystem(("x",), (Polynomial.const(1),))
    x = Polynomial.var("x")
    edges = [0.0, -0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, math.inf, -math.inf, math.nan]
    for op in ("=", "!=", "<", "<=", ">", ">="):
        f = Cmp(op, x, Polynomial.const(0))
        c = sim.Plan(system, f).bind(())
        d = sim.Plan(OdeSystem(("x",), (Polynomial.const(1),), f)).bind(())
        for v in edges:
            vals = {"x": v}
            assert c.goal(c.atoms((v,))) == eval_state(f, vals), (op, v)
            assert d.domain(sim._on_boundary(d.atoms((v,)))) == eval_state_boundary(f, vals), (op, v)
            for w in edges:
                assert c.goal(sim._at_limit(c.atoms((w,)), c.atoms((v,)))) == eval_limit(f, {"x": w}, vals), (op, w, v)


def test_plan_renders_each_atom_polynomial_once():
    # the atom vector is the only place an atom's difference polynomial is
    # rendered: the domain and goal predicates read its entries, and each
    # formula has one predicate, which also gives its truth at an event
    # point and at a bracket's limit
    pf = parse_problem(
        "param c; ode { x' = y; y' = -x }  domain { x^3 + 7*y <= 5 & !(c*y^2 > -3) }"
        "  goal { x^5*y = 11 | (x^3 + 7*y >= 2 -> c*x != 13) }"
    )
    plan = sim.Plan(pf.system, pf.goal)
    src = plan._source(pf.system.domain)

    def ref(v):
        return f"p{plan.pnames.index(v)}" if v in plan.pnames else f"a{plan.names.index(v)}"

    cmps = cmps_of(pf.system.domain) + cmps_of(pf.goal)
    assert len(cmps) == 5
    for c in cmps:
        diff = poly_src(c.lhs - c.rhs, ref)
        assert src.count(diff) == 1, diff
    assert re.findall(r"^ *def (\w+)", src, re.M) == ["f", "atoms", "domain", "goal"]
    # the stepping kernel holds the only Dormand-Prince trial
    assert sorted(vars(sim._kernel(*plan.shape))) == ["advance_over", "bisect", "finite", "norm"]


def test_a_sum_of_thousands_of_terms_compiles_and_keeps_its_order():
    # CPython's compiler recurses once per `+` of a flat chain and overflows
    # near 3,000 terms at the default recursion limit; a longer sum is added
    # up chunk by chunk, and its float is the chain's, summed left to right
    rng = Random(7)
    monos = [((("x", i),) if i else ()) + ((("y", j),) if j else ()) + ((("z", k),) if k else ())
             for i in range(39) for j in range(39 - i) for k in range(39 - i - j)]
    p = Polynomial({m: Fraction(rng.randint(-999, 999) or 1, rng.randint(1, 999)) for m in monos})
    assert len(p.terms) == 10660 > SUM_CHUNK
    src = poly_src(p, lambda v: v)
    f = build(f"def _f(x, y, z):\n    return {src}\n", "_f")
    point = {"x": 0.99, "y": 1.01, "z": -0.97}
    assert f(*point.values()) == eval_float(p, point)


def test_built_function_is_freed_without_the_cycle_collector():
    # a generated function and the globals that hold its data form no cycle,
    # so per-call compilations (a plan, a sampler screen) do not pile up
    # until the next collection
    f = build("def _f(i):\n    return _data[i]\n", "_f", {"_data": [1.0, 2.0]})
    assert f(1) == 2.0
    ref = weakref.ref(f)
    gc.disable()
    try:
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_each_binding_executes_the_plan_code_into_globals_of_its_own():
    # a plan compiles its source once; each binding executes that code into
    # new globals that hold its parameter values, so bindings share only the
    # code, and a binding is freed without the cycle collector
    pf = parse_problem("param c; ode { x' = c*y; y' = -x }  goal { x >= c }")
    plan = sim.Plan(pf.system, pf.goal)
    a, b = plan.bind((2.0,)), plan.bind((3.0,))
    assert a.f is not b.f and a.f.__code__ is b.f.__code__ and a.f.__globals__ is not b.f.__globals__
    assert a.f(1.0, 1.0) == (2.0, -1.0) and b.f(1.0, 1.0) == (3.0, -1.0)
    assert a.goal(a.atoms((2.5, 0.0))) and not b.goal(b.atoms((2.5, 0.0)))
    assert a.values((1.0, 1.0)) == {"x": 1.0, "y": 1.0, "c": 2.0} and b.values((1.0, 1.0))["c"] == 3.0
    ref = weakref.ref(a.f)
    gc.disable()
    try:
        del a
        assert ref() is None
    finally:
        gc.enable()


def test_each_falsify_call_integrates_its_own_trajectories(monkeypatch):
    # nothing is kept across calls: ce1's two samples share one pinned
    # initial state, so each call integrates exactly one trajectory
    pf = parse_problem(problem_path("ce1.ode").read_text())
    integrated = []
    integrate = sim.integrate

    def counted(plan, init, horizon, *args):
        integrated.append(plan)
        return integrate(plan, init, horizon, *args)

    monkeypatch.setattr(sim, "integrate", counted)
    reports = [sim.falsify_liveness(pf, samples=2, seed=11) for _ in range(2)]
    assert len(integrated) == 2 and integrated[0] is not integrated[1]
    first, second = (r.results[0].trajectory for r in reports)
    assert first is not second and first.rows == second.rows
    assert [r.summary() for r in reports] == ["samples=2 WITNESS=0 REFUTED-SAMPLE=0 BLOWUP=2 INCONCLUSIVE=0"] * 2
