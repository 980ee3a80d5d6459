"""Numeric semantics: trajectory integration, falsification, counterexamples.

Trajectories are integrated with classic fourth-order Runge-Kutta under
step-halving error control; goal entry, domain exit and suspected blow-up
are located by bisection.  Equalities are evaluated at floats with a 1e-9
absolute tolerance, strict comparisons with none; every event records the
time found by bisection.  A goal entry and a domain exit located at the same
point reach the goal when that point lies in both sets, that is, when the
goal was entered and the domain left through non-strict atoms.

Each system and goal is compiled to Python once (`Plan`), and trajectories
are bit-identical however often a plan is reused.

Blow-up is detected, not proved: the max-norm threshold (default 1e9)
combined with step-size collapse yields a BlowUpSuspected event.

The built-in catalog reproduces four soundness counterexamples against the
uncorrected side conditions of the derived rules; `run_catalog` checks that
each certificate is refused at the expected gate and that the falsifier
observes the expected trajectory behavior.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace
from typing import Callable, Optional

from .codegen import build, formula_src, poly_src
from .errors import InsufficientSamples, InvalidArgument, RuleRefused, UnsamplableInitSet
from .normal import atoms_of
from .symbolic import OdeSystem, Polynomial, lie_derivative
from .syntax import (
    TRUE,
    And,
    Cmp,
    Formula,
    Implies,
    Not,
    Or,
    ProblemFile,
    parse_problem,
    print_formula,
)

GOAL_ENTERED = "GoalEntered"
DOMAIN_EXITED = "DomainExited"
BLOWUP_SUSPECTED = "BlowUpSuspected"
HORIZON_REACHED = "HorizonReached"

WITNESS = "WITNESS"
REFUTED = "REFUTED-SAMPLE"
BLOWUP = "BLOWUP"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class IntegratorConfig:
    tol: float = 1e-9
    h0: float = 1e-2
    hmin: float = 1e-12
    blowup: float = 1e9
    event_tol: float = 1e-9
    eq_tol: float = 1e-9
    max_steps: int = 2_000_000


@dataclass(frozen=True)
class State:
    values: dict
    time: float


@dataclass
class Trajectory:
    samples: list
    events: list  # [(time, kind)]
    stats: dict = field(default_factory=dict)
    # kind -> whether the first event of that kind lies on a closed boundary:
    # the goal already holds at a GoalEntered point, the domain still holds
    # at a DomainExited point
    closed: dict = field(default_factory=dict)

    def final(self) -> State:
        return self.samples[-1]

    def event_time(self, kind) -> Optional[float]:
        for t, k in self.events:
            if k == kind:
                return t
        return None


# ---------------------------------------------------------------------------
# Compiled trajectory work
#
# A `Plan` compiles a system, its domain and a goal to Python once: the RK4
# step with its four stages inlined over the state tuple, float predicates
# for the goal and the domain, and an evaluator for each atom's difference
# polynomial.  Every float operation is fixed by the source, so trajectories
# do not depend on how often a plan is reused:
#
#   stage points  y + (0.5*h)*k1,  y + (0.5*h)*k2,  y + h*k3
#   result        y + (h/6.0)*(((k1 + 2*k2) + 2*k3) + k4)
#
# with right-hand sides summed in `Polynomial.sorted_terms` order and atom
# polynomials in `Polynomial.eval_float` order.  An OverflowError in a
# stage's right-hand side makes every component of that stage infinite.

_STRICT = frozenset(("<", ">", "!="))


def _atom_cmps(f: Formula) -> list:
    """Comparison atoms of the formula, left to right."""
    if isinstance(f, Cmp):
        return [f]
    if isinstance(f, Not):
        return _atom_cmps(f.arg)
    if isinstance(f, (And, Or, Implies)):
        return _atom_cmps(f.left) + _atom_cmps(f.right)
    return []


def _diff_src(f: Cmp, ref) -> str:
    return poly_src((f.lhs - f.rhs).terms.items(), ref)


def _state_atom(op: str, d: str) -> str:
    """Truth at a state: equalities within `_eq`, strict atoms exact."""
    if op == "=":
        return f"(abs({d}) <= _eq)"
    if op == "!=":
        return f"(abs({d}) > _eq)"
    return f"(({d}) {op} 0.0)"


def _boundary_atom(op: str, d: str) -> str:
    """Truth at a located event point: strict atoms need a positive margin,
    non-strict atoms hold on their boundary (closed sets contain limits,
    open ones do not)."""
    return {
        "=": f"(abs({d}) <= _margin)",
        "!=": f"(abs({d}) > _margin)",
        "<": f"({d} < -_margin)",
        ">": f"({d} > _margin)",
        "<=": f"({d} <= _margin)",
        ">=": f"({d} >= -_margin)",
    }[op]


def _limit_atom(op: str, d_lo: str, d_hi: str) -> str:
    """Truth at the point a bisection bracket [lo, hi] closes in on: an atom
    whose polynomial changes sign across the bracket is on its boundary,
    where non-strict atoms hold and strict ones fail; any other atom is read
    at hi."""
    crossed = f"({d_lo} * {d_hi} <= 0.0)"
    if op in _STRICT:
        return f"(not {crossed} and {_state_atom(op, d_hi)})"
    return f"({crossed} or {_state_atom(op, d_hi)})"


def _unpack(prefix: str, n: int, src: str) -> str:
    return "".join(f"{prefix}{i}, " for i in range(n)) + f"= {src}"


def _max_src(parts: list) -> str:
    return f"max({', '.join(parts)})" if len(parts) > 1 else parts[0]


def _predicate(f: Formula, names, eq_tol: float) -> Callable:
    """Truth of `f` at a float tuple over `names`, as a compiled function."""
    body = formula_src(f, lambda c: _state_atom(c.op, _diff_src(c, lambda v: f"a{names.index(v)}")))
    src = f"def _pred(y):\n    {_unpack('a', len(names), 'y')}\n    return {body}\n"
    return build(src, "_pred", {"_eq": eq_tol})


class Plan:
    """The compiled per-trajectory work of one system and goal.  Build it
    once and pass it to every `integrate` call on that system and goal;
    `bind` fixes one trajectory's parameter values and tolerances."""

    def __init__(self, system: OdeSystem, goal: Optional[Formula] = None):
        self.system = system
        self.goal = goal
        self.names = system.state_names()
        self.pnames = tuple(sorted(system.params))
        domain = system.domain if system.domain is not None else TRUE
        self.domain_atoms = len(_atom_cmps(domain))
        scope = {"_inf": math.inf, "isfinite": math.isfinite, "_ns": SimpleNamespace}
        self._bind = build(self._source(domain), "_bind", scope)

    def _source(self, domain: Formula) -> str:
        names, n = self.names, len(self.names)
        params = {p: f"p{j}" for j, p in enumerate(self.pnames)}

        def ref(prefix):
            return lambda v: params.get(v) or f"{prefix}{names.index(v)}"

        def fn(name, args, *body):
            return [f"    def {name}({args}):"] + [f"        {line}" for line in body]

        out = ["def _bind(_par, _eq, _margin):"]
        if params:
            out.append("    " + _unpack("p", len(params), "_par"))

        # step(y, h): one RK4 step
        rhs = [self.system.rhs_of(v).sorted_terms() for v in names]
        body = [_unpack("a", n, "y")]
        stages = (("k1", "a", "", ""), ("k2", "b", "k1", "hh"), ("k3", "c", "k2", "hh"), ("k4", "d", "k3", "h"))
        for k, point, prev, scale in stages:
            if prev == "k1":
                body.append("hh = 0.5 * h")
            if prev:
                body += [f"{point}{i} = a{i} + {scale} * {prev}_{i}" for i in range(n)]
            body.append("try:")
            body += [f"    {k}_{i} = {poly_src(terms, ref(point))}" for i, terms in enumerate(rhs)]
            body += ["except OverflowError:", "    " + "".join(f"{k}_{i} = " for i in range(n)) + "_inf"]
        body.append("h6 = h / 6.0")
        result = "".join(f"a{i} + h6 * (((k1_{i} + 2*k2_{i}) + 2*k3_{i}) + k4_{i}), " for i in range(n))
        body.append(f"return ({result})")
        out += fn("step", "y, h", *body)

        # finite(y), norm(y) (the max norm), error(f, g) (the largest
        # relative difference of two steps)
        out += fn("finite", "y", _unpack("a", n, "y"), "return " + " and ".join(f"isfinite(a{i})" for i in range(n)))
        out += fn("norm", "y", _unpack("a", n, "y"), "return " + _max_src([f"abs(a{i})" for i in range(n)]))
        error = _max_src([f"abs(a{i} - b{i}) / (1.0 + abs(b{i}))" for i in range(n)])
        out += fn("error", "f, g", _unpack("a", n, "f"), _unpack("b", n, "g"), "return " + error)

        # atoms(y): every atom's difference polynomial, domain then goal
        formulas = (("domain", domain), ("goal", self.goal))
        cmps = [c for _, f in formulas if f is not None for c in _atom_cmps(f)]
        diffs = [_diff_src(c, ref("a")) for c in cmps]
        out += fn("atoms", "y", _unpack("a", n, "y"), "return (" + "".join(f"{d}, " for d in diffs) + ")")

        # name(y), name_boundary(y), name_limit(lo, hi) for domain and goal;
        # formula_src visits comparisons in `_atom_cmps` order, so the k-th
        # one rendered is atom offset + k
        offset = 0
        for name, f in formulas:
            if f is None:
                out.append(f"    {name} = {name}_boundary = {name}_limit = None")
                continue

            def render(atom, f=f, offset=offset):
                k = itertools.count(offset)
                return formula_src(f, lambda c: atom(c.op, next(k)))

            out += fn(name, "y", _unpack("a", n, "y"), "return " + render(lambda op, k: _state_atom(op, diffs[k])))
            out += fn(
                f"{name}_boundary", "y", "A = atoms(y)", "return " + render(lambda op, k: _boundary_atom(op, f"A[{k}]"))
            )
            out += fn(
                f"{name}_limit",
                "lo, hi",
                "L, H = atoms(lo), atoms(hi)",
                "return " + render(lambda op, k: _limit_atom(op, f"L[{k}]", f"H[{k}]")),
            )
            offset += len(_atom_cmps(f))

        # values(y): the state and parameters by name
        keys = "".join(f"{v!r}: {ref('a')(v)}, " for v in names + self.pnames)
        out += fn("values", "y", _unpack("a", n, "y"), "return {" + keys + "}")
        fields = ["step", "finite", "norm", "error", "atoms", "values"]
        fields += [f"{g}{s}" for g, _ in formulas for s in ("", "_boundary", "_limit")]
        out.append("    return _ns(" + ", ".join(f"{f}={f}" for f in fields) + ")")
        return "\n".join(out) + "\n"

    def bind(self, par: tuple, eq_tol: float, margin: float) -> SimpleNamespace:
        """The compiled functions with parameters `par` (in `pnames` order),
        equality tolerance `eq_tol` and event-point margin `margin`."""
        return self._bind(par, eq_tol, margin)


# ---------------------------------------------------------------------------
# Integration


def integrate(
    system: OdeSystem,
    init: dict,
    horizon: float,
    cfg: Optional[IntegratorConfig] = None,
    goal: Optional[Formula] = None,
    stop_on_event: bool = True,
    grid: Optional[float] = None,
    plan: Optional[Plan] = None,
) -> Trajectory:
    """Integrate from `init` (covering variables and parameters) to `horizon`.

    Detects goal entry, domain exit and suspected blow-up; with `grid` set,
    integration switches to fixed steps landing exactly on multiples of
    `grid` (used by the Lie-derivative consistency check).  `plan`, a
    `Plan(system, goal)`, saves compiling it again for every call.
    """
    cfg = cfg or IntegratorConfig()
    if not 0 < horizon < math.inf:
        raise InvalidArgument(f"horizon must be positive and finite, got {horizon!r}")
    if plan is None:
        plan = Plan(system, goal)
    elif plan.system is not system or plan.goal is not goal:
        raise ValueError("plan was built for another system or goal")
    for n in plan.names + plan.pnames:
        if n not in init:
            raise UnsamplableInitSet(f"initial state missing '{n}'")
    c = plan.bind(tuple(float(init[p]) for p in plan.pnames), cfg.eq_tol, cfg.event_tol)
    step, finite, norm, atoms = c.step, c.finite, c.norm, c.atoms

    y = tuple(float(init[n]) for n in plan.names)
    t = 0.0
    samples = [State(c.values(y), t)]
    events: list = []
    closed: dict = {}
    stats = {"steps": 0, "rejected": 0, "min_h": math.inf}

    goal_now = c.goal(y) if goal is not None else False
    domain_now = c.domain(y)
    if goal is not None and goal_now and domain_now:
        events.append((0.0, GOAL_ENTERED))
        closed[GOAL_ENTERED] = True
        if stop_on_event:
            return Trajectory(samples, events, stats, closed)
    if not domain_now:
        events.append((0.0, DOMAIN_EXITED))
        closed[DOMAIN_EXITED] = False
        if stop_on_event:
            return Trajectory(samples, events, stats, closed)

    def locate(pred, y_lo, t_lo, t_hi):
        """Earliest time in (t_lo, t_hi] where pred flips to true, by
        bisection: (time, state at the bracket's start, state at time)."""
        lo, hi = t_lo, t_hi
        y_cur = y_lo
        while hi - lo > cfg.event_tol:
            mid = 0.5 * (lo + hi)
            y_mid = step(y_cur, mid - lo)
            if not finite(y_mid) or pred(y_mid):
                hi = mid
            else:
                lo, y_cur = mid, y_mid
        return hi, y_cur, step(y_cur, hi - lo)

    candidates: dict = {}  # the step's events: kind -> (time, closed)

    def offer(kind, tau, is_closed):
        if kind not in candidates or tau < candidates[kind][0]:
            candidates[kind] = (tau, is_closed)

    h = grid if grid is not None else cfg.h0
    d_old = None  # atom values at y
    while t < horizon and stats["steps"] < cfg.max_steps:
        h = min(h, horizon - t)
        if grid is not None:
            # land exactly on grid multiples, no adaptation
            k = round(t / grid)
            h = grid * (k + 1) - t if grid * (k + 1) - t > 1e-15 else grid
            y_new = step(y, h)
        else:
            while True:
                full = step(y, h)
                half = step(step(y, h / 2), h / 2)
                if not finite(full) or not finite(half):
                    err = math.inf
                else:
                    err = c.error(full, half)
                if err <= cfg.tol or h <= cfg.hmin:
                    y_new = half if finite(half) else full
                    break
                h /= 2
                stats["rejected"] += 1
        stats["steps"] += 1
        stats["min_h"] = min(stats["min_h"], h)
        t_new = t + h

        if not finite(y_new) or norm(y_new) > cfg.blowup:
            tau, _, y_hit = locate(lambda yy: norm(yy) > cfg.blowup, y, t, t_new)
            samples.append(State(c.values(y_hit), tau))
            events.append((tau, BLOWUP_SUSPECTED))
            return Trajectory(samples, events, stats, closed)

        candidates.clear()
        if goal is not None:
            goal_new = c.goal(y_new)
            if goal_new and not goal_now:
                tau, y_lo, y_hit = locate(c.goal, y, t, t_new)
                offer(GOAL_ENTERED, tau, c.goal_limit(y_lo, y_hit))
            goal_now = goal_new
        domain_new = c.domain(y_new)
        if not domain_new and domain_now:
            tau, y_lo, y_hit = locate(lambda yy: not c.domain(yy), y, t, t_new)
            offer(DOMAIN_EXITED, tau, c.domain_limit(y_lo, y_hit))
        domain_now = domain_new

        # atom boundary crossings inside the step: measure-zero domain
        # violations and equality-goal contacts that endpoint checks miss
        if d_old is None:
            d_old = atoms(y)
        d_new = atoms(y_new)
        for i, (d0, d1) in enumerate(zip(d_old, d_new)):
            if not (math.isfinite(d0) and math.isfinite(d1)) or d0 * d1 >= 0:
                continue
            tau, y_lo, y_hit = locate(lambda yy, _i=i, _s=d0 > 0: (atoms(yy)[_i] > 0) != _s, y, t, t_new)
            if i < plan.domain_atoms:
                if not c.domain_boundary(y_hit):
                    offer(DOMAIN_EXITED, tau, c.domain_limit(y_lo, y_hit))
            elif not goal_now and c.goal_boundary(y_hit):
                offer(GOAL_ENTERED, tau, c.goal_limit(y_lo, y_hit))
        d_old = d_new

        step_events = sorted(candidates.items(), key=lambda e: (e[1][0], e[0] != DOMAIN_EXITED))
        for kind, (tau, is_closed) in step_events:
            events.append((tau, kind))
            closed.setdefault(kind, is_closed)
        samples.append(State(c.values(y_new), t_new))
        y, t = y_new, t_new
        if stop_on_event and step_events:
            return Trajectory(samples, events, stats, closed)
        if grid is None and not stats["rejected"]:
            h = min(h * 2, cfg.h0 * 4, horizon)
        elif grid is None:
            h = min(h * 2, cfg.h0 * 4)

    events.append((t, HORIZON_REACHED))
    return Trajectory(samples, events, stats, closed)


# ---------------------------------------------------------------------------
# Initial-set sampling


def _circle_param(atom_poly: Polynomial) -> Optional[tuple]:
    """Match c1*x^2 + c2*y^2 - C = 0 with c1, c2 > 0 and C > 0."""
    if len(atom_poly.terms) != 3:
        return None
    const = atom_poly.coefficient(())
    rest = {m: c for m, c in atom_poly.terms.items() if m}
    if len(rest) != 2 or const >= 0:
        return None
    coords = []
    for m, c in rest.items():
        if len(m) != 1 or m[0][1] != 2 or c <= 0:
            return None
        coords.append((m[0][0], c))
    coords.sort()
    (x, cx), (yv, cy) = coords
    C = -const
    return x, math.sqrt(float(C / cx)), yv, math.sqrt(float(C / cy))


def sample_initial_states(problem: ProblemFile, count: int, seed: int) -> list:
    """Sample the assume-block set: pinned equalities, circles by angle, boxes
    by rejection (equalities within a 1e-9 band)."""
    from . import arith

    rng = Random(seed)
    names = list(problem.system.vars) + sorted(problem.system.params)
    atoms = []
    for f in problem.assumptions:
        a = atoms_of(f)
        if a is None:
            raise UnsamplableInitSet(f"cannot sample from disjunctive assumption {print_formula(f)}")
        atoms.extend(a)

    pinned: dict = {}
    circles = []
    leftovers = []
    for a in atoms:
        if a.op == "=":
            names_in = sorted(a.poly.variables())
            if len(names_in) == 1 and a.poly.degree() == 1:
                v = names_in[0]
                coef = a.poly.coefficient(((v, 1),))
                off = a.poly.coefficient(())
                pinned[v] = float(-off / coef)
                continue
            circ = _circle_param(a.poly)
            if circ is not None:
                circles.append(circ)
                continue
        leftovers.append(a)

    from .normal import formula_of_atoms

    box, _ = arith.extract_box(
        formula_of_atoms(leftovers) if leftovers else TRUE,
        tuple(n for n in names if n not in pinned),
    )

    free = [
        n
        for n in names
        if n not in pinned and not any(n in (c[0], c[2]) for c in circles)
    ]
    for n in free:
        if box is None or n not in box:
            if leftovers or circles or pinned:
                raise UnsamplableInitSet(f"no finite bounds for '{n}' in the assume block")
            raise UnsamplableInitSet("assume block is empty; nothing to sample")

    inside = _predicate(formula_of_atoms(leftovers), names, 1e-9) if leftovers else None
    out = []
    tries = 0
    while len(out) < count and tries < count * 200:
        tries += 1
        pt = dict(pinned)
        for (x, rx, yv, ry) in circles:
            th = 2 * math.pi * (len(out) / count if count > 1 else 0.5) if tries <= count else 2 * math.pi * rng.random()
            pt[x] = rx * math.cos(th)
            pt[yv] = ry * math.sin(th)
        for n in free:
            iv = box[n]
            pt[n] = float(iv.lo) + (float(iv.hi) - float(iv.lo)) * rng.random()
        if inside is None or inside(tuple(pt[n] for n in names)):
            out.append(pt)
    if len(out) < count:
        raise UnsamplableInitSet("rejection sampling failed to populate the initial set")
    return out


# ---------------------------------------------------------------------------
# Liveness falsification


@dataclass
class SampleResult:
    index: int
    classification: str
    t_event: Optional[float]
    final: State
    trajectory: Trajectory


@dataclass
class FalsifyReport:
    counts: dict
    results: list
    seed: int
    horizon: float

    def n(self, kind) -> int:
        return self.counts.get(kind, 0)

    def summary(self) -> str:
        parts = [f"{k}={self.counts.get(k, 0)}" for k in (WITNESS, REFUTED, BLOWUP, INCONCLUSIVE)]
        return f"samples={len(self.results)} " + " ".join(parts)


def classify(traj: Trajectory, tie_tol: float = 1e-6) -> tuple:
    """Classification per the reach-while-staying semantics."""
    t_goal = traj.event_time(GOAL_ENTERED)
    t_exit = traj.event_time(DOMAIN_EXITED)
    t_blow = traj.event_time(BLOWUP_SUSPECTED)
    if t_goal is not None and (t_exit is None or t_goal < t_exit - tie_tol):
        return WITNESS, t_goal
    # A tie is one point, in the goal and in the domain when both events
    # happened on closed boundaries (see `Trajectory.closed`).
    if (
        t_goal is not None
        and abs(t_goal - t_exit) <= tie_tol
        and traj.closed.get(GOAL_ENTERED)
        and traj.closed.get(DOMAIN_EXITED)
    ):
        return WITNESS, t_goal
    if t_exit is not None and (t_goal is None or t_exit <= t_goal + tie_tol):
        return REFUTED, t_exit
    if t_blow is not None:
        return BLOWUP, t_blow
    return INCONCLUSIVE, None


def falsify_liveness(
    problem: ProblemFile,
    samples: int = 64,
    seed: int = 0,
    horizon: float = 10.0,
    cfg: Optional[IntegratorConfig] = None,
) -> FalsifyReport:
    if problem.goal is None:
        raise UnsamplableInitSet("problem has no goal block")
    cfg = cfg or IntegratorConfig()
    inits = sample_initial_states(problem, samples, seed)
    plan = Plan(problem.system, problem.goal)
    results = []
    counts: dict = {}
    for i, init in enumerate(inits):
        traj = integrate(problem.system, init, horizon, cfg, goal=problem.goal, stop_on_event=True, plan=plan)
        cls, t_event = classify(traj)
        counts[cls] = counts.get(cls, 0) + 1
        results.append(SampleResult(i, cls, t_event, traj.final(), traj))
    return FalsifyReport(counts, results, seed, horizon)


def write_report(report: FalsifyReport, problem: ProblemFile, outdir) -> list:
    """CSV per sample plus a plain-text summary; returns written paths."""
    import pathlib

    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = list(problem.system.vars) + sorted(problem.system.params)
    written = []
    for r in report.results:
        path = outdir / f"sample-{r.index:03d}.csv"
        with open(path, "w") as fh:
            fh.write("t," + ",".join(names) + ",event\n")
            ev = dict((t, k) for t, k in r.trajectory.events)
            for s in r.trajectory.samples:
                mark = ev.get(s.time, "")
                fh.write(f"{s.time!r}," + ",".join(repr(s.values[n]) for n in names) + f",{mark}\n")
        written.append(path)
    spath = outdir / "summary.txt"
    with open(spath, "w") as fh:
        fh.write(report.summary() + "\n")
        for r in report.results:
            t = "" if r.t_event is None else f" t={r.t_event!r}"
            fh.write(f"sample {r.index}: {r.classification}{t}\n")
    written.append(spath)
    return written


# ---------------------------------------------------------------------------
# Lie-derivative consistency along a trajectory


def lie_consistency_check(p: Polynomial, system: OdeSystem, traj: Trajectory, h: float) -> dict:
    """Max deviation between centered differences of p along the trajectory
    and the Lie derivative evaluated at the sample states."""
    if len(traj.samples) < 3:
        raise InsufficientSamples("need at least three samples")
    lie = lie_derivative(p, system)
    times = [s.time for s in traj.samples]
    for a, b in zip(times, times[1:]):
        if b - a > h * (1 + 1e-6):
            raise InsufficientSamples(f"sample spacing {b - a} exceeds h={h}")
    worst = 0.0
    count = 0
    for i in range(1, len(traj.samples) - 1):
        prev_s, cur, next_s = traj.samples[i - 1], traj.samples[i], traj.samples[i + 1]
        dt = next_s.time - prev_s.time
        if dt <= 0:
            continue
        diff = (p.eval_float(next_s.values) - p.eval_float(prev_s.values)) / dt
        exact = lie.eval_float(cur.values)
        worst = max(worst, abs(diff - exact))
        count += 1
    if count == 0:
        raise InsufficientSamples("no interior samples")
    return {"max_error": worst, "points": count, "h": h}


# ---------------------------------------------------------------------------
# Counterexample catalog


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    source: str
    broken_rule: str
    expected_gate: Optional[str]  # substring of the refusal label; None for CE-2
    expected_outcome: str  # falsification class expected to dominate
    check: Callable  # (entry, report) -> list of failure strings

    def problem(self) -> ProblemFile:
        return parse_problem(self.source)


def _ce1_check(entry, report) -> list:
    errors = []
    if report.n(BLOWUP) != len(report.results):
        errors.append(f"expected all BLOWUP, got {report.counts}")
    for r in report.results:
        if r.t_event is None or abs(r.t_event - math.pi / 2) > 1e-3:
            errors.append(f"blow-up time {r.t_event} not within 1e-3 of pi/2")
    return errors


def _ce2_check(entry, report) -> list:
    errors = []
    if report.n(REFUTED) != len(report.results):
        errors.append(f"expected all REFUTED-SAMPLE, got {report.counts}")
    for r in report.results:
        if r.t_event is None or abs(r.t_event - 1.0) > 1e-6:
            errors.append(f"domain exit at {r.t_event}, expected 1.0")
    return errors


def _ce3_check(entry, report) -> list:
    errors = []
    if report.n(REFUTED) != len(report.results):
        errors.append(f"expected all REFUTED-SAMPLE, got {report.counts}")
    for r in report.results:
        if r.t_event is None or abs(r.t_event) > 1e-9:
            errors.append(f"domain violation at {r.t_event}, expected time 0")
    return errors


def _ce4_check(entry, report) -> list:
    errors = []
    if report.n(BLOWUP) != len(report.results):
        errors.append(f"expected all BLOWUP, got {report.counts}")
    for r in report.results:
        t_final = r.final.values.get("t")
        if t_final is None or abs(t_final - 2.5) > 1e-3:
            errors.append(f"final t {t_final}, expected 2.5 within 1e-3")
        if t_final is not None and t_final >= 3.0:
            errors.append("goal t > 3 unexpectedly reachable")
    return errors


def catalog() -> list:
    """The built-in soundness counterexamples (reconstructed independently)."""
    return [
        CatalogEntry(
            id="CE-1",
            source="""
# Finite-time blow-up defeats the variant argument without global Lipschitz.
ode { x' = 1 + x^2; t' = 1 }
assume { x = 0, t = 0 }
goal { t >= 2 }
proof { rule dV_geq { p = t - 2; eps = 1 } }
""",
            broken_rule="equational/atomic variant rules stated with only local Lipschitz continuity",
            expected_gate="GlobalLipschitz",
            expected_outcome=BLOWUP,
            check=_ce1_check,
        ),
        CatalogEntry(
            id="CE-2",
            source="""
# Punctured-line domain: the solution must sneak through x = 1 to reach the goal.
ode { x' = 1 }
domain { x < 1 | x > 1 }
assume { x = 0 }
goal { x >= 1 }
""",
            broken_rule="domain refinement with the goal negation added to the box domain",
            expected_gate=None,
            expected_outcome=REFUTED,
            check=_ce2_check,
        ),
        CatalogEntry(
            id="CE-3",
            source="""
# Domain already violated initially; the uncorrected rule would still fire.
ode { x' = 1 }
domain { x <= -1 }
assume { x = 1 }
goal { x >= 0 }
proof { rule dV_geq_dom { p = x; eps = 1 } }
""",
            broken_rule="variant rule with domains, stated without the initial goal-negation assumption",
            expected_gate="InitialState",
            expected_outcome=REFUTED,
            check=_ce3_check,
        ),
        CatalogEntry(
            id="CE-4",
            source="""
# Closed but unbounded level-set region: blow-up beats the clock.
ode { x' = x^2; t' = 1 }
assume { x = 2, t = 2 }
goal { t > 3 }
proof { rule SLyap { p = t - 2; K = true } }
""",
            broken_rule="set Lyapunov argument with a closed rather than compact set",
            expected_gate="Compact",
            expected_outcome=BLOWUP,
            check=_ce4_check,
        ),
    ]


def run_catalog(samples: int = 8, seed: int = 0, horizon: float = 10.0) -> list:
    """Execute every catalog entry; returns per-entry dicts with 'ok' flags."""
    from .rules import Checker, apply_rule

    out = []
    for entry in catalog():
        problem = entry.problem()
        errors = []
        refusal = None
        if entry.expected_gate is not None:
            try:
                apply_rule(problem, problem.certificate[0], Checker())
                errors.append("rule application unexpectedly succeeded")
            except RuleRefused as e:
                refusal = e.gate
                if entry.expected_gate not in e.gate:
                    errors.append(f"refused at {e.gate}, expected {entry.expected_gate}")
        report = falsify_liveness(problem, samples=samples, seed=seed, horizon=horizon)
        errors.extend(entry.check(entry, report))
        out.append(
            {
                "id": entry.id,
                "ok": not errors,
                "errors": errors,
                "refusal": refusal,
                "counts": report.counts,
            }
        )
    return out
