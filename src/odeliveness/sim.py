"""Numeric semantics: trajectory integration, falsification, counterexamples.

Trajectories are integrated with the embedded Dormand-Prince 5(4) pair
(advancing with the fifth-order solution, controlling the step with the
fourth-order one's difference); goal entry, domain exit and suspected
blow-up are located by bisecting the step's dense-output polynomial, which
costs no further right-hand-side evaluations.  Equalities are evaluated at
floats with a 1e-9 absolute tolerance, strict comparisons with none; every
event records the time found by bisection.  A goal entry and a domain exit
located at the same point reach the goal when that point lies in both sets,
that is, when the goal was entered and the domain left through non-strict
atoms.

Each system and goal becomes one generated Python source (`Plan`): the
right-hand side, the atom vector and one predicate per formula, which also
gives the formula's truth at an event point and at a bracket's limit, read
from a transformed atom vector (`_on_boundary`, `_at_limit`).  A plan
compiles its source once and executes the code afresh for every parameter
binding (`Plan.bind`), so every binding has functions of its own.  A plan
is what `integrate(plan, init, horizon)` integrates, and every step it
takes is adaptive.  Trajectories are bit-identical however often a plan is
reused, so `falsify_liveness` integrates each distinct initial state once.
A generated kernel takes every step that cannot carry an event, and
`integrate` handles only the steps that may.  A trajectory keeps its
samples as raw (time, state tuple) rows and builds a `State` with a values
dict only when one is read.  A state whose atoms have no float value (one
overflows) ends its trajectory with no event, as does the step cap;
`Trajectory.stopped` says which.

Blow-up is detected, not proved: the max-norm threshold `BLOWUP_NORM` (1e9)
combined with step-size collapse yields a BlowUpSuspected event.

The built-in catalog reproduces four soundness counterexamples against the
uncorrected side conditions of the derived rules; `run_catalog` checks that
each certificate is refused at the expected gate and that the falsifier
observes the expected trajectory behavior, as each entry's data states.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from typing import Callable, Optional

from .codegen import build, formula_src, poly_src, to_float
from .errors import InvalidArgument, RuleRefused, UnsamplableInitSet
from .normal import atoms_of
from .record import Factory, Frozen, Record
from .symbolic import OdeSystem, Polynomial, lie_derivative  # noqa: F401 (perfbench traces sim.lie_derivative)
from .syntax import (
    TRUE,
    Cmp,
    Formula,
    ProblemFile,
    parse_problem,
    print_formula,
)

GOAL_ENTERED = "GoalEntered"
DOMAIN_EXITED = "DomainExited"
BLOWUP_SUSPECTED = "BlowUpSuspected"
HORIZON_REACHED = "HorizonReached"

# why a trajectory ended short of its horizon with no event
ATOMS_UNDEFINED = "atoms have no float value"
STEP_CAP = "step cap reached"

WITNESS = "WITNESS"
REFUTED = "REFUTED-SAMPLE"
BLOWUP = "BLOWUP"
INCONCLUSIVE = "INCONCLUSIVE"


# Integrator constants: the tolerance on a step's embedded error estimate,
# initial and smallest step (a trial at or below HMIN is accepted whatever
# its error), blow-up norm, bisection width of event times on the dense
# output, float tolerance of equalities, which is also the margin within
# which an atom is on its boundary at an event point, step cap, and the gap
# within which a goal entry and a domain exit count as one event
TOL = 1e-9
H0 = 1e-2
HMIN = 1e-12
BLOWUP_NORM = 1e9
EVENT_TOL = 1e-9
EQ_TOL = 1e-9
MAX_STEPS = 2_000_000
TIE_TOL = 1e-6


class State(Frozen):
    __slots__ = ("values", "time")


class Trajectory(Record):
    # rows: [(time, state tuple)], the raw samples; events: [(time, kind)].
    # closed: kind -> whether the first event of that kind lies on a closed
    # boundary: the goal already holds at a GoalEntered point, the domain
    # still holds at a DomainExited point.
    # values(state tuple): the state and parameters by name.
    # stopped: (time, reason) when the trajectory ended short of its horizon
    # with no event: at the state whose atoms have no float value, or at the
    # step cap.
    __slots__ = ("rows", "events", "stats", "closed", "values", "stopped")
    _defaults = {"stats": Factory(dict), "closed": Factory(dict), "values": None, "stopped": None}

    def final(self) -> State:
        t, y = self.rows[-1]
        return State(self.values(y), t)

    def event_time(self, kind) -> Optional[float]:
        for t, k in self.events:
            if k == kind:
                return t
        return None


# ---------------------------------------------------------------------------
# Compiled trajectory work
#
# A `Plan` renders a system, its domain and a goal as one flat source of
# four functions, which it compiles once and executes into new globals for
# each parameter binding, where the parameters are the globals p0, p1, ...;
# `integrate` reads all three from it: the right-hand side `f(y)`; the atom
# vector `atoms(y)`, every comparison's difference polynomial, domain then
# goal, which is the only place a state's atoms are evaluated; and the
# domain and goal predicates, which read that vector.  A state where an
# atom's evaluation overflows has no atom vector (None).  The same
# predicates give a formula's truth at a located event point, read from
# `_on_boundary(A)`, and where a bisection bracket closes in, read from
# `_at_limit(L, H)` of the vectors at its ends.
#
# The stepping kernel `advance` takes adaptive steps until one may carry
# an event.  Within one call it runs, per step, the Dormand-Prince trial
# (inline; it calls `f` for its stages rather than inlining the right-hand
# side six times), the step-size controller, the finiteness and
# `BLOWUP_NORM` screen, the atom vector, the domain and goal readings and
# a screen for atoms whose value changes sign (a product below 0.0), and
# appends the step's raw (t, state) row.  It hands back the first step at
# which the result is not finite or blows up, the atoms have no vector,
# the goal is entered, the domain is left or an atom changes sign, with
# that step's trial and atom vector, so `integrate` locates its events;
# or it returns at the horizon or the step cap.  The kernel's
# source depends only on the dimension, so it is compiled once per
# dimension (`_dimension`), on first use, with the trial from `_trial`,
# and bound to each plan's `f`, `atoms`, `domain` and `goal`; so is the
# bisection loop of `_locate`, which evaluates the dense output with the
# components unrolled.  Every float
# operation is fixed by the source, so trajectories do not depend on how
# often a plan is reused:
#
#   stage i       k_i = f(y + h*(a_i1*k1 + ... + a_i,i-1*k_{i-1})),  i = 2..7
#   result        y1 = y + h*(b1*k1 + b3*k3 + ... + b6*k6)  (the 7th stage point)
#   error         max_i |h*(e1*k1_i + e3*k3_i + ... + e7*k7_i)| / (1 + |y1_i|)
#
# with the weights of `_DP_A` and `_DP_E` as floats, zero weights left out,
# sums taken left to right, right-hand sides summed in
# `Polynomial.sorted_terms` order and atom polynomials in the order of their
# terms.  An OverflowError in `f` makes every component of that stage
# infinite.  The 7th stage is f at y1, so an accepted trial's k7 is the next
# trial's k1 (first same as last): a trial costs six evaluations of `f`.

# Dormand & Prince, J. Comput. Appl. Math. 6 (1980), as the nearest floats
# to the rationals: the rows of the stage matrix for stages 2..7 (the last
# row is the fifth-order weights b), the error weights b - b^ for k1..k7,
# and the weights of the continuous extension's last coefficient for k1,
# k3..k7 (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DENSE = (
    -12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)

def _state_atom(op: str, k: int) -> str:
    """Truth of atom k of the vector `A` at a state: equalities within
    `_eq`, strict atoms exact.  At 0.0, non-strict atoms hold and strict
    ones fail."""
    if op == "=":
        return f"(abs(A[{k}]) <= _eq)"
    if op == "!=":
        return f"(abs(A[{k}]) > _eq)"
    return f"(A[{k}] {op} 0.0)"


def _on_boundary(A: tuple) -> tuple:
    """The atom vector as read at a located event point: an atom within
    `EQ_TOL` of 0.0 is on its boundary, where non-strict atoms hold and
    strict ones fail (closed sets contain limits, open ones do not); so a
    strict atom needs a margin of `EQ_TOL`.  NaN and infinities stay."""
    return tuple(0.0 if abs(a) <= EQ_TOL else a for a in A)


def _at_limit(L: tuple, H: tuple) -> tuple:
    """The atom vector as read where a bisection bracket closes in, from the
    vectors L and H at its ends: an atom whose value changes sign across the
    bracket is on its boundary (0.0); any other atom is read at H."""
    return tuple(0.0 if lo * hi <= 0.0 else hi for lo, hi in zip(L, H))


def _unpack(prefix: str, n: int, src: str) -> str:
    return "".join(f"{prefix}{i}, " for i in range(n)) + f"= {src}"


def _max_src(parts: list) -> str:
    return f"max({', '.join(parts)})" if len(parts) > 1 else parts[0]


def _def(name: str, args: str, *body: str) -> list:
    return [f"def {name}({args}):"] + [f"    {line}" for line in body]


def _atoms_def(polys: list, n: int, ref) -> list:
    """Source of `atoms(y)`, the atom vector: each polynomial of `polys` at
    the state y of n floats, or None when one has no float value (its
    evaluation overflows)."""
    values = "".join(f"{poly_src(p, ref)}, " for p in polys)
    return _def("atoms", "y", _unpack("a", n, "y"), "try:", f"    return ({values})", "except OverflowError:", "    return None")


def _predicate(atoms: list, names) -> Callable:
    """Truth of the conjunction of normalised atoms at a float tuple over
    `names`, as a compiled function; a point whose atoms have no float value
    is outside."""
    lines = _atoms_def([a.poly for a in atoms], len(names), lambda v: f"a{names.index(v)}")
    test = " and ".join(_state_atom(a.op, k) for k, a in enumerate(atoms))
    lines += _def("_pred", "y", "A = atoms(y)", f"return A is not None and {test}")
    return build("\n".join(lines) + "\n", "_pred", {"_eq": EQ_TOL})


def _trial(n: int) -> list:
    """Source lines of one Dormand-Prince trial of step h from the state
    a0, ..., a{n-1} whose first stage is k1 (unpacked as k1_0, ...): stages
    k2..k7 through `f`, unpacked as k2_0, ...; the fifth-order state y1 =
    (b0, ...), with k7 = f(y1); and its error `err`."""

    def combo(weights, i):
        return " + ".join(f"{w!r} * k{j + 1}_{i}" for j, w in enumerate(weights) if w)

    lines = []
    for s, row in enumerate(_DP_A[:-1], start=2):
        point = "".join(f"a{i} + h * ({combo(row, i)}), " for i in range(n))
        lines += [f"k{s} = f(({point}))", _unpack(f"k{s}_", n, f"k{s}")]
    lines += [f"b{i} = a{i} + h * ({combo(_DP_A[-1], i)})" for i in range(n)]
    lines += ["y1 = (" + "".join(f"b{i}, " for i in range(n)) + ")", "k7 = f(y1)", _unpack("k7_", n, "k7")]
    lines.append("err = " + _max_src([f"abs(h * ({combo(_DP_E, i)})) / (1.0 + abs(b{i}))" for i in range(n)]))
    return lines


# The stepping kernel over one plan's f, atoms, domain and goal; see
# "Compiled trajectory work".  `_advance` fills in the dimension's trial,
# unpackings and tests.  The elementary controller: after every trial h is
# scaled by 0.9*(TOL/err)^(1/5), kept within [0.2, 5]; a non-finite trial
# counts as err = inf.  h stops at HMIN, where a trial is accepted whatever
# its error.  A rejected trial keeps k1 (the same y), so it costs six
# evaluations of f like an accepted one.  After an accepted step h is kept
# within [HMIN, H0 * 4].  Each min and max is written as the comparisons
# that return the same float.
_ADVANCE = """\
def advance_over(f, atoms, domain, goal):
    def advance(t, y, h, k1, A, goal_now, domain_now, horizon, max_steps, rows, stats):
        steps, rejected, min_h = stats["steps"], stats["rejected"], stats["min_h"]
        {unpack_y}
        {unpack_k1}
        while t < horizon and steps < max_steps:
            d = horizon - t
            if d < h:
                h = d
            while True:
                {trial}
                if not ({finite} and err == err):
                    err = inf
                if err == 0.0:
                    scale = 5.0
                else:
                    scale = 0.9 * ({TOL!r} / err) ** 0.2
                    if not scale > 0.2:
                        scale = 0.2
                    elif scale > 5.0:
                        scale = 5.0
                if err <= {TOL!r} or h <= {HMIN!r}:
                    break
                h = h * scale
                if h < {HMIN!r}:
                    h = {HMIN!r}
                rejected += 1
            steps += 1
            if h < min_h:
                min_h = h
            t1 = t + h
            hn = h * scale
            if hn < {HMIN!r}:
                hn = {HMIN!r}
            if hn > {CAP!r}:
                hn = {CAP!r}
            if not ({inside}):
                A1 = None
                break
            A1 = atoms(y1)
            if A1 is None:
                break
            g1 = goal is not None and goal(A1)
            if g1 and not goal_now:
                break
            d1 = domain(A1)
            if domain_now and not d1:
                break
            for x0, x1 in zip(A, A1):
                if x0 * x1 < 0.0:
                    break
            else:
                rows.append((t1, y1))
                t, y, h, k1, A, goal_now, domain_now = t1, y1, hn, k7, A1, g1, d1
                {next_state}
                continue
            break
        else:
            stats["steps"], stats["rejected"], stats["min_h"] = steps, rejected, min_h
            return t, y, k1, A, goal_now, domain_now, None
        stats["steps"], stats["rejected"], stats["min_h"] = steps, rejected, min_h
        return t, y, k1, A, goal_now, domain_now, (h, t1, y1, k7, (k1, k3, k4, k5, k6, k7), A1, hn)
    return advance"""


def _advance(n: int) -> str:
    """Source of `advance_over` for the dimension n."""

    def lines(parts, depth):
        return ("\n" + " " * depth).join(parts)

    return _ADVANCE.format(
        unpack_y=_unpack("a", n, "y"),
        unpack_k1=_unpack("k1_", n, "k1"),
        trial=lines(_trial(n), 16),
        finite=" and ".join(f"isfinite(b{i})" for i in range(n)),
        inside=" and ".join(f"{-BLOWUP_NORM!r} <= b{i} <= {BLOWUP_NORM!r}" for i in range(n)),
        next_state=lines([f"a{i} = b{i}" for i in range(n)] + [f"k1_{i} = k7_{i}" for i in range(n)], 16),
        TOL=TOL,
        HMIN=HMIN,
        CAP=H0 * 4,
    )


# The loop of `_locate` over the rows of `_interpolant`, unpacked once: the
# state at t0 + theta*h is r1 + theta*(r2 + (1-theta)*(r3 + theta*(r4 +
# (1-theta)*r5))) per component.
_BISECT = """\
def bisect(pred, finite, t0, h, rows, y0, y1):
    {rows}= rows
    lo, hi = t0, t0 + h
    y_lo, y_hi = y0, y1
    while hi - lo > {EVENT_TOL!r}:
        mid = 0.5 * (lo + hi)
        theta = (mid - t0) / h
        u = 1.0 - theta
        y_mid = ({dense})
        if not finite(y_mid) or pred(y_mid):
            hi, y_hi = mid, y_mid
        else:
            lo, y_lo = mid, y_mid
    return hi, y_lo, y_hi"""


@functools.cache
def _dimension(n: int) -> SimpleNamespace:
    """The compiled work that depends only on the state's dimension n, built
    once per n: `advance_over(f, atoms, domain, goal)`, the stepping kernel;
    `bisect`, the loop of `_locate`; `finite(y)`; and `norm(y)`, the max
    norm."""
    unpack = _unpack("a", n, "y")
    rows = "".join(f"(r1_{i}, r2_{i}, r3_{i}, r4_{i}, r5_{i}), " for i in range(n))
    dense = "".join(f"r1_{i} + theta * (r2_{i} + u * (r3_{i} + theta * (r4_{i} + u * r5_{i}))), " for i in range(n))
    src = "\n".join(
        [_advance(n)]
        + [_BISECT.format(rows=rows, dense=dense, EVENT_TOL=EVENT_TOL)]
        + ["def finite(y):", f"    {unpack}"]
        + ["    return " + " and ".join(f"isfinite(a{i})" for i in range(n))]
        + ["def norm(y):", f"    {unpack}", "    return " + _max_src([f"abs(a{i})" for i in range(n)])]
    )
    namespace = {"isfinite": math.isfinite, "inf": math.inf}
    exec(src, namespace)  # generated from the tableau alone
    return SimpleNamespace(**{k: namespace[k] for k in ("advance_over", "bisect", "finite", "norm")})


class Plan:
    """The compiled per-trajectory work of one system and goal, and the
    input of every `integrate` call on them: build it once per system and
    goal.  `bind(par)` fixes one trajectory's parameter values (in `pnames`
    order) and returns the compiled functions."""

    def __init__(self, system: OdeSystem, goal: Optional[Formula] = None):
        self.system = system
        self.goal = goal
        self.names = system.state_names()
        self.pnames = tuple(sorted(system.params))
        domain = system.domain if system.domain is not None else TRUE
        self._code = compile(self._source(domain), "<string>", "exec")
        self._kernel = _dimension(len(self.names))

    def bind(self, par: tuple) -> SimpleNamespace:
        """The plan's functions over the parameter values `par`: its code
        executed into new globals that hold them as p0, p1, ..."""
        scope = {"_inf": math.inf, "_eq": EQ_TOL}
        scope.update((f"p{j}", v) for j, v in enumerate(par))
        exec(self._code, scope)  # generated from the plan's own system and goal
        # taken out of their globals, which then hold no reference back
        f, atoms, domain, goal = (scope.pop(k) for k in ("f", "atoms", "domain", "goal"))
        keys, k = self.names + self.pnames, self._kernel
        return SimpleNamespace(
            f=f,
            advance=k.advance_over(f, atoms, domain, goal),
            finite=k.finite,
            norm=k.norm,
            atoms=atoms,
            values=lambda y: dict(zip(keys, (*y, *par))),
            domain=domain,
            goal=goal,
        )

    def _source(self, domain: Formula) -> str:
        """The source of the plan's functions `f`, `atoms`, `domain` and
        `goal`; sets `domain_atoms`, the number of the atom vector's entries
        that belong to the domain."""
        names, n = self.names, len(self.names)
        params = {p: f"p{j}" for j, p in enumerate(self.pnames)}

        def ref(v):
            return params.get(v) or f"a{names.index(v)}"

        # f(y): the right-hand side
        rhs = "".join(f"{poly_src(self.system.rhs_of(v), ref)}, " for v in names)
        overflow = "    return (" + "_inf, " * n + ")"
        body = _def("f", "y", _unpack("a", n, "y"), "try:", f"    return ({rhs})", "except OverflowError:", overflow)

        # atoms(y): every atom's difference polynomial, domain then goal, in
        # the order the predicates domain(A) and goal(A) render their atoms
        cmps = []

        def atom(c: Cmp) -> str:
            cmps.append(c)
            return _state_atom(c.op, len(cmps) - 1)

        preds = _def("domain", "A", "return " + formula_src(domain, atom))
        self.domain_atoms = len(cmps)
        preds += ["goal = None"] if self.goal is None else _def("goal", "A", "return " + formula_src(self.goal, atom))
        body += _atoms_def([c.lhs - c.rhs for c in cmps], n, ref) + preds
        return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# Integration


def _interpolant(y0: tuple, y1: tuple, h: float, ks: tuple) -> list:
    """The continuous extension of one Dormand-Prince step from y0 to y1,
    per component: the state at t0 + theta*h is
    r1 + theta*(r2 + (1-theta)*(r3 + theta*(r4 + (1-theta)*r5))).
    `ks` holds the stages k1, k3, k4, k5, k6, k7."""
    rows = []
    for i, (a, b) in enumerate(zip(y0, y1)):
        k = [stage[i] for stage in ks]
        diff = b - a
        bspl = h * k[0] - diff
        dense = h * sum(d * ki for d, ki in zip(_DENSE, k))
        rows.append((a, diff, bspl, diff - h * k[-1] - bspl, dense))
    return rows


def _locate(pred, finite, t0: float, h: float, y0: tuple, y1: tuple, ks: tuple) -> tuple:
    """Earliest time in (t0, t0 + h] where `pred` flips to true, by
    bisecting the step's continuous extension; no right-hand side is
    evaluated.  Returns (time, state at the bracket's start, state at time)."""
    return _dimension(len(y0)).bisect(pred, finite, t0, h, _interpolant(y0, y1, h, ks), y0, y1)


def integrate(plan: Plan, init: dict, horizon: float, stop_on_event: bool = True) -> Trajectory:
    """Integrate the plan's system from `init` (covering variables and
    parameters) to `horizon`, detecting entry into the plan's goal, domain
    exit and suspected blow-up.  A trajectory that ends short of the horizon
    with no event, at atoms with no float value or at the step cap
    `MAX_STEPS`, says so in `stopped`.
    """
    if not 0 < horizon < math.inf:
        raise InvalidArgument(f"horizon must be positive and finite, got {horizon!r}")
    known = plan.names + plan.pnames
    for n in known:
        if n not in init:
            raise UnsamplableInitSet(f"initial state missing '{n}'")
    unknown = sorted(set(init) - set(known))
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise InvalidArgument(f"initial state has names that are neither variables nor parameters: {names}")
    c = plan.bind(tuple(float(init[p]) for p in plan.pnames))
    finite, norm, atoms = c.finite, c.norm, c.atoms

    y = tuple(float(init[n]) for n in plan.names)
    t = 0.0
    rows = [(t, y)]
    events: list = []
    closed: dict = {}
    stats = {"steps": 0, "rejected": 0, "min_h": math.inf}

    def end(stopped=None):
        return Trajectory(rows, events, stats, closed, c.values, stopped)

    # at a state whose atoms have no float value the trajectory stops, with
    # no event.  The initial state is in the domain also when it is so as an
    # event point, so a sample rounded just past a closed boundary is inside
    A = atoms(y)
    if A is None:
        return end((t, ATOMS_UNDEFINED))
    goal_now = c.goal is not None and c.goal(A)
    domain_now = c.domain(A) or c.domain(_on_boundary(A))
    if goal_now and domain_now:
        events.append((0.0, GOAL_ENTERED))
        closed[GOAL_ENTERED] = True
        if stop_on_event:
            return end()
    if not domain_now:
        events.append((0.0, DOMAIN_EXITED))
        closed[DOMAIN_EXITED] = False
        if stop_on_event:
            return end()

    candidates: dict = {}  # the step's events: kind -> (time, closed)

    def offer(kind, tau, is_closed):
        if kind not in candidates or tau < candidates[kind][0]:
            candidates[kind] = (tau, is_closed)

    # the step's earliest time where `test` of the atom vector turns true,
    # and the vectors L and H at the ends of the bracket closing in on it; a
    # point with no atom vector counts as before the event (L is then A)
    def bracket(test):
        tau, y_lo, y_hi = _locate(lambda yy: (B := atoms(yy)) is not None and test(B), finite, t, h, y, y_new, ks)
        return tau, atoms(y_lo) or A, atoms(y_hi)

    k1 = c.f(y)
    h = H0
    while True:
        # the kernel takes every step that cannot carry an event and hands
        # back the first one that may, or None at the horizon or step cap
        t, y, k1, A, goal_now, domain_now, step = c.advance(
            t, y, h, k1, A, goal_now, domain_now, horizon, MAX_STEPS, rows, stats
        )
        if step is None:
            break
        h, t_new, y_new, k7, ks, A_new, h_next = step

        if not finite(y_new) or norm(y_new) > BLOWUP_NORM:
            tau, _, y_hit = _locate(lambda yy: norm(yy) > BLOWUP_NORM, finite, t, h, y, y_new, ks)
            rows.append((tau, y_hit))
            events.append((tau, BLOWUP_SUSPECTED))
            return end()
        if A_new is None:
            return end((t_new, ATOMS_UNDEFINED))
        candidates.clear()
        if c.goal is not None:
            goal_new = c.goal(A_new)
            if goal_new and not goal_now:
                tau, L, H = bracket(c.goal)
                offer(GOAL_ENTERED, tau, c.goal(_at_limit(L, H)))
            goal_now = goal_new
        domain_new = c.domain(A_new)
        if not domain_new and domain_now:
            tau, L, H = bracket(lambda B: not c.domain(B))
            offer(DOMAIN_EXITED, tau, c.domain(_at_limit(L, H)))
        domain_now = domain_new

        # atom boundary crossings inside the step: measure-zero domain
        # violations and equality-goal contacts that endpoint checks miss
        for i, (d0, d1) in enumerate(zip(A, A_new)):
            if not (math.isfinite(d0) and math.isfinite(d1)) or d0 * d1 >= 0:
                continue
            tau, L, H = bracket(lambda B, _i=i, _s=d0 > 0: (B[_i] > 0) != _s)
            if i < plan.domain_atoms:
                if not c.domain(_on_boundary(H)):
                    offer(DOMAIN_EXITED, tau, c.domain(_at_limit(L, H)))
            elif not goal_now and c.goal(_at_limit(L, H)):
                # the goal holds where the bracket closes in, which an
                # equality atom's sign change puts on its boundary however
                # steep the crossing
                offer(GOAL_ENTERED, tau, True)

        step_events = sorted(candidates.items(), key=lambda e: (e[1][0], e[0] != DOMAIN_EXITED))
        for kind, (tau, is_closed) in step_events:
            events.append((tau, kind))
            closed.setdefault(kind, is_closed)
        rows.append((t_new, y_new))
        y, t, k1, A = y_new, t_new, k7, A_new
        if stop_on_event and step_events:
            return end()
        h = h_next

    if t < horizon:
        return end((t, STEP_CAP))
    events.append((t, HORIZON_REACHED))
    return end()


def write_csv(path, traj: Trajectory, system: OdeSystem) -> None:
    """The trajectory as CSV: one row per sample with its time, the
    variables and parameters, and the kind of an event at that time."""
    names = list(system.vars) + sorted(system.params)
    ev = dict(traj.events)
    with open(path, "w") as fh:
        fh.write("t," + ",".join(names) + ",event\n")
        for t, y in traj.rows:
            values = traj.values(y)
            fh.write(f"{t!r}," + ",".join(repr(values[n]) for n in names) + f",{ev.get(t, '')}\n")


# ---------------------------------------------------------------------------
# Initial-set sampling


def _circle_param(atom_poly: Polynomial) -> Optional[tuple]:
    """Match c1*x^2 + c2*y^2 - C = 0 with c1, c2 > 0 and C > 0; returns
    ((x, c1), (y, c2), C), numerators over the polynomial's denominator."""
    if len(atom_poly.terms) != 3:
        return None
    const = atom_poly.terms.get((), 0)  # numerators: the denominator cancels in C / c
    rest = {m: c for m, c in atom_poly.terms.items() if m}
    if len(rest) != 2 or const >= 0:
        return None
    coords = []
    for m, c in rest.items():
        if len(m) != 1 or m[0][1] != 2 or c <= 0:
            return None
        coords.append((m[0][0], c))
    coords.sort()
    return coords[0], coords[1], -const


def sample_initial_states(problem: ProblemFile, count: int, seed: int) -> list:
    """Sample the assume-block set: pinned equalities, circles by angle (or,
    with one variable pinned, at their points on that line), boxes by
    rejection (equalities within a 1e-9 band)."""
    from . import arith

    rng = Random(seed)
    names = list(problem.system.vars) + sorted(problem.system.params)
    atoms = []
    for f in problem.assumptions:
        a = atoms_of(f)
        if a is None:
            raise UnsamplableInitSet(f"cannot sample from disjunctive assumption {print_formula(f)}")
        atoms.extend(a)

    exact: dict = {}  # each pin's rational value
    circles = []
    points = []  # (variable, its values): a circle cut by a pin
    leftovers = []  # checked on each drawn state, as is an equality over a variable already fixed
    fixed = set()  # the variables a pin or a circle sets
    rest = []
    for a in atoms:  # pins first, so that a circle sees every pin
        names_in = sorted(a.poly.variables())
        if a.op == "=" and len(names_in) == 1 and a.poly.degree() == 1 and names_in[0] not in fixed:
            v = names_in[0]
            coef = a.poly.terms[((v, 1),)]
            off = a.poly.terms.get((), 0)
            exact[v] = Fraction(-off, coef)
            fixed.add(v)
        else:
            rest.append(a)
    for a in rest:
        circ = _circle_param(a.poly) if a.op == "=" else None
        if circ is not None:
            (x, cx), (yv, cy), C = circ
            set_by = [v for v in (x, yv) if v in fixed]
            if not set_by:
                circles.append((x, math.sqrt(to_float(C, cx)), yv, math.sqrt(to_float(C, cy))))
                fixed.update((x, yv))
                continue
            if len(set_by) == 1 and set_by[0] in exact:
                (v, cv), (w, cw) = ((x, cx), (yv, cy)) if x in exact else ((yv, cy), (x, cx))
                r2 = (C - cv * exact[v] ** 2) / cw
                if r2 < 0:
                    raise UnsamplableInitSet(f"{print_formula(a.to_formula())} has no point with {v} = {exact[v]}")
                r = math.sqrt(to_float(r2.numerator, r2.denominator))
                points.append((w, (r, -r) if r2 else (r,)))
                fixed.add(w)
                continue
        leftovers.append(a)

    pinned = {v: to_float(q.numerator, q.denominator) for v, q in exact.items()}
    free = [n for n in names if n not in fixed]
    cell, _ = arith.extract_box(leftovers, tuple(free))
    if cell is None and free:
        if leftovers or circles or pinned:
            raise UnsamplableInitSet(f"no finite bounds for '{free[0]}' in the assume block")
        raise UnsamplableInitSet("assume block is empty; nothing to sample")

    inside = _predicate(leftovers, names) if leftovers else None
    spans = {n: [to_float(lo, d), to_float(hi, d)] for n, (lo, hi, d) in (cell or {}).items()}
    out = []
    tries = 0
    while len(out) < count and tries < count * 200:
        tries += 1
        pt = dict(pinned)
        for (x, rx, yv, ry) in circles:
            th = 2 * math.pi * (len(out) / count if count > 1 else 0.5) if tries <= count else 2 * math.pi * rng.random()
            pt[x] = rx * math.cos(th)
            pt[yv] = ry * math.sin(th)
        for w, values in points:
            pt[w] = values[len(out) % len(values)] if tries <= count else rng.choice(values)
        for n in free:
            lo, hi = spans[n]
            pt[n] = lo + (hi - lo) * rng.random()
        if inside is None or inside(tuple(pt[n] for n in names)):
            out.append(pt)
    if len(out) < count:
        raise UnsamplableInitSet("rejection sampling failed to populate the initial set")
    return out


# ---------------------------------------------------------------------------
# Liveness falsification


class SampleResult(Record):
    __slots__ = ("index", "classification", "t_event", "final", "trajectory")


class FalsifyReport(Record):
    __slots__ = ("counts", "results", "seed", "horizon")

    def n(self, kind) -> int:
        return self.counts.get(kind, 0)

    def summary(self) -> str:
        parts = [f"{k}={self.counts.get(k, 0)}" for k in (WITNESS, REFUTED, BLOWUP, INCONCLUSIVE)]
        return f"samples={len(self.results)} " + " ".join(parts)


def classify(traj: Trajectory) -> tuple:
    """Classification per the reach-while-staying semantics."""
    t_goal = traj.event_time(GOAL_ENTERED)
    t_exit = traj.event_time(DOMAIN_EXITED)
    t_blow = traj.event_time(BLOWUP_SUSPECTED)
    if t_goal is not None and (t_exit is None or t_goal < t_exit - TIE_TOL):
        return WITNESS, t_goal
    # A tie is one point, in the goal and in the domain when both events
    # happened on closed boundaries (see `Trajectory.closed`).
    if (
        t_goal is not None
        and abs(t_goal - t_exit) <= TIE_TOL
        and traj.closed.get(GOAL_ENTERED)
        and traj.closed.get(DOMAIN_EXITED)
    ):
        return WITNESS, t_goal
    if t_exit is not None and (t_goal is None or t_exit <= t_goal + TIE_TOL):
        return REFUTED, t_exit
    if t_blow is not None:
        return BLOWUP, t_blow
    return INCONCLUSIVE, None


def falsify_liveness(
    problem: ProblemFile,
    samples: int = 64,
    seed: int = 0,
    horizon: float = 10.0,
) -> FalsifyReport:
    if samples < 1:
        raise InvalidArgument(f"samples must be positive, got {samples}")
    if problem.goal is None:
        raise UnsamplableInitSet("problem has no goal block")
    inits = sample_initial_states(problem, samples, seed)
    plan = Plan(problem.system, problem.goal)
    # `integrate` is deterministic, so samples whose floats have the same
    # bits (0.0 and -0.0 differ) share one trajectory
    trajectories: dict = {}
    results = []
    counts: dict = {}
    for i, init in enumerate(inits):
        key = tuple(float(init[n]).hex() for n in plan.names + plan.pnames)
        if key not in trajectories:
            trajectories[key] = integrate(plan, init, horizon)
        traj = trajectories[key]
        cls, t_event = classify(traj)
        counts[cls] = counts.get(cls, 0) + 1
        results.append(SampleResult(i, cls, t_event, traj.final(), traj))
    return FalsifyReport(counts, results, seed, horizon)


def write_report(report: FalsifyReport, problem: ProblemFile, prefix: str) -> list:
    """CSV per sample plus a plain-text summary, each at `prefix` and its
    name, in a directory that exists; returns the written paths."""
    written = []
    for r in report.results:
        path = f"{prefix}sample-{r.index:03d}.csv"
        write_csv(path, r.trajectory, problem.system)
        written.append(path)
    spath = prefix + "summary.txt"
    with open(spath, "w") as fh:
        fh.write(report.summary() + "\n")
        for r in report.results:
            t = "" if r.t_event is None else f" t={r.t_event!r}"
            fh.write(f"sample {r.index}: {r.classification}{t}\n")
    written.append(spath)
    return written


# ---------------------------------------------------------------------------
# Counterexample catalog


class CatalogEntry(Frozen):
    # expected_gate: a substring of the refusal label, None for CE-2;
    # expected_outcome: the falsification class of every sample; at: where
    # every sample's event lies, within `tol`; final_var: read the final
    # value of this variable instead
    __slots__ = ("id", "source", "broken_rule", "expected_gate", "expected_outcome", "at", "tol", "final_var")
    _defaults = {"final_var": None}

    def problem(self) -> ProblemFile:
        return parse_problem(self.source)

    def errors(self, report: FalsifyReport) -> list:
        """How `report` departs from the entry: samples of another class than
        `expected_outcome`, and each sample whose event time (or final
        `final_var`) is not within `tol` of `at`."""
        errors = []
        if report.n(self.expected_outcome) != len(report.results):
            errors.append(f"expected all {self.expected_outcome}, got {report.counts}")
        what = "event time" if self.final_var is None else f"final {self.final_var}"
        for r in report.results:
            x = r.t_event if self.final_var is None else r.final.values.get(self.final_var)
            if x is None or abs(x - self.at) > self.tol:
                errors.append(f"{what} {x}, expected {self.at!r} within {self.tol!r}")
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
            at=math.pi / 2,
            tol=1e-3,
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
            at=1.0,
            tol=1e-6,
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
            at=0.0,
            tol=1e-9,
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
            at=2.5,
            tol=1e-3,
            final_var="t",
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
        errors.extend(entry.errors(report))
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
