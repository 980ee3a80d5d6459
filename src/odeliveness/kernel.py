"""Trusted proof core: sequents, obligations, proof nodes, refinement steps.

A ProofNode records one application of a refinement axiom, an existence
axiom, a monotonicity rule, or a derived rule, together with the obligations
that application generates.  Nodes are built bottom-up: each constructor
receives the already-built child subtree and re-checks the structural side
conditions of its step, so the only way to assemble a proved liveness
judgment is through these constructors.

Verdict propagation: a node is Proved iff every obligation passed and every
child is Proved; ConditionallyProved when the only shortfall is explicit
Assumption leaves; Refuted when a refuting obligation (a certificate premise)
was falsified with an exact counterexample; Unknown otherwise.  Falsified
obligations that are not certificate premises (for example a failed hint
inside an invariance attempt) yield Unknown, because they disprove the hint,
not the conclusion.

Obligation discharge is delegated to a checker object (see `rules.Checker`).
"""

from __future__ import annotations

from typing import Optional

from . import topology
from .arith import ArithObligation, ArithVerdict, FALSIFIED
from .errors import (
    ClockNotFresh,
    NoClock,
    NonConstantBound,
    ShapeMismatch,
    TopoUnknown,
)
from .record import Frozen, Record
from .symbolic import OdeSystem, Polynomial
from .syntax import (
    TRUE,
    Cmp,
    Formula,
    Modal,
    Or,
    conj,
    formula_variables,
    print_formula,
    print_ode,
)
from .normal import negate

CLOCK_NAME = "_t"

# verdicts
PROVED = "Proved"
CONDITIONAL = "ConditionallyProved"
UNKNOWN = "Unknown"
REFUTED = "Refuted"

_ORDER = {PROVED: 0, CONDITIONAL: 1, UNKNOWN: 2, REFUTED: 3}

# obligation roles
GATE = "gate"  # side conditions whose failure means the rule refuses to fire
PREMISE = "premise"  # the derived rule's stated premises
INTERNAL = "internal"  # obligations of the internal refinement replay
WITNESS = "witness"  # optional numeric witnesses (initial values, bounds)


class Sequent(Frozen):
    __slots__ = ("context", "succedent")  # context: (Formula, ...)


def dia(system: OdeSystem, post: Formula) -> Modal:
    return Modal(False, system, post)


def box(system: OdeSystem, post: Formula) -> Modal:
    return Modal(True, system, post)


def print_sequent(seq: Sequent) -> str:
    ctx = ", ".join(print_formula(f) for f in seq.context)
    return f"{ctx} |- {print_formula(seq.succedent)}" if ctx else f"|- {print_formula(seq.succedent)}"


def context_filter(context, system: OdeSystem):
    """Split a context into formulas constant for the ODE and the rest."""
    state = set(system.state_names())
    const, rest = [], []
    for f in context:
        (rest if formula_variables(f) & state else const).append(f)
    return tuple(const), tuple(rest)


# ---------------------------------------------------------------------------
# Obligations


class ArithOb(Record):
    __slots__ = ("label", "role", "obligation", "refuting", "result")

    # Written out, as are `ProofNode`'s and `arith.ArithVerdict`'s: a check
    # builds one of each per obligation, and the shared constructor costs
    # three to four times as much for a mutable record with defaults.
    def __init__(self, label, role, obligation, refuting=False, result=None):
        self.label = label
        self.role = role
        self.obligation = obligation
        self.refuting = refuting  # Falsified here refutes the certificate
        self.result = result

    def verdict(self) -> str:
        if self.result is None:
            return UNKNOWN
        if self.result.is_valid:
            return PROVED
        if self.result.status == FALSIFIED and self.refuting:
            return REFUTED
        return UNKNOWN

    def describe(self) -> str:
        return self.obligation.describe()


class TopoOb(Record):
    __slots__ = ("label", "role", "formula", "prop", "vars", "result")  # prop: Closed | Open | Bounded | Compact
    _defaults = {"result": None}

    def verdict(self) -> str:
        if self.result is not None and self.result.holds:
            return PROVED
        return UNKNOWN

    def describe(self) -> str:
        return f"{self.prop}({print_formula(self.formula)})"


class LipschitzOb(Record):
    __slots__ = ("label", "role", "system", "result")
    _defaults = {"result": None}

    def verdict(self) -> str:
        return PROVED if self.result else UNKNOWN

    def describe(self) -> str:
        return f"GlobalLipschitz({print_ode(self.system)})"


class InvarianceOb(Record):
    __slots__ = ("label", "role", "sequent", "hints", "proof")
    _defaults = {"hints": (), "proof": None}

    def verdict(self) -> str:
        return self.proof.verdict() if self.proof is not None else UNKNOWN

    def describe(self) -> str:
        return print_sequent(self.sequent)


class AssumeOb(Record):
    __slots__ = ("label", "formula", "role")
    _defaults = {"role": "assumption"}

    def verdict(self) -> str:
        return CONDITIONAL

    def describe(self) -> str:
        return print_formula(self.formula)


class Step(Frozen):
    __slots__ = ("name", "note")
    _defaults = {"note": ""}


class ProofNode(Record):
    __slots__ = ("step", "conclusion", "children", "obligations")

    def __init__(self, step, conclusion, children=(), obligations=()):
        self.step = step
        self.conclusion = conclusion
        self.children = children
        self.obligations = obligations

    def verdict(self) -> str:
        worst = PROVED
        for ob in self.obligations:
            v = ob.verdict()
            if _ORDER[v] > _ORDER[worst]:
                worst = v
        for child in self.children:
            v = child.verdict()
            if _ORDER[v] > _ORDER[worst]:
                worst = v
        return worst

    def walk(self):
        """Post-order traversal (children before the node), yields nodes."""
        for child in self.children:
            yield from child.walk()
        yield self

    def all_obligations(self):
        """Obligations in trace order, shared objects reported once."""
        seen = set()
        for node in self.walk():
            for ob in node.obligations:
                if id(ob) not in seen:
                    seen.add(id(ob))
                    yield ob


# ---------------------------------------------------------------------------
# Step constructors: base rules, refinement, existence, topological axioms


def _dia_parts(seq: Sequent):
    s = seq.succedent
    if not isinstance(s, Modal) or s.box:
        raise ShapeMismatch(f"expected a diamond succedent, got {print_formula(s)}")
    return s.system, s.system.domain if s.system.domain is not None else TRUE, s.post


def step_monotone_dia(target: Sequent, stronger: Formula, child: "ProofNode") -> ProofNode:
    """M dia: from Gamma |- <x'=f & Q> R and Q, R |- P conclude the target."""
    system, domain, post = _dia_parts(target)
    want = Sequent(target.context, dia(system, stronger))
    if child.conclusion != want:
        raise ShapeMismatch("monotonicity child proves the wrong sequent")
    hyp = conj([domain, stronger])
    ob = ArithOb(
        "monotonicity premise",
        PREMISE,
        ArithObligation.closure(hyp, post),
        refuting=True,
    )
    return ProofNode(Step("M◇′"), target, (child,), (ob,))


def step_goal_refine(target: Sequent, via: Formula, child: "ProofNode", hints=(), label="goal refinement") -> ProofNode:
    """K<&>: the solution cannot reach `via` before reaching the target goal."""
    system, domain, post = _dia_parts(target)
    want = Sequent(target.context, dia(system, via))
    if child.conclusion != want:
        raise ShapeMismatch("goal refinement child proves the wrong sequent")
    ob_domain = conj([domain, negate(post)])
    ob = InvarianceOb(
        label,
        PREMISE,
        Sequent(target.context, box(system.with_domain(ob_domain), negate(via))),
        hints=hints,
    )
    return ProofNode(Step("K⟨&⟩"), target, (child,), (ob,))


def step_refine_domain(target: Sequent, stronger_domain: Formula, child: "ProofNode", hints=()) -> ProofNode:
    """DR dia: refine the evolution domain; box obligation keeps domain R plain."""
    system, domain, post = _dia_parts(target)
    want = Sequent(target.context, dia(system.with_domain(stronger_domain), post))
    if child.conclusion != want:
        raise ShapeMismatch("domain refinement child proves the wrong sequent")
    ob = InvarianceOb(
        "domain refinement box premise",
        PREMISE,
        Sequent(target.context, box(system.with_domain(stronger_domain), domain)),
        hints=hints,
    )
    return ProofNode(Step("DR⟨·⟩"), target, (child,), (ob,))


def step_topo_closed_open(target: Sequent, stronger_domain: Formula, child: "ProofNode", hints=()) -> ProofNode:
    """COR: domain refinement with not-P in the box domain, topologically gated."""
    system, domain, post = _dia_parts(target)
    want = Sequent(target.context, dia(system.with_domain(stronger_domain), post))
    if child.conclusion != want:
        raise ShapeMismatch("topological refinement child proves the wrong sequent")
    xs = system.vars
    closed_p = topology.check_closed(post)
    closed_q = topology.check_closed(domain)
    open_p = topology.check_open(post)
    open_q = topology.check_open(domain)
    if closed_p.holds and closed_q.holds:
        pair = "closed"
        tops = (
            TopoOb("goal topology", GATE, post, topology.CLOSED, xs, closed_p),
            TopoOb("domain topology", GATE, domain, topology.CLOSED, xs, closed_q),
        )
    elif open_p.holds and open_q.holds:
        pair = "open"
        tops = (
            TopoOb("goal topology", GATE, post, topology.OPEN, xs, open_p),
            TopoOb("domain topology", GATE, domain, topology.OPEN, xs, open_q),
        )
    else:
        raise TopoUnknown(
            "goal and domain must both be certified open or both closed "
            f"(goal: closed {closed_p.status}/open {open_p.status}, "
            f"domain: closed {closed_q.status}/open {open_q.status})"
        )
    hyp = conj(list(target.context))
    initial = ArithOb(
        "initial state outside the goal",
        GATE,
        ArithObligation.closure(hyp, negate(post)),
    )
    ob_domain = conj([stronger_domain, negate(post)])
    inv = InvarianceOb(
        "stay inside the domain before the goal",
        PREMISE,
        Sequent(target.context, box(system.with_domain(ob_domain), domain)),
        hints=hints,
    )
    return ProofNode(Step("COR", note=f"both {pair}"), target, (child,), tops + (initial, inv))


def step_topo_semialg(target: Sequent, stronger_domain: Formula, child: "ProofNode", hints=()) -> ProofNode:
    """SAR: domain refinement assuming only not(P and Q) in the box domain."""
    system, domain, post = _dia_parts(target)
    want = Sequent(target.context, dia(system.with_domain(stronger_domain), post))
    if child.conclusion != want:
        raise ShapeMismatch("semialgebraic refinement child proves the wrong sequent")
    ob_domain = conj([stronger_domain, negate(conj([post, domain]))])
    inv = InvarianceOb(
        "stay inside the domain before goal-and-domain",
        PREMISE,
        Sequent(target.context, box(system.with_domain(ob_domain), domain)),
        hints=hints,
    )
    return ProofNode(Step("SAR"), target, (child,), (inv,))


def step_ghost_clock(target: Sequent, child: "ProofNode") -> ProofNode:
    """dGt: prove the clocked system (clock fresh, starts at 0)."""
    system, domain, post = _dia_parts(target)
    if system.clock is not None:
        raise ClockNotFresh("system already carries a clock")
    clocked = system.with_clock(CLOCK_NAME)
    for f in target.context + (post, domain):
        if CLOCK_NAME in formula_variables(f):
            raise ClockNotFresh(f"{CLOCK_NAME} already occurs in the problem")
    t0 = Cmp("=", Polynomial.var(CLOCK_NAME), Polynomial.const(0))
    want = Sequent(target.context + (t0,), dia(clocked, post))
    if child.conclusion != want:
        raise ShapeMismatch("ghost clock child proves the wrong sequent")
    return ProofNode(Step("dGt"), target, (child,))


def _existence_time(kind: str, system: OdeSystem, bound: Optional[Polynomial], escape=None) -> Formula:
    """clock > bound (> _p without a bound) for an existence leaf, after the
    checks GEx and BEx share."""
    if system.clock is None:
        raise NoClock(f"{kind} existence needs the ghost clock")
    if system.domain not in (None, TRUE):
        raise ShapeMismatch(f"{kind} existence applies to unconstrained systems")
    if escape is not None:
        extra = formula_variables(escape) - set(system.vars)
        if extra:
            raise ShapeMismatch(f"bounded-escape formula mentions {sorted(extra)}; only ODE variables allowed")
    if bound is None:
        bound = Polynomial.var("_p")
    elif bound.variables() & set(system.state_names()):
        raise NonConstantBound(f"time bound {bound!r} mentions ODE state")
    return Cmp(">", Polynomial.var(system.clock), bound)


def step_exist_global(context, system: OdeSystem, bound: Optional[Polynomial]) -> ProofNode:
    """GEx leaf: a globally Lipschitz system exists past any constant time."""
    post = _existence_time("global", system, bound)
    lip = LipschitzOb("global existence", GATE, system)
    return ProofNode(Step("GEx"), Sequent(tuple(context), dia(system, post)), (), (lip,))


def step_exist_bounded(context, system: OdeSystem, escape: Formula, bound: Optional[Polynomial]) -> ProofNode:
    """BEx leaf: solutions leave any bounded set or survive past a constant time."""
    t_part = _existence_time("bounded", system, bound, escape)
    post = Or(negate(escape), t_part)
    topo = TopoOb("bounded escape set", GATE, escape, topology.BOUNDED, system.vars)
    return ProofNode(Step("BEx"), Sequent(tuple(context), dia(system, post)), (), (topo,))


def step_assumption(context, formula: Formula) -> ProofNode:
    """Leaf recording an unproved hypothesis; yields ConditionallyProved."""
    return ProofNode(
        Step("assumption"),
        Sequent(tuple(context), formula),
        (),
        (AssumeOb("duration assumption", formula),),
    )


def derived_node(name: str, conclusion: Sequent, children=(), obligations=(), note="") -> ProofNode:
    """A derived or invariance rule's application; obligations are its stated premises."""
    return ProofNode(Step(name, note), conclusion, tuple(children), tuple(obligations))


# ---------------------------------------------------------------------------
# Trace rendering


def _status_line(index: int, ob) -> str:
    v = ob.verdict()
    extra = ""
    if isinstance(ob, ArithOb) and ob.result is not None:
        method = ob.result.trace.get("method", "")
        if ob.result.counterexample is not None:
            cx = ", ".join(f"{k}={v}" for k, v in sorted(ob.result.counterexample.items()))
            extra = f" counterexample [{cx}]"
        elif method:
            extra = f" via {method}"
    if isinstance(ob, TopoOb) and ob.result is not None and ob.result.witness is not None:
        extra = f" witness B={ob.result.witness}"
    return f"  ob-{index} [{ob.role}] {ob.label}: {v}{extra} -- {ob.describe()}"


def _emit(node: ProofNode, depth: int, lines: list) -> None:
    """Append the lines of `node`'s subtree to `lines`, children first."""
    for child in node.children:
        _emit(child, depth + 1, lines)
    note = f" ({node.step.note})" if node.step.note else ""
    lines.append(f"{depth} {node.step.name}{note} {node.verdict()} -- {print_sequent(node.conclusion)}")


def render_trace(root: ProofNode) -> str:
    lines: list = []
    _emit(root, 0, lines)
    lines.append("obligations:")
    # numbered as `all_obligations` yields them, as emit-smt numbers its files
    for index, ob in enumerate(root.all_obligations()):
        lines.append(_status_line(index, ob))
        if isinstance(ob, InvarianceOb) and ob.proof is not None:
            for sub in ob.proof.walk():
                lines.append(f"        . {sub.step.name} {sub.verdict()} -- {print_sequent(sub.conclusion)}")
    return "\n".join(lines) + "\n"
