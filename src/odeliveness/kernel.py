"""Trusted proof core: sequents, obligations, proof nodes, proof steps.

A ProofNode records one application of an axiom or rule, together with the
obligations that application generates.  Nodes are built bottom-up: each
`step_*` constructor receives the already-built child subtrees, computes its
own premises from the target sequent and checks each child's conclusion
against the sequent that child must prove.  The diamond-modality steps are
M◇′, K⟨&⟩, DR⟨·⟩, COR, SAR, dGt and the existence leaves GEx and BEx; the
box-modality (invariance) steps are DW, DI, BC, DC, DX, ∧-split and
DomainWeaken.  The one exception is `derived_node`, the macro node of a
derived liveness rule, whose premises `rules` states.

Verdict propagation: a node is Proved iff every obligation passed and every
child is Proved; ConditionallyProved when the only shortfall is explicit
Assumption leaves; Refuted when an arithmetic obligation in the PREMISE role
(a certificate premise) was falsified with an exact counterexample; Unknown
otherwise.  Falsified obligations that are not certificate premises (for
example a failed hint inside an invariance attempt) yield Unknown, because
they disprove the hint, not the conclusion.

Obligation discharge is delegated to a checker object (see `rules.Checker`).
"""
from __future__ import annotations

from typing import Optional

from . import topology
from .arith import ArithObligation, ArithVerdict, FALSIFIED
from .errors import (
    ClockNotFresh,
    HintMismatch,
    NoClock,
    NonConstantBound,
    ShapeMismatch,
    TopoUnknown,
)
from .record import Frozen, Record
from .symbolic import OdeSystem, Polynomial, lie_derivative, primitive
from .syntax import (
    TRUE,
    Cmp,
    Formula,
    Modal,
    Or,
    conj,
    conjuncts,
    disjuncts,
    formula_variables,
    print_formula,
    print_ode,
    print_poly,
)
from .normal import negate, nnf, norm_atom

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


def context_filter(context, system: OdeSystem) -> tuple:
    """The formulas of a context that are constant for the ODE."""
    state = set(system.state_names())
    return tuple(f for f in context if not formula_variables(f) & state)


# ---------------------------------------------------------------------------
# Obligations


class ArithOb(Record):
    __slots__ = ("label", "role", "obligation", "result")

    # Written out, as are `ProofNode`'s and `arith.ArithVerdict`'s: a check
    # builds one of each per obligation, and the shared constructor costs
    # three to four times as much for a mutable record with defaults.
    def __init__(self, label, role, obligation, result=None):
        self.label = label
        self.role = role
        self.obligation = obligation
        self.result = result

    def verdict(self) -> str:
        if self.result is None:
            return UNKNOWN
        if self.result.is_valid:
            return PROVED
        if self.result.status == FALSIFIED and self.role == PREMISE:
            return REFUTED  # a falsified certificate premise refutes the certificate
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


def modal_parts(seq: Sequent, boxed: bool = False):
    """(system, Q or TRUE, P) of Γ ⊢ <x' = f & Q> P, or of Γ ⊢ [x' = f & Q] P if `boxed`."""
    s = seq.succedent
    if not isinstance(s, Modal) or s.box != boxed:
        if boxed:
            raise ShapeMismatch(f"invariance target must be a box sequent, got {print_sequent(seq)}")
        raise ShapeMismatch(f"expected a diamond succedent, got {print_formula(s)}")
    return s.system, s.system.domain if s.system.domain is not None else TRUE, s.post


def step_monotone_dia(target: Sequent, stronger: Formula, child: "ProofNode") -> ProofNode:
    """M dia: from Gamma |- <x'=f & Q> R and Q, R |- P conclude the target."""
    system, domain, post = modal_parts(target)
    want = Sequent(target.context, dia(system, stronger))
    if child.conclusion != want:
        raise ShapeMismatch("monotonicity child proves the wrong sequent")
    hyp = conj([domain, stronger])
    ob = ArithOb("monotonicity premise", PREMISE, ArithObligation.closure(hyp, post))
    return ProofNode(Step("M◇′"), target, (child,), (ob,))


def step_goal_refine(target: Sequent, via: Formula, child: "ProofNode", hints=(), label="goal refinement") -> ProofNode:
    """K<&>: the solution cannot reach `via` before reaching the target goal."""
    system, domain, post = modal_parts(target)
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
    system, domain, post = modal_parts(target)
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
    system, domain, post = modal_parts(target)
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
    system, domain, post = modal_parts(target)
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
    system, domain, post = modal_parts(target)
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


def step_exist_global(context, system: OdeSystem, bound: Optional[Polynomial], lip: LipschitzOb) -> ProofNode:
    """GEx leaf: a globally Lipschitz system exists past any constant time.
    `lip`, the rule's shared gate, must name this vector field unclocked."""
    post = _existence_time("global", system, bound)
    gated = lip.system
    if (gated.vars, gated.rhs, gated.clock) != (system.vars, system.rhs, None):
        raise ShapeMismatch(f"the Lipschitz gate names {print_ode(gated)}, not this vector field")
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


# ---------------------------------------------------------------------------
# Step constructors: invariance axioms for Γ ⊢ [x' = f & Q] P


def _internal(label: str, hyp: Formula, concl: Formula) -> ArithOb:
    return ArithOb(label, INTERNAL, ArithObligation.closure(hyp, concl))


def _concludes(child: "ProofNode", context, system: OdeSystem, domain: Formula, post: Formula) -> bool:
    """`child` proves context ⊢ [x' = f & domain] post over the vector field of
    `system`, compared by parts: `with_domain` would validate it anew."""
    c, s = child.conclusion, child.conclusion.succedent
    if c.context != context or not isinstance(s, Modal) or not s.box or s.post != post:
        return False
    f = s.system
    got = (f.vars, f.rhs, f.params, f.clock, TRUE if f.domain is None else f.domain)
    return got == (system.vars, system.rhs, system.params, system.clock, domain)


def _taut_implies(a: Formula, b: Formula) -> bool:
    """Cheap propositional check that a -> b is valid: in NNF, b is a, has a
    as a disjunct, or is a conjunction of conjuncts of a."""
    if b == TRUE or a == b:
        return True
    na, nb = nnf(a), nnf(b)
    ca, cb = conjuncts(na), conjuncts(nb)
    return na == nb or na in disjuncts(nb) or bool(cb) and all(c in ca for c in cb)


def step_dw(target: Sequent) -> ProofNode:
    """DW: the domain implies the postcondition; no premise is left when it
    does so syntactically."""
    _, domain, post = modal_parts(target, True)
    if _taut_implies(domain, post):
        return ProofNode(Step("DW", "domain implies postcondition syntactically"), target)
    return ProofNode(Step("DW"), target, (), (_internal("weakening premise", domain, post),))


def step_di(target: Sequent, boundary: bool = False) -> ProofNode:
    """DI for an atomic postcondition e ~ 0: true initially, and on the domain
    e' = 0 for an equation, e' >= 0 for an inequality; or, the `boundary`
    variant of an inequality, e' > 0 where the domain meets e = 0."""
    system, domain, post = modal_parts(target, True)
    if not isinstance(post, Cmp):
        raise HintMismatch("DI applies to atomic comparison postconditions only")
    a = norm_atom(post)
    if a.op == "!=":
        raise HintMismatch("DI does not apply to disequalities")
    if boundary and a.op == "=":
        raise HintMismatch("the strict-boundary variant of DI applies to inequalities")
    e, zero = a.poly, Polynomial.const(0)
    le = lie_derivative(e, system)
    initial = _internal("invariant true initially", conj(target.context), a.to_formula())
    if boundary:
        lie = _internal("strict inflow on the boundary", conj([domain, Cmp("=", e, zero)]), Cmp(">", le, zero))
    elif a.op == "=":
        lie = _internal("Lie derivative vanishes", domain, Cmp("=", le, zero))
    else:
        lie = _internal("Lie derivative sign condition", domain, Cmp(">=", le, zero))
    return ProofNode(Step("DI", "strict boundary variant" if boundary else ""), target, (), (initial, lie))


def step_bc(target: Sequent, p: Polynomial) -> ProofNode:
    """Strict barrier: p < 0 is invariant if it holds initially and p
    decreases wherever the domain meets p = 0."""
    system, domain, post = modal_parts(target, True)
    if not isinstance(post, Cmp):
        raise HintMismatch("BC applies to atomic strict comparisons")
    a = norm_atom(post)
    if a.op != ">" or primitive(a.poly) != primitive(-p):
        raise HintMismatch(f"BC polynomial {print_poly(p)} does not match postcondition {print_formula(post)}")
    zero = Polynomial.const(0)
    initial = _internal("barrier negative initially", conj(target.context), Cmp("<", p, zero))
    hyp, le = conj([domain, Cmp("=", p, zero)]), lie_derivative(p, system)
    boundary = _internal("barrier decreases on the boundary", hyp, Cmp("<", le, zero))
    return ProofNode(Step("BC"), target, (), (initial, boundary))


def step_dc(target: Sequent, cut: Formula, cut_proof: "ProofNode", rest_proof: "ProofNode") -> ProofNode:
    """DC: from Γ ⊢ [x' = f & Q] C and Γ ⊢ [x' = f & Q ∧ C] P conclude the target."""
    system, domain, post = modal_parts(target, True)
    if not (
        _concludes(cut_proof, target.context, system, domain, cut)
        and _concludes(rest_proof, target.context, system, conj([domain, cut]), post)
    ):
        raise ShapeMismatch("differential cut children prove the wrong sequents")
    return ProofNode(Step("DC", print_formula(cut)), target, (cut_proof, rest_proof))


def step_dx(target: Sequent, child: "ProofNode") -> ProofNode:
    """DX: the domain holds initially, so its conjuncts join the context."""
    system, domain, post = modal_parts(target, True)
    context = target.context + tuple(conjuncts(nnf(domain)))
    if not _concludes(child, context, system, domain, post):
        raise ShapeMismatch("DX child proves the wrong sequent")
    return ProofNode(Step("DX"), target, (child,))


def step_and_split(target: Sequent, children) -> ProofNode:
    """∧-split: one child per conjunct of the postcondition."""
    system, domain, post = modal_parts(target, True)
    parts = conjuncts(post)
    if len(children) != len(parts) or not all(
        _concludes(child, target.context, system, domain, part) for child, part in zip(children, parts)
    ):
        raise ShapeMismatch("∧-split children prove the wrong sequents")
    return ProofNode(Step("∧-split"), target, tuple(children))


def step_domain_weaken(target: Sequent, weaker: Formula, child: "ProofNode") -> ProofNode:
    """DomainWeaken: prove the target over a domain the current one implies
    propositionally."""
    system, domain, post = modal_parts(target, True)
    if not _taut_implies(domain, weaker):
        raise HintMismatch(f"DomainWeaken: cannot certify {print_formula(domain)} -> {print_formula(weaker)}")
    if not _concludes(child, target.context, system, weaker, post):
        raise ShapeMismatch("DomainWeaken child proves the wrong sequent")
    return ProofNode(Step("DomainWeaken", print_formula(weaker)), target, (child,))


def derived_node(name: str, conclusion: Sequent, children=(), obligations=(), note="") -> ProofNode:
    """A derived liveness rule's macro node; obligations are its stated
    premises.  The one way to build a node outside the step constructors."""
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
