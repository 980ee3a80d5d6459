"""Trusted proof core: sequents, obligations, proof nodes, proof steps.

A ProofNode records one application of an axiom or rule, together with the
obligations that application generates.  Nodes are built bottom-up: each
`step_*` constructor receives the already-built child subtrees, computes its
own premises from the target sequent and checks each child's conclusion
against the sequent that child must prove.  The diamond-modality steps are
M◇′, K⟨&⟩, DR⟨·⟩, COR, SAR, dGt and the existence leaves GEx and BEx; the
box-modality (invariance) steps are DW, DI, BC, DC, DX, ∧-split and
DomainWeaken.  The eighteen derived liveness rules are six more steps, one
per family (dV, dV_eq, SP, SP_b/SP_c, SLyap, SP_ck_dom/E_c_dom) that refuses
other rule names, works out every premise from the target sequent and the
certificate's parameters, builds its own existence leaf from the duration
kind and the witnesses, and concludes the target as written.

Verdict propagation: a node is Proved iff every obligation passed and every
child is Proved; ConditionallyProved when the only shortfall is explicit
Assumption leaves; Refuted when an arithmetic obligation in the PREMISE role
(a certificate premise) was falsified with an exact counterexample; Unknown
otherwise.  Falsified obligations that are not certificate premises (for
example a failed hint inside an invariance attempt) yield Unknown, because
they disprove the hint, not the conclusion.

`discharge` settles each obligation with a checker object (see `rules.Checker`).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import topology
from .arith import ArithObligation, ArithVerdict, FALSIFIED
from .errors import (
    ClockNotFresh,
    HintMismatch,
    MissingCertificateField,
    NoClock,
    NonConstantBound,
    ShapeMismatch,
    TopoUnknown,
)
from .record import Frozen, Record
from .symbolic import OdeSystem, Polynomial, higher_lie, lie_derivative, primitive
from .syntax import (
    TRUE,
    And,
    Cmp,
    Formula,
    Modal,
    Or,
    conj,
    conjuncts,
    disjuncts,
    formula_variables,
    negate,
    print_formula,
    print_ode,
    print_poly,
)
from .normal import norm_atom

CLOCK_NAME = "_t"
ZERO = Polynomial.const(0)
CLOCK_START = Cmp("=", Polynomial.var(CLOCK_NAME), ZERO)  # the ghost clock's initial value

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


def discharge(ob, checker) -> None:
    """Settle `ob` with `checker`'s provers (`prove`, `prove_box`,
    `bounded`), once.  The checker keeps each verdict, invariance proof and
    Bounded search for the command, so an obligation posed twice (a Compact
    gate and a Bounded leaf on one set, a stay premise equal to another
    invariance premise) is worked out once."""
    if isinstance(ob, ArithOb):
        if ob.result is None:
            ob.result = checker.prove(ob.obligation)
    elif isinstance(ob, TopoOb):
        if ob.result is None:
            if ob.prop == topology.CLOSED:
                ob.result = topology.check_closed(ob.formula)
            elif ob.prop == topology.OPEN:
                ob.result = topology.check_open(ob.formula)
            elif ob.prop == topology.BOUNDED:
                ob.result = checker.bounded(ob.formula, ob.vars)
            else:
                ob.result = topology.check_compact(ob.formula, ob.vars, checker.bounded)
    elif isinstance(ob, LipschitzOb):
        if ob.result is None:
            ob.result = ob.system.is_affine()
    elif isinstance(ob, InvarianceOb):
        if ob.proof is None:
            ob.proof = checker.prove_box(ob.sequent, ob.hints)
    # AssumeOb needs no discharge


def _ob(label: str, role: str, hyp: Formula, concl: Formula) -> ArithOb:
    return ArithOb(label, role, ArithObligation.closure(hyp, concl))


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
    ob = _ob("monotonicity premise", PREMISE, conj([domain, stronger]), post)
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
    pairs = (("closed", topology.CLOSED, closed_p, closed_q), ("open", topology.OPEN, open_p, open_q))
    for pair, prop, on_p, on_q in pairs:
        if on_p.holds and on_q.holds:
            break
    else:
        raise TopoUnknown(
            "goal and domain must both be certified open or both closed "
            f"(goal: closed {closed_p.status}/open {open_p.status}, "
            f"domain: closed {closed_q.status}/open {open_q.status})"
        )
    tops = (
        TopoOb("goal topology", GATE, post, prop, xs, on_p),
        TopoOb("domain topology", GATE, domain, prop, xs, on_q),
    )
    initial = _ob("initial state outside the goal", GATE, conj(list(target.context)), negate(post))
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
    want = Sequent(target.context + (CLOCK_START,), dia(clocked, post))
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
    """GEx leaf: a globally Lipschitz system exists past any constant time.
    Its gate names the vector field unclocked; the rule above shares it."""
    post = _existence_time("global", system, bound)
    lip = LipschitzOb("GlobalLipschitz", GATE, OdeSystem(system.vars, system.rhs, system.domain, system.params))
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
    """Cheap propositional check that a -> b is valid: b is a, has a as a
    disjunct, or is a conjunction of conjuncts of a, each read as written
    (in negation normal form, as every formula is)."""
    if b == TRUE or a == b:
        return True
    ca, cb = conjuncts(a), conjuncts(b)
    return a in disjuncts(b) or bool(cb) and all(c in ca for c in cb)


def step_dw(target: Sequent) -> ProofNode:
    """DW: the domain implies the postcondition; no premise is left when it
    does so syntactically."""
    _, domain, post = modal_parts(target, True)
    if _taut_implies(domain, post):
        return ProofNode(Step("DW", "domain implies postcondition syntactically"), target)
    return ProofNode(Step("DW"), target, (), (_ob("weakening premise", INTERNAL, domain, post),))


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
    initial = _ob("invariant true initially", INTERNAL, conj(target.context), a.to_formula())
    if boundary:
        lie = _ob("strict inflow on the boundary", INTERNAL, conj([domain, Cmp("=", e, zero)]), Cmp(">", le, zero))
    elif a.op == "=":
        lie = _ob("Lie derivative vanishes", INTERNAL, domain, Cmp("=", le, zero))
    else:
        lie = _ob("Lie derivative sign condition", INTERNAL, domain, Cmp(">=", le, zero))
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
    initial = _ob("barrier negative initially", INTERNAL, conj(target.context), Cmp("<", p, zero))
    hyp, le = conj([domain, Cmp("=", p, zero)]), lie_derivative(p, system)
    boundary = _ob("barrier decreases on the boundary", INTERNAL, hyp, Cmp("<", le, zero))
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
    context = target.context + tuple(conjuncts(domain))
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


def _time_bound(p0: Optional[Fraction], eps: Optional[Polynomial], p1=Fraction(0)) -> Optional[Polynomial]:
    """(p1 - p0) / eps: how long a variant rising at rate eps from p0 takes to reach p1."""
    e = None if eps is None else eps.constant_value()
    if p0 is None or p1 is None or e is None or e <= 0:
        return None
    return Polynomial.const((p1 - p0) / e)


def _is_atom(f: Formula, p: Polynomial, op: str) -> bool:
    """f is the comparison p `op` 0 up to a positive factor."""
    if not isinstance(f, Cmp):
        return False
    a, want = norm_atom(f), norm_atom(Cmp(op, p, ZERO))
    return a.op == want.op and primitive(a.poly) == primitive(want.poly)


def in_domain(name: str) -> bool:
    """Rule `name` argues inside the domain Q; any other rule is refined to Q by DR, COR or SAR."""
    return name.endswith("_dom")


def check_rule(name: str, target: Sequent, variant=None) -> None:
    """Rule `name`'s shape checks of its target Γ ⊢ <x' = f & Q> P, run before
    any witness search: Q only for a `_dom` rule; a `variant` (p, op) is P."""
    _, domain, goal = modal_parts(target)
    if in_domain(name) and domain == TRUE:
        raise ShapeMismatch(f"rule {name} needs a domain block")
    if not in_domain(name) and domain != TRUE:
        raise ShapeMismatch(f"rule {name} applies to unconstrained problems; use {name}_dom")
    if variant is not None and not isinstance(goal, Cmp):
        refine = "use 'post'/'via' bindings to refine it first"
        raise ShapeMismatch(f"goal {print_formula(goal)} is not an atomic comparison; {refine}")
    if variant is not None and not _is_atom(goal, *variant):
        p, op = variant
        raise ShapeMismatch(f"goal {print_formula(goal)} does not match variant condition {print_poly(p)} {op} 0")


def check_eps(name: str, eps: Optional[Polynomial], system: OdeSystem) -> Polynomial:
    """Rule `name`'s rate eps, a polynomial over the declared constant
    parameters, checked before any witness search; the rule gates eps > 0."""
    if eps is None or eps.variables() - system.params:
        raise MissingCertificateField(f"rule {name} needs eps, a rational or a polynomial in declared parameters")
    return eps


class _Derived:
    """A derived rule of `family` applied to Γ ⊢ <x' = f & Q> P: the parts its
    premises are built from, inside Q for a `_dom` rule."""

    def __init__(self, name: str, family: tuple, target: Sequent, variant=None):
        if name not in family:
            raise ShapeMismatch(f"rule {name} is not one of {', '.join(family)}")
        check_rule(name, target, variant)
        system, self.domain, self.post = modal_parts(target)
        self.name, self.dom, self.gamma = name, in_domain(name), target.context
        self.sys0 = system.with_domain(TRUE)
        self.system = system if self.dom else self.sys0
        self.const_ctx = context_filter(target.context, system)  # kept across the rule's steps
        self.target = Sequent(self.gamma, dia(self.system, self.post))

    def premise(self, label: str, concl: Formula, *parts) -> ArithOb:
        """A premise whose hypothesis is the parts and the constant context."""
        return _ob(label, PREMISE, conj(list(parts) + list(self.const_ctx)), concl)

    def initially(self, label: str, f: Formula, role: str = GATE) -> ArithOb:
        return _ob(label, role, conj(list(self.gamma)), f)

    def topo(self, prop: str, f: Formula) -> TopoOb:
        return TopoOb(f"{prop}({print_formula(f)})", GATE, f, prop, self.sys0.vars)

    def stay(self, label: str, during: Formula, inside: Formula, hints) -> InvarianceOb:
        """Γ ⊢ [x' = f & during] inside: while `during` holds, the flow stays `inside`."""
        seq = Sequent(self.gamma, box(self.sys0.with_domain(during), inside))
        return InvarianceOb(label, PREMISE, seq, hints=hints)

    def eps_gate(self, eps: Optional[Polynomial]) -> ArithOb:
        """eps > 0, under the constant context when eps is a parameter."""
        check_eps(self.name, eps, self.sys0)
        hyp = TRUE if eps.constant_value() is not None else conj(list(self.const_ctx))
        return _ob("eps positive", GATE, hyp, Cmp(">", eps, ZERO))

    def region(self, bounds: Optional[Formula]) -> Formula:
        """R: a `_dom` rule's domain conjoined with the certificate's box `bounds`."""
        parts = {"domain": self.domain if self.dom else None, "box": bounds}
        parts = {name: f for name, f in parts.items() if f is not None}
        self.where = " and ".join(parts)
        return conj(list(parts.values()))

    def inside(self, region: Formula, obligations: list, prop: str, initial: Formula, during, purpose: str, hints):
        """`obligations` argued inside R: gates prop(R) and Γ ⊢ `initial`, the stay premise last."""
        if region == TRUE:
            return obligations
        named = self.where if initial is region else print_formula(initial)  # R goes by its name
        gates = [self.topo(prop, region), self.initially(f"InitialState {named}", initial)]
        return gates + obligations + [self.stay(f"stay in the {self.where} {purpose}", during, region, hints)]

    def leaf(self, kind: str, context=None, *, p0=None, eps=None, p1=Fraction(0), escape=None, order=1) -> ProofNode:
        """The rule's existence leaf over the unconstrained system with the
        ghost clock, under the constant context by default: GEx, or BEx
        leaving `escape`, outlasting (p1 - p0) / eps for a variant of
        `order` 1, else any _p; or the assumption p0 + eps*_t > 0."""
        context = self.const_ctx if context is None else context
        clocked = self.sys0.with_clock(CLOCK_NAME)
        if kind == "assumption":
            start = Polynomial.var("_p0") if p0 is None else Polynomial.const(p0)
            return step_assumption(context, dia(clocked, Cmp(">", start + eps * Polynomial.var(CLOCK_NAME), ZERO)))
        bound = _time_bound(p0, eps, p1) if order == 1 else None
        if kind == "GEx":
            return step_exist_global(context, clocked, bound)
        if kind == "BEx" and escape is not None:
            return step_exist_bounded(context, clocked, escape, bound)
        raise ShapeMismatch(f"rule {self.name} has no {kind} existence leaf")

    def node(self, children, obligations, note: str = "") -> ProofNode:
        return ProofNode(Step(self.name, note), self.target, tuple(children), tuple(obligations))


def step_dv(name, target, p, eps, duration, *, op, order=1, bounds=None, p0=None, p1=Fraction(0), escape=None,
            hints=(), escape_hints=()) -> ProofNode:
    """dV_geq, dV_gt, dV_geq_star, dV_k and the `_dom` variants: off the goal
    p `op` 0, the `order`-th Lie derivative of p is at least eps.  The
    `duration` leaf GEx (sharing its GlobalLipschitz gate, CE-1), BEx over
    `escape` or an assumption makes the flow last.  Inside a region R, the
    domain and the certificate's box `bounds` (which bounds an otherwise
    unbounded premise), the gates Closed/Open(R) and Γ ⊢ ¬P (CE-3) and a
    stay premise join."""
    r = _Derived(name, ("dV_geq", "dV_gt", "dV_geq_star", "dV_k", "dV_geq_dom", "dV_gt_dom"), target, (p, op))
    not_goal = negate(Cmp(op, p, ZERO))
    region = r.region(bounds)
    slope = Cmp(">=", higher_lie(p, r.sys0, order), eps)
    obligations = [r.eps_gate(eps), r.premise("variant slope premise", slope, not_goal, region)]
    leaf = r.leaf(duration, p0=p0, eps=eps, p1=p1, escape=escape, order=order)
    if order == 1 and _time_bound(p0, eps) is not None:
        obligations.append(r.initially("initial variant value", Cmp(">=", p, Polynomial.const(p0)), WITNESS))
    if duration == "GEx":
        obligations.insert(0, leaf.obligations[0])
    elif duration == "BEx":
        obligations.append(r.stay("stay in the bounded set before the goal", not_goal, escape, escape_hints))
        if order == 1 and _time_bound(p0, eps, p1) is not None:
            at_most = Cmp("<=", p, Polynomial.const(p1))
            obligations.append(_ob("variant bounded on escape set", WITNESS, escape, at_most))
    prop = topology.CLOSED if op == ">=" else topology.OPEN
    obligations = r.inside(region, obligations, prop, not_goal, not_goal, "before the goal", hints)
    chain = [f"L^{i} p >= _g{i} + eps*t^{order - i}/{order - i}!" for i in range(order - 1, 0, -1)]
    note = "dC chain: " + "; ".join(chain) if chain else ""
    return r.node((leaf,), obligations, note)


def step_dv_eq(name, target, p, eps, *, bounds=None, p0=None, hints=(), replay_hints=()) -> ProofNode:
    """dV_eq and dV_eq_dom: p <= 0 rises at rate eps while negative, so it
    reaches p = 0 within the GEx leaf's time; the internal replay keeps it
    negative until then.  Inside a region R, Closed(R), Γ ⊢ R and a stay
    premise join.  dV_eqM(_dom) concludes the goal from the zero set."""
    mono = name in ("dV_eqM", "dV_eqM_dom")
    r = _Derived(name, ("dV_eq", "dV_eqM", "dV_eq_dom", "dV_eqM_dom"), target, None if mono else (p, "="))
    goal = Cmp("=", p, ZERO)
    region = r.region(bounds)
    p_lt, p_le = Cmp("<", p, ZERO), Cmp("<=", p, ZERO)
    slope = Cmp(">=", lie_derivative(p, r.sys0), eps)
    before = Sequent(r.gamma + (p_le,), box(r.sys0.with_domain(conj([region, Cmp("!=", p, ZERO)])), p_lt))
    replay = InvarianceOb("variant negative before the goal", INTERNAL, before, hints=replay_hints)
    gex = r.leaf("GEx", p0=p0, eps=eps)
    obligations = [gex.obligations[0], r.eps_gate(eps), r.initially("InitialState p <= 0", p_le)]
    obligations += [r.premise("variant slope premise", slope, p_lt, region), replay]
    obligations = r.inside(region, obligations, topology.CLOSED, region, p_lt, "while the variant is negative", hints)
    if not mono:
        return r.node((gex,), obligations)
    reached = Sequent(r.gamma, dia(r.system, goal))
    node = ProofNode(Step("dV_eq_dom" if r.dom else "dV_eq"), reached, (gex,), tuple(obligations))
    return r.node((node,), (_ob("goal from the zero set", PREMISE, conj([r.domain, goal]), r.post),))


def step_sp(name, target, p, eps, S, *, p0=None, hints=()) -> ProofNode:
    """SP: on the staging set S, where the flow stays until the goal, p <= 0
    rises at rate eps; SP_dom keeps S inside the domain, and the flow in S
    until goal-and-domain."""
    r = _Derived(name, ("SP", "SP_dom"), target)
    rising = conj([r.domain, Cmp("<=", p, ZERO), Cmp(">=", lie_derivative(p, r.sys0), eps)])
    before = negate(And(r.post, r.domain) if r.dom else r.post)
    gex = r.leaf("GEx", p0=p0, eps=eps)
    staging = r.stay("staging invariance", before, S, hints)
    return r.node((gex,), (gex.obligations[0], r.eps_gate(eps), staging, r.premise("staging premise", rising, S)))


def step_sp_bounded(name, target, p, S, eps, *, p0=None, p1=None, hints=(), duration_hints=()) -> ProofNode:
    """SP_b (S bounded, p rising at rate eps) and SP_c (S compact, p strictly
    rising; eps a witness): BEx leaves S or outlasts (p1 - p0) / eps, which
    the flow cannot spend in S (K⟨&⟩ by the clock cut `duration_hints`,
    dGt); it stays in S until the goal."""
    r = _Derived(name, ("SP_b", "SP_c"), target)
    lie = lie_derivative(p, r.sys0)
    if name == "SP_c":
        increasing = r.premise("variant strictly increasing on the stage", Cmp(">", lie, ZERO), S)
        obligations = [r.topo(topology.COMPACT, S), increasing]
        if eps is not None:
            obligations.append(_ob("variant slope witness", WITNESS, S, Cmp(">=", lie, eps)))
    else:
        slope = r.premise("variant slope on the stage", Cmp(">=", lie, eps), S)
        obligations = [r.topo(topology.BOUNDED, S), r.eps_gate(eps), slope]
    clocked = r.gamma + (CLOCK_START,)
    bex = r.leaf("BEx", clocked, p0=p0, eps=eps, p1=p1, escape=S)
    escape = bex.conclusion.succedent.post
    if _time_bound(p0, eps, p1) is None:
        duration_hints = ()  # no time to cut the clock at
    else:
        obligations.append(_ob("variant bounded on staging set", WITNESS, S, Cmp("<=", p, Polynomial.const(p1))))
    not_S = negate(S)
    within = Sequent(clocked, dia(bex.conclusion.succedent.system, not_S))
    timed = step_goal_refine(within, escape, bex, duration_hints, "escape within the time bound")
    untimed = step_ghost_clock(Sequent(r.gamma, dia(r.sys0, not_S)), timed)
    return r.node((step_goal_refine(r.target, not_S, untimed, hints, "staging invariance"),), obligations)


def step_slyap(name, target, p, K, *, strict=False) -> ProofNode:
    """SLyap and SLyap_dom (domain exactly p > 0): p >= 0 initially (p > 0
    if `strict` or under the domain), the set p >= 0 lies inside the compact
    K (CE-4), and p rises off the open goal, so BEx leaves K minus the goal."""
    r = _Derived(name, ("SLyap", "SLyap_dom"), target)
    if r.dom and not _is_atom(r.domain, p, ">"):
        raise ShapeMismatch("SLyap_dom needs the domain to be exactly p > 0")
    op = ">" if r.dom or strict else ">="
    not_goal = negate(r.post)
    obligations = (
        r.topo(topology.COMPACT, K),
        r.topo(topology.OPEN, r.post),
        r.initially(f"InitialState p {op} 0", Cmp(op, p, ZERO)),
        r.premise("sublevel set inside K", K, Cmp(">=", p, ZERO)),
        r.premise("Lie derivative positive off the goal", Cmp(">", lie_derivative(p, r.sys0), ZERO), not_goal, K),
    )
    return r.node((r.leaf("BEx", escape=conj([K, not_goal])),), obligations)


def step_compact_dom(name, target, p, *, S=None, k=1, hints=()) -> ProofNode:
    """SP_ck_dom (a compact stage S inside the domain, the k-th Lie
    derivative of p positive) and E_c_dom (no S: the stage is the domain off
    the goal, k = 1); the flow stays put until goal-and-domain, and BEx
    leaves the stage."""
    r = _Derived(name, ("SP_ck_dom", "E_c_dom"), target)
    staged = name == "SP_ck_dom"
    if staged != (S is not None) or not staged and k != 1:
        raise ShapeMismatch("SP_ck_dom takes a staging set S, E_c_dom neither S nor k")
    positive = Cmp(">", higher_lie(p, r.sys0, k), ZERO)
    before = negate(And(r.post, r.domain))
    if staged:
        stay = r.stay("staging invariance", before, S, hints)
        premise = r.premise("stage inside the domain with increasing variant", conj([r.domain, positive]), S)
    else:
        S = conj([r.domain, negate(r.post)])
        stay = r.stay("stay in the domain before goal-and-domain", before, r.domain, hints)
        premise = r.premise("Lie derivative positive off the goal", positive, S)
    return r.node((r.leaf("BEx", escape=S),), (r.topo(topology.COMPACT, S), stay, premise), f"k = {k}")


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
