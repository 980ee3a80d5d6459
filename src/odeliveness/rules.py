"""The derived liveness proof rules and the invariance sub-prover.

Each rule builder turns a parsed certificate into a kernel refinement chain
whose obligations are exactly the rule's premises and side conditions.  The
acceptance-critical rules expand into explicit existence / goal-refinement
steps so the printed chain mirrors the derivations; the remaining rules are
derived-rule macro nodes over an existence leaf.  Every builder assembles
its chain from the same parts of a `_Rule` context: the topological gate,
the stay-in-a-set invariance premise, the premise hypothesis with the
constant context, the initial value witness and the existence leaves.

Box-modality premises are discharged by `prove_invariance`, which applies
certificate hints in order:

    DI            differential invariant for an atomic comparison; tries the
                  plain Lie-inequality premise first and falls back to the
                  sound strict-boundary variant for closed comparisons
    DC            differential cut (recursive sub-hints), then continues with
                  the cut added to the evolution domain
    DW            differential weakening: domain implies postcondition
    DX            assume the evolution domain in the initial context
    BC            strict barrier: postcondition p < 0 with boundary condition
                  domain and p = 0 implies Lie derivative of p negative
    DomainWeaken  replace the domain by a propositionally weaker one

An arithmetic premise whose hypothesis leaves a variable unbounded stays
Unknown, never Proved.  The variant rules accept a `box` formula to bound
it; the box is conjoined into the region the rule argues inside (the
domain of a `_dom` rule, else true) and so gets the domain's parts: the
topological gate, the initial state, the premise hypothesis, and the stay
premise, proved with the certificate's `hints`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import arith, topology
from .errors import (
    HintMismatch,
    MissingCertificateField,
    RuleRefused,
    ShapeMismatch,
    TopoUnknown,
    UnreadBinding,
)
from .kernel import (
    CLOCK_NAME,
    GATE,
    INTERNAL,
    PREMISE,
    PROVED,
    WITNESS,
    ArithOb,
    InvarianceOb,
    LipschitzOb,
    ProofNode,
    Sequent,
    TopoOb,
    box,
    context_filter,
    derived_node,
    dia,
    print_sequent,
    step_assumption,
    step_exist_bounded,
    step_exist_global,
    step_ghost_clock,
    step_goal_refine,
    step_monotone_dia,
    step_refine_domain,
    step_topo_closed_open,
    step_topo_semialg,
)
from .normal import atoms_of, equality_polys, negate, nnf, norm_atom
from .record import Frozen
from .symbolic import (
    Polynomial,
    higher_lie,
    lie_derivative,
    primitive,
    reduce_mod_equalities,
)
from .syntax import (
    TRUE,
    And,
    BoolLit,
    CertStep,
    Cmp,
    Formula,
    Implies,
    Modal,
    Not,
    Or,
    ProblemFile,
    Quant,
    conj,
    conjuncts,
    disjuncts,
    print_formula,
    print_poly,
)

ZERO = Polynomial.const(0)

# ---------------------------------------------------------------------------
# Invariance hints


class DIStep(Frozen):
    __slots__ = ("formula",)
    _defaults = {"formula": None}  # None: the node's postcondition


class DCStep(Frozen):
    __slots__ = ("cut", "hints")
    _defaults = {"hints": ()}


class DWStep(Frozen):
    __slots__ = ()


class DXStep(Frozen):
    __slots__ = ()


class BCStep(Frozen):
    __slots__ = ("poly",)


class DomainWeakenStep(Frozen):
    __slots__ = ("formula",)


# hint step -> (its step class, the bindings it reads as `_binding`
# arguments: key, kind, default, required)
_HINTS = {
    "DI": (DIStep, (("f", "formula"),)),
    "DC": (DCStep, (("f", "formula", None, True), ("hints", "hints", ()))),
    "DW": (DWStep, ()),
    "DX": (DXStep, ()),
    "BC": (BCStep, (("p", "polynomial", None, True),)),
    "DomainWeaken": (DomainWeakenStep, (("f", "formula", None, True),)),
}


def hints_from_cert(steps) -> tuple:
    """The hint steps of a `hint [...]` block; as for rules, a binding the
    hint never reads is refused."""
    out = []
    for s in steps:
        if s.name not in _HINTS:
            raise HintMismatch(f"'{s.name}' is not an invariance hint")
        make, reads = _HINTS[s.name]
        args = [_binding(s, *read) for read in reads]
        if s.name == "DI" and args[0] is not None and not isinstance(args[0], Cmp):
            raise HintMismatch("DI takes an atomic comparison binding 'f'")
        unread = [k for k, _ in s.bindings if k not in {read[0] for read in reads}]
        if unread:
            raise UnreadBinding(s.name, unread)
        out.append(make(*args))
    return tuple(out)


# ---------------------------------------------------------------------------
# Checker: obligation discharge with caching


class Checker:
    """Discharges obligations; caches by structural key.  One checker serves
    one command: its verdicts, and the `arith.Region` of every hypothesis it
    proves a conclusion over, live as long as it does."""

    def __init__(self, budget: Optional[arith.Budget] = None):
        self.budget = budget or arith.Budget()
        self._arith_cache: dict = {}
        self._topo_cache: dict = {}
        self._regions: dict = {}

    # -- primitive queries --------------------------------------------------

    def prove(self, ob: arith.ArithObligation, budget=None) -> arith.ArithVerdict:
        key = (ob, budget or self.budget)  # an Unknown holds only for its budget
        if key not in self._arith_cache:
            self._arith_cache[key] = arith.prove_implication(ob, budget=key[1], regions=self._regions)
        return self._arith_cache[key]

    def topo(self, prop: str, formula: Formula, vars) -> topology.TopoVerdict:
        key = (prop, formula, tuple(vars))
        if key not in self._topo_cache:
            if prop == topology.CLOSED:
                v = topology.check_closed(formula)
            elif prop == topology.OPEN:
                v = topology.check_open(formula)
            elif prop == topology.BOUNDED:
                v = topology.check_bounded(formula, vars, self.prove)
            else:
                v = topology.check_compact(formula, vars, self.prove)
            self._topo_cache[key] = v
        return self._topo_cache[key]

    # -- obligation discharge ------------------------------------------------

    def discharge(self, ob) -> None:
        if isinstance(ob, ArithOb):
            if ob.result is None:
                ob.result = self.prove(ob.obligation)
        elif isinstance(ob, TopoOb):
            if ob.result is None:
                ob.result = self.topo(ob.prop, ob.formula, ob.vars)
        elif isinstance(ob, LipschitzOb):
            if ob.result is None:
                ob.result = ob.system.is_affine()
        elif isinstance(ob, InvarianceOb):
            if ob.proof is None:
                ob.proof = prove_invariance(ob.sequent, ob.hints, self)
        # AssumeOb needs no discharge

    def run(self, root: ProofNode) -> None:
        """Discharge every obligation of the tree."""
        for node in root.walk():
            for ob in node.obligations:
                self.discharge(ob)


# ---------------------------------------------------------------------------
# Invariance sub-prover


def _modal_parts(seq: Sequent):
    s = seq.succedent
    if not isinstance(s, Modal) or not s.box:
        raise ShapeMismatch(f"invariance target must be a box sequent, got {print_sequent(seq)}")
    sys = s.system
    return sys, (sys.domain if sys.domain is not None else TRUE), s.post


def _arith_ob(label, role, hyp, concl, *, refuting=False) -> ArithOb:
    return ArithOb(label, role, arith.ArithObligation.closure(hyp, concl), refuting=refuting)


def _taut_implies(a: Formula, b: Formula) -> bool:
    """Cheap propositional check that a -> b is valid."""
    if b == TRUE or a == b:
        return True
    na, nb = nnf(a), nnf(b)
    if na == nb:
        return True
    if na in disjuncts(nb):
        return True
    # every conjunct of b already a conjunct of a
    ca, cb = conjuncts(na), conjuncts(nb)
    if cb and all(any(c == d for d in ca) for c in cb):
        return True
    return False


def prove_invariance(seq: Sequent, hints, checker: Checker) -> ProofNode:
    """Prove a box-modality sequent by applying hints in order.

    With no hints: try DW; for an atomic postcondition fall back to DI; for a
    conjunction, split.  Failed attempts leave an Unknown node carrying the
    failed obligation, never a false positive.
    """
    system, domain, post = _modal_parts(seq)
    if not hints:
        return _auto_invariance(seq, checker)
    head, rest = hints[0], hints[1:]

    if isinstance(head, DWStep):
        if rest:
            raise HintMismatch("DW must be the final hint")
        return _dw_node(seq, checker)

    if isinstance(head, DIStep):
        if rest:
            raise HintMismatch("DI must be the final hint")
        target = head.formula if head.formula is not None else post
        if nnf(target) != nnf(post):
            raise HintMismatch("DI hint formula differs from the postcondition")
        return _di_node(seq, checker)

    if isinstance(head, DCStep):
        cut_seq = Sequent(seq.context, box(system, head.cut))
        cut_proof = prove_invariance(cut_seq, head.hints, checker)
        stronger = system.with_domain(conj([domain, head.cut]))
        rest_seq = Sequent(seq.context, box(stronger, post))
        rest_proof = prove_invariance(rest_seq, rest, checker)
        return derived_node("DC", seq, (cut_proof, rest_proof), note=print_formula(head.cut))

    if isinstance(head, DXStep):
        extended = Sequent(seq.context + tuple(conjuncts(nnf(domain))), seq.succedent)
        child = prove_invariance(extended, rest, checker)
        return derived_node("DX", seq, (child,))

    if isinstance(head, BCStep):
        if rest:
            raise HintMismatch("BC must be the final hint")
        return _bc_node(seq, head.poly, checker)

    if isinstance(head, DomainWeakenStep):
        if not _taut_implies(domain, head.formula):
            raise HintMismatch(
                f"DomainWeaken: cannot certify {print_formula(domain)} -> {print_formula(head.formula)}"
            )
        weaker = Sequent(seq.context, box(system.with_domain(head.formula), post))
        child = prove_invariance(weaker, rest, checker)
        return derived_node("DomainWeaken", seq, (child,), note=print_formula(head.formula))

    raise HintMismatch(f"unrecognized hint {head!r}")


def _auto_invariance(seq: Sequent, checker: Checker) -> ProofNode:
    system, domain, post = _modal_parts(seq)
    dw_ob = _arith_ob("weakening premise", INTERNAL, domain, post)
    checker.discharge(dw_ob)
    if dw_ob.verdict() == PROVED:
        return derived_node("DW", seq, (), (dw_ob,))
    if isinstance(post, Cmp):
        return _di_node(seq, checker)
    if isinstance(post, And):
        children = [_auto_invariance(Sequent(seq.context, box(system, part)), checker) for part in conjuncts(post)]
        return derived_node("∧-split", seq, tuple(children))
    return derived_node("DW", seq, (), (dw_ob,))


def _dw_node(seq: Sequent, checker: Checker) -> ProofNode:
    _, domain, post = _modal_parts(seq)
    if _taut_implies(domain, post):
        return derived_node("DW", seq, note="domain implies postcondition syntactically")
    ob = _arith_ob("weakening premise", INTERNAL, domain, post)
    checker.discharge(ob)
    return derived_node("DW", seq, (), (ob,))


def _di_node(seq: Sequent, checker: Checker) -> ProofNode:
    """Differential invariant for an atomic comparison postcondition.

    Plain premise: domain implies the Lie derivative inequality.  For closed
    or strict comparisons whose plain premise fails, the sound boundary
    variant is tried: on domain and e = 0 the Lie derivative is strictly
    positive, which pushes the flow back inside.
    """
    system, domain, post = _modal_parts(seq)
    if not isinstance(post, Cmp):
        raise HintMismatch("DI applies to atomic comparison postconditions only")
    a = norm_atom(post)
    if a.op == "!=":
        raise HintMismatch("DI does not apply to disequalities")
    e = a.poly
    le = lie_derivative(e, system)
    initial = _arith_ob("invariant true initially", INTERNAL, conj(seq.context), a.to_formula())
    checker.discharge(initial)
    if a.op == "=":
        plain = _arith_ob("Lie derivative vanishes", INTERNAL, domain, Cmp("=", le, Polynomial.const(0)))
        checker.discharge(plain)
        return derived_node("DI", seq, (), (initial, plain))
    plain = _arith_ob("Lie derivative sign condition", INTERNAL, domain, Cmp(">=", le, Polynomial.const(0)))
    checker.discharge(plain)
    if plain.verdict() == PROVED:
        return derived_node("DI", seq, (), (initial, plain))
    boundary_hyp = conj([domain, Cmp("=", e, Polynomial.const(0))])
    boundary = _arith_ob("strict inflow on the boundary", INTERNAL, boundary_hyp, Cmp(">", le, Polynomial.const(0)))
    checker.discharge(boundary)
    if boundary.verdict() == PROVED:
        return derived_node("DI", seq, (), (initial, boundary), note="strict boundary variant")
    return derived_node("DI", seq, (), (initial, plain))


def _bc_node(seq: Sequent, p: Polynomial, checker: Checker) -> ProofNode:
    """Strict barrier: proves p < 0 invariant via a boundary sign condition."""
    system, domain, post = _modal_parts(seq)
    if not isinstance(post, Cmp):
        raise HintMismatch("BC applies to atomic strict comparisons")
    a = norm_atom(post)
    if a.op != ">" or primitive(a.poly) != primitive(-p):
        raise HintMismatch(
            f"BC polynomial {print_poly(p)} does not match postcondition {print_formula(post)}"
        )
    le = lie_derivative(p, system)
    initial = _arith_ob("barrier negative initially", INTERNAL, conj(seq.context), Cmp("<", p, Polynomial.const(0)))
    boundary_hyp = conj([domain, Cmp("=", p, Polynomial.const(0))])
    boundary = _arith_ob(
        "barrier decreases on the boundary", INTERNAL, boundary_hyp, Cmp("<", le, Polynomial.const(0))
    )
    checker.discharge(initial)
    checker.discharge(boundary)
    return derived_node("BC", seq, (), (initial, boundary))


# ---------------------------------------------------------------------------
# Certificate bindings


def _as_formula(v) -> Optional[Formula]:
    return v if isinstance(v, (Cmp, And, Or, BoolLit, Implies, Not, Quant)) else None


# binding kind -> (what a value of the kind is, reader returning None for a misfit)
_KINDS = {
    "polynomial": (
        "a polynomial",
        lambda v: v if isinstance(v, Polynomial) else Polynomial.const(v) if isinstance(v, Fraction) else None,
    ),
    "rational": ("a rational literal", lambda v: v if isinstance(v, Fraction) else None),
    "integer": (
        "a positive integer",
        lambda v: int(v) if isinstance(v, Fraction) and v.denominator == 1 and v >= 1 else None,
    ),
    "formula": ("a formula", _as_formula),
    "hints": ("a hint [...] block", lambda v: hints_from_cert(v) if isinstance(v, tuple) else None),
}


def _binding(step: CertStep, key: str, kind, default=None, required=False):
    """Binding `key` of `step` read as `kind`, a key of `_KINDS` or a tuple
    of the bare identifiers allowed; `default` when the binding is absent."""
    v = step.get(key)
    if v is None:
        if required:
            raise MissingCertificateField(f"rule {step.name} needs binding '{key}'")
        return default
    if isinstance(kind, tuple):
        if isinstance(v, str) and v in kind:
            return v
        what = "one of " + ", ".join(kind)
    else:
        what, read = _KINDS[kind]
        out = read(v)
        if out is not None:
            return out
    raise MissingCertificateField(f"binding '{key}' of {step.name} must be {what}")


# ---------------------------------------------------------------------------
# Shared derivations


def initial_value(p: Polynomial, assumptions) -> Optional[Fraction]:
    """Exact initial value of p forced by equational assumptions, if any."""
    atoms = []
    for f in assumptions:
        a = atoms_of(f)
        if a:
            atoms.extend(a)
    r = reduce_mod_equalities(p, equality_polys(atoms))
    return r.constant_value()


def upper_bound_on(p: Polynomial, region: Formula, checker: Checker) -> Optional[Fraction]:
    """Some rational c with region |- p <= c, from atoms or a doubling search."""
    # an atom c - p >= 0 (or = 0) of the region bounds p by c
    consts = [(a.poly + p).constant_value() for a in atoms_of(region) or () if a.op in (">=", "=")]
    best = min((c for c in consts if c is not None), default=None)
    if best is not None:
        return best
    return topology.first_proved(region, p, "<=", topology.DOUBLING[:17], checker.prove)


_HALVING = tuple(Fraction(1, 2**k) for k in range(9))


def lie_lower_bound(le: Polynomial, region: Formula, checker: Checker) -> Optional[Fraction]:
    """Some positive rational c with region |- le >= c (for display bounds)."""
    return topology.first_proved(region, le, ">=", _HALVING, checker.prove)


def _time_bound(p0, eps, p1=Fraction(0)) -> Optional[Fraction]:
    """(p1 - p0) / eps: how long a variant rising at rate eps from p0 takes to reach p1."""
    if p0 is None or p1 is None or eps is None or eps <= 0:
        return None
    return (p1 - p0) / eps


def _is_atom(f: Formula, p: Polynomial, op: str) -> bool:
    """f is the comparison p `op` 0 up to a positive factor."""
    if not isinstance(f, Cmp):
        return False
    a, want = norm_atom(f), norm_atom(Cmp(op, p, ZERO))
    return a.op == want.op and primitive(a.poly) == primitive(want.poly)


def _match_variant_goal(target: Formula, p: Polynomial, op: str) -> None:
    """The rule conclusion p `op` 0 must match the (possibly refined) goal."""
    if not isinstance(target, Cmp):
        raise ShapeMismatch(
            f"goal {print_formula(target)} is not an atomic comparison; "
            "use 'post'/'via' bindings to refine it first"
        )
    if not _is_atom(target, p, op):
        raise ShapeMismatch(
            f"goal {print_formula(target)} does not match variant condition {print_poly(p)} {op} 0"
        )


def _const(c: Optional[Fraction]) -> Optional[Polynomial]:
    return None if c is None else Polynomial.const(c)


class _Rule:
    """One rule application: the problem's parts every builder uses, and the
    obligations and leaves they share."""

    def __init__(self, problem: ProblemFile, cert: CertStep, checker: Checker):
        if problem.goal is None:
            raise ShapeMismatch("problem has no goal block")
        self.problem, self.cert, self.checker = problem, cert, checker
        self.name = cert.name
        self.gamma = problem.assumptions
        self.goal = problem.goal
        self.domain = problem.system.domain
        self.has_domain = self.domain is not None and self.domain != TRUE
        self.sys0 = problem.system.with_domain(TRUE)
        # constant assumptions are soundly kept across rule applications
        self.const_ctx = context_filter(problem.assumptions, problem.system)[0]
        self.read = set()  # the certificate keys the builder asked for

    def get(self, key: str, kind, default=None, required=False):
        self.read.add(key)
        return _binding(self.cert, key, kind, default, required)

    def has(self, key: str) -> bool:
        self.read.add(key)
        return self.cert.has(key)

    def need_domain(self) -> None:
        if not self.has_domain:
            raise ShapeMismatch(f"rule {self.name} needs a domain block")

    def region(self, dom: bool) -> tuple:
        """(R, its name): the set a variant rule argues inside, the domain of a
        `_dom` rule conjoined with the certificate's `box`; TRUE for neither."""
        if dom:
            self.need_domain()
        parts = {"domain": self.domain if dom else None, "box": self.get("box", "formula")}
        parts = {name: f for name, f in parts.items() if f is not None}
        return conj(list(parts.values())), " and ".join(parts)

    def conclusion(self, system, post: Optional[Formula] = None) -> Sequent:
        return Sequent(self.gamma, dia(system, self.goal if post is None else post))

    def hyp(self, *parts) -> Formula:
        """A premise hypothesis: the parts and the constant context."""
        return conj(list(parts) + list(self.const_ctx))

    def p0(self, p: Polynomial) -> Optional[Fraction]:
        """The certificate's initial variant value, else the one the assumptions force."""
        p0 = self.get("p0", "rational")
        return initial_value(p, self.gamma) if p0 is None else p0

    def eps(self):
        """(eps polynomial, its rational value or None, the 'eps positive' gate)."""
        e = self.get("eps", "polynomial", required=True)
        value = e.constant_value()
        if value is not None:
            return e, value, _arith_ob("eps positive", GATE, TRUE, Cmp(">", e, ZERO))
        if len(e.variables()) == 1 and e.variables() <= self.sys0.params:
            return e, None, _arith_ob("eps positive", GATE, self.hyp(), Cmp(">", e, ZERO))
        raise MissingCertificateField("'eps' must be a rational or a declared constant parameter")

    def initially(self, label: str, f: Formula, role: str = GATE) -> ArithOb:
        return _arith_ob(label, role, conj(list(self.gamma)), f)

    def premise(self, label: str, hyp: Formula, concl: Formula) -> ArithOb:
        return _arith_ob(label, PREMISE, hyp, concl, refuting=True)

    def topo(self, prop: str, f: Formula) -> TopoOb:
        return TopoOb(f"{prop}({print_formula(f)})", GATE, f, prop, self.sys0.vars)

    def lipschitz(self) -> LipschitzOb:
        return LipschitzOb("GlobalLipschitz", GATE, self.sys0)

    def stay(self, label: str, during: Formula, inside: Formula, hints_key: str = "hints") -> InvarianceOb:
        """Premise Γ ⊢ [sys0 & during] inside: while `during` holds, the flow stays `inside`."""
        seq = Sequent(self.gamma, box(self.sys0.with_domain(during), inside))
        return InvarianceOb(label, PREMISE, seq, hints=self.get(hints_key, "hints", ()))

    def gex(self, bound: Optional[Fraction], lip: LipschitzOb) -> ProofNode:
        node = step_exist_global(self.const_ctx, self.sys0.with_clock(CLOCK_NAME), _const(bound))
        # share the rule-level Lipschitz gate so the condition is reported once
        return ProofNode(node.step, node.conclusion, node.children, (lip,))

    def bex(self, escape: Formula, bound: Optional[Fraction] = None, context=None) -> ProofNode:
        context = self.const_ctx if context is None else context
        return step_exist_bounded(context, self.sys0.with_clock(CLOCK_NAME), escape, _const(bound))


# ---------------------------------------------------------------------------
# Wrapper pipeline (post / via / domain)


def _peel_wrappers(r: _Rule):
    """Returns (core_goal, wrapper_specs); wrappers listed outermost first."""
    current, specs = r.goal, []
    post = r.get("post", "formula")
    if post is not None:
        specs.append(("mono", current, post, ()))
        current = post
    via = r.get("via", "formula")
    if via is not None:
        specs.append(("via", current, via, r.get("via_hints", "hints", ())))
        current = via
    return current, specs


_DOMAIN_STEPS = {"COR": step_topo_closed_open, "DR": step_refine_domain, "SAR": step_topo_semialg}
_DURATIONS = ("GEx", "BEx", "assume")


def _apply_wrappers(r: _Rule, node: ProofNode, specs=(), domain_hints=()) -> ProofNode:
    """Wrap the core node with via / post steps and the domain refinement."""
    for kind, outer, inner, hints in reversed(specs):
        target = Sequent(r.gamma, dia(r.sys0, outer))
        if kind == "via":
            node = step_goal_refine(target, inner, node, hints=hints)
        else:
            node = step_monotone_dia(target, inner, node)
    if r.has_domain:
        step = _DOMAIN_STEPS[r.get("domain_via", tuple(_DOMAIN_STEPS), "COR")]
        hints = r.get("domain_hints", "hints", ()) or domain_hints
        node = step(r.conclusion(r.problem.system), TRUE, node, hints=hints)
    return node


# ---------------------------------------------------------------------------
# Rule builders


def _rule_dv(r: _Rule, *, op: str, dom: bool = False, star: bool = False, order: int = 1):
    """Differential variants: dV_geq, dV_gt, dV_geq_star, dV_k and the
    domain-constrained dV_geq_dom / dV_gt_dom."""
    p = r.get("p", "polynomial", required=True)
    eps_poly, eps_val, eps_ob = r.eps()
    region, where = r.region(dom)
    core_goal, specs = _peel_wrappers(r)
    if dom and specs:
        raise ShapeMismatch("post/via refinements are not supported with domain rules")
    _match_variant_goal(core_goal, p, op)

    goal_atom = Cmp(op, p, ZERO)
    not_goal = negate(goal_atom)
    slope = Cmp(">=", higher_lie(p, r.sys0, order), eps_poly)
    premise = r.premise("variant slope premise", r.hyp(not_goal, region), slope)
    lip = r.lipschitz()
    p0 = r.p0(p)
    obligations = [eps_ob, premise]
    bound = _time_bound(p0, eps_val) if order == 1 else None
    if bound is not None:
        obligations.append(r.initially("initial variant value", Cmp(">=", p, Polynomial.const(p0)), WITNESS))

    duration = r.get("duration", _DURATIONS, "assume" if star else "GEx")
    if duration == "GEx":
        obligations.insert(0, lip)
    chain = [f"L^{i} p >= _g{i} + eps*t^{order - i}/{order - i}!" for i in range(order - 1, 0, -1)]
    note = "dC chain: " + "; ".join(chain) if chain else ""

    if duration == "assume":
        p0_poly = Polynomial.var("_p0") if p0 is None else Polynomial.const(p0)
        reach = Cmp(">", p0_poly + eps_poly * Polynomial.var(CLOCK_NAME), ZERO)
        child = step_assumption(r.const_ctx, dia(r.sys0.with_clock(CLOCK_NAME), reach))
    elif duration == "BEx":
        escape = r.get("duration_B", "formula", required=True)
        obligations.append(r.stay("stay in the bounded set before the goal", not_goal, escape, "duration_hints"))
        p1 = r.get("p1", "rational")
        if p1 is None:
            p1 = upper_bound_on(p, escape, r.checker)
        bex_bound = _time_bound(p0, eps_val, p1)
        if bex_bound is not None:
            obligations.append(
                _arith_ob("variant bounded on escape set", WITNESS, escape, Cmp("<=", p, Polynomial.const(p1)))
            )
        child = r.bex(escape, bex_bound)
    else:
        child = r.gex(bound, lip)

    if region != TRUE:
        gates = [
            r.topo(topology.CLOSED if op == ">=" else topology.OPEN, region),
            r.initially(f"InitialState {print_formula(not_goal)}", not_goal),
        ]
        obligations = gates + obligations + [r.stay(f"stay in the {where} before the goal", not_goal, region)]
    if not dom:
        node = derived_node(r.name, r.conclusion(r.sys0, core_goal), (child,), obligations, note=note)
        return _apply_wrappers(r, node, specs)
    return derived_node(r.name, r.conclusion(r.problem.system, goal_atom), (child,), obligations, note=note)


def _rule_dv_eq(r: _Rule, *, mono: bool, dom: bool):
    """Equational differential variants dV_eq / dV_eqM and domain variants."""
    p = r.get("p", "polynomial", required=True)
    eps_poly, eps_val, eps_ob = r.eps()
    region, where = r.region(dom)
    if not dom and r.has_domain:
        raise ShapeMismatch(f"rule {r.name} applies to unconstrained problems; use {r.name}_dom")
    goal_eq = Cmp("=", p, ZERO)
    if not mono:
        _match_variant_goal(r.goal, p, "=")

    p_lt, p_le = Cmp("<", p, ZERO), Cmp("<=", p, ZERO)
    slope = Cmp(">=", lie_derivative(p, r.sys0), eps_poly)
    premise = r.premise("variant slope premise", r.hyp(p_lt, region), slope)
    lip = r.lipschitz()
    # internal replay: before reaching p = 0 the variant stays negative
    stay_neg = InvarianceOb(
        "variant negative before the goal",
        INTERNAL,
        Sequent(r.gamma + (p_le,), box(r.sys0.with_domain(conj([region, Cmp("!=", p, ZERO)])), p_lt)),
        hints=(DXStep(), BCStep(p)),
    )
    child = r.gex(_time_bound(r.p0(p), eps_val), lip)
    obligations = [lip, eps_ob, r.initially("InitialState p <= 0", p_le), premise, stay_neg]
    if region != TRUE:
        obligations = (
            [r.topo(topology.CLOSED, region), r.initially(f"InitialState {where}", region)]
            + obligations
            + [r.stay(f"stay in the {where} while the variant is negative", p_lt, region)]
        )
    system = r.problem.system if dom else r.sys0
    eq_node = derived_node("dV_eq_dom" if dom else "dV_eq", r.conclusion(system, goal_eq), (child,), obligations)
    if not mono:
        return eq_node
    mono_ob = r.premise("goal from the zero set", conj([r.domain if dom else TRUE, goal_eq]), r.goal)
    return derived_node(r.name, r.conclusion(system), (eq_node,), (mono_ob,))


def _rule_sp(r: _Rule, *, dom: bool):
    """SP: staging set with a variant that is nonpositive on the stage; SP&
    (dom) keeps the stage inside the domain and is built on SAR."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True)
    eps_poly, eps_val, eps_ob = r.eps()
    if dom:
        r.need_domain()
    dom_part = [r.domain] if dom else []
    rising = [Cmp("<=", p, ZERO), Cmp(">=", lie_derivative(p, r.sys0), eps_poly)]
    premise = r.premise("staging premise", r.hyp(S), conj(dom_part + rising))
    lip = r.lipschitz()
    staging = r.stay("staging invariance", negate(And(r.goal, r.domain) if dom else r.goal), S)
    child = r.gex(_time_bound(r.p0(p), eps_val), lip)
    system = r.problem.system if dom else r.sys0
    node = derived_node(r.name, r.conclusion(system), (child,), (lip, eps_ob, staging, premise))
    return node if dom else _apply_wrappers(r, node, domain_hints=r.get("hints", "hints", ()))


def _rule_sp_bounded(r: _Rule, *, compact: bool):
    """SP_b (bounded staging set) and SP_c (compact staging set, eps
    optional): bounded existence, duration refinement, dGt and staging."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True)
    lie = lie_derivative(p, r.sys0)
    if compact:
        gate = r.topo(topology.COMPACT, S)
        premise_obs = [r.premise("variant strictly increasing on the stage", r.hyp(S), Cmp(">", lie, ZERO))]
        eps_val = r.get("eps", "rational")
        if eps_val is None:
            eps_val = lie_lower_bound(lie, S, r.checker)
        eps_poly = Polynomial.var("_eps") if eps_val is None else Polynomial.const(eps_val)
        if eps_val is not None:
            premise_obs.append(_arith_ob("variant slope witness", WITNESS, S, Cmp(">=", lie, eps_poly)))
    else:
        gate = r.topo(topology.BOUNDED, S)
        eps_poly, eps_val, eps_ob = r.eps()
        premise_obs = [eps_ob, r.premise("variant slope on the stage", r.hyp(S), Cmp(">=", lie, eps_poly))]

    staging_hints = r.get("hints", "hints", ())
    p0 = r.p0(p)
    p1 = r.get("p1", "rational")
    if p1 is None:
        p1 = upper_bound_on(p, S, r.checker)
    # with all witnesses the duration is refined by a clock cut; else the
    # bounded-existence leaf keeps a symbolic time bound
    bound = _time_bound(p0, eps_val, p1)
    ctx_clock = r.gamma + (Cmp("=", Polynomial.var(CLOCK_NAME), ZERO),)
    bex = r.bex(S, bound, ctx_clock)
    witness_obs, duration_hints = [], ()
    if bound is not None:
        cut = Cmp(">=", p, Polynomial.const(p0) + eps_poly * Polynomial.var(CLOCK_NAME))
        duration_hints = (DCStep(cut, (DIStep(),)), DWStep())
        witness_obs.append(
            _arith_ob("variant bounded on staging set", WITNESS, S, Cmp("<=", p, Polynomial.const(p1)))
        )
    not_S = negate(S)
    k1 = step_goal_refine(
        Sequent(ctx_clock, dia(r.sys0.with_clock(CLOCK_NAME), not_S)),
        bex.conclusion.succedent.post,
        bex,
        hints=duration_hints,
        label="escape within the time bound",
    )
    dgt = step_ghost_clock(Sequent(r.gamma, dia(r.sys0, not_S)), k1)
    k2 = step_goal_refine(r.conclusion(r.sys0), not_S, dgt, hints=staging_hints, label="staging invariance")
    node = derived_node(r.name, r.conclusion(r.sys0), (k2,), [gate] + premise_obs + witness_obs)
    return _apply_wrappers(r, node, domain_hints=staging_hints)


def _rule_slyap(r: _Rule, *, dom: bool):
    """Set Lyapunov functions, compact K and open goal (SLyap / SLyap_dom)."""
    p = r.get("p", "polynomial", required=True)
    K = r.get("K", "formula", required=True)
    op = ">" if (dom or r.has("strict")) else ">="
    if dom and not _is_atom(r.domain, p, ">"):
        raise ShapeMismatch("SLyap_dom needs the domain to be exactly p > 0")
    lie = lie_derivative(p, r.sys0)
    not_goal = negate(r.goal)
    obligations = (
        r.topo(topology.COMPACT, K),
        r.topo(topology.OPEN, r.goal),
        r.initially(f"InitialState p {op} 0", Cmp(op, p, ZERO)),
        r.premise("sublevel set inside K", r.hyp(Cmp(">=", p, ZERO)), K),
        r.premise("Lie derivative positive off the goal", r.hyp(not_goal, K), Cmp(">", lie, ZERO)),
    )
    child = r.bex(conj([K, not_goal]))
    node = derived_node(r.name, r.conclusion(r.problem.system if dom else r.sys0), (child,), obligations)
    return node if dom else _apply_wrappers(r, node)


def _rule_compact_dom(r: _Rule, *, staged: bool):
    """SP_c^k& (staged: compact staging set S, k-th Lie derivative) and E_c&
    (the stage is the domain off the goal, k = 1) under a domain, with the
    corrected box premise: the flow stays put until it meets goal-and-domain."""
    p = r.get("p", "polynomial", required=True)
    S = r.get("S", "formula", required=True) if staged else conj([r.domain, negate(r.goal)])
    k = r.get("k", "integer", 1) if staged else 1
    r.need_domain()
    positive = Cmp(">", higher_lie(p, r.sys0, k), ZERO)
    before = negate(And(r.goal, r.domain))
    if staged:
        stay = r.stay("staging invariance", before, S)
        premise = r.premise("stage inside the domain with increasing variant", r.hyp(S), conj([r.domain, positive]))
    else:
        stay = r.stay("stay in the domain before goal-and-domain", before, r.domain)
        premise = r.premise("Lie derivative positive off the goal", r.hyp(S), positive)
    obligations = (r.topo(topology.COMPACT, S), stay, premise)
    return derived_node(r.name, r.conclusion(r.problem.system), (r.bex(S),), obligations, note=f"k = {k}")


def _rule_dv_k(r: _Rule):
    return _rule_dv(r, op=">" if r.has("strict") else ">=", order=r.get("k", "integer", 1))


def _builder(build, **flags):
    """The builder of one rule; it refuses a certificate key it never read."""

    def run(problem, cert, checker):
        r = _Rule(problem, cert, checker)
        node = build(r, **flags)
        unread = [k for k, _ in cert.bindings if k not in r.read]
        if unread:
            raise UnreadBinding(r.name, unread)
        return node

    return run


RULE_BUILDERS: dict = {
    "dV_geq": _builder(_rule_dv, op=">="),
    "dV_gt": _builder(_rule_dv, op=">"),
    "dV_geq_star": _builder(_rule_dv, op=">=", star=True),
    "dV_k": _builder(_rule_dv_k),
    "dV_geq_dom": _builder(_rule_dv, op=">=", dom=True),
    "dV_gt_dom": _builder(_rule_dv, op=">", dom=True),
    "dV_eq": _builder(_rule_dv_eq, mono=False, dom=False),
    "dV_eqM": _builder(_rule_dv_eq, mono=True, dom=False),
    "dV_eq_dom": _builder(_rule_dv_eq, mono=False, dom=True),
    "dV_eqM_dom": _builder(_rule_dv_eq, mono=True, dom=True),
    "SP": _builder(_rule_sp, dom=False),
    "SP_b": _builder(_rule_sp_bounded, compact=False),
    "SP_c": _builder(_rule_sp_bounded, compact=True),
    "SLyap": _builder(_rule_slyap, dom=False),
    "SLyap_dom": _builder(_rule_slyap, dom=True),
    "SP_dom": _builder(_rule_sp, dom=True),
    "SP_ck_dom": _builder(_rule_compact_dom, staged=True),
    "E_c_dom": _builder(_rule_compact_dom, staged=False),
}


def apply_rule(problem: ProblemFile, cert: CertStep, checker: Optional[Checker] = None) -> ProofNode:
    """Build and check the refinement chain for a certificate step.

    Raises RuleRefused when a gate side condition fails; the partially
    checked proof is attached to the exception as `.proof`.
    """
    checker = checker or Checker()
    builder = RULE_BUILDERS.get(cert.name)
    if builder is None:
        raise MissingCertificateField(f"unknown rule '{cert.name}'")
    try:
        root = builder(problem, cert, checker)
    except TopoUnknown as e:
        raise RuleRefused("TopoUnknown", str(e)) from e
    checker.run(root)
    gate = _first_unproved_gate(root)
    if gate is not None:
        raise _refusal(gate, root)
    return root


# Neither helper below refers to itself or keeps the exception in a frame, so
# a proof tree and its checker are freed by reference counting once the
# caller lets go of them, also after a refusal has been handled.


def _first_unproved_gate(root: ProofNode):
    """The first gate obligation that is not proved, in pre-order: a rule's
    own gates before its children's, so a refusal names the rule's own
    condition."""
    stack = [root]
    while stack:
        node = stack.pop()
        for ob in node.obligations:
            if getattr(ob, "role", None) == GATE and ob.verdict() != PROVED:
                return ob
        stack.extend(reversed(node.children))
    return None


def _refusal(gate, root: ProofNode) -> RuleRefused:
    exc = RuleRefused(gate.label, detail=gate.describe())
    exc.proof = root
    return exc
