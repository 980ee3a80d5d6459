"""The derived liveness proof rules and the invariance sub-prover.

Each rule builder turns a parsed certificate into a kernel refinement chain
whose obligations are exactly the rule's premises and side conditions.  The
acceptance-critical rules expand into explicit existence / goal-refinement
steps so the printed chain mirrors the derivations; the remaining rules are
derived-rule macro nodes over an existence leaf.

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

Unbounded arithmetic premises accept an optional per-variable `box` binding
from the certificate; the premise is then proved over that box and sampled
beyond it for counterexamples.  Without a box such premises stay Unknown,
never Proved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import arith, topology
from .errors import (
    HintMismatch,
    MissingCertificateField,
    RuleRefused,
    ShapeMismatch,
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
    Step,
    TopoOb,
    box,
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
from .symbolic import (
    OdeSystem,
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
    Modal,
    Or,
    ProblemFile,
    conj,
    conjuncts,
    disjuncts,
    formula_variables,
    print_formula,
    print_poly,
)

# ---------------------------------------------------------------------------
# Invariance hints


@dataclass(frozen=True)
class DIStep:
    formula: Optional[Cmp] = None  # defaults to the node's postcondition


@dataclass(frozen=True)
class DCStep:
    cut: Formula
    hints: tuple = ()


@dataclass(frozen=True)
class DWStep:
    pass


@dataclass(frozen=True)
class DXStep:
    pass


@dataclass(frozen=True)
class BCStep:
    poly: Polynomial


@dataclass(frozen=True)
class DomainWeakenStep:
    formula: Formula


def hints_from_cert(steps) -> tuple:
    out = []
    for s in steps:
        if s.name == "DI":
            f = s.get("f")
            if f is not None and not isinstance(f, Cmp):
                raise HintMismatch("DI takes an atomic comparison binding 'f'")
            out.append(DIStep(f))
        elif s.name == "DC":
            f = s.get("f")
            if f is None:
                raise MissingCertificateField("DC needs a cut formula binding 'f'")
            out.append(DCStep(f, hints_from_cert(s.get("hints", ()))))
        elif s.name == "DW":
            out.append(DWStep())
        elif s.name == "DX":
            out.append(DXStep())
        elif s.name == "BC":
            p = s.get("p")
            if p is None:
                raise MissingCertificateField("BC needs a polynomial binding 'p'")
            out.append(BCStep(_as_poly(p)))
        elif s.name == "DomainWeaken":
            f = s.get("f")
            if f is None:
                raise MissingCertificateField("DomainWeaken needs a formula binding 'f'")
            out.append(DomainWeakenStep(f))
        else:
            raise HintMismatch(f"'{s.name}' is not an invariance hint")
    return tuple(out)


# ---------------------------------------------------------------------------
# Checker: obligation discharge with caching


@dataclass
class CheckConfig:
    budget: arith.Budget = field(default_factory=arith.Budget)
    topo_budget: arith.Budget = field(default_factory=lambda: arith.Budget(max_cells=20_000, max_seconds=2.0))
    falsify_samples: int = 2000
    seed: int = 0


def _freeze_box(b: Optional[dict]):
    if b is None:
        return None
    return tuple(sorted((v, iv.lo, iv.hi) for v, iv in b.items()))


def _enlarge_box(b: dict, factor: int = 4) -> dict:
    out = {}
    for v, iv in b.items():
        c = iv.midpoint()
        half = (iv.hi - iv.lo) / 2 * factor
        half = max(half, Fraction(1))
        out[v] = arith.Interval(c - half, c + half)
    return out


class Checker:
    """Discharges obligations; caches by structural key; logs arithmetic."""

    def __init__(self, config: Optional[CheckConfig] = None):
        self.config = config or CheckConfig()
        self._arith_cache: dict = {}
        self._topo_cache: dict = {}
        self.arith_log: list = []  # ArithOb in discharge order

    # -- primitive queries --------------------------------------------------

    def prove(self, ob: arith.ArithObligation, box_=None, budget=None) -> arith.ArithVerdict:
        key = (ob, _freeze_box(box_))
        if key not in self._arith_cache:
            self._arith_cache[key] = arith.prove_implication(ob, box=box_, budget=budget or self.config.budget)
        return self._arith_cache[key]

    def topo(self, prop: str, formula: Formula, vars) -> topology.TopoVerdict:
        key = (prop, formula, tuple(vars))
        if key not in self._topo_cache:
            if prop == topology.CLOSED:
                v = topology.check_closed(formula, vars)
            elif prop == topology.OPEN:
                v = topology.check_open(formula, vars)
            elif prop == topology.BOUNDED:
                v = topology.check_bounded(formula, vars, budget=self.config.topo_budget)
            else:
                v = topology.check_compact(formula, vars, budget=self.config.topo_budget)
            self._topo_cache[key] = v
        return self._topo_cache[key]

    # -- obligation discharge ------------------------------------------------

    def discharge(self, ob) -> None:
        if isinstance(ob, ArithOb):
            if ob.result is None:
                ob.result = self.prove(ob.obligation, ob.box)
                if ob.result.is_valid and ob.box and ob.outside_falsify:
                    probe = arith.falsify(
                        ob.obligation,
                        samples=self.config.falsify_samples,
                        seed=self.config.seed,
                        box=_enlarge_box(ob.box),
                    )
                    if probe.status == arith.FALSIFIED:
                        ob.result = probe
                self.arith_log.append(ob)
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

    def run(self, root: ProofNode, recheck: bool = False) -> None:
        """Discharge every obligation; with recheck, re-run them all."""
        if recheck:
            for node in root.walk():
                for ob in node.obligations:
                    if isinstance(ob, (ArithOb, TopoOb, LipschitzOb)):
                        ob.result = None
                    elif isinstance(ob, InvarianceOb):
                        ob.proof = None
            self._arith_cache.clear()
            self._topo_cache.clear()
            self.arith_log.clear()
        for node in root.walk():
            for ob in node.obligations:
                self.discharge(ob)


# ---------------------------------------------------------------------------
# Invariance sub-prover


def _box_parts(seq: Sequent):
    s = seq.succedent
    if not isinstance(s, Modal) or not s.box:
        raise ShapeMismatch(f"invariance target must be a box sequent, got {print_sequent(seq)}")
    sys = s.system
    return sys, (sys.domain if sys.domain is not None else TRUE), s.post


def _arith_ob(label, role, hyp, concl, *, box_=None, refuting=False, outside=False) -> ArithOb:
    return ArithOb(
        label,
        role,
        arith.ArithObligation.closure(hyp, concl),
        box=box_,
        refuting=refuting,
        outside_falsify=outside,
    )


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


def _node(name, seq, children=(), obligations=(), note="") -> ProofNode:
    return ProofNode(Step(name, note), seq, tuple(children), tuple(obligations))


def prove_invariance(seq: Sequent, hints, checker: Checker, box_=None) -> ProofNode:
    """Prove a box-modality sequent by applying hints in order.

    With no hints: try DW; for an atomic postcondition fall back to DI; for a
    conjunction, split.  Failed attempts leave an Unknown node carrying the
    failed obligation, never a false positive.
    """
    system, domain, post = _box_parts(seq)
    if not hints:
        return _auto_invariance(seq, checker, box_)
    head, rest = hints[0], hints[1:]

    if isinstance(head, DWStep):
        if rest:
            raise HintMismatch("DW must be the final hint")
        return _dw_node(seq, checker, box_)

    if isinstance(head, DIStep):
        if rest:
            raise HintMismatch("DI must be the final hint")
        target = head.formula if head.formula is not None else post
        if nnf(target) != nnf(post):
            raise HintMismatch("DI hint formula differs from the postcondition")
        return _di_node(seq, checker, box_)

    if isinstance(head, DCStep):
        cut_seq = Sequent(seq.context, box(system, head.cut))
        cut_proof = prove_invariance(cut_seq, head.hints, checker, box_)
        stronger = system.with_domain(conj([domain, head.cut]))
        rest_seq = Sequent(seq.context, box(stronger, post))
        rest_proof = prove_invariance(rest_seq, rest, checker, box_)
        return _node("DC", seq, (cut_proof, rest_proof), note=print_formula(head.cut))

    if isinstance(head, DXStep):
        extended = Sequent(seq.context + tuple(conjuncts(nnf(domain))), seq.succedent)
        child = prove_invariance(extended, rest, checker, box_)
        return _node("DX", seq, (child,))

    if isinstance(head, BCStep):
        if rest:
            raise HintMismatch("BC must be the final hint")
        return _bc_node(seq, head.poly, checker, box_)

    if isinstance(head, DomainWeakenStep):
        if not _taut_implies(domain, head.formula):
            raise HintMismatch(
                f"DomainWeaken: cannot certify {print_formula(domain)} -> {print_formula(head.formula)}"
            )
        weaker = Sequent(seq.context, box(system.with_domain(head.formula), post))
        child = prove_invariance(weaker, rest, checker, box_)
        return _node("DomainWeaken", seq, (child,), note=print_formula(head.formula))

    raise HintMismatch(f"unrecognized hint {head!r}")


def _auto_invariance(seq: Sequent, checker: Checker, box_) -> ProofNode:
    system, domain, post = _box_parts(seq)
    dw_ob = _arith_ob("weakening premise", INTERNAL, domain, post, box_=box_)
    checker.discharge(dw_ob)
    if dw_ob.verdict() == PROVED:
        return _node("DW", seq, (), (dw_ob,))
    if isinstance(post, Cmp):
        return _di_node(seq, checker, box_)
    if isinstance(post, And):
        children = [
            _auto_invariance(Sequent(seq.context, box(system, part)), checker, box_)
            for part in conjuncts(post)
        ]
        return _node("∧-split", seq, tuple(children))
    return _node("DW", seq, (), (dw_ob,))


def _dw_node(seq: Sequent, checker: Checker, box_) -> ProofNode:
    _, domain, post = _box_parts(seq)
    if _taut_implies(domain, post):
        return _node("DW", seq, note="domain implies postcondition syntactically")
    ob = _arith_ob("weakening premise", INTERNAL, domain, post, box_=box_)
    checker.discharge(ob)
    return _node("DW", seq, (), (ob,))


def _di_node(seq: Sequent, checker: Checker, box_) -> ProofNode:
    """Differential invariant for an atomic comparison postcondition.

    Plain premise: domain implies the Lie derivative inequality.  For closed
    or strict comparisons whose plain premise fails, the sound boundary
    variant is tried: on domain and e = 0 the Lie derivative is strictly
    positive, which pushes the flow back inside.
    """
    system, domain, post = _box_parts(seq)
    if not isinstance(post, Cmp):
        raise HintMismatch("DI applies to atomic comparison postconditions only")
    a = norm_atom(post)
    if a.op == "!=":
        raise HintMismatch("DI does not apply to disequalities")
    e = a.poly
    le = lie_derivative(e, system)
    initial = _arith_ob("invariant true initially", INTERNAL, conj(seq.context), a.to_formula(), box_=box_)
    checker.discharge(initial)
    if a.op == "=":
        plain = _arith_ob("Lie derivative vanishes", INTERNAL, domain, Cmp("=", le, Polynomial.const(0)), box_=box_)
        checker.discharge(plain)
        return _node("DI", seq, (), (initial, plain))
    plain = _arith_ob(
        "Lie derivative sign condition", INTERNAL, domain, Cmp(">=", le, Polynomial.const(0)), box_=box_
    )
    checker.discharge(plain)
    if plain.verdict() == PROVED:
        return _node("DI", seq, (), (initial, plain))
    boundary_hyp = conj([domain, Cmp("=", e, Polynomial.const(0))])
    boundary = _arith_ob(
        "strict inflow on the boundary", INTERNAL, boundary_hyp, Cmp(">", le, Polynomial.const(0)), box_=box_
    )
    checker.discharge(boundary)
    if boundary.verdict() == PROVED:
        return _node("DI", seq, (), (initial, boundary), note="strict boundary variant")
    return _node("DI", seq, (), (initial, plain))


def _bc_node(seq: Sequent, p: Polynomial, checker: Checker, box_) -> ProofNode:
    """Strict barrier: proves p < 0 invariant via a boundary sign condition."""
    system, domain, post = _box_parts(seq)
    if not isinstance(post, Cmp):
        raise HintMismatch("BC applies to atomic strict comparisons")
    a = norm_atom(post)
    if a.op != ">" or primitive(a.poly) != primitive(-p):
        raise HintMismatch(
            f"BC polynomial {print_poly(p)} does not match postcondition {print_formula(post)}"
        )
    le = lie_derivative(p, system)
    initial = _arith_ob(
        "barrier negative initially", INTERNAL, conj(seq.context), Cmp("<", p, Polynomial.const(0)), box_=box_
    )
    boundary_hyp = conj([domain, Cmp("=", p, Polynomial.const(0))])
    boundary = _arith_ob(
        "barrier decreases on the boundary", INTERNAL, boundary_hyp, Cmp("<", le, Polynomial.const(0)), box_=box_
    )
    checker.discharge(initial)
    checker.discharge(boundary)
    return _node("BC", seq, (), (initial, boundary))


# ---------------------------------------------------------------------------
# Certificate field access


def _as_poly(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, Fraction):
        return Polynomial.const(v)
    raise MissingCertificateField(f"expected a polynomial, got {v!r}")


def _need(cert: CertStep, key: str):
    v = cert.get(key)
    if v is None:
        raise MissingCertificateField(f"rule {cert.name} needs binding '{key}'")
    return v


def _get_formula(cert: CertStep, key: str, required=False) -> Optional[Formula]:
    v = _need(cert, key) if required else cert.get(key)
    if v is None:
        return None
    from .syntax import Implies, Not, Quant

    if isinstance(v, (Cmp, And, Or, BoolLit, Implies, Not, Quant)):
        return v
    raise MissingCertificateField(f"binding '{key}' of {cert.name} must be a formula")


def _get_rational(cert: CertStep, key: str, required=False) -> Optional[Fraction]:
    v = _need(cert, key) if required else cert.get(key)
    if v is None:
        return None
    if isinstance(v, Fraction):
        return v
    raise MissingCertificateField(f"binding '{key}' of {cert.name} must be a rational literal")


def _get_hints(cert: CertStep, key: str) -> tuple:
    v = cert.get(key)
    if v is None:
        return ()
    if not isinstance(v, tuple):
        raise MissingCertificateField(f"binding '{key}' of {cert.name} must be a hint [...] block")
    return hints_from_cert(v)


def _get_box(cert: CertStep, key: str = "box") -> Optional[dict]:
    f = cert.get(key)
    if f is None:
        return None
    b, unbounded = arith.extract_box(f, tuple(sorted(formula_variables(f))))
    if b is None:
        raise MissingCertificateField(f"'box' binding must bound every variable it mentions ({unbounded})")
    return b


# ---------------------------------------------------------------------------
# Shared derivations


def _gamma_const(problem: ProblemFile):
    from .kernel import context_filter

    const, _ = context_filter(problem.assumptions, problem.system)
    return const


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
    atoms = atoms_of(region)
    best = None
    if atoms:
        for a in atoms:
            if a.op not in (">=", "="):
                continue
            diff = a.poly + p  # a.poly = c - p  iff  a.poly + p constant
            c = diff.constant_value()
            if c is not None and (best is None or c < best):
                best = c
    if best is not None:
        return best
    for k in range(0, 17):
        c = Fraction(2) ** k
        ob = arith.ArithObligation.closure(region, Cmp("<=", p, Polynomial.const(c)))
        if checker.prove(ob, budget=arith.Budget(max_cells=10_000, max_seconds=1.0)).is_valid:
            return c
    return None


def lie_lower_bound(le: Polynomial, region: Formula, checker: Checker) -> Optional[Fraction]:
    """Some positive rational c with region |- le >= c (for display bounds)."""
    for k in range(0, 9):
        c = Fraction(1, 2**k)
        ob = arith.ArithObligation.closure(region, Cmp(">=", le, Polynomial.const(c)))
        if checker.prove(ob, budget=arith.Budget(max_cells=10_000, max_seconds=1.0)).is_valid:
            return c
    return None


def _eps_obligation(cert: CertStep, problem: ProblemFile):
    """Returns (eps_poly, eps_value_or_None, side obligation)."""
    v = cert.get("eps")
    if v is None:
        raise MissingCertificateField(f"rule {cert.name} needs binding 'eps'")
    if isinstance(v, Fraction):
        poly = Polynomial.const(v)
        ob = _arith_ob("eps positive", GATE, TRUE, Cmp(">", poly, Polynomial.const(0)))
        return poly, v, ob
    if isinstance(v, Polynomial) and len(v.variables()) == 1 and v.variables() <= problem.system.params:
        hyp = conj(list(_gamma_const(problem)))
        ob = _arith_ob("eps positive", GATE, hyp, Cmp(">", v, Polynomial.const(0)))
        return v, None, ob
    raise MissingCertificateField("'eps' must be a rational or a declared constant parameter")


def _match_variant_goal(target: Formula, p: Polynomial, op: str) -> None:
    """The rule conclusion p `op` 0 must match the (possibly refined) goal."""
    if not isinstance(target, Cmp):
        raise ShapeMismatch(
            f"goal {print_formula(target)} is not an atomic comparison; "
            "use 'post'/'via' bindings to refine it first"
        )
    a = norm_atom(target)
    want = norm_atom(Cmp(op, p, Polynomial.const(0)))
    if a.op != want.op or primitive(a.poly) != primitive(want.poly):
        raise ShapeMismatch(
            f"goal {print_formula(target)} does not match variant condition {print_poly(p)} {op} 0"
        )


def _gex_leaf(context, system: OdeSystem, bound: Optional[Fraction], lip: LipschitzOb) -> ProofNode:
    clocked = system.with_domain(TRUE).with_clock(CLOCK_NAME)
    bound_poly = Polynomial.const(bound) if bound is not None else None
    node = step_exist_global(context, clocked, bound_poly)
    # share the rule-level Lipschitz gate so the condition is reported once
    return ProofNode(node.step, node.conclusion, node.children, (lip,))


def _bex_leaf(context, system: OdeSystem, escape: Formula, bound: Optional[Fraction]) -> ProofNode:
    clocked = system.with_domain(TRUE).with_clock(CLOCK_NAME)
    bound_poly = Polynomial.const(bound) if bound is not None else None
    return step_exist_bounded(context, clocked, escape, bound_poly)


# ---------------------------------------------------------------------------
# Wrapper pipeline (post / via / domain)


def _peel_wrappers(problem: ProblemFile, cert: CertStep):
    """Returns (core_goal, wrapper_specs); wrappers listed outermost first."""
    if problem.goal is None:
        raise ShapeMismatch("problem has no goal block")
    current = problem.goal
    specs = []
    post = _get_formula(cert, "post")
    if post is not None:
        specs.append(("mono", current, post, ()))
        current = post
    via = _get_formula(cert, "via")
    if via is not None:
        specs.append(("via", current, via, _get_hints(cert, "via_hints")))
        current = via
    return current, specs


def _apply_wrappers(problem, cert, node, specs, domain_hints=()):
    """Wrap the core node with via / post steps and the domain refinement."""
    sys0 = problem.system.with_domain(TRUE)
    gamma = problem.assumptions
    for kind, outer, inner, hints in reversed(specs):
        target = Sequent(gamma, dia(sys0, outer))
        if kind == "via":
            node = step_goal_refine(target, inner, node, hints=hints)
        else:
            node = step_monotone_dia(target, inner, node)
    domain = problem.system.domain
    if domain is not None and domain != TRUE:
        selector = cert.get("domain_via", "COR")
        hints = _get_hints(cert, "domain_hints") or domain_hints
        target = Sequent(gamma, dia(problem.system, problem.goal))
        if selector == "COR":
            node = step_topo_closed_open(target, TRUE, node, hints=hints)
        elif selector == "DR":
            node = step_refine_domain(target, TRUE, node, hints=hints)
        elif selector == "SAR":
            node = step_topo_semialg(target, TRUE, node, hints=hints)
        else:
            raise MissingCertificateField("domain_via must be one of COR, DR, SAR")
    return node


# ---------------------------------------------------------------------------
# Rule builders


def _rule_dv(problem, cert, checker, *, op: str, dom: bool, star: bool = False, order: int = 1):
    """Differential variants: dV_geq, dV_gt, dV_geq_star, dV_k and the
    domain-constrained dV_geq_dom / dV_gt_dom."""
    p = _as_poly(_need(cert, "p"))
    eps_poly, eps_val, eps_ob = _eps_obligation(cert, problem)
    user_box = _get_box(cert)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    domain = problem.system.domain

    core_goal, specs = _peel_wrappers(problem, cert)
    if dom:
        if specs:
            raise ShapeMismatch("post/via refinements are not supported with domain rules")
        _match_variant_goal(problem.goal, p, op)
    else:
        _match_variant_goal(core_goal, p, op)

    goal_atom = Cmp(op, p, Polynomial.const(0))
    not_goal = negate(goal_atom)
    if order > 1:
        variant_lie = higher_lie(p, sys0, order)
    else:
        variant_lie = lie_derivative(p, sys0)

    # constant assumptions are soundly kept across rule applications
    const_ctx = _gamma_const(problem)
    premise_hyp = conj([not_goal] + ([domain] if dom else []) + list(const_ctx))
    premise = _arith_ob(
        "variant slope premise",
        PREMISE,
        premise_hyp,
        Cmp(">=", variant_lie, eps_poly),
        box_=user_box,
        refuting=True,
        outside=user_box is not None,
    )
    lip = LipschitzOb("GlobalLipschitz", GATE, sys0)

    p0 = _get_rational(cert, "p0")
    if p0 is None:
        p0 = initial_value(p, gamma)
    obligations = [eps_ob, premise]
    bound = None
    if p0 is not None and eps_val is not None and eps_val > 0 and order == 1:
        bound = -p0 / eps_val
        check0 = _arith_ob(
            "initial variant value",
            WITNESS,
            conj(list(gamma)),
            Cmp(">=", p, Polynomial.const(p0)),
        )
        obligations.append(check0)

    name = cert.name
    note = ""
    duration = cert.get("duration", "GEx")
    if star:
        duration = cert.get("duration", "assume")
    if duration == "GEx":
        obligations.insert(0, lip)
    if order > 1:
        chain = []
        for i in range(order - 1, 0, -1):
            chain.append(f"L^{i} p >= _g{i} + eps*t^{order - i}/{order - i}!")
        note = "dC chain: " + "; ".join(chain) if chain else ""

    if duration == "assume":
        p0_poly = Polynomial.const(p0) if p0 is not None else Polynomial.var("_p0")
        clocked = sys0.with_clock(CLOCK_NAME)
        hypo = dia(clocked, Cmp(">", p0_poly + eps_poly * Polynomial.var(CLOCK_NAME), Polynomial.const(0)))
        child = step_assumption(const_ctx, hypo)
    elif duration == "BEx":
        escape = _get_formula(cert, "duration_B", required=True)
        stay_hints = _get_hints(cert, "duration_hints")
        stay = InvarianceOb(
            "stay in the bounded set before the goal",
            PREMISE,
            Sequent(gamma, box(sys0.with_domain(not_goal), escape)),
            hints=stay_hints,
        )
        obligations.append(stay)
        p1 = _get_rational(cert, "p1")
        if p1 is None:
            p1 = upper_bound_on(p, escape, checker)
        bex_bound = None
        if p1 is not None and p0 is not None and eps_val is not None and eps_val > 0:
            bex_bound = (p1 - p0) / eps_val
            obligations.append(
                _arith_ob("variant bounded on escape set", WITNESS, escape, Cmp("<=", p, Polynomial.const(p1)))
            )
        child = _bex_leaf(const_ctx, sys0, escape, bex_bound)
    else:  # GEx
        child = _gex_leaf(const_ctx, sys0, bound, lip)

    conclusion_domain = problem.system if dom else sys0
    conclusion = Sequent(gamma, dia(conclusion_domain, goal_atom if dom else core_goal))
    if dom:
        xs = sys0.vars
        want = topology.CLOSED if op == ">=" else topology.OPEN
        topo_gate = TopoOb(f"{want}({print_formula(domain)})", GATE, domain, want, xs)
        initial_gate = _arith_ob(
            f"InitialState {print_formula(not_goal)}",
            GATE,
            conj(list(gamma)),
            not_goal,
        )
        stay = InvarianceOb(
            "stay in the domain before the goal",
            PREMISE,
            Sequent(gamma, box(sys0.with_domain(not_goal), domain)),
            hints=_get_hints(cert, "hints"),
        )
        obligations = [topo_gate, initial_gate] + obligations + [stay]
        node = derived_node(name, conclusion, (child,), obligations, note=note)
        return node

    node = derived_node(name, conclusion, (child,), obligations, note=note)
    return _apply_wrappers(problem, cert, node, specs)


def _rule_dv_eq(problem, cert, checker, *, mono: bool, dom: bool):
    """Equational differential variants dV_eq / dV_eqM and domain variants."""
    p = _as_poly(_need(cert, "p"))
    eps_poly, eps_val, eps_ob = _eps_obligation(cert, problem)
    user_box = _get_box(cert)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    domain = problem.system.domain
    if dom and (domain is None or domain == TRUE):
        raise ShapeMismatch(f"rule {cert.name} needs a domain block")
    if not dom and domain != TRUE:
        raise ShapeMismatch(f"rule {cert.name} applies to unconstrained problems; use {cert.name}_dom")

    goal_eq = Cmp("=", p, Polynomial.const(0))
    if not mono:
        _match_variant_goal(problem.goal, p, "=")

    p_lt = Cmp("<", p, Polynomial.const(0))
    p_le = Cmp("<=", p, Polynomial.const(0))
    p_ne = Cmp("!=", p, Polynomial.const(0))
    lie = lie_derivative(p, sys0)

    const_ctx = _gamma_const(problem)
    premise_hyp = conj([p_lt] + ([domain] if dom else []) + list(const_ctx))
    premise = _arith_ob(
        "variant slope premise",
        PREMISE,
        premise_hyp,
        Cmp(">=", lie, eps_poly),
        box_=user_box,
        refuting=True,
        outside=user_box is not None,
    )
    lip = LipschitzOb("GlobalLipschitz", GATE, sys0)
    initial = _arith_ob("InitialState p <= 0", GATE, conj(list(gamma)), p_le)

    # internal replay: before reaching p = 0 the variant stays negative
    stay_neg_domain = conj(([domain] if dom else []) + [p_ne])
    stay_neg = InvarianceOb(
        "variant negative before the goal",
        INTERNAL,
        Sequent(gamma + (p_le,), box(sys0.with_domain(stay_neg_domain), p_lt)),
        hints=(DXStep(), BCStep(p)),
    )

    p0 = _get_rational(cert, "p0")
    if p0 is None:
        p0 = initial_value(p, gamma)
    bound = -p0 / eps_val if (p0 is not None and eps_val is not None and eps_val > 0) else None
    child = _gex_leaf(_gamma_const(problem), sys0, bound, lip)

    obligations = [lip, eps_ob, initial, premise, stay_neg]
    if dom:
        xs = sys0.vars
        topo_gate = TopoOb(f"Closed({print_formula(domain)})", GATE, domain, topology.CLOSED, xs)
        initial_domain = _arith_ob("InitialState domain", GATE, conj(list(gamma)), domain)
        stay_domain = InvarianceOb(
            "stay in the domain while the variant is negative",
            PREMISE,
            Sequent(gamma, box(sys0.with_domain(p_lt), domain)),
            hints=_get_hints(cert, "hints"),
        )
        obligations = [topo_gate, initial_domain] + obligations + [stay_domain]

    system = problem.system if dom else sys0
    eq_node = derived_node(
        "dV_eq_dom" if dom else "dV_eq",
        Sequent(gamma, dia(system, goal_eq)),
        (child,),
        obligations,
    )
    if not mono:
        return eq_node
    mono_ob = _arith_ob(
        "goal from the zero set",
        PREMISE,
        conj(([domain] if dom else []) + [goal_eq]),
        problem.goal,
        refuting=True,
    )
    name = "dV_eqM_dom" if dom else "dV_eqM"
    return derived_node(name, Sequent(gamma, dia(system, problem.goal)), (eq_node,), (mono_ob,))


def _staging_chain(problem, cert, checker, *, name, premise_obs, gate_obs, S, p, eps_val, eps_poly):
    """Shared chain for SP_b / SP_c: BEx, duration refinement, dGt, staging."""
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    goal = problem.goal
    staging_hints = _get_hints(cert, "hints")

    p0 = _get_rational(cert, "p0")
    if p0 is None:
        p0 = initial_value(p, gamma)
    p1 = _get_rational(cert, "p1")
    if p1 is None:
        p1 = upper_bound_on(p, S, checker)

    witness_obs = []
    not_S = negate(S)
    clocked = sys0.with_clock(CLOCK_NAME)
    t0 = Cmp("=", Polynomial.var(CLOCK_NAME), Polynomial.const(0))
    ctx_clock = gamma + (t0,)

    concrete = p0 is not None and p1 is not None and eps_val is not None and eps_val > 0
    if concrete:
        bound = (p1 - p0) / eps_val
        bex = _bex_leaf(ctx_clock, sys0, S, bound)
        cut = Cmp(
            ">=",
            p,
            Polynomial.const(p0) + eps_poly * Polynomial.var(CLOCK_NAME),
        )
        dur_hints = (DCStep(cut, (DIStep(),)), DWStep())
        k1 = step_goal_refine(
            Sequent(ctx_clock, dia(clocked, not_S)),
            bex.conclusion.succedent.post,
            bex,
            hints=dur_hints,
            label="escape within the time bound",
        )
        witness_obs.append(
            _arith_ob("variant bounded on staging set", WITNESS, S, Cmp("<=", p, Polynomial.const(p1)))
        )
        inner = k1
    else:
        # witnesses unavailable: keep the bounded-existence leaf symbolic
        bex = _bex_leaf(ctx_clock, sys0, S, None)
        k1 = step_goal_refine(
            Sequent(ctx_clock, dia(clocked, not_S)),
            bex.conclusion.succedent.post,
            bex,
            hints=(),
            label="escape within the time bound",
        )
        inner = k1

    dgt = step_ghost_clock(Sequent(gamma, dia(sys0, not_S)), inner)
    k2 = step_goal_refine(
        Sequent(gamma, dia(sys0, goal)),
        not_S,
        dgt,
        hints=staging_hints,
        label="staging invariance",
    )
    node = derived_node(
        name,
        Sequent(gamma, dia(sys0, goal)),
        (k2,),
        tuple(gate_obs) + tuple(premise_obs) + tuple(witness_obs),
    )
    return _apply_wrappers(problem, cert, node, [], domain_hints=staging_hints)


def _rule_sp(problem, cert, checker):
    """SP: staging set with a variant that is nonpositive on the stage."""
    p = _as_poly(_need(cert, "p"))
    S = _get_formula(cert, "S", required=True)
    eps_poly, eps_val, eps_ob = _eps_obligation(cert, problem)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    goal = problem.goal
    lie = lie_derivative(p, sys0)
    const_ctx = _gamma_const(problem)
    premise = _arith_ob(
        "staging premise",
        PREMISE,
        conj([S] + list(const_ctx)),
        And(Cmp("<=", p, Polynomial.const(0)), Cmp(">=", lie, eps_poly)),
        refuting=True,
    )
    lip = LipschitzOb("GlobalLipschitz", GATE, sys0)
    staging = InvarianceOb(
        "staging invariance",
        PREMISE,
        Sequent(gamma, box(sys0.with_domain(negate(goal)), S)),
        hints=_get_hints(cert, "hints"),
    )
    p0 = _get_rational(cert, "p0")
    if p0 is None:
        p0 = initial_value(p, gamma)
    bound = -p0 / eps_val if (p0 is not None and eps_val is not None and eps_val > 0) else None
    child = _gex_leaf(_gamma_const(problem), sys0, bound, lip)
    node = derived_node(
        "SP",
        Sequent(gamma, dia(sys0, goal)),
        (child,),
        (lip, eps_ob, staging, premise),
    )
    return _apply_wrappers(problem, cert, node, [], domain_hints=_get_hints(cert, "hints"))


def _rule_sp_bounded(problem, cert, checker, *, compact: bool):
    """SP_b (bounded staging set) and SP_c (compact staging set, no eps)."""
    p = _as_poly(_need(cert, "p"))
    S = _get_formula(cert, "S", required=True)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    xs = sys0.vars
    lie = lie_derivative(p, sys0)
    const_ctx = _gamma_const(problem)
    stage_hyp = conj([S] + list(const_ctx))
    # the staging invariance premise is carried by the goal-refinement step
    gate_obs = []
    premise_obs = []
    if compact:
        gate_obs.append(TopoOb(f"Compact({print_formula(S)})", GATE, S, topology.COMPACT, xs))
        premise = _arith_ob(
            "variant strictly increasing on the stage",
            PREMISE,
            stage_hyp,
            Cmp(">", lie, Polynomial.const(0)),
            refuting=True,
        )
        premise_obs.append(premise)
        eps_val = _get_rational(cert, "eps")
        if eps_val is None:
            eps_val = lie_lower_bound(lie, S, checker)
        eps_poly = Polynomial.const(eps_val) if eps_val is not None else Polynomial.var("_eps")
        if eps_val is not None:
            premise_obs.append(
                _arith_ob(
                    "variant slope witness", WITNESS, S, Cmp(">=", lie, Polynomial.const(eps_val))
                )
            )
    else:
        gate_obs.append(TopoOb(f"Bounded({print_formula(S)})", GATE, S, topology.BOUNDED, xs))
        eps_poly, eps_val, eps_ob = _eps_obligation(cert, problem)
        premise = _arith_ob(
            "variant slope on the stage",
            PREMISE,
            stage_hyp,
            Cmp(">=", lie, eps_poly),
            refuting=True,
        )
        premise_obs.extend([eps_ob, premise])
    return _staging_chain(
        problem,
        cert,
        checker,
        name="SP_c" if compact else "SP_b",
        premise_obs=premise_obs,
        gate_obs=gate_obs,
        S=S,
        p=p,
        eps_val=eps_val,
        eps_poly=eps_poly,
    )


def _rule_slyap(problem, cert, checker, *, dom: bool):
    """Set Lyapunov functions, compact K and open goal (SLyap / SLyap_dom)."""
    p = _as_poly(_need(cert, "p"))
    K = _get_formula(cert, "K", required=True)
    op = ">" if (dom or cert.has("strict")) else ">="
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    xs = sys0.vars
    goal = problem.goal
    domain = problem.system.domain
    if dom:
        want = norm_atom(Cmp(">", p, Polynomial.const(0)))
        have = norm_atom(domain) if isinstance(domain, Cmp) else None
        if have is None or have.op != want.op or primitive(have.poly) != primitive(want.poly):
            raise ShapeMismatch("SLyap_dom needs the domain to be exactly p > 0")
    lie = lie_derivative(p, sys0)
    compact_k = TopoOb(f"Compact({print_formula(K)})", GATE, K, topology.COMPACT, xs)
    open_p = TopoOb(f"Open({print_formula(goal)})", GATE, goal, topology.OPEN, xs)
    initial = _arith_ob(
        f"InitialState p {op} 0", GATE, conj(list(gamma)), Cmp(op, p, Polynomial.const(0))
    )
    const_ctx = _gamma_const(problem)
    inclusion = _arith_ob(
        "sublevel set inside K",
        PREMISE,
        conj([Cmp(">=", p, Polynomial.const(0))] + list(const_ctx)),
        K,
        box_=_get_box(cert),
        refuting=True,
        outside=cert.has("box"),
    )
    slope = _arith_ob(
        "Lie derivative positive off the goal",
        PREMISE,
        conj([negate(goal), K] + list(const_ctx)),
        Cmp(">", lie, Polynomial.const(0)),
        refuting=True,
    )
    escape = conj([K, negate(goal)])
    child = _bex_leaf(_gamma_const(problem), sys0, escape, None)
    name = "SLyap_dom" if dom else "SLyap"
    system = problem.system if dom else sys0
    node = derived_node(
        name,
        Sequent(gamma, dia(system, goal)),
        (child,),
        (compact_k, open_p, initial, inclusion, slope),
    )
    if dom:
        return node
    return _apply_wrappers(problem, cert, node, [])


def _rule_sp_dom(problem, cert, checker):
    """SP&: staging set under a domain constraint, built on SAR."""
    p = _as_poly(_need(cert, "p"))
    S = _get_formula(cert, "S", required=True)
    eps_poly, eps_val, eps_ob = _eps_obligation(cert, problem)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    domain = problem.system.domain
    goal = problem.goal
    if domain is None or domain == TRUE:
        raise ShapeMismatch("SP_dom needs a domain block; use SP otherwise")
    lie = lie_derivative(p, sys0)
    lip = LipschitzOb("GlobalLipschitz", GATE, sys0)
    staging = InvarianceOb(
        "staging invariance",
        PREMISE,
        Sequent(gamma, box(sys0.with_domain(negate(And(goal, domain))), S)),
        hints=_get_hints(cert, "hints"),
    )
    premise = _arith_ob(
        "staging premise",
        PREMISE,
        conj([S] + list(_gamma_const(problem))),
        conj([domain, Cmp("<=", p, Polynomial.const(0)), Cmp(">=", lie, eps_poly)]),
        refuting=True,
    )
    p0 = initial_value(p, gamma) if not cert.has("p0") else _get_rational(cert, "p0")
    bound = -p0 / eps_val if (p0 is not None and eps_val is not None and eps_val > 0) else None
    child = _gex_leaf(_gamma_const(problem), sys0, bound, lip)
    return derived_node(
        "SP_dom",
        Sequent(gamma, dia(problem.system, goal)),
        (child,),
        (lip, eps_ob, staging, premise),
    )


def _rule_sp_ck_dom(problem, cert, checker):
    """SP_c^k&: compact staging set, higher Lie derivative, domain constraint."""
    p = _as_poly(_need(cert, "p"))
    S = _get_formula(cert, "S", required=True)
    k = cert.get("k", Fraction(1))
    if not isinstance(k, Fraction) or k.denominator != 1 or k < 1:
        raise MissingCertificateField("'k' must be a positive integer")
    k = int(k)
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    domain = problem.system.domain
    goal = problem.goal
    if domain is None or domain == TRUE:
        raise ShapeMismatch("SP_ck_dom needs a domain block")
    xs = sys0.vars
    lie_k = higher_lie(p, sys0, k)
    compact_s = TopoOb(f"Compact({print_formula(S)})", GATE, S, topology.COMPACT, xs)
    staging = InvarianceOb(
        "staging invariance",
        PREMISE,
        Sequent(gamma, box(sys0.with_domain(negate(And(goal, domain))), S)),
        hints=_get_hints(cert, "hints"),
    )
    premise = _arith_ob(
        "stage inside the domain with increasing variant",
        PREMISE,
        conj([S] + list(_gamma_const(problem))),
        conj([domain, Cmp(">", lie_k, Polynomial.const(0))]),
        refuting=True,
    )
    child = _bex_leaf(_gamma_const(problem), sys0, S, None)
    return derived_node(
        "SP_ck_dom",
        Sequent(gamma, dia(problem.system, goal)),
        (child,),
        (compact_s, staging, premise),
        note=f"k = {k}",
    )


def _rule_e_c_dom(problem, cert, checker):
    """E_c&: compact eventuality with the corrected box premise."""
    p = _as_poly(_need(cert, "p"))
    gamma = problem.assumptions
    sys0 = problem.system.with_domain(TRUE)
    domain = problem.system.domain
    goal = problem.goal
    if domain is None or domain == TRUE:
        raise ShapeMismatch("E_c_dom needs a domain block")
    xs = sys0.vars
    region = conj([domain, negate(goal)])
    lie = lie_derivative(p, sys0)
    compact_gate = TopoOb(f"Compact({print_formula(region)})", GATE, region, topology.COMPACT, xs)
    stay = InvarianceOb(
        "stay in the domain before goal-and-domain",
        PREMISE,
        Sequent(gamma, box(sys0.with_domain(negate(And(goal, domain))), domain)),
        hints=_get_hints(cert, "hints"),
    )
    premise = _arith_ob(
        "Lie derivative positive off the goal",
        PREMISE,
        conj([region] + list(_gamma_const(problem))),
        Cmp(">", lie, Polynomial.const(0)),
        refuting=True,
    )
    child = _bex_leaf(_gamma_const(problem), sys0, region, None)
    return derived_node(
        "E_c_dom",
        Sequent(gamma, dia(problem.system, goal)),
        (child,),
        (compact_gate, stay, premise),
        note="k = 1",
    )


def _int_binding(cert, key, default=None) -> Optional[int]:
    v = cert.get(key, default)
    if v is None:
        return None
    if isinstance(v, Fraction) and v.denominator == 1 and v >= 1:
        return int(v)
    raise MissingCertificateField(f"'{key}' must be a positive integer")


RULE_BUILDERS: dict = {
    "dV_geq": lambda pr, c, ch: _rule_dv(pr, c, ch, op=">=", dom=False),
    "dV_gt": lambda pr, c, ch: _rule_dv(pr, c, ch, op=">", dom=False),
    "dV_geq_star": lambda pr, c, ch: _rule_dv(pr, c, ch, op=">=", dom=False, star=True),
    "dV_k": lambda pr, c, ch: _rule_dv(
        pr, c, ch, op=">" if c.has("strict") else ">=", dom=False, order=_int_binding(c, "k", Fraction(1))
    ),
    "dV_geq_dom": lambda pr, c, ch: _rule_dv(pr, c, ch, op=">=", dom=True),
    "dV_gt_dom": lambda pr, c, ch: _rule_dv(pr, c, ch, op=">", dom=True),
    "dV_eq": lambda pr, c, ch: _rule_dv_eq(pr, c, ch, mono=False, dom=False),
    "dV_eqM": lambda pr, c, ch: _rule_dv_eq(pr, c, ch, mono=True, dom=False),
    "dV_eq_dom": lambda pr, c, ch: _rule_dv_eq(pr, c, ch, mono=False, dom=True),
    "dV_eqM_dom": lambda pr, c, ch: _rule_dv_eq(pr, c, ch, mono=True, dom=True),
    "SP": _rule_sp,
    "SP_b": lambda pr, c, ch: _rule_sp_bounded(pr, c, ch, compact=False),
    "SP_c": lambda pr, c, ch: _rule_sp_bounded(pr, c, ch, compact=True),
    "SLyap": lambda pr, c, ch: _rule_slyap(pr, c, ch, dom=False),
    "SLyap_dom": lambda pr, c, ch: _rule_slyap(pr, c, ch, dom=True),
    "SP_dom": _rule_sp_dom,
    "SP_ck_dom": _rule_sp_ck_dom,
    "E_c_dom": _rule_e_c_dom,
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
    from .errors import TopoUnknown

    try:
        root = builder(problem, cert, checker)
    except TopoUnknown as e:
        raise RuleRefused("TopoUnknown", str(e)) from e
    checker.run(root)

    def scan(node):  # rule gates before child gates, so refusals name the rule's own condition
        for ob in node.obligations:
            if getattr(ob, "role", None) == GATE and ob.verdict() != PROVED:
                exc = RuleRefused(ob.label, detail=ob.describe())
                exc.proof = root
                raise exc
        for child in node.children:
            scan(child)

    scan(root)
    return root
