import ast
import inspect

import pytest

from odeliveness import arith, kernel, topology
from odeliveness.errors import (
    ClockNotFresh,
    HintMismatch,
    NoClock,
    NonConstantBound,
    ShapeMismatch,
    TopoUnknown,
)
from odeliveness.kernel import (
    CONDITIONAL,
    PROVED,
    REFUTED,
    UNKNOWN,
    ArithOb,
    AssumeOb,
    InvarianceOb,
    LipschitzOb,
    ProofNode,
    Sequent,
    Step,
    TopoOb,
    box,
    context_filter,
    dia,
    print_sequent,
    render_trace,
    step_and_split,
    step_assumption,
    step_bc,
    step_compact_dom,
    step_dc,
    step_di,
    step_domain_weaken,
    step_dv,
    step_dv_eq,
    step_dw,
    step_dx,
    step_exist_bounded,
    step_exist_global,
    step_ghost_clock,
    step_goal_refine,
    step_monotone_dia,
    step_refine_domain,
    step_slyap,
    step_sp,
    step_sp_bounded,
    step_topo_closed_open,
    step_topo_semialg,
)
from odeliveness.normal import norm_atom
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import TRUE, Cmp, Modal, Or, conj, conjuncts, negate, parse_formula, parse_poly, parse_problem
from conftest import ROOT


def leaf(seq):
    return ProofNode(Step("stub"), seq, (), ())


def dia_seq(pf, post, ctx=(), domain=None):
    sys = pf.system if domain is None else pf.system.with_domain(domain)
    return Sequent(tuple(ctx), dia(sys, post))


# -- monotonicity -------------------------------------------------------------


def test_monotone_dia_generates_premise(alpha_l):
    target = dia_seq(alpha_l, parse_formula("u^2 + v^2 = 1/4"))
    child = leaf(dia_seq(alpha_l, parse_formula("u^2 <= 1/16")))
    node = step_monotone_dia(target, parse_formula("u^2 <= 1/16"), child)
    (ob,) = node.obligations
    assert ob.obligation.conclusion == parse_formula("u^2 + v^2 = 1/4")
    assert ob.obligation.hypothesis == parse_formula("u^2 <= 1/16")


def test_monotone_dia_identity(alpha_l):
    p = parse_formula("u^2 + v^2 <= 1/4")
    target = dia_seq(alpha_l, p)
    node = step_monotone_dia(target, p, leaf(dia_seq(alpha_l, p)))
    (ob,) = node.obligations
    assert ob.obligation.hypothesis == p and ob.obligation.conclusion == p


def test_monotone_dia_shape_mismatch(alpha_l):
    target = dia_seq(alpha_l, parse_formula("u >= 0"))
    wrong_child = leaf(dia_seq(alpha_l, parse_formula("v >= 0")))
    with pytest.raises(ShapeMismatch):
        step_monotone_dia(target, parse_formula("u >= 1"), wrong_child)
    box_target = Sequent((), box(alpha_l.system, parse_formula("u >= 0")))
    with pytest.raises(ShapeMismatch):
        step_monotone_dia(box_target, parse_formula("u >= 1"), wrong_child)


# -- goal refinement -----------------------------------------------------------


def test_goal_refine_obligation_shape(alpha_l):
    target = dia_seq(alpha_l, parse_formula("u^2 + v^2 = 1/4"))
    via = parse_formula("u^2 + v^2 <= 1/4")
    node = step_goal_refine(target, via, leaf(dia_seq(alpha_l, via)))
    (ob,) = node.obligations
    assert isinstance(ob, InvarianceOb)
    inner = ob.sequent.succedent
    assert inner.box
    # domain is Q and not-P, postcondition is not-G
    assert inner.system.domain == negate(parse_formula("u^2 + v^2 = 1/4"))
    assert inner.post == negate(via)


def test_goal_refine_with_g_equal_p(alpha_l):
    p = parse_formula("u^2 + v^2 <= 1/4")
    node = step_goal_refine(dia_seq(alpha_l, p), p, leaf(dia_seq(alpha_l, p)))
    (ob,) = node.obligations
    assert ob.sequent.succedent.post == negate(p)


# -- domain refinement family ---------------------------------------------------


def test_refine_domain_keeps_plain_domain(alpha_l):
    q = parse_formula("u^2 + v^2 <= 2")
    r = TRUE
    target = dia_seq(alpha_l, parse_formula("u >= 0"), domain=q)
    child = leaf(dia_seq(alpha_l, parse_formula("u >= 0"), domain=r))
    node = step_refine_domain(target, r, child)
    (ob,) = node.obligations
    # box obligation domain is exactly R, never R and not-P
    assert ob.sequent.succedent.system.domain == r
    assert ob.sequent.succedent.post == q


def test_cor_requires_matching_topology(alpha_l):
    p_closed = parse_formula("u^2 + v^2 >= 2")
    q_halfopen = parse_formula("1 <= u^2 + v^2 & u^2 + v^2 < 2")
    target = dia_seq(alpha_l, p_closed, domain=q_halfopen)
    child = leaf(dia_seq(alpha_l, p_closed, domain=TRUE))
    with pytest.raises(TopoUnknown):
        step_topo_closed_open(target, TRUE, child)


def test_cor_fires_for_both_open(alpha_l):
    p = parse_formula("u > 0")
    q = parse_formula("u < 5")
    target = dia_seq(alpha_l, p, domain=q)
    child = leaf(dia_seq(alpha_l, p, domain=TRUE))
    node = step_topo_closed_open(target, TRUE, child)
    assert node.step.note == "both open"
    labels = [ob.label for ob in node.obligations]
    assert "initial state outside the goal" in labels


def test_cor_fires_for_both_closed(alpha_n):
    p = parse_formula("u^2 + v^2 >= 2")
    s = parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2")
    target = dia_seq(alpha_n, p, domain=s)
    child = leaf(dia_seq(alpha_n, p, domain=TRUE))
    node = step_topo_closed_open(target, TRUE, child)
    assert node.step.note == "both closed"


def test_sar_obligation_uses_weaker_domain(alpha_l):
    p = parse_formula("u >= 0")
    q = parse_formula("u^2 + v^2 <= 2")
    target = dia_seq(alpha_l, p, domain=q)
    child = leaf(dia_seq(alpha_l, p, domain=TRUE))
    node = step_topo_semialg(target, TRUE, child)
    (ob,) = node.obligations
    assert ob.sequent.succedent.system.domain == negate(conj([p, q]))
    assert ob.sequent.succedent.post == q


# -- clock and existence ---------------------------------------------------------


def test_ghost_clock_adds_time(alpha_l):
    target = dia_seq(alpha_l, parse_formula("u >= 0"), ctx=[parse_formula("u = 1")])
    clocked = alpha_l.system.with_clock("_t")
    want_child = Sequent(
        (parse_formula("u = 1"), Cmp("=", Polynomial.var("_t"), Polynomial.const(0))),
        dia(clocked, parse_formula("u >= 0")),
    )
    node = step_ghost_clock(target, leaf(want_child))
    assert node.step.name == "dGt"


def test_ghost_clock_not_fresh_twice(alpha_l):
    clocked = alpha_l.system.with_clock("_t")
    with pytest.raises(ClockNotFresh):
        clocked.with_clock("_t")


def test_gex_rejects_state_dependent_bound(alpha_l):
    clocked = alpha_l.system.with_domain(TRUE).with_clock("_t")
    with pytest.raises(NonConstantBound):
        step_exist_global((), clocked, parse_poly("2") * Polynomial.var("_t"))
    with pytest.raises(NoClock):
        step_exist_global((), alpha_l.system.with_domain(TRUE), Polynomial.const(1))


def test_gex_takes_the_gate_of_its_own_vector_field(alpha_l):
    """The GEx leaf's one gate names its vector field without the ghost clock."""
    unclocked = alpha_l.system.with_domain(TRUE)
    node = step_exist_global((), unclocked.with_clock("_t"), Polynomial.const(1))
    (lip,) = node.obligations
    assert isinstance(lip, LipschitzOb)
    assert (lip.label, lip.role, lip.system) == ("GlobalLipschitz", kernel.GATE, unclocked)


def test_bex_posts_disjunction(alpha_n):
    clocked = alpha_n.system.with_domain(TRUE).with_clock("_t")
    escape = parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2")
    node = step_exist_bounded((), clocked, escape, parse_poly("2/3"))
    post = node.conclusion.succedent.post
    assert "2/3" in kernel.print_formula(post)
    (topo_ob,) = node.obligations
    assert topo_ob.prop == topology.BOUNDED


def test_bex_escape_must_mention_only_ode_vars(alpha_n):
    clocked = alpha_n.system.with_domain(TRUE).with_clock("_t")
    clock_formula = Cmp("<=", Polynomial.var("_t"), Polynomial.const(1))
    with pytest.raises(ShapeMismatch):
        step_exist_bounded((), clocked, clock_formula, None)


# -- verdict propagation -----------------------------------------------------------


def _arith_stub(valid=None, role=kernel.PREMISE):
    from odeliveness.arith import ArithObligation, ArithVerdict, VALID, FALSIFIED, UNKNOWN as U

    ob = ArithOb("stub", role, ArithObligation((), TRUE, TRUE))
    if valid is True:
        ob.result = ArithVerdict(VALID)
    elif valid is False:
        ob.result = ArithVerdict(FALSIFIED, counterexample={})
    elif valid == "unknown":
        ob.result = ArithVerdict(U)
    return ob


def test_verdict_all_proved(alpha_l):
    seq = dia_seq(alpha_l, TRUE)
    node = ProofNode(Step("x"), seq, (), (_arith_stub(True),))
    assert node.verdict() == PROVED


def test_verdict_assumption_is_conditional(alpha_l):
    child = step_assumption((), parse_formula("u >= 0"))
    node = ProofNode(Step("x"), dia_seq(alpha_l, TRUE), (child,), (_arith_stub(True),))
    assert node.verdict() == CONDITIONAL


def test_verdict_refuted_only_for_refuting_obligations(alpha_l):
    seq = dia_seq(alpha_l, TRUE)
    assert ProofNode(Step("x"), seq, (), (_arith_stub(False),)).verdict() == REFUTED
    for role in (kernel.GATE, kernel.INTERNAL, kernel.WITNESS):
        assert ProofNode(Step("x"), seq, (), (_arith_stub(False, role),)).verdict() == UNKNOWN
    assert ProofNode(Step("x"), seq, (), (_arith_stub("unknown"),)).verdict() == UNKNOWN


def test_verdict_tree_walk(alpha_l):
    seq = dia_seq(alpha_l, TRUE)
    bad_leaf = ProofNode(Step("leaf"), seq, (), (_arith_stub("unknown"),))
    root = ProofNode(Step("root"), seq, (bad_leaf,), (_arith_stub(True),))
    assert root.verdict() == UNKNOWN


# -- context filtering -----------------------------------------------------------


def test_context_filter_keeps_constants():
    pf = parse_problem("param e;  ode { u' = -v - u; v' = u - v }")
    gamma = (parse_formula("e > 0"), parse_formula("u^2 + v^2 = 1"))
    assert context_filter(gamma, pf.system) == (parse_formula("e > 0"),)


def test_context_filter_edges(alpha_l):
    assert context_filter((), alpha_l.system) == ()
    gamma = (parse_formula("1 >= 0"),)
    assert context_filter(gamma, alpha_l.system) == gamma


# -- structural soundness audit (no constructor realizes the unsound shape) -------


AUDIT_PROBLEM = parse_problem("ode { u' = -v - u; v' = u - v }  assume { u = 0 }")
# (goal P, domain Q): a closed pair and an open pair, so COR builds on each
AUDIT_PAIRS = (("u >= 1", "u^2 + v^2 <= 4"), ("u > 1", "u^2 + v^2 < 4"))
AUDIT_REFINED = parse_formula("v <= 1")  # the stronger domain R of the refinement steps
AUDIT_INVARIANT = parse_formula("u < 3")  # the postcondition of the invariance steps, p < 0 for BC
AUDIT_VARIANT = parse_poly("u - 1")  # the liveness steps' p: each goal is p >= 0 or p > 0; p is -1 initially


def build_every_step(goal: str, domain: str) -> dict:
    """Every kernel `step_*` constructor, keyed by its name: the diamond steps
    applied to Γ ⊢ <x' = f & Q> P, the invariance steps to Γ ⊢ [x' = f & Q] I.
    Each child is a stub leaf of the shape the step asks for; the existence
    leaves, which refuse a domain, get the unconstrained clocked system.  DI
    is the plain form on the closed pair and the strict-boundary variant on
    the open one.  The derived liveness rules build their own existence
    leaves: a `_dom` variant where there is one, SLyap, SP_c and SP_ck_dom
    on the closed pair, SLyap_dom, SP_b and E_c_dom on the open one."""
    ctx, system = AUDIT_PROBLEM.assumptions, AUDIT_PROBLEM.system
    p, q, g = parse_formula(goal), parse_formula(domain), parse_formula("u >= 2")
    target = Sequent(ctx, dia(system.with_domain(q), p))

    def child(post, dom):
        return leaf(Sequent(ctx, dia(system.with_domain(dom), post)))

    t0 = Cmp("=", Polynomial.var(kernel.CLOCK_NAME), Polynomial.const(0))
    clocked = leaf(Sequent(ctx + (t0,), dia(system.with_domain(q).with_clock(kernel.CLOCK_NAME), p)))
    unconstrained = system.with_domain(TRUE).with_clock(kernel.CLOCK_NAME)

    inv, cut, weaker = AUDIT_INVARIANT, AUDIT_REFINED, Or(q, AUDIT_REFINED)
    box_target = Sequent(ctx, box(system.with_domain(q), inv))
    split_target = Sequent(ctx, box(system.with_domain(q), conj([inv, cut])))

    def box_child(post, dom, context=ctx):
        return leaf(Sequent(context, box(system.with_domain(dom), post)))

    calls = (
        (step_monotone_dia, target, g, child(g, q)),
        (step_goal_refine, target, g, child(g, q)),
        (step_refine_domain, target, AUDIT_REFINED, child(p, AUDIT_REFINED)),
        (step_topo_closed_open, target, AUDIT_REFINED, child(p, AUDIT_REFINED)),
        (step_topo_semialg, target, AUDIT_REFINED, child(p, AUDIT_REFINED)),
        (step_ghost_clock, target, clocked),
        (step_exist_global, ctx, unconstrained, Polynomial.const(1)),
        (step_exist_bounded, ctx, unconstrained, q, Polynomial.const(1)),
        (step_assumption, ctx, target.succedent),
        (step_dw, box_target),
        (step_di, box_target, p.op == ">"),
        (step_bc, box_target, parse_poly("u - 3")),
        (step_dc, box_target, cut, box_child(cut, q), box_child(inv, conj([q, cut]))),
        (step_dx, box_target, box_child(inv, q, ctx + tuple(conjuncts(q)))),
        (step_and_split, split_target, (box_child(inv, q), box_child(cut, q))),
        (step_domain_weaken, box_target, weaker, box_child(inv, weaker)),
    )
    built = {step.__name__: step(*args) for step, *args in calls}
    v, one, closed = AUDIT_VARIANT, Polynomial.const(1), p.op == ">="
    free = Sequent(ctx, dia(system.with_domain(TRUE), p))
    return dict(
        built,
        step_dv=step_dv("dV_geq_dom" if closed else "dV_gt_dom", target, v, one, "GEx", op=p.op, p0=-1),
        step_dv_eq=step_dv_eq("dV_eqM_dom", target, v, one, p0=-1),
        step_sp=step_sp("SP_dom", target, v, one, AUDIT_REFINED, p0=-1),
        step_sp_bounded=step_sp_bounded("SP_c" if closed else "SP_b", free, v, q, one, p0=-1, p1=1),
        step_slyap=step_slyap("SLyap", free, parse_poly("4 - u^2 - v^2"), q)
        if closed
        else step_slyap("SLyap_dom", target, parse_poly("4 - u^2 - v^2"), q),
        step_compact_dom=step_compact_dom("SP_ck_dom", target, v, S=q)
        if closed
        else step_compact_dom("E_c_dom", target, v),
    )


def _diamond_domain(seq):
    s = seq.succedent
    if isinstance(s, Modal) and not s.box:
        return TRUE if s.system.domain is None else s.system.domain
    return None


def _normal_conjuncts(f) -> set:
    """The conjuncts of f, each comparison in its normal form: a rule states
    the goal negation of a goal `u >= 1` with variant u - 1 as u - 1 < 0."""
    return {norm_atom(c) if isinstance(c, Cmp) else c for c in conjuncts(f)}


def refines_domain_under_goal_negation(node) -> bool:
    """The node changes its diamond's domain Q and puts the goal negation
    among the conjuncts of a box premise's domain: the shape that is sound
    only with COR's gates (CE-2 shows the failure without them)."""
    domain = _diamond_domain(node.conclusion)
    if domain is None or all(_diamond_domain(c.conclusion) in (None, domain) for c in node.children):
        return False
    not_p = _normal_conjuncts(negate(node.conclusion.succedent.post))
    return any(
        isinstance(ob, InvarianceOb) and not_p <= _normal_conjuncts(ob.sequent.succedent.system.domain)
        for ob in node.obligations
    )


def missing_gates(node) -> list:
    """The gates of that shape a node lacks: a Closed/Open topology gate, and
    the initial-state gate whose conclusion is the goal negation under the
    node's context."""
    not_p = _normal_conjuncts(negate(node.conclusion.succedent.post))
    hyp = conj(list(node.conclusion.context))
    gates = [ob for ob in node.obligations if ob.role == kernel.GATE]
    missing = []
    if not any(isinstance(ob, TopoOb) and ob.prop in (topology.CLOSED, topology.OPEN) for ob in gates):
        missing.append("topology")
    if not any(
        isinstance(ob, ArithOb)
        and ob.obligation.hypothesis == hyp
        and _normal_conjuncts(ob.obligation.conclusion) == not_p
        for ob in gates
    ):
        missing.append("initial-state")
    return missing


# rule -> the set its BEx child must leave, from the set C its Compact gate
# names, its diamond's domain Q and its goal P: SLyap argues off the goal
# inside K, E_c_dom inside Q, and SP_ck_dom leaves its compact stage S
ESCAPE_SETS = {
    "SLyap": lambda c, q, p: conj([c, negate(p)]),
    "SLyap_dom": lambda c, q, p: conj([c, negate(p)]),
    "E_c_dom": lambda c, q, p: conj([q, negate(p)]),
    "SP_ck_dom": lambda c, q, p: c,
}


def missing_liveness_gates(node) -> list:
    """The catalog's other corrections a node lacks: the GlobalLipschitz gate
    it shares with a GEx child (CE-1), the Compact gate of SLyap (CE-4) and
    of the other rules of `ESCAPE_SETS`, and a BEx child over the escape set
    that `ESCAPE_SETS` names, compared in normal form."""
    gates = [ob for ob in node.obligations if ob.role == kernel.GATE]
    compact = [ob.formula for ob in gates if isinstance(ob, TopoOb) and ob.prop == topology.COMPACT]
    missing = []
    if any(c.step.name == "GEx" and not any(ob in gates for ob in c.obligations) for c in node.children):
        missing.append("GlobalLipschitz gate")
    escape = ESCAPE_SETS.get(node.step.name)
    if escape is not None and not compact:
        missing.append("Compact gate")
    elif escape is not None:
        want = escape(conj(compact), _diamond_domain(node.conclusion), node.conclusion.succedent.post)
        left = [ob.formula for c in node.children if c.step.name == "BEx" for ob in c.obligations]
        if [_normal_conjuncts(f) for f in left] != [_normal_conjuncts(want)]:
            missing.append("BEx escape set")
    return missing


def _atoms(f) -> set:
    """The normalised atoms among the conjuncts of f (of TRUE for None)."""
    return {norm_atom(c) for c in conjuncts(TRUE if f is None else f) if isinstance(c, Cmp)}


def _box(node):
    """The box modality `node` proves, else None."""
    s = node.conclusion.succedent
    return s if isinstance(s, Modal) and s.box else None


def _domain(modal):
    return TRUE if modal.system.domain is None else modal.system.domain


def assumes_what_it_proves(node) -> bool:
    """The node proves Γ ⊢ [x' = f & Q] P and a premise assumes what it
    proves: an arithmetic premise whose hypothesis holds an atom of P, or a
    child proving Γ' ⊢ [x' = f & Q'] C over a Q' that holds an atom of C,
    where neither Q nor Γ holds that atom.  DI and BC premises over the
    invariant itself, or a DC cut proved under the cut, are unsound.  A DC's
    second premise may hold the atoms of the cut its first child proves
    over the same domain Q."""
    s = _box(node)
    if s is None:
        return False
    given = _atoms(s.system.domain).union(*map(_atoms, node.conclusion.context))
    premises = [(ob.obligation.hypothesis, s.post, set()) for ob in node.obligations if isinstance(ob, ArithOb)]
    boxes = [b for b in map(_box, node.children) if b is not None]
    cut = set()
    if node.step.name == "DC" and _domain(boxes[0]) == _domain(s):
        cut = _atoms(boxes[0].post)
    premises += [(b.system.domain, b.post, cut if i == 1 else set()) for i, b in enumerate(boxes)]
    return any((_atoms(hyp) & _atoms(proved)) - given - exempt for hyp, proved, exempt in premises)


# The constructors whose proofs refine the domain under the goal negation:
# COR, and the `_dom` variants of dV and dV_eq, argued the same way.
DOMAIN_REFINERS = ("step_topo_closed_open", "step_dv", "step_dv_eq")
# The one exemption from the initial-state gate Γ ⊢ ¬P: dV_eq_dom's replay
# [R & p != 0] p < 0 starts from its gate Γ ⊢ p <= 0, and where p = 0 at
# the start the goal p = 0 already holds.
NO_INITIAL_STATE_GATE = ("dV_eq_dom",)


def step_audit_findings() -> list:
    """What the constructor audit finds wrong, empty when sound: a `step_*`
    constructor it does not build, a node of a built proof that refines the
    domain under the goal negation outside COR and the `_dom` variants of
    dV and dV_eq, such a node without its gates (CE-2, CE-3), one of those
    no longer seen to do so, a DR box premise over more than the plain R,
    an invariance step with a premise that assumes what it proves, or a
    node of a built proof without the GlobalLipschitz gate of its GEx child
    (CE-1), its Compact gate under SLyap (CE-4), SP_ck_dom or E_c_dom, or a
    BEx child that leaves another set than its rule's escape set."""
    constructors = {name for name in vars(kernel) if name.startswith("step_")}
    findings = []
    for goal, domain in AUDIT_PAIRS:
        built = build_every_step(goal, domain)
        findings += [f"{name} is not built by the audit" for name in sorted(constructors - set(built))]
        tripped = [
            (name, sub) for name, node in built.items() for sub in node.walk() if refines_domain_under_goal_negation(sub)
        ]
        names = {name for name, _ in tripped}
        findings += [f"{name} refines the domain under not-P" for name in sorted(names - set(DOMAIN_REFINERS))]
        findings += [
            f"{name}: {sub.step.name} lacks its {gate} gate"
            for name, sub in tripped
            for gate in missing_gates(sub)
            if not (gate == "initial-state" and sub.step.name in NO_INITIAL_STATE_GATE)
        ]
        findings += [
            f"{name} is not seen to refine the domain under not-P ({goal}, {domain})"
            for name in DOMAIN_REFINERS
            if name not in names
        ]
        dr_domains = [ob.sequent.succedent.system.domain for ob in built["step_refine_domain"].obligations]
        if dr_domains != [AUDIT_REFINED]:
            findings.append(f"DR's box premise domains are {dr_domains}, not the plain R")
        findings += [f"{name} assumes what it proves" for name, node in built.items() if assumes_what_it_proves(node)]
        findings += [
            f"{name}: {sub.step.name} lacks its {gate}"
            for name, node in built.items()
            for sub in node.walk()
            for gate in missing_liveness_gates(sub)
        ]
    return findings


def test_every_step_constructor_is_audited():
    constructors = {name for name in vars(kernel) if name.startswith("step_")}
    for goal, domain in AUDIT_PAIRS:
        assert set(build_every_step(goal, domain)) == constructors


def test_no_domain_refinement_carries_goal_negation_without_topo_gate():
    assert step_audit_findings() == []


def test_audit_sees_the_ungated_shape(alpha_l):
    """The detector and the gate check on hand-built nodes: COR stripped of
    its gates, and DR given not-P in its box domain."""
    p, q = parse_formula("u >= 1"), parse_formula("u^2 + v^2 <= 4")
    target = dia_seq(alpha_l, p, domain=q)
    child = leaf(dia_seq(alpha_l, p, domain=AUDIT_REFINED))
    cor = step_topo_closed_open(target, AUDIT_REFINED, child)
    stripped = ProofNode(cor.step, cor.conclusion, cor.children, cor.obligations[-1:])
    assert refines_domain_under_goal_negation(stripped)
    assert missing_gates(stripped) == ["topology", "initial-state"]
    inside_not_p = alpha_l.system.with_domain(conj([AUDIT_REFINED, negate(p)]))
    unsound = InvarianceOb("domain refinement box premise", kernel.PREMISE, Sequent((), box(inside_not_p, q)))
    dr = ProofNode(Step("DR⟨·⟩"), target, (child,), (unsound,))
    assert refines_domain_under_goal_negation(dr)
    assert missing_gates(dr) == ["topology", "initial-state"]
    assert not refines_domain_under_goal_negation(step_refine_domain(target, AUDIT_REFINED, child))


def test_audit_sees_a_premise_that_assumes_what_it_proves():
    """The detector on hand-built invariance nodes: a DI whose Lie premise
    assumes the invariant, a BC whose boundary premise does, and a DC whose
    cut is proved over a domain that already holds the cut."""
    built = build_every_step(*AUDIT_PAIRS[0])
    di, bc, dc = built["step_di"], built["step_bc"], built["step_dc"]
    q = dc.conclusion.succedent.system.domain
    inv, cut = AUDIT_INVARIANT, AUDIT_REFINED

    def assuming_inv(node):
        last = node.obligations[-1]
        hyp = conj([last.obligation.hypothesis, inv])
        ob = ArithOb(last.label, kernel.INTERNAL, arith.ArithObligation.closure(hyp, last.obligation.conclusion))
        return ProofNode(node.step, node.conclusion, (), node.obligations[:-1] + (ob,))

    cut_child, rest_child = dc.children
    under_cut = Sequent(cut_child.conclusion.context, box(AUDIT_PROBLEM.system.with_domain(conj([q, cut])), cut))
    for node in (assuming_inv(di), assuming_inv(bc), ProofNode(dc.step, dc.conclusion, (leaf(under_cut), rest_child))):
        assert assumes_what_it_proves(node)
    assert not any(assumes_what_it_proves(node) for node in (di, bc, dc))


def test_invariance_steps_check_their_children():
    """DC, DX, DomainWeaken and ∧-split refuse a child that proves another
    sequent; DI, BC and DomainWeaken refuse a target outside their shape."""
    built = build_every_step(*AUDIT_PAIRS[0])
    target = built["step_dw"].conclusion
    system, q = AUDIT_PROBLEM.system, target.succedent.system.domain
    inv, cut, weaker = AUDIT_INVARIANT, AUDIT_REFINED, Or(q, AUDIT_REFINED)
    wrong = leaf(Sequent(target.context, box(system.with_domain(q), parse_formula("v < 3"))))
    split_target = built["step_and_split"].conclusion
    cases = (
        lambda: step_dc(target, cut, wrong, built["step_dc"].children[1]),
        lambda: step_dc(target, cut, built["step_dc"].children[0], wrong),
        lambda: step_dx(target, wrong),
        lambda: step_dx(target, leaf(target)),  # the domain not added to the context
        lambda: step_domain_weaken(target, weaker, wrong),
        lambda: step_domain_weaken(target, weaker, leaf(target)),  # the domain not weakened
        lambda: step_and_split(split_target, (wrong, built["step_and_split"].children[1])),
        lambda: step_and_split(split_target, built["step_and_split"].children[:1]),
        lambda: step_dw(Sequent(target.context, dia(system, inv))),
    )
    for case in cases:
        with pytest.raises(ShapeMismatch):
            case()
    not_invariant = Sequent(target.context, box(system.with_domain(q), parse_formula("u != 3")))
    for case in (
        lambda: step_di(not_invariant),
        lambda: step_di(Sequent(target.context, box(system, parse_formula("u = 3"))), boundary=True),
        lambda: step_bc(target, parse_poly("u + 3")),
        lambda: step_domain_weaken(target, cut, leaf(Sequent(target.context, box(system.with_domain(cut), inv)))),
    ):
        with pytest.raises(HintMismatch):
            case()


PROOF_RECORDS = {"ProofNode", "ArithOb", "TopoOb", "LipschitzOb", "InvarianceOb", "AssumeOb"}


def test_only_the_kernel_builds_proof_nodes():
    """Only `kernel.py` calls `ProofNode` or an obligation record, `rules.py`
    imports none of them, and the kernel has no unchecked node builder."""
    callers, imported = set(), set()
    for path in sorted((ROOT / "src" / "odeliveness").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            called = getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None
            if called in PROOF_RECORDS:
                callers.add(path.name)
            if isinstance(node, ast.ImportFrom) and path.name == "rules.py":
                imported |= {alias.name for alias in node.names} & PROOF_RECORDS
    assert callers == {"kernel.py"}
    assert imported == set()
    assert not hasattr(kernel, "derived_node")


def test_liveness_steps_check_their_names():
    """Each derived-rule step builds only its own family's rules, and the
    variant the name picks: SP_ck_dom needs a stage S, E_c_dom takes none."""
    built = build_every_step(*AUDIT_PAIRS[0])
    target, free = built["step_dv"].conclusion, built["step_sp_bounded"].conclusion
    v, one, q = AUDIT_VARIANT, Polynomial.const(1), target.succedent.system.domain
    cases = {
        lambda: step_dv("dV_eq_dom", target, v, one, "GEx", op=">=", p0=-1): "is not one of",
        lambda: step_sp_bounded("SP_x", free, v, q, one, p0=-1, p1=1): "is not one of",
        lambda: step_compact_dom("E_c_dom", target, v, S=q): "staging set",
        lambda: step_compact_dom("SP_ck_dom", target, v): "staging set",
    }
    for case, why in cases.items():
        with pytest.raises(ShapeMismatch, match=why):
            case()
    assert step_sp_bounded("SP_b", free, v, q, one, p0=-1, p1=1).step.name == "SP_b"


def test_audit_sees_the_catalog_shapes():
    """The catalog's corrections on hand-built nodes: dV_geq_dom without its
    GlobalLipschitz gate (CE-1) or without Γ ⊢ ¬P (CE-3), SLyap without
    Compact(K) (CE-4)."""
    built = build_every_step(*AUDIT_PAIRS[0])
    dv, slyap = built["step_dv"], built["step_slyap"]

    def without(node, drop):
        kept = tuple(ob for ob in node.obligations if not drop(ob))
        return ProofNode(node.step, node.conclusion, node.children, kept)

    assert missing_liveness_gates(without(dv, lambda ob: isinstance(ob, LipschitzOb))) == ["GlobalLipschitz gate"]
    no_initial = without(dv, lambda ob: ob.label.startswith("InitialState"))
    assert refines_domain_under_goal_negation(no_initial) and missing_gates(no_initial) == ["initial-state"]
    no_compact = without(slyap, lambda ob: getattr(ob, "prop", None) == topology.COMPACT)
    assert missing_liveness_gates(no_compact) == ["Compact gate"]
    bex = slyap.children[0].conclusion  # the goal left in: BEx leaves K, not K & !P
    over_k = step_exist_bounded(bex.context, bex.succedent.system, parse_formula(AUDIT_PAIRS[0][1]), None)
    assert missing_liveness_gates(ProofNode(slyap.step, slyap.conclusion, (over_k,), slyap.obligations)) == [
        "BEx escape set"
    ]
    assert missing_liveness_gates(dv) == missing_liveness_gates(slyap) == missing_gates(dv) == []


def test_domain_refine_signature_admits_no_extra_domain_term():
    sig = inspect.signature(step_refine_domain)
    assert list(sig.parameters) == ["target", "stronger_domain", "child", "hints"]


def test_unsound_variant_not_constructible(alpha_l):
    """CE-2 shape: only COR can place the goal negation in the box domain,
    and on the punctured-line configuration it refuses."""
    q = parse_formula("u < 1 | u > 1")
    p = parse_formula("u >= 1")
    target = dia_seq(alpha_l, p, domain=q)
    child = leaf(dia_seq(alpha_l, p, domain=TRUE))
    # DR produces the plain-domain obligation, not the not-P one
    node = step_refine_domain(target, TRUE, child)
    assert node.obligations[0].sequent.succedent.system.domain == TRUE
    # COR refuses: P closed, Q open
    with pytest.raises(TopoUnknown):
        step_topo_closed_open(target, TRUE, child)


# -- trace format ------------------------------------------------------------------


def test_trace_lines_depth_and_postorder(alpha_l):
    inner = leaf(dia_seq(alpha_l, TRUE))
    mid = ProofNode(Step("mid"), dia_seq(alpha_l, TRUE), (inner,), ())
    root = ProofNode(Step("root"), dia_seq(alpha_l, TRUE), (mid,), ())
    lines = render_trace(root).splitlines()
    assert lines[0].startswith("2 stub")
    assert lines[1].startswith("1 mid")
    assert lines[2].startswith("0 root")
    assert " -- " in lines[0]


def test_print_sequent_shows_context(alpha_l):
    seq = dia_seq(alpha_l, parse_formula("u >= 0"), ctx=[parse_formula("u = 1")])
    assert print_sequent(seq).startswith("u = 1 |- ")


def test_bex_false_escape_trivially_bounded(alpha_n):
    from odeliveness.syntax import FALSE
    from odeliveness import topology as topo_mod

    clocked = alpha_n.system.with_domain(TRUE).with_clock("_t")
    node = step_exist_bounded((), clocked, FALSE, None)
    (ob,) = node.obligations
    v = topo_mod.check_bounded(FALSE, alpha_n.system.vars, arith.prove_implication)
    assert v.holds  # the empty set is bounded; the disjunct !false holds at time 0
