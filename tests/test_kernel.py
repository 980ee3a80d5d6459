import inspect

import pytest

from odeliveness import arith, kernel, topology
from odeliveness.errors import (
    ClockNotFresh,
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
    ProofNode,
    Sequent,
    Step,
    TopoOb,
    box,
    context_filter,
    dia,
    print_sequent,
    render_trace,
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
from odeliveness.normal import negate
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import TRUE, Cmp, Modal, conj, conjuncts, parse_formula, parse_poly, parse_problem


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


def _arith_stub(valid=None, refuting=False):
    from odeliveness.arith import ArithObligation, ArithVerdict, VALID, FALSIFIED, UNKNOWN as U

    ob = ArithOb("stub", kernel.PREMISE, ArithObligation((), TRUE, TRUE), refuting=refuting)
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
    assert ProofNode(Step("x"), seq, (), (_arith_stub(False, refuting=True),)).verdict() == REFUTED
    assert ProofNode(Step("x"), seq, (), (_arith_stub(False, refuting=False),)).verdict() == UNKNOWN
    assert ProofNode(Step("x"), seq, (), (_arith_stub("unknown", refuting=True),)).verdict() == UNKNOWN


def test_verdict_tree_walk(alpha_l):
    seq = dia_seq(alpha_l, TRUE)
    bad_leaf = ProofNode(Step("leaf"), seq, (), (_arith_stub("unknown"),))
    root = ProofNode(Step("root"), seq, (bad_leaf,), (_arith_stub(True),))
    assert root.verdict() == UNKNOWN


# -- context filtering -----------------------------------------------------------


def test_context_filter_keeps_constants():
    pf = parse_problem("param e;  ode { u' = -v - u; v' = u - v }")
    gamma = (parse_formula("e > 0"), parse_formula("u^2 + v^2 = 1"))
    const, state = context_filter(gamma, pf.system)
    assert const == (parse_formula("e > 0"),)
    assert state == (parse_formula("u^2 + v^2 = 1"),)


def test_context_filter_edges(alpha_l):
    assert context_filter((), alpha_l.system) == ((), ())
    gamma = (parse_formula("1 >= 0"),)
    assert context_filter(gamma, alpha_l.system)[0] == gamma


# -- structural soundness audit (no constructor realizes the unsound shape) -------


AUDIT_PROBLEM = parse_problem("ode { u' = -v - u; v' = u - v }  assume { u = 0 }")
# (goal P, domain Q): a closed pair and an open pair, so COR builds on each
AUDIT_PAIRS = (("u >= 1", "u^2 + v^2 <= 4"), ("u > 1", "u^2 + v^2 < 4"))
AUDIT_REFINED = parse_formula("v <= 1")  # the stronger domain R of the refinement steps


def build_every_step(goal: str, domain: str) -> dict:
    """Every kernel `step_*` constructor applied to Γ ⊢ <x' = f & Q> P, keyed
    by its name.  Each child is a stub leaf of the shape the step asks for;
    the existence leaves, which refuse a domain, get the unconstrained
    clocked system."""
    ctx, system = AUDIT_PROBLEM.assumptions, AUDIT_PROBLEM.system
    p, q, g = parse_formula(goal), parse_formula(domain), parse_formula("u >= 2")
    target = Sequent(ctx, dia(system.with_domain(q), p))

    def child(post, dom):
        return leaf(Sequent(ctx, dia(system.with_domain(dom), post)))

    t0 = Cmp("=", Polynomial.var(kernel.CLOCK_NAME), Polynomial.const(0))
    clocked = leaf(Sequent(ctx + (t0,), dia(system.with_domain(q).with_clock(kernel.CLOCK_NAME), p)))
    unconstrained = system.with_domain(TRUE).with_clock(kernel.CLOCK_NAME)
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
    )
    return {step.__name__: step(*args) for step, *args in calls}


def _diamond_domain(seq):
    s = seq.succedent
    if isinstance(s, Modal) and not s.box:
        return TRUE if s.system.domain is None else s.system.domain
    return None


def refines_domain_under_goal_negation(node) -> bool:
    """The node changes its diamond's domain Q and puts the goal negation
    among the conjuncts of a box premise's domain: the shape that is sound
    only with COR's gates (CE-2 shows the failure without them)."""
    domain = _diamond_domain(node.conclusion)
    if domain is None or all(_diamond_domain(c.conclusion) in (None, domain) for c in node.children):
        return False
    not_p = set(conjuncts(negate(node.conclusion.succedent.post)))
    return any(
        isinstance(ob, InvarianceOb) and not_p <= set(conjuncts(ob.sequent.succedent.system.domain))
        for ob in node.obligations
    )


def missing_gates(node) -> list:
    """The gates of that shape a node lacks: a Closed/Open topology gate, and
    the initial-state gate whose conclusion is the goal negation under the
    node's context."""
    not_p = negate(node.conclusion.succedent.post)
    hyp = conj(list(node.conclusion.context))
    gates = [ob for ob in node.obligations if ob.role == kernel.GATE]
    missing = []
    if not any(isinstance(ob, TopoOb) and ob.prop in (topology.CLOSED, topology.OPEN) for ob in gates):
        missing.append("topology")
    if not any(
        isinstance(ob, ArithOb) and (ob.obligation.hypothesis, ob.obligation.conclusion) == (hyp, not_p)
        for ob in gates
    ):
        missing.append("initial-state")
    return missing


def step_audit_findings() -> list:
    """What the constructor audit finds wrong, empty when sound: a `step_*`
    constructor it does not build, a step other than COR that refines the
    domain under the goal negation, such a step without its gates, COR no
    longer seen to do so, or a DR box premise over more than the plain R."""
    constructors = {name for name in vars(kernel) if name.startswith("step_")}
    findings = []
    for goal, domain in AUDIT_PAIRS:
        built = build_every_step(goal, domain)
        findings += [f"{name} is not built by the audit" for name in sorted(constructors - set(built))]
        tripped = {name for name, node in built.items() if refines_domain_under_goal_negation(node)}
        findings += [f"{name} refines the domain under not-P" for name in sorted(tripped - {"step_topo_closed_open"})]
        findings += [f"{name} lacks its {gate} gate" for name in sorted(tripped) for gate in missing_gates(built[name])]
        if "step_topo_closed_open" not in tripped:
            findings.append(f"COR is not seen to refine the domain under not-P ({goal}, {domain})")
        dr_domains = [ob.sequent.succedent.system.domain for ob in built["step_refine_domain"].obligations]
        if dr_domains != [AUDIT_REFINED]:
            findings.append(f"DR's box premise domains are {dr_domains}, not the plain R")
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
