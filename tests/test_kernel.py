import inspect

import pytest

from odeliveness import kernel, topology
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
    STEP_KINDS,
    UNKNOWN,
    ArithOb,
    AssumeOb,
    InvarianceOb,
    ProofNode,
    Sequent,
    Step,
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
    step_monotone_box,
    step_monotone_dia,
    step_refine_domain,
    step_topo_closed_open,
    step_topo_semialg,
)
from odeliveness.normal import negate
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import TRUE, Cmp, conj, parse_formula, parse_poly, parse_problem


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


def test_step_kind_registry_covers_every_trace_name():
    names = {k.name for k in STEP_KINDS}
    for required in ("DR⟨·⟩", "COR", "SAR", "K⟨&⟩", "GEx", "BEx", "dGt", "M◇′", "M□′"):
        assert required in names


def test_no_domain_refinement_carries_goal_negation_without_topo_gate():
    for k in STEP_KINDS:
        if k.changes_domain and "!P" in k.invariance_domain_shape:
            assert k.topo_gated and k.initial_gate, k.name


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
    v = topo_mod.check_bounded(FALSE, alpha_n.system.vars)
    assert v.holds  # the empty set is bounded; the disjunct !false holds at time 0


def test_monotone_box_generates_premise(alpha_l):
    q = parse_formula("u^2 + v^2 <= 2")
    target = Sequent((), box(alpha_l.system.with_domain(q), parse_formula("u^2 + v^2 <= 4")))
    child = leaf(Sequent((), box(alpha_l.system.with_domain(q), parse_formula("u^2 + v^2 <= 1"))))
    node = step_monotone_box(target, parse_formula("u^2 + v^2 <= 1"), child)
    (ob,) = node.obligations
    assert ob.obligation.conclusion == parse_formula("u^2 + v^2 <= 4")
    assert node.step.name == "M□′"
