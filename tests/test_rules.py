from collections import Counter
from fractions import Fraction

import pytest

from odeliveness import arith, syntax
from odeliveness.errors import (
    HintMismatch,
    MissingCertificateField,
    RuleRefused,
    ShapeMismatch,
)
from odeliveness.kernel import (
    CONDITIONAL,
    GATE,
    PREMISE,
    PROVED,
    REFUTED,
    UNKNOWN,
    ArithOb,
    InvarianceOb,
    LipschitzOb,
    Sequent,
    TopoOb,
    box,
    render_trace,
)
from odeliveness.rules import (
    BCStep,
    Checker,
    DCStep,
    DIStep,
    DWStep,
    DomainWeakenStep,
    DXStep,
    RULE_BUILDERS,
    _DOMAIN_STEPS,
    _DURATIONS,
    apply_rule,
    hints_from_cert,
    initial_value,
    prove_invariance,
    upper_bound_on,
)
from odeliveness.syntax import (
    CertStep,
    parse_formula,
    parse_poly,
    parse_problem,
    print_formula,
)

EX1_TEXT = """
ode { u' = -v - u; v' = u - v }
assume { u^2 + v^2 = 1 }
goal { u^2 <= 1/4 & v^2 <= 1/4 & (u^2 >= 1/16 | v^2 >= 1/16) }
proof {
  rule dV_geq {
    p = 1/4 - (u^2 + v^2);
    eps = 1/2;
    p0 = -3/4;
    box = -4 <= u & u <= 4 & -4 <= v & v <= 4;
    hints = hint [ rule DC { f = u^2 + v^2 <= 1; hints = hint [ rule DI { } ] }
                   rule DW { } ];
    post = u^2 + v^2 = 1/4;
    via = u^2 + v^2 <= 1/4;
    via_hints = hint [ rule BC { p = 1/4 - (u^2 + v^2) } ]
  }
}
"""

EX2_TEXT = """
ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }
assume { u^2 + v^2 = 1 }
goal { u^2 + v^2 >= 2 }
proof {
  rule SP_c {
    p = u^2 + v^2;
    S = 1 <= u^2 + v^2 & u^2 + v^2 <= 2;
    eps = 3/2;
    hints = hint [
      rule DC { f = u^2 + v^2 >= 1; hints = hint [ rule DI { } ] }
      rule DW { }
    ]
  }
}
"""


def check(text):
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    return pf, node


def build(text):
    """Construct without discharging (for golden obligation-set tests)."""
    pf = parse_problem(text)
    step = pf.certificate[0]
    return pf, RULE_BUILDERS[step.name](pf, step, Checker())


def obligation_signature(node):
    out = []
    for ob in node.all_obligations():
        if isinstance(ob, ArithOb):
            out.append(("arith", ob.role, ob.obligation.describe()))
        elif isinstance(ob, TopoOb):
            out.append(("topo", ob.role, f"{ob.prop}({print_formula(ob.formula)})"))
        elif isinstance(ob, LipschitzOb):
            out.append(("lipschitz", ob.role, ""))
        elif isinstance(ob, InvarianceOb):
            out.append(("invariance", ob.role, print_formula(ob.sequent.succedent)))
    return out


# -- the worked examples -------------------------------------------------------


def test_example1_proves_with_expected_chain():
    pf, node = check(EX1_TEXT)
    assert node.verdict() == PROVED
    trace = render_trace(node)
    names = [line.split()[1] for line in trace.splitlines() if line and line[0].isdigit()]
    assert names == ["GEx", "dV_geq", "K⟨&⟩", "M◇′"]
    assert "_t > 3/2" in trace


def test_example2_proves_with_bounded_existence():
    pf, node = check(EX2_TEXT)
    assert node.verdict() == PROVED
    trace = render_trace(node)
    names = [line.split()[1] for line in trace.splitlines() if line and line[0].isdigit()]
    assert names.count("K⟨&⟩") == 2
    assert "BEx" in names
    assert "_t > 2/3" in trace


def test_alpha_n_with_plain_variant_refused():
    text = """
    ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    pf = parse_problem(text)
    with pytest.raises(RuleRefused, match="GlobalLipschitz"):
        apply_rule(pf, pf.certificate[0], Checker())


def test_eps_scaling_invariance():
    """Scaling p and eps by the same positive rational preserves the verdict."""
    template = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq { p = PPP; eps = EEE } }
    """
    base = template.replace("PPP", "1/4 - (u^2 + v^2)").replace("EEE", "1/2")
    scaled = template.replace("PPP", "3/4 - 3*u^2 - 3*v^2").replace("EEE", "3/2")
    _, n1 = check(base)
    _, n2 = check(scaled)
    assert n1.verdict() == n2.verdict() == PROVED


def test_wrong_eps_refutes_certificate():
    text = EX2_TEXT.replace("eps = 3/2", "eps = 2")
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() in (REFUTED, UNKNOWN)
    # the slope witness fails with an exact counterexample
    bad = [
        ob
        for ob in node.all_obligations()
        if isinstance(ob, ArithOb) and ob.result is not None and ob.result.status == arith.FALSIFIED
    ]
    assert bad


def test_missing_field():
    text = "ode { x' = 1 } goal { x >= 0 } proof { rule dV_geq { eps = 1 } }"
    pf = parse_problem(text)
    with pytest.raises(MissingCertificateField, match="'p'"):
        apply_rule(pf, pf.certificate[0], Checker())


def test_goal_shape_mismatch():
    text = "ode { x' = 1 } goal { x >= 0 } proof { rule dV_geq { p = x - 1; eps = 1 } }"
    pf = parse_problem(text)
    with pytest.raises(ShapeMismatch):
        apply_rule(pf, pf.certificate[0], Checker())


# -- golden obligation sets, one per derived rule --------------------------------


def test_dv_geq_obligations():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    _, node = build(text)
    sig = obligation_signature(node)
    kinds = [(k, r) for k, r, _ in sig]
    assert ("lipschitz", GATE) in kinds
    premise = [d for k, r, d in sig if k == "arith" and r == PREMISE]
    assert premise == ["-u^2 - v^2 + 1/4 < 0 -> 2*u^2 + 2*v^2 >= 1/2"]


def test_dv_k_with_k1_matches_dv_geq():
    t1 = """
    ode { u' = -v - u; v' = u - v }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    t2 = t1.replace("rule dV_geq { p", "rule dV_k { k = 1; p")
    _, n1 = build(t1)
    _, n2 = build(t2)
    sig1 = [(k, r, d) for k, r, d in obligation_signature(n1)]
    sig2 = [(k, r, d) for k, r, d in obligation_signature(n2)]
    assert sig1 == sig2


def test_dv_k_higher_order_premise():
    text = """
    ode { u' = v; v' = 1 }
    goal { u >= 0 }
    proof { rule dV_k { k = 2; p = u; eps = 1 } }
    """
    _, node = build(text)
    premise = [d for k, r, d in obligation_signature(node) if r == PREMISE]
    assert premise == ["u < 0 -> 1 >= 1"]  # second Lie derivative of u is 1
    assert "dC chain" in node.step.note


def test_dv_geq_star_defaults_to_assumption():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq_star { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == CONDITIONAL
    # no Lipschitz gate when the duration is assumed
    assert not any(isinstance(ob, LipschitzOb) for ob in node.all_obligations())


def test_dv_geq_star_with_gex_needs_lipschitz():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq_star { p = 1/4 - (u^2 + v^2); eps = 1/2; duration = GEx } }
    """
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == PROVED
    assert any(isinstance(ob, LipschitzOb) for ob in node.all_obligations())


def test_dv_geq_star_bex_duration():
    # non-Lipschitz flow x' = 1 + x^2: the variant argument survives blow-up
    # because solutions can only stop existing by leaving the bounded band
    text = """
    ode { x' = 1 + x^2 }
    assume { x = -1 }
    goal { x >= 0 }
    proof { rule dV_geq_star { p = x; eps = 1; duration = BEx;
            duration_B = -2 <= x & x <= 0;
            duration_hints = hint [
              rule DC { f = x >= -2; hints = hint [ rule DI { } ] }
              rule DC { f = x <= 0; hints = hint [ rule DI { } ] }
              rule DW { } ] } }
    """
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == PROVED
    assert any(
        isinstance(ob, TopoOb) and ob.prop == "Bounded" for ob in node.all_obligations()
    )
    assert not any(isinstance(ob, LipschitzOb) for ob in node.all_obligations())


def test_dv_eq_obligations_and_proof():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 = 1/4 }
    proof { rule dV_eq { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    pf, node = check(text)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    assert ("arith", GATE, "u^2 + v^2 = 1 -> -u^2 - v^2 + 1/4 <= 0") in sig
    inv = [d for k, r, d in sig if k == "invariance"]
    assert any("!= " in d or "!=" in d for d in inv)  # stay-negative replay domain p != 0


def test_dv_eqm_adds_monotone_premise():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 <= 1/4 & v^2 <= 1/4 & (u^2 >= 1/16 | v^2 >= 1/16) }
    proof { rule dV_eqM { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    pf, node = check(text)
    assert node.verdict() == PROVED
    assert node.step.name == "dV_eqM"
    top_premises = [ob for ob in node.obligations if isinstance(ob, ArithOb)]
    assert any("1/4" in ob.obligation.describe() for ob in top_premises)


def test_sp_proves(alpha_l):
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule SP { p = 1/4 - (u^2 + v^2); eps = 1/2;
            S = 1/4 <= u^2 + v^2 & u^2 + v^2 <= 1;
            hints = hint [ rule DC { f = u^2 + v^2 <= 1; hints = hint [ rule DI { } ] }
                           rule DW { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    premise = [d for k, r, d in sig if k == "arith" and r == PREMISE]
    assert any("<= 0 &" in d for d in premise)  # conjunction p <= 0 and slope


def test_sp_b_requires_eps_and_bounded():
    text = """
    ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 >= 2 }
    proof { rule SP_b { p = u^2 + v^2; eps = 3/2;
            S = 1 <= u^2 + v^2 & u^2 + v^2 <= 2;
            hints = hint [ rule DC { f = u^2 + v^2 >= 1; hints = hint [ rule DI { } ] }
                           rule DW { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    assert any(
        isinstance(ob, TopoOb) and ob.prop == "Bounded" for ob in node.all_obligations()
    )


def test_sp_c_drops_eps():
    text = EX2_TEXT.replace("eps = 3/2;", "")
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == PROVED
    premise = [
        ob.obligation.describe()
        for ob in node.all_obligations()
        if isinstance(ob, ArithOb) and ob.role == PREMISE
    ]
    assert any("> 0" in d for d in premise)  # strict premise, no eps


def test_sp_b_without_eps_is_rejected():
    text = EX2_TEXT.replace("rule SP_c", "rule SP_b").replace("eps = 3/2;", "")
    pf = parse_problem(text)
    with pytest.raises(MissingCertificateField, match="eps"):
        apply_rule(pf, pf.certificate[0], Checker())


SLYAP_TEXT = """
ode { u' = -u; v' = -v }
assume { u^2 + v^2 = 1 }
goal { u^2 + v^2 < 1/4 }
proof { rule SLyap { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1 } }
"""


def test_slyap_proves_contraction():
    _, node = check(SLYAP_TEXT)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    assert ("topo", GATE, "Compact(u^2 + v^2 <= 1)") in sig
    assert ("topo", GATE, "Open(u^2 + v^2 < 1/4)") in sig


def test_slyap_requires_open_goal():
    text = SLYAP_TEXT.replace("u^2 + v^2 < 1/4", "u^2 + v^2 <= 1/4")
    pf = parse_problem(text)
    with pytest.raises(RuleRefused, match="Open"):
        apply_rule(pf, pf.certificate[0], Checker())


def test_dv_geq_dom_proves():
    text = """
    ode { u' = -v - u; v' = u - v }
    domain { u^2 + v^2 <= 2 }
    assume { u^2 + v^2 = 1 }
    goal { 1/4 - (u^2 + v^2) >= 0 }
    proof { rule dV_geq_dom { p = 1/4 - (u^2 + v^2); eps = 1/2;
            hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    assert ("topo", GATE, "Closed(u^2 + v^2 <= 2)") in sig
    assert any("InitialState" in ob.label for ob in node.all_obligations() if isinstance(ob, ArithOb))


def test_dv_gt_dom_needs_open_domain():
    text = """
    ode { u' = -v - u; v' = u - v }
    domain { u^2 + v^2 < 2 }
    assume { u^2 + v^2 = 1 }
    goal { 1/4 - (u^2 + v^2) > 0 }
    proof { rule dV_gt_dom { p = 1/4 - (u^2 + v^2); eps = 1/2;
            hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    # closed-domain variant refuses on the open domain
    bad = text.replace("dV_gt_dom", "dV_geq_dom").replace("> 0 }", ">= 0 }")
    pf = parse_problem(bad)
    with pytest.raises(RuleRefused, match="Closed"):
        apply_rule(pf, pf.certificate[0], Checker())


def test_dv_eq_dom_obligations():
    text = """
    ode { u' = -v - u; v' = u - v }
    domain { u^2 + v^2 <= 2 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 = 1/4 }
    proof { rule dV_eq_dom { p = 1/4 - (u^2 + v^2); eps = 1/2;
            hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    assert ("topo", GATE, "Closed(u^2 + v^2 <= 2)") in sig
    inv = [d for k, r, d in sig if k == "invariance" and r == PREMISE]
    assert any("-u^2 - v^2 + 1/4 < 0" in d for d in inv)  # box domain is p < 0


def test_sp_dom_proves():
    text = """
    ode { u' = -v - u; v' = u - v }
    domain { u^2 + v^2 <= 2 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule SP_dom { p = 1/4 - (u^2 + v^2); eps = 1/2;
            S = 1/4 <= u^2 + v^2 & u^2 + v^2 <= 1;
            hints = hint [ rule DC { f = u^2 + v^2 <= 1; hints = hint [ rule DI { } ] }
                           rule DW { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    premise = [
        ob.obligation.describe()
        for ob in node.all_obligations()
        if isinstance(ob, ArithOb) and ob.role == PREMISE
    ]
    # the staging premise includes the domain conjunct
    assert any("u^2 + v^2 <= 2" in d for d in premise)


def test_sp_ck_dom_proves_contraction():
    text = """
    ode { u' = -u; v' = -v }
    domain { u^2 + v^2 <= 1 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule SP_ck_dom { p = -(u^2 + v^2); k = 1;
            S = 1/4 <= u^2 + v^2 & u^2 + v^2 <= 1;
            hints = hint [ rule DC { f = u^2 + v^2 <= 1; hints = hint [ rule DI { } ] }
                           rule DW { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    assert node.step.note == "k = 1"


def test_e_c_dom_proves_contraction():
    text = """
    ode { u' = -u; v' = -v }
    domain { u^2 + v^2 <= 1 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule E_c_dom { p = -(u^2 + v^2);
            hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    sig = obligation_signature(node)
    # corrected premise: box domain is the negation of goal-and-domain
    inv = [d for k, r, d in sig if k == "invariance" and r == PREMISE]
    assert inv and node.step.note == "k = 1"


def test_slyap_dom_requires_matching_domain():
    text = """
    ode { u' = -u; v' = -v }
    domain { 1 - u^2 - v^2 > 0 }
    assume { u^2 + v^2 = 1/2 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule SLyap_dom { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1 } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    wrong = text.replace("domain { 1 - u^2 - v^2 > 0 }", "domain { u^2 + v^2 < 2 }")
    pf = parse_problem(wrong)
    with pytest.raises(ShapeMismatch):
        apply_rule(pf, pf.certificate[0], Checker())


# -- invariance sub-prover --------------------------------------------------------


def _inv_seq(pf, domain, post, ctx=()):
    return Sequent(tuple(ctx), box(pf.system.with_domain(domain), post))


def test_invariance_example2_dc_di_dw(alpha_n):
    seq = _inv_seq(
        alpha_n,
        parse_formula("!(u^2 + v^2 >= 2)"),
        parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2"),
        ctx=[parse_formula("u^2 + v^2 = 1")],
    )
    hints = (DCStep(parse_formula("u^2 + v^2 >= 1"), (DIStep(),)), DWStep())
    node = prove_invariance(seq, hints, Checker())
    assert node.verdict() == PROVED


def test_invariance_dw_reflexive(alpha_l):
    q = parse_formula("u^2 + v^2 <= 2")
    node = prove_invariance(_inv_seq(alpha_l, q, q), (DWStep(),), Checker())
    assert node.verdict() == PROVED


def test_invariance_bc_falsified_is_unknown(alpha_l):
    pf = parse_problem("ode { x' = 1 }  goal { x >= 0 }")
    seq = Sequent(
        (parse_formula("x = -1"),),
        box(pf.system.with_domain(parse_formula("x <= 5")), parse_formula("x < 0")),
    )
    node = prove_invariance(seq, (BCStep(parse_poly("x")),), Checker())
    assert node.verdict() == UNKNOWN
    bad = [ob for ob in node.obligations if ob.result is not None and ob.result.status == arith.FALSIFIED]
    assert bad  # the boundary obligation x = 0 -> 1 < 0 is falsified


def test_invariance_bc_mismatch(alpha_l):
    seq = _inv_seq(alpha_l, parse_formula("u > 0"), parse_formula("u > 0"))
    with pytest.raises(HintMismatch):
        prove_invariance(seq, (BCStep(parse_poly("u")),), Checker())


def test_invariance_domain_weaken(alpha_l):
    # weaken not(P and Q) to not(P) before using a staging-shaped argument
    p = parse_formula("u^2 + v^2 <= 1/4")
    q = parse_formula("u^2 + v^2 <= 2")
    from odeliveness.normal import negate
    from odeliveness.syntax import And

    seq = _inv_seq(alpha_l, negate(p), parse_formula("u^2 + v^2 <= 2"), ctx=[parse_formula("u^2 + v^2 = 1")])
    strong = _inv_seq(
        alpha_l, negate(And(p, q)), parse_formula("u^2 + v^2 <= 2"), ctx=[parse_formula("u^2 + v^2 = 1")]
    )
    node = prove_invariance(seq, (DomainWeakenStep(negate(And(p, q))), DIStep()), Checker())
    assert node.verdict() == PROVED


def test_invariance_dx_enables_initial():
    # initial truth follows only once the domain is assumed initially
    pf = parse_problem("ode { x' = 1 }  goal { x >= 0 }")
    seq = Sequent((), box(pf.system.with_domain(parse_formula("x >= 0")), parse_formula("x >= 0")))
    direct = prove_invariance(seq, (DIStep(),), Checker())
    assert direct.verdict() != PROVED
    via_dx = prove_invariance(seq, (DXStep(), DIStep()), Checker())
    assert via_dx.verdict() == PROVED


def test_invariance_auto_dw_then_di(alpha_l):
    q = parse_formula("u^2 + v^2 <= 2")
    auto = prove_invariance(_inv_seq(alpha_l, q, q), (), Checker())
    assert auto.verdict() == PROVED and auto.step.name == "DW"
    seq = _inv_seq(alpha_l, parse_formula("u^2 + v^2 != 1/4"), parse_formula("u^2 + v^2 <= 2"),
                   ctx=[parse_formula("u^2 + v^2 = 1")])
    auto2 = prove_invariance(seq, (), Checker())
    assert auto2.step.name == "DI"


def test_hints_from_cert_rejects_bad_steps():
    with pytest.raises(MissingCertificateField):
        hints_from_cert((CertStep("DC", ()),))
    with pytest.raises(MissingCertificateField):
        hints_from_cert((CertStep("BC", ()),))


# -- helper derivations ------------------------------------------------------------


def test_initial_value_from_equalities():
    gamma = (parse_formula("u^2 + v^2 = 1"),)
    assert initial_value(parse_poly("1/4 - (u^2 + v^2)"), gamma) == Fraction(-3, 4)
    assert initial_value(parse_poly("u^2 + v^2"), gamma) == 1
    assert initial_value(parse_poly("u"), gamma) is None


def test_upper_bound_from_atoms():
    S = parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2")
    assert upper_bound_on(parse_poly("u^2 + v^2"), S, Checker()) == 2


def test_upper_bound_search_continues_past_unbounded_domain():
    # w is unbounded: c = 1 and c = 2 answer unbounded-domain, c = 4 is proved
    region = parse_formula("u^2 + v^2 <= 2 & w >= 0")
    assert upper_bound_on(parse_poly("2*u^2 + 2*v^2"), region, Checker()) == 4


def test_symbolic_eps_parameter():
    """eps as a declared constant parameter, justified by a constant assumption."""
    text = """
    param c;
    ode { x' = c }
    assume { c >= 1, x = -1 }
    goal { x >= 0 }
    proof { rule dV_geq { p = x; eps = c } }
    """
    pf = parse_problem(text)
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == PROVED
    descr = [
        ob.obligation.describe()
        for ob in node.all_obligations()
        if isinstance(ob, ArithOb)
    ]
    assert any("c >= 1" in d for d in descr)  # the kept constant context


def test_dv_gt_strict_variant():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule dV_gt { p = 1/4 - (u^2 + v^2); eps = 1/2 } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    premise = [
        ob.obligation.describe()
        for ob in node.all_obligations()
        if isinstance(ob, ArithOb) and ob.role == PREMISE
    ]
    # negated strict goal gives a non-strict hypothesis
    assert any("<= 0" in d for d in premise)


def test_nonpositive_eps_is_refused():
    text = """
    ode { u' = -v - u; v' = u - v }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 <= 1/4 }
    proof { rule dV_geq { p = 1/4 - (u^2 + v^2); eps = 0 } }
    """
    pf = parse_problem(text)
    with pytest.raises(RuleRefused, match="eps positive"):
        apply_rule(pf, pf.certificate[0], Checker())


def test_domain_via_dr_route():
    """Explicit plain domain refinement: the box obligation keeps domain true."""
    text = """
    ode { u' = -u; v' = -v }
    domain { u^2 + v^2 <= 1 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule SLyap { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1;
            domain_via = DR;
            domain_hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    assert node.step.name == "DR⟨·⟩"
    (ob,) = node.obligations
    from odeliveness.syntax import TRUE

    assert ob.sequent.succedent.system.domain == TRUE  # plain R, never R and not-P


def test_domain_via_sar_route():
    text = """
    ode { u' = -u; v' = -v }
    domain { u^2 + v^2 <= 1 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule SLyap { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1;
            domain_via = SAR;
            domain_hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    assert node.step.name == "SAR"


def test_dv_eqm_dom():
    text = """
    ode { u' = -v - u; v' = u - v }
    domain { u^2 + v^2 <= 2 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 <= 1/4 & v^2 <= 1/4 }
    proof { rule dV_eqM_dom { p = 1/4 - (u^2 + v^2); eps = 1/2;
            hints = hint [ rule DI { } ] } }
    """
    _, node = check(text)
    assert node.verdict() == PROVED
    assert node.step.name == "dV_eqM_dom"
    # the monotone premise assumes the domain alongside the zero set
    (mono,) = [ob for ob in node.obligations if isinstance(ob, ArithOb)]
    assert "u^2 + v^2 <= 2" in mono.obligation.describe()


def test_slyap_strict_initial():
    text = SLYAP_TEXT.replace(
        "proof { rule SLyap { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1 } }",
        "proof { rule SLyap { p = 1 - u^2 - v^2; K = u^2 + v^2 <= 1; strict = 1 } }",
    ).replace("assume { u^2 + v^2 = 1 }", "assume { u^2 + v^2 = 1/2 }")
    _, node = check(text)
    assert node.verdict() == PROVED
    gates = [ob.label for ob in node.all_obligations() if getattr(ob, "role", "") == GATE]
    assert any("p > 0" in g for g in gates)


def test_e_c_dom_corrected_premise_shape():
    text = """
    ode { u' = -u; v' = -v }
    domain { u^2 + v^2 <= 1 }
    assume { u^2 + v^2 = 1 }
    goal { u^2 + v^2 < 1/4 }
    proof { rule E_c_dom { p = -(u^2 + v^2); hints = hint [ rule DI { } ] } }
    """
    pf = parse_problem(text)
    node = RULE_BUILDERS["E_c_dom"](pf, pf.certificate[0], Checker())
    (stay,) = [ob for ob in node.obligations if isinstance(ob, InvarianceOb)]
    dom = stay.sequent.succedent.system.domain
    from odeliveness.normal import negate
    from odeliveness.syntax import And, conj

    assert dom == negate(And(pf.goal, pf.system.domain))  # not(P and Q), not just not-P
    assert stay.sequent.succedent.post == pf.system.domain


def tree_arith_obs(node):
    """Every ArithOb of a checked tree, those of its invariance sub-proofs included."""
    for ob in node.all_obligations():
        if isinstance(ob, ArithOb):
            yield ob
        elif isinstance(ob, InvarianceOb) and ob.proof is not None:
            yield from tree_arith_obs(ob.proof)


def test_shared_obligations_discharged_once(monkeypatch):
    calls = Counter()
    prove = arith.prove_implication

    def counting(ob, budget=None, **kw):
        calls[ob, budget] += 1
        return prove(ob, budget=budget, **kw)

    monkeypatch.setattr(arith, "prove_implication", counting)
    pf = parse_problem(EX2_TEXT)
    checker = Checker()
    node = apply_rule(pf, pf.certificate[0], checker)
    distinct = {ob.obligation for ob in tree_arith_obs(node)}
    at_budget = {ob: n for (ob, budget), n in calls.items() if budget == checker.budget}
    # one call each; a discarded attempt (DI's plain premise here) is called too
    assert len(distinct) > 1 and distinct <= set(at_budget) and set(at_budget.values()) == {1}
    # the cache answers a repeated structural query without a call
    first = next(tree_arith_obs(node))
    assert checker.prove(first.obligation) is first.result
    assert calls[first.obligation, checker.budget] == 1


def test_bound_search_is_proved_through_the_checker_cache(monkeypatch):
    # check_bounded's doubling search asks Checker.prove, so an obligation
    # posed twice, by the rules or by two searches, is proved once:
    # `check problems/example2.ode` poses 12 distinct obligations
    from conftest import problem_path

    calls = Counter()
    prove = arith.prove_implication

    def counting(ob, budget=None, **kw):
        calls[ob, budget] += 1
        return prove(ob, budget=budget, **kw)

    monkeypatch.setattr(arith, "prove_implication", counting)
    pf = parse_problem(problem_path("example2.ode").read_text())
    assert apply_rule(pf, pf.certificate[0], Checker()).verdict() == PROVED
    assert (sum(calls.values()), len(calls)) == (12, 12)


def test_name_tables_agree():
    assert set(RULE_BUILDERS) == syntax.RULE_NAMES
    bindings = {"DC": "f = u >= 0", "BC": "p = u", "DomainWeaken": "f = u >= 0"}
    for name in syntax.HINT_STEP_NAMES:
        pf = parse_problem(
            "ode { u' = 1 } goal { u >= 1 } proof { rule dV_geq { hints = hint [ rule %s { %s } ] } }"
            % (name, bindings.get(name, ""))
        )
        (hint,) = hints_from_cert(pf.certificate[0].get("hints"))
        assert type(hint).__name__ == f"{name}Step"
    assert syntax.ENUM_BINDING_VALUES == set(_DURATIONS) | set(_DOMAIN_STEPS)


def test_cached_verdict_holds_only_for_its_budget():
    # hard-corpus obligation 0: true, but B&B runs out of cells on it
    ob = arith.ArithObligation(
        ("x", "y"), parse_formula("-1 <= x & x <= 3 & -3 <= y & y <= 2"), parse_formula("4*x^2 - 4*x*y + y^2 >= 0")
    )
    budget = arith.Budget(max_cells=300, max_seconds=3600.0)
    checker = Checker(budget=budget)
    small = checker.prove(ob, budget=arith.Budget(max_cells=10, max_seconds=1.0))
    assert small.trace["cells"] == 11
    again = checker.prove(ob)
    assert (again.status, again.trace) == (arith.UNKNOWN, Checker(budget=budget).prove(ob).trace)
    assert again.trace["cells"] == 301
    assert checker.prove(ob, budget=arith.Budget(max_cells=10, max_seconds=1.0)) is small


def test_dv_k_double_integrator_file():
    from conftest import problem_path

    pf = parse_problem(problem_path("double_integrator.ode").read_text())
    node = apply_rule(pf, pf.certificate[0], Checker())
    assert node.verdict() == PROVED


def test_invariance_auto_splits_conjunction():
    pf = parse_problem("ode { x' = 1 }  assume { x = 0 }  goal { x >= 0 }")
    seq = Sequent(
        (parse_formula("x = 0"),),
        box(
            pf.system.with_domain(parse_formula("x <= 5")),
            parse_formula("x >= -1 & x >= -2"),
        ),
    )
    node = prove_invariance(seq, (), Checker())
    assert node.step.name == "∧-split"
    assert node.verdict() == PROVED
