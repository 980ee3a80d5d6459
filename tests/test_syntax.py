from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness.errors import DuplicateDeclaration, ParseError, UnknownIdentifier
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import (
    TRUE,
    And,
    BoolLit,
    CertStep,
    Cmp,
    Or,
    ProblemFile,
    negate,
    parse_formula,
    parse_poly,
    parse_problem,
    print_formula,
    print_poly,
)


# -- a problem printer -------------------------------------------------------
# No command prints a whole problem file; this printer exists to check that
# printing and parsing a problem are inverse.


def print_problem(pf: ProblemFile) -> str:
    out = []
    for p in pf.params:
        out.append(f"param {p};")
    eqns = "; ".join(f"{x}' = {print_poly(fx)}" for x, fx in zip(pf.system.vars, pf.system.rhs))
    out.append(f"ode {{ {eqns} }}")
    if pf.system.domain is not None and pf.system.domain != TRUE:
        out.append(f"domain {{ {print_formula(pf.system.domain)} }}")
    if pf.assumptions:
        out.append(f"assume {{ {', '.join(print_formula(a) for a in pf.assumptions)} }}")
    if pf.goal is not None:
        out.append(f"goal {{ {print_formula(pf.goal)} }}")
    if pf.certificate:
        out.append("proof {")
        for step in pf.certificate:
            out.extend(_print_step(step, "  "))
        out.append("}")
    return "\n".join(out) + "\n"


def _print_binding_value(v) -> str:
    if isinstance(v, tuple):  # hint list
        inner = []
        for step in v:
            inner.extend(_print_step(step, ""))
        return "hint [ " + " ".join(inner) + " ]"
    if isinstance(v, Polynomial):
        return print_poly(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, str):
        return v
    return print_formula(v)


def _print_step(step: CertStep, indent: str) -> list:
    if not step.bindings:
        return [f"{indent}rule {step.name} {{ }}"]
    bindings = "; ".join(f"{k} = {_print_binding_value(v)}" for k, v in step.bindings)
    return [f"{indent}rule {step.name} {{ {bindings} }}"]


# -- problem files -----------------------------------------------------------


def test_parse_ode_block():
    pf = parse_problem("ode { u' = -v - u; v' = u - v }")
    assert pf.system.vars == ("u", "v")
    assert pf.system.rhs[0] == parse_poly("-v - u")
    assert pf.system.domain == TRUE


def test_parse_goal_comparison():
    pf = parse_problem("ode { u' = v; v' = u }  goal { u^2 + v^2 >= 2 }")
    assert pf.goal == Cmp(">=", parse_poly("u^2 + v^2"), Polynomial.const(2))


def test_malformed_goal_position():
    with pytest.raises(ParseError) as err:
        parse_problem("ode { u' = v; v' = u }\ngoal { u^2 + }")
    assert err.value.line == 2
    assert err.value.col >= 12


def test_duplicate_param():
    with pytest.raises(DuplicateDeclaration):
        parse_problem("param e; param e;  ode { x' = 1 }")


def test_param_on_lhs_rejected():
    with pytest.raises(DuplicateDeclaration):
        parse_problem("param e;  ode { e' = 1 }")


def test_unknown_identifier_carries_position():
    with pytest.raises(UnknownIdentifier) as err:
        parse_problem("ode { x' = 1 }  goal { y >= 0 }")
    assert err.value.name == "y"
    assert "1:" in str(err.value) or "at" in str(err.value)


def test_duplicate_ode_block():
    with pytest.raises(ParseError):
        parse_problem("ode { x' = 1 }  ode { y' = 1 }")


def test_missing_ode_block():
    with pytest.raises(ParseError):
        parse_problem("goal { 1 >= 0 }")


def test_underscore_identifiers_unparseable():
    with pytest.raises(ParseError):
        parse_problem("param _g;  ode { x' = 1 }")


def test_comparison_chain_desugars():
    f = parse_formula("1 <= u^2 + v^2 <= 2")
    r2 = parse_poly("u^2 + v^2")
    assert f == And(Cmp("<=", Polynomial.const(1), r2), Cmp("<=", r2, Polynomial.const(2)))


def test_certificate_bindings():
    pf = parse_problem(
        """
        ode { u' = -v; v' = u }
        goal { u >= 0 }
        proof {
          rule dV_geq {
            p = u; eps = 1/2; duration = GEx;
            hints = hint [ rule DW { } rule DC { f = u >= 0 } ]
          }
        }
        """
    )
    (step,) = pf.certificate
    assert step.name == "dV_geq"
    assert step.get("p") == Polynomial.var("u")
    assert step.get("eps") == Fraction(1, 2)
    assert step.get("duration") == "GEx"
    hints = step.get("hints")
    assert [h.name for h in hints] == ["DW", "DC"]


def test_unknown_rule_name_rejected():
    with pytest.raises(ParseError):
        parse_problem("ode { x' = 1 } proof { rule bogus { p = x } }")


def test_problem_print_reparses(tmp_path):
    src = """
param e;
ode { u' = -v - u; v' = u - v }
domain { u^2 + v^2 <= 2 }
assume { u^2 + v^2 = 1, e > 0 }
goal { u^2 + v^2 >= 2 }
proof { rule SP_c { p = u^2 + v^2; S = 1 <= u^2 + v^2 & u^2 + v^2 <= 2; eps = e } }
"""
    pf = parse_problem(src)
    pf2 = parse_problem(print_problem(pf))
    assert pf2 == pf


# -- printing ----------------------------------------------------------------


def test_print_negation():
    # `!` and `->` are read into negation normal form, which is what prints
    assert print_formula(parse_formula("!(p >= 0)")) == "p < 0"
    assert print_formula(parse_formula("!(p = 0 & q > 1 | !true)")) == "(p != 0 | q <= 1) & true"
    assert print_formula(parse_formula("p > 0 -> q > 0 -> false")) == "p <= 0 | (q <= 0 | false)"


def test_print_conjunction_of_squares():
    f = parse_formula("u^2 <= 1/4 & v^2 <= 1/4")
    assert print_formula(f) == "u^2 <= 1/4 & v^2 <= 1/4"


def test_print_zero():
    assert print_poly(Polynomial()) == "0"


def test_printing_deterministic():
    f = parse_formula("u^2 + v^2 >= 2 | (u > 0 & v > 0)")
    assert print_formula(f) == print_formula(parse_formula(print_formula(f)))


# -- round-trip property -----------------------------------------------------

names = st.sampled_from(["u", "v", "w"])
fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
monos = st.lists(st.tuples(names, st.integers(1, 3)), max_size=2).map(
    lambda ps: tuple(sorted(dict(ps).items()))
)
poly_st = st.dictionaries(monos, fracs, max_size=3).map(Polynomial)
cmp_st = st.builds(Cmp, st.sampled_from(["=", "!=", ">=", ">", "<=", "<"]), poly_st, poly_st)


def formula_st():
    """Formulas as the parser builds them: `!a` is `negate(a)` and `a -> b`
    is `negate(a) | b`."""
    base = st.one_of(cmp_st, st.sampled_from([BoolLit(True), BoolLit(False)]))
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(negate, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(lambda a, b: Or(negate(a), b), sub, sub),
        ),
        max_leaves=6,
    )


@given(poly_st)
@settings(max_examples=120, deadline=None)
def test_poly_roundtrip(p):
    assert parse_poly(print_poly(p)) == p


@given(formula_st())
@settings(max_examples=150, deadline=None)
def test_formula_roundtrip(f):
    assert parse_formula(print_formula(f)) == f


@given(formula_st())
@settings(max_examples=60, deadline=None)
def test_printing_byte_stable(f):
    assert print_formula(f) == print_formula(f)
