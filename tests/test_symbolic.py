from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness.errors import (
    DegreeCapExceeded,
    MissingBinding,
    PowNegativeExponent,
    UnknownVariable,
)
from odeliveness.symbolic import (
    DEGREE_CAP,
    OdeSystem,
    Polynomial,
    higher_lie,
    lie_derivative,
    poly_divmod,
    primitive,
    reduce_mod_equalities,
)
from odeliveness.syntax import parse_poly, print_poly

from conftest import eval_rational


def frac(a, b=1):
    return Fraction(a, b)


u, v = Polynomial.var("u"), Polynomial.var("v")


# -- ring operations ---------------------------------------------------------


def test_product_difference_of_squares():
    assert (u + v) * (u - v) == u * u - v * v


def test_partial_derivative():
    p = u * u * v
    assert p.partial("u") == 2 * u * v
    assert p.partial("v") == u * u
    assert p.partial("w").is_zero()


def test_p_minus_p_is_empty_map():
    p = parse_poly("u^2 + 3*v - 1/2")
    assert (p - p).terms == {}


def test_pow_negative_exponent_rejected():
    with pytest.raises(PowNegativeExponent):
        u**-1


def test_degree_cap_guards_runaway_products():
    assert (u**32 * u**32).degree() == DEGREE_CAP == 64
    with pytest.raises(DegreeCapExceeded):
        (u**32) * (u**32) * u
    with pytest.raises(DegreeCapExceeded):
        u**65
    with pytest.raises(DegreeCapExceeded):
        poly_divmod(Polynomial({(("u", 65),): frac(1)}), u - 1)


def test_eval_rational():
    p = u * u + v * v
    assert eval_rational(p, {"u": frac(1), "v": frac(0)}) == 1
    assert eval_rational(Polynomial(), {}) == 0
    with pytest.raises(MissingBinding):
        eval_rational(p, {"u": frac(1)})


# -- Lie derivatives ---------------------------------------------------------


def test_lie_derivative_alpha_n(alpha_n):
    # 2(u^2+v^2)(u^2+v^2-1/4), expanded
    p = parse_poly("u^2 + v^2")
    expect = parse_poly("2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2")
    assert lie_derivative(p, alpha_n.system) == expect
    # bounded below by 3/2 on the unit circle
    assert eval_rational(expect, {"u": frac(1), "v": frac(0)}) == frac(3, 2)


def test_lie_derivative_alpha_l(alpha_l):
    p = parse_poly("1/4 - (u^2 + v^2)")
    assert lie_derivative(p, alpha_l.system) == parse_poly("2*u^2 + 2*v^2")


def test_parameters_are_constant():
    sys = OdeSystem(("x",), (Polynomial.var("c"),), params=frozenset({"c"}))
    assert lie_derivative(Polynomial.var("c"), sys).is_zero()


def test_lie_derivative_unknown_variable(alpha_l):
    with pytest.raises(UnknownVariable):
        lie_derivative(Polynomial.var("w"), alpha_l.system)


def test_higher_lie_base_and_clock(alpha_l):
    p = parse_poly("u^2 - v")
    assert higher_lie(p, alpha_l.system, 0) == p
    clocked = alpha_l.system.with_clock("_t")
    t = Polynomial.var("_t")
    assert higher_lie(t, clocked, 1) == Polynomial.const(1)
    assert higher_lie(t, clocked, 2).is_zero()


def test_higher_lie_second_order(alpha_l):
    # L(u) = -v - u; L(-v - u) = -(u - v) - (-v - u) = 2v
    assert higher_lie(Polynomial.var("u"), alpha_l.system, 2) == 2 * v


small_fracs = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


def polys(names=("u", "v")):
    mono = st.lists(
        st.tuples(st.sampled_from(names), st.integers(min_value=1, max_value=2)),
        max_size=2,
    ).map(lambda ps: tuple(sorted(dict(ps).items())))
    return st.dictionaries(mono, small_fracs, max_size=4).map(Polynomial)


@given(polys(), polys(), small_fracs, small_fracs)
@settings(max_examples=60, deadline=None)
def test_lie_is_linear(alpha_l, p, q, a, b):
    sys = alpha_l.system
    lhs = lie_derivative(p * a + q * b, sys)
    rhs = lie_derivative(p, sys) * a + lie_derivative(q, sys) * b
    assert lhs == rhs


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_lie_satisfies_leibniz(alpha_l, p, q):
    sys = alpha_l.system
    assert lie_derivative(p * q, sys) == p * lie_derivative(q, sys) + q * lie_derivative(p, sys)


@given(polys(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_higher_lie_composes(alpha_l, p, j, k):
    sys = alpha_l.system
    assert higher_lie(p, sys, j + k) == higher_lie(higher_lie(p, sys, j), sys, k)


# -- division and reduction helpers -----------------------------------------


def test_poly_divmod_exact():
    w = u * u + v * v
    concl = 2 * w * w + w * frac(-1, 2) + Polynomial.const(frac(-3, 2))
    q, r = poly_divmod(concl, w - 1)
    assert r.constant_value() == 0
    assert q == 2 * w + Polynomial.const(frac(3, 2))


def test_reduce_mod_equalities_pins_initial_value():
    p = parse_poly("1/4 - (u^2 + v^2)")
    r = reduce_mod_equalities(p, [parse_poly("u^2 + v^2 - 1")])
    assert r.constant_value() == frac(-3, 4)


def test_primitive_positive_proportionality():
    a = parse_poly("2/3*u^2 - 4/3")
    b = parse_poly("u^2 - 2")
    assert primitive(a) == primitive(b)
    assert primitive(a) != primitive(-b)


# -- system validation -------------------------------------------------------


def test_system_shape_checks():
    with pytest.raises(ValueError):
        OdeSystem(("x",), ())
    with pytest.raises(UnknownVariable):
        OdeSystem(("x",), (Polynomial.var("y"),))


def test_affine_classification(alpha_l, alpha_n):
    assert alpha_l.system.is_affine()
    assert not alpha_n.system.is_affine()


def test_print_poly_is_canonical():
    p = parse_poly("v + u^2 - 1/2 + 2*u*v")
    s = print_poly(p)
    assert s == "u^2 + 2*u*v + v - 1/2"
    assert print_poly(parse_poly(s)) == s
    assert print_poly(Polynomial()) == "0"
