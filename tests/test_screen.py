"""The float screen of branch-and-bound against exact `Fraction` intervals.

The screen may only ever be less informative than exact arithmetic: its
float enclosure of a polynomial must contain the exact `interval_of_poly`
result (compared as `Fraction`), and every conclusive three-valued answer it
gives must be the exact `eval_formula3` answer.  Boxes mix non-dyadic bounds
(1/3, 1/10), dyadic bounds with 53 significant bits, huge and tiny
magnitudes, and intervals across zero, where even powers switch case.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odeliveness import arith
from odeliveness.arith import Interval, _compile, _decide, _enclose, _eval3, _float_box, _float_enclosure, _float_terms
from odeliveness.arith import eval_formula3, interval_of_poly
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import And, BoolLit, Cmp, Implies, Not, Or, parse_formula

NAMES = ("x", "y", "z")

small = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 10, 64, 1000]))
dyadic53 = st.builds(
    lambda n, k, neg: Fraction(-n if neg else n, 2**k),
    st.integers(2**52, 2**53 - 1),
    st.integers(0, 60),
    st.booleans(),
)
scaled = st.builds(
    lambda n, k, up: Fraction(n) * 10**k if up else Fraction(n, 10**k),
    st.integers(-99, 99),
    st.integers(0, 320),
    st.booleans(),
)
wide_dyadic = st.builds(lambda n, k: Fraction(n) * 2**k, st.integers(-(2**10), 2**10), st.integers(0, 80))
rationals = st.one_of(small, dyadic53, scaled, wide_dyadic)


@st.composite
def boxes(draw):
    box = {}
    for v in NAMES:
        a, b = draw(rationals), draw(rationals)
        box[v] = Interval(min(a, b), max(a, b))
    return box


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple((v, e) for v in NAMES if (e := draw(st.integers(0, 4))))
        terms[mono] = draw(rationals)
    return Polynomial(terms)


@st.composite
def formulas(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 9)) == 0:
            return BoolLit(draw(st.booleans()))
        return Cmp(draw(st.sampled_from(["=", "!=", ">=", ">", "<=", "<"])), draw(polys()), draw(polys()))
    kind = draw(st.sampled_from([Not, And, Or, Implies]))
    if kind is Not:
        return Not(draw(formulas(depth - 1)))
    return kind(draw(formulas(depth - 1)), draw(formulas(depth - 1)))


def cube(lo, hi) -> dict:
    return {v: Interval(Fraction(lo), Fraction(hi)) for v in NAMES}


def screen3(node, fbox) -> int:
    """Three-valued answer from the float screen alone: 0 when inconclusive."""
    kind = node[0]
    if kind == arith._ATOM:
        _, op, _, fterms = node
        if fterms is None:
            return 0
        try:
            return _decide(op, *_float_enclosure(fterms, fbox))
        except OverflowError:
            return 0
    if kind == arith._NOT:
        return -screen3(node[1], fbox)
    if kind == arith._AND:
        a, b = screen3(node[1], fbox), screen3(node[2], fbox)
        return -1 if -1 in (a, b) else min(a, b)
    if kind == arith._OR:
        a, b = screen3(node[1], fbox), screen3(node[2], fbox)
        return 1 if 1 in (a, b) else max(a, b)
    return node[1]


@settings(max_examples=400, deadline=None)
@given(rationals)
@example(Fraction(1, 3))
@example(Fraction(-1, 10))
@example(Fraction(1, 10))
@example(Fraction(2**53 + 1, 2**60))
@example(Fraction(2**60))
@example(Fraction(1, 2**1074))
@example(Fraction(3, 2**1075))
def test_enclose_contains_the_rational(q):
    try:
        lo, hi = _enclose(q)
    except OverflowError:
        assert abs(q) > 2**1000
        return
    assert Fraction(lo) <= q <= Fraction(hi)


@settings(max_examples=400, deadline=None)
@given(polys(), boxes())
# sums whose rounding goes up at the lower end and down at the upper end
@example(Polynomial({(("x", 1),): Fraction(1), (): Fraction(2**60)}), cube(2**52 + 255, 2**52 + 259))
# a product rounding up at the lower end and down at the upper end, and a
# square rounding up at the lower end
@example(Polynomial({(("x", 1),): Fraction(3)}), cube(2**52 + 1, 2**52 + 3))
@example(Polynomial({(("x", 2),): Fraction(1)}), cube(3 * 2**51 + 1, 3 * 2**51 + 1))
@example(Polynomial({(("x", 2),): Fraction(1)}), cube(Fraction(-(2**53 - 1), 2**30), Fraction(2**53 - 1, 2**31)))
@example(Polynomial({(("x", 3),): Fraction(1, 3)}), cube(Fraction(-1, 10), Fraction(1, 3)))
@example(Polynomial({(("x", 1), ("y", 1)): Fraction(3)}), cube(Fraction(1, 10), Fraction(7, 10)))
def test_float_enclosure_contains_exact_interval(p, box):
    exact = interval_of_poly(p, box)
    fterms, fbox = _float_terms(p), _float_box(box)
    if fterms is None or fbox is None:
        return
    try:
        lo, hi = _float_enclosure(fterms, fbox)
    except OverflowError:
        return
    assert Fraction(lo) <= exact.lo and exact.hi <= Fraction(hi)


@settings(max_examples=300, deadline=None)
@given(formulas(), boxes())
@example(Cmp("=", Polynomial.var("x"), Polynomial.var("x")), cube(Fraction(1, 3), Fraction(1, 3)))
@example(Cmp("!=", Polynomial({(("x", 2),): Fraction(1)}), Polynomial.const(-1)), cube(Fraction(-1, 3), Fraction(1, 10)))
def test_conclusive_screen_answers_are_exact(f, box):
    node, fbox = _compile(f), _float_box(box)
    exact = eval_formula3(f, box)
    if fbox is not None:
        answer = screen3(node, fbox)
        assert answer in (0, exact)
    assert _eval3(node, box, fbox) == exact


def test_screen_decides_exact_box_bounds():
    """A bound atom touching the cell boundary stays conclusive: unit
    coefficients and exact sums are not widened."""
    box = {
        "x": Interval(Fraction(-3), Fraction(1, 2)),
        "y": Interval(Fraction(0), Fraction(1)),
        "z": Interval(Fraction(0), Fraction(0)),
    }
    fbox = _float_box(box)
    for text in ("-3 <= x", "x <= 1/2", "0 <= y", "y <= 1", "x^2 >= 0", "z = 0"):
        assert screen3(_compile(parse_formula(text)), fbox) == 1, text


@pytest.mark.parametrize("q", [Fraction(10) ** 400, -Fraction(10) ** 400])
def test_out_of_range_is_inconclusive(q):
    box = {v: Interval(Fraction(0), q) if q > 0 else Interval(q, Fraction(0)) for v in NAMES}
    assert _float_box(box) is None
    with pytest.raises(OverflowError):
        _enclose(q)
    assert _float_terms(Polynomial.const(q)) is None
