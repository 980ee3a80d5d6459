"""Exact evaluation in scaled integers against `Fraction` references.

Branch-and-bound evaluates every cell on integer numerators: each bound is
the exact rational bound times a positive constant, so every enclosure,
three-valued answer and point answer must equal what plain `Fraction`
interval arithmetic gives.  The references below are that arithmetic, kept
here as the package had it before the integer evaluator: `interval_of_poly`
with its `_iv_pow` cases, the three-valued evaluation of a formula (the
point evaluation is `conftest.ref_holds`), and the branch-and-bound loop
over `Interval` cells.  Boxes mix
non-dyadic bounds (1/3, 1/10), dyadic bounds with 53 significant bits, huge
and tiny magnitudes, zero-width intervals and intervals across zero, where
even powers switch case.
"""

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odeliveness.arith import (
    ArithObligation,
    Budget,
    _compile,
    _eval3,
    _midpoint,
    _scaled,
    eval_formula_exact,
    extract_box,
    prove_implication,
)
from odeliveness.errors import MissingBinding
from odeliveness.normal import partial_atoms
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import And, BoolLit, Cmp, Or, conj, parse_formula

from conftest import Imp, Interval, Neg, box_of, cell_of, interval_of_poly, parsed, ref_holds
from ref_poly import rational_terms

NAMES = ("x", "y", "z")

# -- references: exact Fraction interval arithmetic ----------------------------


def ref_iv_pow(a: Interval, e: int) -> Interval:
    if e == 0:
        return Interval(Fraction(1), Fraction(1))
    if e % 2 == 1:
        return Interval(a.lo**e, a.hi**e)
    if a.lo <= 0 <= a.hi:
        return Interval(Fraction(0), max(a.lo**e, a.hi**e))
    if a.hi < 0:
        return Interval(a.hi**e, a.lo**e)
    return Interval(a.lo**e, a.hi**e)


def ref_interval_of_poly(p: Polynomial, box: dict) -> Interval:
    lo = hi = Fraction(0)
    for m, c in rational_terms(p).items():
        tlo = thi = c
        for i, (v, e) in enumerate(m):
            b = ref_iv_pow(box[v], e) if e != 1 else box[v]
            if i == 0:
                tlo, thi = (c * b.lo, c * b.hi) if c > 0 else (c * b.hi, c * b.lo)
            else:
                prods = (tlo * b.lo, tlo * b.hi, thi * b.lo, thi * b.hi)
                tlo, thi = min(prods), max(prods)
        lo += tlo
        hi += thi
    return Interval(lo, hi)


def ref_decide(op: str, lo, hi) -> int:
    if op == ">=":
        return 1 if lo >= 0 else (-1 if hi < 0 else 0)
    if op == ">":
        return 1 if lo > 0 else (-1 if hi <= 0 else 0)
    if op == "<=":
        return 1 if hi <= 0 else (-1 if lo > 0 else 0)
    if op == "<":
        return 1 if hi < 0 else (-1 if lo >= 0 else 0)
    if op == "=":
        return 1 if lo == hi == 0 else (-1 if (lo > 0 or hi < 0) else 0)
    return 1 if (lo > 0 or hi < 0) else (-1 if lo == hi == 0 else 0)


def ref_eval3(f, box: dict) -> int:
    if isinstance(f, Cmp):
        iv = ref_interval_of_poly(f.lhs - f.rhs, box)
        return ref_decide(f.op, iv.lo, iv.hi)
    if isinstance(f, Neg):
        return -ref_eval3(f.arg, box)
    if isinstance(f, And):
        a = ref_eval3(f.left, box)
        return -1 if a == -1 else (-1 if (b := ref_eval3(f.right, box)) == -1 else min(a, b))
    if isinstance(f, Or):
        a = ref_eval3(f.left, box)
        return 1 if a == 1 else (1 if (b := ref_eval3(f.right, box)) == 1 else max(a, b))
    if isinstance(f, Imp):
        return ref_eval3(Or(Neg(f.left), f.right), box)
    return 1 if f.value else -1


def ref_branch_and_bound(names, box, hyp, concl, max_cells):
    """(status, cells, max_depth, counterexample) of the loop over Interval cells."""
    queue = deque([(tuple(box[v] for v in names), 0)])
    cells = max_depth = 0
    while queue:
        cell, depth = queue.popleft()
        max_depth = max(max_depth, depth)
        cells += 1
        if cells > max_cells:
            return "unknown", cells, max_depth, None
        cbox = dict(zip(names, cell))
        if ref_eval3(hyp, cbox) == -1 or ref_eval3(concl, cbox) == 1:
            continue
        mid = {v: iv.midpoint() for v, iv in cbox.items()}
        if ref_holds(hyp, mid) and not ref_holds(concl, mid):
            return "falsified", cells, max_depth, mid
        widths = [iv.hi - iv.lo for iv in cell]
        if max(widths) == 0:
            continue
        k = widths.index(max(widths))
        iv, m = cell[k], cell[k].midpoint()
        queue.append((cell[:k] + (Interval(iv.lo, m),) + cell[k + 1 :], depth + 1))
        queue.append((cell[:k] + (Interval(m, iv.hi),) + cell[k + 1 :], depth + 1))
    return "valid", cells, max_depth, None


# -- strategies ------------------------------------------------------------------

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
def intervals(draw, values=rationals):
    a = draw(values)
    b = a if draw(st.integers(0, 5)) == 0 else draw(values)  # zero-width now and then
    return Interval(min(a, b), max(a, b))


@st.composite
def boxes(draw, values=rationals):
    return {v: draw(intervals(values)) for v in NAMES}


@st.composite
def polys(draw, values=rationals, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple((v, e) for v in NAMES if (e := draw(st.integers(0, max_exp))))
        terms[mono] = draw(values)
    return Polynomial(terms)


@st.composite
def formulas(draw, depth=2, values=rationals, max_exp=4):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        if draw(st.integers(0, 9)) == 0:
            return BoolLit(draw(st.booleans()))
        op = draw(st.sampled_from(["=", "!=", ">=", ">", "<=", "<"]))
        return Cmp(op, draw(polys(values, max_exp)), draw(polys(values, max_exp)))
    kind = draw(st.sampled_from([Neg, And, Or, Imp]))
    if kind is Neg:
        return Neg(draw(formulas(depth - 1, values, max_exp)))
    return kind(draw(formulas(depth - 1, values, max_exp)), draw(formulas(depth - 1, values, max_exp)))


def eval_formula3(f, box: dict) -> int:
    """Three-valued truth over a box by the package's compile of the parsed
    formula and scaled evaluation: +1 certainly true, -1 certainly false, 0
    unknown."""
    return _eval3(_compile(parsed(f)), cell_of(box))


def cube(lo, hi) -> dict:
    return {v: Interval(Fraction(lo), Fraction(hi)) for v in NAMES}


def corners_and_centre(box: dict) -> list:
    points = [{v: (iv.hi if (mask >> i) & 1 else iv.lo) for i, (v, iv) in enumerate(box.items())} for mask in range(8)]
    return points + [{v: iv.midpoint() for v, iv in box.items()}]


# -- the evaluator ---------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(intervals())
@example(Interval(Fraction(1, 3), Fraction(1, 10) + 1))
@example(Interval(Fraction(-1, 10), Fraction(-1, 10)))
@example(Interval(Fraction(-(2**53 + 1), 2**60), Fraction(2**60)))
@example(Interval(Fraction(1, 2**1074), Fraction(3, 2**1075)))
def test_scaled_bounds_equal_the_rational(iv):
    ((lo, hi, d),) = _scaled([("x", iv.lo, iv.hi)]).values()
    assert d > 0 and Fraction(lo, d) == iv.lo and Fraction(hi, d) == iv.hi
    ((mlo, mhi, md),) = _midpoint({"x": (lo, hi, d)}).values()
    assert mlo == mhi and md == 2 * d and Fraction(mlo, md) == iv.midpoint()


@settings(max_examples=400, deadline=None)
@given(polys(), boxes())
@example(Polynomial({(("x", 1),): Fraction(1), (): Fraction(2**60)}), cube(2**52 + 255, 2**52 + 259))
@example(Polynomial({(("x", 3),): Fraction(1, 3)}), cube(Fraction(-1, 10), Fraction(1, 3)))
@example(Polynomial({(("x", 1), ("y", 1)): Fraction(-3)}), cube(Fraction(1, 10), Fraction(7, 10)))
@example(Polynomial({(("x", 2),): Fraction(-1), (("y", 4),): Fraction(1, 7)}), cube(Fraction(-1, 3), Fraction(-3, 10)))
@example(Polynomial({(("x", 2), ("y", 1)): Fraction(1), (): Fraction(1, 3)}), cube(Fraction(-1, 3), Fraction(1, 10)))
def test_enclosure_equals_reference_interval(p, box):
    assert interval_of_poly(p, box) == ref_interval_of_poly(p, box)


@settings(max_examples=300, deadline=None)
@given(formulas(), boxes())
@example(Cmp("=", Polynomial.var("x"), Polynomial.var("x")), cube(Fraction(1, 3), Fraction(1, 3)))
@example(Cmp("!=", Polynomial({(("x", 2),): Fraction(1)}), Polynomial.const(-1)), cube(Fraction(-1, 3), Fraction(1, 10)))
@example(Cmp("=", Polynomial({(("x", 2),): Fraction(1)}), Polynomial.const(0)), cube(0, 0))
def test_three_valued_answer_equals_reference(f, box):
    assert eval_formula3(f, box) == ref_eval3(f, box)
    for point in corners_and_centre(box):
        assert eval_formula_exact(parsed(f), point) == ref_holds(f, point)
    # the point cell branch-and-bound builds at a cell's midpoint
    node = _compile(parsed(f))
    cell = cell_of(box)
    mid = {v: iv.midpoint() for v, iv in box.items()}
    assert _eval3(node, _midpoint(cell)) == (1 if ref_holds(f, mid) else -1)


def test_box_bound_atoms_decided_at_cell_edges():
    box = {
        "x": Interval(Fraction(-3), Fraction(1, 2)),
        "y": Interval(Fraction(0), Fraction(1)),
        "z": Interval(Fraction(0), Fraction(0)),
    }
    for text in ("-3 <= x", "x <= 1/2", "0 <= y", "y <= 1", "x^2 >= 0", "z = 0", "x * y <= 1/2", "x^3 >= -27"):
        assert eval_formula3(parse_formula(text), box) == 1, text
    for text in ("x < -3", "y > 1", "z != 0", "x^2 > 9"):
        assert eval_formula3(parse_formula(text), box) == -1, text


@pytest.mark.parametrize("q", [Fraction(10) ** 400, -Fraction(10) ** 400])
def test_huge_magnitudes_stay_exact(q):
    box = {v: Interval(Fraction(0), q) if q > 0 else Interval(q, Fraction(0)) for v in NAMES}
    p = Polynomial({(("x", 2),): Fraction(1, 3), (("x", 1), ("y", 1)): Fraction(-1)})
    assert interval_of_poly(p, box) == ref_interval_of_poly(p, box)
    bound = Cmp("<=", Polynomial({(("x", 2),): Fraction(1)}), Polynomial.const(q * q))
    assert eval_formula3(bound, box) == 1
    assert eval_formula_exact(bound, {"x": q}) and not eval_formula_exact(bound, {"x": q * (1 + Fraction(1, 10**400))})


def test_unbound_variable_raises_only_when_reached():
    f = parse_formula("x > 0 | y > 0")
    assert eval_formula_exact(f, {"x": Fraction(1)})
    with pytest.raises(MissingBinding, match="no value for 'y'"):
        eval_formula_exact(f, {"x": Fraction(-1)})


# -- branch-and-bound --------------------------------------------------------------

bnb_values = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 10]))


@settings(max_examples=150, deadline=None)
@given(formulas(1, bnb_values, 2), formulas(1, bnb_values, 2), boxes(bnb_values))
@example(
    parse_formula("x >= y"),
    parse_formula("x^2 - 3*x*y + y^2 >= 0"),
    {
        "x": Interval(Fraction(-1, 3), Fraction(2)),
        "y": Interval(Fraction(-1, 10), Fraction(1)),
        "z": Interval(Fraction(0), Fraction(0)),
    },
)
def test_branch_and_bound_visits_the_reference_cells(hyp, concl, box):
    """Cells are split in integers; the counts, depths and counterexamples
    are those of the `Interval` loop, over bounds with unequal denominators.
    The box enters the hypothesis as bound atoms."""
    bounds = [
        Cmp(op, Polynomial.var(v), Polynomial.const(c))
        for v, iv in box.items()
        for op, c in ((">=", iv.lo), ("<=", iv.hi))
    ]
    ob = ArithObligation(NAMES, conj(bounds + [parsed(hyp)]), parsed(concl))
    v = prove_implication(ob, budget=Budget(max_cells=60, max_seconds=3600.0))
    if v.trace["method"] not in ("branch-and-bound", "budget-exhausted"):
        return  # decided before branch-and-bound, or split into cases
    work_box = box_of(extract_box(partial_atoms(ob.hypothesis)[0], NAMES)[0])
    status, cells, depth, counterexample = ref_branch_and_bound(NAMES, work_box, conj(bounds + [hyp]), concl, 60)
    assert (v.status, v.trace["cells"], v.trace["max_depth"]) == (status, cells, depth)
    assert v.counterexample == counterexample
    if counterexample is not None:
        assert list(v.counterexample) == list(NAMES)
