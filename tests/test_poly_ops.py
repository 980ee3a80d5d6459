"""Integer polynomials against the `Fraction` reference.

`symbolic.Polynomial` keeps integer numerators over one reduced denominator
and runs every operation in integers.  `ref_poly.RefPoly` is the `Fraction`
implementation it replaced.  Every result must be in reduced form (nonzero
integer numerators, a positive denominator coprime to all of them) and equal
the reference term for term, in the same dict order: the falsifier's atom
vector sums terms in that order, so its floats depend on it.  Equality and
hashing, the printer, the float source and `to_float` must agree with the
reference too; the float source as the floats it computes, bit for bit.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ref_poly import (
    RefPoly,
    rational_terms,
    ref_divmod,
    ref_of,
    ref_poly_src,
    ref_primitive,
    ref_print_poly,
    ref_reduce,
)

from odeliveness.codegen import build, poly_src, to_float
from odeliveness.errors import InvalidArgument
from odeliveness.symbolic import Polynomial, _coerce, poly_divmod, primitive, reduce_mod_equalities
from odeliveness.syntax import print_poly

# -- strategies --------------------------------------------------------------

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**25))
coeffs = st.one_of(small, small, large, st.just(Fraction(0)))
monomials = st.builds(
    lambda ex, ey, ez: tuple((v, e) for v, e in (("x", ex), ("y", ey), ("z", ez)) if e),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2),
)
term_maps = st.dictionaries(monomials, coeffs, max_size=5)


def same(got: Polynomial, want: RefPoly) -> None:
    """got is reduced and equals want term for term, in the same order."""
    assert type(got.den) is int and got.den > 0
    assert all(type(c) is int and c != 0 for c in got.terms.values())
    assert math.gcd(got.den, *got.terms.values()) == 1
    assert list(rational_terms(got).items()) == list(want.terms.items())


def ref(v):
    return f"_{v}"


# points of (x, y, z) where the float sources are compared
POINTS = ((0.5, -1.25, 3.0), (-2.0, 0.0, -0.0), (1e-3, 7.0, -0.75))


def evaluated(src: str, point: tuple):
    """The float source over _x, _y, _z at `point`: its bits, "nan" for a
    NaN (whose sign is not kept), or OverflowError when a power overflows."""
    f = build(f"def _f(_x, _y, _z):\n    return {src}\n", "_f")
    try:
        v = f(*point)
    except OverflowError:
        return OverflowError
    return "nan" if math.isnan(v) else struct.pack("<d", v)


# -- properties --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(term_maps, term_maps, coeffs, st.sampled_from(["x", "y", "z"]))
@example({(): Fraction(0), (("x", 1),): Fraction(-3, 2)}, {(("x", 1),): Fraction(3, 2)}, Fraction(-1, 3), "x")
def test_operations_equal_the_fraction_reference(da, db, c, name):
    a, b = Polynomial(da), Polynomial(db)
    ra, rb = RefPoly(da), RefPoly(db)
    same(a, ra)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a - a, RefPoly())
    same(a * b, ra * rb)
    same(-a, -ra)
    same(a**2, ra**2)
    same(a * c, ra.scale(c))
    same(a.partial(name), ra.partial(name))
    same(3 - a, 3 - ra)
    same(Polynomial.const(c), RefPoly({(): c}))
    same(primitive(a), ref_primitive(ra))
    if not b.is_zero():
        q, r = poly_divmod(a, b)
        rq, rr = ref_divmod(ra, rb)
        same(q, rq)
        same(r, rr)
        same(reduce_mod_equalities(a * a, [b, a]), ref_reduce(ra * ra, [rb, ra]))
    # equality and hashing: one form per rational polynomial
    assert (a == b) == (ra == rb)
    for twin in (Polynomial(dict(reversed(list(da.items())))), (a - b) + b, a * c * (1 / c) if c else a):
        assert twin == a and hash(twin) == hash(a)
    assert (a == 0) == ra.is_zero() and _coerce(c) == Polynomial.const(c)
    assert a.constant_value() == ra.constant_value()
    # printing and floats read (numerator, den)
    assert print_poly(a) == ref_print_poly(ra)
    src, want = poly_src(a, ref), ref_poly_src(ra.sorted_terms(), ref)
    assert all(evaluated(src, pt) == evaluated(want, pt) for pt in POINTS)
    for n in a.terms.values():
        assert to_float(n, a.den) == float(Fraction(n, a.den))


# signed zeros, infinities, NaN, subnormals, and bases whose square or cube
# overflows
special = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 1e155, -1e155, 1e103, -1e200]
) | st.floats()
units = st.sampled_from([Fraction(1), Fraction(-1)])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(monomials, st.one_of(units, units, coeffs), max_size=5), st.tuples(special, special, special))
def test_unit_coefficients_left_out_keep_every_float(terms, point):
    # a term with factors and coefficient 1.0 is its factors, one with -1.0
    # their unary minus: the same bits as the coefficient-first source, or
    # the same OverflowError
    p = Polynomial(terms)
    assert evaluated(poly_src(p, ref), point) == evaluated(ref_poly_src(ref_of(p).sorted_terms(), ref), point)


def test_unit_coefficients_are_written_as_the_factors_alone():
    p = Polynomial({(("x", 1),): 1, (("y", 2),): -1, (): 1, (("x", 1), ("z", 1)): Fraction(3, 2)})
    assert poly_src(p, ref) == "1.5*_x*_z + -_y**2 + _x + 1.0"


@settings(max_examples=300, deadline=None)
@given(term_maps, st.one_of(term_maps.map(Polynomial), st.integers(-3, 3), coeffs))
@example({(): Fraction(1, 2), (("x", 1),): Fraction(1, 3)}, Polynomial({(("x", 1),): Fraction(1, 3)}))
@example({(): Fraction(5, 6), (("y", 2),): Fraction(-1, 4)}, Polynomial({(("y", 2),): Fraction(-1, 4)}))
@example({(("x", 1),): Fraction(3, 4)}, Fraction(1, 6))
@example({(): Fraction(7, 2)}, Fraction(7, 2))
def test_sum_and_difference_equal_the_fraction_reference(da, other):
    # polynomial, int and Fraction operands, denominators that differ and
    # results that cancel to zero or to a smaller denominator
    a, ra = Polynomial(da), RefPoly(da)
    rother = ref_of(other) if isinstance(other, Polynomial) else other
    same(a + other, ra + rother)
    same(a - other, ra - rother)
    same(other - a, rother - ra)  # `Polynomial.__rsub__` for a number
    same(other + a, rother + ra if isinstance(other, Polynomial) else ra + rother)
    same(a - other + other, ra - rother + rother)
    same(a - a, RefPoly())
    same(a + -a, RefPoly())
    # adding zero, of either kind, returns the other operand itself
    assert a - 0 is a and a + Fraction(0) is a and a - Polynomial() is a
    assert Polynomial() + a is a or a.is_zero()


@settings(max_examples=300, deadline=None)
@given(term_maps, term_maps, st.sampled_from(["x", "y", "z"]), st.sets(st.sampled_from(["a", "w", "x0", "zz"])))
def test_leading_term_is_the_grlex_maximum_over_every_larger_universe(da, db, name, extra):
    # the cached leading term is taken over the polynomial's own variables;
    # names outside them, sorted before, between or after them, change
    # nothing.  The operands cache their terms before the operations run, so
    # a result that kept an operand's term would fail here
    a, b = Polynomial(da), Polynomial(db)
    for p in (a, b):
        if not p.is_zero():
            p.leading()
    results = [a, b, a + b, a - b, a * b, -a, a.partial(name)]
    if not b.is_zero():
        results += poly_divmod(a, b)
    for p in results:
        if p.is_zero():
            continue
        m, n = p.leading()
        own = p.variables()
        for universe in (own, own | extra, own | {"x", "y", "z"} | extra):
            assert (m, Fraction(n, p.den)) == ref_of(p).leading(tuple(sorted(universe)))
        assert p.leading() == (m, n)


def test_sum_and_difference_refuse_other_operands():
    x = Polynomial.var("x")
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            x - bad


@pytest.mark.parametrize(
    "num, den", [(10**400, 3), (-(10**400), 7), (10**400, 10**50)], ids=["large", "negative", "unreduced"]
)
def test_to_float_past_the_float_range_is_an_input_error(num, den):
    with pytest.raises(OverflowError):
        float(Fraction(num, den))
    with pytest.raises(InvalidArgument, match="outside the float range"):
        to_float(num, den)


def test_tiny_and_unreduced_ratios_round_as_the_fraction():
    for num, den in [(1, 10**400), (2, 4), (-6, 4), (10**30 + 1, 3 * 10**29), (1, 3)]:
        assert to_float(num, den) == float(Fraction(num, den))


def test_division_keeps_the_denominator_of_the_divisor_out_of_the_remainder():
    x = Polynomial.var("x")
    p = x * x * Fraction(3, 4) + x * Fraction(1, 6) - Fraction(5, 9)
    d = x * Fraction(-2, 5) + Fraction(7, 3)
    q, r = poly_divmod(p, d)
    same(q, ref_divmod(ref_of(p), ref_of(d))[0])
    assert q * d + r == p and r.is_constant()
