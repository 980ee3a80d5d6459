from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness.arith import eval_formula_exact
from odeliveness.normal import (
    atoms_of,
    contradictory,
    norm_atom,
    partial_atoms,
)
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import And, BoolLit, Cmp, Or, negate, parse_formula

from conftest import Imp, Neg, parsed, ref_holds

names = st.sampled_from(["x", "y"])
fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
monos = st.lists(st.tuples(names, st.integers(1, 2)), max_size=2).map(
    lambda ps: tuple(sorted(dict(ps).items()))
)
poly_st = st.dictionaries(monos, fracs, max_size=3).map(Polynomial)
cmp_st = st.builds(Cmp, st.sampled_from(["=", "!=", ">=", ">", "<=", "<"]), poly_st, poly_st)
# formulas as written, with `!` and `->` (the test-local `Neg` and `Imp`)
written_st = st.recursive(
    st.one_of(cmp_st, st.sampled_from([BoolLit(True), BoolLit(False)])),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=6,
)
formula_st = written_st.map(parsed)  # the package's formulas
point_st = st.fixed_dictionaries({"x": fracs, "y": fracs})


@given(written_st, point_st)
@settings(max_examples=200, deadline=None)
def test_parsing_not_and_implies_preserves_truth(f, pt):
    # the text of f, parsed into negation normal form, against the
    # reference, which walks f as written
    assert eval_formula_exact(parsed(f), pt) == ref_holds(f, pt)


@given(written_st, point_st)
@settings(max_examples=150, deadline=None)
def test_negate_flips_truth(f, pt):
    assert eval_formula_exact(negate(parsed(f)), pt) == (not ref_holds(f, pt))


@given(formula_st)
@settings(max_examples=100, deadline=None)
def test_negate_is_its_own_inverse(f):
    assert negate(negate(f)) == f


@given(cmp_st, point_st)
@settings(max_examples=200, deadline=None)
def test_norm_atom_preserves_truth(c, pt):
    assert eval_formula_exact(norm_atom(c).to_formula(), pt) == ref_holds(c, pt)


@given(formula_st, point_st)
@settings(max_examples=150, deadline=None)
def test_contradictory_is_sound(f, pt):
    atoms, _ = partial_atoms(f)
    if contradictory(atoms) and eval_formula_exact(f, pt):
        # a contradiction verdict must mean the conjunction is unsatisfiable
        raise AssertionError(f"contradictory() wrong on satisfied {f!r}")


def test_atoms_of_rejects_disjunctions():
    assert atoms_of(parse_formula("x >= 0 | y >= 0")) is None
    atoms, complete = partial_atoms(parse_formula("x >= 0 & (y >= 0 | x >= 1)"))
    assert not complete and len(atoms) == 1
