"""Refute before proving: the root-midpoint refutation, its guards, and the
hypothesis atoms that branch-and-bound drops because the box entails them.

`prove_implication` tries the centre of a bounded, split-free obligation's
box as an exact counterexample before the symbolic pre-checks run.  That
reorder changes no verdict only because the pre-checks are sound: the audit
below asserts that they prove no obligation whose root midpoint an
independent `Fraction` checker calls a counterexample.  If it ever fails, a
pre-check is unsound; fix the pre-check.
"""

import sys
from fractions import Fraction

import pytest

from odeliveness import arith
from odeliveness.arith import FALSIFIED, UNKNOWN, ArithObligation, Budget, prove_implication
from odeliveness.normal import atoms_of, atoms_of_conjuncts
from odeliveness.syntax import Or, conjuncts, parse_formula

from conftest import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import corpora  # the benchmark's seeded criterion-6 and hard corpora
    import exact  # its own Fraction checker, independent of arith
finally:
    sys.path.remove(str(ROOT / "perfbench"))

FIRST_CELL = {"method": "branch-and-bound", "cells": 1, "max_depth": 0}


def obligation(hyp: str, concl: str) -> ArithObligation:
    return ArithObligation.closure(parse_formula(hyp), parse_formula(concl))


# -- soundness audit of the reorder ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 11, 29])
def test_prechecks_prove_no_obligation_refuted_at_its_root_midpoint(seed):
    refuted = 0
    for case in corpora.criterion6_corpus(seed) + corpora.hard_corpus(seed):
        ob = case.ob
        parts = conjuncts(ob.hypothesis)
        if any(isinstance(g, Or) for g in parts):
            continue  # each disjunct's sub-call probes itself
        hyp = arith._Hypothesis(atoms_of_conjuncts(parts)[0])
        cell, _ = arith.extract_box(hyp.atoms, ob.universals)
        if cell is None:
            continue
        mid = {v: Fraction(cell[v][0] + cell[v][1], 2 * cell[v][2]) for v in sorted(ob.universals)}
        if not exact.is_counterexample(case, mid):
            continue
        refuted += 1
        assert arith._symbolic_valid(hyp, atoms_of(ob.conclusion), cell) is None, ob.describe()
        v = prove_implication(ob, budget=corpora.BUDGET)
        assert (v.status, v.counterexample, v.trace) == (FALSIFIED, mid, FIRST_CELL), ob.describe()
    assert refuted >= 150  # about half of each criterion-6 corpus


# -- the probe's guards -----------------------------------------------------------


def test_probe_refutes_at_the_first_cell():
    v = prove_implication(obligation("0 <= x & x <= 2 & -1 <= y & y <= 3", "x < 1 | y != 1"))
    assert (v.status, v.counterexample, v.trace) == (FALSIFIED, {"x": 1, "y": 1}, FIRST_CELL)


def test_budget_of_no_cells_is_exhausted_at_the_first_cell():
    ob = obligation("0 <= x & x <= 2", "x < 1")
    assert prove_implication(ob, Budget(max_cells=1)).trace == FIRST_CELL
    v = prove_implication(ob, Budget(max_cells=0))
    assert (v.status, v.trace) == (UNKNOWN, {"method": "budget-exhausted", "cells": 1, "max_depth": 0})


def test_top_level_disjunction_keeps_the_case_split():
    # The box's centre x = 1 refutes the obligation, but no disjunct's box
    # has that centre: the split, not the probe, decides.
    ob = obligation("0 <= x & x <= 2 & (x <= 1 | x >= 3)", "x != 1")
    v = prove_implication(ob, Budget(max_cells=50))
    assert (v.status, v.trace) == (UNKNOWN, {"method": "case-split", "cells": 51})
    # each disjunct's sub-call probes its own box
    v = prove_implication(obligation("(0 <= x & x <= 2) | (4 <= x & x <= 6)", "x < 1"))
    assert (v.status, v.counterexample, v.trace) == (FALSIFIED, {"x": 1}, {"method": "case-split", "cells": 1})


def test_unbounded_box_is_not_probed():
    v = prove_implication(obligation("x >= 0", "x < 0"))
    assert (v.status, v.trace["method"]) == (UNKNOWN, "unbounded-domain")


# -- the entailed-atom filter ------------------------------------------------------


def box(**bounds) -> dict:
    """The cell of integer bounds lo <= v <= hi."""
    return {v: (lo, hi, 1) for v, (lo, hi) in bounds.items()}


def entailed(text: str, cell: dict) -> bool:
    (a,) = atoms_of(parse_formula(text))
    return arith._entailed(a, arith._root(a.poly), cell)


def test_non_strict_bounds_the_box_meets_are_dropped():
    assert entailed("x >= -5", box(x=(0, 1)))
    assert entailed("x >= 0", box(x=(0, 1)))
    assert entailed("2*x <= 3", box(x=(0, 1)))
    assert not entailed("x >= 1/2", box(x=(0, 1)))
    assert not entailed("x <= 1/2", box(x=(0, 1)))


def test_strict_nonlinear_and_disequality_atoms_are_kept():
    assert not entailed("x > 0", box(x=(0, 1)))
    assert not entailed("x > -5", box(x=(0, 1)))
    assert not entailed("x^2 + y^2 <= 4", box(x=(0, 1), y=(0, 1)))
    assert not entailed("x != 3", box(x=(0, 1)))


def test_an_equality_is_dropped_only_for_its_point_box():
    assert entailed("x = 1", box(x=(1, 1)))
    assert not entailed("x = 1", box(x=(0, 2)))
    assert not entailed("x = 1", box(x=(2, 2)))
