"""One `arith.Region` per hypothesis: proving through a shared `regions`
dict changes no verdict, and a `check` command normalises each distinct
hypothesis exactly once.

`prove_implication(ob, budget, regions)` looks up, or builds and stores, the
obligation's `Region` under (universals, hypothesis).  Reading a normal form
built for an earlier conclusion must give the same status, method, cell
count, depth and counterexample as building it afresh, in any order of the
obligations; the corpora below share most of their hypotheses.
"""

import sys
from collections import Counter
from random import Random

import pytest

from odeliveness import arith, cli
from odeliveness.arith import VALID, ArithObligation, Budget, Region, prove_implication
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import And, Cmp, Or, parse_formula, parse_poly

from conftest import ROOT, problem_path

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import corpora  # the benchmark's seeded criterion-6 and hard corpora
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def outcome(v: arith.ArithVerdict) -> tuple:
    return v.status, v.trace, v.counterexample


# -- equivalence with a fresh normal form ------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_shared_regions_give_the_verdicts_of_fresh_ones(seed):
    obs = [case.ob for case in corpora.criterion6_corpus(seed) + corpora.hard_corpus(seed)]
    Random(seed).shuffle(obs)
    regions: dict = {}
    for ob in obs:
        shared = prove_implication(ob, budget=corpora.BUDGET, regions=regions)
        assert outcome(shared) == outcome(prove_implication(ob, budget=corpora.BUDGET)), ob.describe()
    # the corpus repeats hypotheses, so most obligations read a stored Region
    assert len(regions) < len(obs) / 2


SPLIT = ArithObligation(
    ("x", "y"),
    parse_formula("(3 <= x & x <= 2) | (-1 <= x & x <= 1 & -1 <= y & y <= 1) | x^2 + y^2 <= 1"),
    parse_formula("x + 2 > 0"),
)


def test_case_split_disjuncts_decided_by_different_methods():
    region = Region(SPLIT.universals, SPLIT.hypothesis)
    subs = [ArithObligation(SPLIT.universals, case, SPLIT.conclusion) for case in region.cases]
    fresh = [prove_implication(sub) for sub in subs]
    assert [v.trace["method"] for v in fresh] == ["empty-box", "positive-combination", "branch-and-bound"]
    whole = prove_implication(SPLIT)
    assert (whole.status, whole.trace) == (VALID, {"method": "case-split", "cells": 1})
    keys = {(SPLIT.universals, SPLIT.hypothesis)} | {(s.universals, s.hypothesis) for s in subs}
    # the split stores one sub-Region per disjunct in the caller's dict, and
    # a disjunct proved on its own afterwards reads it
    regions: dict = {}
    assert outcome(prove_implication(SPLIT, regions=regions)) == outcome(whole)
    assert set(regions) == keys
    assert [outcome(prove_implication(sub, regions=regions)) for sub in subs] == [outcome(v) for v in fresh]
    # the other way round: the split reads the Regions its disjuncts left
    regions = {}
    assert [outcome(prove_implication(sub, regions=regions)) for sub in subs] == [outcome(v) for v in fresh]
    assert outcome(prove_implication(SPLIT, regions=regions)) == outcome(whole)
    assert set(regions) == keys


def test_a_region_reduces_each_conclusion_polynomial_once(monkeypatch):
    # two obligations over u^2 + v^2 = 1 share the conclusion atom
    # u^2 + v^2 <= 2: the pre-checks reduce 2 - u^2 - v^2 modulo the
    # equality for the first, and the second reads that reduction
    reduced = []
    reduce = arith.reduce_mod_equalities
    monkeypatch.setattr(arith, "reduce_mod_equalities", lambda p, eqs: reduced.append(p) or reduce(p, eqs))
    hyp = parse_formula("u^2 + v^2 = 1")
    regions: dict = {}
    for concl in ("u^2 + v^2 <= 2", "u^2 + v^2 <= 2 & u^2 + v^2 >= 1/2"):
        v = prove_implication(ArithObligation.closure(hyp, parse_formula(concl)), regions=regions)
        assert (v.status, v.trace["method"]) == (VALID, "positive-combination")
    assert reduced == [parse_poly("2 - u^2 - v^2"), parse_poly("u^2 + v^2 - 1/2")]
    assert len(regions) == 1


def test_region_holds_the_hypothesis_truth_at_the_root_midpoint():
    inside = Region(("x", "y"), parse_formula("0 <= x & x <= 2 & 0 <= y & y <= 2 & x*y <= 1"))
    assert inside.mid == {"x": (2, 2, 2), "y": (2, 2, 2)} and inside.mid_truth == 1
    outside = Region(("x", "y"), parse_formula("0 <= x & x <= 2 & 0 <= y & y <= 2 & x*y > 1"))
    assert outside.mid_truth == -1
    assert Region(("x",), parse_formula("x >= 0")).mid is None  # unbounded: no root cell
    assert Region((), parse_formula("1 > 2")).holds is False


# -- the conclusion is compiled only when it is read -------------------------------


def on_x(hyp: str, concl: str) -> ArithObligation:
    return ArithObligation(("x",), parse_formula(hyp), parse_formula(concl))


def test_conclusion_compiled_only_where_read(monkeypatch):
    compiled = []
    conclusion_node = arith._conclusion_node
    monkeypatch.setattr(arith, "_conclusion_node", lambda *a: compiled.append(a) or conclusion_node(*a))
    # hypothesis false at the root midpoint x = 1; the pre-checks prove it
    v = prove_implication(on_x("0 <= x & x <= 2 & x != 1", "x >= 0"))
    assert (v.status, v.trace["method"], compiled) == (VALID, "positive-combination", [])
    # hypothesis true there: the probe reads the conclusion
    v = prove_implication(on_x("0 <= x & x <= 2", "x >= 0"))
    assert (v.status, v.trace["method"], len(compiled)) == (VALID, "positive-combination", 1)
    # branch-and-bound reads it when the probe did not
    v = prove_implication(on_x("0 <= x & x <= 2 & x != 1", "x^2 >= x - 1"))
    assert (v.status, v.trace["method"], len(compiled)) == (VALID, "branch-and-bound", 2)


@pytest.mark.parametrize(
    "hyp, concl, method",
    [
        ("0 <= x & x <= 2", "x >= 2", "branch-and-bound"),  # refuted at the root midpoint
        ("0 <= x & x <= 2", "x >= 0", "positive-combination"),  # after the probe
        ("0 <= x & x <= 2", "x^2 >= x - 1 & 3 > x", "branch-and-bound"),  # probe, pre-checks, cells
        ("0 <= x & x <= 2 & x != 1", "x^2 >= x - 1", "branch-and-bound"),  # no probe
        ("0 <= x & x <= 2", "(x >= 0 | x = 7) & x <= 5/2", "branch-and-bound"),  # not all atoms
        ("0 <= x & x <= 2", "x*(x - 1) = x^2 - x", "positive-combination"),  # a canonical sign
    ],
)
def test_each_conclusion_comparison_is_differenced_once(monkeypatch, hyp, concl, method):
    ob = on_x(hyp, concl)
    sides = {(id(c.lhs), id(c.rhs)) for c in iter_cmps(ob.conclusion)}
    sides |= {(r, l) for l, r in sides}
    seen = Counter()
    sub = Polynomial.__sub__

    def counting(p, q):
        if (id(p), id(q)) in sides:
            seen[frozenset((id(p), id(q)))] += 1
        return sub(p, q)

    monkeypatch.setattr(Polynomial, "__sub__", counting)
    v = prove_implication(ob, budget=Budget(max_cells=50, max_seconds=3600.0))
    assert v.trace["method"] == method
    assert sorted(seen.values()) == [1] * len(list(iter_cmps(ob.conclusion)))


def iter_cmps(f):
    if isinstance(f, Cmp):
        yield f
    elif isinstance(f, (And, Or)):
        yield from iter_cmps(f.left)
        yield from iter_cmps(f.right)


def test_branch_and_bound_does_not_retry_the_root_midpoint(monkeypatch):
    # the root cell is undecided, so branch-and-bound splits it; its midpoint
    # was tried once, by the probe
    ob = on_x("0 <= x & x <= 2", "x^2 - 2*x + 1 >= 0")
    midpoints = Counter()
    midpoint = arith._midpoint

    def counting(cell):
        mid = midpoint(cell)
        midpoints[tuple(sorted(mid.items()))] += 1
        return mid

    monkeypatch.setattr(arith, "_midpoint", counting)
    v = prove_implication(ob, budget=Budget(max_cells=40, max_seconds=3600.0))
    assert v.trace["cells"] > 1
    assert midpoints[(("x", (2, 2, 2)),)] == 1


# -- one Region per distinct hypothesis of a command --------------------------------


# ce4 poses `t <= 3` over (t) and over (t, x): four formulas, five Regions,
# since the box is taken over the universals
@pytest.mark.parametrize("name, hypotheses, formulas", [("ce4.ode", 5, 4), ("example2.ode", 7, 7)])
def test_check_builds_one_region_per_distinct_hypothesis(monkeypatch, capsys, name, hypotheses, formulas):
    built = Counter()

    class Counting(Region):
        def __init__(self, universals, hypothesis):
            built[universals, hypothesis] += 1
            super().__init__(universals, hypothesis)

    monkeypatch.setattr(arith, "Region", Counting)
    cli.main(["check", str(problem_path(name))])
    capsys.readouterr()
    assert len(built) == hypotheses and set(built.values()) == {1}
    assert len({h for _, h in built}) == formulas
    # the dict lives as long as its checker: a second command builds its own
    cli.main(["check", str(problem_path(name))])
    capsys.readouterr()
    assert len(built) == hypotheses and set(built.values()) == {2}
