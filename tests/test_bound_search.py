"""The bound search bisects because the prover is monotone in the bound.

`topology.first_proved` tries the two strongest candidates in order, then
the weakest, then bisects.  That returns the witness of a scan in order only
when a weaker bound is Valid wherever a stronger one is, which the property
test below checks over the benchmark's corpora.  The equivalence test replays
every bound search that `check` and `catalog` make against the scan in order,
and the clock tests check that a wall-clock stop ends the search rather than
steering it.
"""

import contextlib
import io
import math
import sys
import types
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness import arith, cli, topology
from odeliveness.arith import FALSIFIED, ArithObligation, Budget, prove_implication
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import Cmp, parse_formula, parse_poly

from conftest import ROOT

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import corpora  # the benchmark's seeded criterion-6 and hard corpora
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def reference_first_proved(region, p, op, candidates, prove):
    """The bound search as a scan in order: the first candidate proved."""
    for c in candidates:
        ob = ArithObligation.closure(region, Cmp(op, p, Polynomial.const(c)))
        if prove(ob, budget=topology.BOUND_SEARCH_BUDGET).is_valid:
            return c
    return None


# -- monotonicity of the prover in the conclusion's constant ------------------------


CRITERION6 = [case.ob for seed in (0, 1, 11) for case in corpora.criterion6_corpus(seed)]
HARD = [case.ob for seed in (0, 1, 11) for case in corpora.hard_corpus(seed)]


def weakened(ob: ArithObligation, delta: Fraction) -> ArithObligation:
    """The obligation with its one-atom conclusion `lhs op rhs` loosened by delta."""
    c = ob.conclusion
    rhs = c.rhs - delta if c.op in (">=", ">") else c.rhs + delta
    return ArithObligation(ob.universals, ob.hypothesis, Cmp(c.op, c.lhs, rhs))


obligations = st.one_of(st.sampled_from(CRITERION6), st.sampled_from(HARD))
deltas = st.fractions(min_value=0, max_value=4, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(obligations, deltas, deltas)
def test_a_weaker_bound_is_valid_wherever_a_stronger_one_is(ob, shift, delta):
    # the hard corpus is Unknown as it stands, so every obligation is first
    # shifted, which makes many of them Valid, then loosened by delta more
    strong = prove_implication(weakened(ob, shift), budget=corpora.BUDGET)
    weak = prove_implication(weakened(ob, shift + delta), budget=corpora.BUDGET)
    if strong.is_valid:
        assert weak.status != FALSIFIED, ob.describe()
        assert weak.is_valid and weak.trace["cells"] <= strong.trace["cells"], ob.describe()


# -- the bisection returns the witness of the scan in order -------------------------


@pytest.fixture(scope="module")
def searches():
    """(region, p, op, candidates) of every bound search that `check` makes on
    every problem and rule certificate, and that `catalog` makes."""
    recorded = []
    real = topology.first_proved

    def recording(region, p, op, candidates, prove):
        candidates = list(candidates)
        recorded.append((region, p, op, candidates))
        return real(region, p, op, candidates, prove)

    paths = sorted((ROOT / "problems").glob("*.ode")) + sorted((ROOT / "tests" / "golden" / "rules").glob("*.ode"))
    argvs = [["check", str(path)] for path in paths] + [["catalog", "--samples", "4"]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "first_proved", recording)
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
    return recorded


def test_bisection_finds_the_witness_of_the_scan_in_order(searches):
    # ce4's two doubling searches over 33 bounds, the rules' searches for
    # p1 and eps, and the compact gates of the rule certificates; a search
    # posed again (in another command, or one the checker did not keep)
    # counts once
    distinct = list(dict.fromkeys((region, p, op, tuple(candidates)) for region, p, op, candidates in searches))
    assert len(distinct) >= 9
    assert any(len(candidates) == 33 for _, _, _, candidates in distinct)
    witnesses = set()
    for region, p, op, candidates in distinct:
        calls = []

        def counting(ob, budget=None):
            calls.append(ob)
            return prove_implication(ob, budget=budget)

        witness = topology.first_proved(region, p, op, candidates, counting)
        assert witness == reference_first_proved(region, p, op, candidates, prove_implication)
        assert len(calls) <= 3 + math.ceil(math.log2(len(candidates)))
        witnesses.add(witness)
    # no witness, the first candidate, the second, and one found by bisection
    assert {None, 1, 2, 4} <= witnesses


# -- a wall-clock stop is not a verdict on the bound --------------------------------

# 4x^2 - 4xy + y^2 = (2x - y)^2 vanishes inside the box, so B&B proves
# p >= c for c < 0 with more cells the closer c is to 0; it falsifies p >= 1
# and p >= 1/2 in a few cells.  A scan in order finds -1/4 (3,971 cells),
# and a bisection first proves -64 (1 cell) and -2 (181 cells).
SQUARE = parse_formula("-1 <= x & x <= 3 & -3 <= y & y <= 2")
P = parse_poly("4*x^2 - 4*x*y + y^2")
CANDIDATES = [Fraction(c) for c in (1, "1/2", "-1/4", -1, -2, -4, -8, -16, -64)]


# The same box cut in two at y = 0: every candidate goes by a case split.
SPLIT = parse_formula("(-1 <= x & x <= 3 & -3 <= y & y <= 0) | (-1 <= x & x <= 3 & 0 <= y & y <= 2)")


def traced_search(region=SQUARE):
    """The search's witness and the verdict of every candidate it proved."""
    verdicts = []

    def prove(ob, budget):
        verdicts.append(prove_implication(ob, budget=budget))
        return verdicts[-1]

    return topology.first_proved(region, P, ">=", CANDIDATES, prove), verdicts


def test_the_square_search_bisects_to_the_witness_of_the_scan_in_order():
    witness, verdicts = traced_search()
    assert witness == reference_first_proved(SQUARE, P, ">=", CANDIDATES, prove_implication) == Fraction(-1, 4)
    assert [v.trace["cells"] for v in verdicts] == [6, 10, 1, 181, 3971]


def test_a_clock_stop_ends_the_search_with_no_witness(monkeypatch):
    # every reading of the clock is 10 s after the last one, so the first
    # candidate that reaches cell 256, -1/4, stops at the clock
    ticks = count(0, 10)
    monkeypatch.setattr(arith, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    witness, verdicts = traced_search()
    assert witness is None
    last = verdicts[-1].trace
    assert (last["method"], last["cells"]) == ("time-exhausted", 256)
    assert [v.trace["cells"] for v in verdicts] == [6, 10, 1, 181, 256]


def test_a_clock_stop_in_a_case_split_ends_the_search_with_no_witness(monkeypatch):
    # without the clock the split proves -1/4 in 3,492 cells; with it, the
    # first disjunct stops at cell 256 and the split stops there too, where
    # bisecting on would have found -1
    reference = reference_first_proved(SPLIT, P, ">=", CANDIDATES, prove_implication)
    assert traced_search(SPLIT)[0] == reference == Fraction(-1, 4)
    ticks = count(0, 10)
    monkeypatch.setattr(arith, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    witness, verdicts = traced_search(SPLIT)
    assert witness is None
    last_two = [(v.trace["method"], v.trace["cells"]) for v in verdicts[-2:]]
    assert last_two == [("case-split", 150), ("time-exhausted", 256)]


def test_a_later_disjunct_gets_only_the_seconds_left(monkeypatch):
    # the clock moves only after the first disjunct's branch-and-bound, by
    # 150 s of a 100 s budget: the second disjunct gets the -50 s left and
    # stops at its first reading of the clock, at cell 256, where the full
    # budget would have let it prove its half of the square
    now = [0.0]
    seconds = []
    real = arith._branch_and_bound

    def slow_first(names, hyp, concl, root, budget):
        seconds.append(budget.max_seconds)
        v = real(names, hyp, concl, root, budget)
        now[0] += 150.0
        return v

    ob = ArithObligation.closure(SPLIT, Cmp(">=", P, Polynomial.const(Fraction(-1, 4))))
    budget = Budget(max_cells=20_000, max_seconds=100.0)
    assert prove_implication(ob, budget=budget).is_valid
    monkeypatch.setattr(arith, "_branch_and_bound", slow_first)
    monkeypatch.setattr(arith, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    v = prove_implication(ob, budget=budget)
    assert seconds == [100.0, -50.0]
    assert (v.status, v.trace["method"]) == (arith.UNKNOWN, "time-exhausted") and v.clock_stopped()


def test_a_cell_count_stop_moves_the_bisection(monkeypatch):
    # at 255 cells, -1/4 and -1 stop at the cell count (256 cells, one past
    # the budget): Unknown verdicts on their bounds, so the search goes on to
    # -2, the witness a scan in order finds at the same budget
    monkeypatch.setattr(topology, "BOUND_SEARCH_BUDGET", Budget(max_cells=255, max_seconds=3600.0))
    witness, verdicts = traced_search()
    assert witness == reference_first_proved(SQUARE, P, ">=", CANDIDATES, prove_implication) == -2
    assert [(v.trace["method"], v.trace["cells"]) for v in verdicts[-2:]] == [("budget-exhausted", 256)] * 2


def test_the_search_checks_its_region_once(monkeypatch):
    # the candidates share the region's universals and its check; each
    # obligation still equals the closure a caller would build
    walks = []
    real = arith.formula_variables
    monkeypatch.setattr(arith, "formula_variables", lambda f: walks.append(f) or real(f))
    obligations = []

    def prove(ob, budget):
        obligations.append(ob)
        return prove_implication(ob, budget=budget)

    assert topology.first_proved(SQUARE, P, ">=", CANDIDATES, prove) == Fraction(-1, 4)
    assert len(obligations) == 5 and walks.count(SQUARE) == 1
    for ob in obligations:
        assert ob == ArithObligation.closure(SQUARE, ob.conclusion)
        assert hash(ob) == hash(ArithObligation.closure(SQUARE, ob.conclusion))


def test_with_conclusion_checks_the_conclusion():
    ob = ArithObligation.closure(SQUARE, Cmp(">=", P, Polynomial()))
    with pytest.raises(ValueError, match=r"free variables \['z'\] not quantified"):
        ob.with_conclusion(parse_formula("z >= 0"))
