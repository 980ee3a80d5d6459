from fractions import Fraction
from random import Random

import pytest

from odeliveness import arith, topology
from odeliveness.normal import atoms_of
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import TRUE, Cmp, parse_formula

UV = ("u", "v")
PROVE = arith.prove_implication


def BOUNDED(f, vars):
    """The Bounded search over `PROVE`, as `check_compact` reads it."""
    return topology.check_bounded(f, vars, PROVE)


def test_closed_nonstrict_atom():
    assert topology.check_closed(parse_formula("u^2 + v^2 >= 2")).holds


def test_closed_annulus():
    assert topology.check_closed(parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2")).holds


def test_closed_mixed_strictness_unknown():
    v = topology.check_closed(parse_formula("u > 0 | u >= 1"))
    assert not v.holds


def test_open_checks():
    assert topology.check_open(parse_formula("u^2 + v^2 > 1/4")).holds
    assert topology.check_open(parse_formula("u > 0")).holds
    assert not topology.check_open(parse_formula("u >= 0")).holds


def test_negation_normalizes_before_classification():
    # !(u^2+v^2 >= 2) is an open set even though it is written negated: the
    # parser reads it as u^2 + v^2 < 2
    assert topology.check_open(parse_formula("!(u^2 + v^2 >= 2)")).holds
    assert topology.check_closed(parse_formula("!(u >= 0 -> v != 1)")).holds


def test_bounded_annulus_with_witness_two():
    v = topology.check_bounded(parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2"), UV, PROVE)
    assert v.holds and v.witness == 2


def test_bounded_true_unknown():
    assert not topology.check_bounded(TRUE, ("x",), PROVE).holds


def test_bounded_ignores_unbounded_symbols_outside_vars():
    # w is unbounded, but the sum of squares of (u, v) is still bounded
    v = topology.check_bounded(parse_formula("u^2 + v^2 <= 2 & w >= 0"), UV, PROVE)
    assert v.holds and v.witness == 2


def test_bounded_draws_no_samples(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("check_bounded drew a sample")

    monkeypatch.setattr(arith, "falsify", no_sampling)
    for region in ("t <= 3", "true"):  # ce4's regions over (x, t)
        v = topology.check_bounded(parse_formula(region), ("x", "t"), PROVE)
        assert not v.holds and v.witness is None


@pytest.mark.parametrize(
    "region,vars,witness",
    [
        # the sum of the two atoms is 2 - u^2 - v^2 >= 0
        ("2 - u^2 - w >= 0 & w - v^2 >= 0", UV, 2),
        # the sum of the two atoms is 5 - y^2 >= 0
        ("x - y^2 >= 0 & x <= 5", ("y",), 8),
    ],
)
def test_bounded_by_a_combination_of_atoms(region, vars, witness):
    # no single atom bounds a variable of `vars`, so no box encloses the
    # region, yet a positive combination of the atoms proves the bound
    v = topology.check_bounded(parse_formula(region), vars, PROVE)
    assert v.holds and v.witness == witness


def test_bound_search_is_monotone_in_its_bound():
    # the two atoms sum to 4 - 2*x^2 - 2*t^2 >= 0, which is 2 - x^2 - t^2
    # >= 0 up to scale: x^2 + t^2 <= 2 is the first bound proved, and every
    # looser bound B is B - 2 more than half the pair sum, so it is proved
    # the same way and a search may try the loosest bound first
    region = parse_formula("3 - 2*x^2 - t^2 + x*t >= 0 & 1 - t^2 - x*t >= 0")
    v = topology.check_bounded(region, ("x", "t"), PROVE)
    assert v.holds and v.witness == 2
    sumsq = parse_formula("x^2 + t^2 <= 0").lhs
    for bound in (2, 4, 8, 2**32):
        ob = arith.ArithObligation.closure(region, Cmp("<=", sumsq, Polynomial.const(bound)))
        verdict = PROVE(ob, budget=topology.BOUND_SEARCH_BUDGET)
        assert (verdict.status, verdict.trace["method"]) == ("valid", "positive-combination")


def test_bounded_singleton_witness_one():
    v = topology.check_bounded(parse_formula("u = 0 & v = 0"), UV, PROVE)
    assert v.holds and v.witness == 1


def test_compact_annulus():
    v = topology.check_compact(parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2"), UV, BOUNDED)
    assert v.holds and v.witness == 2


def test_compact_open_box_unknown():
    assert not topology.check_compact(parse_formula("u > 0 & u < 1"), ("u",), BOUNDED).holds


def test_compact_true_unknown():
    assert not topology.check_compact(TRUE, ("x",), BOUNDED).holds


def test_closed_criterion_excludes_strict_atoms_syntactically():
    # soundness of Holds: no strict atom survives in the NNF
    for text in ("u^2 + v^2 >= 2", "1 <= u^2 + v^2 & u^2 + v^2 <= 2", "u = 0 & v = 0"):
        f = parse_formula(text)
        assert topology.check_closed(f).holds
        atoms = atoms_of(f)
        assert atoms is not None
        assert all(a.op in (">=", "=") for a in atoms)


def test_bounded_witness_encloses_samples():
    f = parse_formula("1 <= u^2 + v^2 & u^2 + v^2 <= 2")
    witness = topology.check_bounded(f, UV, PROVE).witness
    rng = Random(5)
    found = 0
    while found < 200:
        pt = {
            "u": Fraction(rng.randrange(-160, 161), 100),
            "v": Fraction(rng.randrange(-160, 161), 100),
        }
        if arith.eval_formula_exact(f, pt):
            found += 1
            assert pt["u"] ** 2 + pt["v"] ** 2 <= witness


def test_bounded_monotone_under_atom_strengthening():
    g = parse_formula("u^2 + v^2 <= 2")
    f = parse_formula("u^2 + v^2 <= 2 & u >= 0")  # f implies g atom-by-atom
    bg = topology.check_bounded(g, UV, PROVE)
    bf = topology.check_bounded(f, UV, PROVE)
    assert bg.holds and bf.holds
    assert bf.witness <= bg.witness
