"""Seeded obligation corpora for the `arith` workload.

Every obligation is built twice from the same data: as the package's
`ArithObligation`, which the prover sees, and as plain rational terms, which
`exact.py` evaluates on its own.  A bug in the package's formula layer
therefore cannot hide in the check as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from odeliveness import arith
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import Cmp, parse_formula

NAMES = ("x", "y")
# The seconds budget is far above any run, so cells alone decide every
# verdict and the counts repeat exactly.
BUDGET = arith.Budget(max_cells=3000, max_seconds=3600.0)


@dataclass(frozen=True)
class Atom:
    """sum(c * prod(v^e)) <op> rhs, with terms as ((monomial, c), ...)."""

    terms: tuple
    op: str
    rhs: Fraction


@dataclass(frozen=True)
class Alt:
    """One disjunct of a hypothesis: bounds lo <= v <= hi, plus extra atoms.

    `grid` is the box the exact checker samples; it defaults to the bounds.
    """

    bounds: tuple  # ((v, lo, hi), ...)
    atoms: tuple = ()
    grid: tuple = ()

    def region(self) -> tuple:
        return self.grid or self.bounds


@dataclass(frozen=True)
class Case:
    family: str
    alts: tuple  # hypothesis = OR over alts
    concl: Atom
    true_by_construction: bool
    ob: arith.ArithObligation


def _poly_text(terms) -> str:
    parts = []
    for mono, c in terms:
        factors = [f"({c})"] + [f"{v}^{e}" for v, e in mono]
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def _alt_text(alt: Alt) -> str:
    # Bounds are rendered exactly as criterion 6 of the acceptance suite does.
    parts = [f"{lo} <= {n} & {n} <= {hi}" for n, lo, hi in alt.bounds]
    parts += [f"{_poly_text(a.terms)} {a.op} {a.rhs}" for a in alt.atoms]
    return " & ".join(parts)


def make_case(family: str, alts, concl: Atom, true_by_construction: bool) -> Case:
    alts = tuple(alts)
    if len(alts) == 1:
        hyp_text = _alt_text(alts[0])
    else:
        hyp_text = " | ".join(f"({_alt_text(a)})" for a in alts)
    hyp = parse_formula(hyp_text)
    conclusion = Cmp(concl.op, Polynomial(dict(concl.terms)), Polynomial.const(concl.rhs))
    ob = arith.ArithObligation(NAMES, hyp, conclusion)
    return Case(family, alts, concl, true_by_construction, ob)


# ---------------------------------------------------------------------------
# (a) Criterion-6 corpus: the generator of tests/test_acceptance.py, copied so
# that it draws from the RNG in the same order.  Random(11) gives criterion 6.


def random_box_obligation(rng: Random) -> Case:
    def rand_poly(max_terms=3, max_deg=2):
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            mono = tuple(
                sorted({n: rng.randrange(1, max_deg + 1) for n in rng.sample(NAMES, rng.randrange(0, 3))}.items())
            )
            terms[mono] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return tuple(terms.items())

    bounds = []
    for n in NAMES:
        lo = Fraction(rng.randrange(-3, 1))
        hi = lo + Fraction(rng.randrange(1, 5))
        bounds.append((n, lo, hi))
    op = rng.choice([">=", ">", "<=", "<"])
    terms = rand_poly()
    rhs = Fraction(rng.randrange(-6, 7), 2)
    return make_case("criterion6", [Alt(tuple(bounds))], Atom(terms, op, rhs), False)


def criterion6_corpus(seed: int, n: int = 500) -> list:
    rng = Random(seed)
    return [random_box_obligation(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# (b) Hard corpus: true by construction, Unknown for the seed's interval B&B.
#
# Each family has a zero set of its conclusion running through the interior
# of the region.  On every cell that meets it the interval enclosure's lower
# end is negative (the dependency problem of the expanded form), so B&B can
# never close those cells and spends its whole cell budget; since the claim
# is true, no midpoint can falsify it either.  The symbolic pre-checks do not
# apply: no family is a positive combination or an exact multiple of a
# hypothesis atom.  Fewer Unknowns here, with no Falsified, is a real gain.


def _sq_terms(a: int, b: int) -> tuple:
    """(a*x - b*y)^2, expanded."""
    return (
        ((("x", 2),), Fraction(a * a)),
        ((("x", 1), ("y", 1)), Fraction(-2 * a * b)),
        ((("y", 2),), Fraction(b * b)),
    )


def _square(rng: Random) -> Case:
    # The expanded (x - y)^2 >= 0 of ROADMAP item 1, with a seeded slope.
    a, b = rng.randrange(1, 4), rng.randrange(1, 4)
    bounds = tuple((n, Fraction(-rng.randrange(1, 4)), Fraction(rng.randrange(1, 4))) for n in NAMES)
    return make_case("square", [Alt(bounds)], Atom(_sq_terms(a, b), ">=", Fraction(0)), True)


def _square_plus_c(rng: Random) -> Case:
    # (a x - b y)^2 + c >= 0 with c = 2^-k > 0: B&B could close it in the
    # limit, but only with cells of width about c/12, far past 3000 cells.
    a, b = rng.randrange(1, 4), rng.randrange(1, 4)
    c = Fraction(1, 2 ** rng.randrange(8, 13))
    bounds = tuple((n, Fraction(-rng.randrange(1, 4)), Fraction(rng.randrange(1, 4))) for n in NAMES)
    return make_case("square_plus_c", [Alt(bounds)], Atom(_sq_terms(a, b), ">=", -c), True)


def _disjunction(rng: Random) -> Case:
    # Case split: both quadrant boxes meet the line a x = b y, so each
    # disjunct exhausts its own budget.
    a, b = rng.randrange(1, 4), rng.randrange(1, 4)
    lower = tuple((n, Fraction(-rng.randrange(1, 4)), Fraction(0)) for n in NAMES)
    upper = tuple((n, Fraction(0), Fraction(rng.randrange(1, 4))) for n in NAMES)
    return make_case("disjunction", [Alt(lower), Alt(upper)], Atom(_sq_terms(a, b), ">=", Fraction(0)), True)


def _annulus4(rng: Random) -> Case:
    # Degree 4 over an annulus rho <= x^2 + y^2 <= R (the shape of the
    # example2 problems): (x^2 - a y^2)^2 >= 0 vanishes on two lines that
    # cross the annulus.  The box comes from x^2 + y^2 <= R alone.
    a = rng.randrange(1, 4)
    rho = Fraction(1, rng.randrange(1, 5))
    big = rho + rng.randrange(1, 4)
    r2 = ((("x", 2),), Fraction(1)), ((("y", 2),), Fraction(1))
    atoms = (Atom(r2, ">=", rho), Atom(r2, "<=", big))
    side = Fraction(int(big) + 1)
    grid = tuple((n, -side, side) for n in NAMES)
    concl = (
        ((("x", 4),), Fraction(1)),
        ((("x", 2), ("y", 2)), Fraction(-2 * a)),
        ((("y", 4),), Fraction(a * a)),
    )
    return make_case("annulus4", [Alt((), atoms, grid)], Atom(concl, ">=", Fraction(0)), True)


HARD_FAMILIES = (_square, _square_plus_c, _disjunction, _annulus4)


def hard_corpus(seed: int) -> list:
    """One obligation per family, with parameters drawn from the seed."""
    rng = Random(f"hard:{seed}")
    return [family(rng) for family in HARD_FAMILIES]
