"""The benchmark's own exact checker.

It evaluates the plain rational terms kept in `corpora.Case` with `Fraction`
arithmetic, never the package's formulas or `arith.eval_formula_exact`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

_OPS = {
    ">=": lambda d: d >= 0,
    ">": lambda d: d > 0,
    "<=": lambda d: d <= 0,
    "<": lambda d: d < 0,
    "=": lambda d: d == 0,
}


def poly_value(terms, point) -> Fraction:
    total = Fraction(0)
    for mono, c in terms:
        term = Fraction(c)
        for v, e in mono:
            term *= Fraction(point[v]) ** e
        total += term
    return total


def atom_holds(atom, point) -> bool:
    return _OPS[atom.op](poly_value(atom.terms, point) - atom.rhs)


def alt_holds(alt, point) -> bool:
    if any(not lo <= Fraction(point[v]) <= hi for v, lo, hi in alt.bounds):
        return False
    return all(atom_holds(a, point) for a in alt.atoms)


def hypothesis_holds(case, point) -> bool:
    return any(alt_holds(alt, point) for alt in case.alts)


def is_counterexample(case, point) -> bool:
    """True iff the point satisfies the hypothesis and violates the conclusion."""
    if point is None or any(v not in point for v in case.ob.universals):
        return False
    return hypothesis_holds(case, point) and not atom_holds(case.concl, point)


def _halves(lo: Fraction, hi: Fraction) -> list:
    k = math.ceil(2 * lo)
    return [Fraction(i, 2) for i in range(k, math.floor(2 * hi) + 1)]


def grid_points(case, seed: int, side: int = 8, extra: int = 32):
    """A (side+1)^2 rational grid over each alternative's box, every point
    of the box with half-integer coordinates (where small polynomials tend
    to vanish), and seeded random points with denominators up to 64."""
    rng = Random(seed)
    for alt in case.alts:
        (vx, xlo, xhi), (vy, ylo, yhi) = alt.region()
        for i in range(side + 1):
            for j in range(side + 1):
                yield {vx: xlo + (xhi - xlo) * Fraction(i, side), vy: ylo + (yhi - ylo) * Fraction(j, side)}
        for x in _halves(xlo, xhi):
            for y in _halves(ylo, yhi):
                yield {vx: x, vy: y}
        for _ in range(extra):
            yield {
                vx: xlo + (xhi - xlo) * Fraction(rng.randrange(0, 65), 64),
                vy: ylo + (yhi - ylo) * Fraction(rng.randrange(0, 65), 64),
            }


def refutes_valid(case, seed: int) -> bool:
    """True iff some grid point contradicts a Valid verdict on `case`."""
    return any(is_counterexample(case, p) for p in grid_points(case, seed))
