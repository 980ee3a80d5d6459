import pathlib
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import settings

from odeliveness import arith, sim
from odeliveness.errors import MissingBinding
from odeliveness.symbolic import OdeSystem, Polynomial, lie_derivative
from odeliveness.syntax import And, Cmp, Or, parse_formula, parse_problem, print_formula

# The full CLI fuzz: `pytest tests/test_fuzz_cli.py --hypothesis-profile=ci`.
settings.register_profile("ci", max_examples=2000)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


@pytest.fixture(scope="session")
def alpha_l():
    """Linear spiral u' = -v - u, v' = u - v."""
    return parse_problem("ode { u' = -v - u; v' = u - v }  goal { u^2 + v^2 <= 1/4 }")


@pytest.fixture(scope="session")
def alpha_n():
    """Nonlinear spiral with finite-time blow-up outside the inner disk."""
    return parse_problem(
        "ode { u' = -v - u*(1/4 - u^2 - v^2); v' = u - v*(1/4 - u^2 - v^2) }"
        "  goal { u^2 + v^2 >= 2 }"
    )


def problem_path(name: str) -> pathlib.Path:
    return PROBLEMS / name


# -- oracles ----------------------------------------------------------------------


def eval_rational(p: Polynomial, point: dict) -> Fraction:
    """p at a point of rationals, exactly."""
    total = Fraction(0)
    for m, c in p.terms.items():
        term = Fraction(c, p.den)
        for v, e in m:
            if v not in point:
                raise MissingBinding(f"no value for '{v}'")
            term *= Fraction(point[v]) ** e
        total += term
    return total


HOLDS = {
    "=": lambda d: d == 0,
    "!=": lambda d: d != 0,
    ">=": lambda d: d >= 0,
    ">": lambda d: d > 0,
    "<=": lambda d: d <= 0,
    "<": lambda d: d < 0,
}


class Neg(NamedTuple):
    """`!arg` as written.  The package has no such node (its parser reads
    `!` and `->` into negation normal form); the oracles keep both."""

    arg: object


class Imp(NamedTuple):
    """`left -> right` as written."""

    left: object
    right: object


def written_text(f) -> str:
    """The text of a formula of package nodes, `Neg` and `Imp`, with every
    connective in parentheses."""
    if isinstance(f, Neg):
        return f"!({written_text(f.arg)})"
    if isinstance(f, (And, Or, Imp)):
        sym = "&" if isinstance(f, And) else "|" if isinstance(f, Or) else "->"
        return f"({written_text(f.left)} {sym} {written_text(f.right)})"
    return print_formula(f)


def parsed(f):
    """The package's formula for a written one: its text, parsed."""
    return parse_formula(written_text(f))


def ref_holds(f, point: dict) -> bool:
    """Exact truth of a formula at a point of rationals, walking every
    connective as written (`Neg` and `Imp` too): no negation normal form,
    no normalised atoms."""
    if isinstance(f, Cmp):
        return HOLDS[f.op](eval_rational(f.lhs - f.rhs, point))
    if isinstance(f, Neg):
        return not ref_holds(f.arg, point)
    if isinstance(f, And):
        return ref_holds(f.left, point) and ref_holds(f.right, point)
    if isinstance(f, Or):
        return ref_holds(f.left, point) or ref_holds(f.right, point)
    if isinstance(f, Imp):
        return (not ref_holds(f.left, point)) or ref_holds(f.right, point)
    return f.value


class Interval(NamedTuple):
    """A rational interval lo <= hi, as the `Fraction` references read a
    box; the package's boxes are integer cells v -> (L, H, D)."""

    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def cell_of(box: dict) -> dict:
    """The package's integer cell of a box of `Interval`s."""
    return arith._scaled((v, iv.lo, iv.hi) for v, iv in box.items())


def box_of(cell: dict) -> dict:
    """The box of `Interval`s of an integer cell."""
    return {v: Interval(Fraction(lo, d), Fraction(hi, d)) for v, (lo, hi, d) in cell.items()}


def interval_of_poly(p: Polynomial, box: dict) -> Interval:
    """Exact interval enclosure of p over the box, from the package's
    enclosure in scaled integers: the bounds it returns over p.den times the
    D_v powers of the cell."""
    terms, degrees = arith._scaled_poly(p)
    cell = cell_of({v: box[v] for v in degrees})
    lo, hi = arith._enclosure(terms, cell)
    s = p.den
    for v, k in degrees.items():
        s *= cell[v][2] ** k
    return Interval(Fraction(lo, s), Fraction(hi, s))


def float_terms(p: Polynomial) -> list:
    """p's terms as (float coefficient, monomial) in `sorted_terms` order,
    each coefficient its numerator over p's denominator, read once."""
    return [(c / p.den, m) for m, c in p.sorted_terms()]


def eval_float(p, point: dict) -> float:
    """p (a polynomial or its `float_terms`) at a point of floats, its terms
    summed in `sorted_terms` order, as `codegen.poly_src` sums them."""
    total = 0.0
    for c, m in float_terms(p) if isinstance(p, Polynomial) else p:
        term = c
        for v, e in m:
            term *= point[v] ** e
        total += term
    return total


# Dormand & Prince (1980): rows of the stage matrix for stages 2..7 (the
# last row is the fifth-order weights) and the error weights b - b^
DP_A = (
    (Fraction(1, 5),),
    (Fraction(3, 40), Fraction(9, 40)),
    (Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)),
    (Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561), Fraction(-212, 729)),
    (Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247), Fraction(49, 176), Fraction(-5103, 18656)),
    (Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192), Fraction(-2187, 6784), Fraction(11, 84)),
)
DP_E = (
    Fraction(71, 57600), Fraction(0), Fraction(-71, 16695), Fraction(71, 1920),
    Fraction(-17253, 339200), Fraction(22, 525), Fraction(-1, 40),
)


# Each tableau row's nonzero weights as (stage, float), converted once and
# keyed by the row's identity; a `Fraction` row would be slow to hash.
_FLOAT_ROWS = {id(row): tuple((j, float(w)) for j, w in enumerate(row) if w) for row in (*DP_A, DP_E)}


def _weighted(weights, ks, i):
    """sum_j w_j * k_j[i] left to right over the nonzero weights."""
    total = None
    for j, w in _FLOAT_ROWS[id(weights)]:
        term = w * ks[j][i]
        total = term if total is None else total + term
    return total


def _dp_step(f, y, h, k1):
    """One Dormand-Prince trial of the right-hand side `f(*state)`:
    (fifth-order state, error, k7, and the stages k1, k3, ..., k7 that the
    dense output reads)."""
    ks = [k1]
    for row in DP_A[:-1]:
        ks.append(f(*(a + h * _weighted(row, ks, i) for i, a in enumerate(y))))
    y1 = tuple(a + h * _weighted(DP_A[-1], ks, i) for i, a in enumerate(y))
    ks.append(f(*y1))
    err = max(abs(h * _weighted(DP_E, ks, i)) / (1.0 + abs(b)) for i, b in enumerate(y1))
    return y1, err, ks[-1], (ks[0], *ks[2:])


def fixed_steps(plan, init: dict, horizon: float, h: float) -> list:
    """The `State`s of fixed steps of h from `init`, by `_dp_step` over the
    plan's compiled right-hand side with no step control: each step lands
    exactly on a multiple of h and the last on the horizon.  A state that is
    not finite or past `sim.BLOWUP_NORM` is the last."""
    c = plan.bind(tuple(float(init[p]) for p in plan.pnames))
    y = tuple(float(init[n]) for n in plan.names)
    t, k1 = 0.0, c.f(*y)
    states = [sim.State(c.values(y), t)]
    while t < horizon and c.finite(y) and c.norm(y) <= sim.BLOWUP_NORM:
        j = round(t / h)
        step = h * (j + 1) - t if h * (j + 1) - t > 1e-15 else h
        step = min(step, horizon - t)
        y, _, k1, _ = _dp_step(c.f, y, step, k1)
        t += step
        states.append(sim.State(c.values(y), t))
    return states


class InsufficientSamples(Exception):
    pass


def lie_consistency_check(p: Polynomial, system: OdeSystem, samples: list, h: float) -> dict:
    """Max deviation between centered differences of p along the sampled
    `State`s and the Lie derivative evaluated at the sample states."""
    if len(samples) < 3:
        raise InsufficientSamples("need at least three samples")
    lie = float_terms(lie_derivative(p, system))
    p = float_terms(p)
    times = [s.time for s in samples]
    for a, b in zip(times, times[1:]):
        if b - a > h * (1 + 1e-6):
            raise InsufficientSamples(f"sample spacing {b - a} exceeds h={h}")
    worst = 0.0
    count = 0
    for prev_s, cur, next_s in zip(samples, samples[1:], samples[2:]):
        dt = next_s.time - prev_s.time
        if dt <= 0:
            continue
        diff = (eval_float(p, next_s.values) - eval_float(p, prev_s.values)) / dt
        exact = eval_float(lie, cur.values)
        worst = max(worst, abs(diff - exact))
        count += 1
    if count == 0:
        raise InsufficientSamples("no interior samples")
    return {"max_error": worst, "points": count, "h": h}
