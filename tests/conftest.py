import pathlib

import pytest

from odeliveness.symbolic import OdeSystem, Polynomial, lie_derivative
from odeliveness.syntax import parse_problem

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


# -- float oracles ---------------------------------------------------------------


def eval_float(p: Polynomial, point: dict) -> float:
    """p at a point of floats, its terms summed in dict order."""
    total = 0.0
    for m, c in p.terms.items():
        term = float(c)
        for v, e in m:
            term *= point[v] ** e
        total += term
    return total


class InsufficientSamples(Exception):
    pass


def lie_consistency_check(p: Polynomial, system: OdeSystem, traj, h: float) -> dict:
    """Max deviation between centered differences of p along the trajectory
    and the Lie derivative evaluated at the sample states."""
    samples = traj.samples
    if len(samples) < 3:
        raise InsufficientSamples("need at least three samples")
    lie = lie_derivative(p, system)
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
