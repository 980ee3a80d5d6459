"""The falsifier's compiled evaluation against tree-walking references.

`eval_state`, `eval_state_boundary` and `_rk4_step` below are the
interpreters `sim` used before its goal, domain and RK4 work was compiled;
they stay here as the specification.  The compiled functions must agree on
every truth value and produce bit-identical floats (atom values may differ
only in the sign of a zero).
"""

import math
import struct
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness import sim
from odeliveness.symbolic import OdeSystem, Polynomial
from odeliveness.syntax import And, BoolLit, Cmp, Formula, Implies, Not, Or

# -- references --------------------------------------------------------------


def eval_state(f: Formula, vals: dict, eq_tol: float = 1e-9) -> bool:
    """Float truth with absolute tolerance on equalities, none on strict atoms."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Cmp):
        d = (f.lhs - f.rhs).eval_float(vals)
        if f.op == "=":
            return abs(d) <= eq_tol
        if f.op == "!=":
            return abs(d) > eq_tol
        return {"<": d < 0, "<=": d <= 0, ">": d > 0, ">=": d >= 0}[f.op]
    if isinstance(f, Not):
        return not eval_state(f.arg, vals, eq_tol)
    if isinstance(f, And):
        return eval_state(f.left, vals, eq_tol) and eval_state(f.right, vals, eq_tol)
    if isinstance(f, Or):
        return eval_state(f.left, vals, eq_tol) or eval_state(f.right, vals, eq_tol)
    if isinstance(f, Implies):
        return (not eval_state(f.left, vals, eq_tol)) or eval_state(f.right, vals, eq_tol)
    raise TypeError(f"cannot evaluate {f!r} numerically")


def eval_state_boundary(f: Formula, vals: dict, margin: float = 1e-9) -> bool:
    """Truth at a located event point: strict atoms need a positive margin,
    non-strict atoms hold on their boundary."""
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Cmp):
        d = (f.lhs - f.rhs).eval_float(vals)
        if f.op == "=":
            return abs(d) <= margin
        if f.op == "!=":
            return abs(d) > margin
        if f.op == "<":
            return d < -margin
        if f.op == ">":
            return d > margin
        if f.op == "<=":
            return d <= margin
        return d >= -margin
    if isinstance(f, Not):
        return not eval_state_boundary(f.arg, vals, margin)
    if isinstance(f, And):
        return eval_state_boundary(f.left, vals, margin) and eval_state_boundary(f.right, vals, margin)
    if isinstance(f, Or):
        return eval_state_boundary(f.left, vals, margin) or eval_state_boundary(f.right, vals, margin)
    if isinstance(f, Implies):
        return (not eval_state_boundary(f.left, vals, margin)) or eval_state_boundary(f.right, vals, margin)
    raise TypeError(f"cannot evaluate {f!r} numerically")


def eval_limit(f: Formula, lo: dict, hi: dict, eq_tol: float = 1e-9) -> bool:
    """Truth where a bisection bracket [lo, hi] closes in: atoms whose
    polynomial changes sign across it are on their boundary."""
    if isinstance(f, Cmp):
        p = f.lhs - f.rhs
        if p.eval_float(lo) * p.eval_float(hi) <= 0:
            return f.op in ("<=", ">=", "=")
        return eval_state(f, hi, eq_tol)
    if isinstance(f, BoolLit):
        return f.value
    if isinstance(f, Not):
        return not eval_limit(f.arg, lo, hi, eq_tol)
    if isinstance(f, And):
        return eval_limit(f.left, lo, hi, eq_tol) and eval_limit(f.right, lo, hi, eq_tol)
    if isinstance(f, Or):
        return eval_limit(f.left, lo, hi, eq_tol) or eval_limit(f.right, lo, hi, eq_tol)
    return (not eval_limit(f.left, lo, hi, eq_tol)) or eval_limit(f.right, lo, hi, eq_tol)


def rhs_reference(system: OdeSystem, par: dict):
    """The right-hand side as `sim` generated it before: terms in
    `sorted_terms` order, `c*x**e*...`, summed left to right."""
    names = system.state_names()

    def f(y):
        point = dict(zip(names, y), **par)
        out = []
        for v in names:
            total = None
            for m, c in system.rhs_of(v).sorted_terms():
                term = float(c)
                for var, e in m:
                    term = term * (point[var] if e == 1 else point[var] ** e)
                total = term if total is None else total + term
            out.append(0.0 if total is None else total)
        return tuple(out)

    def fwrapped(y):
        try:
            return f(y)
        except OverflowError:
            return tuple(math.inf for _ in y)

    return fwrapped


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
    k3 = f(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
    k4 = f(tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def same_float(a: float, b: float, signed_zero: bool = True) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return bits(a) == bits(b) or (not signed_zero and a == b == 0.0)


# -- strategies ----------------------------------------------------------------

STATE = ("x", "y")
PARAM = "c"
CLOCK = "_t"

coefficients = st.sampled_from([Fraction(k, d) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)])


def polys(names):
    term = st.tuples(coefficients, st.lists(st.sampled_from(names), max_size=3))

    def build(terms):
        p = Polynomial.const(0)
        for c, factors in terms:
            t = Polynomial.const(c)
            for v in factors:
                t = t * Polynomial.var(v)
            p = p + t
        return p

    return st.lists(term, max_size=4).map(build)


def formulas(names):
    atoms = st.builds(Cmp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), polys(names), polys(names))
    leaves = atoms | st.sampled_from([BoolLit(True), BoolLit(False)])
    return st.recursive(
        leaves,
        lambda sub: st.builds(Not, sub)
        | st.builds(And, sub, sub)
        | st.builds(Or, sub, sub)
        | st.builds(Implies, sub, sub),
        max_leaves=5,
    )


# exact small dyadics put many atoms exactly on their boundary
values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.5, 3.0, 1e-10]) | st.floats(-4, 4)
ALL = STATE + (PARAM, CLOCK)
systems = st.builds(
    lambda rhs, domain: OdeSystem(STATE, tuple(rhs), domain, frozenset({PARAM}), CLOCK),
    st.lists(polys(STATE + (PARAM,)), min_size=2, max_size=2),
    formulas(ALL),
)


# -- properties ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(systems, formulas(ALL), st.lists(values, min_size=4, max_size=4), st.lists(values, min_size=4, max_size=4))
def test_compiled_predicates_match_references(system, goal, point, other):
    eq_tol, margin = 1e-9, 1e-9
    plan = sim.Plan(system, goal)
    c = plan.bind((point[2],), eq_tol, margin)
    y = (point[0], point[1], point[3])  # x, y, then the clock
    y_lo = (other[0], other[1], other[3])
    vals = dict(zip(("x", "y", CLOCK), y), c=point[2])
    lo = dict(zip(("x", "y", CLOCK), y_lo), c=point[2])
    for f, state, boundary, limit in (
        (system.domain, c.domain, c.domain_boundary, c.domain_limit),
        (goal, c.goal, c.goal_boundary, c.goal_limit),
    ):
        assert state(y) == eval_state(f, vals, eq_tol)
        assert boundary(y) == eval_state_boundary(f, vals, margin)
        assert limit(y_lo, y) == eval_limit(f, lo, vals, eq_tol)
    cmps = sim._atom_cmps(system.domain) + sim._atom_cmps(goal)
    compiled = c.atoms(y)
    assert len(compiled) == len(cmps)
    for value, f in zip(compiled, cmps):
        assert same_float(value, (f.lhs - f.rhs).eval_float(vals), signed_zero=False)
    names = ("x", "y", PARAM, CLOCK)
    pred = sim._predicate(goal, names, eq_tol)
    assert pred(tuple(point)) == eval_state(goal, dict(zip(names, point)), eq_tol)


big = st.sampled_from([1e100, -1e103, 1e160, math.inf]) | values


@settings(max_examples=200, deadline=None)
@given(systems, st.lists(big, min_size=4, max_size=4), st.sampled_from([1e-3, 0.01, 0.5, 2.0]))
def test_compiled_rk4_step_is_bit_identical(system, point, h):
    par = point[2]
    y = (point[0], point[1], point[3])
    c = sim.Plan(system).bind((par,), 1e-9, 1e-9)
    want = _rk4_step(rhs_reference(system, {PARAM: par}), y, h)
    got = c.step(y, h)
    assert len(got) == len(want)
    assert all(same_float(a, b) for a, b in zip(got, want)), (got, want)


def test_compiled_atoms_at_exact_tolerance_edges():
    # values at, inside and outside the 1e-9 equality tolerance and margin
    system = OdeSystem(("x",), (Polynomial.const(1),))
    x = Polynomial.var("x")
    edges = [0.0, -0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]
    for op in ("=", "!=", "<", "<=", ">", ">="):
        f = Cmp(op, x, Polynomial.const(0))
        c = sim.Plan(system, f).bind((), 1e-9, 1e-9)
        for v in edges:
            vals = {"x": v}
            assert c.goal((v,)) == eval_state(f, vals), (op, v)
            assert c.goal_boundary((v,)) == eval_state_boundary(f, vals), (op, v)
            for w in edges:
                assert c.goal_limit((w,), (v,)) == eval_limit(f, {"x": w}, vals), (op, w, v)
