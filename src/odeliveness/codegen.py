"""Python source for float evaluation of polynomials and formulas.

The arithmetic sampler and the numeric falsifier evaluate the same formulas
at millions of float points, so both compile them to straight-line Python
once instead of walking the AST per point.  Sources are generated
exclusively from the package's own ASTs.

A polynomial becomes `c*x**e*y + c2*...`: each term is the coefficient
times its factors, left to right, and terms are summed left to right in
the order the caller gives, so a caller that needs bit-identical results to
some other evaluation order only has to pass the terms in that order.
"""

from __future__ import annotations

from typing import Callable

from .syntax import And, BoolLit, Cmp, Formula, Implies, Not, Or


def poly_src(terms, ref: Callable[[str], str]) -> str:
    """Source of the sum of `terms` ((monomial, coefficient) pairs, summed in
    the given order); `ref(name)` is the source of a variable."""
    parts = []
    for m, c in terms:
        factors = [repr(float(c))]
        for v, e in m:
            factors.append(ref(v) if e == 1 else f"{ref(v)}**{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0.0"


def formula_src(f: Formula, atom: Callable[[Cmp], str]) -> str:
    """Source of a boolean expression for `f` with the connectives'
    short-circuit order; `atom(cmp)` renders each comparison."""
    if isinstance(f, BoolLit):
        return repr(f.value)
    if isinstance(f, Cmp):
        return atom(f)
    if isinstance(f, Not):
        return f"(not {formula_src(f.arg, atom)})"
    if isinstance(f, And):
        return f"({formula_src(f.left, atom)} and {formula_src(f.right, atom)})"
    if isinstance(f, Or):
        return f"({formula_src(f.left, atom)} or {formula_src(f.right, atom)})"
    if isinstance(f, Implies):
        return f"((not {formula_src(f.left, atom)}) or {formula_src(f.right, atom)})"
    raise TypeError(f"cannot compile {f!r}")


def build(src: str, name: str, scope: dict = None):
    """The function `name` defined by `src`, executed in a copy of `scope`."""
    namespace = dict(scope or {})
    exec(src, namespace)  # generated exclusively from our own AST
    return namespace[name]
