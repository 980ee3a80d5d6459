"""Python source for float evaluation of polynomials and formulas.

The arithmetic sampler and the numeric falsifier evaluate the same formulas
at millions of float points, so both compile them to straight-line Python
once instead of walking the AST per point.  Sources are generated
exclusively from the package's own ASTs.

A polynomial becomes `c*x**e*y + c2*...`: each term is the coefficient
(its numerator over the denominator, correctly rounded) times its factors,
left to right, and terms are summed left to right in `sorted_terms` order.
A coefficient 1.0 of a term with factors is left out and -1.0 is written as
a unary minus (`-x**2*y`): multiplying by 1.0 or -1.0 is exact in IEEE-754,
also at 0.0, -0.0 and the infinities, so only the sign of a NaN can differ,
and a power that overflows still raises `OverflowError`.
Past `SUM_CHUNK` terms the sum is added up chunk by chunk into `_s`, in the
same order, so its compiled expression stays shallow whatever the term count.
A power is the only operation that can raise, so only a source with a `**`
catches `OverflowError` (`returning`).
"""

from __future__ import annotations

from decimal import Context, Decimal
from typing import Callable

from .errors import InvalidArgument
from .syntax import And, BoolLit, Cmp, Formula, Or

SUM_CHUNK = 256  # CPython's compiler recurses once per `+` of a chain


def to_float(num: int, den: int) -> float:
    """num/den (den != 0) as a float, correctly rounded as `float` of the
    `Fraction` is; a number past the float range is an input error."""
    try:
        return num / den
    except OverflowError:
        approx = Context(prec=6).divide(Decimal(num), Decimal(den)).normalize()
        raise InvalidArgument(f"number {approx} is outside the float range") from None


def poly_src(p, ref: Callable[[str], str]) -> str:
    """Source of the sum of p's terms in `sorted_terms` order; `ref(name)`
    is the source of a variable."""
    parts = []
    for m, c in p.sorted_terms():
        coef = to_float(c, p.den)
        factors = "*".join(ref(v) if e == 1 else f"{ref(v)}**{e}" for v, e in m)
        if not factors:
            parts.append(repr(coef))
        elif coef == 1.0:
            parts.append(factors)
        elif coef == -1.0:
            parts.append(f"-{factors}")
        else:
            parts.append(f"{coef!r}*{factors}")
    if len(parts) <= SUM_CHUNK:
        return " + ".join(parts) if parts else "0.0"
    chunks = [" + ".join(parts[i : i + SUM_CHUNK]) for i in range(0, len(parts), SUM_CHUNK)]
    return "(_s := " + ", _s := _s + ".join(chunks) + ")[-1]"


def returning(src: str, overflow: str) -> list:
    """Body lines that return `src`, or `overflow` where a power in it
    raises `OverflowError`.  A float `+`, `-`, `*` or unary minus gives an
    infinity rather than raising, so a source with no `**` gets no handler."""
    if "**" not in src:
        return [f"return {src}"]
    return ["try:", f"    return {src}", "except OverflowError:", f"    return {overflow}"]


def formula_src(f: Formula, atom: Callable[[Cmp], str]) -> str:
    """Source of a boolean expression for `f` with the connectives'
    short-circuit order; `atom(cmp)` renders each comparison."""
    if isinstance(f, BoolLit):
        return repr(f.value)
    if isinstance(f, Cmp):
        return atom(f)
    if isinstance(f, And):
        return f"({formula_src(f.left, atom)} and {formula_src(f.right, atom)})"
    if isinstance(f, Or):
        return f"({formula_src(f.left, atom)} or {formula_src(f.right, atom)})"
    raise TypeError(f"cannot compile {f!r}")


def build(src: str, name: str, scope: dict = None):
    """The function `name` defined by `src`, executed in a copy of `scope`.
    The function is taken out of its globals, so it and its globals are
    freed with the last reference rather than by the cycle collector; `src`
    must not refer to `name` itself."""
    namespace = dict(scope or {})
    exec(src, namespace)  # generated exclusively from our own AST
    return namespace.pop(name)
