"""Sound-incomplete real-arithmetic backend.

Obligations are universally quantified implications between quantifier-free
formulas.  `prove_implication` first tries cheap symbolic certificates
(inconsistent hypothesis, reduction modulo hypothesis equalities, positive
combinations of hypothesis atoms, exact division by a hypothesis atom with a
sign-definite quotient) and then falls back to interval branch-and-bound over
a rational box.  Each cell is first screened with outward-rounded float
intervals, which can only ever agree with exact arithmetic; every cell the
screen leaves undecided is evaluated exactly over `Fraction`, so the prover
needs no rounding tolerance: Valid is never returned for an obligation that
is falsifiable over its box.

`falsify` samples exact rational points and can only ever answer Falsified or
Unknown; counterexamples re-verify by rational evaluation.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Optional

from .codegen import build, formula_src, poly_src
from .normal import (
    NormAtom,
    _canonical_sign,
    atoms_of,
    atoms_of_conjuncts,
    contradictory,
    equality_polys,
    nnf,
    partial_atoms,
)
from .symbolic import Polynomial, poly_divmod, primitive, reduce_mod_equalities
from .syntax import (
    And,
    BoolLit,
    Cmp,
    Formula,
    Implies,
    Not,
    Or,
    conj,
    conjuncts,
    disjuncts,
    formula_variables,
    is_quantifier_free,
    print_formula,
)

# ---------------------------------------------------------------------------
# Intervals


@dataclass(frozen=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _iv_pow(a: Interval, e: int) -> Interval:
    if e == 0:
        return Interval(Fraction(1), Fraction(1))
    if e % 2 == 1:
        return Interval(a.lo**e, a.hi**e)
    if a.lo <= 0 <= a.hi:
        return Interval(Fraction(0), max(a.lo**e, a.hi**e))
    if a.hi < 0:
        return Interval(a.hi**e, a.lo**e)
    return Interval(a.lo**e, a.hi**e)


Box = dict  # dict[str, Interval]


def interval_of_poly(p: Polynomial, box: Box) -> Interval:
    """Exact interval enclosure of p over the box, monomial by monomial: each
    term is [c, c] times the `_iv_pow` of its factors in turn, and the terms
    are summed in `p.terms` order."""
    lo = hi = Fraction(0)
    for m, c in p.terms.items():
        tlo = thi = c
        for i, (v, e) in enumerate(m):
            b = _iv_pow(box[v], e) if e != 1 else box[v]
            if i == 0:  # the point [c, c] times b: two products, ordered by the sign of c
                tlo, thi = (c * b.lo, c * b.hi) if c > 0 else (c * b.hi, c * b.lo)
            else:
                prods = (tlo * b.lo, tlo * b.hi, thi * b.lo, thi * b.hi)
                tlo, thi = min(prods), max(prods)
        lo += tlo
        hi += thi
    return Interval(lo, hi)


def _decide(op: str, lo, hi) -> int:
    """Three-valued truth of `d op 0` from bounds lo <= d <= hi: +1 certainly
    true, -1 certainly false, 0 unknown.  Widening [lo, hi] never turns an
    answer of +1 or -1 into the opposite one, only into 0."""
    if op == ">=":
        return 1 if lo >= 0 else (-1 if hi < 0 else 0)
    if op == ">":
        return 1 if lo > 0 else (-1 if hi <= 0 else 0)
    if op == "<=":
        return 1 if hi <= 0 else (-1 if lo > 0 else 0)
    if op == "<":
        return 1 if hi < 0 else (-1 if lo >= 0 else 0)
    if op == "=":
        if lo == hi == 0:
            return 1
        return -1 if (lo > 0 or hi < 0) else 0
    if op == "!=":
        if lo > 0 or hi < 0:
            return 1
        return -1 if lo == hi == 0 else 0
    raise TypeError(f"unknown comparison {op!r}")


# ---------------------------------------------------------------------------
# Float screen: outward-rounded float intervals that enclose the exact ones.
#
# A Fraction becomes a float pair [lo, hi] around it, and every add, mul and
# pow step is rounded outward with `math.nextafter`: a lower bound that may
# lie above the exact value moves one ulp down, an upper bound one ulp up
# (each IEEE operation is correctly rounded, so it is off by less than one
# ulp).  Only steps known to be exact stay unrounded: a sum whose TwoSum
# error term is zero (or has the harmless sign), and a product by the unit
# coefficients +1 and -1.  Each float interval therefore contains the exact
# interval that `interval_of_poly` computes at the same step, and by
# inclusion-monotonicity a conclusive `_decide` answer (+1 or -1) on the
# float enclosure equals the exact answer.  Magnitudes above 2**1000 raise
# OverflowError, which the screen reports as inconclusive (0), so no
# infinity or NaN enters an operation and TwoSum never overflows.

_INF = math.inf
_BIG = 2.0**1000
_nextafter = math.nextafter


def _enclose(q: Fraction) -> tuple[float, float]:
    """Floats lo <= q <= hi, equal when a float holds q exactly."""
    n, d = q.numerator, q.denominator
    f = n / d  # correctly rounded; OverflowError when out of range
    if not -_BIG <= f <= _BIG:
        raise OverflowError("rational out of float screen range")
    if d & (d - 1) == 0:
        # n / 2**k is a float when the odd part of n has at most 53 bits and
        # its last bit is not below the smallest subnormal, 2**-1074
        tz = (n & -n).bit_length() - 1 if n else 0
        if (abs(n) >> tz).bit_length() <= 53 and tz - d.bit_length() >= -1075:
            return f, f
    return _nextafter(f, -_INF), _nextafter(f, _INF)


def _fmul(alo: float, ahi: float, blo: float, bhi: float) -> tuple[float, float]:
    prods = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    lo, hi = _nextafter(min(prods), -_INF), _nextafter(max(prods), _INF)
    if not -_BIG <= lo <= hi <= _BIG:
        raise OverflowError("float interval product out of range")
    return lo, hi


def _pow_toward(x: float, e: int, toward: float) -> float:
    """x**e for x >= 0, each product rounded toward -inf (a lower bound) or
    +inf (an upper bound)."""
    p = x
    for _ in range(e - 1):
        p = _nextafter(p * x, toward)
    return p


def _fpow(lo: float, hi: float, e: int) -> tuple[float, float]:
    """Outward-rounded `_iv_pow` for e >= 2, case by case."""
    if e % 2 == 1:
        plo = _pow_toward(lo, e, -_INF) if lo >= 0 else -_pow_toward(-lo, e, _INF)
        phi = _pow_toward(hi, e, _INF) if hi >= 0 else -_pow_toward(-hi, e, -_INF)
    elif lo <= 0 <= hi:
        plo, phi = 0.0, _pow_toward(max(-lo, hi), e, _INF)
    elif hi < 0:
        plo, phi = _pow_toward(-hi, e, -_INF), _pow_toward(-lo, e, _INF)
    else:
        plo, phi = _pow_toward(lo, e, -_INF), _pow_toward(hi, e, _INF)
    if not -_BIG <= plo <= phi <= _BIG:
        raise OverflowError("float interval power out of range")
    return plo, phi


def _add_toward(a: float, b: float, toward: float) -> float:
    """a + b rounded toward -inf (a lower bound) or +inf (an upper bound):
    the rounded sum, moved one ulp when its TwoSum error term shows that
    rounding went the other way."""
    s = a + b
    z = s - a
    err = (a - (s - z)) + (b - z)  # exactly a + b - s
    if (err < 0) if toward < 0 else (err > 0):
        return _nextafter(s, toward)
    return s


def _float_terms(p: Polynomial) -> Optional[tuple]:
    """(coefficient lo, coefficient hi, monomial) per term, in `p.terms`
    order; None when a coefficient is out of float range."""
    try:
        return tuple((*_enclose(c), m) for m, c in p.terms.items())
    except OverflowError:
        return None


def _float_enclosure(fterms: tuple, fbox: dict) -> tuple[float, float]:
    """Float bounds around `interval_of_poly` over the box whose float
    bounds are `fbox` (name -> (lo, hi)), built monomial by monomial in the
    same order.  Raises OverflowError when a bound leaves the float range."""
    lo = hi = 0.0
    for tlo, thi, m in fterms:
        for v, e in m:
            blo, bhi = fbox[v]
            if e != 1:
                blo, bhi = _fpow(blo, bhi, e)
            if tlo == thi == 1.0:
                tlo, thi = blo, bhi
            elif tlo == thi == -1.0:
                tlo, thi = -bhi, -blo
            else:
                tlo, thi = _fmul(tlo, thi, blo, bhi)
        lo, hi = _add_toward(lo, tlo, -_INF), _add_toward(hi, thi, _INF)
    if not -_BIG <= lo <= hi <= _BIG:
        raise OverflowError("float interval sum out of range")
    return lo, hi


def _float_box(box: Box) -> Optional[dict]:
    """Float bounds around each interval of a box; None when one is out of
    float range."""
    try:
        return {v: (_enclose(iv.lo)[0], _enclose(iv.hi)[1]) for v, iv in box.items()}
    except OverflowError:
        return None


# ---------------------------------------------------------------------------
# Formulas compiled once: nested tuples whose atoms carry their difference
# polynomial lhs - rhs and its float coefficients.

_LIT, _ATOM, _NOT, _AND, _OR = range(5)


def _compile(f: Formula) -> tuple:
    if isinstance(f, BoolLit):
        return (_LIT, 1 if f.value else -1)
    if isinstance(f, Cmp):
        d = f.lhs - f.rhs
        return (_ATOM, f.op, d, _float_terms(d))
    if isinstance(f, Not):
        return (_NOT, _compile(f.arg))
    if isinstance(f, And):
        return (_AND, _compile(f.left), _compile(f.right))
    if isinstance(f, Or):
        return (_OR, _compile(f.left), _compile(f.right))
    if isinstance(f, Implies):
        return (_OR, (_NOT, _compile(f.left)), _compile(f.right))
    raise TypeError(f"cannot evaluate {f!r}")


def _eval3(node: tuple, box: Box, fbox: Optional[dict]) -> int:
    """Three-valued truth over the box.  With `fbox`, the float bounds of the
    same box, the float screen decides each atom it can and exact interval
    arithmetic decides the rest, so the answer never depends on `fbox`."""
    kind = node[0]
    if kind == _ATOM:
        _, op, d, fterms = node
        if fbox is not None and fterms is not None:
            try:
                answer = _decide(op, *_float_enclosure(fterms, fbox))
            except OverflowError:
                answer = 0
            if answer:
                return answer
        iv = interval_of_poly(d, box)
        return _decide(op, iv.lo, iv.hi)
    if kind == _AND:
        a = _eval3(node[1], box, fbox)
        if a == -1:
            return -1
        b = _eval3(node[2], box, fbox)
        return -1 if b == -1 else min(a, b)
    if kind == _OR:
        a = _eval3(node[1], box, fbox)
        if a == 1:
            return 1
        b = _eval3(node[2], box, fbox)
        return 1 if b == 1 else max(a, b)
    if kind == _NOT:
        return -_eval3(node[1], box, fbox)
    return node[1]


_HOLDS = {
    "=": lambda d: d == 0,
    "!=": lambda d: d != 0,
    ">=": lambda d: d >= 0,
    ">": lambda d: d > 0,
    "<=": lambda d: d <= 0,
    "<": lambda d: d < 0,
}


def _holds(node: tuple, point: dict) -> bool:
    """Exact rational truth at a point."""
    kind = node[0]
    if kind == _ATOM:
        return _HOLDS[node[1]](node[2].eval_rational(point))
    if kind == _AND:
        return _holds(node[1], point) and _holds(node[2], point)
    if kind == _OR:
        return _holds(node[1], point) or _holds(node[2], point)
    if kind == _NOT:
        return not _holds(node[1], point)
    return node[1] == 1


def eval_formula3(f: Formula, box: Box) -> int:
    """Three-valued truth over a box by exact interval arithmetic: +1
    certainly true, -1 certainly false, 0 unknown."""
    return _eval3(_compile(f), box, None)


def eval_formula_exact(f: Formula, point: dict) -> bool:
    """Exact rational truth of a quantifier-free formula at a point."""
    return _holds(_compile(f), point)


# ---------------------------------------------------------------------------
# Obligations and verdicts


@dataclass(frozen=True)
class ArithObligation:
    """forall universals (hypothesis -> conclusion), bodies quantifier-free."""

    universals: tuple
    hypothesis: Formula
    conclusion: Formula

    def __post_init__(self):
        for part in (self.hypothesis, self.conclusion):
            if not is_quantifier_free(part):
                raise ValueError("obligation bodies must be quantifier- and modality-free")
        free = formula_variables(self.hypothesis) | formula_variables(self.conclusion)
        if not free <= set(self.universals):
            raise ValueError(f"free variables {sorted(free - set(self.universals))} not quantified")

    @classmethod
    def closure(cls, hypothesis: Formula, conclusion: Formula) -> "ArithObligation":
        """hypothesis -> conclusion, quantified over its free variables in name order."""
        names = formula_variables(hypothesis) | formula_variables(conclusion)
        return cls(tuple(sorted(names)), hypothesis, conclusion)

    def describe(self) -> str:
        return f"{print_formula(self.hypothesis)} -> {print_formula(self.conclusion)}"


VALID = "valid"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


@dataclass
class ArithVerdict:
    status: str
    counterexample: Optional[dict] = None
    trace: dict = field(default_factory=dict)

    @property
    def is_valid(self) -> bool:
        return self.status == VALID


@dataclass(frozen=True)
class Budget:
    max_cells: int = 200_000
    max_seconds: float = 10.0


# ---------------------------------------------------------------------------
# Box extraction from hypothesis atoms


def _root_upper(x: Fraction, k: int) -> Fraction:
    """Smallest n/64 with (n/64)^k >= x, for x >= 0 (outward rational root)."""
    if x <= 0:
        return Fraction(0)
    n = max(1, math.ceil(64 * float(x) ** (1.0 / k)))
    while Fraction(n, 64) ** k < x:
        n += 1
    while n > 1 and Fraction(n - 1, 64) ** k >= x:
        n -= 1
    return Fraction(n, 64)


def _linear_parts(p: Polynomial) -> Optional[tuple[str, Fraction, Fraction]]:
    """Decompose a*v + b; None if p is not linear in a single variable."""
    names = p.variables()
    if len(names) != 1:
        return None
    (v,) = names
    if p.degree() != 1:
        return None
    a = p.coefficient(((v, 1),))
    b = p.coefficient(())
    return v, a, b


def _sum_of_even_powers(p: Polynomial) -> Optional[tuple[Fraction, dict]]:
    """Match C - sum(c_i * v_i^(2k_i)) with all c_i > 0; returns (C, {v: (c, 2k)})."""
    bound = p.coefficient(())
    body = {}
    for m, c in p.terms.items():
        if not m:
            continue
        if len(m) != 1:
            return None
        v, e = m[0]
        if e % 2 != 0 or c >= 0 or v in body:
            return None
        body[v] = (-c, e)
    if not body:
        return None
    return bound, body


def extract_box(hypothesis: Formula, universals, atoms: Optional[list] = None) -> tuple[Optional[Box], list]:
    """Per-variable bounds entailed by hypothesis conjuncts.

    Returns (box, unbounded_names); box is None when some universal has no
    finite bound.  An empty dict for `unbounded` with box=None signals an
    inconsistent set of bounds (the hypothesis is unsatisfiable).  `atoms`,
    when given, are the hypothesis's `partial_atoms`, already computed.
    """
    if atoms is None:
        atoms, _ = partial_atoms(hypothesis)
    lows: dict = {}
    highs: dict = {}

    def note_low(v, x):
        lows[v] = max(lows.get(v, x), x)

    def note_high(v, x):
        highs[v] = min(highs.get(v, x), x)

    for a in atoms:
        polys = [a.poly] if a.op in (">=", ">") else ([a.poly, -a.poly] if a.op == "=" else [])
        for e in polys:
            lin = _linear_parts(e)
            if lin is not None:
                v, coef, off = lin
                if coef > 0:
                    note_low(v, -off / coef)
                else:
                    note_high(v, -off / coef)
                continue
            sq = _sum_of_even_powers(e)
            if sq is not None:
                bound, body = sq
                if bound < 0:
                    return None, []  # unsatisfiable: sum of even powers <= negative
                for v, (c, k) in body.items():
                    r = _root_upper(bound / c, k)
                    note_low(v, -r)
                    note_high(v, r)
    box: Box = {}
    unbounded = []
    for v in universals:
        if v in lows and v in highs:
            if lows[v] > highs[v]:
                return None, []
            box[v] = Interval(lows[v], highs[v])
        else:
            unbounded.append(v)
    if unbounded:
        return None, unbounded
    return box, []


EMPTY_BOX = "empty"  # sentinel: the intersected bounds are inconsistent


def intersect_boxes(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a == EMPTY_BOX or b == EMPTY_BOX:
        return EMPTY_BOX
    out = {}
    for v in set(a) | set(b):
        if v in a and v in b:
            lo, hi = max(a[v].lo, b[v].lo), min(a[v].hi, b[v].hi)
            if lo > hi:
                return EMPTY_BOX
            out[v] = Interval(lo, hi)
        else:
            out[v] = a.get(v, b.get(v))
    return out


# ---------------------------------------------------------------------------
# Symbolic certificates (pre-checks before branch and bound)


def _trivially_nonneg(p: Polynomial) -> bool:
    """Every term a nonnegative multiple of even powers: p >= 0 everywhere."""
    if p.is_zero():
        return True
    return all(c > 0 and all(e % 2 == 0 for _, e in m) for m, c in p.terms.items())


def _derive_atom(goal: NormAtom, atoms: list, box: Optional[Box]) -> bool:
    """Does the atom conjunction entail `goal` (op in >=, >, =)?"""
    eqs = equality_polys(atoms)
    e = reduce_mod_equalities(goal.poly, eqs)
    strict = goal.op == ">"

    if goal.op == "=":
        return e.is_zero()

    c = e.constant_value()
    if c is not None:
        return c > 0 if strict else c >= 0

    if not strict and _trivially_nonneg(e):
        return True

    # usable nonnegative facts: inequalities, plus both signs of equalities
    facts: list[tuple[Polynomial, bool]] = []  # (poly >= 0, is_strict)
    neq_polys = set()
    for a in atoms:
        if a.op in (">=", ">"):
            facts.append((a.poly, a.op == ">"))
        elif a.op == "=":
            facts.append((a.poly, False))
            facts.append((-a.poly, False))
        else:
            neq_polys.add(primitive(a.poly))

    ep = primitive(e)
    candidates = [(f, s) for f, s in facts]
    for i in range(len(facts)):
        for j in range(i + 1, len(facts)):
            s = facts[i][0] + facts[j][0]
            if not s.is_zero():
                candidates.append((s, facts[i][1] or facts[j][1]))

    e_const = e.coefficient(())
    e_body = len(e.terms) - (() in e.terms)  # number of non-constant terms
    for fpoly, fstrict in candidates:
        if fpoly.is_zero():
            continue
        # primitive() keeps the monomials, so only equal monomial sets can match
        if fpoly.terms.keys() == ep.terms.keys() and primitive(fpoly) == ep:
            if not strict or fstrict:
                return True
            # e >= 0 known; strictness from a disequality on the same polynomial
            if _canonical_sign(ep) in neq_polys or primitive(_canonical_sign(ep)) in neq_polys:
                return True
        # e - fpoly is a constant exactly when their non-constant parts agree
        if len(fpoly.terms) - (() in fpoly.terms) != e_body:
            continue
        if any(m and e.terms.get(m) != c for m, c in fpoly.terms.items()):
            continue
        rc = e_const - fpoly.coefficient(())
        if rc >= 0:
            if not strict or fstrict or rc > 0:
                return True

    # division: e = a*q + r with a >= 0 from hypothesis, q sign-definite on box
    for fpoly, fstrict in facts:
        if fpoly.is_constant() or fpoly.degree() > e.degree():
            continue
        q, r = poly_divmod(e, fpoly)
        rc = r.constant_value()
        if rc is None or rc < 0 or q.is_zero():
            continue
        qc = q.constant_value()
        if qc is not None:
            q_nonneg, q_pos = qc >= 0, qc > 0
        elif box is not None and all(v in box for v in q.variables()):
            iv = interval_of_poly(q, box)
            q_nonneg, q_pos = iv.lo >= 0, iv.lo > 0
        else:
            continue
        if not q_nonneg:
            continue
        if not strict:
            return True
        if rc > 0 or (fstrict and q_pos):
            return True
    return False


def _symbolic_valid(hyp_atoms: list, conclusion: Formula, box: Optional[Box]) -> Optional[str]:
    """Try symbolic certificates; returns a reason string when valid."""
    if contradictory(hyp_atoms):
        return "inconsistent-hypothesis"
    concl_atoms = atoms_of(conclusion)
    if concl_atoms is None:
        return None
    if all(_derive_atom(a, hyp_atoms, box) for a in concl_atoms):
        return "positive-combination"
    return None


# ---------------------------------------------------------------------------
# Branch and bound


def prove_implication(
    ob: ArithObligation,
    box: Optional[Box] = None,
    budget: Optional[Budget] = None,
) -> ArithVerdict:
    """Valid / Falsified(counterexample) / Unknown over a rational box.

    When `box` is not supplied it is extracted from hypothesis atoms of the
    shapes l <= v, v <= u, or C - sum of even powers >= 0; if some universal
    stays unbounded the verdict is Unknown.  A supplied box restricts the
    claim to that box; the caller owns the interpretation.
    """
    budget = budget or Budget()
    if not ob.universals:
        # closed obligation: decide by direct evaluation
        if not eval_formula_exact(ob.hypothesis, {}) or eval_formula_exact(ob.conclusion, {}):
            return ArithVerdict(VALID, trace={"method": "closed-evaluation", "cells": 0})
        return ArithVerdict(FALSIFIED, counterexample={}, trace={"method": "closed-evaluation", "cells": 0})
    # the hypothesis is normalised once, for the box, the pre-checks and the split
    parts = conjuncts(nnf(ob.hypothesis))
    hyp_atoms, _ = atoms_of_conjuncts(parts)
    auto_box, unbounded = extract_box(ob.hypothesis, ob.universals, hyp_atoms)
    if auto_box is None and not unbounded and box is None:
        return ArithVerdict(VALID, trace={"method": "empty-box", "cells": 0})
    work_box = intersect_boxes(box, auto_box)
    if work_box == EMPTY_BOX:
        return ArithVerdict(VALID, trace={"method": "empty-box", "cells": 0})

    reason = _symbolic_valid(hyp_atoms, ob.conclusion, work_box if isinstance(work_box, dict) and work_box else None)
    if reason is not None:
        return ArithVerdict(VALID, trace={"method": reason, "cells": 0})

    # case split on a top-level disjunction in the hypothesis
    split = next((g for g in parts if isinstance(g, Or)), None)
    if split is not None:
        rest = conj([g for g in parts if g is not split])
        stats = {"method": "case-split", "cells": 0}
        worst = VALID
        for d in disjuncts(split):
            sub = ArithObligation(ob.universals, conj([rest, d]), ob.conclusion)
            v = prove_implication(sub, box=box, budget=budget)
            stats["cells"] += v.trace.get("cells", 0)
            if v.status == FALSIFIED:
                return ArithVerdict(FALSIFIED, counterexample=v.counterexample, trace=stats)
            if v.status == UNKNOWN:
                worst = UNKNOWN
        if worst == VALID:
            return ArithVerdict(VALID, trace=stats)
        return ArithVerdict(UNKNOWN, trace=stats)

    if work_box is None or any(v not in work_box for v in ob.universals):
        missing = [v for v in ob.universals if work_box is None or v not in work_box]
        return ArithVerdict(UNKNOWN, trace={"method": "unbounded-domain", "unbounded": missing, "cells": 0})
    if work_box == {}:
        return ArithVerdict(VALID, trace={"method": "empty-box", "cells": 0})

    names = tuple(sorted(ob.universals))
    hyp, concl = _compile(ob.hypothesis), _compile(ob.conclusion)
    start = time.monotonic()
    queue = deque([(tuple(work_box[v] for v in names), 0)])
    cells = 0
    max_depth = 0
    while queue:
        cell, depth = queue.popleft()  # breadth-first: balanced refinement
        max_depth = max(max_depth, depth)
        cells += 1
        if cells > budget.max_cells or (cells % 256 == 0 and time.monotonic() - start > budget.max_seconds):
            return ArithVerdict(
                UNKNOWN,
                trace={"method": "budget-exhausted", "cells": cells, "max_depth": max_depth},
            )
        cbox = dict(zip(names, cell))
        fbox = _float_box(cbox)
        if _eval3(hyp, cbox, fbox) == -1:
            continue
        if _eval3(concl, cbox, fbox) == 1:
            continue
        mid = {v: iv.midpoint() for v, iv in cbox.items()}
        if _holds(hyp, mid) and not _holds(concl, mid):
            return ArithVerdict(
                FALSIFIED,
                counterexample=mid,
                trace={"method": "branch-and-bound", "cells": cells, "max_depth": max_depth},
            )
        widths = [iv.width() for iv in cell]
        wmax = max(widths)
        if wmax == 0:
            # point cell neither discarded nor falsified: conclusion holds here
            continue
        k = widths.index(wmax)
        iv = cell[k]
        m = iv.midpoint()
        queue.append((cell[:k] + (Interval(iv.lo, m),) + cell[k + 1 :], depth + 1))
        queue.append((cell[:k] + (Interval(m, iv.hi),) + cell[k + 1 :], depth + 1))
    return ArithVerdict(VALID, trace={"method": "branch-and-bound", "cells": cells, "max_depth": max_depth})


# ---------------------------------------------------------------------------
# Falsification by exact sampling


def _sample_grid(n: int, count: int, seed: int):
    """Grid indices in [0, 256] per variable: corners, center, then random
    points with boundary bias.  Exact values are materialized on demand."""
    rng = Random(seed)
    emitted = 0
    corners_cap = min(2**n, 32) if n else 0
    for mask in range(corners_cap):
        if emitted >= count:
            return
        emitted += 1
        yield tuple(0 if (mask >> i) & 1 else 256 for i in range(n))
    if emitted < count:
        emitted += 1
        yield (128,) * n
    while emitted < count:
        ks = [rng.randrange(0, 257) for _ in range(n)]
        if rng.random() < 0.25 and n:
            ks[rng.randrange(n)] = 0 if rng.random() < 0.5 else 256
        emitted += 1
        yield tuple(ks)


def _compile_screen(ob: ArithObligation, names):
    """Float predicate 'hypothesis holds and conclusion fails', compiled once."""

    def atom(f: Cmp) -> str:
        d = poly_src((f.lhs - f.rhs).sorted_terms(), lambda v: f"_a[{names.index(v)}]")
        if f.op == "=":
            return f"(abs({d}) <= 1e-9)"  # permissive: exact confirmation decides
        if f.op == "!=":
            return f"(abs({d}) > 1e-12)"
        return f"(({d}) {f.op} 0.0)"

    src = (
        "def _screen(_a):\n"
        f"    return {formula_src(ob.hypothesis, atom)} and not {formula_src(ob.conclusion, atom)}\n"
    )
    return build(src, "_screen")


def falsify(
    ob: ArithObligation,
    samples: int = 2000,
    seed: int = 0,
    box: Optional[Box] = None,
) -> ArithVerdict:
    """Random plus boundary-biased sampling; never returns Valid.

    Candidates are screened with a compiled float predicate and every hit is
    confirmed by exact rational evaluation, so counterexamples are exact.
    """
    auto_box, _ = extract_box(ob.hypothesis, ob.universals)
    work_box = intersect_boxes(box, auto_box)
    if work_box == EMPTY_BOX:
        return ArithVerdict(UNKNOWN, trace={"method": "sampling", "samples": 0})
    names = tuple(sorted(ob.universals))
    default = Interval(Fraction(-10), Fraction(10))
    ivs = [work_box.get(v, default) if work_box else default for v in names]
    los = [iv.lo for iv in ivs]
    spans = [iv.hi - iv.lo for iv in ivs]
    flos = [float(lo) for lo in los]
    fspans = [float(s) for s in spans]
    screen = _compile_screen(ob, names)
    tried = 0
    for ks in _sample_grid(len(names), samples, seed):
        tried += 1
        fpt = tuple(flos[i] + fspans[i] * (k / 256.0) for i, k in enumerate(ks))
        try:
            hit = screen(fpt)
        except OverflowError:
            hit = True
        if hit:
            pt = {v: los[i] + spans[i] * Fraction(k, 256) for i, (v, k) in enumerate(zip(names, ks))}
            if eval_formula_exact(ob.hypothesis, pt) and not eval_formula_exact(ob.conclusion, pt):
                return ArithVerdict(FALSIFIED, counterexample=pt, trace={"method": "sampling", "samples": tried})
    return ArithVerdict(UNKNOWN, trace={"method": "sampling", "samples": tried})


# ---------------------------------------------------------------------------
# SMT-LIB export (QF_NRA)


def _smt_frac(c: Fraction) -> str:
    if c < 0:
        return f"(- {_smt_frac(-c)})"
    if c.denominator == 1:
        return f"{c.numerator}"
    return f"(/ {c.numerator} {c.denominator})"


def _smt_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = [] if (c == 1 and m) else [_smt_frac(c)]
        for v, e in m:
            factors.extend([v] * e)
        parts.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def _smt_formula(f: Formula) -> str:
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, Cmp):
        l, r = _smt_poly(f.lhs), _smt_poly(f.rhs)
        if f.op == "!=":
            return f"(not (= {l} {r}))"
        return f"({f.op} {l} {r})"
    if isinstance(f, Not):
        return f"(not {_smt_formula(f.arg)})"
    if isinstance(f, And):
        return f"(and {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {_smt_formula(f.left)} {_smt_formula(f.right)})"
    if isinstance(f, Implies):
        return f"(=> {_smt_formula(f.left)} {_smt_formula(f.right)})"
    raise TypeError(f"cannot emit {f!r}")


def emit_smtlib(ob: ArithObligation) -> str:
    """QF_NRA script asserting hypothesis and negated conclusion.

    `unsat` from an external solver certifies the obligation Valid.
    """
    lines = [
        "(set-logic QF_NRA)",
        "(set-info :status unknown)",
    ]
    for v in sorted(ob.universals):
        lines.append(f"(declare-const {v} Real)")
    lines.append(f"(assert {_smt_formula(ob.hypothesis)})")
    lines.append(f"(assert (not {_smt_formula(ob.conclusion)}))")
    lines.append("(check-sat)")
    lines.append("(exit)")
    return "\n".join(lines) + "\n"


def smt_filename(index: int, ob: ArithObligation) -> str:
    digest = hashlib.sha256(emit_smtlib(ob).encode()).hexdigest()[:8]
    return f"ob-{index}-{digest}.smt2"
