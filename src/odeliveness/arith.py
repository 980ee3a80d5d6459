"""Sound-incomplete real-arithmetic backend.

Obligations are universally quantified implications between quantifier-free
formulas.  The hypothesis half of an obligation is normalised once into a
`Region`: its conjuncts and atoms, its box, its compiled form and its truth
at the box's centre.  `prove_implication` reads the `Region` from a dict
that the caller may share, so every conclusion proved over one hypothesis
(every candidate of a bound search, every premise over one domain) reads
one normal form; `rules.Checker` keeps one such dict per command.  Each
obligation then goes in this order: (1) the box its hypothesis atoms
bound; (2) the root-midpoint refutation: when the box is bounded and the
hypothesis has no top-level disjunction, the centre of the box is tried as
an exact counterexample, which is what branch-and-bound's first cell would
find; (3) cheap symbolic certificates (inconsistent hypothesis, reduction
modulo hypothesis equalities, positive combinations of hypothesis atoms,
exact division by a hypothesis atom with a sign-definite quotient); (4) a
case split on a top-level disjunction, each disjunct proved through
`prove_implication` with its own `Region`; (5) interval branch-and-bound
over the box, which skips the centre (2) tried.  The conclusion is compiled
only when (2) or (5) reads it, and its atoms are normalised only when (3)
reads them.  The set-up works on numerators: each root is a pair of them,
the box is the integer cell of the winning roots, and each atom compiles
from the numerators of the difference of its two sides.  Every cell is
evaluated exactly, in integers scaled by a positive constant per atom and
cell, so the prover needs no rounding tolerance: Valid is never returned for
an obligation that is falsifiable over its box.  The symbolic certificates
are sound, so they never prove an obligation that (2) refutes, and putting
(2) first changes no verdict.  Every step is monotone in the constant of a
one-atom conclusion: loosening `p <= c` to `p <= c + d` (d >= 0) keeps Valid
Valid, with no more cells, which lets `topology.first_proved` bisect.

`falsify` samples exact rational points and can only ever answer Falsified or
Unknown; counterexamples re-verify by rational evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from collections import deque
from fractions import Fraction
from typing import Optional

from .codegen import build, formula_src, poly_src
from .errors import MissingBinding
from .normal import (
    _FLIP,
    NormAtom,
    _canonical_sign,
    atoms_of_conjuncts,
    contradictory,
    equality_polys,
    nnf,
    partial_atoms,
)
from .record import Frozen, Record
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


class Interval(Frozen):
    __slots__ = ("lo", "hi")

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _iv_pow(lo, hi, e: int) -> tuple:
    """Bounds of x**e for lo <= x <= hi, e >= 2, case by case."""
    if e % 2 == 1:
        return lo**e, hi**e
    if lo <= 0 <= hi:
        return 0, max(lo**e, hi**e)
    if hi < 0:
        return hi**e, lo**e
    return lo**e, hi**e


Box = dict  # dict[str, Interval]


def _decide(op: str, lo, hi) -> int:
    """Three-valued truth of `d op 0` from bounds lo <= d <= hi: +1 certainly
    true, -1 certainly false, 0 unknown.  Widening [lo, hi] never turns an
    answer of +1 or -1 into the opposite one, only into 0; scaling both
    bounds by one positive constant never changes it; on a point (lo == hi)
    it is never 0."""
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
# Exact evaluation in scaled integers.
#
# A polynomial d is compiled once: scaled by its denominator s, each term
# becomes its integer numerator, its factors, and the gaps M_v - e_v, where
# M_v is the highest degree of v in d.  A cell gives each variable v
# integer bounds L_v <= H_v over one positive
# denominator D_v (`_scaled`).  `_enclosure` runs the steps of the interval
# enclosure on the numerators and multiplies each term by prod D_v^(M_v - e_v),
# so every bound it returns is the exact rational bound times
# K = s * prod D_v^M_v > 0, and every comparison with zero is exact.  A point
# is a cell with L_v = H_v.


def _scaled_poly(p: Polynomial) -> tuple:
    """(terms, degrees) of p scaled by s = p.den: terms as (integer
    numerator, factors, gaps) in p's order, and M_v per variable."""
    degrees: dict = {}
    for m in p.terms:
        for v, e in m:
            if e > degrees.get(v, 0):
                degrees[v] = e
    terms = []
    for m, c in p.terms.items():
        exps = dict(m)
        gaps = tuple((v, k - exps.get(v, 0)) for v, k in degrees.items() if k > exps.get(v, 0))
        terms.append((c, m, gaps))
    return tuple(terms), degrees


def _scaled(bounds) -> dict:
    """The cell of (v, lo, hi) rational bounds: v -> (L, H, D) with D > 0,
    lo = L/D and hi = H/D."""
    cell = {}
    for v, lo, hi in bounds:
        ld, hd = lo.denominator, hi.denominator
        d = math.lcm(ld, hd)
        cell[v] = (lo.numerator * (d // ld), hi.numerator * (d // hd), d)
    return cell


def _midpoint(cell: dict) -> dict:
    """The point cell at the centre of `cell`: numerators L + H over 2D."""
    return {v: (lo + hi, lo + hi, 2 * d) for v, (lo, hi, d) in cell.items()}


def _enclosure(terms: tuple, cell: dict) -> tuple:
    """Scaled bounds of a compiled polynomial over a cell, monomial by
    monomial: each term is [c, c] times the `_iv_pow` of its factors in
    turn, times its D_v powers, and the terms are summed."""
    lo = hi = 0
    for c, m, gaps in terms:
        tlo = thi = c
        for v, e in m:
            blo, bhi, _ = cell[v]
            if e != 1:
                blo, bhi = _iv_pow(blo, bhi, e)
            if tlo == thi:  # a point (always [c, c] first) times b: two products, ordered by its sign
                tlo, thi = (tlo * blo, tlo * bhi) if tlo > 0 else (tlo * bhi, tlo * blo)
            else:
                prods = (tlo * blo, tlo * bhi, thi * blo, thi * bhi)
                tlo, thi = min(prods), max(prods)
        for v, k in gaps:
            g = cell[v][2] ** k
            tlo *= g
            thi *= g
        lo += tlo
        hi += thi
    return lo, hi


# ---------------------------------------------------------------------------
# Formulas compiled once: nested tuples whose atoms carry the scaled integer
# terms of the difference of their two sides (`_atom_node`), which is
# `norm_atom`'s up to the sign of `=` and `!=` atoms, which no answer
# depends on.

_LIT, _ATOM, _NOT, _AND, _OR = range(5)


def _atom_node(op: str, d: Polynomial) -> tuple:
    return (_ATOM, op, _scaled_poly(d)[0])


def _conj_node(nodes: list) -> tuple:
    """The conjunction of compiled nodes, `true` when there are none."""
    if not nodes:
        return (_LIT, 1)
    node = nodes[0]
    for n in nodes[1:]:
        node = (_AND, node, n)
    return node


def _compile(f: Formula) -> tuple:
    if isinstance(f, BoolLit):
        return (_LIT, 1 if f.value else -1)
    if isinstance(f, Cmp):
        if f.op in _FLIP:
            return _atom_node(_FLIP[f.op], f.rhs - f.lhs)
        return _atom_node(f.op, f.lhs - f.rhs)
    if isinstance(f, Not):
        return (_NOT, _compile(f.arg))
    if isinstance(f, And):
        return (_AND, _compile(f.left), _compile(f.right))
    if isinstance(f, Or):
        return (_OR, _compile(f.left), _compile(f.right))
    if isinstance(f, Implies):
        return (_OR, (_NOT, _compile(f.left)), _compile(f.right))
    raise TypeError(f"cannot evaluate {f!r}")


def _eval3(node: tuple, cell: dict) -> int:
    """Three-valued truth over a scaled cell; on a point cell, +1 or -1."""
    kind = node[0]
    if kind == _ATOM:
        return _decide(node[1], *_enclosure(node[2], cell))
    if kind == _AND:
        a = _eval3(node[1], cell)
        if a == -1:
            return -1
        b = _eval3(node[2], cell)
        return -1 if b == -1 else min(a, b)
    if kind == _OR:
        a = _eval3(node[1], cell)
        if a == 1:
            return 1
        b = _eval3(node[2], cell)
        return 1 if b == 1 else max(a, b)
    if kind == _NOT:
        return -_eval3(node[1], cell)
    return node[1]


def eval_formula_exact(f: Formula, point: dict) -> bool:
    """Exact rational truth of a quantifier-free formula at a point."""
    node = _compile(f)
    values = [(v, Fraction(x)) for v, x in point.items()]
    try:
        return _eval3(node, _scaled((v, x, x) for v, x in values)) == 1
    except KeyError as e:  # only cell lookups raise it: an atom's variable has no value
        raise MissingBinding(f"no value for '{e.args[0]}'") from None


# ---------------------------------------------------------------------------
# Obligations and verdicts


class ArithObligation(Frozen):
    """forall universals (hypothesis -> conclusion), bodies quantifier-free."""

    __slots__ = ("universals", "hypothesis", "conclusion")

    def __post_init__(self):
        self._check(self.hypothesis, self.conclusion)

    def _check(self, *parts) -> None:
        free = set()
        for part in parts:
            if not is_quantifier_free(part):
                raise ValueError("obligation bodies must be quantifier- and modality-free")
            free |= formula_variables(part)
        if not free <= set(self.universals):
            raise ValueError(f"free variables {sorted(free - set(self.universals))} not quantified")

    @classmethod
    def closure(cls, hypothesis: Formula, conclusion: Formula) -> "ArithObligation":
        """hypothesis -> conclusion, quantified over its free variables in name order."""
        names = formula_variables(hypothesis) | formula_variables(conclusion)
        return cls(tuple(sorted(names)), hypothesis, conclusion)

    def with_conclusion(self, conclusion: Formula) -> "ArithObligation":
        """This obligation with another conclusion, which alone is checked."""
        self._check(conclusion)
        ob = object.__new__(ArithObligation)
        ob._unchecked(self.universals, self.hypothesis, conclusion)  # the hypothesis was checked with self
        return ob

    def describe(self) -> str:
        return f"{print_formula(self.hypothesis)} -> {print_formula(self.conclusion)}"


VALID = "valid"
FALSIFIED = "falsified"
UNKNOWN = "unknown"


class ArithVerdict(Record):
    __slots__ = ("status", "counterexample", "trace")

    def __init__(self, status, counterexample=None, trace=None):  # written out: see `kernel.ArithOb`
        self.status = status
        self.counterexample = counterexample
        self.trace = {} if trace is None else trace

    @property
    def is_valid(self) -> bool:
        return self.status == VALID

    def clock_stopped(self) -> bool:
        """Did the wall clock end the proof?  A stop at `max_seconds` is no
        verdict on the obligation, unlike a stop at the cell count."""
        return self.trace.get("method") == "time-exhausted"


class Budget(Frozen):
    __slots__ = ("max_cells", "max_seconds")
    _defaults = {"max_cells": 200_000, "max_seconds": 10.0}


# ---------------------------------------------------------------------------
# Box extraction from hypothesis atoms


def _root_upper(num: int, den: int, k: int) -> int:
    """The least n >= 0 with (n/64)^k >= num/den, den > 0 (an outward
    rational root n/64), found in integers: n^k * den >= num * 64^k."""
    if num <= 0:
        return 0
    t = -(-num * 64**k // den)  # n^k >= t, as n^k is an integer
    lo, hi = 1, 1 << -(-t.bit_length() // k)  # hi^k >= 2^bits > t
    while lo < hi:  # bisect for the least n in [lo, hi] with n^k >= t
        mid = (lo + hi) // 2
        if mid**k >= t:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _root(p: Polynomial) -> Optional[tuple[str, bool, int, int]]:
    """(v, a > 0, n, d) with n/d = -b/a, d > 0, read off p's numerators when
    p = a*v + b is linear in the single variable v, else None: `p >= 0`
    bounds v from below at -b/a when a > 0, from above when a < 0."""
    terms = p.terms
    b = terms.get((), 0)
    if len(terms) - (() in terms) != 1:
        return None  # not exactly one non-constant term
    for m, a in terms.items():
        if m:
            break
    if len(m) != 1 or m[0][1] != 1:
        return None
    return (m[0][0], True, -b, a) if a > 0 else (m[0][0], False, b, -a)


class _Hypothesis:
    """The normalised atoms of a hypothesis's top-level conjuncts, with what
    the box, the entailed-atom filter and the pre-checks read of them, each
    computed once per `Region`: the root (`_root`) of every atom and, when
    the pre-checks first ask, the equalities `eqs`, the `facts` `poly >= 0`
    (an equality gives both signs), the primitive polynomials `neqs` of the
    disequalities, and whether the atoms are `contradictory`.  A fact is
    (poly, is_strict, zero), where zero is (v, n, d) with -b/a = n/d, d > 0,
    for a fact linear in one variable v, else None.  `__getattr__` builds
    each of the four on first use, as a plain attribute."""

    def __init__(self, atoms: list):
        self.atoms = atoms
        self.roots = [_root(a.poly) for a in atoms]

    def __getattr__(self, name: str):
        if name == "eqs":
            value = equality_polys(self.atoms)
        elif name == "facts":
            value = []
            for a, root in zip(self.atoms, self.roots):
                zero = root and (root[0], root[2], root[3])
                if a.op in (">=", ">"):
                    value.append((a.poly, a.op == ">", zero))
                elif a.op == "=":
                    value.append((a.poly, False, zero))
                    value.append((-a.poly, False, zero))
        elif name == "neqs":
            value = {primitive(a.poly) for a in self.atoms if a.op == "!="}
        elif name == "contradictory":
            value = contradictory(self.atoms)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


def _sum_of_even_powers(p: Polynomial) -> Optional[tuple[int, dict]]:
    """Match C - sum(c_i * v_i^(2k_i)) with all c_i > 0; returns (C, {v: (c, 2k)})
    in numerators over p's denominator."""
    bound = p.terms.get((), 0)
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


def extract_box(hypothesis: Formula, universals) -> tuple[Optional[Box], list]:
    """Per-variable bounds entailed by hypothesis conjuncts.

    Returns (box, unbounded_names); box is None when some universal has no
    finite bound.  An empty dict for `unbounded` with box=None signals an
    inconsistent set of bounds (the hypothesis is unsatisfiable).
    """
    cell, unbounded = _box_cell(_Hypothesis(partial_atoms(hypothesis)[0]), universals)
    if cell is None:
        return None, unbounded
    return {v: Interval(Fraction(lo, d), Fraction(hi, d)) for v, (lo, hi, d) in cell.items()}, []


def _box_cell(hyp: _Hypothesis, universals) -> tuple[Optional[dict], list]:
    """`extract_box` in integers, its box as the cell v -> (L, H, D) that
    `_scaled` makes of it: bounds are compared by cross-multiplication and
    reduced as a `Fraction` is."""
    lows: dict = {}  # v -> (n, d), the bound n/d with d > 0
    highs: dict = {}
    for a, root in zip(hyp.atoms, hyp.roots):
        if a.op == "!=":
            continue
        if root is not None:
            v, lower, n, d = root
            if (a.op == "=" or lower) and (v not in lows or n * lows[v][1] > lows[v][0] * d):
                lows[v] = (n, d)
            if (a.op == "=" or not lower) and (v not in highs or n * highs[v][1] < highs[v][0] * d):
                highs[v] = (n, d)
            continue
        for e in [a.poly] if a.op != "=" else [a.poly, -a.poly]:
            sq = _sum_of_even_powers(e)
            if sq is not None:
                bound, body = sq
                if bound < 0:
                    return None, []  # unsatisfiable: sum of even powers <= negative
                for v, (c, k) in body.items():
                    r = _root_upper(bound, c, k)
                    if v not in lows or -r * lows[v][1] > lows[v][0] * 64:
                        lows[v] = (-r, 64)
                    if v not in highs or r * highs[v][1] < highs[v][0] * 64:
                        highs[v] = (r, 64)
    cell: dict = {}
    unbounded = []
    for v in universals:
        if v in lows and v in highs:
            (ln, ld), (hn, hd) = lows[v], highs[v]
            if ln * hd > hn * ld:
                return None, []
            g, h = math.gcd(ln, ld), math.gcd(hn, hd)
            ld, hd = ld // g, hd // h
            d = math.lcm(ld, hd)
            cell[v] = (ln // g * (d // ld), hn // h * (d // hd), d)
        else:
            unbounded.append(v)
    if unbounded:
        return None, unbounded
    return cell, []


def _entailed(a: NormAtom, root, cell: dict) -> bool:
    """Does every point of the scaled cell satisfy the atom, by its root
    alone?  True for `a*v + b >= 0` when the cell's bound on v lies on the
    right side of -b/a, and for `a*v + b = 0` when the cell is that point in
    v.  Strict atoms, nonlinear atoms and disequalities are never entailed."""
    if root is None or a.op not in (">=", "="):
        return False
    v, lower, n, d = root
    lo, hi, den = cell[v]
    if a.op == "=":
        return lo == hi and lo * d == n * den
    return lo * d >= n * den if lower else hi * d <= n * den


# ---------------------------------------------------------------------------
# Symbolic certificates (pre-checks before branch and bound)


def _trivially_nonneg(p: Polynomial) -> bool:
    """Every term a nonnegative multiple of even powers: p >= 0 everywhere."""
    if p.is_zero():
        return True
    return all(c > 0 and all(e % 2 == 0 for _, e in m) for m, c in p.terms.items())


def _constant_at(p: Polynomial, v: str, n: int, d: int) -> bool:
    """Is p with v replaced by n/d (d > 0) a constant polynomial?  Decided on
    p * d^K, K the degree of p in v: each c * v^k becomes c * n^k * d^(K-k)."""
    big = p.degree_in((v,))
    rest: dict = {}
    for m, c in p.terms.items():
        k = 0
        others = []
        for w, e in m:
            if w == v:
                k = e
            else:
                others.append((w, e))
        if others:
            key = tuple(others)
            rest[key] = rest.get(key, 0) + c * n**k * d ** (big - k)
    return not any(rest.values())


def _derive_atom(goal: NormAtom, hyp: _Hypothesis, cell: Optional[dict]) -> bool:
    """Does the conjunction of the hypothesis atoms entail `goal` (op in >=,
    >, =)?"""
    e = reduce_mod_equalities(goal.poly, hyp.eqs)
    strict = goal.op == ">"

    if goal.op == "=":
        return e.is_zero()

    e_terms = e.terms  # numerators over e.den > 0, so their signs are e's
    e_const = e_terms.get((), 0)
    if e.is_constant():
        return e_const > 0 if strict else e_const >= 0

    if not strict and _trivially_nonneg(e):
        return True

    facts = hyp.facts
    # a candidate matches only if it holds every non-constant monomial of e;
    # the pair sums are built only after every single fact failed to match
    e_body_monos = [m for m in e_terms if m]

    def pair_sums():
        for i in range(len(facts)):
            missing = [m for m in e_body_monos if m not in facts[i][0].terms]
            for j in range(i + 1, len(facts)):
                if any(m not in facts[j][0].terms for m in missing):
                    continue
                s = facts[i][0] + facts[j][0]
                if not s.is_zero():
                    yield s, facts[i][1] or facts[j][1]

    candidates = itertools.chain([(f, s) for f, s, _ in facts], pair_sums())

    # e = lam*f + c with lam > 0 and c >= 0, in numerators: lam's sign is
    # that of a*b for a, b of one non-constant monomial of e and f, then each
    # other one must agree, e[m]*b == a*f[m], and c has the sign of
    # (e_const*b - a*f_const)*b.  A weaker goal e + d (d >= 0) matches the
    # same f with c + d, so this test is monotone in the goal's constant.
    e_body = len(e_terms) - (() in e_terms)  # number of non-constant terms
    m0 = e_body_monos[0]
    a = e_terms[m0]
    for fpoly, fstrict in candidates:
        f_terms = fpoly.terms
        b = f_terms.get(m0)
        if b is None or len(f_terms) - (() in f_terms) != e_body:
            continue
        if (a > 0) != (b > 0) or any(m and e_terms.get(m, 0) * b != a * c for m, c in f_terms.items()):
            continue
        rc = (e_const * b - a * f_terms.get((), 0)) * b
        if rc < 0:
            continue
        if not strict or fstrict or rc > 0:
            return True
        # e >= 0 known; strictness from a disequality on the same polynomial
        if _canonical_sign(primitive(e)) in hyp.neqs:
            return True

    # division: e = f*q + r with f >= 0 from hypothesis, q sign-definite on
    # the box's cell; the signs of r, q and q's enclosure are those of their
    # numerators
    for fpoly, fstrict, zero in facts:
        if fpoly.is_constant() or fpoly.degree() > e.degree():
            continue
        if zero is not None and not _constant_at(e, *zero):
            continue  # dividing by a*v + b leaves e at v = -b/a, not a constant
        q, r = poly_divmod(e, fpoly)
        rc = r.terms.get((), 0)
        if not r.is_constant() or rc < 0 or q.is_zero():
            continue
        if q.is_constant():
            qlo = q.terms[()]
        elif cell is not None and all(v in cell for v in q.variables()):
            qlo, _ = _enclosure(_scaled_poly(q)[0], cell)
        else:
            continue
        q_nonneg, q_pos = qlo >= 0, qlo > 0
        if not q_nonneg:
            continue
        if not strict:
            return True
        if rc > 0 or (fstrict and q_pos):
            return True
    return False


def _symbolic_valid(hyp: _Hypothesis, concl_atoms: Optional[list], cell: Optional[dict]) -> Optional[str]:
    """Try symbolic certificates; returns a reason string when valid.
    `concl_atoms` are the conclusion's atoms, None unless it is a pure
    conjunction of them."""
    if hyp.contradictory:
        return "inconsistent-hypothesis"
    if concl_atoms is None:
        return None
    if all(_derive_atom(a, hyp, cell) for a in concl_atoms):
        return "positive-combination"
    return None


# ---------------------------------------------------------------------------
# Branch and bound


def _falsified(mid: dict, cells: int, max_depth: int) -> ArithVerdict:
    """Falsified at a midpoint cell that branch-and-bound's cell `cells` built."""
    return ArithVerdict(
        FALSIFIED,
        counterexample={v: Fraction(n, d) for v, (n, _, d) in mid.items()},
        trace={"method": "branch-and-bound", "cells": cells, "max_depth": max_depth},
    )


class Region:
    """The hypothesis half of every obligation `forall universals
    (hypothesis -> _)`, normalised once: the top-level conjuncts of its NNF
    and their `_Hypothesis`, the cell of the box or the unbounded universals,
    and, when the box is bounded and no conjunct is a disjunction, the compiled
    hypothesis without the atoms the box entails, the root cell, and the
    hypothesis's truth at the root cell's midpoint.  A closed hypothesis
    (no universals) keeps only its truth."""

    def __init__(self, universals: tuple, hypothesis: Formula):
        self.mid = None  # the root midpoint, when there is a root cell
        if not universals:
            self.holds = eval_formula_exact(hypothesis, {})
            return
        self.parts = parts = conjuncts(nnf(hypothesis))
        self.hyp = hyp = _Hypothesis(atoms_of_conjuncts(parts)[0])
        self.cell, self.unbounded = _box_cell(hyp, universals)
        self.split = next((g for g in parts if isinstance(g, Or)), None)
        if self.split is None and self.cell is not None:
            # Without a top-level disjunction every conjunct is an atom.  Atoms
            # the box entails hold on every cell, and +1 is the unit of the
            # conjunction, so dropping them changes no cell's answer.
            self.names = names = tuple(sorted(universals))
            cell = {v: self.cell[v] for v in names}
            kept = [a for a, r in zip(hyp.atoms, hyp.roots) if not _entailed(a, r, cell)]
            self.node = _conj_node([_atom_node(a.op, a.poly) for a in kept])
            self.root_cell = tuple(cell.values())
            self.mid = _midpoint(cell)
            self.mid_truth = _eval3(self.node, self.mid)

    def __getattr__(self, name: str):
        """`cases` on first use, then a plain attribute: the other conjuncts
        with each disjunct of the first top-level disjunction."""
        if name != "cases":
            raise AttributeError(name)
        rest = conj([g for g in self.parts if g is not self.split])
        self.cases = [conj([rest, d]) for d in disjuncts(self.split)]
        return self.cases


def _conclusion_node(parts: list) -> tuple:
    """The compiled conjunction of a conclusion's top-level conjuncts."""
    return _conj_node([_compile(g) for g in parts])


def prove_implication(
    ob: ArithObligation, budget: Optional[Budget] = None, regions: Optional[dict] = None
) -> ArithVerdict:
    """Valid / Falsified(counterexample) / Unknown over a rational box.

    The box is extracted from hypothesis atoms of the shapes l <= v, v <= u,
    or C - sum of even powers >= 0; if some universal stays unbounded the
    verdict is Unknown.  The steps run in the order of the module docstring:
    box, root-midpoint refutation, pre-checks, case split, branch-and-bound.

    `regions` maps (universals, hypothesis) to the obligation's `Region`; it
    is read, and filled for a hypothesis not yet in it, so every obligation
    proved through one dict over one hypothesis reads one normal form.
    """
    budget = budget or Budget()
    if regions is None:
        region = Region(ob.universals, ob.hypothesis)
    else:
        key = (ob.universals, ob.hypothesis)
        region = regions.get(key)
        if region is None:
            region = regions[key] = Region(ob.universals, ob.hypothesis)
    if not ob.universals:
        # closed obligation: decide by direct evaluation
        if not region.holds or eval_formula_exact(ob.conclusion, {}):
            return ArithVerdict(VALID, trace={"method": "closed-evaluation", "cells": 0})
        return ArithVerdict(FALSIFIED, counterexample={}, trace={"method": "closed-evaluation", "cells": 0})
    if region.cell is None and not region.unbounded:
        return ArithVerdict(VALID, trace={"method": "empty-box", "cells": 0})
    concl_parts = conjuncts(nnf(ob.conclusion))

    # Refute first: when the root midpoint is an exact counterexample,
    # branch-and-bound's first cell can neither discard nor accept the root,
    # so it returns this midpoint; the sound pre-checks cannot prove the
    # obligation either.  With no cell to spend, the first cell is
    # budget-exhausted instead, so the probe waits for it.  The conclusion
    # is compiled only when the hypothesis holds at the midpoint.
    concl_node = None
    if region.mid is not None and budget.max_cells >= 1 and region.mid_truth == 1:
        concl_node = _conclusion_node(concl_parts)
        if _eval3(concl_node, region.mid) == -1:
            return _falsified(region.mid, 1, 0)

    concl_atoms, concl_complete = atoms_of_conjuncts(concl_parts)
    reason = _symbolic_valid(region.hyp, concl_atoms if concl_complete else None, region.cell)
    if reason is not None:
        return ArithVerdict(VALID, trace={"method": reason, "cells": 0})

    # case split on a top-level disjunction in the hypothesis; the disjuncts
    # share the cell and seconds budgets, each getting what the earlier ones
    # left, and once the cells are spent the split is Unknown; a disjunct
    # stopped by the clock stops the split, which reads as that stop
    if region.split is not None:
        stats = {"method": "case-split", "cells": 0}
        worst = VALID
        start = time.monotonic()
        for case in region.cases:
            if stats["cells"] > budget.max_cells:
                return ArithVerdict(UNKNOWN, trace=stats)
            sub = ArithObligation(ob.universals, case, ob.conclusion)
            seconds = budget.max_seconds - (time.monotonic() - start)
            v = prove_implication(sub, budget=Budget(budget.max_cells - stats["cells"], seconds), regions=regions)
            stats["cells"] += v.trace.get("cells", 0)
            if v.clock_stopped():
                return ArithVerdict(UNKNOWN, trace={**v.trace, "cells": stats["cells"]})
            if v.status == FALSIFIED:
                return ArithVerdict(FALSIFIED, counterexample=v.counterexample, trace=stats)
            if v.status == UNKNOWN:
                worst = UNKNOWN
        if worst == VALID:
            return ArithVerdict(VALID, trace=stats)
        return ArithVerdict(UNKNOWN, trace=stats)

    if region.cell is None:
        return ArithVerdict(UNKNOWN, trace={"method": "unbounded-domain", "unbounded": region.unbounded, "cells": 0})
    if concl_node is None:
        concl_node = _conclusion_node(concl_parts)
    return _branch_and_bound(region.names, region.node, concl_node, region.root_cell, budget)


def _branch_and_bound(names: tuple, hyp: tuple, concl: tuple, root: tuple, budget: Budget) -> ArithVerdict:
    """Breadth-first interval branch-and-bound from the root cell, over the
    compiled hypothesis and conclusion; cells are tuples of (L, H, D) in
    `names` order.  The root cell's midpoint is not tried again: the
    refutation probe did that before the pre-checks."""
    start = time.monotonic()
    queue = deque([(root, 0)])
    cells = 0
    max_depth = 0
    while queue:
        cell, depth = queue.popleft()  # breadth-first: balanced refinement
        max_depth = max(max_depth, depth)
        cells += 1
        if cells > budget.max_cells:
            return ArithVerdict(UNKNOWN, trace={"method": "budget-exhausted", "cells": cells, "max_depth": max_depth})
        if cells % 256 == 0 and time.monotonic() - start > budget.max_seconds:
            return ArithVerdict(UNKNOWN, trace={"method": "time-exhausted", "cells": cells, "max_depth": max_depth})
        scaled = dict(zip(names, cell))
        if _eval3(hyp, scaled) == -1:
            continue
        if _eval3(concl, scaled) == 1:
            continue
        if depth:
            mid = _midpoint(scaled)
            if _eval3(hyp, mid) == 1 and _eval3(concl, mid) == -1:
                return _falsified(mid, cells, max_depth)
        # split the first widest interval, comparing widths (H - L) / D exactly
        k = 0
        for i, (lo, hi, d) in enumerate(cell):
            if (hi - lo) * cell[k][2] > (cell[k][1] - cell[k][0]) * d:
                k = i
        lo, hi, d = cell[k]
        if lo == hi:
            # point cell neither discarded nor falsified: conclusion holds here
            continue
        queue.append((cell[:k] + ((2 * lo, lo + hi, 2 * d),) + cell[k + 1 :], depth + 1))
        queue.append((cell[:k] + ((lo + hi, 2 * hi, 2 * d),) + cell[k + 1 :], depth + 1))
    return ArithVerdict(VALID, trace={"method": "branch-and-bound", "cells": cells, "max_depth": max_depth})


# ---------------------------------------------------------------------------
# Falsification by exact sampling


def _sample_grid(n: int, count: int, seed: int):
    """Grid indices in [0, 256] per variable: corners and center, then every
    other lattice point once in lexicographic order when the 257^n lattice
    has at most `count` points, else random points with boundary bias."""
    first = [tuple(0 if (mask >> i) & 1 else 256 for i in range(n)) for mask in range(min(2**n, 32) if n else 0)]
    first.append((128,) * n)
    if 257**n <= count:
        yield from first
        yield from itertools.filterfalse(set(first).__contains__, itertools.product(range(257), repeat=n))
        return
    yield from first[:count]
    from random import Random

    rng = Random(seed)
    for _ in range(count - len(first)):
        ks = [rng.randrange(0, 257) for _ in range(n)]
        if rng.random() < 0.25 and n:
            ks[rng.randrange(n)] = 0 if rng.random() < 0.5 else 256
        yield tuple(ks)


# The screens' identifiers for up to 32 variables, interned for good: a
# screen is compiled per obligation, and names that died with it would be
# interned again by the next one, which makes the interpreter's table of
# interned strings grow and reallocate (a 0.4 MB block) every few hundred
# calls.
_SCREEN_NAMES = tuple(sys.intern(f"_{c}{i}") for c in "ax" for i in range(32)) + ("_screen", "_k")


def _compile_screen(ob: ArithObligation, names, axes):
    """Float predicate 'hypothesis holds and conclusion fails' at the grid
    indices of a lattice point, compiled once; `axes[i]` lists the float
    coordinates of `names[i]`."""

    def atom(f: Cmp) -> str:
        d = poly_src(f.lhs - f.rhs, lambda v: f"_a{names.index(v)}", ordered=True)
        if f.op == "=":
            return f"(abs({d}) <= 1e-9)"  # permissive: exact confirmation decides
        if f.op == "!=":
            return f"(abs({d}) > 1e-12)"
        return f"(({d}) {f.op} 0.0)"

    src = (
        "def _screen(_k):\n"
        + "".join(f"    _a{i} = _x{i}[_k[{i}]]\n" for i in range(len(names)))
        + f"    return {formula_src(ob.hypothesis, atom)} and not {formula_src(ob.conclusion, atom)}\n"
    )
    return build(src, "_screen", {f"_x{i}": axis for i, axis in enumerate(axes)})


def falsify(ob: ArithObligation, samples: int = 2000, seed: int = 0) -> ArithVerdict:
    """Samples a 257-point lattice per variable over the hypothesis box: the
    whole lattice when it has at most `samples` points, else `samples`
    seeded boundary-biased draws; never returns Valid.

    Candidates are screened with a compiled float predicate and every hit is
    confirmed by exact rational evaluation, so counterexamples are exact.
    """
    work_box, _ = extract_box(ob.hypothesis, ob.universals)
    names = tuple(sorted(ob.universals))
    default = Interval(Fraction(-10), Fraction(10))
    ivs = [work_box[v] if work_box else default for v in names]
    los = [iv.lo for iv in ivs]
    spans = [iv.hi - iv.lo for iv in ivs]
    try:
        axes = [[float(lo) + float(span) * (k / 256.0) for k in range(257)] for lo, span in zip(los, spans)]
    except OverflowError:
        # a box bound past the float range leaves an axis with no float to screen
        return ArithVerdict(UNKNOWN, trace={"method": "sampling", "samples": 0})
    screen = _compile_screen(ob, names, axes)
    tried = 0
    for ks in _sample_grid(len(names), samples, seed):
        tried += 1
        try:
            hit = screen(ks)
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
        factors = [] if (c == p.den and m) else [_smt_frac(Fraction(c, p.den))]
        for v, e in m:
            factors.extend([v] * e)
        parts.append(factors[0] if len(factors) == 1 else "(* " + " ".join(factors) + ")")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


_SMT_CONNECTIVES = {And: "and", Or: "or", Implies: "=>"}


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
    if type(f) in _SMT_CONNECTIVES:
        return f"({_SMT_CONNECTIVES[type(f)]} {_smt_formula(f.left)} {_smt_formula(f.right)})"
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
    import hashlib

    digest = hashlib.sha256(emit_smtlib(ob).encode()).hexdigest()[:8]
    return f"ob-{index}-{digest}.smt2"
