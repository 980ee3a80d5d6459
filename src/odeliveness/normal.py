"""Formula normalization: negation normal form and normalized atoms.

A normalized atom puts a comparison into one of the shapes e >= 0, e > 0,
e = 0, e != 0 over a single difference polynomial.  Equalities and
disequalities are sign-canonicalized (leading graded-lex coefficient
positive) so that structural matching catches both orientations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .record import Frozen
from .symbolic import Polynomial, grlex_key, primitive
from .syntax import (
    And,
    BoolLit,
    Cmp,
    Formula,
    Implies,
    Not,
    Or,
    Quant,
    conj,
    conjuncts,
)

_NEG = {"=": "!=", "!=": "=", ">=": "<", "<": ">=", ">": "<=", "<=": ">"}


def nnf(f: Formula) -> Formula:
    """Negation normal form; implications expanded, negations pushed to atoms.
    A node that is already in NNF is returned itself, memo slots and all."""
    if isinstance(f, (BoolLit, Cmp)):
        return f
    if isinstance(f, (And, Or)):
        left, right = nnf(f.left), nnf(f.right)
        return f if left is f.left and right is f.right else type(f)(left, right)
    if isinstance(f, Implies):
        return Or(nnf(Not(f.left)), nnf(f.right))
    if isinstance(f, Quant):
        body = nnf(f.body)
        return f if body is f.body else Quant(f.kind, f.var, body)
    if isinstance(f, Not):
        g = f.arg
        if isinstance(g, BoolLit):
            return BoolLit(not g.value)
        if isinstance(g, Cmp):
            return Cmp(_NEG[g.op], g.lhs, g.rhs)
        if isinstance(g, Not):
            return nnf(g.arg)
        if isinstance(g, And):
            return Or(nnf(Not(g.left)), nnf(Not(g.right)))
        if isinstance(g, Or):
            return And(nnf(Not(g.left)), nnf(Not(g.right)))
        if isinstance(g, Implies):
            return And(nnf(g.left), nnf(Not(g.right)))
        if isinstance(g, Quant):
            dual = "exists" if g.kind == "forall" else "forall"
            return Quant(dual, g.var, nnf(Not(g.body)))
    raise TypeError(f"cannot normalize {f!r}")


def negate(f: Formula) -> Formula:
    return nnf(Not(f))


class NormAtom(Frozen):
    """Comparison in normalized form: poly `op` 0 with op in >=, >, =, !=."""

    __slots__ = ("op", "poly")

    def to_formula(self) -> Formula:
        return Cmp(self.op, self.poly, Polynomial.const(0))


def _canonical_sign(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    universe = tuple(sorted(p.variables()))
    _, c = p.leading(universe)
    return -p if c < 0 else p


_FLIP = {"<=": ">=", "<": ">"}


def norm_atom(c: Cmp) -> NormAtom:
    op = _FLIP.get(c.op)
    if op is not None:
        return NormAtom(op, c.rhs - c.lhs)
    e = c.lhs - c.rhs
    if c.op in ("=", "!="):
        e = _canonical_sign(e)
    return NormAtom(c.op, e)


def atoms_of(f: Formula) -> Optional[list[NormAtom]]:
    """Normalized atoms of a pure conjunction; None if f is not one."""
    atoms, complete = partial_atoms(f)
    return atoms if complete else None


def partial_atoms(f: Formula) -> tuple[list[NormAtom], bool]:
    """Normalized atoms of the atomic top-level conjuncts of f.

    Non-atomic conjuncts (disjunctions and the like) are skipped; dropping
    hypotheses only weakens what may be derived, so consumers stay sound.
    The flag reports whether the conjunction was covered completely.
    """
    return atoms_of_conjuncts(conjuncts(nnf(f)))


def atoms_of_conjuncts(parts: list[Formula]) -> tuple[list[NormAtom], bool]:
    """`partial_atoms` over conjuncts already taken from a formula in NNF."""
    out: list[NormAtom] = []
    complete = True
    for g in parts:
        if isinstance(g, BoolLit):
            if not g.value:
                out.append(NormAtom(">", Polynomial.const(0)))  # unsatisfiable atom
            continue
        if isinstance(g, Cmp):
            out.append(norm_atom(g))
        else:
            complete = False
    return out, complete


def contradictory(atoms: list[NormAtom]) -> bool:
    """Sound syntactic inconsistency check over a conjunction of atoms."""
    polys: dict = {"=": [], "!=": [], ">=": [], ">": []}
    for a in atoms:
        if not a.poly.is_constant():
            polys[a.op].append(a.poly)
            continue
        c = a.poly.terms.get((), 0)  # the constant's sign, over den > 0
        if not {">=": c >= 0, ">": c > 0, "=": c == 0, "!=": c != 0}[a.op]:
            return True
    if not polys["="] and not polys[">"]:
        return False  # every conflict below takes an equality or a strict atom
    # one primitive polynomial for two iff each is a positive multiple of the other
    eqs, neqs, ge, gt = ({primitive(p) for p in polys[op]} for op in ("=", "!=", ">=", ">"))
    if any(e in neqs or e in gt or -e in gt for e in eqs):
        return True
    return any(-e in gt or -e in ge for e in gt)


def equality_polys(atoms: list[NormAtom]) -> list[Polynomial]:
    """Polynomials known to vanish on the hypothesis set, deterministic order."""
    eqs = [a.poly for a in atoms if a.op == "=" and not a.poly.is_constant()]
    return sorted(eqs, key=lambda p: (p.degree(), len(p.terms), _poly_sort_key(p)))


def _poly_sort_key(p: Polynomial):
    universe = tuple(sorted(p.variables()))
    return tuple(
        (grlex_key(m, universe), Fraction(c, p.den))
        for m, c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0], universe))
    )


def formula_of_atoms(atoms: list[NormAtom]) -> Formula:
    return conj([a.to_formula() for a in atoms])
