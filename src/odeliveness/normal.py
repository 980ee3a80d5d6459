"""Formula normalization: negation normal form and normalized atoms.

A normalized atom puts a comparison into one of the shapes e >= 0, e > 0,
e = 0, e != 0 over a single difference polynomial.  Equalities and
disequalities are sign-canonicalized (leading graded-lex coefficient
positive) so that structural matching catches both orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """Negation normal form; implications expanded, negations pushed to atoms."""
    if isinstance(f, (BoolLit, Cmp)):
        return f
    if isinstance(f, And):
        return And(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return Or(nnf(f.left), nnf(f.right))
    if isinstance(f, Implies):
        return Or(nnf(Not(f.left)), nnf(f.right))
    if isinstance(f, Quant):
        return Quant(f.kind, f.var, nnf(f.body))
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


@dataclass(frozen=True)
class NormAtom:
    """Comparison in normalized form: poly `op` 0 with op in >=, >, =, !=."""

    op: str
    poly: Polynomial

    def to_formula(self) -> Formula:
        return Cmp(self.op, self.poly, Polynomial.const(0))

    def strict(self) -> bool:
        return self.op == ">"


def _canonical_sign(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    universe = tuple(sorted(p.variables()))
    _, c = p.leading(universe)
    return -p if c < 0 else p


def norm_atom(c: Cmp) -> NormAtom:
    e = c.lhs - c.rhs
    op = c.op
    if op == "<=":
        e, op = -e, ">="
    elif op == "<":
        e, op = -e, ">"
    if op in ("=", "!="):
        e = _canonical_sign(e)
    return NormAtom(op, e)


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


def atom_key(a: NormAtom):
    return (a.op, primitive(a.poly))


def contradictory(atoms: list[NormAtom]) -> bool:
    """Sound syntactic inconsistency check over a conjunction of atoms."""
    eqs = set()
    neqs = set()
    ge = set()  # primitive e with e >= 0
    gt = set()  # primitive e with e > 0
    for a in atoms:
        c = a.poly.constant_value()
        if c is not None:
            sat = {">=": c >= 0, ">": c > 0, "=": c == 0, "!=": c != 0}[a.op]
            if not sat:
                return True
            continue
        p = primitive(a.poly)
        if a.op == "=":
            eqs.add(p)
        elif a.op == "!=":
            neqs.add(p)
        elif a.op == ">=":
            ge.add(p)
        else:
            gt.add(p)
    for e in eqs:
        if e in neqs:
            return True
        if e in gt or -e in gt:
            return True
    for e in gt:
        if -e in gt or -e in ge:
            return True
    return False


def equality_polys(atoms: list[NormAtom]) -> list[Polynomial]:
    """Polynomials known to vanish on the hypothesis set, deterministic order."""
    eqs = [a.poly for a in atoms if a.op == "=" and not a.poly.is_constant()]
    return sorted(eqs, key=lambda p: (p.degree(), len(p.terms), _poly_sort_key(p)))


def _poly_sort_key(p: Polynomial):
    universe = tuple(sorted(p.variables()))
    return tuple(
        (grlex_key(m, universe), c) for m, c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0], universe))
    )


def formula_of_atoms(atoms: list[NormAtom]) -> Formula:
    return conj([a.to_formula() for a in atoms])
