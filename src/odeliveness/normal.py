"""Normalized atoms.

Formulas come in negation normal form from the parser (see `syntax`).  A
normalized atom puts a comparison into one of the shapes e >= 0, e > 0,
e = 0, e != 0 over a single difference polynomial.  Equalities and
disequalities are sign-canonicalized (leading graded-lex coefficient
positive) so that structural matching catches both orientations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .record import Frozen
from .symbolic import Polynomial, grlex_key, primitive
from .syntax import BoolLit, Cmp, Formula, conjuncts


class NormAtom(Frozen):
    """Comparison in normalized form: poly `op` 0 with op in >=, >, =, !=."""

    __slots__ = ("op", "poly")

    # Written out, as `kernel.ArithOb`'s is: an obligation builds several,
    # and the shared constructor costs about twice as much.
    def __init__(self, op, poly):
        _set_op(self, op)
        _set_poly(self, poly)

    def to_formula(self) -> Formula:
        return Cmp(self.op, self.poly, Polynomial.const(0))


_set_op, _set_poly = NormAtom.op.__set__, NormAtom.poly.__set__  # past `Frozen`'s guard


def _canonical_sign(p: Polynomial) -> Polynomial:
    if p.is_zero():
        return p
    _, c = p.leading()
    return -p if c < 0 else p


_FLIP = {"<=": ">=", "<": ">"}


def norm_atom(c: Cmp) -> NormAtom:
    """The one place, outside `sim`'s float plans, where a comparison's two
    sides are subtracted."""
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
    atoms, rest = atoms_of_conjuncts(conjuncts(f))
    return atoms, not rest


def atoms_of_conjuncts(parts: list[Formula]) -> tuple[list[NormAtom], list[Formula]]:
    """The normalized atoms of conjuncts taken from a formula, with `false`
    as an unsatisfiable atom and `true` dropped, and the other conjuncts
    (disjunctions and the like), each in order."""
    atoms: list[NormAtom] = []
    rest: list[Formula] = []
    for g in parts:
        if isinstance(g, Cmp):
            atoms.append(norm_atom(g))
        elif isinstance(g, BoolLit):
            if not g.value:
                atoms.append(NormAtom(">", Polynomial.const(0)))  # unsatisfiable atom
        else:
            rest.append(g)
    return atoms, rest


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
