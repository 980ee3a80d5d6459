"""Conservative topological side-condition checks.

Closed/open are decided by a sound syntactic criterion on the negation
normal form (non-strict atoms and positive connectives characterize closed
sets, strict atoms open ones).  Boundedness searches for a proved bound on
the sum of squared variables via the arithmetic backend.  Every check
returns Holds or Unknown; Unknown means the gating rule must refuse.

Parameters are treated as fixed symbols: the criteria are evaluated with
respect to the given state variables only, and a formula whose bound would
depend on a parameter value comes back Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import arith
from .normal import nnf
from .symbolic import Polynomial
from .syntax import And, BoolLit, Cmp, Formula, Or

CLOSED = "Closed"
OPEN = "Open"
BOUNDED = "Bounded"
COMPACT = "Compact"

HOLDS = "Holds"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class TopoVerdict:
    property: str
    status: str
    witness: Optional[Fraction] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _atoms_in(f: Formula, allowed: frozenset) -> bool:
    if isinstance(f, BoolLit):
        return True
    if isinstance(f, Cmp):
        return f.op in allowed
    if isinstance(f, (And, Or)):
        return _atoms_in(f.left, allowed) and _atoms_in(f.right, allowed)
    return False  # quantifiers, modalities, residual negations: be conservative


def check_closed(f: Formula, vars) -> TopoVerdict:
    """Holds when every NNF atom is one of =, >=, <= under and/or."""
    if _atoms_in(nnf(f), frozenset({"=", ">=", "<="})):
        return TopoVerdict(CLOSED, HOLDS)
    return TopoVerdict(CLOSED, UNKNOWN)


def check_open(f: Formula, vars) -> TopoVerdict:
    """Dual criterion: every NNF atom strict (!=, >, <)."""
    if _atoms_in(nnf(f), frozenset({"!=", ">", "<"})):
        return TopoVerdict(OPEN, HOLDS)
    return TopoVerdict(OPEN, UNKNOWN)


# Each candidate bound 2^k, k = 0..MAX_LOG2, gets its own cell budget.
BOUNDED_BUDGET = arith.Budget(max_cells=20_000, max_seconds=2.0)
MAX_LOG2 = 32


def check_bounded(f: Formula, vars) -> TopoVerdict:
    """Doubling search for B with f -> sum of squares <= B proved Valid.

    The search stops early only when f's atoms leave a variable of `vars`
    without a bound; an unbounded symbol outside `vars` may still drop out
    of a symbolic proof at a larger B.
    """
    vars = tuple(vars)
    if not vars:
        return TopoVerdict(BOUNDED, UNKNOWN)
    sumsq = Polynomial()
    for v in vars:
        sumsq = sumsq + Polynomial.var(v) * Polynomial.var(v)
    universe = tuple(sorted(set(vars) | set(map(str, arith.formula_variables(f)))))
    for k in range(0, MAX_LOG2 + 1):
        bound = Fraction(2) ** k
        ob = arith.ArithObligation(
            universals=universe,
            hypothesis=f,
            conclusion=Cmp("<=", sumsq, Polynomial.const(bound)),
        )
        # cheap pre-pass: an exact sample beyond the bound rules this B out
        pre = arith.falsify(ob, samples=64, seed=k)
        if pre.status == arith.FALSIFIED:
            continue
        verdict = arith.prove_implication(ob, budget=BOUNDED_BUDGET)
        if verdict.is_valid:
            return TopoVerdict(BOUNDED, HOLDS, witness=bound)
        if verdict.status == arith.FALSIFIED:
            continue
        if verdict.trace.get("method") == "unbounded-domain" and arith.extract_box(f, vars)[1]:
            return TopoVerdict(BOUNDED, UNKNOWN)
    return TopoVerdict(BOUNDED, UNKNOWN)


def check_compact(f: Formula, vars) -> TopoVerdict:
    """Closed and bounded; witness carried over from the bounded check."""
    closed = check_closed(f, vars)
    if not closed.holds:
        return TopoVerdict(COMPACT, UNKNOWN)
    bounded = check_bounded(f, vars)
    if not bounded.holds:
        return TopoVerdict(COMPACT, UNKNOWN)
    return TopoVerdict(COMPACT, HOLDS, witness=bounded.witness)
