"""Conservative topological side-condition checks.

Closed/open are decided by a sound syntactic criterion on the negation
normal form (non-strict atoms and positive connectives characterize closed
sets, strict atoms open ones).  Boundedness is decided by `first_proved`,
the one bound search of the package: it tries candidate bounds in order,
each with the same cell budget, and draws no samples.  `check_bounded`
runs it over doubling bounds on the sum of squared variables; the rules
run it for their variant witnesses.  Every check returns Holds or Unknown;
Unknown means the gating rule must refuse.

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


# The one bound search: each candidate bound gets its own cell budget.
BOUND_SEARCH_BUDGET = arith.Budget(max_cells=20_000, max_seconds=2.0)


def first_proved(region: Formula, p: Polynomial, op: str, candidates, prove) -> Optional[Fraction]:
    """The first candidate c with region |- p `op` c proved Valid by
    `prove(obligation, budget=...)`."""
    for c in candidates:
        ob = arith.ArithObligation.closure(region, Cmp(op, p, Polynomial.const(c)))
        if prove(ob, budget=BOUND_SEARCH_BUDGET).is_valid:
            return c
    return None


def check_bounded(f: Formula, vars, prove) -> TopoVerdict:
    """Doubling search for B = 2^k, k = 0..32, with f -> sum of squares of
    `vars` <= B proved Valid by `prove`; the witness is the first such B."""
    if not vars:
        return TopoVerdict(BOUNDED, UNKNOWN)
    sumsq = sum((Polynomial.var(v) * Polynomial.var(v) for v in vars), Polynomial())
    bound = first_proved(f, sumsq, "<=", (Fraction(2) ** k for k in range(33)), prove)
    return TopoVerdict(BOUNDED, UNKNOWN if bound is None else HOLDS, witness=bound)


def check_compact(f: Formula, vars, prove) -> TopoVerdict:
    """Closed and bounded; witness carried over from the bounded check."""
    closed = check_closed(f, vars)
    if not closed.holds:
        return TopoVerdict(COMPACT, UNKNOWN)
    bounded = check_bounded(f, vars, prove)
    if not bounded.holds:
        return TopoVerdict(COMPACT, UNKNOWN)
    return TopoVerdict(COMPACT, HOLDS, witness=bounded.witness)
