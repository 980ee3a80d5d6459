"""Conservative topological side-condition checks.

Closed/open are decided by a sound syntactic criterion on the negation
normal form (non-strict atoms and positive connectives characterize closed
sets, strict atoms open ones).  Boundedness is decided by `first_proved`,
the one bound search of the package.  It gives each candidate bound the
same cell budget and draws no samples.  It tries the two strongest
candidates in order, then the weakest, then bisects between them: the
prover is monotone in the bound (a weaker bound is proved wherever a
stronger one is), so this finds the first candidate proved.  `check_bounded`
runs it over doubling bounds on the sum of squared variables; the rules
run it for their variant witnesses.  Every check returns Holds or Unknown;
Unknown means the gating rule must refuse.

Parameters are treated as fixed symbols: the criteria are evaluated with
respect to the given state variables only, and a formula whose bound would
depend on a parameter value comes back Unknown.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import arith
from .normal import nnf
from .record import Frozen
from .symbolic import Polynomial
from .syntax import And, BoolLit, Cmp, Formula, Or

CLOSED = "Closed"
OPEN = "Open"
BOUNDED = "Bounded"
COMPACT = "Compact"

HOLDS = "Holds"
UNKNOWN = "Unknown"


class TopoVerdict(Frozen):
    __slots__ = ("property", "status", "witness")
    _defaults = {"witness": None}

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


def check_closed(f: Formula) -> TopoVerdict:
    """Holds when every NNF atom is one of =, >=, <= under and/or."""
    return TopoVerdict(CLOSED, HOLDS if _atoms_in(nnf(f), frozenset({"=", ">=", "<="})) else UNKNOWN)


def check_open(f: Formula) -> TopoVerdict:
    """Dual criterion: every NNF atom strict (!=, >, <)."""
    return TopoVerdict(OPEN, HOLDS if _atoms_in(nnf(f), frozenset({"!=", ">", "<"})) else UNKNOWN)


# The one bound search: each candidate bound gets its own cell budget.
BOUND_SEARCH_BUDGET = arith.Budget(max_cells=20_000, max_seconds=2.0)
# Its doubling candidates 2^k, k = 0..32, built once: a search reads a few.
DOUBLING = tuple(Fraction(2) ** k for k in range(33))


def first_proved(region: Formula, p: Polynomial, op: str, candidates, prove) -> Optional[Fraction]:
    """The first of the `candidates` (a sequence) c with region |- p `op` c
    proved Valid by `prove(obligation, budget=...)`.

    The candidates run from the strongest bound to the weakest, and the
    prover is monotone in the bound: Valid at one candidate means Valid at
    every later one.  So the two strongest are tried in order (most
    witnesses are one of them), then the weakest, which when not Valid
    ends the search, then bisection finds the first Valid one: the witness
    a scan in order would return.  A candidate stopped by the clock is no
    verdict on its bound, so it ends the search with no witness."""
    base = arith.ArithObligation.closure(region, Cmp(op, p, Polynomial()))  # checks the region once
    n = len(candidates)
    lo, hi = -1, n  # candidates[lo] is not Valid and candidates[hi] is; -1 and n stand outside
    while hi - lo > 1:
        if lo < 1:
            i = lo + 1
        elif hi == n:
            i = hi - 1
        else:
            i = (lo + hi) // 2
        v = prove(base.with_conclusion(Cmp(op, p, Polynomial.const(candidates[i]))), budget=BOUND_SEARCH_BUDGET)
        if v.is_valid:
            hi = i
        elif v.clock_stopped():
            return None
        else:
            lo = i
    return candidates[hi] if hi < n else None


def check_bounded(f: Formula, vars, prove) -> TopoVerdict:
    """Doubling search for B = 2^k, k = 0..32, with f -> sum of squares of
    `vars` <= B proved Valid by `prove`; the witness is the first such B."""
    if not vars:
        return TopoVerdict(BOUNDED, UNKNOWN)
    sumsq = sum((Polynomial.var(v) * Polynomial.var(v) for v in vars), Polynomial())
    bound = first_proved(f, sumsq, "<=", DOUBLING, prove)
    return TopoVerdict(BOUNDED, UNKNOWN if bound is None else HOLDS, witness=bound)


def check_compact(f: Formula, vars, prove) -> TopoVerdict:
    """Closed and bounded; witness carried over from the bounded check."""
    if not check_closed(f).holds:
        return TopoVerdict(COMPACT, UNKNOWN)
    bounded = check_bounded(f, vars, prove)
    return TopoVerdict(COMPACT, bounded.status, witness=bounded.witness)
