"""Exact polynomial algebra and Lie derivatives.

Polynomials are sparse maps from monomials to nonzero rational coefficients.
A monomial is a tuple of (variable, exponent) pairs sorted by variable name
with all exponents positive; the empty tuple is the constant monomial and the
zero polynomial is the empty map.  All arithmetic is exact over `Fraction`,
no floating point enters this module.

Monomials are ordered graded lexicographically (total degree first, then the
exponent vector over the name-sorted variable universe), which makes printing
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    DegreeCapExceeded,
    InvalidArgument,
    MissingBinding,
    PowNegativeExponent,
    UnknownVariable,
)

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by name, exponents > 0

# Degree guard on mul/pow, to fail fast on runaway certificates.
DEGREE_CAP = 64


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _accumulate(terms: dict, m: Monomial, c: Fraction) -> None:
    """terms[m] += c, dropping the monomial when the sum is zero."""
    s = terms.get(m)
    if s is None:
        terms[m] = c
    else:
        s += c
        if s:
            terms[m] = s
        else:
            del terms[m]


def grlex_key(m: Monomial, universe: tuple[str, ...]) -> tuple:
    """Sort key: total degree, then exponent vector over `universe`."""
    exps = dict(m)
    return (_mono_degree(m), tuple(exps.get(v, 0) for v in universe))


class Polynomial:
    """Sparse multivariate polynomial over the rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Fraction]] = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean
        self._hash: Optional[int] = None

    @classmethod
    def _trusted(cls, terms: dict) -> "Polynomial":
        """Wrap a dict that is already clean (every coefficient a nonzero
        `Fraction`) without copying or re-checking it."""
        p = object.__new__(cls)
        p.terms = terms
        p._hash = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Polynomial":
        c = Fraction(c)
        return cls({(): c} if c != 0 else {})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if non-constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(_mono_degree(m) for m in self.terms)

    def degree_in(self, names: Iterable[str]) -> int:
        """Total degree counting only the given variables; -1 if zero."""
        names = set(names)
        if not self.terms:
            return -1
        return max(sum(e for v, e in m if v in names) for m in self.terms)

    def variables(self) -> frozenset:
        return frozenset(v for m in self.terms for v, _ in m)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            _accumulate(out, m, c)
        return Polynomial._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            _accumulate(out, m, -c)
        return Polynomial._trusted(out)

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if not self.is_zero() and not other.is_zero():
            if self.degree() + other.degree() > DEGREE_CAP:
                raise DegreeCapExceeded(f"product degree {self.degree() + other.degree()} exceeds cap {DEGREE_CAP}")
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return Polynomial._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PowNegativeExponent(f"exponent must be a nonnegative integer, got {k!r}")
        if k > 0 and self.degree() * k > DEGREE_CAP:
            raise DegreeCapExceeded(f"power degree {self.degree() * k} exceeds cap {DEGREE_CAP}")
        result = Polynomial.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial()
        return Polynomial._trusted({m: c * v for m, v in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to `name`."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(name, 0)
            if e == 0:
                continue
            if e == 1:
                del exps[name]
            else:
                exps[name] = e - 1
            # m -> dm is one-to-one on the monomials that contain `name`
            out[tuple(sorted(exps.items()))] = c * e
        return Polynomial._trusted(out)

    # -- evaluation --------------------------------------------------------

    def eval_rational(self, point: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                if v not in point:
                    raise MissingBinding(f"no value for '{v}'")
                x = point[v]
                if type(x) is not Fraction:
                    x = Fraction(x)
                term *= x if e == 1 else x**e
            total += term
        return total

    # -- structure ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded lexicographic order."""
        universe = tuple(sorted(self.variables()))
        return sorted(
            self.terms.items(), key=lambda t: grlex_key(t[0], universe), reverse=True
        )

    def leading(self, universe: tuple[str, ...]) -> tuple[Monomial, Fraction]:
        m = max(self.terms, key=lambda m: grlex_key(m, universe))
        return m, self.terms[m]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __repr__(self) -> str:
        from .syntax import print_poly  # deferred: syntax imports this module

        return f"Polynomial({print_poly(self)})"


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


def primitive(p: Polynomial) -> Polynomial:
    """Scale by a positive rational so coefficients are coprime integers.

    The sign of the polynomial is preserved, so `primitive(p) == primitive(q)`
    iff p and q are positive multiples of each other.
    """
    if p.is_zero():
        return p
    denom_lcm = 1
    for c in p.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    if denom_lcm == num_gcd:
        return p  # already primitive
    return p.scale(Fraction(denom_lcm, num_gcd))


def poly_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division: p = q*d + r.

    Leading terms (graded lex over the joint variable universe) of r are not
    divisible by the leading term of d.  Exact when r is zero or constant.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    universe = tuple(sorted(p.variables() | d.variables()))
    dm, dc = d.leading(universe)
    dexp = dict(dm)
    # q and r change in place, term for term as q + qterm and r - qterm*d would
    q: dict[Monomial, Fraction] = {}
    r = dict(p.terms)
    keys: dict = {}  # monomial -> grlex key, None when dm does not divide it
    while r:
        m = best = None
        for t in r:
            if t not in keys:
                exps = dict(t)
                divides = all(exps.get(v, 0) >= e for v, e in dexp.items())
                keys[t] = grlex_key(t, universe) if divides else None
            key = keys[t]
            if key is not None and (best is None or key > best):
                m, best = t, key
        if m is None:
            break
        if _mono_degree(m) > DEGREE_CAP:
            raise DegreeCapExceeded(f"product degree {_mono_degree(m)} exceeds cap {DEGREE_CAP}")
        exps = dict(m)
        qm = tuple(sorted((v, e) for v, e in ((v, exps.get(v, 0) - dexp.get(v, 0)) for v in exps) if e > 0))
        qc = r[m] / dc
        _accumulate(q, qm, qc)
        for m2, c2 in d.terms.items():
            _accumulate(r, _mono_mul(qm, m2), -qc * c2)
    return Polynomial._trusted(q), Polynomial._trusted(r)


def reduce_mod_equalities(p: Polynomial, eqs: list[Polynomial]) -> Polynomial:
    """Reduce p modulo polynomials known to be zero, in a fixed order.

    Sound as a rewriting step: the result equals p on every state where all
    of `eqs` vanish.  Not a Groebner normal form; used as a cheap pre-check.
    """
    current = p
    for _ in range(8):
        changed = False
        for e in eqs:
            if e.is_zero():
                continue
            _, r = poly_divmod(current, e)
            if r.terms != current.terms:
                current = r
                changed = True
        if not changed:
            break
    return current


@dataclass(frozen=True)
class OdeSystem:
    """x' = f(x) with domain constraint, constant parameters, optional clock.

    `domain` is a quantifier-free formula (see `syntax`); it is stored opaque
    here so the algebra layer stays formula-free.  The clock, when present,
    is an extra equation clock' = 1 whose name never collides with user
    identifiers (users cannot write a leading underscore).
    """

    vars: tuple[str, ...]
    rhs: tuple[Polynomial, ...]
    domain: object = None
    params: frozenset = frozenset()
    clock: Optional[str] = None

    def __post_init__(self):
        if len(self.vars) != len(self.rhs):
            raise ValueError("vars and rhs must align")
        declared = set(self.vars) | set(self.params)
        for x, f in zip(self.vars, self.rhs):
            extra = f.variables() - declared
            if extra:
                raise UnknownVariable(f"rhs of {x}' mentions undeclared {sorted(extra)}")
        if self.clock is not None and self.clock in declared:
            raise ValueError(f"clock {self.clock} collides with a declared identifier")
        for p in self.params:
            if p in self.vars:
                raise ValueError(f"parameter {p} also appears as an ODE variable")

    def state_names(self) -> tuple[str, ...]:
        return self.vars + ((self.clock,) if self.clock else ())

    def all_names(self) -> frozenset:
        return frozenset(self.state_names()) | self.params

    def rhs_of(self, name: str) -> Polynomial:
        if name == self.clock:
            return Polynomial.const(1)
        return self.rhs[self.vars.index(name)]

    def with_domain(self, domain) -> "OdeSystem":
        return OdeSystem(self.vars, self.rhs, domain, self.params, self.clock)

    def with_clock(self, name: str = "_t") -> "OdeSystem":
        from .errors import ClockNotFresh

        if self.clock is not None:
            raise ClockNotFresh(f"system already has clock {self.clock}")
        if name in self.vars or name in self.params:
            raise ClockNotFresh(f"{name} is not fresh")
        return OdeSystem(self.vars, self.rhs, self.domain, self.params, name)

    def is_affine(self) -> bool:
        """Every right-hand side has total degree at most 1 in the ODE variables."""
        state = set(self.state_names())
        return all(f.degree_in(state) <= 1 for f in self.rhs)


def lie_derivative(p: Polynomial, sys: OdeSystem) -> Polynomial:
    """Derivative of p along solutions: sum of dp/dx_i * f_i, clock rate 1."""
    extra = p.variables() - sys.all_names()
    if extra:
        raise UnknownVariable(f"polynomial mentions undeclared {sorted(extra)}")
    out = Polynomial()
    for x, f in zip(sys.vars, sys.rhs):
        out = out + p.partial(x) * f
    if sys.clock is not None:
        out = out + p.partial(sys.clock)
    return out


def higher_lie(p: Polynomial, sys: OdeSystem, k: int) -> Polynomial:
    if k < 0:
        raise InvalidArgument(f"order must be nonnegative, got {k}")
    for _ in range(k):
        p = lie_derivative(p, sys)
    return p
