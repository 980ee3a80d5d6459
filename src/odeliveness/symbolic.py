"""Exact polynomial algebra and Lie derivatives.

A polynomial maps monomials to nonzero integer numerators over one shared
denominator `den > 0`, with gcd(den, every numerator) = 1: each rational
polynomial has exactly one such form, so `==` and `hash` compare integers.
A monomial is a tuple of (variable, exponent) pairs sorted by variable name
with all exponents positive; the empty tuple is the constant monomial and
the zero polynomial is the empty map over 1.  Every operation runs in
integers (content, primitive part and pseudo-division as in Knuth, TAOCP
vol. 2, 4.6.1); the printers and floats read each coefficient as the pair
(numerator, den).

Monomials are ordered graded lexicographically (total degree first, then the
exponent vector over the name-sorted variable universe), which makes printing
deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .errors import (
    DegreeCapExceeded,
    InvalidArgument,
    PowNegativeExponent,
    UnknownVariable,
)
from .record import Frozen

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by name, exponents > 0

# Degree guard on mul/pow, to fail fast on runaway certificates.
DEGREE_CAP = 64
# Order guard on higher Lie derivatives: on a linear system the degree cap
# never trips, so the order alone bounds the work.
LIE_ORDER_CAP = 1000
# Size guard on powers of numbers, which outgrow their text without bound.
POWER_BITS_CAP = 1 << 16


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


def _accumulate(terms: dict, m: Monomial, c: int) -> None:
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
    """Sparse multivariate polynomial over the rationals: `terms` maps each
    monomial to a nonzero integer, and the polynomial is terms / `den`.
    Its hash and its leading term are computed on first use and kept."""

    __slots__ = ("terms", "den", "_hash", "_lead")

    def __init__(self, terms: Optional[Mapping[Monomial, object]] = None):
        """From a map to rational coefficients (`int`, `Fraction` or what
        `Fraction` accepts); over the lcm of the reduced denominators."""
        items = [(m, c if isinstance(c, (int, Fraction)) else Fraction(c)) for m, c in (terms or {}).items()]
        items = [(m, c) for m, c in items if c]
        self.den = den = math.lcm(*(c.denominator for _, c in items))
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in items}
        self._hash = self._lead = None

    @classmethod
    def _trusted(cls, terms: dict, den: int = 1) -> "Polynomial":
        """Wrap nonzero integers over den > 0 without copying or checking
        them, dividing out their common factor with den."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        p = object.__new__(cls)
        p.terms, p.den, p._hash, p._lead = terms, den, None, None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return cls._trusted({((name, 1),): 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms  # the constant monomial () is the only one a constant may hold
        return not terms or (len(terms) == 1 and () in terms)

    def constant_value(self) -> Optional[Fraction]:
        """The value of a constant polynomial, None if non-constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return Fraction(self.terms[()], self.den)
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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "Polynomial":
        return _plus(self, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if not self.is_zero() and not other.is_zero():
            if self.degree() + other.degree() > DEGREE_CAP:
                raise DegreeCapExceeded(f"product degree {self.degree() + other.degree()} exceeds cap {DEGREE_CAP}")
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return Polynomial._trusted(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PowNegativeExponent(f"exponent must be a nonnegative integer, got {k!r}")
        if k > 0 and self.degree() * k > DEGREE_CAP:
            raise DegreeCapExceeded(f"power degree {self.degree() * k} exceeds cap {DEGREE_CAP}")
        if self.is_constant():
            bits = (max(abs(self.terms.get((), 0)).bit_length(), self.den.bit_length()) - 1) * k
            if bits > POWER_BITS_CAP:
                raise InvalidArgument(f"power of a number with about {bits} bits exceeds cap {POWER_BITS_CAP}")
        result = Polynomial.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to `name`."""
        out: dict[Monomial, int] = {}
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
        return Polynomial._trusted(out, self.den)

    # -- structure ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms, as (monomial, numerator over `den`), in descending graded
        lexicographic order."""
        universe = tuple(sorted(self.variables()))
        return sorted(
            self.terms.items(), key=lambda t: grlex_key(t[0], universe), reverse=True
        )

    def leading(self) -> tuple[Monomial, int]:
        """The graded-lex leading monomial and its numerator, computed once.
        It is the same over every universe that holds the polynomial's
        variables: the other variables' exponents are 0 in every term."""
        if self._lead is None:
            universe = tuple(sorted(self.variables()))
            m = max(self.terms, key=lambda m: grlex_key(m, universe))
            self._lead = m, self.terms[m]
        return self._lead

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        from .syntax import print_poly  # deferred: syntax imports this module

        return f"Polynomial({print_poly(self)})"


def _plus(p: Polynomial, other, sign: int) -> Polynomial:
    """p + sign * other (sign +1 or -1) for a polynomial or rational `other`,
    over the lcm of the denominators and reduced: p's terms in their order,
    then other's new monomials in theirs.  p itself when other is zero, and
    other itself when p is zero and sign is +1."""
    if type(other) is Polynomial:
        if not other.terms:
            return p
        if not p.terms and sign > 0:
            return other
        terms, den = other.terms, other.den
    elif isinstance(other, (int, Fraction)):
        if not other:
            return p
        terms, den = {(): other.numerator}, other.denominator
    else:
        raise TypeError(f"cannot coerce {type(other).__name__} to Polynomial")
    out = dict(p.terms)
    pden = p.den
    if den != pden:
        lcm = pden // math.gcd(pden, den) * den
        if lcm != pden:
            k = lcm // pden
            for m in out:
                out[m] *= k
        sign *= lcm // den  # other's numerators over the lcm, signed
        pden = lcm
    get = out.get
    for m, c in terms.items():
        s = get(m)
        if s is None:
            out[m] = sign * c
        else:
            s += sign * c
            if s:
                out[m] = s
            else:
                del out[m]
    if pden != 1:
        g = math.gcd(pden, *out.values())
        if g != 1:
            out = {m: c // g for m, c in out.items()}
            pden //= g
    q = object.__new__(Polynomial)
    q.terms, q.den, q._hash, q._lead = out, pden, None, None
    return q


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


def primitive(p: Polynomial) -> Polynomial:
    """Scale by a positive rational so coefficients are coprime integers:
    the numerators divided by their content (their gcd), over 1.

    The sign of the polynomial is preserved, so `primitive(p) == primitive(q)`
    iff p and q are positive multiples of each other.
    """
    g = math.gcd(*p.terms.values())
    if g <= 1 and p.den == 1:
        return p  # already primitive, or zero
    return Polynomial._trusted({m: c // g for m, c in p.terms.items()})


def poly_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Single-divisor multivariate division: p = q*d + r.

    Leading terms (graded lex over the joint variable universe) of r are not
    divisible by the leading term of d.  Exact when r is zero or constant.
    A pseudo-division in integers: q and r are numerators over one
    denominator, and each step scales them by the smallest s that makes the
    quotient term an integer k with d's numerators, so it equals the
    division over the rationals term for term, in the same order.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    universe = tuple(sorted(p.variables() | d.variables()))
    dm, dc = d.leading()
    dexp = dict(dm)
    q: dict[Monomial, int] = {}
    r, den = dict(p.terms), p.den  # q / den and r / den
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
        g = math.gcd(r[m], dc) if dc > 0 else -math.gcd(r[m], dc)
        k, s = r[m] // g, dc // g  # r[m] / dc = k / s with s > 0
        if s != 1:
            for t in r:
                r[t] *= s
            for t in q:
                q[t] *= s
            den *= s
        q[qm] = k * d.den  # the quotient term (r[m] / den) / (dc / d.den)
        for m2, c2 in d.terms.items():
            _accumulate(r, _mono_mul(qm, m2), -k * c2)
    return Polynomial._trusted(q, den), Polynomial._trusted(r, den)


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
            if r != current:
                current = r
                changed = True
        if not changed:
            break
    return current


class OdeSystem(Frozen):
    """x' = f(x) with domain constraint, constant parameters, optional clock.

    `domain` is a quantifier-free formula (see `syntax`); it is stored opaque
    here so the algebra layer stays formula-free.  The clock, when present,
    is an extra equation clock' = 1 whose name never collides with user
    identifiers (users cannot write a leading underscore).
    """

    __slots__ = ("vars", "rhs", "domain", "params", "clock")
    _defaults = {"domain": None, "params": frozenset(), "clock": None}

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
    if k > LIE_ORDER_CAP:
        raise InvalidArgument(f"order must be at most {LIE_ORDER_CAP}, got {k}")
    for _ in range(k):
        if p.is_zero():  # so is every derivative after it
            break
        p = lie_derivative(p, sys)
    return p
