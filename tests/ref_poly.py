"""The `Fraction` polynomial that `symbolic.Polynomial` replaced, as a reference.

`symbolic.Polynomial` keeps integer numerators over one denominator.  The
class below is the implementation it replaced, one `Fraction` per term, with
its division, primitive part, printer and float source as the package had
them.  `rational_terms` reads a `Polynomial` back as its `Fraction` terms in
dict order, so every operation can be compared with the reference term for
term.
"""

import math
from fractions import Fraction

from odeliveness.symbolic import DEGREE_CAP, Polynomial, _mono_degree, _mono_mul, grlex_key


def rational_terms(p: Polynomial) -> dict:
    """The terms of p as `Fraction` coefficients, in p's dict order."""
    return {m: Fraction(c, p.den) for m, c in p.terms.items()}


def ref_of(p: Polynomial) -> "RefPoly":
    return RefPoly(rational_terms(p))


def _accumulate(terms: dict, m, c) -> None:
    s = terms.get(m)
    if s is None:
        terms[m] = c
    else:
        s += c
        if s:
            terms[m] = s
        else:
            del terms[m]


class RefPoly:
    """Sparse multivariate polynomial with nonzero `Fraction` coefficients."""

    def __init__(self, terms=None):
        self.terms = {m: Fraction(c) for m, c in (terms or {}).items() if Fraction(c) != 0}

    @classmethod
    def _trusted(cls, terms: dict) -> "RefPoly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=-1)

    def variables(self) -> frozenset:
        return frozenset(v for m in self.terms for v, _ in m)

    def __add__(self, other) -> "RefPoly":
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            _accumulate(out, m, c)
        return RefPoly._trusted(out)

    def __neg__(self) -> "RefPoly":
        return RefPoly._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "RefPoly":
        out = dict(self.terms)
        for m, c in _coerce(other).terms.items():
            _accumulate(out, m, -c)
        return RefPoly._trusted(out)

    def __rsub__(self, other) -> "RefPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "RefPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in _coerce(other).terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return RefPoly._trusted(out)

    def __pow__(self, k: int) -> "RefPoly":
        result = RefPoly({(): 1})
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> "RefPoly":
        c = Fraction(c)
        return RefPoly._trusted({m: c * v for m, v in self.terms.items()} if c else {})

    def partial(self, name: str) -> "RefPoly":
        out: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(name, 0)
            if e == 0:
                continue
            if e == 1:
                del exps[name]
            else:
                exps[name] = e - 1
            out[tuple(sorted(exps.items()))] = c * e
        return RefPoly._trusted(out)

    def sorted_terms(self) -> list:
        universe = tuple(sorted(self.variables()))
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0], universe), reverse=True)

    def leading(self, universe):
        m = max(self.terms, key=lambda m: grlex_key(m, universe))
        return m, self.terms[m]

    def __eq__(self, other) -> bool:
        return isinstance(other, RefPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def _coerce(x) -> RefPoly:
    return x if isinstance(x, RefPoly) else RefPoly({(): x})


def ref_primitive(p: RefPoly) -> RefPoly:
    if p.is_zero():
        return p
    denom_lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    num_gcd = math.gcd(*(c.numerator * (denom_lcm // c.denominator) for c in p.terms.values()))
    return p.scale(Fraction(denom_lcm, num_gcd))


def ref_divmod(p: RefPoly, d: RefPoly) -> tuple:
    """Single-divisor division over the rationals, greatest divisible term of
    the remainder first."""
    universe = tuple(sorted(p.variables() | d.variables()))
    dm, dc = d.leading(universe)
    dexp = dict(dm)
    q: dict = {}
    r = dict(p.terms)
    while r:
        divisible = [t for t in r if all(dict(t).get(v, 0) >= e for v, e in dexp.items())]
        if not divisible:
            break
        m = max(divisible, key=lambda t: grlex_key(t, universe))
        assert _mono_degree(m) <= DEGREE_CAP
        exps = dict(m)
        qm = tuple(sorted((v, e) for v, e in ((v, exps.get(v, 0) - dexp.get(v, 0)) for v in exps) if e > 0))
        qc = r[m] / dc
        _accumulate(q, qm, qc)
        for m2, c2 in d.terms.items():
            _accumulate(r, _mono_mul(qm, m2), -qc * c2)
    return RefPoly._trusted(q), RefPoly._trusted(r)


def ref_reduce(p: RefPoly, eqs: list) -> RefPoly:
    current = p
    for _ in range(8):
        changed = False
        for e in eqs:
            if e.is_zero():
                continue
            _, r = ref_divmod(current, e)
            if r.terms != current.terms:
                current = r
                changed = True
        if not changed:
            break
    return current


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def ref_print_poly(p: RefPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
        body = _frac_str(mag) if not m else mono if mag == 1 else f"{_frac_str(mag)}*{mono}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


def ref_poly_src(terms, ref) -> str:
    """The float source of (monomial, `Fraction`) terms with every
    coefficient written out in front of its factors, 1.0 and -1.0 too."""
    parts = []
    for m, c in terms:
        factors = [repr(float(c))]
        for v, e in m:
            factors.append(ref(v) if e == 1 else f"{ref(v)}**{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0.0"
