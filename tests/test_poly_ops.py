"""Ring operations built on `Polynomial._trusted` against the normalising ones.

`+`, `-`, `*`, `neg`, `scale`, `partial` and `poly_divmod` hand their result
dicts to the trusted constructor, which checks nothing.  The references below
are the operations as they were when every result went through the
normalising constructor `Polynomial(...)`; the trusted results must hold only
nonzero `Fraction` coefficients and equal the references term for term, in
the same dict order (the falsifier's atom vector sums terms in that order,
so its floats depend on it).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness.symbolic import Polynomial, _coerce, _mono_mul, grlex_key, poly_divmod

# -- references --------------------------------------------------------------


def ref_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = dict(a.terms)
    for m, c in b.terms.items():
        s = out.get(m, Fraction(0)) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return Polynomial(out)


def ref_neg(a: Polynomial) -> Polynomial:
    return Polynomial({m: -c for m, c in a.terms.items()})


def ref_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return ref_add(a, ref_neg(b))


def ref_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return Polynomial(out)


def ref_scale(a: Polynomial, c) -> Polynomial:
    c = Fraction(c)
    if c == 0:
        return Polynomial()
    return Polynomial({m: c * v for m, v in a.terms.items()})


def ref_partial(a: Polynomial, name: str) -> Polynomial:
    out: dict = {}
    for m, c in a.terms.items():
        exps = dict(m)
        e = exps.get(name, 0)
        if e == 0:
            continue
        if e == 1:
            del exps[name]
        else:
            exps[name] = e - 1
        dm = tuple(sorted(exps.items()))
        out[dm] = out.get(dm, Fraction(0)) + c * e
    return Polynomial(out)


def ref_divmod(p: Polynomial, d: Polynomial) -> tuple:
    universe = tuple(sorted(p.variables() | d.variables()))
    dm, dc = d.leading(universe)
    dexp = dict(dm)
    q = Polynomial()
    r = Polynomial(p.terms)
    while not r.is_zero():
        candidates = []
        for m in r.terms:
            exps = dict(m)
            if all(exps.get(v, 0) >= e for v, e in dexp.items()):
                candidates.append(m)
        if not candidates:
            break
        m = max(candidates, key=lambda m: grlex_key(m, universe))
        exps = dict(m)
        qm = tuple(sorted((v, e) for v, e in ((v, exps.get(v, 0) - dexp.get(v, 0)) for v in exps) if e > 0))
        qterm = Polynomial({qm: r.terms[m] / dc})
        q = ref_add(q, qterm)
        r = ref_sub(r, ref_mul(qterm, d))
    return q, r


# -- properties --------------------------------------------------------------

coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
monomials = st.builds(
    lambda ex, ey, ez: tuple((v, e) for v, e in (("x", ex), ("y", ey), ("z", ez)) if e),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2),
)
polys = st.builds(Polynomial, st.dictionaries(monomials, coeffs, max_size=5))


def same(got: Polynomial, want: Polynomial) -> None:
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=300, deadline=None)
@given(polys, polys, coeffs, st.sampled_from(["x", "y", "z"]))
def test_trusted_results_equal_normalised_results(a, b, c, name):
    same(a + b, ref_add(a, b))
    same(a - b, ref_sub(a, b))
    same(a - a, Polynomial())
    same(a * b, ref_mul(a, b))
    same(-a, ref_neg(a))
    same(a.scale(c), ref_scale(a, c))
    same(a.scale(0), Polynomial())
    same(a.partial(name), ref_partial(a, name))
    same(3 - a, ref_sub(_coerce(3), a))
    if not b.is_zero():
        q, r = poly_divmod(a, b)
        rq, rr = ref_divmod(a, b)
        same(q, rq)
        same(r, rr)
