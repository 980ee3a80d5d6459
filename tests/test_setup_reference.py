"""The set-up of every obligation, in integers, against the `Fraction` path.

`prove_implication` normalises each hypothesis into a `Region`: its
conjuncts, their normalised atoms, each atom's root, the box, the compiled
hypothesis without the atoms the box entails, the root cell and the truth
at its midpoint.  The package builds all of that reading numerators and
denominators.  The references below are the `Fraction` versions it
replaced, kept as the package had them: `ref_nnf`, the negation normal
form the parser builds from `!` and `->` (here the test-local `Neg` and
`Imp`), `norm_atom` through polynomial subtraction, `_root` as -b/a,
`extract_box` through `max` and `min`, `contradictory` over `primitive`
polynomials, and the compile of one normalised polynomial, all reading
`Fraction` coefficients (`ref_poly`).
Every `Region` must equal the one they build, and every compiled conclusion
must give the three-valued answers of the old compile.  `_root`,
`primitive` (which `contradictory` keys its atoms by) and `_scaled_poly`
are also checked alone on rational
polynomials with large numerators and denominators.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from ref_poly import rational_terms, ref_of, ref_primitive

from odeliveness import arith
from odeliveness.arith import Region, _conclusion_node, _conj_node, _eval3, _midpoint
from odeliveness.normal import NormAtom, _canonical_sign, atoms_of_conjuncts, contradictory, norm_atom
from odeliveness.symbolic import Polynomial, primitive
from odeliveness.syntax import And, BoolLit, Cmp, Or, conjuncts, parse_formula

from conftest import Imp, Interval, Neg, cell_of, parsed

NAMES = ("x", "y")
OPS = ("=", "!=", ">=", ">", "<=", "<")
NEG = {"=": "!=", "!=": "=", ">=": "<", "<": ">=", ">": "<=", "<=": ">"}

# -- references: the Fraction set-up path ------------------------------------------


def ref_nnf(f):
    if isinstance(f, (BoolLit, Cmp)):
        return f
    if isinstance(f, And):
        return And(ref_nnf(f.left), ref_nnf(f.right))
    if isinstance(f, Or):
        return Or(ref_nnf(f.left), ref_nnf(f.right))
    if isinstance(f, Imp):
        return Or(ref_nnf(Neg(f.left)), ref_nnf(f.right))
    g = f.arg
    if isinstance(g, BoolLit):
        return BoolLit(not g.value)
    if isinstance(g, Cmp):
        return Cmp(NEG[g.op], g.lhs, g.rhs)
    if isinstance(g, Neg):
        return ref_nnf(g.arg)
    if isinstance(g, And):
        return Or(ref_nnf(Neg(g.left)), ref_nnf(Neg(g.right)))
    if isinstance(g, Or):
        return And(ref_nnf(Neg(g.left)), ref_nnf(Neg(g.right)))
    assert isinstance(g, Imp)
    return And(ref_nnf(g.left), ref_nnf(Neg(g.right)))


def ref_norm_atom(c: Cmp) -> NormAtom:
    flipped = {"<=": ">=", "<": ">"}.get(c.op)
    if flipped is not None:
        return NormAtom(flipped, c.rhs - c.lhs)
    e = c.lhs - c.rhs
    if c.op in ("=", "!="):
        e = _canonical_sign(e)
    return NormAtom(c.op, e)


def ref_atoms(parts: list) -> list:
    out = []
    for g in parts:
        if isinstance(g, BoolLit):
            if not g.value:
                out.append(NormAtom(">", Polynomial.const(0)))
        elif isinstance(g, Cmp):
            out.append(ref_norm_atom(g))
    return out


def ref_root(p: Polynomial):
    terms = rational_terms(p)
    b = terms.get((), 0)
    if len(terms) - (() in terms) != 1:
        return None
    m, a = next((m, a) for m, a in terms.items() if m)
    if len(m) != 1 or m[0][1] != 1:
        return None
    return m[0][0], a > 0, -b / a


def ref_sum_of_even_powers(p: Polynomial):
    """(C, {v: (c, 2k)}) of C - sum c_v v^(2k) with every c_v > 0, in `Fraction`s."""
    terms = rational_terms(p)
    body = {}
    for m, c in terms.items():
        if m and (len(m) != 1 or m[0][1] % 2 or c >= 0 or m[0][0] in body):
            return None
        if m:
            body[m[0][0]] = (-c, m[0][1])
    return (terms.get((), Fraction(0)), body) if body else None


def ref_extract_box(atoms: list, roots: list, universals):
    lows, highs = {}, {}

    def note_low(v, x):
        lows[v] = max(lows.get(v, x), x)

    def note_high(v, x):
        highs[v] = min(highs.get(v, x), x)

    for a, root in zip(atoms, roots):
        if a.op == "!=":
            continue
        if root is not None:
            v, lower, x = root
            if a.op == "=" or lower:
                note_low(v, x)
            if a.op == "=" or not lower:
                note_high(v, x)
            continue
        for e in [a.poly] if a.op != "=" else [a.poly, -a.poly]:
            sq = ref_sum_of_even_powers(e)
            if sq is not None:
                bound, body = sq
                if bound < 0:
                    return None, []
                for v, (c, k) in body.items():
                    x = bound / c
                    r = Fraction(arith._root_upper(x.numerator, x.denominator, k), 64)
                    note_low(v, -r)
                    note_high(v, r)
    box, unbounded = {}, []
    for v in universals:
        if v in lows and v in highs:
            if lows[v] > highs[v]:
                return None, []
            box[v] = Interval(lows[v], highs[v])
        else:
            unbounded.append(v)
    if unbounded:
        return None, unbounded
    return box, []


def ref_entailed(a: NormAtom, root, box) -> bool:
    if root is None or a.op not in (">=", "="):
        return False
    v, lower, x = root
    iv = box[v]
    if a.op == "=":
        return iv.lo == iv.hi == x
    return iv.lo >= x if lower else iv.hi <= x


def as_fraction(root):
    """A package root (v, lower, n, d) as the reference's (v, lower, n/d)."""
    return root and (root[0], root[1], Fraction(root[2], root[3]))


def ref_contradictory(atoms: list) -> bool:
    eqs, neqs, ge, gt = set(), set(), set(), set()
    for a in atoms:
        c = a.poly.constant_value()
        if c is not None:
            if not {">=": c >= 0, ">": c > 0, "=": c == 0, "!=": c != 0}[a.op]:
                return True
            continue
        p = ref_primitive(ref_of(a.poly))
        {"=": eqs, "!=": neqs, ">=": ge, ">": gt}[a.op].add(p)
    for e in eqs:
        if e in neqs or e in gt or -e in gt:
            return True
    return any(-e in gt or -e in ge for e in gt)


def ref_atom_node(a: NormAtom) -> tuple:
    """The compile of one normalised polynomial: scaled by the lcm of its
    denominators, each term with its factors and its gaps to M_v."""
    p = rational_terms(a.poly)
    s = math.lcm(*(c.denominator for c in p.values()))
    degrees = {}
    for m in p:
        for v, e in m:
            degrees[v] = max(degrees.get(v, 0), e)
    terms = []
    for m, c in p.items():
        exps = dict(m)
        gaps = tuple((v, k - exps.get(v, 0)) for v, k in degrees.items() if k > exps.get(v, 0))
        terms.append((c.numerator * (s // c.denominator), m, gaps))
    return (arith._ATOM, a.op, tuple(terms))


def ref_compile(f) -> tuple:
    """The compile of an NNF formula over `and`, `or` and normalised atoms."""
    if isinstance(f, BoolLit):
        return (arith._LIT, 1 if f.value else -1)
    if isinstance(f, Cmp):
        return ref_atom_node(ref_norm_atom(f))
    return ({And: arith._AND, Or: arith._OR}[type(f)], ref_compile(f.left), ref_compile(f.right))


def ref_region(universals: tuple, hypothesis) -> dict:
    """What a `Region` holds, built on the Fraction path."""
    parts = conjuncts(ref_nnf(hypothesis))
    atoms = ref_atoms(parts)
    roots = [ref_root(a.poly) for a in atoms]
    box, unbounded = ref_extract_box(atoms, roots, universals)
    out = {"parts": parts, "atoms": atoms, "roots": roots, "box": box, "unbounded": unbounded}
    if box is not None and not any(isinstance(g, Or) for g in parts):
        names = tuple(sorted(universals))
        node = _conj_node([ref_atom_node(a) for a, r in zip(atoms, roots) if not ref_entailed(a, r, box)])
        root_cell = tuple(cell_of({v: box[v] for v in names}).values())
        mid = _midpoint(dict(zip(names, root_cell)))
        out.update(node=node, root_cell=root_cell, mid=mid, mid_truth=_eval3(node, mid))
    return out


# -- strategies ------------------------------------------------------------------

coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from([1, 2, 3, 7]))
constants = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])))


@st.composite
def linear_atoms(draw):
    """a*v + b op c, rational, with zero constants, either leading sign and
    the sides sometimes swapped."""
    v = draw(st.sampled_from(NAMES))
    side = Polynomial({((v, 1),): draw(coefficients), (): draw(constants)})
    other = Polynomial.const(draw(constants))
    if draw(st.booleans()):
        side, other = other, side
    return Cmp(draw(st.sampled_from(OPS)), side, other)


@st.composite
def even_power_atoms(draw):
    """C - sum c_v v^(2k) >= 0, or the same bound written another way."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    body = Polynomial({((v, 2 * draw(st.integers(1, 2))),): abs(draw(coefficients)) for v in names})
    bound = Polynomial.const(draw(constants))
    op = draw(st.sampled_from(["<=", "=", "<"]))
    return draw(st.sampled_from([Cmp(op, body, bound), Cmp({"<=": ">=", "=": "=", "<": ">"}[op], bound, body)]))


@st.composite
def other_atoms(draw):
    """A nonlinear or two-variable atom, which bounds no variable alone."""
    terms = {(("x", draw(st.integers(1, 2))), ("y", 1)): draw(coefficients), (("x", 1),): draw(coefficients)}
    return Cmp(draw(st.sampled_from(OPS)), Polynomial(terms), Polynomial.const(draw(constants)))


literals = st.sampled_from([BoolLit(True), BoolLit(False)])
atoms = st.one_of(linear_atoms(), linear_atoms(), even_power_atoms(), other_atoms(), literals)
conclusions = st.one_of(atoms, st.builds(And, atoms, atoms), st.builds(Or, atoms, atoms), st.builds(Neg, atoms))
# normalised atoms over three polynomials, each scaled by either sign, so that
# every conflict `contradictory` looks for comes up
POOL = [parse_formula(t).lhs for t in ("x + 1 >= 0", "2*x*y - 1/3*y >= 0", "x^2 - 3 >= 0")]
pool_atoms = st.builds(
    lambda p, k, op: NormAtom(op, p * k),
    st.sampled_from(POOL),
    st.sampled_from([1, 2, -1, Fraction(-1, 3)]),
    st.sampled_from([">=", ">", "=", "!="]),
)


@st.composite
def conjuncts_of(draw):
    """A hypothesis conjunct: an atom, negated now and then, or a disjunction
    or implication of two atoms."""
    kind = draw(st.integers(0, 9))
    a = draw(atoms)
    if kind == 0:
        return Neg(a)
    if kind == 1:
        return Or(a, draw(atoms))
    if kind == 2:
        return Imp(a, draw(atoms))
    return a


@st.composite
def hypotheses(draw):
    """Bounds on x and y (each kept with high probability) and other
    conjuncts, as written: the package reads `parsed` of it."""
    parts = [Cmp(op, Polynomial.var(v), Polynomial.const(draw(constants))) for v in NAMES for op in ("<=", ">=")]
    parts = [p for p in parts if draw(st.integers(0, 7))] + draw(st.lists(conjuncts_of(), max_size=4))
    parts = draw(st.permutations(parts)) if parts else [BoolLit(True)]
    f = parts[0]
    for p in parts[1:]:
        f = And(f, p)
    return f


# -- the property --------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(hypotheses(), conclusions)
@example(parse_formula("0 <= x & x <= 4 & 0 <= y & y <= 2"), parse_formula("-4/3*x^2*y + 3/2*x - 1 > -5/2"))
@example(parse_formula("-x + 1/2 >= 0 & 3*x >= 0 & y^2 <= 2 & x = 1/3"), parse_formula("x != 1/3 & x = 1/3"))
@example(parse_formula("x^2 + 2*y^4 <= 3 & x > 0"), parse_formula("x*y = 0 | y < 0"))
@example(parse_formula("(0 <= x & x <= 1 | 2 <= x & x <= 3) & -1 <= y & y <= 1"), parse_formula("x >= y"))
def test_region_equals_the_fraction_region(hypothesis, conclusion):
    hypothesis = parsed(hypothesis)  # both read its terms in the parser's order
    region = Region(NAMES, hypothesis)
    ref = ref_region(NAMES, hypothesis)
    assert region.parts == ref["parts"]
    assert region.hyp.atoms == ref["atoms"]
    assert [list(a.poly.terms.items()) for a in region.hyp.atoms] == [list(a.poly.terms.items()) for a in ref["atoms"]]
    assert list(map(as_fraction, region.hyp.roots)) == ref["roots"]
    assert region.hyp.contradictory == ref_contradictory(ref["atoms"])
    box_cell = ref["box"] and cell_of(ref["box"])
    assert (region.cell, region.unbounded) == (box_cell, ref["unbounded"])
    assert arith.extract_box(ref["atoms"], NAMES) == (box_cell, ref["unbounded"])
    if "node" not in ref:
        assert region.mid is None
        return
    assert region.node == ref["node"]
    assert (region.root_cell, region.mid, region.mid_truth) == (ref["root_cell"], ref["mid"], ref["mid_truth"])
    # the conclusion, compiled from its normalised atoms and then its other
    # conjuncts, answers as the reference compile of its conjuncts in order:
    # on the root cell, its midpoint and its corners
    parts = conjuncts(parsed(conclusion))
    new, old = _conclusion_node(*atoms_of_conjuncts(parts)), _conj_node([ref_compile(g) for g in parts])
    cell = dict(zip(tuple(sorted(NAMES)), region.root_cell))
    ends = ((0, 0), (0, 1), (1, 0), (1, 1))
    corners = [{v: (b[i], b[i], b[2]) for v, b, i in zip(cell, cell.values(), e)} for e in ends]
    for c in [cell, region.mid] + corners:
        assert _eval3(new, c) == _eval3(old, c)


@settings(max_examples=300, deadline=None)
@given(st.lists(atoms, min_size=1, max_size=2), st.lists(conjuncts_of(), min_size=1, max_size=3))
def test_normal_forms_equal_the_references(atom_list, conjunct_list):
    for a in atom_list:
        if isinstance(a, Cmp):
            n, r = norm_atom(a), ref_norm_atom(a)
            assert n == r and list(n.poly.terms.items()) == list(r.poly.terms.items())
            assert as_fraction(arith._root(n.poly)) == ref_root(r.poly)
    for g in conjunct_list:
        # the parser's normal form of `!` and `->` is the reference's
        assert parsed(g) == ref_nnf(g) and parsed(Neg(g)) == ref_nnf(Neg(g))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(pool_atoms, pool_atoms, st.builds(ref_norm_atom, linear_atoms())), max_size=5))
def test_contradictory_equals_the_reference(atom_list):
    assert contradictory(atom_list) == ref_contradictory(atom_list)


def ref_primitive_key(p: Polynomial) -> frozenset:
    """The terms of the primitive part as `contradictory` keyed them, from
    `Fraction` coefficients."""
    terms = rational_terms(p)
    s = math.lcm(*(c.denominator for c in terms.values()))
    ints = [(m, c.numerator * (s // c.denominator)) for m, c in terms.items()]
    g = math.gcd(*(n for _, n in ints))
    return frozenset((m, n // g) for m, n in ints)


def ref_scaled_poly(p: Polynomial) -> tuple:
    """`_scaled_poly` as it read `Fraction` coefficients: p over the lcm of
    their denominators."""
    pt = rational_terms(p)
    s = math.lcm(*(c.denominator for c in pt.values()))
    coeffs = {m: c.numerator * (s // c.denominator) for m, c in pt.items()}
    degrees = {}
    for m in coeffs:
        for v, e in m:
            degrees[v] = max(degrees.get(v, 0), e)
    terms = []
    for m, c in coeffs.items():
        exps = dict(m)
        terms.append((c, m, tuple((v, k - exps.get(v, 0)) for v, k in degrees.items() if k > exps.get(v, 0))))
    return tuple(terms), degrees


wide = st.one_of(
    coefficients,
    st.builds(Fraction, st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**25)),
)
rational_polys = st.one_of(
    # a*v + b: linear in one variable, with zero and large constants
    st.builds(
        lambda v, a, b: Polynomial({((v, 1),): a, (): b}),
        st.sampled_from(NAMES),
        wide,
        st.one_of(constants, wide),
    ),
    st.dictionaries(
        st.sampled_from([(), (("x", 1),), (("y", 1),), (("x", 2),), (("x", 1), ("y", 1)), (("y", 3),)]),
        st.one_of(wide, st.just(Fraction(0))),
        max_size=5,
    ).map(Polynomial),
)


@settings(max_examples=400, deadline=None)
@given(rational_polys, rational_polys, st.booleans())
@example(Polynomial({(("x", 1),): Fraction(-10**30, 7), (): Fraction(0)}), Polynomial(), True)
def test_root_primitive_and_scaled_terms_equal_the_fraction_references(p, q, negate):
    if negate:
        p = -p
    assert as_fraction(arith._root(p)) == ref_root(p)
    if not p.is_zero():
        assert frozenset(primitive(p).terms.items()) == ref_primitive_key(p) and primitive(p).den == 1
        assert (primitive(p) == primitive(q)) == (ref_primitive(ref_of(p)) == ref_primitive(ref_of(q)))
        assert primitive(-p) == -primitive(p)
    assert arith._scaled_poly(p) == ref_scaled_poly(p)
    assert arith._scaled_poly(p - q) == ref_scaled_poly(p - q)
