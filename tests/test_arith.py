import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odeliveness import arith
from odeliveness.arith import (
    ArithObligation,
    Budget,
    emit_smtlib,
    extract_box,
    falsify,
    prove_implication,
    smt_filename,
)
from odeliveness.normal import NormAtom, _canonical_sign, atoms_of, equality_polys
from odeliveness.symbolic import Polynomial, poly_divmod, primitive, reduce_mod_equalities
from odeliveness.codegen import build, formula_src, poly_src
from odeliveness.syntax import Cmp, conj, parse_formula, parse_poly

from conftest import Interval, cell_of, eval_rational, interval_of_poly
from ref_poly import rational_terms


def ob(universals, hyp, concl):
    return ArithObligation(tuple(universals), parse_formula(hyp), parse_formula(concl))


# -- prove_implication -------------------------------------------------------


def test_annulus_slope_bound_valid():
    v = prove_implication(
        ob(
            ("u", "v"),
            "1 <= u^2 + v^2 & u^2 + v^2 <= 2",
            "2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2 >= 3/2",
        )
    )
    assert v.is_valid


def test_linear_slope_bound_valid_with_box_atoms():
    v = prove_implication(
        ob(("u", "v"), "1/4 < u^2 + v^2 & u^2 + v^2 <= 4", "2*u^2 + 2*v^2 >= 1/2")
    )
    assert v.is_valid
    # the unbounded-premise version, bounded by box atoms in the hypothesis
    v2 = prove_implication(
        ob(("u", "v"), "1/4 < u^2 + v^2 & -4 <= u & u <= 4 & -4 <= v & v <= 4", "2*u^2 + 2*v^2 >= 1/2")
    )
    assert v2.is_valid


def test_annulus_overclaimed_slope_falsified():
    v = prove_implication(
        ob(
            ("u", "v"),
            "1 <= u^2 + v^2 & u^2 + v^2 <= 2",
            "2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2 >= 2",
        )
    )
    assert v.status == arith.FALSIFIED
    cx = v.counterexample
    # exact rational re-verification near the inner circle
    r2 = sum(x * x for x in cx.values())
    assert 1 <= r2 <= 2
    assert 2 * r2 * (r2 - Fraction(1, 4)) < 2


def test_unbounded_hypothesis_unknown_without_box():
    # valid, but not symbolically derivable and not boxable: stays Unknown
    v = prove_implication(ob(("x",), "x > 0", "x^3 + x^2 + 1 > 0"))
    assert v.status == arith.UNKNOWN
    assert v.trace["method"] == "unbounded-domain"


def test_inconsistent_hypothesis_valid():
    v = prove_implication(ob(("x",), "x = 0 & x != 0", "x >= 100"))
    assert v.is_valid
    assert v.trace["method"] == "inconsistent-hypothesis"


def test_budget_exhaustion_reports_stats():
    # a genuinely hard touching inequality: needs many cells without symbolic help
    hard = ArithObligation(
        ("x", "y"),
        parse_formula("-1 <= x & x <= 1 & -1 <= y & y <= 1"),
        parse_formula("x^2*y^2*(x^2 + y^2 - 2) <= 0"),
    )
    v = prove_implication(hard, budget=Budget(max_cells=16, max_seconds=5.0))
    assert v.status in (arith.UNKNOWN, arith.VALID)
    if v.status == arith.UNKNOWN:
        assert v.trace["method"] == "budget-exhausted"
        assert v.trace["cells"] >= 16


def test_determinism():
    o = ob(("u", "v"), "1 <= u^2 + v^2 & u^2 + v^2 <= 2", "u^2 + v^2 >= 1/2")
    v1, v2 = prove_implication(o), prove_implication(o)
    assert (v1.status, v1.trace) == (v2.status, v2.trace)
    f1 = falsify(o, samples=500, seed=7)
    f2 = falsify(o, samples=500, seed=7)
    assert (f1.status, f1.counterexample) == (f2.status, f2.counterexample)


# -- falsify ------------------------------------------------------------------


def test_falsify_simple_counterexample():
    v = falsify(ob(("x",), "true", "x^2 >= 1"), samples=200, seed=0)
    assert v.status == arith.FALSIFIED
    assert v.counterexample["x"] ** 2 < 1


def test_falsify_no_counterexample_exists():
    v = falsify(ob(("x",), "x >= 2", "x^2 >= 4"), samples=500, seed=0)
    assert v.status == arith.UNKNOWN


def test_falsify_box_past_the_float_range_is_unknown():
    # the box reaches 10^600: the sampler has no float axis to screen and
    # answers Unknown with no sample, while the exact prover refutes x = 0
    o = ob(("x",), "x >= 0 & (1/10^300)*x <= 10^300", "x >= 1")
    v = falsify(o, samples=200, seed=0)
    assert v.status == arith.UNKNOWN
    assert v.trace == {"method": "sampling", "samples": 0}
    assert arith.prove_implication(o).status == arith.FALSIFIED


def test_falsify_screens_a_polynomial_of_thousands_of_terms():
    # (1 + x + y + z)^26 has 3,654 terms, past the length of a flat `+`
    # chain that CPython compiles at its default recursion limit
    o = ob(("x", "y", "z"), "-1 <= x & x <= 1 & -1 <= y & y <= 1 & -1 <= z & z <= 1", "(1 + x + y + z)^26 >= 1")
    v = falsify(o, samples=50, seed=0)
    assert v.status == arith.FALSIFIED
    assert sum(v.counterexample.values()) < 0


def test_falsify_epsilon_two_at_unit_circle():
    v = falsify(
        ob(
            ("u", "v"),
            "1 <= u^2 + v^2 & u^2 + v^2 <= 2",
            "2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2 >= 2",
        ),
        samples=3000,
        seed=0,
    )
    assert v.status == arith.FALSIFIED


def test_small_lattice_is_swept_once():
    grid = list(arith._sample_grid(2, 257**2, seed=0))
    assert grid[:5] == [(256, 256), (0, 256), (256, 0), (0, 0), (128, 128)]
    assert len(grid) == len(set(grid)) == 257**2
    # one point short of the lattice: seeded draws, which repeat points
    assert len(set(arith._sample_grid(2, 257**2 - 1, seed=0))) < 257**2 - 1
    assert list(arith._sample_grid(0, 5, seed=0)) == [()]


def test_sweep_finds_a_lone_lattice_counterexample():
    o = ob(("x", "y"), "0 <= x & x <= 256 & 0 <= y & y <= 256", "(x - 37)^2 + (y - 201)^2 > 0")
    v = falsify(o, samples=100_000, seed=0)
    assert v.status == arith.FALSIFIED
    assert v.counterexample == {"x": 37, "y": 201}
    # corners and centre first, then the lexicographic order without the
    # corners (0, 0) and (0, 256) it has already passed
    assert v.trace["samples"] == 5 + (37 * 257 + 201 + 1) - 2
    u = falsify(ob(("x",), "x >= 2", "x^2 >= 4"), samples=500, seed=0)
    assert (u.status, u.trace["samples"]) == (arith.UNKNOWN, 257)


# -- box extraction -----------------------------------------------------------


def box_cell(hyp: str, universals) -> tuple:
    return extract_box(atoms_of(parse_formula(hyp)), universals)


def test_extract_box_from_sum_of_squares():
    b, unbounded = box_cell("u^2 + v^2 <= 2", ("u", "v"))
    assert not unbounded
    # the outward root 91/64 of 2, which covers radius sqrt(2)
    assert b == {"u": (-91, 91, 64), "v": (-91, 91, 64)}


def test_extract_box_from_equality():
    b, _ = box_cell("u^2 + v^2 = 1 & x = 0", ("u", "v", "x"))
    assert b == {"u": (-1, 1, 1), "v": (-1, 1, 1), "x": (0, 0, 1)}


@given(
    st.builds(Fraction, st.integers(1, 10**80), st.integers(1, 10**40)) | st.sampled_from([Fraction(4), Fraction(1, 64)]),
    st.sampled_from([2, 4, 6, 3]),
)
@example(Fraction(10**60) + Fraction(1, 3), 2)
@example(Fraction(10**400), 2)
@example(Fraction(10**400), 4)
def test_root_upper_is_the_least_outward_root(x, k):
    r = Fraction(arith._root_upper(x.numerator, x.denominator, k), 64)
    n = r * 64  # the definition: the least integer n >= 1 with (n/64)^k >= x
    assert n.denominator == 1 and n >= 1
    assert r**k >= x and (n == 1 or Fraction(n - 1, 64) ** k < x)


def test_extract_box_reports_unbounded():
    b, unbounded = box_cell("u >= 0", ("u",))
    assert b is None and unbounded == ["u"]


# -- interval arithmetic ------------------------------------------------------

fracs = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
monos = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 3)), max_size=2
).map(lambda ps: tuple(sorted(dict(ps).items())))
poly_st = st.dictionaries(monos, fracs, max_size=4).map(Polynomial)


@given(poly_st, fracs, fracs, fracs, fracs, st.integers(0, 99))
@settings(max_examples=120, deadline=None)
def test_interval_encloses_point_values(p, a, b, c, d, pick):
    box = {
        "x": Interval(min(a, b), max(a, b)),
        "y": Interval(min(c, d), max(c, d)),
    }
    iv = interval_of_poly(p, box)
    rng = Random(pick)
    pt = {}
    for n, i in box.items():
        pt[n] = i.lo + (i.hi - i.lo) * Fraction(rng.randrange(0, 101), 100)
    val = eval_rational(p, pt)
    assert iv.lo <= val <= iv.hi


# -- the falsifier's float screen ---------------------------------------------------


def side_screen(o, names, axes):
    """`falsify`'s screen as it was built from each comparison's lhs - rhs."""

    def atom(f):
        d = poly_src(f.lhs - f.rhs, lambda v: f"_a{names.index(v)}")
        if f.op == "=":
            return f"(abs({d}) <= 1e-9)"
        if f.op == "!=":
            return f"(abs({d}) > 1e-12)"
        return f"(({d}) {f.op} 0.0)"

    src = (
        "def _screen(_k):\n"
        + "".join(f"    _a{i} = _x{i}[_k[{i}]]\n" for i in range(len(names)))
        + f"    return {formula_src(o.hypothesis, atom)} and not {formula_src(o.conclusion, atom)}\n"
    )
    return build(src, "_screen", {f"_x{i}": axis for i, axis in enumerate(axes)})


def screened(screen, k):
    try:
        return screen(k)
    except OverflowError:
        return "overflow"


axis_floats = st.lists(
    st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, 0.5, 1e-9, -1e-9, 1e200, -1e200])), min_size=3, max_size=3
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["=", "!=", ">=", ">", "<=", "<"]), poly_st, poly_st), min_size=2, max_size=4),
       axis_floats, axis_floats)
def test_the_screen_of_normalised_atoms_answers_as_the_sides_did(cmps, xs, ys):
    # the screen compiles each comparison's normalised atom; negating a
    # polynomial negates its float terms and their sum exactly, so every
    # lattice point screens as it did
    parts = [Cmp(op, lhs, rhs) for op, lhs, rhs in cmps]
    o = ArithObligation(("x", "y"), conj(parts[:-1]), parts[-1])
    names, axes = ("x", "y"), [xs, ys]
    new, old = arith._compile_screen(o, names, axes), side_screen(o, names, axes)
    for k in itertools.product(range(3), repeat=2):
        assert screened(new, k) == screened(old, k)


# -- pre-check rejects ------------------------------------------------------------


def constant(p: Polynomial) -> Fraction:
    return rational_terms(p).get((), Fraction(0))


def ref_derive_atom(goal, atoms, box):
    """`_derive_atom` without its skips of divisions and pair sums that cannot
    succeed, matching a scaled fact plus a constant through primitive parts."""
    eqs = equality_polys(atoms)
    e = reduce_mod_equalities(goal.poly, eqs)
    strict = goal.op == ">"
    if goal.op == "=":
        return e.is_zero()
    c = e.constant_value()
    if c is not None:
        return c > 0 if strict else c >= 0
    if not strict and arith._trivially_nonneg(e):
        return True
    facts = []
    neq_polys = set()
    for a in atoms:
        if a.op in (">=", ">"):
            facts.append((a.poly, a.op == ">"))
        elif a.op == "=":
            facts.append((a.poly, False))
            facts.append((-a.poly, False))
        else:
            neq_polys.add(primitive(a.poly))
    ep = primitive(e)
    candidates = [(f, s) for f, s in facts]
    for i in range(len(facts)):
        for j in range(i + 1, len(facts)):
            s = facts[i][0] + facts[j][0]
            if not s.is_zero():
                candidates.append((s, facts[i][1] or facts[j][1]))
    e_body = e - constant(e)
    for fpoly, fstrict in candidates:
        # e = lam*f + c with lam > 0 exactly when the non-constant parts are
        # positive multiples of each other
        f_body = fpoly - constant(fpoly)
        if f_body.is_zero() or primitive(f_body) != primitive(e_body):
            continue
        m, ec = next(iter(rational_terms(e_body).items()))
        c = constant(e) - ec / rational_terms(f_body)[m] * constant(fpoly)
        if c < 0:
            continue
        if not strict or fstrict or c > 0:
            return True
        if _canonical_sign(ep) in neq_polys or primitive(_canonical_sign(ep)) in neq_polys:
            return True
    for fpoly, fstrict in facts:
        if fpoly.is_constant() or fpoly.degree() > e.degree():
            continue
        q, r = poly_divmod(e, fpoly)
        rc = r.constant_value()
        if rc is None or rc < 0 or q.is_zero():
            continue
        qc = q.constant_value()
        if qc is not None:
            q_nonneg, q_pos = qc >= 0, qc > 0
        elif box is not None and all(v in box for v in q.variables()):
            iv = interval_of_poly(q, box)
            q_nonneg, q_pos = iv.lo >= 0, iv.lo > 0
        else:
            continue
        if not q_nonneg:
            continue
        if not strict:
            return True
        if rc > 0 or (fstrict and q_pos):
            return True
    return False


coef = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
linear = st.builds(
    lambda v, a, b: Polynomial({((v, 1),): a, (): b}),
    st.sampled_from(["x", "y"]),
    coef.filter(bool),
    coef,
)
fact_poly = st.one_of(linear, poly_st)
square_plus = st.builds(
    lambda v, a, b: Polynomial({((v, 2),): a, (): b}),
    st.sampled_from(["x", "y"]),
    coef.filter(lambda c: c > 0),
    coef.filter(lambda c: c >= 0),
)


@st.composite
def precheck_cases(draw):
    ops = st.sampled_from([">=", ">", "=", "!="])
    atoms = [NormAtom(draw(ops), draw(linear))]  # a box bound, the usual divisor
    atoms += [NormAtom(draw(ops), draw(fact_poly)) for _ in range(draw(st.integers(0, 3)))]
    polys = [a.poly for a in atoms]
    shape = draw(st.integers(0, 3))
    if shape == 0:  # unrelated to the facts
        body = draw(poly_st)
    elif shape == 1:  # a pair sum, of two different facts when there are two
        i, j = (draw(st.permutations(range(len(polys)))) * 2)[:2]
        body = polys[i] + polys[j]
    elif shape == 2:  # a multiple of one fact, by a factor of known sign on some boxes
        body = draw(st.sampled_from(polys)) * draw(st.one_of(poly_st, coef.map(Polynomial.const), square_plus))
    else:  # one fact scaled
        body = draw(st.sampled_from(polys)) * draw(coef)
    goal = NormAtom(draw(st.sampled_from([">=", ">", "="])), body + Polynomial.const(draw(coef)))
    box = None
    if draw(st.booleans()):
        box = {}
        for v in ("x", "y"):
            a, b = draw(coef), draw(coef)
            box[v] = Interval(min(a, b), max(a, b))
    return goal, atoms, box


@settings(max_examples=600, deadline=None)
@given(precheck_cases())
# e = (x - 1) * (y^2 + 1) + 1/2: the remainder of dividing by x - 1 is e at x = 1
@example(
    (
        NormAtom(">", parse_poly("(x - 1) * (y^2 + 1) + 1/2")),
        [NormAtom(">=", parse_poly("x - 1"))],
        {"x": Interval(Fraction(0), Fraction(2)), "y": Interval(Fraction(-1), Fraction(1))},
    )
)
# e = (x - 1) + (y + 2) + 1/2: only the pair sum of the two facts matches
@example(
    (
        NormAtom(">=", parse_poly("x + y + 3/2")),
        [NormAtom(">=", parse_poly("x - 1")), NormAtom(">", parse_poly("y + 2"))],
        None,
    )
)
# e = 2*((x - 1) + (y + 2)) + 1/2: twice the pair sum plus a constant
@example(
    (
        NormAtom(">=", parse_poly("2*x + 2*y + 5/2")),
        [NormAtom(">=", parse_poly("x - 1")), NormAtom(">", parse_poly("y + 2"))],
        None,
    )
)
def test_derive_atom_matches_reference(case):
    goal, atoms, box = case
    cell = box and cell_of(box)
    assert arith._derive_atom(goal, arith._Hypothesis(atoms), cell) == ref_derive_atom(goal, atoms, box)


# -- soundness cross-check (prover vs falsifier) ------------------------------


def _random_obligation(rng: Random):
    names = ("x", "y")
    def rand_poly(max_terms=3, max_deg=2):
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            mono = tuple(
                sorted(
                    {
                        n: rng.randrange(1, max_deg + 1)
                        for n in rng.sample(names, rng.randrange(0, 3))
                    }.items()
                )
            )
            terms[mono] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return Polynomial(terms)

    bounds = []
    for n in names:
        lo = Fraction(rng.randrange(-3, 1))
        hi = lo + Fraction(rng.randrange(1, 5))
        bounds.append(f"{lo} <= {n} & {n} <= {hi}")
    hyp = parse_formula(" & ".join(bounds))
    op = rng.choice([">=", ">", "<=", "<"])
    from odeliveness.syntax import Cmp

    concl = Cmp(op, rand_poly(), Polynomial.const(Fraction(rng.randrange(-6, 7), 2)))
    return ArithObligation(names, hyp, concl)


def test_soundness_prover_never_contradicts_sampler():
    rng = Random(2024)
    budget = Budget(max_cells=4000, max_seconds=1.0)
    conflicts = 0
    valid_count = 0
    for _ in range(120):
        o = _random_obligation(rng)
        pv = prove_implication(o, budget=budget)
        if pv.is_valid:
            valid_count += 1
            fv = falsify(o, samples=4000, seed=1)
            if fv.status == arith.FALSIFIED:
                conflicts += 1
    assert conflicts == 0
    assert valid_count > 10  # the property is vacuous if nothing proves


# -- SMT-LIB export ------------------------------------------------------------


def test_smtlib_direct_translation():
    script = emit_smtlib(ob(("x",), "x >= 0", "x + 1 > 0"))
    assert "(set-logic QF_NRA)" in script
    assert "(assert (>= x 0))" in script
    assert "(assert (not (> (+ x 1) 0)))" in script
    assert script.strip().endswith("(exit)")


def test_smtlib_rational_syntax():
    script = emit_smtlib(ob(("x",), "x >= 1/4", "x > 0"))
    assert "(/ 1 4)" in script


def test_smtlib_byte_stable_and_named():
    o = ob(
        ("u", "v"),
        "1 <= u^2 + v^2 & u^2 + v^2 <= 2",
        "2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2 >= 3/2",
    )
    assert emit_smtlib(o) == emit_smtlib(o)
    name = smt_filename(3, o)
    assert name.startswith("ob-3-") and name.endswith(".smt2")
