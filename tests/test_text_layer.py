"""The text layer against references: the tokenizer, the expression parser,
the printer memo and the formula nodes' memo slots.

`reference_tokenize` is the character-by-character tokenizer `syntax` used
before it matched one regular expression; it stays here as the
specification.  The two agree on every token and every error, except that a
numeral is now ASCII digits only: where the reference read a non-ASCII digit
into a numeral (`²`, `٣`), the tokenizer rejects that character.

`ReferenceParser` is the expression tower `syntax` used before it built each
term once: recursive descent with one method per binding level, and every
term a product of one-variable polynomials.  It is the specification of the
parser: both give equal values, with the terms of every polynomial in the
same order, or the same error at the same place.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness import syntax
from odeliveness.errors import DegreeCapExceeded, OdelivError, ParseError, UnknownIdentifier
from odeliveness.record import Record
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import (
    CMP_OPS,
    FALSE,
    TRUE,
    And,
    BoolLit,
    Cmp,
    Implies,
    Not,
    Or,
    Quant,
    conj,
    print_formula,
    print_poly,
)

# -- the reference tokenizer ----------------------------------------------------

_SYMBOLS = ["->", "!=", ">=", "<=", "{", "}", "(", ")", "[", "]", ";", ",", "'", "=", ">", "<", "+", "-", "*", "^",
            "&", "|", "!", "/"]


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def reference_tokenize(text: str, toks=None) -> list:
    """`toks`, if given, receives the tokens made so far, also on an error."""
    toks = [] if toks is None else toks
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(RefToken("kw" if word in syntax._KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(RefToken("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(RefToken("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(RefToken("eof", "", line, col))
    return toks


def outcome(tokenize, text):
    """The tokens as (kind, text, line, col), or the error as (message, line, col)."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)], None
    except ParseError as e:
        return None, (str(e), e.line, e.col)


def first_non_ascii_digit(tokens):
    """The first character the reference read into a numeral that is not an
    ASCII digit, with its line and column."""
    for kind, text, line, col in tokens:
        if kind == "int":
            for k, ch in enumerate(text):
                if not "0" <= ch <= "9":
                    return ch, line, col + k
    return None


# -- tokenizer ------------------------------------------------------------------

PIECES = _SYMBOLS + [" ", "  ", "\t", "\r", "\n", "#", "# note", "ode", "rule", "x", "ab", "Z", "_", "0", "7", "12",
                     "é", "x²", "²", "½", "٣", "x٣"]
texts = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@settings(max_examples=1500, deadline=None)
@given(texts)
def test_tokenizer_matches_the_reference(text):
    made = []
    want = outcome(lambda s: reference_tokenize(s, made), text)
    got = outcome(syntax._tokenize, text)
    stray = first_non_ascii_digit((t.kind, t.text, t.line, t.col) for t in made)
    if stray is None:
        assert got == want
    else:
        ch, line, col = stray
        assert got == (None, (f"{line}:{col}: unexpected character {ch!r}", line, col))


def test_tokenizer_on_hand_picked_text():
    assert outcome(syntax._tokenize, "x²_1 -> é")[0] == [
        ("ident", "x²_1", 1, 1), ("sym", "->", 1, 6), ("ident", "é", 1, 9), ("eof", "", 1, 10)]
    # a comment advances no column, so the end of input sits at its '#'
    assert outcome(syntax._tokenize, "ode\n  x # c")[0][-1] == ("eof", "", 2, 5)
    assert outcome(syntax._tokenize, "\t1\r\n½")[1] == ("2:1: unexpected character '½'", 2, 1)
    assert outcome(syntax._tokenize, "12٣")[1] == ("1:3: unexpected character '٣'", 1, 3)


# -- the printer memo -------------------------------------------------------------

names = st.sampled_from(["u", "v", "w"])
fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
monos = st.lists(st.tuples(names, st.integers(1, 3)), max_size=2).map(lambda ps: tuple(sorted(dict(ps).items())))
terms = st.dictionaries(monos, fracs, max_size=4)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_memoised_printing_equals_uncached_printing(t):
    p = Polynomial(t)
    # the same value built again, its terms in the reverse order
    q = Polynomial(dict(reversed(list(t.items()))))
    r = sum((Polynomial({m: c}) for m, c in t.items()), Polynomial())
    want = print_poly.__wrapped__(p)
    assert print_poly(p) == print_poly(q) == print_poly(r) == want


def test_printer_memo_stays_bounded():
    maxsize = print_poly.cache_info().maxsize
    assert maxsize is not None
    for k in range(3 * maxsize):
        p = Polynomial.var("u") * k + 1
        assert print_poly(p) == print_poly.__wrapped__(p)
    assert print_poly.cache_info().currsize <= maxsize


# -- the reference parser ---------------------------------------------------------


class ReferenceParser(syntax._Parser):
    """Each level returns ("poly", Polynomial) or ("formula", Formula).  The
    file-structure methods of `_Parser` call `parse_expr`, `_sum`,
    `_as_formula` and `_as_poly` on plain values, so the first two unwrap
    the pair here, and `parse_problem` runs on this tower as well."""

    def parse_expr(self):
        return self._implication()[1]

    def _sum(self):
        return self._ref_sum()[1]

    def _implication(self):
        left = self._disjunction()
        if self.accept("->"):
            right = self._implication()
            return ("formula", Implies(self._formula(left), self._formula(right)))
        return left

    def _disjunction(self):
        left = self._conjunction()
        while self.accept("|"):
            right = self._conjunction()
            left = ("formula", Or(self._formula(left), self._formula(right)))
        return left

    def _conjunction(self):
        left = self._unary()
        while self.accept("&"):
            right = self._unary()
            left = ("formula", And(self._formula(left), self._formula(right)))
        return left

    def _unary(self):
        t = self.peek()
        if t.kind == "sym" and t.text == "!":
            self.next()
            arg = self._unary()
            return ("formula", Not(self._formula(arg)))
        if t.kind == "kw" and t.text in ("forall", "exists"):
            self.next()
            var = self.expect_ident()
            self.uses.append((var.text, var.line, var.col))
            self.expect("(")
            body = self._implication()
            self.expect(")")
            return ("formula", Quant(t.text, var.text, self._formula(body)))
        return self._comparison()

    def _comparison(self):
        first = self._ref_sum()
        if first[0] == "formula":
            return first
        chain = [first]
        ops = []
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in CMP_OPS:
                ops.append(self.next().text)
                chain.append(self._ref_sum())
            else:
                break
        if not ops:
            return first
        cmps = []
        for i, op in enumerate(ops):
            cmps.append(Cmp(op, self._poly(chain[i]), self._poly(chain[i + 1])))
        return ("formula", conj(cmps) if len(cmps) > 1 else cmps[0])

    def _ref_sum(self):
        t = self.peek()
        negate = False
        if t.kind == "sym" and t.text == "-":
            self.next()
            negate = True
        left = self._term()
        if left[0] == "formula" and not negate:
            return left
        value = self._poly(left)
        if negate:
            value = -value
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in ("+", "-"):
                self.next()
                right = self._poly(self._term())
                value = value + right if t.text == "+" else value - right
            else:
                return ("poly", value)

    def _term(self):
        left = self._factor()
        if left[0] == "formula":
            return left
        value = self._poly(left)
        while self.accept("*"):
            value = value * self._poly(self._factor())
        return ("poly", value)

    def _factor(self):
        if self.accept("-"):
            inner = self._poly(self._factor())
            return ("poly", -inner)
        base = self._atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            if base[0] == "formula":
                raise self.fail(["polynomial base for '^'"])
            self.next()
            t = self.peek()
            if t.kind != "int":
                raise self.fail(["nonnegative integer exponent"])
            self.next()
            return ("poly", self._poly(base) ** int(t.text))
        return base

    def _atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.peek().kind == "sym" and self.peek().text == "/":
                nxt = self.peek(1)
                if nxt.kind == "int":
                    self.next()
                    den = int(self.next().text)
                    if den == 0:
                        raise ParseError("zero denominator", t.line, t.col)
                    return ("poly", Polynomial.const(Fraction(num, den)))
            return ("poly", Polynomial.const(num))
        if t.kind == "ident":
            self.next()
            self.uses.append((t.text, t.line, t.col))
            return ("poly", Polynomial.var(t.text))
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return ("formula", TRUE if t.text == "true" else FALSE)
        if t.kind == "sym" and t.text == "(":
            self.next()
            inner = self._implication()
            self.expect(")")
            return inner
        raise self.fail(["expression"])

    def _formula(self, v):
        kind, value = v
        if kind == "formula":
            return value
        t = self.peek()
        raise ParseError("expected a formula, found a bare polynomial", t.line, t.col, expected=CMP_OPS)

    def _poly(self, v):
        kind, value = v
        if kind == "poly":
            return value
        t = self.peek()
        raise ParseError("expected a polynomial, found a formula", t.line, t.col)


def reference_parse(text: str, want: str):
    """`syntax.parse_formula` (want "formula") or `parse_poly` ("poly") on
    the reference tower."""
    p = ReferenceParser(text)
    v = p._as_formula(p.parse_expr()) if want == "formula" else p._as_poly(p.parse_expr())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return v


def shape(v):
    """`v` with every polynomial as its terms in insertion order, which
    decides the order of evaluation in generated code."""
    if isinstance(v, Polynomial):
        return ("poly", tuple(v.terms.items()))
    if isinstance(v, Record):
        return (type(v).__name__,) + tuple(shape(getattr(v, name)) for name in v._compare)
    if isinstance(v, tuple):
        return tuple(shape(x) for x in v)
    return v


def parse_outcome(parse, *args):
    """The value with its shape, or the error as (type, message, line, col)."""
    try:
        v = parse(*args)
    except OdelivError as e:
        return None, (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None))
    return (v, shape(v)), None


def problem_with(text: str) -> str:
    return f"param a; ode {{ x' = 1; y' = x }} goal {{ {text} }}"


def assert_parsers_agree(text: str) -> None:
    for want, parse in (("formula", syntax.parse_formula), ("poly", syntax.parse_poly)):
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text, want), (want, text)
    for source in (problem_with(text), f"ode {{ x' = {text} }}"):
        got = parse_outcome(syntax.parse_problem, source)
        assert got == parse_outcome(lambda s: ReferenceParser(s).parse_problem(), source), source


# identifiers: x, y and a are declared in `problem_with`, b is not
ATOMS = ["x", "y", "a", "b", "0", "1", "2", "12", "1/2", "3/4", "5/0", "true", "false"]
TOKENS = ATOMS + ["40", "70", "+", "-", "*", "^", "/", "(", ")", "<=", ">=", "<", ">", "=", "!=", "&", "|", "!",
                  "->", "forall", "exists", ",", ";"]
token_texts = st.lists(st.sampled_from(TOKENS), max_size=14).map(" ".join)


def infix(first, rest) -> str:
    """`first op1 x1 op2 x2 ...` from `rest` = [(op1, x1), (op2, x2), ...]."""
    return " ".join([first] + [w for pair in rest for w in pair])


polys = st.recursive(
    st.sampled_from(ATOMS[:10]),
    lambda sub: st.one_of(
        st.builds("{}^{}".format, st.sampled_from(["x", "y", "2", "0", "(x + 1)"]),
                  st.sampled_from(["0", "1", "3", "40", "70"])),
        st.builds(infix, sub, st.lists(st.tuples(st.sampled_from(["+", "-", "*"]), sub), min_size=1, max_size=3)),
        st.builds("-{}".format, sub),
        st.builds("({})".format, sub),
    ),
    max_leaves=8,
)
comparisons = st.builds(infix, polys, st.lists(st.tuples(st.sampled_from(CMP_OPS), polys), min_size=1, max_size=3))
formulas = st.recursive(
    st.one_of(comparisons, st.sampled_from(["true", "false"])),
    lambda sub: st.one_of(
        st.builds("!{}".format, sub),
        st.builds(infix, sub, st.lists(st.tuples(st.sampled_from(["&", "|", "->"]), sub), min_size=1, max_size=3)),
        st.builds("({})".format, sub),
        st.builds("{} x ({})".format, st.sampled_from(["forall", "exists"]), sub),
    ),
    max_leaves=8,
)


@settings(max_examples=600, deadline=None)
@given(token_texts)
def test_parser_matches_the_reference_on_token_strings(text):
    assert_parsers_agree(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(polys, formulas))
def test_parser_matches_the_reference_on_well_formed_text(text):
    assert_parsers_agree(text)


HAND_PICKED = [
    "0*x^70", "x^40*x^40", "0*x^40*x^40", "x^40*0*x^40", "(x^40)*(x^40)", "0*(x^40)*(x^40)", "2^70*x", "-x^2",
    "2*-x", "1/2*x", "1/2^3", "1/x", "1/0", "x^0", "(x+1)^2*y", "y*(x + 1)*(x - y)*x", "x*(x+1)^2 - (x+1)*x",
    "x + (y >= 1)", "true * x", "-true", "x * true", "(x >= 1)^2", "x^y", "1 <= x <= 2 <= 3",
    "a >= 0 -> b >= 0 -> c >= 0", "!x >= 1", "x >= true >= y", "x & y >= 0", "x -> y >= 0",
    "forall x (x >= y) | y > 0 & b = 1", "(x >= 1) >= 2", "x >= 0 | y >= 0 | a >= 0", "x >= 0 & y >= 0 & a >= 0",
    "a >= 0 | b >= 0 & x >= 0 -> y >= 0 & x = 1 | true",
]


@pytest.mark.parametrize("text", HAND_PICKED)
def test_parser_matches_the_reference_on_hand_picked_text(text):
    assert_parsers_agree(text)


def test_hand_picked_values_and_errors():
    with pytest.raises(DegreeCapExceeded, match="power degree 70 exceeds cap 64"):
        syntax.parse_poly("0*x^70")
    with pytest.raises(DegreeCapExceeded, match="product degree 80 exceeds cap 64"):
        syntax.parse_poly("x^40*x^40")
    assert syntax.parse_poly("0*x^40*x^40") == Polynomial()
    assert syntax.parse_poly("-x^2") == -(Polynomial.var("x") ** 2)
    assert syntax.parse_poly("2*-x") == Polynomial.var("x") * -2
    assert syntax.parse_poly("1/2^3") == Polynomial.const(Fraction(1, 8))
    f = syntax.parse_formula("a >= 0 -> b >= 0 -> c >= 0")
    assert type(f) is Implies and type(f.right) is Implies
    assert syntax.parse_formula("!x >= 1") == Not(syntax.parse_formula("x >= 1"))
    chain = syntax.parse_formula("1 <= x <= 2 <= 3")
    assert type(chain) is And and type(chain.left) is And and type(chain.right) is Cmp
    with pytest.raises(ParseError, match="expected a polynomial, found a formula"):
        syntax.parse_poly("x + (y >= 1)")
    with pytest.raises(ParseError, match="trailing input '\\*'"):
        syntax.parse_formula("true * x")


def test_first_undeclared_identifier_in_source_order_is_reported():
    for source, name in [
        ("ode { x' = 1 }  goal { z >= 0 & y >= b }", "z"),
        ("goal { b >= 0 }  ode { x' = y }", "b"),
        ("ode { x' = y }  goal { b >= 0 }", "y"),
        ("ode { x' = 1 }  goal { forall x (x >= w) & q > 0 }", "w"),
    ]:
        with pytest.raises(UnknownIdentifier) as err:
            syntax.parse_problem(source)
        assert err.value.name == name
        assert parse_outcome(syntax.parse_problem, source) == parse_outcome(
            lambda s: ReferenceParser(s).parse_problem(), source)


def test_problem_files_parse_as_the_reference_parses_them():
    from conftest import PROBLEMS

    for path in sorted(PROBLEMS.glob("*.ode")):
        text = path.read_text()
        got = parse_outcome(syntax.parse_problem, text)
        assert got[1] is None
        assert got == parse_outcome(lambda s: ReferenceParser(s).parse_problem(), text), path.name


# -- the memo slots of the formula nodes --------------------------------------------


def nodes():
    """Each kind of node, built afresh on every call."""
    x, one = Polynomial.var("x"), Polynomial.const(1)
    c = Cmp(">=", x, one)
    return [BoolLit(True), c, Not(Cmp(">=", x, one)), And(c, BoolLit(False)), Or(c, Not(c)), Implies(c, c),
            Quant("forall", "x", c)]


@pytest.mark.parametrize("index", range(7))
def test_memo_slots_are_invisible(index):
    a, b = nodes()[index], nodes()[index]
    assert a is not b
    assert a == b and hash(a) == hash(b)
    want = repr(a)
    assert "_hash" not in want and "_text" not in want
    print_formula(a)  # fills the text memo of `a`, not of `b`
    assert a == b and b == a and hash(a) == hash(b)
    hash(b)
    assert a == b and hash(a) == hash(b) and print_formula(a) == print_formula(b)
    assert repr(a) == repr(b) == want
    assert {a: 1}[b] == 1
    # the hash is that of the tuple of the fields
    values = tuple(getattr(a, name) for name in a._fields)
    assert a._compare == a._fields and hash(a) == hash(values)
