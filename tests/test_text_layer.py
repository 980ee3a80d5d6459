"""The text layer against references: the tokenizer and the printer memo.

`reference_tokenize` is the character-by-character tokenizer `syntax` used
before it matched one regular expression; it stays here as the
specification.  The two agree on every token and every error, except that a
numeral is now ASCII digits only: where the reference read a non-ASCII digit
into a numeral (`²`, `٣`), the tokenizer rejects that character.
"""

from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from odeliveness import syntax
from odeliveness.errors import ParseError
from odeliveness.symbolic import Polynomial
from odeliveness.syntax import print_poly

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
