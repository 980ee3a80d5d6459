"""Concrete syntax: parser and printer for problem files and expressions.

This module is the single source of truth for the textual format.  The
grammar (whitespace-insensitive, `#` line comments):

    file      := decl* block+
    decl      := "param" Ident ";"
    block     := "ode" "{" eqn (";" eqn)* "}"
               | "domain" "{" formula "}"
               | "assume" "{" formula ("," formula)* "}"
               | "goal"   "{" formula "}"
               | "proof"  "{" step* "}"
    eqn       := Ident "'" "=" poly
    step      := "rule" RuleName "{" binding (";" binding)* "}"
    binding   := Ident "=" (poly | formula | rational | "hint" "[" step* "]")

Binding, tightest first: `^` (a nonnegative integer exponent), unary `-`,
`*`, binary `+` and `-`, the comparisons `= != >= > <= <`, then `!`, `&`,
`|`, and `->` loosest.  `->` is right-associative (`a -> b -> c` is
`a -> (b -> c)`); `&`, `|`, `*`, `+` and `-` are left-associative.  So `-x^2` is `-(x^2)` and `!x >= 1` is `!(x >= 1)`.

Rational literals only (`a/b`, integers); a numeral is ASCII digits
`[0-9]`, and any other digit character (`²`, `٣`) is an unexpected
character.  An identifier starts with a letter (`str.isalpha()`) and
continues with letters, digits (`str.isalnum()`) or `_`.  `&`, `|`, `!`,
`->` for connectives.  Formulas are quantifier-free; `forall` and `exists`
are reserved words, so a formula that uses them fails at the keyword.
Comparison chains such as `1 <= p <= 2` desugar to conjunctions.

`!` and `->` are syntax only: the parser reads a formula into negation
normal form (`negate`; `a -> b` is `!a | b`), so every formula is built
from comparisons, `true`, `false`, `&` and `|`, and prints in that form
(`!(x >= 1)` prints as `x < 1`).  Printing is deterministic (graded
lexicographic term order) and `parse(print(ast))` is the identity on ASTs;
`NESTING_CAP` bounds nesting.
"""

from __future__ import annotations

import functools
import re
from collections import _tuplegetter
from fractions import Fraction
from typing import Optional, Union

from .errors import DegreeCapExceeded, DuplicateDeclaration, NestingTooDeep, ParseError, UnknownIdentifier
from .record import Frozen
from .symbolic import DEGREE_CAP, OdeSystem, Polynomial

# ---------------------------------------------------------------------------
# Formula AST
#
# Each node is a frozen record (see `record`) with two memo slots that take
# no part in equality and are not shown by `repr`: its hash and its printed
# text, each computed on first use.  `rules.Checker` and the `regions`
# lookup hash the same trees many times, and a transcript prints each
# formula several times.  A memo lives and dies with its node.


class Node(Frozen):
    """A formula node: its fields, then the memo slots `_hash` and `_text`.
    The hash is that of the tuple of the fields, in one frame per nesting
    level."""

    __slots__ = ("_hash", "_text")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h


class BoolLit(Node):
    __slots__ = ("value",)


class Cmp(Node):
    __slots__ = ("op", "lhs", "rhs")  # op: one of = != >= > <= <; lhs, rhs: Polynomial


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Modal(Node):
    """Box or diamond ODE modality; appears in sequents, not in problem files."""

    __slots__ = ("box", "system", "post")


Formula = Union[BoolLit, Cmp, And, Or, Modal]

TRUE = BoolLit(True)
FALSE = BoolLit(False)

CMP_OPS = ("!=", ">=", "<=", "=", ">", "<")
_CMP = frozenset(CMP_OPS)

# The printed connectives: node -> (symbol, binding level, least level of
# the left operand, least level of the right operand).  `|` and `&` are
# left-associative.  Every other node binds as an atom does.
_BINARY = {Or: ("|", 2, 2, 3), And: ("&", 3, 3, 4)}
_ATOM = ("", 5, 0, 0)
# The parsed connectives, loosest first: symbol -> (binding level, least
# level of the right operand, builder).  `->` is right-associative and is
# read as `!a | b`.
_CONNECTIVES = {"->": (1, 1, lambda a, b: Or(negate(a), b)), "|": (2, 3, Or), "&": (3, 4, And)}


def conj(parts) -> Formula:
    parts = [p for p in parts if p != TRUE]
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# a negated comparison is again a comparison over the reals
_NEG = {"=": "!=", "!=": "=", ">=": "<", "<": ">=", ">": "<=", "<=": ">"}


def negate(f: Formula) -> Formula:
    """The negation of `f`, again in negation normal form: each comparison
    flipped, `&` and `|` swapped, `true` and `false` swapped."""
    cls = type(f)
    if cls is Cmp:
        return Cmp(_NEG[f.op], f.lhs, f.rhs)
    if cls is And:
        return Or(negate(f.left), negate(f.right))
    if cls is Or:
        return And(negate(f.left), negate(f.right))
    if cls is BoolLit:
        return BoolLit(not f.value)
    raise TypeError(f"cannot negate {f!r}")


def conjuncts(f: Formula) -> list:
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    if type(f) is BoolLit and f.value:
        return []
    return [f]


def disjuncts(f: Formula) -> list:
    if isinstance(f, Or):
        return disjuncts(f.left) + disjuncts(f.right)
    if type(f) is BoolLit and not f.value:
        return []
    return [f]


def formula_variables(f: Formula) -> frozenset:
    if isinstance(f, BoolLit):
        return frozenset()
    if isinstance(f, Cmp):
        return f.lhs.variables() | f.rhs.variables()
    if isinstance(f, (And, Or)):
        return formula_variables(f.left) | formula_variables(f.right)
    if isinstance(f, Modal):
        names = formula_variables(f.post) | frozenset(f.system.all_names())
        if f.system.domain is not None:
            names |= formula_variables(f.system.domain)
        return names
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Problem files


HintList = tuple  # tuple[CertStep, ...]
BindingValue = Union[Polynomial, Formula, Fraction, str, HintList]

RULE_NAMES = frozenset(
    {
        "dV_geq",
        "dV_gt",
        "dV_geq_star",
        "dV_eq",
        "dV_eqM",
        "dV_k",
        "SP",
        "SP_b",
        "SP_c",
        "SLyap",
        "dV_geq_dom",
        "dV_gt_dom",
        "dV_eq_dom",
        "dV_eqM_dom",
        "SLyap_dom",
        "SP_dom",
        "SP_ck_dom",
        "E_c_dom",
    }
)

HINT_STEP_NAMES = frozenset({"DI", "DC", "DW", "DX", "BC", "DomainWeaken"})

# Bare identifiers allowed as binding values (duration/domain step selectors).
ENUM_BINDING_VALUES = frozenset({"GEx", "BEx", "assume", "COR", "DR", "SAR"})


class CertStep(Frozen):
    __slots__ = ("name", "bindings", "line", "col")  # bindings: ((str, BindingValue), ...)
    _defaults = {"line": 0, "col": 0}
    _compare = ("name", "bindings")  # where it was written takes no part

    def get(self, key: str, default=None):
        for k, v in self.bindings:
            if k == key:
                return v
        return default

    def has(self, key: str) -> bool:
        return any(k == key for k, _ in self.bindings)


class ProblemFile(Frozen):
    __slots__ = ("params", "system", "assumptions", "goal", "certificate")  # certificate: (CertStep, ...)


# ---------------------------------------------------------------------------
# Lexer


_KEYWORDS = frozenset(
    {"param", "ode", "domain", "assume", "goal", "proof", "rule", "hint", "true", "false", "forall", "exists"}
)


class Token(tuple):
    """(kind, text, line, col), kind one of "ident", "kw", "int", "sym" and
    "eof", with each field read-only by name.  A plain tuple subclass: a
    `NamedTuple` generates its `__new__` when the class is made.  The fields
    are the C getters `namedtuple` uses, which `collections` falls back to
    `property(itemgetter(i))` for where they are missing."""

    __slots__ = ()
    kind = _tuplegetter(0, "ident, kw, int, sym or eof")
    text = _tuplegetter(1, "the token's text")
    line = _tuplegetter(2, "line, from 1")
    col = _tuplegetter(3, "column, from 1")


# Each match is the blanks before one token, then the first alternative
# that matches: newline, comment, word, numeral, symbol (two-character
# symbols first), any other character but a blank.  `\w` is exactly
# `str.isalnum()` or "_"; a word must also start with a letter
# (`str.isalpha()`), which `[^\W\d_]` alone does not ensure (it accepts "½"
# and "²").  Numerals are ASCII.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|([^\W\d_]\w*)|([0-9]+)"
    r"|(->|!=|>=|<=|[{}()\[\];,'=><+\-*^&|!/])|([^ \t\r]))"
)
_NEWLINE, _COMMENT, _WORD, _INT, _SYM, _OTHER = range(1, 7)


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    new = tuple.__new__  # cheaper than calling `Token`
    line, start = 1, 0  # start: index of the current line's first character
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == _SYM:
            append(new(Token, ("sym", m[group], line, m.start(group) - start + 1)))
        elif group == _WORD:
            word, col = m[group], m.start(group) - start + 1
            if not word[0].isalpha():
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            append(new(Token, ("kw" if word in _KEYWORDS else "ident", word, line, col)))
        elif group == _NEWLINE:
            line += 1
            start = m.end()
        elif group == _INT:
            append(new(Token, ("int", m[group], line, m.start(group) - start + 1)))
        elif group == _OTHER:
            raise ParseError(f"unexpected character {m[group]!r}", line, m.start(group) - start + 1)
    # a comment runs to the end of its line and advances no column
    end = text.find("#", start)
    append(new(Token, ("eof", "", line, (len(text) if end < 0 else end) - start + 1)))
    return toks


# ---------------------------------------------------------------------------
# Parser

# The most nesting tokens one expression holds: `(`, `!`, `&`, `|`, `->`,
# each comparison after the first in a chain, each comma between assumptions
# and each `hint [`.  An expression is the domain, the goal, the assume block,
# each ODE right-hand side, each top-level binding with its hints, or a
# `parse_formula`/`parse_poly` text.  So the parser's recursion and every
# formula built from these parts stay far below the interpreter's stack.
NESTING_CAP = 64


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.nesting = 0  # nesting tokens read in the current expression
        self.uses: list[tuple[str, int, int]] = []  # identifier occurrences in expressions

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self.toks[min(self.pos + ahead, len(self.toks) - 1)]
        return self.toks[self.pos]  # `next` never moves past the eof token

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, text: str) -> Optional[Token]:
        t = self.peek()
        if t.kind in ("sym", "kw") and t.text == text:
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        t = self.peek()
        if (t.kind in ("sym", "kw")) and t.text == text:
            return self.next()
        raise ParseError(f"found {t.text!r}", t.line, t.col, expected=[text])

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind == "ident":
            return self.next()
        raise ParseError(f"found {t.text!r}", t.line, t.col, expected=["identifier"])

    def nest(self) -> None:
        """Steps over a nesting token, one more toward `NESTING_CAP`."""
        self.pos += 1
        self.nesting += 1
        if self.nesting > NESTING_CAP:
            raise NestingTooDeep("formula nested too deeply")

    def fail(self, expected) -> ParseError:
        t = self.peek()
        return ParseError(f"found {t.text or 'end of input'!r}", t.line, t.col, expected=expected)

    # -- expressions --------------------------------------------------------
    #
    # One tower for polynomials and formulas: each level returns a
    # `Polynomial` or a `Formula`, and a context that needs one of the two
    # checks with `_as_poly` or `_as_formula`.

    def parse_expr(self, min_prec: int = 1):
        """Connectives by precedence climbing.  The operand is a unary
        formula; an operator that binds at least `min_prec` takes as its
        right operand everything that binds at least as tightly as itself
        (`->`, right-associative) or more tightly (`|` and `&`, left)."""
        left = self._unary()
        toks = self.toks
        while True:
            t = toks[self.pos]
            op = _CONNECTIVES.get(t.text) if t.kind == "sym" else None
            if op is None or op[0] < min_prec:
                return left
            self.nest()
            right = self.parse_expr(op[1])
            left = op[2](self._as_formula(left), self._as_formula(right))

    def _unary(self):
        t = self.toks[self.pos]
        if t.kind == "sym" and t.text == "!":
            self.nest()
            return negate(self._as_formula(self._unary()))
        return self._comparison()

    def _comparison(self):
        """A sum, or a chain `a op b op c ...` of sums, which desugars to the
        left-nested conjunction of its comparisons."""
        first = self._sum()
        toks = self.toks
        t = toks[self.pos]
        if t.kind != "sym" or t.text not in _CMP or not isinstance(first, Polynomial):
            return first
        self.pos += 1  # the first comparison nests nothing
        chain, ops = [first, self._sum()], [t.text]
        t = toks[self.pos]
        while t.kind == "sym" and t.text in _CMP:
            ops.append(t.text)
            self.nest()
            chain.append(self._sum())
            t = toks[self.pos]
        out = None
        for op, lhs, rhs in zip(ops, chain, chain[1:]):
            c = Cmp(op, self._as_poly(lhs), self._as_poly(rhs))
            out = c if out is None else And(out, c)
        return out

    def _sum(self):
        """Terms joined by `+` and `-`, summed left to right."""
        toks = self.toks
        t = toks[self.pos]
        minus = t.kind == "sym" and t.text == "-"
        if minus:
            self.pos += 1
        first = self._term()
        if not minus and not isinstance(first, Polynomial):
            return first
        total = -self._as_poly(first) if minus else self._as_poly(first)
        t = toks[self.pos]
        while t.kind == "sym" and t.text in ("+", "-"):
            self.pos += 1
            right = self._as_poly(self._term())
            total = total + right if t.text == "+" else total - right
            t = toks[self.pos]
        return total

    def _term(self):
        """Factors joined by `*`.  A factor is unary minus signs, then a
        numeral, identifier, `true`/`false` or parenthesised expression,
        then an optional `^k`.  Numerals, each read as an integer numerator
        and denominator, and `ident^k` fold into one such coefficient and
        one exponent map; only a parenthesised factor is multiplied in as
        a polynomial.  The degree cap is checked at every
        `*` as `Polynomial.__mul__` checks it.  A formula factor in first
        place (`true`, `(a >= b)`) is passed up as it is."""
        toks = self.toks
        cn, cd, exps = 1, 1, {}  # the numerals (cn/cd) and identifiers since `acc`
        acc = None  # the product up to the last parenthesised factor
        deg = 0  # degree of the whole product so far, -1 once it is zero
        first = True
        while True:
            t = toks[self.pos]
            negative = False
            while t.kind == "sym" and t.text == "-":
                negative = not negative
                self.pos += 1
                t = toks[self.pos]
            name = None
            if t.kind == "int":
                self.pos += 1
                value = (int(t.text), 1)
                slash = toks[self.pos]
                if slash.kind == "sym" and slash.text == "/" and toks[self.pos + 1].kind == "int":
                    den = int(toks[self.pos + 1].text)
                    self.pos += 2
                    if den == 0:
                        raise ParseError("zero denominator", t.line, t.col)
                    value = (value[0], den)
            elif t.kind == "ident":
                self.pos += 1
                self.uses.append((t.text, t.line, t.col))
                name, value = t.text, 1
            elif t.kind == "kw" and t.text in ("true", "false"):
                self.pos += 1
                value = TRUE if t.text == "true" else FALSE
            elif t.kind == "sym" and t.text == "(":
                self.nest()
                value = self.parse_expr()
                self.expect(")")
            else:
                raise self.fail(["expression"])
            t = toks[self.pos]
            if t.kind == "sym" and t.text == "^":
                if name is None and not isinstance(value, (tuple, Polynomial)):
                    raise self.fail(["polynomial base for '^'"])
                self.pos += 1
                t = toks[self.pos]
                if t.kind != "int":
                    raise self.fail(["nonnegative integer exponent"])
                self.pos += 1
                k = int(t.text)
                if name is None:  # a numeral's power too is checked by `Polynomial.__pow__`
                    value = (value if isinstance(value, Polynomial) else Polynomial.const(Fraction(*value))) ** k
                elif k > DEGREE_CAP:
                    raise DegreeCapExceeded(f"power degree {k} exceeds cap {DEGREE_CAP}")
                else:
                    value = k  # the exponent of `name`
            if isinstance(value, Polynomial):
                if negative:
                    value = -value
                if deg >= 0:
                    if exps or cn != cd:
                        monomial = Polynomial._trusted({tuple(sorted(exps.items())): cn}, cd)
                        acc = monomial if acc is None else acc * monomial
                        cn, cd, exps = 1, 1, {}
                    acc = value if acc is None else acc * value
                    deg = acc.degree()
            elif name is None and not isinstance(value, tuple):
                if first:
                    return value  # a formula; `_sum` refuses it after a sign
                raise self._not_a_poly()
            else:
                fdeg = value if name is not None else (0 if value[0] else -1)
                if deg >= 0 and fdeg >= 0 and deg + fdeg > DEGREE_CAP:
                    raise DegreeCapExceeded(f"product degree {deg + fdeg} exceeds cap {DEGREE_CAP}")
                if deg < 0 or fdeg < 0:
                    deg = -1
                else:
                    deg += fdeg
                    if name is None:
                        cn *= value[0]
                        cd *= value[1]
                    elif value:
                        exps[name] = exps.get(name, 0) + value
                    if negative:
                        cn = -cn
            t = toks[self.pos]
            if t.kind != "sym" or t.text != "*":
                break
            self.pos += 1
            first = False
        if deg < 0:
            return Polynomial._trusted({})
        if exps or cn != cd or acc is None:
            monomial = Polynomial._trusted({tuple(sorted(exps.items())): cn}, cd)
            return monomial if acc is None else acc * monomial
        return acc

    def _as_formula(self, v) -> Formula:
        if not isinstance(v, Polynomial):
            return v
        t = self.peek()
        raise ParseError("expected a formula, found a bare polynomial", t.line, t.col, expected=CMP_OPS)

    def _as_poly(self, v) -> Polynomial:
        if isinstance(v, Polynomial):
            return v
        raise self._not_a_poly()

    def _not_a_poly(self) -> ParseError:
        t = self.peek()
        return ParseError("expected a polynomial, found a formula", t.line, t.col)

    # -- file structure -----------------------------------------------------

    def parse_problem(self) -> ProblemFile:
        params: list[str] = []
        seen_param_pos: dict[str, tuple[int, int]] = {}
        while self.peek().kind == "kw" and self.peek().text == "param":
            self.next()
            name = self.expect_ident()
            if name.text in seen_param_pos:
                raise DuplicateDeclaration(f"parameter '{name.text}' declared twice")
            if name.text.startswith("_"):
                raise ParseError("identifiers may not start with '_'", name.line, name.col)
            seen_param_pos[name.text] = (name.line, name.col)
            params.append(name.text)
            self.expect(";")

        ode: Optional[tuple[list[str], list[Polynomial]]] = None
        domain: Optional[Formula] = None
        assumptions: list[Formula] = []
        goal: Optional[Formula] = None
        steps: list[CertStep] = []
        seen_blocks: set[str] = set()

        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "kw" or t.text not in ("ode", "domain", "assume", "goal", "proof"):
                raise self.fail(["ode", "domain", "assume", "goal", "proof"])
            if t.text in seen_blocks:
                raise ParseError(f"duplicate '{t.text}' block", t.line, t.col)
            seen_blocks.add(t.text)
            self.next()
            self.expect("{")
            self.nesting = 0
            if t.text == "ode":
                names, rhss = [], []
                while True:
                    var = self.expect_ident()
                    if var.text in names:
                        raise DuplicateDeclaration(f"variable '{var.text}' has two equations")
                    self.expect("'")
                    self.expect("=")
                    self.nesting = 0
                    rhs = self._as_poly(self._sum())
                    names.append(var.text)
                    rhss.append(rhs)
                    if not self.accept(";"):
                        break
                self.expect("}")
                ode = (names, rhss)
            elif t.text == "domain":
                domain = self._as_formula(self.parse_expr())
                self.expect("}")
            elif t.text == "assume":
                while True:
                    assumptions.append(self._as_formula(self.parse_expr()))
                    if self.peek().text != ",":
                        break
                    self.nest()
                self.expect("}")
            elif t.text == "goal":
                goal = self._as_formula(self.parse_expr())
                self.expect("}")
            else:
                while self.peek().kind == "kw" and self.peek().text == "rule":
                    steps.append(self._parse_step(toplevel=True))
                self.expect("}")

        if ode is None:
            t = self.peek()
            raise ParseError("missing 'ode' block", t.line, t.col)

        names, rhss = ode
        for name in names:
            if name in params:
                raise DuplicateDeclaration(f"parameter '{name}' appears on an ODE left-hand side")
        declared = set(names) | set(params)
        for use, line, col in self.uses:
            if use not in declared:
                raise UnknownIdentifier(use, line, col)

        system = OdeSystem(
            vars=tuple(names),
            rhs=tuple(rhss),
            domain=domain if domain is not None else TRUE,
            params=frozenset(params),
        )
        return ProblemFile(
            params=tuple(params),
            system=system,
            assumptions=tuple(assumptions),
            goal=goal,
            certificate=tuple(steps),
        )

    def _parse_step(self, toplevel: bool) -> CertStep:
        kw = self.expect("rule")
        name = self.expect_ident()
        allowed = RULE_NAMES if toplevel else RULE_NAMES | HINT_STEP_NAMES
        if name.text not in allowed:
            raise ParseError(f"unknown rule '{name.text}'", name.line, name.col, expected=sorted(allowed))
        self.expect("{")
        bindings: list[tuple[str, BindingValue]] = []
        if not (self.peek().kind == "sym" and self.peek().text == "}"):
            while True:
                key = self.expect_ident()
                self.expect("=")
                if toplevel:
                    self.nesting = 0
                bindings.append((key.text, self._parse_binding_value()))
                if not self.accept(";"):
                    break
        self.expect("}")
        return CertStep(name.text, tuple(bindings), kw.line, kw.col)

    def _parse_binding_value(self) -> BindingValue:
        t = self.peek()
        if t.kind == "kw" and t.text == "hint":
            self.nest()  # `hint [` counts once
            self.expect("[")
            steps = []
            while self.peek().kind == "kw" and self.peek().text == "rule":
                steps.append(self._parse_step(toplevel=False))
            self.expect("]")
            return tuple(steps)
        if t.kind == "ident" and t.text in ENUM_BINDING_VALUES:
            nxt = self.peek(1)
            if nxt.kind == "sym" and nxt.text in (";", "}"):
                self.next()
                return t.text
        value = self.parse_expr()
        if isinstance(value, Polynomial):
            c = value.constant_value()
            if c is not None:
                return c
        return value


def parse_problem(text: str) -> ProblemFile:
    return _Parser(text).parse_problem()


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p._as_formula(p.parse_expr())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return f


def parse_poly(text: str) -> Polynomial:
    p = _Parser(text)
    v = p._as_poly(p.parse_expr())
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return v


# ---------------------------------------------------------------------------
# Printer


def _mono_str(m) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


# A `check` pass prints the same few dozen polynomials hundreds of times.
@functools.lru_cache(maxsize=128)
def print_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    den = p.den
    for i, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        if not m:
            body = str(Fraction(mag, den))
        elif mag == den:
            body = _mono_str(m)
        else:
            body = f"{Fraction(mag, den)}*{_mono_str(m)}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


def print_formula(f: Formula) -> str:
    """The text of `f`, computed once per node and kept in its memo slot."""
    s = f._text
    if s is not None:
        return s
    cls = type(f)
    binary = _BINARY.get(cls)
    if binary is not None:
        # an operand that binds more loosely than its side allows is put in
        # parentheses; one frame per nesting level, as in parsing
        sym, _, left_least, right_least = binary
        left, right = print_formula(f.left), print_formula(f.right)
        if _BINARY.get(type(f.left), _ATOM)[1] < left_least:
            left = f"({left})"
        if _BINARY.get(type(f.right), _ATOM)[1] < right_least:
            right = f"({right})"
        s = f"{left} {sym} {right}"
    elif cls is Cmp:
        s = f"{print_poly(f.lhs)} {f.op} {print_poly(f.rhs)}"
    elif cls is BoolLit:
        s = "true" if f.value else "false"
    elif cls is Modal:
        inner = print_ode(f.system)
        post = print_formula(f.post)
        s = f"[{inner}] ({post})" if f.box else f"<{inner}> ({post})"
    else:
        raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_text", s)
    return s


def print_ode(sys: OdeSystem) -> str:
    eqns = [f"{x}' = {print_poly(fx)}" for x, fx in zip(sys.vars, sys.rhs)]
    if sys.clock:
        eqns.append(f"{sys.clock}' = 1")
    s = ", ".join(eqns)
    if sys.domain is not None and sys.domain != TRUE:
        s += f" & {print_formula(sys.domain)}"
    return s
