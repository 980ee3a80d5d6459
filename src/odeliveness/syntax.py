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

Rational literals only (`a/b`, integers); a numeral is ASCII digits
`[0-9]`, and any other digit character (`²`, `٣`) is an unexpected
character.  An identifier starts with a letter (`str.isalpha()`) and
continues with letters, digits (`str.isalnum()`) or `_`.  `&`, `|`, `!`,
`->` for connectives; `forall x (...)` / `exists x (...)` for quantifiers.
Comparison chains such as `1 <= p <= 2` desugar to conjunctions.
Printing is deterministic (graded lexicographic term order) and
`parse(print(ast))` is the identity on ASTs.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DuplicateDeclaration, ParseError, UnknownIdentifier
from .symbolic import OdeSystem, Polynomial

# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = != >= > <= <
    lhs: Polynomial
    rhs: Polynomial


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists"
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Modal:
    """Box or diamond ODE modality; appears in sequents, not in problem files."""

    box: bool
    system: OdeSystem
    post: "Formula"


Formula = Union[BoolLit, Cmp, Not, And, Or, Implies, Quant, Modal]

TRUE = BoolLit(True)
FALSE = BoolLit(False)

CMP_OPS = ("!=", ">=", "<=", "=", ">", "<")


def conj(parts) -> Formula:
    parts = [p for p in parts if p != TRUE]
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def conjuncts(f: Formula) -> list:
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    if f == TRUE:
        return []
    return [f]


def disjuncts(f: Formula) -> list:
    if isinstance(f, Or):
        return disjuncts(f.left) + disjuncts(f.right)
    if f == FALSE:
        return []
    return [f]


def formula_variables(f: Formula) -> frozenset:
    if isinstance(f, BoolLit):
        return frozenset()
    if isinstance(f, Cmp):
        return f.lhs.variables() | f.rhs.variables()
    if isinstance(f, Not):
        return formula_variables(f.arg)
    if isinstance(f, (And, Or, Implies)):
        return formula_variables(f.left) | formula_variables(f.right)
    if isinstance(f, Quant):
        return formula_variables(f.body) - {f.var}
    if isinstance(f, Modal):
        names = formula_variables(f.post) | frozenset(f.system.all_names())
        if f.system.domain is not None:
            names |= formula_variables(f.system.domain)
        return names
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (BoolLit, Cmp)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.arg)
    if isinstance(f, (And, Or, Implies)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


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


@dataclass(frozen=True)
class CertStep:
    name: str
    bindings: tuple  # tuple[(str, BindingValue), ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def get(self, key: str, default=None):
        for k, v in self.bindings:
            if k == key:
                return v
        return default

    def has(self, key: str) -> bool:
        return any(k == key for k, _ in self.bindings)


@dataclass(frozen=True)
class ProblemFile:
    params: tuple
    system: OdeSystem
    assumptions: tuple
    goal: Optional[Formula]
    certificate: tuple  # tuple[CertStep, ...]


# ---------------------------------------------------------------------------
# Lexer


_KEYWORDS = frozenset(
    {"param", "ode", "domain", "assume", "goal", "proof", "rule", "hint", "true", "false", "forall", "exists"}
)


class Token(NamedTuple):
    kind: str  # "ident" | "kw" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


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
    new = tuple.__new__  # skips the Python-level `Token.__new__`, half the cost
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


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
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

    def fail(self, expected) -> ParseError:
        t = self.peek()
        return ParseError(f"found {t.text or 'end of input'!r}", t.line, t.col, expected=expected)

    # -- expressions (unified polynomial/formula tower) --------------------

    def parse_expr(self):
        """Returns ("poly", Polynomial) or ("formula", Formula)."""
        return self._implication()

    def _implication(self):
        left = self._disjunction()
        if self.accept("->"):
            right = self._implication()
            return ("formula", Implies(self._as_formula(left), self._as_formula(right)))
        return left

    def _disjunction(self):
        left = self._conjunction()
        while self.accept("|"):
            right = self._conjunction()
            left = ("formula", Or(self._as_formula(left), self._as_formula(right)))
        return left

    def _conjunction(self):
        left = self._unary()
        while self.accept("&"):
            right = self._unary()
            left = ("formula", And(self._as_formula(left), self._as_formula(right)))
        return left

    def _unary(self):
        t = self.peek()
        if t.kind == "sym" and t.text == "!":
            self.next()
            arg = self._unary()
            return ("formula", Not(self._as_formula(arg)))
        if t.kind == "kw" and t.text in ("forall", "exists"):
            self.next()
            var = self.expect_ident()
            self.uses.append((var.text, var.line, var.col))
            self.expect("(")
            body = self.parse_expr()
            self.expect(")")
            return ("formula", Quant(t.text, var.text, self._as_formula(body)))
        return self._comparison()

    def _comparison(self):
        first = self._sum()
        if first[0] == "formula":
            return first
        chain = [first]
        ops = []
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in CMP_OPS:
                ops.append(self.next().text)
                chain.append(self._sum())
            else:
                break
        if not ops:
            return first
        cmps = []
        for i, op in enumerate(ops):
            cmps.append(Cmp(op, self._as_poly(chain[i]), self._as_poly(chain[i + 1])))
        return ("formula", conj(cmps) if len(cmps) > 1 else cmps[0])

    def _sum(self):
        t = self.peek()
        negate = False
        if t.kind == "sym" and t.text == "-":
            self.next()
            negate = True
        left = self._term()
        if left[0] == "formula" and not negate:
            return left
        value = self._as_poly(left)
        if negate:
            value = -value
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in ("+", "-"):
                self.next()
                right = self._as_poly(self._term())
                value = value + right if t.text == "+" else value - right
            else:
                return ("poly", value)

    def _term(self):
        left = self._factor()
        if left[0] == "formula":
            return left
        value = self._as_poly(left)
        while self.accept("*"):
            value = value * self._as_poly(self._factor())
        return ("poly", value)

    def _factor(self):
        if self.accept("-"):
            inner = self._as_poly(self._factor())
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
            return ("poly", self._as_poly(base) ** int(t.text))
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
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise self.fail(["expression"])

    def _as_formula(self, v) -> Formula:
        kind, value = v
        if kind == "formula":
            return value
        t = self.peek()
        raise ParseError("expected a formula, found a bare polynomial", t.line, t.col, expected=CMP_OPS)

    def _as_poly(self, v) -> Polynomial:
        kind, value = v
        if kind == "poly":
            return value
        t = self.peek()
        raise ParseError("expected a polynomial, found a formula", t.line, t.col)

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
            if t.text == "ode":
                names, rhss = [], []
                while True:
                    var = self.expect_ident()
                    if var.text in names:
                        raise DuplicateDeclaration(f"variable '{var.text}' has two equations")
                    self.expect("'")
                    self.expect("=")
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
                    if not self.accept(","):
                        break
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
                bindings.append((key.text, self._parse_binding_value()))
                if not self.accept(";"):
                    break
        self.expect("}")
        return CertStep(name.text, tuple(bindings), kw.line, kw.col)

    def _parse_binding_value(self) -> BindingValue:
        t = self.peek()
        if t.kind == "kw" and t.text == "hint":
            self.next()
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
        kind, value = self.parse_expr()
        if kind == "poly":
            c = value.constant_value()
            if c is not None:
                return c
            return value
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


def _frac_str(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _mono_str(m) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


# A `check` pass prints the same few dozen polynomials hundreds of times.
@functools.lru_cache(maxsize=128)
def print_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        if not m:
            body = _frac_str(mag)
        elif mag == 1:
            body = _mono_str(m)
        else:
            body = f"{_frac_str(mag)}*{_mono_str(m)}"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(parts)


# precedence levels: Implies 1 < Or 2 < And 3 < Not 4; atoms bind tightest
def _print_formula(f: Formula, parent: int) -> str:
    if isinstance(f, BoolLit):
        return "true" if f.value else "false"
    if isinstance(f, Cmp):
        return f"{print_poly(f.lhs)} {f.op} {print_poly(f.rhs)}"
    if isinstance(f, Not):
        if isinstance(f.arg, BoolLit):
            return f"!{_print_formula(f.arg, 5)}"
        return f"!({_print_formula(f.arg, 0)})"
    if isinstance(f, And):
        s = f"{_print_formula(f.left, 3)} & {_print_formula(f.right, 4)}"
        return f"({s})" if parent > 3 else s
    if isinstance(f, Or):
        s = f"{_print_formula(f.left, 2)} | {_print_formula(f.right, 3)}"
        return f"({s})" if parent > 2 else s
    if isinstance(f, Implies):
        s = f"{_print_formula(f.left, 2)} -> {_print_formula(f.right, 1)}"
        return f"({s})" if parent > 1 else s
    if isinstance(f, Quant):
        return f"{f.kind} {f.var} ({_print_formula(f.body, 0)})"
    if isinstance(f, Modal):
        inner = print_ode(f.system)
        post = _print_formula(f.post, 0)
        return f"[{inner}] ({post})" if f.box else f"<{inner}> ({post})"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    return _print_formula(f, 0)


def print_ode(sys: OdeSystem) -> str:
    eqns = [f"{x}' = {print_poly(fx)}" for x, fx in zip(sys.vars, sys.rhs)]
    if sys.clock:
        eqns.append(f"{sys.clock}' = 1")
    s = ", ".join(eqns)
    if sys.domain is not None and sys.domain != TRUE:
        s += f" & {print_formula(sys.domain)}"
    return s


def print_problem(pf: ProblemFile) -> str:
    out = []
    for p in pf.params:
        out.append(f"param {p};")
    eqns = "; ".join(f"{x}' = {print_poly(fx)}" for x, fx in zip(pf.system.vars, pf.system.rhs))
    out.append(f"ode {{ {eqns} }}")
    if pf.system.domain is not None and pf.system.domain != TRUE:
        out.append(f"domain {{ {print_formula(pf.system.domain)} }}")
    if pf.assumptions:
        out.append(f"assume {{ {', '.join(print_formula(a) for a in pf.assumptions)} }}")
    if pf.goal is not None:
        out.append(f"goal {{ {print_formula(pf.goal)} }}")
    if pf.certificate:
        out.append("proof {")
        for step in pf.certificate:
            out.extend(_print_step(step, "  "))
        out.append("}")
    return "\n".join(out) + "\n"


def _print_binding_value(v: BindingValue) -> str:
    if isinstance(v, tuple):  # hint list
        inner = []
        for step in v:
            inner.extend(_print_step(step, ""))
        return "hint [ " + " ".join(inner) + " ]"
    if isinstance(v, Polynomial):
        return print_poly(v)
    if isinstance(v, Fraction):
        return _frac_str(v)
    if isinstance(v, str):
        return v
    return print_formula(v)


def _print_step(step: CertStep, indent: str) -> list[str]:
    if not step.bindings:
        return [f"{indent}rule {step.name} {{ }}"]
    bindings = "; ".join(f"{k} = {_print_binding_value(v)}" for k, v in step.bindings)
    return [f"{indent}rule {step.name} {{ {bindings} }}"]
