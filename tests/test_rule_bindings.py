"""Every rule builder, given any certificate bindings from a fixed pool of
values, returns a proof or raises an `OdelivError`; never anything else.

The CLI maps `OdelivError` to exit 3 ("input error"); any other exception
ends in a traceback with exit 1, which means "Refuted".
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odeliveness import arith
from odeliveness.errors import OdelivError, ShapeMismatch, UnreadBinding
from odeliveness.kernel import ProofNode
from odeliveness.rules import RULE_BUILDERS, Checker, apply_rule
from odeliveness.syntax import CertStep, parse_formula, parse_poly, parse_problem

# every goal shape a variant rule matches (x >= 0, x > 0, x = 0 for p = x),
# each with and without a domain, and the domain p > 0 that SLyap_dom needs
PROBLEMS = tuple(
    parse_problem(f"ode {{ x' = 1 }} {domain} assume {{ x = -1 }} goal {{ {goal} }}")
    for goal, domain in (
        ("x >= 0", ""),
        ("x >= 0", "domain { x <= 5 }"),
        ("x > 0", ""),
        ("x > 0", "domain { x < 5 }"),
        ("x = 0", ""),
        ("x = 0", "domain { x < 5 }"),
        ("x >= 2", "domain { x > 0 }"),
    )
)

POLY = parse_poly("x")
RATIONAL = Fraction(1, 2)
FORMULA = parse_formula("-2 <= x & x <= 0")
# one value of each kind the parser produces: rational, polynomial, formula,
# bare identifier, and (below) hint blocks
VALUES = (RATIONAL, POLY, FORMULA, "BEx")
DI_BLOCK = (CertStep("DI", ()),)

# each hint step's keys with a well-typed value for each
HINT_KEYS = {
    "DI": {},
    "DC": {"f": parse_formula("x >= -2"), "hints": DI_BLOCK},
    "DW": {},
    "DX": {},
    "BC": {"p": POLY},
    "DomainWeaken": {"f": FORMULA},
}


def _hint_blocks() -> list:
    """One-step hint blocks: each hint step with each kind of value under each key."""
    out = [(CertStep(name, ()),) for name in HINT_KEYS]
    for name, typed in HINT_KEYS.items():
        for key in typed:
            for value in VALUES + (DI_BLOCK,):
                bindings = dict(typed, **{key: value})
                out.append((CertStep(name, tuple(bindings.items())),))
    return out


POOL = VALUES + tuple(_hint_blocks())
KEYS = (
    "p", "eps", "S", "K", "k", "box", "p0", "p1", "strict", "post", "via", "via_hints",
    "hints", "duration", "duration_B", "duration_hints", "domain_via", "domain_hints",
)
# drawn bindings come first and so shadow these well-typed ones
BASE = (("p", POLY), ("eps", RATIONAL), ("S", FORMULA), ("K", FORMULA))


@functools.cache
def _base(rule: str) -> tuple:
    """BASE without the keys `rule` never reads, so that a certificate is
    refused as unread only for the keys that were drawn."""
    unread = set()
    for problem in PROBLEMS:
        try:
            RULE_BUILDERS[rule](problem, CertStep(rule, BASE), Checker())
        except UnreadBinding as e:
            unread |= set(e.keys)
        except OdelivError:
            pass
    return tuple((k, v) for k, v in BASE if k not in unread)


@pytest.mark.parametrize("rule", sorted(RULE_BUILDERS))
def test_base_bindings_pass_the_shape_check(rule):
    # so that the drawn bindings reach the obligations of every rule
    passed = []
    for problem in PROBLEMS:
        try:
            RULE_BUILDERS[rule](problem, CertStep(rule, _base(rule)), Checker())
        except ShapeMismatch:
            continue
        except OdelivError:
            pass
        passed.append(problem)
    assert passed


@pytest.mark.parametrize("rule", sorted(RULE_BUILDERS))
@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    problem=st.sampled_from(PROBLEMS),
    drawn=st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(POOL)), max_size=4),
)
def test_any_bindings_give_a_proof_or_an_input_error(rule, problem, drawn):
    cert = CertStep(rule, tuple(drawn) + _base(rule))
    checker = Checker(budget=arith.Budget(max_cells=200, max_seconds=1.0))
    try:
        node = apply_rule(problem, cert, checker)
    except OdelivError:
        return
    assert isinstance(node, ProofNode)
