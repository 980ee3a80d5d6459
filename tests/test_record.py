"""The record classes (`odeliveness.record`) keep the semantics the package
relies on: equality by exact class and fields, a hash equal to that of the
field tuple, frozenness, the field-order repr and the constructor's
signature.  And importing the CLI loads neither `dataclasses` nor `sim`."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from odeliveness import arith, kernel, rules, sim
from odeliveness.normal import NormAtom
from odeliveness.symbolic import OdeSystem, Polynomial
from odeliveness.syntax import FALSE, TRUE, And, BoolLit, CertStep, Cmp, Or
from conftest import ROOT

X, ONE = Polynomial.var("x"), Polynomial.const(1)
A, B = Cmp(">=", X, ONE), Cmp("<", X, ONE)


def test_nodes_of_different_kinds_differ():
    assert And(A, B) != Or(A, B) and Or(A, B) != And(A, B)
    assert And(A, B) == And(A, B) and hash(And(A, B)) == hash(Or(A, B)) == hash((A, B))
    assert Or(A, A) != Or(A, B) and Or(A, B) == Or(Cmp(">=", X, ONE), B) and TRUE != FALSE


@pytest.mark.parametrize("record", [And(A, B), Or(B, A), TRUE, A, kernel.Sequent((A,), B), rules.DWStep()])
def test_a_record_never_equals_the_tuple_of_its_fields(record):
    values = tuple(getattr(record, name) for name in record._fields)
    assert record != values and values != record
    assert record != list(values) and hash(record) == hash(values)


def test_frozen_fields_refuse_assignment():
    for record, name in [(A, "op"), (And(A, B), "left"), (kernel.Step("x"), "note"),
                         (arith.Budget(), "max_cells"), (CertStep("DI", ()), "line")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        A._hash = 0  # the memo slots are set only past the guard


def test_cert_steps_differing_only_in_place_are_equal():
    a, b = CertStep("DI", (("f", TRUE),), 3, 7), CertStep("DI", (("f", TRUE),), 9, 1)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != CertStep("DC", (("f", TRUE),), 3, 7)
    assert repr(a) == "CertStep(name='DI', bindings=(('f', BoolLit(value=True)),), line=3, col=7)"


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError):
        Cmp(">=", X)
    with pytest.raises(TypeError):
        Cmp(">=", X, ONE, ONE)
    with pytest.raises(TypeError):
        BoolLit()
    with pytest.raises(TypeError):
        rules.DWStep(A)
    with pytest.raises(TypeError, match="missing field 'rhs'"):
        OdeSystem(vars=("x",))
    with pytest.raises(TypeError, match="obligation"):
        kernel.ArithOb("label", "role")
    with pytest.raises(TypeError, match="unexpected keyword for field 'cells'"):
        arith.Budget(cells=3)
    with pytest.raises(TypeError, match="more than one value for field 'max_cells'"):
        arith.Budget(5, max_cells=3)


def test_keywords_and_defaults():
    assert arith.Budget(max_seconds=1.5) == arith.Budget(200_000, 1.5)
    assert arith.Budget(max_cells=5, max_seconds=2.0).max_cells == 5
    assert Cmp(rhs=ONE, lhs=X, op=">=") == A
    ob = kernel.ArithOb("l", "r", arith.ArithObligation(("x",), TRUE, A))
    assert ob.result is None
    # a default from `Factory` is made afresh for each record
    t, u = sim.Trajectory([], []), sim.Trajectory([], [], values=None)
    assert t.stats == t.closed == {} and t.stats is not u.stats and t.closed is not t.stats
    assert sim.Trajectory([], [], stats={"steps": 1}).stats == {"steps": 1}
    v, w = arith.ArithVerdict(arith.VALID), arith.ArithVerdict(arith.VALID)
    assert v.trace == {} and v.trace is not w.trace
    system = OdeSystem(("x",), (ONE,))
    assert (system.domain, system.params, system.clock) == (None, frozenset(), None)


def test_repr_lists_the_fields_in_order():
    assert repr(A) == "Cmp(op='>=', lhs=Polynomial(x), rhs=Polynomial(1))"
    assert repr(Or(FALSE, TRUE)) == "Or(left=BoolLit(value=False), right=BoolLit(value=True))"
    assert repr(rules.DXStep()) == "DXStep()"
    assert repr(arith.Budget()) == "Budget(max_cells=200000, max_seconds=10.0)"


def test_mutable_records_compare_by_identity():
    ob = arith.ArithObligation(("x",), TRUE, A)
    a, b = kernel.ArithOb("l", "r", ob), kernel.ArithOb("l", "r", ob)
    assert a != b and a == a and len({a, b}) == 2
    a.result = arith.ArithVerdict(arith.VALID)
    assert a.verdict() == kernel.PROVED and b.verdict() == kernel.UNKNOWN


def test_validation_runs_on_construction():
    with pytest.raises(ValueError, match="not quantified"):
        arith.ArithObligation((), TRUE, A)
    ob = arith.ArithObligation(("x",), B, TRUE)
    assert ob.with_conclusion(A) == arith.ArithObligation(("x",), B, A)
    with pytest.raises(ValueError, match="not quantified"):
        ob.with_conclusion(Cmp(">=", Polynomial.var("y"), ONE))


def test_closure_quantifies_the_free_variables():
    y = Cmp(">=", Polynomial.var("y"), ONE)
    ob = arith.ArithObligation.closure(y, And(A, TRUE))
    assert ob == arith.ArithObligation(("x", "y"), y, And(A, TRUE)) and ob.universals == ("x", "y")
    assert arith.ArithObligation.closure(TRUE, Cmp(">", ONE, ONE)).universals == ()


def test_copy_and_pickle_rebuild_through_the_constructor():
    formula = And(A, Or(B, FALSE))
    hash(formula)  # fills the memo, which a copy starts without
    for record in [formula, CertStep("DI", (("f", TRUE),), 3, 7), kernel.Sequent((A,), B), rules.DWStep(),
                   OdeSystem(("x",), (ONE,)), arith.Budget(5, 1.5), arith.ArithObligation(("x",), B, A)]:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    assert pickle.loads(pickle.dumps(formula))._hash is None
    twin = copy.copy(formula)
    assert twin.left is formula.left and twin is not formula
    with pytest.raises(AttributeError):
        twin.left = B
    trajectory = pickle.loads(pickle.dumps(sim.Trajectory([(0.0, (1.0,))], [], stats={"steps": 1})))
    assert (trajectory.rows, trajectory.stats, trajectory.closed) == ([(0.0, (1.0,))], {"steps": 1}, {})


def test_the_written_out_norm_atom_keeps_the_frozen_semantics():
    a = NormAtom(">=", X - ONE)
    assert (a.op, a.poly) == (">=", X - ONE) and a._fields == ("op", "poly")
    for name in ("op", "poly"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    b = NormAtom(poly=ONE * X - 1, op=">=")  # an equal polynomial, built another way
    assert a == b and hash(a) == hash(b) == hash((">=", X - ONE)) and {a: 1}[b] == 1
    assert a != NormAtom(">", X - ONE) and a != NormAtom(">=", X) and a != (">=", X - ONE)
    assert repr(a) == "NormAtom(op='>=', poly=Polynomial(x - 1))"
    with pytest.raises(TypeError):
        NormAtom(">=")
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is NormAtom and twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
        with pytest.raises(AttributeError):
            twin.op = ">"


def test_importing_the_cli_loads_neither_dataclasses_nor_sim():
    code = "import sys, odeliveness.cli; print(sorted({'dataclasses', 'odeliveness.sim'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"
    # without `site`, which may import it for installed packages, nothing
    # imports `pathlib` either
    code = code.replace("'dataclasses'", "'pathlib'")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.strip() == "[]"


def test_tokens_are_plain_tuples_with_read_only_fields():
    from odeliveness.syntax import Token, _tokenize

    assert Token.__new__ is tuple.__new__ and not hasattr(Token, "_make")  # no generated constructor
    tok = _tokenize("x >= 1")[1]
    assert type(tok) is Token and tok == ("sym", ">=", 1, 3)
    assert (tok.kind, tok.text, tok.line, tok.col) == tuple(tok)
    with pytest.raises(AttributeError):
        tok.kind = "ident"
