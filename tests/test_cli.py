import os
import pathlib
import subprocess
import sys
import time

import pytest

from odeliveness import cli, sim, symbolic, syntax
from odeliveness.cli import main
from conftest import ROOT, problem_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


# -- check ----------------------------------------------------------------------


def test_check_example1_exit0_and_chain(capsys):
    code, out = run(capsys, "check", problem_path("example1.ode"))
    assert code == 0
    names = [line.split()[1] for line in out.splitlines() if line[:1].isdigit()]
    assert names == ["GEx", "dV_geq", "K⟨&⟩", "M◇′"]
    assert "verdict: Proved" in out


def test_check_example2_exit0(capsys):
    code, out = run(capsys, "check", problem_path("example2.ode"))
    assert code == 0
    assert out.count("K⟨&⟩") >= 2 and "BEx" in out


def test_check_ce1_refused_exit2(capsys):
    code, out = run(capsys, "check", problem_path("ce1.ode"))
    assert code == 2
    assert "RuleRefused(GlobalLipschitz)" in out


def test_check_ce3_refused_initial_state(capsys):
    code, out = run(capsys, "check", problem_path("ce3.ode"))
    assert code == 2
    assert "RuleRefused(InitialState" in out


def test_check_ce4_refused_compact(capsys):
    code, out = run(capsys, "check", problem_path("ce4.ode"))
    assert code == 2
    assert "RuleRefused(Compact" in out


def test_check_domain_extension(capsys):
    code, out = run(capsys, "check", problem_path("example2_domain.ode"))
    assert code == 0
    assert "COR" in out


def test_check_halfopen_domain_refused(capsys):
    code, out = run(capsys, "check", problem_path("example2_domain_halfopen.ode"))
    assert code == 2
    assert "TopoUnknown" in out


def test_check_without_proof_block_is_input_error(tmp_path, capsys):
    f = tmp_path / "noproof.ode"
    f.write_text("ode { x' = 1 }  goal { x >= 0 }\n")
    code, out = run(capsys, "check", f)
    assert code == 3


@pytest.mark.parametrize("command", ["check", "emit-smt"])
@pytest.mark.parametrize(
    "proof,message",
    [
        ("", "no proof block (nothing to check)"),
        ("proof { }", "no proof block (nothing to check)"),
        ("proof { rule dV_geq { p = x; eps = 1 } rule dV_gt { p = x; eps = 1 } }",
         "expected exactly one top-level rule step"),
    ],
    ids=["no-proof", "no-rule", "two-rules"],
)
def test_a_proof_block_without_exactly_one_rule_is_input_error(tmp_path, capsys, command, proof, message):
    # `emit-smt` exports the obligations of the rule `check` proves, so
    # neither reads a proof block that `check` refuses
    f = tmp_path / "proof.ode"
    f.write_text(f"ode {{ x' = 1 }}  assume {{ x = 0 }}  goal {{ x >= 1 }}  {proof}\n")
    code, out = run(capsys, command, f, "--out", tmp_path / "smt")
    assert (code, out) == (3, f"input error: {message}\n")
    assert not (tmp_path / "smt").exists()


QUANTIFIED_SLOTS = {
    "domain": "u^2 + v^2 <= 4",
    "assume": "u^2 + v^2 = 1",
    "goal": "u >= 1/2",
    "binding": "-4 <= u & u <= 4",
}


@pytest.mark.parametrize("command", ["check", "falsify", "simulate", "emit-smt", "lie"])
@pytest.mark.parametrize("slot", sorted(QUANTIFIED_SLOTS))
@pytest.mark.parametrize("word", ["forall", "exists"])
def test_a_quantified_formula_is_input_error(tmp_path, capsys, command, slot, word):
    # formulas are quantifier-free: the reserved word itself is the error,
    # wherever a formula stands and whichever command reads the file
    parts = dict(QUANTIFIED_SLOTS, **{slot: f"{word} u (u^2 >= 0)"})
    f = tmp_path / "quantified.ode"
    f.write_text(
        f"ode {{ u' = -v; v' = u }}\ndomain {{ {parts['domain']} }}\nassume {{ {parts['assume']} }}\n"
        f"goal {{ {parts['goal']} }}\nproof {{ rule dV_geq {{ p = u; eps = 1; box = {parts['binding']} }} }}\n"
    )
    extra = {"simulate": ["--init", "u=1,v=0"], "lie": ["-p", "u"], "emit-smt": ["--out", tmp_path / "smt"]}
    code, out = run(capsys, command, f, *extra.get(command, []))
    assert code == 3
    assert out.startswith("input error: ") and f"found '{word}' (expected one of: expression)" in out


def test_check_parse_error_exit3(tmp_path, capsys):
    f = tmp_path / "bad.ode"
    f.write_text("ode { x' = }\n")
    code, out = run(capsys, "check", f)
    assert code == 3
    assert "input error" in out


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digit_is_input_error(tmp_path, capsys, digit):
    # numerals are ASCII: '²' and '٣' pass `str.isdigit`, yet neither starts
    # a numeral, and a bad input exits 3, never 1
    f = tmp_path / "digit.ode"
    f.write_text(f"ode {{ x' = {digit} }}\n")
    code, out = run(capsys, "check", f)
    assert code == 3
    assert out == f"input error: 1:12: unexpected character {digit!r}\n"


def test_check_trace_byte_identical(capsys):
    _, out1 = run(capsys, "check", problem_path("example1.ode"))
    _, out2 = run(capsys, "check", problem_path("example1.ode"))
    assert out1 == out2


def test_one_parser_serves_a_sequence_of_calls(capsys):
    """`main` builds its parser on the first call and reuses it: check,
    falsify and a malformed flag in one process print and exit as each does
    as the first call of a process; the malformed flag is an input error."""
    calls = [
        ["check", problem_path("example1.ode")],
        ["falsify", problem_path("example1.ode"), "--samples", "2"],
        ["check", "--budget-cells", "many", problem_path("example1.ode")],
    ]

    def call(argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(call(argv))
    cli.build_parser.cache_clear()
    assert [call(argv) for argv in calls] == first
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in first] == [0, 0, 3]
    assert first[2][1:] == ("input error: argument --budget-cells: invalid int value: 'many'\n", "")


def test_refuted_certificate_exit1(tmp_path, capsys):
    f = tmp_path / "wrong-eps.ode"
    f.write_text(
        """
        ode { u' = -v - u; v' = u - v }
        assume { u^2 + v^2 = 1 }
        goal { u^2 + v^2 <= 1/4 }
        proof { rule dV_geq { p = 1/4 - (u^2 + v^2); eps = 3;
                box = -4 <= u & u <= 4 & -4 <= v & v <= 4;
                hints = hint [ rule DC { f = u^2 + v^2 <= 1; hints = hint [ rule DI { } ] }
                               rule DW { } ] } }
        """
    )
    code, out = run(capsys, "check", f)
    assert code == 1
    assert "verdict: Refuted" in out
    assert "counterexample" in out


# -- falsify ----------------------------------------------------------------------


def test_falsify_example1_exit0(capsys, tmp_path):
    code, out = run(
        capsys, "falsify", problem_path("example1.ode"), "--samples", 8, "--horizon", 5, "--out", tmp_path
    )
    assert code == 0
    assert "WITNESS=8" in out
    # manifest completeness: every written file is listed
    listed = {line.split()[-1] for line in out.splitlines() if line.startswith("wrote ")}
    actual = {str(p) for p in pathlib.Path(tmp_path).iterdir()}
    assert listed == actual


def test_falsify_ce4_exit1(capsys):
    code, out = run(capsys, "falsify", problem_path("ce4.ode"), "--samples", 4, "--horizon", 6)
    assert code == 1
    assert "BLOWUP=4" in out


def test_falsify_goal_false_exit2(tmp_path, capsys):
    f = tmp_path / "nofalse.ode"
    f.write_text("ode { x' = -x }  assume { x = 1 }  goal { false }\n")
    code, out = run(capsys, "falsify", f, "--samples", 2, "--horizon", 1)
    assert code == 2


def test_falsify_unsamplable_exit3(tmp_path, capsys):
    f = tmp_path / "unsamplable.ode"
    f.write_text("ode { x' = 1 }  assume { x >= 0 }  goal { x >= 1 }\n")
    code, out = run(capsys, "falsify", f, "--samples", 2)
    assert code == 3


# -- lie / simulate / emit-smt / catalog ----------------------------------------------


def test_lie_command_canonical_output(capsys):
    code, out = run(capsys, "lie", problem_path("example2.ode"), "-p", "u^2 + v^2", "-k", 1)
    assert code == 0
    assert out.strip() == "2*u^4 + 4*u^2*v^2 + 2*v^4 - 1/2*u^2 - 1/2*v^2"


def test_lie_k0_echoes_canonically(capsys):
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "v^2 + u^2", "-k", 0)
    assert out.strip() == "u^2 + v^2"


def test_lie_second_order(capsys):
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "u", "-k", 2)
    assert out.strip() == "2*v"


def test_lie_order_at_the_cap_prints(capsys):
    # u' + i v' = (-1 + i)(u + i v) on example1, and (-1 + i)^1000 = 2^500
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "u", "-k", symbolic.LIE_ORDER_CAP)
    assert symbolic.LIE_ORDER_CAP == 1000
    assert code == 0 and out.strip() == f"{2**500}*u"


def test_lie_order_past_the_cap_is_an_input_error(capsys):
    # the order alone bounds the work: the degree cap never trips on a linear system
    start = time.perf_counter()
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "u", "-k", 100_000_000)
    assert code == 3
    assert out.strip() == "input error: order must be at most 1000, got 100000000"
    assert time.perf_counter() - start < 1


def test_certificate_order_past_the_cap_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "dv_k.ode"
    f.write_text(problem_path("double_integrator.ode").read_text().replace("k = 2;", "k = 1001;"))
    code, out = run(capsys, "check", f)
    assert code == 3 and out.splitlines()[-1] == "input error: order must be at most 1000, got 1001"


def test_lie_stops_at_a_zero_derivative(capsys, monkeypatch):
    calls = []
    real = symbolic.lie_derivative
    monkeypatch.setattr(symbolic, "lie_derivative", lambda p, sys: calls.append(p) or real(p, sys))
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "u^2 - u^2 + 3", "-k", 1000)
    assert code == 0 and out.strip() == "0"
    assert len(calls) == 1  # every derivative after a zero one is zero


def test_simulate_writes_manifest(tmp_path, capsys):
    code, out = run(
        capsys,
        "simulate",
        problem_path("example1.ode"),
        "--init",
        "u=1,v=0",
        "--horizon",
        "2",
        "--out",
        tmp_path,
    )
    assert code == 0
    assert "GoalEntered" in out
    assert f"wrote {tmp_path}/trajectory.csv" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", problem_path("example1.ode"), "--init", "u=1,v=0", "--horizon", "0"],
        ["falsify", problem_path("example1.ode"), "--horizon", "-1"],
        ["simulate", problem_path("example1.ode"), "--init", "u=abc"],
        ["simulate", problem_path("example1.ode"), "--init", "u=1e400,v=0"],
        ["simulate", problem_path("example1.ode"), "--init", "u=-1e400,v=0"],
        ["simulate", problem_path("example1.ode"), "--init", "u=inf,v=0"],
        ["simulate", problem_path("example1.ode"), "--init", "u=nan,v=0"],
        ["lie", problem_path("example1.ode"), "-p", "u", "-k", "-1"],
        ["catalog", "--samples", "0"],
        ["catalog", "--samples", "-1"],
        ["falsify", problem_path("example1.ode"), "--samples", "-3"],
        ["check", problem_path("example1.ode"), "--budget-cells", "-5"],
        ["check", problem_path("example1.ode"), "--budget-secs", "-1"],
        ["check", problem_path("example1.ode"), "--budget-secs", "0"],
        ["check", problem_path("example1.ode"), "--budget-secs", "nan"],
        ["emit-smt", problem_path("example1.ode"), "--budget-cells", "-1"],
        ["check", problem_path("example1.ode"), "--budget-cells", "many"],
        ["check", problem_path("example1.ode"), "--no-such-flag"],
        ["simulate", problem_path("example1.ode"), "--init", "u=1,u=2,v=0"],
    ],
    ids=[
        "simulate-horizon-0",
        "falsify-horizon-negative",
        "simulate-init-not-a-number",
        "simulate-init-above-float-range",
        "simulate-init-below-float-range",
        "simulate-init-inf",
        "simulate-init-nan",
        "lie-order-negative",
        "catalog-samples-0",
        "catalog-samples-negative",
        "falsify-samples-negative",
        "check-budget-cells-negative",
        "check-budget-secs-negative",
        "check-budget-secs-0",
        "check-budget-secs-nan",
        "emit-smt-budget-cells-negative",
        "check-budget-cells-not-a-number",
        "check-unknown-flag",
        "simulate-init-name-repeated",
    ],
)
def test_bad_arguments_are_input_errors(capsys, argv):
    # exit 1 means "refuted": a bad argument must never look like one
    code, out = run(capsys, *argv)
    assert code == 3
    assert out.startswith("input error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: odeliv check")


@pytest.mark.parametrize("init,name", [("u=1", "'v'"), ("u=1,v=0,w=5", "'w'"), ("u=1,v=0,w=5,a=1", "'a', 'w'")])
def test_simulate_init_names_only_variables_and_parameters(capsys, init, name):
    # a missing variable and a name that is neither a variable nor a
    # parameter are both input errors that name it
    code, out = run(capsys, "simulate", problem_path("example1.ode"), "--init", init)
    assert code == 3
    assert out.startswith("input error: ") and name in out


@pytest.mark.parametrize(
    "argv, text",
    [
        (["falsify", "--samples", 2], "ode { x' = 1 }\nassume { x = 10^400 }\ngoal { x >= 1 }\n"),
        (["falsify", "--samples", 2], "ode { x' = 1 }\nassume { x >= 0 & x <= 10^400 }\ngoal { x >= 1 }\n"),
        (["simulate", "--init", "x=0"], "ode { x' = 10^400 }\nassume { x = 0 }\ngoal { x >= 1 }\n"),
        (["simulate", "--init", "x=0"], "ode { x' = 1 }\nassume { x = 0 }\ngoal { x >= -10^400 }\n"),
    ],
    ids=["falsify-pinned-state", "falsify-box-bound", "simulate-right-hand-side", "simulate-goal"],
)
def test_number_outside_float_range_is_input_error(tmp_path, capsys, argv, text):
    # exit 1 means "refuted": a number the float evaluators cannot hold must never look like one
    f = tmp_path / "huge.ode"
    f.write_text(text)
    code, out = run(capsys, argv[0], f, *argv[1:])
    assert code == 3
    assert out == "input error: number 1E+400 is outside the float range\n"


OVERFLOWING_GOAL = "ode { x' = x^2 }\nassume { x = 1 }\ngoal { x^40 <= -1 }\n"
OVERFLOWING_ASSUME = "ode { x' = 1 }\nassume { x >= 10^8, x <= 2*10^8, x^40 >= 0 }\ngoal { x >= 0 }\n"


@pytest.mark.parametrize(
    "text, argv, code, out",
    [
        (OVERFLOWING_GOAL, ["falsify", "--samples", "2"], 2, "samples=2 WITNESS=0 REFUTED-SAMPLE=0 BLOWUP=0 INCONCLUSIVE=2\n"),
        (OVERFLOWING_GOAL, ["simulate", "--init", "x=1"], 0, "stopped at t=0.9999999807591958: atoms have no float value\n"),
        (OVERFLOWING_ASSUME, ["falsify"], 3, "input error: rejection sampling failed to populate the initial set\n"),
    ],
    ids=["falsify-goal", "simulate-goal", "falsify-assume"],
)
def test_atoms_past_the_float_range_end_cleanly(tmp_path, text, argv, code, out):
    # x^40 overflows near x = 10^8: a trajectory stops there with no event,
    # so the sample is INCONCLUSIVE, never BLOWUP or REFUTED-SAMPLE, and a
    # sampler candidate counts as outside the set; `simulate` says where and
    # why the trajectory stopped
    f = tmp_path / "overflow.ode"
    f.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "odeliveness.cli", argv[0], str(f), *argv[1:]]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


def test_simulate_says_when_the_step_cap_ends_a_trajectory(tmp_path, capsys, monkeypatch):
    # a trajectory cut by the step cap is not at its horizon: no
    # HorizonReached, one line saying where it stopped, and the CSV ends there
    monkeypatch.setattr(sim, "MAX_STEPS", 3)
    code, out = run(capsys, "simulate", problem_path("example1.ode"), "--init", "u=1,v=0", "--out", tmp_path)
    assert code == 0
    assert out == f"stopped at t=0.09: step cap reached\nwrote {tmp_path / 'trajectory.csv'}\n"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 and rows[-1].startswith("0.09,")


@pytest.mark.parametrize("bound", ["10^60", "10^400"])
def test_huge_sum_of_squares_box_is_checked_quickly(tmp_path, capsys, bound):
    # the box's outward root x <= n/64 is computed in integers, not from a float
    f = tmp_path / "huge-box.ode"
    f.write_text(
        "ode { x' = 1 }\nassume { x = 0 }\ngoal { x >= 1 }\n"
        f"proof {{ rule dV_geq {{ p = x - 1; eps = 1; box = x^2 <= {bound}; hints = hint [ rule DW {{ }} ] }} }}\n"
    )
    t0 = time.monotonic()
    code, out = run(capsys, "check", f)
    assert code in (0, 2) and time.monotonic() - t0 < 5.0
    assert out.splitlines()[-1].startswith("verdict: ")


BINDING_PROBLEM = "ode { x' = 1 }\nassume { x = -1 }\ngoal { x >= 0 }\nproof { rule %s }\n"
VIA = "dV_geq { p = x; eps = 1; via = x >= 0; via_hints = hint [ %s ] }"


@pytest.mark.parametrize(
    "text",
    [
        BINDING_PROBLEM % "dV_geq { p = x; eps = 1; box = 3 }",
        BINDING_PROBLEM % "dV_geq { p = x; eps = 1; box = x }",
        BINDING_PROBLEM % (VIA % "rule DC { f = 3 }"),
        BINDING_PROBLEM % (VIA % "rule DomainWeaken { f = 3 }"),
        BINDING_PROBLEM % (VIA % "rule DC { f = x >= -2; hints = x >= 1 }"),
        BINDING_PROBLEM % (VIA % "rule DC { f = x >= -2; hints = 3 }"),
        BINDING_PROBLEM % "dV_geq_star { p = x; eps = 1; duration = COR }",
        "ode { x' = 1 }\nassume { x = -1 }\nproof { rule SP { p = x; eps = 1; S = x <= 0 } }\n",
        "ode { x' = 1 }\nassume { x = -1 }\nproof { rule SLyap { p = x; K = x <= 0 } }\n",
        BINDING_PROBLEM % "dV_geq_dom { p = x; eps = 1 }",
        BINDING_PROBLEM.replace("x >= 0", "x > 0") % "dV_gt_dom { p = x; eps = 1 }",
        BINDING_PROBLEM % "dV_geq { p = x; eps = 1; bx = x <= 0; hnts = x >= 0 }",
    ],
    ids=[
        "box-rational",
        "box-polynomial",
        "dc-cut-rational",
        "domain-weaken-rational",
        "dc-hints-formula",
        "dc-hints-rational",
        "duration-not-a-duration",
        "sp-without-goal",
        "slyap-without-goal",
        "dv-geq-dom-without-domain",
        "dv-gt-dom-without-domain",
        "keys-the-rule-never-reads",
    ],
)
def test_malformed_certificate_is_input_error(tmp_path, capsys, text):
    # exit 1 means "refuted": an ill-formed certificate must never look like one
    f = tmp_path / "bad-certificate.ode"
    f.write_text(text)
    code, out = run(capsys, "check", f)
    assert code == 3
    assert out.splitlines()[-1].startswith("input error: ")


def test_unread_certificate_keys_are_named(tmp_path, capsys):
    f = tmp_path / "misspelt.ode"
    f.write_text(BINDING_PROBLEM % "dV_geq { p = x; eps = 1; bx = x <= 0; hnts = x >= 0 }")
    code, out = run(capsys, "check", f)
    assert code == 3
    assert out.splitlines()[-1] == "input error: rule dV_geq reads no binding named 'bx' or 'hnts'"


@pytest.mark.parametrize(
    "hint, misspelt",
    [
        ("rule DC { f = u^2 + v^2 >= 1; typo = 5; hints", "rule DC reads no binding named 'typo'"),
        ("rule DI { bogus = u }", "rule DI reads no binding named 'bogus'"),
        ("rule DW { whatever = 1 }", "rule DW reads no binding named 'whatever'"),
    ],
)
def test_unread_hint_keys_are_named(tmp_path, capsys, hint, misspelt):
    # problems/example2_domain.ode is proved; one unread key in a hint makes it an input error
    text = problem_path("example2_domain.ode").read_text()
    original = {"DC": "rule DC { f = u^2 + v^2 >= 1; hints", "DI": "rule DI { }", "DW": "rule DW { }"}[hint[5:7]]
    assert text.count(original) == 1
    f = tmp_path / "misspelt-hint.ode"
    f.write_text(text.replace(original, hint))
    code, out = run(capsys, "check", f)
    assert (code, out.splitlines()[-1]) == (3, f"input error: {misspelt}")


# x(t) = -2000 - 1000*e^(t/1000) falls forever, so no certificate may prove
# that it reaches x >= 0 (or x > 0, or x = 0).  Each box makes the slope
# premise true, but the flow leaves it: the box must not be taken on trust.
UNJUSTIFIED_BOX = "ode { x' = (1/1000)*x + 2 }\n%sassume { x = -3000 }\ngoal { x %s 0 }\nproof { rule %s }\n"
CLOSED_BOX = "box = -1 <= x & x <= 0"
OPEN_BOX = "box = -1 < x & x < 0"


# rule -> (domain block, goal comparison, box)
UNJUSTIFIED_CASES = {
    "dV_geq": ("", ">=", CLOSED_BOX),
    "dV_gt": ("", ">", OPEN_BOX),
    "dV_geq_star": ("", ">=", CLOSED_BOX),
    "dV_k": ("", ">=", CLOSED_BOX),
    "dV_eq": ("", "=", CLOSED_BOX),
    "dV_eqM": ("", ">=", CLOSED_BOX),
    "dV_geq_dom": ("domain { x <= 1 }\n", ">=", CLOSED_BOX),
    "dV_gt_dom": ("domain { x < 1 }\n", ">", OPEN_BOX),
    "dV_eq_dom": ("domain { x <= 1 }\n", "=", CLOSED_BOX),
    "dV_eqM_dom": ("domain { x <= 1 }\n", ">=", CLOSED_BOX),
}


@pytest.mark.parametrize("rule", UNJUSTIFIED_CASES)
def test_unjustified_box_is_never_proved(tmp_path, capsys, rule):
    domain, goal, box = UNJUSTIFIED_CASES[rule]
    f = tmp_path / "unjustified-box.ode"
    f.write_text(UNJUSTIFIED_BOX % (domain, goal, f"{rule} {{ p = x; eps = 1; {box} }}"))
    code, out = run(capsys, "check", f)
    assert code == 2
    assert "verdict: Proved" not in out


DEEP = 3000
NESTED = "input error: formula nested too deeply"


@pytest.mark.parametrize("command", ["check", "falsify"])
@pytest.mark.parametrize(
    "assume, goal",
    [
        ("(" * DEEP + "x = 1" + ")" * DEEP, "x <= 2"),
        ("!" * DEEP + "(x = 1)", "x <= 2"),
        (" & ".join(["x = 1"] * 1000), "x <= 2"),
        ("x = 1", "!" * 300 + "(x <= 2)"),
    ],
    ids=["parentheses", "negations", "conjunction-chain", "negated-goal"],
)
def test_deeply_nested_formula_is_input_error(tmp_path, capsys, command, assume, goal):
    # exit 1 means "refuted": a deep input must never look like one, and
    # every command refuses the same inputs with the same message
    f = tmp_path / "deep.ode"
    f.write_text(f"ode {{ x' = -x }}\nassume {{ {assume} }}\ngoal {{ {goal} }}\n"
                 "proof { rule dV_geq { p = 2 - x; eps = 1 } }\n")
    code, out = run(capsys, command, f, "--samples", 2)
    assert (code, out) == (3, NESTED + "\n")


def _nesting_problem(ode="x' = -x; y' = 1", domain=None, assume="x = 1, y = 0", goal="y >= 1",
                     proof="rule dV_geq { p = y - 1; eps = 1 }") -> str:
    text = f"ode {{ {ode} }}\n" + (f"domain {{ {domain} }}\n" if domain else "")
    return text + f"assume {{ {assume} }}\ngoal {{ {goal} }}\nproof {{ {proof} }}\n"


def _hints(k: int, cut: str = "y <= 1") -> str:
    """A hint list with k `hint [` tokens: k - 1 DC steps of `cut` nested
    around DI."""
    inner = "rule DI { }"
    for _ in range(k - 1):
        inner = f"rule DC {{ f = {cut}; hints = hint [ {inner} ] }}"
    return f"hint [ {inner} ]"


# shape -> the problem whose one expression holds k nesting tokens of that shape
NESTING_SHAPES = {
    "parentheses": lambda k: _nesting_problem(assume="(" * (k - 1) + "x = 1" + ")" * (k - 1) + ", y = 0"),
    "negations": lambda k: _nesting_problem(assume="!" * (k - 1) + "x != 1, y = 0"),
    "conjunction": lambda k: _nesting_problem(assume=" & ".join(["x = 1"] * k + ["y = 0"])),
    "disjunction": lambda k: _nesting_problem(goal=" | ".join(["y >= 1"] * (k + 1))),
    "implication": lambda k: _nesting_problem(goal=" -> ".join(["y >= 1"] * (k + 1))),
    "comparison-chain": lambda k: _nesting_problem(goal=" <= ".join(["1"] * (k + 1) + ["y"])),
    "assumptions": lambda k: _nesting_problem(assume=", ".join(["x = 1"] * k + ["y = 0"])),
    "domain": lambda k: _nesting_problem(domain=" & ".join(["x <= 2"] * (k + 1))),
    "ode": lambda k: _nesting_problem(ode="x' = " + "(" * k + "-x" + ")" * k + "; y' = 1"),
    "binding": lambda k: _nesting_problem(proof="rule dV_geq { p = " + "(" * k + "y - 1" + ")" * k + "; eps = 1 }"),
    "hints": lambda k: _nesting_problem(proof=f"rule SP {{ p = y; eps = 1; S = y <= 1; hints = {_hints(k)} }}"),
}
NESTING_COMMANDS = {
    "check": [],
    "falsify": ["--samples", 2],
    "simulate": ["--init", "x=1,y=0", "--horizon", 1],
    "emit-smt": ["--out", "smt"],
    "lie": ["-p", "x"],
}


@pytest.mark.parametrize("command", NESTING_COMMANDS)
@pytest.mark.parametrize("shape", NESTING_SHAPES)
def test_nesting_cap_is_one_limit_for_every_command(tmp_path, capsys, monkeypatch, shape, command):
    # at the cap every command runs without an exception; one nesting token
    # past it, every command refuses the file with the same message
    monkeypatch.chdir(tmp_path)
    for k in (syntax.NESTING_CAP, syntax.NESTING_CAP + 1):
        f = tmp_path / f"nested-{k}.ode"
        f.write_text(NESTING_SHAPES[shape](k))
        code, out = run(capsys, command, f, *NESTING_COMMANDS[command])
        if k > syntax.NESTING_CAP:
            assert (code, out) == (3, NESTED + "\n")
        else:
            assert code in (0, 1, 2, 3) and NESTED not in out


def test_lie_polynomial_nesting_is_capped(capsys):
    cap = syntax.NESTING_CAP
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "(" * cap + "u" + ")" * cap)
    assert code == 0
    code, out = run(capsys, "lie", problem_path("example1.ode"), "-p", "(" * (cap + 1) + "u" + ")" * (cap + 1))
    assert (code, out) == (3, NESTED + "\n")


def _at_cap(atom: str, sep: str) -> str:
    return f" {sep} ".join([atom] * (syntax.NESTING_CAP + 1))


def _parenthesised(text: str, k: int = syntax.NESTING_CAP) -> str:
    return "(" * k + text + ")" * k


# the domain, the assume block, the goal, each right-hand side and each
# binding at the cap at once, with a hint list nested to the cap
WORST_CASE = f"""ode {{ u' = {_parenthesised("-v - u")}; v' = {_parenthesised("u - v")} }}
domain {{ {_at_cap("u^2 + v^2 <= 2", "&")} }}
assume {{ {_at_cap("u^2 + v^2 = 1", ",")} }}
goal {{ {_parenthesised("u^2 + v^2 <= 1/4")} }}
proof {{ rule SP_dom {{ p = {_parenthesised("1/4 - (u^2 + v^2)", syntax.NESTING_CAP - 1)}; eps = 1/2;
  S = 1/4 <= u^2 + v^2 & {" & ".join(["u^2 + v^2 <= 1"] * syntax.NESTING_CAP)};
  hints = hint [ rule DC {{ f = u^2 + v^2 <= 1; hints = {_hints(syntax.NESTING_CAP - 1, "u^2 + v^2 <= 1")} }}
                 rule DW {{ }} ] }} }}
"""


def test_a_file_with_every_block_at_the_cap_runs_through_every_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    f = tmp_path / "worst.ode"
    f.write_text(WORST_CASE)
    flags = dict(NESTING_COMMANDS, simulate=["--init", "u=1,v=0", "--horizon", 1],
                 lie=["-p", _parenthesised("u^2 + v^2")])
    for command in NESTING_COMMANDS:
        code, out = run(capsys, command, f, *flags[command])
        assert code == 0, (command, out)
        if command == "check":
            assert out.endswith("verdict: Proved\n")


def test_a_polynomial_of_thousands_of_terms_runs_under_the_numeric_commands(tmp_path, capsys):
    # no cap limits a polynomial's terms: (1 + x + y + z)^26 has 3,654, past
    # the length of a flat `+` chain that CPython compiles, and the plan
    # compiles it as a normal run, never a traceback or an input error
    f = tmp_path / "long.ode"
    f.write_text("ode { x' = (1 + x + y + z)^26; y' = 1; z' = 1 }\nassume { x = 0, y = 0, z = 0 }\n"
                 "goal { y >= 2 }\nproof { rule dV_geq { p = y - 2; eps = 1 } }\n")
    code, out = run(capsys, "simulate", f, "--init", "x=0,y=0,z=0", "--horizon", 0.01)
    assert (code, out) == (0, "event HorizonReached at t=0.01\n")
    code, out = run(capsys, "falsify", f, "--samples", 1, "--horizon", 0.01)
    assert (code, out) == (2, "samples=1 WITNESS=0 REFUTED-SAMPLE=0 BLOWUP=0 INCONCLUSIVE=1\n")


def test_a_recursion_bug_is_a_traceback_not_an_input_error(monkeypatch, capsys):
    # no command catches RecursionError: a walk that never ends fails loudly
    # instead of reading as a deep input (exit 3)
    monkeypatch.setattr(syntax.Node, "__hash__", lambda node: hash((node,)))
    with pytest.raises(RecursionError):
        main(["check", str(problem_path("example1.ode"))])


@pytest.mark.parametrize("given", ["out", "./out/", "out//sub/./", "."])
def test_out_paths_are_printed_as_pathlib_spells_them(tmp_path, capsys, monkeypatch, given):
    # `--out` is made with `os.makedirs`, and each `wrote` line names the file
    # as `pathlib.Path(given) / name` prints, as it did when cli and sim used
    # pathlib
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "simulate", problem_path("example1.ode"), "--init", "u=1,v=0", "--horizon", 1,
                    "--out", given)
    want = pathlib.Path(given) / "trajectory.csv"
    assert code == 0 and out.endswith(f"\nwrote {want}\n") and (tmp_path / want).is_file()
    code, out = run(capsys, "falsify", problem_path("example1.ode"), "--samples", 2, "--out", given)
    wants = [pathlib.Path(given) / name for name in ("sample-000.csv", "sample-001.csv", "summary.txt")]
    assert code == 0 and out.splitlines()[1:] == [f"wrote {want}" for want in wants]
    assert all((tmp_path / want).is_file() for want in wants)


@pytest.mark.parametrize(
    "command,extra",
    [("falsify", ["--samples", 2]), ("simulate", ["--init", "u=1,v=0", "--horizon", 1]), ("emit-smt", [])],
)
def test_out_naming_an_existing_file_is_input_error(tmp_path, capsys, command, extra):
    # `os.makedirs` cannot make the directory; that is the input's fault, not
    # a refutation (exit 1) and not a traceback
    existing = tmp_path / "taken"
    existing.write_text("kept\n")
    code, out = run(capsys, command, problem_path("example1.ode"), *extra, "--out", existing)
    assert code == 3
    assert out.splitlines()[-1].startswith(f"input error: cannot make directory {existing}: ")
    assert existing.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command,extra,blocked",
    [
        ("falsify", ["--samples", 2], "sample-001.csv"),
        ("simulate", ["--init", "u=1,v=0", "--horizon", 1], "trajectory.csv"),
    ],
)
def test_out_file_that_cannot_be_written_is_input_error(tmp_path, capsys, command, extra, blocked):
    # the directory exists, but a directory stands where a file goes
    (tmp_path / blocked).mkdir()
    code, out = run(capsys, command, problem_path("example1.ode"), *extra, "--out", tmp_path)
    assert code == 3
    assert out.splitlines()[-1].startswith(f"input error: cannot write to {tmp_path}: ")


def test_emit_smt_writes_unknown_obligations(tmp_path, capsys):
    # valid premise that is neither symbolically derivable nor boxable:
    # the prover stays Unknown, so the obligation is exported for a solver
    f = tmp_path / "unknown.ode"
    f.write_text(
        """
        ode { x' = 2 + x + x^4 }
        assume { x = 0 }
        goal { x >= 0 }
        proof { rule dV_geq_star { p = x; eps = 1 } }
        """
    )
    code, out = run(capsys, "emit-smt", f, "--out", tmp_path / "smt")
    assert code == 0
    files = list((tmp_path / "smt").glob("ob-*.smt2"))
    assert files
    for p in files:
        assert f"wrote {p}" in out
    text = files[0].read_text()
    assert "(set-logic QF_NRA)" in text and "(check-sat)" in text
    # indices in the filenames match the obligation numbering of the trace
    code2, trace = run(capsys, "check", f)
    unknown_ids = {
        line.strip().split()[0].removeprefix("ob-")
        for line in trace.splitlines()
        if line.strip().startswith("ob-") and ": Unknown" in line and "slope" in line
    }
    file_ids = {p.name.split("-")[1] for p in files}
    assert unknown_ids <= file_ids
    # a directory where an obligation's file goes is an input error
    files[0].unlink()
    files[0].mkdir()
    code, out = run(capsys, "emit-smt", f, "--out", tmp_path / "smt")
    assert code == 3
    assert out.splitlines()[-1].startswith(f"input error: cannot write to {tmp_path / 'smt'}: ")


def test_catalog_command(capsys):
    code, out = run(capsys, "catalog", "--samples", 4)
    assert code == 0
    for ce in ("CE-1", "CE-2", "CE-3", "CE-4"):
        assert f"{ce}: ok" in out
