"""Fuzz of the command line: mutated problem files and drawn flags.

Each example takes one of the nine problem files and mutates a few of its
tokens: a numeral becomes a huge numerator, gets a zero or a huge
denominator, or becomes a power near `DEGREE_CAP`; a token is deleted,
repeated, swapped with its neighbour, or replaced by a symbol or by a
reserved word or enum binding value.  It then draws a command and its flags
at small budgets; the `--out` of `falsify`, `simulate` and `emit-smt` is a
directory or an existing file.  Every run must end with exit 0, 1, 2 or 3,
raise nothing (the command line would print a traceback), and print the
same stdout when rerun.

Tier-1 runs a derandomized slice of the default profile's examples; the
`ci` profile (`--hypothesis-profile=ci`) runs about 2,000.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from odeliveness.cli import main
from odeliveness.symbolic import DEGREE_CAP
from odeliveness.syntax import _KEYWORDS, ENUM_BINDING_VALUES
from conftest import PROBLEMS

FILES = sorted(PROBLEMS.glob("*.ode"))
TEXTS = {p.name: p.read_text() for p in FILES}
# numerals, words, runs of blanks, and any other single character
_PIECE = re.compile(r"[0-9]+|[^\W\d]\w*|\s+|.", re.S)
SYMBOLS = list("{}()[];,'=<>+-*^&|!/") + ["->", "<=", ">=", "!="]
WORDS = sorted(_KEYWORDS | ENUM_BINDING_VALUES)
MUTATIONS = ["numeral", "numeral", "zero-den", "huge-den", "power", "delete", "repeat", "swap", "symbol", "keyword"]


def _numeral(draw) -> str:
    return draw(
        st.one_of(
            st.integers(0, 9).map(str),
            st.integers(20, 5000).map(lambda k: "9" * k),  # huge numerators, past `int`'s 4300 digits too
            st.integers(DEGREE_CAP - 2, DEGREE_CAP + 2).map(str),
        )
    )


@st.composite
def mutated(draw) -> tuple:
    """(file name, text) of a problem file with one to three mutations."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    pieces = _PIECE.findall(TEXTS[name])
    for _ in range(draw(st.integers(1, 3))):
        numerals = [i for i, p in enumerate(pieces) if p.isdigit()]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind in ("numeral", "zero-den", "huge-den") and numerals:
            i = draw(st.sampled_from(numerals))
            tail = {"numeral": "", "zero-den": "/0", "huge-den": "/" + "7" * draw(st.integers(20, 400))}[kind]
            pieces[i] = (_numeral(draw) if kind == "numeral" else pieces[i]) + tail
            continue
        i = draw(st.integers(0, len(pieces) - 1))
        if kind == "power":
            pieces[i] += f"^{draw(st.integers(DEGREE_CAP - 2, DEGREE_CAP + 2))}"
        elif kind == "delete":
            del pieces[i]
        elif kind == "repeat":
            pieces.insert(i, pieces[i])
        elif kind == "swap" and i + 1 < len(pieces):
            pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
        elif kind == "keyword":
            pieces[i] = draw(st.sampled_from(WORDS))
        else:
            pieces[i] = draw(st.sampled_from(SYMBOLS))
    return name, "".join(pieces)


def _flags(draw, command: str, outs: list) -> list:
    flags = [
        "--budget-cells",
        str(draw(st.integers(0, 2000))),
        "--budget-secs",
        "60",
        "--samples",
        str(draw(st.integers(1, 4))),
        "--horizon",
        draw(st.sampled_from(["0.1", "0.5", "1", "2"] * 3 + ["0", "-1", "nan", "1e400"])),
        "--seed",
        str(draw(st.integers(0, 3))),
    ]
    if command == "lie":
        flags += ["-p", draw(st.sampled_from(["u^2 + v^2", "x", "u^65", "1/0", "2*u*v - 1/3", f"u^{DEGREE_CAP}"]))]
        flags += ["-k", str(draw(st.integers(-1, 3)))]
    if command == "simulate":
        flags += ["--init", draw(st.sampled_from(["u=1,v=0", "x=1/2,t=0", "u=1/0,v=0", "u=1e999,v=0", "x=0"]))]
    if command in ("falsify", "simulate", "emit-smt"):
        flags += ["--out", draw(st.sampled_from(outs))]
    extra = draw(st.sampled_from([[]] * 8 + [["--no-such-flag"], ["--budget-cells", "many"]]))
    return flags + extra


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated(), st.data())
def test_every_run_ends_in_an_exit_code_and_reruns_the_same(tmp_path_factory, problem, data):
    name, text = problem
    base = tmp_path_factory.getbasetemp()
    (base / name).write_text(text)
    command = data.draw(st.sampled_from(["check", "check", "falsify", "lie", "simulate", "emit-smt"]))
    existing = base / "existing-file"
    existing.write_text("")
    # a directory, made by the first run that names it, or a file
    outs = [str(base / "out"), str(base / "out" / "nested"), str(existing)]
    argv = [command, str(base / name)] + _flags(data.draw, command, outs)
    code, out, err = run(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3), (code, argv)
    assert "Traceback" not in out + err
    assert run(argv) == (code, out, err)


# -- inputs the fuzz found -------------------------------------------------------


def test_a_numeral_past_the_int_digit_limit_is_read_and_printed(tmp_path):
    # `int` refuses to read or print more than 4300 digits by default; the
    # problem file's numeral and the printed Lie derivative have 5000
    big = "9" * 5000
    path = tmp_path / "big.ode"
    path.write_text(f"ode {{ x' = {big} + x^2; t' = 1 }}\nassume {{ x = 0, t = 0 }}\ngoal {{ t >= 2 }}\n")
    code, out, _ = run(["lie", str(path), "-p", "x"])
    assert (code, out) == (0, f"x^2 + {big}\n")
    code, out, _ = run(["check", str(path)])
    assert (code, out) == (3, "input error: no proof block (nothing to check)\n")


def test_a_huge_power_of_a_number_is_an_input_error(tmp_path):
    # each of these took unbounded time and memory to compute
    for text in ("2^99999999999*x", "(2)^99999999999*x", "(1/3)^99999999999"):
        code, out, _ = run(["lie", str(PROBLEMS / "ce1.ode"), "-p", text])
        assert code == 3 and out.startswith("input error: power of a number with about"), text
    # a power of 0, 1 or -1 is small at any exponent
    assert run(["lie", str(PROBLEMS / "ce1.ode"), "-p", "(-1)^99999999999*x + 1^99999999999"])[:2] == (0, "-x^2 - 1\n")
