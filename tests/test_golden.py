"""Byte-for-byte transcripts of `check`, `falsify`, `catalog` and `simulate`,
and the prover's outcome on every obligation of two fixed corpora.

`check` draws no samples, so `check/<name>.s0.txt` is the one golden of a
problem file, and `check --seed 1` must reproduce it.

`rules/` holds one certificate per derived rule (`<rule>.ode`) next to its
`check` transcript at seed 0 (`<rule>.txt`), refusals included, so every
rule builder's chain, obligation order and labels are locked.

Each golden transcript holds a command's stdout (with the `--out` directory
shown as `OUT`), an `exit N` line, then every file written to `--out`:
`summary.txt` in full and each trajectory CSV as its SHA-256.  The falsifier
promises identical output for identical inputs and seeds, so a change to any
sample of any trajectory, to an event time or to a class shows here.

`prover/*.txt` hold one line per obligation: the status, method, cell count,
search depth and counterexample of `prove_implication` at a fixed cell
budget.  A change to the exact arithmetic backend that alters any verdict,
any cell count or any counterexample shows here.

Regenerate (only after a deliberate change of behaviour) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
from random import Random

import pytest

from odeliveness import arith
from odeliveness.cli import main
from odeliveness.rules import RULE_BUILDERS
from odeliveness.syntax import parse_formula

from test_acceptance import random_box_obligation

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
try:
    import known  # the benchmark's hand-written answers
finally:
    sys.path.remove(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROBLEMS = sorted(p.name for p in (ROOT / "problems").glob("*.ode"))
RULE_CERTIFICATES = sorted(p.name for p in (GOLDEN / "rules").glob("*.ode"))

SIMULATE_INIT = {"example1.ode": "u=1,v=0", "example2.ode": "u=1,v=0", "ce1.ode": "x=0,t=0"}


def cases() -> list:
    """(test id, golden path relative to GOLDEN, argv) for every locked
    transcript; a golden is written by the case whose id is its path."""
    out = []
    for name in PROBLEMS:
        out.append((f"check/{name[:-4]}.s0.txt", ["check", f"problems/{name}", "--seed", "0"]))
    for name in PROBLEMS:
        for seed in (0, 1):
            for samples in (2, 16):
                argv = ["falsify", f"problems/{name}", "--seed", str(seed), "--samples", str(samples)]
                out.append((f"falsify/{name[:-4]}.s{seed}.n{samples}.txt", argv))
    out.append(("catalog.n4.txt", ["catalog", "--samples", "4"]))
    for name in RULE_CERTIFICATES:
        out.append((f"rules/{name[:-4]}.txt", ["check", f"tests/golden/rules/{name}", "--seed", "0"]))
    for name, init in SIMULATE_INIT.items():
        out.append((f"simulate/{name[:-4]}.txt", ["simulate", f"problems/{name}", "--init", init]))
    # `check` draws no samples, so at seed 1 it must print the seed-0 golden
    seed1 = [
        (f"check/{name[:-4]}.s1.txt", f"check/{name[:-4]}.s0.txt", ["check", f"problems/{name}", "--seed", "1"])
        for name in PROBLEMS
    ]
    return [(rel, rel, argv) for rel, argv in out] + seed1


def transcript(argv) -> str:
    argv = [str(ROOT / a) if a.endswith(".ode") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        if argv[0] in ("falsify", "simulate"):
            argv = argv + ["--out", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = buf.getvalue().replace(str(out), "OUT") + f"exit {code}\n"
        for path in sorted(out.iterdir()) if out.exists() else ():
            if path.name == "summary.txt":
                text += path.read_text()
            else:
                text += f"sha256 {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
    return text


@pytest.mark.parametrize("rel,argv", [case[1:] for case in cases()], ids=[case[0] for case in cases()])
def test_transcript_byte_identical(rel, argv):
    assert transcript(argv) == (GOLDEN / rel).read_text()


CLASSES = ("WITNESS", "REFUTED-SAMPLE", "BLOWUP", "INCONCLUSIVE")

def test_falsify_goldens_hold_the_known_classes():
    # every summary count, per-sample class and exit code agrees with the
    # hand-written answers, so a regenerated golden cannot flip a class
    paths = sorted((GOLDEN / "falsify").glob("*.txt"))
    assert {p.name.split(".")[0] + ".ode" for p in paths} == set(known.FALSIFY_CLASS) == set(PROBLEMS)
    for path in paths:
        name, _, samples = path.name.split(".")[:3]
        expected = [known.FALSIFY_CLASS[name + ".ode"]] * int(samples[1:])
        lines = path.read_text().splitlines()
        summary = f"samples={len(expected)} " + " ".join(f"{c}={expected.count(c)}" for c in CLASSES)
        assert lines[0] == summary and lines.count(summary) == 2, path.name
        assert f"exit {1 if 'REFUTED-SAMPLE' in expected or 'BLOWUP' in expected else 0}" in lines, path.name
        classes = [line for line in lines if line.startswith("sample ")]
        assert [line.split(" t=")[0] for line in classes] == [f"sample {i}: {c}" for i, c in enumerate(expected)]


def test_catalog_golden_passes_every_entry():
    lines = (GOLDEN / "catalog.n4.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("CE-")] == list(known.CATALOG_IDS)
    assert all(line.split()[1] == "ok" for line in lines if line.startswith("CE-"))
    assert lines[-1] == "exit 0"


def test_every_rule_has_a_golden():
    assert sorted(name[:-4] for name in RULE_CERTIFICATES) == sorted(RULE_BUILDERS)


# Cells alone decide every budget-exhausted verdict: the seconds budget is
# far above any run.
PROVER_BUDGET = arith.Budget(max_cells=3000, max_seconds=3600.0)

# The four families of true obligations that interval B&B cannot close at
# this budget, two parameter draws each; the case split (disjunction) shares
# one budget across its disjuncts.
HARD = (
    ("square", "-1 <= x & x <= 3 & -3 <= y & y <= 2", "4*x^2 - 4*x*y + y^2 >= 0"),
    ("square", "-3 <= x & x <= 1 & -2 <= y & y <= 2", "x^2 - 4*x*y + 4*y^2 >= 0"),
    ("square_plus_c", "-1 <= x & x <= 2 & -1 <= y & y <= 3", "4*x^2 - 8*x*y + 4*y^2 >= -1/2048"),
    ("square_plus_c", "-1 <= x & x <= 3 & -1 <= y & y <= 2", "9*x^2 - 6*x*y + y^2 >= -1/256"),
    (
        "disjunction",
        "(-2 <= x & x <= 0 & -1 <= y & y <= 0) | (0 <= x & x <= 2 & 0 <= y & y <= 2)",
        "4*x^2 - 8*x*y + 4*y^2 >= 0",
    ),
    (
        "disjunction",
        "(-3 <= x & x <= 0 & -1 <= y & y <= 0) | (0 <= x & x <= 1 & 0 <= y & y <= 1)",
        "9*x^2 - 12*x*y + 4*y^2 >= 0",
    ),
    ("annulus4", "x^2 + y^2 >= 1/3 & x^2 + y^2 <= 7/3", "x^4 - 4*x^2*y^2 + 4*y^4 >= 0"),
    ("annulus4", "x^2 + y^2 >= 1/4 & x^2 + y^2 <= 5/4", "x^4 - 6*x^2*y^2 + 9*y^4 >= 0"),
)


def prover_corpora() -> dict:
    """Golden file name -> [(label, obligation)]."""
    rng = Random(11)  # the criterion-6 corpus of the acceptance suite
    criterion6 = [(str(i), random_box_obligation(rng)) for i in range(500)]
    hard = [
        (f"{i} {family}", arith.ArithObligation(("x", "y"), parse_formula(hyp), parse_formula(concl)))
        for i, (family, hyp, concl) in enumerate(HARD)
    ]
    return {"criterion6.txt": criterion6, "hard.txt": hard}


def outcome_line(label: str, ob) -> str:
    v = arith.prove_implication(ob, budget=PROVER_BUDGET)
    cx = "-" if v.counterexample is None else ",".join(f"{k}={x}" for k, x in sorted(v.counterexample.items()))
    t = v.trace
    return f"{label} {v.status} {t.get('method')} cells={t.get('cells')} depth={t.get('max_depth', '-')} cx={cx}\n"


@pytest.mark.parametrize("name", sorted(prover_corpora()))
def test_prover_outcomes_unchanged(name):
    got = "".join(outcome_line(label, ob) for label, ob in prover_corpora()[name])
    assert got == (GOLDEN / "prover" / name).read_text()


if __name__ == "__main__":
    for case_id, rel, argv in cases():
        if case_id != rel:
            continue
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(transcript(argv))
        print(f"wrote {path.relative_to(ROOT)}")
    for name, obligations in prover_corpora().items():
        path = GOLDEN / "prover" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(outcome_line(label, ob) for label, ob in obligations))
        print(f"wrote {path.relative_to(ROOT)}")
