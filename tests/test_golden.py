"""Byte-for-byte transcripts of `falsify`, `catalog` and `simulate`.

Each golden file holds a command's stdout (with the `--out` directory shown as
`OUT`), an `exit N` line, then every file written to `--out`: `summary.txt`
in full and each trajectory CSV as its SHA-256.  The falsifier promises
identical output for identical inputs and seeds, so a change to any sample
of any trajectory, to an event time or to a class shows here.

Regenerate (only after a deliberate change of behaviour) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import pytest

from odeliveness.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROBLEMS = sorted(p.name for p in (ROOT / "problems").glob("*.ode"))

SIMULATE_INIT = {"example1.ode": "u=1,v=0", "example2.ode": "u=1,v=0", "ce1.ode": "x=0,t=0"}


def cases() -> list:
    """(golden path relative to GOLDEN, argv) for every locked transcript."""
    out = []
    for name in PROBLEMS:
        for seed in (0, 1):
            for samples in (2, 16):
                argv = ["falsify", f"problems/{name}", "--seed", str(seed), "--samples", str(samples)]
                out.append((f"falsify/{name[:-4]}.s{seed}.n{samples}.txt", argv))
    out.append(("catalog.n4.txt", ["catalog", "--samples", "4"]))
    for name, init in SIMULATE_INIT.items():
        out.append((f"simulate/{name[:-4]}.txt", ["simulate", f"problems/{name}", "--init", init]))
    return out


def transcript(argv) -> str:
    argv = [str(ROOT / a) if a.startswith("problems/") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        if argv[0] != "catalog":
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


@pytest.mark.parametrize("rel,argv", cases(), ids=[rel for rel, _ in cases()])
def test_transcript_byte_identical(rel, argv):
    assert transcript(argv) == (GOLDEN / rel).read_text()


if __name__ == "__main__":
    for rel, argv in cases():
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(transcript(argv))
        print(f"wrote {path.relative_to(ROOT)}")
