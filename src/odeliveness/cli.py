"""Command-line interface: check, falsify, simulate, lie, emit-smt, catalog.

Exit codes for `check`: 0 proved, 1 refuted (an obligation falsified with an
exact counterexample), 2 unknown / conditionally proved / rule refused,
3 input error, a malformed or unknown flag among them.  All configuration
is taken from flags; identical inputs with identical seeds and budgets
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction

from . import arith
from .errors import InvalidArgument, OdelivError, RuleRefused
from .kernel import PROVED, REFUTED, render_trace
from .rules import Checker, apply_rule
from .symbolic import higher_lie
from .syntax import parse_poly, parse_problem, print_poly


def _load(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise OdelivError(f"cannot read {path}: {e}")
    return parse_problem(text)


def _out_dir(directory: str) -> str:
    """Make the `--out` directory and return the prefix of the files written
    to it, spelled as `pathlib` spells a POSIX path: empty and `.` parts
    dropped and a leading `//` kept, so `./out/` prefixes `out/`."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as e:
        raise OdelivError(f"cannot make directory {directory}: {e}")
    lead = len(directory) - len(directory.lstrip("/"))
    parts = "".join(p + "/" for p in directory.split("/") if p not in ("", "."))
    return ("//" if lead == 2 else "/" if lead else "") + parts


@contextlib.contextmanager
def _writing(directory: str):
    """Turns an OSError from writing a file under the `--out` directory into
    an input error, as `_out_dir` does for making the directory."""
    try:
        yield
    except OSError as e:
        raise OdelivError(f"cannot write to {directory}: {e}") from None


def _the_rule(problem):
    """The proof block's one top-level rule step, which `check` proves and
    `emit-smt` exports."""
    if not problem.certificate:
        raise InvalidArgument("no proof block (nothing to check)")
    if len(problem.certificate) != 1:
        raise InvalidArgument("expected exactly one top-level rule step")
    return problem.certificate[0]


def _checker(args) -> Checker:
    # branch-and-bound reads the clock every 256 cells, so no time budget stops it sooner
    if args.budget_cells < 0:
        raise InvalidArgument(f"--budget-cells must be nonnegative, got {args.budget_cells}")
    if not args.budget_secs > 0:
        raise InvalidArgument(f"--budget-secs must be positive, got {args.budget_secs}")
    return Checker(budget=arith.Budget(max_cells=args.budget_cells, max_seconds=args.budget_secs))


def cmd_check(args) -> int:
    problem = _load(args.file)
    step = _the_rule(problem)
    checker = _checker(args)
    print(f"rule {step.name}")
    try:
        root = apply_rule(problem, step, checker)
    except RuleRefused as e:
        proof = getattr(e, "proof", None)
        if proof is not None:
            print(render_trace(proof), end="")
        print(str(e))
        return 2
    print(render_trace(root), end="")
    verdict = root.verdict()
    print(f"verdict: {verdict}")
    if verdict == PROVED:
        return 0
    if verdict == REFUTED:
        return 1
    return 2


def cmd_falsify(args) -> int:
    from . import sim  # only the numeric commands pay for its import

    problem = _load(args.file)
    report = sim.falsify_liveness(problem, samples=args.samples, seed=args.seed, horizon=args.horizon)
    print(report.summary())
    if args.out:
        prefix = _out_dir(args.out)
        with _writing(args.out):
            written = sim.write_report(report, problem, prefix)
        for path in written:
            print(f"wrote {path}")
    bad = report.n(sim.REFUTED) + report.n(sim.BLOWUP)
    if bad:
        return 1
    if report.n(sim.WITNESS):
        return 0
    return 2


def cmd_simulate(args) -> int:
    from . import sim

    problem = _load(args.file)
    init = {}
    for part in args.init.split(","):
        k, _, v = part.partition("=")
        name = k.strip()
        if name in init:
            raise InvalidArgument(f"--init: {name!r} is given more than once")
        try:
            init[name] = float(Fraction(v.strip()))
        except (ValueError, ZeroDivisionError):  # also 'inf' and 'nan', which Fraction rejects
            raise InvalidArgument(f"--init: cannot read {part.strip()!r} as name=number")
        except OverflowError:
            raise InvalidArgument(f"--init: {part.strip()!r} is out of float range")
    traj = sim.integrate(sim.Plan(problem.system, problem.goal), init, args.horizon, stop_on_event=False)
    for t, kind in traj.events:
        print(f"event {kind} at t={t!r}")
    if traj.stopped is not None:
        t, reason = traj.stopped
        print(f"stopped at t={t!r}: {reason}")
    if args.out:
        path = _out_dir(args.out) + "trajectory.csv"
        with _writing(args.out):
            sim.write_csv(path, traj, problem.system)
        print(f"wrote {path}")
    return 0


def cmd_lie(args) -> int:
    problem = _load(args.file)
    p = parse_poly(args.polynomial)
    print(print_poly(higher_lie(p, problem.system, args.order)))
    return 0


def cmd_emit_smt(args) -> int:
    problem = _load(args.file)
    step = _the_rule(problem)
    checker = _checker(args)
    try:
        root = apply_rule(problem, step, checker)
    except RuleRefused as e:
        root = getattr(e, "proof", None)  # export whatever arithmetic was attempted
    if root is None:
        print("no unknown arithmetic obligations; nothing to export")
        return 0
    directory = args.out or "smt-out"
    out = _out_dir(directory)
    written = 0
    # indices match the obligation numbering of the printed trace
    from .kernel import ArithOb

    for index, ob in enumerate(root.all_obligations()):
        if (
            isinstance(ob, ArithOb)
            and ob.result is not None
            and ob.result.status == arith.UNKNOWN
        ):
            path = out + arith.smt_filename(index, ob.obligation)
            with _writing(directory), open(path, "w") as fh:
                fh.write(arith.emit_smtlib(ob.obligation))
            print(f"wrote {path}")
            written += 1
    if not written:
        print("no unknown arithmetic obligations; nothing to export")
    return 0


def cmd_catalog(args) -> int:
    from . import sim

    results = sim.run_catalog(samples=args.samples, seed=args.seed, horizon=args.horizon)
    ok = True
    for r in results:
        status = "ok" if r["ok"] else "FAIL"
        refusal = f" refused at {r['refusal']}" if r["refusal"] else ""
        print(f"{r['id']}: {status}{refusal} counts={r['counts']}")
        for err in r["errors"]:
            print(f"  {err}")
        ok = ok and r["ok"]
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, such as a malformed or unknown flag, are input
    errors (exit 3) rather than argparse's exit 2, which means Unknown."""

    def error(self, message):
        raise InvalidArgument(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: building it takes about 2 ms, which a caller that runs `main`
    many times in one process would otherwise pay on every call."""
    ap = _Parser(prog="odeliv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    budget = arith.Budget()

    def common(p, file=True):
        if file:
            p.add_argument("file", help="problem file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--horizon", type=float, default=10.0)
        p.add_argument("--samples", type=int, default=64)
        p.add_argument("--budget-cells", type=int, default=budget.max_cells)
        p.add_argument("--budget-secs", type=float, default=budget.max_seconds)
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="verify the certificate in the proof block")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("falsify", help="sample initial states and integrate")
    common(p)
    p.set_defaults(fn=cmd_falsify)

    p = sub.add_parser("simulate", help="integrate one trajectory")
    common(p)
    p.add_argument("--init", required=True, help="comma-separated var=value pairs")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("lie", help="print a higher Lie derivative")
    common(p)
    p.add_argument("-p", "--polynomial", required=True)
    p.add_argument("-k", "--order", type=int, default=1)
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("emit-smt", help="export unknown arithmetic obligations as SMT-LIB")
    common(p)
    p.set_defaults(fn=cmd_emit_smt)

    p = sub.add_parser("catalog", help="run the built-in soundness counterexamples")
    common(p, file=False)
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact numbers are read and printed at any length
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except OdelivError as e:
        print(f"input error: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
