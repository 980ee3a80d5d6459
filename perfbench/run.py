"""Benchmark of the odeliveness verifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {check,arith,falsify} --seed N \
        --seconds S --trace {0,1}

Runs one workload as a closed loop with one client for about S seconds and
prints every metric with its unit, then, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`.
Uses the standard library only and imports the package from `src/`.

End-to-end metrics, all workloads:
  setup_s      median over fresh interpreters of importing odeliveness,
               reading and parsing the inputs and generating the corpora
  peak_rss_mb  ru_maxrss of this process
  op_ms_p50    median time of the workload's repeated operation: a `check`
               pass over the nine problem files, one obligation through
               `prove_implication`, a `falsify` pass
Times are corrected for the host's speed (see `workloads.Clock`); the wall
times are printed too, with a `.wall` suffix.  The workload's own metrics
(check_pass_ms_p90, prove_obs_per_s, falsify_fail_rate, ...) follow.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBES = 7  # fresh interpreters timed for set-up in each untraced run
PROBE_TIMEOUT_S = 120


def setup_probes(workload: str, seed: int) -> list:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    out = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("check", "arith", "falsify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "odeliveness" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"perfbench: {ROOT} is not a checkout of odeliveness (src/odeliveness, problems/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    probes = [] if args.trace else setup_probes(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    wl.prepare()
    for p in probes:
        if p["reference"] is not None:
            wl.compare_reference(p["reference"])
    wl.run(args.seconds, bool(args.trace))

    if args.trace:
        import tracer

        metrics = {**tracer.layer_metrics(wl.tracer.spans, wl.rounds, wl.clock.speed()), **wl.metrics}
        shown = metrics
    else:
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] * workloads.REF_SECONDS / p["ref_s"] for p in probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_ms_p50": (statistics.median(wl.op_ms), "ms"),
        }
        wall = {
            "setup_s.wall": (statistics.median(p["setup_s"] for p in probes), "s"),
            "op_ms_p50.wall": (statistics.median(wl.op_ms_wall), "ms"),
        }
        shown = {**metrics, **wall, **wl.metrics}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if getattr(wl, "corpus_digest", None):
        print(f"  corpus verdict digest {wl.corpus_digest}")
    score = wl.score
    print(f"  attempted={score.attempted} failed={score.failed} errors={len(score.errors)}")
    for err in score.errors[:10]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not score.errors,
                "attempted": score.attempted,
                "failed": score.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
