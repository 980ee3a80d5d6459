"""Times a workload's set-up in a fresh interpreter; started by run.py.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing `odeliveness`, reading and parsing the inputs and
generating the corpora.  Prints one JSON line: the set-up's wall seconds,
the time of `workloads.reference_work` measured just after it, and the
outputs the parent process must reproduce.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.WORKLOADS[sys.argv[1]](ROOT, int(sys.argv[2]))
    wl.prepare()
    setup_s = time.perf_counter() - _START
    import json
    import statistics

    ref_s = statistics.median(workloads.reference_seconds() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s, "reference": wl.reference()}))


if __name__ == "__main__":
    main()
