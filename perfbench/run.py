"""padiclearn benchmark: one workload per call, every metric printed with its unit.

    python3 perfbench/run.py --workload nim_stock --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
The workload runs in its own single-threaded Python process (worker.py).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; its metrics are the
ones BENCHMARK.json lists, and the others print as "(not gated)" lines.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5  # set-up-only processes, besides the measuring one
DEADLINE_S = 170  # every run ends within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run worker.py to completion: (its JSON result, wall clock at its start)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    if setup_only:
        cmd.append("--setup-only")
    started = time.time()
    # subprocess.run kills the worker and waits for it if the timeout expires
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    if not os.path.isfile(os.path.join(ROOT, "src", "padiclearn", "__init__.py")):
        print(f"no padiclearn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, started = start_worker(args, deadline, setup_only=True)
            setups.append(probe["setup_done"] - started)
    result, started = start_worker(args, deadline, setup_only=False)
    setups.append(result["setup_done"] - started)

    measured = result["metrics"]
    info = result["info"]
    if not args.trace:
        measured = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **measured}
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    mach = dict(info.pop("machine"), loadavg_at_start=[round(x, 2) for x in load_at_start])
    print("machine " + " ".join(f"{k}={v}" for k, v in mach.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, m in measured.items():
        print(f"{name} {m['value']} {m['unit']}" + ("" if name in gated else " (not gated)"))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ops.share {failed / attempted} 1 ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: measured[name] for name in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
