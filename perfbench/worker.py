"""One workload in one single-threaded process; prints one JSON line last.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --root DIR

run.py starts this with the checkout's `src` and this directory on
PYTHONPATH and the BLAS thread count pinned to 1.

Fit, batch and grid run once untimed first, sampling resident memory for
the peak metrics; their outputs are the references.  Then ROUNDS rounds
run the phases in a fixed order: fit, save, load, scalar, batch, grid.
A phase's budget is its share of --seconds.  By the end of round r it
has used r/ROUNDS of that budget and made r/ROUNDS of MIN_CALLS calls
(for scalar, of its call count), and no more than r/ROUNDS of MAX_CALLS.
Spreading every phase over the whole run makes its median less
sensitive to the bursts of slowness that other tenants cause on a
shared machine.  Every output is compared
with its reference outside the timed region, and the references pass
the checks in gates.py.  An operation fails when it raises or its check
fails; a reference that fails a gate fails every call of its phase.

With --trace 1 the warm calls are followed by alternating untraced and
traced fits, which give the tracing overhead, and by one traced round of
the other phases (plus the Nim tasks on nim_stock) that yields the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
import threading
import traceback
from collections import Counter

import gates
import machine

PHASES = ("fit", "save", "load", "scalar", "batch", "grid")
ROUNDS = 8
MIN_CALLS = 2
MAX_CALLS = 200
SCALAR_WARM_CALLS = 20
MAX_SCALAR_CALLS = 20_000
TRACED_SCALAR_CALLS = 200
TRACE_FIT_PAIRS = 2
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True, help="checkout root holding src/padiclearn")
    ap.add_argument("--setup-only", action="store_true", help="stop after imports and inputs")
    return ap.parse_args(argv)


class Ledger:
    """Operations attempted and whether each passed, per phase."""

    def __init__(self):
        self.ok: dict[str, list[bool]] = {}

    def record(self, phase: str, ok: bool):
        self.ok.setdefault(phase, []).append(bool(ok))

    def fail_phase(self, phase: str):
        self.ok[phase] = [False] * len(self.ok.get(phase, [True]))

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.ok.values())

    @property
    def failed(self) -> int:
        return sum(v.count(False) for v in self.ok.values())


def call(fn, *args):
    """Run fn once: (its output, or None when it raised; seconds taken)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


def peak_call(fn, *args):
    """Untimed call with resident memory sampled every millisecond.

    Returns (output, peak MiB above the resident size at the start).
    tracemalloc would give exact peaks, but its per-allocation hook made
    the wide_modulus fit and batch calls about ten times slower.
    """
    base = peak = rss_bytes()
    done = threading.Event()

    def sample():
        nonlocal peak
        while not done.wait(0.001):
            peak = max(peak, rss_bytes())

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        out, _ = call(fn, *args)
    finally:
        done.set()
        sampler.join()
    return out, (max(peak, rss_bytes()) - base) / 2**20


def digest(arr) -> str:
    return hashlib.blake2b(memoryview(arr)).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "blake2b").hexdigest()


class Bench:
    """The calls a user makes on one workload, and their checks."""

    def __init__(self, w, seed: int, scratch: str):
        from padiclearn import learner
        from padiclearn.padic import LearningParams

        self.w = w
        self.seed = seed
        self.learner = learner
        self.params = LearningParams(*w.params)
        self.model_path = os.path.join(scratch, "model.txt")
        self.ledger = Ledger()
        self.ref: dict = {}
        self.model_bytes = 0
        self.first_set = next(iter(w.batch_sets))
        self.scalar_pts = w.batch_sets[self.first_set][: w.scalar_points]
        self.scalar_outs: list = []
        self.rounds: dict[str, list[list[float]]] = {}
        self.batch_points = sum(len(s) for s in w.batch_sets.values())
        self.grid_points = 1
        for a in w.grid_axes:
            self.grid_points *= len(a)

    # The user's calls.  Module attributes are looked up on every call so
    # that the tracer's wrappers are seen.
    def fit(self):
        lr = self.learner
        return lr.learn(lr.SampleSet(self.params, self.w.samples))

    def save(self):
        self.est.save(self.model_path)
        return self.model_path

    def load(self):
        return self.learner.DefiningFunctionEstimate.load(self.model_path)

    def batch(self):
        return {k: self.est.predict_residue_batch(v) for k, v in self.w.batch_sets.items()}

    def grid(self):
        return self.est.predict_residue_grid(self.w.grid_axes)

    def scalar_calls(self, n: int) -> list[float]:
        """n predict_residue calls; call i overall queries scalar point i mod n."""
        times = []
        for _ in range(n):
            pt = self.scalar_pts[len(self.scalar_outs) % len(self.scalar_pts)]
            out, dt = call(self.est.predict_residue, pt)
            self.scalar_outs.append(out)
            times.append(dt)
        return times

    # Checks against the phase references, outside the timed regions.
    def same_model(self, est) -> bool:
        return (
            est is not None
            and est.params == self.params
            and est.coeffs.data.shape == self.est.coeffs.data.shape
            and bool((est.coeffs.data == self.est.coeffs.data).all())
        )

    def check(self, phase: str, out) -> bool:
        if out is None:
            return False
        if phase in ("fit", "load"):
            return self.same_model(out)
        if phase == "save":
            if "save" not in self.ref:  # the first save is the reference
                self.ref["save"] = file_digest(out)
                self.model_bytes = os.path.getsize(out)
            return file_digest(out) == self.ref["save"]
        if phase == "batch":
            ref = self.ref.get("batch")
            return ref is not None and all(bool((out[k] == v).all()) for k, v in ref.items())
        if phase == "grid":
            return digest(out) == self.ref.get("grid")
        raise ValueError(f"unknown phase {phase!r}")

    def warm(self, phase: str):
        """Untimed first call of fit, batch or grid, sampling resident memory.

        Returns the peak MiB; the output becomes the phase's reference.
        """
        out, peak = peak_call(getattr(self, phase))
        if phase == "fit":
            if out is None:
                raise SystemExit("fit raised; there is no model to measure")
            self.est = out
        elif phase == "batch":
            self.ref["batch"] = out
        elif out is not None:
            self.ref["grid"] = digest(out)
            self.ref["grid_sample"] = gates.grid_sample(self.w.grid_axes, out)
            if self.w.nim_trials:
                self.ref["plane_failures"] = gates.nim_plane_failures(out)
        self.ledger.record(phase, self.check(phase, out))
        return peak

    def timed(self, phase: str, budget: float, least: int, most: int):
        """This round's timed calls: go on until the phase has used `budget`
        seconds and made `least` calls in all, but make no more than `most`."""
        fn = getattr(self, phase)
        done = self.rounds.setdefault(phase, [])
        spent = sum(map(sum, done))
        calls = sum(map(len, done))
        times: list[float] = []
        while calls < least or (calls < most and spent < budget):
            out, dt = call(fn)
            times.append(dt)
            spent += dt
            calls += 1
            self.ledger.record(phase, self.check(phase, out))
            del out
        done.append(times)

    def timed_scalar(self, calls: int):
        """This round's scalar calls: as many as bring the total to `calls`."""
        done = self.rounds.setdefault("scalar", [])
        done.append(self.scalar_calls(calls - sum(map(len, done))))

    def finish(self):
        """Score the scalar calls and gate every phase reference."""
        batch = self.ref.get("batch")
        expected = None if batch is None else batch[self.first_set][: len(self.scalar_pts)]
        scalar_ok = gates.check_scalar(expected, self.scalar_outs)
        for ok in scalar_ok:
            self.ledger.record("scalar", ok)
        why = {"fit": gates.check_fit(self.est, self.w)}
        if not all(self.ledger.ok.get("load", [False])):
            why["save"] = "a saved model did not load back to the fitted one"
        if batch is None:
            why["batch"] = "the reference batch call raised"
        elif not all(scalar_ok):
            why["batch"] = "batch residues differ from predict_residue on the scalar points"
        elif self.w.nim_trials:
            why["batch"] = gates.check_nim_batch(self.w, self.nim_failures())
        sample = self.ref.get("grid_sample")
        if sample is None:
            why["grid"] = "the reference grid call raised"
        else:
            why["grid"] = gates.check_grid(self.est, sample)
            if not why["grid"] and self.w.nim_trials:
                why["grid"] = gates.check_nim_plane(self.ref["plane_failures"])
        for phase, reason in why.items():
            if reason:
                print(f"gate failed [{phase}]: {reason}", file=sys.stderr)
                self.ledger.fail_phase(phase)

    def nim_failures(self) -> dict[int, int]:
        return gates.nim_failures(self.w, self.ref["batch"], self.ref.get("plane_failures"))


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    fit_peak = bench.warm("fit")
    scalar_peak = peak_call(bench.scalar_calls, SCALAR_WARM_CALLS)[1]
    per_call = statistics.median(bench.scalar_calls(SCALAR_WARM_CALLS))
    query_peaks = [scalar_peak, bench.warm("batch"), bench.warm("grid")]
    w = bench.w
    budget = {phase: seconds * share for phase, share in w.shares.items()}
    scalar_total = max(w.scalar_points, min(MAX_SCALAR_CALLS, int(budget["scalar"] / per_call)))
    for r in range(1, ROUNDS + 1):
        for phase in PHASES:
            if phase == "scalar":
                bench.timed_scalar(-(-scalar_total * r // ROUNDS))
            else:
                bench.timed(phase, budget[phase] * r / ROUNDS, -(-MIN_CALLS * r // ROUNDS),
                            -(-MAX_CALLS * r // ROUNDS))
    bench.finish()
    times = {k: [t for rnd in v for t in rnd] for k, v in bench.rounds.items()}

    med = {k: statistics.median(v) for k, v in times.items()}
    scalar = times["scalar"]
    metrics = {
        "fit_s": (med["fit"], "s"),
        "save_s": (med["save"], "s"),
        "load_s": (med["load"], "s"),
        "model_bytes": (bench.model_bytes, "bytes"),
        "batch_pts_per_s": (bench.batch_points / med["batch"], "1/s"),
        "grid_pts_per_s": (bench.grid_points / med["grid"], "1/s"),
        "scalar_ms.p50": (1e3 * med["scalar"], "ms"),
        "scalar_ms.p99": (1e3 * statistics.quantiles(scalar, n=100)[98], "ms"),
        "fit_peak_mb": (fit_peak, "MiB"),
        "query_peak_mb": (max(query_peaks), "MiB"),
    }
    info = {
        "timed_calls": {k: len(v) for k, v in times.items()},
        "calls_per_round": {k: [len(r) for r in v] for k, v in bench.rounds.items()},
        "points": {"batch": bench.batch_points, "grid": bench.grid_points},
    }
    return metrics, info


def run_traced(bench: Bench, trace_path: str) -> tuple[dict, dict]:
    import numpy as np
    from padiclearn import nim

    from tracer import Tracer

    w = bench.w
    bench.warm("fit")
    bench.scalar_calls(SCALAR_WARM_CALLS)
    bench.warm("batch")
    bench.warm("grid")
    for phase in ("save", "load"):
        out, _ = call(getattr(bench, phase))
        bench.ledger.record(phase, bench.check(phase, out))

    tracer = Tracer()
    plain, traced = [], []
    for _ in range(TRACE_FIT_PAIRS):
        out, dt = call(bench.fit)
        plain.append(dt)
        bench.ledger.record("fit", bench.check("fit", out))
        tracer.reset()
        tracer.install()
        try:
            with tracer.span("phase.fit") as fit_root:
                out, _ = call(bench.fit)
        finally:
            tracer.remove()
        traced.append(fit_root["end"] - fit_root["start"])
        bench.ledger.record("fit", bench.check("fit", out))
    # the traced round goes on from the spans of the last traced fit
    reports = {}
    tracer.install()
    try:
        for phase in ("save", "load", "batch", "grid"):
            with tracer.span(f"phase.{phase}"):
                out, _ = call(getattr(bench, phase))
            bench.ledger.record(phase, bench.check(phase, out))
            del out
        with tracer.span("phase.scalar"):
            bench.scalar_calls(TRACED_SCALAR_CALLS)
        # the layer metrics cover the round; the Nim task spans are added after
        round_summary = tracer.summary()
        ctr = Counter(tracer.counters)
        for task in (1, 2, 3, 4) if w.nim_trials else ():
            trials = w.nim_trials.get(task)
            reports[task] = call(nim.run_task, bench.est, task, trials, bench.seed)[0]
    finally:
        tracer.remove()
    bench.finish()
    if reports:
        counts = bench.nim_failures()
        for task, rep in reports.items():
            why = gates.check_nim_report(task, rep, counts)
            if why:
                print(f"gate failed [nim.task{task}]: {why}", file=sys.stderr)
            bench.ledger.record(f"nim.task{task}", not why)

    p = bench.params
    metrics = {}
    nim_spans = {k: v for k, v in tracer.summary().items() if k.startswith("nim.")}
    for name, row in {**round_summary, **nim_spans}.items():
        if not name.startswith("phase."):
            metrics[f"{name}.s"] = (row["s"], "s")
            metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for name, value in ctr.items():
        metrics[name] = (value, "bytes" if name.endswith("bytes_computed") else "count")
    metrics["mahler.coeffs.nonzero"] = (int(np.count_nonzero(bench.est.coeffs.data)), "count")
    metrics["mahler.coeffs.window_cells"] = (p.L**p.D, "count")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "1")
    fit_tree = tracer.summary(tracer.descendants(fit_root["id"]))
    fit_self = {name: row["self_s"] for name, row in fit_tree.items()}
    with open(trace_path, "w") as fh:
        json.dump({"workload": w.name, "seed": bench.seed, "spans": tracer.spans,
                   "counters": dict(tracer.counters)}, fh)
    info = {
        "traced_fit_s": traced[-1],
        "fit_self_s": dict(sorted(fit_self.items(), key=lambda kv: -kv[1])),
        "fit_accounted": sum(fit_self.values()) / traced[-1],
    }
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    import numpy  # noqa: F401  (the user's import, so part of set-up)
    import padiclearn

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(padiclearn.__file__).startswith(src + os.sep):
        raise SystemExit(f"padiclearn was imported from {padiclearn.__file__}, not from {src}")
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed)
    setup_done = time.time()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return

    out_dir = os.path.join(args.root, ".perfbench")
    scratch = os.path.join(out_dir, f"{w.name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    bench = Bench(w, args.seed, scratch)
    try:
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{w.name}-seed{args.seed}.json")
            metrics, info = run_traced(bench, trace_path)
            info["trace_file"] = os.path.relpath(trace_path, args.root)
        else:
            metrics, info = run_untraced(bench, args.seconds)
    finally:
        if os.path.exists(bench.model_path):
            os.remove(bench.model_path)
        os.rmdir(scratch)
    ledger = bench.ledger
    info["failed_by_phase"] = {k: v.count(False) for k, v in ledger.ok.items() if False in v}
    info["machine"] = machine.record(args.root)
    print(json.dumps({
        "setup_done": setup_done,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }))


if __name__ == "__main__":
    main()
