"""Spans and counters recorded around padiclearn's functions, from outside.

The library is not changed: Tracer.install replaces functions and methods
where their callers look them up, and Tracer.remove puts the originals
back.  learner binds its helpers with `from ... import`, so those are
wrapped as `padiclearn.learner.<name>`; evaluate reaches evaluate_on_grid
through `padiclearn.mahler`, so that binding is wrapped too.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, owner, attr: str, name, count=None):
        """Replace owner.attr by a wrapper that records one span per call.

        name is a span name or a function of the call's arguments giving
        one; count(result, *args, **kwargs) returns counter increments and
        runs after the span has closed.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counters.update(count(result, *args, **kwargs))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self):
        """Wrap the public entry points of padic, trie, mahler, learner and nim."""
        from padiclearn import learner, mahler, nim, trie

        est = learner.DefiningFunctionEstimate
        self.wrap(learner.SampleSet, "__post_init__", "learner.sample_set")
        self.wrap(learner, "learn", "learner.learn")
        self.wrap(learner, "build_value_grid", "learner.value_grid", _value_grid_cells)
        self.wrap(learner, "binomial_table", "padic.binomial_table", _table_cells)
        self.wrap(trie.PadicTrie, "__init__", "trie.build", _trie_nodes)
        self.wrap(trie.PadicTrie, "nns_valuation_batch", "trie.query", _query_points)
        self.wrap(learner, "mahler_transform", "mahler.transform", _transform_work)
        self.wrap(learner, "evaluate_on_grid", "mahler.evaluate_on_grid", _grid_macs)
        self.wrap(mahler, "evaluate_on_grid", "mahler.evaluate_on_grid", _grid_macs)
        self.wrap(learner, "write_coefficient_rows", "mahler.write_rows")
        self.wrap(learner, "read_coefficient_rows", "mahler.read_rows")
        self.wrap(est, "save", "learner.save")
        self.wrap(est, "load", "learner.load")
        self.wrap(est, "predict_residue", "learner.scalar", _one_call)
        self.wrap(est, "predict_residue_batch", "learner.batch", _batch_work)
        self.wrap(est, "predict_residue_grid", "learner.grid")
        self.wrap(nim, "run_task", lambda est, task, *a, **k: f"nim.task{task}")
        self.wrap(nim, "generate_p_positions", "nim.generate_p_positions")

    def remove(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def summary(self, spans: list[dict] | None = None) -> dict:
        """Per span name: calls, busy seconds (`s`) and self seconds (`self_s`).

        Covers `spans` (default: all), which must hold the children of
        every span in it.  A span's self time is its duration minus the
        durations of its direct children, so self times add up to the
        time of the roots.
        """
        spans = self.spans if spans is None else spans
        child_time = defaultdict(float)
        for sp in spans:
            if sp["parent"] is not None:
                child_time[sp["parent"]] += sp["end"] - sp["start"]
        out: dict[str, dict] = {}
        for sp in spans:
            row = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp["end"] - sp["start"]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[sp["id"]]
        return out

    def descendants(self, root_id: int) -> list[dict]:
        below = {root_id}
        found = []
        for sp in self.spans:  # parents are recorded before their children
            if sp["parent"] in below:
                below.add(sp["id"])
                found.append(sp)
        return found


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "parent": None, "name": name}

    def __enter__(self):
        tr = self.tracer
        self.record["parent"] = tr._stack[-1] if tr._stack else None
        tr.spans.append(self.record)
        tr._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _value_grid_cells(_result, samples):
    return {"learner.value_grid.cells": samples.params.M**samples.params.D}


def _table_cells(_result, p, E, nmax, kmax):
    return {"padic.binomial_table.cells": (nmax + 1) * (kmax + 1)}


def _trie_nodes(_result, trie, *_args, **_kwargs):
    return {"trie.nodes": trie.node_count}


def _query_points(_result, _trie, points):
    return {"trie.query.points": len(points)}


def _transform_work(_result, grid):
    """Computed, not measured: M(M-1)/2 updates per line, D * M**(D-1) lines.

    Each update reads two int64 entries and writes one, so 24 bytes is
    the least traffic an update can cost.
    """
    M, D = grid.extent, grid.params.D
    updates = D * M ** (D - 1) * M * (M - 1) // 2
    return {
        "mahler.transform.cell_updates": updates,
        "mahler.transform.bytes_computed": 24 * updates,
    }


def _grid_macs(_result, coeffs, axes, _table):
    """Computed: contraction round d costs extent**(D-d) * prod(len(axes[:d+1]))."""
    ext, D = coeffs.extent, coeffs.params.D
    macs, queried = 0, 1
    for d in range(D):
        queried *= len(axes[d])
        macs += ext ** (D - d) * queried
    return {"mahler.evaluate_on_grid.macs": macs}


def _one_call(*_args):
    return {"learner.scalar.calls": 1}


def _batch_work(_result, _est, points):
    pts = np.asarray(points)
    return {"learner.batch.points": len(pts), "learner.batch.groups": np.unique(pts[:, 0]).size}
