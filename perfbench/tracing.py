"""Spans around the calls into each clusterhop layer, recorded from outside.

``Tracer.active()`` replaces each traced function with a timing wrapper in
the module that looks it up at call time, and puts the original back on
exit. ``cli`` imports ``load_scenario``, ``build_snapshot_set`` and
``solve_illumination`` by name and ``planner`` imports ``solve_bounded_lp``
by name, so those are wrapped where they are called, not where they are
defined. Nothing under ``src/`` changes. Spans stay in memory (name, start,
end, parent, pass) until the run writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module that looks the function up, attribute, span name)
TARGETS = (
    ("clusterhop.cli", "run", "cli.run"),
    ("clusterhop.cli", "load_scenario", "scenario.load"),
    ("clusterhop.cli", "build_snapshot_set", "snapshots.build"),
    ("clusterhop.cli", "solve_illumination", "planner.solve"),
    ("clusterhop.precoding", "load_dvbs2_table", "precoding.table"),
    ("clusterhop.precoding", "cluster_capacities", "precoding.capacities"),
    ("clusterhop.channel", "build_all_cluster_channels", "channel.clusters"),
    ("clusterhop.channel", "gain_magnitude_matrix", "channel.gain_matrix"),
    ("clusterhop.channel", "build_beam_field", "channel.field"),
    ("clusterhop.planner", "greedy_plan", "planner.greedy"),
    ("clusterhop.planner", "expand_schedule", "planner.expand"),
    ("clusterhop.planner", "solve_bounded_lp", "simplex.lp"),
    ("clusterhop.benchmarks", "four_color_evaluate", "benchmarks.four_color"),
    ("clusterhop.benchmarks", "bh_evaluate", "benchmarks.bh"),
    ("clusterhop.metrics", "score", "metrics.score"),
    ("clusterhop.metrics", "cross_cluster_leakage", "metrics.leakage"),
)

# Counts read off a span's return value.
COUNTERS = {"snapshots.build": lambda snaps: snaps.n_snapshots}


@dataclass
class Span:
    index: int
    name: str
    pass_id: int
    parent: int | None
    start: float
    end: float = math.nan
    count: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(index, name, self._pass_id,
                        self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.count = counter(result)
            return result

        return traced

    @contextmanager
    def active(self, pass_id: int):
        """Trace every target for the duration of one pass."""
        self._pass_id = pass_id
        originals = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def pass_spans(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def write(self, path, t0: float) -> None:
        """Dump every span, with times in seconds from ``t0``."""
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            rows.append(row)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts of one pass.

    ``*_s`` is the summed span time (children included) unless the name says
    self time: ``planner.greedy_s`` excludes the ``expand_schedule`` call
    greedy makes, so ``planner.solve_s`` splits exactly into
    ``planner.self_s + simplex.lp_s + planner.greedy_s + planner.expand_s``.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    children = defaultdict(float)
    counts = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    for s in spans:
        duration = s.end - s.start
        total[s.name] += duration
        own[s.name] += duration - children[s.index]
        calls[s.name] += 1
        if s.count is not None:
            counts[s.name] = s.count
    return {
        "scenario.load_s": total["scenario.load"],
        "precoding.table_s": total["precoding.table"],
        "channel.clusters_s": total["channel.clusters"],
        "channel.clusters_calls": calls["channel.clusters"],
        "channel.gain_matrix_s": total["channel.gain_matrix"],
        "channel.gain_matrix_calls": calls["channel.gain_matrix"],
        "channel.field_s": total["channel.field"],
        "precoding.capacities_s": total["precoding.capacities"],
        "snapshots.build_s": total["snapshots.build"],
        "snapshots.n_valid": counts.get("snapshots.build", 0),
        "planner.solve_s": total["planner.solve"],
        "planner.solve_calls": calls["planner.solve"],
        "planner.greedy_s": own["planner.greedy"],
        "planner.expand_s": total["planner.expand"],
        "planner.expand_calls": calls["planner.expand"],
        "planner.self_s": own["planner.solve"],
        "simplex.lp_s": total["simplex.lp"],
        "simplex.lp_calls": calls["simplex.lp"],
        "simplex.lp_ms_per_call":
            1000.0 * total["simplex.lp"] / max(calls["simplex.lp"], 1),
        "benchmarks.four_color_s": total["benchmarks.four_color"],
        "benchmarks.bh_s": total["benchmarks.bh"],
        "metrics.score_s": total["metrics.score"],
        "metrics.leakage_s": total["metrics.leakage"],
        "cli.self_s": own["cli.run"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median over passes of each per-pass layer metric."""
    return {name: statistics.median(m[name] for m in per_pass)
            for name in per_pass[0]}
