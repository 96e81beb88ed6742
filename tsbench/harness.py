"""Set-up repetitions, timed rounds, checks and the result line.

A workload is a list of operations, each a call into tscode and a check of
its output. One round runs every operation once, in order, with a single
caller (a closed loop). The timed phase repeats whole rounds, with the same
inputs, until the rounds have taken --seconds; so every run attempts whole
rounds and the share of failed operations does not depend on run length.
Checks run after each round, outside the timed intervals.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from tracer import Tracer, per_layer

SETUP_REPS = 3


class Failure:
    """The output of an operation that raised."""


@dataclass
class Op:
    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], bool]


class Runner:
    """Drives one workload. ``install(tracer)`` wraps the layers the
    workload's process calls; it is used on traced repetitions only."""

    def __init__(self, trace: bool, install: Callable[[Tracer], None] = lambda t: None):
        self.tracer = Tracer() if trace else None
        self.install = install
        self.active = None
        self.round_latencies = []
        self.round_walls = []
        self.traced_walls = []
        self.attempted = 0
        self.failed = 0
        self.first_round = None

    def span(self, name, opaque=False):
        return self.active.span(name, opaque) if self.active else nullcontext()

    def _activate(self, group):
        self.tracer.group = group
        self.install(self.tracer)
        self.active = self.tracer

    def _deactivate(self):
        self.tracer.unpatch()
        self.active = None

    def setup(self, build, traced=True):
        """Run build() SETUP_REPS times; return its last result and the
        median time. On a traced run every repetition is traced, unless
        `traced` is false."""
        times = []
        result = None
        traced = traced and self.tracer is not None
        for rep in range(SETUP_REPS):
            result = None
            if traced:
                self._activate(f"setup{rep}")
            start = time.perf_counter()
            try:
                result = build()
            finally:
                times.append(time.perf_counter() - start)
                if traced:
                    self._deactivate()
        return result, statistics.median(times)

    def _round(self, ops):
        ctx = {}
        latencies = []
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.call(ctx)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                out = Failure()
            latencies.append(time.perf_counter() - t0)
            ctx[op.name] = out
        wall = time.perf_counter() - start
        for op in ops:
            out = ctx[op.name]
            try:
                ok = not isinstance(out, Failure) and bool(op.check(out, ctx))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {op.name}", file=sys.stderr)
        if self.first_round is None:
            self.first_round = ctx
        return wall, latencies

    def timed(self, ops, seconds):
        """Whole rounds until they have taken `seconds`. A traced run
        alternates an untraced and a traced round; the end-to-end figures
        come from the untraced rounds only."""
        spent = 0.0
        k = 0
        while spent < seconds or k == 0:
            wall, latencies = self._round(ops)
            self.round_walls.append(wall)
            self.round_latencies.append(latencies)
            spent += wall
            if self.tracer:
                self._activate(f"round{k}")
                try:
                    traced_wall, _ = self._round(ops)
                finally:
                    self._deactivate()
                self.traced_walls.append(traced_wall)
                spent += traced_wall
            k += 1

    def result(self, end_to_end):
        """The result line: end-to-end metrics, or per-layer ones when traced."""
        if self.tracer:
            overhead = 100.0 * (statistics.median(self.traced_walls)
                                / statistics.median(self.round_walls) - 1.0)
            metrics = per_layer(self.tracer.spans, overhead)
        else:
            metrics = end_to_end
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def latency_metrics(self):
        """wall_s: median round; op_ms_p50: median over every operation;
        op_ms_p99: nearest-rank p99 over the operations of a round of each
        operation's median latency across rounds. Every round repeats the
        same inputs, so this is the tail the inputs cause; a burst of
        interference on the machine moves one round, not the tail."""
        per_op = sorted(map(statistics.median, zip(*self.round_latencies)))
        return {
            "wall_s": (statistics.median(self.round_walls), "s"),
            "op_ms_p50": (statistics.median(
                [v for lat in self.round_latencies for v in lat]) * 1e3, "ms"),
            "op_ms_p99": (per_op[math.ceil(0.99 * len(per_op)) - 1] * 1e3, "ms"),
        }

    def outputs(self, names):
        """The first round's outputs of the named operations that did not fail."""
        return [self.first_round[name] for name in names
                if not isinstance(self.first_round[name], Failure)]
