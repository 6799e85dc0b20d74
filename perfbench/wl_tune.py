"""``tune``: ``tune()`` from scratch on a set of zoo kernels at N=32.

Serial (``jobs=None``), store off and polyhedral query cache cleared
before each call, one pass over the kernels in a seeded order.  The
per-kernel time is the median of up to :data:`REPEATS` tunes; the
metrics are over kernels (``ops_per_s`` is kernels tuned per second, so
its inverse is the time to tune the set once).  The benchmark re-times
each winner itself and checks its output against the reference
interpreter.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from harness import gmean, median
from metrics import TUNE_KERNELS
from repro import generate_code, kernels, parse_program, program_to_str
from repro.backend.lower import lower_program
from repro.backend.runtime import run_lowered
from repro.codegen.simplify import simplify_program
from repro.interp import execute
from repro.polyhedra import engine
from repro.tune import TuneStore, tune
from workload import Workload

TUNE_N = 32
#: Winners are re-timed at a larger size: at N=32 a run takes about a
#: millisecond and call overhead and timer noise swamp the schedule.
RETIME_N = 128
#: Runs per winner re-timing (median reported).
RETIME_RUNS = 15
#: A kernel whose tune takes under REPEAT_BELOW_S is tuned REPEATS times
#: and its median time kept: a single second-long op is at the mercy of
#: the host's speed swings.  trmm (about 10 s) is tuned once.
REPEATS = 3
REPEAT_BELOW_S = 5.0


class Tune(Workload):
    name = "tune"
    # one op per kernel of a fixed set: the tail is the slowest kernel
    tail_wanted = None

    def setup(self) -> list[str]:
        self.order = list(TUNE_KERNELS)
        random.Random(self.seed).shuffle(self.order)
        self.texts = {k: program_to_str(getattr(kernels, k)()) for k in self.order}
        # use_cache=False never reads or writes it; named so nothing lands
        # outside the benchmark's output directory
        self.store = TuneStore(os.path.join(self.out_dir, "tune-store"))
        return [f"{k}\0{self.texts[k]}" for k in self.order]

    def _tune_once(self, i: int, program, params):
        """One timed ``tune()`` from scratch; returns (seconds, start,
        result, error)."""
        if self.tracer.enabled:
            engine.cache_clear()
            with self.untraced_twin():
                tune(program, params, jobs=None, store=self.store, use_cache=False)
        self.cal.sample(3)
        engine.cache_clear()
        err = result = None
        t0 = time.perf_counter()
        try:
            with self.traced_op("op.tune", i), self.tracer.span("tune.tune"):
                result = tune(program, params, jobs=None, store=self.store,
                              use_cache=False)
        except Exception as exc:  # noqa: BLE001 - every op outcome is accounted
            err = exc
        dt = time.perf_counter() - t0
        self.twin_walls[1] += dt
        return dt, t0, result, err

    def run(self, seconds: float) -> dict:
        # per kernel: (tune seconds, start) and (winner run seconds, start)
        tunes: list[list[tuple[float, float]]] = []
        retimes: list[list[tuple[float, float]]] = []
        speedups: list[float] = []
        totals = dict.fromkeys(("tune.enumerated", "tune.pruned", "tune.scored",
                                "tune.measured"), 0)
        op = 0
        # one pass over the kernel set is the unit of measurement; a kernel
        # that tunes in seconds is tuned REPEATS times and its median kept
        for k in self.order:
            program = parse_program(self.texts[k], k)
            params = {p: TUNE_N for p in program.params}
            times: list[tuple[float, float]] = []
            tunes.append(times)
            retimes.append([])
            while len(times) < REPEATS and not (times and times[0][0] > REPEAT_BELOW_S):
                dt, t0, result, err = self._tune_once(op, program, params)
                op += 1
                times.append((dt, t0))
                reason = f"{type(err).__name__}: {err}" if err is not None else None
                label = f"tune:{k}"
                if result is not None:
                    if not result.ok:
                        reason = "tune reported failed rows or no winner"
                    else:
                        t_re = time.perf_counter()
                        reason, secs = self.retime(program, params, result.best)
                        retimes[-1].append((secs, t_re))
                        label += f" -> {result.best.description}"
                        if len(times) == 1:
                            totals["tune.enumerated"] += result.enumerated
                            totals["tune.pruned"] += result.pruned
                            totals["tune.scored"] += result.scored
                            totals["tune.measured"] += sum(
                                r.seconds is not None for r in result.rows)
                            speedups.append(result.speedup or 1.0)
                self.record(label, reason, dt)
            self.layer_values[f"tune.tune_s.{k}"] = median(dt for dt, _ in times)
        self.cal.sample(5)
        self.layer_values.update(totals)
        self.layer_values["tune.measured_ratio"] = (
            totals["tune.measured"] / totals["tune.scored"] if totals["tune.scored"] else 0.0)
        self.layer_values["tune.winner_speedup"] = gmean(speedups) if speedups else 0.0
        self.accepted_share = 1.0 - totals["tune.pruned"] / max(totals["tune.enumerated"], 1)

        def per_kernel(runs, scale: bool) -> list[float]:
            """Each kernel's median over its (seconds, start) pairs."""
            return [median(dt * (self.cal.factor_at(t0) if scale else 1.0) for dt, t0 in r)
                    for r in runs if r]

        return {
            **self.e2e(per_kernel(tunes, True), per_kernel(retimes, True)),
            "_raw": self.e2e(per_kernel(tunes, False), per_kernel(retimes, False)),
            "_samples": len(tunes),
        }

    def e2e(self, per_kernel: list[float], winners: list[float]) -> dict:
        """End-to-end metrics from per-kernel tune and winner run times."""
        t = self.tail(per_kernel)
        return {
            "op_p50_s": median(per_kernel),
            "op_tail_s": t.value,
            "ops_per_s": len(per_kernel) / sum(per_kernel),
            "run_gmean_s": gmean(winners) if winners else 0.0,
            "accepted_share": self.accepted_share,
            "_tail": t.label(),
        }

    def retime(self, program, params, best) -> tuple[str | None, float]:
        """Regenerate the winner, check it against the reference
        interpreter bit for bit at the tuned size, and time it at
        :data:`RETIME_N` (median of :data:`RETIME_RUNS`)."""
        cand = best.candidate
        ctx = cand.context
        g = generate_code(ctx.program, cand.matrix, ctx.deps)
        lowered = lower_program(simplify_program(g.program), vectorize=True)
        want, _ = execute(program, params)
        got = run_lowered(lowered, params)
        same = all(np.array_equal(want.arrays[a], got.arrays[a], equal_nan=True)
                   for a in want.arrays)
        big = {p: RETIME_N for p in params}
        runs = []
        for _ in range(RETIME_RUNS):
            t0 = time.perf_counter()
            run_lowered(lowered, big)
            runs.append(time.perf_counter() - t0)
        reason = None if same else f"winner {best.description!r} differs from the reference"
        return reason, median(runs)
