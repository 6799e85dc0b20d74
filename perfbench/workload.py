"""The workload base class: op accounting, tracing and per-layer tables."""

from __future__ import annotations

import time
from contextlib import contextmanager

from harness import (
    Calibrator, Ledger, Tail, Tracer, fixed_tail, layer_table, peak_rss_mb,
    python_kernel,
)
from metrics import PER_LAYER


class Workload:
    """One workload.  Subclasses set :attr:`name`, fill :meth:`setup`
    (returning the generated input texts, for the digest) and
    :meth:`run` (returning the end-to-end metrics)."""

    name = ""
    #: The one percentile ``op_tail_s`` reports (``None``: the maximum
    #: of a fixed op set); a run that cannot reach it fails.
    tail_wanted: float | None = 90.0
    calibration_kernel = staticmethod(python_kernel)

    def __init__(self, seed: int, trace: bool, root: str, out_dir: str):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.tracer = Tracer(trace)
        self.ledger = Ledger()
        #: package counters summed over every traced op (trace mode only)
        self.counters: dict[str, int] = {}
        #: extra per-layer values a workload measures itself
        self.layer_values: dict[str, float] = {}
        #: (untraced, traced) op wall sums, for the tracing overhead
        self.twin_walls = [0.0, 0.0]
        #: (op label, seconds) of every timed op, for the result file
        self.op_log: list[tuple[str, float]] = []
        #: host-speed samples, taken between timed ops
        self.cal = Calibrator(self.calibration_kernel)

    # -- lifecycle --------------------------------------------------------

    def setup(self) -> list[str]:
        raise NotImplementedError

    def run(self, seconds: float) -> dict:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        """:meth:`run` bracketed by host-speed samples."""
        self.cal.sample(5)
        e2e = self.run(seconds)
        self.cal.sample(5)
        return e2e

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def at_reference(self, times, starts) -> list[float]:
        """Op times at the reference host speed, each scaled by the
        host-speed samples around its start (``Calibrator.factor_at``).
        Call after the last op's following samples are taken."""
        return [dt * self.cal.factor_at(t0) for dt, t0 in zip(times, starts)]

    def tail(self, values) -> Tail:
        return fixed_tail(values, self.tail_wanted)

    # -- op accounting ----------------------------------------------------

    def record(self, label: str, reason: str | None, seconds: float) -> None:
        self.op_log.append((label, seconds))
        if reason is None:
            self.ledger.ok()
        else:
            self.ledger.fail(label, reason)

    @contextmanager
    def traced_op(self, name: str, op_id: int):
        """Root span of one op; in trace mode also an observability
        session whose counters are summed into :attr:`counters`."""
        if not self.tracer.enabled:
            yield
            return
        from repro import obs

        sink = obs.MemorySink()
        try:
            with obs.session(sink), self.tracer.op(name, op_id):
                yield
        finally:
            for k, v in sink.counters.items():
                self.counters[k] = self.counters.get(k, 0) + v

    @contextmanager
    def untraced_twin(self):
        """Trace mode: run the enclosed op untraced and add its wall to
        the untraced side of the overhead comparison."""
        self.tracer.enabled = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.twin_walls[0] += time.perf_counter() - t0
            self.tracer.enabled = True

    # -- per-layer report -------------------------------------------------

    def per_layer(self) -> tuple[dict[str, float], list[tuple[str, float, int]]]:
        """Every per-layer metric (zero for layers this workload does not
        reach) and the self-time table: (span name, seconds per op, calls)."""
        total, calls, roots = layer_table(self.tracer.spans)
        ops = max(roots, 1)
        table = sorted(
            ((n, t / ops, calls[n]) for n, t in total.items()),
            key=lambda r: -r[1],
        )
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        for n, t, _ in table:
            key = "bench.glue_s" if n.startswith("op.") else f"{n}_s"
            if key in values:
                values[key] += t
        c = self.counters
        hits, misses = c.get("fm.cache_hits", 0), c.get("fm.cache_misses", 0)
        values.update({
            "dependence.vectors": c.get("dependence.vectors", 0),
            "dependence.pairs_tested": c.get("dependence.pairs_tested", 0),
            "fm.feasibility_queries": c.get("fm.feasibility_queries", 0),
            "fm.eliminations": c.get("fm.eliminations", 0),
            "fm.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "fm.cache_evictions": c.get("fm.cache_evictions", 0),
        })
        values.update(self.layer_values)
        u, t = self.twin_walls
        values["trace.overhead_ratio"] = t / u - 1.0 if u > 0 else 0.0
        return values, table
