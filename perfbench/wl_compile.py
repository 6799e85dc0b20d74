"""``compile``: text plus a spec to a lowered ``source-vec`` callable.

Closed loop, one caller, serial.  Each op starts with the polyhedral
query cache cleared, so it pays the cold analysis a fresh ``repro``
invocation pays; execution does no timed work here.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from harness import classify, gmean, median, time_limit
from inputs import compile_inputs
from repro import check_legality, generate_code, parse_program, program_to_str
from repro.backend.lower import lower_program
from repro.backend.runtime import run_lowered
from repro.codegen.simplify import simplify_program
from repro.interp import execute
from repro.interp.equivalence import outputs_close
from repro.polyhedra import System, engine, ge, var
from repro.symbolic import prove_schedule
from repro.transform.spec import parse_schedule
from repro.util.errors import ReproError
from workload import Workload

#: An op slower than this is a hang, counted as failed.
OP_TIMEOUT_S = 120.0


@dataclass
class CompileOutcome:
    """What one compile op decided and produced."""

    appealed: bool = False      # Theorem 2 rejected; the symbolic oracle ran
    certified: bool = False     # ... and certified the schedule
    lowered: object = None      # LoweredProgram of an accepted schedule
    program: object = None      # its simplified generated program

    @property
    def accepted(self) -> bool:
        return self.lowered is not None


class Compile(Workload):
    name = "compile"

    def setup(self) -> list[str]:
        self.inputs = compile_inputs(self.seed)
        self.probe_s = 0.0
        return [f"{i.family}\0{i.text}\0{i.spec}" for i in self.inputs]

    def compile_op(self, inp) -> CompileOutcome:
        """The timed op."""
        tr = self.tracer
        with tr.span("ir.parse_program"):
            program = parse_program(inp.text, inp.name)
        with tr.span("transform.parse_schedule"):
            sched = parse_schedule(program, inp.spec)
        with tr.span("legality.check_legality"):
            report = check_legality(sched.layout, sched.matrix, sched.deps)
        if report.legal and sched.structural_legal:
            certified = False
        else:
            with tr.span("symbolic.prove_schedule"):
                outcome = prove_schedule(program, inp.spec)
            if not outcome.legal:
                return CompileOutcome(appealed=True)
            certified = True
        with tr.span("codegen.generate_code"):
            g = generate_code(sched.program, sched.matrix, sched.deps,
                              require_legal=not certified)
        with tr.span("codegen.simplify_program"):
            assume = System([ge(var(p), 1) for p in program.params])
            out = simplify_program(g.program, assume)
        with tr.span("backend.lower_program"):
            lowered = lower_program(out, vectorize=True)
        return CompileOutcome(appealed=certified, certified=certified,
                              lowered=lowered, program=out)

    def verify(self, inp, certified, lowered) -> tuple[str | None, float]:
        """Run the lowered schedule at the check size against the
        reference interpreter on the original program.  Theorem-2 legal
        schedules must match bit for bit; certified ones may reassociate
        and are compared within the interpreter's equivalence tolerance.
        Also returns the median of three runs of the lowered code."""
        params = dict(inp.check_params)
        program = parse_program(inp.text, inp.name)
        want, _ = execute(program, params)
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = run_lowered(lowered, params)
            runs.append(time.perf_counter() - t0)
        if certified:
            same = outputs_close(got.arrays, want.arrays)
        else:
            same = set(got.arrays) == set(want.arrays) and all(
                np.array_equal(got.arrays[k], want.arrays[k], equal_nan=True)
                for k in want.arrays
            )
        reason = None if same else "output differs from the reference interpreter"
        return reason, median(runs)

    def run(self, seconds: float) -> dict:
        lat: list[float] = []
        starts: list[float] = []
        run_s: list[float] = []
        run_starts: list[float] = []
        accepted = 0
        stats = dict.fromkeys(
            ("legality.accepted", "legality.rejected", "symbolic.appeals",
             "codegen.output_lines", "backend.vectorized_loops",
             "backend.fallback_loops", "backend.source_lines", "fm.cache_size"), 0)
        certificates = 0
        # one full pass over the input set is the unit of measurement
        for i, inp in enumerate(self.inputs):
            # no op, and no host-speed sample, pays for collecting the
            # previous op's garbage
            gc.collect()
            self.cal.maybe()
            twin = self.tracer.enabled and i % 2 == 0
            if twin:
                # untraced twin of every other op, for the tracing overhead
                engine.cache_clear()
                try:
                    with self.untraced_twin(), time_limit(OP_TIMEOUT_S):
                        self.compile_op(inp)
                except Exception:  # noqa: BLE001 - the traced op reports it
                    pass
            engine.cache_clear()
            err = result = None
            t0 = time.perf_counter()
            try:
                with time_limit(OP_TIMEOUT_S), self.traced_op("op.compile", i):
                    if self.tracer.enabled:
                        self.cold_dependence_probe(inp)
                    result = self.compile_op(inp)
            except Exception as exc:  # noqa: BLE001 - every op outcome is accounted
                err = exc
            dt = time.perf_counter() - t0
            if twin:
                self.twin_walls[1] += dt - self.probe_s
            if self.tracer.enabled:
                stats["fm.cache_size"] = max(stats["fm.cache_size"],
                                             engine.cache_stats().size)
            label = f"{inp.family}:{inp.name}:{inp.spec}"
            reason = classify(inp.expect_error, err, ReproError)
            if reason is None and result is not None:
                stats["symbolic.appeals"] += result.appealed
                stats["legality.rejected" if result.appealed else "legality.accepted"] += 1
                if result.accepted:
                    low = result.lowered
                    accepted += 1
                    certificates += result.certified
                    stats["codegen.output_lines"] += program_to_str(result.program).count("\n") + 1
                    stats["backend.vectorized_loops"] += low.vectorized_loops
                    stats["backend.fallback_loops"] += low.fallback_loops
                    stats["backend.source_lines"] += low.source.count("\n")
                    reason, rs = self.verify(inp, result.certified, low)
                    run_s.append(rs)
                    run_starts.append(t0)
            self.record(label, reason, dt)
            lat.append(dt)
            starts.append(t0)
        self.cal.sample(5)
        stats["symbolic.rescue_ratio"] = (
            certificates / stats["symbolic.appeals"] if stats["symbolic.appeals"] else 0.0
        )
        self.layer_values.update(stats)
        self.accepted_share = accepted / len(lat)
        return {
            **self.e2e(self.at_reference(lat, starts), self.at_reference(run_s, run_starts)),
            "_raw": self.e2e(lat, run_s),
            "_samples": len(lat),
        }

    def e2e(self, lat: list[float], run_s: list[float]) -> dict:
        """End-to-end metrics from op times and lowered-code run times."""
        t = self.tail(lat)
        return {
            "op_p50_s": median(lat),
            "op_tail_s": t.value,
            "ops_per_s": len(lat) / sum(lat),
            "run_gmean_s": gmean(run_s),
            "accepted_share": self.accepted_share,
            "_tail": t.label(),
        }

    def cold_dependence_probe(self, inp) -> None:
        """Traced run only: one cold analysis of the source program, so
        the dependence layer gets its own number (``parse_schedule``
        repeats it inside the op, cold again)."""
        from repro.dependence import analyze_dependences

        program = parse_program(inp.text, inp.name)
        t0 = time.perf_counter()
        with self.tracer.span("dependence.analyze_dependences"):
            analyze_dependences(program)
        engine.cache_clear()
        self.probe_s = time.perf_counter() - t0
