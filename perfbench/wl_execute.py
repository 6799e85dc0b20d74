"""``execute``: one ``run_lowered`` of a transformed zoo program on
``source-vec``.

Programs are compiled during set-up, so only the execution layer
(``backend``: vectorize, lower, runtime) works in the timed region.
Closed loop, one caller, round robin over the programs in a seeded
order, whole rounds only, at least :data:`MIN_ROUNDS` of them and on
until ``--seconds`` have passed.  Initial array contents are drawn from
the seed.  A host-speed sample is taken between every two runs.
"""

from __future__ import annotations

import random
import time
import zlib

import numpy as np

from harness import gmean, median, numpy_kernel
from metrics import EXECUTE_KERNELS
from repro import generate_code, kernels, parse_program, program_to_str
from repro.backend.lower import lower_program
from repro.backend.runtime import run_lowered
from repro.codegen.simplify import simplify_program
from repro.interp import execute
from repro.polyhedra import System, ge, var
from repro.transform.spec import parse_schedule
from workload import Workload

#: Schedule executed (``None``: the kernel's source order) and timed
#: size N.  trmm's schedule is the tuner's winner family, seidel's the
#: wavefront skew that stays scalar on ``source-vec``.  Sizes put each
#: run at roughly 20-250 ms; blur_2d makes the program count odd, so the
#: median run falls inside one program's cluster of samples instead of
#: between two.
SCHEDULES = {
    "cholesky": (None, 256),
    "lu": (None, 256),
    "trmm": ("permute(J,K); skew(J,I,-1)", 256),
    "seidel_2d": ("skew(J,I,1)", 256),
    "gemver_like": (None, 256),
    "trsv": (None, 256),
    "jacobi_1d": (None, 256),
    "fdtd_1d": (None, 256),
    "blur_2d": (None, 1024),
}
#: Time steps of the stencils: enough to register.
TIMED_T = 4096
#: Rounds every run makes however slow the host: 5 rounds of 9 programs
#: put 11 samples beyond p75, so ``op_tail_s`` is always p75.
MIN_ROUNDS = 5
#: Reference-check size: the tree-walking interpreter is too slow at
#: the timed size.
CHECK_N = 10
CHECK_T = 4


def _params(program, n: int, t: int) -> dict[str, int]:
    return {p: t if p == "T" else n for p in program.params}


def seeded_init(seed: int):
    """Initial array contents drawn from the workload seed; square
    arrays are made diagonally dominant so factorizations stay finite."""
    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        data = rng.uniform(0.5, 1.5, size=shape)
        if len(shape) == 2 and shape[0] == shape[1]:
            data = (data + data.T) / 2 + np.eye(shape[0]) * (2.0 * shape[0])
        return data
    return init


def compile_text(text: str, name: str, spec: str | None):
    program = parse_program(text, name)
    if spec is None:
        return program, program
    sched = parse_schedule(program, spec)
    g = generate_code(sched.program, sched.matrix, sched.deps)
    assume = System([ge(var(p), 1) for p in program.params])
    return program, simplify_program(g.program, assume)


class Execute(Workload):
    name = "execute"
    tail_wanted = 75.0
    calibration_kernel = staticmethod(numpy_kernel)

    def setup(self) -> list[str]:
        self.init = seeded_init(self.seed)
        self.order = list(EXECUTE_KERNELS)
        random.Random(self.seed).shuffle(self.order)
        self.programs = {}
        texts = []
        for k in EXECUTE_KERNELS:
            text = program_to_str(getattr(kernels, k)())
            spec, n = SCHEDULES[k]
            texts.append(f"{k}\0{text}\0{spec}\0{n}")
            source, transformed = compile_text(text, k, spec)
            lowered = lower_program(transformed, vectorize=True)
            self.programs[k] = (source, transformed, lowered)
        vec = sum(low.vectorized_loops for *_, low in self.programs.values())
        fallback = sum(low.fallback_loops for *_, low in self.programs.values())
        #: share of the programs whose lowered code has a vectorized
        #: loop (trsv has no DOALL loop; skewed seidel stays scalar today)
        self.vectorized_share = sum(
            low.vectorized_loops > 0 for *_, low in self.programs.values()
        ) / len(self.programs)
        self.layer_values.update({
            "codegen.output_lines": sum(
                program_to_str(t).count("\n") + 1 for _, t, _ in self.programs.values()),
            "backend.vectorized_loops": vec,
            "backend.fallback_loops": fallback,
            "backend.source_lines": sum(
                low.source.count("\n") for *_, low in self.programs.values()),
        })
        return texts

    def _run(self, k: str):
        source, _, lowered = self.programs[k]
        return run_lowered(lowered, _params(source, SCHEDULES[k][1], TIMED_T),
                           init=self.init)

    def run(self, seconds: float) -> dict:
        per: dict[str, list[float]] = {k: [] for k in self.order}
        first: dict[str, dict] = {}
        lat: list[float] = []
        starts: list[float] = []
        end = time.perf_counter() + seconds
        i = 0
        # whole rounds only: every program gets the same number of runs,
        # so the percentiles of the mix do not shift with where the
        # window happens to end
        rounds = MIN_ROUNDS * len(self.order)
        while i < rounds or time.perf_counter() < end or i % len(self.order):
            k = self.order[i % len(self.order)]
            self.cal.sample()
            if self.tracer.enabled:
                with self.untraced_twin():
                    self._run(k)
            err = None
            t0 = time.perf_counter()
            try:
                with self.traced_op("op.execute", i), self.tracer.span("backend.run_lowered"):
                    store = self._run(k)
            except Exception as exc:  # noqa: BLE001 - every op outcome is accounted
                err = exc
            dt = time.perf_counter() - t0
            self.twin_walls[1] += dt
            reason = None
            if err is not None:
                reason = f"{type(err).__name__}: {err}"
            elif k not in first:
                first[k] = {a: v.copy() for a, v in store.arrays.items()}
            elif not all(np.array_equal(first[k][a], v, equal_nan=True)
                         for a, v in store.arrays.items()):
                reason = "output differs between runs of one program"
            self.record(f"run:{k}", reason, dt)
            per[k].append(dt)
            lat.append(dt)
            starts.append(t0)
            i += 1
        self.cal.sample()
        self.check_reference()
        medians = {k: median(v) for k, v in per.items()}
        self.layer_values.update(
            {f"backend.run_lowered_s.{k}": m for k, m in medians.items()})
        ref = self.at_reference(lat, starts)
        n = len(self.order)
        return {**self.e2e(ref, {k: ref[j::n] for j, k in enumerate(self.order)}),
                "_raw": self.e2e(lat, per), "_samples": len(lat)}

    def e2e(self, lat: list[float], per: dict[str, list[float]]) -> dict:
        """End-to-end metrics from run times, all and per program."""
        t = self.tail(lat)
        return {
            "op_p50_s": median(lat),
            "op_tail_s": t.value,
            "ops_per_s": len(lat) / sum(lat),
            "run_gmean_s": gmean(median(v) for v in per.values()),
            "accepted_share": self.vectorized_share,
            "_tail": t.label(),
        }

    def check_reference(self) -> None:
        """Each program's lowered code at the check size against the
        reference interpreter on the untransformed kernel, bit for bit."""
        for k in self.order:
            source, _, lowered = self.programs[k]
            params = _params(source, CHECK_N, CHECK_T)
            want, _ = execute(source, params, init=self.init)
            got = run_lowered(lowered, params, init=self.init)
            same = all(np.array_equal(want.arrays[a], got.arrays[a], equal_nan=True)
                       for a in want.arrays)
            self.record(f"check:{k}", None if same else
                        "output differs from the reference interpreter", 0.0)
