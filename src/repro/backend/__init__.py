"""Execution backends: lower IR programs to compiled, optionally
vectorized Python/NumPy source.

See docs/BACKENDS.md.  The public surface is :func:`run` (execute a
program with any registered backend), :data:`BACKENDS` (the registry),
:func:`bench_backends` (wall-clock comparison with output cross-checks)
and the lower-level :func:`lower_program`.
"""

from repro.backend.lower import LoweredProgram, lower_program
from repro.backend.runtime import (
    BACKENDS, BackendTiming, bench_backends, lower_cached, run, run_lowered,
    time_backend,
)
from repro.backend.vectorize import VecPlan, doall_loop_vars, plan_vector_loop

__all__ = [
    "BACKENDS", "BackendTiming", "LoweredProgram", "VecPlan",
    "bench_backends", "doall_loop_vars", "lower_cached", "lower_program",
    "plan_vector_loop", "run", "run_lowered", "time_backend",
]
