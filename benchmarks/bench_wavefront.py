"""E19 — the wavefront claim: after ``skew(I,J,1)`` turns a 2-D
Gauss-Seidel sweep's diagonal dependences into DOALL anti-diagonal
fronts, ``source-vec`` executes each front as one slice assignment
(its diagonal references render as flat strided views) and beats the
scalar ``source`` emission while staying bit-exact against the
reference interpreter.

The assertions mirror the CI gate: ``source-vec`` at least
``WAVEFRONT_MIN_SPEEDUP`` (6x) over ``source`` on the skewed stencil at
N=256 and 512, bit-exact.  docs/BACKENDS.md has the argument for why a
flat view is a correct slice assignment.
"""

import pytest

from repro.backend import bench_backends, run
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.kernels import seidel_2d
from repro.transform.spec import parse_schedule

#: The compare.py gate floor, restated here so a local `pytest
#: benchmarks/bench_wavefront.py` fails the same way CI does.
WAVEFRONT_MIN_SPEEDUP = 6.0


def _skewed_seidel():
    """seidel_2d after skew(I,J,1): outer loop walks anti-diagonal
    fronts, inner loop is DOALL at every fixed front."""
    sched = parse_schedule(seidel_2d(), "skew(I, J, 1)")
    generated = generate_code(sched.program, sched.matrix, sched.deps)
    skewed = simplify_program(generated.program)
    return skewed.with_body(skewed.body, name="seidel_2d_skewed")


@pytest.mark.parametrize("n", (256, 512))
def test_e19_skewed_seidel_wavefront_speedup(benchmark, n):
    p = _skewed_seidel()
    params = {"N": n}
    rows = bench_backends(
        p, params, backends=("reference", "source", "source-vec"), repeat=2
    )
    by = {r.backend: r for r in rows}
    benchmark(run, p, params, backend="source-vec")
    print(f"\n[E19] skewed seidel_2d N={n} backend comparison:")
    for name, r in by.items():
        tag = f"{r.speedup:8.2f}x" if r.speedup else "baseline"
        print(f"  {name:10s} {r.seconds * 1e3:9.3f} ms  {tag}  ok={r.ok}")
    assert all(r.ok is True and not r.error for r in by.values())
    assert by["source-vec"].speedup >= WAVEFRONT_MIN_SPEEDUP * by["source"].speedup
