"""Wavefront programs on ``source-vec``: after a skew, every front of a
stencil is one slice assignment, and its diagonal references (varying
with the front variable in several dimensions) render as flat strided
views.  Every front shape — wide anti-diagonals, shrinking triangular
fronts, tiled bodies that stay scalar — must be *bit-exact* against the
reference interpreter, and stay so when several workers run the same
lowered program at once (the service executes requests on concurrent
threads against one shared lowering cache).  docs/BACKENDS.md carries
the argument.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.backend import lower_program, run
from repro.codegen import generate_code
from repro.codegen.simplify import simplify_program
from repro.dependence import analyze_dependences
from repro.interp import ArrayStore, execute
from repro.interp.equivalence import outputs_close
from repro.kernels import gauss_seidel_1d, jacobi_1d, random_program, seidel_2d, trmm
from repro.kernels.generator import SHAPES
from repro.transform.spec import parse_schedule

JOBS_SWEEP = (1, 2, 8)


def _scheduled(program, spec):
    """Apply a transformation spec and return the rewritten program."""
    sched = parse_schedule(program, spec)
    generated = generate_code(sched.program, sched.matrix, sched.deps)
    return simplify_program(generated.program)


def _assert_vec_exact(p, params, jobs=1):
    """Run ``p`` on source-vec from ``jobs`` concurrent threads; every
    run must be bit-identical to the reference interpreter."""
    base = ArrayStore(p, dict(params)).snapshot()
    ref, _ = execute(p, params, arrays=base)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs = list(pool.map(
            lambda _: run(p, params, arrays=base, backend="source-vec"),
            range(jobs),
        ))
    for vec in runs:
        for k, a in ref.arrays.items():
            assert np.array_equal(vec.arrays[k], a), (
                f"array {k} not bit-identical with {jobs} workers"
            )
        assert vec.scalars == ref.scalars


@pytest.mark.parametrize("jobs", JOBS_SWEEP)
class TestBitExactAcrossWorkerCounts:
    def test_skewed_seidel_2d(self, jobs):
        # the canonical wavefront: skew turns the diagonal dependence
        # pattern into wide DOALL anti-diagonal fronts
        p = _scheduled(seidel_2d(), "skew(I, J, 1)")
        _assert_vec_exact(p, {"N": 13}, jobs)

    def test_skewed_gauss_seidel_1d(self, jobs):
        # a single skew is not enough here (the inner distance-(0,1)
        # dependence survives); skew-then-permute exposes the band
        p = _scheduled(gauss_seidel_1d(), "skew(I, S, 2); permute(S, I)")
        _assert_vec_exact(p, {"N": 9, "T": 5}, jobs)

    def test_jacobi_1d_unskewed(self, jobs):
        # already-DOALL inner loops need no skew at all: each time step
        # is one front
        _assert_vec_exact(jacobi_1d(), {"N": 24, "T": 6}, jobs)

    def test_tiled_trmm(self, jobs):
        # tiling introduces non-unit strides and guard-heavy bounds
        p = _scheduled(trmm(), "tile(I, 8)")
        _assert_vec_exact(p, {"N": 21}, jobs)


@given(st.integers(0, 10_000), st.sampled_from(SHAPES))
@settings(max_examples=30, deadline=None)
def test_source_vec_matches_reference_on_random_programs(seed, shape):
    """Whatever nest the generator produces — wavefront band or not —
    source-vec must agree with the tree walker (the cross-backend fuzz
    oracle's claim, pinned as a property)."""
    p = random_program(seed, shape=shape)
    params = {name: 5 for name in p.params}
    base = ArrayStore(p, dict(params)).snapshot()
    ref, _ = execute(p, params, arrays=base)
    vec = run(p, params, arrays=base, backend="source-vec")
    assert outputs_close(ref.snapshot(), vec.snapshot())
    assert set(vec.scalars) == set(ref.scalars)


class TestNoWavefrontFallback:
    def test_unskewed_seidel_degrades_to_serial(self):
        """No DOALL loop without the skew: lowering vectorizes nothing,
        the decision trail says why, and the scalar emission still runs
        correctly."""
        p = gauss_seidel_1d()
        deps = analyze_dependences(p)
        with obs.session() as sess:
            lowered = lower_program(p, vectorize=True, deps=deps)
            events = [ev for ev in sess.events if ev.kind == "vectorize"]
        assert lowered.vectorized_loops == 0
        assert events and all(ev.verdict == "reject" for ev in events)
        _assert_vec_exact(p, {"N": 9, "T": 4})

    def test_skewed_seidel_reports_wavefront_loop(self):
        # the front loop is the innermost DOALL loop; its diagonal
        # references render as flat views, so nothing stays scalar
        p = _scheduled(seidel_2d(), "skew(I, J, 1)")
        lowered = lower_program(p, vectorize=True)
        assert lowered.vectorized_loops == 1
        assert lowered.fallback_loops == 0
        assert "_fview(" in lowered.source
