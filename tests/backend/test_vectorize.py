"""Vectorization planning: DOALL verdicts gate it, syntactic legality
conditions on subscripts/values decide slice-assignment emission, and
``_vslice``/``_fview`` reproduce the per-iteration index walk exactly."""

import numpy as np
import pytest

from repro.backend import doall_loop_vars, lower_program, plan_vector_loop, run
from repro.backend.lower import _fview, _vslice
from repro.interp import ArrayStore, execute
from repro.ir import parse_program
from repro.ir.ast import Loop, Statement
from repro.kernels import cholesky, gauss_seidel_1d, jacobi_1d
from repro.util.errors import InterpError


def inner_loop(program):
    """The unique innermost loop of a single-nest program."""
    node = program.body[0]
    while True:
        children = [c for c in node.body if isinstance(c, Loop)]
        if not children:
            return node
        node = children[0]


def plan_for(src: str):
    p = parse_program(src)
    loop = inner_loop(p)
    scope = frozenset(p.params) | {
        n.var for n in _ancestors(p.body[0], loop)
    }
    return plan_vector_loop(loop, scope, {d.name: d for d in p.arrays})


def _ancestors(root, target):
    if root is target:
        return []
    for c in root.body:
        if isinstance(c, Loop):
            below = _ancestors(c, target)
            if below is not None:
                return [root] + below
    return None


class TestDoallVerdicts:
    def test_cholesky_doall_set(self):
        assert doall_loop_vars(cholesky()) == {"I", "J", "L"}

    def test_gauss_seidel_has_none(self):
        # every loop carries a dependence as written — nothing vectorizes
        assert doall_loop_vars(gauss_seidel_1d()) == frozenset()

    def test_skewed_wavefront_inner_loop_is_doall(self):
        # The skewed+permuted Gauss-Seidel wavefront: its min/max loop
        # bounds used to make dependence analysis bail (conservatively
        # reporting nothing DOALL); multi-term BoundSet bounds now
        # translate exactly, so the genuinely parallel wavefront inner
        # loop is proven DOALL (cross-backend agreement is pinned in
        # tests/transform/test_tiling.py-style equivalence runs).
        from repro.codegen import generate_code
        from repro.dependence import analyze_dependences
        from repro.instance import Layout
        from repro.transform import compose, permutation, skew

        p = gauss_seidel_1d()
        lay = Layout(p)
        deps = analyze_dependences(p)
        t = compose(skew(lay, "I", "S", 2), permutation(lay, "S", "I"))
        g = generate_code(p, t.matrix, deps)
        assert doall_loop_vars(g.program) == {"S2"}
        low = lower_program(g.program, vectorize=True)
        assert low.vectorized_loops == 1


class TestPlanConditions:
    def test_stencil_loop_plans(self):
        plan = plan_for(
            "param N\nreal A(0:N+1)\nreal B(0:N+1)\n"
            "do I = 1..N\n  S1: A(I) = (B(I - 1) + B(I + 1)) * 0.5\nenddo"
        )
        assert plan is not None and plan.var == "I" and not plan.needs_iota

    def test_loop_var_in_value_position_needs_iota(self):
        plan = plan_for(
            "param N\nreal A(N)\n"
            "do I = 1..N\n  S1: A(I) = A(I) + f(I)\nenddo"
        )
        assert plan is not None and plan.needs_iota

    def test_scalar_read_rejected(self):
        # dependence analysis does not track scalars: must stay scalar
        assert plan_for(
            "param N\nreal A(N)\n"
            "do I = 1..N\n  S1: t = 2.0\n  S2: A(I) = t\nenddo"
        ) is None

    def test_nonaffine_subscript_rejected(self):
        assert plan_for(
            "param N\nreal A(0:N)\nreal B(0:N)\n"
            "do I = 1..N\n  S1: A(I) = B(mod(I, 2))\nenddo"
        ) is None

    def test_diagonal_vectorizes(self):
        # A(I, I) varies in two dimensions: no per-dimension slice maps
        # it, but its cells are a flat strided view of the array
        src = (
            "param N\nreal A(N, N)\nreal B(N, N)\n"
            "do I = 1..N\n  S1: A(I, I) = B(I, N + 1 - I) + f(I)\nenddo"
        )
        plan = plan_for(src)
        assert plan is not None and plan.needs_iota
        p = parse_program(src)
        low = lower_program(p, vectorize=True)
        assert low.vectorized_loops == 1 and "_fview(" in low.source
        ref, _ = execute(p, {"N": 7})
        vec = run(p, {"N": 7}, backend="source-vec")
        for k, a in ref.arrays.items():
            assert np.array_equal(vec.arrays[k], a)

    def test_invariant_lhs_rejected(self):
        # every iteration writes the same cell: not DOALL-shaped anyway,
        # and the LHS must vary in at least one dimension
        assert plan_for(
            "param N\nreal A(N)\nreal B(N)\n"
            "do I = 1..N\n  S1: A(1) = B(I)\nenddo"
        ) is None

    def test_nonunit_step_rejected(self):
        p = parse_program(
            "param N\nreal A(N)\ndo I = 1..N\n  S1: A(I) = 1.0\nenddo"
        )
        loop = p.body[0]
        stepped = Loop.make(loop.var, 1, 7, list(loop.body), step=2)
        assert plan_vector_loop(
            stepped, frozenset({"N"}), {d.name: d for d in p.arrays}
        ) is None


class TestVectorizedExecution:
    @pytest.mark.parametrize("factory,params,expect_vec", [
        (cholesky, {"N": 10}, 2),
        (jacobi_1d, {"N": 12, "T": 5}, 2),
        (gauss_seidel_1d, {"N": 10, "T": 4}, 0),
    ], ids=["cholesky", "jacobi_1d", "gauss_seidel_1d"])
    def test_matches_reference_within_tolerance(self, factory, params, expect_vec):
        p = factory()
        low = lower_program(p, vectorize=True)
        assert low.vectorized_loops == expect_vec
        base = ArrayStore(p, dict(params)).snapshot()
        ref, _ = execute(p, params, arrays=base)
        vec = run(p, params, arrays=base, backend="source-vec")
        for k, a in ref.arrays.items():
            np.testing.assert_allclose(vec.arrays[k], a, rtol=1e-9, atol=1e-12)

    def test_negative_coefficient_subscript(self):
        # B(N - I) reads backwards: exercises the negative-stride slice
        src = (
            "param N\nreal A(N)\nreal B(0:N)\n"
            "do I = 1..N\n  S1: A(I) = B(N - I) + f(I)\nenddo"
        )
        p = parse_program(src)
        low = lower_program(p, vectorize=True)
        assert low.vectorized_loops == 1
        ref, _ = execute(p, {"N": 9})
        vec = run(p, {"N": 9}, backend="source-vec")
        np.testing.assert_allclose(vec.arrays["A"], ref.arrays["A"], rtol=1e-9)


class TestVsliceSemantics:
    @pytest.mark.parametrize("lo,hi,c,off", [
        (0, 5, 1, 0), (2, 7, 1, 3), (1, 4, 2, -1),
        (0, 5, -1, 5), (1, 6, -1, 6), (0, 3, -2, 6),
        (3, 2, 1, 0),  # empty range
    ])
    def test_matches_pointwise_indexing(self, lo, hi, c, off):
        arr = np.arange(40.0)
        want = [arr[c * v + off] for v in range(lo, hi + 1)]
        got = arr[_vslice(lo, hi, c, off)]
        assert got.tolist() == want

    def test_negative_stride_reaching_index_zero(self):
        # stop would be -1, which plain slicing reads as "before the
        # last element" — _vslice must map it to None
        arr = np.arange(6.0)
        got = arr[_vslice(0, 5, -1, 5)]
        assert got.tolist() == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]


class TestFviewSemantics:
    @pytest.mark.parametrize("lo,hi,cs,offs", [
        (0, 4, (1, 1), (0, 0)),        # main diagonal
        (1, 5, (-1, 1), (6, 0)),       # anti-diagonal, negative row step
        (2, 2, (1, -1), (0, 5)),       # a single cell
        (0, 2, (2, 1), (0, 1)),        # row stride 2
        (0, 5, (-1, -1), (5, 5)),      # reversed, ends at flat index 0
    ])
    def test_matches_pointwise_indexing(self, lo, hi, cs, offs):
        arr = np.arange(42.0).reshape(6, 7)
        want = [arr[cs[0] * v + offs[0], cs[1] * v + offs[1]]
                for v in range(lo, hi + 1)]
        assert _fview(arr, lo, hi, cs, offs).tolist() == want

    def test_view_writes_through(self):
        arr = np.zeros((4, 4))
        _fview(arr, 0, 3, (1, 1), (0, 0))[:] = 1.0
        assert np.array_equal(arr, np.eye(4))

    @pytest.mark.parametrize("lo,hi,cs,offs", [
        (0, 4, (1, 1), (0, 0)),        # row 4 of a 4-row array
        (0, 3, (1, 1), (-1, 0)),       # row -1: would wrap to the end
        (0, 3, (1, 2), (0, 0)),        # column 6 of 4: would wrap a row
        (0, 3, (1, 1), (0, 4)),        # an invariant offset out of range
    ])
    def test_out_of_extent_raises(self, lo, hi, cs, offs):
        with pytest.raises(IndexError):
            _fview(np.zeros((4, 4)), lo, hi, cs, offs)


class TestVectorErrors:
    """Vectorized statements fail with the reference's typed error."""

    def test_flat_view_past_a_row_raises(self):
        # A(I, I + 1) leaves the last column at I = N, where a flat view
        # would silently wrap into the next row
        p = parse_program(
            "param N\nreal A(N, N)\n"
            "do I = 1..N\n  S1: A(I, I + 1) = 1.0\nenddo"
        )
        assert lower_program(p, vectorize=True).vectorized_loops == 1
        for backend in ("reference", "source-vec"):
            with pytest.raises(InterpError):
                run(p, {"N": 4}, backend=backend)

    def test_slice_length_mismatch_raises(self):
        # A(I) = B(I) for I up to N + 2: both slices truncate, to
        # different lengths, and NumPy's broadcast ValueError must not
        # leak out raw
        p = parse_program(
            "param N\nreal A(1:N)\nreal B(1:N+5)\n"
            "do I = 1..N+2\n  S1: A(I) = B(I)\nenddo"
        )
        assert lower_program(p, vectorize=True).vectorized_loops == 1
        for backend in ("reference", "source", "source-vec"):
            with pytest.raises(InterpError):
                run(p, {"N": 4}, backend=backend)
