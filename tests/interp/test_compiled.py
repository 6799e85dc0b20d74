"""The compiled ``source`` backend (lowered Python source): bit-identical
to the reference interpreter, and failing with the same typed errors.

Complements tests/backend/test_lower.py with the Cholesky loop-order
variants, lattice (divisibility) guards and initial-value checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import run
from repro.interp import ArrayStore, execute
from repro.ir import parse_program
from repro.kernels import (
    CHOLESKY_VARIANTS, blur_2d, cholesky, cholesky_variant, gemver_like,
    jacobi_1d, lu_factorization, random_program, simplified_cholesky,
)
from repro.util.errors import InterpError


def identical(p, params):
    base = ArrayStore(p, dict(params)).snapshot()
    ref, _ = execute(p, params, arrays=base)
    fast = run(p, params, arrays=base, backend="source")
    return all(
        np.array_equal(ref.arrays[k], fast.arrays[k]) for k in ref.arrays
    ) and ref.scalars == fast.scalars


class TestAgainstReference:
    @pytest.mark.parametrize(
        "factory,params",
        [
            (simplified_cholesky, {"N": 9}),
            (cholesky, {"N": 7}),
            (lu_factorization, {"N": 6}),
            (blur_2d, {"N": 7}),
            (gemver_like, {"N": 6}),
            (jacobi_1d, {"N": 8, "T": 4}),
        ],
    )
    def test_kernels_identical(self, factory, params):
        assert identical(factory(), params)

    @pytest.mark.parametrize("order", CHOLESKY_VARIANTS)
    def test_cholesky_variants_identical(self, order):
        assert identical(cholesky_variant(order), {"N": 8})

    def test_generated_code_with_guards(self):
        from repro.codegen import generate_code
        from repro.instance import Layout
        from repro.kernels import augmentation_example
        from repro.transform import skew

        aug = augmentation_example()
        lay = Layout(aug)
        g = generate_code(aug, skew(lay, "I", "J", -1).matrix)
        assert identical(g.program, {"N": 10})

    def test_divisibility_guards(self):
        from repro.codegen import generate_code
        from repro.instance import Layout
        from repro.transform import scaling

        p = parse_program(
            "param N\nreal A(0:N)\ndo I = 1..N\n S1: A(I) = A(I-1) + f(I)\nenddo"
        )
        lay = Layout(p)
        g = generate_code(p, scaling(lay, "I", 2).matrix)
        assert identical(g.program, {"N": 9})

    def test_scalars(self):
        p = parse_program(
            "param N\nreal A(N)\nacc = 0.0\ndo I = 1..N\n S2: acc = acc + A(I)\nenddo"
        )
        assert identical(p, {"N": 7})


class TestErrors:
    def test_out_of_range(self):
        # past the end; a negative 0-based index (A(0) here) wraps on
        # ``source`` — the documented checking trade-off in
        # repro.backend.lower
        p = parse_program("param N\nreal A(N)\nA(N + 1) = 1.0")
        with pytest.raises(InterpError, match="out of declared range"):
            run(p, {"N": 3}, backend="source")

    def test_unknown_initial_array(self):
        p = parse_program("param N\nreal A(N)\nA(1) = 1.0")
        with pytest.raises(InterpError, match="unknown array"):
            run(p, {"N": 3}, arrays={"Z": np.zeros(3)}, backend="source")

    def test_division_by_zero(self):
        p = parse_program("param N\nreal A(N)\nA(1) = 1.0 / (N - N)")
        with pytest.raises(InterpError):
            run(p, {"N": 3}, backend="source")


@given(st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_random_programs_identical(seed):
    assert identical(random_program(seed), {"N": 4})
