"""Dependence graphs and Allen–Kennedy maximal distribution."""

from repro.analysis import dependence_graph, distribution_plan, maximal_distribution
from repro.dependence import analyze_dependences
from repro.interp import ArrayStore, execute, outputs_close
from repro.ir import Loop, parse_program, program_to_str
from repro.kernels import jacobi_1d

PIPELINE = """
param N
real A(0:N+1), B(0:N+1), C(0:N+1)
do I = 1..N
  S1: A(I) = f(I)
  S2: B(I) = A(I) * 2
  S3: C(I) = B(I) + A(I)
enddo
"""


def equivalent(p, q, params):
    init = ArrayStore(p, params).snapshot()
    s0, _ = execute(p, params, arrays=init)
    s1, _ = execute(q, params, arrays=init)
    return outputs_close(s0.snapshot(), s1.snapshot())


class TestDependenceGraph:
    def test_pipeline_is_a_dag(self):
        p = parse_program(PIPELINE)
        g = dependence_graph(analyze_dependences(p), at_loop=(0,))
        assert set(g.nodes) == {"S1", "S2", "S3"}
        # acyclic: every SCC a single statement, no self-loop
        assert all(len(c) == 1 for c in g.sccs())
        assert not any(u == v for u, v in g.edges)
        assert g.has_edge("S1", "S2") and g.has_edge("S2", "S3")

    def test_cholesky_is_one_scc(self, simp_chol):
        g = dependence_graph(analyze_dependences(simp_chol), at_loop=(0,))
        assert any({"S1", "S2"} <= set(c) for c in g.sccs())

    def test_outer_carried_edges_dropped(self):
        # S2->S1 back edge carried by T: invisible at the inner loop
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do T = 1..N\n"
            "  do I = 1..N\n"
            "    S1: A(I) = B(I) + f(T)\n"
            "    S2: B(I) = A(I) * 2\n"
            "  enddo\n"
            "enddo"
        )
        deps = analyze_dependences(p)
        g_inner = dependence_graph(deps, at_loop=(0, 0))
        assert not g_inner.has_edge("S2", "S1")
        g_outer = dependence_graph(deps, at_loop=(0,))
        assert g_outer.has_edge("S2", "S1")

    def test_full_graph_has_all_statements(self, chol):
        g = dependence_graph(analyze_dependences(chol))
        assert set(g.nodes) == {"S1", "S2", "S3"}


class TestDistributionPlan:
    def test_pipeline_fully_splittable(self):
        p = parse_program(PIPELINE)
        plan = distribution_plan(p)
        assert plan[(0,)] == [[0], [1], [2]]

    def test_cholesky_unsplittable(self, chol):
        plan = distribution_plan(chol)
        assert plan[(0,)] == [[0, 1, 2]]

    def test_lu_unsplittable(self, lu):
        plan = distribution_plan(lu)
        assert len(plan[(0,)]) == 1

    def test_jacobi_time_loop_unsplittable(self):
        p = jacobi_1d()
        plan = distribution_plan(p)
        assert len(plan[(0,)]) == 1  # B feeds back into A across sweeps


class TestMaximalDistribution:
    def test_factorizations_unchanged(self, simp_chol, chol, lu):
        for p in (simp_chol, chol, lu):
            out = maximal_distribution(p)
            assert program_to_str(out, header=False) == program_to_str(p, header=False)

    def test_pipeline_fully_distributed(self):
        p = parse_program(PIPELINE)
        out = maximal_distribution(p)
        assert len(out.body) == 3
        assert all(isinstance(n, Loop) and len(n.body) == 1 for n in out.body)
        assert equivalent(p, out, {"N": 6})

    def test_mixed_recurrence_splits(self):
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do I = 1..N\n"
            "  S1: A(I) = A(I-1) + f(I)\n"
            "  S2: B(I) = A(I) * 2\n"
            "enddo"
        )
        out = maximal_distribution(p)
        assert len(out.body) == 2
        assert equivalent(p, out, {"N": 6})

    def test_nested_distribution(self):
        p = parse_program(
            "param N\nreal A(0:N+1,0:N+1), B(0:N+1,0:N+1)\n"
            "do T = 1..3\n"
            "  do I = 1..N\n"
            "    S1: A(T,I) = f(T,I)\n"
            "    S2: B(T,I) = A(T,I) + 1\n"
            "  enddo\n"
            "enddo"
        )
        out = maximal_distribution(p)
        # both levels split: the outer T loop has independent bodies too
        assert equivalent(p, out, {"N": 5})
        total_loops = len(out.all_loops())
        assert total_loops > len(p.all_loops())

    def test_interleaved_scc_blocked(self):
        # S1 -> S2 -> S1 cycle at the loop level: no split
        p = parse_program(
            "param N\nreal A(0:N+1), B(0:N+1)\n"
            "do I = 1..N\n"
            "  S1: A(I) = B(I-1) + 1\n"
            "  S2: B(I) = A(I) * 2\n"
            "enddo"
        )
        out = maximal_distribution(p)
        assert program_to_str(out, header=False) == program_to_str(p, header=False)


class TestComponents:
    def test_cycle_collapses_and_orders_by_source(self):
        from repro.analysis.graph import _ordered_components

        # 2 <-> 3 form one group; 0 feeds it, 1 and 4 are independent
        succ = {0: {2}, 1: set(), 2: {3}, 3: {2}, 4: set()}
        assert _ordered_components(range(5), succ) == [[0], [1], [2, 3], [4]]

    def test_dependence_on_later_child_reorders(self):
        from repro.analysis.graph import _ordered_components

        assert _ordered_components(range(3), {0: set(), 1: {0}, 2: set()}) == [
            [1], [0], [2]
        ]

    def test_long_chain_is_iterative(self):
        from repro.analysis.graph import _sccs

        n = 5000  # far past the default recursion limit
        succ = {i: [i + 1] for i in range(n - 1)}
        succ[n - 1] = [0]
        assert [sorted(c) for c in _sccs(range(n), succ)] == [list(range(n))]
