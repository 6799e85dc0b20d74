"""Statement-level dependence graphs and maximal loop distribution.

The paper's §1 observes that *some* imperfect nests can be converted to
perfect ones by loop distribution, and that factorization codes cannot.
This module makes that observation algorithmic in the classical
Allen–Kennedy style:

* :func:`dependence_graph` — statements as nodes, dependences as edges
  (:class:`DependenceGraph`), optionally restricted to the dependences *not*
  carried outside a given loop;
* :func:`maximal_distribution` — recursively split every multi-child
  loop around the strongly connected components of its level-restricted
  dependence graph, in topological order.  Factorization codes collapse
  into one SCC (no split — matching the paper); pipelines split fully.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dependence.analyze import analyze_dependences
from repro.dependence.depvector import DependenceMatrix
from repro.instance.layout import Layout, Path
from repro.ir.ast import Loop, Program
from repro.util.errors import TransformError

__all__ = [
    "DependenceGraph", "dependence_graph", "maximal_distribution",
    "distribution_plan",
]


@dataclass
class DependenceGraph:
    """Statement labels (source order) and the dependences between
    them, grouped per ``(src, dst)`` edge."""

    nodes: list[str]
    edges: dict[tuple[str, str], list] = field(default_factory=dict)

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges

    def sccs(self) -> list[list[str]]:
        """Strongly connected components, in reverse topological order."""
        succ: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            succ[u].append(v)
        return _sccs(self.nodes, succ)


def dependence_graph(
    deps: DependenceMatrix, *, at_loop: Path | None = None
) -> DependenceGraph:
    """Statement-level dependence graph.

    With ``at_loop``, only dependences relevant to distributing that
    loop are kept: both endpoints inside the loop, and the dependence
    not already carried by a loop *enclosing* it (those are satisfied
    regardless of how the body is split).
    """
    layout = deps.layout
    g = DependenceGraph([
        label for label in layout.statement_labels()
        if at_loop is None or _inside(layout, label, at_loop)
    ])
    outer_positions: list[int] = []
    if at_loop is not None:
        outer_positions = [
            layout.index(c)
            for c in layout.loop_coords()
            if len(c.path) < len(at_loop) and at_loop[: len(c.path)] == c.path
        ]
    for d in deps:
        if at_loop is not None:
            if not (_inside(layout, d.src, at_loop) and _inside(layout, d.dst, at_loop)):
                continue
            if _definitely_carried(d, outer_positions):
                continue
        g.edges.setdefault((d.src, d.dst), []).append(d)
    return g


def _sccs(nodes, succ) -> list[list]:
    """Tarjan's strongly connected components, in reverse topological
    order.  Iterative, so a long statement chain cannot hit Python's
    recursion limit."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list[list] = []

    def visit(v) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ[v])))

    for root in nodes:
        if root in index:
            continue
        work: list = []
        visit(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def _ordered_components(nodes: range, succ: dict[int, set[int]]) -> list[list[int]]:
    """The SCCs of a graph over integer nodes, each sorted, ordered
    topologically with ties broken by smallest member (Kahn's algorithm
    over the condensation with a min-heap), so independent groups keep
    source order."""
    comps = [sorted(c) for c in _sccs(nodes, succ)]
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    csucc: list[set[int]] = [set() for _ in comps]
    for u, vs in succ.items():
        for v in vs:
            if comp_of[u] != comp_of[v]:
                csucc[comp_of[u]].add(comp_of[v])
    indeg = [0] * len(comps)
    for out in csucc:
        for j in out:
            indeg[j] += 1
    ready = [(c[0], i) for i, c in enumerate(comps) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[list[int]] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(comps[i])
        for j in csucc[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (comps[j][0], j))
    if len(order) != len(comps):  # pragma: no cover - condensation is acyclic
        raise TransformError("cycle among distribution groups")
    return order


def _inside(layout: Layout, label: str, path: Path) -> bool:
    sp = layout.statement_path(label)
    return sp[: len(path)] == path and len(sp) > len(path)


def _definitely_carried(d, outer_positions: list[int]) -> bool:
    for i in outer_positions:
        e = d.entries[i]
        if e.definitely_positive():
            return True
        if not e.is_zero():
            return False
    return False


def distribution_plan(
    program: Program, deps: DependenceMatrix | None = None
) -> dict[Path, list[list[int]]]:
    """For every multi-child loop, the finest legal grouping of its
    children: SCCs of the level dependence graph, condensed and
    topologically ordered, mapped back to child indices.

    A grouping ``[[0], [1, 2]]`` means the loop can be distributed into
    a copy with child 0 followed by a copy with children 1 and 2.
    """
    layout = Layout(program)
    if deps is None:
        deps = analyze_dependences(program)

    plan: dict[Path, list[list[int]]] = {}
    for coord in layout.loop_coords():
        node = layout.node_at(coord.path)
        assert isinstance(node, Loop)
        if len(node.body) < 2:
            continue
        g = dependence_graph(deps, at_loop=coord.path)
        # collapse statements to the child of this loop they live under
        depth = len(coord.path)
        succ: dict[int, set[int]] = {c: set() for c in range(len(node.body))}
        for u, v in g.edges:
            cu = layout.statement_path(u)[depth]
            cv = layout.statement_path(v)[depth]
            if cu != cv:
                succ[cu].add(cv)
        plan[coord.path] = _ordered_components(range(len(node.body)), succ)
    return plan


def maximal_distribution(
    program: Program, deps: DependenceMatrix | None = None
) -> Program:
    """Distribute every loop as finely as the dependences allow
    (Allen–Kennedy), outermost first, re-analyzing after each change.

    Returns the (possibly unchanged) restructured program; factorization
    codes come back unchanged.
    """
    changed = True
    current = program
    guard = 0
    while changed:
        guard += 1
        if guard > 50:  # pragma: no cover - termination backstop
            raise TransformError("maximal_distribution did not converge")
        changed = False
        plan = distribution_plan(current)
        # apply the first (outermost, leftmost) real split, then restart
        for path in sorted(plan, key=lambda p: (len(p), p)):
            groups = plan[path]
            if len(groups) <= 1:
                continue
            # contiguity: distribute() splits at one point; apply the
            # first boundary of the group structure when the groups are
            # contiguous in source order
            flat = [c for grp in groups for c in grp]
            if flat != sorted(flat):
                # needs statement reordering first; skip (conservative)
                continue
            split = len(groups[0])
            from repro.transform.distribution import distribute

            current = distribute(current, path, split)
            changed = True
            break
    return current
