"""Lower loop-nest IR to executable Python/NumPy source.

:func:`lower_program` walks a :class:`~repro.ir.ast.Program` (source or
generated) and emits one Python function per program::

    def _kernel(_arrays, _params, _scalars):
        _s = _scalars
        N = _params['N']
        _a_A = _arrays['A']
        for K in range(1, N + 1):
            _a_A[K - 1, K - 1] = _fn_sqrt(float(_a_A[K - 1, K - 1]))
            ...

The text is ``compile()``d and ``exec``'d once, replacing the reference
interpreter's per-instance AST dispatch with native bytecode; the
function then runs against the same :class:`~repro.interp.ArrayStore`
arrays, so all existing equivalence oracles apply unchanged.

Lowering rules (see docs/BACKENDS.md for the full catalogue):

* loop bounds — ``max``/``min`` over ceil/floor-divided affine terms
  render as integer arithmetic: ``ceild(e, d)`` is ``-((-e) // d)`` and
  ``floord(e, d)`` is ``e // d``, bit-identical to
  :meth:`repro.polyhedra.bounds.Bound.eval`;
* guards — affine :class:`Constraint` conditions render as integer
  comparisons; :class:`ExprCondition` lattice conditions render through
  ``_exact_div`` (exact integer division that raises on a remainder),
  preserving the reference's left-to-right short-circuit order;
* subscripts — affine subscripts over in-scope variables become integer
  index arithmetic (shifted by the declared lower bound); anything else
  falls back to evaluating the float expression and rounding through
  ``_round_index``, which enforces the reference's 1e-9 tolerance;
* values — array reads are wrapped in ``float()`` so arithmetic happens
  on Python floats (IEEE-754 doubles, identical to the reference and
  ~3x faster than NumPy scalar ops);
* innermost DOALL loops whose statement passes
  :func:`repro.backend.vectorize.plan_vector_loop` become a single NumPy
  slice assignment (``vectorize=True`` only).  A reference varying with
  the loop variable in one dimension renders as a per-dimension
  ``_vslice``; one varying in several (``A(I-J, J)`` after a skew) as a
  flat strided view (``_fview``) of the C-ordered array.

The scalar path is *exact*: it produces bit-identical floats to the
reference executor.  Subscript ranges are checked only where that is
cheap: scalar indexing raises ``IndexError`` past the end, and flat
views check both endpoints of every dimension (both end in
``InterpError`` through :func:`repro.backend.runtime.run_lowered`).
NumPy wraps a negative scalar index, though, and a per-dimension
``_vslice`` running past the end is silently *truncated*: a scalar RHS
then broadcasts into the shorter slice and the write "succeeds" (slices
of different lengths raise NumPy's ``ValueError``, also mapped to
``InterpError``).  A check per slice costs more than a small slice
statement; that is the documented speed/checking trade-off.
"""

from __future__ import annotations

import keyword
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.backend.vectorize import (
    VEC_FUNCTIONS, VecPlan, doall_loop_vars, plan_vector_loop,
)
from repro.ir.ast import (
    ArrayDecl, BoundSet, ExprCondition, Guard, HullBound, Loop, Node, Program,
    Statement,
)
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit, UnaryOp,
    VarRef, as_affine,
)
from repro.obs import counter, span
from repro.polyhedra.affine import LinExpr
from repro.polyhedra.bounds import Bound
from repro.util.errors import BackendError, InterpError, IRError

__all__ = ["LoweredProgram", "lower_program"]


# -- runtime helpers available to emitted code --------------------------------

def _round_index(v) -> int:
    """Round a float subscript to an int, with the reference tolerance."""
    iv = int(round(v))
    if abs(v - iv) > 1e-9:
        raise InterpError(f"non-integer subscript value {v}")
    return iv


def _exact_div(a: int, b: int) -> int:
    """Exact integer division for lattice guard conditions."""
    q, r = divmod(a, b)
    if r:
        raise IRError(f"inexact division {a}/{b} in condition")
    return q


def _vslice(lo: int, hi: int, c: int, off: int) -> slice:
    """The slice selecting ``c*v + off`` for ``v`` in ``lo..hi``.

    For a negative stride the exclusive stop may land at ``-1``, which
    NumPy would read as "one before the end" — map it to ``None``.
    """
    if c > 0:
        return slice(c * lo + off, c * hi + off + 1, c)
    stop = c * hi + off - 1
    return slice(c * lo + off, stop if stop >= 0 else None, c)


def _fview(a, lo: int, hi: int, cs: tuple[int, ...], offs: tuple[int, ...]):
    """The 1-D view selecting the cells ``(cs[k]*v + offs[k])_k`` of the
    C-ordered array ``a`` for ``v`` in ``lo..hi`` (``lo <= hi``).

    Those cells are an arithmetic progression of flat indices; see
    docs/BACKENDS.md for why a slice assignment through it equals the
    sequential loop.  Both
    endpoints of every dimension are checked against its extent —
    subscripts are affine in ``v``, so that covers every cell — because
    past an extent the flat index would silently wrap into the next row.
    """
    if not a.flags.c_contiguous:
        raise InterpError("flat strided view requires a C-contiguous array")
    # Horner over the extents: flat index of the v = lo cell, and the
    # flat step per unit of v.
    start = step = 0
    for c, o, n in zip(cs, offs, a.shape):
        first = c * lo + o
        last = c * hi + o
        if first < 0 or last < 0 or first >= n or last >= n:
            raise IndexError(f"subscript leaves 0..{n - 1} for v in {lo}..{hi}")
        start = start * n + first
        step = step * n + c
    # In range, distinct v select distinct cells, so step == 0 only
    # when lo == hi; any nonzero step then selects the one cell.
    step = step or 1
    stop = start + step * (hi - lo) + (1 if step > 0 else -1)
    return a.reshape(-1)[start : (stop if stop >= 0 else None) : step]


_EXEC_GLOBALS: dict[str, object] = {
    "_np": np,
    "_round_index": _round_index,
    "_exact_div": _exact_div,
    "_vslice": _vslice,
    "_fview": _fview,
}
for _name, _fn in BUILTIN_FUNCTIONS.items():
    _EXEC_GLOBALS[f"_fn_{_name}"] = _fn
for _name, _fn in VEC_FUNCTIONS.items():
    _EXEC_GLOBALS[f"_vf_{_name}"] = _fn


# -- lowering context ---------------------------------------------------------

@dataclass
class _Ctx:
    """Names in scope and the vectorization state while emitting."""

    scope: frozenset[str]
    arrays: dict[str, ArrayDecl]
    plans: dict[int, VecPlan]
    vec: VecPlan | None = None

    def bind(self, var: str) -> "_Ctx":
        return _Ctx(self.scope | {var}, self.arrays, self.plans, self.vec)

    def vectorizing(self, plan: VecPlan) -> "_Ctx":
        return _Ctx(self.scope, self.arrays, self.plans, plan)


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1

    def line(self, s: str) -> None:
        self.lines.append("    " * self.depth + s)

    @contextmanager
    def indent(self):
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1


# -- expression rendering -----------------------------------------------------

def _render_lin(lin: LinExpr) -> str:
    """An affine form as an integer Python expression."""
    parts: list[str] = []
    for name, c in lin.terms():
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if lin.constant != 0 or not parts:
        parts.append(str(lin.constant))
    if len(parts) > 1:
        return "(" + " + ".join(parts) + ")"
    p = parts[0]
    return f"({p})" if p.startswith("-") else p


def _render_bound_term(t: Bound) -> str:
    e = _render_lin(t.expr)
    if t.div == 1:
        return e
    # ceil for lower bounds, floor for upper — Bound.eval verbatim.
    return f"(-((-{e}) // {t.div}))" if t.is_lower else f"({e} // {t.div})"


def _render_boundset(bs: BoundSet) -> str:
    terms = [_render_bound_term(t) for t in bs.terms]
    if len(terms) == 1:
        return terms[0]
    return ("max(" if bs.is_lower else "min(") + ", ".join(terms) + ")"


def _render_bound(b: BoundSet | HullBound) -> str:
    if isinstance(b, HullBound):
        groups = [_render_boundset(g) for g in b.groups]
        if len(groups) == 1:
            return groups[0]
        # hull of a union: loosest group wins.
        return ("min(" if b.is_lower else "max(") + ", ".join(groups) + ")"
    return _render_boundset(b)


def _render_int_tree(e: Expr, scope: frozenset[str]) -> str:
    """An array-free expression as exact integer arithmetic (guard
    conditions) — mirrors ``repro.ir.ast._eval_int_expr``."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        if e.name not in scope:
            raise BackendError(f"unbound variable {e.name!r} in condition")
        return e.name
    if isinstance(e, UnaryOp):
        return f"(-{_render_int_tree(e.operand, scope)})"
    if isinstance(e, BinOp):
        l = _render_int_tree(e.left, scope)
        r = _render_int_tree(e.right, scope)
        if e.op in ("+", "-", "*", "%"):
            return f"({l} {e.op} {r})"
        if e.op == "/":
            return f"_exact_div({l}, {r})"
    raise BackendError(f"cannot lower {e} as an integer condition")


def _render_index(sub: Expr, lo: LinExpr, ctx: _Ctx) -> str:
    """One subscript dimension, shifted to a 0-based offset."""
    try:
        lin = as_affine(sub)
    except IRError:
        lin = None
    if lin is not None and lin.variables() <= ctx.scope:
        return _render_lin(lin - lo)
    # Non-affine (or scalar-dependent) subscript: evaluate as a float and
    # round with the reference tolerance.
    return f"(_round_index({_render_value(sub, ctx)}) - {_render_lin(lo)})"


def _render_array_ref(ref: ArrayRef, ctx: _Ctx, *, target: bool = False) -> tuple[str, bool]:
    """Render a reference; returns ``(code, is_vector)``.

    ``target`` marks the LHS of an assignment: a flat view is then
    assigned through ``[:]`` rather than rebound.
    """
    decl = ctx.arrays.get(ref.array)
    if decl is None:
        raise BackendError(f"undeclared array {ref.array!r}")
    if len(ref.subscripts) != decl.rank:
        raise BackendError(
            f"{ref.array} has rank {decl.rank}, got {len(ref.subscripts)} subscripts"
        )
    vec = ctx.vec
    if vec is None:
        dims = [_render_index(sub, lo, ctx) for sub, (lo, _hi) in zip(ref.subscripts, decl.dims)]
        return f"_a_{ref.array}[{', '.join(dims)}]", False
    # plan_vector_loop guaranteed affine subscripts: dimension k is
    # c*v + rest, a plain index where c == 0.
    v = vec.var
    parts = []
    for sub, (lo, _hi) in zip(ref.subscripts, decl.dims):
        lin = as_affine(sub)
        c = lin[v]
        parts.append((c, _render_lin(lin + LinExpr({v: -c}) - lo)))
    varying = sum(1 for c, _ in parts if c != 0)
    if varying > 1:
        # Several varying dimensions (so rank >= 2): a flat view.
        code = (
            f"_fview(_a_{ref.array}, _l_{v}, _h_{v}, "
            f"({', '.join(str(c) for c, _ in parts)}), "
            f"({', '.join(rest for _, rest in parts)}))"
        )
        return (code + "[:]" if target else code), True
    dims = [
        f"_vslice(_l_{v}, _h_{v}, {c}, {rest})" if c else rest
        for c, rest in parts
    ]
    return f"_a_{ref.array}[{', '.join(dims)}]", varying == 1


def _render_value(e: Expr, ctx: _Ctx) -> str:
    if isinstance(e, IntLit):
        return repr(float(e.value))
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, VarRef):
        if ctx.vec is not None and e.name == ctx.vec.var:
            return f"_vv_{e.name}"
        if e.name in ctx.scope:
            return e.name
        # Scalar defined by an earlier statement; KeyError at run time maps
        # to the reference's "unbound variable" InterpError.
        return f"_s[{e.name!r}]"
    if isinstance(e, ArrayRef):
        code, is_vector = _render_array_ref(e, ctx)
        # float() keeps scalar arithmetic on Python floats (exact vs the
        # reference, and much faster than np.float64 scalars).
        return code if is_vector else f"float({code})"
    if isinstance(e, UnaryOp):
        return f"(-{_render_value(e.operand, ctx)})"
    if isinstance(e, BinOp):
        return f"({_render_value(e.left, ctx)} {e.op} {_render_value(e.right, ctx)})"
    if isinstance(e, Call):
        prefix = "_vf_" if ctx.vec is not None else "_fn_"
        args = ", ".join(_render_value(a, ctx) for a in e.args)
        return f"{prefix}{e.func}({args})"
    raise BackendError(f"cannot lower expression {e!r}")


# -- node emission ------------------------------------------------------------

def _emit_statement(st: Statement, ctx: _Ctx, em: _Emitter) -> None:
    rhs = _render_value(st.rhs, ctx)
    if isinstance(st.lhs, ArrayRef):
        lhs, _ = _render_array_ref(st.lhs, ctx)
        em.line(f"{lhs} = {rhs}")
    else:
        em.line(f"_s[{st.lhs.name!r}] = {rhs}")


def _emit_guard(g: Guard, ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    conds: list[str] = []
    for c in g.conditions:
        if isinstance(c, ExprCondition):
            rendered = _render_int_tree(c.expr, ctx.scope)
            conds.append(f"{rendered} {'==' if c.is_equality() else '>='} 0")
        else:
            conds.append(f"{_render_lin(c.expr)} {c.kind} 0")
    if not conds:  # vacuously true
        _emit_block(g.body, ctx, em, stats)
        return
    em.line("if " + " and ".join(conds) + ":")
    with em.indent():
        _emit_block(g.body, ctx, em, stats)


def _emit_loop(loop: Loop, ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    lo = _render_bound(loop.lower)
    hi = _render_bound(loop.upper)
    plan = ctx.plans.get(id(loop))
    if plan is not None:
        stats["vectorized"] += 1
        v = loop.var
        em.line(f"_l_{v} = {lo}")
        em.line(f"_h_{v} = {hi}")
        em.line(f"if _l_{v} <= _h_{v}:")
        with em.indent():
            vctx = ctx.bind(v).vectorizing(plan)
            if plan.needs_iota:
                em.line(f"_vv_{v} = _np.arange(_l_{v}, _h_{v} + 1, dtype=float)")
            st = loop.body[0]
            assert isinstance(st, Statement)
            lhs, is_vector = _render_array_ref(st.lhs, vctx, target=True)
            assert is_vector
            em.line(f"{lhs} = {_render_value(st.rhs, vctx)}")
        return
    if loop.step == 1:
        rng = f"range({lo}, {hi} + 1)"
    elif loop.step > 0:
        rng = f"range({lo}, {hi} + 1, {loop.step})"
    else:
        rng = f"range({lo}, {hi} - 1, {loop.step})"
    em.line(f"for {loop.var} in {rng}:")
    with em.indent():
        _emit_block(loop.body, ctx.bind(loop.var), em, stats)


def _emit_block(nodes: tuple[Node, ...], ctx: _Ctx, em: _Emitter, stats: dict) -> None:
    if not nodes:
        em.line("pass")
        return
    for node in nodes:
        if isinstance(node, Statement):
            _emit_statement(node, ctx, em)
        elif isinstance(node, Loop):
            _emit_loop(node, ctx, em, stats)
        elif isinstance(node, Guard):
            _emit_guard(node, ctx, em, stats)
        else:
            raise BackendError(f"cannot lower node of type {type(node).__name__}")


# -- driver -------------------------------------------------------------------

@dataclass
class LoweredProgram:
    """A program lowered to compiled Python source.

    ``vectorized_loops`` counts loops emitted as slice assignments;
    ``fallback_loops`` counts innermost DOALL loops that had to stay
    scalar (non-affine subscript, multi-statement body, scalar reads...).
    """

    program: Program
    source: str
    vectorize: bool
    vectorized_loops: int
    fallback_loops: int
    fn: Callable = field(repr=False)


#: Names the emitted module binds bare (everything else we emit is
#: ``_``-prefixed, and ``_``-prefixed user identifiers are rejected).
_RESERVED = frozenset({"range", "float", "max", "min"})


def _check_identifiers(program: Program) -> None:
    names = {f"parameter {p!r}": p for p in program.params}
    for decl in program.arrays:
        names[f"array {decl.name!r}"] = decl.name
    for loop in program.all_loops():
        names[f"loop variable {loop.var}"] = loop.var
    for what, n in names.items():
        if n.startswith("_") or n in _RESERVED or keyword.iskeyword(n) or not n.isidentifier():
            raise BackendError(f"cannot lower {what}: reserved or invalid as a Python name")


def _collect_plans(
    program: Program, doall: frozenset[str], stats: dict
) -> dict[int, VecPlan]:
    """Map id(loop) -> plan for every vectorizable innermost DOALL loop."""
    arrays = {d.name: d for d in program.arrays}
    plans: dict[int, VecPlan] = {}

    def walk(node: Node, scope: frozenset[str]):
        if isinstance(node, Loop):
            inner = scope | {node.var}
            has_subloop = any(isinstance(c, (Loop, Guard)) for c in node.body)
            if node.var in doall and not has_subloop:
                plan = plan_vector_loop(node, scope, arrays)
                if plan is not None:
                    plans[id(node)] = plan
                else:
                    stats["fallback"] += 1
            for c in node.body:
                walk(c, inner)
        elif isinstance(node, Guard):
            for c in node.body:
                walk(c, scope)

    base = frozenset(program.params)
    for n in program.body:
        walk(n, base)
    return plans


def lower_program(
    program: Program, *, vectorize: bool = False, deps=None
) -> LoweredProgram:
    """Lower ``program`` to a compiled Python function.

    With ``vectorize=True``, innermost DOALL loops (per this library's
    own dependence analysis — pass ``deps`` to reuse a precomputed
    matrix) are emitted as NumPy slice assignments when legal.
    """
    with span("backend.lower", program=program.name, vectorize=vectorize):
        _check_identifiers(program)
        stats = {"vectorized": 0, "fallback": 0}
        plans: dict[int, VecPlan] = {}
        if vectorize:
            doall = doall_loop_vars(program, deps)
            if doall:
                plans = _collect_plans(program, doall, stats)

        em = _Emitter()
        em.line("_s = _scalars")
        for p in program.params:
            em.line(f"{p} = _params[{p!r}]")
        for decl in program.arrays:
            em.line(f"_a_{decl.name} = _arrays[{decl.name!r}]")
        ctx = _Ctx(frozenset(program.params),
                   {d.name: d for d in program.arrays}, plans)
        _emit_block(program.body, ctx, em, stats)

        header = f"# lowered from {program.name!r} (vectorize={vectorize})\n"
        src = header + "def _kernel(_arrays, _params, _scalars):\n" + "\n".join(em.lines) + "\n"
        code = compile(src, f"<repro-backend:{program.name}>", "exec")
        g = dict(_EXEC_GLOBALS)
        exec(code, g)

        counter("backend.lowerings")
        counter("backend.vectorized_loops", stats["vectorized"])
        counter("backend.scalar_fallbacks", stats["fallback"])
        return LoweredProgram(
            program=program,
            source=src,
            vectorize=vectorize,
            vectorized_loops=stats["vectorized"],
            fallback_loops=stats["fallback"],
            fn=g["_kernel"],
        )
