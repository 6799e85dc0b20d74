"""DOALL-driven vectorization planning for the source backend.

The lowering backend (:mod:`repro.backend.lower`) asks this module two
questions:

1. Which loop variables are DOALL?  :func:`doall_loop_vars` answers by
   running the library's own dependence analysis and
   :func:`repro.analysis.parallel.parallel_loops` on the *identity*
   transformation: a loop is DOALL exactly when no dependence is carried
   at its level.  Programs the instance-vector layout cannot describe
   (generated programs with guards, non-affine subscripts, ...) get the
   conservative answer "nothing is DOALL" — the backend then emits plain
   scalar loops, so vectorization is correct by construction.

2. Can *this* innermost DOALL loop be rewritten as one NumPy slice
   assignment?  :func:`plan_vector_loop` performs the purely syntactic
   legality checks (single statement, affine subscripts, an LHS that
   varies with the loop, no scalar variables, only elementwise
   intrinsics).  The semantic half — that a
   slice assignment, which reads *all* of its inputs before writing, is
   observationally equal to the sequential loop — is exactly the DOALL
   property: by Theorem 2's characterization, no iteration of the loop
   reads or overwrites a cell another iteration writes, so read-all-
   then-write-all commutes with the original iteration order.  See
   docs/BACKENDS.md for the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ir.ast import ArrayDecl, Loop, Program, Statement
from repro.ir.expr import ArrayRef, BinOp, Call, Expr, UnaryOp, VarRef, as_affine
from repro.obs import counter, event
from repro.util.errors import IRError, ReproError

__all__ = ["VecPlan", "doall_loop_vars", "plan_vector_loop", "VEC_FUNCTIONS"]


def _vmin(*args):
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _vmax(*args):
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


def _f(*args):
    return sum((i + 1) * 0.61803398875 * a for i, a in enumerate(args)) + 1.0


def _g(*args):
    return sum((i + 2) * 0.41421356237 * a for i, a in enumerate(args)) + 2.0


#: Elementwise equivalents of :data:`repro.ir.expr.BUILTIN_FUNCTIONS`.
#: ``f``/``g`` are pure affine combinations of their arguments, so the
#: scalar definitions vectorize verbatim; they are restated here (rather
#: than reused) only to avoid the ``float()`` wrapper, which would
#: collapse an array argument.  A statement calling a function *not* in
#: this table is never vectorized.
VEC_FUNCTIONS = {
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": _vmin,
    "max": _vmax,
    "mod": np.mod,
    "f": _f,
    "g": _g,
}


def doall_loop_vars(program: Program, deps=None) -> frozenset[str]:
    """Loop variables that carry no dependence (DOALL under identity).

    Returns the empty set — i.e. "vectorize nothing" — whenever the
    analysis itself cannot handle the program (guards, non-affine
    subscripts, scalar statements...).  Falling back to scalar emission
    is always correct, so analysis failure is never an error here.
    """
    # Imports are local to keep `repro.backend` importable from
    # `repro.analysis.search` without a package cycle.
    from repro.analysis.parallel import parallel_loops
    from repro.dependence import analyze_dependences
    from repro.instance import Layout
    from repro.linalg import IntMatrix

    try:
        layout = Layout(program)
        if deps is None:
            deps = analyze_dependences(program, layout=layout)
        marks = parallel_loops(layout, IntMatrix.identity(layout.dimension), deps)
    except ReproError as exc:
        counter("backend.doall_analysis_failures")
        event(
            "vectorize", "reject",
            "dependence analysis cannot describe this program; "
            "every loop stays scalar",
            program=program.name, detail=str(exc),
        )
        return frozenset()
    for m in marks:
        if m.is_parallel:
            event("vectorize", "accept", "loop is DOALL (no carried dependence)",
                  loop=m.var)
        else:
            event("vectorize", "reject",
                  f"loop carries dependence(s): {', '.join(m.carried)}",
                  loop=m.var)
    return frozenset(m.var for m in marks if m.is_parallel)


@dataclass(frozen=True)
class VecPlan:
    """A vectorizable innermost loop: rewrite as one slice assignment.

    ``needs_iota`` records whether the loop variable appears in a value
    position of the RHS (not just inside subscripts), in which case the
    emitted code materializes ``arange(lo, hi+1)`` for it.
    """

    var: str
    needs_iota: bool


def plan_vector_loop(
    loop: Loop,
    scope: frozenset[str] | set[str],
    arrays: dict[str, ArrayDecl],
) -> VecPlan | None:
    """Decide whether ``loop`` (already known to be DOALL) can be emitted
    as a NumPy slice assignment.  ``scope`` is the set of integer names
    bound outside the loop (params + outer loop variables).

    Returns ``None`` — meaning "emit the scalar loop" — unless every
    syntactic condition holds:

    * unit step, body = exactly one :class:`Statement`, array LHS;
    * every subscript of every array reference is affine over
      ``scope ∪ {loop.var}``;
    * the LHS varies with the loop variable in at least one dimension
      (so each iteration writes a distinct cell).  A reference varying
      in one dimension renders as a per-dimension strided slice, one
      varying in several (the diagonals skewing produces, ``A(I-J,J)``)
      as a flat strided view of the C-ordered array;
    * value-position variables are all in scope (no scalar reads — the
      dependence analysis that produced the DOALL verdict does not track
      scalars);
    * every intrinsic call has an elementwise equivalent in
      :data:`VEC_FUNCTIONS`.
    """
    v = loop.var

    def declined(reason: str, **attrs) -> None:
        event("vectorize", "reject", reason, loop=v, **attrs)

    if loop.step != 1:
        declined(f"non-unit step {loop.step}; slice assignment needs stride 1")
        return None
    if len(loop.body) != 1 or not isinstance(loop.body[0], Statement):
        declined("body is not a single statement")
        return None
    st = loop.body[0]
    if not isinstance(st.lhs, ArrayRef):
        declined("scalar LHS; dependence analysis does not track scalars",
                 access=str(st.lhs))
        return None
    allowed = frozenset(scope) | {v}

    def ref_block_reason(ref: ArrayRef, *, is_lhs: bool) -> str | None:
        decl = arrays.get(ref.array)
        if decl is None or len(ref.subscripts) != decl.rank:
            return "undeclared array or rank mismatch"
        vdims = 0
        for sub in ref.subscripts:
            try:
                lin = as_affine(sub)
            except IRError:
                return f"subscript {sub} is not affine"
            if not (lin.variables() <= allowed):
                return f"subscript {sub} uses variables bound inside the loop"
            if lin[v] != 0:
                vdims += 1
        if is_lhs and vdims == 0:
            return f"LHS does not vary with {v}; every iteration writes one cell"
        return None

    why = ref_block_reason(st.lhs, is_lhs=True)
    if why is not None:
        declined(why, access=str(st.lhs))
        return None
    for ref in st.rhs.array_refs():
        why = ref_block_reason(ref, is_lhs=False)
        if why is not None:
            declined(why, access=str(ref))
            return None
    vals = value_vars(st.rhs)
    if not (vals <= allowed):
        declined(
            f"scalar read(s) {', '.join(sorted(vals - allowed))} in value position",
        )
        return None
    for fn in _calls(st.rhs):
        if fn not in VEC_FUNCTIONS:
            declined(f"intrinsic {fn}() has no elementwise equivalent", call=fn)
            return None
    event("vectorize", "accept",
          "innermost DOALL loop rewritten as one NumPy slice assignment",
          loop=v, target=str(st.lhs))
    return VecPlan(v, needs_iota=(v in vals))


def value_vars(e: Expr) -> frozenset[str]:
    """Variables appearing in *value* position — i.e. contributing to the
    computed float, not merely selecting an array cell.  Subscripts are
    excluded; intrinsic arguments are values."""
    if isinstance(e, VarRef):
        return frozenset({e.name})
    if isinstance(e, ArrayRef):
        return frozenset()
    if isinstance(e, UnaryOp):
        return value_vars(e.operand)
    if isinstance(e, BinOp):
        return value_vars(e.left) | value_vars(e.right)
    if isinstance(e, Call):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= value_vars(a)
        return out
    return frozenset()


def _calls(e: Expr) -> set[str]:
    out: set[str] = set()

    def walk(x: Expr):
        if isinstance(x, Call):
            out.add(x.func)
            for a in x.args:
                walk(a)
        elif isinstance(x, BinOp):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, UnaryOp):
            walk(x.operand)
        elif isinstance(x, ArrayRef):
            for s in x.subscripts:
                walk(s)

    walk(e)
    return out
