"""Seeded input generation.  Every input reaches the package as
``.loop`` text, rendered here before any timing starts."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import kernels
from repro.instance import Layout
from repro.ir import program_to_str
from repro.transform.spec import parse_spec
from repro.util.errors import ReproError

#: Zoo kernels by factory name.  The whole bundled corpus except the
#: generator and the parameterised Cholesky family (whose six orders
#: are the ``cholesky`` rows' permutations).
ZOO = tuple(
    n for n in kernels.__all__
    if n not in ("random_program", "cholesky_variant", "CHOLESKY_VARIANTS")
)

#: Schedules whose outcome the paper's machinery decides in a telling
#: way: Theorem-2-illegal specs the symbolic oracle certifies (syrk,
#: trsv) or refutes (cholesky, fdtd_1d), including the two cholesky
#: permutations whose refutation takes tens of seconds, structural
#: prefixes, and the tuned schedules the other workloads execute.
NAMED_SPECS = (
    ("syrk", "reverse(K)"),
    ("syrk", "tile(K,2); reverse(KT)"),
    ("trsv", "reverse(J)"),
    ("cholesky", "reverse(K)"),
    ("cholesky", "permute(K,J)"),
    ("cholesky", "permute(K,I)"),
    ("fdtd_1d", "permute(S,I)"),
    ("trmm", "permute(J,K); skew(J,I,-1)"),
    ("seidel_2d", "skew(J,I,1)"),
    ("jacobi_1d", "fuse(I)"),
    ("matmul", "tile(K,4); permute(I,K)"),
)

#: Malformed specs: the correct outcome of each is a typed ReproError.
MALFORMED_SPECS = (
    ("cholesky", "permute(K,Q)"),     # unknown loop variable
    ("trmm", "permute(I,J"),          # unparsable
    ("lu", "tile(K,x)"),              # non-integer tile size
    ("syrk", "skew(I,J)"),            # wrong arity
)


@dataclass(frozen=True)
class CompileInput:
    """One compile op: program text, spec, and the small size at which
    an accepted schedule is checked against the reference interpreter."""

    family: str          # "zoo" | "named" | "malformed" | "random" | "random-wide"
    name: str
    text: str
    spec: str
    check_params: tuple[tuple[str, int], ...]
    expect_error: bool = False


def small_params(program, size: int = 6) -> tuple[tuple[str, int], ...]:
    """Check size: ``size`` for every parameter, fewer time steps."""
    return tuple((p, 3 if p == "T" else size) for p in program.params)


def _loop_vars(program) -> list[str]:
    seen: list[str] = []
    for loop in program.all_loops():
        if loop.var not in seen:
            seen.append(loop.var)
    return seen


def generic_specs(program) -> list[str]:
    """A loop reorder and a skew over the kernel's first two loops with
    unique names (a spec cannot name an ambiguous loop variable, so a
    kernel whose loops all share one name, like ``sweep_pair``, gets
    none)."""
    names = [loop.var for loop in program.all_loops()]
    vs = [v for v in _loop_vars(program) if names.count(v) == 1]
    if len(vs) < 2:
        return [f"reverse({v})" for v in vs]
    a, b = vs[0], vs[1]
    return [f"permute({a},{b})", f"skew({b},{a},1)"]


def _valid(program, spec: str) -> bool:
    try:
        parse_spec(Layout(program), spec)
    except ReproError:
        return False
    return True


def random_spec(rng: random.Random, program) -> str:
    """A seeded linear schedule over the nest's own loop variables,
    re-drawn until it parses against the nest's layout."""
    vs = _loop_vars(program)
    for _ in range(32):
        kind = rng.choice(("permute", "permute", "reverse", "skew", "skew"))
        if kind == "reverse" or len(vs) < 2:
            spec = f"reverse({rng.choice(vs)})"
        else:
            a, b = rng.sample(vs, 2)
            spec = (f"permute({a},{b})" if kind == "permute"
                    else f"skew({a},{b},{rng.choice((-1, 1, 2))})")
        if _valid(program, spec):
            return spec
    return f"reverse({vs[0]})"


#: Random nests per compile run: small ones (two children per loop)
#: carry the median, wide ones (three) the heavy tail.  The nests come
#: from fixed generator seeds, so every workload seed compiles the same
#: corpus; the workload seed draws each nest's schedule and the op order.
RANDOM_SMALL = 120
RANDOM_WIDE = 8
CORPUS_SEED = 1000


def compile_inputs(seed: int) -> list[CompileInput]:
    rng = random.Random(seed)
    out: list[CompileInput] = []
    for name in ZOO:
        p = getattr(kernels, name)()
        text = program_to_str(p)
        for spec in generic_specs(p):
            if (name, spec) in NAMED_SPECS:
                continue
            out.append(CompileInput("zoo", name, text, spec, small_params(p)))
    for name, spec in NAMED_SPECS:
        p = getattr(kernels, name)()
        out.append(CompileInput("named", name, program_to_str(p), spec, small_params(p)))
    for name, spec in MALFORMED_SPECS:
        p = getattr(kernels, name)()
        out.append(CompileInput("malformed", name, program_to_str(p), spec,
                                small_params(p), expect_error=True))
    for family, count, children, base in (
        ("random", RANDOM_SMALL, 2, CORPUS_SEED),
        ("random-wide", RANDOM_WIDE, 3, CORPUS_SEED + RANDOM_SMALL),
    ):
        for i in range(count):
            p = kernels.random_program(base + i, max_children=children)
            out.append(CompileInput(family, p.name, program_to_str(p),
                                    random_spec(rng, p), small_params(p, 5)))
    rng.shuffle(out)
    return out
