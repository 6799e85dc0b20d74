"""Benchmark regression gate: diff a fresh ``BENCH_result.json`` against
the committed baseline and fail on wall-clock regressions.

CI copies the committed ``BENCH_result.json`` aside before running the
benchmark suite (which overwrites it in place), then invokes::

    python benchmarks/compare.py baseline.json BENCH_result.json

Exit status is 1 when any comparable metric regressed by more than
``--factor`` (default 2x, deliberately loose: CI runners are noisy and
the gate exists to catch order-of-magnitude mistakes, not jitter).

Two metric families are compared:

* per-benchmark ``mean_s`` from pytest-benchmark, and
* ``pipeline.span_last_ns`` — the single-shot span timings of the
  canonical pipeline pass (parse -> deps -> legality -> completion ->
  codegen -> execute -> cache sim).

Metrics present on only one side are reported but never fail the gate
(benchmarks come and go across PRs).  Timings below ``--min-ns`` are
skipped: a 40us span doubling to 80us is scheduler noise, not a
regression.

A third, absolute gate reads the fresh result's ``backend`` table (the
E16 execution-backend comparison, see benchmarks/bench_backend.py):
every ``source``/``source-vec`` row must be output-equivalent to the
reference interpreter (``ok``) and at least as fast (speedup >= 1).
This one needs no baseline — a lowered kernel slower than the tree
walker it replaces is wrong on any machine.

A fourth gate reads the fresh ``tune`` table (the E17 autotuner
comparison, see benchmarks/bench_tune.py): the tuned schedule must
never be slower than the untuned default order.  The tuner always
measures the baseline alongside the survivors and returns the overall
minimum, so speedup >= 1 by construction; the gate allows 5% slack
(``TUNE_MIN_SPEEDUP``) purely for timer granularity and exists to
catch a driver that stopped ranking the baseline.

A fifth gate reads the fresh ``scaling`` table (the E18 tiling/fusion
scaling curves, see benchmarks/emit.py): at every measured N the tuned
winner must beat the *untuned default order* by at least
``SCALING_MIN_SPEEDUP`` (1.2x), and any row flagged ``require_tiled``
(the trmm N=1024 point of a full local run) must have a tiled winner.
The section is opt-in at collection time (``REPRO_BENCH_SCALING=1``),
so a result without it passes this gate vacuously.

A sixth gate reads the fresh ``wavefront`` table (the E19 wavefront
comparison, see benchmarks/bench_wavefront.py): on the skewed seidel
stencil at N=256 and 512, ``source-vec`` must beat the scalar
``source`` backend by at least ``WAVEFRONT_MIN_SPEEDUP`` (6x) with
bit-exact outputs.  Like the scaling section it is opt-in at
collection time (``REPRO_BENCH_WAVEFRONT=1`` or
``REPRO_BENCH_SCALING=1``), so a result without it passes vacuously.

A seventh gate reads the fresh ``service`` table (the E20
transformation-service comparison, see benchmarks/bench_service.py and
benchmarks/emit.py): every latency row must show the warm daemon path
serving at least ``SERVICE_MIN_SPEEDUP`` (5x) faster than a cold CLI
subprocess, and the concurrent-client throughput row must have
completed without request errors.  Opt-in at collection time
(``REPRO_BENCH_SERVICE=1``, the CI service-smoke job), so a result
without it passes vacuously.

An eighth gate reads the fresh ``symbolic`` table (the E21
fractal-oracle consultation zoo, see benchmarks/bench_symbolic.py and
benchmarks/emit.py): every consultation's verdict must match its
committed expectation (the certified rescues stay certified, the
cholesky recurrence stays a mismatch), and every emitted certificate
must re-verify.  Consultations are milliseconds, so the section is
collected unconditionally; its ``check_seconds`` feed the trend ledger.

A ninth, opt-in gate (``--trend BENCH_history.jsonl``) checks the fresh
run's backend/tune metrics against the *rolling median* of prior ledger
snapshots (see benchmarks/history.py): any metric more than 25% worse
than its trend fails.  Point-to-point factor gates miss slow drift — a
1.4x creep over five PRs never trips a 2x gate; the rolling median
catches it.  Because emitting a result appends its own row to the
ledger, the gate excludes a trailing row matching the fresh run before
computing the trend.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Comparison", "compare_results", "backend_gate", "backend_table",
    "tune_gate", "tune_table", "scaling_gate", "scaling_table",
    "wavefront_gate", "wavefront_table", "service_gate", "service_table",
    "symbolic_gate", "symbolic_table", "trend_gate", "main",
]

DEFAULT_FACTOR = 2.0
DEFAULT_MIN_NS = 1_000_000  # ignore sub-millisecond timings entirely
TUNE_MIN_SPEEDUP = 0.95  # tuned-vs-default floor; slack for timer noise only
SCALING_MIN_SPEEDUP = 1.2  # E18 floor: tuning must actually win, not tie
WAVEFRONT_MIN_SPEEDUP = 6.0  # E19 floor: source-vec over scalar source, skewed seidel
SERVICE_MIN_SPEEDUP = 5.0  # E20 floor: warm daemon vs cold CLI subprocess


@dataclass(frozen=True)
class Comparison:
    """One metric compared across baseline and fresh runs."""

    metric: str
    baseline_ns: float
    fresh_ns: float

    @property
    def ratio(self) -> float:
        return self.fresh_ns / self.baseline_ns if self.baseline_ns else float("inf")

    def regressed(self, factor: float, min_ns: float) -> bool:
        if max(self.baseline_ns, self.fresh_ns) < min_ns:
            return False
        return self.ratio > factor

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.baseline_ns / 1e6:.3f} ms -> "
            f"{self.fresh_ns / 1e6:.3f} ms ({self.ratio:.2f}x)"
        )


def _metrics(result: dict) -> dict[str, float]:
    """Flatten one BENCH_result payload into {metric: nanoseconds}."""
    out: dict[str, float] = {}
    for bench in result.get("benchmarks", []):
        name, mean_s = bench.get("name"), bench.get("mean_s")
        if name and isinstance(mean_s, (int, float)) and mean_s > 0:
            out[f"bench:{name}"] = mean_s * 1e9
    spans = result.get("pipeline", {}).get("span_last_ns", {})
    for name, ns in spans.items():
        if isinstance(ns, (int, float)) and ns > 0:
            out[f"pipeline:{name}"] = float(ns)
    return out


def compare_results(
    baseline: dict,
    fresh: dict,
    *,
    factor: float = DEFAULT_FACTOR,
    min_ns: float = DEFAULT_MIN_NS,
) -> tuple[list[Comparison], list[Comparison], list[str]]:
    """Return (regressions, compared, uncomparable-metric names)."""
    base, new = _metrics(baseline), _metrics(fresh)
    compared = [
        Comparison(metric, base[metric], new[metric])
        for metric in sorted(base.keys() & new.keys())
    ]
    regressions = [c for c in compared if c.regressed(factor, min_ns)]
    uncomparable = sorted(base.keys() ^ new.keys())
    return regressions, compared, uncomparable


def backend_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E16 backend table; returns failures."""
    failures = []
    for row in fresh.get("backend", []):
        name = f"{row.get('kernel')}/{row.get('backend')}"
        if row.get("backend") == "reference":
            # Baseline rows carry ok=true explicitly; anything else is
            # an error row the gate must not silently skip.
            if row.get("error"):
                failures.append(f"{name}: baseline error: {row['error']}")
            elif row.get("ok") is not True:
                failures.append(f"{name}: baseline row not marked ok")
            continue
        if row.get("backend") not in ("source", "source-vec"):
            continue
        if row.get("error"):
            failures.append(f"{name}: backend error: {row['error']}")
        elif row.get("ok") is not True:
            failures.append(f"{name}: outputs differ from reference")
        elif not (isinstance(row.get("speedup"), (int, float)) and row["speedup"] >= 1.0):
            failures.append(
                f"{name}: lowered code slower than the reference "
                f"interpreter ({row.get('speedup')}x)"
            )
    return failures


def backend_table(fresh: dict) -> str:
    """The E16 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("backend", [])
    if not rows:
        return ""
    lines = [
        "| kernel | backend | seconds | speedup | ok |",
        "|---|---|---:|---:|---|",
    ]
    for r in rows:
        secs = f"{r['seconds']:.6f}" if isinstance(r.get("seconds"), (int, float)) else "-"
        speed = f"{r['speedup']:.2f}x" if isinstance(r.get("speedup"), (int, float)) else "-"
        ok = {True: "yes", False: "NO", None: "-"}[r.get("ok")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('backend')} | {secs} | {speed} | {ok} |"
        )
    return "\n".join(lines)


def tune_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E17 autotuner table; returns failures."""
    failures = []
    for row in fresh.get("tune", []):
        name = f"{row.get('kernel')}@{row.get('params')}"
        if row.get("error"):
            failures.append(f"{name}: tuner error: {row['error']}")
        elif row.get("ok") is not True:
            failures.append(f"{name}: tuning run had failed rows")
        elif not (
            isinstance(row.get("speedup"), (int, float))
            and row["speedup"] >= TUNE_MIN_SPEEDUP
        ):
            failures.append(
                f"{name}: tuned schedule slower than the untuned default "
                f"order ({row.get('speedup')}x, floor {TUNE_MIN_SPEEDUP})"
            )
    return failures


def tune_table(fresh: dict) -> str:
    """The E17 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("tune", [])
    if not rows:
        return ""
    lines = [
        "| kernel | winner | default s | tuned s | speedup | pruned | ok |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        base = f"{r['baseline_seconds']:.6f}" if isinstance(
            r.get("baseline_seconds"), (int, float)) else "-"
        best = f"{r['best_seconds']:.6f}" if isinstance(
            r.get("best_seconds"), (int, float)) else "-"
        speed = f"{r['speedup']:.3f}x" if isinstance(
            r.get("speedup"), (int, float)) else "-"
        ok = {True: "yes", False: "NO", None: "-"}[r.get("ok")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('winner') or '-'} | {base} "
            f"| {best} | {speed} | {r.get('pruned', '-')} | {ok} |"
        )
    return "\n".join(lines)


def scaling_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E18 scaling table; returns failures."""
    failures = []
    for row in fresh.get("scaling", []):
        name = f"{row.get('kernel')}@N={row.get('n')}"
        if row.get("error"):
            failures.append(f"{name}: scaling tune error: {row['error']}")
            continue
        if row.get("ok") is not True:
            failures.append(f"{name}: scaling tune run had failed rows")
        elif not (
            isinstance(row.get("speedup"), (int, float))
            and row["speedup"] >= SCALING_MIN_SPEEDUP
        ):
            failures.append(
                f"{name}: tuned winner only {row.get('speedup')}x vs the "
                f"untuned default order (floor {SCALING_MIN_SPEEDUP})"
            )
        if row.get("require_tiled") and row.get("winner_tiled") is not True:
            failures.append(
                f"{name}: winner {row.get('winner')!r} is not a tiled "
                "schedule (this point requires blocking to win)"
            )
    return failures


def scaling_table(fresh: dict) -> str:
    """The E18 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("scaling", [])
    if not rows:
        return ""
    lines = [
        "| kernel | N | untuned s | tuned s | speedup | winner | tiled |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    for r in rows:
        untuned = f"{r['untuned_seconds']:.4f}" if isinstance(
            r.get("untuned_seconds"), (int, float)) else "-"
        tuned = f"{r['tuned_seconds']:.4f}" if isinstance(
            r.get("tuned_seconds"), (int, float)) else "-"
        speed = f"{r['speedup']:.2f}x" if isinstance(
            r.get("speedup"), (int, float)) else "-"
        tiled = {True: "yes", False: "no", None: "-"}[r.get("winner_tiled")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('n')} | {untuned} | {tuned} "
            f"| {speed} | {r.get('winner') or '-'} | {tiled} |"
        )
    return "\n".join(lines)


def wavefront_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E19 wavefront table; returns failures.

    Every row must be bit-exact (``ok``) and clear
    ``WAVEFRONT_MIN_SPEEDUP`` of ``source-vec`` over the scalar
    ``source`` backend.
    """
    failures = []
    for row in fresh.get("wavefront", []):
        name = f"{row.get('kernel')}@N={row.get('n')}"
        if row.get("error"):
            failures.append(f"{name}: wavefront bench error: {row['error']}")
        elif row.get("ok") is not True:
            failures.append(f"{name}: source-vec output differs from reference")
        elif not (
            isinstance(row.get("speedup"), (int, float))
            and row["speedup"] >= WAVEFRONT_MIN_SPEEDUP
        ):
            failures.append(
                f"{name}: source-vec only {row.get('speedup')}x vs the "
                f"scalar source backend (floor {WAVEFRONT_MIN_SPEEDUP})"
            )
    return failures


def wavefront_table(fresh: dict) -> str:
    """The E19 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("wavefront", [])
    if not rows:
        return ""
    lines = [
        "| kernel | N | source s | source-vec s | speedup | ok |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        src = f"{r['source_seconds']:.4f}" if isinstance(
            r.get("source_seconds"), (int, float)) else "-"
        vec = f"{r['vec_seconds']:.4f}" if isinstance(
            r.get("vec_seconds"), (int, float)) else "-"
        speed = f"{r['speedup']:.2f}x" if isinstance(
            r.get("speedup"), (int, float)) else "-"
        ok = {True: "yes", False: "NO", None: "-"}[r.get("ok")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('n')} | {src} | {vec} | {speed} | {ok} |"
        )
    return "\n".join(lines)


def service_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E20 service table; returns failures.

    Latency rows (flagged ``gate``) must show the warm daemon at least
    ``SERVICE_MIN_SPEEDUP`` faster than the cold CLI subprocess; the
    throughput row must have completed without request errors.
    """
    failures = []
    for row in fresh.get("service", []):
        name = f"{row.get('kernel')}/{row.get('op')}"
        if row.get("error"):
            failures.append(f"{name}: service bench error: {row['error']}")
            continue
        if row.get("ok") is not True:
            failures.append(f"{name}: service bench row not ok")
        elif row.get("op") == "throughput":
            if not (isinstance(row.get("rps"), (int, float)) and row["rps"] > 0):
                failures.append(f"{name}: no throughput measured")
        elif row.get("gate") and not (
            isinstance(row.get("speedup"), (int, float))
            and row["speedup"] >= SERVICE_MIN_SPEEDUP
        ):
            failures.append(
                f"{name}: warm daemon only {row.get('speedup')}x vs the "
                f"cold CLI (floor {SERVICE_MIN_SPEEDUP})"
            )
    return failures


def service_table(fresh: dict) -> str:
    """The E20 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("service", [])
    if not rows:
        return ""
    lines = [
        "| kernel | op | cold s | warm s | speedup | req/s | ok |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        cold = f"{r['cold_seconds']:.4f}" if isinstance(
            r.get("cold_seconds"), (int, float)) else "-"
        warm = f"{r['warm_seconds']:.6f}" if isinstance(
            r.get("warm_seconds"), (int, float)) else "-"
        speed = f"{r['speedup']:.1f}x" if isinstance(
            r.get("speedup"), (int, float)) else "-"
        rps = f"{r['rps']:.0f}" if isinstance(
            r.get("rps"), (int, float)) else "-"
        ok = {True: "yes", False: "NO", None: "-"}[r.get("ok")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('op')} | {cold} | {warm} "
            f"| {speed} | {rps} | {ok} |"
        )
    return "\n".join(lines)


def symbolic_gate(fresh: dict) -> list[str]:
    """Absolute checks on the E21 symbolic-oracle table; returns
    failures.  Every consultation must reach its committed verdict, and
    a row that produced a certificate must have re-verified it — a
    certificate that cannot be checked is worse than a rejection."""
    failures = []
    for row in fresh.get("symbolic", []):
        name = f"{row.get('kernel')}/{row.get('spec')}"
        if row.get("error"):
            failures.append(f"{name}: oracle error: {row['error']}")
            continue
        if row.get("verdict") != row.get("expected"):
            failures.append(
                f"{name}: verdict {row.get('verdict')!r}, expected "
                f"{row.get('expected')!r}"
            )
        elif row.get("verified") is False:
            failures.append(f"{name}: emitted certificate failed re-verification")
        elif row.get("ok") is not True:
            failures.append(f"{name}: row not marked ok")
    return failures


def symbolic_table(fresh: dict) -> str:
    """The E21 table as a GitHub-flavoured markdown summary."""
    rows = fresh.get("symbolic", [])
    if not rows:
        return ""
    lines = [
        "| kernel | spec | verdict | check ms | sizes | verified | ok |",
        "|---|---|---|---:|---|---|---|",
    ]
    for r in rows:
        ms = f"{r['check_seconds'] * 1e3:.2f}" if isinstance(
            r.get("check_seconds"), (int, float)) else "-"
        sizes = ",".join(str(s) for s in r["sizes"]) if r.get("sizes") else "-"
        verified = {True: "yes", False: "NO", None: "-"}[r.get("verified")]
        ok = {True: "yes", False: "NO", None: "-"}[r.get("ok")]
        lines.append(
            f"| {r.get('kernel')} | {r.get('spec')} | {r.get('verdict')} "
            f"| {ms} | {sizes} | {verified} | {ok} |"
        )
    return "\n".join(lines)


def trend_gate(
    fresh: dict,
    history_path: Path,
    *,
    tolerance: float | None = None,
) -> tuple[list[str], list[str]]:
    """The rolling-median trend gate; returns (failures, report lines).

    The fresh payload's trend metrics are compared against prior ledger
    rows.  Emission appends the fresh run's own row to the ledger first,
    so a trailing row whose metrics equal the fresh run's is excluded
    from "prior".
    """
    try:
        from benchmarks.history import (
            DEFAULT_TOLERANCE, load_history, metrics_from_result, trend_failures,
        )
    except ImportError:  # invoked as `python benchmarks/compare.py`
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from benchmarks.history import (
            DEFAULT_TOLERANCE, load_history, metrics_from_result, trend_failures,
        )

    fresh_metrics = metrics_from_result(fresh)
    rows = load_history(history_path)
    if rows and rows[-1].get("metrics") == fresh_metrics:
        rows = rows[:-1]
    return trend_failures(
        {"metrics": fresh_metrics},
        rows,
        tolerance=DEFAULT_TOLERANCE if tolerance is None else tolerance,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare.py", description="benchmark regression gate"
    )
    parser.add_argument("baseline", type=Path, help="committed BENCH_result.json")
    parser.add_argument("fresh", type=Path, help="freshly generated BENCH_result.json")
    parser.add_argument(
        "--factor",
        type=float,
        default=DEFAULT_FACTOR,
        help=f"fail when fresh/baseline exceeds this (default {DEFAULT_FACTOR})",
    )
    parser.add_argument(
        "--min-ns",
        type=float,
        default=DEFAULT_MIN_NS,
        help="ignore metrics where both sides are below this many ns "
        f"(default {int(DEFAULT_MIN_NS)})",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="append the E16 backend speedup table (markdown) to this "
        "file — CI points it at $GITHUB_STEP_SUMMARY",
    )
    parser.add_argument(
        "--trend",
        type=Path,
        default=None,
        metavar="LEDGER",
        help="also gate the fresh backend/tune metrics against the "
        "rolling median of this BENCH_history.jsonl ledger "
        "(see benchmarks/history.py)",
    )
    parser.add_argument(
        "--trend-tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="trend-gate tolerance as a fraction (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
        fresh = json.loads(args.fresh.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare.py: cannot load results: {exc}", file=sys.stderr)
        return 2

    regressions, compared, uncomparable = compare_results(
        baseline, fresh, factor=args.factor, min_ns=args.min_ns
    )

    print(f"compared {len(compared)} metrics (threshold {args.factor:.1f}x)")
    for comp in compared:
        marker = "REGRESSION" if comp in regressions else "ok"
        print(f"  [{marker:>10}] {comp.describe()}")
    if uncomparable:
        print(f"skipped {len(uncomparable)} metrics present on one side only:")
        for name in uncomparable:
            print(f"  [   skipped] {name}")

    backend_failures = backend_gate(fresh)
    table = backend_table(fresh)
    if table:
        print("\nexecution-backend comparison (E16):")
        print(table)
    for failure in backend_failures:
        print(f"  [BACKEND FAIL] {failure}")

    tune_failures = tune_gate(fresh)
    ttable = tune_table(fresh)
    if ttable:
        print("\nguided autotuner comparison (E17):")
        print(ttable)
    for failure in tune_failures:
        print(f"  [TUNE FAIL] {failure}")

    scaling_failures = scaling_gate(fresh)
    stable = scaling_table(fresh)
    if stable:
        print("\ntiling/fusion scaling curves (E18):")
        print(stable)
    for failure in scaling_failures:
        print(f"  [SCALING FAIL] {failure}")

    wavefront_failures = wavefront_gate(fresh)
    wtable = wavefront_table(fresh)
    if wtable:
        print("\nwavefront source-vec vs source (E19):")
        print(wtable)
    for failure in wavefront_failures:
        print(f"  [WAVEFRONT FAIL] {failure}")

    service_failures = service_gate(fresh)
    svtable = service_table(fresh)
    if svtable:
        print("\ntransformation service warm vs cold (E20):")
        print(svtable)
    for failure in service_failures:
        print(f"  [SERVICE FAIL] {failure}")

    symbolic_failures = symbolic_gate(fresh)
    sytable = symbolic_table(fresh)
    if sytable:
        print("\nfractal symbolic oracle consultations (E21):")
        print(sytable)
    for failure in symbolic_failures:
        print(f"  [SYMBOLIC FAIL] {failure}")

    trend_fails: list[str] = []
    if args.trend is not None:
        trend_fails, trend_report = trend_gate(
            fresh, args.trend, tolerance=args.trend_tolerance
        )
        print(f"\ntrend gate against {args.trend}:")
        for line in trend_report:
            print(line)
        if not trend_report:
            print("  (no trend metrics in the fresh result)")

    if args.summary is not None and table:
        with args.summary.open("a") as f:
            f.write("### Execution-backend speedups (E16)\n\n" + table + "\n")
    if args.summary is not None and ttable:
        with args.summary.open("a") as f:
            f.write("\n### Guided autotuner vs default order (E17)\n\n" + ttable + "\n")
    if args.summary is not None and stable:
        with args.summary.open("a") as f:
            f.write("\n### Tiling/fusion scaling curves (E18)\n\n" + stable + "\n")
    if args.summary is not None and wtable:
        with args.summary.open("a") as f:
            f.write("\n### Wavefront source-vec vs source (E19)\n\n" + wtable + "\n")
    if args.summary is not None and svtable:
        with args.summary.open("a") as f:
            f.write(
                "\n### Transformation service warm vs cold (E20)\n\n"
                + svtable + "\n"
            )
    if args.summary is not None and sytable:
        with args.summary.open("a") as f:
            f.write(
                "\n### Fractal symbolic oracle consultations (E21)\n\n"
                + sytable + "\n"
            )

    if (regressions or backend_failures or tune_failures or scaling_failures
            or wavefront_failures or service_failures or symbolic_failures
            or trend_fails):
        print(
            f"FAIL: {len(regressions)} metric(s) regressed beyond "
            f"{args.factor:.1f}x, {len(backend_failures)} backend gate "
            f"failure(s), {len(tune_failures)} tune gate failure(s), "
            f"{len(scaling_failures)} scaling gate failure(s), "
            f"{len(wavefront_failures)} wavefront gate failure(s), "
            f"{len(service_failures)} service gate failure(s), "
            f"{len(symbolic_failures)} symbolic gate failure(s), "
            f"{len(trend_fails)} trend gate failure(s)",
            file=sys.stderr,
        )
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
