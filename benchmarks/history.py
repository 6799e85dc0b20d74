"""The bench history ledger: ``BENCH_history.jsonl``.

``BENCH_result.json`` is a point-in-time snapshot that each benchmark
session overwrites; the *ledger* is append-only.  Every
:func:`benchmarks.emit.write_bench_result` call also appends one
git-SHA-stamped row here, so the repo accumulates a performance
trajectory that survives result overwrites — and ``compare.py --trend``
can gate a fresh run against the **rolling median** of prior snapshots
instead of a single (possibly lucky) committed baseline.

Row schema (one JSON object per line)::

    {
      "schema": 1,
      "sha": "<git HEAD sha or 'unknown'>",
      "created": <unix seconds>,
      "version": "<repro __version__>",
      "python": "3.12.x",
      "metrics": {
        "backend:<kernel>/<backend>:seconds": 0.0123,
        "backend:<kernel>/<backend>:speedup": 4.56,
        "tune:<kernel>:baseline_seconds": ...,
        "tune:<kernel>:best_seconds": ...,
        "tune:<kernel>:speedup": ...,
        "scaling:<kernel>@<n>:tuned_seconds": ...,
        "scaling:<kernel>@<n>:untuned_seconds": ...,
        "scaling:<kernel>@<n>:speedup": ...,
        "wavefront:<kernel>@<n>:source_seconds": ...,
        "wavefront:<kernel>@<n>:vec_seconds": ...,
        "wavefront:<kernel>@<n>:speedup": ...,
        "service:<kernel>/<op>:cold_seconds": ...,
        "service:<kernel>/<op>:warm_seconds": ...,
        "service:<kernel>/<op>:speedup": ...,
        "service:throughput:rps": ...,
        "symbolic:<kernel>/<spec>:check_seconds": ...
      }
    }

Only the backend (E16), tune (E17), scaling (E18), wavefront (E19),
service (E20) and symbolic-oracle (E21) tables feed the ledger — they are
the medians-of-medians the repo actually optimises for; pytest-benchmark
means and one-shot span timings stay in ``BENCH_result.json`` under the
existing 2x factor gate.

Trend direction is inferred from the metric name: ``:seconds`` metrics
regress *upward*, ``:speedup`` metrics regress *downward*.  A metric
with fewer than :data:`MIN_PRIOR` prior rows never fails the trend gate
(a fresh ledger must be able to bootstrap).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "HISTORY_NAME", "git_sha", "metrics_from_result", "snapshot_row",
    "append_snapshot", "load_history", "trend_failures",
    "DEFAULT_TOLERANCE", "DEFAULT_WINDOW", "MIN_PRIOR",
]

HISTORY_NAME = "BENCH_history.jsonl"

#: A fresh metric may drift this fraction past the rolling median of its
#: prior snapshots before the trend gate fails (deliberately looser than
#: jitter, tighter than the 2x point-to-point factor gate).
DEFAULT_TOLERANCE = 0.25

#: Rolling-median window: only the most recent N prior rows count, so an
#: ancient (different machine, different algorithm) era ages out.
DEFAULT_WINDOW = 8

#: Below this many prior snapshots a metric is reported but never gated.
MIN_PRIOR = 2


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def git_sha(cwd: Path | None = None) -> str:
    """HEAD's sha, or ``"unknown"`` outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd or _repo_root()),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def metrics_from_result(payload: dict) -> dict[str, float]:
    """Flatten a BENCH_result payload into the ledger's trend metrics."""
    metrics: dict[str, float] = {}
    for row in payload.get("backend", []):
        name = f"backend:{row.get('kernel')}/{row.get('backend')}"
        if isinstance(row.get("seconds"), (int, float)):
            metrics[f"{name}:seconds"] = float(row["seconds"])
        if isinstance(row.get("speedup"), (int, float)):
            metrics[f"{name}:speedup"] = float(row["speedup"])
    for row in payload.get("tune", []):
        name = f"tune:{row.get('kernel')}"
        for key in ("baseline_seconds", "best_seconds", "speedup"):
            if isinstance(row.get(key), (int, float)):
                metrics[f"{name}:{key}"] = float(row[key])
    for row in payload.get("scaling", []):
        name = f"scaling:{row.get('kernel')}@{row.get('n')}"
        for key in ("untuned_seconds", "tuned_seconds", "speedup"):
            if isinstance(row.get(key), (int, float)):
                metrics[f"{name}:{key}"] = float(row[key])
    for row in payload.get("wavefront", []):
        name = f"wavefront:{row.get('kernel')}@{row.get('n')}"
        for key in ("source_seconds", "vec_seconds", "speedup"):
            if isinstance(row.get(key), (int, float)):
                metrics[f"{name}:{key}"] = float(row[key])
    for row in payload.get("service", []):
        if row.get("op") == "throughput":
            # "rps" deliberately avoids the "seconds" suffix: higher is
            # better, so the trend gate treats a drop as the regression
            if isinstance(row.get("rps"), (int, float)):
                metrics["service:throughput:rps"] = float(row["rps"])
            continue
        name = f"service:{row.get('kernel')}/{row.get('op')}"
        for key in ("cold_seconds", "warm_seconds", "speedup"):
            if isinstance(row.get(key), (int, float)):
                metrics[f"{name}:{key}"] = float(row[key])
    for row in payload.get("symbolic", []):
        name = f"symbolic:{row.get('kernel')}/{row.get('spec')}"
        if isinstance(row.get("check_seconds"), (int, float)):
            metrics[f"{name}:check_seconds"] = float(row["check_seconds"])
    return metrics


def snapshot_row(
    payload: dict, *, sha: str | None = None, created: float | None = None
) -> dict:
    """One ledger row for a BENCH_result payload."""
    return {
        "schema": 1,
        "sha": sha if sha is not None else git_sha(),
        "created": created if created is not None else time.time(),
        "version": payload.get("repro_version", "?"),
        "python": payload.get("python", sys.version.split()[0]),
        "metrics": metrics_from_result(payload),
    }


def append_snapshot(
    payload: dict,
    path: str | Path | None = None,
    *,
    sha: str | None = None,
) -> tuple[Path, dict]:
    """Append one snapshot row for ``payload``; returns (path, row)."""
    target = Path(path) if path is not None else _repo_root() / HISTORY_NAME
    row = snapshot_row(payload, sha=sha)
    with target.open("a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    return target, row


def load_history(path: str | Path) -> list[dict]:
    """All well-formed rows of a ledger file, in file order.  Malformed
    lines are skipped (the ledger is append-only across merges and a
    single mangled line must not take the gate down)."""
    p = Path(path)
    if not p.exists():
        return []
    rows = []
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict) and isinstance(row.get("metrics"), dict):
            rows.append(row)
    return rows


def _higher_is_worse(metric: str) -> bool:
    return metric.endswith("seconds")


def trend_failures(
    fresh: dict,
    prior_rows: list[dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_WINDOW,
    min_prior: int = MIN_PRIOR,
) -> tuple[list[str], list[str]]:
    """Gate ``fresh`` (a snapshot row or bare metrics dict) against the
    rolling median of prior snapshot rows.

    Returns ``(failures, report_lines)``: failures is empty when every
    metric is within ``tolerance`` of its rolling median (or has too few
    priors to judge); report_lines describe every examined metric either
    way, for the CI log.
    """
    metrics = fresh.get("metrics", fresh)
    failures: list[str] = []
    report: list[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        if not isinstance(value, (int, float)):
            continue
        prior = [
            row["metrics"][name]
            for row in prior_rows
            if isinstance(row.get("metrics", {}).get(name), (int, float))
        ][-window:]
        if len(prior) < min_prior:
            report.append(
                f"  [  bootstrap] {name}: {value:.6g} "
                f"({len(prior)} prior snapshot(s), gate needs {min_prior})"
            )
            continue
        med = statistics.median(prior)
        if med == 0:
            report.append(f"  [    skipped] {name}: rolling median is 0")
            continue
        if _higher_is_worse(name):
            bad = value > med * (1 + tolerance)
            direction = "above"
        else:
            bad = value < med * (1 - tolerance)
            direction = "below"
        ratio = value / med
        line = (
            f"{name}: {value:.6g} vs rolling median {med:.6g} "
            f"over {len(prior)} snapshot(s) ({ratio:.2f}x)"
        )
        if bad:
            failures.append(
                f"{line} — more than {tolerance:.0%} {direction} the trend"
            )
            report.append(f"  [TREND  FAIL] {line}")
        else:
            report.append(f"  [         ok] {line}")
    return failures, report
