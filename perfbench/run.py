"""Pipeline benchmark: compile, execute, tune and serve workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` prints every end-to-end metric (see ``metrics.py``) with
its unit and sample count; ``--trace 1`` prints the per-layer self-time
table and every per-layer metric, including the tracing overhead.  Both
list failed ops one by one and end with one JSON line::

    {"correct": true, "attempted": 187, "failed": 0, "metrics": {...}}

Each workload runs in a fresh interpreter (``worker.py``); set-up is
timed from spawning it to its ``READY`` line, three times in an
untraced run.  Values measured in the timed region are scaled to a
reference host speed by a calibration kernel sampled between timed ops
(``harness.Calibrator``): the end-to-end times of ``compile``,
``execute`` and ``tune`` op by op, by the samples around each op;
``serve``'s (concurrent requests, a rate over wall time) and every
per-layer time by the run's mean speed.  The raw values are printed
beside them.
``execute`` and ``serve`` run closed loops for ``--seconds``;
``compile`` and ``tune`` measure one full pass over their inputs, which
takes longer (about 50 s and 20 s on a 2-CPU Xeon).
Spans and results, with provenance, are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import median, provenance  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("compile", "execute", "tune", "serve")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Whole-run deadline: the benchmark must exit within 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(workload, seed, seconds, trace, out, setup_only):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--root", ROOT, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    err = open(os.path.join(out, f"worker-{workload}.stderr"), "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                            cwd=ROOT)
    return proc, err, t0


def _finish(proc, err, deadline):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the run deadline") from None
    finally:
        err.close()


def run_worker(workload, seed, seconds, trace, out, setup_only, deadline):
    """Spawn one worker; returns (setup seconds, result dict or None)."""
    proc, err, t0 = _spawn(workload, seed, seconds, trace, out, setup_only)
    setup = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            if time.monotonic() > deadline:
                break
    finally:
        proc.stdout.close()
        _finish(proc, err, deadline)
    if proc.returncode != 0 or setup is None or (result is None and not setup_only):
        with open(err.name) as f:
            tail = f.read()[-2000:]
        raise BenchError(f"{workload} worker failed (rc {proc.returncode}):\n{tail}")
    return setup, result


def run_workload(workload, seed, seconds, trace, out, deadline):
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            s, _ = run_worker(workload, seed, seconds, trace, out, True, deadline)
            setups.append(s)
    s, result = run_worker(workload, seed, seconds, trace, out, False, deadline)
    setups.append(s)
    result["setup_samples"] = setups
    return result


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


#: Set-up measurements are reported raw: spawning and importing is
#: bound by the file system more than by the CPU speed the calibration
#: kernels track, and scaling them widened their spread.
UNSCALED = ("setup_s", "import.repro_s")


def scaled(name: str, value, unit: str, factor: float):
    """A measured value at the reference host speed: times are
    multiplied by the run's speed factor, rates divided by it."""
    if name in UNSCALED:
        return value
    if unit == "s":
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def report(workload, res, trace) -> dict:
    """Print one workload's tables; return its metrics."""
    e2e = res["e2e"]
    f = res["speed_factor"]
    print(f"== {workload}: {res['attempted']} ops attempted, "
          f"{len(res['failures'])} failed (error rate "
          f"{len(res['failures']) / max(res['attempted'], 1):.4f}); "
          f"{res['inputs']} inputs, digest {res['input_digest'][:16]}")
    how = ("op by op" if "_raw" in e2e and not trace else f"by {f:.4f}")
    print(f"  host speed: {res['calibration_samples']} calibration samples; timed-region "
          f"values scaled {how} to the reference speed (raw values in brackets)")
    metrics = {}
    if not trace:
        values = {
            "setup_s": median(res["setup_samples"]),
            "peak_rss_mb": res["peak_rss_mb"],
            **{k: v for k, v in e2e.items() if not k.startswith("_")},
        }
        samples = {
            "setup_s": len(res["setup_samples"]),
            "op_tail_s": e2e["_tail"],
        }
        # a workload that scaled its values op by op reports them with
        # the raw ones under "_raw"
        pre_scaled = e2e.get("_raw", {})
        print(f"  {'metric':<20} {'value':>14} {'(raw)':>14} {'unit':<6} samples")
        for name, unit, _ in END_TO_END:
            if name in pre_scaled:
                value, v = values[name], pre_scaled[name]
            else:
                value, v = scaled(name, values[name], unit, f), values[name]
            metrics[name] = {"value": value, "unit": unit}
            n = samples.get(name, e2e["_samples"] if name.startswith("op") else "")
            print(f"  {name:<20} {_fmt(metrics[name]['value']):>14} "
                  f"{'(' + _fmt(v) + ')':>14} {unit:<6} {n}")
        for name, (v, unit, n) in e2e.get("_also", {}).items():
            print(f"  {name:<20} {_fmt(scaled(name, v, unit, f)):>14} "
                  f"{'(' + _fmt(v) + ')':>14} {unit:<6} {n}  (not gated)")
    else:
        layers = res["layers"]
        ops = sum(calls for name, _, calls in res["table"] if name.startswith("op."))
        print(f"  self time per op, raw ({ops} traced ops; self times add up "
              f"to op wall within {res['additive_error_s'] * 1e6:.1f} us):")
        for name, per_op, calls in res["table"]:
            print(f"    {name:<40} {per_op * 1e3:>12.3f} ms  {calls:>6} calls")
        print(f"  tracing overhead vs untraced twin ops: "
              f"{layers['trace.overhead_ratio'] * 100:.2f}%")
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": scaled(name, layers[name], unit, f), "unit": unit}
            print(f"  {name:<40} {_fmt(metrics[name]['value']):>14} {unit}")
    for op, reason in res["failures"]:
        print(f"  FAILED {op}: {reason}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, out, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        m = report(name, res, args.trace)
        prov = provenance(ROOT, args.seed, name)
        prov["input_digest"] = res["input_digest"]
        print("  provenance " + json.dumps(prov, sort_keys=True))
        with open(os.path.join(out, f"result-{name}-{args.seed}-t{args.trace}.json"), "w") as f:
            json.dump({"provenance": prov, "metrics": m, "result": res}, f, indent=1)
        attempted += res["attempted"]
        failed += len(res["failures"])
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
