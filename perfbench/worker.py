"""One workload in a fresh interpreter.

Started by ``run.py``.  Prints ``READY`` once the first timed op can
start (the orchestrator times set-up from spawn to this line), then, unless
``--setup-only``, measures and prints ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from harness import check_additive, digest

    # timed: the import layer, the package and every module of it the
    # workload calls
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    wl = WORKLOADS[args.workload](args.seed, bool(args.trace), args.root, args.out)
    texts = wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    try:
        e2e = wl.measure(args.seconds)
        rss = wl.peak_rss_mb()
    finally:
        wl.close()
    layers, table = wl.per_layer()
    layers["import.repro_s"] = import_s
    if wl.tracer.enabled:
        wl.tracer.dump(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl"))
    result = {
        "e2e": e2e,
        "peak_rss_mb": rss,
        "layers": layers,
        "table": table,
        "additive_error_s": check_additive(wl.tracer.spans),
        "attempted": wl.ledger.attempted,
        "failures": wl.ledger.failures,
        "op_log": wl.op_log,
        "speed_factor": wl.cal.factor(),
        "calibration_samples": len(wl.cal.samples),
        "input_digest": digest(texts),
        "inputs": len(texts),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
