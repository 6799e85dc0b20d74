"""Metric catalogue.  ``BENCHMARK.json`` declares the same names; a unit
test keeps the two in step.

Every end-to-end metric is reported by every workload, measured on that
workload's own timed op:

========================  ==============  ==============  ==============  ==============
metric                    compile         execute         tune            serve
========================  ==============  ==============  ==============  ==============
``op_p50_s``              compile op      one run         one tune()      one request
``op_tail_s``             p90             p75             max (4 ops)     p95
``ops_per_s``             compiles/s      runs/s          kernels/s       requests/s
``run_gmean_s``           lowered code    program median  winners         every
                          at check size   run time        re-timed        request
``accepted_share``        schedules       programs with   legal share of  well-formed
                          accepted        a vectorized    candidates      requests
                                          loop                            answered
========================  ==============  ==============  ==============  ==============

plus ``setup_s`` (fresh interpreter to first timed op, median of three
set-ups) and ``peak_rss_mb`` (the working process; the daemon for
``serve``).  Times and rates from the timed region are scaled to a
reference host speed (``harness.Calibrator``, op by op where the
workload allows); ``setup_s`` is raw.  Failures are carried by the result's ``attempted`` and
``failed`` counts (their ratio is the error rate), not by a metric: a
metric must never read 0.
"""

from __future__ import annotations

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("run_gmean_s", "s", "lower"),
    ("accepted_share", "ratio", "higher"),
)

#: Programs the ``execute`` workload runs, and the kernels ``tune`` tunes.
EXECUTE_KERNELS = (
    "cholesky", "lu", "trmm", "seidel_2d", "gemver_like", "trsv",
    "jacobi_1d", "fdtd_1d", "blur_2d",
)
TUNE_KERNELS = ("trmm", "seidel_2d", "trsv", "gemver_like")
SERVICE_OPS = ("analyze", "check", "transform", "run")

#: (name, unit, better).  ``*_s`` layer times are self seconds per op.
PER_LAYER = (
    ("import.repro_s", "s", "lower"),
    ("bench.glue_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("ir.parse_program_s", "s", "lower"),
    ("dependence.analyze_dependences_s", "s", "lower"),
    ("dependence.vectors", "count", "lower"),
    ("dependence.pairs_tested", "count", "lower"),
    ("fm.feasibility_queries", "count", "lower"),
    ("fm.eliminations", "count", "lower"),
    ("fm.cache_hit_ratio", "ratio", "higher"),
    ("fm.cache_evictions", "count", "lower"),
    ("fm.cache_size", "count", "lower"),
    ("transform.parse_schedule_s", "s", "lower"),
    ("legality.check_legality_s", "s", "lower"),
    ("legality.accepted", "count", "higher"),
    ("legality.rejected", "count", "lower"),
    ("symbolic.prove_schedule_s", "s", "lower"),
    ("symbolic.appeals", "count", "lower"),
    ("symbolic.rescue_ratio", "ratio", "higher"),
    ("codegen.generate_code_s", "s", "lower"),
    ("codegen.simplify_program_s", "s", "lower"),
    ("codegen.output_lines", "count", "lower"),
    ("backend.lower_program_s", "s", "lower"),
    ("backend.vectorized_loops", "count", "higher"),
    ("backend.fallback_loops", "count", "lower"),
    ("backend.source_lines", "count", "lower"),
    ("backend.run_lowered_s", "s", "lower"),
    *((f"backend.run_lowered_s.{k}", "s", "lower") for k in EXECUTE_KERNELS),
    ("tune.tune_s", "s", "lower"),
    *((f"tune.tune_s.{k}", "s", "lower") for k in TUNE_KERNELS),
    ("tune.enumerated", "count", "higher"),
    ("tune.pruned", "count", "lower"),
    ("tune.scored", "count", "lower"),
    ("tune.measured", "count", "lower"),
    ("tune.measured_ratio", "ratio", "lower"),
    ("tune.winner_speedup", "ratio", "higher"),
    *((f"service.{op}_s", "s", "lower") for op in SERVICE_OPS),
    ("service.malformed_s", "s", "lower"),
    ("service.served_s", "s", "lower"),
    ("service.miss_s", "s", "lower"),
    ("service.hit_s", "s", "lower"),
    ("service.transport_share", "ratio", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("service.shard_evictions", "count", "lower"),
)
