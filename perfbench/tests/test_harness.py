"""Unit tests for the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from harness import (  # noqa: E402
    REFERENCE_S, Calibrator, Ledger, SpanRecord, Tracer, check_additive, classify, gmean, percentile,
    fixed_tail, self_times, tail, tail_percentile,
)
from metrics import END_TO_END, PER_LAYER  # noqa: E402


class TypedError(Exception):
    pass


# -- percentile rule ----------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    # 92 sorted samples: p90 sits between the 82nd and 83rd, 10 beyond
    assert tail_percentile(92, 99.0) == 90.0
    assert tail_percentile(91, 99.0) == 75.0
    assert tail_percentile(200, 99.0) == 95.0
    assert tail_percentile(1001, 99.0) == 99.0
    assert tail_percentile(1001, 95.0) == 95.0


def test_tail_reports_its_sample_count_and_percentile():
    xs = list(range(1, 201))
    t = tail(xs, 99.0)
    assert t.q == 95.0 and t.n == 200
    assert t.value == pytest.approx(percentile(xs, 95.0))
    beyond = [x for x in xs if x > t.value]
    assert len(beyond) >= 10
    assert t.label() == "p95 of 200"


def test_tail_of_few_samples_is_the_maximum():
    t = tail([3.0, 1.0, 2.0], 90.0)
    assert t.q is None and t.value == 3.0 and t.label() == "max of 3"


def test_fixed_tail_refuses_a_lower_percentile():
    # p75 of 37 samples has 9 beyond it, of 38 samples 10
    xs = [float(x) for x in range(1, 38)]
    with pytest.raises(ValueError, match="only reach p50 of 37"):
        fixed_tail(xs, 75.0)
    t = fixed_tail(xs + [38.0], 75.0)
    assert t.q == 75.0 and t.n == 38
    assert fixed_tail([2.0, 5.0, 1.0], None).value == 5.0


def test_minimum_sample_counts_reach_the_reported_percentile():
    from metrics import EXECUTE_KERNELS
    from wl_execute import MIN_ROUNDS, Execute
    from wl_serve import MIN_REQUESTS, Serve

    n = MIN_ROUNDS * len(EXECUTE_KERNELS)
    assert tail_percentile(n, Execute.tail_wanted) == Execute.tail_wanted
    assert tail_percentile(MIN_REQUESTS, Serve.tail_wanted) == Serve.tail_wanted


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5


# -- host speed ---------------------------------------------------------------

def test_factor_at_averages_the_samples_around_an_op():
    cal = Calibrator()
    ref = REFERENCE_S[cal.kernel]
    cal.samples = [ref * x for x in (1, 1, 1, 1, 3, 3, 3, 3)]
    cal.stamps = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    # an op started at 4.5: three samples before it (1, 1, 1), three after (3, 3, 3)
    assert cal.factor_at(4.5) == pytest.approx(0.5)
    # at the edges only the samples that exist count
    assert cal.factor_at(0.5) == pytest.approx(1.0)
    assert cal.factor_at(9.0) == pytest.approx(1 / 3)


# -- geometric mean -----------------------------------------------------------

def test_gmean():
    assert gmean([1.0, 4.0]) == pytest.approx(2.0)
    assert gmean([0.001, 1000.0, 1.0]) == pytest.approx(1.0)


def test_gmean_rejects_non_positive():
    with pytest.raises(ValueError):
        gmean([1.0, 0.0])
    with pytest.raises(ValueError):
        gmean([])


# -- span self time -----------------------------------------------------------

def _span(sid, start, end, parent=None, op=0):
    return SpanRecord(sid, f"s{sid}", start, end, parent, op)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 30, parent=0),
        _span(2, 20, 50, parent=0),   # overlaps span 1: counted once
        _span(3, 90, 120, parent=0),  # clipped to the parent
        _span(4, 12, 18, parent=1),
    ]
    st = self_times(spans)
    assert st[0] == 100 - (40 + 10)
    assert st[1] == 20 - 6
    assert st[4] == 6


def test_self_times_add_up_to_op_wall():
    tr = Tracer(True)
    for op in range(3):
        with tr.op("op.x", op):
            with tr.span("a"):
                with tr.span("b"):
                    sum(range(1000))
            with tr.span("c"):
                pass
    assert len(tr.spans) == 12
    st = self_times(tr.spans)
    wall = sum(s.end_ns - s.start_ns for s in tr.spans if s.parent is None)
    assert sum(st.values()) == wall
    assert check_additive(tr.spans) == 0.0


def test_disabled_tracer_records_nothing(tmp_path):
    tr = Tracer(False)
    with tr.op("op.x", 0), tr.span("a"):
        pass
    assert tr.spans == []
    on = Tracer(True)
    with on.op("op.x", 7), on.span("a"):
        pass
    path = tmp_path / "spans.jsonl"
    on.dump(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["op.x", "a"]
    assert rows[1]["parent"] == rows[0]["sid"] and rows[1]["op"] == 7


# -- failure accounting -------------------------------------------------------

def test_classify():
    assert classify(False, None, TypedError) is None
    assert classify(True, TypedError("bad spec"), TypedError) is None
    assert "expected a typed error" in classify(True, None, TypedError)
    assert "unexpected TypedError" in classify(False, TypedError("x"), TypedError)
    assert "untyped KeyError" in classify(True, KeyError("k"), TypedError)


def test_ledger_counts_failures_against_attempts():
    led = Ledger()
    assert led.error_rate == 0.0
    led.ok()
    led.ok()
    led.fail("op:a", "wrong output")
    led.ok()
    assert (led.attempted, led.failed) == (4, 1)
    assert led.error_rate == 0.25
    assert led.failures == [("op:a", "wrong output")]


# -- catalogue ----------------------------------------------------------------

def test_benchmark_json_matches_the_catalogue():
    root = os.path.dirname(os.path.dirname(HERE))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert not any(math.isnan(m["bound"]) for m in spec["end_to_end"])
