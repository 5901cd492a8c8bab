"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import summarize  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("count, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert measure.tail_percentile(count) == expected


def test_percentile_matches_linear_interpolation():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for p in (0, 10, 50, 75, 90, 100):
        assert measure.percentile(values, p) == pytest.approx(np.percentile(values, p), rel=1e-15)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracing.covered([(1.0, 3.0), (2.0, 12.0)], 0.0, 10.0) == pytest.approx(9.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),  # grandchild of op: counts against a, not op
        Span("c", 6.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0])


def test_inclusive_shares_count_children_within_their_op(tmp_path):
    tracer = tracing.Tracer()
    tracer.spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("op", 20.0, 30.0, -1, 1),
        Span("b", 21.0, 24.0, 3, 1),
    ]
    path = tmp_path / "spans.csv.gz"
    tracer.write(path)
    assert summarize.inclusive_shares(path) == pytest.approx({"a": 4 / 20, "b": 4 / 20})


def _fake_package():
    """A package shaped like mvdtest: kernels.gram, also imported by name into null."""
    def gram(x, y, spec):
        return np.asarray(x) @ np.asarray(y).T * spec

    def sample_weighted_chisq(w, rho, j, seed=0):
        return np.zeros(j)

    def run_test(x, y, spec):
        kernels.gram(x, x, spec)
        null.gram(x, x, spec)  # same contents: redundant
        null.gram(x, y, spec)
        w = types.SimpleNamespace(lambdas=np.ones(len(x) - 1))
        null.sample_weighted_chisq(w, 0.5, 100, [7, 1])
        null.sample_weighted_chisq(w, 0.5, 100, seed=[7, 1])  # same key: redundant
        null.sample_weighted_chisq(w, 0.5, 200, [7, 1])

    kernels = types.ModuleType("fake.kernels")
    kernels.gram = gram
    null = types.ModuleType("fake.null")
    null.gram = gram
    null.sample_weighted_chisq = sample_weighted_chisq
    null.run_test = run_test
    package = types.ModuleType("fake")
    package.run_test = run_test
    return package, {"kernels": kernels, "null": null}


def test_tracer_swaps_every_alias_and_keys_redundancy_per_op():
    package, modules = _fake_package()
    original = modules["kernels"].gram
    tracer = tracing.Tracer()
    x, y = np.ones((4, 2)), np.zeros((3, 2))
    with tracer.installed(package, modules) as absent:
        assert modules["null"].gram is modules["kernels"].gram is not original
        for op_id in range(2):  # keys seen in op 0 are not redundant in op 1
            with tracer.op(op_id):
                package.run_test(x, y.copy(), 2.0)
    assert modules["kernels"].gram is original and modules["null"].gram is original
    assert "kernels.center_gram" in absent and "kernels.gram" not in absent

    metrics = tracing.layer_metrics(tracer.spans, absent)
    assert metrics["kernels.gram.calls"]["value"] == 3
    assert metrics["kernels.gram.redundant_frac"]["value"] == pytest.approx(1 / 3)
    assert metrics["kernels.gram.entries"]["value"] == 16 + 16 + 12
    assert metrics["null.sample_weighted_chisq.redundant_frac"]["value"] == pytest.approx(1 / 3)
    assert metrics["null.sample_weighted_chisq.normals"]["value"] == 3 * (100 + 100 + 200)
    assert metrics["null.run_test.calls"]["value"] == 1
    assert "kernels.center_gram.calls" not in metrics


def test_gram_key_depends_on_contents_not_identity():
    spec = object()
    a, b = np.arange(6.0).reshape(3, 2), np.arange(6.0).reshape(3, 2)
    assert tracing._gram((a, a, spec), {})[1] == tracing._gram((b, b.copy(), spec), {})[1]
    b[0, 0] = 1e-300
    assert tracing._gram((a, a, spec), {})[1] != tracing._gram((b, a, spec), {})[1]


REPORT = {
    "kind": "mvd", "n": 2000, "statistic": 2.61950986520372, "critical_value_wprime": 3.4302844860035795,
    "p_value": 0.8753, "reject": False, "v_sub": 0.060744751124404445, "xi": 1.0094778995554554,
    "c": -0.027823787478485986, "clipped_mass": -0.0,
}


def test_output_check_accepts_tiny_and_rejects_small_perturbation():
    assert measure.check_records([dict(REPORT)], [REPORT]) == []
    close = dict(REPORT, v_sub=REPORT["v_sub"] * (1 + 1e-13))
    assert measure.check_records([close], [REPORT]) == []
    off = dict(REPORT, v_sub=REPORT["v_sub"] * (1 + 1e-9))
    problems = measure.check_records([off], [REPORT])
    assert len(problems) == 1 and "v_sub" in problems[0]


def test_output_check_catches_flipped_reject():
    flipped = dict(REPORT, reject=True)
    problems = measure.check_records([flipped], [REPORT])
    assert any("contradicts" in p for p in problems)
    assert any("reject: True != reference False" in p for p in problems)


def test_output_check_invariants_and_exact_fields():
    row = {"estimate": "rejection_rate", "value": 0.5, "se": 0.1}
    assert measure.check_records([dict(row, value=0.5 + 1e-15)], [row], frozenset({"value"}))
    assert measure.check_records([dict(row, value=0.5 + 1e-15)], [row]) == []
    assert measure.invariant_problems(dict(REPORT, p_value=1.5))
    assert measure.invariant_problems(dict(REPORT, xi=math.nan))
    assert measure.check_records([REPORT, REPORT], [REPORT])


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {f"{layer}.{q}": tracing.UNITS[q] for layer, qs in tracing.QUANTITIES.items() for q in qs}
    expected.update({"traced_op_s": "s/op", "trace_overhead_frac": "fraction"})
    assert per_layer == expected
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_latency_p50_s", "op_latency_tail_s", "peak_rss_mb"}
