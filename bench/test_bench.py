"""Self-test of the benchmark's own arithmetic: self time, tail percentile,
rebinding, calibration scaling, epoch intervals, and the metric lists in
BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import types
from pathlib import Path

import pytest

import calibration
import layers
from spans import Tracer, covered_length, self_times, tail_percentile

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_nested_children():
    # parent [0, 10]; child [1, 4] holds grandchild [2, 3]; child [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 7] overlap on [3, 5]; [8, 12] sticks out past the parent
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert covered_length(0.0, 10.0, [(3.0, 7.0), (1.0, 5.0), (4.0, 6.0)]) == 6.0
    assert covered_length(0.0, 1.0, []) == 0.0


@pytest.mark.parametrize("n, p, rank", [(11, 9, 1), (20, 50, 10), (21, 52, 11),
                                        (40, 75, 30), (100, 90, 90), (1000, 99, 990)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p, rank):
    values = [float(v) for v in range(n, 0, -1)]       # unsorted input
    got_p, got_value = tail_percentile(values)
    assert (got_p, got_value) == (p, float(rank))
    assert sum(v > got_value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond it
    assert -(-(p + 1) * n // 100) > n - 10


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None


def test_rebinding_wraps_every_binding_and_restores():
    def f(x):
        return x + 1

    def g(x):
        return mod_b.f2(x) * 2          # calls through another module's copy

    mod_a = types.ModuleType("pkg.a")
    mod_b = types.ModuleType("pkg.b")
    mod_a.f, mod_a.g, mod_b.f2 = f, g, f
    tracer = Tracer([mod_a, mod_b])
    assert tracer.install(mod_a, "f") == 2
    tracer.install(mod_a, "g")
    assert mod_a.g(1) == 4
    assert [tracer.names[i] for i in tracer.name_id] == ["a.g", "a.f"]
    assert list(tracer.parent) == [-1, 0]
    tracer.restore()
    assert mod_a.f is f and mod_b.f2 is f and mod_a.g is g


def test_calibration_factor_scales_to_reference_speed():
    cal = calibration.Calibrator()
    cal.samples = [0.1, 0.2, 0.3]                      # mean 0.2 s per kernel pass
    assert cal.factor() == pytest.approx(calibration.REFERENCE_S / 0.2)
    off = calibration.Calibrator(enabled=False)
    off.sample()
    assert off.samples == []


def test_epoch_intervals_leave_out_calibration(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    ticks = iter([1.0, 1.5, 4.0, 4.5, 7.0, 7.5])     # end of step, end of sample
    monkeypatch.setattr(workloads, "perf_counter", lambda: next(ticks))
    cal = types.SimpleNamespace(sample=lambda: None)
    clock = workloads.EpochClock(cal)
    step = clock.wrap(lambda: None)
    for _ in range(3):
        step()
    assert clock.take() == [2.5, 2.5]
    assert clock.take() == []


def test_metric_lists_match_benchmark_json(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import runner

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == runner.END_TO_END_UNITS
