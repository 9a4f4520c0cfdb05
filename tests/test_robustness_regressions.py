"""Regression tests for runner/replayer edge cases fixed alongside the
trace-mode fast path: empty-run per-shard means, REPRO_REQUESTS
validation, replay-schedule seeding, the degenerate behaviors of the
median-window stack means, and where benchmark smoke runs write.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis.bench import RECORD_ENV, load_benchmark, record_benchmark
from repro.analysis.quantiles import median_window_mean, median_window_mean_columns
from repro.experiments import default_num_requests
from repro.experiments.runner import REQUESTS_ENV, RunResult
from repro.models import drm1
from repro.requests import ReplaySchedule
from repro.sharding import singular_plan


class TestEmptyRunResult:
    """A run that completed zero requests must degrade, not divide by zero."""

    @pytest.fixture()
    def empty_result(self):
        model = drm1()
        return RunResult(model.name, "singular", singular_plan(model))

    def test_mean_per_shard_op_time_empty(self, empty_result):
        assert empty_result.mean_per_shard_op_time() == {}

    def test_mean_per_shard_net_op_time_empty(self, empty_result):
        assert empty_result.mean_per_shard_net_op_time() == {}

    def test_len_and_columns_empty(self, empty_result):
        assert len(empty_result) == 0
        assert empty_result.e2e.size == 0
        for kind in ("latency", "embedded", "cpu"):
            for column in empty_result.stack_columns(kind).values():
                assert column.size == 0


class TestBenchmarkSmokeOutput:
    """A test run never rewrites the committed ``results/BENCH_*.json``."""

    def test_smoke_run_writes_under_smoke_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RECORD_ENV, raising=False)
        path = record_benchmark("demo", {"rps": 1.0}, results_dir=str(tmp_path))
        assert path == os.path.join(str(tmp_path), "smoke", "BENCH_demo.json")
        assert not (tmp_path / "BENCH_demo.json").exists()
        assert load_benchmark(path)["metrics"] == {"rps": 1.0}

    def test_recording_run_writes_the_committed_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RECORD_ENV, "1")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = record_benchmark("demo", {"rps": 2.0})
        assert path == os.path.join(str(tmp_path), "BENCH_demo.json")
        with open(path) as handle:
            assert json.load(handle)["benchmark"] == "demo"


class TestDefaultNumRequests:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(REQUESTS_ENV, raising=False)
        assert default_num_requests() == 200

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv(REQUESTS_ENV, "123")
        assert default_num_requests() == 123

    @pytest.mark.parametrize("bad", ["", "ten", "12.5", "1e3"])
    def test_malformed_value_names_variable_and_value(self, monkeypatch, bad):
        monkeypatch.setenv(REQUESTS_ENV, bad)
        with pytest.raises(ValueError, match=REQUESTS_ENV) as excinfo:
            default_num_requests()
        assert repr(bad) in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["0", "-5"])
    def test_non_positive_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(REQUESTS_ENV, bad)
        with pytest.raises(ValueError, match=f"{REQUESTS_ENV} must be >= 1"):
            default_num_requests()


class TestReplayScheduleSeeding:
    def test_int_and_float_qps_replay_identically(self):
        int_times = ReplaySchedule.open_loop(25).arrival_times(500)
        float_times = ReplaySchedule.open_loop(25.0).arrival_times(500)
        assert np.array_equal(int_times, float_times)

    def test_numpy_scalar_qps_normalized(self):
        np_times = ReplaySchedule.open_loop(np.float64(25.0)).arrival_times(200)
        py_times = ReplaySchedule.open_loop(25.0).arrival_times(200)
        assert np.array_equal(np_times, py_times)
        assert type(ReplaySchedule.open_loop(np.float64(25.0)).qps) is float

    def test_different_rates_still_diverge(self):
        a = ReplaySchedule.open_loop(25.0).arrival_times(100)
        b = ReplaySchedule.open_loop(26.0).arrival_times(100)
        assert not np.array_equal(a, b)

    def test_schedules_compare_equal_across_spellings(self):
        assert ReplaySchedule.open_loop(25) == ReplaySchedule.open_loop(25.0)


class TestMedianWindowMeanEquivalence:
    """Pin the columnar and row-oriented medians to each other on the
    degenerate inputs where their fallbacks must agree."""

    BUCKETS = ("a", "b")

    def _both(self, values, keys, **kwargs):
        samples = [
            {bucket: float(row[i]) for i, bucket in enumerate(self.BUCKETS)}
            for row in values
        ]
        columns = {
            bucket: np.asarray([row[i] for row in values], dtype=float)
            for i, bucket in enumerate(self.BUCKETS)
        }
        rows_out = median_window_mean(samples, keys, **kwargs)
        cols_out = median_window_mean_columns(columns, keys, **kwargs)
        return rows_out, cols_out

    def test_single_request(self):
        rows_out, cols_out = self._both([(1.5, 2.5)], [3.0])
        assert rows_out == cols_out == {"a": 1.5, "b": 2.5}

    def test_constant_keys_select_everything(self):
        values = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
        rows_out, cols_out = self._both(values, [7.0, 7.0, 7.0])
        assert rows_out == pytest.approx(cols_out)
        assert rows_out == pytest.approx({"a": 3.0, "b": 4.0})

    def test_empty_window_falls_back_to_all_samples(self):
        """An inverted percentile window selects nothing; both paths must
        fall back to averaging every sample."""
        values = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        keys = [1.0, 2.0, 3.0, 4.0]
        rows_out, cols_out = self._both(values, keys, lo_pct=90.0, hi_pct=10.0)
        assert rows_out == pytest.approx(cols_out)
        assert rows_out == pytest.approx({"a": 2.5, "b": 25.0})

    def test_regular_window_agrees(self):
        rng = np.random.default_rng(11)
        values = [tuple(row) for row in rng.uniform(0, 1, size=(40, 2))]
        keys = list(rng.uniform(0, 1, size=40))
        rows_out, cols_out = self._both(values, keys)
        assert rows_out == pytest.approx(cols_out, rel=1e-12)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            median_window_mean([{"a": 1.0}], [1.0, 2.0])
        with pytest.raises(ValueError):
            median_window_mean_columns({"a": np.ones(3)}, [1.0, 2.0])
