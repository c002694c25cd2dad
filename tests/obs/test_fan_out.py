"""The job runner shared by DeSi sweeps and campaign suites: fan_out."""

import pytest

import repro.obs
from repro.obs import NULL_METRICS, Observability, fan_out
from repro.obs.trace import NULL_TRACER

ITEMS = [5, 3, 8, 1, 6]


def _square(item, obs):
    """Module-level so worker processes can unpickle it."""
    obs.counter("jobs.items", parity=item % 2).inc(item)
    obs.histogram("jobs.size", buckets=(2.0, 6.0)).observe(item)
    return item * item, obs.metrics.enabled, obs.tracer.enabled


def _call(item, obs):
    return item()


class _Refused(Exception):
    pass


def _run(workers, obs):
    return fan_out(_square, ITEMS, workers, obs, _Refused)


class TestFanOut:
    def test_results_come_back_in_job_order(self):
        results = _run(None, Observability())
        assert [square for square, __, __ in results] == [25, 9, 64, 1, 36]

    def test_serial_and_workers_agree(self):
        serial_obs = Observability(tracer=NULL_TRACER)
        parallel_obs = Observability(tracer=NULL_TRACER)
        serial = _run(1, serial_obs)
        parallel = _run(2, parallel_obs)
        assert serial == parallel
        assert serial_obs.metrics.to_lines() == parallel_obs.metrics.to_lines()
        assert serial_obs.metrics.value("jobs.items", parity=1) == 9
        assert serial_obs.metrics.value("jobs.items", parity=0) == 14

    def test_jobs_get_metrics_only_bundles(self):
        results = _run(None, Observability())
        assert all(enabled and not traced
                   for __, enabled, traced in results)

    @pytest.mark.parametrize("obs", [
        Observability.disabled(),
        Observability(metrics=NULL_METRICS),
    ], ids=["disabled", "tracer-only"])
    def test_obs_without_metrics_gets_nothing(self, obs):
        results = _run(None, obs)
        assert not any(enabled or traced for __, enabled, traced in results)
        assert obs.metrics.to_lines() == []

    def test_unpicklable_item_raises_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(repro.obs, "ProcessPoolExecutor", no_pool)
        with pytest.raises(_Refused, match="picklable"):
            fan_out(_call, [int, lambda: 1], 2, Observability(), _Refused)

    def test_serial_runs_unpicklable_items_inline(self):
        assert fan_out(_call, [int, lambda: 1], None, Observability(),
                       _Refused) == [0, 1]
