"""Campaign-level determinism across the optimization switches.

A resilience report is a pure function of (plan, seed).  That contract
must survive every throughput optimization: connector message coalescing
on vs off, and serial vs process-pool suites — even across interpreters
with different ``PYTHONHASHSEED`` values.  The scheduler itself is pinned
by the golden reports (``test_golden_reports.py``) and the clock's
firing-order contract checks (``tests/sim``).
"""

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from repro.faults import generate_campaign, run_campaign
from repro.middleware.connectors import DistributionConnector
from repro.scenarios import CrisisConfig, build_crisis_scenario

DURATION = 10.0


def _plan(campaign, seed):
    built = build_crisis_scenario(CrisisConfig(seed=3))
    return generate_campaign(campaign, built.model, duration=DURATION,
                             seed=seed)


@pytest.fixture(scope="module")
def churn_plan():
    return _plan("random-churn", 5)


@pytest.fixture(scope="module")
def partitions_plan():
    return _plan("rolling-partitions", 7)


def _transmit_one_by_one(self, destination, events):
    """The per-event path ``_transmit_many`` claims to be equivalent to."""
    for event in events:
        self._transmit(destination, event)


class TestOptimizationSwitches:
    def test_coalescing_off_renders_identical_report(self, churn_plan,
                                                     monkeypatch):
        baseline = run_campaign(churn_plan, seed=5, scenario="crisis",
                                duration=DURATION)
        monkeypatch.setattr(DistributionConnector, "_transmit_many",
                            _transmit_one_by_one)
        plain = run_campaign(churn_plan, seed=5, scenario="crisis",
                             duration=DURATION)
        assert plain.render() == baseline.render()

    def test_all_switches_off_partitions_identical(self, partitions_plan,
                                                   monkeypatch):
        """Every optimization switch left (connector coalescing) off,
        under rolling partitions."""
        baseline = run_campaign(partitions_plan, seed=11, scenario="crisis",
                                duration=DURATION)
        monkeypatch.setattr(DistributionConnector, "_transmit_many",
                            _transmit_one_by_one)
        plain = run_campaign(partitions_plan, seed=11, scenario="crisis",
                             duration=DURATION)
        assert plain.render() == baseline.render()


SUBPROCESS_SCRIPT = textwrap.dedent("""
    import hashlib, sys
    from repro.faults import generate_campaign, run_campaign
    from repro.scenarios import CrisisConfig, build_crisis_scenario

    built = build_crisis_scenario(CrisisConfig(seed=3))
    plan = generate_campaign("random-churn", built.model, duration=8.0,
                             seed=5)
    suite = run_campaign(plan, scenario="crisis", duration=8.0,
                         seeds=[5, 6], workers=int(sys.argv[1]))
    sys.stdout.write(hashlib.sha256(
        suite.render().encode("utf-8")).hexdigest())
""")


class TestHashSeedIndependence:
    def _digest(self, hashseed, workers):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT, str(workers)],
            capture_output=True, text=True, env=env, check=True)
        return result.stdout.strip()

    def test_workers_suite_is_hashseed_invariant(self):
        """The same suite, run with workers=2 under two different hash
        seeds and serially under a third, renders byte-identically —
        no set/dict iteration order leaks into the report."""
        parallel_a = self._digest(0, workers=2)
        parallel_b = self._digest(424242, workers=2)
        serial = self._digest(7, workers=1)
        assert parallel_a == parallel_b == serial
        assert len(parallel_a) == 64  # a real sha256, not an error path


class TestGoldenDigestStability:
    def test_in_process_suite_matches_subprocess(self):
        # Same computation as the subprocess script, run in-process:
        # guards against the subprocess silently testing different code.
        built = build_crisis_scenario(CrisisConfig(seed=3))
        plan = generate_campaign("random-churn", built.model,
                                 duration=8.0, seed=5)
        suite = run_campaign(plan, scenario="crisis",
                             duration=8.0, seeds=[5, 6], workers=1)
        digest = hashlib.sha256(
            suite.render().encode("utf-8")).hexdigest()
        env_digest = TestHashSeedIndependence()._digest(0, workers=1)
        assert digest == env_digest
