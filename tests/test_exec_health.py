"""Unit tests for the mesh health layer (DESIGN.md §16).

Covers the health settings as their consumers see them, the circuit
breaker state machine, the network-chaos clauses of
``REPRO_FAULT_INJECT``, and the tiered store's degraded shared-tier
mode.  Parsing of every setting is pinned in ``test_config.py``.  Integration with live workers lives in
``test_exec_backends.py``; end-to-end determinism under chaos in
``test_determinism.py``.
"""

import pytest

from repro.config import ConfigError, env_value, resolve_config
from repro.exec import ParallelRunner, faults, health
from repro.exec.backends import WorkerFleetBackend
from repro.exec.backends.fleet import HEARTBEAT_TIMEOUT_INTERVALS
from repro.exec.faults import FaultPlan, parse_fault_spec
from repro.exec.store import TieredResultStore


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_HEARTBEAT", "REPRO_SSH_CONNECT_TIMEOUT",
                 "REPRO_MANIFEST_FSYNC", "REPRO_FAULT_INJECT"):
        monkeypatch.delenv(name, raising=False)
    faults.reset_injection_state()


class TestKnobs:
    def test_heartbeat_off_by_default(self):
        assert env_value("heartbeat") is None
        assert WorkerFleetBackend(1)._hb_timeout is None

    def test_heartbeat_timeout_defaults_to_intervals(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.2")
        assert env_value("heartbeat") == 0.2
        assert WorkerFleetBackend(1)._hb_timeout == pytest.approx(
            0.2 * HEARTBEAT_TIMEOUT_INTERVALS)

    @pytest.mark.parametrize("value", ["abc", "-1", "0.0"])
    def test_bad_heartbeat_raises(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", value)
        # "0" is the off word, but "0.0" is a bad duration.  The engine
        # rejects it at construction, before any drive starts.
        with pytest.raises(ConfigError, match="REPRO_HEARTBEAT"):
            ParallelRunner(jobs=1, store=None)

    def test_breaker_defaults_and_disable(self, tmp_path):
        store = TieredResultStore(tmp_path / "local", tmp_path / "shared")
        assert store.breaker.threshold == health.BREAKER_THRESHOLD
        assert store.breaker.cooldown == health.BREAKER_COOLDOWN_S

    def test_ssh_connect_timeout(self, monkeypatch):
        assert env_value("ssh_connect_timeout") == 10.0
        monkeypatch.setenv("REPRO_SSH_CONNECT_TIMEOUT", "3")
        assert env_value("ssh_connect_timeout") == 3.0
        monkeypatch.setenv("REPRO_SSH_CONNECT_TIMEOUT", "off")
        assert env_value("ssh_connect_timeout") is None

    def test_manifest_fsync(self, monkeypatch):
        assert resolve_config().manifest_fsync is False
        monkeypatch.setenv("REPRO_MANIFEST_FSYNC", "1")
        assert resolve_config().manifest_fsync is True


class TestCircuitBreaker:
    def _breaker(self, threshold=3, cooldown=10.0):
        clock = [0.0]
        breaker = health.CircuitBreaker(threshold=threshold,
                                        cooldown=cooldown,
                                        clock=lambda: clock[0])
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.allow()
        assert breaker.record_failure() is True  # third: opens
        assert breaker.state == health.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.skips == 1

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # streak restarted
        assert breaker.state == health.CLOSED

    def test_halfopen_probe_success_closes(self):
        breaker, clock = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock[0] = 11.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == health.HALF_OPEN
        assert not breaker.allow()  # no second probe this window
        breaker.record_success()
        assert breaker.state == health.CLOSED
        assert breaker.allow()

    def test_halfopen_probe_failure_reopens(self):
        breaker, clock = self._breaker(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock[0] = 11.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # probe failed
        assert breaker.state == health.OPEN
        assert breaker.trips == 2
        clock[0] = 20.0  # new cooldown started at t=11
        assert not breaker.allow()
        clock[0] = 21.5
        assert breaker.allow()


class TestChaosSpecs:
    def test_new_kinds_parse(self):
        rules = parse_fault_spec(
            "frame-drop:every=6;frame-trunc:key=ab;frame-delay:seconds=2;"
            "frame-dup:every=5;hb-loss:every=4;shared-fail:times=3")
        assert [rule.kind for rule in rules] == [
            "frame-drop", "frame-trunc", "frame-delay", "frame-dup",
            "hb-loss", "shared-fail"]

    def test_shared_fail_defaults_to_unlimited(self):
        [rule] = parse_fault_spec("shared-fail")
        assert rule.times == 0
        [cell_rule] = parse_fault_spec("frame-drop")
        assert cell_rule.times == 1

    def test_frame_action_respects_attempt_bound(self):
        plan = FaultPlan(parse_fault_spec("frame-drop:every=1"))
        rule = plan.frame_action("f" * 64, 1)
        assert rule is not None and rule.kind == "frame-drop"
        # A retry or requeue carries attempt+1, so a times=1 chaos
        # rule never re-fires on it.
        assert plan.frame_action("f" * 64, 2) is None

    def test_heartbeat_suppression(self):
        plan = FaultPlan(parse_fault_spec("hb-loss:key=ab"))
        assert plan.suppresses_heartbeat("ab" + "0" * 62, 1)
        assert not plan.suppresses_heartbeat("cd" + "0" * 62, 1)

    def test_shared_fail_charges_per_operation(self):
        plan = FaultPlan(parse_fault_spec("shared-fail:times=2"))
        assert plan.shared_fail("k1")
        assert plan.shared_fail("k2")
        assert not plan.shared_fail("k3")  # budget exhausted
        faults.reset_injection_state()
        assert plan.shared_fail("k4")  # fresh budget

    def test_shared_fail_key_filter(self):
        plan = FaultPlan(parse_fault_spec("shared-fail:key=ab,times=1"))
        assert not plan.shared_fail("cd0000")
        assert plan.shared_fail("ab0000")

    def test_shared_tier_fault_raises_oserror(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "shared-fail:times=1")
        with pytest.raises(OSError):
            faults.shared_tier_fault("k")
        faults.shared_tier_fault("k")  # budget spent: no-op

    def test_execution_kinds_ignore_chaos_clauses(self):
        # fire() must not raise for chaos kinds — they have their own
        # hooks (worker frame path, store ops).
        plan = FaultPlan(parse_fault_spec(
            "frame-drop:every=1;hb-loss:every=1;shared-fail"))
        plan.fire("a" * 64, 1)  # no InjectedFault, no exit, no sleep


class TestSharedTierBreaker:
    def test_dead_shared_tier_degrades_to_local_only(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "shared-fail")
        store = TieredResultStore(tmp_path / "local", tmp_path / "shared")
        assert store.breaker is not None
        for index in range(health.BREAKER_THRESHOLD + 2):
            store.put(f"{index:02d}" + "0" * 62, {"kind": "t", "result": 1})
        counts = store.tier_counts()
        assert counts["breaker_open"] == 1
        assert counts["breaker_trips"] == 1
        assert counts["breaker_skips"] >= 2  # ops past the threshold skip
        assert counts["shared_fills"] == 0
        # Exactly one degradation notice, printed at the open transition.
        err = capsys.readouterr().err
        assert err.count("degraded to local-only") == 1
        # The local tier still serves every blob.
        assert store.get("000" + "0" * 61) is not None

    def test_halfopen_probe_recovers_healthy_tier(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "shared-fail")
        store = TieredResultStore(tmp_path / "local", tmp_path / "shared")
        now = [0.0]
        store.breaker = health.CircuitBreaker(clock=lambda: now[0])
        for index in range(health.BREAKER_THRESHOLD):
            store.put(f"{index:02d}" + "0" * 62, {"kind": "t", "result": 1})
        assert store.breaker.state == health.OPEN
        # The mount comes back; the next op after the cooldown is the
        # half-open probe, succeeds, and closes the breaker.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        now[0] += health.BREAKER_COOLDOWN_S
        store.put("ff" + "0" * 62, {"kind": "t", "result": 2})
        assert store.breaker.state == health.CLOSED
        assert store.tier_counts()["shared_fills"] == 1
        assert store.shared.get("ff" + "0" * 62) is not None

    def test_absence_is_a_miss_not_a_failure(self, tmp_path):
        store = TieredResultStore(tmp_path / "local", tmp_path / "shared")
        assert store.get("aa" + "0" * 62) is None
        assert store.breaker.state == health.CLOSED
        assert store.breaker.failures == 0
