"""Unit tests for worker heartbeats and chaos clauses (DESIGN.md §16).

Covers the heartbeat and manifest settings as their consumers see
them, and the network-chaos clauses of ``REPRO_FAULT_INJECT``.
Parsing of every setting is pinned in ``test_config.py``.
Integration with live workers lives in ``test_exec_backends.py``;
end-to-end determinism under chaos in ``test_determinism.py``.
"""

import pytest

from repro.config import ConfigError, env_value, resolve_config
from repro.exec import ParallelRunner
from repro.exec.backends import WorkerFleetBackend
from repro.exec.backends.fleet import HEARTBEAT_TIMEOUT_INTERVALS
from repro.exec.faults import FaultPlan, parse_fault_spec


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ("REPRO_HEARTBEAT", "REPRO_MANIFEST_FSYNC",
                 "REPRO_FAULT_INJECT"):
        monkeypatch.delenv(name, raising=False)


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

    def test_manifest_fsync(self, monkeypatch):
        assert resolve_config().manifest_fsync is False
        monkeypatch.setenv("REPRO_MANIFEST_FSYNC", "1")
        assert resolve_config().manifest_fsync is True


class TestChaosSpecs:
    def test_new_kinds_parse(self):
        rules = parse_fault_spec(
            "frame-drop:every=6;frame-trunc:key=ab;frame-delay:seconds=2;"
            "frame-dup:every=5;hb-loss:every=4")
        assert [rule.kind for rule in rules] == [
            "frame-drop", "frame-trunc", "frame-delay", "frame-dup",
            "hb-loss"]

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

    def test_retired_shared_fail_is_an_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            parse_fault_spec("shared-fail")

    def test_execution_kinds_ignore_chaos_clauses(self):
        # fire() must not raise for chaos kinds — they have their own
        # hooks on the worker's frame path.
        plan = FaultPlan(parse_fault_spec(
            "frame-drop:every=1;hb-loss:every=1"))
        plan.fire("a" * 64, 1)  # no InjectedFault, no exit, no sleep
