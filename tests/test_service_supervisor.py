"""The synchronous supervision core: shards, registration, fleet rollup."""

import json

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.core.reports import ErrorType, MonitorState
from repro.service import Fleet, RegistrationError, SupervisorShard


def make_hypothesis(prefix: str = "", task: str = "T") -> FaultHypothesis:
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}sense", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}act", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence([f"{prefix}sense", f"{prefix}act"])
    return hyp


def hyp_dict(prefix: str = "", task: str = "T"):
    return hypothesis_to_dict(make_hypothesis(prefix, task))


class TestRegistration:
    def test_register_builds_wheel_watchdog(self):
        shard = SupervisorShard()
        registration = shard.register("p", hyp_dict())
        assert registration.watchdog.hbm.strategy == "wheel"
        assert registration.shard_index == 0
        assert registration.lint_diagnostics == []

    def test_invalid_hypothesis_rejected(self):
        shard = SupervisorShard()
        with pytest.raises(RegistrationError, match="invalid hypothesis"):
            shard.register("p", {"version": 99})

    def test_lint_error_rejected(self):
        # WD201: aliveness demands more heartbeats than arrival
        # tolerates — error severity, rejected even without strict.
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis(
            "a", task="T", aliveness_period=2, min_heartbeats=10,
            arrival_period=2, max_heartbeats=1))
        shard = SupervisorShard(strict=False)
        with pytest.raises(RegistrationError, match="WD201"):
            shard.register("p", hypothesis_to_dict(hyp))

    def test_strict_rejects_warnings(self):
        # WD202: min_heartbeats=0 is a vacuous aliveness check (warning).
        hyp = FaultHypothesis()
        hyp.add_runnable(RunnableHypothesis("a", task="T", min_heartbeats=0))
        lenient = SupervisorShard(strict=False)
        strict = SupervisorShard(strict=True)
        registration = lenient.register("p", hypothesis_to_dict(hyp))
        assert any("WD202" in d for d in registration.lint_diagnostics)
        with pytest.raises(RegistrationError, match="strict"):
            strict.register("p", hypothesis_to_dict(hyp))

    def test_duplicate_name_same_hypothesis_rebinds(self):
        shard = SupervisorShard()
        first = shard.register("p", hyp_dict())
        first.deactivate()
        again = shard.register("p", hyp_dict())
        assert again is first
        assert again.active

    def test_duplicate_name_different_hypothesis_rejected(self):
        shard = SupervisorShard()
        shard.register("p", hyp_dict())
        with pytest.raises(RegistrationError, match="already in use"):
            shard.register("p", hyp_dict(prefix="other."))

    def test_deactivate_reactivate_respects_configured_as(self):
        hyp = make_hypothesis()
        hyp.runnables["act"].active = False
        shard = SupervisorShard()
        registration = shard.register("p", hypothesis_to_dict(hyp))
        registration.deactivate()
        assert not registration.watchdog.hbm.activation_status("sense")
        registration.reactivate()
        hbm = registration.watchdog.hbm
        assert hbm.activation_status("sense")
        assert not hbm.activation_status("act")


class TestSupervision:
    def test_heartbeats_prevent_detections(self):
        shard = SupervisorShard()
        shard.register("p", hyp_dict())
        for cycle in range(1, 7):
            shard.task_start("p", "T")
            shard.heartbeat("p", "sense", cycle * 10, "T")
            shard.heartbeat("p", "act", cycle * 10 + 1, "T")
            assert shard.tick(cycle * 10 + 5) == []

    def test_silence_detected(self):
        shard = SupervisorShard()
        shard.register("p", hyp_dict())
        detections = []
        shard.add_detection_listener(lambda name, e: detections.append((name, e)))
        for cycle in range(1, 5):
            shard.tick(cycle * 10)
        assert detections
        assert {name for name, _ in detections} == {"p"}
        assert {e.error_type for _, e in detections} == {ErrorType.ALIVENESS}
        assert shard.registrations["p"].detections == len(detections)

    def test_unknown_registration_ignored(self):
        shard = SupervisorShard()
        shard.heartbeat("ghost", "sense", 1, "T")
        shard.task_start("ghost", "T")
        assert shard.processed == 0

    def test_batch_counts_applied_entries_once(self):
        shard = SupervisorShard()
        entry = shard.register("p", hyp_dict())
        applied, malformed, errors = shard.heartbeat_batch(entry, [
            ["sense", 1, "T"], ["act", None, "T"], ["act", 3, 5],
            ["sense", 4, None], ["ghost", 5, "T"],
        ], stamp=2)
        assert (applied, malformed, errors) == (4, 1, [])
        assert entry.indications == 4
        applied, malformed, errors = shard.task_start_batch(
            entry, [["T", 6], ["T"], [7, 8]])
        assert (applied, malformed, errors) == (1, 2, [])
        assert entry.task_starts == 1
        assert shard.processed == 5
        assert entry.watchdog.hbm.unknown_heartbeats == 1

    def test_one_entry_calls_share_the_batch_path(self):
        shard = SupervisorShard()
        entry = shard.register("p", hyp_dict())
        assert shard.heartbeat("p", "sense", 1, "T") == (1, 0, [])
        assert shard.heartbeat("p", "sense", 2, 5) == (0, 1, [])
        assert shard.task_start("p", "T") == (1, 0, [])
        assert (entry.indications, entry.task_starts) == (1, 1)
        with pytest.raises(TypeError):
            entry.watchdog.heartbeat_indication("sense", 3, 5)

    def test_restored_shard_matches_never_died_after_task_stream(self):
        """Stream keys survive the snapshot's JSON round trip only if
        every task is a string; a non-string task is rejected, so the
        restored shard keeps deciding exactly like the live one."""
        def stream(shard, cycles):
            entry = shard.registrations["p"]
            for cycle in cycles:
                shard.task_start("p", "T")
                shard.heartbeat_batch(entry, [
                    ["sense", cycle * 10, "T"], ["act", cycle * 10 + 1, "T"],
                    ["sense", cycle * 10 + 2, 5], ["act", None, "T"],
                ], stamp=cycle * 10 + 3)
                shard.tick(cycle * 10 + 5)

        live = SupervisorShard()
        live.register("p", hyp_dict())
        stream(live, range(1, 4))
        restored = SupervisorShard()
        restored.restore(json.loads(json.dumps(live.snapshot())))
        stream(live, range(4, 8))
        stream(restored, range(4, 8))
        assert (json.dumps(restored.snapshot(), sort_keys=True)
                == json.dumps(live.snapshot(), sort_keys=True))
        assert (restored.registrations["p"].detections
                == live.registrations["p"].detections)

    def test_deactivated_registration_stays_silent(self):
        shard = SupervisorShard()
        shard.register("p", hyp_dict())
        shard.deregister("p")
        for cycle in range(1, 6):
            assert shard.tick(cycle * 10) == []


class TestFleet:
    def test_round_robin_assignment(self):
        fleet = Fleet(shards=2)
        a = fleet.register("a", hyp_dict(prefix="a."))
        b = fleet.register("b", hyp_dict(prefix="b."))
        c = fleet.register("c", hyp_dict(prefix="c."))
        assert [a.shard_index, b.shard_index, c.shard_index] == [0, 1, 0]

    def test_rejected_register_does_not_advance_round_robin(self):
        fleet = Fleet(shards=2)
        with pytest.raises(RegistrationError):
            fleet.register("bad", {"version": 99})
        ok = fleet.register("ok", hyp_dict())
        assert ok.shard_index == 0

    def test_rebind_routes_to_owning_shard(self):
        fleet = Fleet(shards=2)
        fleet.register("a", hyp_dict(prefix="a."))
        fleet.register("b", hyp_dict(prefix="b."))
        again = fleet.register("b", hyp_dict(prefix="b."))
        assert again.shard_index == 1

    def test_state_rollup_worst_of(self):
        fleet = Fleet(shards=2)
        fleet.register("healthy", hyp_dict(prefix="h.", task="HT"))
        fleet.register("crashed", hyp_dict(prefix="c.", task="CT"))
        assert fleet.fleet_state() is MonitorState.OK
        for cycle in range(1, 10):
            # Only the healthy registration heartbeats.
            fleet.task_start("healthy", "HT")
            fleet.heartbeat("healthy", "h.sense", cycle * 10, "HT")
            fleet.heartbeat("healthy", "h.act", cycle * 10 + 1, "HT")
            fleet.tick(cycle * 10 + 5)
        assert fleet.registration_states()["healthy"] is MonitorState.OK
        assert fleet.registration_states()["crashed"] is MonitorState.FAULTY
        assert fleet.fleet_state() is MonitorState.FAULTY
        assert fleet.task_states()["crashed"]["CT"] is MonitorState.FAULTY

    def test_fleet_state_change_events(self):
        fleet = Fleet()
        changes = []
        fleet.add_fleet_state_listener(changes.append)
        fleet.register("p", hyp_dict())
        for cycle in range(1, 10):
            fleet.tick(cycle * 10)
        assert changes
        assert changes[0].old_state is MonitorState.OK
        assert changes[-1].new_state is MonitorState.FAULTY
        assert any("p.T" in change.faulty_tasks for change in changes
                   if change.new_state is MonitorState.FAULTY)
        assert fleet.state_changes == changes

    def test_detections_forwarded_with_registration_name(self):
        fleet = Fleet(shards=3)
        seen = []
        fleet.add_detection_listener(lambda name, e: seen.append(name))
        fleet.register("a", hyp_dict(prefix="a."))
        fleet.register("b", hyp_dict(prefix="b."))
        for cycle in range(1, 4):
            fleet.tick(cycle * 10)
        assert set(seen) == {"a", "b"}

    def test_attach_fmf_records_faults(self):
        from repro.platform.fmf import FaultManagementFramework

        fleet = Fleet()
        fmf = FaultManagementFramework()  # observe-only: no ECU actions
        fleet.attach_fmf(fmf)
        fleet.register("p", hyp_dict())
        for cycle in range(1, 10):
            fleet.tick(cycle * 10)
        assert fmf.fault_log
        categories = {record.category for record in fmf.fault_log}
        assert "aliveness" in categories
        assert "task_faulty" in categories

    def test_stats(self):
        fleet = Fleet(shards=2)
        fleet.register("p", hyp_dict())
        fleet.heartbeat("p", "sense", 1, "T")
        fleet.task_start("p", "T")
        fleet.tick(10)
        stats = fleet.stats()
        assert stats["shards"] == 2
        assert stats["registrations"] == 1
        assert stats["indications"] == 1
        assert stats["task_starts"] == 1
        assert stats["ticks"] == 1

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            Fleet(shards=0)
