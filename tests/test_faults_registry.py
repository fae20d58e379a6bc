"""Tests for the picklable run-spec registry."""

import pickle

import pytest

from repro.faults import (
    BlockedRunnableFault,
    FaultSpec,
    RunSpec,
    SystemSpec,
    register_fault,
    register_system,
    registered_faults,
    registered_systems,
)
from repro.faults.registry import execute_chunk, execute_run
from repro.kernel import ms


class TestRegistries:
    def test_builtin_faults_registered(self):
        names = registered_faults()
        for expected in ("blocked", "time_scalar", "loop_count", "skip",
                         "invalid_branch", "hb_corrupt", "hb_omit",
                         "isr_storm", "runaway"):
            assert expected in names

    def test_builtin_systems_registered(self):
        names = registered_systems()
        assert "coverage" in names
        assert "latency" in names

    def test_register_decorator(self):
        @register_fault("test_only_blocked")
        def build(system, runnable):
            return BlockedRunnableFault(runnable)

        assert "test_only_blocked" in registered_faults()
        fault = FaultSpec.of("test_only_blocked", runnable="X").build(None)
        assert isinstance(fault, BlockedRunnableFault)

    def test_unknown_names_raise_with_listing(self):
        with pytest.raises(KeyError, match="nope.*registered"):
            SystemSpec.of("nope").build()
        with pytest.raises(KeyError, match="nope.*registered"):
            FaultSpec.of("nope").build(None)


class TestSpecs:
    def test_fault_spec_is_a_fault_factory(self):
        spec = FaultSpec.of("blocked", runnable="SAFE_CC_process")
        fault = spec(None)
        assert isinstance(fault, BlockedRunnableFault)
        assert fault.runnable == "SAFE_CC_process"

    def test_params_order_insensitive_and_hashable(self):
        a = FaultSpec.of("time_scalar", task="T", scalar=4.0)
        b = FaultSpec.of("time_scalar", scalar=4.0, task="T")
        assert a == b
        assert hash(a) == hash(b)

    def test_specs_pickle_round_trip(self):
        run = RunSpec(
            system=SystemSpec.of("latency", eager=True, check_strategy="scan"),
            fault=FaultSpec.of("loop_count", runnable="R", repeat=4),
            warmup=ms(300),
            observation=ms(500),
            transient_duration=ms(100),
            seed=7,
        )
        assert pickle.loads(pickle.dumps(run)) == run

    def test_system_spec_builds_campaign_system(self):
        system = SystemSpec.of("coverage").build()
        assert [d.name for d in system.detectors][0] == "SoftwareWatchdog"


class TestExecuteRun:
    def test_execute_run_matches_chunk(self):
        spec = RunSpec(
            system=SystemSpec.of("coverage"),
            fault=FaultSpec.of("blocked", runnable="SAFE_CC_process"),
            warmup=ms(300),
            observation=ms(500),
        )
        single = execute_run(spec)
        chunked, durations = execute_chunk([spec, spec])
        assert chunked == [single, single]
        assert len(durations) == 2
        assert all(seconds > 0.0 for seconds in durations)
        assert single.detected_by("SoftwareWatchdog")
