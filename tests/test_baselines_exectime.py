"""Tests for the AUTOSAR-OS execution time monitor baseline."""

import pytest

from repro.baselines import ExecutionTimeMonitor
from repro.core import ErrorType
from repro.faults import FaultTarget, LoopCountFault, SkipRunnableFault
from repro.kernel import Segment, Task, ms, seconds
from repro.platform import Ecu, FmfPolicy

from testutil import make_safespeed_mapping, periodic_task


class TestBasicOperation:
    def test_within_budget_clean(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(2)])
        monitor = ExecutionTimeMonitor(kernel)
        monitor.monitor("T", budget=ms(3))
        kernel.run_until(seconds(1))
        assert monitor.violation_count == 0

    def test_over_budget_flagged_at_termination(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(20), [ms(6)])
        monitor = ExecutionTimeMonitor(kernel)
        monitor.monitor("T", budget=ms(3))
        kernel.run_until(ms(100))
        assert monitor.violations_by_task["T"] >= 4

    def test_infinite_loop_caught_by_probe(self, kernel):
        """A task that never terminates is caught mid-flight."""

        def spin(task):
            while True:
                yield Segment(ms(5))

        kernel.add_task(Task("Spin", 5, spin))
        monitor = ExecutionTimeMonitor(kernel, probe_period=ms(1))
        monitor.monitor("Spin", budget=ms(10))
        kernel.activate_task("Spin")
        kernel.run_until(ms(100))
        assert monitor.violation_count == 1
        assert monitor.violation_times[0] <= ms(12)

    def test_one_flag_per_activation(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(50), [ms(10)])
        monitor = ExecutionTimeMonitor(kernel, probe_period=ms(1))
        monitor.monitor("T", budget=ms(3))
        kernel.run_until(ms(99))  # exactly one activation (at 50 ms)
        assert monitor.violation_count == 1  # probe + terminate = still 1

    def test_invalid_parameters(self, kernel):
        monitor = ExecutionTimeMonitor(kernel)
        with pytest.raises(ValueError):
            monitor.monitor("T", budget=0)
        with pytest.raises(ValueError):
            ExecutionTimeMonitor(kernel, probe_period=0)

    def test_budget_excludes_preemption_time(self, kernel, alarms):
        """Execution-time monitoring budgets CPU time, not response
        time: a heavily preempted task within budget is not flagged."""
        periodic_task(kernel, alarms, "Low", 2, ms(20), [ms(4)])
        periodic_task(kernel, alarms, "Hi", 9, ms(5), [ms(3)])
        monitor = ExecutionTimeMonitor(kernel)
        monitor.monitor("Low", budget=ms(5))
        kernel.run_until(seconds(1))
        # Low's response time is way over 5 ms, but its CPU use is 4 ms.
        assert monitor.violation_count == 0

    def test_detector_interface(self, kernel, alarms):
        periodic_task(kernel, alarms, "T", 5, ms(20), [ms(6)])
        monitor = ExecutionTimeMonitor(kernel)
        monitor.monitor("T", budget=ms(3))
        kernel.run_until(ms(60))
        assert monitor.first_detection_after(0) is not None
        times = monitor.violation_times
        assert len(times) >= 2
        for query in (0, times[0], times[0] + 1, times[-1], times[-1] + 1):
            later = [t for t in times if t >= query]
            assert monitor.first_detection_after(query) == (
                later[0] if later else None)

    def test_one_budget_check_per_activation(self, kernel, alarms):
        """The monitor arms one budget-expiry event per activation, not
        one probe per ``probe_period``."""
        periodic_task(kernel, alarms, "T", 5, ms(10), [ms(4)])
        monitor = ExecutionTimeMonitor(kernel, probe_period=ms(1))
        monitor.monitor("T", budget=ms(5))
        labels = []
        schedule = kernel.queue.schedule

        def counting_schedule(when, callback, label="", **kwargs):
            labels.append(label)
            return schedule(when, callback, label, **kwargs)

        kernel.queue.schedule = counting_schedule
        kernel.run_until(seconds(1))
        activations = kernel.tasks["T"].activation_count
        assert activations == 100
        assert labels.count(f"etm:{monitor.name}") == activations
        assert monitor.violation_count == 0


class TestGranularityBlindSpot:
    def test_runnable_repetition_caught_task_level_only(self):
        """A corrupted loop counter doubles the task's CPU: the budget
        monitor fires but cannot attribute beyond the task, while the
        Software Watchdog names the runnable."""
        ecu = Ecu(
            "central",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                 max_app_restarts=10**9),
        )
        monitor = ExecutionTimeMonitor(ecu.kernel)
        monitor.monitor("SafeSpeedTask", budget=ms(5))  # nominal 4 ms
        ecu.run_until(ms(200))
        LoopCountFault("SAFE_CC_process", repeat=3).inject(FaultTarget.from_ecu(ecu))
        ecu.run_until(ecu.now + seconds(1))
        assert monitor.violation_count > 0  # 8 ms > 5 ms budget
        detected = ecu.watchdog.detected_per_runnable.get("SAFE_CC_process", {})
        assert detected.get(ErrorType.ARRIVAL_RATE, 0) > 0

    def test_skipped_runnable_invisible(self):
        """Doing too little is invisible to a budget monitor."""
        ecu = Ecu(
            "central",
            make_safespeed_mapping(),
            watchdog_period=ms(10),
            fmf_policy=FmfPolicy(ecu_faulty_task_threshold=99,
                                 max_app_restarts=10**9),
        )
        monitor = ExecutionTimeMonitor(ecu.kernel)
        monitor.monitor("SafeSpeedTask", budget=ms(5))
        ecu.run_until(ms(200))
        SkipRunnableFault("SafeSpeedTask", "SAFE_CC_process").inject(
            FaultTarget.from_ecu(ecu)
        )
        ecu.run_until(ecu.now + seconds(1))
        assert monitor.violation_count == 0
        assert ecu.watchdog.detection_count(ErrorType.PROGRAM_FLOW) > 0
