"""Tests for the OSEK scheduler: dispatch, preemption, services."""

import pytest

from repro.kernel import (
    AlarmTable,
    Kernel,
    KernelConfigError,
    Runnable,
    Segment,
    StatusType,
    Task,
    TaskState,
    TraceKind,
    Wait,
    ms,
    runnable_sequence_body,
)


def simple_task(kernel, name, priority, duration, **kwargs):
    """A one-segment task."""

    def body(task):
        yield Segment(duration, label=f"{name}:work")

    return kernel.add_task(Task(name, priority, body, **kwargs))


class TestConfiguration:
    def test_duplicate_task_rejected(self, kernel):
        simple_task(kernel, "A", 1, 10)
        with pytest.raises(KernelConfigError):
            simple_task(kernel, "A", 2, 10)

    def test_negative_priority_rejected(self, kernel):
        with pytest.raises(KernelConfigError):
            Task("bad", -1, lambda t: iter(()))

    def test_extended_task_single_activation(self):
        with pytest.raises(KernelConfigError):
            Task("bad", 1, lambda t: iter(()), extended=True, max_activations=2)

    def test_no_tasks_after_start(self, kernel):
        kernel.start()
        with pytest.raises(KernelConfigError):
            simple_task(kernel, "late", 1, 10)


class TestBasicExecution:
    def test_activation_runs_to_termination(self, kernel):
        task = simple_task(kernel, "A", 1, 100)
        kernel.activate_task("A")
        kernel.run_until(1_000)
        assert task.state is TaskState.SUSPENDED
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "A") == 1
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "A").time == 100

    def test_unknown_task_activation(self, kernel):
        assert kernel.activate_task("nope") is StatusType.E_OS_ID

    def test_activation_limit(self, kernel):
        simple_task(kernel, "A", 1, 1_000_000)
        kernel.start()
        assert kernel.activate_task("A") is StatusType.E_OK
        assert kernel.activate_task("A") is StatusType.E_OS_LIMIT

    def test_multiple_activations_queue(self, kernel):
        def body(task):
            yield Segment(10)

        kernel.add_task(Task("A", 1, body, max_activations=3))
        kernel.start()
        for _ in range(3):
            assert kernel.activate_task("A") is StatusType.E_OK
        kernel.run_until(1_000)
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "A") == 3

    def test_autostart(self, kernel):
        simple_task(kernel, "A", 1, 10, autostart=True)
        kernel.run_until(100)
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "A") == 1

    def test_idle_advances_clock_to_end(self, kernel):
        kernel.run_until(5_000)
        assert kernel.clock.now == 5_000

    def test_zero_duration_segment(self, kernel):
        fired = []

        def body(task):
            yield Segment(0, on_start=lambda: fired.append("s"),
                          on_end=lambda: fired.append("e"))

        kernel.add_task(Task("Z", 1, body))
        kernel.activate_task("Z")
        kernel.run_until(10)
        assert fired == ["s", "e"]

    def test_event_scheduled_now_by_segment_start_fires(self, kernel):
        """A segment's on_start may schedule an event for the current
        instant: it fires, and the run goes on to the horizon."""
        fired = []

        def on_start():
            kernel.queue.schedule(
                kernel.clock.now, lambda: fired.append(("now", kernel.clock.now)))

        def body(task):
            yield Segment(10, on_start=on_start)

        kernel.add_task(Task("T", 1, body, autostart=True))
        kernel.queue.schedule(5, lambda: fired.append(("at5", kernel.clock.now)))
        kernel.run_until(100)
        assert fired == [("now", 0), ("at5", 5)]
        assert kernel.task_cpu_ticks["T"] == 10
        assert kernel.task_state("T") is TaskState.SUSPENDED


class TestPreemption:
    def test_higher_priority_preempts(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(10))
        simple_task(kernel, "High", 5, ms(2))
        alarms.alarm_activate_task("L", "Low").set_rel(ms(1))
        alarms.alarm_activate_task("H", "High").set_rel(ms(5))
        kernel.run_until(ms(30))
        assert low.preemption_count == 1
        # Low loses 2ms to High: terminates at 1 + 10 + 2 = 13ms.
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "Low").time == ms(13)
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "High").time == ms(7)

    def test_equal_priority_fifo(self, kernel, alarms):
        simple_task(kernel, "A", 3, ms(5))
        simple_task(kernel, "B", 3, ms(5))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(1))
        alarms.alarm_activate_task("AB", "B").set_rel(ms(2))
        kernel.run_until(ms(30))
        # B activated while A runs; equal priority does not preempt.
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "A").time == ms(6)
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "B").time == ms(11)

    def test_non_preemptable_runs_to_completion(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(10), preemptable=False)
        simple_task(kernel, "High", 5, ms(2))
        alarms.alarm_activate_task("L", "Low").set_rel(ms(1))
        alarms.alarm_activate_task("H", "High").set_rel(ms(5))
        kernel.run_until(ms(30))
        assert low.preemption_count == 0
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "Low").time == ms(11)
        # High waits for Low to finish.
        assert kernel.trace.last(TraceKind.TASK_TERMINATE, "High").time == ms(13)

    def test_preempted_task_resumes_before_equal_priority(self, kernel, alarms):
        """A preempted task stays at the head of its priority queue."""
        order = []

        def make_body(tag, duration):
            def body(task):
                yield Segment(duration, on_end=lambda: order.append(tag))

            return body

        kernel.add_task(Task("P1", 2, make_body("P1", ms(6))))
        kernel.add_task(Task("P2", 2, make_body("P2", ms(2))))
        kernel.add_task(Task("Hi", 9, make_body("Hi", ms(1))))
        alarms_ = AlarmTable(kernel)
        alarms_.alarm_activate_task("a1", "P1").set_rel(ms(1))
        alarms_.alarm_activate_task("a2", "P2").set_rel(ms(2))  # queued behind P1
        alarms_.alarm_activate_task("ah", "Hi").set_rel(ms(3))  # preempts P1
        kernel.run_until(ms(30))
        assert order == ["Hi", "P1", "P2"]


class TestEventsAndWaiting:
    def test_wait_and_set_event(self, kernel):
        progress = []

        def body(task):
            progress.append("before")
            yield Wait(0x1)
            progress.append("after")
            yield Segment(10)

        kernel.add_task(Task("Ext", 2, body, extended=True))
        kernel.activate_task("Ext")
        kernel.run_until(100)
        assert progress == ["before"]
        assert kernel.task_state("Ext") is TaskState.WAITING
        kernel.set_event("Ext", 0x1)
        kernel.run_until(300)
        assert progress == ["before", "after"]
        assert kernel.task_state("Ext") is TaskState.SUSPENDED

    def test_wait_returns_immediately_if_event_set(self, kernel):
        def body(task):
            yield Segment(10)
            yield Wait(0x2)
            yield Segment(10)

        kernel.add_task(Task("Ext", 2, body, extended=True))
        kernel.activate_task("Ext")
        kernel.run_until(5)
        kernel.set_event("Ext", 0x2)
        kernel.run_until(100)
        assert kernel.task_state("Ext") is TaskState.SUSPENDED

    def test_set_event_on_suspended_task_errors(self, kernel):
        kernel.add_task(Task("Ext", 2, lambda t: iter(()), extended=True))
        kernel.start()
        assert kernel.set_event("Ext", 1) is StatusType.E_OS_STATE

    def test_set_event_on_basic_task_errors(self, kernel):
        simple_task(kernel, "Basic", 1, 10)
        kernel.activate_task("Basic")
        assert kernel.set_event("Basic", 1) is StatusType.E_OS_ACCESS

    def test_wait_in_basic_task_errors(self, kernel):
        def body(task):
            yield Wait(0x1)

        kernel.add_task(Task("Basic", 1, body))
        kernel.activate_task("Basic")
        kernel.run_until(100)
        assert kernel.trace.count(TraceKind.SERVICE_ERROR) >= 1

    def test_clear_event(self, kernel):
        task = Task("Ext", 2, lambda t: iter(()), extended=True)
        kernel.add_task(task)
        kernel.start()
        kernel.activate_task("Ext")
        kernel.set_event("Ext", 0x5)
        kernel.clear_event(task, 0x1)
        assert kernel.get_event("Ext") == 0x4


class TestResources:
    def test_priority_ceiling_raises_priority(self, kernel):
        holder = {}

        def body(task):
            def grab():
                kernel.get_resource(task, "R")
                holder["prio"] = task.dynamic_priority

            def release():
                kernel.release_resource(task, "R")

            yield Segment(10, on_start=grab)
            yield Segment(10, on_end=release)

        task = kernel.add_task(Task("A", 1, body))
        simple_task(kernel, "B", 5, 10)
        kernel.add_resource("R", ceiling=7)
        kernel.activate_task("A")
        kernel.run_until(100)
        assert holder["prio"] == 7
        assert task.dynamic_priority == 1

    def test_ceiling_blocks_preemption(self, kernel, alarms):
        """A task holding a resource with high ceiling is not preempted
        by a medium-priority task."""

        def body(task):
            def grab():
                kernel.get_resource(task, "R")

            def release():
                kernel.release_resource(task, "R")

            yield Segment(ms(1), on_start=grab)
            yield Segment(ms(8))
            yield Segment(ms(1), on_end=release)

        low = kernel.add_task(Task("Low", 1, body))
        simple_task(kernel, "Mid", 5, ms(2))
        kernel.add_resource("R", ceiling=6)
        alarms.alarm_activate_task("L", "Low").set_rel(ms(1))
        alarms.alarm_activate_task("M", "Mid").set_rel(ms(3))
        kernel.run_until(ms(30))
        # Mid (prio 5) was held off for the whole critical section: it
        # only starts once Low releases R at ms(11).
        assert kernel.trace.first(TraceKind.TASK_START, "Mid").time >= ms(11)
        # Low's actual work (its last segment) completed before Mid ran.
        low_segments_done = kernel.trace.last(TraceKind.RESOURCE_RELEASE, "R")
        assert low_segments_done.time == ms(11)

    def test_double_get_rejected(self, kernel):
        task = simple_task(kernel, "A", 1, 10)
        kernel.add_resource("R")
        kernel.start()
        assert kernel.get_resource(task, "R") is StatusType.E_OK
        assert kernel.get_resource(task, "R") is StatusType.E_OS_ACCESS

    def test_release_by_non_holder_rejected(self, kernel):
        a = simple_task(kernel, "A", 1, 10)
        b = simple_task(kernel, "B", 1, 10)
        kernel.add_resource("R")
        kernel.start()
        kernel.get_resource(a, "R")
        assert kernel.release_resource(b, "R") is StatusType.E_OS_NOFUNC

    def test_default_ceiling_is_max_priority(self, kernel):
        simple_task(kernel, "A", 3, 10)
        simple_task(kernel, "B", 8, 10)
        resource = kernel.add_resource("R")
        assert resource.ceiling == 8

    def test_terminate_holding_resource_reports_and_releases(self, kernel):
        def body(task):
            yield Segment(10, on_end=lambda: kernel.get_resource(task, "R"))

        kernel.add_task(Task("Leaky", 1, body))
        kernel.add_resource("R", ceiling=5)
        kernel.activate_task("Leaky")
        kernel.run_until(100)
        assert kernel.resources["R"].holder is None
        errors = kernel.trace.filter(kind=TraceKind.SERVICE_ERROR)
        assert any("E_OS_RESOURCE" in str(r.info.get("status")) for r in errors)


class TestChainTask:
    def test_chain_activates_target_on_termination(self, kernel):
        def body(task):
            yield Segment(10, on_end=lambda: kernel.chain_task(task, "Next"))

        kernel.add_task(Task("First", 2, body))
        simple_task(kernel, "Next", 2, 10)
        kernel.activate_task("First")
        kernel.run_until(100)
        assert kernel.trace.count(TraceKind.TASK_TERMINATE, "Next") == 1

    def test_chain_unknown_target(self, kernel):
        task = simple_task(kernel, "A", 1, 10)
        assert kernel.chain_task(task, "ghost") is StatusType.E_OS_ID


class TestForceTerminate:
    def test_force_terminate_ready_task(self, kernel, alarms):
        simple_task(kernel, "Low", 1, ms(50))
        kernel.activate_task("Low")
        kernel.run_until(ms(5))  # mid-segment... Low is running now
        # force_terminate of the running task is refused
        assert kernel.force_terminate("Low") is StatusType.E_OS_STATE

    def test_force_terminate_suspended_task_ok(self, kernel):
        simple_task(kernel, "A", 1, 10)
        kernel.start()
        assert kernel.force_terminate("A") is StatusType.E_OK

    def test_force_terminate_unknown(self, kernel):
        assert kernel.force_terminate("ghost") is StatusType.E_OS_ID

    def test_force_terminate_clears_pending_activations(self, kernel, alarms):
        low = simple_task(kernel, "Low", 1, ms(30))
        hi = simple_task(kernel, "Hi", 9, ms(1))

        def killer():
            kernel.force_terminate("Low")

        kernel.activate_task("Low")
        kernel.run_until(ms(2))
        kernel.queue.schedule(ms(5), killer)
        # When the event fires, Hi is not involved; Low is running -> the
        # call is made from kernel context while Low is current: refused.
        kernel.run_until(ms(10))
        # Low kept running because it was the running task at the instant.
        assert low.state is not None  # smoke: no crash


class TestTaskHooks:
    def test_activation_and_termination_hooks_see_only_their_task(self, kernel):
        simple_task(kernel, "A", 1, 10)
        simple_task(kernel, "B", 2, 10)
        seen = []

        def note(kind):
            # The hook runs once the occurrence is traced.
            return lambda name: seen.append(
                (kind, name, kernel.clock.now, kernel.trace[-1].kind))

        kernel.hooks.task_activated["A"] = [note("activate")]
        kernel.hooks.task_terminated["A"] = [note("terminate")]
        kernel.activate_task("A")
        kernel.activate_task("B")
        kernel.run_until(100)
        assert seen == [
            ("activate", "A", 0, TraceKind.TASK_ACTIVATE),
            ("terminate", "A", 20, TraceKind.TASK_TERMINATE),
        ]

    def test_forced_termination_runs_the_termination_hook(self, kernel):
        simple_task(kernel, "A", 1, 10)
        kernel.start()
        seen = []
        kernel.hooks.task_terminated["A"] = [seen.append]
        assert kernel.force_terminate("A") is StatusType.E_OK
        assert seen == ["A"]


class TestShutdownAndReset:
    def test_shutdown_stops_dispatching(self, kernel, alarms):
        simple_task(kernel, "A", 1, ms(1))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(1), ms(1))
        kernel.queue.schedule(ms(5), kernel.shutdown_os)
        kernel.run_until(ms(100))
        assert kernel.clock.now <= ms(6)

    def test_soft_reset_restores_pristine_state(self, kernel, alarms):
        task = simple_task(kernel, "A", 1, ms(2), autostart=True)
        kernel.run_until(ms(1))
        kernel.soft_reset()
        assert task.state in (TaskState.READY, TaskState.RUNNING)  # autostart again
        assert kernel.reset_count == 1
        assert kernel.trace.count(TraceKind.ECU_RESET) == 1

    def test_soft_reset_clears_event_queue(self, kernel):
        fired = []
        kernel.queue.schedule(ms(10), lambda: fired.append(1))
        kernel.soft_reset()
        kernel.run_until(ms(20))
        assert fired == []


class TestAccounting:
    def test_utilization(self, kernel, alarms):
        simple_task(kernel, "A", 1, ms(2))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(10), ms(10))
        kernel.run_until(ms(100))
        assert kernel.utilization() == pytest.approx(0.18, abs=0.03)

    def test_per_task_cpu(self, kernel, alarms):
        simple_task(kernel, "A", 1, ms(3))
        alarms.alarm_activate_task("AA", "A").set_rel(ms(10), ms(10))
        kernel.run_until(ms(50))
        assert kernel.task_cpu_ticks["A"] == 4 * ms(3)

    def test_task_state_query_unknown(self, kernel):
        from repro.kernel import ServiceError

        with pytest.raises(ServiceError):
            kernel.task_state("ghost")
