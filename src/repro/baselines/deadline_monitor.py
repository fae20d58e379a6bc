"""OSEKtime-style deadline monitoring baseline (task granularity).

"Deadline monitoring of the OSEKtime operating system ... introduce[s]
the time monitoring of tasks, but the granularity of fault detection on
the layer of tasks is not fine enough for runnables" (§2).

The monitor hooks the kernel's activation and termination of each
monitored task (``Hooks.task_activated`` / ``task_terminated``): every
activation arms a deadline; the matching termination disarms it.  A
deadline that fires before termination is a violation.  What this
catches: a hung or overrunning *task*.  What it structurally cannot
catch: a single skipped runnable inside a task that still terminates on
time, a wrong execution order, or an arrival-rate fault of an individual
runnable — the blind spots the Software Watchdog addresses.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from ..kernel.scheduler import Kernel
from ..kernel.tracing import TraceKind


class DeadlineMonitor:
    """Per-task activation deadline supervision."""

    def __init__(self, kernel: Kernel, *, name: str = "DeadlineMonitor") -> None:
        self.kernel = kernel
        self.name = name
        #: task → relative deadline (ticks from activation).
        self.deadlines: Dict[str, int] = {}
        self.violation_times: List[int] = []
        self.violations_by_task: Dict[str, int] = {}
        self._armed: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def monitor(self, task: str, deadline: int) -> None:
        """Supervise a task with the given relative deadline."""
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        if task not in self.deadlines:
            hooks = self.kernel.hooks
            hooks.task_activated.setdefault(task, []).append(self._arm)
            hooks.task_terminated.setdefault(task, []).append(self._disarm)
        self.deadlines[task] = deadline

    # ------------------------------------------------------------------
    def _arm(self, task: str) -> None:
        if task in self._armed:
            return  # already supervising the outstanding activation
        deadline = self.deadlines[task]
        event = self.kernel.queue.schedule(
            self.kernel.clock.now + deadline,
            lambda: self._expire(task),
            label=f"deadline:{task}",
            persistent=True,
        )
        self._armed[task] = event

    def _disarm(self, task: str) -> None:
        event = self._armed.pop(task, None)
        if event is not None:
            event.cancel()

    def _expire(self, task: str) -> None:
        self._armed.pop(task, None)
        now = self.kernel.clock.now
        self.violation_times.append(now)
        self.violations_by_task[task] = self.violations_by_task.get(task, 0) + 1
        self.kernel.trace.record(
            now, TraceKind.CUSTOM, self.name, event="deadline_miss", task=task
        )

    # ------------------------------------------------------------------
    @property
    def violation_count(self) -> int:
        return len(self.violation_times)

    def first_detection_after(self, time: int) -> Optional[int]:
        """Campaign detector interface: earliest violation at or after
        ``time`` (``violation_times`` is in simulation-time order)."""
        times = self.violation_times
        index = bisect_left(times, time)
        return times[index] if index < len(times) else None
