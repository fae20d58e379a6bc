"""AUTOSAR-OS execution time monitoring baseline (task granularity).

"Execution time monitoring of AUTOSAR OS introduce[s] the time
monitoring of tasks" (§2): each task has an execution-time *budget* per
activation; exceeding it is a protection error.

The monitor reads the kernel's per-task CPU accounting.  At dispatch
(the pre-task hook) it arms one *budget-expiry* check, as an AUTOSAR OS
arms its execution-budget timer instead of sampling; at termination
(the post-task hook) it checks the activation's total.  The expiry check
catches an activation that overruns in flight, including one stuck in a
loop that never terminates.

Checks fall on a fixed detection grid, ``origin + k * probe_period``
(``k >= 1``), where ``origin`` is the time of the first :meth:`monitor`
call.  A task's CPU ticks grow by at most one per tick, and only while
it runs, so an activation that has used ``used`` of its ``budget`` at
time ``now`` cannot exceed it before ``now + (budget - used) + 1``.  The
check is armed at the first grid point at or after that instant.  If it
finds the task within budget (it was preempted in between), it re-arms
the same way.  Each activation bumps a per-task generation; a check
armed for an earlier activation does nothing when it fires.  A
violation is therefore flagged at the same grid point as if every grid
point were sampled, at a cost of about one event per activation.

The monitor remains blind to a task doing too little (a skipped
runnable) or running in the wrong internal order, which is the
granularity gap the paper's service fills.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from ..kernel.clock import ms
from ..kernel.scheduler import Kernel
from ..kernel.task import Task
from ..kernel.tracing import TraceKind


class ExecutionTimeMonitor:
    """Per-activation CPU budget supervision."""

    def __init__(
        self,
        kernel: Kernel,
        *,
        probe_period: int = ms(1),
        name: str = "ExecTimeMonitor",
    ) -> None:
        if probe_period <= 0:
            raise ValueError("probe_period must be > 0")
        self.kernel = kernel
        self.name = name
        #: Spacing of the detection grid that budget checks fall on.
        self.probe_period = probe_period
        #: task → budget ticks per activation.
        self.budgets: Dict[str, int] = {}
        #: task → CPU ticks at activation start.
        self._baseline: Dict[str, int] = {}
        #: task → already flagged for the current activation.
        self._flagged: Dict[str, bool] = {}
        #: task → generation of its current activation.
        self._generation: Dict[str, int] = {}
        #: Grid origin: the time of the first :meth:`monitor` call.
        self._origin: Optional[int] = None
        self.violation_times: List[int] = []
        self.violations_by_task: Dict[str, int] = {}
        kernel.hooks.pre_task.append(self._on_task_start)
        kernel.hooks.post_task.append(self._on_task_end)

    # ------------------------------------------------------------------
    def monitor(self, task: str, budget: int) -> None:
        """Supervise a task with the given per-activation CPU budget."""
        if budget <= 0:
            raise ValueError("budget must be > 0")
        self.budgets[task] = budget
        if self._origin is None:
            self._origin = self.kernel.clock.now
        if task in self._baseline and not self._flagged[task]:
            # A new budget for an activation in flight: re-arm against it.
            self._generation[task] += 1
            self._arm(task, self._generation[task])

    # ------------------------------------------------------------------
    def _on_task_start(self, kernel: Kernel, task: Task) -> None:
        name = task.name
        if name in self.budgets:
            self._baseline[name] = kernel.task_cpu_ticks[name]
            self._flagged[name] = False
            generation = self._generation.get(name, 0) + 1
            self._generation[name] = generation
            self._arm(name, generation)

    def _on_task_end(self, kernel: Kernel, task: Task) -> None:
        if task.name in self.budgets:
            self._check(task.name)
            self._baseline.pop(task.name, None)

    def _arm(self, task: str, generation: int) -> None:
        """Schedule the activation's next budget check on the grid."""
        kernel = self.kernel
        now = kernel.clock.now
        used = kernel.task_cpu_ticks[task] - self._baseline[task]
        # A budget lowered below ``used`` mid-activation is due at the
        # next grid point: the one at ``now``, if any, has already passed.
        earliest = max(now + self.budgets[task] - used + 1, now + 1)
        origin = self._origin
        period = self.probe_period
        steps = max(1, -(-(earliest - origin) // period))
        kernel.queue.schedule(
            origin + steps * period,
            lambda: self._expire(task, generation),
            label=f"etm:{self.name}",
            persistent=True,
        )

    def _expire(self, task: str, generation: int) -> None:
        if generation != self._generation[task] or task not in self._baseline:
            return  # armed for an earlier activation, or it terminated
        if not self._check(task):
            self._arm(task, generation)  # preempted meanwhile: not yet due

    def _check(self, task: str) -> bool:
        """Flag the activation if it is over budget; True if flagged now."""
        baseline = self._baseline.get(task)
        if baseline is None or self._flagged.get(task):
            return False
        used = self.kernel.task_cpu_ticks[task] - baseline
        if used <= self.budgets[task]:
            return False
        self._flagged[task] = True
        now = self.kernel.clock.now
        self.violation_times.append(now)
        self.violations_by_task[task] = self.violations_by_task.get(task, 0) + 1
        self.kernel.trace.record(
            now,
            TraceKind.CUSTOM,
            self.name,
            event="budget_exceeded",
            task=task,
            used=used,
        )
        return True

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
