"""Synchronous supervision core of the live service.

The asyncio daemon (:mod:`repro.service.server`) is deliberately a thin
transport: every supervision decision lives here, in plain synchronous
code, so the differential test can drive the exact same objects without
an event loop and pin the service path bit-for-bit to the in-process
path.

A :class:`SupervisorShard` owns the registrations assigned to it.  Each
registration wraps one wheel-strategy
:class:`~repro.core.watchdog.SoftwareWatchdog` built from the
client-submitted fault hypothesis — the same construction an embedded
integrator would use in-process, so detections, thresholds and
task-state rollups are byte-identical to local supervision.  REGISTER
runs the hypothesis through wdlint (:func:`repro.lint.lint_hypothesis`);
error-severity diagnostics always reject, ``strict`` mode also rejects
warnings (the ``--strict`` serve flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.config_io import hypothesis_from_dict
from ..core.hypothesis import FaultHypothesis, HypothesisError
from ..core.reports import RunnableError, TaskFaultEvent
from ..core.watchdog import BatchResult, SoftwareWatchdog
# wdlint is imported with this module, not at the first REGISTER: the
# import takes milliseconds, which the event loop cannot spare.
# ``lint_hypothesis`` is looked up on the package at call time, so a
# wrapper installed on ``repro.lint.lint_hypothesis`` sees every call.
from .. import lint
from ..lint import Severity

__all__ = [
    "Registration",
    "RegistrationError",
    "SupervisorShard",
    "build_watchdog",
]

#: Detection callback: ``(registration name, error)``.
DetectionListener = Callable[[str, RunnableError], None]
TaskFaultListener = Callable[[str, TaskFaultEvent], None]


class RegistrationError(ValueError):
    """A REGISTER frame was rejected; carries the human-readable reasons."""

    def __init__(self, reasons: List[str]) -> None:
        super().__init__("; ".join(reasons))
        self.reasons = list(reasons)


def build_watchdog(
    name: str,
    hypothesis: FaultHypothesis,
    *,
    app_of_task: Optional[Dict[str, str]] = None,
    telemetry=None,
    event_sink=None,
) -> SoftwareWatchdog:
    """The one watchdog construction both supervision paths share.

    The differential test builds its in-process reference watchdog
    through this same function, so a knob added here (strategy, eager
    mode, ...) can never silently diverge the two paths.  ``lint="off"``
    because the service lints explicitly on REGISTER — it needs the
    structured report for the ACK, not a warning on the server's stderr.
    """
    return SoftwareWatchdog(
        hypothesis,
        name=name,
        app_of_task=app_of_task,
        check_strategy="wheel",
        lint="off",
        telemetry=telemetry,
        event_sink=event_sink,
    )


@dataclass
class Registration:
    """One registered client hypothesis and its supervision state."""

    name: str
    shard_index: int
    hypothesis: FaultHypothesis
    hypothesis_dict: Dict[str, Any]
    watchdog: SoftwareWatchdog
    #: The runnable→task application mapping submitted with REGISTER
    #: (kept so the registration can be journaled and rebuilt verbatim).
    app_of_task: Optional[Dict[str, str]] = None
    lint_diagnostics: List[str] = field(default_factory=list)
    #: False after a graceful BYE (monitoring deactivated, state kept).
    active: bool = True
    #: True while a client connection is bound to this registration.
    connected: bool = False
    indications: int = 0
    task_starts: int = 0
    detections: int = 0

    def deactivate(self) -> None:
        """Graceful departure: switch every runnable's Activation Status
        off so the silence that follows is not misread as a crash."""
        self.active = False
        for runnable in self.hypothesis.runnables:
            self.watchdog.set_activation_status(runnable, False)

    def reactivate(self) -> None:
        """Rebind after BYE or reconnect: restore the hypothesis's
        configured Activation Status per runnable."""
        self.active = True
        for runnable, hyp in self.hypothesis.runnables.items():
            self.watchdog.set_activation_status(runnable, hyp.active)


class SupervisorShard:
    """The registrations of one shard plus their check-cycle driver.

    ``tick()`` iterates registrations in registration order — the
    deterministic order the differential test replays.
    """

    def __init__(
        self,
        index: int = 0,
        *,
        strict: bool = False,
        telemetry=None,
        event_sink=None,
    ) -> None:
        self.index = index
        self.strict = strict
        self.telemetry = telemetry
        self.event_sink = event_sink
        self.registrations: Dict[str, Registration] = {}
        self.processed = 0
        self.tick_count = 0
        self._detection_listeners: List[DetectionListener] = []
        self._task_fault_listeners: List[TaskFaultListener] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        hypothesis_dict: Dict[str, Any],
        *,
        app_of_task: Optional[Dict[str, str]] = None,
    ) -> Registration:
        """Admit one hypothesis; lint it; reject what lint rejects.

        Re-registering an existing name with a byte-identical hypothesis
        is a *rebind* (the reconnect path): the existing watchdog and its
        counters survive, monitoring is reactivated.  A different
        hypothesis under a taken name is rejected.
        """
        existing = self.registrations.get(name)
        if existing is not None:
            if existing.hypothesis_dict == hypothesis_dict:
                existing.reactivate()
                return existing
            raise RegistrationError(
                [f"registration name {name!r} is already in use "
                 "with a different hypothesis"]
            )
        try:
            hypothesis = hypothesis_from_dict(dict(hypothesis_dict))
        except (HypothesisError, KeyError, TypeError, ValueError) as exc:
            raise RegistrationError([f"invalid hypothesis: {exc}"]) from None
        diagnostics = self._lint(name, hypothesis)
        registration = Registration(
            name=name,
            shard_index=self.index,
            hypothesis=hypothesis,
            hypothesis_dict=dict(hypothesis_dict),
            watchdog=build_watchdog(
                name,
                hypothesis,
                app_of_task=app_of_task,
                telemetry=self.telemetry,
                event_sink=self.event_sink,
            ),
            app_of_task=dict(app_of_task) if app_of_task is not None else None,
            lint_diagnostics=diagnostics,
        )
        registration.watchdog.add_fault_listener(
            lambda error, _name=name: self._on_detection(_name, error)
        )
        registration.watchdog.add_task_fault_listener(
            lambda event, _name=name: self._on_task_fault(_name, event)
        )
        self.registrations[name] = registration
        return registration

    def _lint(self, name: str, hypothesis: FaultHypothesis) -> List[str]:
        report = lint.lint_hypothesis(hypothesis, source=name)
        rendered = [str(d) for d in report.diagnostics]
        errors = [
            str(d) for d in report.diagnostics if d.severity is Severity.ERROR
        ]
        if errors:
            raise RegistrationError(errors)
        if self.strict and rendered:
            raise RegistrationError(
                ["strict mode rejects lint warnings"] + rendered
            )
        return rendered

    def deregister(self, name: str) -> None:
        """Graceful BYE: deactivate, keep counters for a later rebind."""
        self.registrations[name].deactivate()

    # ------------------------------------------------------------------
    # the supervised interfaces
    # ------------------------------------------------------------------
    def heartbeat_batch(
        self,
        entry: Registration,
        batch: Iterable[Any],
        stamp: Optional[int] = None,
    ) -> BatchResult:
        """Apply one HEARTBEAT batch to ``entry``'s watchdog
        (:meth:`SoftwareWatchdog.heartbeat_batch`); the applied count is
        added to the bookkeeping once per batch."""
        result = entry.watchdog.heartbeat_batch(batch, stamp)
        entry.indications += result[0]
        self.processed += result[0]
        return result

    def task_start_batch(
        self, entry: Registration, batch: Iterable[Any]
    ) -> BatchResult:
        """Apply one FLOW batch (:meth:`SoftwareWatchdog.task_start_batch`)."""
        result = entry.watchdog.task_start_batch(batch)
        entry.task_starts += result[0]
        self.processed += result[0]
        return result

    def heartbeat(
        self,
        registration: str,
        runnable: str,
        time: int,
        task: Optional[str] = None,
    ) -> Optional[BatchResult]:
        """One indication: a one-entry :meth:`heartbeat_batch` (``None``
        for an unknown registration)."""
        entry = self.registrations.get(registration)
        if entry is None:
            return None
        return self.heartbeat_batch(entry, ((runnable, time, task),))

    def task_start(
        self, registration: str, task: str
    ) -> Optional[BatchResult]:
        """One task start: a one-entry :meth:`task_start_batch`."""
        entry = self.registrations.get(registration)
        if entry is None:
            return None
        return self.task_start_batch(entry, ((task, None),))

    def tick(self, time: int) -> List[Tuple[str, RunnableError]]:
        """One check cycle over every registration of this shard."""
        self.tick_count += 1
        errors: List[Tuple[str, RunnableError]] = []
        for entry in self.registrations.values():
            for error in entry.watchdog.check_cycle(time):
                errors.append((entry.name, error))
        return errors

    # ------------------------------------------------------------------
    # persistence (the restartable daemon's snapshot/restore pair)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-compatible shard state: every registration's
        hypothesis, bookkeeping counters, and its watchdog's complete
        monitoring state (:meth:`SoftwareWatchdog.snapshot_state`)."""
        return {
            "index": self.index,
            "processed": self.processed,
            "tick_count": self.tick_count,
            "registrations": [
                {
                    "name": entry.name,
                    "hypothesis": dict(entry.hypothesis_dict),
                    "app_of_task": (
                        dict(entry.app_of_task)
                        if entry.app_of_task is not None else None
                    ),
                    "active": entry.active,
                    "indications": entry.indications,
                    "task_starts": entry.task_starts,
                    "detections": entry.detections,
                    "watchdog": entry.watchdog.snapshot_state(),
                }
                for entry in self.registrations.values()
            ],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild every registration from a :meth:`snapshot` capture.

        Each registration is re-admitted through :meth:`register` (so
        listeners are wired exactly like a live REGISTER would) and then
        its watchdog state is overwritten with the captured one —
        including counters mid-window, declared-faulty tasks and the
        wheel deadlines — so supervision resumes where the dead daemon
        left off.  The shard must be empty.
        """
        if self.registrations:
            raise ValueError("restore() needs an empty shard")
        self.processed = int(state["processed"])
        self.tick_count = int(state["tick_count"])
        for record in state["registrations"]:
            entry = self.register(
                record["name"],
                record["hypothesis"],
                app_of_task=record["app_of_task"],
            )
            entry.watchdog.restore_state(record["watchdog"])
            # The Activation Status flags came back with the counter
            # block; only the bookkeeping flag needs setting (calling
            # deactivate() here would wrongly re-zero the counters).
            entry.active = bool(record["active"])
            entry.connected = False
            entry.indications = int(record["indications"])
            entry.task_starts = int(record["task_starts"])
            entry.detections = int(record["detections"])

    # ------------------------------------------------------------------
    # rollups and listeners
    # ------------------------------------------------------------------
    def add_detection_listener(self, listener: DetectionListener) -> None:
        self._detection_listeners.append(listener)

    def add_task_fault_listener(self, listener: TaskFaultListener) -> None:
        self._task_fault_listeners.append(listener)

    def _on_detection(self, registration: str, error: RunnableError) -> None:
        self.registrations[registration].detections += 1
        for listener in self._detection_listeners:
            listener(registration, error)

    def _on_task_fault(self, registration: str, event: TaskFaultEvent) -> None:
        for listener in self._task_fault_listeners:
            listener(registration, event)

    def task_states(self) -> Dict[str, Dict[str, Any]]:
        """Per-registration task-state map (the shard's rollup input)."""
        return {
            name: {
                task: entry.watchdog.task_state(task)
                for task in entry.hypothesis.tasks()
            }
            for name, entry in self.registrations.items()
        }
