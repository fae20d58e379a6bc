"""The Software Watchdog service facade (Figure 2 of the paper).

Wires the three basic units together:

* heartbeats from runnable glue code enter through
  :meth:`SoftwareWatchdog.heartbeat_indication` and feed **both** the
  heartbeat monitoring unit and the program flow checking unit (the
  paper derives the execution-sequence view from the same aliveness
  indication routines),
* both units report runnable errors into the task state indication
  unit, which aggregates, applies thresholds and derives task /
  application / ECU states,
* detected faults and task-fault events are forwarded to registered
  listeners — on the platform this is the Fault Management Framework.

The facade also keeps the cumulative detection counters the paper's
evaluation plots show (``AM Result``, ``ARM Result`` and ``PFC Result``
in Figures 5 and 6) and an optional per-cycle capture of every monitored
runnable's counter set.
"""

from __future__ import annotations

import warnings as _warnings
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..telemetry import (
    NULL_REGISTRY,
    NULL_SINK,
    KIND_DETECTION,
    KIND_ECU_STATE_CHANGE,
    KIND_LINT_WARNING,
    KIND_TASK_FAULT,
    TelemetryEvent,
)
from .counters import CounterHistory
from .flowcheck import _GLOBAL_STREAM, FlowTable, ProgramFlowCheckingUnit
from .heartbeat import HeartbeatMonitoringUnit, _TM_SYNC_INTERVAL
from .hypothesis import FaultHypothesis
from .reports import ErrorType, MonitorState, RunnableError, TaskFaultEvent
from .taskstate import TaskStateIndicationUnit

FaultListener = Callable[[RunnableError], None]
#: ``(applied, malformed, errors)`` of one indication batch: the entries
#: applied, the malformed entries skipped, the exceptions isolated.
BatchResult = Tuple[int, int, List[Exception]]


class SoftwareWatchdog:
    """The complete dependability software service of the paper."""

    def __init__(
        self,
        hypothesis: FaultHypothesis,
        *,
        name: str = "SoftwareWatchdog",
        eager_arrival_detection: bool = False,
        app_of_task: Optional[Dict[str, str]] = None,
        check_strategy: str = "wheel",
        lint: str = "warn",
        telemetry=None,
        event_sink=None,
    ) -> None:
        if lint not in ("error", "warn", "off"):
            raise ValueError(f"unknown lint mode {lint!r} "
                             "(expected 'error', 'warn' or 'off')")
        # Telemetry knobs mirror ``lint=``: optional, default inert.  The
        # registry fans out to the three units; the event sink receives
        # structured JSONL-able records for detections, task faults, ECU
        # state changes and lint warnings.
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        self.event_sink = event_sink if event_sink is not None else NULL_SINK
        self._tm_enabled = self.telemetry.enabled
        hypothesis.validate()
        if lint != "off":
            self._lint_hypothesis(hypothesis, mode=lint, source=name)
        self.name = name
        self.hypothesis = hypothesis
        task_of_runnable = {
            r: h.task for r, h in hypothesis.runnables.items() if h.task is not None
        }
        self.hbm = HeartbeatMonitoringUnit(
            hypothesis,
            eager_arrival_detection=eager_arrival_detection,
            strategy=check_strategy,
            telemetry=telemetry,
        )
        self.pfc = ProgramFlowCheckingUnit(
            FlowTable.from_hypothesis(hypothesis),
            task_attribution=task_of_runnable,
            telemetry=telemetry,
        )
        self.tsi = TaskStateIndicationUnit(
            hypothesis.thresholds,
            task_of_runnable=task_of_runnable,
            app_of_task=app_of_task,
            task_of_slot=[h.task for h in self.hbm._hyps],
            telemetry=telemetry,
        )
        self.hbm.add_listener(self._on_runnable_error)
        self.pfc.add_listener(self._on_runnable_error)
        #: Cumulative detections per error type (the y-values of the
        #: "AM Result" / "PFC Result" plots).
        self.detected: Dict[ErrorType, int] = {et: 0 for et in ErrorType}
        #: Cumulative detections per (runnable, error type).
        self.detected_per_runnable: Dict[str, Dict[ErrorType, int]] = {}
        self.check_cycle_count = 0
        self.history: Optional[CounterHistory] = None
        self._fault_listeners: List[FaultListener] = []
        self._tm_detections: Dict[ErrorType, object] = {}
        if self._tm_enabled:
            for et in ErrorType:
                self._tm_detections[et] = self.telemetry.counter(
                    "wd_detections_total",
                    "Detected runnable errors by error type",
                    error_type=et.value,
                )
        if self.event_sink.enabled:
            self.tsi.add_task_fault_listener(self._emit_task_fault_event)
            self.tsi.add_ecu_state_listener(self._emit_ecu_state_event)

    # ------------------------------------------------------------------
    def _lint_hypothesis(
        self, hypothesis: FaultHypothesis, *, mode: str, source: str
    ) -> None:
        """Construction-time wdlint pass (the ``lint=`` knob).

        ``"error"`` refuses to build a watchdog from a hypothesis with
        error-severity diagnostics; ``"warn"`` (the default) surfaces
        every diagnostic as a :class:`~repro.lint.LintWarning` and
        proceeds.  Configuration-only analyses run here — the WD3xx
        schedule cross-checks need the task mapping, which the service
        facade deliberately does not know (lint deployments against it
        via ``python -m repro lint`` or :func:`repro.lint.lint_hypothesis`).
        """
        from ..lint import LintError, LintWarning, lint_hypothesis

        report = lint_hypothesis(hypothesis, source=source)
        if mode == "error" and not report.ok:
            raise LintError(report)
        for diagnostic in report.diagnostics:
            _warnings.warn(str(diagnostic), LintWarning, stacklevel=3)
            if self.event_sink.enabled:
                self.event_sink.emit(TelemetryEvent(
                    time=0,
                    kind=KIND_LINT_WARNING,
                    subject=source,
                    data={
                        "code": diagnostic.code,
                        "severity": diagnostic.severity.value,
                        "message": diagnostic.message,
                    },
                ))

    # ------------------------------------------------------------------
    # service interfaces (the two main interfaces of §4.4)
    # ------------------------------------------------------------------
    def heartbeat_indication(
        self, runnable: str, time: int, task: Optional[str] = None
    ) -> None:
        """Interface 1: application glue code reports an aliveness
        indication.  Feeds flow checking first (the execution-sequence
        view), then the heartbeat counters.

        A one-entry :meth:`heartbeat_batch`, except that an exception
        raised by the units propagates and a malformed indication raises
        :class:`TypeError`.
        """
        _, malformed, errors = self.heartbeat_batch(((runnable, time, task),))
        if errors:
            raise errors[0]
        if malformed:
            raise TypeError(
                "heartbeat indication needs a str runnable, an int time "
                f"and a str or None task, got {(runnable, time, task)!r}"
            )

    def heartbeat_batch(
        self, batch: Iterable[Any], stamp: Optional[int] = None
    ) -> BatchResult:
        """Interface 1 for a whole batch of indications, in order.

        Each entry is ``[runnable, time, task]``: a str runnable, an int
        time (``None`` takes ``stamp``) and a str or ``None`` task.  Any
        other entry is *malformed*: counted and skipped.  An exception
        raised while applying one entry is isolated to it, so the rest
        of the batch is still applied.  Returns ``(applied, malformed,
        errors)``: the entries applied, the malformed count, and the
        exceptions raised.

        One dict lookup interns the runnable name to its slot; the rest
        of the path works on flat slot-indexed storage.  A runnable with
        Activation Status ``False`` is invisible to *both* units: a
        deliberately deactivated runnable (e.g. of a terminated
        application) must neither raise PROGRAM_FLOW errors nor perturb
        its task's stream predecessor.

        The common entry (a known, active runnable that flow checking
        either ignores or sees take an allowed transition) is applied
        inline: the PFC predecessor update and the HBM counter bumps
        without a method call.  Its tally increments are added to the
        units at the end of the batch, or earlier, before the next entry
        that calls into a unit, so a listener always sees them current.
        Every other entry (an unknown or deactivated runnable, a flow
        violation, eager arrival detection) goes through
        :meth:`ProgramFlowCheckingUnit.observe` and
        :meth:`HeartbeatMonitoringUnit.heartbeat_slot`, which build every
        error.
        """
        hbm = self.hbm
        pfc = self.pfc
        slot_of = hbm.slot_of
        counters = hbm.counters
        active = counters.active
        ac = counters.ac
        arc = counters.arc
        table = pfc.table
        monitored = table._monitored
        successors = table._successors
        attribution = pfc.task_attribution
        last = pfc._last
        inline = not hbm.eager_arrival_detection
        # ``applied`` counts the entries applied through the units;
        # ``beats`` and ``observations`` the inline ones whose tallies
        # the units have not been given yet, ``done`` those they have.
        applied = malformed = beats = observations = done = 0
        errors: List[Exception] = []
        try:
            for entry in batch:
                # Unpacking is the shape check: a JSON value that is not
                # a three-element array either fails here or leaves a
                # str (a character or an object key) where the int time
                # goes.
                try:
                    runnable, time, task = entry
                except (TypeError, ValueError):
                    malformed += 1
                    continue
                if time is None:
                    time = stamp
                if (type(runnable) is not str or type(time) is not int
                        or (task is not None and type(task) is not str)):
                    malformed += 1
                    continue
                slot = slot_of.get(runnable)
                if inline and slot is not None and active[slot]:
                    if runnable not in monitored:
                        beats += 1
                        ac[slot] += 1
                        arc[slot] += 1
                        continue
                    # stream_key(), inlined.
                    stream = task or attribution.get(runnable) or _GLOBAL_STREAM
                    if runnable in successors.get(last.get(stream), ()):
                        last[stream] = runnable
                        observations += 1
                        beats += 1
                        ac[slot] += 1
                        arc[slot] += 1
                        continue
                if beats:
                    hbm.heartbeat_count += beats
                    done += beats
                    beats = 0
                    if observations:
                        pfc.observation_count += observations
                        pfc.lookup_operations += observations
                        observations = 0
                try:
                    if slot is None:
                        # Corrupted identifier: count it, and let the PFC
                        # unit see it (unknown runnables are transparent
                        # to flow checking).
                        hbm.unknown_heartbeats += 1
                        pfc.observe(runnable, time, task)
                    elif active[slot]:
                        pfc.observe(runnable, time, task)
                        hbm.heartbeat_slot(slot, time, task)
                except Exception as exc:
                    errors.append(exc)
                    continue
                finally:
                    # A listener may have restored the PFC state.
                    last = pfc._last
                applied += 1
        finally:
            if beats:
                hbm.heartbeat_count += beats
                if observations:
                    pfc.observation_count += observations
                    pfc.lookup_operations += observations
        return applied + done + beats, malformed, errors

    def add_fault_listener(self, listener: FaultListener) -> None:
        """Interface 2: subscribe to detected faults (the FMF hook)."""
        self._fault_listeners.append(listener)

    def add_task_fault_listener(self, listener: Callable[[TaskFaultEvent], None]) -> None:
        """Subscribe to task-faulty threshold events."""
        self.tsi.add_task_fault_listener(listener)

    # ------------------------------------------------------------------
    # periodic check
    # ------------------------------------------------------------------
    def check_cycle(self, time: int) -> List[RunnableError]:
        """One watchdog check cycle ("shortly before the next period
        begins"): advance all cycle counters, evaluate bounds, emit
        errors, and capture history if enabled."""
        self.check_cycle_count += 1
        errors = self.hbm.cycle(time)
        if self._tm_enabled and self.check_cycle_count % _TM_SYNC_INTERVAL == 0:
            self.pfc.sync_telemetry()
        if self.history is not None:
            self._capture(time)
        return errors

    def sync_telemetry(self) -> None:
        """Fold every unit's plain-int tallies into the registry.

        :meth:`check_cycle` already does this once per cycle; call it
        explicitly before rendering a snapshot taken mid-cycle."""
        self.hbm.sync_telemetry()
        self.pfc.sync_telemetry()

    def notify_task_start(self, task: str) -> None:
        """Inform the PFC unit that a task activation began (the stream
        restarts at a legal entry point)."""
        self.pfc.reset_stream(task)

    def task_start_batch(self, batch: Iterable[Any]) -> BatchResult:
        """:meth:`notify_task_start` for a whole batch, in order.

        Each entry is ``[task, time]`` with a str task (the time is not
        used).  Malformed entries and per-entry exceptions are handled
        as in :meth:`heartbeat_batch`, with the same return value."""
        reset_stream = self.pfc.reset_stream
        applied = malformed = 0
        errors: List[Exception] = []
        for entry in batch:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or type(entry[0]) is not str):
                malformed += 1
                continue
            try:
                reset_stream(entry[0])
            except Exception as exc:
                errors.append(exc)
                continue
            applied += 1
        return applied, malformed, errors

    def set_activation_status(self, runnable: str, active: bool) -> None:
        """Enable/disable monitoring of one runnable (the AS switch)."""
        self.hbm.set_activation_status(runnable, active)

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    def runnable_state(self, runnable: str) -> MonitorState:
        return self.tsi.runnable_state(runnable)

    def task_state(self, task: str) -> MonitorState:
        return self.tsi.task_state(task)

    def application_state(self, application: str) -> MonitorState:
        return self.tsi.application_state(application)

    def ecu_state(self) -> MonitorState:
        return self.tsi.ecu_state()

    def supervision_reports(self, time: int):
        """Individual supervision reports on runnables (§3.2.3): one per
        monitored runnable, carrying its derived state and error counts.
        These are what downstream services consume to decide treatments
        "depending on the source, type and severity of the detected
        faults"."""
        return self.tsi.supervision_reports(time)

    def detection_count(
        self, error_type: Optional[ErrorType] = None, runnable: Optional[str] = None
    ) -> int:
        """Cumulative number of detections matching the filters."""
        if runnable is None:
            if error_type is None:
                return sum(self.detected.values())
            return self.detected[error_type]
        per_type = self.detected_per_runnable.get(runnable, {})
        if error_type is None:
            return sum(per_type.values())
        return per_type.get(error_type, 0)

    # ------------------------------------------------------------------
    # capture (ControlDesk-style traces)
    # ------------------------------------------------------------------
    def enable_capture(self) -> CounterHistory:
        """Record, at every check cycle, the counters of every monitored
        runnable plus the cumulative AM/ARM/PFC result curves."""
        self.history = CounterHistory()
        return self.history

    def _capture(self, time: int) -> None:
        assert self.history is not None
        sample: Dict[str, int] = {}
        for name in self.hypothesis.runnables:
            snapshot = self.hbm.snapshot(name)
            for key, value in snapshot.items():
                sample[f"{name}.{key}"] = value
        sample["AM_Result"] = self.detected[ErrorType.ALIVENESS]
        sample["ARM_Result"] = self.detected[ErrorType.ARRIVAL_RATE]
        sample["PFC_Result"] = self.detected[ErrorType.PROGRAM_FLOW]
        for task in self.hypothesis.tasks():
            sample[f"TaskState.{task}"] = int(
                self.tsi.task_state(task) is MonitorState.FAULTY
            )
        self.history.capture(time, sample)

    # ------------------------------------------------------------------
    # persistence (the daemon's snapshot/restore path)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Full JSON-compatible service state: every unit's monitoring
        state plus the cumulative detection counters.

        Restoring this capture onto a watchdog built from the same
        hypothesis (same construction knobs) resumes supervision
        bit-identically — the contract the restartable daemon's
        differential tests pin.
        """
        return {
            "check_cycle_count": self.check_cycle_count,
            "detected": {et.value: n for et, n in self.detected.items()},
            "detected_per_runnable": {
                runnable: {et.value: n for et, n in per_type.items()}
                for runnable, per_type in self.detected_per_runnable.items()
            },
            "hbm": self.hbm.snapshot_state(),
            "pfc": self.pfc.snapshot_state(),
            "tsi": self.tsi.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`snapshot_state` capture."""
        self.check_cycle_count = int(state["check_cycle_count"])
        self.detected = {
            et: int(state["detected"].get(et.value, 0)) for et in ErrorType
        }
        self.detected_per_runnable = {
            runnable: {ErrorType(et): n for et, n in per_type.items()}
            for runnable, per_type in state["detected_per_runnable"].items()
        }
        self.hbm.restore_state(state["hbm"])
        self.pfc.restore_state(state["pfc"])
        self.tsi.restore_state(state["tsi"])

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Full service reset (ECU software reset)."""
        self.hbm.reset()
        self.pfc.reset_all()
        self.tsi.reset()
        self.detected = {et: 0 for et in ErrorType}
        self.detected_per_runnable.clear()
        self.check_cycle_count = 0

    # ------------------------------------------------------------------
    def _on_runnable_error(self, error: RunnableError) -> None:
        self.detected[error.error_type] += 1
        per_type = self.detected_per_runnable.setdefault(error.runnable, {})
        per_type[error.error_type] = per_type.get(error.error_type, 0) + 1
        if self._tm_enabled:
            self._tm_detections[error.error_type].inc()
        if self.event_sink.enabled:
            self.event_sink.emit(TelemetryEvent(
                time=error.time,
                kind=KIND_DETECTION,
                subject=error.runnable,
                data={
                    "error_type": error.error_type.value,
                    "task": error.task,
                    "details": dict(error.details or {}),
                },
            ))
        self.tsi.record_error(error)
        for listener in self._fault_listeners:
            listener(error)

    def _emit_task_fault_event(self, event: TaskFaultEvent) -> None:
        self.event_sink.emit(TelemetryEvent(
            time=event.time,
            kind=KIND_TASK_FAULT,
            subject=event.task,
            data={
                "trigger_runnable": event.trigger_runnable,
                "trigger_error_type": event.trigger_error_type.value,
                "error_vector": {
                    runnable: {et.value: count for et, count in per_type.items()}
                    for runnable, per_type in event.error_vector.items()
                },
            },
        ))

    def _emit_ecu_state_event(self, change) -> None:
        self.event_sink.emit(TelemetryEvent(
            time=change.time,
            kind=KIND_ECU_STATE_CHANGE,
            subject=self.name,
            data={
                "old_state": change.old_state.value,
                "new_state": change.new_state.value,
                "faulty_tasks": list(change.faulty_tasks),
            },
        ))
