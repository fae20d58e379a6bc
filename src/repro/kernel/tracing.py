"""Execution tracing for the simulated kernel.

Every observable kernel occurrence (task activation, dispatch, preemption,
termination, runnable start/end, heartbeat indication, alarm expiry,
ISR entry, hook invocation, error) is appended to a :class:`Trace`.
The Software Watchdog never reads the trace — it only sees heartbeats,
exactly like on the real platform — but the analysis layer and the
test-suite use traces as ground truth for coverage and latency metrics.
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional


class TraceKind(enum.Enum):
    """Categories of trace records."""

    TASK_ACTIVATE = "task_activate"
    TASK_START = "task_start"
    TASK_PREEMPT = "task_preempt"
    TASK_RESUME = "task_resume"
    TASK_WAIT = "task_wait"
    TASK_RELEASE = "task_release"
    TASK_TERMINATE = "task_terminate"
    RUNNABLE_START = "runnable_start"
    RUNNABLE_END = "runnable_end"
    HEARTBEAT = "heartbeat"
    ALARM_EXPIRE = "alarm_expire"
    ISR_ENTER = "isr_enter"
    ISR_EXIT = "isr_exit"
    HOOK = "hook"
    SERVICE_ERROR = "service_error"
    RESOURCE_GET = "resource_get"
    RESOURCE_RELEASE = "resource_release"
    ECU_RESET = "ecu_reset"
    WATCHDOG_CHECK = "watchdog_check"
    FAULT_INJECTED = "fault_injected"
    FAULT_REPORT = "fault_report"
    CUSTOM = "custom"


class TraceRecord:
    """One timestamped kernel occurrence.

    A plain ``__slots__`` class: the kernel builds thousands of records
    per simulated second, and a frozen dataclass pays one
    ``object.__setattr__`` per field.  Records are not modified after
    construction.
    """

    __slots__ = ("time", "kind", "subject", "info")

    def __init__(
        self,
        time: int,
        kind: TraceKind,
        subject: str,
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.subject = subject
        self.info = {} if info is None else info

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.time, self.kind, self.subject, self.info) == (
            other.time, other.kind, other.subject, other.info
        )

    #: Unhashable, like the mutable ``info`` dict it carries.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, kind={self.kind!r}, "
            f"subject={self.subject!r}, info={self.info!r})"
        )

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.info.items())
        return f"[{self.time:>10}] {self.kind.value:<16} {self.subject} {extra}".rstrip()


class Trace:
    """Append-only record of a simulation run with query helpers.

    With a ``capacity`` the trace is a ring: once full, each new record
    evicts the oldest one and bumps :attr:`dropped`.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._append = (
            self._records.append if capacity is None else self._append_ring
        )
        self._listeners: List[Callable[[TraceRecord], None]] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, record: TraceRecord) -> None:
        """Append a record, honouring the optional ring capacity."""
        self._append(record)
        for listener in self._listeners:
            listener(record)

    def record(self, time: int, kind: TraceKind, subject: str, **info: Any) -> None:
        """Build a record and emit it (the kernel's per-occurrence path,
        so :meth:`emit` is inlined)."""
        record = TraceRecord(time, kind, subject, info)
        self._append(record)
        for listener in self._listeners:
            listener(record)

    def _append_ring(self, record: TraceRecord) -> None:
        records = self._records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a live listener invoked for every new record."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        self._listeners.remove(listener)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    def filter(
        self,
        kind: Optional[TraceKind] = None,
        subject: Optional[str] = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Records matching all the given constraints."""
        out = []
        for rec in self._records:
            if kind is not None and rec.kind is not kind:
                continue
            if subject is not None and rec.subject != subject:
                continue
            if start is not None and rec.time < start:
                continue
            if end is not None and rec.time >= end:
                continue
            out.append(rec)
        return out

    def count(self, kind: TraceKind, subject: Optional[str] = None) -> int:
        """Number of records of ``kind`` (optionally for one subject)."""
        return len(self.filter(kind=kind, subject=subject))

    def first(self, kind: TraceKind, subject: Optional[str] = None) -> Optional[TraceRecord]:
        """Earliest record of ``kind`` or ``None``."""
        for rec in self._records:
            if rec.kind is kind and (subject is None or rec.subject == subject):
                return rec
        return None

    def last(self, kind: TraceKind, subject: Optional[str] = None) -> Optional[TraceRecord]:
        """Latest record of ``kind`` or ``None``."""
        for rec in reversed(self._records):
            if rec.kind is kind and (subject is None or rec.subject == subject):
                return rec
        return None

    def subjects(self, kind: Optional[TraceKind] = None) -> List[str]:
        """Distinct subjects seen (optionally restricted to one kind)."""
        seen: Dict[str, None] = {}
        for rec in self._records:
            if kind is None or rec.kind is kind:
                seen.setdefault(rec.subject, None)
        return list(seen)

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering (for debugging and examples)."""
        records = self._records
        if limit is not None:
            records = islice(records, max(len(records) - limit, 0), None)
        return "\n".join(str(rec) for rec in records)
