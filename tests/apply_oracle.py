"""Reference oracle for :meth:`repro.core.SoftwareWatchdog.heartbeat_batch`.

This is the indication loop as it was before the common entry was
applied inline: every entry goes through
:meth:`ProgramFlowCheckingUnit.observe` and then
:meth:`HeartbeatMonitoringUnit.heartbeat_slot`.  It is kept here,
outside the library, only so that ``test_watchdog_apply_differential.py``
can show that the inline loop leaves every unit in the same state and
emits the same errors.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional


def reference_heartbeat_batch(watchdog, batch: Iterable[Any],
                              stamp: Optional[int] = None):
    """Apply ``batch`` to ``watchdog`` one method call per unit and entry;
    returns ``(applied, malformed, errors)``."""
    hbm = watchdog.hbm
    slot_of = hbm.slot_of
    active = hbm.counters.active
    observe = watchdog.pfc.observe
    heartbeat_slot = hbm.heartbeat_slot
    applied = malformed = 0
    errors: List[Exception] = []
    for entry in batch:
        # Unpacking is the shape check: a JSON value that is not a
        # three-element array either fails here or leaves a str
        # (a character or an object key) where the int time goes.
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
        try:
            slot = slot_of.get(runnable)
            if slot is None:
                # Corrupted identifier: count it, and let the PFC
                # unit see it (unknown runnables are transparent to
                # flow checking).
                hbm.unknown_heartbeats += 1
                observe(runnable, time, task)
            elif active[slot]:
                observe(runnable, time, task)
                heartbeat_slot(slot, time, task)
        except Exception as exc:
            errors.append(exc)
            continue
        applied += 1
    return applied, malformed, errors
