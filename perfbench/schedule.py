"""Seeded inputs for the service workloads: hypotheses, frames, schedules.

Everything the generator sends is derived here from the workload seed
and nothing else, so one seed always yields byte-identical traffic
(``test_perfbench.py`` checks this).  The wire codec is written out
locally instead of imported from ``repro.service.protocol``: the
generator must keep producing the same bytes when the daemon's own
codec changes, and it drives many registrations over one connection,
which the SDK's ``WatchdogClient`` cannot (it sends every HEARTBEAT
under its first registration's name).
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

PROTOCOL_VERSION = 1
_HEADER = struct.Struct("!I")

#: Runnables per base registration and the task each one runs in
#: (4 runnables across 2 tasks, as a small ECU would declare).
BASE_RUNNABLES: Tuple[Tuple[str, str], ...] = (
    ("sense", "T0"), ("filter", "T0"), ("control", "T1"), ("actuate", "T1"),
)
#: Indications per base HEARTBEAT frame: two per runnable.
INDICATIONS_PER_FRAME = 2 * len(BASE_RUNNABLES)

#: Base registrations must never be detected: their windows are wide
#: (500 check cycles, 5 s at the default 10 ms tick) and their
#: arrival-rate bound is far above any rate the generator reaches.
BASE_WINDOW_CYCLES = 500
BASE_MAX_HEARTBEATS = 10 ** 9

#: Probes are detected fast: one indication, then silence, and a short
#: aliveness window (this many check cycles unless a mix sets its own).
PROBE_RUNNABLE = "probe"
PROBE_TASK = "P"
PROBE_WINDOW_CYCLES = 1


def encode(type_: str, **data) -> bytes:
    """One frame: 4-byte big-endian length, then the JSON payload."""
    payload = dict(data)
    payload["v"] = PROTOCOL_VERSION
    payload["type"] = type_
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


class Decoder:
    """Incremental decoder for server frames (ACK, DETECTION, STATE)."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[Dict]:
        self._buffer.extend(chunk)
        frames = []
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            frames.append(json.loads(bytes(self._buffer[_HEADER.size:end])))
            del self._buffer[:end]
        return frames


def _runnable_dict(runnable: str, task: str, window: int, max_hb: int) -> Dict:
    return {
        "runnable": runnable, "task": task,
        "aliveness_period": window, "min_heartbeats": 1,
        "arrival_period": window, "max_heartbeats": max_hb,
        "active": True,
    }


def _hypothesis(runnables: List[Dict]) -> Dict:
    return {
        "version": 1,
        "runnables": runnables,
        "flow_pairs": [],
        "thresholds": {"default": 3, "per_type": {}},
    }


def base_hypothesis() -> Dict:
    return _hypothesis([
        _runnable_dict(r, t, BASE_WINDOW_CYCLES, BASE_MAX_HEARTBEATS)
        for r, t in BASE_RUNNABLES
    ])


def probe_hypothesis(window: int = PROBE_WINDOW_CYCLES) -> Dict:
    return _hypothesis([
        _runnable_dict(PROBE_RUNNABLE, PROBE_TASK, window, 1000)
    ])


def base_names(seed: int, count: int) -> List[str]:
    return [f"base-{seed}-{i:04d}" for i in range(count)]


def heartbeat_frame(name: str) -> bytes:
    """A base HEARTBEAT: two server-stamped indications per runnable."""
    batch = [[r, None, t] for r, t in BASE_RUNNABLES for _ in range(2)]
    return encode("HEARTBEAT", name=name, batch=batch)


def register_frames(names: Sequence[str]) -> bytes:
    hypothesis = base_hypothesis()
    return b"".join(
        encode("REGISTER", name=n, hypothesis=hypothesis) for n in names
    )


def flood_buffer(seed: int, names: Sequence[str], rounds: int) -> Tuple[bytes, int]:
    """Pre-encoded flood traffic: ``rounds`` rounds, each one frame per
    registration in a seeded order.  Returns (bytes, frame count)."""
    rng = random.Random(f"flood:{seed}")
    frames = {n: heartbeat_frame(n) for n in names}
    parts = []
    for _ in range(rounds):
        order = list(names)
        rng.shuffle(order)
        parts.extend(frames[n] for n in order)
    return b"".join(parts), len(parts)


def paced_schedule(
    seed: int, names: Sequence[str], rate_fps: float, seconds: float
) -> List[Tuple[float, str]]:
    """Open-loop schedule: (offset seconds, registration) per frame.

    Inter-arrival times are exponential with mean ``1/rate_fps``
    (independent users); registrations are visited in a fresh seeded
    permutation per round, so each one gets a frame every
    ``len(names)/rate_fps`` seconds on average.
    """
    rng = random.Random(f"paced:{seed}")
    schedule: List[Tuple[float, str]] = []
    at = 0.0
    while True:
        order = list(names)
        rng.shuffle(order)
        for name in order:
            at += rng.expovariate(rate_fps)
            if at >= seconds:
                return schedule
            schedule.append((at, name))


@dataclass(frozen=True)
class Probe:
    name: str
    #: Scheduled start, in seconds after the measured phase begins.
    at: float
    #: Least pause, in seconds, after the previous probe ends.
    pause: float


#: A probe that is due while the previous one runs starts after a
#: seeded pause of up to this long.  Without it, a daemon too busy to
#: keep up would see each probe arrive at the same point of its event
#: loop's cycle as the last one ended, so a run's latencies would lock
#: to one phase of that cycle.  The pause is longer than a starved
#: loop's cycle (about 60 ms under ``flood``).
PROBE_PAUSE_S = 0.1


#: Probes reuse this many names, like a pool of flaky clients that
#: keep reconnecting: the first REGISTER of a name creates the
#: registration, later ones rebind it, so the fleet does not grow
#: with the run's length.
PROBE_POOL = 64


def probe_plan(seed: int, count: int, rate: float) -> List[Probe]:
    """The probe sequence: names drawn round-robin from the pool, and
    open-loop start times with exponential gaps of mean ``1/rate``.
    A probe still running at the next start time delays it (one probe
    connection at a time); it then starts a seeded pause of up to
    ``PROBE_PAUSE_S`` after that probe ends."""
    rng = random.Random(f"probe:{seed}")
    plan = []
    at = 0.0
    for i in range(count):
        at += rng.expovariate(rate)
        plan.append(Probe(name=f"probe-{seed}-{i % PROBE_POOL:03d}", at=at,
                          pause=rng.uniform(0.0, PROBE_PAUSE_S)))
    return plan


def campaign_order(seed: int, pass_index: int, count: int) -> List[int]:
    """Seeded order of the campaign's fault specs within one pass."""
    order = list(range(count))
    random.Random(f"campaign:{seed}:{pass_index}").shuffle(order)
    return order
