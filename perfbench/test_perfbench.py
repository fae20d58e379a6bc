"""Self-tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/test_perfbench.py -q`` (or as a
plain script).  They need no daemon: they check that a seed fully
determines the generated traffic, and that the tracer's self time is a
span minus its children.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import schedule as sched  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402


def _traffic(seed: int):
    names = sched.base_names(seed, 32)
    return (
        sched.register_frames(names),
        sched.flood_buffer(seed, names, rounds=8),
        sched.paced_schedule(seed, names, rate_fps=500.0, seconds=5.0),
        sched.probe_plan(seed, 50, rate=8.0),
        [sched.campaign_order(seed, p, 8) for p in range(4)],
    )


def test_same_seed_gives_identical_schedule():
    assert _traffic(7) == _traffic(7)


def test_other_seed_gives_other_schedule():
    first, second = _traffic(7), _traffic(8)
    for part_a, part_b in zip(first, second):
        assert part_a != part_b


def test_paced_schedule_visits_every_registration_each_round():
    names = sched.base_names(3, 10)
    schedule = sched.paced_schedule(3, names, rate_fps=100.0, seconds=2.0)
    offsets = [at for at, _ in schedule]
    assert offsets == sorted(offsets) and offsets[-1] < 2.0
    for start in range(0, len(schedule) - 10, 10):
        assert sorted(n for _, n in schedule[start:start + 10]) == names


def test_frames_round_trip_through_the_decoder():
    frame = sched.heartbeat_frame("base-1-0000")
    decoder = sched.Decoder()
    assert decoder.feed(frame[:5]) == []
    (decoded,) = decoder.feed(frame[5:])
    assert decoded["type"] == "HEARTBEAT"
    assert len(decoded["batch"]) == sched.INDICATIONS_PER_FRAME


def test_self_time_is_span_minus_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.span("inner", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    tracer.span("outer", outer)()
    report = tracer.report()
    assert report["calls"] == {"outer": 1, "inner": 1}
    assert abs(report["self_s"]["outer"]
               - (report["total_s"]["outer"] - report["total_s"]["inner"])) < 1e-9
    assert report["self_s"]["outer"] < report["self_s"]["inner"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
