"""Per-frame cost of the supervision daemon, layer by layer, in process.

The daemon's hot path is one HEARTBEAT frame: decode it off the byte
stream, then dispatch it and apply its indications to the watchdog.
This benchmark times both layers without a socket, on the shape of the
``flood`` workload of ``perfbench/``: 16 registrations, each with four
runnables in two tasks, and frames of eight server-stamped indications
(two per runnable), visited in a seeded order.  Bytes are fed to the
decoder in the daemon's own read size, so the decoder sees the chunk
boundaries it sees in production.

* **decode_us_per_frame** — :meth:`FrameDecoder.feed` over the stream;
* **dispatch_apply_us_per_frame** — ``SupervisionServer._dispatch_read``
  of every read's decoded frames: registration lookup, validation, and
  the batch apply to HBM/PFC counters;
* **pipeline_us_per_frame** — both layers as the daemon runs them: feed
  one read-size chunk, then dispatch its frames, chunk after chunk.

Each run appends the median, p10 and p90 over its rounds to
``BENCH_service_frame.json`` at the repository root
(``benchutil.record``).
"""

import random
import time

from benchutil import record
from repro.core.config_io import hypothesis_to_dict
from repro.core import FaultHypothesis, RunnableHypothesis
from repro.service.protocol import FrameDecoder, T_HEARTBEAT, encode_frame
from repro.service.server import _READ_SIZE, SupervisionServer, _Connection

REGISTRATIONS = 16
RUNNABLES = (("sense", "T0"), ("filter", "T0"),
             ("control", "T1"), ("actuate", "T1"))
INDICATIONS_PER_FRAME = 2 * len(RUNNABLES)
#: Frames per round: every registration once per pass, in seeded order.
PASSES = 250
ROUNDS = 7


def make_hyp_dict():
    """Wide windows: no flood of this size can cause a detection."""
    hyp = FaultHypothesis()
    for runnable, task in RUNNABLES:
        hyp.add_runnable(RunnableHypothesis(
            runnable, task=task, aliveness_period=500, min_heartbeats=1,
            arrival_period=500, max_heartbeats=10 ** 9))
    return hypothesis_to_dict(hyp)


def flood_chunks(names, seed=1):
    batch = [[r, None, t] for r, t in RUNNABLES for _ in range(2)]
    frames = {n: encode_frame(T_HEARTBEAT, name=n, batch=batch) for n in names}
    rng = random.Random(seed)
    parts = []
    for _ in range(PASSES):
        order = list(names)
        rng.shuffle(order)
        parts.extend(frames[n] for n in order)
    stream = b"".join(parts)
    chunks = [stream[i:i + _READ_SIZE]
              for i in range(0, len(stream), _READ_SIZE)]
    return chunks, len(parts)


def measure():
    names = [f"base-{i:04d}" for i in range(REGISTRATIONS)]
    server = SupervisionServer(port=0, tick_interval=None)
    hypothesis = make_hyp_dict()
    for name in names:
        server.fleet.register(name, hypothesis)
    conn = _Connection(writer=None)
    dispatch_read = server._dispatch_read
    chunks, frame_count = flood_chunks(names)
    decode_us, apply_us, pipeline_us = [], [], []
    for _ in range(ROUNDS):
        decoder = FrameDecoder()
        reads = []
        begin = time.perf_counter()
        for chunk in chunks:
            reads.append(decoder.feed(chunk))
        decoded = time.perf_counter()
        for items in reads:
            dispatch_read(conn, items)
        applied = time.perf_counter()
        assert sum(map(len, reads)) == frame_count
        decoder = FrameDecoder()
        for chunk in chunks:
            dispatch_read(conn, decoder.feed(chunk))
        piped = time.perf_counter()
        assert decoder.frames_decoded == frame_count
        decode_us.append((decoded - begin) / frame_count * 1e6)
        apply_us.append((applied - decoded) / frame_count * 1e6)
        pipeline_us.append((piped - applied) / frame_count * 1e6)
    indications = sum(r.indications for r in server.fleet.registrations.values())
    return {
        "frame_count": frame_count,
        "indications": indications,
        "decode_us_per_frame": decode_us,
        "dispatch_apply_us_per_frame": apply_us,
        "pipeline_us_per_frame": pipeline_us,
    }


def test_bench_service_frame(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Every round applies the stream twice: split, then pipelined.
    expected = 2 * ROUNDS * result["frame_count"] * INDICATIONS_PER_FRAME
    assert result["indications"] == expected, (
        f"{result['indications']} of {expected} indications applied")
    entry = record(
        "service_frame",
        {
            "decode_us_per_frame": result["decode_us_per_frame"],
            "dispatch_apply_us_per_frame":
                result["dispatch_apply_us_per_frame"],
            "total_us_per_frame": [
                d + a for d, a in zip(result["decode_us_per_frame"],
                                      result["dispatch_apply_us_per_frame"])
            ],
            "pipeline_us_per_frame": result["pipeline_us_per_frame"],
        },
        registrations=REGISTRATIONS,
        indications_per_frame=INDICATIONS_PER_FRAME,
        frames_per_round=result["frame_count"],
    )
    metrics = entry["metrics"]
    print(f"\nper-frame cost ({INDICATIONS_PER_FRAME} indications): decode "
          f"{metrics['decode_us_per_frame']['median']:.2f} µs, dispatch+apply "
          f"{metrics['dispatch_apply_us_per_frame']['median']:.2f} µs, "
          f"pipelined {metrics['pipeline_us_per_frame']['median']:.2f} µs "
          f"(median of {entry['rounds']} rounds)")
