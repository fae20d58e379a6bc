"""Measure the ticker-starvation threshold of the daemon.

Usage::

    python3 perfbench/findings.py --counts 600,1000,1500,2000,2500

For each registration count N: start ``repro serve`` with its defaults,
REGISTER N base registrations (4 runnables across 2 tasks each, no
heartbeats), then time five probe REGISTER round trips on a second
connection and read the check cycles run over two seconds from
``/healthz``.  Every step has a deadline, so a daemon whose ticker has
stopped yielding shows up as missing answers instead of a hang.  This
is not one of the benchmark's workloads; README.md quotes its output.
"""

from __future__ import annotations

import argparse
import os
import shutil
import socket
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import schedule as sched  # noqa: E402

perf_counter = time.perf_counter


def probe_register(port: int, name: str, deadline_s: float):
    """One probe REGISTER round trip in ms, or None past the deadline."""
    sock = run.connect(port)
    try:
        decoder = sched.Decoder()
        begin = perf_counter()
        sock.sendall(sched.encode("REGISTER", name=name,
                                  hypothesis=sched.probe_hypothesis()))
        deadline = begin + deadline_s
        while perf_counter() < deadline:
            for frame in run.read_frames(sock, decoder, deadline):
                if frame.get("type") == "ACK" and frame.get("re") == "REGISTER":
                    return (perf_counter() - begin) * 1e3
        return None
    finally:
        sock.close()


def measure(work: str, count: int, deadline_s: float) -> str:
    names = sched.base_names(0, count)
    daemon = run.Daemon(work, f"n{count}", state_dir=False, trace=False)
    try:
        daemon.wait_ready(perf_counter() + 30.0)
        sock = run.connect(daemon.port)
        sock.sendall(sched.register_frames(names))
        decoder = sched.Decoder()
        acked = 0
        deadline = perf_counter() + deadline_s
        while acked < count and perf_counter() < deadline:
            acked += sum(1 for f in run.read_frames(sock, decoder, deadline)
                         if f.get("type") == "ACK")
        setup_s = perf_counter() - daemon.started
        latencies = [probe_register(daemon.port, f"probe-{count}-{i}",
                                    deadline_s) for i in range(5)]
        answered = [x for x in latencies if x is not None]
        try:
            h0 = daemon.health(timeout=deadline_s)
            time.sleep(2.0)
            h1 = daemon.health(timeout=deadline_s)
            span = (h1["uptime_us"] - h0["uptime_us"]) / 1e6
            on_time = f"{(h1['ticks'] - h0['ticks']) / (span / run.TICK_S):.3f}"
            tm = daemon.counters(timeout=deadline_s)
            mean_tick = (tm["service_tick_duration_seconds_sum"]
                         / tm["service_tick_duration_seconds_count"])
            tick_ms = f"{1e3 * mean_tick:.2f}"
        except (OSError, socket.timeout):
            on_time = tick_ms = "no answer"
        sock.close()
        register = (f"{statistics.median(answered):.1f} / {max(answered):.1f}"
                    if answered else "none")
        return (f"| {count} | {acked}/{count} | {setup_s:.2f} | "
                f"{len(answered)}/5 | {register} | {on_time} | {tick_ms} |")
    finally:
        daemon.stop(timeout=10.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--counts", default="600,1000,1500,2000,2500")
    parser.add_argument("--deadline", type=float, default=30.0)
    args = parser.parse_args()
    run.pin(0, run.GENERATOR_CPU)
    work = os.path.join(run.ROOT, ".perfbench_work", f"findings-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    print("| registrations | REGISTERs ACKed | set-up s | probes answered "
          "| probe REGISTER p50 / max ms | tick_on_time | mean tick ms |")
    print("|---|---|---|---|---|---|---|")
    try:
        for count in (int(c) for c in args.counts.split(",")):
            print(measure(work, count, args.deadline), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
