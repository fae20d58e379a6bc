"""Traced launcher for ``repro serve``.

Usage::

    python3 perfbench/daemon.py --trace-out FILE -- <repro serve arguments>

Installs span wrappers around the daemon-side layers, then runs the
unmodified ``repro serve`` entry point.  ``SIGUSR1`` starts a measured
interval (the tracer is reset); ``SIGUSR2`` writes the tracer's report
to ``FILE``.  Untraced runs start ``python3 -m repro serve`` directly.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def install(tracer: Tracer) -> None:
    """Wrap the daemon-side layers (see README.md for the metric map)."""
    import repro.lint
    from repro.core import watchdog
    from repro.service import fleet, persistence, protocol, supervisor
    from repro.service import server as server_mod

    # Classes are looked up with getattr so that a later refactor that
    # renames one only loses its spans (Tracer.wrap skips a None owner).
    SoftwareWatchdog = getattr(watchdog, "SoftwareWatchdog", None)
    Fleet = getattr(fleet, "Fleet", None)
    StateStore = getattr(persistence, "StateStore", None)
    FrameDecoder = getattr(protocol, "FrameDecoder", None)
    SupervisorShard = getattr(supervisor, "SupervisorShard", None)

    # The event loop runs every callback and task step through
    # Handle._run: its self time is the loop work no layer span covers.
    tracer.wrap(asyncio.events.Handle, "_run", "loop")

    def on_feed(args, frames):
        tracer.count("protocol.bytes_in", len(args[1]))
        tracer.count("protocol.frames_in", len(frames))

    tracer.wrap(FrameDecoder, "feed", "protocol.decode", on_result=on_feed)
    tracer.wrap(server_mod, "encode_frame", "protocol.encode")

    grid = {"next": None}

    def tick_late(fn):
        # Mirror SupervisionServer._ticker's grid: each call is due one
        # period after the previous due time, skipping whole missed
        # periods exactly as the ticker does.
        def timed(self, *args, **kwargs):
            now = time.monotonic()
            period = self.tick_interval or 0.01
            due = grid["next"] if grid["next"] is not None else now
            late = now - due
            if late > period:
                due += period * int(late // period)
            grid["next"] = due + period
            tracer.sample("server.tick_late", max(late, 0.0))
            return fn(self, *args, **kwargs)
        return timed

    server_cls = server_mod.SupervisionServer
    server_cls.tick = tracer.span("server.tick", tick_late(server_cls.tick))
    original_ticker = getattr(server_cls, "_ticker", None)
    if original_ticker is not None:
        async def ticker(self):
            # The ticker's first due time is one period after it starts.
            grid["next"] = time.monotonic() + self.tick_interval
            await original_ticker(self)

        server_cls._ticker = ticker

    original_start = server_cls.start
    probes = []

    async def start(self):
        await original_start(self)
        task = asyncio.get_running_loop().create_task(_lag_probe(self, tracer))
        # stop() cancels the server's own tasks; keep a reference either way.
        getattr(self, "_tasks", probes).append(task)

    server_cls.start = start

    def on_apply(args, result):
        tracer.count("supervisor.applied")

    tracer.wrap(SupervisorShard, "heartbeat", "supervisor.apply",
                on_result=on_apply)
    tracer.wrap(SupervisorShard, "task_start", "supervisor.apply",
                on_result=on_apply)
    tracer.wrap(SupervisorShard, "tick", "supervisor.shard_tick")
    tracer.wrap(SupervisorShard, "register", "supervisor.register")

    def on_cycle(args, errors):
        tracer.count("core.detections", len(errors))

    tracer.wrap(SoftwareWatchdog, "heartbeat_indication", "core.heartbeat")
    tracer.wrap(SoftwareWatchdog, "check_cycle", "core.check_cycle",
                on_result=on_cycle)

    tracer.wrap(Fleet, "tick", "fleet.tick", keep_samples=True)
    tracer.wrap(Fleet, "snapshot", "fleet.snapshot")

    def on_write(args, result):
        store = args[0]
        tracer.peak("persistence.snapshot_bytes",
                    os.path.getsize(store.snapshot_path))

    tracer.wrap(StateStore, "build_snapshot_payload", "persistence.payload")
    tracer.wrap(StateStore, "write_snapshot_payload", "persistence.write",
                on_result=on_write)
    tracer.wrap(StateStore, "append", "persistence.append")

    # SupervisorShard._lint imports lint_hypothesis from the package at
    # call time, so the package attribute is the one to wrap.
    tracer.wrap(repro.lint, "lint_hypothesis", "lint.lint")


async def _lag_probe(server, tracer: Tracer) -> None:
    """Lateness of a 1 ms sleep, and the deepest shard backlog seen."""
    loop = asyncio.get_running_loop()
    while True:
        begin = loop.time()
        await asyncio.sleep(0.001)
        tracer.sample("server.loop_lag", max(loop.time() - begin - 0.001, 0.0))
        queues = getattr(server, "_queues", ())
        tracer.peak("server.queued", sum(len(q) for q in queues))


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out = argv[1]
    tracer = Tracer()
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    signal.signal(signal.SIGUSR2, lambda *_: tracer.dump(out))
    from repro.__main__ import main as repro_main
    return repro_main(["serve", *argv[3:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
