"""The watchdog benchmark: ``flood`` and ``fleet`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload flood --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

Each run prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every correctness check passed.  README.md in this
directory defines every metric and workload.

Processes: this one is the load generator (at most two connections and
two threads); the daemon is ``python3 -m repro serve`` with its default
settings (``perfbench/daemon.py`` in traced runs); ``fleet`` also runs
the E1 campaign, in ``perfbench/campaign.py``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import schedule as sched  # noqa: E402
from tracer import percentile  # noqa: E402

perf_counter = time.perf_counter

#: The daemon's check-cycle period (``repro serve --tick-ms`` default).
TICK_S = 0.010
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 9
#: Traffic before the measured phase starts.
WARMUP_S = 1.0
#: Deadlines: one REGISTER batch, one probe step, the end-of-run barrier.
REGISTER_DEADLINE_S = 60.0
PROBE_DEADLINE_S = 5.0
BARRIER_DEADLINE_S = 30.0
#: Whole-run guard: a run must end within 180 s.
RUN_DEADLINE_S = 170.0
#: A generator lagging its own schedule by more than this at p99 is
#: flagged: the run then measures the generator, not the daemon.
GEN_LAG_LIMIT_MS = 20.0

#: ``ingest_ips`` and ``tick_on_time`` are medians over windows of this
#: length, read from ``/healthz`` at each window's edges.
WINDOW_S = 1.0

#: Service mixes.  ``paced_ips`` of None means unpaced (flood);
#: ``probe_rate`` is the mean probe start rate (more than the daemon
#: serves, so probes run back to back); ``probe_window`` is the probes'
#: aliveness window in check cycles.  On ``fleet`` a few milliseconds of
#: host jitter would be a large share of a 1-cycle window's 10-20 ms
#: detection; 3 cycles keep it small.  On ``flood`` every latency scales
#: with the starved loop's cycle, so a longer window only costs probes.
MIXES = {
    "flood": dict(base=16, paced_ips=None, probe_rate=50.0, probe_window=1,
                  state_dir=False),
    "fleet": dict(base=150, paced_ips=4000, probe_rate=25.0, probe_window=3,
                  state_dir=True),
}

END_TO_END = {
    "setup_s": "s",
    "ingest_ips": "1/s",
    "tick_on_time": "ratio",
    "detect_p50_ms": "ms",
    "detect_p95_ms": "ms",
    "campaign_runs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "protocol.decode_s": "s", "protocol.frames_in": "count",
    "protocol.bytes_in": "bytes", "protocol.encode_s": "s",
    "server.other_s": "s", "server.loop_lag_p99_ms": "ms",
    "server.tick_late_p99_ms": "ms", "server.queued_max": "count",
    "server.dropped": "count", "server.missed_ticks": "count",
    "supervisor.apply_s": "s", "supervisor.applied": "count",
    "supervisor.shard_tick_s": "s", "supervisor.register_s": "s",
    "core.heartbeat_s": "s", "core.check_cycle_s": "s",
    "core.check_cycles": "count", "core.detections": "count",
    "fleet.tick_s": "s", "fleet.tick_p99_ms": "ms",
    "fleet.rollup_s": "s", "fleet.snapshot_s": "s",
    "persistence.payload_s": "s", "persistence.write_s": "s",
    "persistence.snapshot_bytes": "bytes", "persistence.append_s": "s",
    "persistence.journal_records": "count",
    "lint.lint_s": "s", "lint.calls": "count",
    "faults.build_s": "s", "faults.run_s": "s", "kernel.run_s": "s",
    "gen.offered_ips": "1/s", "gen.lag_p99_ms": "ms",
    "failed_ratio": "ratio",
    "register_p50_ms": "ms", "register_p95_ms": "ms",
    "trace.busy_s": "s", "trace.accounted_share": "ratio",
    "trace.ingest_ips": "1/s", "trace.campaign_runs_per_s": "1/s",
}


#: With two or more CPUs the daemon (or campaign) and this generator
#: each get one of their own, so the two never migrate or share a core.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPU = _CPUS[0]
GENERATOR_CPU = _CPUS[1] if len(_CPUS) > 1 else _CPUS[0]


def pin(pid: int, cpu: int) -> None:
    os.sched_setaffinity(pid, {cpu})


class BenchError(Exception):
    """The run cannot produce a result (exit code 3, nothing printed)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process with the default settings."""

    def __init__(self, work: str, tag: str, *, state_dir: bool,
                 trace: bool) -> None:
        args = ["--port", "0", "--http-port", "0"]
        if state_dir:
            args += ["--state-dir", os.path.join(work, f"state-{tag}")]
        self.trace_out: Optional[str] = None
        if trace:
            self.trace_out = os.path.join(work, f"trace-{tag}.json")
            cmd = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--trace-out", self.trace_out, "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.log_path = os.path.join(work, f"daemon-{tag}.log")
        self._log = open(self.log_path, "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        pin(self.proc.pid, DAEMON_CPU)
        self.port = 0
        self.http_port = 0

    def wait_ready(self, deadline: float) -> None:
        """Read the banner line that names the bound ports."""
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise BenchError(f"daemon did not start; see {self.log_path}")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                byte = os.read(self.proc.stdout.fileno(), 1)
                if not byte:
                    raise BenchError(f"daemon exited; see {self.log_path}")
                line += byte
        for field in line.decode().split():
            if field.startswith("tcp="):
                self.port = int(field.rsplit(":", 1)[1])
            elif field.startswith("http="):
                self.http_port = int(field.rsplit(":", 1)[1])
        if not self.port or not self.http_port:
            raise BenchError(f"unexpected daemon banner: {line!r}")

    def _get(self, path: str, timeout: float) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.http_port,
                                          timeout=timeout)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def health(self, timeout: float = 10.0) -> Dict:
        return json.loads(self._get("/healthz", timeout))

    def try_health(self) -> Optional[Dict]:
        """``/healthz``, or None when a starved daemon misses the deadline."""
        try:
            return self.health()
        except OSError as exc:
            log(f"/healthz unanswered: {exc!r}")
            return None

    def counters(self, timeout: float = 10.0) -> Dict[str, float]:
        """Prometheus series summed by metric name."""
        totals: Dict[str, float] = {}
        for line in self._get("/metrics", timeout).splitlines():
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signum)

    def read_trace(self, deadline: float) -> Dict:
        """Ask the traced daemon for its report and wait for the file."""
        self.signal(signal.SIGUSR2)
        while perf_counter() < deadline:
            if os.path.exists(self.trace_out):
                with open(self.trace_out, encoding="utf-8") as handle:
                    return json.load(handle)
            time.sleep(0.05)
        raise BenchError("traced daemon wrote no trace report")

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM (clean stop, final snapshot), then wait; kill on
        timeout.  Returns whether the daemon stopped cleanly."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return clean and self.proc.returncode == 0


# ----------------------------------------------------------------------
# wire helpers (this process only ever sees bytes and frames)
# ----------------------------------------------------------------------
def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_frames(sock: socket.socket, decoder: sched.Decoder,
                deadline: float) -> List[Dict]:
    """Frames that arrive before ``deadline`` (at least one read)."""
    remaining = max(deadline - perf_counter(), 0.0)
    ready, _, _ = select.select([sock], [], [], remaining)
    if not ready:
        return []
    chunk = sock.recv(1 << 16)
    if not chunk:
        raise ConnectionError("daemon closed the connection")
    return decoder.feed(chunk)


def register_base(sock: socket.socket, names: List[str]) -> int:
    """REGISTER every base name (pipelined); returns the refused or
    unanswered count once all ACKs are in or the deadline passed."""
    decoder = sched.Decoder()
    sock.sendall(sched.register_frames(names))
    pending = set(names)
    refused = 0
    deadline = perf_counter() + REGISTER_DEADLINE_S
    while pending and perf_counter() < deadline:
        for frame in read_frames(sock, decoder, deadline):
            if frame.get("type") == "ACK" and frame.get("re") == "REGISTER":
                pending.discard(frame.get("name"))
                if not frame.get("ok"):
                    refused += 1
                    log(f"REGISTER refused: {frame.get('error')}")
    return refused + len(pending)


class Writer(threading.Thread):
    """Sends base HEARTBEAT frames on the base connection, unpaced
    (flood) or on a seeded open-loop schedule (paced)."""

    def __init__(self, sock: socket.socket, seed: int, names: List[str],
                 paced_ips: Optional[float], seconds: float) -> None:
        super().__init__(daemon=True)
        self.sock = sock
        self.frame = {n: sched.heartbeat_frame(n) for n in names}
        self.frame_bytes = len(next(iter(self.frame.values())))
        if paced_ips is None:
            self.buffer, _ = sched.flood_buffer(seed, names, rounds=64)
            self.schedule = None
        else:
            fps = paced_ips / sched.INDICATIONS_PER_FRAME
            self.schedule = sched.paced_schedule(seed, names, fps, seconds)
        self.stop_event = threading.Event()
        self.bytes_sent = 0
        self.lags: List[float] = []
        self.error: Optional[str] = None

    @property
    def frames_sent(self) -> int:
        # Every base frame has the same length (names are fixed-width).
        return self.bytes_sent // self.frame_bytes

    def run(self) -> None:
        try:
            if self.schedule is None:
                self._flood()
            else:
                self._paced()
        except (OSError, ConnectionError) as exc:
            self.error = repr(exc)

    def _flood(self) -> None:
        view = memoryview(self.buffer)
        offset = 0
        self.sock.settimeout(0.2)
        give_up = None
        while True:
            if self.stop_event.is_set():
                if offset % self.frame_bytes == 0:
                    return
                # Finish the frame in flight so the daemon never holds
                # half a frame; give up if it has stopped reading.
                give_up = give_up or perf_counter() + BARRIER_DEADLINE_S
                if perf_counter() > give_up:
                    self.error = "daemon stopped reading mid-frame"
                    return
                end = (offset // self.frame_bytes + 1) * self.frame_bytes
            else:
                end = len(view)
            try:
                sent = self.sock.send(view[offset:end])
            except socket.timeout:
                continue
            offset += sent
            self.bytes_sent += sent
            if offset == len(view):
                offset = 0

    def _paced(self) -> None:
        # A frame is small next to the socket buffer, so sendall only
        # blocks when the daemon stopped reading; past the deadline the
        # run ends with the writer's error reported.
        self.sock.settimeout(BARRIER_DEADLINE_S)
        start = perf_counter()
        for at, name in self.schedule:
            if self.stop_event.is_set():
                return
            due = start + at
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lags.append(perf_counter() - due)
            self.sock.sendall(self.frame[name])
            self.bytes_sent += self.frame_bytes


def run_probe(port: int, name: str, window: int) -> Dict:
    """REGISTER + one HEARTBEAT in one write, silence, await the
    DETECTION, BYE.  Latencies are measured from that write."""
    result = {"register_ms": None, "detect_ms": None, "kind_ok": True,
              "registered": False, "busy_s": 0.0}
    begin = perf_counter()
    payload = (sched.encode("REGISTER", name=name,
                            hypothesis=sched.probe_hypothesis(window))
               + sched.encode("HEARTBEAT", name=name,
                              batch=[[sched.PROBE_RUNNABLE, None,
                                      sched.PROBE_TASK]]))
    decoder = sched.Decoder()
    try:
        sock = connect(port)
    except OSError as exc:
        log(f"probe connect failed: {exc!r}")
        return result
    try:
        sent_at = perf_counter()
        sock.sendall(payload)
        deadline = sent_at + PROBE_DEADLINE_S
        while perf_counter() < deadline and result["detect_ms"] is None:
            for frame in read_frames(sock, decoder, deadline):
                kind = frame.get("type")
                now_ms = (perf_counter() - sent_at) * 1e3
                if kind == "ACK" and frame.get("re") == "REGISTER":
                    result["register_ms"] = now_ms
                    result["registered"] = bool(frame.get("ok"))
                    if not frame.get("ok"):
                        deadline = 0.0
                        break
                elif (kind == "DETECTION" and frame.get("name") == name
                      and result["detect_ms"] is None):
                    result["detect_ms"] = now_ms
                    result["kind_ok"] = (
                        frame.get("error_type") == "aliveness"
                        and frame.get("runnable") == sched.PROBE_RUNNABLE)
        sock.sendall(sched.encode("BYE"))
        deadline = perf_counter() + PROBE_DEADLINE_S
        byed = False
        while not byed and perf_counter() < deadline:
            for frame in read_frames(sock, decoder, deadline):
                if frame.get("type") == "ACK" and frame.get("re") == "BYE":
                    byed = True
    except (OSError, ConnectionError) as exc:
        log(f"probe {name} failed: {exc!r}")
    finally:
        sock.close()
        result["busy_s"] = perf_counter() - begin
    return result


def barrier(sock: socket.socket, base: set) -> Tuple[bool, int]:
    """HELLO round trip on the base connection: frames are dispatched in
    order, so its ACK means every earlier frame was read.  Returns
    (reached, DETECTIONs received for base registrations)."""
    decoder = sched.Decoder()
    sock.settimeout(10.0)
    sock.sendall(sched.encode("HELLO", client="barrier"))
    deadline = perf_counter() + BARRIER_DEADLINE_S
    healthy_detections = 0
    try:
        while perf_counter() < deadline:
            for frame in read_frames(sock, decoder, deadline):
                if frame.get("type") == "DETECTION" and frame.get("name") in base:
                    healthy_detections += 1
                    log(f"detection on healthy registration: {frame}")
                if frame.get("type") == "ACK" and frame.get("re") == "HELLO":
                    return True, healthy_detections
    except (OSError, ConnectionError) as exc:
        log(f"barrier failed: {exc!r}")
    return False, healthy_detections


# ----------------------------------------------------------------------
# one service phase
# ----------------------------------------------------------------------
def start_daemon(work: str, tag: str, mix: Dict, names: List[str],
                 trace: bool) -> Tuple[Daemon, socket.socket, float, int]:
    """Start a daemon and register the base fleet; returns (daemon,
    base connection, set-up seconds, failed REGISTERs)."""
    daemon = Daemon(work, tag, state_dir=mix["state_dir"], trace=trace)
    try:
        daemon.wait_ready(perf_counter() + 30.0)
        sock = connect(daemon.port)
        failed = register_base(sock, names)
    except BaseException:
        daemon.stop()
        raise
    return daemon, sock, perf_counter() - daemon.started, failed


def service_phase(work: str, mix_name: str, seed: int, seconds: float,
                  trace: bool) -> Dict:
    mix = MIXES[mix_name]
    names = sched.base_names(seed, mix["base"])
    setup_times = []
    register_failed = 0
    for index in range(SETUPS):
        tag = f"{mix_name}-{index}"
        daemon, sock, setup_s, failed = start_daemon(
            work, tag, mix, names, trace and index == SETUPS - 1)
        setup_times.append(setup_s)
        register_failed += failed
        if index < SETUPS - 1:
            sock.close()
            daemon.stop()
    try:
        return _measure(daemon, sock, mix, names, seed, seconds, trace,
                        setup_times, register_failed)
    finally:
        sock.close()
        daemon.stop()


def _measure(daemon: Daemon, sock: socket.socket, mix: Dict,
             names: List[str], seed: int, seconds: float, trace: bool,
             setup_times: List[float], register_failed: int) -> Dict:
    writer = Writer(sock, seed, names, mix["paced_ips"],
                    WARMUP_S + seconds + BARRIER_DEADLINE_S)
    writer.start()
    probes = sched.probe_plan(seed, 20_000, mix["probe_rate"])
    results: List[Dict] = []
    try:
        time.sleep(WARMUP_S)
        if trace:
            daemon.signal(signal.SIGUSR1)
        windows = [daemon.try_health()]
        frames0 = writer.frames_sent
        t0 = perf_counter()
        phase_end = t0 + seconds
        next_window = t0 + WINDOW_S

        def wait_until(when: float) -> None:
            nonlocal next_window
            while True:
                now = perf_counter()
                if now >= next_window:
                    windows.append(daemon.try_health())
                    while next_window <= perf_counter():
                        next_window += WINDOW_S
                    continue
                if now >= when:
                    return
                time.sleep(min(when, next_window) - now)

        for probe in probes:
            start = max(t0 + probe.at, perf_counter() + probe.pause)
            if start >= phase_end:
                break
            wait_until(start)
            results.append(run_probe(daemon.port, probe.name,
                                     mix["probe_window"]))
        wait_until(phase_end)
        elapsed = perf_counter() - t0
        frames1 = writer.frames_sent
        windows.append(daemon.try_health())
        trace_report = daemon.read_trace(perf_counter() + 30.0) if trace else None
    finally:
        writer.stop_event.set()
        writer.join(BARRIER_DEADLINE_S + 5.0)
    if writer.is_alive():
        raise BenchError("writer thread did not stop")
    reached, healthy_detections = barrier(sock, set(names))
    final = None
    deadline = perf_counter() + BARRIER_DEADLINE_S
    while perf_counter() < deadline:
        final = daemon.try_health() or final
        if reached and final is not None and not final.get("queued", 0):
            break
        time.sleep(0.05)
    if final is None:
        raise BenchError("the daemon never answered /healthz after the run")
    queued = final.get("queued", 0)
    counters = daemon.counters()
    rss = daemon.peak_rss_mb()

    ind_sent = (writer.frames_sent * sched.INDICATIONS_PER_FRAME
                + len(results))
    rejected = int(counters.get("service_malformed_frames_total", 0)
                   + counters.get("service_unknown_registration_total", 0))
    applied = int(final["indications"])
    dropped = int(final.get("dropped", 0))
    accounted = applied + dropped + rejected + queued
    checks = []
    if accounted != ind_sent:
        checks.append(f"indications: applied {applied} + dropped {dropped}"
                      f" + rejected {rejected} + queued {queued} != sent"
                      f" {ind_sent}")
    wrong_kind = sum(1 for r in results if r["detect_ms"] is not None
                     and not r["kind_ok"])
    if wrong_kind:
        checks.append(f"{wrong_kind} probes detected with the wrong error")
    if writer.error:
        checks.append(f"writer: {writer.error}")
    if not reached:
        checks.append("end-of-run barrier not reached")

    probe_failed = sum(1 for r in results
                       if not r["registered"] or r["detect_ms"] is None)
    # A failed probe never completes: its duration counts as unbounded.
    durations = [r["busy_s"] if r["registered"] and r["detect_ms"] is not None
                 else float("inf") for r in results]
    # Unanswered requests count as missing every limit: the deadline.
    detect = [r["detect_ms"] if r["detect_ms"] is not None
              else PROBE_DEADLINE_S * 1e3 for r in results]
    register = [r["register_ms"] if r["registered"]
                else PROBE_DEADLINE_S * 1e3 for r in results]
    missed_windows = windows.count(None)
    windows = [w for w in windows if w is not None]
    if len(windows) < 2:
        raise BenchError("the daemon answered /healthz fewer than twice")
    h0, h1 = windows[0], windows[-1]
    rates, on_time = [], []
    for before, after in zip(windows, windows[1:]):
        span_s = (after["uptime_us"] - before["uptime_us"]) / 1e6
        rates.append((after["indications"] - before["indications"]) / span_s)
        on_time.append((after["ticks"] - before["ticks"]) / (span_s / TICK_S))
    lag_p99_ms = percentile(writer.lags, 99) * 1e3
    if lag_p99_ms > GEN_LAG_LIMIT_MS:
        log(f"FLAG: generator fell behind its schedule (p99 lag "
            f"{lag_p99_ms:.1f} ms): this run measured the generator")
    failed_ops = (register_failed + probe_failed + healthy_detections
                  + rejected + missed_windows)
    attempted_ops = (len(names) * len(setup_times) + 2 * len(results)
                     + ind_sent + len(windows) + missed_windows)
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": attempted_ops,
        "failed": failed_ops,
        "shed": dropped,
        "setup_s": statistics.median(setup_times),
        "ingest_ips": statistics.median(rates),
        "tick_on_time": statistics.median(on_time),
        "detect": detect,
        "register": register,
        # The rate a closed loop of probes reaches at the median probe
        # duration (as the campaign's rate uses its median pass time).
        "probe_runs_per_s": (1.0 / statistics.median(durations)
                             if durations else 0.0),
        "peak_rss_mb": rss,
        "dropped": h1.get("dropped", 0) - h0.get("dropped", 0),
        "missed_ticks": h1["missed_ticks"] - h0["missed_ticks"],
        "offered_ips": (frames1 - frames0) * sched.INDICATIONS_PER_FRAME
        / elapsed,
        "lag_p99_ms": lag_p99_ms,
        "probes": len(results),
        "tick_ms": 1e3 * (counters.get("service_tick_duration_seconds_sum", 0)
                          / max(counters.get(
                              "service_tick_duration_seconds_count", 0), 1)),
        "trace": trace_report,
    }


# ----------------------------------------------------------------------
# the campaign process
# ----------------------------------------------------------------------
def campaign_phase(seed: int, seconds: float, trace: bool) -> Dict:
    setup_times = []
    report = None
    for index in range(SETUPS):
        measured = index == SETUPS - 1
        cmd = [sys.executable, os.path.join(HERE, "campaign.py"),
               "--seed", str(seed),
               "--seconds", str(seconds if measured else 0)]
        if trace and measured:
            cmd.append("--trace")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=seconds + 60.0, check=False,
                              preexec_fn=lambda: pin(0, DAEMON_CPU))
        if proc.returncode != 0:
            raise BenchError("campaign process failed: "
                             + proc.stderr.decode()[-2000:])
        report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        setup_times.append(report["setup_s"])
    report["setup_s"] = statistics.median(setup_times)
    return report


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _merge(traces: List[Dict]) -> Dict:
    merged = {"cpu_s": 0.0, "self_s": {}, "total_s": {}, "calls": {},
              "counts": {}, "maxima": {}, "samples": {}}
    for tr in traces:
        merged["cpu_s"] += tr["cpu_s"]
        for key in ("self_s", "total_s", "calls", "counts"):
            for name, value in tr[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, value in tr["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, 0), value)
        for name, values in tr["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def per_layer(service: Dict, campaign: Optional[Dict]) -> Dict[str, float]:
    traces = [service["trace"]] + ([campaign["trace"]] if campaign else [])
    tr = _merge(traces)
    own, total, calls = tr["self_s"], tr["total_s"], tr["calls"]
    counts, maxima, samples = tr["counts"], tr["maxima"], tr["samples"]

    def ms_p99(name: str) -> float:
        return percentile(samples.get(name, []), 99) * 1e3

    attempted = service["attempted"] + (campaign["attempted"] if campaign else 0)
    failed = service["failed"] + service["shed"] + (
        campaign["raised"] if campaign else 0)
    values = {
        "protocol.decode_s": own.get("protocol.decode", 0.0),
        "protocol.frames_in": counts.get("protocol.frames_in", 0),
        "protocol.bytes_in": counts.get("protocol.bytes_in", 0),
        "protocol.encode_s": own.get("protocol.encode", 0.0),
        "server.other_s": own.get("loop", 0.0) + own.get("server.tick", 0.0),
        "server.loop_lag_p99_ms": ms_p99("server.loop_lag"),
        "server.tick_late_p99_ms": ms_p99("server.tick_late"),
        "server.queued_max": maxima.get("server.queued", 0),
        "server.dropped": service["dropped"],
        "server.missed_ticks": service["missed_ticks"],
        "supervisor.apply_s": own.get("supervisor.apply", 0.0),
        "supervisor.applied": counts.get("supervisor.applied", 0),
        "supervisor.shard_tick_s": own.get("supervisor.shard_tick", 0.0),
        "supervisor.register_s": own.get("supervisor.register", 0.0),
        "core.heartbeat_s": own.get("core.heartbeat", 0.0),
        "core.check_cycle_s": own.get("core.check_cycle", 0.0),
        "core.check_cycles": calls.get("core.check_cycle", 0),
        "core.detections": counts.get("core.detections", 0),
        "fleet.tick_s": total.get("fleet.tick", 0.0),
        "fleet.tick_p99_ms": ms_p99("fleet.tick"),
        "fleet.rollup_s": own.get("fleet.tick", 0.0),
        "fleet.snapshot_s": own.get("fleet.snapshot", 0.0),
        "persistence.payload_s": own.get("persistence.payload", 0.0),
        "persistence.write_s": own.get("persistence.write", 0.0),
        "persistence.snapshot_bytes": maxima.get("persistence.snapshot_bytes", 0),
        "persistence.append_s": own.get("persistence.append", 0.0),
        "persistence.journal_records": calls.get("persistence.append", 0),
        "lint.lint_s": own.get("lint.lint", 0.0),
        "lint.calls": calls.get("lint.lint", 0),
        "faults.build_s": own.get("faults.build", 0.0),
        "faults.run_s": own.get("faults.run", 0.0),
        "kernel.run_s": own.get("kernel.run", 0.0),
        "gen.offered_ips": service["offered_ips"],
        "gen.lag_p99_ms": service["lag_p99_ms"],
        "failed_ratio": failed / attempted,
        "register_p50_ms": percentile(service["register"], 50),
        "register_p95_ms": percentile(service["register"], 95),
        "trace.busy_s": tr["cpu_s"],
        "trace.accounted_share": (sum(own.values()) / tr["cpu_s"]
                                  if tr["cpu_s"] else 0.0),
        "trace.ingest_ips": service["ingest_ips"],
        "trace.campaign_runs_per_s": (
            campaign_rate(campaign) if campaign
            else service["probe_runs_per_s"]),
    }
    return values


def campaign_rate(campaign: Dict) -> float:
    """Runs per second at the median pass time (passes are identical
    work, so the median sheds passes slowed by the host)."""
    return campaign["runs_per_pass"] / statistics.median(campaign["pass_s"])


def end_to_end(service: Dict, campaign: Optional[Dict]) -> Dict[str, float]:
    """With a campaign half, set-up time and peak memory are the sums
    over the daemon and the campaign process, so a change to either
    shows."""
    values = {
        "setup_s": service["setup_s"],
        "ingest_ips": service["ingest_ips"],
        "tick_on_time": service["tick_on_time"],
        "detect_p50_ms": percentile(service["detect"], 50),
        "detect_p95_ms": percentile(service["detect"], 95),
        "campaign_runs_per_s": service["probe_runs_per_s"],
        "peak_rss_mb": service["peak_rss_mb"],
    }
    if campaign is not None:
        values["setup_s"] += campaign["setup_s"]
        values["campaign_runs_per_s"] = campaign_rate(campaign)
        values["peak_rss_mb"] += campaign["rss_mb"]
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    pin(0, GENERATOR_CPU)
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        campaign = None
        if workload == "fleet":
            # Half the run is the E1 campaign, half the fleet service mix.
            campaign = campaign_phase(seed, seconds / 2, trace)
            seconds /= 2
        service = service_phase(work, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there
    checks = list(service["checks"])
    attempted = service["attempted"]
    failed = service["failed"]
    if campaign is not None:
        checks += [f"campaign mismatch vs golden: {m}"
                   for m in campaign["mismatches"]]
        attempted += campaign["attempted"]
        failed += campaign["raised"]
    if service["probes"] < 1:
        checks.append("no probe completed")
    log(f"{workload}: probes={service['probes']} "
        f"offered_ips={service['offered_ips']:.0f} "
        f"dropped={service['dropped']} missed_ticks={service['missed_ticks']}"
        f" mean_tick_ms={service['tick_ms']:.2f}"
        f" gen_lag_p99_ms={service['lag_p99_ms']:.2f}")
    for check in checks:
        log(f"CHECK FAILED: {check}")
    values = per_layer(service, campaign) if trace else end_to_end(service, campaign)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not checks,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["flood", "fleet", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no program sources under {os.path.join(ROOT, 'src')}; run "
            "from the root of a full checkout")
        return 2

    def on_alarm(signum, frame):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")

    workloads = (["flood", "fleet"] if args.workload == "all"
                 else [args.workload])
    ok = True
    for workload in workloads:
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(int(RUN_DEADLINE_S))
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
        except BenchError as exc:
            log(f"benchmark error: {exc}")
            return 3
        finally:
            signal.alarm(0)
        if args.workload == "all":
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} = {metric['value']:.6g} "
                      f"{metric['unit']}")
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
