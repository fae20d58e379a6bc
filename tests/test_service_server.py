"""The asyncio daemon: transport, degradation, overload, HTTP."""

import asyncio
import json
import os
import socket
import struct
import subprocess
import sys
import time

import pytest

from repro.core import FaultHypothesis, RunnableHypothesis
from repro.core.config_io import hypothesis_to_dict
from repro.core.reports import ErrorType, MonitorState
from repro.service import SupervisionServer, WatchdogClient
from repro.service.protocol import (
    FrameDecoder,
    PROTOCOL_VERSION,
    T_ACK,
    T_BYE,
    T_DETECTION,
    T_HEARTBEAT,
    T_HELLO,
    T_REGISTER,
    encode_frame,
)


def make_hyp_dict(prefix: str = "", task: str = "T"):
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}sense", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.add_runnable(RunnableHypothesis(
        f"{prefix}act", task=task, aliveness_period=2, min_heartbeats=1,
        arrival_period=2, max_heartbeats=8))
    hyp.allow_sequence([f"{prefix}sense", f"{prefix}act"])
    return hypothesis_to_dict(hyp)


def make_wide_hyp_dict():
    """One runnable whose windows no flood or stall can violate."""
    hyp = FaultHypothesis()
    hyp.add_runnable(RunnableHypothesis(
        "hot", task="T", aliveness_period=1_000_000, min_heartbeats=1,
        arrival_period=1_000_000, max_heartbeats=10 ** 9))
    return hypothesis_to_dict(hyp)


async def start_server(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("tick_interval", None)
    server = SupervisionServer(**kwargs)
    await server.start()
    return server


async def in_thread(fn, *args):
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


async def barrier(peer):
    """HELLO round-trip: frames are dispatched in order per connection
    and an indication is applied when its frame is dispatched, so once
    the ACK arrives every prior indication has been applied."""
    await peer.send(T_HELLO, client="barrier")
    ack = await peer.recv_frame()
    assert ack.get("ok")


class _WireClient:
    """A raw protocol peer driven from inside the event loop."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.frames = []

    @classmethod
    async def connect(cls, server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        return cls(reader, writer)

    async def send(self, type, **data):
        self.writer.write(encode_frame(type, **data))
        await self.writer.drain()

    async def send_raw(self, payload: bytes):
        self.writer.write(payload)
        await self.writer.drain()

    async def recv_frame(self, timeout=5.0):
        while not self.frames:
            chunk = await asyncio.wait_for(
                self.reader.read(65536), timeout=timeout)
            assert chunk, "server closed the connection"
            self.frames.extend(self.decoder.feed(chunk))
        return self.frames.pop(0)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestWireServer:
    def test_hello_register_heartbeat_bye(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_HELLO, client="it")
            ack = await peer.recv_frame()
            assert ack.type == T_ACK and ack.get("ok")
            assert ack.get("server") == server.name
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("shard") == 0
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 5, "T"], ["act", 6, "T"]])
            await barrier(peer)
            registration = server.fleet.registration("p")
            assert registration.indications == 2
            await peer.send(T_BYE)
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            await peer.close()
            await asyncio.sleep(0.02)
            assert not registration.active
            await server.stop()
        asyncio.run(scenario())

    def test_malformed_payload_gets_error_ack_connection_survives(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(struct.pack("!I", 9) + b"{not json")
            ack = await peer.recv_frame()
            assert ack.type == T_ACK and not ack.get("ok")
            # The same connection still works afterwards.
            await peer.send(T_HELLO, client="still-here")
            ack = await peer.recv_frame()
            assert ack.get("ok")
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_deeply_nested_payload_gets_error_ack_connection_survives(self):
        """A frame nested past the recursion limit is one malformed frame:
        the HEARTBEAT before it in the same write is applied, the bad one
        is ACKed ok=false, and the connection keeps working."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            depth = 100_000
            body = (b'{"v":1,"type":"HELLO","x":' + b"[" * depth
                    + b"]" * depth + b"}")
            await peer.send_raw(
                encode_frame(T_HEARTBEAT, name="p", batch=[["sense", 5, "T"]])
                + struct.pack("!I", len(body)) + body)
            ack = await peer.recv_frame()
            assert ack.type == T_ACK and not ack.get("ok")
            assert "recursion" in ack.get("error")
            await barrier(peer)
            assert server.fleet.registration("p").indications == 1
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_corrupt_length_header_closes_connection(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send_raw(struct.pack("!I", 1 << 30) + b"junk")
            ack = await peer.recv_frame()
            assert not ack.get("ok")
            chunk = await asyncio.wait_for(peer.reader.read(65536), timeout=5)
            assert chunk == b""  # server hung up: framing is unrecoverable
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_register_rejections(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, hypothesis=make_hyp_dict())
            assert not (await peer.recv_frame()).get("ok")  # missing name
            await peer.send(T_REGISTER, name="p", hypothesis="nope")
            assert not (await peer.recv_frame()).get("ok")  # not an object
            await peer.send(T_REGISTER, name="p", hypothesis={"version": 9})
            nack = await peer.recv_frame()
            assert not nack.get("ok")
            assert "invalid hypothesis" in nack.get("error")
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_duplicate_register_takes_over_idempotently(self):
        """Regression: a reconnecting client replays REGISTER before the
        server notices its old (half-open) connection died.  That used
        to be rejected as "bound to a live connection", stranding the
        client; now the identical hypothesis rebinds idempotently and
        the new connection takes over the push channel."""
        async def scenario():
            server = await start_server()
            old = await _WireClient.connect(server)
            await old.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            first = await old.recv_frame()
            assert first.get("ok")
            assert first.get("rebound") is False
            first_conn = server._conn_of["p"]
            new = await _WireClient.connect(server)
            await new.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            ack = await new.recv_frame()
            assert ack.get("ok")
            assert ack.get("rebound") is True
            assert ack.get("shard") == first.get("shard")
            # Exactly one registration — the REGISTER was idempotent.
            assert len(server.fleet.registrations) == 1
            # The push channel follows the newest connection; the stale
            # binding no longer claims the registration.
            assert server._conn_of["p"] is not first_conn
            assert "p" not in first_conn.registrations
            await old.close()
            await new.close()
            await server.stop()
        asyncio.run(scenario())

    def test_duplicate_register_different_hypothesis_still_rejected(self):
        async def scenario():
            server = await start_server()
            owner = await _WireClient.connect(server)
            await owner.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await owner.recv_frame()).get("ok")
            thief = await _WireClient.connect(server)
            other = make_hyp_dict()
            other["runnables"][0]["aliveness_period"] = 99
            await thief.send(T_REGISTER, name="p", hypothesis=other)
            nack = await thief.recv_frame()
            assert not nack.get("ok")
            assert "different hypothesis" in nack.get("error")
            await owner.close()
            await thief.close()
            await server.stop()
        asyncio.run(scenario())

    def test_server_only_frame_from_client_nacked(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_DETECTION, name="p")
            nack = await peer.recv_frame()
            assert not nack.get("ok")
            assert "may not send" in nack.get("error")
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_null_heartbeat_time_stamped_by_server(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            await peer.recv_frame()
            await peer.send(T_HEARTBEAT, name="p", batch=[["sense", None, "T"]])
            await barrier(peer)
            assert server.fleet.registration("p").indications == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_frames_before_corrupt_header_dispatched(self):
        """HEARTBEAT and BYE sent in the same write as a corrupt length
        header are still applied: the BYE deactivates the registration,
        so its silence is not reported as a crash."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send_raw(
                encode_frame(T_HEARTBEAT, name="p",
                             batch=[["sense", 1, "T"], ["act", 2, "T"]])
                + encode_frame(T_BYE)
                + b"\xff\xff\xff\xff" + b"junk")
            ack = await peer.recv_frame()
            assert ack.get("ok") and ack.get("re") == T_BYE
            registration = server.fleet.registration("p")
            assert registration.indications == 2
            assert not registration.active
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_corrupt_header_after_frames_acks_error_and_hangs_up(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send_raw(
                encode_frame(T_HEARTBEAT, name="p", batch=[["sense", 1, "T"]])
                + struct.pack("!I", 1 << 30) + b"junk")
            nack = await peer.recv_frame()
            assert not nack.get("ok") and "corrupt" in nack.get("error")
            chunk = await asyncio.wait_for(peer.reader.read(65536), timeout=5)
            assert chunk == b""
            assert server.fleet.registration("p").indications == 1
            assert server.fleet.registration("p").active
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_heartbeat_task_must_be_str_or_null(self):
        """A non-string task is a malformed entry: it is not applied
        (an int would become a PFC stream key that a snapshot turns into
        a string) and it is not counted as a handler error."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p", batch=[
                ["sense", 1, 5], ["sense", 2, ["x"]], ["act", 3, {"t": 1}],
                ["sense", 4, "T"], ["act", 5, None],
            ])
            await barrier(peer)
            assert server.fleet.registration("p").indications == 2
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 3
            assert server.handler_errors == 0
            watchdog = server.fleet.registration("p").watchdog
            assert all(isinstance(key, str)
                       for key in watchdog.pfc.snapshot_state()["last"])
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_malformed_entries_skipped_rest_applied(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p", batch=[
                "abc", ["sense", 1], [1, 2, "T"], ["sense", "1", "T"],
                ["sense", True, "T"], [["sense"], 1, "T"], {"a": 1, "b": 2, "c": 3},
                None, 7, ["sense", 9, "T"],
            ])
            await barrier(peer)
            assert server.fleet.registration("p").indications == 1
            assert server.telemetry.counter(
                "service_malformed_frames_total").value == 9
            assert server.handler_errors == 0
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class TestDegradation:
    def test_disconnect_without_bye_becomes_missed_heartbeats(self):
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            await peer.send(T_HEARTBEAT, name="p",
                            batch=[["sense", 1, "T"], ["act", 2, "T"]])
            await barrier(peer)
            await peer.close()  # vanish without BYE
            await asyncio.sleep(0.02)
            registration = server.fleet.registration("p")
            assert registration.active  # NOT deactivated: crash suspected
            assert not registration.connected
            detections = []
            server.fleet.add_detection_listener(
                lambda name, e: detections.append(e))
            for cycle in range(1, 16):
                server.tick(cycle * 10)
            assert any(e.error_type is ErrorType.ALIVENESS for e in detections)
            assert server.fleet.registration_states()["p"] is MonitorState.FAULTY
            assert server.telemetry.counter(
                "service_disconnects_total", graceful="false").value == 1
            await server.stop()
        asyncio.run(scenario())

    def test_flood_keeps_ticker_on_time_and_loses_nothing(self):
        """Overload: a client writing HEARTBEAT frames unpaced is
        throttled by bounded reads and TCP flow control, so the ticker
        keeps most of its check cycles, another connection is still
        served, and every indication sent is accounted for."""
        period = 0.01
        batch = [["hot", None, "T"]] * 8
        burst = encode_frame(T_HEARTBEAT, name="flood", batch=batch) * 64

        def flood(host, port, seconds):
            sock = socket.create_connection((host, port), timeout=10)
            decoder = FrameDecoder()

            def request(type, **data):
                sock.sendall(encode_frame(type, **data))
                while True:
                    acks = [f for f in decoder.feed(sock.recv(65536))
                            if f.type == T_ACK]
                    if acks:
                        return acks[0]

            assert request(T_REGISTER, name="flood",
                           hypothesis=make_wide_hyp_dict()).get("ok")
            sent = 0
            stop_at = time.monotonic() + seconds
            while time.monotonic() < stop_at:
                sock.sendall(burst)
                sent += 64 * len(batch)
            assert request(T_HELLO, client="flood").get("ok")
            sock.close()
            return sent

        async def scenario():
            server = await start_server(tick_interval=period)
            loop = asyncio.get_running_loop()
            ticks0 = server.fleet.stats()["ticks"]
            began = loop.time()
            writer = loop.run_in_executor(
                None, flood, server.host, server.port, 1.0)
            await asyncio.sleep(0.3)
            peer = await _WireClient.connect(server)
            await peer.send(T_HELLO, client="second")
            assert (await peer.recv_frame()).get("ok")
            sent = await writer
            due = (loop.time() - began) / period
            ran = server.fleet.stats()["ticks"] - ticks0
            assert ran >= due / 2, f"{ran} of {due:.0f} check cycles ran"
            applied = server.fleet.registration("flood").indications
            malformed = server.telemetry.counter(
                "service_malformed_frames_total").value
            assert applied + malformed == sent
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_poisoned_indication_counted_rest_of_batch_applied(self):
        """A handler exception is isolated to its indication: it is
        counted, and the indications after it are still applied."""
        async def scenario():
            server = await start_server()
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            assert (await peer.recv_frame()).get("ok")
            pfc = server.fleet.registration("p").watchdog.pfc
            original = pfc.observe

            def exploding(runnable, time, task=None):
                if runnable == "poison":
                    raise RuntimeError("boom")
                return original(runnable, time, task)

            pfc.observe = exploding
            await peer.send(T_HEARTBEAT, name="p", batch=[
                ["sense", 1, "T"], ["poison", 2, "T"], ["act", 3, "T"],
            ])
            await barrier(peer)
            assert server.handler_errors == 1
            assert server.telemetry.counter(
                "service_handler_errors_total").value == 1
            # The items after the poison were still applied.
            assert server.fleet.registration("p").indications == 2
            assert server.health()["handler_errors"] == 1
            await peer.close()
            await server.stop()
        asyncio.run(scenario())


class TestSdkAgainstServer:
    def test_sdk_register_heartbeat_detection_push(self):
        async def scenario():
            server = await start_server(shards=2)
            address = (server.host, server.port)

            def client_setup():
                client = WatchdogClient(address, client_name="sdk",
                                        batch_size=4)
                client.connect()
                ack = client.register("p", make_hyp_dict())
                assert ack["shard"] == 0
                for t in (10, 20, 30):
                    client.task_start("T", t)
                    client.heartbeat("sense", t, "T")
                    client.heartbeat("act", t + 1, "T")
                assert client.sync()
                return client

            client = await in_thread(client_setup)
            assert server.tick(100) == []
            for t in (200, 300, 400, 500):
                server.tick(t)
            await asyncio.sleep(0.02)
            await in_thread(client.poll)
            assert client.detections
            assert {d["error_type"] for d in client.detections} == {"aliveness"}
            scopes = {s["scope"] for s in client.states}
            assert "fleet" in scopes
            await in_thread(client.close)
            await asyncio.sleep(0.02)
            assert not server.fleet.registration("p").active
            await server.stop()
        asyncio.run(scenario())

    def test_unix_socket_transport(self, tmp_path):
        async def scenario():
            path = str(tmp_path / "wd.sock")
            server = SupervisionServer(unix_path=path, tick_interval=None)
            await server.start()

            def client_work():
                with WatchdogClient(path, client_name="unix") as client:
                    client.register("p", make_hyp_dict())
                    client.heartbeat("sense", 1, "T")
                    assert client.sync()
                return True

            assert await in_thread(client_work)
            assert server.fleet.registration("p").indications == 1
            await server.stop()
            import os
            assert not os.path.exists(path)  # unlinked on stop
        asyncio.run(scenario())


class TestHttp:
    def test_metrics_and_healthz(self):
        async def scenario():
            server = await start_server(http_port=0)
            peer = await _WireClient.connect(server)
            await peer.send(T_REGISTER, name="p", hypothesis=make_hyp_dict())
            await peer.recv_frame()
            await peer.send(T_HEARTBEAT, name="p", batch=[["sense", 1, "T"]])
            await barrier(peer)
            server.tick(10)

            async def http_get(path):
                reader, writer = await asyncio.open_connection(
                    server.host, server.http_port)
                writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(-1), timeout=5)
                writer.close()
                await writer.wait_closed()
                head, _, body = raw.partition(b"\r\n\r\n")
                return head.decode("latin-1"), body.decode()

            head, body = await http_get("/metrics")
            assert "200 OK" in head
            assert "service_indications_total 1" in body
            assert "# TYPE service_tick_duration_seconds histogram" in body
            assert "wd_hbm_heartbeats_total" in body  # watchdog units share it

            head, body = await http_get("/healthz")
            assert "200 OK" in head
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["registrations"] == 1
            assert health["shards"] == 1

            head, _ = await http_get("/nope")
            assert "404" in head
            await peer.close()
            await server.stop()
        asyncio.run(scenario())

    def test_post_rejected(self):
        async def scenario():
            server = await start_server(http_port=0)
            reader, writer = await asyncio.open_connection(
                server.host, server.http_port)
            writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(-1), timeout=5)
            assert b"405" in raw
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(scenario())


class TestStartup:
    def test_lint_imported_with_the_server(self):
        """wdlint is loaded when the daemon module is, so a fresh
        daemon's first REGISTER does not pay for the import on the
        event loop (and miss a check cycle)."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; import repro.service.server; "
                "print('repro.lint' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert out.stdout.strip() == "True"


class TestTicker:
    def test_real_time_ticker_drives_check_cycles(self):
        async def scenario():
            server = await start_server(tick_interval=0.005)
            await asyncio.sleep(0.06)
            await server.stop()
            assert server.fleet.stats()["ticks"] >= 5
        asyncio.run(scenario())

    def test_overrunning_check_cycle_still_yields(self):
        """Regression: the ticker used to await only while its next
        cycle lay in the future.  Once a check cycle cost more than the
        period it never yielded again, so no socket was read and no
        timer fired.  Each cycle here costs about twice the period; the
        slowdown ends after a few seconds, so a regression fails the
        deadline instead of hanging the suite."""
        period = 0.01
        deadline = 2.0

        async def scenario():
            server = await start_server(tick_interval=period)
            loop = asyncio.get_running_loop()
            original = server.fleet.tick
            relent_at = time.monotonic() + 2 * deadline

            def slow_tick(now):
                if time.monotonic() < relent_at:
                    time.sleep(2 * period)
                return original(now)

            server.fleet.tick = slow_tick

            async def timed_sleep():
                await asyncio.sleep(0.001)
                return loop.time()

            async def timed_hello():
                peer = await _WireClient.connect(server)
                await peer.send(T_HELLO, client="second")
                ack = await peer.recv_frame(timeout=3 * deadline)
                await peer.close()
                assert ack.get("ok")
                return loop.time()

            began = loop.time()
            await asyncio.sleep(5 * period)  # the overrun sets in
            slept, answered = await asyncio.gather(
                timed_sleep(), timed_hello())
            assert slept - began < deadline
            assert answered - began < deadline
            assert server.missed_ticks > 0
            await server.stop()
        asyncio.run(scenario())

    def test_needs_some_listener(self):
        with pytest.raises(ValueError):
            SupervisionServer()

    def test_protocol_version_pinned(self):
        # The ACK path asserts v=1 framing end to end; a bump must be
        # deliberate.
        assert PROTOCOL_VERSION == 1
