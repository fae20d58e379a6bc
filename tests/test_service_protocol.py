"""Wire-protocol framing: encode/decode, resync, version discipline."""

import json
import struct

import pytest

from repro.service.protocol import (
    FatalProtocolError,
    Frame,
    FrameDecoder,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    T_ACK,
    T_BYE,
    T_HEARTBEAT,
    T_HELLO,
    encode_frame,
)


def decode_all(payload: bytes):
    return FrameDecoder().feed(payload)


class TestEncoding:
    def test_roundtrip(self):
        raw = encode_frame(T_HELLO, client="glue")
        (frame,) = decode_all(raw)
        assert isinstance(frame, Frame)
        assert frame.type == T_HELLO
        assert frame.data == {"client": "glue"}
        assert frame.version == PROTOCOL_VERSION

    def test_length_prefix_is_payload_length(self):
        raw = encode_frame(T_ACK, ok=True)
        (length,) = struct.unpack("!I", raw[:4])
        assert length == len(raw) - 4

    def test_version_stamped_into_payload(self):
        raw = encode_frame(T_ACK, ok=True)
        payload = json.loads(raw[4:])
        assert payload["v"] == PROTOCOL_VERSION
        assert payload["type"] == T_ACK

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(T_HEARTBEAT, blob="x" * (MAX_FRAME_BYTES + 1))


class TestDecoder:
    def test_multiple_frames_one_chunk(self):
        raw = encode_frame(T_HELLO, client="a") + encode_frame(T_ACK, ok=True)
        frames = decode_all(raw)
        assert [f.type for f in frames] == [T_HELLO, T_ACK]

    def test_byte_by_byte_feeding(self):
        raw = encode_frame(T_HEARTBEAT, name="p", batch=[["r", 1, None]])
        decoder = FrameDecoder()
        collected = []
        for i in range(len(raw)):
            collected.extend(decoder.feed(raw[i:i + 1]))
        assert len(collected) == 1
        assert collected[0].data["batch"] == [["r", 1, None]]
        assert decoder.pending_bytes() == 0

    def test_partial_frame_stays_pending(self):
        raw = encode_frame(T_HELLO, client="a")
        decoder = FrameDecoder()
        assert decoder.feed(raw[:-1]) == []
        assert decoder.pending_bytes() == len(raw) - 1
        (frame,) = decoder.feed(raw[-1:])
        assert frame.type == T_HELLO

    def _frame_with_body(self, body: bytes) -> bytes:
        return struct.pack("!I", len(body)) + body

    def test_malformed_json_rejected_without_killing_stream(self):
        bad = self._frame_with_body(b"{not json")
        good = encode_frame(T_ACK, ok=True)
        items = decode_all(bad + good)
        assert isinstance(items[0], ProtocolError)
        assert isinstance(items[1], Frame) and items[1].type == T_ACK

    def test_non_object_payload_rejected(self):
        bad = self._frame_with_body(b"[1, 2]")
        (item,) = decode_all(bad)
        assert isinstance(item, ProtocolError)
        assert "object" in str(item)

    def test_unknown_type_rejected(self):
        body = json.dumps({"v": PROTOCOL_VERSION, "type": "NOPE"}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)
        assert "NOPE" in str(item)

    def test_wrong_version_rejected(self):
        body = json.dumps({"v": 99, "type": T_HELLO}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)
        assert "version" in str(item)

    def test_missing_version_rejected(self):
        body = json.dumps({"type": T_HELLO}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)

    def test_rejection_counters(self):
        decoder = FrameDecoder()
        decoder.feed(self._frame_with_body(b"?") + encode_frame(T_ACK, ok=True))
        assert decoder.frames_rejected == 1
        assert decoder.frames_decoded == 1

    def test_corrupt_length_header_is_fatal(self):
        decoder = FrameDecoder()
        with pytest.raises(FatalProtocolError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"xxxx")

    def test_frames_before_corrupt_header_are_returned(self):
        """A corrupt length header loses no frame decoded before it: the
        frames come back first, the fatal error is surfaced after them."""
        decoder = FrameDecoder()
        raw = (encode_frame(T_HELLO, client="a") + encode_frame(T_BYE)
               + b"\xff\xff\xff\xff" + b"junk")
        frames = decoder.feed(raw)
        assert [f.type for f in frames] == [T_HELLO, T_BYE]
        assert decoder.frames_decoded == 2
        assert isinstance(decoder.error, FatalProtocolError)
        with pytest.raises(FatalProtocolError):
            decoder.feed(encode_frame(T_HELLO, client="b"))
        assert decoder.frames_decoded == 2

    def test_corrupt_header_with_nothing_before_it_raises_at_once(self):
        decoder = FrameDecoder()
        with pytest.raises(FatalProtocolError):
            decoder.feed(b"\xff\xff\xff\xff" + b"junk")
        assert isinstance(decoder.error, FatalProtocolError)

    def test_consumed_bytes_trimmed_partial_tail_kept(self):
        frames = [encode_frame(T_HEARTBEAT, name="p", batch=[["r", i, None]])
                  for i in range(50)]
        tail = encode_frame(T_HELLO, client="tail")
        decoder = FrameDecoder()
        items = decoder.feed(b"".join(frames) + tail[:7])
        assert [f.data["batch"][0][1] for f in items] == list(range(50))
        assert decoder.pending_bytes() == 7
        (frame,) = decoder.feed(tail[7:])
        assert frame.data == {"client": "tail"}
        assert decoder.pending_bytes() == 0

    def test_frame_is_a_slotted_value(self):
        frame = Frame(T_HELLO, {"client": "a"})
        assert frame == Frame(T_HELLO, {"client": "a"})
        assert frame != Frame(T_HELLO, {"client": "b"})
        assert Frame(T_ACK).data == {}
        assert not hasattr(frame, "__dict__")
        assert "client" in repr(frame)

    def test_custom_frame_limit(self):
        decoder = FrameDecoder(max_frame_bytes=8)
        with pytest.raises(FatalProtocolError):
            decoder.feed(encode_frame(T_HELLO, client="long-name-here"))

    def test_deeply_nested_payload_is_one_malformed_frame(self):
        """Nesting past the interpreter's recursion limit rejects the one
        frame; the frames around it in the same chunk are returned and
        the buffer is trimmed."""
        depth = 100_000
        body = (b'{"v":1,"type":"HELLO","x":' + b"[" * depth + b"]" * depth
                + b"}")
        decoder = FrameDecoder()
        items = decoder.feed(encode_frame(T_HELLO, client="before")
                             + self._frame_with_body(body)
                             + encode_frame(T_HELLO, client="after"))
        assert [type(item) for item in items] == [Frame, ProtocolError, Frame]
        assert items[0].data == {"client": "before"}
        assert "recursion" in str(items[1])
        assert items[2].data == {"client": "after"}
        assert decoder.pending_bytes() == 0
        assert (decoder.frames_decoded, decoder.frames_rejected) == (2, 1)

    def test_unhashable_frame_type_rejected(self):
        body = json.dumps({"v": PROTOCOL_VERSION, "type": ["HELLO"]}).encode()
        (item,) = decode_all(self._frame_with_body(body))
        assert isinstance(item, ProtocolError)
        assert str(item) == "unknown frame type: ['HELLO']"

    def test_unicode_payload_roundtrip(self):
        raw = encode_frame(T_HELLO, client="prüfstand-β")
        (frame,) = decode_all(raw)
        assert frame.data["client"] == "prüfstand-β"


class TestDecoderEquivalence:
    """:meth:`FrameDecoder.feed` scans each payload directly and falls
    back to ``_decode_body`` for anything it does not accept.  On any
    payload it must give the same :class:`Frame`, or a
    :class:`ProtocolError` with the same text, as ``_decode_body`` — also
    when the bytes arrive split at any chunk boundary."""

    @staticmethod
    def _corpus():
        import random

        rng = random.Random(15)
        hello = '{"v":1,"type":"HELLO","client":"glue"}'
        beat = ('{"v":1,"type":"HEARTBEAT","name":"p",'
                '"batch":[["sense",null,"T"],["act",5,null]]}')
        texts = [
            hello, beat, " " + hello, hello + " ", "\n\t" + hello + "\r\n",
            '{"v":1,"type":"HELLO","client":"prüfstand-β \\u00e9"}',
            '{"v":1,"type":"HELLO","client":"日本"}',
            "[1, 2]", '"HELLO"', "42", "null", "true", "", " ", "{",
            '{"type":"HELLO"}', '{"v":2,"type":"HELLO"}',
            '{"v":"1","type":"HELLO"}', '{"v":1.0,"type":"HELLO"}',
            '{"v":true,"type":"HELLO"}', '{"v":null,"type":"HELLO"}',
            '{"v":1}', '{"v":1,"type":"NOPE"}', '{"v":1,"type":null}',
            '{"v":1,"type":["HELLO"]}', '{"v":1,"type":{"a":1}}',
            '{"v":1,"type":7}', '{"v":1,"type":"hello"}',
            '{"v":1,"type":"HELLO","v":2}', '{"v":2,"type":"HELLO","v":1}',
            '{"v":1,"type":"NOPE","type":"HELLO"}',
            '{"v":1,"type":"HELLO","x":NaN}',
            '{"v":1,"type":"HELLO","x":Infinity,"y":-Infinity}',
            '{"v":NaN,"type":"HELLO"}',
            hello + "garbage", hello + hello, hello + "]", hello + " x",
            '{"v":1,"type":"HELLO",}', "{'v':1}",
            '{"v":1,"type":"HELLO","x":' + "[" * 50 + "]" * 50 + "}",
            '{"v":1,"type":"HELLO","x":' + "[" * 100_000 + "]" * 100_000
            + "}",
            '{"v":1,"type":"HELLO","x":' + '{"a":' * 100_000 + "1"
            + "}" * 100_000 + "}",
            "[" * 100_000,
        ]
        payloads = [text.encode("utf-8") for text in texts]
        payloads += [
            b'{"v":1,"type":"HELLO","client":"\xff"}',
            b'{"v":1,"type":"HELLO","client":"\xc3"}',
            b"\xef\xbb\xbf" + hello.encode(),
            hello.encode("utf-16"),
        ]
        # Seeded mutations of well-formed frames: dropped, duplicated or
        # replaced bytes.
        seeds = [hello.encode(), beat.encode()]
        for _ in range(200):
            raw = bytearray(rng.choice(seeds))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(raw))
                op = rng.random()
                if op < 0.4:
                    del raw[at]
                elif op < 0.7:
                    raw.insert(at, raw[at])
                else:
                    raw[at] = rng.choice(b' ,:[]{}"\\0x1\xe9\xff')
            payloads.append(bytes(raw))
        return payloads

    @staticmethod
    def _expected(payload):
        from repro.service.protocol import _decode_body

        try:
            return _decode_body(payload)
        except ProtocolError as exc:
            return ("error", str(exc))

    @staticmethod
    def _observed(item):
        if isinstance(item, ProtocolError):
            return ("error", str(item))
        return item

    def test_feed_matches_decode_body(self):
        corpus = self._corpus()
        stream = b"".join(struct.pack("!I", len(p)) + p for p in corpus)
        expected = [self._expected(p) for p in corpus]
        items = FrameDecoder().feed(stream)
        assert [self._observed(i) for i in items] == expected
        # The corpus reaches the fast path's every exit.
        kinds = {type(e).__name__ if not isinstance(e, tuple) else e[1][:12]
                 for e in expected}
        assert len(kinds) >= 5
        assert any(isinstance(e, Frame) for e in expected)

    def test_feed_matches_decode_body_at_every_split(self):
        corpus = [p for p in self._corpus() if len(p) < 1000]
        for payload in corpus:
            raw = struct.pack("!I", len(payload)) + payload
            expected = [self._expected(payload)]
            for split in range(len(raw) + 1):
                decoder = FrameDecoder()
                items = decoder.feed(raw[:split]) + decoder.feed(raw[split:])
                assert [self._observed(i) for i in items] == expected, (
                    payload, split)
                assert decoder.pending_bytes() == 0
