"""Frame-protocol tests: round-trips, truncation, digests, seq pairing."""

import socket
import struct
import threading

import pytest

from repro.dist.protocol import (
    MAX_FRAME,
    ConnectionClosed,
    FrameChannel,
    ProtocolError,
    blob_digest,
    recv_frame,
    send_frame,
)


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def test_header_round_trip():
    left, right = _pair()
    try:
        send_frame(left, {"kind": "hello", "worker": "w0", "pid": 42})
        header, blob = recv_frame(right)
        assert header == {"kind": "hello", "worker": "w0", "pid": 42}
        assert blob is None
    finally:
        left.close()
        right.close()


def test_blob_round_trip_sets_blob_len():
    left, right = _pair()
    payload = bytes(range(256)) * 17
    try:
        send_frame(left, {"kind": "cache_blob", "hit": True}, payload)
        header, blob = recv_frame(right)
        assert blob == payload
        assert header["blob_len"] == len(payload)
    finally:
        left.close()
        right.close()


def test_multiple_frames_stay_in_sync():
    left, right = _pair()
    try:
        send_frame(left, {"kind": "a"}, b"xy")
        send_frame(left, {"kind": "b"})
        send_frame(left, {"kind": "c"}, b"")
        assert recv_frame(right) == ({"kind": "a", "blob_len": 2}, b"xy")
        assert recv_frame(right) == ({"kind": "b"}, None)
        assert recv_frame(right) == ({"kind": "c", "blob_len": 0}, b"")
    finally:
        left.close()
        right.close()


def test_eof_between_frames_raises_connection_closed():
    left, right = _pair()
    left.close()
    try:
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()


def test_truncated_header_raises_connection_closed():
    left, right = _pair()
    try:
        # A length prefix announcing 100 bytes, then only 3 before EOF.
        left.sendall(struct.pack(">I", 100) + b"abc")
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()


def test_truncated_blob_raises_connection_closed():
    left, right = _pair()
    try:
        header = b'{"blob_len": 10, "kind": "x"}'
        left.sendall(struct.pack(">I", len(header)) + header + b"abc")
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(right)
    finally:
        right.close()


def test_oversized_length_prefix_rejected():
    left, right = _pair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_non_object_header_rejected():
    left, right = _pair()
    try:
        body = b"[1, 2, 3]"
        left.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_blob_digest_is_stable_blake2b():
    assert blob_digest(b"") == blob_digest(b"")
    assert blob_digest(b"x") != blob_digest(b"y")
    assert len(blob_digest(b"payload")) == 32  # blake2b digest_size=16


def test_request_discards_stale_seq_replies():
    left, right = _pair()
    channel = FrameChannel(left)

    def responder():
        server = FrameChannel(right)
        header, _ = server.recv()
        # A stale reply from an interrupted earlier exchange, then the
        # real one: the client must skip the first.
        server.send({"kind": "idle", "seq": header["seq"] - 1})
        server.send({"kind": "task", "seq": header["seq"], "key": "k"})

    thread = threading.Thread(target=responder)
    thread.start()
    try:
        reply, blob = channel.request({"kind": "steal", "worker": "w0"})
        assert reply["kind"] == "task"
        assert reply["key"] == "k"
        assert blob is None
    finally:
        thread.join()
        channel.close()
        right.close()


def test_channel_close_is_idempotent():
    left, right = _pair()
    channel = FrameChannel(left)
    channel.close()
    channel.close()
    right.close()


def test_close_wakes_a_blocked_recv_promptly():
    left, right = _pair()  # 5 s socket timeouts
    channel = FrameChannel(left)
    outcome = []

    def reader():
        try:
            outcome.append(channel.recv())
        except (ConnectionClosed, OSError) as exc:
            outcome.append(exc)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        # Let the reader block in recv (nothing is ever sent).
        thread.join(timeout=0.2)
        assert thread.is_alive()
        channel.close()
        thread.join(timeout=1.0)
        assert not thread.is_alive(), "recv stayed blocked after close()"
        assert len(outcome) == 1
        assert isinstance(outcome[0], (ConnectionClosed, OSError))
    finally:
        thread.join()
        right.close()
