"""Length-prefixed frame protocol of the distributed backend.

Every message between a worker and the coordinator is one **frame**: a
4-byte big-endian length, a UTF-8 JSON *header* of that length, and —
when the header carries a ``blob_len`` field — exactly that many raw
bytes of binary *blob* payload.  Headers stay JSON so every frame is
printable and schema-checkable; blobs carry artifact-cache bytes
verbatim (canonical JSON or pickle, exactly as they sit on disk), each
accompanied by its blake2b digest so the receiver can verify integrity
before trusting the bytes.

Frame kinds (the full contract is documented in
``docs/distributed.md``):

==============  =======================================================
kind            meaning
==============  =======================================================
``hello``       worker registration (``worker``, ``pid``)
``steal``       worker requests a task from the global deque
``task``        coordinator grants a task (``key``, ``runner``,
                ``params``, retry policy)
``idle``        nothing stealable right now; retry after ``delay``
``shutdown``    sweep finished — the worker exits its loop
``heartbeat``   worker liveness beacon (no reply)
``result``      completed point (``key``, ``outcome``, ``delta``)
``cache_pull``  probe/pull one blob by ``(cache_kind, cache_key)``
``cache_blob``  pull reply (``hit``, ``digest``, blob)
``cache_push``  upload one freshly built blob (``digest``, blob)
``cache_ok``    push acknowledgement (``ok``)
``goodbye``     clean worker departure
==============  =======================================================

Request/reply pairing uses a monotonically increasing ``seq`` echoed by
the responder, so a worker whose wall-clock alarm interrupted an earlier
exchange can discard the stale reply instead of desynchronising the
stream.
"""

from __future__ import annotations

import hashlib
import json
import signal
import socket
import struct
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "ConnectionClosed",
    "blob_digest",
    "send_frame",
    "recv_frame",
    "FrameChannel",
]

#: Upper bound on a frame's header or blob size — a corrupted length
#: prefix fails fast instead of attempting a multi-gigabyte allocation.
MAX_FRAME = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized, or unreadable frame."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF mid-stream or between frames)."""


def blob_digest(blob: bytes) -> str:
    """Return the blake2b digest (32 hex chars) of a blob's bytes.

    Args:
        blob: The raw artifact bytes.

    Returns:
        The digest hex string the receiving side verifies on receipt.
    """
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes from ``sock`` or raise.

    Args:
        sock: The connected socket.
        count: Number of bytes to read.

    Returns:
        The bytes read.

    Raises:
        ConnectionClosed: On EOF before ``count`` bytes arrived.
        ProtocolError: On a socket timeout mid-frame.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise ProtocolError("socket timed out mid-frame") from exc
        if not chunk:
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(
    sock: socket.socket,
    header: Dict[str, Any],
    blob: Optional[bytes] = None,
) -> None:
    """Serialise and send one frame (header JSON plus optional blob).

    The frame is assembled into a single buffer and sent with one
    ``sendall`` so a concurrent sender (guarded by the channel lock)
    never interleaves bytes.

    Args:
        sock: The connected socket.
        header: JSON-able frame header; ``blob_len`` is filled in
            automatically when ``blob`` is given.
        blob: Optional binary payload following the header.
    """
    payload = dict(header)
    if blob is not None:
        payload["blob_len"] = len(blob)
    encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(encoded) > MAX_FRAME:
        raise ProtocolError(f"frame header too large ({len(encoded)} bytes)")
    parts = [_LENGTH.pack(len(encoded)), encoded]
    if blob is not None:
        parts.append(blob)
    sock.sendall(b"".join(parts))


def recv_frame(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], Optional[bytes]]:
    """Receive one frame from ``sock``.

    Returns:
        ``(header, blob)`` — ``blob`` is None unless the header carried
        a ``blob_len`` field.

    Raises:
        ConnectionClosed: The peer went away.
        ProtocolError: The frame is malformed or oversized.
    """
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME:
        raise ProtocolError(f"frame header too large ({length} bytes)")
    try:
        header = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header is not a JSON object")
    blob: Optional[bytes] = None
    blob_len = header.get("blob_len")
    if blob_len is not None:
        blob_len = int(blob_len)
        if blob_len < 0 or blob_len > MAX_FRAME:
            raise ProtocolError(f"bad blob length {blob_len}")
        blob = _recv_exact(sock, blob_len)
    return header, blob


@contextmanager
def _alarm_masked() -> Iterator[None]:
    """Block ``SIGALRM`` for the duration of the block (main thread).

    A worker's per-attempt wall-clock limit is a ``SIGALRM``; letting it
    fire mid-``sendall``/``recv`` would tear a frame in half and
    desynchronise the stream.  Masking defers the alarm until the
    exchange finished — the socket's own timeout bounds a hung peer.
    """
    can_mask = (
        hasattr(signal, "pthread_sigmask")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_mask:
        yield
        return
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class FrameChannel:
    """One socket wrapped with a send lock and request/reply pairing.

    The channel is safe for one *reader* thread plus any number of
    *sender* threads (the worker's heartbeat thread sends concurrently
    with the main loop); :meth:`request` tags outgoing frames with a
    ``seq`` the responder echoes, discarding stale replies left over
    from an interrupted earlier exchange.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()
        self._seq = 0

    def send(
        self, header: Dict[str, Any], blob: Optional[bytes] = None
    ) -> None:
        """Send one frame under the channel's send lock.

        Args:
            header: JSON-able frame header.
            blob: Optional binary payload.
        """
        with self._send_lock:
            send_frame(self.sock, header, blob)

    def recv(self) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """Receive one frame (single-reader only).

        Returns:
            ``(header, blob)`` as :func:`recv_frame`.
        """
        return recv_frame(self.sock)

    def request(
        self, header: Dict[str, Any], blob: Optional[bytes] = None
    ) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """Send a frame and wait for the reply bearing the same ``seq``.

        Replies whose ``seq`` does not match are stale leftovers from an
        exchange a wall-clock alarm interrupted; they are discarded.
        ``SIGALRM`` is masked for the duration so the exchange itself is
        never torn (the socket timeout still bounds a dead peer).

        Args:
            header: JSON-able frame header (``seq`` is filled in).
            blob: Optional binary payload.

        Returns:
            The matching reply as ``(header, blob)``.
        """
        self._seq += 1
        seq = self._seq
        with _alarm_masked():
            self.send({**header, "seq": seq}, blob)
            while True:
                reply, reply_blob = self.recv()
                if reply.get("seq") == seq:
                    return reply, reply_blob

    def close(self) -> None:
        """Shut down and close the socket (idempotent, never raises).

        The shutdown wakes a :meth:`recv` blocked in another thread at
        once (it sees end-of-stream); closing the descriptor alone would
        leave that thread blocked until the socket timeout.
        """
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # already closed or never connected
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - double close
            pass
