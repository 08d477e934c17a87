"""Distributed execution: pluggable backends for the parallel engine.

The package splits "what to run" (the engine's sweep points) from "how
to run it" (a :class:`~repro.dist.backend.Backend`): ``serial`` is the
engine's own in-process path, ``process`` the one local pool, and
``remote`` drives a socket-connected worker fleet with a shared
artifact cache.  See ``docs/distributed.md`` for the protocol contract
and the operations runbook.
"""

from repro.dist.backend import (
    Backend,
    ExecutionPlan,
    backend_names,
    create_backend,
)
from repro.dist.cache_net import NetCacheStats, NetworkCache
from repro.dist.protocol import (
    ConnectionClosed,
    FrameChannel,
    ProtocolError,
    blob_digest,
    recv_frame,
    send_frame,
)
from repro.dist.scheduler import CostModel, WorkStealingScheduler
from repro.dist.worker import parse_endpoint, run_worker

__all__ = [
    "Backend",
    "ExecutionPlan",
    "backend_names",
    "create_backend",
    "CostModel",
    "WorkStealingScheduler",
    "NetworkCache",
    "NetCacheStats",
    "FrameChannel",
    "ProtocolError",
    "ConnectionClosed",
    "blob_digest",
    "send_frame",
    "recv_frame",
    "parse_endpoint",
    "run_worker",
]
