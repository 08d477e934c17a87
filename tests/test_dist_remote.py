"""Remote-fleet tests: spawned socket workers, equivalence, kill -9.

Each test spawns real ``repro worker`` subprocesses against an
in-process coordinator, so this is the full wire path: hello, steal,
task, result, heartbeat, requeue-on-death.
"""

import os
import signal
import socket
import time

import pytest

from repro.cache import ArtifactCache
from repro.dist.coordinator import Coordinator, RemoteBackend
from repro.dist.scheduler import WorkStealingScheduler
from repro.dist.worker import parse_endpoint
from repro.experiments.engine import ParallelEngine, Point


def _sleep_points(durations):
    return [
        Point(
            key=f"p{i:02d}",
            runner="sleep",
            params={"duration": float(d), "tag": f"p{i:02d}"},
        )
        for i, d in enumerate(durations)
    ]


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:7341") == ("127.0.0.1", 7341)
    assert parse_endpoint("::1:80") == ("::1", 80)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint(":80")
    with pytest.raises(ValueError):
        parse_endpoint("host:not-a-number")


def test_remote_fleet_matches_serial():
    points = _sleep_points([0.01 * ((i * 3) % 4) for i in range(8)])
    serial = ParallelEngine(jobs=1).run(points)
    engine = ParallelEngine(jobs=2, backend="remote", workers=2)
    remote = engine.run(points)
    assert list(remote) == list(serial)
    assert {k: (o.ok, o.value) for k, o in remote.items()} == {
        k: (o.ok, o.value) for k, o in serial.items()
    }
    fleet = engine.fleet
    assert fleet["tasks"] == 8
    assert fleet["completed"] == 8
    assert fleet["lost"] == 0
    # Both spawned workers actually participated.
    assert set(fleet["dispatched"]) == {"w0", "w1"}
    assert all(count > 0 for count in fleet["dispatched"].values())


def test_worker_death_requeues_exactly_once():
    # One long point seeded first (granted to one worker) plus short
    # filler for the other.  When the first short point completes we
    # know who ran it — and SIGKILL the OTHER worker, which is mid-way
    # through the long point, guaranteeing a leased-task requeue.
    points = [
        Point(key="long", runner="sleep", params={"duration": 1.5}),
    ] + _sleep_points([0.05] * 6)
    backend = RemoteBackend(heartbeat=0.3, heartbeat_timeout=2.0)
    engine = ParallelEngine(jobs=2, backend=backend, workers=2)
    state = {"killed": None}

    def kill_the_busy_one(key, outcome, resumed):
        if state["killed"] is None and key != "long":
            emitter = engine._worker_ids.get(key)
            victim = "w1" if emitter == "w0" else "w0"
            proc = backend.processes[int(victim[1:])]
            os.kill(proc.pid, signal.SIGKILL)
            state["killed"] = victim

    outcomes = engine.run(points, progress=kill_the_busy_one)
    assert state["killed"] is not None
    assert all(o.ok for o in outcomes.values())
    fleet = engine.fleet
    assert fleet["tasks"] == 7
    assert fleet["completed"] == 7
    assert fleet["lost"] == 0
    assert fleet["requeues"] >= 1
    assert fleet["duplicate_finishes"] == 0
    # The long point was re-run by the surviving worker.
    survivor = "w0" if state["killed"] == "w1" else "w1"
    assert engine._worker_ids["long"] == survivor


def test_fleet_summary_includes_cache_counters():
    points = _sleep_points([0.01] * 4)
    engine = ParallelEngine(jobs=2, backend="remote", workers=2)
    engine.run(points)
    assert "cache" in engine.fleet
    for field in ("pulls", "pushes", "probe_misses", "rejects"):
        assert field in engine.fleet["cache"]


def test_whole_fleet_death_raises():
    from repro.experiments.framework import ResilientOutcome  # noqa: F401

    points = _sleep_points([5.0] * 2)
    backend = RemoteBackend(heartbeat=0.2, heartbeat_timeout=1.0)
    engine = ParallelEngine(jobs=2, backend=backend, workers=2)

    def kill_everyone():
        deadline = time.time() + 10.0
        while not backend.processes and time.time() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let the workers take their leases
        for proc in backend.processes:
            os.kill(proc.pid, signal.SIGKILL)

    import threading

    killer = threading.Thread(target=kill_everyone)
    killer.start()
    try:
        with pytest.raises(Exception) as excinfo:
            engine.run(points)
        assert "fleet" in str(excinfo.value)
    finally:
        killer.join()


def test_stop_is_prompt_with_a_silent_connection(tmp_path):
    # A peer that connects but never says hello leaves its handler
    # blocked in recv; stop() must wake it instead of waiting out the
    # join timeout.
    coordinator = Coordinator(
        WorkStealingScheduler([]), ArtifactCache(tmp_path), lambda *a: None
    )
    host, port = coordinator.start()
    peer = socket.create_connection((host, port), timeout=5.0)
    try:
        deadline = time.monotonic() + 5.0
        while not coordinator._channels and time.monotonic() < deadline:
            time.sleep(0.01)
        assert coordinator._channels, "handler never started"
        began = time.monotonic()
        coordinator.stop()
        assert time.monotonic() - began < 1.0
        assert not coordinator._channels
    finally:
        peer.close()
