"""Executor-backend tests: serial/process equivalence and submission order.

The contract under test: whatever order a backend dispatches the points
in, the result map is identical to the serial reference — same keys,
same input order, same outcome values.
"""

from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import backend as backend_mod
from repro.dist.backend import (
    ExecutionPlan,
    ProcessBackend,
    backend_names,
    create_backend,
)
from repro.experiments.engine import ParallelEngine, Point
from repro.experiments.framework import SweepCheckpoint

BACKENDS = ("serial", "process")


def _sleep_points(durations, fail_at=()):
    """A heterogeneous sleep grid: one point per duration."""
    return [
        Point(
            key=f"p{i:02d}",
            runner="sleep",
            params={
                "duration": float(d),
                "tag": f"p{i:02d}",
                "fail": "transient" if i in fail_at else None,
            },
        )
        for i, d in enumerate(durations)
    ]


def _run(backend, points, workers=3):
    engine = ParallelEngine(jobs=workers, backend=backend, retries=0)
    results = engine.run(points)
    return {key: (o.ok, o.value) for key, o in results.items()}, engine


class RecordingBackend(ProcessBackend):
    """The process backend, recording the keys each run was handed."""

    def __init__(self):
        self.received = []

    def execute(self, points, plan, emit):
        self.received.append([point.key for point in points])
        super().execute(points, plan, emit)


class InlinePool:
    """Stands in for the process pool: runs each submission at once and
    records the submission order."""

    def __init__(self, max_workers, initializer, initargs):
        self.submitted = []
        InlinePool.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, point, *args):
        self.submitted.append(point.key)
        future = Future()
        future.set_result(fn(point, *args))
        return future


def test_backends_equal_on_twelve_point_grid():
    # Twelve points with uneven costs so completion order differs from
    # submission order.
    durations = [0.002 * ((i * 7) % 5) for i in range(12)]
    points = _sleep_points(durations, fail_at=(5,))
    reference, _ = _run("serial", points, workers=1)
    outcomes, engine = _run("process", points)
    assert outcomes == reference
    # Deterministic input order regardless of completion order.
    assert list(outcomes) == [p.key for p in points]
    assert engine.backend_name == "process"


def test_failures_travel_inside_outcomes():
    points = _sleep_points([0.0, 0.0], fail_at=(1,))
    for name in BACKENDS:
        outcomes, _ = _run(name, points)
        assert outcomes["p00"][0] is True
        assert outcomes["p01"][0] is False, name  # failed, not raised


def test_checkpoint_prefilter_skips_completed_points():
    points = _sleep_points([0.001] * 6)
    engine = ParallelEngine(jobs=2, backend="process")
    first = engine.run(points[:4])
    assert all(o.ok for o in first.values())


def test_checkpoint_resume_only_runs_todo(tmp_path):
    points = _sleep_points([0.001] * 6)
    checkpoint = SweepCheckpoint(tmp_path / "sweep.json")
    ParallelEngine(jobs=2, backend="process").run(
        points[:4], checkpoint=checkpoint
    )
    recorder = RecordingBackend()
    resumed = ParallelEngine(jobs=2, backend=recorder)
    outcomes = resumed.run(points, checkpoint=checkpoint)
    assert list(outcomes) == [p.key for p in points]
    assert all(o.ok for o in outcomes.values())
    # Only the two new points reached the backend.
    assert recorder.received == [["p04", "p05"]]


def test_process_backend_submits_longest_first_from_priors(
    tmp_path, monkeypatch
):
    points = _sleep_points([0.0, 0.06, 0.0, 0.03])
    telemetry = tmp_path / "telemetry"
    # A first sweep records each point's wall time as its cost prior.
    ParallelEngine(jobs=1, telemetry_dir=telemetry).run(points)
    monkeypatch.setattr(backend_mod, "ProcessPoolExecutor", InlinePool)
    emitted = []

    def emit(key, outcome, delta, worker_id):
        emitted.append(key)

    ProcessBackend().execute(
        points, ExecutionPlan(workers=2, telemetry_dir=str(telemetry)), emit
    )
    assert InlinePool.last.submitted[:2] == ["p01", "p03"]
    assert sorted(emitted) == [p.key for p in points]
    # Without priors the submission order is the engine's, unchanged.
    ProcessBackend().execute(points, ExecutionPlan(workers=2), emit)
    assert InlinePool.last.submitted == [p.key for p in points]


def test_backend_registry():
    assert backend_names() == ("serial", "process", "remote")
    assert isinstance(create_backend("process"), ProcessBackend)
    with pytest.raises(KeyError):
        create_backend("serial")  # the engine's own path, no object
    with pytest.raises(KeyError):
        create_backend("carrier-pigeon")
    with pytest.raises(TypeError):
        create_backend("process", workers=3)


@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=0.004),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=5, deadline=None)
def test_property_stealing_order_never_changes_results(durations):
    """Random heterogeneous grids: the process pool's result map, in
    whatever order its workers take and finish points, equals the
    serial reference bit-for-bit."""
    points = _sleep_points(durations)
    reference, _ = _run("serial", points, workers=1)
    pooled, _ = _run("process", points, workers=3)
    assert pooled == reference
    assert list(pooled) == [p.key for p in points]
