"""Executor backends: the pluggable engine-execution protocol.

The parallel engine used to be welded to one ``ProcessPoolExecutor``;
this module turns "how do the points actually run" into a protocol.  A
:class:`Backend` receives the *to-do* points (the engine already
filtered checkpoint-resumed keys), an :class:`ExecutionPlan` (timeouts,
retry budget, cache location, worker count), and an *emit* callback; it
must call ``emit(key, outcome_dict, cache_delta, worker_id)`` exactly
once per point, in any order, and may not raise per-point failures —
those travel inside the outcome dict, exactly as
:func:`~repro.experiments.framework.run_resilient` reports them.

Backend names (:func:`backend_names`):

- ``serial`` — the engine's own in-process path
  (:func:`~repro.experiments.framework.resilient_sweep`, submission
  order); the reference every backend is gated against.  It needs no
  backend object.
- ``process`` — the one local pool: a ``ProcessPoolExecutor`` fed
  longest-job-first from telemetry cost priors (submission order when
  there are none).
- ``remote`` — a socket-connected worker fleet (see
  :mod:`repro.dist.coordinator`; created lazily to keep import cost
  off the serial path).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.cache import ArtifactCache
from repro.dist.scheduler import CostModel
from repro.experiments import framework
from repro.experiments.engine import Point, execute_point
from repro.experiments.framework import run_resilient

__all__ = [
    "CACHE_COUNTERS",
    "EmitFn",
    "ExecutionPlan",
    "Backend",
    "ProcessBackend",
    "backend_names",
    "create_backend",
]

#: Cache-stats counters aggregated per point (the engine's delta keys).
CACHE_COUNTERS: Tuple[str, ...] = ("memory_hits", "disk_hits", "misses", "puts")

#: ``emit(key, outcome_dict, cache_delta, worker_id)`` — the single
#: result channel every backend reports through.
EmitFn = Callable[[str, Dict[str, Any], Dict[str, int], str], None]


@dataclass
class ExecutionPlan:
    """Everything a backend needs to execute a sweep's to-do points.

    Attributes:
        timeout: Per-point wall-clock limit in seconds (None unbounded).
        retries: Retry budget per point.
        backoff: Base of the exponential retry backoff in seconds.
        workers: Requested degree of parallelism.
        cache_dir: Shared on-disk artifact-cache directory (None
            disables disk caching).
        cache: The caller's live cache instance over ``cache_dir`` (the
            remote coordinator serves it to its fleet; pool workers
            open their own handles).
        telemetry_dir: Telemetry directory of *earlier* sweeps — the
            source of longest-job-first cost priors (see
            :meth:`~repro.dist.scheduler.CostModel.from_manifests`).
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    workers: int = 2
    cache_dir: Optional[str] = None
    cache: Optional[ArtifactCache] = None
    telemetry_dir: Optional[str] = None


class Backend(ABC):
    """One way of executing sweep points; see the module docstring.

    Contract: :meth:`execute` calls ``emit`` exactly once per to-do
    point and returns only when every point was emitted; ``emit`` calls
    must be serialised (never concurrent), because the engine updates
    its checkpoint and progress state inside the callback.
    """

    #: Registry name of the backend (e.g. ``"remote"``).
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Execute every point, reporting each through ``emit``.

        Args:
            points: The to-do points (checkpoint-resumed keys already
                removed by the engine); keys are unique.
            plan: Execution parameters (timeouts, cache, workers).
            emit: Per-point result callback (see :data:`EmitFn`).
        """

    def fleet_summary(self) -> Dict[str, Any]:
        """Return fleet-level counters of the last run (empty if none)."""
        return {}


def _stats_delta(
    before: Optional[Dict[str, Any]], cache: Optional[ArtifactCache]
) -> Dict[str, int]:
    """Return the cache-counter delta since ``before`` (empty if uncached)."""
    if cache is None or before is None:
        return {}
    after = cache.stats.to_dict()
    return {k: int(after[k]) - int(before[k]) for k in CACHE_COUNTERS}


# ----------------------------------------------------------------------
# Worker-process plumbing of the process backend.
# Top-level functions: they cross the process boundary by reference.
# ----------------------------------------------------------------------

_worker_cache: Optional[ArtifactCache] = None


def _worker_init(cache_dir: Optional[str]) -> None:
    """Pool initializer: attach the shared artifact cache in the worker."""
    global _worker_cache
    _worker_cache = ArtifactCache(cache_dir) if cache_dir else None
    framework.set_cache(_worker_cache)


def _worker_run(
    point: Point,
    timeout: Optional[float],
    retries: int,
    backoff: float,
) -> Tuple[str, Dict[str, Any], Dict[str, int], str]:
    """Execute one point resiliently in a pool worker.

    Args:
        point: The point spec to run.
        timeout: Per-attempt wall-clock limit in seconds.
        retries: Retry budget.
        backoff: Exponential-backoff base in seconds.

    Returns:
        ``(key, outcome_dict, cache_delta, worker_id)`` so the parent
        can aggregate hit rates and attribute the point to a worker.
    """
    cache = _worker_cache
    before = cache.stats.to_dict() if cache else None
    outcome = run_resilient(
        lambda: execute_point(point, cache),
        timeout=timeout,
        retries=retries,
        backoff=backoff,
    )
    return (
        point.key,
        outcome.to_dict(),
        _stats_delta(before, cache),
        f"pid-{os.getpid()}",
    )


class ProcessBackend(Backend):
    """The local ``ProcessPoolExecutor`` fan-out.

    Points are all submitted up front, longest first by the telemetry
    cost priors (a stable sort, so without priors the submission order
    is the engine's); every worker takes the next point from the pool's
    one shared queue, and results are emitted in completion order.
    """

    name = "process"

    def execute(
        self,
        points: Sequence[Point],
        plan: ExecutionPlan,
        emit: EmitFn,
    ) -> None:
        """Fan the points across a local process pool via ``emit``."""
        if not points:
            return
        cost = CostModel.from_manifests(plan.telemetry_dir)
        ordered = sorted(points, key=lambda point: -cost.estimate(point.key))
        with ProcessPoolExecutor(
            max_workers=min(max(plan.workers, 1), len(points)),
            initializer=_worker_init,
            initargs=(plan.cache_dir,),
        ) as pool:
            futures = [
                pool.submit(
                    _worker_run, point, plan.timeout, plan.retries,
                    plan.backoff,
                )
                for point in ordered
            ]
            for future in as_completed(futures):
                key, outcome_dict, delta, worker_id = future.result()
                emit(key, outcome_dict, delta, worker_id)


def backend_names() -> Tuple[str, ...]:
    """Return every ``--backend`` name (``serial`` has no backend object)."""
    return ("serial", "process", "remote")


def create_backend(name: str, **options: Any) -> Backend:
    """Instantiate a backend by name.

    Args:
        name: ``process`` or ``remote`` (``serial`` is the engine's own
            in-process path, not a backend object).
        **options: Backend-specific constructor options (only
            ``remote`` takes any — e.g. ``workers``, ``heartbeat``).

    Returns:
        The backend instance.

    Raises:
        KeyError: For an unknown backend name (or ``serial``).
    """
    if name == "remote":
        from repro.dist.coordinator import RemoteBackend

        return RemoteBackend(**options)
    if name != "process":
        raise KeyError(
            f"no backend object named {name!r}; choose process or remote "
            "(serial runs in the engine's own process)"
        )
    if options:
        raise TypeError(f"backend {name!r} takes no options")
    return ProcessBackend()
