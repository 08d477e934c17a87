"""The benchmark's four workloads: inputs from the seed, set-up, timed part.

Every workload runs one *repetition* per fresh process (see ``run.py``),
so ``load_trace``'s ``lru_cache`` and the experiment framework's pair,
baseline and run memos always start cold.  A repetition has a set-up
and a timed part; :class:`Record` collects what the timed part did:
one entry per operation (a simulate point or a serve job), the commit
invariants of every in-process ``SimulationStats``, a digest over every
simulated statistic and payload, and the simulated-model figures.

All workloads use the program's default ``ProcessorConfig`` (the
experiments' ``EXPERIMENT_CONFIG``), including its default ``sim_core``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cmt import simulate
from repro.dashboard.data import parse_prometheus
from repro.experiments import engine as engine_mod
from repro.experiments import figures, framework
from repro.experiments.framework import EXPERIMENT_CONFIG
from repro.experiments.profiler import _commit_check
from repro.metrics import harmonic_mean
from repro.spawning import SpawnPairSet
from repro.workloads import load_trace

#: Workers of the parallel engine and the serve pool, and client threads
#: of ``serve-closed`` (the reference machine has two cores).
JOBS = 2
#: ``serve-closed`` submits every point of these figures once: the
#: paper's head-to-head comparison of its two spawning schemes at 16
#: thread units (Figure 8) and at 4 with realistic predictors (Figure
#: 12).  The traffic of every figure (320 jobs) took 11 s a repetition,
#: so a run held three, and its latencies spread by 24% over ten seeds.
SERVE_FIGURES = ("figure8", "figure12")
#: The seed that keeps the grid and its figures in the paper's order.
DEFAULT_SEED = 0


def seeded_order(items: List[Any], seed: int) -> List[Any]:
    """``items`` in the order seed ``seed`` picks; the default keeps it."""
    items = list(items)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(items)
    return items


def grid_points(scale: float) -> List[Dict[str, Any]]:
    """The paper's simulate grid: every distinct figure point's params.

    The union of ``engine.figure_points`` over all figures, one entry
    per distinct (workload, policy, processor configuration), in figure
    order.
    """
    points: Dict[Tuple[str, str, Any], Dict[str, Any]] = {}
    for figure in figures.ALL_FIGURES:
        for point in engine_mod.figure_points(figure, scale):
            params = point.params
            config = EXPERIMENT_CONFIG.with_(**params["overrides"])
            points.setdefault((params["name"], params["policy"], config),
                              params)
    return list(points.values())


def point_key(params: Dict[str, Any]) -> str:
    """Stable text key of one grid point."""
    return json.dumps([params["name"], params["policy"],
                       params["overrides"]], sort_keys=True)


def grid_figures() -> List[str]:
    """The figure drivers whose points make up the grid."""
    return [figure for figure in figures.ALL_FIGURES
            if engine_mod.figure_points(figure)]


class Record:
    """What one repetition's timed part did, and what it got right."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.sim_cycles = 0
        self.threads_committed = 0
        self.spawns = 0
        self.value_hits = 0
        self.value_predictions = 0
        self.payload_hit_rates: List[float] = []
        #: operation key -> payload, for operations computed elsewhere.
        self.payloads: Dict[str, Any] = {}
        self.layers: Dict[str, float] = {}
        self.fig8_ratios: List[float] = []
        self.fig8_hmean = 0.0
        #: Called between operations, where the runner may time its
        #: speed-calibration loop (see ``run.Clock``).
        self.mark: Callable[[], None] = lambda: None
        self._items: List[Tuple[str, str]] = []

    def stats(self, key: str, trace: Any, stats: Any, seconds: float) -> None:
        """One in-process simulation: check commit invariants, digest it."""
        self.attempted += 1
        self.latencies.append(seconds)
        broken = [name for name, ok in _commit_check(trace, stats).items()
                  if not ok]
        if broken:
            self.failures.append(f"{key}: commit invariants {broken}")
        self.sim_cycles += stats.cycles
        self.threads_committed += stats.threads_committed
        self.spawns += stats.spawns
        self.value_hits += stats.value_hits
        self.value_predictions += stats.value_predictions
        self._items.append(
            (key, json.dumps(asdict(stats), sort_keys=True)))

    def payload(self, key: str, payload: Any, seconds: float) -> None:
        """One point result computed elsewhere (engine worker, serve job)."""
        self.attempted += 1
        self.latencies.append(seconds)
        try:
            cycles, baseline = int(payload["cycles"]), int(payload["baseline"])
            hit_rate = float(payload["value_hit_rate"])
        except (KeyError, TypeError, ValueError):
            self.failures.append(f"{key}: malformed payload {payload!r}")
            return
        if cycles <= 0 or baseline <= 0:
            self.failures.append(f"{key}: non-positive cycles {payload!r}")
        self.sim_cycles += cycles
        self.payload_hit_rates.append(hit_rate)
        self.payloads[key] = payload
        self._items.append((key, json.dumps(payload, sort_keys=True)))

    def failure(self, key: str, message: str, seconds: float = 0.0) -> None:
        """One operation that raised or ended in a non-``ok`` state."""
        self.attempted += 1
        self.latencies.append(seconds)
        self.failures.append(f"{key}: {message}")

    def result(self, key: str, value: Any) -> None:
        """A derived result (not an operation) that the digest covers."""
        self._items.append((key, json.dumps(value, sort_keys=True)))

    def digest(self) -> str:
        """blake2b over every simulated statistic and payload, by key."""
        h = hashlib.blake2b(digest_size=16)
        for key, blob in sorted(self._items):
            h.update(key.encode())
            h.update(b"\0")
            h.update(blob.encode())
            h.update(b"\n")
        return h.hexdigest()

    def model(self) -> Dict[str, float]:
        """Simulated-model figures: deterministic for fixed inputs."""
        if self.value_predictions:
            hit_rate = self.value_hits / self.value_predictions
        elif self.payload_hit_rates:
            hit_rate = sum(self.payload_hit_rates) / len(self.payload_hit_rates)
        else:
            hit_rate = 0.0
        return {
            "cmt.sim_cycles": self.sim_cycles,
            "cmt.spawn_commit_ratio": (
                self.threads_committed / self.spawns if self.spawns else 0.0),
            "predictors.value_hit_rate": hit_rate,
            "fig8.hmean": self.fig8_hmean,
        }


def _timed_simulate(tracer, layer, record, key, trace, pairs, config):
    """Simulate one point under a span of ``layer``; None when it raised."""
    started = time.perf_counter()
    try:
        with tracer.span(layer):
            stats = simulate(trace, pairs, config)
    except Exception as exc:  # one failed point must not end the run
        record.failure(key, f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - started)
        return None
    seconds = time.perf_counter() - started
    record.stats(key, trace, stats, seconds)
    tracer.count(layer + "_calls")
    tracer.count("cmt.sim_insts", stats.instructions)
    return stats


# ----------------------------------------------------------------------
# fig8-cold
# ----------------------------------------------------------------------


def fig8_setup(seed: int, workdir: Path, scale: float) -> Dict[str, Any]:
    """Nothing to prepare: the figure is computed cold in the timed part.

    Every seed computes the same figure in the paper's order: with the
    suite in a seeded order, the median operation latency differed by up
    to 40% between seeds.
    """
    del seed, workdir
    return {"scale": scale, "inputs": {"scale": scale}}


def fig8_run(state: Dict[str, Any], record: Record, tracer) -> None:
    """Figure 8, serial, no disk cache: per workload trace, pairs, two runs."""
    ratios: Dict[str, float] = {}
    for name in framework.suite():
        record.mark()
        try:
            trace = load_trace(name, state["scale"])
            profile = framework._POLICIES["profile"](trace)
            heuristics = framework._POLICIES["heuristics"](trace)
        except Exception as exc:  # one failed workload must not end the run
            record.failure(name, f"front end: {type(exc).__name__}: {exc}")
            continue
        runs = [
            _timed_simulate(tracer, "cmt.simulate", record,
                            f"{name}|{policy}", trace, pairs,
                            EXPERIMENT_CONFIG)
            for policy, pairs in (("profile", profile),
                                  ("heuristics", heuristics))
        ]
        if None not in runs:
            ratios[name] = runs[1].cycles / runs[0].cycles
    record.fig8_ratios = list(ratios.values())
    record.result("fig8.ratios", record.fig8_ratios)
    if ratios:
        record.fig8_hmean = harmonic_mean(record.fig8_ratios)


# ----------------------------------------------------------------------
# grid-sim
# ----------------------------------------------------------------------


def grid_setup(seed: int, workdir: Path, scale: float) -> Dict[str, Any]:
    """Order the grid; build traces, columns and pair sets up front."""
    del workdir
    points = seeded_order(grid_points(scale), seed)
    traces: Dict[str, Any] = {}
    pairs: Dict[Tuple[str, str], SpawnPairSet] = {}
    for params in points:
        name, policy = params["name"], params["policy"]
        if name not in traces:
            traces[name] = load_trace(name, scale)
            traces[name].columns
        if (name, policy) not in pairs:
            pairs[name, policy] = framework._POLICIES[policy](traces[name])
    return {"points": points, "traces": traces, "pairs": pairs,
            "inputs": {"points": len(points), "scale": scale}}


def grid_run(state: Dict[str, Any], record: Record, tracer) -> None:
    """Simulate every grid point, then each distinct baseline."""
    baselines: Dict[Tuple[str, Any], None] = {}
    for params in state["points"]:
        record.mark()
        name = params["name"]
        config = EXPERIMENT_CONFIG.with_(**params["overrides"])
        _timed_simulate(tracer, "cmt.simulate", record, point_key(params),
                        state["traces"][name],
                        state["pairs"][name, params["policy"]], config)
        baselines.setdefault((name, config.single_threaded()), None)
    for name, single in baselines:
        record.mark()
        _timed_simulate(tracer, "cmt.baseline", record,
                        f"baseline|{name}|{single}", state["traces"][name],
                        SpawnPairSet([]), single)


# ----------------------------------------------------------------------
# Shared by exp-jobs2 and serve-closed: a cache warmed like
# ``repro cache warm``, for every policy of the grid.
# ----------------------------------------------------------------------


def _warm_cache(cache_dir: Path, scale: float) -> Any:
    """Write trace, columns and pair artifacts for every suite workload."""
    from repro.cache import ArtifactCache

    cache = ArtifactCache(cache_dir)
    with framework.use_cache(cache):
        for name in framework.suite():
            framework.trace_for(name, scale)
            for policy in framework.policy_names():
                framework.pair_set_for(name, policy, scale)
    # Forked workers must start as cold as ``repro exp`` workers do.
    framework.clear_memos()
    return cache


def _cache_layers(record: Record, warm: Any, hits: float, misses: float,
                  puts: float) -> None:
    """Cache counters: the set-up handle's plus the timed part's."""
    stats = warm.stats
    record.layers.update({
        "cache.hits": stats.hits + hits,
        "cache.misses": stats.misses + misses,
        "cache.puts": stats.puts + puts,
        "cache.disk_bytes": sum(
            kind.bytes for kind in warm.disk_summary().values()),
    })


# ----------------------------------------------------------------------
# exp-jobs2
# ----------------------------------------------------------------------


def exp_setup(seed: int, workdir: Path, scale: float) -> Dict[str, Any]:
    """Warm an on-disk cache; put the grid's figures in a seeded order."""
    cache = _warm_cache(workdir / "cache", scale)
    order = seeded_order(grid_figures(), seed)
    return {"cache": cache, "figures": order, "scale": scale,
            "inputs": {"figures": len(order), "first": order[0],
                       "scale": scale}}


def exp_run(state: Dict[str, Any], record: Record, tracer) -> None:
    """Every grid figure through ``ParallelEngine(jobs=2)``/``run_figure``."""
    del tracer
    engine = engine_mod.ParallelEngine(jobs=JOBS,
                                      cache_dir=state["cache"].root)
    outcomes: List[Any] = []

    def progress(key: str, outcome: Any, resumed: bool) -> None:
        del resumed
        outcomes.append(outcome)
        if outcome.ok:
            record.payload(key, outcome.value, outcome.seconds)
        else:
            record.failure(key, f"outcome not ok: {outcome.error}",
                           outcome.seconds)

    results = []
    wall = 0.0
    steals = requeues = 0
    for figure in state["figures"]:
        record.mark()
        started = time.perf_counter()
        results.append(engine_mod.run_figure(
            figure, state["scale"], engine, progress=progress))
        wall += time.perf_counter() - started
        # ``engine.fleet`` holds the last run only.  The default process
        # backend keeps no fleet, so both counts read 0 under it; the
        # work-stealing backends report per-worker steals.
        steals += sum(engine.fleet.get("steals", {}).values())
        requeues += engine.fleet.get("requeues", 0)
    record.result("figures", sorted(
        [r.figure, r.series, r.summary] for r in results))
    events = engine.cache_events
    busy = sum(outcome.seconds for outcome in outcomes)
    record.layers.update({
        "engine.points": len(outcomes),
        "engine.point_busy_s": busy,
        "engine.parallel_efficiency": busy / (JOBS * wall) if wall else 0.0,
        "engine.retries": sum(max(0, o.attempts - 1) for o in outcomes),
        "dist.steals": steals,
        "dist.requeues": requeues,
    })
    _cache_layers(record, state["cache"],
                  events["memory_hits"] + events["disk_hits"],
                  events["misses"], events["puts"])


# ----------------------------------------------------------------------
# serve-closed
# ----------------------------------------------------------------------


def repeat_share(scale: float) -> float:
    """Share of jobs that repeat an earlier one in every figure's traffic.

    ``repro exp`` over all figures submits each figure's points as
    ``engine.figure_points`` lists them; figures share points, so 64 of
    the 320 (a fifth) repeat one already submitted.
    """
    keys = [point_key(point.params) for figure in figures.ALL_FIGURES
            for point in engine_mod.figure_points(figure, scale)]
    return 1.0 - len(set(keys)) / len(keys)


def serve_jobs(seed: int, scale: float) -> List[Dict[str, Any]]:
    """The seeded job sequence: fresh grid points, some repeated later.

    Every point of ``SERVE_FIGURES`` once, plus repeats of earlier jobs
    in the share :func:`repeat_share` measures, so the daemon answers
    as many jobs through dedup as it would for all figures' traffic.
    The seed orders the jobs and picks the repeats.
    """
    rng = random.Random(seed)
    fresh = {point_key(point.params): point.params
             for figure in SERVE_FIGURES
             for point in engine_mod.figure_points(figure, scale)}
    jobs = list(fresh.values())
    rng.shuffle(jobs)
    share = repeat_share(scale)
    for _ in range(round(len(jobs) * share / (1.0 - share))):
        at = rng.randrange(1, len(jobs) + 1)
        jobs.insert(at, rng.choice(jobs[:at]))
    return jobs


def serve_setup(seed: int, workdir: Path, scale: float) -> Dict[str, Any]:
    """Warm a cache and start an in-process daemon over it."""
    from repro.serve.bench import ServeClient
    from repro.serve.server import ServeConfig, ServeDaemon

    cache = _warm_cache(workdir / "cache", scale)
    jobs = serve_jobs(seed, scale)
    distinct = len({point_key(params) for params in jobs})
    daemon = ServeDaemon(ServeConfig(
        port=0, workers=JOBS, state_dir=str(workdir / "serve"),
        cache_dir=str(workdir / "cache")))
    daemon.start()
    return {
        "daemon": daemon,
        "client": ServeClient(*daemon.address, timeout=60.0),
        "jobs": jobs,
        "cache": cache,
        "inputs": {"jobs": len(jobs), "repeats": len(jobs) - distinct,
                   "scale": scale},
    }


def _client_loop(state: Dict[str, Any], record: Record, lock: threading.Lock,
                 submit_ms: List[float]) -> None:
    client = state["client"]
    jobs = state["jobs"]
    while True:
        with lock:
            index = state["next"]
            state["next"] += 1
        if index >= len(jobs):
            return
        params = jobs[index]
        key = f"{index:03d}|{point_key(params)}"
        started = time.perf_counter()
        try:
            status, reply = client.submit("simulate", params)
            submitted = time.perf_counter()
            if status not in (200, 202):
                raise RuntimeError(f"submit refused: {status} {reply}")
            final = reply
            if reply.get("state") in ("queued", "running"):
                final = client.wait(reply["id"], timeout=120.0, poll=0.01)
            latency = time.perf_counter() - started
            if final.get("state") != "done":
                raise RuntimeError(f"job ended {final.get('state')}: "
                                   f"{final.get('error')}")
            status, result = client.result(reply["id"])
            if status != 200:
                raise RuntimeError(f"result fetch failed: {status}")
        except Exception as exc:  # one failed job must not end the run
            with lock:
                record.failure(key, f"{type(exc).__name__}: {exc}",
                               time.perf_counter() - started)
            continue
        with lock:
            submit_ms.append((submitted - started) * 1000.0)
            record.payload(key, result["result"], latency)


def serve_run(state: Dict[str, Any], record: Record, tracer) -> None:
    """Two closed-loop clients until the job sequence is exhausted."""
    del tracer
    lock = threading.Lock()
    submit_ms: List[float] = []
    state["next"] = 0
    clients = [threading.Thread(target=_client_loop,
                                args=(state, record, lock, submit_ms))
               for _ in range(JOBS)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    state["submit_ms"] = submit_ms


def serve_after(state: Dict[str, Any], record: Record) -> None:
    """Read ``/metrics``, drain the daemon and audit exactly-once."""
    metrics = state["client"].metrics()
    daemon = state["daemon"]
    clean = daemon.drain(timeout=60.0)
    audit = daemon.audit()
    if not clean or audit["lost"] or audit["duplicate_finishes"]:
        record.failures.append(f"drain clean={clean} audit={audit}")
    samples = parse_prometheus(metrics)

    def total(name: str) -> float:
        return sum(s["value"] for s in samples if s["name"] == name)

    cache_hits = total("repro_serve_cache_served_total")
    record.layers.update({
        "serve.submit_ms_p50": (
            statistics.median(state["submit_ms"]) if state["submit_ms"]
            else 0.0),
        "serve.dedup_hits": total("repro_serve_jobs_deduped_total"),
        "serve.cache_hits": cache_hits,
        "serve.retries": total("repro_serve_job_retry_attempts_total"),
    })
    # The daemon's workers report no cache counters; only its probe does.
    _cache_layers(record, state["cache"], cache_hits, 0, 0)


def serve_teardown(state: Dict[str, Any]) -> None:
    """Stop the daemon if the run ended before its drain."""
    daemon = state.get("daemon")
    if daemon is not None and not daemon.draining:
        daemon.stop()


#: workload name -> (set-up, timed part, after the timed part, teardown)
SCENARIOS: Dict[str, Tuple[Callable, Callable, Optional[Callable],
                           Optional[Callable]]] = {
    "fig8-cold": (fig8_setup, fig8_run, None, None),
    "grid-sim": (grid_setup, grid_run, None, None),
    "exp-jobs2": (exp_setup, exp_run, None, None),
    "serve-closed": (serve_setup, serve_run, serve_after, serve_teardown),
}
