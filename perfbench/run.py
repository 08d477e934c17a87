#!/usr/bin/env python3
"""Layered benchmark of the SpMT reproduction, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-cold --seed 0 --seconds 20 --trace 0

A run repeats the workload in fresh processes until ``--seconds`` have
passed (at least three times), then prints one line per metric with its
unit and, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, including the
tracing overhead.  The exit code is 0 only when every check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the repetitions, removed when each one ends.
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("fig8-cold", "grid-sim", "exp-jobs2", "serve-closed")

#: End-to-end metrics (``--trace 0``) and their units.  The ``_norm``
#: times are scaled to the reference machine's speed (see
#: :func:`calibrate`); the raw times are per-layer metrics.
END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_norm_p50_ms": "ms",
    "latency_norm_p90_ms": "ms",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "exec.run_s": "s",
    "exec.dyn_insts": "count",
    "exec.insts_per_s": "1/s",
    "exec.deps_s": "s",
    "exec.columns_s": "s",
    "spawning.profile_s": "s",
    "spawning.heuristics_s": "s",
    "spawning.pairs_selected": "count",
    "cmt.simulate_s": "s",
    "cmt.baseline_s": "s",
    "cmt.simulate_calls": "count",
    "cmt.sim_insts_per_s": "1/s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.puts": "count",
    "cache.disk_bytes": "bytes",
    "engine.points": "count",
    "engine.point_busy_s": "s",
    "engine.parallel_efficiency": "ratio",
    "engine.retries": "count",
    "dist.steals": "count",
    "dist.requeues": "count",
    "serve.submit_ms_p50": "ms",
    "serve.dedup_hits": "count",
    "serve.cache_hits": "count",
    "serve.retries": "count",
    "cmt.sim_cycles": "cycles",
    "cmt.spawn_commit_ratio": "ratio",
    "predictors.value_hit_rate": "ratio",
    "fig8.hmean": "ratio",
    "cmt.sim_digest": "id",
    "fail_ratio": "ratio",
    "latency_samples": "count",
    "trace.overhead_s": "s",
    "wall_s": "s",
    "setup_raw_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "calib_s": "s",
}

#: Workload size multiplier per workload (1.0 is the paper scale), set
#: so one repetition takes a few seconds on a two-core machine.
SCALES = {
    "fig8-cold": 0.1,
    "grid-sim": 0.05,
    "exp-jobs2": 0.05,
    "serve-closed": 0.05,
}
#: The paper's Figure 8 harmonic mean (profile over heuristics).
PAPER_FIG8_HMEAN = 1.20
#: Median time of :func:`calibrate` on the reference machine (two cores,
#: Python 3.11) when no other tenant slows it down.
CALIB_REF_S = 0.065
#: Seconds of timed work between two loop timings inside a repetition.
MARK_EVERY_S = 1.0
#: Workloads whose ``_norm`` times are the raw ones.  A ``serve-closed``
#: job's time is mostly the daemon's forks, pipes and polling, and does
#: not follow the loop's: over ten seeds its raw wall time spread by 7%
#: of the median and its scaled one by 13%.
UNSCALED = ("serve-closed",)
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: No new repetition starts after ``RUN_BUDGET_S`` seconds, and every
#: repetition is killed at ``DEADLINE_S``, so that a run ends inside
#: three minutes even on a slow machine.
RUN_BUDGET_S = 120.0
DEADLINE_S = 170.0


# ----------------------------------------------------------------------
# One repetition, in a fresh child process.
# ----------------------------------------------------------------------


def _layer_metrics(tracer: Any, record: Any) -> Dict[str, float]:
    """Per-layer self times and counts of one traced repetition."""
    own = tracer.self_seconds()
    counts = tracer.counts
    run_s = own.get("exec.run", 0.0)
    sim_s = own.get("cmt.simulate", 0.0) + own.get("cmt.baseline", 0.0)
    metrics = {
        "exec.run_s": run_s,
        "exec.dyn_insts": counts["exec.dyn_insts"],
        "exec.insts_per_s": counts["exec.dyn_insts"] / run_s if run_s else 0.0,
        "exec.deps_s": own.get("exec.deps", 0.0),
        "exec.columns_s": own.get("exec.columns", 0.0),
        "spawning.profile_s": own.get("spawning.profile", 0.0),
        "spawning.heuristics_s": own.get("spawning.heuristics", 0.0),
        "spawning.pairs_selected": counts["spawning.pairs_selected"],
        "cmt.simulate_s": own.get("cmt.simulate", 0.0),
        "cmt.baseline_s": own.get("cmt.baseline", 0.0),
        "cmt.simulate_calls": (counts["cmt.simulate_calls"]
                               + counts["cmt.baseline_calls"]),
        "cmt.sim_insts_per_s": counts["cmt.sim_insts"] / sim_s if sim_s
        else 0.0,
    }
    metrics.update(record.layers)
    return metrics


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now.

    The benchmark's machine is shared, and its speed changes by a third
    within seconds, for fixed work as for the program.  Each repetition
    times this loop before it loads the program, inside its timed part
    where a workload allows it (see :class:`Clock`), and after its
    teardown, and the ``_norm`` metrics scale its times by
    ``CALIB_REF_S`` over the loop's time (except on ``UNSCALED``
    workloads).  The loop calls no code of the
    program and runs only while no thread or process of the program is
    alive, so a change to the program never moves it.
    """
    started = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for i in range(300_000):
        table[i & 1023] = i
        total += table[(i * 7) & 1023] & 15
    return time.perf_counter() - started


def _program_quiet(timeout: float = 10.0) -> bool:
    """Wait until this process runs no other thread and has no child."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > 1 or multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class Clock:
    """Wall time of a timed part, and the machine's speed inside it.

    A workload calls :meth:`mark` between its operations.  When at least
    ``MARK_EVERY_S`` of timed work has passed and the program runs no
    thread or process, the clock times :func:`calibrate` there, outside
    the wall time.  Each stretch of timed work, and each operation that
    ended in it, is scaled by the mean loop time at the stretch's two
    ends; an end without a timing takes the loop time outside the timed
    part.
    """

    def __init__(self) -> None:
        self.loops: List[float] = []
        #: (seconds, loop at its start, loop at its end, operations done)
        self._stretches: List[
            Tuple[float, Optional[float], Optional[float], int]] = []
        self._since = 0.0
        self._last: Optional[float] = None

    def start(self) -> None:
        self._since = time.perf_counter()

    def mark(self, done: int) -> None:
        """A point between operations, ``done`` of them finished so far."""
        now = time.perf_counter()
        if (now - self._since < MARK_EVERY_S or threading.active_count() > 1
                or multiprocessing.active_children()):
            return
        loop = calibrate()
        self._stretches.append((now - self._since, self._last, loop, done))
        self.loops.append(loop)
        self._last = loop
        self._since = time.perf_counter()

    def stop(self, done: int) -> None:
        self._stretches.append(
            (time.perf_counter() - self._since, self._last, None, done))

    @property
    def wall(self) -> float:
        return sum(stretch[0] for stretch in self._stretches)

    def scaled(self, outside: float,
               latencies: List[float]) -> Tuple[float, List[float]]:
        """The wall time and the latencies at the reference speed."""
        wall = 0.0
        scaled: List[float] = []
        for seconds, first, last, done in self._stretches:
            loops = [outside if loop is None else loop for loop in (first,
                                                                    last)]
            factor = CALIB_REF_S / statistics.fmean(loops)
            wall += seconds * factor
            scaled += [latency * factor
                       for latency in latencies[len(scaled):done]]
        return wall, scaled


def child_main(spec: Dict[str, Any]) -> int:
    """Run one repetition and print its JSON result line."""
    calibrated = time.monotonic()
    speed = [calibrate() for _ in range(3)]
    calibrated = time.monotonic() - calibrated
    sys.path.insert(0, str(SRC))
    import scenarios
    import spans

    setup, run, after, teardown = scenarios.SCENARIOS[spec["workload"]]
    tracer = spans.Tracer() if spec["traced"] else spans.NULL_TRACER
    record = scenarios.Record()
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True)
    state: Dict[str, Any] = {}
    try:
        with spans.instrumented(tracer) if tracer.enabled else nullcontext():
            state = setup(spec["seed"], workdir, spec["scale"])
            setup_raw_s = time.monotonic() - spec["launched"] - calibrated
            clock = Clock()
            record.mark = lambda: clock.mark(len(record.latencies))
            clock.start()
            run(state, record, tracer)
            clock.stop(len(record.latencies))
            if after is not None:
                after(state, record)
    finally:
        if teardown is not None:
            teardown(state)
        shutil.rmtree(workdir, ignore_errors=True)
    if not _program_quiet():
        record.failures.append("the program left threads or processes "
                               "running after teardown")
    speed += [calibrate() for _ in range(3)]
    if spec["workload"] in UNSCALED:
        wall_norm_s, latencies_norm = clock.wall, record.latencies
    else:
        wall_norm_s, latencies_norm = clock.scaled(statistics.median(speed),
                                                   record.latencies)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "calib_s": statistics.median(speed + clock.loops),
        "setup_raw_s": setup_raw_s,
        # Set-up runs right after the first three loops, at their speed.
        "setup_s": setup_raw_s * CALIB_REF_S / statistics.median(speed[:3]),
        "wall_s": clock.wall,
        "wall_norm_s": wall_norm_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "latencies": record.latencies,
        "latencies_norm": latencies_norm,
        "attempted": record.attempted,
        "failures": record.failures,
        "digest": record.digest(),
        "model": record.model(),
        "inputs": state.get("inputs", {}),
        "layers": _layer_metrics(tracer, record) if tracer.enabled else {},
    }
    print(json.dumps(result))
    return 0


def run_rep(args: argparse.Namespace, index: int, traced: bool,
            timeout: float) -> Dict[str, Any]:
    """Run repetition ``index`` in a child process; return its result."""
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": SCALES[args.workload],
        "traced": traced,
        "workdir": str(WORK / f"{os.getpid()}-{index}"),
        "launched": time.monotonic(),
    }
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crashed": f"repetition {index} timed out after {timeout:.0f} s",
                "traced": traced}
    finally:
        try:  # anything the repetition left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"repetition {index} exited {proc.returncode}",
                "traced": traced}
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


# ----------------------------------------------------------------------
# The run: repetitions, aggregation, checks, report.
# ----------------------------------------------------------------------


def _quantile(samples: List[float], tenths: int) -> float:
    """The ``tenths``/10 quantile in ms, interpolated between samples.

    Taken per repetition and then the median over repetitions: a
    repetition holds a few dozen distinct operations, and a quantile
    pooled over identical repetitions would jump between two of them.
    """
    if len(samples) < 2:
        return samples[0] * 1000.0 if samples else 0.0
    return statistics.quantiles(samples, n=10,
                                method="inclusive")[tenths - 1] * 1000.0


def summarize(args: argparse.Namespace,
              reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate repetitions into the result object and its checks."""
    problems: List[str] = []
    attempted = failed = 0
    for rep in reps:
        if "crashed" in rep:
            attempted += 1
            failed += 1
            problems.append(rep["crashed"])
            continue
        attempted += rep["attempted"]
        failed += len(rep["failures"])
        problems.extend(rep["failures"])
    done = [rep for rep in reps if "crashed" not in rep]
    digests = {rep["digest"] for rep in done}
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} digests "
                        "for one seed (traced vs untraced or run to run)")
    plain = [rep for rep in done if not rep["traced"]]
    traced = [rep for rep in done if rep["traced"]]
    if not plain or (args.trace and not traced):
        problems.append("no repetition completed")
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}, "problems": problems}

    def median(metric: Callable[[Dict[str, Any]], float]) -> float:
        return statistics.median(metric(rep) for rep in plain)

    latency_samples = sum(len(rep["latencies"]) for rep in plain)
    raw = {
        "wall_s": median(lambda rep: rep["wall_s"]),
        "setup_raw_s": median(lambda rep: rep["setup_raw_s"]),
        "latency_p50_ms": median(lambda rep: _quantile(rep["latencies"], 5)),
        "latency_p90_ms": median(lambda rep: _quantile(rep["latencies"], 9)),
        "calib_s": median(lambda rep: rep["calib_s"]),
    }
    values: Dict[str, float] = {
        "wall_norm_s": median(lambda rep: rep["wall_norm_s"]),
        "setup_s": median(lambda rep: rep["setup_s"]),
        "peak_rss_mb": median(lambda rep: rep["peak_rss_mb"]),
        "latency_norm_p50_ms": median(
            lambda rep: _quantile(rep["latencies_norm"], 5)),
        "latency_norm_p90_ms": median(
            lambda rep: _quantile(rep["latencies_norm"], 9)),
    }
    units = END_TO_END
    if args.trace:
        wall_norm_s = values["wall_norm_s"]
        units = PER_LAYER
        values = {
            name: statistics.median(rep["layers"][name] for rep in traced)
            for name in traced[0]["layers"]
        }
        values.update(traced[0]["model"])
        values.update(raw)
        values["cmt.sim_digest"] = int(traced[0]["digest"][:13], 16)
        values["fail_ratio"] = failed / attempted
        values["latency_samples"] = latency_samples
        values["trace.overhead_s"] = (
            statistics.median(rep["wall_norm_s"] for rep in traced)
            - wall_norm_s)
        for name in PER_LAYER:
            values.setdefault(name, 0.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "repetitions": len(plain) + len(traced),
        "latency_samples": latency_samples,
        "raw": raw,
        "model": plain[0]["model"],
        "sim_digest": plain[0]["digest"],
        "inputs": plain[0]["inputs"],
    }


def report(args: argparse.Namespace, summary: Dict[str, Any]) -> None:
    """Print the human-readable lines, then the JSON result line."""
    inputs = " ".join(f"{k}={v}" for k, v in summary.get("inputs", {}).items())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={summary.get('repetitions', 0)} {inputs}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, value in summary.get("raw", {}).items():
            print(f"  {name:28s} {value:.6g} {PER_LAYER[name]} (raw)")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    print(f"  {'latency samples':28s} {summary.get('latency_samples', 0)}")
    hmean = summary.get("model", {}).get("fig8.hmean")
    if hmean:
        print(f"  {'fig8.hmean':28s} {hmean:.4f} ratio (paper: "
              f"{PAPER_FIG8_HMEAN:.2f}; the model is not validated against "
              "hardware, the paper's numbers are its only reference, and no "
              "bound is set on this figure)")
    if "sim_digest" in summary:
        print(f"  {'cmt.sim_digest':28s} {summary['sim_digest']}")
    for problem in summary["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({key: summary[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    modes = (False, True) if args.trace else (False,)
    needed = MIN_TRACED_PAIRS if args.trace else MIN_REPS
    reps: List[Dict[str, Any]] = []
    rounds = 0
    try:
        while True:
            for traced in modes:
                elapsed = time.monotonic() - started
                reps.append(run_rep(args, len(reps), traced,
                                    DEADLINE_S - elapsed))
            rounds += 1
            elapsed = time.monotonic() - started
            if any("crashed" in rep for rep in reps):
                break
            # Stop when one more round would end nearer past the
            # measuring time than this one ends short of it.
            half_round = elapsed / rounds / 2
            if rounds >= needed and (elapsed >= args.seconds - half_round
                                     or elapsed >= RUN_BUDGET_S):
                break
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    summary = summarize(args, reps)
    report(args, summary)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
