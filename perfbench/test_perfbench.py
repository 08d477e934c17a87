"""The benchmark's own tests, at reduced size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as perfbench  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
from repro.cmt import simulate  # noqa: E402
from repro.experiments import engine, figures, framework  # noqa: E402
from repro.experiments.framework import EXPERIMENT_CONFIG  # noqa: E402
from repro.spawning import SpawnPairSet  # noqa: E402
from repro.workloads import load_trace  # noqa: E402

SCALE = 0.05


@pytest.fixture(autouse=True)
def cold_memos():
    framework.clear_memos()
    yield
    framework.clear_memos()


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", perfbench.WORKLOADS)
def test_each_workload_prints_every_metric_with_its_unit(workload):
    for trace, table in (("0", perfbench.END_TO_END),
                         ("1", perfbench.PER_LAYER)):
        done = _cli("--workload", workload, "--seed", "0", "--seconds", "0",
                    "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: metric["unit"]
                for name, metric in result["metrics"].items()} == table
        printed = {tuple(line.split()[::2][:2]) for line in lines[:-1]}
        for name, unit in table.items():
            assert (name, unit) in printed, name


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(perfbench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        perfbench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        perfbench.PER_LAYER


def test_fig8_cold_is_figure8():
    state = scenarios.fig8_setup(scenarios.DEFAULT_SEED, ROOT, SCALE)
    record = scenarios.Record()
    scenarios.fig8_run(state, record, spans.NULL_TRACER)
    assert not record.failures
    framework.clear_memos()
    expected = figures.figure8(SCALE)
    assert record.fig8_ratios == expected.series["profile_over_heuristics"]
    assert record.fig8_hmean == expected.summary["hmean"]


def test_traced_and_untraced_runs_give_the_same_digest():
    digests = []
    for tracer in (spans.NULL_TRACER, spans.Tracer()):
        framework.clear_memos()
        record = scenarios.Record()
        with spans.instrumented(tracer) if tracer.enabled else nullcontext():
            state = scenarios.grid_setup(3, ROOT, SCALE)
            scenarios.grid_run(state, record, tracer)
        assert not record.failures
        digests.append(record.digest())
    assert digests[0] == digests[1]
    own = tracer.self_seconds()
    for layer in ("exec.run", "exec.deps", "exec.columns", "spawning.profile",
                  "cmt.simulate", "cmt.baseline"):
        assert own.get(layer, 0.0) > 0.0, layer


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.spans[0][1:3] = [0.0, 5.0]
    tracer.spans[1][1:3] = [1.0, 3.0]
    assert tracer.self_seconds() == {"outer": 3.0, "inner": 2.0}


def test_clock_scales_each_stretch_by_the_loops_at_its_ends():
    clock = perfbench.Clock()
    ref = perfbench.CALIB_REF_S
    # 2 s between the outside loop (2 x ref) and an inside one (ref),
    # then 1 s from there to the end (outside again).
    clock._stretches = [(2.0, None, ref, 2), (1.0, ref, None, 3)]
    wall, latencies = clock.scaled(2 * ref, [0.3, 0.3, 0.3])
    assert clock.wall == 3.0
    assert wall == pytest.approx(2.0 / 1.5 + 1.0 / 1.5)
    assert latencies == pytest.approx([0.2, 0.2, 0.2])


def _expect_in_process(params, payload):
    trace = load_trace(params["name"], params["scale"])
    config = EXPERIMENT_CONFIG.with_(**params["overrides"])
    pairs = framework._POLICIES[params["policy"]](trace)
    assert payload["cycles"] == simulate(trace, pairs, config).cycles
    assert payload["baseline"] == simulate(
        trace, SpawnPairSet([]), config.single_threaded()).cycles


def test_engine_payloads_equal_in_process_simulate(tmp_path):
    state = scenarios.exp_setup(1, tmp_path, SCALE)
    record = scenarios.Record()
    scenarios.exp_run(state, record, spans.NULL_TRACER)
    assert not record.failures and record.payloads
    points = {point.key: point.params for figure in state["figures"]
              for point in engine.figure_points(figure, SCALE)}
    for key, payload in record.payloads.items():
        _expect_in_process(points[key], payload)


def test_serve_payloads_equal_in_process_simulate(tmp_path):
    state = scenarios.serve_setup(2, tmp_path, SCALE)
    record = scenarios.Record()
    try:
        scenarios.serve_run(state, record, spans.NULL_TRACER)
        scenarios.serve_after(state, record)
    finally:
        scenarios.serve_teardown(state)
    assert not record.failures
    assert len(record.payloads) == len(state["jobs"])
    checked = {}
    for key, payload in record.payloads.items():
        index, point = key.split("|", 1)
        if point not in checked:
            _expect_in_process(state["jobs"][int(index)], payload)
            checked[point] = payload
        assert payload == checked[point]


def test_runs_fail_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _cli("--workload", "fig8-cold", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
