"""The benchmark's own tests.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_program()

import envinfo  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == spans.LAYER_UNITS
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),  # overlaps b on [3, 4]
        Span("b", 3.0, 6.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # runs past its parent's end
        Span("other", 20.0, 21.5, -1, 1),
    ]
    # root: children cover [1, 6] and [9, 10] -> 10 - 6
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.5])


def test_layer_metrics_from_a_hand_built_trace():
    tracer = spans.Tracer()
    tracer._spans.extend(
        [
            ["plate_model.build_system", 0.0, 0.010, -1, 0],
            ["plate_model.assemble", 0.001, 0.009, 0, 0],
            ["tensor_ops.kron", 0.002, 0.005, 1, 0],
            ["newton_solver.newton", 0.010, 0.030, -1, 0],
            ["plate_model.residual", 0.010, 0.012, 3, 0],
            ["plate_model.recover_inplane", 0.010, 0.011, 4, 0],
            ["plate_model.jacobian", 0.012, 0.020, 3, 0],
            ["tensor_ops.row_scale", 0.013, 0.014, 6, 0],
            ["plate_model.residual", 0.021, 0.023, 3, 0],
            ["plate_model.residual", 0.024, 0.026, 3, 0],
        ]
    )
    tracer.jacobian_sizes.append(100)
    tracer.newton_iterations = 1
    tracer.step_solve_s = 0.0005
    m = spans.layer_metrics(tracer, cpu_per_wall=1.5, overhead_frac=0.02)
    assert set(m) == set(spans.LAYER_UNITS)
    assert m["plate_model.assemble_ms"] == pytest.approx(5.0)
    assert m["tensor_ops.kron_ms"] == pytest.approx(3.0)
    assert m["plate_model.jacobian_ms"] == pytest.approx(7.0)
    assert m["plate_model.residual_ms"] == pytest.approx(5.0)
    assert m["plate_model.residual_calls"] == 3
    assert m["newton_solver.self_ms"] == pytest.approx(20.0 - 6.0 - 8.0)
    assert m["newton_solver.residual_evals"] == 3
    # one accepted step over two trial residuals: one halving was wasted
    assert m["newton_solver.accepted_per_eval"] == pytest.approx(0.5)
    assert m["plate_model.jacobian_gflop"] == pytest.approx(16e6 / 1e9)
    assert m["plate_model.jacobian_gflop_per_s"] == pytest.approx(16e6 / 1e9 / 0.008)
    assert m["newton_solver.step_solve_ms"] == pytest.approx(0.5)


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    value, pct, n = run.tail([float(x) for x in range(40, 0, -1)])
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_setup_samples_sum_whole_patterns():
    assert run.pattern_sums([1.0, 2.0, 3.0, 4.0, 5.0], 2) == [3.0, 7.0]
    assert run.pattern_sums([1.0, 2.0], 3) == [3.0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    workload = workloads.WORKLOADS[name]

    def first(seed, count=2 * len(workload.slots)):
        texts = workloads.generate(workload, seed)
        return [next(texts) for _ in range(count)]

    assert first(5) == first(5)
    assert first(5) != first(6)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    env = envinfo.thread_env()
    record = run.benchmark(name, seed=3, seconds=0.4, trace=trace, tiny=True)
    assert record["correct"], record["failures"]
    assert record["attempted"] > len(workloads.ANCHORS)
    units = spans.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in record["metrics"].items()} == units
    assert record["environment"]["thread_env"] == env == envinfo.thread_env()
    assert record["thread_env_unchanged"]
    if trace:
        assert record["metrics"]["plate_model.residual_calls"]["value"] > 0
    else:
        assert record["metrics"]["solve_s_p50"]["value"] > 0


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "RESIDUAL_SLACK", 0.0)
    code = run.main(["--workload", "grid_study", "--seed", "1", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid_study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
