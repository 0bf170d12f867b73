"""dqplate benchmark: time to a checked solution, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` beside this
directory.  One client runs tasks back to back (a closed loop) for the
given seconds.  Every task is checked; any failed task or anchor makes the
run incorrect and the exit code 1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the task
sequence twice over, untraced and traced in alternating blocks of one slot
pattern each, and prints the per-layer metrics of the traced tasks and the
tracing overhead.  Both
print one line per metric, then one JSON object as the last line, and
write a record with the environment under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("large_grid", "sweep_ortho", "grid_study", "fd_oracle")

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def load_program() -> dict:
    """Import dqplate from the checkout's ``src``; refuse any other copy."""
    package = ROOT / "src" / "dqplate"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no dqplate package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import dqplate
    from dqplate import (
        bc_builder, case_runner, dq_core, linear_bending, newton_solver, plate_model,
    )

    if Path(dqplate.__file__).resolve().parent != package.resolve():
        raise ImportError(f"dqplate imported from {dqplate.__file__}, not {package}")
    return {
        "case_runner": case_runner,
        "dq_core": dq_core,
        "bc_builder": bc_builder,
        "plate_model": plate_model,
        "newton_solver": newton_solver,
        "linear_bending": linear_bending,
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least 10 samples above it, its
    percentile rank, and the sample count.  Below 11 samples: the maximum."""
    n = len(times)
    ranked = sorted(times)
    if n <= 10:
        return ranked[-1], 100.0, n
    return ranked[n - 11], 100.0 * (n - 10) / n, n


def pattern_sums(setups: list[float], k: int) -> list[float]:
    """Set-up time of each whole pattern of ``k`` tasks: one sample covers
    every system size a workload builds, so the median does not fall
    between the sizes' clusters.  A run shorter than one pattern gives its
    total."""
    return [sum(setups[i:i + k]) for i in range(0, len(setups) - k + 1, k)] or [sum(setups)]


def _attempt(workloads, fn, failures: list, label) -> None:
    try:
        fn()
    except workloads.CheckFailed as exc:
        failures.append(f"{label}: {exc}")
    except Exception:  # any other error from the program fails the task too
        failures.append(f"{label}: {traceback.format_exc()}")


def run_anchors(workloads, failures: list, tracer=None) -> int:
    for name, fn in workloads.ANCHORS.items():
        if tracer is not None:
            tracer.task = f"anchor:{name}"
        _attempt(workloads, fn, failures, f"anchor {name}")
    return len(workloads.ANCHORS)


def run_tasks(workloads, workload, texts, case_path, failures, times, deadline,
              limit=None, tracer=None, setups=None) -> None:
    """Tasks from ``texts`` back to back, appending each wall time to
    ``times`` and the part of it spent building systems to ``setups``,
    until the deadline has passed (at least one task) or ``limit`` tasks
    have run."""
    count = 0
    while (count == 0 or perf_counter() < deadline) and count != limit:
        workloads.write_case(case_path, next(texts))
        k = len(times)
        if tracer is not None:
            tracer.task = k
        builds: list[float] = []
        t0 = perf_counter()
        _attempt(workloads, lambda: workloads.run_task(workload, case_path, builds),
                 failures, f"task {k}")
        times.append(perf_counter() - t0)
        if setups is not None:
            setups.append(sum(builds))
        count += 1


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """One run; returns the result record (metrics, counts, environment)."""
    modules = load_program()
    import envinfo
    import spans
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    case_path = OUT_DIR / f"case-{workload_name}-{seed}-{int(trace)}.json"
    env_before = envinfo.thread_env()
    env = envinfo.record()
    failures: list[str] = []
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env}

    if not trace:
        attempted = run_anchors(workloads, failures)
        times: list[float] = []
        setups: list[float] = []
        deadline = perf_counter() + seconds
        run_tasks(workloads, workload, workloads.generate(workload, seed, tiny),
                  case_path, failures, times, deadline, setups=setups)
        attempted += len(times)
        tail_s, tail_pct, n = tail(times)
        metrics = {
            "solve_s_p50": statistics.median(times),
            "solve_s_tail": tail_s,
            "setup_s": statistics.median(pattern_sums(setups, len(workload.slots))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - len(failures) / attempted,
        }
        units = END_TO_END_UNITS
        record.update(task_s=times, setup_s=setups, tail_percentile=tail_pct,
                      tail_samples=n)
    else:
        # One pattern of tasks untraced, then the same tasks traced, in
        # turn, so that drift in machine speed falls on both sides alike.
        tracer = spans.Tracer()
        tracer.install(modules)
        try:
            attempted = run_anchors(workloads, failures, tracer)
        finally:
            tracer.restore()
        plain_texts = workloads.generate(workload, seed, tiny)
        traced_texts = workloads.generate(workload, seed, tiny)
        plain: list[float] = []
        traced: list[float] = []
        cpu_s = wall_s = 0.0
        deadline = perf_counter() + seconds
        while not traced or perf_counter() < deadline:
            cpu0, wall0 = process_time(), perf_counter()
            run_tasks(workloads, workload, plain_texts, case_path, failures, plain,
                      deadline, len(workload.slots))
            cpu_s += process_time() - cpu0
            wall_s += perf_counter() - wall0
            tracer.install(modules)
            try:
                run_tasks(workloads, workload, traced_texts, case_path, failures, traced,
                          deadline, len(workload.slots), tracer)
            finally:
                tracer.restore()
        attempted += len(plain) + len(traced)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = spans.layer_metrics(tracer, cpu_s / wall_s, overhead)
        units = spans.LAYER_UNITS
        record.update(task_s=plain, traced_task_s=traced)
        span_path = OUT_DIR / f"{workload_name}.spans.jsonl.gz"
        with gzip.open(span_path, "wt") as fh:
            for s in tracer.spans():
                fh.write(json.dumps(s) + "\n")
        record["spans_file"] = span_path.name
    case_path.unlink(missing_ok=True)

    record["thread_env_unchanged"] = envinfo.thread_env() == env_before
    record.update(
        correct=not failures,
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        metrics={k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    )
    result_path = OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"thread settings unchanged by the benchmark: {record['thread_env_unchanged']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["metrics"].items():
        extra = ""
        if name == "solve_s_tail":
            extra = (f"  (p{record['tail_percentile']:.1f} of "
                     f"{record['tail_samples']} tasks)")
        elif name == "plate_model.jacobian_gflop" or name.endswith("gflop_per_s"):
            extra = "  (computed)"
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
