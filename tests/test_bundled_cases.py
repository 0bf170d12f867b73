"""Every bundled case file runs through the CLI and writes the documented CSVs.

The center deflections and iteration counts each case writes are pinned, so
a change to the solver that moves any of them shows here.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dqplate.case_runner import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
CASES = sorted((ROOT / "cases").glob("*.json"))

SOLUTION = ["x", "y", "w", "u", "v"]
SUMMARY = ["center_w_over_h", "iterations", "final_residual", "wall_time_s"]
SWEEP = ["q", "center_w_over_h", "iterations", "converged"]
BENCH = ["n", "strategy", "jac_ms", "solve_ms", "iterations"]
CONVERGENCE = ["kind", "n", "q", "center_w_over_h"]
LINEAR = ["scheme", "n", "center_w_over_h", "series_center_w_over_h", "abs_error"]

# case -> CSV -> column -> every value in row order.  center_w_over_h is
# compared to 1e-9 relative (the CSVs carry 12 significant digits), n and
# iterations exactly.
PINNED = {
    "bench_clamped": {
        # n: unknowns per field on the full grid, (N - 4)^2 for N = 9, 11, 13
        "bench.csv": {"n": [25, 25, 49, 49, 81, 81], "iterations": [5, 5, 5, 5, 5, 5]}
    },
    "fig2_grid_quality": {
        "convergence.csv": {
            "center_w_over_h": [
                # chebyshev_mapped, n = 5, 7, 9; q = 0.4 .. 2
                0.330479330217, 0.536529909366, 0.677991689446, 0.786451665764, 0.875231667516,
                0.331105528564, 0.538301617902, 0.680954144738, 0.790501858034, 0.88023641461,
                0.331185958184, 0.538590866538, 0.68144693897, 0.791172027333, 0.881058357559,
                # uniform, n = 5, 7, 9
                0.332985058221, 0.54301392698, 0.689471095312, 0.803291813245, 0.897509782442,
                0.330136978439, 0.534947041504, 0.675200569244, 0.782568512415, 0.870348333944,
                0.331286808715, 0.538870442008, 0.681822304062, 0.791555544351, 0.881381735865,
            ]
        }
    },
    "linear_bc_comparison": {
        "convergence.csv": {"center_w_over_h": [1.04838773917, 1.10419424846, 1.1253144006]},
        "linear_comparison.csv": {
            "center_w_over_h": [
                # dqcy and delta for n = 7, 9, 11; the delta values are the
                # 40-digit solutions of the same float64 systems
                1.92686344809, 1.92671126524, 1.95315177084,
                1.95299540708, 1.95242909605, 1.95227290512,
            ]
        },
    },
    "orthotropic_clamped_sweep": {
        "sweep.csv": {
            "center_w_over_h": [
                0.167526501677, 0.319185615569, 0.50695275308,
                0.654987476395, 0.775180258256, 0.875996723763,
            ],
            "iterations": [2, 3, 4, 4, 4, 3],
        }
    },
    "orthotropic_ss_sweep": {
        "sweep.csv": {
            "center_w_over_h": [
                0.312654681512, 0.558170908985, 0.780775966581,
                1.03660860005, 1.33687819411, 1.69923154701,
            ],
            "iterations": [3, 4, 4, 4, 4, 4],
        }
    },
    "table1_clamped": {
        "summary.csv": {"center_w_over_h": [1.10419424846], "iterations": [5]}
    },
    "table1_simply_supported": {
        "summary.csv": {"center_w_over_h": [0.940474187377], "iterations": [6]}
    },
}


def expected_outputs(doc):
    """Mode implied by the case's blocks, and the header of every CSV it writes."""
    if "sweep" in doc:
        return "sweep", {"sweep.csv": SWEEP}
    if "bench" in doc:
        return "bench", {"bench.csv": BENCH}
    if "convergence" in doc:
        conv = doc["convergence"]
        extra = ["abs_diff_to_reference"] if "reference" in conv else []
        files = {"convergence.csv": CONVERGENCE + extra}
        if conv.get("linear_comparison"):
            files["linear_comparison.csv"] = LINEAR
        return "converge", files
    return "solve", {"solution.csv": SOLUTION, "summary.csv": SUMMARY}


def test_cases_are_bundled():
    assert len(CASES) >= 7
    assert sorted(PINNED) == [p.stem for p in CASES]


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_bundled_case_runs(path, tmp_path):
    mode, files = expected_outputs(json.loads(path.read_text()))
    assert main([mode, str(path), "--out", str(tmp_path)]) == EXIT_OK
    for name, header in files.items():
        lines = (tmp_path / name).read_text().strip().split("\n")
        assert lines[0].split(",") == header
        assert len(lines) > 1
    for name, pins in PINNED[path.stem].items():
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if "center_w_over_h" in pins:
            got = [float(r["center_w_over_h"]) for r in rows]
            assert got == pytest.approx(pins["center_w_over_h"], rel=1e-9, abs=0)
        for column in ("n", "iterations"):
            if column in pins:
                assert [int(r[column]) for r in rows] == pins[column]


@pytest.mark.parametrize("q, sign", [(0.0, 0.0), (-3.0, -1.0)], ids=["zero", "negative"])
def test_comparison_at_zero_and_negative_load(tmp_path, q, sign):
    """linear_bc_comparison with plate.q = 0 or -3 and no loads block, whose
    ladder is that one load.  W -> -W maps a solution at q to one at -q, so
    every center is 0 or the q = 3 pin negated."""
    doc = json.loads((ROOT / "cases" / "linear_bc_comparison.json").read_text())
    assert doc["plate"]["q"] == 3.0 and "loads" not in doc["convergence"]
    doc["plate"]["q"] = q
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", str(path), "--out", str(tmp_path)]) == EXIT_OK
    for name, pins in PINNED["linear_bc_comparison"].items():
        with open(tmp_path / name, newline="") as fh:
            got = [float(r["center_w_over_h"]) for r in csv.DictReader(fh)]
        want = [sign * c for c in pins["center_w_over_h"]]
        assert got == pytest.approx(want, rel=1e-9, abs=0)


def test_module_entry_point(tmp_path):
    """``python -m dqplate`` runs the same CLI and exits with its code."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    case = ROOT / "cases" / "table1_simply_supported.json"
    done = subprocess.run(
        [sys.executable, "-m", "dqplate", "solve", str(case), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    pin = PINNED["table1_simply_supported"]["summary.csv"]["center_w_over_h"]
    assert [float(row["center_w_over_h"])] == pytest.approx(pin, rel=1e-9, abs=0)
