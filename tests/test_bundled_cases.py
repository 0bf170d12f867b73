"""Every bundled case file runs through the CLI and writes the documented CSVs."""

import json
from pathlib import Path

import pytest

from dqplate.case_runner import EXIT_OK, main

CASES = sorted((Path(__file__).resolve().parent.parent / "cases").glob("*.json"))

SOLUTION = ["x", "y", "w", "u", "v"]
SUMMARY = ["center_w_over_h", "iterations", "final_residual", "wall_time_s"]
SWEEP = ["q", "center_w_over_h", "iterations", "converged"]
BENCH = ["n", "strategy", "jac_ms", "solve_ms", "iterations"]
CONVERGENCE = ["kind", "n", "q", "center_w_over_h"]
LINEAR = ["scheme", "n", "center_w_over_h", "series_center_w_over_h", "abs_error"]


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


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_bundled_case_runs(path, tmp_path):
    mode, files = expected_outputs(json.loads(path.read_text()))
    assert main([mode, str(path), "--out", str(tmp_path)]) == EXIT_OK
    for name, header in files.items():
        lines = (tmp_path / name).read_text().strip().split("\n")
        assert lines[0].split(",") == header
        assert len(lines) > 1
