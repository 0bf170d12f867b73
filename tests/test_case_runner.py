"""Case-file parsing, CSV artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from dqplate.case_runner import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    CaseError,
    main,
    parse_case,
)
from dqplate.dq_core import CHEBYSHEV
from dqplate.newton_solver import FINITE_DIFFERENCE

SS_CASE = {
    "plate": {
        "a": 100.0,
        "h": 1.0,
        "material": {"e": 2.1e6, "nu": 0.25},
        "bc": "simply_supported",
        "q": 1.0,
        "grid": {"nx": 7, "ny": 7, "kind": "chebyshev"},
    }
}


def write_case(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_isotropic_case(tmp_path):
    case = parse_case(write_case(tmp_path, SS_CASE))
    assert case.spec.e1 == case.spec.e2 == 2.1e6
    assert case.spec.grid_kind == CHEBYSHEV
    assert case.spec.b == 100.0  # defaults to a
    assert case.solver.tol == 1e-5


def test_parse_orthotropic_material(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["material"] = {
        "e1": 18.7e6, "e2": 1.3e6, "nu12": 0.3, "g12": 0.6e6,
    }
    doc["plate"]["b"] = 7.75
    case = parse_case(write_case(tmp_path, doc))
    assert case.spec.e2 == 1.3e6
    assert case.spec.b == 7.75


def test_unknown_key_rejected(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["thickness"] = 1.0
    with pytest.raises(CaseError, match="thickness"):
        parse_case(write_case(tmp_path, doc))


def test_unknown_top_level_key_rejected(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plot"] = True
    with pytest.raises(CaseError, match="plot"):
        parse_case(write_case(tmp_path, doc))


def test_missing_required_key(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    del doc["plate"]["q"]
    with pytest.raises(CaseError, match="q"):
        parse_case(write_case(tmp_path, doc))


def with_block(**blocks):
    doc = json.loads(json.dumps(SS_CASE))
    doc.update(blocks)
    return doc


def with_material(material):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["material"] = material
    return doc


@pytest.mark.parametrize(
    "doc, path",
    [
        (with_block(sweep={"loads": []}), "sweep.loads"),
        (with_block(bench={"grids": [7], "repeats": 0}), "bench.repeats"),
        (
            with_block(convergence={"grids": [7], "linear_comparison": "yes"}),
            "convergence.linear_comparison",
        ),
        (
            with_block(convergence={"grids": [7], "reference": {"kind": "uniform"}}),
            "convergence.reference: missing required key 'n'",
        ),
        (with_block(solver={"jacobian": "bad"}), "solver.jacobian"),
        (
            with_material({"e": 2.1e6, "nu": 0.25, "e1": 2.1e6}),
            "plate.material: unknown key 'e1'",
        ),
        (with_material({"e": 2.1e6, "nu": -1.0}), "plate.material.nu"),
        (with_block(convergence={"grids": [3]}), "convergence.grids[0]"),
        (
            with_block(convergence={"grids": [7], "kinds": [["uniform"]]}),
            "convergence.kinds[0]",
        ),
        (with_block(solver={"max_iter": 0}), "solver.max_iter"),
        (with_block(sweep={"loads": [float("inf")]}), "sweep.loads[0]"),
        (with_block(sweep={"loads": [1.0, 0.5]}), "sweep.loads"),
        (
            with_block(convergence={"grids": [7], "loads": [0.4, 0.4]}),
            "convergence.loads",
        ),
        (
            with_material({"e1": 1e6, "e2": 2e6, "nu12": 0.9, "g12": 4e5}),
            "plate.material: 1 - nu12*nu21",
        ),
        (
            with_material({"e1": 1e6, "e2": 1e6, "nu12": 1.5, "g12": 4e5}),
            "plate.material.nu12",
        ),
    ],
    ids=["empty-loads", "zero-repeats", "non-boolean", "reference-without-n",
         "bad-jacobian", "mixed-material", "poisson-minus-one", "grid-too-small",
         "unhashable-kind", "zero-max-iter", "infinite-load", "decreasing-sweep-loads",
         "repeated-convergence-loads", "non-reciprocal-orthotropic", "nu12-above-one"],
)
def test_invalid_field_names_its_path(tmp_path, doc, path):
    with pytest.raises(CaseError) as err:
        parse_case(write_case(tmp_path, doc))
    assert str(err.value).startswith(path)


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"plate": }')
    with pytest.raises(CaseError, match="line 1"):
        parse_case(path)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert main(["solve", str(path)]) == EXIT_PARSE


def test_missing_file_is_parse_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_PARSE


@pytest.mark.parametrize(
    "override, path",
    [(["--max-iter", "0"], "solver.max_iter"), (["--tol", "-1"], "solver.tol"),
     (["--tol", "nan"], "solver.tol")],
    ids=["zero-max-iter", "negative-tol", "nan-tol"],
)
def test_invalid_override_names_its_path(tmp_path, capsys, override, path):
    case = write_case(tmp_path, SS_CASE)
    assert main(["solve", str(case), "--out", str(tmp_path), *override]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: {path}")


def test_solver_block_and_overrides(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["solver"] = {"tol": 1e-7, "max_iter": 12, "jacobian": "fd"}
    case = parse_case(write_case(tmp_path, doc))
    assert case.solver.tol == 1e-7
    assert case.solver.max_iter == 12
    assert case.solver.jacobian == FINITE_DIFFERENCE


# ---------------------------------------------------------------------------
# solve mode
# ---------------------------------------------------------------------------


def test_solve_writes_artifacts(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "solution.csv")
    assert header == ["x", "y", "w", "u", "v"]
    assert len(rows) == 49
    header, rows = read_csv(out / "summary.csv")
    assert header == ["center_w_over_h", "iterations", "final_residual", "wall_time_s"]
    assert abs(float(rows[0][0]) - 0.9405) < 0.002


def test_zero_load_solution_is_flat(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["q"] = 0.0
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "solution.csv")
    w = np.array([float(r[2]) for r in rows])
    assert np.abs(w).max() == 0.0


def test_nonconvergence_exits_3(tmp_path, capsys):
    path = write_case(tmp_path, SS_CASE)
    code = main(
        ["solve", str(path), "--out", str(tmp_path), "--tol", "1e-14",
         "--max-iter", "1"]
    )
    assert code == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert "residual history" in err


def test_jacobian_override(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    out = tmp_path / "fd"
    assert main(["solve", str(path), "--out", str(out), "--jacobian", "fd"]) == EXIT_OK


def test_deterministic_reruns(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", str(path), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    # summary matches except the wall-time column
    rows1 = (out1 / "summary.csv").read_text().strip().split("\n")[1].split(",")
    rows2 = (out2 / "summary.csv").read_text().strip().split("\n")[1].split(",")
    assert rows1[:3] == rows2[:3]


def test_summary_round_trips_through_reparse(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "summary.csv")
    for field in rows[0]:
        assert format(float(field), ".12g") == field


def test_csv_uses_plain_decimal_format(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_OK
    body = (out / "solution.csv").read_text()
    assert "," in body and ";" not in body
    first_value = body.split("\n")[1].split(",")[0]
    float(first_value)  # parses with '.' decimal separator


# ---------------------------------------------------------------------------
# sweep / bench / converge modes
# ---------------------------------------------------------------------------


def test_sweep_mode(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["sweep"] = {"loads": [0.25, 0.5, 1.0]}
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["q", "center_w_over_h", "iterations", "converged"]
    assert len(rows) == 3
    centers = [float(r[1]) for r in rows]
    assert centers == sorted(centers)


def test_sweep_requires_block(tmp_path):
    path = write_case(tmp_path, SS_CASE)
    assert main(["sweep", str(path), "--out", str(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("mode, block", [("bench", "bench"), ("converge", "convergence")])
def test_bench_and_converge_require_their_block(tmp_path, capsys, mode, block):
    path = write_case(tmp_path, SS_CASE)
    assert main([mode, str(path), "--out", str(tmp_path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: case has no '{block}' block\n"


def test_failed_sweep_writes_marker_row(tmp_path, capsys):
    """A load the iteration budget cannot reach ends the sweep: exit 3, the
    converged loads, then a marker row with a NaN center."""
    path = write_case(tmp_path, with_block(sweep={"loads": [0.01, 0.02, 40.0]}))
    out = tmp_path / "out"
    code = main(["sweep", str(path), "--out", str(out), "--max-iter", "3"])
    assert code == EXIT_NO_CONVERGENCE
    assert "sweep stopped at q = 40" in capsys.readouterr().err
    _, rows = read_csv(out / "sweep.csv")
    assert [(r[0], r[3]) for r in rows] == [("0.01", "true"), ("0.02", "true"),
                                            ("40", "false")]
    assert rows[-1][1] == "nan" and rows[-1][2] == "3"


@pytest.mark.parametrize(
    "convergence, override, message",
    [
        ({"grids": [5]}, ["--max-iter", "1"], "grid chebyshev_mapped 5 did not converge"),
        # N = 5 reaches 1e-11 (its rounding floor is near 3e-13), N = 21 cannot
        # (about 1e-9)
        (
            {"grids": [5], "reference": {"n": 21}},
            ["--tol", "1e-11"],
            "reference grid did not converge",
        ),
    ],
    ids=["study-grid", "reference-grid"],
)
def test_failed_grid_study_writes_nothing(tmp_path, capsys, convergence, override, message):
    path = write_case(tmp_path, with_block(convergence=convergence))
    out = tmp_path / "out"
    code = main(["converge", str(path), "--out", str(out), *override])
    assert code == EXIT_NO_CONVERGENCE
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_bench_mode_row_count(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["bench"] = {"grids": [7, 9], "repeats": 1}
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["bench", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "bench.csv")
    assert header == ["n", "strategy", "jac_ms", "solve_ms", "iterations"]
    assert len(rows) == 4  # grids x strategies


def test_converge_mode(tmp_path):
    doc = json.loads(json.dumps(SS_CASE))
    doc["convergence"] = {
        "grids": [5, 7],
        "kinds": ["chebyshev", "uniform"],
        "reference": {"n": 9, "kind": "chebyshev"},
    }
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["kind", "n", "q", "center_w_over_h", "abs_diff_to_reference"]
    assert len(rows) == 4


def test_converge_self_convergence(tmp_path):
    """Successive Chebyshev grids: center differences shrink monotonically."""
    doc = json.loads(json.dumps(SS_CASE))
    doc["convergence"] = {"grids": [7, 9, 11], "kinds": ["chebyshev"]}
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "convergence.csv")
    centers = [float(r[3]) for r in rows]
    assert abs(centers[1] - centers[0]) > abs(centers[2] - centers[1])


def test_converge_linear_comparison(tmp_path, table1_clamped):
    doc = {
        "plate": {
            "a": 100.0,
            "h": 1.0,
            "material": {"e": 2.1e6, "nu": 0.316},
            "bc": "clamped",
            "q": 3.0,
            "grid": {"nx": 9, "ny": 9, "kind": "chebyshev"},
        },
        "convergence": {
            "grids": [9, 11],
            "kinds": ["chebyshev"],
            "linear_comparison": True,
            "delta": 1e-5,
        },
    }
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "linear_comparison.csv")
    assert header == [
        "scheme", "n", "center_w_over_h", "series_center_w_over_h", "abs_error",
    ]
    assert {r[0] for r in rows} == {"dqcy", "delta"}
    errs = {(r[0], int(r[1])): float(r[4]) for r in rows}
    assert errs[("dqcy", 11)] < errs[("delta", 11)]


def test_converge_delta_too_large_names_its_path(tmp_path, capsys):
    """delta beyond a grid's second node: exit 2 before any CSV is written."""
    doc = json.loads(json.dumps(SS_CASE))
    doc["convergence"] = {"grids": [7, 9], "linear_comparison": True, "delta": 0.2}
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: convergence.delta")
    assert not list(out.glob("*.csv"))


def _comparison_case(kinds):
    doc = json.loads((Path(__file__).parent.parent / "cases" / "linear_bc_comparison.json").read_text())
    doc["convergence"].update(grids=[7], kinds=kinds)
    return doc


def test_linear_comparison_uses_the_study_kind(tmp_path):
    """A Chebyshev plate studied on uniform grids compares on uniform grids."""
    path = write_case(tmp_path, _comparison_case(["uniform"]))
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "linear_comparison.csv")
    centers = {r[0]: float(r[2]) for r in rows}
    # the uniform 7x7 plate's built-in center; the Chebyshev one is 1.92686344809
    assert centers["dqcy"] == pytest.approx(1.90479096493, rel=1e-9)


def test_linear_comparison_rejects_orthotropic_plate(tmp_path, capsys):
    """The series references need one bending rigidity: exit 2, no CSV."""
    doc = _comparison_case(["chebyshev"])
    doc["plate"]["material"] = {"e1": 18.7e6, "e2": 1.3e6, "nu12": 0.3, "g12": 0.6e6}
    path = write_case(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: convergence.linear_comparison")
    assert not list(out.glob("*.csv"))


def test_linear_comparison_needs_one_kind(tmp_path, capsys):
    """linear_comparison.csv has no kind column: two kinds exit 2, no CSV."""
    path = write_case(tmp_path, _comparison_case(["chebyshev", "uniform"]))
    out = tmp_path / "out"
    assert main(["converge", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: convergence.linear_comparison")
    assert not list(out.glob("*.csv"))
