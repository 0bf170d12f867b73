"""Case-file parsing, CSV artifacts, exit codes."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import count_calls
from dqplate import dq_core, newton_solver, plate_model
from dqplate.case_runner import (
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    CaseError,
    main,
    parse_case,
)
from dqplate.dq_core import CHEBYSHEV
from dqplate.newton_solver import FINITE_DIFFERENCE, SJT_ANALYTIC

ROOT = Path(__file__).resolve().parent.parent
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


def with_plate(**plate):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"].update(plate)
    return doc


def with_grid(**grid):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["grid"].update(grid)
    return doc


def with_material(material):
    doc = json.loads(json.dumps(SS_CASE))
    doc["plate"]["material"] = material
    return doc


def clamped(doc):
    doc["plate"]["bc"] = "clamped"
    return doc


ORTHOTROPIC = {"e1": 18.7e6, "e2": 1.3e6, "nu12": 0.3, "g12": 0.6e6}


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
        (with_grid(nx=23, ny=7, kind="uniform"), "plate.grid.nx"),
        (with_grid(nx=7, ny=23, kind="uniform"), "plate.grid.ny"),
        (
            {**with_grid(kind="uniform"), "bench": {"grids": [9, 23]}},
            "bench.grids[1]",
        ),
        (
            with_block(convergence={"grids": [5, 25], "kinds": ["chebyshev", "uniform"]}),
            "convergence.grids[1]",
        ),
        (
            with_block(convergence={"grids": [7], "reference": {"n": 31, "kind": "uniform"}}),
            "convergence.reference.n",
        ),
        (
            {**with_material(ORTHOTROPIC),
             "convergence": {"grids": [7], "linear_comparison": True}},
            "convergence.linear_comparison",
        ),
        (
            with_block(convergence={"grids": [7], "kinds": ["chebyshev", "uniform"],
                                    "linear_comparison": True}),
            "convergence.linear_comparison",
        ),
        (
            with_block(convergence={"grids": [7, 9], "linear_comparison": True, "delta": 0.2}),
            "convergence.delta",
        ),
        (clamped(with_grid(nx=5, ny=5)), "plate.grid.nx"),
        (clamped(with_block(bench={"grids": [5]})), "bench.grids[0]"),
        (with_plate(a=0.0), "plate.a: must be positive"),
        (with_plate(b=-1.0), "plate.b: must be positive"),
        (with_plate(h=0.0), "plate.h: must be positive"),
        (with_material({"e": 0.0, "nu": 0.25}), "plate.material.e: must be positive"),
        (with_material({**ORTHOTROPIC, "e1": 0.0}), "plate.material.e1: must be positive"),
        (with_material({**ORTHOTROPIC, "e2": -1.0}), "plate.material.e2: must be positive"),
        (with_material({**ORTHOTROPIC, "g12": 0.0}), "plate.material.g12: must be positive"),
        (with_plate(bc="free"), "plate.bc: "),
        (
            with_material({"e1": 1e6, "e2": 4e6, "nu12": 0.5, "g12": 4e5}),
            "plate.material: 1 - nu12*nu21 = 0 must be positive",
        ),
    ],
    ids=["empty-loads", "zero-repeats", "non-boolean", "reference-without-n",
         "bad-jacobian", "mixed-material", "poisson-minus-one", "grid-too-small",
         "unhashable-kind", "zero-max-iter", "infinite-load", "decreasing-sweep-loads",
         "repeated-convergence-loads", "non-reciprocal-orthotropic", "nu12-above-one",
         "uniform-nx", "uniform-ny", "uniform-bench-grid", "uniform-study-grid",
         "uniform-reference", "orthotropic-comparison", "two-kind-comparison",
         "delta-past-second-node", "clamped-5x5", "clamped-bench-5x5", "zero-a",
         "negative-b", "zero-h", "zero-e", "zero-e1", "negative-e2", "zero-g12",
         "unknown-bc", "zero-reciprocity"],
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


@pytest.mark.parametrize(
    "key, value", [("h", 1e200), ("a", 1e100), ("h", 1e-200), ("q", 1e300)],
    ids=["huge-h", "huge-a", "tiny-h", "huge-q"],
)
def test_extreme_plate_constant_exits_2(tmp_path, capsys, key, value):
    """A finite constant that takes a derived one out of the float range (h^3,
    a^4, D1 = 0, the cubic terms at the linear start) is refused at its path."""
    doc = json.loads((ROOT / "cases" / "table1_simply_supported.json").read_text())
    doc["plate"][key] = value
    out = tmp_path / "out"
    assert main(["solve", str(write_case(tmp_path, doc)), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: plate.{key}: ")
    assert not out.exists()


HUGE = 10**400  # valid JSON, beyond the float range


@pytest.mark.parametrize(
    "doc, message",
    [(with_plate(h=HUGE), "plate.h: must be finite"),
     (with_grid(nx=HUGE), "plate.grid.nx: must be in [5, 31]"),
     (with_block(solver={"tol": HUGE}), "solver.tol: must be finite"),
     (with_block(sweep={"loads": [HUGE]}), "sweep.loads[0]: must be finite"),
     (with_block(bench={"grids": [HUGE]}), "bench.grids[0]: must be in [5, 31]")],
    ids=["h", "grid-nx", "tol", "sweep-load", "bench-grid"],
)
def test_huge_json_integer_exits_2(tmp_path, capsys, doc, message):
    """An integer too large for a float is refused with the rule it breaks,
    not with an OverflowError traceback."""
    out = tmp_path / "out"
    assert main(["solve", str(write_case(tmp_path, doc)), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """json reads an integer through int(), which refuses more than 4300
    digits: a case file with a longer one exits 2, without a traceback."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps(SS_CASE).replace('"h": 1.0', '"h": ' + "9" * 5000))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_readme_schema_example_parses(tmp_path):
    """The case schema README documents, its // comments stripped, is a valid case."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    case = parse_case(write_case(tmp_path, json.loads(re.sub(r"//.*", "", block))))
    assert case.sweep_loads == [0.25, 0.5, 1.0]
    assert case.solver.max_iter == 25


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, below):
    """--out naming a file, or a path below one, is a bad argument: exit 2, an
    error line naming --out, and nothing written."""
    case = write_case(tmp_path, SS_CASE)
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    out = blocker / "sub" if below else blocker
    assert main(["solve", str(case), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json", "taken"]


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


def test_sweep_ladder_takes_loads_of_any_sign(tmp_path):
    """A case file's ladder may hold zero and negative loads, as load_sweep's
    may; W -> -W under q -> -q, so the q = -1 row is the q = 1 center negated."""
    out = tmp_path / "out"
    path = write_case(tmp_path, with_block(sweep={"loads": [-1.0, 0.0, 1.0]}))
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "sweep.csv")
    assert [(r[0], r[3]) for r in rows] == [("-1", "true"), ("0", "true"), ("1", "true")]
    q1 = write_case(tmp_path, SS_CASE, "q1.json")
    assert main(["solve", str(q1), "--out", str(out)]) == EXIT_OK
    _, (summary,) = read_csv(out / "summary.csv")
    assert float(rows[0][1]) == pytest.approx(-float(summary[0]), rel=1e-9)


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
        # run_convergence solves the reference before any study grid
        (
            {"grids": [5], "reference": {"n": 21}},
            ["--max-iter", "1"],
            "reference grid did not converge",
        ),
        (
            {"grids": [5], "loads": [0.4, 0.8]},
            ["--max-iter", "1"],
            "grid chebyshev_mapped 5 did not converge",
        ),
    ],
    ids=["study-grid", "reference-grid", "study-ladder"],
)
def test_failed_grid_study_writes_nothing(tmp_path, capsys, convergence, override, message):
    path = write_case(tmp_path, with_block(convergence=convergence))
    out = tmp_path / "out"
    code = main(["converge", str(path), "--out", str(out), *override])
    assert code == EXIT_NO_CONVERGENCE
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_failed_bench_writes_nothing(tmp_path, capsys):
    case = Path(__file__).resolve().parent.parent / "cases" / "bench_clamped.json"
    out = tmp_path / "out"
    code = main(["bench", str(case), "--out", str(out), "--max-iter", "1"])
    assert code == EXIT_NO_CONVERGENCE
    assert "bench solve failed at grid 9" in capsys.readouterr().err
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


def test_bench_solves_once_per_strategy(tmp_path, monkeypatch):
    """The Jacobians are timed at the timed SJT solve's W*: two solves per
    grid, one per strategy, and no untimed one before them."""
    solves = count_calls(monkeypatch, newton_solver, "solve_plate")
    path = write_case(tmp_path, with_block(bench={"grids": [7, 9], "repeats": 1}))
    assert main(["bench", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    strategies = [kwargs.get("strategy") for _, kwargs in solves]
    assert strategies == [SJT_ANALYTIC, FINITE_DIFFERENCE] * 2


def test_cli_reads_only_public_library_names():
    """The CLI reaches the library modules through their public names only."""
    source = (ROOT / "src" / "dqplate" / "case_runner.py").read_text()
    modules = {"bc_builder", "dq_core", "linear_bending", "newton_solver", "plate_model"}
    private = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []


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


def test_delta_error_gives_the_tightest_bound(tmp_path):
    """delta is checked on the largest grid first, whose second node is the
    smallest: 0.0603 on Chebyshev 9, where 7 gives 0.0990."""
    doc = with_block(convergence={"grids": [7, 9], "linear_comparison": True, "delta": 0.1})
    with pytest.raises(CaseError, match=r"^convergence\.delta: .* < 0\.0603"):
        parse_case(write_case(tmp_path, doc))


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


def test_converge_builds_each_grid_once(tmp_path, monkeypatch):
    """A grid's load ladder and its built-in linear center share one system:
    one build per study grid plus the reference's, and one weight set per
    square system plus one per study grid's square auxiliary-point grid."""
    doc = _comparison_case(["chebyshev"])
    doc["convergence"].update(grids=[7, 9, 11], reference={"n": 13})
    path = write_case(tmp_path, doc)
    builds = count_calls(monkeypatch, plate_model, "build_system")
    weights = count_calls(monkeypatch, dq_core, "diff_matrices")
    assert main(["converge", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert [args[0].nx for args, _ in builds] == [13, 7, 9, 11]
    assert len(weights) == 1 + 2 * 3


# An accepted plate whose in-plane block _invert_inplane refuses (rcond 1.375e-18).
SINGULAR_INPLANE = with_plate(
    a=0.1066, b=7.31e-9, h=1514.0,
    material={"e1": 7.41e-6, "e2": 4.79e-16, "nu12": 0.3, "g12": 9.55},
)


@pytest.mark.parametrize(
    "mode, block",
    [("solve", {}), ("sweep", {"sweep": {"loads": [0.5, 1.0]}}),
     ("bench", {"bench": {"grids": [7]}}), ("converge", {"convergence": {"grids": [7]}})],
)
def test_singular_inplane_block_exits_3(tmp_path, capsys, mode, block):
    """DecouplingError from any run mode is one error line and exit 3."""
    path = write_case(tmp_path, {**SINGULAR_INPLANE, **block})
    assert main([mode, str(path), "--out", str(tmp_path / "out")]) == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err == "error: in-plane block system is numerically singular (rcond 1.375e-18)\n"


def test_singular_bending_operator_exits_3(tmp_path, capsys, monkeypatch):
    """AssemblyError from solve_bending (the Newton start) is one error line and exit 3."""

    def singular(op, rhs):
        raise plate_model.AssemblyError("singular bending operator")

    monkeypatch.setattr(plate_model, "solve_bending", singular)
    path = write_case(tmp_path, SS_CASE)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "error: singular bending operator\n"
