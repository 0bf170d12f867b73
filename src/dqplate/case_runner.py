"""Case-file driven command line: solve, sweep, bench, converge.

Cases are plain JSON documents, validated strictly and in one pass by
``parse_case``: the schema checks keys and JSON types, every plate and
grid the case implies is built as a PlateSpec, which holds every plate
rule, the solver block as a newton_solver.SolverOptions, and each load
ladder goes through newton_solver.load_ladder.  The run modes only run: a
missing block is the one case error they raise.  Each run writes CSV artifacts with a header row, '.' decimals and
12 significant digits, so outputs are comparable across implementations.

Exit codes: 0 success, 2 unreadable or invalid case file or bad --out, 3
solver did not converge (the iteration report is dumped to stderr) or a plate
whose in-plane block or bending operator is numerically singular.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

from . import bc_builder, dq_core, linear_bending, newton_solver, plate_model
from .bc_builder import CLAMPED
from .dq_core import CHEBYSHEV, UNIFORM
from .newton_solver import FINITE_DIFFERENCE, SJT_ANALYTIC, SolverOptions
from .plate_model import PlateSpec, SpecError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3

_GRID_ALIASES = {
    "uniform": UNIFORM,
    "chebyshev": CHEBYSHEV,
    "chebyshev_mapped": CHEBYSHEV,
}
_JACOBIAN_ALIASES = {"sjt": SJT_ANALYTIC, "fd": FINITE_DIFFERENCE}


class CaseError(ValueError):
    """Invalid case file; the message carries the offending field path."""


@dataclass(frozen=True)
class Case:
    spec: PlateSpec
    solver: SolverOptions
    sweep_loads: list[float] | None
    bench_grids: list[int] | None
    bench_repeats: int
    conv_grids: list[int] | None
    conv_kinds: list[str]
    conv_reference: tuple[int, str] | None
    conv_loads: list[float] | None
    conv_linear: bool
    conv_delta: float


# ---------------------------------------------------------------------------
# Case schema: every object is a table of key -> (check, default).  A check
# is a nested table or a function of (value, field path); a key that is
# absent or null takes its default, and _REQUIRED makes it an error.
# ---------------------------------------------------------------------------

_REQUIRED = object()
_NUMBER = (int, float)


def _read(node, schema: dict, path: str) -> dict:
    """Validate one JSON object against a schema table; unknown keys fail."""
    where = path or "case"
    if not isinstance(node, dict):
        raise CaseError(f"{where}: expected an object")
    out = {}
    for key, (check, default) in schema.items():
        value = node.get(key)
        if value is None:
            if default is _REQUIRED:
                raise CaseError(f"{where}: missing required key '{key}'")
            out[key] = default
        else:
            sub = f"{path}.{key}" if path else key
            out[key] = (
                _read(value, check, sub) if isinstance(check, dict) else check(value, sub)
            )
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise CaseError(f"{where}: unknown key '{unknown[0]}'")
    return out


def _scalar(kind, noun: str, ok=None, rule: str = ""):
    """Check for one JSON scalar of type ``kind`` that satisfies ``ok``."""

    def check(value, path):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise CaseError(f"{path}: expected {noun}")
        if kind is _NUMBER and not plate_model.is_finite(value):
            raise CaseError(f"{path}: must be finite")
        if ok is not None and not ok(value):
            raise CaseError(f"{path}: {rule}")
        return float(value) if kind is _NUMBER else value

    return check


def _choice(options: dict):
    def check(value, path):
        if not isinstance(value, str) or value not in options:
            raise CaseError(
                f"{path}: unknown value {value!r}; expected one of {sorted(options)}"
            )
        return options[value]

    return check


def _list_of(item):
    def check(value, path):
        if not isinstance(value, list) or not value:
            raise CaseError(f"{path}: expected a non-empty list")
        return [item(x, f"{path}[{i}]") for i, x in enumerate(value)]

    return check


# PlateSpec, SolverOptions and newton_solver.load_ladder hold the rules
_number = _scalar(_NUMBER, "a number")
_positive = _scalar(_NUMBER, "a number", lambda x: x > 0, "must be positive")
_count = _scalar(int, "an integer", lambda x: x >= 1, "must be at least 1")
_integer = _scalar(int, "an integer")
_boolean = _scalar(bool, "a boolean")
_grid_kind = _choice(_GRID_ALIASES)

# The keys of each material form, each with the PlateSpec fields it gives.
_ISOTROPIC = {"e": ("e1", "e2", "g12"), "nu": ("nu12",)}
_ORTHOTROPIC = {name: (name,) for name in ("e1", "e2", "g12", "nu12")}


def _material(node, path) -> dict:
    form = _ISOTROPIC if isinstance(node, dict) and "e" in node else _ORTHOTROPIC
    return _read(node, dict.fromkeys(form, (_number, _REQUIRED)), path)


_PLATE = {
    "a": (_number, _REQUIRED),
    "b": (_number, None),  # defaults to a
    "h": (_number, _REQUIRED),
    "material": (_material, _REQUIRED),
    "bc": (_scalar(str, "a string"), _REQUIRED),
    "q": (_number, _REQUIRED),
    "grid": (
        {
            "nx": (_integer, _REQUIRED),
            "ny": (_integer, _REQUIRED),
            "kind": (_grid_kind, CHEBYSHEV),
        },
        _REQUIRED,
    ),
}


def _checked(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its ValueError or OSError raised as a CaseError
    at ``path``; a SpecError gives its rule alone."""
    try:
        return fn(*args, **kwargs)
    except SpecError as exc:
        raise CaseError(f"{path}: {exc.rule}") from exc
    except (ValueError, OSError) as exc:
        raise CaseError(f"{path}: {exc}") from exc


def _plate(node, path) -> PlateSpec:
    fields = _read(node, _PLATE, path)
    grid, material = fields.pop("grid"), fields.pop("material")
    if fields["b"] is None:
        fields["b"] = fields["a"]
    iso = "e" in material
    form, make = (_ISOTROPIC, PlateSpec.isotropic) if iso else (_ORTHOTROPIC, PlateSpec)
    # where a PlateSpec field is in the file, below plate, if not at its own name
    moved = {"nx": "grid.nx", "ny": "grid.ny", "grid_kind": "grid.kind"}
    for key, spec_fields in form.items():
        moved.update(dict.fromkeys(spec_fields, f"material.{key}"))
    try:
        return make(nx=grid["nx"], ny=grid["ny"], grid_kind=grid["kind"], **material, **fields)
    except SpecError as exc:
        raise CaseError(f"{path}.{moved.get(exc.field, exc.field)}: {exc.rule}") from exc


_SOLVER = {
    "tol": (_number, newton_solver.DEFAULT_TOL),
    "max_iter": (_integer, newton_solver.DEFAULT_MAX_ITER),
    "jacobian": (_choice(_JACOBIAN_ALIASES), SJT_ANALYTIC),
}


def _options(solver: SolverOptions, fields: dict, path: str) -> SolverOptions:
    """``solver`` with ``fields`` replaced; a SpecError names its path below ``path``."""
    try:
        return replace(solver, **fields)
    except SpecError as exc:
        raise CaseError(f"{path}.{exc.field}: {exc.rule}") from exc


def _solver(node, path) -> SolverOptions:
    return _options(SolverOptions(), _read(node, _SOLVER, path), path)


_SWEEP = {"loads": (_list_of(_number), _REQUIRED)}
_BENCH = {"grids": (_list_of(_integer), _REQUIRED), "repeats": (_count, 3)}
_CONVERGENCE = {
    "grids": (_list_of(_integer), _REQUIRED),
    "kinds": (_list_of(_grid_kind), [CHEBYSHEV]),
    "reference": ({"n": (_integer, _REQUIRED), "kind": (_grid_kind, CHEBYSHEV)}, None),
    "loads": (_list_of(_number), None),
    "linear_comparison": (_boolean, False),
    "delta": (_positive, 1e-5),
}
_CASE = {
    "plate": (_plate, _REQUIRED),
    "solver": (_solver, SolverOptions()),
    "sweep": (_SWEEP, None),
    "bench": (_BENCH, None),
    "convergence": (_CONVERGENCE, None),
}


def _absent(schema: dict) -> dict:
    """Values of an optional block that is not in the file: required keys None."""
    return {k: None if d is _REQUIRED else d for k, (_, d) in schema.items()}


def parse_case(path: str | Path) -> Case:
    """Read and validate one case file; raises CaseError on any defect."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CaseError(f"cannot read case file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer longer than int() reads from a string
        raise CaseError(f"unreadable JSON number: {exc}") from exc
    doc = _read(doc, _CASE, "")
    plate = doc["plate"]
    sweep = doc["sweep"] or _absent(_SWEEP)
    bench = doc["bench"] or _absent(_BENCH)
    conv = doc["convergence"] or _absent(_CONVERGENCE)
    ref = conv["reference"]
    for path, loads in (("sweep.loads", sweep["loads"]), ("convergence.loads", conv["loads"])):
        if loads is not None:
            _checked(path, newton_solver.load_ladder, plate, loads)
    # every grid the case implies is a PlateSpec, which checks it
    for i, npts in enumerate(bench["grids"] or []):
        _checked(f"bench.grids[{i}]", replace, plate, nx=npts, ny=npts)
    for kind, (i, npts) in product(conv["kinds"], enumerate(conv["grids"] or [])):
        _checked(f"convergence.grids[{i}]", replace, plate, nx=npts, ny=npts, grid_kind=kind)
    if ref is not None:
        n, kind = ref["n"], ref["kind"]
        _checked("convergence.reference.n", replace, plate, nx=n, ny=n, grid_kind=kind)
    if conv["linear_comparison"]:
        if len(conv["kinds"]) != 1:
            raise CaseError(
                "convergence.linear_comparison: needs exactly one of convergence.kinds, "
                f"as linear_comparison.csv has no kind column; got {conv['kinds']}"
            )
        _checked("convergence.linear_comparison", linear_bending.isotropic_material, plate)
        for npts in sorted(conv["grids"], reverse=True):  # the tightest bound first
            grid = dq_core.make_grid(npts, conv["kinds"][0])
            _checked("convergence.delta", bc_builder.delta_grid, grid, conv["delta"])
    return Case(
        spec=plate,
        solver=doc["solver"],
        sweep_loads=sweep["loads"],
        bench_grids=bench["grids"],
        bench_repeats=bench["repeats"],
        conv_grids=conv["grids"],
        conv_kinds=conv["kinds"],
        conv_reference=None if ref is None else (ref["n"], ref["kind"]),
        conv_loads=conv["loads"],
        conv_linear=conv["linear_comparison"],
        conv_delta=conv["delta"],
    )


# ---------------------------------------------------------------------------
# CSV helpers: fixed column order, 12 significant digits, '.' decimals.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _dump_report(report: newton_solver.NewtonReport) -> None:
    print("solver did not converge:", file=sys.stderr)
    print(f"  strategy: {report.jacobian_strategy}", file=sys.stderr)
    print(f"  iterations: {report.iterations}", file=sys.stderr)
    print(f"  failure: {report.failure}", file=sys.stderr)
    hist = ", ".join(f"{r:.6g}" for r in report.residual_history)
    print(f"  residual history: [{hist}]", file=sys.stderr)


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------


def run_case(case: Case, out_dir: Path) -> int:
    """Single solve: writes solution.csv and summary.csv."""
    start = perf_counter()
    sol = newton_solver.solve_plate(
        case.spec,
        tol=case.solver.tol,
        max_iter=case.solver.max_iter,
        strategy=case.solver.jacobian,
    )
    wall = perf_counter() - start
    if not sol.report.converged:
        _dump_report(sol.report)
        return EXIT_NO_CONVERGENCE

    fld = sol.field
    rows = []
    for i, xv in enumerate(fld.x):
        for j, yv in enumerate(fld.y):
            rows.append([xv, yv, fld.w[i, j], fld.u[i, j], fld.v[i, j]])
    _write_csv(out_dir / "solution.csv", ["x", "y", "w", "u", "v"], rows)
    _write_csv(
        out_dir / "summary.csv",
        ["center_w_over_h", "iterations", "final_residual", "wall_time_s"],
        [[fld.center_deflection_ratio, sol.report.iterations,
          sol.report.final_residual, wall]],
    )
    return EXIT_OK


def run_sweep(case: Case, out_dir: Path) -> int:
    """Load sweep with warm starts: writes sweep.csv."""
    if case.sweep_loads is None:
        raise CaseError("case has no 'sweep' block")
    points = newton_solver.load_sweep(
        case.spec,
        case.sweep_loads,
        tol=case.solver.tol,
        max_iter=case.solver.max_iter,
        strategy=case.solver.jacobian,
    )
    _write_csv(
        out_dir / "sweep.csv",
        ["q", "center_w_over_h", "iterations", "converged"],
        [[p.q, p.center_w_over_h, p.iterations, p.converged] for p in points],
    )
    if not all(p.converged for p in points):
        print(f"sweep stopped at q = {points[-1].q:g}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _bench_one(spec: PlateSpec, solver: SolverOptions, repeats: int):
    """bench.csv rows of one grid, None if a solve fails: one timed solve per
    strategy, and each Jacobian timed (best of ``repeats``) from the SJT W*."""
    sys_n = plate_model.build_system(spec)
    n = sys_n.bcx.n_interior * sys_n.bcy.n_interior  # unknowns per field on the full grid
    rows, w_star = [], None
    for strategy in (SJT_ANALYTIC, FINITE_DIFFERENCE):
        t0 = perf_counter()
        sol = newton_solver.solve_plate(
            spec, tol=solver.tol, max_iter=solver.max_iter,
            strategy=strategy, system=sys_n,
        )
        solve_ms = (perf_counter() - t0) * 1e3
        if not sol.report.converged:
            return None
        if w_star is None:  # the SJT solve's, as it runs first
            w_star = sol.field.w_stack
        jac = newton_solver.jacobian_fn(sys_n, strategy)
        jac_ms = min(timeit.repeat(lambda: jac(plate_model.evaluate(sys_n, w_star)),
                                   number=1, repeat=repeats)) * 1e3
        rows.append([n, strategy, jac_ms, solve_ms, sol.report.iterations])
    return rows


def run_bench(case: Case, out_dir: Path) -> int:
    """Jacobian-strategy benchmark across grid sizes: writes bench.csv."""
    if case.bench_grids is None:
        raise CaseError("case has no 'bench' block")
    rows = []
    for npts in case.bench_grids:
        spec = replace(case.spec, nx=npts, ny=npts)
        grid_rows = _bench_one(spec, case.solver, case.bench_repeats)
        if grid_rows is None:
            print(f"bench solve failed at grid {npts}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        rows.extend(grid_rows)
    _write_csv(
        out_dir / "bench.csv",
        ["n", "strategy", "jac_ms", "solve_ms", "iterations"],
        rows,
    )
    return EXIT_OK


def _converge_point(system: plate_model.AssembledSystem, solver: SolverOptions, loads):
    """Center w/h at each load on one grid's system, warm-started in load order."""
    points = newton_solver.load_sweep(
        system.spec, loads, tol=solver.tol, max_iter=solver.max_iter,
        strategy=solver.jacobian, system=system,
    )
    if not all(p.converged for p in points):
        return None
    return [(p.q, p.center_w_over_h) for p in points]


def run_convergence(case: Case, out_dir: Path) -> int:
    """Grid study (and optional boundary-treatment comparison).

    Writes convergence.csv; with a reference grid an absolute-difference
    column is included.  With linear_comparison, linear_comparison.csv gets
    the built-in and auxiliary-point center coefficients against the
    classical series value.  Each grid's system is built once, for its load
    ladder (without a loads block, ``plate.q`` of any sign) and its built-in
    linear center, which is the Newton start at ``plate.q``.
    """
    if case.conv_grids is None:
        raise CaseError("case has no 'convergence' block")
    loads = case.conv_loads or [case.spec.q]
    series = linear_bending.linear_reference_center(case.spec) if case.conv_linear else None
    builtin_name = "dqcy" if case.spec.bc == CLAMPED else "dqwb"

    header = ["kind", "n", "q", "center_w_over_h"]
    reference = None
    if case.conv_reference is not None:
        ref_n, ref_kind = case.conv_reference
        ref_spec = replace(case.spec, nx=ref_n, ny=ref_n, grid_kind=ref_kind)
        reference = _converge_point(plate_model.build_system(ref_spec), case.solver, loads)
        if reference is None:
            print("reference grid did not converge", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        header.append("abs_diff_to_reference")
    rows, lin_rows = [], []
    for kind, npts in product(case.conv_kinds, case.conv_grids):
        spec = replace(case.spec, nx=npts, ny=npts, grid_kind=kind)
        system = plate_model.build_system(spec)
        res = _converge_point(system, case.solver, loads)
        if res is None:
            print(f"grid {kind} {npts} did not converge", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        for k, (q, center) in enumerate(res):
            row = [kind, npts, q, center]
            if reference is not None:
                row.append(abs(center - reference[k][1]))
            rows.append(row)
        if case.conv_linear:  # on the study's one kind (parse_case)
            center_b = linear_bending.builtin_center(system)
            center_d = linear_bending.linear_center_delta(spec, case.conv_delta)
            for scheme, center in ((builtin_name, center_b), ("delta", center_d)):
                lin_rows.append([scheme, npts, center, series, abs(center - series)])
    _write_csv(out_dir / "convergence.csv", header, rows)

    if case.conv_linear:
        _write_csv(
            out_dir / "linear_comparison.csv",
            ["scheme", "n", "center_w_over_h", "series_center_w_over_h",
             "abs_error"],
            lin_rows,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqplate",
        description="Differential-quadrature plate bending runs from JSON case files.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
        ("solve", "single nonlinear solve; writes solution.csv and summary.csv"),
        ("sweep", "load sweep with warm starts; writes sweep.csv"),
        ("bench", "Jacobian strategy benchmark; writes bench.csv"),
        ("converge", "grid study; writes convergence.csv"),
    ):
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("case", help="path to the JSON case file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--tol", type=float, help="override solver tolerance")
        p.add_argument("--max-iter", type=int, help="override iteration budget")
        p.add_argument(
            "--jacobian", choices=sorted(_JACOBIAN_ALIASES),
            help="override Jacobian strategy",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # --tol, --max-iter and --jacobian pass the solver block's own checks
    given = {k: getattr(args, k) for k in _SOLVER if getattr(args, k) is not None}
    runner = {
        "solve": run_case,
        "sweep": run_sweep,
        "bench": run_bench,
        "converge": run_convergence,
    }[args.mode]
    # exit 2 for an invalid case (its file, an override or the mode's block) or
    # --out, 3 for a plate whose in-plane block or bending operator is singular
    try:
        case = parse_case(args.case)
        overrides = _read(given, {k: _SOLVER[k] for k in given}, "solver")
        case = replace(case, solver=_options(case.solver, overrides, "solver"))
        out_dir = Path(args.out)
        _checked("--out", out_dir.mkdir, parents=True, exist_ok=True)
        return runner(case, out_dir)
    except (CaseError, plate_model.DecouplingError, plate_model.AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, CaseError) else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
