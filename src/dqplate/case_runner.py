"""Case-file driven command line: solve, sweep, bench, converge.

Cases are plain JSON documents validated strictly (unknown keys rejected).
Each run writes CSV artifacts with a header row, '.' decimals and 12
significant digits, so outputs are comparable across implementations.

Exit codes: 0 success, 2 unreadable or invalid case file, 3 solver did not
converge (the iteration report is dumped to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import dq_core, linear_bending, newton_solver, plate_model
from .bc_builder import BC_KINDS, CLAMPED
from .dq_core import CHEBYSHEV, UNIFORM
from .newton_solver import FINITE_DIFFERENCE, SJT_ANALYTIC
from .plate_model import PlateSpec

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
class SolverOptions:
    tol: float = newton_solver.DEFAULT_TOL
    max_iter: int = newton_solver.DEFAULT_MAX_ITER
    jacobian: str = SJT_ANALYTIC


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
        if kind is _NUMBER and not math.isfinite(value):
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


def _list_of(item, increasing=False):
    def check(value, path):
        if not isinstance(value, list) or not value:
            raise CaseError(f"{path}: expected a non-empty list")
        items = [item(x, f"{path}[{i}]") for i, x in enumerate(value)]
        if increasing and any(b <= a for a, b in zip(items, items[1:])):
            raise CaseError(f"{path}: must be strictly increasing")
        return items

    return check


_number = _scalar(_NUMBER, "a number")
_positive = _scalar(_NUMBER, "a number", lambda x: x > 0, "must be positive")
_poisson = _scalar(_NUMBER, "a number", lambda x: 0 <= x < 1, "must lie in [0, 1)")
_count = _scalar(int, "an integer", lambda x: x >= 1, "must be at least 1")
_grid_size = _scalar(
    int, "an integer", lambda x: 5 <= x <= dq_core.MAX_POINTS,
    f"must be in [5, {dq_core.MAX_POINTS}]",
)
_boolean = _scalar(bool, "a boolean")
# A load ladder: load_sweep warm-starts each load from the one before.
_load_ladder = _list_of(_positive, increasing=True)
_grid_kind = _choice(_GRID_ALIASES)

_ISOTROPIC = {"e": (_positive, _REQUIRED), "nu": (_poisson, _REQUIRED)}
_ORTHOTROPIC = {
    "e1": (_positive, _REQUIRED),
    "e2": (_positive, _REQUIRED),
    "g12": (_positive, _REQUIRED),
    "nu12": (_poisson, _REQUIRED),
}


def _material(node, path) -> dict:
    iso = isinstance(node, dict) and "e" in node
    return _read(node, _ISOTROPIC if iso else _ORTHOTROPIC, path)


_PLATE = {
    "a": (_positive, _REQUIRED),
    "b": (_positive, None),  # defaults to a
    "h": (_positive, _REQUIRED),
    "material": (_material, _REQUIRED),
    "bc": (_choice({k: k for k in BC_KINDS}), _REQUIRED),
    "q": (_number, _REQUIRED),
    "grid": (
        {
            "nx": (_grid_size, _REQUIRED),
            "ny": (_grid_size, _REQUIRED),
            "kind": (_grid_kind, CHEBYSHEV),
        },
        _REQUIRED,
    ),
}


def _plate(node, path) -> PlateSpec:
    fields = _read(node, _PLATE, path)
    grid, material = fields.pop("grid"), fields.pop("material")
    if fields["b"] is None:
        fields["b"] = fields["a"]
    make = PlateSpec.isotropic if "e" in material else PlateSpec
    try:
        spec = make(
            nx=grid["nx"], ny=grid["ny"], grid_kind=grid["kind"], **material, **fields
        )
        plate_model.derive_material(spec)  # reciprocity: 1 - nu12 nu21 > 0
    except plate_model.MaterialError as exc:
        raise CaseError(f"{path}.material: {exc}") from exc
    except ValueError as exc:
        raise CaseError(f"{path}: {exc}") from exc
    return spec


_SOLVER = {
    "tol": (_positive, newton_solver.DEFAULT_TOL),
    "max_iter": (_count, newton_solver.DEFAULT_MAX_ITER),
    "jacobian": (_choice(_JACOBIAN_ALIASES), SJT_ANALYTIC),
}


def _solver(node, path) -> SolverOptions:
    return SolverOptions(**_read(node, _SOLVER, path))


_SWEEP = {"loads": (_load_ladder, _REQUIRED)}
_BENCH = {"grids": (_list_of(_grid_size), _REQUIRED), "repeats": (_count, 3)}
_CONVERGENCE = {
    "grids": (_list_of(_grid_size), _REQUIRED),
    "kinds": (_list_of(_grid_kind), [CHEBYSHEV]),
    "reference": ({"n": (_grid_size, _REQUIRED), "kind": (_grid_kind, CHEBYSHEV)}, None),
    "loads": (_load_ladder, None),
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
    doc = _read(doc, _CASE, "")
    bench = doc["bench"] or _absent(_BENCH)
    conv = doc["convergence"] or _absent(_CONVERGENCE)
    ref = conv["reference"]
    return Case(
        spec=doc["plate"],
        solver=doc["solver"],
        sweep_loads=(doc["sweep"] or _absent(_SWEEP))["loads"],
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
    sys_n = plate_model.build_system(spec)
    base = newton_solver.solve_plate(
        spec, tol=solver.tol, max_iter=solver.max_iter, system=sys_n
    )
    w_star = base.field.w_stack

    def time_best(fn):
        best = np.inf
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        return best * 1e3

    jac_sjt = time_best(lambda: plate_model.jacobian(sys_n, w_star))
    jac_fd = time_best(
        lambda: newton_solver.fd_jacobian(
            lambda z: plate_model.residual(sys_n, z), w_star
        )
    )

    rows = []
    for strategy, jac_ms in ((SJT_ANALYTIC, jac_sjt), (FINITE_DIFFERENCE, jac_fd)):
        t0 = perf_counter()
        sol = newton_solver.solve_plate(
            spec, tol=solver.tol, max_iter=solver.max_iter,
            strategy=strategy, system=sys_n,
        )
        solve_ms = (perf_counter() - t0) * 1e3
        if not sol.report.converged:
            return None
        rows.append([sys_n.n, strategy, jac_ms, solve_ms, sol.report.iterations])
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


def _converge_point(spec: PlateSpec, solver: SolverOptions, loads):
    """Center w/h at each load for one grid, warm-started in load order."""
    if len(loads) == 1:
        sol = newton_solver.solve_plate(
            replace(spec, q=loads[0]), tol=solver.tol,
            max_iter=solver.max_iter, strategy=solver.jacobian,
        )
        if not sol.report.converged:
            return None
        return [(loads[0], sol.field.center_deflection_ratio)]
    points = newton_solver.load_sweep(
        spec, loads, tol=solver.tol, max_iter=solver.max_iter,
        strategy=solver.jacobian,
    )
    if not all(p.converged for p in points):
        return None
    return [(p.q, p.center_w_over_h) for p in points]


def run_convergence(case: Case, out_dir: Path) -> int:
    """Grid study (and optional boundary-treatment comparison).

    Writes convergence.csv; with a reference grid an absolute-difference
    column is included.  With linear_comparison, linear_comparison.csv gets
    the built-in and auxiliary-point center coefficients against the
    classical series value.
    """
    if case.conv_grids is None:
        raise CaseError("case has no 'convergence' block")
    loads = case.conv_loads or [case.spec.q]

    lin_rows = []  # first, so that a case the comparison rejects writes nothing
    if case.conv_linear:
        if len(case.conv_kinds) != 1:
            raise CaseError(
                "convergence.linear_comparison: linear_comparison.csv has no kind "
                f"column, so the comparison needs exactly one of convergence.kinds, "
                f"got {case.conv_kinds}"
            )
        (kind,) = case.conv_kinds
        try:
            reference_center = linear_bending.linear_reference_center(case.spec)
        except ValueError as exc:
            raise CaseError(f"convergence.linear_comparison: {exc}") from exc
        builtin_name = "dqcy" if case.spec.bc == CLAMPED else "dqwb"
        for npts in case.conv_grids:
            spec = replace(case.spec, nx=npts, ny=npts, grid_kind=kind)
            center_b = linear_bending.linear_center_builtin(spec)
            try:
                center_d = linear_bending.linear_center_delta(spec, case.conv_delta)
            except ValueError as exc:
                raise CaseError(f"convergence.delta: {exc} on grid {npts}") from exc
            for scheme, center in ((builtin_name, center_b), ("delta", center_d)):
                lin_rows.append(
                    [scheme, npts, center, reference_center,
                     abs(center - reference_center)]
                )

    tasks = [(kind, npts) for kind in case.conv_kinds for npts in case.conv_grids]
    results = [
        _converge_point(
            replace(case.spec, nx=npts, ny=npts, grid_kind=kind), case.solver, loads
        )
        for kind, npts in tasks
    ]

    reference = None
    if case.conv_reference is not None:
        ref_n, ref_kind = case.conv_reference
        ref_spec = replace(case.spec, nx=ref_n, ny=ref_n, grid_kind=ref_kind)
        reference = _converge_point(ref_spec, case.solver, loads)
        if reference is None:
            print("reference grid did not converge", file=sys.stderr)
            return EXIT_NO_CONVERGENCE

    header = ["kind", "n", "q", "center_w_over_h"]
    if reference is not None:
        header.append("abs_diff_to_reference")
    rows = []
    for task, res in zip(tasks, results):
        kind, npts = task
        if res is None:
            print(f"grid {kind} {npts} did not converge", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        for k, (q, center) in enumerate(res):
            row = [kind, npts, q, center]
            if reference is not None:
                row.append(abs(center - reference[k][1]))
            rows.append(row)
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
    try:
        case = parse_case(args.case)
        overrides = _read(given, {k: _SOLVER[k] for k in given}, "solver")
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    case = replace(case, solver=replace(case.solver, **overrides))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runner = {
        "solve": run_case,
        "sweep": run_sweep,
        "bench": run_bench,
        "converge": run_convergence,
    }[args.mode]
    try:
        return runner(case, out_dir)
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
