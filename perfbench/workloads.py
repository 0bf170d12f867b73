"""Seeded case generators, the task each workload runs, and its checks.

A task is one user job: a generated case file read by
``case_runner.parse_case``, a cold ``plate_model.build_system``, the solve or
load ladder through ``newton_solver.solve_plate`` (which ends in
``plate_model.recover_fields``), then the checks below.  Every call goes
through a module attribute, so a traced run sees it.

Each workload repeats a fixed pattern of slots (boundary kind and grid
size, or grid kind and largest grid).  The pattern's weights put the median
task inside one slot's cluster of times and the tail inside another, so
that neither lands in the gap between two clusters.  A slot's continuous parameters follow a
generalised golden-ratio (R_d) sequence with a seeded offset: any run's
draws for a slot are evenly spread over their joint range whatever the
seed, and a different seed still gives different inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from dqplate import case_runner, linear_bending, newton_solver, plate_model

SS = "simply_supported"
CLAMPED = "clamped"


def _rd_steps(d: int) -> list[float]:
    """Steps of the R_d sequence: powers of 1/phi_d, phi_d the root of
    x^(d+1) = x + 1.  Unlike one golden-ratio step for every parameter, which
    fixes the parameters' differences for a seed, these steps are
    independent, so a run covers every combination of the parameters."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    return [phi ** -(k + 1) for k in range(d)]


STEPS = _rd_steps(8)  # more than any case draws

# Table 1 plates: the simply supported case uses nu = 0.25, the clamped 0.316.
TABLE1_NU = {SS: 0.25, CLAMPED: 0.316}
MAX_ASPECT = 9.4 / 7.75  # widest bundled plate
ORTHO = {
    "a": 9.4,
    "b": 7.75,
    "h": 0.0624,
    "material": {"e1": 18.7e6, "e2": 1.3e6, "nu12": 0.3, "g12": 0.6e6},
}
# The bundled simply supported sweep, where chord Newton stalls at q = 4.
ORTHO_LADDER = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
FIG2 = {"a": 16.0, "h": 0.1, "material": {"e": 30e6, "nu": 0.316}, "bc": SS}
FIG2_LADDER = [0.4, 0.8, 1.2, 1.6, 2.0]
DELTA = 1e-5

# Recomputing the transverse residual outside the solver may differ from the
# solver's own value by rounding; allow 1% of the tolerance for that.
RESIDUAL_SLACK = 1.01
# Linear limit against the classical series (acceptance criterion 5).
SERIES_RTOL = 0.01
# Table 1 anchors (acceptance criteria 1 and 2 use the same 2%).
ANCHOR_RTOL = 0.02
# Analytic Jacobian against central differences (acceptance criterion 4).
JACOBIAN_RTOL = 1e-6


class CheckFailed(Exception):
    """A task or anchor produced a wrong or unconverged result."""


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    make_case: Callable  # (slot, draw) -> case document
    run: Callable  # (parsed case, build times) -> None, raises CheckFailed


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def _jitter_ladder(base: list[float], draw) -> list[float]:
    """Base ladder with every load but the last moved by up to 8%.

    Adjacent base loads differ by at least 23%, so the ladder stays
    strictly increasing.
    """
    out = [
        _round(q * math.exp(draw(f"load{k}", -0.08, 0.08)))
        for k, q in enumerate(base[:-1])
    ]
    return out + [base[-1]]


def _grid(n: int, kind: str = "chebyshev") -> dict:
    return {"nx": n, "ny": n, "kind": kind}


def _large_grid_case(slot, draw) -> dict:
    bc, n = slot
    return {
        "plate": {
            "a": 100.0,
            "b": _round(100.0 / draw("aspect", 1.0, MAX_ASPECT)),
            "h": 1.0,
            "material": {"e": 2.1e6, "nu": TABLE1_NU[bc]},
            "bc": bc,
            "q": _round(draw("q", 2.0, 4.0)),
            "grid": _grid(n),
        }
    }


def _fd_oracle_case(slot, draw) -> dict:
    bc, n = slot
    return {
        "plate": {
            "a": 100.0,
            "b": _round(100.0 / draw("aspect", 1.0, MAX_ASPECT)),
            "h": 1.0,
            "material": {"e": 2.1e6, "nu": TABLE1_NU[bc]},
            "bc": bc,
            "q": _round(draw("q", 1.0, 3.0)),
            "grid": _grid(n),
        },
        "solver": {"jacobian": "fd"},
    }


def _sweep_ortho_case(slot, draw) -> dict:
    bc, n = slot
    loads = _jitter_ladder(ORTHO_LADDER, draw)
    return {
        "plate": {**ORTHO, "bc": bc, "q": loads[-1], "grid": _grid(n)},
        "sweep": {"loads": loads},
    }


def _grid_study_case(slot, draw) -> dict:
    kind, n_max = slot
    loads = _jitter_ladder(FIG2_LADDER, draw)
    return {
        "plate": {**FIG2, "q": loads[0], "grid": _grid(n_max, kind)},
        "convergence": {
            "grids": list(range(5, n_max + 1, 2)),
            "kinds": [kind],
            "loads": loads,
            "linear_comparison": True,
            "delta": DELTA,
        },
    }


# ---------------------------------------------------------------------------
# Checks and tasks.
# ---------------------------------------------------------------------------


def check_solution(solution, tol: float) -> None:
    """Converged, and the coupled three-field residual recomputed here
    from the returned fields is within the solver tolerance."""
    report = solution.report
    if not report.converged:
        raise CheckFailed(f"no convergence: {report.failure}")
    f = solution.field
    r1, r2, r3 = plate_model.coupled_residual(
        solution.system, f.w_stack, f.u_stack, f.v_stack
    )
    worst = max(float(np.abs(r).max()) for r in (r1, r2, r3))
    if not worst <= RESIDUAL_SLACK * tol:
        raise CheckFailed(f"coupled residual {worst:.3e} exceeds tol {tol:.1e}")
    if not np.isfinite(f.center_deflection_ratio):
        raise CheckFailed("non-finite center deflection")


def build(spec, builds: list):
    """A cold ``build_system``, its wall time appended to ``builds``: the
    task's set-up before its first Newton step."""
    t0 = perf_counter()
    system = plate_model.build_system(spec)
    builds.append(perf_counter() - t0)
    return system


def solve_task(case, builds: list) -> None:
    system = build(case.spec, builds)
    solution = newton_solver.solve_plate(
        case.spec,
        tol=case.solver.tol,
        max_iter=case.solver.max_iter,
        strategy=case.solver.jacobian,
        system=system,
    )
    check_solution(solution, case.solver.tol)


def run_ladder(spec, loads, solver, builds: list) -> None:
    """Warm-started load ladder on one assembled system, every level
    checked; the center deflection must grow with the load."""
    base = build(replace(spec, q=loads[0]), builds)
    warm = None
    centers = []
    for q in loads:
        system = plate_model.with_load(base, q)
        solution = newton_solver.solve_plate(
            system.spec,
            tol=solver.tol,
            max_iter=solver.max_iter,
            strategy=solver.jacobian,
            w0=warm,
            system=system,
        )
        check_solution(solution, solver.tol)
        centers.append(solution.field.center_deflection_ratio)
        warm = solution.field.w_stack
    if any(b <= a for a, b in zip(centers, centers[1:])):
        raise CheckFailed(f"center deflection not increasing with load: {centers}")


def sweep_task(case, builds: list) -> None:
    run_ladder(case.spec, case.sweep_loads, case.solver, builds)


def grid_study_task(case, builds: list) -> None:
    """A grid study of one grid kind: on every grid the load ladder, then
    the built-in and auxiliary-point linear centers against the series."""
    (kind,) = case.conv_kinds
    for n in case.conv_grids:
        spec = replace(case.spec, nx=n, ny=n, grid_kind=kind)
        run_ladder(spec, case.conv_loads, case.solver, builds)
        reference = linear_bending.linear_reference_center(spec)
        builtin = linear_bending.linear_center_builtin(spec)
        delta = linear_bending.linear_center_delta(spec, case.conv_delta)
        err_builtin = abs(builtin - reference) / reference
        err_delta = abs(delta - reference) / reference
        if not err_builtin <= SERIES_RTOL:
            raise CheckFailed(
                f"N={n}: built-in linear center off the series by {err_builtin:.2e}"
            )
        if not err_builtin <= err_delta:
            raise CheckFailed(
                f"N={n}: built-in error {err_builtin:.2e} above "
                f"auxiliary-point error {err_delta:.2e}"
            )


WORKLOADS = {
    # Jacobian-bound: dense n^3 products and both BLAS pools dominate.
    # N = 25 runs twice as often as 31, so the median falls among the
    # N = 25 simply supported tasks and the tail among N = 31 clamped ones.
    "large_grid": Workload(
        "large_grid",
        ((CLAMPED, 25), (SS, 25), (CLAMPED, 31), (CLAMPED, 25), (SS, 25), (SS, 31)),
        _large_grid_case,
        solve_task,
    ),
    # Warm-started ladders: one in-plane LU reused over many iterations,
    # on the 21-point simply supported plate up to q = 4.  Only this slot:
    # the N = 17 and clamped ladders took two to four times less time and
    # BLAS contention moved them in and out of the median's reach, which
    # doubled the spread of the median between runs.
    "sweep_ortho": Workload("sweep_ortho", ((SS, 21),), _sweep_ortho_case, sweep_task),
    # Tiny systems: fixed per-call cost and set-up dominate.  A task is the
    # whole study of one grid kind, odd N from 5 up to the slot's 13; one
    # grid per task would split the times into clusters by N.
    "grid_study": Workload(
        "grid_study",
        (("chebyshev", 13), ("uniform", 13)),
        _grid_study_case,
        grid_study_task,
    ),
    # Central differences: 2n residual evaluations per Newton step.  The
    # N = 11 simply supported slot comes twice, so the median falls among
    # its tasks and the tail among N = 13 simply supported ones.
    "fd_oracle": Workload(
        "fd_oracle",
        ((CLAMPED, 11), (CLAMPED, 13), (SS, 11), (SS, 13), (SS, 11)),
        _fd_oracle_case,
        solve_task,
    ),
}


def generate(workload: Workload, seed: int, tiny: bool = False) -> Iterator[str]:
    """Endless case-file texts for a workload; equal seeds give equal bytes.

    ``tiny`` caps every grid at 7 points, for smoke tests.
    """
    index = list(WORKLOADS).index(workload.name)
    rng = np.random.default_rng([seed, index])
    offsets: dict = {}
    dims: dict = {}
    seen: dict = {}

    for k in itertools.count():
        slot = workload.slots[k % len(workload.slots)]
        if tiny:
            slot = (slot[0], min(slot[1], 7))
        occurrence = seen[slot] = seen.get(slot, -1) + 1

        def draw(name, lo, hi, slot=slot, occurrence=occurrence):
            key = (slot, name)
            if key not in offsets:
                offsets[key] = float(rng.random())
                dims[key] = sum(1 for s, _ in dims if s == slot)
            frac = (offsets[key] + occurrence * STEPS[dims[key]]) % 1.0
            return lo + (hi - lo) * frac

        doc = workload.make_case(slot, draw)
        yield json.dumps(doc, sort_keys=True) + "\n"


def write_case(path, text: str) -> None:
    """Write a case file as a new file.  Truncating an existing file makes
    ext4 force its data out on close, tens of milliseconds that would pace
    the task loop."""
    path.unlink(missing_ok=True)
    path.write_text(text)


def run_task(workload: Workload, path, builds: list) -> None:
    workload.run(case_runner.parse_case(path), builds)


# ---------------------------------------------------------------------------
# Seed-independent anchors.
# ---------------------------------------------------------------------------


def _table1(bc: str, n: int, q: float):
    return plate_model.PlateSpec.isotropic(
        a=100.0, h=1.0, e=2.1e6, nu=TABLE1_NU[bc], q=q, nx=n, ny=n, bc=bc
    )


def _anchor_center(spec, expected: float) -> None:
    solution = newton_solver.solve_plate(spec)
    check_solution(solution, newton_solver.DEFAULT_TOL)
    center = solution.field.center_deflection_ratio
    if not abs(center - expected) <= ANCHOR_RTOL * expected:
        raise CheckFailed(f"center w/h {center:.5f}, expected {expected} within 2%")


def anchor_table1_ss() -> None:
    _anchor_center(_table1(SS, 7, 1.0), 0.9405)


def anchor_table1_clamped() -> None:
    _anchor_center(_table1(CLAMPED, 9, 3.0), 1.104)


def anchor_small_q_limit() -> None:
    """At q = 1e-3 the nonlinear center, the built-in linear center and the
    auxiliary-point linear center all match the Navier series within 1%."""
    spec = _table1(SS, 11, 1e-3)
    reference = linear_bending.linear_reference_center(spec)
    solution = newton_solver.solve_plate(spec)
    check_solution(solution, newton_solver.DEFAULT_TOL)
    centers = {
        "nonlinear": solution.field.center_deflection_ratio,
        "built-in": linear_bending.linear_center_builtin(spec),
        "auxiliary-point": linear_bending.linear_center_delta(spec, DELTA),
    }
    for name, center in centers.items():
        err = abs(center - reference) / reference
        if not err <= SERIES_RTOL:
            raise CheckFailed(f"{name} center off the series by {err:.2e}")


def anchor_jacobian_vs_fd() -> None:
    spec = _table1(CLAMPED, 9, 3.0)
    system = plate_model.build_system(spec)
    w = 3.0 * plate_model.linear_solve(system)
    analytic = plate_model.jacobian(system, w)
    differenced = newton_solver.fd_jacobian(
        lambda z: plate_model.residual(system, z), w
    )
    err = np.abs(analytic - differenced).max()
    if not err <= JACOBIAN_RTOL * np.abs(analytic).max():
        raise CheckFailed(f"analytic Jacobian differs from central differences by {err:.3e}")


ANCHORS = {
    "table1_ss": anchor_table1_ss,
    "table1_clamped": anchor_table1_clamped,
    "small_q_limit": anchor_small_q_limit,
    "jacobian_vs_fd": anchor_jacobian_vs_fd,
}
