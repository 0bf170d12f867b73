"""Newton iteration with a pluggable Jacobian strategy, plus plate drivers.

The iteration is plain Newton with an LU solve per step (``plate_model.lu_solve``:
getrf, gecon, getrs), which factors the Jacobian in place and never forms its
inverse.  It runs on the symmetric quarter's unknowns (see ``plate_model``).
The constant in-plane block's inverse is formed when the system is
assembled: the residual applies it as one product, and the analytic
Jacobian turns its in-plane sensitivity solve into products with 1-D
factors (see ``plate_model.jacobian``).  A half-step fallback engages only
when a full step increases the residual, so benchmark timings stay
comparable to the undamped method while runaway steps are caught.
Convergence is measured on the max-norm of the residual, default tolerance 1e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

from . import plate_model
from .plate_model import AssembledSystem, PlateSpec, SolutionField, SpecError

SJT_ANALYTIC = "sjt_analytic"
FINITE_DIFFERENCE = "finite_difference"

STRATEGIES = (SJT_ANALYTIC, FINITE_DIFFERENCE)

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 25
FD_STEP = 1e-6
MAX_HALVINGS = 6

ResidualFn = Callable[[np.ndarray], np.ndarray]
JacobianFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverOptions:
    """Newton's tolerance, iteration budget and Jacobian strategy.

    Every rule on them is checked here, and a broken one raises SpecError;
    ``newton``, ``solve_plate`` and ``load_sweep`` build one from their
    arguments before they do anything else.
    """

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    jacobian: str = SJT_ANALYTIC

    def __post_init__(self):
        if not math.isfinite(self.tol):  # NaN included
            raise SpecError("tol", "must be finite")
        if self.tol <= 0:
            raise SpecError("tol", "must be positive")
        if not isinstance(self.max_iter, (int, np.integer)):  # else range() fails mid-run
            raise SpecError("max_iter", f"must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise SpecError("max_iter", "must be at least 1")
        if self.jacobian not in STRATEGIES:
            raise SpecError(
                "jacobian", f"unknown strategy {self.jacobian!r}; expected one of {STRATEGIES}"
            )


def load_ladder(spec: PlateSpec, q_values) -> list[float]:
    """The loads of a sweep of ``spec``, as floats.  A ladder is non-empty,
    finite (PlateSpec refuses a non-finite load) and strictly increasing, as
    each load is warm-started from the one before; a broken rule raises
    SpecError, field "loads" (or "q" for a non-finite load)."""
    loads = [replace(spec, q=float(q)).q for q in q_values]
    if not loads:
        raise SpecError("loads", "must hold at least one load")
    if any(b <= a for a, b in zip(loads, loads[1:])):
        raise SpecError("loads", "must be strictly increasing")
    return loads


@dataclass
class NewtonReport:
    """Iteration record: counts, residual max-norms, per-phase wall time."""

    iterations: int
    residual_history: list[float]
    converged: bool
    jacobian_strategy: str
    residual_time: float = 0.0
    jacobian_time: float = 0.0
    linear_time: float = 0.0
    failure: str | None = None

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def newton(
    residual_fn: ResidualFn,
    jacobian_fn: JacobianFn,
    w0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    strategy_label: str = SJT_ANALYTIC,
) -> tuple[np.ndarray, NewtonReport]:
    """Iterate w <- w - J(w)^-1 r(w) until max|r| <= tol.

    Returns the last iterate together with a report; divergence (singular
    Jacobian, non-finite values, iteration budget) is reported rather than
    raised so callers can dump diagnostics.  ``jacobian_fn`` must return a
    new array on every call: the step's LU may overwrite it.  ``tol`` and
    ``max_iter`` are checked by SolverOptions; the label only names the
    strategy in the report.
    """
    SolverOptions(tol, max_iter)
    w = np.array(w0, dtype=float).copy()
    report = NewtonReport(
        iterations=0, residual_history=[], converged=False,
        jacobian_strategy=strategy_label,
    )

    t0 = perf_counter()
    r = residual_fn(w)
    report.residual_time += perf_counter() - t0
    rnorm = float(np.abs(r).max()) if r.size else 0.0
    report.residual_history.append(rnorm)
    if not np.isfinite(rnorm):
        report.failure = "non-finite residual at the starting point"
        return w, report

    for _ in range(max_iter):
        if rnorm <= tol:
            report.converged = True
            return w, report

        t0 = perf_counter()
        jac = jacobian_fn(w)
        report.jacobian_time += perf_counter() - t0

        t0 = perf_counter()
        try:
            step = plate_model.lu_solve(jac, r)
        except np.linalg.LinAlgError:
            report.linear_time += perf_counter() - t0
            report.failure = f"singular Jacobian at iteration {report.iterations}"
            return w, report
        report.linear_time += perf_counter() - t0
        del jac  # holds the LU now; freed before the next Jacobian is built

        # Full step first; halve only while the residual norm would grow.
        best_w, best_r, best_norm = None, None, np.inf
        scale = 1.0
        for _k in range(MAX_HALVINGS + 1):
            cand = w - scale * step
            t0 = perf_counter()
            r_cand = residual_fn(cand)
            report.residual_time += perf_counter() - t0
            norm_cand = float(np.abs(r_cand).max())
            if np.isfinite(norm_cand) and norm_cand < best_norm:
                best_w, best_r, best_norm = cand, r_cand, norm_cand
            if np.isfinite(norm_cand) and norm_cand <= rnorm:
                break
            scale *= 0.5
        if best_w is None:
            report.failure = "non-finite iterate"
            report.iterations += 1
            return w, report

        w, r, rnorm = best_w, best_r, best_norm
        report.iterations += 1
        report.residual_history.append(rnorm)

    report.converged = rnorm <= tol
    if not report.converged:
        report.failure = f"no convergence in {max_iter} iterations"
    return w, report


def fd_jacobian(residual_fn: ResidualFn, w: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, column j from perturbing w_j.

    The perturbation is FD_STEP * max(1, |w_j|), which keeps the
    stencil well-scaled for both small and large components.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    cols = []
    for j in range(n):
        d = FD_STEP * max(1.0, abs(w[j]))
        wp = w.copy()
        wm = w.copy()
        wp[j] += d
        wm[j] -= d
        cols.append((residual_fn(wp) - residual_fn(wm)) / (2.0 * d))
    return np.array(cols).T  # Fortran-ordered, so the step factors it in place


@dataclass(frozen=True)
class PlateSolution:
    """One converged plate solve: system, fields, iteration report."""

    system: AssembledSystem
    field: SolutionField
    report: NewtonReport


def _make_jacobian_fn(sys: AssembledSystem, strategy: str) -> JacobianFn:
    """The Jacobian of one of STRATEGIES, which SolverOptions has checked."""
    if strategy == FINITE_DIFFERENCE:
        return lambda w: fd_jacobian(lambda z: plate_model.residual(sys, z), w)
    return lambda w: plate_model.jacobian(sys, w)


def _system_for(spec: PlateSpec, system: AssembledSystem | None) -> AssembledSystem:
    """``system``, which must have been built for ``spec``, or a new build."""
    if system is None:
        return plate_model.build_system(spec)
    if system.spec != spec:
        raise ValueError("the given system was assembled for a different spec")
    return system


def solve_plate(
    spec: PlateSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    strategy: str = SJT_ANALYTIC,
    w0: np.ndarray | None = None,
    system: AssembledSystem | None = None,
) -> PlateSolution:
    """Check the options, assemble (unless given), start from the linear
    solution, iterate."""
    SolverOptions(tol, max_iter, strategy)
    sys = _system_for(spec, system)
    if w0 is None:
        w0 = plate_model.linear_solve(sys)
    w, report = newton(
        lambda z: plate_model.residual(sys, z),
        _make_jacobian_fn(sys, strategy),
        w0,
        tol=tol,
        max_iter=max_iter,
        strategy_label=strategy,
    )
    u, v = plate_model.recover_inplane(sys, w)
    fld = plate_model.recover_fields(sys, w, u, v)
    return PlateSolution(system=sys, field=fld, report=report)


@dataclass(frozen=True)
class SweepPoint:
    """One load level of a sweep; ``converged`` False marks the failure row."""

    q: float
    center_w_over_h: float
    iterations: int
    converged: bool


def load_sweep(
    spec: PlateSpec,
    q_values,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    strategy: str = SJT_ANALYTIC,
    system: AssembledSystem | None = None,
) -> list[SweepPoint]:
    """Solve a ladder of pressures, warm-starting each from the previous.

    The options and the ladder (``load_ladder``, loads of any sign) are
    checked before anything is built.  Each load is solved on a
    ``with_load`` copy of ``system``, which must have been built for
    ``spec`` as in ``solve_plate``, or of one built here.  The first load
    starts from its own linear solution.  On a failed step the partial table
    is returned with a non-converged marker row appended.
    """
    SolverOptions(tol, max_iter, strategy)
    q_values = load_ladder(spec, q_values)
    base = _system_for(spec, system)
    rows: list[SweepPoint] = []
    warm: np.ndarray | None = None
    for q in q_values:
        sys = plate_model.with_load(base, q)
        sol = solve_plate(
            sys.spec, tol=tol, max_iter=max_iter, strategy=strategy,
            w0=warm, system=sys,
        )
        converged = sol.report.converged
        rows.append(
            SweepPoint(
                q=q,
                center_w_over_h=(
                    sol.field.center_deflection_ratio if converged else float("nan")
                ),
                iterations=sol.report.iterations,
                converged=converged,
            )
        )
        if not converged:
            return rows
        warm = sol.field.w_stack
    return rows
