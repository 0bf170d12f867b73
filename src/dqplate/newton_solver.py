"""Newton iteration with a pluggable Jacobian strategy, plus plate drivers.

The iteration is plain Newton with an LU solve per step (``plate_model.lu_solve``:
getrf, gecon, getrs), which factors the Jacobian in place and never forms its
inverse.  It runs on the symmetric quarter's unknowns (see ``plate_model``).
The constant in-plane block's inverse is formed when the system is
assembled: the residual applies it as one product, and the analytic
Jacobian turns its in-plane sensitivity solve into products with 1-D
factors (see ``plate_model.jacobian``), read from the evaluation of the
accepted candidate: each candidate W is evaluated once.  A half-step
fallback engages only when a full step increases the residual, so
benchmark timings stay comparable to the undamped method while runaway
steps are caught.
Convergence is measured on the max-norm of the residual, default tolerance 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable

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
        if not plate_model.is_finite(self.tol):  # NaN included
            raise SpecError("tol", "must be finite")
        if self.tol <= 0:
            raise SpecError("tol", "must be positive")
        # a float fails range() mid-run; a bool is an int, but True is no budget
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer)):
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
    residual_fn: Callable[[np.ndarray], Any],
    jacobian_fn: Callable[[Any], np.ndarray],
    w0: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    strategy_label: str = SJT_ANALYTIC,
) -> tuple[Any, NewtonReport]:
    """Iterate w <- w - J(w)^-1 r(w) until max|r| <= tol.

    ``residual_fn(w)`` returns r(w), or an evaluation with r(w) as its ``r``
    (``plate_model.evaluate``).  ``jacobian_fn`` takes the accepted iterate's
    evaluation (w for bare residuals; the best candidate of a halved step)
    and returns a new array, which the step's LU may overwrite.  Returns the
    last accepted iterate's evaluation and a report; divergence (singular
    Jacobian, non-finite values, iteration budget) is reported rather than
    raised so callers can dump diagnostics.  ``tol`` and ``max_iter`` are
    checked by SolverOptions; the label only names the strategy in the report.
    """
    SolverOptions(tol, max_iter)
    w = np.array(w0, dtype=float).copy()
    report = NewtonReport(
        iterations=0, residual_history=[], converged=False,
        jacobian_strategy=strategy_label,
    )

    def evaluated(z):  # what jacobian_fn takes at z, and r(z)
        t0 = perf_counter()
        out = residual_fn(z)
        report.residual_time += perf_counter() - t0
        return (z, out) if isinstance(out, np.ndarray) else (out, out.r)

    x, r = evaluated(w)
    rnorm = float(np.abs(r).max()) if r.size else 0.0
    report.residual_history.append(rnorm)
    if not np.isfinite(rnorm):
        report.failure = "non-finite residual at the starting point"
        return x, report

    for _ in range(max_iter):
        if rnorm <= tol:
            report.converged = True
            return x, report

        t0 = perf_counter()
        jac = jacobian_fn(x)
        report.jacobian_time += perf_counter() - t0

        t0 = perf_counter()
        try:
            step = plate_model.lu_solve(jac, r)
        except np.linalg.LinAlgError:
            report.linear_time += perf_counter() - t0
            report.failure = f"singular Jacobian at iteration {report.iterations}"
            return x, report
        report.linear_time += perf_counter() - t0
        del jac  # holds the LU now; freed before the next Jacobian is built

        # Full step first; halve only while the residual norm would grow.
        best, best_norm = None, np.inf
        scale = 1.0
        for _k in range(MAX_HALVINGS + 1):
            cand = w - scale * step
            x_cand, r_cand = evaluated(cand)
            norm_cand = float(np.abs(r_cand).max())
            if np.isfinite(norm_cand) and norm_cand < best_norm:
                best, best_norm = (cand, x_cand, r_cand), norm_cand
            if np.isfinite(norm_cand) and norm_cand <= rnorm:
                break
            scale *= 0.5
        if best is None:
            report.failure = "non-finite iterate"
            report.iterations += 1
            return x, report

        (w, x, r), rnorm = best, best_norm
        report.iterations += 1
        report.residual_history.append(rnorm)

    report.converged = rnorm <= tol
    if not report.converged:
        report.failure = f"no convergence in {max_iter} iterations"
    return x, report


def fd_jacobian(residual_fn: Callable[[np.ndarray], np.ndarray], w: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, column j from perturbing w_j.

    The perturbation is FD_STEP * max(1, |w_j|), which keeps the
    stencil well-scaled for both small and large components.  J is
    Fortran-ordered, so the step factors it in place.
    """
    w = np.asarray(w, dtype=float)
    steps = FD_STEP * np.maximum(1.0, np.abs(w))
    jac = np.empty((w.size, w.size), order="F")
    for j, d in enumerate(steps):
        wp, wm = w.copy(), w.copy()
        wp[j] += d
        wm[j] -= d
        np.divide(residual_fn(wp) - residual_fn(wm), 2.0 * d, out=jac[:, j])
    return jac


@dataclass(frozen=True)
class PlateSolution:
    """One converged plate solve: system, fields, iteration report."""

    system: AssembledSystem
    field: SolutionField
    report: NewtonReport


def _make_jacobian_fn(sys: AssembledSystem, strategy: str) -> Callable[[Any], np.ndarray]:
    """The Jacobian of a checked strategy at an evaluation; central differences read its W."""
    if strategy == FINITE_DIFFERENCE:
        return lambda ev: fd_jacobian(lambda z: plate_model.residual(sys, z), ev.w)
    return lambda ev: plate_model.jacobian(sys, ev)


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
    solution, iterate; the fields are the last iterate's evaluation's."""
    SolverOptions(tol, max_iter, strategy)
    sys = _system_for(spec, system)
    if w0 is None:
        w0 = plate_model.linear_solve(sys)
    ev, report = newton(
        lambda z: plate_model.evaluate(sys, z),
        _make_jacobian_fn(sys, strategy),
        w0,
        tol=tol,
        max_iter=max_iter,
        strategy_label=strategy,
    )
    fld = plate_model.recover_fields(sys, ev.w, *ev.uv)
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
