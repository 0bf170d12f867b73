"""Newton iteration behavior, strategies, and load sweeping."""

import numpy as np
import pytest

from dqplate.newton_solver import (
    FINITE_DIFFERENCE,
    SJT_ANALYTIC,
    fd_jacobian,
    load_sweep,
    newton,
    solve_plate,
)
from dqplate.plate_model import build_system, residual


def test_scalar_square_root():
    w, report = newton(
        lambda x: x * x - 4.0,
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([3.0]),
        tol=1e-10,
    )
    assert report.converged
    assert report.iterations <= 6
    np.testing.assert_allclose(w, [2.0], rtol=1e-10)


def test_converged_start_takes_no_step(table1_ss):
    sol = solve_plate(table1_ss)
    again = solve_plate(table1_ss, w0=sol.field.w_stack, system=sol.system)
    assert again.report.converged
    assert again.report.iterations == 0


def test_invalid_arguments():
    resid = lambda x: x
    jac = lambda x: np.eye(x.size)
    with pytest.raises(ValueError):
        newton(resid, jac, np.ones(2), tol=0.0)
    with pytest.raises(ValueError):
        newton(resid, jac, np.ones(2), max_iter=0)


def test_singular_jacobian_reported():
    w, report = newton(
        lambda x: np.array([1.0]),
        lambda x: np.array([[0.0]]),
        np.array([0.0]),
    )
    assert not report.converged
    assert "singular" in report.failure


def test_iteration_budget_reported():
    w, report = newton(
        lambda x: x * x - 4.0,
        lambda x: np.array([[2.0 * x[0]]]),
        np.array([100.0]),
        tol=1e-14,
        max_iter=2,
    )
    assert not report.converged
    assert "no convergence" in report.failure
    assert len(report.residual_history) == 3


def test_fd_jacobian_exact_on_linear_map(rng):
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    w = rng.standard_normal(6)
    jf = fd_jacobian(lambda z: a @ z - b, w)
    assert np.abs(jf - a).max() <= 1e-9 * np.abs(a).max()


def test_quadratic_convergence_signature(table1_ss, table1_clamped):
    """Below residual 1, each step squares the residual (analytic Jacobian)."""
    for spec in (table1_ss, table1_clamped):
        report = solve_plate(spec, tol=1e-9).report
        hist = report.residual_history
        floor = 1e-12 * hist[0]  # rounding floor of the residual evaluation
        pairs = [(a, b) for a, b in zip(hist, hist[1:]) if floor < a < 0.5]
        assert pairs, "no residual pairs in the quadratic regime"
        for a, b in pairs:
            assert b <= max(a * a, floor)


@pytest.mark.parametrize("case", ["ss", "clamped"])
def test_strategy_equivalence(case, table1_ss, table1_clamped):
    spec = table1_ss if case == "ss" else table1_clamped
    sol_a = solve_plate(spec, strategy=SJT_ANALYTIC)
    sol_f = solve_plate(spec, strategy=FINITE_DIFFERENCE)
    assert sol_a.report.converged and sol_f.report.converged
    diff = np.abs(sol_a.field.w_stack - sol_f.field.w_stack).max()
    assert diff <= 1e-7 * np.abs(sol_a.field.w_stack).max()
    assert sol_a.report.iterations <= sol_f.report.iterations


# ---------------------------------------------------------------------------
# load sweeping
# ---------------------------------------------------------------------------


def test_single_entry_sweep_matches_standalone(table1_ss):
    pts = load_sweep(table1_ss, [table1_ss.q], tol=1e-9)
    sol = solve_plate(table1_ss, tol=1e-9)
    assert len(pts) == 1
    np.testing.assert_allclose(
        pts[0].center_w_over_h, sol.field.center_deflection_ratio, rtol=1e-12
    )


def test_warm_start_independence(table1_ss):
    """Reaching a load through a sweep agrees with solving it directly."""
    pts = load_sweep(table1_ss, [0.25, 0.5, 1.0], tol=1e-9)
    direct = solve_plate(table1_ss, tol=1e-9)
    assert all(p.converged for p in pts)
    assert (
        abs(pts[-1].center_w_over_h - direct.field.center_deflection_ratio)
        <= 1e-10 * direct.field.center_deflection_ratio
    )


def test_sweep_deflection_increases(table1_clamped):
    pts = load_sweep(table1_clamped, [0.5, 1.0, 2.0, 3.0])
    centers = [p.center_w_over_h for p in pts]
    assert all(b > a for a, b in zip(centers, centers[1:]))


def test_sweep_input_validation(table1_ss):
    with pytest.raises(ValueError):
        load_sweep(table1_ss, [1.0, 0.5])
    with pytest.raises(ValueError):
        load_sweep(table1_ss, [0.0, 1.0])


def test_sweep_failure_marker(table1_ss):
    pts = load_sweep(table1_ss, [0.5, 1.0], tol=1e-14, max_iter=1)
    assert not pts[-1].converged
    assert np.isnan(pts[-1].center_w_over_h)
    assert len(pts) == 1


def test_reference_loads_converge_from_linear_guess(table1_ss, table1_clamped):
    """Every studied load level converges from its own linear start."""
    from dataclasses import replace

    cases = [replace(table1_ss, q=q) for q in (0.25, 0.5, 1.0)]
    cases += [replace(table1_clamped, q=q) for q in (1.0, 2.0, 3.0)]
    ortho = dict(a=9.4, b=7.75, h=0.0624, e1=18.7e6, e2=1.3e6, nu12=0.3,
                 g12=0.6e6, nx=9, ny=9)
    from dqplate.plate_model import PlateSpec

    cases += [PlateSpec(bc="simply_supported", q=q, **ortho)
              for q in (0.1, 1.0, 4.0)]
    cases += [PlateSpec(bc="clamped", q=q, **ortho) for q in (0.2, 1.0, 1.6)]
    for spec in cases:
        sol = solve_plate(spec)
        assert sol.report.converged, f"q={spec.q} {spec.bc}"
        assert sol.report.iterations <= 10


def test_system_must_match_spec(table1_ss):
    """A system built for another load or support is refused, not solved."""
    from dataclasses import replace

    from dqplate.bc_builder import CLAMPED
    from dqplate.plate_model import build_system

    system = build_system(table1_ss)
    for other in (replace(table1_ss, q=3.0), replace(table1_ss, bc=CLAMPED)):
        with pytest.raises(ValueError, match="different spec"):
            solve_plate(other, system=system)
    assert solve_plate(table1_ss, system=system).report.converged


def test_non_finite_start_is_reported(table1_ss):
    """A NaN in the starting point ends the solve with a failure, not an
    exception from the in-plane solve."""
    system = build_system(table1_ss)
    w0 = np.ones(system.n)
    w0[3] = np.nan
    sol = solve_plate(table1_ss, w0=w0, system=system)
    assert not sol.report.converged
    assert sol.report.failure == "non-finite residual at the starting point"


def test_overflowing_step_is_reported(table1_ss):
    """A step so long that every halving's residual overflows is reported
    as a non-finite iterate."""
    system = build_system(table1_ss)
    with np.errstate(over="ignore", invalid="ignore"):
        w, report = newton(
            lambda z: residual(system, z),
            lambda z: 1e-300 * np.eye(system.n),
            np.zeros(system.n),
        )
    assert report.failure == "non-finite iterate"
    assert report.iterations == 1
    np.testing.assert_array_equal(w, np.zeros(system.n))
