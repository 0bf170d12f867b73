"""Newton iteration behavior, strategies, and load sweeping."""

import sys
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

from conftest import count_calls
from dqplate import newton_solver, plate_model
from dqplate.newton_solver import (
    FINITE_DIFFERENCE,
    MAX_HALVINGS,
    SJT_ANALYTIC,
    fd_jacobian,
    load_sweep,
    newton,
    solve_plate,
)
from dqplate.plate_model import SpecError, build_system, residual


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


def test_only_solve_plate_names_the_strategy(table1_ss):
    """``newton`` iterates any residual with any Jacobian, so its report names
    no strategy; ``solve_plate``, which chose one, names it."""
    _, report = newton(lambda x: x * x - 4.0, lambda x: np.diag(2.0 * x), np.array([3.0]))
    assert report.converged and report.jacobian_strategy is None
    for strategy in (SJT_ANALYTIC, FINITE_DIFFERENCE):
        assert solve_plate(table1_ss, strategy=strategy).report.jacobian_strategy == strategy


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


def test_unknown_strategy_rejected(table1_ss):
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        solve_plate(table1_ss, strategy="bogus")


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_non_finite_tol_rejected(tol):
    """A NaN tol would never be met and an infinite one always would."""
    with pytest.raises(SpecError, match="^tol must be finite"):
        newton(lambda x: x, lambda x: np.eye(x.size), np.ones(2), tol=tol)


@pytest.mark.parametrize(
    "options, field",
    [({"strategy": "bogus"}, "jacobian"), ({"tol": -1.0}, "tol"),
     ({"tol": np.nan}, "tol"), ({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
     ({"max_iter": True}, "max_iter")],
    ids=["bogus-strategy", "negative-tol", "nan-tol", "zero-max-iter", "fractional-max-iter",
         "bool-max-iter"],
)
def test_options_refused_before_any_build(table1_ss, monkeypatch, options, field):
    """SolverOptions checks the options of solve_plate and load_sweep before
    either builds a system, and names the refused one."""
    builds = count_calls(monkeypatch, plate_model, "build_system")
    for run in (lambda: solve_plate(table1_ss, **options),
                lambda: load_sweep(table1_ss, [0.5, 1.0], **options)):
        with pytest.raises(SpecError) as err:
            run()
        assert err.value.field == field
    assert builds == []


def test_singular_jacobian_reported():
    w, report = newton(
        lambda x: np.array([1.0]),
        lambda x: np.array([[0.0]]),
        np.array([0.0]),
    )
    assert not report.converged
    assert "singular" in report.failure


def test_rank_deficient_jacobian_reported():
    """An exactly singular J ([[1, 2], [2, 4]], a zero pivot) ends the run
    with a report, as scipy.linalg.solve's LinAlgError did."""
    w, report = newton(
        lambda x: np.ones(2),
        lambda x: np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.zeros(2),
    )
    assert not report.converged
    assert report.failure == "singular Jacobian at iteration 0"


def test_ill_conditioned_jacobian_warns():
    """An rcond below LAPACK's lamch('E') warns, as scipy.linalg.solve does,
    and the message gives rcond itself: 1e-20 for diag(1, 1e-20)."""
    with pytest.warns(LinAlgWarning, match=r"rcond=1e-20\)"):
        newton(
            lambda x: np.ones(2),
            lambda x: np.array([[1.0, 0.0], [0.0, 1e-20]]),
            np.zeros(2),
            max_iter=1,
        )


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
# one evaluation per Newton candidate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", [None, -4.0], ids=["linear-start", "damped"])
def test_one_evaluation_per_newton_candidate(table1_clamped, monkeypatch, start):
    """Over a whole solve, H_k W is formed once per Newton candidate, in that
    candidate's ``evaluate``: the Jacobian reads the accepted candidate's
    evaluation and the returned fields the last iterate's, and neither forms
    it again.  Started from -4 W_lin, a step is halved."""
    system = build_system(table1_clamped)
    w0 = None if start is None else start * plate_model.linear_solve(system)
    candidates = count_calls(monkeypatch, plate_model, "evaluate")
    products = count_calls(monkeypatch, plate_model, "_products")
    jacobians = count_calls(monkeypatch, plate_model, "jacobian")
    sol = solve_plate(table1_clamped, w0=w0, system=system)
    on_w = [args[1] for args, _ in products if args[2] == plate_model.PARITY_W]
    assert sol.report.converged
    assert len(jacobians) == sol.report.iterations
    halvings = len(candidates) - sol.report.iterations - 1
    assert (halvings > 0) == (start is not None)
    assert len(on_w) == len(candidates)
    assert all(z is args[1] for z, (args, _) in zip(on_w, candidates))
    assert on_w[-1] is sol.field.w_stack


@pytest.mark.parametrize("fixture", ["table1_ss", "table1_clamped"])
def test_damped_steps_start_from_the_accepted_candidate(request, monkeypatch, fixture):
    """Started from -4 W_lin, a step is halved.  Every step, the one after
    the halving included, is bitwise the step that ``jacobian`` and
    ``residual`` give at W of the accepted candidate, the best of the step's
    trials."""
    spec = request.getfixturevalue(fixture)
    system = build_system(spec)
    w0 = -4.0 * plate_model.linear_solve(system)
    real_evaluate, real_solve = plate_model.evaluate, plate_model.lu_solve
    trials, steps = [[]], []  # trials[i]: the evaluations that step i starts from

    def evaluate(s, z):
        trials[-1].append(real_evaluate(s, z))
        return trials[-1][-1]

    def lu_solve(a, rhs):
        steps.append(real_solve(a, rhs))
        trials.append([])
        return steps[-1]

    monkeypatch.setattr(plate_model, "evaluate", evaluate)
    monkeypatch.setattr(plate_model, "lu_solve", lu_solve)
    sol = solve_plate(spec, w0=w0, system=system)
    monkeypatch.undo()
    assert sol.report.converged
    assert any(len(tried) > 1 for tried in trials[1:len(steps)])
    for tried, step in zip(trials, steps):
        w = min(tried, key=lambda ev: np.abs(ev.r).max()).w
        expected = plate_model.lu_solve(plate_model.jacobian(system, w), residual(system, w))
        np.testing.assert_array_equal(step, expected)


def test_newton_keeps_the_best_candidates_evaluation():
    """When no halving lowers the residual, newton accepts the best candidate
    tried and hands its evaluation, not the last one made, to the Jacobian
    and back to the caller.  |r| is 1 at 0 and above 2 elsewhere, least at
    -4; the first step, 8, tries -8, -4, -2, ..., -0.125."""
    evaluation = namedtuple("evaluation", "w r")
    for max_iter in (1, 2):
        made, taken = [], []

        def evaluate(w):
            r = 1.0 if w[0] == 0.0 else 2.0 + (w[0] + 4.0) ** 2 / 100.0
            made.append(evaluation(w, np.array([r])))
            return made[-1]

        def jacobian(ev):
            taken.append(ev)
            return np.array([[0.125]])

        x, report = newton(evaluate, jacobian, np.zeros(1), max_iter=max_iter)
        assert made[2].w[0] == -4.0 and report.residual_history[:2] == [1.0, 2.0]
        assert taken[0] is made[0]
        if max_iter == 1:
            assert x is made[2] and len(made) == 1 + 1 + MAX_HALVINGS
        else:
            assert taken[1] is made[2]


def test_fd_oracle_retains_no_evaluation(table1_ss, monkeypatch, rng):
    """The central-difference Jacobian keeps none of its 2n residual
    evaluations: once it returns, only the list here refers to each."""
    system = build_system(table1_ss)
    made, real = [], plate_model.evaluate
    monkeypatch.setattr(plate_model, "evaluate", lambda s, z: made.append(real(s, z)) or made[-1])
    fd_jacobian(lambda z: residual(system, z), rng.standard_normal(system.n))
    assert len(made) == 2 * system.n
    # each held by the list, the loop variable and getrefcount's argument
    assert [sys.getrefcount(ev) for ev in made] == [3] * len(made)


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


def test_sweep_input_validation(table1_ss, monkeypatch):
    with pytest.raises(ValueError):
        load_sweep(table1_ss, [1.0, 0.5])
    with pytest.raises(ValueError, match="at least one load"):
        load_sweep(table1_ss, [])
    with pytest.raises(ValueError, match="q must be finite"):
        load_sweep(table1_ss, [float("nan")])
    # a non-finite load anywhere is refused before the system is built
    builds = count_calls(monkeypatch, plate_model, "build_system")
    solves = count_calls(monkeypatch, newton_solver, "solve_plate")
    for loads in ([0.5, 1.0, float("nan"), 2.0], [1.0, float("inf")], [float("nan")]):
        with pytest.raises(SpecError, match="^q must be finite"):
            load_sweep(table1_ss, loads)
    assert builds == solves == []
    # a one-load ladder takes any finite q, as solve_plate does
    for q in (0.0, -2.0):
        (pt,) = load_sweep(table1_ss, [q])
        sol = solve_plate(replace(table1_ss, q=q))
        assert pt.converged and pt.iterations == sol.report.iterations
        assert pt.center_w_over_h == sol.field.center_deflection_ratio


def test_sweep_on_a_given_system(table1_ss):
    """A ladder on a system the caller built gives the same points as one on
    a system it builds itself, whatever q the system was built at."""
    loads = [0.25, 0.5, 1.0]
    expected = load_sweep(table1_ss, loads)
    for spec in (table1_ss, replace(table1_ss, q=-7.0)):
        assert load_sweep(spec, loads, system=build_system(spec)) == expected


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
    """A system built for another load or support is refused, not solved,
    by a single solve and by a load ladder alike."""
    from dqplate.bc_builder import CLAMPED

    system = build_system(table1_ss)
    for other in (replace(table1_ss, q=3.0), replace(table1_ss, bc=CLAMPED)):
        with pytest.raises(ValueError, match="different spec"):
            solve_plate(other, system=system)
        with pytest.raises(ValueError, match="different spec"):
            load_sweep(other, [1.0, 2.0], system=system)
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
