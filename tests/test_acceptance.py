"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass/fail line per criterion alongside the pytest verdicts.
"""

import contextlib
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

from dqplate import bc_builder, dq_core, linear_bending, plate_model as pm
from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.dq_core import CHEBYSHEV, UNIFORM
from dqplate.newton_solver import (
    FINITE_DIFFERENCE,
    SJT_ANALYTIC,
    fd_jacobian,
    load_sweep,
    solve_plate,
)
from dqplate.plate_model import PlateSpec

TABLE1_SS = PlateSpec.isotropic(
    a=100.0, h=1.0, e=2.1e6, nu=0.25, q=1.0, nx=7, ny=7, bc=SIMPLY_SUPPORTED
)
TABLE1_CLAMPED = PlateSpec.isotropic(
    a=100.0, h=1.0, e=2.1e6, nu=0.316, q=3.0, nx=9, ny=9, bc=CLAMPED
)
FIG2_PLATE = PlateSpec.isotropic(
    a=16.0, h=0.1, e=30e6, nu=0.316, q=0.4, nx=5, ny=5, bc=SIMPLY_SUPPORTED
)
ORTHO = PlateSpec(
    a=9.4, b=7.75, h=0.0624, e1=18.7e6, e2=1.3e6, nu12=0.3, g12=0.6e6,
    bc=SIMPLY_SUPPORTED, q=1.0, nx=7, ny=7,
)

FIG2_LOADS = [0.4, 0.8, 1.2, 1.6, 2.0]
ORTHO_SS_LOADS = [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
ORTHO_CLAMPED_LOADS = [0.2, 0.4, 0.7, 1.0, 1.3, 1.6]


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    print(f"criterion {number:2d} [{description}]: PASS")


@pytest.fixture(scope="module")
def ss_solution():
    start = perf_counter()
    sol = solve_plate(TABLE1_SS)
    return sol, perf_counter() - start


@pytest.fixture(scope="module")
def clamped_solution():
    return solve_plate(TABLE1_CLAMPED)


def test_criterion_1_table1_simply_supported(ss_solution):
    sol, wall = ss_solution
    with criterion(1, "Table 1 simply supported center deflection"):
        assert sol.report.converged
        center = sol.field.center_deflection_ratio
        assert abs(center - 0.944) / 0.944 <= 0.02
        assert abs(center - 0.940) / 0.940 <= 0.03
        assert wall < 5.0


def test_criterion_2_table1_clamped(clamped_solution):
    sol = clamped_solution
    with criterion(2, "Table 1 clamped center deflection"):
        assert sol.report.converged
        center = sol.field.center_deflection_ratio
        assert abs(center - 1.123) / 1.123 <= 0.02
        assert abs(center - 1.151) / 1.151 <= 0.05


def test_criterion_3_newton_behavior(ss_solution, clamped_solution):
    with criterion(3, "Newton from linear guess: <= 10 iterations to 1e-5"):
        for sol in (ss_solution[0], clamped_solution):
            assert sol.report.converged
            assert sol.report.iterations <= 10
            assert sol.report.final_residual <= 1e-5


def test_criterion_4_jacobian_exactness():
    with criterion(4, "analytic Jacobian vs central differences < 1e-6"):
        rng = np.random.default_rng(7)
        for spec in (TABLE1_SS, TABLE1_CLAMPED):
            sys = pm.build_system(spec)
            for _ in range(5):
                w = rng.standard_normal(sys.n)
                ja = pm.jacobian(sys, w)
                jf = fd_jacobian(lambda z: pm.residual(sys, z), w)
                assert np.abs(ja - jf).max() <= 1e-6 * np.abs(ja).max()


def test_criterion_5_linear_limit_vs_series():
    with criterion(5, "linear limit matches classical series within 1%"):
        for spec in (TABLE1_SS, TABLE1_CLAMPED):
            fine = replace(spec, nx=11, ny=11)
            center = linear_bending.linear_center_builtin(fine)
            reference = linear_bending.linear_reference_center(fine)
            assert abs(center - reference) / reference <= 0.01


def test_criterion_6_decoupling_equivalence():
    with criterion(6, "decoupled solution satisfies the coupled system"):
        for spec in (TABLE1_SS, TABLE1_CLAMPED):
            sol = solve_plate(spec, tol=1e-9)
            assert sol.report.converged
            w = sol.field.w_stack
            u, v = pm.recover_inplane(sol.system, w)
            r1, r2, r3 = pm.coupled_residual(sol.system, w, u, v)
            worst = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
            assert worst < 1e-8


def test_criterion_7_chebyshev_grid_quality():
    with criterion(7, "Chebyshev 5x5 error <= uniform 7x7 error"):
        cheb5 = load_sweep(FIG2_PLATE, FIG2_LOADS)
        uni7 = load_sweep(
            replace(FIG2_PLATE, nx=7, ny=7, grid_kind=UNIFORM), FIG2_LOADS
        )
        ref = load_sweep(replace(FIG2_PLATE, nx=13, ny=13), FIG2_LOADS)
        assert all(p.converged for p in cheb5 + uni7 + ref)
        for p5, p7, pr in zip(cheb5, uni7, ref):
            err5 = abs(p5.center_w_over_h - pr.center_w_over_h)
            err7 = abs(p7.center_w_over_h - pr.center_w_over_h)
            assert err5 <= err7


def _assert_hardening(points):
    centers = [p.center_w_over_h for p in points]
    loads = [p.q for p in points]
    assert all(b > a for a, b in zip(centers, centers[1:]))
    slopes = [
        (centers[i + 1] - centers[i]) / (loads[i + 1] - loads[i])
        for i in range(len(centers) - 1)
    ]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_criterion_8_orthotropic_cases():
    with criterion(8, "orthotropic sweeps: hardening and grid consistency"):
        ss7 = load_sweep(ORTHO, ORTHO_SS_LOADS)
        ss9 = load_sweep(replace(ORTHO, nx=9, ny=9), ORTHO_SS_LOADS)
        assert all(p.converged for p in ss7 + ss9)
        _assert_hardening(ss9)
        for p7, p9 in zip(ss7, ss9):
            assert (
                abs(p7.center_w_over_h - p9.center_w_over_h)
                <= 0.05 * p9.center_w_over_h
            )

        clamped = replace(ORTHO, bc=CLAMPED)
        cl9 = load_sweep(replace(clamped, nx=9, ny=9), ORTHO_CLAMPED_LOADS)
        cl15 = load_sweep(replace(clamped, nx=15, ny=15), ORTHO_CLAMPED_LOADS)
        assert all(p.converged for p in cl9 + cl15)
        _assert_hardening(cl9)
        for p9, p15 in zip(cl9, cl15):
            assert (
                abs(p9.center_w_over_h - p15.center_w_over_h)
                <= 0.02 * p15.center_w_over_h
            )


def test_criterion_9_jacobian_assembly_speed():
    with criterion(9, "analytic Jacobian >= 2x faster than differencing"):
        spec = replace(TABLE1_CLAMPED, nx=13, ny=13)
        sys = pm.build_system(spec)
        w = solve_plate(spec, system=sys).field.w_stack

        def min_time(fn, repeats=5):
            best = np.inf
            for _ in range(repeats):
                t0 = perf_counter()
                fn()
                best = min(best, perf_counter() - t0)
            return best

        t_analytic = min_time(lambda: pm.jacobian(sys, w))
        t_diff = min_time(
            lambda: fd_jacobian(lambda z: pm.residual(sys, z), w)
        )
        assert t_analytic * 2.0 <= t_diff

        t0 = perf_counter()
        sol_a = solve_plate(spec, system=sys, strategy=SJT_ANALYTIC)
        t_solve_a = perf_counter() - t0
        t0 = perf_counter()
        sol_f = solve_plate(spec, system=sys, strategy=FINITE_DIFFERENCE)
        t_solve_f = perf_counter() - t0
        assert sol_a.report.converged and sol_f.report.converged
        assert t_solve_a <= t_solve_f
        diff = np.abs(sol_a.field.w_stack - sol_f.field.w_stack).max()
        assert diff <= 1e-7 * np.abs(sol_a.field.w_stack).max()


def test_criterion_10_math_core_property_suites():
    with criterion(10, "weighting, product and boundary property suites"):
        # differentiation matrices: exactness, rank, row sums
        for kind in (UNIFORM, CHEBYSHEV):
            for n in (5, 9, 13):
                g = dq_core.make_grid(n, kind)
                dm = dq_core.diff_matrices(g)
                x = g.nodes
                for order, m in (
                    (1, dm.first), (2, dm.second), (3, dm.third), (4, dm.fourth),
                ):
                    assert np.abs(m.sum(axis=1)).max() <= 1e-9 * np.abs(m).max()
                    s = np.linalg.svd(m, compute_uv=False)
                    assert int((s > 1e-8 * s[0]).sum()) == n - order
                    absm = np.abs(m)
                    for k in range(n):
                        f = x**k
                        coef = 1.0
                        for j in range(order):
                            coef *= k - j
                        exact = (
                            coef * x ** (k - order) if k >= order else np.zeros_like(x)
                        )
                        err = np.abs(m @ f - exact).max()
                        assert err <= 1e-12 * max((absm @ np.abs(f)).max(), 1.0)

        # row scaling, the product-rule Jacobian and stacking identities
        rng = np.random.default_rng(11)
        from numpy import kron

        from conftest import row_scale

        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(row_scale(v, a), np.diag(v) @ a, rtol=1e-14)
        u = rng.standard_normal(4)
        jac = row_scale(b @ u, a) + row_scale(a @ u, b)
        step = 1e-6
        fd = np.column_stack([
            ((a @ (u + step * e)) * (b @ (u + step * e))
             - (a @ (u - step * e)) * (b @ (u - step * e))) / (2 * step)
            for e in np.eye(4)
        ])
        assert np.abs(jac - fd).max() <= 1e-7 * max(np.abs(jac).max(), 1.0)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            (a[:3, :3] @ x @ b[:3, :3]).ravel(),
            kron(a[:3, :3], b[:3, :3].T) @ x.ravel(),
            rtol=1e-12,
        )
        y = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(y.ravel().reshape(3, 5), y)

        # boundary reductions: condition satisfaction and pinned values
        ops5 = bc_builder.build_clamped(
            dq_core.diff_matrices(dq_core.make_grid(5, UNIFORM))
        )
        np.testing.assert_allclose(ops5.recovery[1, 0], 0.5625, rtol=1e-13)
        np.testing.assert_allclose(ops5.fourth, [[384.0]], rtol=1e-12)
        dm9 = dq_core.diff_matrices(dq_core.make_grid(9, CHEBYSHEV))
        for build in (bc_builder.build_ss, bc_builder.build_clamped):
            ops = build(dm9)
            vec_in = rng.standard_normal(ops.n_interior)
            full = ops.recovery @ vec_in
            assert full[0] == 0.0 and full[-1] == 0.0
            if ops.bc_kind == CLAMPED:
                scale = np.abs(dm9.first).max() * max(np.abs(full).max(), 1.0)
                assert abs(dm9.first[0] @ full) <= 1e-10 * scale
                assert abs(dm9.first[-1] @ full) <= 1e-10 * scale
