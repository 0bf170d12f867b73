"""Boundary-condition reductions and the auxiliary-point grid."""

import numpy as np
import pytest

from dqplate import dq_core
from dqplate.bc_builder import (
    CLAMPED,
    SIMPLY_SUPPORTED,
    SingularEliminationError,
    build_clamped,
    build_operators,
    build_ss,
    delta_grid,
)
from dqplate.dq_core import CHEBYSHEV, UNIFORM, DiffMatrices, diff_matrices, make_grid


def bc_satisfying_clamped_poly():
    """x^2 (1-x)^2 times an arbitrary cubic: degree 7, clamped at both ends."""
    base = np.polynomial.Polynomial([0, 0, 1]) * np.polynomial.Polynomial([1, -2, 1])
    return base * np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.0])


def bc_satisfying_ss_quartic():
    """x (1-x) (1 + x - x^2): zero value and curvature at both ends."""
    return (
        np.polynomial.Polynomial([0, 1])
        * np.polynomial.Polynomial([1, -1])
        * np.polynomial.Polynomial([1, 1, -1])
    )


# ---------------------------------------------------------------------------
# simply supported (value + curvature) reduction
# ---------------------------------------------------------------------------


def test_ss_sizes_and_blocks():
    dm = diff_matrices(make_grid(9, CHEBYSHEV))
    ops = build_ss(dm)
    assert ops.n_interior == 7
    np.testing.assert_array_equal(ops.first, dm.first[1:-1, 1:-1])
    np.testing.assert_array_equal(ops.second, dm.second[1:-1, 1:-1])


def test_ss_fourth_is_definitional_square():
    ops = build_ss(diff_matrices(make_grid(9, CHEBYSHEV)))
    np.testing.assert_array_equal(ops.fourth, ops.second @ ops.second)


def test_ss_recovery_rows_zero_at_boundaries(rng):
    ops = build_ss(diff_matrices(make_grid(9, CHEBYSHEV)))
    v = rng.standard_normal(ops.n_interior)
    full = ops.recovery @ v
    assert full[0] == 0.0 and full[-1] == 0.0
    np.testing.assert_array_equal(full[1:-1], v)


def test_ss_sine_fourth_derivative():
    g = make_grid(9, CHEBYSHEV)
    ops = build_ss(diff_matrices(g))
    x = g.nodes
    approx = ops.fourth @ np.sin(np.pi * x[1:-1])
    exact = np.pi**4 * np.sin(np.pi * x[1:-1])
    assert np.abs(approx - exact).max() / np.abs(exact).max() < 1e-3


def test_ss_exact_on_bc_satisfying_quartic():
    g = make_grid(9, CHEBYSHEV)
    ops = build_ss(diff_matrices(g))
    p = bc_satisfying_ss_quartic()
    approx = ops.fourth @ p(g.nodes[1:-1])
    np.testing.assert_allclose(approx, p.deriv(4)(0.0), rtol=1e-9)


def test_ss_requires_four_points():
    with pytest.raises(ValueError):
        build_ss(diff_matrices(dq_core.Grid1D(np.array([0.0, 0.5, 1.0]), UNIFORM)))


# ---------------------------------------------------------------------------
# clamped (value + slope) reduction
# ---------------------------------------------------------------------------


def test_clamped_n5_elimination_weights():
    ops = build_clamped(diff_matrices(make_grid(5, UNIFORM)))
    assert ops.n_interior == 1
    np.testing.assert_allclose(ops.recovery[1, 0], 0.5625, rtol=1e-13)
    np.testing.assert_allclose(ops.recovery[3, 0], 0.5625, rtol=1e-13)


def test_clamped_n5_reduced_operators():
    ops = build_clamped(diff_matrices(make_grid(5, UNIFORM)))
    np.testing.assert_allclose(ops.fourth, [[384.0]], rtol=1e-12)
    np.testing.assert_allclose(ops.second, [[-16.0]], rtol=1e-12)


@pytest.mark.parametrize("kind", [UNIFORM, CHEBYSHEV])
@pytest.mark.parametrize("n", [5, 7, 9, 13])
def test_clamped_recovery_satisfies_all_conditions(n, kind, rng):
    dm = diff_matrices(make_grid(n, kind))
    ops = build_clamped(dm)
    v = rng.standard_normal(ops.n_interior)
    full = ops.recovery @ v
    scale = max(np.abs(full).max(), 1.0) * np.abs(dm.first).max()
    assert full[0] == 0.0 and full[-1] == 0.0
    assert abs(dm.first[0] @ full) <= 1e-10 * scale
    assert abs(dm.first[-1] @ full) <= 1e-10 * scale


@pytest.mark.parametrize("n", [7, 9, 11])
def test_clamped_operators_are_recovered_rows(n):
    dm = diff_matrices(make_grid(n, CHEBYSHEV))
    ops = build_clamped(dm)
    rows = slice(2, n - 2)
    for full, reduced in (
        (dm.first, ops.first),
        (dm.second, ops.second),
        (dm.fourth, ops.fourth),
    ):
        recon = (full @ ops.recovery)[rows]
        assert np.abs(recon - reduced).max() <= 1e-10 * max(np.abs(reduced).max(), 1.0)


def test_clamped_exact_on_bc_satisfying_polynomial():
    g = make_grid(9, CHEBYSHEV)
    ops = build_clamped(diff_matrices(g))
    p = bc_satisfying_clamped_poly()
    xi = g.nodes[2:-2]
    approx = ops.fourth @ p(xi)
    exact = p.deriv(4)(xi)
    assert np.abs(approx - exact).max() <= 1e-8 * np.abs(exact).max()


def test_clamped_requires_five_points():
    with pytest.raises(ValueError):
        build_clamped(diff_matrices(make_grid(4, UNIFORM)))


def test_clamped_singular_elimination_detected():
    dm = diff_matrices(make_grid(7, UNIFORM))
    bad_first = dm.first.copy()
    # zero the slope-row couplings to the eliminated nodes
    bad_first[0, 1] = bad_first[0, 5] = 0.0
    bad_first[6, 1] = bad_first[6, 5] = 0.0
    doctored = DiffMatrices(bad_first, dm.second, dm.third, dm.fourth, dm.grid)
    with pytest.raises(SingularEliminationError):
        build_clamped(doctored)


def test_build_operators_dispatch():
    dm = diff_matrices(make_grid(7, CHEBYSHEV))
    assert build_operators(dm, SIMPLY_SUPPORTED).bc_kind == SIMPLY_SUPPORTED
    assert build_operators(dm, CLAMPED).bc_kind == CLAMPED
    with pytest.raises(ValueError):
        build_operators(dm, "free")


# ---------------------------------------------------------------------------
# auxiliary-point (delta) grid; the rows it carries are fixed: values at
# nodes 0 and N-1, derivative conditions at the auxiliary nodes 1 and N-2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 13, 31])
@pytest.mark.parametrize("kind", [CHEBYSHEV, UNIFORM])
@pytest.mark.parametrize("bc", [SIMPLY_SUPPORTED, CLAMPED])
def test_reduced_factors_mirror_parity(bc, kind, n):
    """Both grids are symmetric about 1/2, so with R the node reversal every
    reduced factor satisfies R X R = (-1)^order X and the recovery map is
    even.  A parity fold onto half the nodes rests on this."""
    ops = build_operators(diff_matrices(make_grid(n, kind)), bc)
    tol = 1e-12 if kind == CHEBYSHEV else 1e-9  # worst N = 31: 7.3e-14, 2.0e-10
    for x, order in ((ops.first, 1), (ops.second, 2), (ops.fourth, 4), (ops.recovery, 0)):
        mirrored = x[::-1, ::-1] - (-1) ** order * x
        assert np.abs(mirrored).max() <= tol * np.abs(x).max()


def test_delta_plan_moves_near_boundary_nodes():
    g = make_grid(11, UNIFORM)
    moved = delta_grid(g, 1e-5)
    assert moved.nodes[1] == 1e-5
    assert moved.nodes[-2] == 1.0 - 1e-5
    np.testing.assert_array_equal(moved.nodes[[0, -1]], [0.0, 1.0])
    np.testing.assert_array_equal(moved.nodes[2:-2], g.nodes[2:-2])
    assert g.nodes[1] == 0.1  # the input grid is left as it was


def delta_beam(n, kind, order):
    """Unit-load beam, fourth derivative 1, on the delta grid: value rows at
    the ends, derivative rows of the given order at the auxiliary nodes."""
    moved = delta_grid(make_grid(n, kind), 1e-5)
    dm = diff_matrices(moved)
    op = dm.fourth.copy()
    rhs = np.ones(n)
    op[[0, -1]] = np.eye(n)[[0, -1]]
    op[[1, -2]] = (dm.first if order == 1 else dm.second)[[1, -2]]
    rhs[[0, 1, -2, -1]] = 0.0
    return moved.nodes, np.linalg.solve(op, rhs)


def test_delta_plan_ss_uses_curvature_rows():
    """Simply supported line, curvature rows: exact x (1 - 2x^2 + x^3) / 24."""
    x, w = delta_beam(9, CHEBYSHEV, 2)
    exact = x * (1 - 2 * x**2 + x**3) / 24.0
    assert abs(w[4] - exact[4]) / exact[4] < 1e-4


def test_delta_plan_rejects_bad_distance():
    g = make_grid(11, UNIFORM)
    with pytest.raises(ValueError):
        delta_grid(g, 0.0)
    with pytest.raises(ValueError):
        delta_grid(g, g.nodes[1])
    with pytest.raises(ValueError):
        delta_grid(g, -1e-6)


def test_delta_plan_clamped_beam():
    """Constant-load clamped line: exact solution x^2 (1-x)^2 / 24."""
    x, w = delta_beam(11, UNIFORM, 1)
    exact = x**2 * (1 - x) ** 2 / 24.0
    center = 5
    assert abs(w[center] - exact[center]) / exact[center] < 1e-4
