"""Grid generation and weighting-matrix properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqplate import dq_core
from dqplate.dq_core import (
    CHEBYSHEV,
    UNIFORM,
    DegenerateGridError,
    Grid1D,
    chebyshev_roots,
    diff_matrices,
    make_grid,
)

ALL_KINDS = [UNIFORM, CHEBYSHEV]


def exact_monomial_derivative(x, k, order):
    coef = 1.0
    for j in range(order):
        coef *= k - j
    if k < order:
        return np.zeros_like(x)
    return coef * x ** (k - order)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_uniform_nodes_n5():
    g = make_grid(5, UNIFORM)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_chebyshev_nodes_n3_symmetric():
    g = make_grid(3, CHEBYSHEV)
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0], atol=1e-15)


def test_chebyshev_single_root_is_zero():
    np.testing.assert_allclose(chebyshev_roots(1), [0.0], atol=1e-15)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(1, UNIFORM)
    with pytest.raises(ValueError):
        make_grid(dq_core.MAX_POINTS + 1, CHEBYSHEV)
    with pytest.raises(ValueError):
        make_grid(7, "legendre")


def test_degenerate_grid_rejected():
    nodes = np.array([0.0, 0.3, 0.3 + 1e-13, 1.0])
    with pytest.raises(DegenerateGridError):
        Grid1D(nodes, UNIFORM)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=dq_core.MAX_POINTS),
    kind=st.sampled_from(ALL_KINDS),
)
def test_grid_invariants(n, kind):
    g = make_grid(n, kind)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 1e-12)


# ---------------------------------------------------------------------------
# first-derivative matrix
# ---------------------------------------------------------------------------


def test_first_derivative_n2():
    g = Grid1D(np.array([0.0, 1.0]), UNIFORM)
    np.testing.assert_allclose(diff_matrices(g).first, [[-1.0, 1.0], [-1.0, 1.0]])


def test_first_derivative_n3_uniform_stencil():
    a = diff_matrices(make_grid(3, UNIFORM)).first
    np.testing.assert_allclose(a, [[-3, 4, -1], [-1, 0, 1], [1, -4, 3]], atol=1e-12)


def test_first_derivative_n5_endpoint_stencil():
    a = diff_matrices(make_grid(5, UNIFORM)).first
    np.testing.assert_allclose(
        a[0], [-25.0 / 3.0, 16.0, -12.0, 16.0 / 3.0, -1.0], rtol=1e-13
    )


def test_second_derivative_n3_uniform_rows():
    dm = diff_matrices(make_grid(3, UNIFORM))
    np.testing.assert_allclose(dm.second, np.tile([4.0, -8.0, 4.0], (3, 1)), atol=1e-12)


def test_fourth_derivative_n5_uniform_rows():
    dm = diff_matrices(make_grid(5, UNIFORM))
    expected = np.tile([256.0, -1024.0, 1536.0, -1024.0, 256.0], (5, 1))
    np.testing.assert_allclose(dm.fourth, expected, rtol=1e-11)


# ---------------------------------------------------------------------------
# invariants over sizes and kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(5, 16))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_row_sums_vanish(n, kind):
    dm = diff_matrices(make_grid(n, kind))
    for m in (dm.first, dm.second, dm.third, dm.fourth):
        assert np.abs(m.sum(axis=1)).max() <= 1e-9 * np.abs(m).max()


@pytest.mark.parametrize("n", range(5, 16))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_polynomial_exactness(n, kind):
    """Exact on every monomial of degree < N.

    The raw comparison against derivative samples is meaningful only while
    the weights stay moderate; for larger N the weight magnitudes grow and
    rounding in the matrix-vector product dominates, so the error is also
    checked against the applied-operator scale |M| |f|.
    """
    g = make_grid(n, kind)
    dm = diff_matrices(g)
    x = g.nodes
    for order, m in ((1, dm.first), (2, dm.second), (3, dm.third), (4, dm.fourth)):
        absm = np.abs(m)
        for k in range(n):
            f = x**k
            exact = exact_monomial_derivative(x, k, order)
            err = np.abs(m @ f - exact).max()
            op_scale = (absm @ np.abs(f)).max()
            assert err <= 1e-12 * max(op_scale, 1.0)
            if n <= 9:
                assert err <= 1e-9 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("n", range(5, 16))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_numerical_rank_drops_by_order(n, kind):
    dm = diff_matrices(make_grid(n, kind))
    for order, m in ((1, dm.first), (2, dm.second), (3, dm.third), (4, dm.fourth)):
        s = np.linalg.svd(m, compute_uv=False)
        assert int((s > 1e-8 * s[0]).sum()) == n - order


@pytest.mark.parametrize("n", range(5, 16))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_recursion_matches_matrix_powers(n, kind):
    dm = diff_matrices(make_grid(n, kind))
    a = dm.first
    for power, m in ((2, dm.second), (3, dm.third), (4, dm.fourth)):
        ref = np.linalg.matrix_power(a, power)
        assert np.abs(m - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("n", range(5, 14))
def test_uniform_first_derivative_antisymmetric_under_reversal(n):
    a = diff_matrices(make_grid(n, UNIFORM)).first
    np.testing.assert_allclose(a, -a[::-1, ::-1], atol=1e-10 * np.abs(a).max())


# ---------------------------------------------------------------------------
# Chebyshev closed form as an independent oracle for the Lagrange weights
# ---------------------------------------------------------------------------


def chebyshev_closed_form(n):
    """First-derivative weights on the n-point mapped Chebyshev-root grid.

    With roots r_i the Lagrange products collapse to
    a_ij = (-1)^(i-j) (r_n - r_1) / (r_i - r_j) * sqrt((1-r_j^2)/(1-r_i^2))
    for i != j; the diagonal is the negative row sum.
    """
    r = chebyshev_roots(n)
    dr = r[:, None] - r[None, :]
    np.fill_diagonal(dr, 1.0)
    i = np.arange(n)
    sign = np.where((i[:, None] - i[None, :]) % 2 == 0, 1.0, -1.0)
    s = np.sqrt(1.0 - r**2)
    a = sign * (r[-1] - r[0]) / dr * (s[None, :] / s[:, None])
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


@pytest.mark.parametrize("n", range(3, 22))
def test_fast_weights_match_lagrange_form(n):
    fast = chebyshev_closed_form(n)
    generic = diff_matrices(make_grid(n, CHEBYSHEV)).first
    assert np.abs(fast - generic).max() <= 1e-10 * np.abs(generic).max()
