"""Row scaling (the SJT product), the Jacobian rules built from it, Kronecker
stacking of row-major fields and the Kronecker kernel of the assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import row_scale
from dqplate.plate_model import kron

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def squares(n):
    return hnp.arrays(np.float64, (n, n), elements=finite)


def vectors(n):
    return hnp.arrays(np.float64, (n,), elements=finite)


def matrices(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=finite)


def central_fd(expr, u, step=1e-6):
    """Independent brute-force Jacobian of expr at u."""
    n = u.size
    cols = []
    for j in range(n):
        d = step * max(1.0, abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += d
        um[j] -= d
        cols.append((expr(up) - expr(um)) / (2 * d))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# row scaling: the Hadamard product (v 1^T) o M of a matrix with a column
# vector repeated across it, which is how every elementwise product enters
# the Jacobian
# ---------------------------------------------------------------------------


def test_hadamard_example():
    out = row_scale(np.array([10.0, 100.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out, [[10.0, 20.0], [300.0, 400.0]])


def test_hadamard_shape_mismatch():
    with pytest.raises(ValueError):
        row_scale(np.ones(4), np.ones((3, 3)))
    with pytest.raises(ValueError):
        row_scale(np.ones((3, 1)), np.ones((3, 3)))


@settings(max_examples=40, deadline=None)
@given(a=squares(4), b=squares(4), u=vectors(4), v=vectors(4), k=finite)
def test_hadamard_algebra(a, b, u, v, k):
    tol = {"rtol": 1e-12, "atol": 1e-12}
    np.testing.assert_allclose(
        row_scale(u, row_scale(v, a)), row_scale(u * v, a), **tol
    )
    np.testing.assert_allclose(
        row_scale(u, row_scale(v, a)),
        row_scale(v, row_scale(u, a)),
        **tol,
    )
    np.testing.assert_allclose(
        row_scale(u + v, a), row_scale(u, a) + row_scale(v, a), **tol
    )
    np.testing.assert_allclose(
        row_scale(v, a + b), row_scale(v, a) + row_scale(v, b), **tol
    )
    np.testing.assert_allclose(k * row_scale(v, a), row_scale(k * v, a), **tol)


def test_hadamard_with_ones_is_identity(rng):
    a = rng.standard_normal((3, 5))
    np.testing.assert_array_equal(row_scale(np.ones(3), a), a)


def test_row_scale_equals_diagonal_product(rng):
    a = rng.standard_normal((4, 4))
    v = rng.standard_normal(4)
    np.testing.assert_allclose(row_scale(v, a), np.diag(v) @ a, rtol=1e-14)


# ---------------------------------------------------------------------------
# Jacobian rules, against brute-force differencing, in the row_scale form of
# the full-grid oracle; plate_model.jacobian takes the same row scalings
# from its coefficient table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [9, 25])
def test_scale_rule_matches_fd(n, rng):
    """d/du {c o (M u)} = row_scale(c, M), e.g. strain_x o (H5 W)."""
    m = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    u = rng.standard_normal(n)
    jac = row_scale(c, m)
    ref = central_fd(lambda z: c * (m @ z), u)
    assert np.abs(jac - ref).max() <= 1e-7 * max(np.abs(jac).max(), 1.0)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_power_rule_matches_fd(q, rng):
    """d/du (M u)^q = row_scale(q (M u)^(q-1), M); q = 2 is 0.5 (H7 W)^2."""
    n = 9
    m = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    jac = row_scale(q * (m @ u) ** (q - 1.0), m)
    ref = central_fd(lambda z: (m @ z) ** q, u)
    assert np.abs(jac - ref).max() <= 1e-7 * max(np.abs(jac).max(), 1.0)


def product_jacobian(m1, m2, u):
    """Jacobian of (M1 u) o (M2 u) as two row_scale terms, as in dl1 and t3."""
    return row_scale(m2 @ u, m1) + row_scale(m1 @ u, m2)


def test_product_rule_matches_fd(rng):
    n = 9
    m1 = rng.standard_normal((n, n))
    m2 = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    jac = product_jacobian(m1, m2, u)
    ref = central_fd(lambda z: (m1 @ z) * (m2 @ z), u)
    assert np.abs(jac - ref).max() <= 1e-7 * max(np.abs(jac).max(), 1.0)


def test_product_rule_degenerates_to_power_rule(rng):
    n = 6
    m = rng.standard_normal((n, n))
    u = rng.standard_normal(n)
    np.testing.assert_allclose(
        product_jacobian(m, m, u), row_scale(2.0 * (m @ u), m), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# Kronecker products and row-major stacking (vec = ravel, unvec = reshape)
# ---------------------------------------------------------------------------


def test_vec_stacks_rows():
    np.testing.assert_array_equal(
        np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2), [[1.0, 2.0], [3.0, 4.0]]
    )


def test_kron_identity_block_structure():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = np.kron(np.eye(2), b)
    np.testing.assert_array_equal(out[:2, :2], b)
    np.testing.assert_array_equal(out[2:, 2:], b)
    np.testing.assert_array_equal(out[:2, 2:], np.zeros((2, 2)))


any_double = st.floats(allow_nan=False, width=64)
shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), sa=shapes, sb=shapes)
def test_kron_kernel_is_numpy_kron_bitwise(data, sa, sb):
    """plate_model.kron is np.kron bit for bit, signed zeros, overflow and
    underflow included, on any 2-D shapes: 1 x k rows and zero-size factors
    (clamped 5 x 9 has no live U unknown) among them."""
    a = data.draw(hnp.arrays(np.float64, sa, elements=any_double))
    b = data.draw(hnp.arrays(np.float64, sb, elements=any_double))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got, want = kron(a, b), np.kron(a, b)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(x=matrices(3, 4))
def test_vec_unvec_round_trip(x):
    np.testing.assert_array_equal(x.ravel().reshape(3, 4), x)


def test_vec_of_triple_product(rng):
    a, x, b = (rng.standard_normal((3, 3)) for _ in range(3))
    lhs = (a @ x @ b).ravel()
    rhs = np.kron(a, b.T) @ x.ravel()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_one_sided_product_identities(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((5, 5))
    x = rng.standard_normal((4, 5))
    np.testing.assert_allclose(
        (a @ x).ravel(), np.kron(a, np.eye(5)) @ x.ravel(), rtol=1e-12
    )
    np.testing.assert_allclose(
        (x @ b).ravel(), np.kron(np.eye(4), b.T) @ x.ravel(), rtol=1e-12
    )
    np.testing.assert_allclose(
        (a @ x + x @ b).ravel(),
        (np.kron(a, np.eye(5)) + np.kron(np.eye(4), b.T)) @ x.ravel(),
        rtol=1e-12,
    )

