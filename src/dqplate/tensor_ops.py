"""Row scaling and Kronecker stacking for the assembled operators.

The nonlinear residuals downstream are built from elementwise (Hadamard)
products of matrix-vector terms.  Their exact Jacobians then come out as
row-scaled copies of the constant matrices, which ``row_scale`` produces at
n^2 cost instead of differencing n residuals.

Vectors of 2-D fields are stacked row-major throughout (``ravel``), so a
derivative acting on the row index enters as kron(M, I) and one acting on
the column index as kron(I, M).
"""

from __future__ import annotations

import numpy as np


def row_scale(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-scaled matrix [v_i * m_ij], i.e. diag(v) @ m, at n^2 cost.

    This is the scaling that appears in Jacobians of elementwise products
    of matrix-vector terms: d/du {f(u) o (M u)} picks up M with row i
    multiplied by the i-th companion factor.
    """
    v = np.asarray(v, dtype=float)
    m = np.asarray(m, dtype=float)
    if v.ndim != 1 or m.ndim != 2 or m.shape[0] != v.size:
        raise ValueError(f"incompatible shapes {v.shape} and {m.shape}")
    return v[:, None] * m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; row-major, (A X B).ravel() = kron(A, B.T) @ X.ravel()."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def unvec(v: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """Row-stacked vector back to a field with nx rows and ny columns."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != nx * ny:
        raise ValueError(f"cannot reshape length-{v.size} vector to {nx}x{ny}")
    return v.reshape(nx, ny)
