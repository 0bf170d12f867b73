"""The plate system on every interior node, dense, as the oracle of the
quarter solve.

The production path folds each 1-D factor onto the symmetric quarter.  Here
nothing is folded: H1..H8 are the dense Kronecker sums of the full reduced
factors (``conftest.dense_operator``), the in-plane fields come from a
dense solve of the whole block, and the Jacobian is written term by term
with row scalings, as the equations read.  ``mirror`` and ``restrict``
move fields between the two: a quarter field of parity (px, py) is
P z = kron(P_px, P_py) z on the full interior, and a full-grid result
restricted to the quarter is S r.
"""

from __future__ import annotations

import numpy as np

from conftest import dense_operator, row_scale
from dqplate import plate_model as pm


def mirror(sys, parity) -> np.ndarray:
    """P: full-interior values of a quarter field of the given parity."""
    px, py = parity
    return np.kron(
        pm.mirror_maps(sys.bcx.n_interior)[px], pm.mirror_maps(sys.bcy.n_interior)[py]
    )


def restrict(sys) -> np.ndarray:
    """S: the quarter's rows of a full-interior vector."""
    nx, ny = sys.quarter_shape
    return np.kron(np.eye(sys.bcx.n_interior)[:nx], np.eye(sys.bcy.n_interior)[:ny])


class FullGrid:
    """Dense full-grid operators of an assembled system, H[1]..H[8]."""

    def __init__(self, sys):
        self.sys = sys
        self.h = [None] + [dense_operator(sys, k) for k in range(1, 9)]
        self.n = len(self.h[1])
        self.load = sys.load[0] * np.ones(self.n)

    def forcing(self, w):
        h = self.h
        l1 = (h[7] @ w) * (h[1] @ w) + (h[8] @ w) * (h[2] @ w)
        l2 = (h[8] @ w) * (h[3] @ w) + (h[7] @ w) * (h[2] @ w)
        return l1, l2

    def block(self):
        h = self.h
        return np.block([[h[1], h[2]], [h[2], h[3]]])

    def inplane(self, w):
        uv = np.linalg.solve(self.block(), -np.concatenate(self.forcing(w)))
        return uv[: self.n], uv[self.n :]

    def _strains(self, w, u, v):
        h = self.h
        h7w, h8w = h[7] @ w, h[8] @ w
        return (
            (self.sys.beta_x, 5, h[7] @ u + 0.5 * h7w**2),
            (self.sys.beta_y, 6, h[8] @ v + 0.5 * h8w**2),
            (self.sys.gamma, 2, h[8] @ u + h[7] @ v + h7w * h8w),
        )

    def transverse(self, w, u, v):
        h = self.h
        terms = sum(c * (h[k] @ w) * e for c, k, e in self._strains(w, u, v))
        return h[4] @ w - self.sys.alpha * terms - self.load

    def residual(self, w):
        return self.transverse(w, *self.inplane(w))

    def coupled_residual(self, w, u, v):
        h = self.h
        l1, l2 = self.forcing(w)
        return (
            h[1] @ u + h[2] @ v + l1,
            h[2] @ u + h[3] @ v + l2,
            self.transverse(w, u, v),
        )

    def jacobian(self, w):
        """dr/dW = H4 - alpha sum_k c_k [diag(e_k) S_k + diag(S_k W) de_k/dW],
        with [dU/dW; dV/dW] = -B^-1 [dl1/dW; dl2/dW]."""
        h, n = self.h, self.n
        u, v = self.inplane(w)
        hw = [None] + [hk @ w for hk in h[1:]]
        dl1 = (row_scale(hw[1], h[7]) + row_scale(hw[7], h[1])
               + row_scale(hw[2], h[8]) + row_scale(hw[8], h[2]))
        dl2 = (row_scale(hw[3], h[8]) + row_scale(hw[8], h[3])
               + row_scale(hw[2], h[7]) + row_scale(hw[7], h[2]))
        duv = -np.linalg.solve(self.block(), np.vstack([dl1, dl2]))
        du, dv = duv[:n], duv[n:]
        de = (
            h[7] @ du + row_scale(hw[7], h[7]),
            h[8] @ dv + row_scale(hw[8], h[8]),
            h[8] @ du + h[7] @ dv + row_scale(hw[8], h[7]) + row_scale(hw[7], h[8]),
        )
        jac = h[4].copy()
        for (c, k, e), de_k in zip(self._strains(w, u, v), de):
            jac -= self.sys.alpha * c * (row_scale(e, h[k]) + row_scale(hw[k], de_k))
        return jac
