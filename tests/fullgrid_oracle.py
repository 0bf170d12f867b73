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
from dqplate.plate_model import H1, H2, H3, H4, H5, H6, H7, H8


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
    """Dense full-grid operators of an assembled system, H[H1]..H[H8]."""

    def __init__(self, sys):
        self.sys = sys
        self.h = [dense_operator(sys, k) for k in range(len(sys.spec.material.terms))]
        self.n = len(self.h[H1])
        self.load = sys.spec.material.load * np.ones(self.n)

    def forcing(self, w):
        h = self.h
        l1 = (h[H7] @ w) * (h[H1] @ w) + (h[H8] @ w) * (h[H2] @ w)
        l2 = (h[H8] @ w) * (h[H3] @ w) + (h[H7] @ w) * (h[H2] @ w)
        return l1, l2

    def block(self):
        h = self.h
        return np.block([[h[H1], h[H2]], [h[H2], h[H3]]])

    def inplane(self, w):
        uv = np.linalg.solve(self.block(), -np.concatenate(self.forcing(w)))
        return uv[: self.n], uv[self.n :]

    def _strains(self, w, u, v):
        h = self.h
        h7w, h8w = h[H7] @ w, h[H8] @ w
        beta_x, beta_y, gamma = self.sys.spec.material.betas[:, 0]
        return (
            (beta_x, H5, h[H7] @ u + 0.5 * h7w**2),
            (beta_y, H6, h[H8] @ v + 0.5 * h8w**2),
            (gamma, H2, h[H8] @ u + h[H7] @ v + h7w * h8w),
        )

    def transverse(self, w, u, v):
        h = self.h
        terms = sum(c * (h[k] @ w) * e for c, k, e in self._strains(w, u, v))
        return h[H4] @ w - self.sys.spec.material.alpha * terms - self.load

    def residual(self, w):
        return self.transverse(w, *self.inplane(w))

    def coupled_residual(self, w, u, v):
        h = self.h
        l1, l2 = self.forcing(w)
        return (
            h[H1] @ u + h[H2] @ v + l1,
            h[H2] @ u + h[H3] @ v + l2,
            self.transverse(w, u, v),
        )

    def jacobian(self, w):
        """dr/dW = H4 - alpha sum_k c_k [diag(e_k) S_k + diag(S_k W) de_k/dW],
        with [dU/dW; dV/dW] = -B^-1 [dl1/dW; dl2/dW]."""
        h, n = self.h, self.n
        u, v = self.inplane(w)
        hw = [hk @ w for hk in h]
        dl1 = (row_scale(hw[H1], h[H7]) + row_scale(hw[H7], h[H1])
               + row_scale(hw[H2], h[H8]) + row_scale(hw[H8], h[H2]))
        dl2 = (row_scale(hw[H3], h[H8]) + row_scale(hw[H8], h[H3])
               + row_scale(hw[H2], h[H7]) + row_scale(hw[H7], h[H2]))
        duv = -np.linalg.solve(self.block(), np.vstack([dl1, dl2]))
        du, dv = duv[:n], duv[n:]
        de = (
            h[H7] @ du + row_scale(hw[H7], h[H7]),
            h[H8] @ dv + row_scale(hw[H8], h[H8]),
            h[H8] @ du + h[H7] @ dv + row_scale(hw[H8], h[H7]) + row_scale(hw[H7], h[H8]),
        )
        jac = h[H4].copy()
        for (c, k, e), de_k in zip(self._strains(w, u, v), de):
            jac -= self.sys.spec.material.alpha * c * (row_scale(e, h[k]) + row_scale(hw[k], de_k))
        return jac
