"""Build double boundary conditions into reduced differentiation matrices.

A fourth-order bending line needs two conditions at each end.  Two
strategies are provided, one per support kind:

* simply supported (value and curvature zero at both ends): the boundary
  columns drop out and the fourth derivative factors through the interior
  second-derivative block, giving (N-2)-sized operators;
* clamped (value and slope zero at both ends): the weighting rows for the
  end-point slopes are solved for the displacements at the two nodes next
  to the boundary, eliminating them and giving (N-4)-sized operators of
  full rank.

Both return a recovery matrix mapping interior unknowns back to a full
grid-line vector, which is how fields are reconstructed after a solve.

For the older auxiliary-point treatment, which ``linear_bending`` keeps
for comparison only, ``delta_grid`` moves the nodes next to each end to a
small distance delta inside the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dq_core import DiffMatrices, Grid1D

SIMPLY_SUPPORTED = "simply_supported"
CLAMPED = "clamped"

BC_KINDS = (SIMPLY_SUPPORTED, CLAMPED)


class SingularEliminationError(ValueError):
    """The 2x2 slope-row elimination for a clamped line is singular."""


@dataclass(frozen=True)
class BoundaryOperatorSet:
    """Interior-sized differentiation matrices with built-in conditions.

    ``recovery`` is the N x n_interior map from interior unknowns to a full
    grid-line vector satisfying the boundary conditions.
    """

    bc_kind: str
    n_interior: int
    first: np.ndarray
    second: np.ndarray
    fourth: np.ndarray
    recovery: np.ndarray
    grid: Grid1D


def build_ss(dm: DiffMatrices) -> BoundaryOperatorSet:
    """Simply supported reduction: (N-2)-sized operators.

    Zero end values remove the boundary columns, so orders 1 and 2 are the
    interior blocks of the full matrices.  Zero end curvature makes the
    fourth derivative act as the interior second-derivative block applied
    to a curvature field that itself vanishes at the ends, hence
    fourth = second_int @ second_int.
    """
    n = dm.n
    if n < 4:
        raise ValueError(f"simply supported reduction needs N >= 4, got {n}")
    a_int = dm.first[1:-1, 1:-1]
    b_int = dm.second[1:-1, 1:-1]
    r = np.zeros((n, n - 2))
    r[1:-1, :] = np.eye(n - 2)
    return BoundaryOperatorSet(
        bc_kind=SIMPLY_SUPPORTED,
        n_interior=n - 2,
        first=a_int,
        second=b_int,
        fourth=b_int @ b_int,
        recovery=r,
        grid=dm.grid,
    )


def build_clamped(dm: DiffMatrices) -> BoundaryOperatorSet:
    """Clamped reduction: (N-4)-sized operators.

    With zero end values, the two end-point slope rows couple the unknowns
    at nodes 2 and N-1 to the remaining interior values:

        A[0,1] w_2 + A[0,n-2] w_{n-1} = -sum_j A[0,j] w_j
        A[n-1,1] w_2 + A[n-1,n-2] w_{n-1} = -sum_j A[n-1,j] w_j

    (j over nodes 3..N-2).  Solving this 2x2 system exactly defines the
    recovery map; the reduced operators are rows 3..N-2 of each full matrix
    applied to it.
    """
    n = dm.n
    if n < 5:
        raise ValueError(f"clamped reduction needs N >= 5, got {n}")
    a = dm.first
    ncut = n - 4

    elim = np.array([[a[0, 1], a[0, n - 2]], [a[n - 1, 1], a[n - 1, n - 2]]])
    det = elim[0, 0] * elim[1, 1] - elim[0, 1] * elim[1, 0]
    slope_scale = max(np.abs(a[0]).max(), np.abs(a[n - 1]).max())
    if abs(det) <= 1e-12 * slope_scale**2:
        raise SingularEliminationError(
            f"slope-row elimination determinant {det:.3e} is numerically singular"
        )
    rhs = -np.vstack([a[0, 2 : n - 2], a[n - 1, 2 : n - 2]])
    edge_coeffs = np.linalg.solve(elim, rhs)  # rows: node 2, node N-1

    r = np.zeros((n, ncut))
    r[1, :] = edge_coeffs[0]
    r[n - 2, :] = edge_coeffs[1]
    r[2 : n - 2, :] = np.eye(ncut)

    rows = slice(2, n - 2)
    return BoundaryOperatorSet(
        bc_kind=CLAMPED,
        n_interior=ncut,
        first=(dm.first @ r)[rows],
        second=(dm.second @ r)[rows],
        fourth=(dm.fourth @ r)[rows],
        recovery=r,
        grid=dm.grid,
    )


def build_operators(dm: DiffMatrices, bc_kind: str) -> BoundaryOperatorSet:
    """Dispatch on the support kind shared by the two edges of a direction."""
    if bc_kind == SIMPLY_SUPPORTED:
        return build_ss(dm)
    if bc_kind == CLAMPED:
        return build_clamped(dm)
    raise ValueError(f"unknown bc kind {bc_kind!r}; expected one of {BC_KINDS}")


def delta_grid(grid: Grid1D, delta: float) -> Grid1D:
    """The grid with its 2nd and (N-1)th nodes moved to delta and 1 - delta.

    The auxiliary distance is dimensionless; values around 1e-5 behave well
    for clamped lines.  Requires 0 < delta < the original second node.
    """
    nodes = grid.nodes.copy()
    if not 0.0 < delta < nodes[1]:
        raise ValueError(
            f"delta must satisfy 0 < delta < {nodes[1]:.6g}, got {delta:.6g}"
        )
    nodes[1] = delta
    nodes[-2] = 1.0 - delta
    return Grid1D(nodes, "delta_modified")
