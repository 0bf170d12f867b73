"""1-D collocation grids and differential-quadrature weighting matrices.

A derivative at a grid point is approximated as a weighted sum of the
function values at every point of the line.  The first-order weights come
from the Lagrange interpolation polynomial in closed form; orders 2..4 are
generated by the standard recursion, with every diagonal entry set to the
negative sum of its row (exact differentiation of constants).

Grids live on [0, 1].  Physical scaling by the plate dimensions is applied
by the assembly layer, never here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform"
CHEBYSHEV = "chebyshev_mapped"

GRID_KINDS = (UNIFORM, CHEBYSHEV)

# Condition numbers of 4th-order weighting matrices grow fast with N;
# beyond ~31 points double precision is not trustworthy.
MAX_POINTS = 31
# Uniform grids degrade sooner.  Newton already meets the residual's rounding
# floor at 21 points: on the Table-1 plates, simply supported exits 3 after 25
# iterations, its residual wandering between about 4e-5 and 2e-3 against the
# 1e-5 tolerance, and clamped converges but warns of steps with rcond 8.5e-17
# (ROADMAP.md item 1, stopping Newton at that floor).  The linear-limit solves
# reach rcond ~1e-19 at 31, so their centers depend on rounding.  PlateSpec,
# and so every case file, stops at 21; make_grid does not.
MAX_UNIFORM_POINTS = 21

MIN_NODE_GAP = 1e-12


class DegenerateGridError(ValueError):
    """Grid nodes coincide (or nearly so); weights are not computable."""


def chebyshev_roots(n: int) -> np.ndarray:
    """Roots of the degree-n first-kind Chebyshev polynomial, decreasing order.

    r_i = cos((2i - 1)pi / 2n), i = 1..n.  All roots lie strictly inside
    (-1, 1); for n = 1 the single root is 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    i = np.arange(1, n + 1)
    return np.cos((2 * i - 1) * np.pi / (2 * n))


@dataclass(frozen=True)
class Grid1D:
    """Ordered collocation nodes on [0, 1]."""

    nodes: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("grid must span [0, 1] with exact endpoints")
        gaps = np.diff(nodes)
        if np.any(gaps <= MIN_NODE_GAP):
            raise DegenerateGridError(
                f"nodes not strictly increasing (min gap {gaps.min():.3e})"
            )

    @property
    def n(self) -> int:
        return self.nodes.size


def make_grid(n: int, kind: str = CHEBYSHEV) -> Grid1D:
    """Build an n-point grid of the requested kind.

    ``uniform`` gives equally spaced nodes.  ``chebyshev_mapped`` takes the
    roots of the degree-n Chebyshev polynomial and maps them affinely onto
    [0, 1]; the map x = (r - r_1)/(r_n - r_1) sends the extreme roots to the
    interval endpoints exactly, which the boundary treatment requires.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 grid points, got {n}")
    if n > MAX_POINTS:
        raise ValueError(f"n = {n} exceeds supported maximum {MAX_POINTS}")
    if kind == UNIFORM:
        nodes = np.arange(n) / (n - 1)
        nodes[-1] = 1.0
        return Grid1D(nodes, UNIFORM)
    if kind == CHEBYSHEV:
        r = chebyshev_roots(n)
        # r is decreasing, so the mapped nodes come out increasing.
        nodes = (r - r[0]) / (r[-1] - r[0])
        nodes[0] = 0.0
        nodes[-1] = 1.0
        return Grid1D(nodes, CHEBYSHEV)
    raise ValueError(f"unknown grid kind {kind!r}; expected one of {GRID_KINDS}")


@dataclass(frozen=True)
class DiffMatrices:
    """Weighting matrices for derivative orders 1..4 on one grid."""

    first: np.ndarray
    second: np.ndarray
    third: np.ndarray
    fourth: np.ndarray
    grid: Grid1D

    @property
    def n(self) -> int:
        return self.grid.n


def diff_matrices(grid: Grid1D) -> DiffMatrices:
    """Order 1 from the Lagrange closed form, orders 2..4 by the weight
    recursion, all on one table of node gaps x_i - x_j.

    Order 1 off the diagonal: a_ij = c_i / (c_j (x_i - x_j)) with c_i the
    product of (x_i - x_k) over k != i.  Order m from order m - 1:
    w_ij^(m) = m (w_ij^(1) w_ii^(m-1) - w_ij^(m-1) / (x_i - x_j)) for i != j.
    Every diagonal is the negative row sum, which makes every row annihilate
    constants regardless of rounding.  Equivalent to matrix powers of the
    first-order matrix but numerically cleaner.
    """
    x = grid.nodes
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    # Grid1D keeps nodes apart, so no factor vanishes; N <= 31 keeps the
    # log-free products well inside double range
    c = np.prod(dx, axis=1)
    first = c[:, None] / (c[None, :] * dx)
    np.fill_diagonal(first, 0.0)
    np.fill_diagonal(first, -first.sum(axis=1))

    mats = [first]
    w = first
    for m in (2, 3, 4):
        nxt = m * (first * w.diagonal()[:, None] - w / dx)
        np.fill_diagonal(nxt, 0.0)
        np.fill_diagonal(nxt, -nxt.sum(axis=1))
        mats.append(nxt)
        w = nxt
    return DiffMatrices(mats[0], mats[1], mats[2], mats[3], grid)

