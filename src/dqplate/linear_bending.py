"""Classical small-deflection references and the auxiliary-point comparison.

Two independent center-deflection references for uniformly loaded isotropic
plates (center w = coefficient * q a^4 / D):

* simply supported: Navier double sine series, summed directly;
* clamped: Ritz minimization over the cosine basis
  (1 - cos 2pi m X)(1 - cos 2pi n Y), every term of which satisfies the
  clamped conditions exactly; all energy integrals are closed-form.

Both serve as oracles for the linear limit of the collocation solver and
as the error reference in boundary-treatment comparison runs.  The module
also holds the whole linear comparison: the linear-limit center with the
built-in boundary reductions (H4 W = load on the reduced operators) and
with the auxiliary-point (delta) row replacement on the full moved grid.
Both end in ``plate_model.solve_bending``, the row-equilibrated solve that
also gives the Newton start.
"""

from __future__ import annotations

import numpy as np
from numpy import kron

from . import bc_builder, dq_core, plate_model
from .bc_builder import CLAMPED, SIMPLY_SUPPORTED
from .plate_model import PlateSpec


def navier_ss_coefficient(aspect: float = 1.0, terms: int = 120) -> float:
    """Center-deflection coefficient of a simply supported plate.

    Sums the double sine series for uniform load on an a x b plate with
    aspect = a/b; the coefficient multiplies q a^4 / D.  Only odd harmonics
    contribute; 120 terms leaves the tail far below 1e-10.
    """
    m = np.arange(1, 2 * terms, 2, dtype=float)
    sm = np.where(((m - 1) / 2) % 2 == 0, 1.0, -1.0)  # sin(m pi / 2)
    msq = m**2
    denom = (msq[:, None] + aspect**2 * msq[None, :]) ** 2
    terms_mn = (sm[:, None] * sm[None, :]) / (m[:, None] * m[None, :] * denom)
    return float(16.0 / np.pi**6 * terms_mn.sum())


def clamped_ritz_coefficient(aspect: float = 1.0, modes: int = 24) -> float:
    """Center-deflection coefficient of a clamped plate by the cosine Ritz.

    Minimizes the bending energy of w = sum A_mn phi_mn with
    phi_mn = (1 - cos 2pi m X)(1 - cos 2pi n Y) against the uniform load.
    For clamped edges the energy reduces to the square of the Laplacian-type
    form with aspect-ratio weights, and the cosine orthogonality makes all
    entries explicit.  Returns the coefficient on q a^4 / D.
    """
    g2 = aspect**2
    c = (2.0 * np.pi * np.arange(1, modes + 1)) ** 2
    # Mode (m, n) sits at row-major index (m - 1) * modes + (n - 1).  The
    # x-bending energy couples modes of equal m, the y-bending energy modes
    # of equal n, each through J = ones + I/2 on the other index; the mixed
    # term is diagonal.
    j = np.ones((modes, modes)) + 0.5 * np.eye(modes)
    k = (
        kron(np.diag(c**2 / 2.0), j)
        + kron(j, np.diag(g2**2 * c**2 / 2.0))
        + np.diag(g2 / 2.0 * np.outer(c, c).ravel())
    )
    f = np.ones(modes * modes)  # integral of each basis function over the unit square
    coeffs = np.linalg.solve(k, f)
    center = 1.0 - (-1.0) ** np.arange(1, modes + 1)  # 1 - cos(m pi) at X = 1/2
    return float(np.outer(center, center).ravel() @ coeffs)


def series_coefficient(bc_kind: str, aspect: float = 1.0) -> float:
    """Classical center coefficient for the supported kinds."""
    if bc_kind == SIMPLY_SUPPORTED:
        return navier_ss_coefficient(aspect)
    if bc_kind == CLAMPED:
        return clamped_ritz_coefficient(aspect)
    raise ValueError(f"no classical reference for bc kind {bc_kind!r}")


def linear_reference_center(spec: PlateSpec) -> float:
    """Series-based center w/h in the linear limit of an isotropic spec."""
    mat = plate_model.derive_material(spec)
    # the series references assume one bending rigidity: d1 = d2 = d3
    if abs(mat.d2 - mat.d1) > 1e-9 * mat.d1 or abs(mat.d3 - mat.d1) > 1e-9 * mat.d1:
        raise ValueError("linear comparison references require an isotropic spec")
    return series_coefficient(spec.bc, spec.a / spec.b) * plate_model.load_scale(spec, mat)


def linear_center_builtin(spec: PlateSpec) -> float:
    """Linear-limit center w/h from H4 W = load on the reduced operators."""
    mat = plate_model.derive_material(spec)
    x, y = plate_model.reduced_operators(spec)
    op = plate_model.bending_operator(spec, mat, x, y)
    w = plate_model.solve_bending(op, np.full(len(op), plate_model.load_scale(spec, mat)))
    full = plate_model.full_grid(x, y, w)
    return plate_model._interp_center(full, x.grid.nodes, y.grid.nodes)


def linear_center_delta(spec: PlateSpec, delta: float = 1e-5) -> float:
    """Linear-limit center w/h by auxiliary-point row replacement on the moved
    grid: value rows on the edges, then derivative rows (slope if clamped,
    curvature if simply supported) on the auxiliary x-lines, then on the rest
    of the auxiliary y-lines."""
    mat = plate_model.derive_material(spec)
    nx, ny = spec.nx, spec.ny
    kind = spec.grid_kind
    gx, gy = (bc_builder.delta_grid(dq_core.make_grid(m, kind), delta) for m in (nx, ny))
    dmx, dmy = dq_core.diff_matrices(gx), dq_core.diff_matrices(gy)
    op = plate_model.bending_operator(spec, mat, dmx, dmy)
    order = "first" if spec.bc == CLAMPED else "second"
    # row (i, j) of each operator is the equation at node (x_i, y_j)
    rows = op.reshape(nx, ny, -1)
    ident = np.eye(nx * ny).reshape(nx, ny, -1)
    on_x = kron(getattr(dmx, order), np.eye(ny)).reshape(nx, ny, -1)
    on_y = kron(np.eye(nx), getattr(dmy, order)).reshape(nx, ny, -1)
    edge, aux = [0, -1], [1, -2]
    rows[edge], rows[:, edge] = ident[edge], ident[:, edge]
    rows[aux, 1:-1] = on_x[aux, 1:-1]
    rows[2:-2, aux] = on_y[2:-2, aux]
    rhs = np.zeros((nx, ny))
    rhs[2:-2, 2:-2] = plate_model.load_scale(spec, mat)
    # the unknowns are the values at every node of the moved grid
    w = plate_model.solve_bending(op, rhs.ravel())
    return plate_model._interp_center(w.reshape(nx, ny), gx.nodes, gy.nodes)
