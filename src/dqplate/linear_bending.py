"""Classical small-deflection references and the auxiliary-point comparison.

Two independent center-deflection references for uniformly loaded isotropic
plates (center w = coefficient * q a^4 / D):

* simply supported: Navier double sine series, summed directly;
* clamped: Ritz minimization over the cosine basis
  (1 - cos 2pi m X)(1 - cos 2pi n Y), every term of which satisfies the
  clamped conditions exactly; all energy integrals are closed-form.

Both serve as oracles for the linear limit of the collocation solver and
as the error reference in boundary-treatment comparison runs.  The module
also solves the linear bending problem with the auxiliary-point (delta)
row-replacement treatment so it can be compared against the built-in
boundary reductions.
"""

from __future__ import annotations

import numpy as np

from . import bc_builder, dq_core, plate_model
from .bc_builder import CLAMPED, SIMPLY_SUPPORTED
from .plate_model import PlateSpec
from .tensor_ops import kron


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


def _require_isotropic(spec: PlateSpec) -> None:
    # the series references assume one bending rigidity: d1 = d2 = d3
    mat = plate_model.derive_material(spec)
    if abs(mat.d2 - mat.d1) > 1e-9 * mat.d1 or abs(mat.d3 - mat.d1) > 1e-9 * mat.d1:
        raise ValueError("linear comparison references require an isotropic spec")


def linear_reference_center(spec: PlateSpec) -> float:
    """Series-based center w/h in the linear limit of an isotropic spec."""
    _require_isotropic(spec)
    scale = plate_model.load_scale(spec, plate_model.derive_material(spec))
    return series_coefficient(spec.bc, spec.a / spec.b) * scale


def linear_center_builtin(spec: PlateSpec) -> float:
    """Linear-limit center w/h using the built-in boundary reduction."""
    sys = plate_model.build_system(spec)
    w = plate_model.linear_solve(sys)
    u, v = plate_model.recover_inplane(sys, w)
    return plate_model.recover_fields(sys, w, u, v).center_deflection_ratio


def linear_center_delta(spec: PlateSpec, delta: float = 1e-5) -> float:
    """Linear-limit center w/h using the auxiliary-point row replacement.

    Assembles the bending operator on the full (moved) grid and replaces
    the rows of boundary and auxiliary nodes by the value and derivative
    conditions.  Rows on the auxiliary x-lines take the x-derivative
    condition; remaining auxiliary y-line rows take the y-derivative one.
    """
    mat = plate_model.derive_material(spec)
    gx0 = dq_core.make_grid(spec.nx, spec.grid_kind)
    gy0 = dq_core.make_grid(spec.ny, spec.grid_kind)
    planx = bc_builder.build_delta_rows(gx0, delta, spec.bc)
    plany = bc_builder.build_delta_rows(gy0, delta, spec.bc)
    dmx = dq_core.diff_matrices(planx.grid)
    dmy = dq_core.diff_matrices(plany.grid)
    nx, ny = spec.nx, spec.ny
    op = plate_model.bending_operator(spec, mat, dmx, dmy)
    rhs = np.full(nx * ny, plate_model.load_scale(spec, mat))

    deriv_x = dmx.first if planx.derivative_order == 1 else dmx.second
    deriv_y = dmy.first if plany.derivative_order == 1 else dmy.second
    slope_x = kron(deriv_x, np.eye(ny))
    slope_y = kron(np.eye(nx), deriv_y)

    i, j = np.divmod(np.arange(nx * ny), ny)  # grid indices of each row
    edge = np.isin(i, planx.boundary_rows) | np.isin(j, plany.boundary_rows)
    on_x = ~edge & np.isin(i, planx.delta_rows)
    on_y = ~edge & ~on_x & np.isin(j, plany.delta_rows)
    op[edge] = np.eye(nx * ny)[edge]
    op[on_x] = slope_x[on_x]
    op[on_y] = slope_y[on_y]
    rhs[edge | on_x | on_y] = 0.0
    w = np.linalg.solve(op, rhs).reshape(nx, ny)
    return plate_model._interp_center(w, planx.grid.nodes, plany.grid.nodes)
