"""Classical small-deflection references and the auxiliary-point comparison.

Two independent center-deflection references for uniformly loaded isotropic
plates (center w = coefficient * q a^4 / D):

* simply supported: Navier double sine series, summed directly;
* clamped: Ritz minimization over the cosine basis
  (1 - cos 2pi m X)(1 - cos 2pi n Y), every term of which satisfies the
  clamped conditions exactly; all energy integrals are closed-form.

Both serve as oracles for the linear limit of the collocation solver and
as the error reference in boundary-treatment comparison runs.  The module
also holds the whole linear comparison, both centers on the symmetric
quarter and solved by ``plate_model.solve_bending``: with the built-in
boundary reductions, the Newton start (``builtin_center`` of a system,
``linear_center_builtin`` of a spec, with the system's H4 and recovery maps
but no in-plane block), and with the auxiliary-point (delta) row
replacement on the folded moved grid.
"""

from __future__ import annotations

import numpy as np

from . import bc_builder, dq_core, plate_model
from .bc_builder import CLAMPED, SIMPLY_SUPPORTED
from .plate_model import EVEN, PARITY_W, PlateSpec, kron


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
    coeffs = plate_model.lu_solve(k.T, f)  # k is symmetric: its Fortran view, factored in place
    center = 1.0 - (-1.0) ** np.arange(1, modes + 1)  # 1 - cos(m pi) at X = 1/2
    return float(np.outer(center, center).ravel() @ coeffs)


def series_coefficient(bc_kind: str, aspect: float = 1.0) -> float:
    """Classical center coefficient for the supported kinds."""
    if bc_kind == SIMPLY_SUPPORTED:
        return navier_ss_coefficient(aspect)
    if bc_kind == CLAMPED:
        return clamped_ritz_coefficient(aspect)
    raise ValueError(f"no classical reference for bc kind {bc_kind!r}")


def isotropic_material(spec: PlateSpec) -> plate_model.DerivedMaterial:
    """The spec's material; ValueError unless d1 = d2 = d3, as the series assume."""
    mat = spec.material
    if abs(mat.d2 - mat.d1) > 1e-9 * mat.d1 or abs(mat.d3 - mat.d1) > 1e-9 * mat.d1:
        raise ValueError("linear comparison references require an isotropic spec")
    return mat


def linear_reference_center(spec: PlateSpec) -> float:
    """Series-based center w/h in the linear limit of an isotropic spec."""
    mat = isotropic_material(spec)
    return series_coefficient(spec.bc, spec.a / spec.b) * mat.load


def builtin_center(sys: plate_model.AssembledSystem) -> float:
    """Linear-limit center w/h with the built-in boundary reductions: the
    Newton start H4 W = load of an assembled system, through ``recover_fields``."""
    w = plate_model.linear_solve(sys)
    return plate_model.recover_fields(sys, w, 0 * w, 0 * w).center_deflection_ratio


def linear_center_builtin(spec: PlateSpec) -> float:
    """``builtin_center`` of a system built for ``spec``, without the system:
    H4 and W's recovery through ``assemble``'s and ``recover_fields``' own
    helpers, and no in-plane block."""
    bcx, bcy = plate_model.reduced_operators(spec)
    h4 = plate_model.fold_bending(spec.material, bcx, bcy)[2]
    w = plate_model.solve_bending(h4, np.full(len(h4), spec.material.load))
    (w_full,) = plate_model.unfold(bcx, bcy, (w, PARITY_W))
    return plate_model._interp_center(w_full, bcx.grid.nodes, bcy.grid.nodes)


def linear_center_delta(spec: PlateSpec, delta: float = 1e-5) -> float:
    """Linear-limit center w/h by auxiliary-point row replacement on the moved
    grid's quarter (every row is mirror-symmetric, so W is even): value rows
    at index 0, then derivative rows (slope if clamped, curvature if simply
    supported) at index 1, on the auxiliary x-line, then the y-line's rest."""
    # one grid, weight set, fold and mirror map per distinct point count
    weights = {m: dq_core.diff_matrices(bc_builder.delta_grid(
        dq_core.make_grid(m, spec.grid_kind), delta)) for m in {spec.nx, spec.ny}}
    mirror = {m: plate_model.mirror_maps(m)[EVEN] for m in weights}
    fx, fy, op = plate_model.fold_bending(spec.material, weights[spec.nx], weights[spec.ny])
    nx, ny = fx.shape[-1], fy.shape[-1]
    order = 1 if spec.bc == CLAMPED else 2  # the factor of the slope or the curvature
    dx, dy = fx[EVEN, order, 1], fy[EVEN, order, 1]  # its rows at index 1
    ix, iy = np.eye(nx), np.eye(ny)
    # rows[i, j, a, b]: the equation at quarter node (x_i, y_j) on W at (x_a, y_b)
    rows = op.reshape(nx, ny, nx, ny)
    rows[0] = ix[0, :, None] * iy[:, None]
    rows[:, 0] = ix[:, :, None] * iy[0]
    rows[1, 1:] = dx[:, None] * iy[1:, None]
    rows[2:, 1] = ix[2:, :, None] * dy
    rhs = np.zeros((nx, ny))
    rhs[2:, 2:] = spec.material.load
    w = plate_model.solve_bending(op, rhs.ravel()).reshape(nx, ny)
    w = mirror[spec.nx] @ w @ mirror[spec.ny].T
    return plate_model._interp_center(w, weights[spec.nx].grid.nodes, weights[spec.ny].grid.nodes)
