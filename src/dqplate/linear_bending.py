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
built-in boundary reductions, which is the Newton start of an assembled
system (``builtin_center`` reads it from a system the caller already has,
``linear_center_builtin`` builds one from a spec), and with the
auxiliary-point (delta) row replacement on the full moved grid.  Both end in
``plate_model.solve_bending``, the row-equilibrated solve.
"""

from __future__ import annotations

import numpy as np

from . import bc_builder, dq_core, plate_model
from .bc_builder import CLAMPED, SIMPLY_SUPPORTED
from .plate_model import H4, PlateSpec, kron


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
    """``builtin_center`` of a system built for ``spec``."""
    return builtin_center(plate_model.build_system(spec))


def linear_center_delta(spec: PlateSpec, delta: float = 1e-5) -> float:
    """Linear-limit center w/h by auxiliary-point row replacement on the moved
    grid: value rows on the edges, then derivative rows (slope if clamped,
    curvature if simply supported) on the auxiliary x-lines, then on the rest
    of the auxiliary y-lines."""
    mat = spec.material
    nx, ny = spec.nx, spec.ny
    kind = spec.grid_kind
    # one grid, weight set and factor stack per distinct point count
    grids = {m: bc_builder.delta_grid(dq_core.make_grid(m, kind), delta) for m in {nx, ny}}
    weights = {m: dq_core.diff_matrices(grid) for m, grid in grids.items()}
    stacks = {m: plate_model.factor_stack(dm) for m, dm in weights.items()}
    dmx, dmy = weights[nx], weights[ny]
    op = plate_model.kron_sum(mat.terms[H4], stacks[nx], stacks[ny])
    order = "first" if spec.bc == CLAMPED else "second"
    ix, iy = np.eye(nx), np.eye(ny)
    # row (i, j) of the operator is the equation at node (x_i, y_j)
    rows = op.reshape(nx, ny, nx, ny)
    edge, aux = [0, -1], [1, -2]
    rows[edge] = kron(ix[edge], iy).reshape(2, ny, nx, ny)
    rows[:, edge] = kron(ix, iy[edge]).reshape(nx, 2, nx, ny)
    rows[aux, 1:-1] = kron(getattr(dmx, order)[aux], iy[1:-1]).reshape(2, ny - 2, nx, ny)
    rows[2:-2, aux] = kron(ix[2:-2], getattr(dmy, order)[aux]).reshape(nx - 4, 2, nx, ny)
    rhs = np.zeros((nx, ny))
    rhs[2:-2, 2:-2] = mat.load
    # the unknowns are the values at every node of the moved grid
    w = plate_model.solve_bending(op, rhs.ravel())
    return plate_model._interp_center(w.reshape(nx, ny), dmx.grid.nodes, dmy.grid.nodes)
