"""Discretized large-deflection plate system: assembly, residual, Jacobian.

The governing equations couple two in-plane displacements (u, v) and the
transverse deflection w of a thin orthotropic rectangular plate under
uniform pressure.  On the unit square with dimensionless unknowns
W = w/h, U = u/a, V = v/b, the collocated equations take the operator form

    H1 U + H2 V = -(H7 W) o (H1 W) - (H8 W) o (H2 W)
    H2 U + H3 V = -(H8 W) o (H3 W) - (H7 W) o (H2 W)
    H4 W = load + nonlinear(W, U, V)

with o the elementwise product.  The first two equations are linear in
(U, V) for given W, so one LU factorization of the stacked block system
eliminates them; Newton then iterates on W alone.

Each nonlinear term is written once: ``_inplane_forcing`` forms the
in-plane right-hand side, ``_transverse`` the three transverse terms, and
both give their exact derivative as row-scaled (SJT) operator copies.  The
residual, the coupled residual and the Jacobian all call these two.

Operator roles: H1/H3 are the in-plane stiffness blocks of the x/y
equilibrium equations, H2 the mixed-derivative coupling block, H4 the
scaled bending operator, H5/H6 the bending-curvature weights entering the
membrane forces, H7/H8 the scaled first-derivative maps along x and y.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from numpy import kron
from scipy.linalg import blas, lu_factor, lu_solve, solve

from . import bc_builder, dq_core
from .bc_builder import BC_KINDS, BoundaryOperatorSet
from .dq_core import CHEBYSHEV, GRID_KINDS


class MaterialError(ValueError):
    """Physically inconsistent elastic constants."""


class AssemblyError(ValueError):
    """Operator assembly failed or inputs are incompatible."""


class DecouplingError(RuntimeError):
    """The in-plane block system is numerically singular."""


def _check_poisson(nu12: float) -> None:
    if not 0 <= nu12 < 1:
        raise ValueError("nu12 must lie in [0, 1)")


@dataclass(frozen=True)
class PlateSpec:
    """Physical description of one plate case.

    Lengths and moduli in any consistent unit system; ``bc`` applies to all
    four edges.  ``nx``/``ny`` are grid point counts per direction.
    """

    a: float
    b: float
    h: float
    e1: float
    e2: float
    nu12: float
    g12: float
    bc: str
    q: float
    nx: int
    ny: int
    grid_kind: str = CHEBYSHEV

    def __post_init__(self):
        for name in ("a", "b", "h", "e1", "e2", "g12"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        _check_poisson(self.nu12)
        if self.bc not in BC_KINDS:
            raise ValueError(f"unknown bc {self.bc!r}; expected one of {BC_KINDS}")
        if self.grid_kind not in GRID_KINDS:
            raise ValueError(
                f"unknown grid kind {self.grid_kind!r}; expected one of {GRID_KINDS}"
            )
        for name in ("nx", "ny"):
            npts = getattr(self, name)
            if not 5 <= npts <= dq_core.MAX_POINTS:
                raise ValueError(
                    f"{name} must be in [5, {dq_core.MAX_POINTS}], got {npts}"
                )

    @classmethod
    def isotropic(
        cls,
        a: float,
        h: float,
        e: float,
        nu: float,
        q: float,
        nx: int,
        ny: int,
        bc: str,
        b: float | None = None,
        grid_kind: str = CHEBYSHEV,
    ) -> "PlateSpec":
        """Isotropic shortcut: equal moduli and the standard shear modulus."""
        _check_poisson(nu)  # before G = E / (2 (1 + nu)), which fails at nu = -1
        return cls(
            a=a,
            b=a if b is None else b,
            h=h,
            e1=e,
            e2=e,
            nu12=nu,
            g12=e / (2.0 * (1.0 + nu)),
            bc=bc,
            q=q,
            nx=nx,
            ny=ny,
            grid_kind=grid_kind,
        )


@dataclass(frozen=True)
class DerivedMaterial:
    """Rigidities and coupling constants derived from a plate spec.

    d1/d2 are the principal bending rigidities, d3 the effective twisting
    rigidity entering the mixed bending term, dk the pure torsional part,
    c the modulus on the mixed in-plane derivative.  mu = 1 - nu12 * nu21.
    """

    nu21: float
    mu: float
    d1: float
    d2: float
    d3: float
    dk: float
    c: float


def derive_material(spec: PlateSpec) -> DerivedMaterial:
    """Compute derived elastic constants, enforcing reciprocity."""
    nu21 = spec.nu12 * spec.e2 / spec.e1
    mu = 1.0 - spec.nu12 * nu21
    if mu <= 0:
        raise MaterialError(f"1 - nu12*nu21 = {mu:.6g} must be positive")
    h3 = spec.h**3
    d1 = spec.e1 * h3 / (12.0 * mu)
    d2 = spec.e2 * h3 / (12.0 * mu)
    dk = spec.g12 * h3 / 12.0
    d3 = nu21 * d1 + 2.0 * dk
    c = spec.nu12 * spec.e2 + mu * spec.g12
    return DerivedMaterial(nu21=nu21, mu=mu, d1=d1, d2=d2, d3=d3, dk=dk, c=c)


def load_scale(spec: PlateSpec, mat: DerivedMaterial) -> float:
    """Uniform load of the transverse equation normalized by D1: q a^4 / (D1 h)."""
    return spec.q * spec.a**4 / (mat.d1 * spec.h)


def bending_operator(spec: PlateSpec, mat: DerivedMaterial, x, y) -> np.ndarray:
    """Scaled bending operator from per-direction ``second``/``fourth`` matrices.

    ``x`` and ``y`` are the reduced interior operators in assembly and the
    full-grid weighting matrices in the auxiliary-point comparison.
    """
    rab = spec.a / spec.b
    return (
        kron(x.fourth, np.eye(len(y.fourth)))
        + (2.0 * mat.d3 / mat.d1) * rab**2 * kron(x.second, y.second)
        + (mat.d2 / mat.d1) * rab**4 * kron(np.eye(len(x.fourth)), y.fourth)
    )


@dataclass(frozen=True)
class AssembledSystem:
    """Stacked interior operators for one plate case.

    ``n`` is the per-field unknown count.  The block LU of
    [[H1, H2], [H2, H3]] is factored once and reused for every in-plane
    recovery and Jacobian sensitivity solve.
    """

    spec: PlateSpec
    material: DerivedMaterial
    bcx: BoundaryOperatorSet
    bcy: BoundaryOperatorSet
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray
    h4: np.ndarray
    h5: np.ndarray
    h6: np.ndarray
    h7: np.ndarray
    h8: np.ndarray
    load: np.ndarray
    n: int
    alpha: float
    beta_x: float
    beta_y: float
    gamma: float
    inplane_lu: Any = field(repr=False)


def assemble(
    spec: PlateSpec, bcx: BoundaryOperatorSet, bcy: BoundaryOperatorSet
) -> AssembledSystem:
    """Assemble the stacked operators from per-direction reduced matrices.

    Kronecker products place the x-direction matrices on the row index and
    the y-direction ones on the column index of the row-stacked fields.
    Aspect-ratio powers follow from mapping the plate to the unit square;
    the transverse equation is normalized by the x bending rigidity, so its
    load is q a^4 / (D1 h).
    """
    if bcx.bc_kind != spec.bc or bcy.bc_kind != spec.bc:
        raise AssemblyError("boundary operator kind does not match the spec")
    if bcx.grid.n != spec.nx or bcy.grid.n != spec.ny:
        raise AssemblyError(
            f"operator grids ({bcx.grid.n}, {bcy.grid.n}) do not match the "
            f"spec grids ({spec.nx}, {spec.ny})"
        )
    mat = derive_material(spec)
    nxi, nyi = bcx.n_interior, bcy.n_interior
    n = nxi * nyi
    ix = np.eye(nxi)
    iy = np.eye(nyi)
    a, b, h = spec.a, spec.b, spec.h
    rab = a / b

    bx_iy = kron(bcx.second, iy)
    ix_by = kron(ix, bcy.second)

    h1 = spec.e1 * bx_iy + mat.mu * spec.g12 * rab**2 * ix_by
    h2 = mat.c * kron(bcx.first, bcy.first)
    h3 = spec.e2 * ix_by + mat.mu * spec.g12 * rab**-2 * bx_iy
    h4 = bending_operator(spec, mat, bcx, bcy)
    h5 = spec.e1 * (h / a) ** 2 * bx_iy + spec.nu12 * spec.e2 * (h / b) ** 2 * ix_by
    h6 = spec.e2 * (h / b) ** 2 * ix_by + mat.nu21 * spec.e1 * (h / a) ** 2 * bx_iy
    h7 = (h / a) ** 2 * kron(bcx.first, iy)
    h8 = (h / b) ** 2 * kron(ix, bcy.first)

    load = load_scale(spec, mat) * np.ones(n)

    block = np.block([[h1, h2], [h2, h3]])
    lu = lu_factor(block)
    diag = np.abs(np.diag(lu[0]))
    if diag.min() <= 1e-14 * diag.max():
        raise DecouplingError(
            "in-plane block system is numerically singular "
            f"(pivot ratio {diag.min() / diag.max():.3e})"
        )

    return AssembledSystem(
        spec=spec,
        material=mat,
        bcx=bcx,
        bcy=bcy,
        h1=h1,
        h2=h2,
        h3=h3,
        h4=h4,
        h5=h5,
        h6=h6,
        h7=h7,
        h8=h8,
        load=load,
        n=n,
        alpha=a**4 / (mat.mu * mat.d1 * h),
        beta_x=(a / h) ** 2,
        beta_y=(b / h) ** 2,
        gamma=2.0 * mat.mu * spec.g12 / mat.c,
        inplane_lu=lu,
    )


def build_system(spec: PlateSpec) -> AssembledSystem:
    """Grids, weighting matrices, boundary reduction, assembly in one call."""
    gx = dq_core.make_grid(spec.nx, spec.grid_kind)
    gy = dq_core.make_grid(spec.ny, spec.grid_kind)
    bcx = bc_builder.build_operators(dq_core.diff_matrices(gx), spec.bc)
    bcy = bc_builder.build_operators(dq_core.diff_matrices(gy), spec.bc)
    return assemble(spec, bcx, bcy)


def with_load(sys: AssembledSystem, q: float) -> AssembledSystem:
    """Copy of an assembled system under a different pressure.

    Only the load vector depends on q, so load sweeps reuse the operators
    and the in-plane factorization.
    """
    spec = replace(sys.spec, q=q)
    return replace(sys, spec=spec, load=load_scale(spec, sys.material) * np.ones(sys.n))


def _check_size(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (sys.n,):
        raise ValueError(f"expected stacked vector of length {sys.n}, got {w.shape}")
    return w


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in scipy's BLAS, C-ordered.  The solve path's n^3 products and its
    solves all use scipy's thread pool, as the in-plane LU does: switching
    between numpy's and scipy's pools made threaded calls stall 20-190 ms."""
    return blas.dgemm(1.0, b.T, a.T).T


def row_scale(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """SJT product diag(v) M, row i of M scaled by v_i, at n^2 cost."""
    return np.einsum("i,ij->ij", v, m)


def _inplane_forcing(sys, w, derivative=False):
    """In-plane right-hand side [l1; l2] at W and, if asked, its W-derivative.

    Each block is a sum of products (A W) o (B W), whose derivative is the
    SJT pair diag(B W) A + diag(A W) B.
    """
    h1, h2, h3, h7, h8 = sys.h1, sys.h2, sys.h3, sys.h7, sys.h8
    h1w, h2w, h3w, h7w, h8w = h1 @ w, h2 @ w, h3 @ w, h7 @ w, h8 @ w
    blocks = (
        ((h7, h7w, h1, h1w), (h8, h8w, h2, h2w)),  # l1
        ((h8, h8w, h3, h3w), (h7, h7w, h2, h2w)),  # l2
    )
    rhs = np.concatenate([aw * bw + cw * dw for (_, aw, _, bw), (_, cw, _, dw) in blocks])
    if not derivative:
        return rhs, None
    drhs = np.vstack([
        sum(row_scale(bw, a) + row_scale(aw, b) for a, aw, b, bw in blk)
        for blk in blocks
    ])
    return rhs, drhs


def _transverse(sys, w, u, v, du=None, dv=None):
    """Transverse residual at (W, U, V) and, given dU/dW and dV/dW, its Jacobian.

    The nonlinear part is a sum of terms c (S W) o e: a coefficient c, a
    stress operator S and a membrane strain e.  A term's derivative is
    diag(S W) de/dW + diag(e) S.
    """
    h7, h8 = sys.h7, sys.h8
    h7w, h8w = h7 @ w, h8 @ w
    # (coefficient, stress operator, membrane strain, the strain's W-derivative)
    terms = (
        (sys.beta_x, sys.h5, h7 @ u + 0.5 * h7w**2,
         lambda: _matmul(h7, du) + row_scale(h7w, h7)),
        (sys.beta_y, sys.h6, h8 @ v + 0.5 * h8w**2,
         lambda: _matmul(h8, dv) + row_scale(h8w, h8)),
        (sys.gamma, sys.h2, h8 @ u + h7 @ v + h7w * h8w,
         lambda: _matmul(h8, du) + _matmul(h7, dv)
         + row_scale(h8w, h7) + row_scale(h7w, h8)),
    )
    t1, t2, t3 = (c * (s @ w) * e for c, s, e, _ in terms)
    r = sys.h4 @ w - sys.alpha * (t1 + t2 + t3) - sys.load
    if du is None:
        return r, None
    jac = sys.h4 - sys.alpha * sum(
        c * (row_scale(s @ w, de()) + row_scale(e, s)) for c, s, e, de in terms
    )
    return r, jac


def l_vectors(sys: AssembledSystem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic right-hand sides of the in-plane equations for given W."""
    rhs, _ = _inplane_forcing(sys, _check_size(sys, w))
    return rhs[: sys.n], rhs[sys.n :]


def recover_inplane(
    sys: AssembledSystem, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the linear block system for (U, V) at given W.

    Direct factorization of [[H1, H2], [H2, H3]] instead of the explicit
    elimination inverses: equivalent whenever those exist and well defined
    whenever the block system itself is regular.
    """
    rhs, _ = _inplane_forcing(sys, _check_size(sys, w))
    sol = lu_solve(sys.inplane_lu, -rhs)
    return sol[: sys.n], sol[sys.n :]


def residual(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    """Transverse equilibrium residual with the in-plane fields eliminated."""
    w = _check_size(sys, w)
    u, v = recover_inplane(sys, w)
    return _transverse(sys, w, u, v)[0]


def jacobian(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    """Exact derivative of ``residual`` with respect to W.

    One solve with the in-plane factorization gives (U, V) and their
    W-sensitivities together, from the 2n x (n + 1) right-hand side [l, dl/dW].
    """
    w = _check_size(sys, w)
    n = sys.n
    sol = lu_solve(
        sys.inplane_lu, -np.column_stack(_inplane_forcing(sys, w, derivative=True))
    )
    return _transverse(sys, w, sol[:n, 0], sol[n:, 0], sol[:n, 1:], sol[n:, 1:])[1]


def linear_solve(sys: AssembledSystem) -> np.ndarray:
    """Small-deflection limit H4 W = load; the Newton starting point."""
    try:
        return solve(sys.h4, sys.load)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(
            "singular bending operator; boundary reduction is inconsistent"
        ) from exc


def coupled_residual(
    sys: AssembledSystem, w: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the full three-field system at given (W, U, V).

    Used to confirm that the decoupled solve loses nothing: a converged W
    with its recovered in-plane fields must satisfy all three equations.
    """
    w = _check_size(sys, w)
    l1, l2 = l_vectors(sys, w)
    r1 = sys.h1 @ u + sys.h2 @ v + l1
    r2 = sys.h2 @ u + sys.h3 @ v + l2
    return r1, r2, _transverse(sys, w, u, v)[0]


@dataclass(frozen=True)
class SolutionField:
    """Converged displacement fields of one solve.

    Stacked interior vectors are dimensionless (W = w/h, U = u/a, V = v/b);
    the full-grid arrays are physical displacements on the tensor grid with
    boundary conditions built back in by the recovery maps.
    """

    w_stack: np.ndarray
    u_stack: np.ndarray
    v_stack: np.ndarray
    w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    y: np.ndarray
    center_deflection_ratio: float


def _interp_center(values: np.ndarray, xn: np.ndarray, yn: np.ndarray) -> float:
    """Value at the plate center: exact node when present, else bilinear."""

    def axis_weights(nodes):
        j = int(np.searchsorted(nodes, 0.5))
        if abs(nodes[j] - 0.5) < 1e-12:
            return j, j, 0.0
        lo = j - 1
        t = (0.5 - nodes[lo]) / (nodes[j] - nodes[lo])
        return lo, j, t

    i0, i1, tx = axis_weights(xn)
    j0, j1, ty = axis_weights(yn)
    return float(
        (1 - tx) * (1 - ty) * values[i0, j0]
        + (1 - tx) * ty * values[i0, j1]
        + tx * (1 - ty) * values[i1, j0]
        + tx * ty * values[i1, j1]
    )


def recover_fields(
    sys: AssembledSystem,
    w: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> SolutionField:
    """Map stacked interior unknowns to physical full-grid fields."""
    w = _check_size(sys, w)
    rx, ry = sys.bcx.recovery, sys.bcy.recovery
    shape = (sys.bcx.n_interior, sys.bcy.n_interior)
    w_full, u_full, v_full = (rx @ f.reshape(shape) @ ry.T for f in (w, u, v))
    xn, yn = sys.bcx.grid.nodes, sys.bcy.grid.nodes
    spec = sys.spec
    return SolutionField(
        w_stack=w,
        u_stack=u,
        v_stack=v,
        w=spec.h * w_full,
        u=spec.a * u_full,
        v=spec.b * v_full,
        x=spec.a * xn,
        y=spec.b * yn,
        center_deflection_ratio=_interp_center(w_full, xn, yn),
    )
