"""Independent fully dimensional discretization of the plate equations.

Assembles the three coupled equilibrium equations directly in physical
variables (u, v, w in length units on the physical grid) and solves the
monolithic 3n system with a finite-difference Jacobian.  Shares only the
1-D weighting matrices and boundary reduction with the production path;
the scaling, stacking and residual algebra are written from scratch here
so the two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dqplate import bc_builder, dq_core
from dqplate.newton_solver import fd_jacobian, newton
from dqplate.plate_model import PlateSpec, derive_material


@dataclass
class DimensionalSystem:
    spec: PlateSpec
    n: int
    nxi: int
    nyi: int
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    pw4: np.ndarray
    p5: np.ndarray
    p6: np.ndarray
    p7: np.ndarray
    p8: np.ndarray
    pxy: np.ndarray
    q: float
    h_over_mu: float
    two_mu_g: float
    rx: np.ndarray
    ry: np.ndarray


def assemble_dimensional(spec: PlateSpec) -> DimensionalSystem:
    mat = derive_material(spec)
    gx = dq_core.make_grid(spec.nx, spec.grid_kind)
    gy = dq_core.make_grid(spec.ny, spec.grid_kind)
    bx = bc_builder.build_operators(dq_core.diff_matrices(gx), spec.bc)
    by = bc_builder.build_operators(dq_core.diff_matrices(gy), spec.bc)
    a, b = spec.a, spec.b

    # physical-coordinate reduced matrices: unit-interval ones over a^m, b^m
    ax, bx2, dx4 = bx.first / a, bx.second / a**2, bx.fourth / a**4
    ay, by2, dy4 = by.first / b, by.second / b**2, by.fourth / b**4

    nxi, nyi = bx.n_interior, by.n_interior
    ixm, iym = np.eye(nxi), np.eye(nyi)
    e1, e2, g12 = spec.e1, spec.e2, spec.g12
    mu, c, nu21 = mat.mu, mat.c, mat.nu21

    kron = np.kron
    return DimensionalSystem(
        spec=spec,
        n=nxi * nyi,
        nxi=nxi,
        nyi=nyi,
        p1=e1 * kron(bx2, iym) + mu * g12 * kron(ixm, by2),
        p2=c * kron(ax, ay),
        p3=e2 * kron(ixm, by2) + mu * g12 * kron(bx2, iym),
        pw4=(
            mat.d1 * kron(dx4, iym)
            + 2.0 * mat.d3 * kron(bx2, by2)
            + mat.d2 * kron(ixm, dy4)
        ),
        p5=e1 * kron(bx2, iym) + spec.nu12 * e2 * kron(ixm, by2),
        p6=e2 * kron(ixm, by2) + nu21 * e1 * kron(bx2, iym),
        p7=kron(ax, iym),
        p8=kron(ixm, ay),
        pxy=kron(ax, ay),
        q=spec.q,
        h_over_mu=spec.h / mu,
        two_mu_g=2.0 * mu * g12,
        rx=bx.recovery,
        ry=by.recovery,
    )


def dimensional_residual(d: DimensionalSystem, z: np.ndarray) -> np.ndarray:
    """Stacked residual of the three physical equations at z = [u; v; w]."""
    n = d.n
    u, v, w = z[:n], z[n : 2 * n], z[2 * n :]
    wx, wy = d.p7 @ w, d.p8 @ w
    wxy = d.pxy @ w
    fu = d.p1 @ u + d.p2 @ v + wx * (d.p1 @ w) + wy * (d.p2 @ w)
    fv = d.p2 @ u + d.p3 @ v + wy * (d.p3 @ w) + wx * (d.p2 @ w)
    fw = (
        d.pw4 @ w
        - d.q
        - d.h_over_mu
        * (
            (d.p7 @ u + 0.5 * wx**2) * (d.p5 @ w)
            + (d.p8 @ v + 0.5 * wy**2) * (d.p6 @ w)
            + d.two_mu_g * wxy * (d.p8 @ u + d.p7 @ v + wx * wy)
        )
    )
    return np.concatenate([fu, fv, fw])


def solve_dimensional(spec: PlateSpec, tol_w: float = 1e-11, max_iter: int = 40):
    """Monolithic Newton solve in physical variables; returns full-grid w.

    The three equations carry very different magnitudes (moduli-scaled
    in-plane rows versus pressure-scaled bending rows), so convergence is
    judged on a per-block normalized residual.
    """
    d = assemble_dimensional(spec)
    n = d.n
    block_scale = np.concatenate(
        [
            np.full(n, spec.e1 * spec.h / spec.a**2),
            np.full(n, spec.e1 * spec.h / spec.a**2),
            np.full(n, max(abs(spec.q), 1.0)),
        ]
    )

    def scaled_residual(z):
        return dimensional_residual(d, z) / block_scale

    z0 = np.zeros(3 * n)
    z, report = newton(
        scaled_residual,
        lambda z: fd_jacobian(scaled_residual, z),
        z0,
        tol=tol_w,
        max_iter=max_iter,
    )
    w_int = z[2 * n :].reshape(d.nxi, d.nyi)
    w_full = d.rx @ w_int @ d.ry.T
    return w_full, z, report
