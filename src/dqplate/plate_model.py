"""Discretized large-deflection plate system: assembly, residual, Jacobian.

The governing equations couple two in-plane displacements (u, v) and the
transverse deflection w of a thin orthotropic rectangular plate under
uniform pressure.  On the unit square with dimensionless unknowns
W = w/h, U = u/a, V = v/b, the collocated equations take the operator form

    H1 U + H2 V = -(H7 W) o (H1 W) - (H8 W) o (H2 W)
    H2 U + H3 V = -(H8 W) o (H3 W) - (H7 W) o (H2 W)
    H4 W = load + nonlinear(W, U, V)

with o the elementwise product.  The first two equations are linear in
(U, V) for given W, so the inverse of the stacked block system, formed once
per system, eliminates them; Newton then iterates on W alone.

Each H_k is a sum of at most three Kronecker products c kron(X, Y) of 1-D
reduced matrices and is kept only as these terms, every product H_k Z
going through the 1-D factors (sum factorization); only H4 and the
in-plane block, which LAPACK factors, are made dense.  Each nonlinear term
is written once: ``_FORCING`` lists the in-plane right-hand side's products
(A W) o (B W), and ``_transverse_terms`` the three transverse terms
c (S W) o e.  The residual and the coupled residual evaluate them; the
Jacobian differentiates them into row-scaled (SJT) operator copies and
applies every operator through its 1-D factors, using the same in-plane
inverse as the residual.
Every BLAS and LAPACK call of the Newton iteration goes through scipy.

Operator roles: H1/H3 are the in-plane stiffness blocks of the x/y
equilibrium equations, H2 the mixed-derivative coupling block, H4 the
scaled bending operator, H5/H6 the bending-curvature weights entering the
membrane forces, H7/H8 the scaled first-derivative maps along x and y.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from numpy import kron
from scipy.linalg import blas, lapack, lu_factor, solve

from . import bc_builder, dq_core
from .bc_builder import BC_KINDS, BoundaryOperatorSet
from .dq_core import CHEBYSHEV, GRID_KINDS, UNIFORM


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
        for name in ("a", "b", "h", "e1", "e2", "g12", "q"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        top = dq_core.MAX_UNIFORM_POINTS if self.grid_kind == UNIFORM else dq_core.MAX_POINTS
        for name in ("nx", "ny"):
            npts = getattr(self, name)
            if not 5 <= npts <= top:
                raise ValueError(
                    f"{name} must be in [5, {top}] on a {self.grid_kind} grid, got {npts}"
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


_ID, _D1, _D2, _D4 = range(4)  # factor indices: identity, derivative orders


def _factor_stack(mats) -> np.ndarray:
    """The 1-D factors X of one direction: identity and the ``first``,
    ``second`` and ``fourth`` matrices of ``mats``.  A Kronecker term (c, ix,
    iy) is c kron(X[ix], Y[iy]), X on the x index, Y on the y index."""
    return np.stack([np.eye(len(mats.first)), mats.first, mats.second, mats.fourth])


def _bending_terms(spec: PlateSpec, mat: DerivedMaterial) -> tuple:
    """Kronecker terms of the scaled bending operator."""
    rab = spec.a / spec.b
    return (
        (1.0, _D4, _ID),
        ((2.0 * mat.d3 / mat.d1) * rab**2, _D2, _D2),
        ((mat.d2 / mat.d1) * rab**4, _ID, _D4),
    )


def _kron_sum(terms, fx: np.ndarray, fy: np.ndarray, out=None) -> np.ndarray:
    """Dense sum of the Kronecker terms over the factor stacks ``fx``, ``fy``.
    Written term by term into ``out`` (zeros if None), which may be a view
    such as a block of a larger matrix: a term with an identity factor fills
    only its O(n N) entries."""
    nx, ny = fx.shape[1], fy.shape[1]
    out = np.zeros((nx * ny, nx * ny)) if out is None else out
    o4 = out.reshape(nx, ny, nx, ny, copy=False)
    for c, ix, iy in terms:
        if iy == _ID:  # c X[a, b] at row (a, j), column (b, j)
            np.einsum("ajbj->ajb", o4)[...] += c * fx[ix][:, None, :]
        elif ix == _ID:  # c Y[j, k] at row (a, j), column (a, k)
            np.einsum("ajak->ajk", o4)[...] += c * fy[iy]
        else:
            out += kron(c * fx[ix], fy[iy])
    return out


def bending_operator(spec: PlateSpec, mat: DerivedMaterial, x, y) -> np.ndarray:
    """Scaled bending operator from per-direction derivative matrices.

    ``x`` and ``y`` are the reduced interior operators in the built-in linear
    center and the full-grid weighting matrices in the auxiliary-point
    comparison.
    """
    return _kron_sum(_bending_terms(spec, mat), _factor_stack(x), _factor_stack(y))


@dataclass(eq=False)
class InplaneBlock:
    """The in-plane block B = [[H1, H2], [H2, H3]], applied through B^-1.

    ``assemble`` hands over the LU factors of B^T: B^T is the Fortran-ordered
    view of B assembled in C order, so LAPACK factors it in place.  The first
    in-plane solve inverts the factors in their own buffer and drops them, so
    one (2n)^2 array holds B, then its LU, then B^-1, and every solve is one
    product with B^-1.  Copies made by ``with_load`` share this object, so a
    load sweep forms B^-1 once.
    """

    lu: tuple | None
    _inverse: np.ndarray | None = field(default=None, repr=False)
    _lock: Any = field(default_factory=threading.Lock, repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """B^-1 rhs, one BLAS product without a finite check: a non-finite
        ``rhs`` gives a non-finite solution, which Newton reports."""
        return blas.dgemv(1.0, self.inverse().T, rhs, trans=1)

    def inverse(self) -> np.ndarray:
        """B^-1, C-ordered: inverting the LU of B^T in place leaves B^-T in
        Fortran order, whose transpose is B^-1 in C order."""
        with self._lock:
            if self._inverse is None:
                lwork, _ = lapack.dgetri_lwork(len(self.lu[1]))
                x, info = lapack.dgetri(*self.lu, lwork=int(lwork), overwrite_lu=True)
                if info != 0:
                    raise ValueError(f"dgetri: info {info}")
                self._inverse, self.lu = x.T, None
            return self._inverse


@dataclass(frozen=True)
class AssembledSystem:
    """The operators of one plate case, each kept once, as Kronecker terms.

    ``n`` is the per-field unknown count.  ``terms`` gives each of H1..H8 as
    its terms (c, ix, iy) over the 1-D factor stacks ``factors`` = (X, Y)
    (see ``_factor_stack``).  ``x_mix`` and ``y_all`` lay the same terms out
    for ``_products``: every Y^T side by side, and per operator and y factor
    the sum of c X.  ``h4``, H4 written from its terms, serves the linear
    solve and is the Jacobian's base.  ``inplane`` holds the in-plane block's
    LU, factored once, until its first solve turns it into B^-1 in place.
    """

    spec: PlateSpec
    material: DerivedMaterial
    bcx: BoundaryOperatorSet
    bcy: BoundaryOperatorSet
    h4: np.ndarray
    factors: tuple = field(repr=False)
    terms: tuple = field(repr=False)
    x_mix: np.ndarray = field(repr=False)
    y_all: np.ndarray = field(repr=False)
    load: np.ndarray
    n: int
    alpha: float
    beta_x: float
    beta_y: float
    gamma: float
    inplane: InplaneBlock = field(repr=False)


def assemble(
    spec: PlateSpec, bcx: BoundaryOperatorSet, bcy: BoundaryOperatorSet
) -> AssembledSystem:
    """Assemble the operators' Kronecker terms from per-direction reduced
    matrices, and the two dense matrices that are factored.

    Kronecker products place the x-direction matrices on the row index and
    the y-direction ones on the column index of the row-stacked fields.
    Aspect-ratio powers follow from mapping the plate to the unit square;
    the transverse equation is normalized by the x bending rigidity, so its
    load is q a^4 / (D1 h).  H4 and the in-plane block are written from the
    terms; the in-plane inverse is not formed here.
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
    a, b, h = spec.a, spec.b, spec.h
    rab, ex, ey = a / b, (h / a) ** 2, (h / b) ** 2
    shear = mat.mu * spec.g12

    terms = (
        ((spec.e1, _D2, _ID), (shear * rab**2, _ID, _D2)),                   # H1
        ((mat.c, _D1, _D1),),                                                # H2
        ((spec.e2, _ID, _D2), (shear * rab**-2, _D2, _ID)),                  # H3
        _bending_terms(spec, mat),                                           # H4
        ((spec.e1 * ex, _D2, _ID), (spec.nu12 * spec.e2 * ey, _ID, _D2)),    # H5
        ((spec.e2 * ey, _ID, _D2), (mat.nu21 * spec.e1 * ex, _D2, _ID)),     # H6
        ((ex, _D1, _ID),),                                                   # H7
        ((ey, _ID, _D1),),                                                   # H8
    )
    fx, fy = _factor_stack(bcx), _factor_stack(bcy)
    x_mix = np.zeros((8, nxi, len(fy), nxi))
    for k, op_terms in enumerate(terms):
        for c, ix, iy in op_terms:
            x_mix[k, :, iy] += c * fx[ix]

    # B^T is the Fortran-ordered view of B, factored in place.
    block = np.zeros((2, n, 2, n))
    for k, rows, cols in ((0, 0, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1)):
        _kron_sum(terms[k], fx, fy, out=block[rows, :, cols])
    lu = lu_factor(block.reshape(2 * n, 2 * n).T, overwrite_a=True)
    diag = np.abs(np.diag(lu[0]))
    if diag.min() <= 1e-14 * diag.max():
        raise DecouplingError(
            "in-plane block system is numerically singular "
            f"(pivot ratio {diag.min() / diag.max():.3e})"
        )

    return AssembledSystem(
        spec, mat, bcx, bcy,
        h4=_kron_sum(terms[3], fx, fy),
        factors=(fx, fy),
        terms=terms,
        x_mix=x_mix.reshape(8, nxi, -1),
        y_all=fy.transpose(2, 0, 1).reshape(nyi, -1),
        load=load_scale(spec, mat) * np.ones(n),
        n=n,
        alpha=a**4 / (mat.mu * mat.d1 * h),
        beta_x=(a / h) ** 2,
        beta_y=(b / h) ** 2,
        gamma=2.0 * mat.mu * spec.g12 / mat.c,
        inplane=InplaneBlock(lu),
    )


def reduced_operators(spec: PlateSpec) -> tuple[BoundaryOperatorSet, BoundaryOperatorSet]:
    """Grid, weighting matrices and boundary reduction of x, then of y."""
    grids = (dq_core.make_grid(npts, spec.grid_kind) for npts in (spec.nx, spec.ny))
    return tuple(bc_builder.build_operators(dq_core.diff_matrices(g), spec.bc) for g in grids)


def build_system(spec: PlateSpec) -> AssembledSystem:
    """Grids, weighting matrices, boundary reduction, assembly in one call."""
    return assemble(spec, *reduced_operators(spec))


def with_load(sys: AssembledSystem, q: float) -> AssembledSystem:
    """Copy of an assembled system under a different pressure.

    Only the load vector depends on q, so load sweeps reuse the operators
    and the in-plane block, whose inverse is formed once for all loads.
    """
    spec = replace(sys.spec, q=q)
    return replace(sys, spec=spec, load=load_scale(spec, sys.material) * np.ones(sys.n))


def _check_size(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (sys.n,):
        raise ValueError(f"expected stacked vector of length {sys.n}, got {w.shape}")
    return w


def _matmul(a: np.ndarray, b: np.ndarray, out=None, beta=0.0) -> np.ndarray:
    """a @ b (+ beta out, written into ``out`` when given) for C-ordered
    arrays, in scipy's BLAS.  The solve path's products and solves all use
    scipy's thread pool, as the in-plane LU does: switching between numpy's
    and scipy's pools made threaded calls stall 20-190 ms."""
    if out is None:
        return blas.dgemm(1.0, b.T, a.T).T
    return blas.dgemm(1.0, b.T, a.T, beta=beta, c=out.T, overwrite_c=True).T


def _products(sys: AssembledSystem, z: np.ndarray, ops=slice(None)) -> np.ndarray:
    """H_k z for the operators ``ops`` (all eight by default) on one field z,
    (n,), or a stack of fields, (m, n): a (k, n) or (k, m, n) array.

    Sum factorization: one product applies every y factor to every x-line,
    one more every operator's x factors with its term coefficients."""
    nx, ny = sys.bcx.n_interior, sys.bcy.n_interior
    m = z.size // sys.n
    zy = _matmul(z.reshape(m * nx, ny), sys.y_all)  # [(field, c), (iy, j)]: Z Y_iy^T
    zy = zy.reshape(m, nx, -1, ny).transpose(2, 1, 0, 3).reshape(-1, m * ny)
    x_mix = sys.x_mix[ops]
    out = _matmul(x_mix.reshape(-1, x_mix.shape[-1]), zy)  # [(k, a), (field, j)]
    return out.reshape(-1, nx, m, ny).transpose(0, 2, 1, 3).reshape((-1,) + z.shape)


# The in-plane right-hand side [l1; l2]: each block a sum of products
# (A W) o (B W), given as pairs of operator indices (0 is H1, ..., 7 is H8).
# A product's W-derivative is the SJT pair diag(B W) A + diag(A W) B.
_FORCING = (((6, 0), (7, 1)), ((7, 2), (6, 1)))
# dl/dW by operator: k -> [(b, j)] for each diag(H_j W) H_k in block b.
_DL_PARTS = {
    k: [(b, j) for b, block in enumerate(_FORCING) for pair in block
        for j, kk in (pair, pair[::-1]) if kk == k]
    for k in (6, 7, 0, 1, 2)
}


def _inplane_forcing(hw: np.ndarray) -> np.ndarray:
    """In-plane right-hand side [l1; l2] from the products H_k W."""
    return np.concatenate([hw[a] * hw[b] + hw[c] * hw[d] for (a, b), (c, d) in _FORCING])


def _inplane_fields(sys: AssembledSystem, hw: np.ndarray) -> np.ndarray:
    """Rows U, V solving B [U; V] = -[l1; l2], as one product with B^-1."""
    return sys.inplane.solve(-_inplane_forcing(hw)).reshape(2, sys.n)


def _transverse_terms(sys: AssembledSystem, hw: np.ndarray, uv: np.ndarray):
    """The nonlinear transverse terms c (H_k W) o e as (c, k, e): a coefficient,
    the index of the stress operator H_k (H5, H6, H2) and a membrane strain."""
    (h7u, h7v), (h8u, h8v) = _products(sys, uv, slice(6, 8))
    h7w, h8w = hw[6], hw[7]
    return (
        (sys.beta_x, 4, h7u + 0.5 * h7w**2),
        (sys.beta_y, 5, h8v + 0.5 * h8w**2),
        (sys.gamma, 1, h8u + h7v + h7w * h8w),
    )


def _transverse(sys: AssembledSystem, hw: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Transverse residual H4 W - alpha sum c (H_k W) o e - load."""
    t1, t2, t3 = (c * hw[k] * e for c, k, e in _transverse_terms(sys, hw, uv))
    return hw[3] - sys.alpha * (t1 + t2 + t3) - sys.load


def jacobian(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    """Exact derivative of ``residual`` with respect to W, Fortran-ordered.

    With p_k = c_k S_k W for the transverse terms c_k (S_k W) o e_k,

        J = H4 - alpha [sum_k diag(c_k e_k) S_k + diag(q7) H7 + diag(q8) H8]
            + alpha Y dl/dW,
        q7 = p1 o H7 W + p3 o H8 W,   q8 = p2 o H8 W + p3 o H7 W,
        Y = [diag(p1) H7 + diag(p3) H8, diag(p3) H7 + diag(p2) H8] B^-1,

    where the last term is -alpha sum_k diag(p_k) (de_k/dU dU/dW + de_k/dV
    dV/dW) with [dU/dW; dV/dW] = -B^-1 dl/dW.  H7 and H8 are applied to
    B^-1 from the left, and dl/dW's operators (H7, H8, H1, H2, H3) to the
    column-scaled Y from the right, all through their 1-D factors (sum
    factorization): O(n^2 N) work, no n^3 product or solve.

    With the x index outermost in a row-stacked field, kron(X, I) Z is one
    product of X with Z seen as N_x rows, and kron(I, Y) Z is Y times each
    x-line block of Z, where a row scaling folds into the factor.  J is
    built as J^T, C-ordered, so that the right-hand products become
    left-hand ones, and is returned in Fortran order, ready to be factored
    in place.
    """
    w = _check_size(sys, w)
    n, nx, alpha = sys.n, sys.bcx.n_interior, sys.alpha
    ny = n // nx
    lines = [slice(i * ny, (i + 1) * ny) for i in range(nx)]
    hw = _products(sys, w)
    terms = _transverse_terms(sys, hw, _inplane_fields(sys, hw))
    p1, p2, p3 = (c * hw[k] for c, k, _ in terms)

    # Y = diag(p1) H7 B_U + diag(p3) H7 B_V + diag(p3) H8 B_U + diag(p2) H8 B_V,
    # with B_U, B_V the row blocks of B^-1 and H7 = c7 kron(A_x, I),
    # H8 = c8 kron(I, A_y): the H7 products in one product each and their
    # row scalings, then line by line the H8 products, whose row scalings
    # fold into A_y.
    fx, fy = sys.factors
    ((c7, i7, _),), ((c8, _, j8),) = sys.terms[6], sys.terms[7]
    b_u, b_v = sys.inplane.inverse().reshape(2, nx, ny, 2 * n)
    y = np.empty((nx, ny, 2 * n))
    t = np.empty((nx, ny, 2 * n))
    _matmul(c7 * fx[i7], b_u.reshape(nx, -1), out=y.reshape(nx, -1))
    _matmul(c7 * fx[i7], b_v.reshape(nx, -1), out=t.reshape(nx, -1))
    y *= p1.reshape(nx, ny, 1)
    t *= p3.reshape(nx, ny, 1)
    y += t
    f_u, f_v = ((c8 * p).reshape(nx, ny, 1) * fy[j8] for p in (p3, p2))
    for i in range(nx):
        _matmul(f_u[i], b_u[i], out=y[i], beta=1.0)
        _matmul(f_v[i], b_v[i], out=y[i], beta=1.0)
    # yt[i, b]: x-line i's block of Y_b^T, for Y = [Y_0, Y_1] acting on [l1; l2]
    yt = t.reshape(nx, 2, ny, n)
    np.copyto(yt, y.reshape(n, 2, nx, ny).transpose(2, 1, 3, 0))
    del y

    # J^T = H4^T + M_I + kron(D1_x^T, I) M_1 + kron(D2_x^T, I) M_2, one M per
    # x factor of the operators' terms, at its index (only H4 uses D4).
    # A term c kron(X, Y) of an operator adds to M_X, on each x-line block i,
    # parts with the factor c Y^T diag(v_i) (c diag(v_i) when Y = I):
    #   - J's row-scaled operators diag(v) H add it on the block diagonal;
    #   - alpha Y dl/dW = sum_k M_k H_k, with M_k = alpha sum Y_b diag(H_j W)
    #     over (b, j) in _DL_PARTS[k], adds it times yt[i, b], v = alpha H_j W.
    q7, q8 = p1 * hw[6] + p3 * hw[7], p2 * hw[7] + p3 * hw[6]
    row_scaled = [(k, -alpha * c * e) for c, k, e in terms]
    row_scaled += [(6, -alpha * q7), (7, -alpha * q8)]
    f = np.zeros((nx, 3, ny, 2, ny))  # per block and M: factors of yt[i, 0], yt[i, 1]
    d = np.zeros((nx, 3, ny, ny))  # per block and M: the block diagonal

    def add(g, c, iy, v):  # g[i] += c Y^T diag(v_i), or c diag(v_i) when Y = I
        v = c * v.reshape(nx, 1, ny)
        if iy == _ID:
            np.einsum("ijj->ij", g)[...] += v[:, 0]
        else:
            g += fy[iy].T * v

    for k, v in row_scaled:
        for c, ix, iy in sys.terms[k]:
            add(d[:, ix], c, iy, v)
    for k, parts in _DL_PARTS.items():
        for c, ix, iy in sys.terms[k]:
            for b, j in parts:
                add(f[:, ix, :, b], alpha * c, iy, hw[j])

    # M_I goes straight into J^T.  M_1 and M_2 take the place of yt, block by
    # block, as its two halves: one product then applies D1_x^T and D2_x^T.
    jt = np.empty((n, n))
    np.copyto(jt, sys.h4.T)
    for i, rows in enumerate(lines):
        z = yt[i].reshape(2 * ny, n)
        _matmul(f[i, 0].reshape(ny, 2 * ny), z, out=jt[rows], beta=1.0)
        z[...] = _matmul(f[i, 1:].reshape(2 * ny, 2 * ny), z)
    np.einsum("ajak->ajk", jt.reshape(nx, ny, nx, ny))[...] += d[:, 0]
    np.einsum("igjik->igjk", yt.reshape(nx, 2, ny, nx, ny))[...] += d[:, 1:]
    x_factors = fx[[_D1, _D2]].transpose(2, 1, 0).reshape(nx, 2 * nx)
    _matmul(x_factors, yt.reshape(2 * nx, -1), out=jt.reshape(nx, -1), beta=1.0)
    return jt.T


def l_vectors(sys: AssembledSystem, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic right-hand sides of the in-plane equations for given W."""
    rhs = _inplane_forcing(_products(sys, _check_size(sys, w)))
    return rhs[: sys.n], rhs[sys.n :]


def recover_inplane(
    sys: AssembledSystem, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the linear block system for (U, V) at given W.

    The inverse of the whole block [[H1, H2], [H2, H3]] instead of the
    paper's elimination inverses of its blocks: equivalent whenever those
    exist and well defined whenever the block system itself is regular.
    """
    u, v = _inplane_fields(sys, _products(sys, _check_size(sys, w)))
    return u, v


def residual(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    """Transverse equilibrium residual with the in-plane fields eliminated."""
    hw = _products(sys, _check_size(sys, w))
    return _transverse(sys, hw, _inplane_fields(sys, hw))


def solve_bending(op: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """op W = rhs with each row scaled to unit max-norm first, which lifts the
    auxiliary-point system's rcond from about 1e-19 to 1e-9.  The scaled copy
    is Fortran-ordered, so LAPACK factors it in place: op is copied once."""
    scale = np.abs(op).max(axis=1)
    scale[scale == 0] = 1.0  # a zero row stays zero, and the LU reports it singular
    try:
        return solve(np.divide(op, scale[:, None], order="F"), rhs / scale, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular bending operator") from exc


def linear_solve(sys: AssembledSystem) -> np.ndarray:
    """Small-deflection limit H4 W = load, the Newton start, by ``solve_bending``."""
    return solve_bending(sys.h4, sys.load)


def coupled_residual(
    sys: AssembledSystem, w: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the full three-field system at given (W, U, V).

    Used to confirm that the decoupled solve loses nothing: a converged W
    with its recovered in-plane fields must satisfy all three equations.
    """
    w = _check_size(sys, w)
    n = sys.n
    hw = _products(sys, w)
    rhs = _inplane_forcing(hw)
    uv = np.stack([u, v])
    (h1u, h1v), (h2u, h2v), (h3u, h3v) = _products(sys, uv, slice(0, 3))
    r1 = h1u + h2v + rhs[:n]
    r2 = h2u + h3v + rhs[n:]
    return r1, r2, _transverse(sys, hw, uv)


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


def full_grid(bcx: BoundaryOperatorSet, bcy: BoundaryOperatorSet, f) -> np.ndarray:
    """Stacked interior field f on the full grid, boundary conditions built
    back in: R_x F R_y^T with F the (x, y) array of f and R the recovery maps."""
    return bcx.recovery @ f.reshape(bcx.n_interior, bcy.n_interior) @ bcy.recovery.T


def recover_fields(
    sys: AssembledSystem,
    w: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
) -> SolutionField:
    """Map stacked interior unknowns to physical full-grid fields."""
    w = _check_size(sys, w)
    w_full, u_full, v_full = (full_grid(sys.bcx, sys.bcy, f) for f in (w, u, v))
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
