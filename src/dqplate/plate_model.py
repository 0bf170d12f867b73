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

The system is solved on the symmetric quarter.  Every accepted case is
symmetric under x -> 1 - x and y -> 1 - y (uniform load, one support kind
on all four edges, axis-aligned orthotropy, symmetric grids), so W is even
in x and y, U odd in x and even in y, and V even in x and odd in y.  Each
direction keeps the first half of its interior nodes plus the center node
when their count is odd, and each 1-D factor X is folded into S X P_p
(``fold``; the even-odd decomposition of differentiation matrices,
Solomonoff, J. Comput. Phys. 98 (1992) 174).  Every field is a vector over
the quarter's nodes, zero on the center line where its parity makes it
vanish, so the elementwise products stay pointwise; ``recover_fields``
mirrors a field back with its parity's signs.

Each H_k is a sum of at most three Kronecker products c kron(X, Y) of 1-D
folded matrices and is kept only as these terms, every product H_k Z going
through the 1-D factors (sum factorization); only H4 and the in-plane block
B, which LAPACK factors, are made dense by ``kron``, B only on the unknowns
that parity leaves live.  The terms do not depend on the grid: the spec's
material derives them once, with alpha and the betas (``derive_material``).
``_FORCING`` lists the in-plane right-hand side's products (A W) o (B W),
and ``_evaluation`` the three transverse terms c (S W) o e.  ``evaluate``
forms them at one W once, as an ``Evaluation``: every H_k W in one call,
then H7 and H8, single Kronecker terms, on U and V in one product each; the
coupled residual shares this from explicit (U, V).
The Jacobian reads an evaluation and differentiates it into row-scaled (SJT)
operator copies, their coefficients in one table, through the 1-D factors
and the residual's in-plane inverse, each stage one product call.  LAPACK
and 2-D products run in scipy's BLAS, stacks of them (one per x-line or
y-point) in numpy's matmul (``_matmul``), every dense solve in ``lu_solve``.

Operator roles: H1/H3 are the in-plane stiffness blocks of the x/y
equilibrium equations, H2 the mixed-derivative coupling block, H4 the
scaled bending operator, H5/H6 the bending-curvature weights entering the
membrane forces, H7/H8 the scaled first-derivative maps along x and y.  The
name ``H_k`` is the operator's position in its terms, in ``x_mix`` and in
every array of all H_k W, in the order the residual reads the rows: the
stress rows H5, H6, H2, the in-plane rows H1, H3, the strain rows H7, H8,
then H4, so that each group is one slice.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgWarning, blas, lapack

from . import bc_builder, dq_core
from .bc_builder import BC_KINDS, CLAMPED, BoundaryOperatorSet
from .dq_core import CHEBYSHEV, GRID_KINDS, UNIFORM


class AssemblyError(ValueError):
    """Operator assembly failed or inputs are incompatible."""


class DecouplingError(RuntimeError):
    """The in-plane block system is numerically singular."""


class SpecError(ValueError):
    """An input that breaks one of its rules: ``field`` breaks ``rule``.  The
    field is one of a PlateSpec ("material" for the elastic constants
    together), of newton_solver.SolverOptions, or "loads" for a load ladder.
    The message is "field rule", or the rule alone for the material, whose
    rule names it."""

    def __init__(self, field: str, rule: str):
        super().__init__(rule if field == "material" else f"{field} {rule}")
        self.field, self.rule = field, rule


@dataclass(frozen=True)
class PlateSpec:
    """Physical description of one plate case.

    Lengths and moduli in any consistent unit system; ``bc`` applies to all
    four edges.  ``nx``/``ny`` are grid point counts per direction.  Every
    rule on a plate, its material and its grid is checked here, and a
    broken one raises SpecError.  ``material`` is the DerivedMaterial that
    the check derives, operator coefficients included, kept for assembly,
    the residual, the Jacobian and the linear references.
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
    material: DerivedMaterial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "h", "e1", "e2", "g12", "q"):
            if not is_finite(getattr(self, name)):
                raise SpecError(name, "must be finite")
        for name in ("a", "b", "h", "e1", "e2", "g12"):
            if getattr(self, name) <= 0:
                raise SpecError(name, "must be positive")
        if not 0 <= self.nu12 < 1:
            raise SpecError("nu12", "must lie in [0, 1)")
        for name, kinds in (("bc", BC_KINDS), ("grid_kind", GRID_KINDS)):
            if getattr(self, name) not in kinds:
                raise SpecError(name, f"must be one of {kinds}, got {getattr(self, name)!r}")
        top = dq_core.MAX_UNIFORM_POINTS if self.grid_kind == UNIFORM else dq_core.MAX_POINTS
        for name in ("nx", "ny"):
            npts = getattr(self, name)
            if isinstance(npts, (float, np.floating)) and float(npts).is_integer():
                npts = int(npts)
            if not isinstance(npts, (int, np.integer)):  # a string is no size
                shown = npts if isinstance(npts, (float, np.floating)) else type(npts).__name__
                raise SpecError(name, f"must be an integer, got {shown}")
            npts = int(npts)  # an int too large for a float fails the range
            object.__setattr__(self, name, npts)
            if not 5 <= npts <= top:
                # a huge int is not shown: it may be too long to print at all
                shown = f", got {npts}" if abs(npts) < 10**6 else ""
                raise SpecError(name, f"must be in [5, {top}] on a {self.grid_kind} grid{shown}")
        if self.bc == CLAMPED and self.nx == self.ny == 5:
            # the one interior node, the center, carries no membrane action
            raise SpecError("nx", "must not be 5 on a clamped plate with ny = 5")
        for name in _SCALES:  # stored as floats, whose overflow derive_material catches
            if type(getattr(self, name)) is not float:  # numpy's would warn instead
                object.__setattr__(self, name, float(getattr(self, name)))
        # derive_material holds the reciprocity and float-range rules
        object.__setattr__(self, "material", derive_material(self))

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
        fields = dict(
            a=a,
            b=a if b is None else b,
            h=h,
            e1=e,
            e2=e,
            nu12=nu,
            bc=bc,
            q=q,
            nx=nx,
            ny=ny,
            grid_kind=grid_kind,
        )
        cls(g12=e, **fields)  # checked with g12 = e: G = E / (2 (1 + nu)) fails at nu = -1
        return cls(g12=e / (2.0 * (1.0 + nu)), **fields)


@dataclass(frozen=True)
class DerivedMaterial:
    """Rigidities, coupling constants and operator coefficients of a plate spec.

    d1/d2 are the principal bending rigidities, d3 the effective twisting
    rigidity entering the mixed bending term, dk the pure torsional part,
    c the modulus on the mixed in-plane derivative.  mu = 1 - nu12 * nu21.
    ``load`` is the transverse equation's uniform load, q a^4 / (D1 h).
    ``terms[H_k]`` gives H_k as its Kronecker terms (c, ix, iy); ``alpha``
    and the ``betas``, one per stress row H5, H6, H2 as a (3, 1) block, scale
    the transverse terms (see ``_coefficients``).
    """

    nu21: float
    mu: float
    d1: float
    d2: float
    d3: float
    dk: float
    c: float
    load: float
    terms: tuple = field(repr=False)
    alpha: float
    betas: np.ndarray = field(compare=False)  # an ndarray has no one truth value


def is_finite(x) -> bool:
    """math.isfinite, false for an int beyond the float range, where it raises."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


# The plate's numbers, whose sizes the derived constants take (derive_material).
_SCALES = ("a", "b", "h", "e1", "e2", "nu12", "g12", "q")
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def derive_material(spec: PlateSpec) -> DerivedMaterial:
    """Derived elastic constants.  PlateSpec refuses mu <= 0 here, before mu
    divides, and a plate that takes a constant assembly derives out of the
    float range: the rigidities, the operator coefficients, alpha, the betas,
    the load scale and its cube (the order of the residual's cubic terms at
    the linear start) must each be finite and zero or a normal float, as
    ``_invert_inplane``'s row scaling breaks on a subnormal row.  The refusal
    names the plate constant furthest from 1 in magnitude, the likeliest cause."""
    nu21 = spec.nu12 * spec.e2 / spec.e1
    mu = 1.0 - spec.nu12 * nu21
    if mu <= 0:
        raise SpecError("material", f"1 - nu12*nu21 = {mu:.6g} must be positive")
    try:  # Python floats raise these where numpy's would give inf and warn
        h3 = spec.h**3
        d1 = spec.e1 * h3 / (12.0 * mu)
        d2 = spec.e2 * h3 / (12.0 * mu)
        dk = spec.g12 * h3 / 12.0
        d3 = nu21 * d1 + 2.0 * dk
        c = spec.nu12 * spec.e2 + mu * spec.g12
        load = spec.q * spec.a**4 / (d1 * spec.h)
        terms, alpha, betas = _coefficients(spec, nu21, mu, d1, d2, d3, c)
        derived = [nu21, d1, d2, dk, d3, c, alpha, *betas, abs(load), abs(load) ** 3]
        derived += [coef for op_terms in terms for coef, _, _ in op_terms]
    except (OverflowError, ZeroDivisionError):
        derived = [math.inf]
    # all finite (else their sum is not) and each zero or a normal float
    if not (math.isfinite(sum(derived)) and min(filter(None, derived)) >= _TINY):
        size = {name: abs(math.log(abs(getattr(spec, name)))) for name in _SCALES
                if getattr(spec, name)}
        raise SpecError(
            max(size, key=size.get),
            "takes a derived constant (rigidity, operator coefficient, alpha or "
            "load scale) out of the float range",
        )
    return DerivedMaterial(nu21=nu21, mu=mu, d1=d1, d2=d2, d3=d3, dk=dk, c=c, load=load,
                           terms=terms, alpha=alpha, betas=np.array(betas)[:, None])


_ID, _D1, _D2, _D4 = range(4)  # factor indices: identity, derivative orders
EVEN, ODD = 0, 1
# Mirror parities (x, y) of the fields W, U and V.
PARITY_W, PARITY_U, PARITY_V = (EVEN, EVEN), (ODD, EVEN), (EVEN, ODD)
# [p, k]: factor k maps a line of parity p to an odd one (D1 flips parity).
_ODD_RESULT = np.array([[False, True, False, False], [True, False, True, True]])


def factor_stack(mats) -> np.ndarray:
    """The 1-D factors X of one direction: identity and the ``first``,
    ``second`` and ``fourth`` matrices of ``mats``.  A Kronecker term (c, ix,
    iy) is c kron(X[ix], Y[iy]), X on the x index, Y on the y index."""
    return np.stack([np.eye(len(mats.first)), mats.first, mats.second, mats.fourth])


def mirror_maps(m: int) -> np.ndarray:
    """P_even and P_odd, (2, m, m - m // 2): a line of m nodes from its
    first half plus the center node, mirrored with the parity's sign.  An
    odd line is zero on the center node, so P_odd ignores that entry."""
    h, half = m // 2, m - m // 2
    p = np.zeros((2, m, half))
    p[:, :half] = np.eye(half)
    p[ODD, h:half] = 0.0
    i = np.arange(h)
    p[EVEN, m - 1 - i, i] = 1.0
    p[ODD, m - 1 - i, i] = -1.0
    return p


def fold(mats) -> np.ndarray:
    """The factors of ``factor_stack(mats)`` folded onto half a line,
    (2, 4, k, k) with k = m - m // 2: S X P_p for each operand parity p, S
    keeping the first k rows.  A result that is odd is set to zero on the
    center node, its exact value; the full-grid factors give rounding there.
    """
    x = factor_stack(mats)
    m = len(x[0])
    half = m - m // 2
    folded = x[:, :half] @ mirror_maps(m)[:, None]
    if m % 2:
        folded[_ODD_RESULT, half - 1] = 0.0
    return folded


H5, H6, H2, H1, H3, H7, H8, H4 = range(8)  # the operators' positions


def _coefficients(spec: PlateSpec, nu21, mu, d1, d2, d3, c) -> tuple:
    """The scalars ``derive_material`` derives from a plate and its constants:
    the Kronecker terms of H1..H8, each at its name's position, alpha, and
    the betas, the coefficient of each transverse term.

    Aspect-ratio powers follow from mapping the plate to the unit square;
    the transverse equation is normalized by the x bending rigidity, so its
    load is ``DerivedMaterial.load``."""
    a, b, h = spec.a, spec.b, spec.h
    rab, ex, ey = a / b, (h / a) ** 2, (h / b) ** 2
    shear = mu * spec.g12
    terms = (
        ((spec.e1 * ex, _D2, _ID), (spec.nu12 * spec.e2 * ey, _ID, _D2)),    # H5
        ((spec.e2 * ey, _ID, _D2), (nu21 * spec.e1 * ex, _D2, _ID)),         # H6
        ((c, _D1, _D1),),                                                    # H2
        ((spec.e1, _D2, _ID), (shear * rab**2, _ID, _D2)),                   # H1
        ((spec.e2, _ID, _D2), (shear * rab**-2, _D2, _ID)),                  # H3
        ((ex, _D1, _ID),),                                                   # H7
        ((ey, _ID, _D1),),                                                   # H8
        ((1.0, _D4, _ID), ((2.0 * d3 / d1) * rab**2, _D2, _D2),              # H4
         ((d2 / d1) * rab**4, _ID, _D4)),
    )
    alpha = a**4 / (mu * d1 * h)
    betas = ((a / h) ** 2, (b / h) ** 2, 2.0 * mu * spec.g12 / c)
    return terms, alpha, betas


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.kron of two matrices, bitwise, as one broadcast product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def kron_sum(terms, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Dense sum of the Kronecker terms over the factor stacks ``fx``, ``fy``."""
    out = 0.0  # the first term adds a new array, the others add in place
    for c, ix, iy in terms:
        out += kron(c * fx[ix], fy[iy])
    return out


def fold_bending(mat: DerivedMaterial, xmats, ymats) -> tuple:
    """The folded factors (X, Y) of x's and y's matrices, one fold if they are
    one set, and H4, dense: for ``assemble`` and both linear centers alike."""
    fx = fold(xmats)
    fy = fx if ymats is xmats else fold(ymats)
    return fx, fy, kron_sum(mat.terms[H4], fx[EVEN], fy[EVEN])


@dataclass(frozen=True)
class AssembledSystem:
    """The operators of one plate case on the symmetric quarter, each kept
    once, as Kronecker terms.

    ``n`` is the number of quarter nodes, the length of every field vector
    W, U and V, an array of ``quarter_shape``, row-major.  The terms
    (c, ix, iy) of H_k, alpha, the betas and the load are the spec's
    material's (``spec.material.terms[H_k]``); the terms act over the folded
    factor stacks ``factors`` = (X, Y), where X[p] holds the factors for an
    operand of x parity p (see ``fold``).  ``x_mix`` and ``y_all`` lay the
    terms out for ``_products``, per parity: every Y^T side by side, and per
    operator the sums of c X over (x-line, y factor), the rows of Z Y_all;
    ``strain_x`` (c7 D1_x) and ``strain_y`` (D1_y^T) lay out H7 and H8 per
    field for ``_evaluation``, ``jac_table`` the terms for ``jacobian`` with
    the y factors (see ``_jacobian_table``), built once per system.  H4,
    written from its terms as ``h4``, serves the linear solve and is the
    Jacobian's base.
    ``inplane_inverse`` is B^-1, formed once on the live unknowns and laid
    out on all 2n, zero on U's and V's center lines; ``inplane_rcond`` is
    LAPACK's estimate of B's reciprocal condition number in the infinity
    norm, its rows scaled to unit size (see ``_invert_inplane``).
    """

    spec: PlateSpec
    bcx: BoundaryOperatorSet
    bcy: BoundaryOperatorSet
    h4: np.ndarray
    factors: tuple = field(repr=False)
    x_mix: np.ndarray = field(repr=False)
    y_all: np.ndarray = field(repr=False)
    strain_x: np.ndarray = field(repr=False)
    strain_y: np.ndarray = field(repr=False)
    jac_table: np.ndarray = field(repr=False)
    n: int
    quarter_shape: tuple[int, int]
    inplane_inverse: np.ndarray = field(repr=False)
    inplane_rcond: float


def _invert_inplane(b: np.ndarray) -> tuple[np.ndarray, float]:
    """B^-1 of a C-ordered B, and LAPACK's rcond of S B, B with its rows
    scaled by powers of two to max-norms in [1/2, 1).  Below lu_solve's
    warning bound B is refused; scaled, that rule ignores the units and the
    aspect ratio, which weigh U's rows against V's, and S rounds nothing.  B^T
    is B's Fortran-ordered view: one buffer holds S B, the LU of B^T S, then
    S^-1 B^-T, whose rows S scales back to B^-T."""
    scale = np.ldexp(1.0, -np.frexp(np.maximum(b.max(axis=1), -b.min(axis=1)))[1])
    b *= scale[:, None]
    lu, piv, info, rcond = _lu_factor(b.T)
    if info > 0 or not rcond >= lapack.dlamch("E"):  # a NaN B gives a NaN rcond
        raise DecouplingError(
            f"in-plane block system is numerically singular (rcond {rcond:.3e})"
        )
    lwork, _ = lapack.dgetri_lwork(len(lu))
    x, info = lapack.dgetri(lu, piv, lwork=int(lwork), overwrite_lu=True)
    if info != 0:
        raise ValueError(f"dgetri: info {info}")
    x *= scale[:, None]
    return x.T, rcond


def assemble(
    spec: PlateSpec, bcx: BoundaryOperatorSet, bcy: BoundaryOperatorSet
) -> AssembledSystem:
    """Assemble the operators' Kronecker terms on the quarter from
    per-direction reduced matrices, H4, and the in-plane inverse.

    Kronecker products place the x-direction matrices on the row index and
    the y-direction ones on the column index of the row-stacked fields; the
    terms are the spec's material's.  H4 and the in-plane block are written
    from the terms, and the block is inverted here.
    """
    if bcx.bc_kind != spec.bc or bcy.bc_kind != spec.bc:
        raise AssemblyError("boundary operator kind does not match the spec")
    if bcx.grid.n != spec.nx or bcy.grid.n != spec.ny:
        raise AssemblyError(
            f"operator grids ({bcx.grid.n}, {bcy.grid.n}) do not match the "
            f"spec grids ({spec.nx}, {spec.ny})"
        )
    fx, fy, h4 = fold_bending(spec.material, bcx, bcy)
    nx, ny = fx.shape[-1], fy.shape[-1]
    n = nx * ny
    terms = spec.material.terms
    coef = np.zeros((8, 4, 4))  # [k, ix, iy]: c of the term c kron(X[ix], Y[iy]) of H_k
    for k, op_terms in enumerate(terms):
        for c, ix, iy in op_terms:
            coef[k, ix, iy] = c
    x_mix = _matmul(fx.transpose(0, 2, 3, 1).reshape(2, 1, -1, 4), coef)  # [p, k, (i, j), iy]
    ((c7, i7, _),), ((_, _, j8),) = terms[H7], terms[H8]  # c7 kron(D1, I), c8 kron(I, D1)
    strain_x = np.zeros((2, nx, 2, nx))  # block diagonal, U's parity then V's
    for f, (px, _) in enumerate((PARITY_U, PARITY_V)):
        strain_x[f, :, f] = c7 * fx[px, i7]

    # B = [[H1, H2], [H2, H3]], each column block folded by its field's parity,
    # on the live unknowns only: U is zero on its center x-line and V on its
    # center y-line, so field f lives on its first live[f] (x-lines, y-points).
    live = ((bcx.n_interior // 2, ny), (nx, bcy.n_interior // 2))
    cut = live[0][0] * ny
    at = (slice(cut), slice(cut, None))  # U's and V's unknowns in B
    blocks = ((H1, 0, 0), (H2, 0, 1), (H2, 1, 0), (H3, 1, 1))  # H_k at rows r, columns c
    block = np.empty((cut + nx * live[1][1],) * 2)
    for k, r, c in blocks:
        (rx, ry), (cx, cy), (px, py) = live[r], live[c], (PARITY_U, PARITY_V)[c]
        block[at[r], at[c]] = kron_sum(terms[k], fx[px, :, :rx, :cx], fy[py, :, :ry, :cy])
    b_inv, rcond = _invert_inplane(block)
    inverse = np.zeros((2, nx, ny, 2, nx, ny))  # B^-1, zero on the center lines
    for _, r, c in blocks:
        (rx, ry), (cx, cy) = live[r], live[c]
        inverse[r, :rx, :ry, c, :cx, :cy] = b_inv[at[r], at[c]].reshape(rx, ry, cx, cy)

    return AssembledSystem(
        spec, bcx, bcy,
        h4=h4,
        factors=(fx, fy),
        x_mix=x_mix.reshape(2, 8, nx, -1),
        y_all=fy.transpose(0, 3, 1, 2).reshape(2, ny, -1),
        strain_x=strain_x.reshape(2 * nx, 2 * nx),
        strain_y=np.concatenate((fy[PARITY_U[1], j8].T, fy[PARITY_V[1], j8].T), axis=1),
        jac_table=_jacobian_table(spec.material, fy[EVEN]),
        n=n,
        quarter_shape=(nx, ny),
        inplane_inverse=inverse.reshape(2 * n, 2 * n),
        inplane_rcond=rcond,
    )


def reduced_operators(spec: PlateSpec) -> tuple[BoundaryOperatorSet, BoundaryOperatorSet]:
    """Grid, weighting matrices and boundary reduction of x, then of y: one
    set serves both when nx == ny, as the kind and the support are shared."""
    grids = {m: dq_core.make_grid(m, spec.grid_kind) for m in {spec.nx, spec.ny}}
    weights = {m: dq_core.diff_matrices(grid) for m, grid in grids.items()}
    sets = {m: bc_builder.build_operators(dm, spec.bc) for m, dm in weights.items()}
    return sets[spec.nx], sets[spec.ny]


def build_system(spec: PlateSpec) -> AssembledSystem:
    """Grids, weighting matrices, boundary reduction, assembly in one call."""
    return assemble(spec, *reduced_operators(spec))


def with_load(sys: AssembledSystem, q: float) -> AssembledSystem:
    """Copy of an assembled system under a different pressure.

    Only the spec's load depends on q, so load sweeps reuse the operators
    and the in-plane inverse, formed once for all loads.
    """
    return replace(sys, spec=replace(sys.spec, q=q))


def _check_size(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (sys.n,):
        raise ValueError(f"expected stacked vector of length {sys.n}, got {w.shape}")
    return w


def _matmul(a: np.ndarray, b: np.ndarray, out=None, beta=0.0) -> np.ndarray:
    """a @ b (+ beta out, written into ``out`` when given): two C-ordered
    matrices in scipy's BLAS, where LAPACK runs, two stacks (beta 0) in numpy's
    matmul, each item small enough up to N = 31 to run on one thread; only a
    threaded call in one pool stalls the next call in the other."""
    if a.ndim > 2:
        return np.matmul(a, b, out=out)
    if out is None:
        return blas.dgemm(1.0, b.T, a.T).T
    return blas.dgemm(1.0, b.T, a.T, beta=beta, c=out.T, overwrite_c=True).T


def _products(sys: AssembledSystem, z: np.ndarray, parity, ops=slice(None)) -> np.ndarray:
    """H_k z for the operators ``ops`` (all eight by default) on one field z
    of the given parity: a (k, n) array.

    Sum factorization: one product applies every y factor to every x-line,
    one more every operator's x factors with its term coefficients."""
    px, py = parity
    nx, ny = sys.quarter_shape
    zy = _matmul(z.reshape(nx, ny), sys.y_all[py])  # [a, (iy, j)]: Z Y_iy^T, rows (a, iy)
    x_mix = sys.x_mix[px, ops]
    return _matmul(x_mix.reshape(-1, x_mix.shape[-1]), zy.reshape(-1, ny)).reshape(-1, sys.n)


# The in-plane right-hand side [l1; l2]: each block a sum of products
# (A W) o (B W), given as pairs of operator names, which ``_inplane_forcing``
# reads as row views.  A product's W-derivative is the SJT pair
# diag(B W) A + diag(A W) B.
_FORCING = (((H7, H1), (H8, H2)), ((H8, H3), (H7, H2)))


def _jacobian_table(mat: DerivedMaterial, fy: np.ndarray) -> np.ndarray:
    """The Jacobian's coefficients c[X, slot, Y, source] over the factors I,
    D1, D2 and the sources H_j W (at position H_j), e1, e2, e3, q7 and q8 (see
    ``jacobian``), contracted with the y factors ``fy``: (ny, 3 ny, 3, 13), at
    [l, (r, slot), X, source] the sum over Y of Y[l, r] c[X, slot, Y, source].
    A part a diag(v) H_k in a slot adds a c at [X, slot, Y, v] for each term
    c kron(X, Y) of H_k.  The parts: alpha diag(H_j W) H_k in yt's half b for
    each (H_j W) o (H_k W) of block b of ``_FORCING``; in the block diagonal,
    -alpha c diag(e) H_k for each transverse term c (H_k W) o e, c in
    ``betas``, -alpha diag(q7) H7 and -alpha diag(q8) H8, with ``mat``'s terms,
    alpha and betas.  The load enters nowhere: ``with_load`` copies share it."""
    alpha, betas = mat.alpha, (*mat.betas[:, 0], 1.0, 1.0)
    parts = [(j, b, k, alpha) for b, block in enumerate(_FORCING) for pair in block
             for j, k in (pair, pair[::-1])]
    parts += [(8 + s, 2, k, -alpha * c)
              for s, (c, k) in enumerate(zip(betas, (H5, H6, H2, H7, H8)))]
    at, coef = zip(*[(((iy * 3 + slot) * 3 + ix) * 13 + source, a * c)
                     for source, slot, k, a in parts for c, ix, iy in mat.terms[k]])
    table = np.bincount(at, coef, minlength=351).reshape(3, -1)  # [Y, (slot, X, source)]
    table = _matmul(fy[:3].reshape(3, -1).T, table)  # [(l, r), (slot, X, source)]
    return table.reshape(len(fy[0]), -1, 3, 13)


def _inplane_forcing(hw: np.ndarray) -> np.ndarray:
    """In-plane right-hand side [l1; l2], ``_FORCING`` on row views of H_k W."""
    return hw[H7:H8 + 1] * hw[H1:H3 + 1] + hw[H8:H7 - 1:-1] * hw[H2]


# The residual's evaluation chain at one W, each piece formed once by
# ``evaluate``: W, the products H_k W (8, n), the in-plane fields [U; V]
# (2, n), the strains e_k and p_k = c_k H_k W of the transverse terms c_k
# (H_k W) o e_k, and r: 17 n doubles besides W, keeping no stage temporary.
Evaluation = namedtuple("Evaluation", "w hw uv strains p r")


def _evaluation(sys: AssembledSystem, w: np.ndarray, hw: np.ndarray, uv: np.ndarray):
    """The Evaluation at W from its products ``hw`` and in-plane fields ``uv``,
    zero on their center lines.  [U; V] as 2 nx x-lines takes H7 in one product
    (``strain_x``) and H8 / c8 in one more, whose diagonal blocks it keeps."""
    nx, ny = sys.quarter_shape
    mat = sys.spec.material
    ((c8, _, _),) = mat.terms[H8]
    lines = uv.reshape(2 * nx, ny)
    h7u, h7v = _matmul(sys.strain_x, lines).reshape(2, sys.n)
    h8 = _matmul(lines, sys.strain_y).reshape(2, nx, 2, ny)
    h8 *= c8  # after the product, rounding as ``_products`` does
    half_sq = np.square(hw[H7:H8 + 1])
    half_sq *= 0.5
    e3 = (h8[0, :, 0] + h7v.reshape(nx, ny)).ravel()
    e3 += hw[H7] * hw[H8]
    e = (h7u + half_sq[0], (h8[1, :, 1] + half_sq[1].reshape(nx, ny)).ravel(), e3)
    p = mat.betas * hw[H5:H2 + 1]
    r = hw[H4] - mat.alpha * (p[0] * e[0] + p[1] * e[1] + p[2] * e[2]) - mat.load
    return Evaluation(w, hw, uv, e, p, r)


def evaluate(sys: AssembledSystem, w: np.ndarray) -> Evaluation:
    """The residual's evaluation chain at W (see Evaluation), H_k W in one
    ``_products`` call.  U and V solve B [U; V] = -[l1; l2] as one product
    with B^-1, without a finite check: a non-finite W gives non-finite fields,
    which Newton reports.  The inverse of the whole block [[H1, H2], [H2, H3]]
    instead of the paper's elimination inverses of its blocks: equivalent
    whenever those exist and well defined whenever the block system is regular."""
    w = _check_size(sys, w)
    hw = _products(sys, w, PARITY_W)
    uv = blas.dgemv(-1.0, sys.inplane_inverse.T, _inplane_forcing(hw).ravel(), trans=1)
    return _evaluation(sys, w, hw, uv.reshape(2, sys.n))


def jacobian(sys: AssembledSystem, x) -> np.ndarray:
    """Exact derivative of ``residual`` with respect to W, Fortran-ordered, at
    an evaluation ``x`` of ``sys``, which it only reads, or at a W it evaluates.

    With p_k = c_k S_k W for the transverse terms c_k (S_k W) o e_k,

        J = H4 - alpha [sum_k diag(c_k e_k) S_k + diag(q7) H7 + diag(q8) H8]
            + alpha Y dl/dW,
        q7 = p1 o H7 W + p3 o H8 W,   q8 = p2 o H8 W + p3 o H7 W,
        Y = [diag(p1) H7 + diag(p3) H8, diag(p3) H7 + diag(p2) H8] B^-1,

    where the last term is -alpha sum_k diag(p_k) (de_k/dU dU/dW + de_k/dV
    dV/dW) with [dU/dW; dV/dW] = -B^-1 dl/dW.  H7 and H8 are applied to
    B^-1 from the left, and dl/dW's operators (H7, H8, H1, H2, H3) to the
    column-scaled Y from the right, all through their 1-D factors (sum
    factorization): O(n^2 N) work, no n^3 product or solve.  Every operator
    acts on W, with even factors, except those applied to B^-1's rows, which
    act on U or V and take the factors of that field's parity.

    With the x index outermost in a row-stacked field, kron(X, I) Z is one
    product of X with Z seen as N_x rows, and kron(I, Y) Z is Y times every
    x-line block of Z in one stacked product, a row scaling folded in.  J is
    built as J^T, C-ordered, so that the right-hand products become
    left-hand ones, and is returned in Fortran order, ready to be factored
    in place.
    """
    # an evaluation made here is not kept: its U, V and r are freed at once
    _, hw, _, strains, (p1, p2, p3), _ = x if isinstance(x, Evaluation) else evaluate(sys, x)
    n, (nx, ny) = sys.n, sys.quarter_shape

    # Y = diag(p1) H7 B_U + diag(p3) H7 B_V + diag(p3) H8 B_U + diag(p2) H8 B_V
    # for the row blocks B_U, B_V of B^-1: H7 = c7 kron(A_x, I) in one product
    # per block, row-scaled after, H8 = c8 kron(I, A_y) stacked over x-lines,
    # its row scaling folded into A_y.  The identity stands for the folded one
    # of U's x and V's y parity, as B_U and B_V are zero on those center lines.
    fx, fy = sys.factors
    ((c7, i7, _),), ((c8, _, j8),) = sys.spec.material.terms[H7:H8 + 1]
    b_u, b_v = sys.inplane_inverse.reshape(2, nx, ny, 2 * n)
    y, t = np.empty((nx, ny, 2 * n)), np.empty((nx, ny, 2 * n))
    _matmul(c7 * fx[PARITY_U[0], i7], b_u.reshape(nx, -1), out=y.reshape(nx, -1))
    _matmul(c7 * fx[PARITY_V[0], i7], b_v.reshape(nx, -1), out=t.reshape(nx, -1))
    y *= p1.reshape(nx, ny, 1)
    t *= p3.reshape(nx, ny, 1)
    y += t
    for p, (_, py), b in ((p3, PARITY_U, b_u), (p2, PARITY_V, b_v)):
        y += _matmul((c8 * p).reshape(nx, ny, 1) * fy[py, j8], b, out=t)
    # yt[i, b]: x-line i's block of Y_b^T, for Y = [Y_0, Y_1] acting on [l1; l2]
    yt = t.reshape(nx, 2 * ny, n)
    np.copyto(yt.reshape(nx, 2, ny, n), y.reshape(n, 2, nx, ny).transpose(2, 1, 3, 0))
    del y

    # J^T = H4^T + M_I + kron(D1_x^T, I) M_1 + kron(D2_x^T, I) M_2, one M per
    # x factor X of the operators' terms (only H4 uses D4).  On x-line block
    # i, M_X is f[i] times yt[i]'s two halves plus the block diagonal d[i],
    # each a sum over the y factors Y of Y^T diag(v_i) (diag(v_i) for Y = I),
    # v the sources combined by the table, stacked over the y-points.  M_I
    # goes into J^T, M_1 and M_2 in turn into m, to which D1_x^T or D2_x^T
    # applies: one such buffer at a time keeps the peak under 5 n^2.
    q7, q8 = p1 * hw[H7] + p3 * hw[H8], p2 * hw[H8] + p3 * hw[H7]
    sources = np.concatenate((hw, (*strains, q7, q8))).reshape(13, nx, ny)
    sources = sources.transpose(2, 0, 1).copy()  # [l, source, i]
    g = np.empty((nx, ny, 3, ny))  # [i, r, slot, l]
    g_lrsi = g.transpose(3, 1, 2, 0).reshape(ny, -1, nx)  # a view: r and slot merge
    f, d = g[..., :2, :].reshape(nx, ny, 2 * ny), g[..., 2, :]
    jt, m = np.empty((n, n)), np.empty((n, n))
    jt_d, m_d = (np.einsum("ajak->ajk", a.reshape(nx, ny, nx, ny)) for a in (jt, m))
    for k, out, diag in ((_ID, jt, jt_d), (_D1, m, m_d), (_D2, m, m_d)):
        _matmul(sys.jac_table[:, :, k], sources, out=g_lrsi)
        _matmul(f, yt, out=out.reshape(nx, ny, n))
        diag += d
        if k != _ID:
            _matmul(fx[EVEN, k].T, m.reshape(nx, -1), out=jt.reshape(nx, -1), beta=1.0)
    del m, m_d, yt, t  # first: adding the transposed H4 takes a 64 KB buffer
    jt += sys.h4.T
    return jt.T


def residual(sys: AssembledSystem, w: np.ndarray) -> np.ndarray:
    """Transverse equilibrium residual with the in-plane fields eliminated:
    ``evaluate``'s r."""
    return evaluate(sys, w).r


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """getrf's LU of a, in place if a is Fortran-ordered, its info (> 0 for an
    exact zero pivot) and gecon's estimate of a's 1-norm rcond."""
    anorm = lapack.dlange("1", a)  # with no |a| temporary
    lu, piv, info = lapack.dgetrf(a, overwrite_a=True)
    return lu, piv, info, float(lapack.dgecon(lu, anorm)[0])


def lu_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """a^-1 rhs by ``_lu_factor`` and getrs: a singular a raises LinAlgError,
    an rcond below lamch('E') warns.  A Fortran-ordered a is factored in place."""
    lu, piv, info, rcond = _lu_factor(a)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if rcond < lapack.dlamch("E"):
        warnings.warn(f"ill-conditioned matrix (rcond={rcond:.6g})", LinAlgWarning, stacklevel=2)
    return lapack.dgetrs(lu, piv, rhs)[0]


def solve_bending(op: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """op W = rhs with each row scaled to unit max-norm first, which lifts the
    auxiliary-point system's rcond from about 1e-19 to 1e-9.  The scaled copy
    is Fortran-ordered, so LAPACK factors it in place: op is copied once."""
    scale = np.abs(op).max(axis=1)
    scale[scale == 0] = 1.0  # a zero row stays zero, and the LU reports it singular
    try:
        return lu_solve(np.divide(op, scale[:, None], order="F"), rhs / scale)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("singular bending operator") from exc


def linear_solve(sys: AssembledSystem) -> np.ndarray:
    """Small-deflection limit H4 W = load, the Newton start, by ``solve_bending``."""
    return solve_bending(sys.h4, np.full(sys.n, sys.spec.material.load))


def coupled_residual(
    sys: AssembledSystem, w: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the full three-field system at given (W, U, V).

    Used to confirm that the decoupled solve loses nothing: a converged W
    with its recovered in-plane fields must satisfy all three equations.
    They are evaluated on the quarter with the solver's own products.
    """
    w, u, v = (_check_size(sys, z) for z in (w, u, v))
    hw = _products(sys, w, PARITY_W)
    l1, l2 = _inplane_forcing(hw)
    # not the reversed slice H2:H1 + 1: a GEMM row's rounding depends on its place
    h1u, h2u = _products(sys, u, PARITY_U, [H1, H2])
    h2v, h3v = _products(sys, v, PARITY_V, [H2, H3])
    return h1u + h2v + l1, h2u + h3v + l2, _evaluation(sys, w, hw, np.stack([u, v])).r


@dataclass(frozen=True)
class SolutionField:
    """Converged displacement fields of one solve.

    The stacked vectors are dimensionless (W = w/h, U = u/a, V = v/b) and
    hold each field on the quarter's nodes; the full-grid arrays are
    physical displacements on the tensor grid, mirrored with each field's
    parity and with boundary conditions built back in by the recovery maps.
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


def unfold(bcx: BoundaryOperatorSet, bcy: BoundaryOperatorSet, *fields) -> list:
    """Quarter vectors (F, parity) as full-grid (x, y) arrays: F of parity
    (px, py) becomes R_x P_px F P_py^T R_y^T (mirror maps, then R)."""
    rx = bcx.recovery @ mirror_maps(bcx.n_interior)
    ry = rx if bcy is bcx else bcy.recovery @ mirror_maps(bcy.n_interior)
    return [rx[px] @ f.reshape(rx.shape[-1], -1) @ ry[py].T for f, (px, py) in fields]


def recover_fields(sys: AssembledSystem, w: np.ndarray, u: np.ndarray,
                   v: np.ndarray) -> SolutionField:
    """Map quarter vectors to physical full-grid fields (``unfold``)."""
    w, u, v = (_check_size(sys, z) for z in (w, u, v))
    w_full, u_full, v_full = unfold(sys.bcx, sys.bcy, (w, PARITY_W), (u, PARITY_U), (v, PARITY_V))
    xn, yn = sys.bcx.grid.nodes, sys.bcy.grid.nodes
    spec = sys.spec
    return SolutionField(
        w_stack=w, u_stack=u, v_stack=v,
        w=spec.h * w_full, u=spec.a * u_full, v=spec.b * v_full, x=spec.a * xn, y=spec.b * yn,
        center_deflection_ratio=_interp_center(w_full, xn, yn),
    )
