"""Derived material constants, assembly, residual and Jacobian algebra."""

import math
import re
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from conftest import count_calls, dense_operator
from dimensional_oracle import solve_dimensional
from fullgrid_oracle import FullGrid, mirror, restrict
from dqplate import bc_builder, dq_core, plate_model as pm
from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.dq_core import CHEBYSHEV, UNIFORM
from dqplate.linear_bending import linear_center_delta
from dqplate.newton_solver import fd_jacobian, solve_plate
from dqplate.plate_model import (
    H1,
    H2,
    H3,
    H4,
    H5,
    H6,
    H7,
    H8,
    PARITY_U,
    PARITY_V,
    PARITY_W,
    AssemblyError,
    DecouplingError,
    PlateSpec,
    SpecError,
    assemble,
    build_system,
    coupled_residual,
    derive_material,
    evaluate,
    jacobian,
    linear_solve,
    recover_fields,
    residual,
    with_load,
)


def swap_permutation(n_side):
    """Stacked-index permutation exchanging the two plate directions."""
    p = np.zeros((n_side * n_side, n_side * n_side))
    for i in range(n_side):
        for j in range(n_side):
            p[j * n_side + i, i * n_side + j] = 1.0
    return p


# ---------------------------------------------------------------------------
# material constants
# ---------------------------------------------------------------------------


def test_rigidity_table1_value(table1_ss):
    mat = derive_material(table1_ss)
    np.testing.assert_allclose(mat.d1, 2.1e6 / 11.25, rtol=1e-12)
    np.testing.assert_allclose(mat.d1, 186666.666667, rtol=1e-9)


def test_isotropic_reduction_identities():
    spec = PlateSpec.isotropic(
        a=16.0, h=0.1, e=30e6, nu=0.316, q=1.0, nx=7, ny=7, bc=SIMPLY_SUPPORTED
    )
    mat = derive_material(spec)
    d = 30e6 * 0.1**3 / (12 * (1 - 0.316**2))
    np.testing.assert_allclose(mat.d1, d, rtol=1e-12)
    np.testing.assert_allclose(mat.d2, d, rtol=1e-12)
    np.testing.assert_allclose(mat.d3, d, rtol=1e-12)
    np.testing.assert_allclose(mat.c, 30e6 * (1 + 0.316) / 2, rtol=1e-12)
    np.testing.assert_allclose(mat.c, 19.74e6, rtol=1e-12)


def test_reciprocity_identity(orthotropic_spec):
    mat = derive_material(orthotropic_spec)
    np.testing.assert_allclose(
        mat.nu21 * orthotropic_spec.e1, orthotropic_spec.nu12 * orthotropic_spec.e2,
        rtol=1e-14,
    )


def test_zero_poisson_limit():
    spec = PlateSpec(
        a=1.0, b=1.0, h=0.01, e1=1e6, e2=1e6, nu12=0.0, g12=4e5,
        bc=CLAMPED, q=1.0, nx=7, ny=7,
    )
    mat = derive_material(spec)
    np.testing.assert_allclose(mat.c, spec.g12, rtol=1e-14)
    np.testing.assert_allclose(mat.d3, 2 * mat.dk, rtol=1e-14)


def test_spec_keeps_its_material(orthotropic_spec):
    """The spec keeps the material its rule check derives; a replaced spec
    derives its own, and the material takes no part in equality."""
    assert orthotropic_spec.material == derive_material(orthotropic_spec)
    stiffer = replace(orthotropic_spec, e1=2 * orthotropic_spec.e1)
    assert stiffer.material == derive_material(stiffer) != orthotropic_spec.material
    assert replace(stiffer, e1=orthotropic_spec.e1) == orthotropic_spec


def test_material_owns_the_coefficients(orthotropic_spec, monkeypatch):
    """The operators' Kronecker terms, alpha and the betas are derived once,
    with the spec's material: a build from an existing spec and the
    auxiliary-point center derive none of them again, and the system keeps
    no copy."""
    calls = count_calls(monkeypatch, pm, "_coefficients")
    sys = build_system(orthotropic_spec)
    linear_center_delta(orthotropic_spec)
    assert calls == []
    assert not {"terms", "alpha", "betas"} & {f.name for f in fields(sys)}
    assert orthotropic_spec.material.betas.shape == (3, 1)


def test_invalid_material_rejected():
    """Reciprocity, 1 - nu12 nu21 > 0, is a PlateSpec rule: a spec that breaks
    it is refused when it is constructed, and names the material.  At
    mu = 0 exactly the rule is met before mu divides anything."""
    for nu12, mu in ((0.9, "-2.24"), (0.5, "0")):
        with pytest.raises(SpecError, match=rf"^1 - nu12\*nu21 = {mu} must be positive") as err:
            PlateSpec(
                a=1.0, b=1.0, h=0.01, e1=1e6, e2=4e6, nu12=nu12, g12=4e5,
                bc=CLAMPED, q=1.0, nx=7, ny=7,
            )
        assert err.value.field == "material"


def test_spec_validation():
    good = dict(a=1.0, b=1.0, h=0.01, e1=1e6, e2=1e6, nu12=0.3, g12=4e5,
                bc=CLAMPED, q=1.0, nx=7, ny=7)
    with pytest.raises(ValueError):
        PlateSpec(**{**good, "h": 0.0})
    with pytest.raises(ValueError):
        PlateSpec(**{**good, "nx": 4})
    with pytest.raises(ValueError):
        PlateSpec(**{**good, "bc": "free"})
    with pytest.raises(ValueError):
        PlateSpec(**{**good, "grid_kind": "legendre"})
    with pytest.raises(ValueError, match="nu12"):
        PlateSpec.isotropic(a=1.0, h=0.01, e=1e6, nu=-1.0, q=1.0, nx=7, ny=7, bc=CLAMPED)


@pytest.mark.parametrize(
    "field, value, name",
    [("a", np.nan, "a"), ("e", np.inf, "e1"), ("h", np.inf, "h"),
     ("q", np.nan, "q"), ("q", np.inf, "q")],
)
def test_spec_rejects_non_finite_values(field, value, name):
    args = dict(a=1.0, h=0.01, e=1e6, nu=0.3, q=1.0, nx=7, ny=7, bc=CLAMPED)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        PlateSpec.isotropic(**{**args, field: value})


@pytest.mark.parametrize(
    "changes, name",
    [({"h": 1e200}, "h"), ({"a": 1e100, "b": 1e100}, "a"), ({"h": 1e-200}, "h"),
     ({"q": 1e300}, "q"), ({"e2": 1e-320, "g12": 1e-320}, "e2")],
    ids=["h-cubed-overflows", "a-to-the-4-overflows", "d1-underflows",
         "cubic-terms-overflow", "subnormal-moduli"],
)
def test_spec_refuses_constants_out_of_float_range(changes, name):
    """Finite constants whose derived ones overflow or leave the normal
    floats are refused at construction, naming the most extreme constant.
    Subnormal moduli would give B subnormal rows, whose power-of-two row
    scale overflows, and an all-NaN B^-1."""
    args = dict(a=1.0, b=1.0, h=0.01, e1=1.0, e2=1.0, nu12=0.3, g12=0.4,
                bc=SIMPLY_SUPPORTED, q=1.0, nx=7, ny=7)
    with pytest.raises(SpecError, match=f"^{name} takes a derived constant") as err:
        PlateSpec(**{**args, **changes})
    assert err.value.field == name


def test_spec_limits_uniform_grids():
    """Uniform grids stop at MAX_UNIFORM_POINTS; Chebyshev ones go on to
    MAX_POINTS."""
    top = dq_core.MAX_UNIFORM_POINTS
    args = dict(a=1.0, h=0.01, e=1e6, nu=0.3, q=1.0, bc=SIMPLY_SUPPORTED)
    PlateSpec.isotropic(**args, nx=top, ny=top, grid_kind=UNIFORM)
    PlateSpec.isotropic(**args, nx=dq_core.MAX_POINTS, ny=dq_core.MAX_POINTS)
    for name, (nx, ny) in (("nx", (top + 2, top)), ("ny", (top, top + 2))):
        with pytest.raises(ValueError, match=rf"^{name} must be in \[5, {top}\]"):
            PlateSpec.isotropic(**args, nx=nx, ny=ny, grid_kind=UNIFORM)


def test_spec_refuses_grids_it_cannot_solve():
    """Clamped 5x5 has one interior node, the center, and no membrane action;
    a non-integral size would build a skewed grid.  Clamped 5x9 is solved with
    membrane action, and integral floats and numpy integers are sizes."""
    args = dict(a=100.0, h=1.0, e=2.1e6, nu=0.316, q=300.0, bc=CLAMPED)
    with pytest.raises(SpecError, match="^nx must not be 5 on a clamped plate") as err:
        PlateSpec.isotropic(**args, nx=5, ny=5)
    assert err.value.field == "nx"
    for nx, ny, name in ((7.5, 7, "nx"), (7, 7.5, "ny")):
        with pytest.raises(SpecError, match=f"^{name} must be an integer, got 7.5"):
            PlateSpec.isotropic(**args, nx=nx, ny=ny)
    with pytest.raises(SpecError, match=r"^nx must be in \[5, 31\]") as err:
        PlateSpec.isotropic(**args, nx=10**400, ny=7)  # an int beyond the float range
    assert err.value.field == "nx"
    for npts in (7.0, np.int64(7)):
        spec = PlateSpec.isotropic(**args, nx=npts, ny=npts)
        assert type(spec.nx) is type(spec.ny) is int and spec.nx == spec.ny == 7
    sol = solve_plate(PlateSpec.isotropic(**args, nx=5, ny=9))
    # the linear center at q = 300 is 120.6 on 5x5; 9x9 gives 6.22
    assert sol.report.converged and sol.report.iterations > 0
    assert sol.field.center_deflection_ratio == pytest.approx(6.347, rel=1e-3)


@pytest.mark.parametrize(
    "name, npts, rule",
    [("nx", 10**5000, r"must be in \[5, 31\] on a chebyshev_mapped grid$"),
     ("ny", -10**400, r"must be in \[5, 31\] on a chebyshev_mapped grid$"),
     ("nx", "7", "must be an integer, got str$"),
     ("ny", "x", "must be an integer, got str$"),
     ("nx", None, "must be an integer, got NoneType$")],
    ids=["past-the-digit-limit", "negative-huge", "numeric-string", "string", "none"],
)
def test_spec_refuses_any_grid_size_with_a_short_message(name, npts, rule):
    """A grid size of any value or type is refused with SpecError and a
    message under 100 characters: an int past Python's 4300-digit limit
    cannot be printed, and a string is no size even where float() reads it."""
    sizes = {"nx": 7, "ny": 7, name: npts}
    with pytest.raises(SpecError, match=f"^{name} {rule}") as err:
        PlateSpec.isotropic(a=1.0, h=0.01, e=1e6, nu=0.3, q=1.0, bc=CLAMPED, **sizes)
    assert err.value.field == name and len(str(err.value)) < 100


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_interior_sizes(table1_ss, table1_clamped):
    """7 simply supported and 9 clamped points leave 5 interior nodes per
    line, (7-2)^2 = (9-4)^2 = 25 per field; the quarter keeps 3 per line."""
    for spec in (table1_ss, table1_clamped):
        sys = build_system(spec)
        assert (sys.bcx.n_interior, sys.bcy.n_interior) == (5, 5)
        assert sys.quarter_shape == (3, 3) and sys.n == 9
        for parity in (PARITY_W, PARITY_U, PARITY_V):
            assert mirror(sys, parity).shape == (25, 9)


def test_load_scale_table1(table1_ss):
    sys = build_system(table1_ss)
    np.testing.assert_allclose(sys.spec.material.load, 535.714285714, rtol=1e-9)


def test_zero_pressure_zero_load(table1_ss):
    sys = build_system(replace(table1_ss, q=0.0))
    assert sys.spec.material.load == 0.0


def test_square_isotropic_swap_symmetry(table1_ss):
    sys = build_system(table1_ss)
    h1, h2, h3 = (dense_operator(sys, k) for k in (H1, H2, H3))
    for h in (sys.h4, h1 + h3, h2):  # H4 on the quarter, the others full
        p = swap_permutation(math.isqrt(len(h)))
        np.testing.assert_allclose(p @ h @ p.T, h, rtol=1e-12, atol=1e-9)


FACTOR_GRIDS = {
    "ss-chebyshev-7x9": dict(bc=SIMPLY_SUPPORTED, nx=7, ny=9, grid_kind=CHEBYSHEV),
    "clamped-uniform-9x11": dict(bc=CLAMPED, nx=9, ny=11, grid_kind=UNIFORM),
}


@pytest.mark.parametrize("grid", sorted(FACTOR_GRIDS))
def test_factor_products_match_dense_oracle(grid, orthotropic_spec, rng):
    """Every H_k z through the folded 1-D factors, on a quarter field of each
    parity, against the dense np.kron oracle on the mirrored field, S H_k P z;
    H4 and the in-plane inverse, the two dense matrices, against it as well."""
    sys = build_system(replace(orthotropic_spec, **FACTOR_GRIDS[grid]))
    n, s = sys.n, restrict(sys)
    for parity in (PARITY_W, PARITY_U, PARITY_V):
        z = rng.standard_normal(n)
        got = pm._products(sys, z, parity)
        assert got.shape == (8, n)
        for k in range(len(sys.spec.material.terms)):
            ref = s @ dense_operator(sys, k) @ mirror(sys, parity) @ z
            assert np.abs(got[k] - ref).max() <= 1e-12 * np.abs(ref).max()
        h78 = pm._products(sys, z, parity, slice(H7, H8 + 1))
        assert np.abs(h78 - got[H7:H8 + 1]).max() <= 1e-14 * np.abs(got[H7:H8 + 1]).max()
    h4 = s @ dense_operator(sys, H4) @ mirror(sys, PARITY_W)
    assert np.abs(sys.h4 - h4).max() <= 1e-12 * np.abs(h4).max()
    # [U; V] on their live nodes: zero on U's center x-line and V's center y-line
    p_u, p_v = mirror(sys, PARITY_U), mirror(sys, PARITY_V)
    u, v = (s @ p @ rng.standard_normal(n) for p in (p_u, p_v))
    block_x = FullGrid(sys).block() @ np.concatenate([p_u @ u, p_v @ v])
    block_x = np.concatenate([s @ half for half in np.split(block_x, 2)])
    np.testing.assert_allclose(
        sys.inplane_inverse @ block_x, np.concatenate([u, v]), rtol=1e-9, atol=1e-12
    )


def _oracle_pairs(sys, rng):
    """(got, reference) pairs for an evaluation at a random W against the
    dense full-grid equations, each reference still on the full grid: H_k W
    by name, the strains from the evaluation's own U and V mirrored,
    p_k = c_k H_k W and r; the coupled residual at random U and V; and the
    Jacobian read from the evaluation, J(P W) P."""
    full = FullGrid(sys)
    w = rng.standard_normal(sys.n)
    ev = evaluate(sys, w)
    wf, uf, vf = (mirror(sys, parity) @ z for parity, z in
                  ((PARITY_W, w), (PARITY_U, ev.uv[0]), (PARITY_V, ev.uv[1])))
    strains = full._strains(wf, uf, vf)
    refs = [(ev.hw[k], full.h[k] @ wf) for k in (H1, H2, H3, H4, H5, H6, H7, H8)]
    refs += [(got, e) for got, (_, _, e) in zip(ev.strains, strains)]
    refs += [(got, c * (full.h[k] @ wf)) for got, (c, k, _) in zip(ev.p, strains)]
    refs += [(ev.r, full.transverse(wf, uf, vf))]
    # U and V random on their live nodes, zero on their center lines
    s = restrict(sys)
    u, v = (s @ mirror(sys, parity) @ rng.standard_normal(sys.n)
            for parity in (PARITY_U, PARITY_V))
    refs += zip(coupled_residual(sys, w, u, v), full.coupled_residual(
        wf, mirror(sys, PARITY_U) @ u, mirror(sys, PARITY_V) @ v))
    refs += [(jacobian(sys, ev), full.jacobian(wf) @ mirror(sys, PARITY_W))]
    return refs


@pytest.mark.parametrize("grid", sorted(FACTOR_GRIDS))
def test_evaluation_matches_dense_oracle(grid, orthotropic_spec, rng):
    """Every field of an evaluation at a random W, the coupled residual and
    the Jacobian on two fixed grids against the dense full-grid equations
    restricted to the quarter, each to 1e-12 of its largest entry."""
    sys = build_system(replace(orthotropic_spec, **FACTOR_GRIDS[grid]))
    s = restrict(sys)
    for got, ref in _oracle_pairs(sys, rng):
        ref = s @ ref
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=100, deadline=None)
@given(
    bc=st.sampled_from([SIMPLY_SUPPORTED, CLAMPED]),
    kind=st.sampled_from([CHEBYSHEV, UNIFORM]),
    nx=st.integers(5, 9),
    ny=st.integers(5, 9),
    b_over_a=st.floats(0.5, 2.0).filter(lambda x: abs(x - 1.0) > 0.05),
    h_over_a=st.floats(0.002, 0.05),
    e2_over_e1=st.floats(0.05, 2.0),
    g12_over_e1=st.floats(0.02, 0.5),
    nu12=st.one_of(st.just(0.0), st.floats(0.01, 0.45)),
    q=st.integers(-1000, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluation_matches_dense_oracle_on_drawn_plates(
    bc, kind, nx, ny, b_over_a, h_over_a, e2_over_e1, g12_over_e1, nu12, q, seed
):
    """The pairs of ``_oracle_pairs`` for a drawn orthotropic plate with
    a != b, restricted to the quarter.  A clamped direction has 6 points or
    more: with 5, a field odd in it vanishes, and the oracle's rounding is all
    there is to compare.  Each field agrees to 1e-11 of its largest entry; in
    2500 draws the shear strain, whose three terms cancel, came closest, at
    4e-13."""
    assume(bc != CLAMPED or min(nx, ny) > 5)
    e1 = 1e7
    spec = PlateSpec(a=10.0, b=10.0 * b_over_a, h=10.0 * h_over_a, e1=e1,
                     e2=e1 * e2_over_e1, nu12=nu12, g12=e1 * g12_over_e1, bc=bc, q=q,
                     nx=nx, ny=ny, grid_kind=kind)
    sys = build_system(spec)
    s = restrict(sys)
    for got, ref in _oracle_pairs(sys, np.random.default_rng(seed)):
        ref = s @ ref
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()


def _arrays(obj, seen):
    """The distinct ndarrays reachable through dataclass fields and tuples."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif is_dataclass(obj):
        for f in fields(obj):
            yield from _arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _arrays(x, seen)


def _array_bytes(obj, seen):
    """Bytes of the distinct ndarrays reachable through dataclass fields and
    tuples."""
    return sum(a.nbytes for a in _arrays(obj, seen))


# The 1-D factors, folded per parity, and the boundary operator sets take
# about 120 n doubles, which is below n^2 from N = 23 on: on smaller grids the
# quarter's n^2 no longer bounds them.


def test_system_holds_under_six_n_squared(table1_ss):
    """A fresh 31 x 31 system keeps H4 (n^2) and B^-1 (4 n^2) dense, and
    every other operator only as 1-D factors."""
    sys = build_system(replace(table1_ss, nx=31, ny=31))
    assert _array_bytes(sys, set()) < 6 * sys.n**2 * 8


def test_solved_system_holds_under_six_n_squared(table1_ss):
    """A solve adds no dense array to the 31 x 31 system."""
    sys = solve_plate(replace(table1_ss, nx=31, ny=31)).system
    assert _array_bytes(sys, set()) < 6 * sys.n**2 * 8


def test_first_residual_allocates_under_one_and_a_half_n_squared(table1_ss, rng):
    """The first residual of a fresh N = 21 system allocates no (2n)^2 array
    (4 n^2 doubles): build_system formed B^-1."""
    sys = build_system(replace(table1_ss, nx=21, ny=21))
    w = rng.standard_normal(sys.n)
    tracemalloc.start()
    try:
        residual(sys, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sys.n**2 * 8


def test_assemble_peaks_below_twelve_n_squared(table1_ss):
    """Assembling the 31 x 31 system peaks below 12 n^2 doubles: B is
    written at its live size, with no padded (2n)^2 block and no masked
    copy of it.  H4 (n^2), B (about 3.5 n^2) and the laid-out B^-1 (4 n^2)
    are all that is dense."""
    spec = replace(table1_ss, nx=31, ny=31)
    ops = pm.reduced_operators(spec)
    tracemalloc.start()
    try:
        sys = assemble(spec, *ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * sys.n**2 * 8


def test_inplane_inverse_shares_the_lu_buffer(table1_ss, rng):
    """B, its LU and B^-1 share one buffer, and the system holds B^-1 as its
    one (2n)^2 array."""
    b = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    inverse, _ = pm._invert_inplane(b)
    assert np.shares_memory(inverse, b)
    sys = build_system(replace(table1_ss, nx=21, ny=21))
    n = sys.n
    big = [a for a in _arrays(sys, set()) if a.size >= (2 * n) ** 2]
    assert len(big) == 1 and big[0] is sys.inplane_inverse
    assert big[0].shape == (2 * n, 2 * n)


def padded_inverse(sys):
    """B^-1 formed the long way round: B on all 2n unknowns from np.kron,
    its live rows and columns picked out by a boolean mask, inverted by
    ``_invert_inplane`` and scattered back into a zeroed (2n)^2 array."""
    fx, fy = sys.factors
    (nx, ny), n = sys.quarter_shape, sys.n
    block = np.zeros((2, n, 2, n))
    for k, rows, cols in ((H1, 0, 0), (H2, 0, 1), (H2, 1, 0), (H3, 1, 1)):
        px, py = (PARITY_U, PARITY_V)[cols]
        block[rows, :, cols] = sum(
            np.kron(c * fx[px, ix], fy[py, iy]) for c, ix, iy in sys.spec.material.terms[k]
        )
    live = np.ones((2, nx, ny), dtype=bool)
    live[0, sys.bcx.n_interior // 2:] = live[1, :, sys.bcy.n_interior // 2:] = False
    live = np.ix_(live.ravel(), live.ravel())
    inverse = np.zeros((2 * n, 2 * n))
    inverse[live], rcond = pm._invert_inplane(block.reshape(2 * n, 2 * n)[live])
    return inverse, rcond


@pytest.mark.parametrize("grid", [
    ("iso", SIMPLY_SUPPORTED, 7, 7), ("iso", SIMPLY_SUPPORTED, 8, 8),
    ("iso", CLAMPED, 9, 9), ("iso", CLAMPED, 10, 10),
    ("ortho", SIMPLY_SUPPORTED, 13, 11), ("ortho", CLAMPED, 13, 11),
    ("iso", CLAMPED, 5, 9), ("iso", CLAMPED, 9, 5),
])
def test_live_block_inverse_matches_padded_block(grid, table1_ss, orthotropic_spec):
    """B written at its live size gives, bit for bit, the B^-1 and rcond of
    the padded block, with exact zeros on U's center x-line and V's center
    y-line.  Clamped 5 x 9 has no live U unknown, 9 x 5 no live V one."""
    plate, bc, nx, ny = grid
    spec = replace(table1_ss if plate == "iso" else orthotropic_spec, bc=bc, nx=nx, ny=ny)
    sys = build_system(spec)
    inverse, rcond = padded_inverse(sys)
    np.testing.assert_array_equal(sys.inplane_inverse, inverse)
    assert sys.inplane_rcond == rcond
    qx, qy = sys.quarter_shape
    b_inv = sys.inplane_inverse.reshape(2, qx, qy, 2, qx, qy)
    hu, hv = sys.bcx.n_interior // 2, sys.bcy.n_interior // 2
    for zero in (b_inv[0, hu:], b_inv[1, :, hv:], b_inv[..., 0, hu:, :], b_inv[..., 1, :, hv:]):
        assert not zero.any()
    assert (hu < qx) == (sys.bcx.n_interior % 2 == 1)


def test_singular_inplane_block_raises_decoupling_error(table1_ss):
    """Zero second-derivative factors leave B = [[0, H2], [H2, 0]], singular
    because H2 = c kron(D1, D1) is: the reduced 7-point simply supported D1
    has odd order and is centro-antisymmetric."""
    ops = bc_builder.build_ss(dq_core.diff_matrices(dq_core.make_grid(7, CHEBYSHEV)))
    ops = replace(ops, second=np.zeros_like(ops.second))
    with pytest.raises(DecouplingError, match="rcond"):
        assemble(replace(table1_ss, nx=7, ny=7), ops, ops)


def test_ill_conditioned_inplane_block_raises_decoupling_error():
    """B is refused by gecon's rcond, the bound at which lu_solve warns, not
    by its pivots: the unit upper-triangular 60 x 60 block with -1 above the
    diagonal has pivot ratio 1 but rcond 2.9e-20, and an inverse of 2.9e17."""
    b = np.eye(60) - np.triu(np.ones((60, 60)), 1)
    with pytest.raises(DecouplingError, match=r"rcond \d\.\d+e-20"):
        pm._invert_inplane(b)


def test_nan_inplane_block_raises_decoupling_error():
    """A NaN in B makes gecon's rcond NaN, which compares false with any
    bound: B is refused, not inverted to NaN."""
    b = np.eye(6)
    b[2, 3] = np.nan
    with pytest.raises(DecouplingError, match="rcond nan"):
        pm._invert_inplane(b)


def test_inplane_rule_ignores_row_scale():
    """Rows scaled by powers of two from 2^-60 to 2^60 leave B's rcond as it
    is and scale B^-1's columns back exactly, so units and aspect ratio do
    not move the refusal bound."""
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    d = np.ldexp(1.0, rng.integers(-60, 61, size=8))
    inverse, rcond = pm._invert_inplane(b.copy())
    scaled_inverse, scaled_rcond = pm._invert_inplane(d[:, None] * b)
    assert scaled_rcond == rcond
    np.testing.assert_array_equal(scaled_inverse * d, inverse)


def test_near_incompressible_uniform_plate_is_not_refused():
    """Simply supported uniform 21 at nu = 0.99 has B's raw rcond 6e-17,
    below lamch('E'), only because its U and V rows differ in scale; with
    its rows scaled, rcond is 4e-12 and the plate is accepted."""
    spec = PlateSpec.isotropic(
        a=1.0, h=0.01, e=1e6, nu=0.99, q=1.0, nx=21, ny=21,
        bc=SIMPLY_SUPPORTED, grid_kind=UNIFORM,
    )
    assert build_system(spec).inplane_rcond > 1e-12


def test_assemble_rejects_mismatched_operators(table1_ss):
    dm = dq_core.diff_matrices(dq_core.make_grid(7, CHEBYSHEV))
    wrong_kind = bc_builder.build_clamped(dm)
    good = bc_builder.build_ss(dm)
    with pytest.raises(AssemblyError):
        assemble(table1_ss, wrong_kind, wrong_kind)
    dm9 = dq_core.diff_matrices(dq_core.make_grid(9, CHEBYSHEV))
    with pytest.raises(AssemblyError):
        assemble(table1_ss, good, bc_builder.build_ss(dm9))


def _reduced(spec, npts):
    """A boundary operator set of its own for one direction of ``spec``."""
    grid = dq_core.make_grid(npts, spec.grid_kind)
    return bc_builder.build_operators(dq_core.diff_matrices(grid), spec.bc)


def assert_same_bits(a, b):
    """a and b are equal bit for bit: every array, float and string reachable
    through dataclass fields and tuples."""
    if is_dataclass(a):
        assert type(a) is type(b)
        for f in fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_bits(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
    else:
        assert repr(a) == repr(b)  # tells -0.0 from 0.0


@pytest.mark.parametrize("plate", ["isotropic", "orthotropic"])
@pytest.mark.parametrize("kind", [CHEBYSHEV, UNIFORM])
@pytest.mark.parametrize("bc", [SIMPLY_SUPPORTED, CLAMPED])
def test_shared_operator_set_is_exact(bc, kind, plate, table1_ss, orthotropic_spec):
    """A square spec's system, built on one operator set for x and y, is bit
    for bit the system assembled from two sets built apart."""
    base = table1_ss if plate == "isotropic" else orthotropic_spec
    spec = replace(base, bc=bc, grid_kind=kind, nx=9, ny=9)
    sys = build_system(spec)
    assert sys.bcy is sys.bcx and sys.factors[1] is sys.factors[0]
    assert_same_bits(sys, assemble(spec, _reduced(spec, 9), _reduced(spec, 9)))


def test_rectangular_grid_builds_two_sets(orthotropic_spec):
    sys = build_system(replace(orthotropic_spec, nx=7, ny=9))
    assert (sys.bcx.grid.n, sys.bcy.grid.n) == (7, 9)
    assert sys.factors[0].shape[-1] == 3 and sys.factors[1].shape[-1] == 4


@pytest.mark.parametrize("bc", [SIMPLY_SUPPORTED, CLAMPED])
@pytest.mark.parametrize("ny", [9, 11])
def test_x_mix_is_the_term_by_term_layout(bc, ny, orthotropic_spec):
    """x_mix[p, k, :, iy] is the sum of c X_p[ix] over the terms c kron(X[ix],
    Y[iy]) of H_k, laid out here term by term."""
    sys = build_system(replace(orthotropic_spec, bc=bc, nx=9, ny=ny))
    fx = sys.factors[0]
    nx = fx.shape[-1]
    ref = np.zeros((2, 8, nx, 4, nx))
    for k, op_terms in enumerate(sys.spec.material.terms):
        for c, ix, iy in op_terms:
            ref[:, k, :, iy] += c * fx[:, ix]
    assert_same_bits(sys.x_mix, ref.reshape(2, 8, nx, -1))


@pytest.mark.parametrize("ny, sets", [(9, 1), (11, 2)])
def test_build_makes_one_operator_set_per_distinct_direction(table1_ss, monkeypatch, ny, sets):
    """Weights, boundary reduction and fold run once for a square grid, and
    once per direction otherwise."""
    calls = [
        count_calls(monkeypatch, module, name)
        for module, name in ((dq_core, "diff_matrices"), (bc_builder, "build_operators"),
                             (pm, "fold"))
    ]
    build_system(replace(table1_ss, nx=9, ny=ny))
    assert [len(c) for c in calls] == [sets] * 3


def test_spec_copy_carries_its_load(orthotropic_spec, rng):
    """The load has one owner, the spec: a system copied with a new spec
    gives the residual and the solve of ``with_load``."""
    sys = build_system(orthotropic_spec)
    q = 2.0 * orthotropic_spec.q
    copied = replace(sys, spec=replace(sys.spec, q=q))
    loaded = with_load(sys, q)
    w = rng.standard_normal(sys.n)
    np.testing.assert_array_equal(residual(copied, w), residual(loaded, w))
    a, b = (solve_plate(s.spec, system=s) for s in (copied, loaded))
    np.testing.assert_array_equal(a.field.w_stack, b.field.w_stack)
    assert a.report.residual_history == b.report.residual_history


def test_with_load_only_changes_load(table1_ss):
    sys = build_system(table1_ss)
    sys2 = with_load(sys, 2.0)
    assert sys2.spec.material.load == 2.0 * sys.spec.material.load
    assert sys2.spec.q == 2.0
    assert sys2.h4 is sys.h4


# ---------------------------------------------------------------------------
# quadratic in-plane forcing terms
# ---------------------------------------------------------------------------


def l_vectors(sys, w):
    """The in-plane right-hand sides l1, l2: the coupled residual's in-plane
    rows with U = V = 0."""
    return coupled_residual(sys, w, np.zeros(sys.n), np.zeros(sys.n))[:2]


def test_l_vectors_vanish_at_zero(table1_ss):
    sys = build_system(table1_ss)
    l1, l2 = l_vectors(sys, np.zeros(sys.n))
    assert np.all(l1 == 0.0) and np.all(l2 == 0.0)


def test_l_vectors_even_in_w(table1_ss, rng):
    sys = build_system(table1_ss)
    w = rng.standard_normal(sys.n)
    l1a, l2a = l_vectors(sys, w)
    l1b, l2b = l_vectors(sys, -w)
    np.testing.assert_allclose(l1a, l1b, rtol=1e-12)
    np.testing.assert_allclose(l2a, l2b, rtol=1e-12)


def test_l_vectors_quadratic_homogeneity(table1_clamped, rng):
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)
    l1, l2 = l_vectors(sys, w)
    l1t, l2t = l_vectors(sys, 2.0 * w)
    np.testing.assert_allclose(l1t, 4.0 * l1, rtol=1e-12)
    np.testing.assert_allclose(l2t, 4.0 * l2, rtol=1e-12)


def test_l_vectors_scalar_loop_oracle(table1_ss, rng):
    """Entry-by-entry re-evaluation with plain Python loops on the mirrored
    full-grid W.  l1 is odd in x and l2 odd in y: on those center lines they
    are exactly zero, where the full grid gives rounding."""
    sys = build_system(table1_ss)
    w = rng.standard_normal(sys.n)
    l1, l2 = l_vectors(sys, w)
    wf = mirror(sys, PARITY_W) @ w
    nf, (mx, my) = len(wf), sys.quarter_shape
    nxi, nyi = sys.bcx.n_interior, sys.bcy.n_interior
    h1, h2, h3, h7, h8 = (dense_operator(sys, k) for k in (H1, H2, H3, H7, H8))
    for a in range(mx):
        for j in range(my):
            q, i = a * my + j, a * nyi + j
            h1w = sum(h1[i, k] * wf[k] for k in range(nf))
            h2w = sum(h2[i, k] * wf[k] for k in range(nf))
            h3w = sum(h3[i, k] * wf[k] for k in range(nf))
            h7w = sum(h7[i, k] * wf[k] for k in range(nf))
            h8w = sum(h8[i, k] * wf[k] for k in range(nf))
            if a < nxi // 2:
                assert abs(l1[q] - (h7w * h1w + h8w * h2w)) <= 1e-12 * max(1.0, abs(l1[q]))
            else:
                assert l1[q] == 0.0
            if j < nyi // 2:
                assert abs(l2[q] - (h8w * h3w + h7w * h2w)) <= 1e-12 * max(1.0, abs(l2[q]))
            else:
                assert l2[q] == 0.0


# ---------------------------------------------------------------------------
# in-plane recovery
# ---------------------------------------------------------------------------


def test_recover_inplane_zero(table1_ss):
    sys = build_system(table1_ss)
    u, v = evaluate(sys, np.zeros(sys.n)).uv
    assert np.all(u == 0.0) and np.all(v == 0.0)


def test_recover_inplane_back_substitution(table1_clamped, rng):
    """The mirrored quarter fields solve the full-grid in-plane equations."""
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)
    u, v = evaluate(sys, w).uv
    full = FullGrid(sys)
    l1, l2 = full.forcing(mirror(sys, PARITY_W) @ w)
    u, v = mirror(sys, PARITY_U) @ u, mirror(sys, PARITY_V) @ v
    h1, h2, h3 = (full.h[k] for k in (H1, H2, H3))
    r1 = h1 @ u + h2 @ v + l1
    r2 = h2 @ u + h3 @ v + l2
    assert np.abs(r1).max() <= 1e-10 * max(np.abs(l1).max(), 1.0)
    assert np.abs(r2).max() <= 1e-10 * max(np.abs(l2).max(), 1.0)


def test_recover_inplane_matches_explicit_inverses(rng):
    """Block solve against the textbook elimination formulas on the full
    interior (n = 4; the quarter keeps one node)."""
    spec = PlateSpec.isotropic(
        a=2.0, h=0.05, e=1e6, nu=0.3, q=1.0, nx=6, ny=6, bc=CLAMPED
    )
    sys = build_system(spec)
    assert sys.bcx.n_interior * sys.bcy.n_interior == 4 and sys.n == 1
    full = FullGrid(sys)
    h1, h2, h3 = (full.h[k] for k in (H1, H2, H3))
    for h in (h1, h2, h3):
        assert np.linalg.cond(h) < 1e12
    w = rng.standard_normal(sys.n)
    l1, l2 = full.forcing(mirror(sys, PARITY_W) @ w)
    h9 = np.linalg.solve(h2, h1) - np.linalg.solve(h3, h2)
    h10 = np.linalg.solve(h1, h2) - np.linalg.solve(h2, h3)
    u_ref = np.linalg.solve(h9, np.linalg.solve(h3, l2) - np.linalg.solve(h2, l1))
    v_ref = np.linalg.solve(h10, np.linalg.solve(h2, l2) - np.linalg.solve(h1, l1))
    u, v = evaluate(sys, w).uv
    np.testing.assert_allclose(mirror(sys, PARITY_U) @ u, u_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(mirror(sys, PARITY_V) @ v, v_ref, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------


def test_residual_rejects_wrong_length(table1_ss):
    sys = build_system(table1_ss)
    with pytest.raises(ValueError, match=r"length 9, got \(3,\)"):
        residual(sys, np.zeros(3))


def test_coupled_residual_rejects_wrong_length(table1_ss):
    """U and V are checked like W, by the coupled residual and the recovery:
    a short or a 2-D one is refused before any product."""
    sys = build_system(table1_ss)
    z = np.zeros(sys.n)
    for bad in (np.zeros(sys.n - 1), np.zeros(sys.quarter_shape)):
        for fn in (coupled_residual, recover_fields):
            for u, v in ((bad, z), (z, bad)):
                with pytest.raises(ValueError, match="expected stacked vector of length"):
                    fn(sys, z, u, v)


@pytest.mark.parametrize("fixture", ["table1_ss", "table1_clamped"])
def test_evaluate_call_budget(request, monkeypatch, rng, fixture):
    """One evaluation makes one ``_products`` call, on W, whose two BLAS
    products are the only ones besides at most two for H7 and H8 on U and V."""
    sys = build_system(request.getfixturevalue(fixture))
    w = rng.standard_normal(sys.n)
    products = count_calls(monkeypatch, pm, "_products")
    matmuls = count_calls(monkeypatch, pm, "_matmul")
    evaluate(sys, w)
    assert len(matmuls) <= 4
    ((_, on, parity), _), = products
    assert on is w and parity == PARITY_W


def test_evaluation_keeps_seventeen_n_doubles(table1_clamped, rng):
    """Besides W, an evaluation holds 17 n doubles, H_k W, U, V, the strains,
    p_k and r, and keeps no larger buffer of its stages alive."""
    sys = build_system(table1_clamped)
    ev = evaluate(sys, rng.standard_normal(sys.n))
    roots = {}
    for a in (ev.hw, ev.uv, *ev.strains, *ev.p, ev.r):
        while a.base is not None:
            a = a.base
        roots[id(a)] = a
    assert sum(a.nbytes for a in roots.values()) == 17 * sys.n * 8


def test_residual_at_zero_is_minus_load(table1_ss):
    sys = build_system(table1_ss)
    np.testing.assert_array_equal(residual(sys, np.zeros(sys.n)), -sys.spec.material.load)


def test_residual_bracket_is_exactly_cubic(table1_clamped, rng):
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)

    def bracket(z):
        return (sys.h4 @ z - sys.spec.material.load - residual(sys, z)) / sys.spec.material.alpha

    b1 = bracket(w)
    np.testing.assert_allclose(bracket(2.0 * w), 8.0 * b1, rtol=1e-12)
    np.testing.assert_allclose(bracket(-w), -b1, rtol=1e-12)


def test_jacobian_at_zero_is_bending_operator(table1_ss):
    sys = build_system(table1_ss)
    np.testing.assert_array_equal(jacobian(sys, np.zeros(sys.n)), sys.h4)


@pytest.mark.parametrize(
    "case", ["ss", "clamped", "orthotropic", "orthotropic-clamped-9x7", "ss-7x9"]
)
def test_jacobian_matches_finite_differences(
    case, table1_ss, table1_clamped, orthotropic_spec, rng
):
    """The rectangular orthotropic plate tells beta_x from beta_y, and the
    grids with nx != ny an x/y mix-up in a 1-D factor."""
    spec = {
        "ss": table1_ss,
        "clamped": table1_clamped,
        "orthotropic": orthotropic_spec,
        "orthotropic-clamped-9x7": replace(orthotropic_spec, bc=CLAMPED, nx=9, ny=7),
        "ss-7x9": replace(table1_ss, nx=7, ny=9),
    }[case]
    sys = build_system(spec)
    for _ in range(3):
        w = rng.standard_normal(sys.n)
        ja = jacobian(sys, w)
        jf = fd_jacobian(lambda z: residual(sys, z), w)
        assert np.abs(ja - jf).max() <= 1e-6 * np.abs(ja).max()


def test_inplane_inverse_formed_once_per_system(table1_clamped, rng):
    """build_system forms B^-1; solves, Jacobians and with_load copies read
    that one array and leave it as it is."""
    sys = build_system(table1_clamped)
    inverse = sys.inplane_inverse
    formed = inverse.copy()
    w = rng.standard_normal(sys.n)
    linear_solve(sys)
    residual(sys, w)
    fd_jacobian(lambda z: residual(sys, z), w)
    evaluate(sys, w)
    jacobian(sys, w)
    heavier = with_load(sys, 2.0 * sys.spec.q)
    residual(heavier, w)
    jacobian(heavier, w)
    assert heavier.inplane_inverse is inverse and sys.inplane_inverse is inverse
    np.testing.assert_array_equal(inverse, formed)
    # B^-1 of the full block folded onto the quarter, S B P: the identity on
    # U's and V's live nodes, zero on the center lines where they vanish
    n, s = sys.n, restrict(sys)
    p = np.block([[mirror(sys, PARITY_U), np.zeros((len(s.T), n))],
                  [np.zeros((len(s.T), n)), mirror(sys, PARITY_V)]])
    folded = np.kron(np.eye(2), s) @ FullGrid(sys).block() @ p
    live = np.diag(np.kron(np.eye(2), s) @ p)
    np.testing.assert_allclose(inverse @ folded, np.diag(live), atol=1e-10)


def test_load_copy_jacobian_matches_fresh_build(orthotropic_spec, rng):
    """The Jacobian's coefficient table does not depend on the load: a
    with_load copy, which shares it, gives the Jacobian of a fresh build."""
    spec = replace(orthotropic_spec, bc=CLAMPED, nx=9, ny=7)
    sys = build_system(spec)
    heavier = with_load(sys, 3.0 * spec.q)
    fresh = build_system(replace(spec, q=3.0 * spec.q))
    w = rng.standard_normal(sys.n)
    np.testing.assert_array_equal(jacobian(heavier, w), jacobian(fresh, w))


def test_jacobian_allocates_below_five_n_squared(table1_ss, rng):
    """Once B^-1 exists, one N = 21 Jacobian allocates under 5 n^2 doubles,
    the returned J included."""
    sys = build_system(replace(table1_ss, nx=21, ny=21))
    w = rng.standard_normal(sys.n)
    jacobian(sys, w)
    tracemalloc.start()
    try:
        jacobian(sys, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * sys.n**2 * 8


def test_jacobian_swap_equivariance(table1_ss, rng):
    """Square isotropic plate: relabeling x<->y conjugates the Jacobian."""
    sys = build_system(table1_ss)
    p = swap_permutation(sys.quarter_shape[0])
    w = rng.standard_normal(sys.n)
    lhs = jacobian(sys, p @ w)
    rhs = p @ jacobian(sys, w) @ p.T
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()


def test_residual_swap_equivariance(table1_ss, rng):
    sys = build_system(table1_ss)
    p = swap_permutation(sys.quarter_shape[0])
    w = rng.standard_normal(sys.n)
    np.testing.assert_allclose(
        residual(sys, p @ w), p @ residual(sys, w), rtol=1e-10, atol=1e-8
    )


# ---------------------------------------------------------------------------
# linear solve and field recovery
# ---------------------------------------------------------------------------


def test_linear_solve_zero_load(table1_ss):
    sys = build_system(replace(table1_ss, q=0.0))
    assert np.abs(linear_solve(sys)).max() == 0.0


def test_linear_solve_singular_operator(table1_ss):
    sys = build_system(table1_ss)
    broken = replace(sys, h4=np.zeros_like(sys.h4))
    with pytest.raises(AssemblyError):
        linear_solve(broken)


def test_bending_solve_singular_operator_raises():
    """An exactly singular operator that the row scaling leaves as it is
    raises AssemblyError (getrf reports a zero pivot)."""
    with pytest.raises(AssemblyError, match="singular bending operator"):
        pm.solve_bending(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


def test_bending_solve_warning_gives_rcond():
    """An ill-conditioned operator warns with the rcond of its row-equilibrated
    copy.  [[1, 0], [1, 1e-20]] has unit rows already, 1-norm 2 and an inverse
    of 1-norm 1e20 + 1: rcond 5e-21, not its reciprocal."""
    with pytest.warns(LinAlgWarning) as caught:
        pm.solve_bending(np.array([[1.0, 0.0], [1.0, 1e-20]]), np.ones(2))
    rcond = float(re.search(r"rcond=([^)]+)", str(caught[0].message)).group(1))
    assert 2.5e-21 <= rcond <= 1e-20


def test_linear_ss_center_navier(table1_ss):
    """Chebyshev 9x9 small-deflection center against the double series."""
    sys = build_system(replace(table1_ss, nx=9, ny=9))
    w = linear_solve(sys)
    u, v = evaluate(sys, w).uv
    center = recover_fields(sys, w, u, v).center_deflection_ratio
    assert abs(center - 0.00406 * 535.714285714) / (0.00406 * 535.714285714) < 0.005


def test_linear_clamped_center_series(table1_clamped):
    sys = build_system(replace(table1_clamped, nx=11, ny=11))
    w = linear_solve(sys)
    u, v = evaluate(sys, w).uv
    center = recover_fields(sys, w, u, v).center_deflection_ratio
    scale = 3.0 * 100.0**4 / (derive_material(table1_clamped).d1 * 1.0)
    assert abs(center - 0.00126 * scale) / (0.00126 * scale) < 0.01


def test_recovered_fields_satisfy_boundaries(table1_clamped):
    sol = solve_plate(table1_clamped)
    sys, fld = sol.system, sol.field
    assert np.all(fld.w[0, :] == 0.0) and np.all(fld.w[-1, :] == 0.0)
    assert np.all(fld.w[:, 0] == 0.0) and np.all(fld.w[:, -1] == 0.0)
    ax = dq_core.diff_matrices(sys.bcx.grid).first
    ay = dq_core.diff_matrices(sys.bcy.grid).first
    scale = np.abs(fld.w).max() * np.abs(ax).max()
    slopes_x = ax @ fld.w
    slopes_y = fld.w @ ay.T
    assert np.abs(slopes_x[0]).max() <= 1e-10 * scale
    assert np.abs(slopes_x[-1]).max() <= 1e-10 * scale
    assert np.abs(slopes_y[:, 0]).max() <= 1e-10 * scale
    assert np.abs(slopes_y[:, -1]).max() <= 1e-10 * scale


def test_center_is_middle_node_on_odd_grids(table1_ss):
    sol = solve_plate(table1_ss)
    fld = sol.field
    mid = (table1_ss.nx - 1) // 2
    np.testing.assert_allclose(
        fld.center_deflection_ratio, fld.w[mid, mid] / table1_ss.h, rtol=1e-14
    )


def test_center_interpolation_on_even_grid():
    xn = np.linspace(0.0, 1.0, 6)
    vals = xn[:, None] + xn[None, :]  # f(x, y) = x + y, center value 1
    np.testing.assert_allclose(pm._interp_center(vals, xn, xn), 1.0, rtol=1e-13)


def test_uniform_load_solution_symmetric(table1_ss):
    fld = solve_plate(table1_ss).field
    tol = 1e-6 * np.abs(fld.w).max()
    assert np.abs(fld.w - fld.w[::-1, :]).max() <= tol
    assert np.abs(fld.w - fld.w[:, ::-1]).max() <= tol


@pytest.mark.parametrize("grid", [(13, 11), (12, 13)], ids=["13x11", "12x13"])
@pytest.mark.parametrize("kind", [CHEBYSHEV, UNIFORM])
@pytest.mark.parametrize("bc", [SIMPLY_SUPPORTED, CLAMPED])
def test_solved_fields_mirror_parity(bc, kind, grid, orthotropic_spec):
    """Uniform load, one support kind on all edges, axis-aligned orthotropy:
    W is even in x and y, U odd in x and even in y, V even in x and odd in y,
    on odd and even grids alike."""
    nx, ny = grid
    fld = solve_plate(replace(orthotropic_spec, bc=bc, nx=nx, ny=ny, grid_kind=kind)).field
    rel = 1e-12 if kind == CHEBYSHEV else 1e-10  # worst measured: 6.7e-14, 1.1e-11
    for f, sx, sy in ((fld.w, 1, 1), (fld.u, -1, 1), (fld.v, 1, -1)):
        tol = rel * np.abs(f).max()
        assert np.abs(f[::-1, :] - sx * f).max() <= tol
        assert np.abs(f[:, ::-1] - sy * f).max() <= tol


# ---------------------------------------------------------------------------
# cross-route equivalences
# ---------------------------------------------------------------------------


FOLD_GRIDS = {
    f"{bc[:2]}-{kind[:3]}-{nx}x{ny}": dict(bc=bc, grid_kind=kind, nx=nx, ny=ny)
    for bc in (SIMPLY_SUPPORTED, CLAMPED)
    for kind in (CHEBYSHEV, UNIFORM)
    for nx, ny in ((13, 11), (12, 12))
}
# clamped 5x9: x keeps one node, the center, where U vanishes, so U has no
# live node and V has some; 6x6: one live node each
FOLD_GRIDS.update({f"cl-che-{m}x{n}": dict(bc=CLAMPED, nx=m, ny=n) for m, n in ((5, 9), (6, 6))})


@pytest.mark.parametrize("grid", sorted(FOLD_GRIDS))
def test_fold_matches_full_grid_oracle(grid, orthotropic_spec, rng):
    """At random quarter iterates W, the residual and Jacobian on the quarter
    are the full-grid ones restricted to it: S r(P W) and S J(P W) P."""
    sys = build_system(replace(orthotropic_spec, **FOLD_GRIDS[grid]))
    full, p, s = FullGrid(sys), mirror(sys, PARITY_W), restrict(sys)
    for _ in range(2):
        w = rng.standard_normal(sys.n)
        ref = s @ full.residual(p @ w)
        assert np.abs(residual(sys, w) - ref).max() <= 1e-10 * np.abs(ref).max()
        ref = s @ full.jacobian(p @ w) @ p
        assert np.abs(jacobian(sys, w) - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("grid", sorted(FOLD_GRIDS))
def test_mirrored_solution_satisfies_full_grid_system(grid, orthotropic_spec):
    """The solved quarter fields, mirrored with their parities, satisfy the
    three full-grid equations.  The full-grid route adds its own rounding:
    up to 1.8e-8 on the uniform grids."""
    sol = solve_plate(replace(orthotropic_spec, **FOLD_GRIDS[grid]), tol=1e-9)
    assert sol.report.converged
    sys, f = sol.system, sol.field
    r = FullGrid(sys).coupled_residual(
        *(mirror(sys, parity) @ z for parity, z in
          ((PARITY_W, f.w_stack), (PARITY_U, f.u_stack), (PARITY_V, f.v_stack)))
    )
    assert max(np.abs(x).max() for x in r) < 1e-7


@pytest.mark.parametrize("case", ["ss", "clamped"])
def test_inplane_condition_estimate(case, table1_ss, table1_clamped):
    """LAPACK's rcond of B is recorded at assembly, agrees with numpy's
    1-norm condition number of B on the live unknowns to a factor of 10, and
    with_load keeps it."""
    sys = build_system(table1_ss if case == "ss" else table1_clamped)
    assert np.isfinite(sys.inplane_rcond) and 0.0 < sys.inplane_rcond <= 1.0
    live = np.abs(sys.inplane_inverse).sum(axis=0) > 0
    block = np.linalg.inv(sys.inplane_inverse[np.ix_(live, live)])
    exact = 1.0 / np.linalg.cond(block, 1)
    assert exact / 10 <= sys.inplane_rcond <= 10 * exact
    assert with_load(sys, 2.0 * sys.spec.q).inplane_rcond == sys.inplane_rcond


@pytest.mark.parametrize("case", ["ss", "clamped"])
def test_decoupled_solution_satisfies_coupled_system(case, table1_ss, table1_clamped):
    spec = table1_ss if case == "ss" else table1_clamped
    sol = solve_plate(spec, tol=1e-9)
    w = sol.field.w_stack
    u, v = evaluate(sol.system, w).uv
    r1, r2, r3 = coupled_residual(sol.system, w, u, v)
    assert max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max()) < 1e-8


@pytest.mark.parametrize("case", ["ss", "clamped", "orthotropic"])
def test_dimensional_oracle_equivalence(case, table1_ss, table1_clamped, orthotropic_spec):
    """Scaled assembly against a from-scratch physical-variable assembly."""
    spec = {
        "ss": table1_ss,
        "clamped": replace(table1_clamped, nx=7, ny=7),
        "orthotropic": orthotropic_spec,
    }[case]
    w_dim, _, report = solve_dimensional(spec)
    assert report.converged
    sol = solve_plate(spec, tol=1e-11)
    rel = np.abs(w_dim - sol.field.w).max() / np.abs(sol.field.w).max()
    assert rel < 1e-8
