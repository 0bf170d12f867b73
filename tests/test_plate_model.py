"""Derived material constants, assembly, residual and Jacobian algebra."""

import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from conftest import dense_operator
from dimensional_oracle import solve_dimensional
from dqplate import bc_builder, dq_core, plate_model as pm
from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.dq_core import CHEBYSHEV, UNIFORM
from dqplate.newton_solver import fd_jacobian, solve_plate
from dqplate.plate_model import (
    AssemblyError,
    DecouplingError,
    MaterialError,
    PlateSpec,
    assemble,
    build_system,
    coupled_residual,
    derive_material,
    jacobian,
    l_vectors,
    linear_solve,
    recover_fields,
    recover_inplane,
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


def test_invalid_material_rejected():
    spec = PlateSpec(
        a=1.0, b=1.0, h=0.01, e1=1e6, e2=4e6, nu12=0.9, g12=4e5,
        bc=CLAMPED, q=1.0, nx=7, ny=7,
    )
    with pytest.raises(MaterialError):
        derive_material(spec)


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


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_interior_sizes(table1_ss, table1_clamped):
    assert build_system(table1_ss).n == 25          # (7-2)^2
    assert build_system(table1_clamped).n == 25     # (9-4)^2


def test_load_scale_table1(table1_ss):
    sys = build_system(table1_ss)
    np.testing.assert_allclose(sys.load, 535.714285714, rtol=1e-9)


def test_zero_pressure_zero_load(table1_ss):
    sys = build_system(replace(table1_ss, q=0.0))
    assert np.all(sys.load == 0.0)


def test_square_isotropic_swap_symmetry(table1_ss):
    sys = build_system(table1_ss)
    p = swap_permutation(sys.bcx.n_interior)
    h1, h2, h3 = (dense_operator(sys, k) for k in (1, 2, 3))
    for h in (sys.h4, h1 + h3, h2):
        np.testing.assert_allclose(p @ h @ p.T, h, rtol=1e-12, atol=1e-9)


FACTOR_GRIDS = {
    "ss-chebyshev-7x9": dict(bc=SIMPLY_SUPPORTED, nx=7, ny=9, grid_kind=CHEBYSHEV),
    "clamped-uniform-9x11": dict(bc=CLAMPED, nx=9, ny=11, grid_kind=UNIFORM),
}


@pytest.mark.parametrize("grid", sorted(FACTOR_GRIDS))
def test_factor_products_match_dense_oracle(grid, orthotropic_spec, rng):
    """Every H_k z through the 1-D factors, on one field and on a stack of
    two, against the dense np.kron oracle; H4 and the in-plane block, the
    two dense matrices, against it as well."""
    sys = build_system(replace(orthotropic_spec, **FACTOR_GRIDS[grid]))
    n = sys.n
    z = rng.standard_normal((2, n))
    one, stacked = pm._products(sys, z[0]), pm._products(sys, z)
    assert one.shape == (8, n) and stacked.shape == (8, 2, n)
    for k in range(1, 9):
        h = dense_operator(sys, k)
        for got, ref in ((one[k - 1], h @ z[0]), (stacked[k - 1], z @ h.T)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    h78 = pm._products(sys, z, slice(6, 8))
    assert np.abs(h78 - stacked[6:]).max() <= 1e-14 * np.abs(stacked[6:]).max()
    h4 = dense_operator(sys, 4)
    assert np.abs(sys.h4 - h4).max() <= 1e-12 * np.abs(h4).max()
    h1, h2, h3 = (dense_operator(sys, k) for k in (1, 2, 3))
    x = rng.standard_normal(2 * n)
    block_x = np.block([[h1, h2], [h2, h3]]) @ x
    np.testing.assert_allclose(sys.inplane.solve(block_x), x, rtol=1e-9, atol=1e-12)


def _array_bytes(obj, seen):
    """Bytes of the distinct ndarrays reachable through dataclass fields and
    tuples."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if is_dataclass(obj):
        return sum(_array_bytes(getattr(obj, f.name), seen) for f in fields(obj))
    if isinstance(obj, tuple):
        return sum(_array_bytes(x, seen) for x in obj)
    return 0


def test_system_holds_under_six_n_squared(table1_ss):
    """A fresh 13 x 13 system keeps H4 (n^2) and the in-plane LU (4 n^2)
    dense, and every other operator only as 1-D factors."""
    sys = build_system(replace(table1_ss, nx=13, ny=13))
    assert _array_bytes(sys, set()) < 6 * sys.n**2 * 8


def test_solved_system_holds_under_six_n_squared(table1_ss):
    """After a solve the 13 x 13 system holds B^-1 (4 n^2) in place of the
    in-plane LU, not both."""
    sys = solve_plate(replace(table1_ss, nx=13, ny=13)).system
    assert _array_bytes(sys, set()) < 6 * sys.n**2 * 8


def test_first_residual_allocates_under_one_and_a_half_n_squared(table1_ss, rng):
    """The first residual of a fresh N = 21 system forms B^-1 in the LU's own
    buffer: it allocates only the inversion's workspace, no second (2n)^2
    array (4 n^2 doubles)."""
    sys = build_system(replace(table1_ss, nx=21, ny=21))
    w = rng.standard_normal(sys.n)
    tracemalloc.start()
    try:
        residual(sys, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sys.n**2 * 8


def test_inplane_inverse_shares_the_lu_buffer(table1_ss):
    sys = build_system(table1_ss)
    lu = sys.inplane.lu[0]
    solve_plate(table1_ss, system=sys)
    assert sys.inplane.lu is None and np.shares_memory(sys.inplane._inverse, lu)


def test_singular_inplane_block_raises_decoupling_error(table1_ss):
    """Zero second-derivative factors leave B = [[0, H2], [H2, 0]], singular
    because H2 = c kron(D1, D1) is: the reduced 7-point simply supported D1
    has odd order and is centro-antisymmetric."""
    ops = bc_builder.build_ss(dq_core.diff_matrices(dq_core.make_grid(7, CHEBYSHEV)))
    ops = replace(ops, second=np.zeros_like(ops.second))
    with pytest.raises(DecouplingError, match="pivot ratio"):
        assemble(replace(table1_ss, nx=7, ny=7), ops, ops)


def test_assemble_rejects_mismatched_operators(table1_ss):
    dm = dq_core.diff_matrices(dq_core.make_grid(7, CHEBYSHEV))
    wrong_kind = bc_builder.build_clamped(dm)
    good = bc_builder.build_ss(dm)
    with pytest.raises(AssemblyError):
        assemble(table1_ss, wrong_kind, wrong_kind)
    dm9 = dq_core.diff_matrices(dq_core.make_grid(9, CHEBYSHEV))
    with pytest.raises(AssemblyError):
        assemble(table1_ss, good, bc_builder.build_ss(dm9))


def test_with_load_only_changes_load(table1_ss):
    sys = build_system(table1_ss)
    sys2 = with_load(sys, 2.0)
    np.testing.assert_array_equal(sys2.load, 2.0 * sys.load)
    assert sys2.spec.q == 2.0
    assert sys2.h4 is sys.h4


# ---------------------------------------------------------------------------
# quadratic in-plane forcing terms
# ---------------------------------------------------------------------------


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
    """Entry-by-entry re-evaluation with plain Python loops."""
    sys = build_system(table1_ss)
    w = rng.standard_normal(sys.n)
    l1, l2 = l_vectors(sys, w)
    h1, h2, h3, h7, h8 = (dense_operator(sys, k) for k in (1, 2, 3, 7, 8))
    for i in range(sys.n):
        h1w = sum(h1[i, j] * w[j] for j in range(sys.n))
        h2w = sum(h2[i, j] * w[j] for j in range(sys.n))
        h3w = sum(h3[i, j] * w[j] for j in range(sys.n))
        h7w = sum(h7[i, j] * w[j] for j in range(sys.n))
        h8w = sum(h8[i, j] * w[j] for j in range(sys.n))
        assert abs(l1[i] - (h7w * h1w + h8w * h2w)) <= 1e-12 * max(1.0, abs(l1[i]))
        assert abs(l2[i] - (h8w * h3w + h7w * h2w)) <= 1e-12 * max(1.0, abs(l2[i]))


# ---------------------------------------------------------------------------
# in-plane recovery
# ---------------------------------------------------------------------------


def test_recover_inplane_zero(table1_ss):
    sys = build_system(table1_ss)
    u, v = recover_inplane(sys, np.zeros(sys.n))
    assert np.all(u == 0.0) and np.all(v == 0.0)


def test_recover_inplane_back_substitution(table1_clamped, rng):
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)
    u, v = recover_inplane(sys, w)
    l1, l2 = l_vectors(sys, w)
    h1, h2, h3 = (dense_operator(sys, k) for k in (1, 2, 3))
    r1 = h1 @ u + h2 @ v + l1
    r2 = h2 @ u + h3 @ v + l2
    assert np.abs(r1).max() <= 1e-10 * max(np.abs(l1).max(), 1.0)
    assert np.abs(r2).max() <= 1e-10 * max(np.abs(l2).max(), 1.0)


def test_recover_inplane_matches_explicit_inverses(rng):
    """Block solve against the textbook elimination formulas (n = 4)."""
    spec = PlateSpec.isotropic(
        a=2.0, h=0.05, e=1e6, nu=0.3, q=1.0, nx=6, ny=6, bc=CLAMPED
    )
    sys = build_system(spec)
    assert sys.n == 4
    h1, h2, h3 = (dense_operator(sys, k) for k in (1, 2, 3))
    for h in (h1, h2, h3):
        assert np.linalg.cond(h) < 1e12
    w = rng.standard_normal(sys.n)
    l1, l2 = l_vectors(sys, w)
    h9 = np.linalg.solve(h2, h1) - np.linalg.solve(h3, h2)
    h10 = np.linalg.solve(h1, h2) - np.linalg.solve(h2, h3)
    u_ref = np.linalg.solve(h9, np.linalg.solve(h3, l2) - np.linalg.solve(h2, l1))
    v_ref = np.linalg.solve(h10, np.linalg.solve(h2, l2) - np.linalg.solve(h1, l1))
    u, v = recover_inplane(sys, w)
    np.testing.assert_allclose(u, u_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(v, v_ref, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------


def test_residual_rejects_wrong_length(table1_ss):
    sys = build_system(table1_ss)
    with pytest.raises(ValueError, match=r"length 25, got \(3,\)"):
        residual(sys, np.zeros(3))


def test_residual_at_zero_is_minus_load(table1_ss):
    sys = build_system(table1_ss)
    np.testing.assert_array_equal(residual(sys, np.zeros(sys.n)), -sys.load)


def test_residual_bracket_is_exactly_cubic(table1_clamped, rng):
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)

    def bracket(z):
        return (sys.h4 @ z - sys.load - residual(sys, z)) / sys.alpha

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


def test_inplane_inverse_formed_once_per_system(table1_clamped, rng, monkeypatch):
    """The first in-plane solve forms B^-1 and drops the LU; later solves,
    Jacobians and with_load copies reuse it."""
    formed = []
    inverse = pm.InplaneBlock.inverse

    def counting(block):
        if block._inverse is None:
            formed.append(block)
        return inverse(block)

    monkeypatch.setattr(pm.InplaneBlock, "inverse", counting)
    sys = build_system(table1_clamped)
    w = rng.standard_normal(sys.n)
    linear_solve(sys)
    assert formed == [] and sys.inplane._inverse is None
    residual(sys, w)
    assert formed == [sys.inplane] and sys.inplane.lu is None
    residual(sys, 2.0 * w)
    fd_jacobian(lambda z: residual(sys, z), w)
    recover_inplane(sys, w)
    jacobian(sys, w)
    heavier = with_load(sys, 2.0 * sys.spec.q)
    residual(heavier, w)
    jacobian(heavier, w)
    assert formed == [sys.inplane]
    assert heavier.inplane is sys.inplane and sys.inplane.lu is None
    n = sys.n
    h1, h2, h3 = (dense_operator(sys, k) for k in (1, 2, 3))
    block = np.block([[h1, h2], [h2, h3]])
    np.testing.assert_allclose(sys.inplane._inverse @ block, np.eye(2 * n), atol=1e-10)


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
    p = swap_permutation(sys.bcx.n_interior)
    w = rng.standard_normal(sys.n)
    lhs = jacobian(sys, p @ w)
    rhs = p @ jacobian(sys, w) @ p.T
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()


def test_residual_swap_equivariance(table1_ss, rng):
    sys = build_system(table1_ss)
    p = swap_permutation(sys.bcx.n_interior)
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


def test_linear_ss_center_navier(table1_ss):
    """Chebyshev 9x9 small-deflection center against the double series."""
    sys = build_system(replace(table1_ss, nx=9, ny=9))
    w = linear_solve(sys)
    u, v = recover_inplane(sys, w)
    center = recover_fields(sys, w, u, v).center_deflection_ratio
    assert abs(center - 0.00406 * 535.714285714) / (0.00406 * 535.714285714) < 0.005


def test_linear_clamped_center_series(table1_clamped):
    sys = build_system(replace(table1_clamped, nx=11, ny=11))
    w = linear_solve(sys)
    u, v = recover_inplane(sys, w)
    center = recover_fields(sys, w, u, v).center_deflection_ratio
    scale = 3.0 * 100.0**4 / (derive_material(table1_clamped).d1 * 1.0)
    assert abs(center - 0.00126 * scale) / (0.00126 * scale) < 0.01


def test_recovered_fields_satisfy_boundaries(table1_clamped):
    sol = solve_plate(table1_clamped)
    sys, fld = sol.system, sol.field
    assert np.all(fld.w[0, :] == 0.0) and np.all(fld.w[-1, :] == 0.0)
    assert np.all(fld.w[:, 0] == 0.0) and np.all(fld.w[:, -1] == 0.0)
    ax = dq_core.diff_matrix_first(sys.bcx.grid)
    ay = dq_core.diff_matrix_first(sys.bcy.grid)
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


@pytest.mark.parametrize("case", ["ss", "clamped"])
def test_decoupled_solution_satisfies_coupled_system(case, table1_ss, table1_clamped):
    spec = table1_ss if case == "ss" else table1_clamped
    sol = solve_plate(spec, tol=1e-9)
    w = sol.field.w_stack
    u, v = recover_inplane(sol.system, w)
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
