"""Classical series references and the boundary-treatment comparison."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fullgrid_oracle import FullGrid
from dqplate import bc_builder, dq_core, plate_model
from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.linear_bending import (
    builtin_center,
    clamped_ritz_coefficient,
    linear_center_builtin,
    linear_center_delta,
    linear_reference_center,
    navier_ss_coefficient,
    series_coefficient,
)
from dqplate.dq_core import UNIFORM
from dqplate.plate_model import PlateSpec, build_system, derive_material


def test_navier_square_coefficient():
    k = navier_ss_coefficient()
    assert abs(k - 0.00406) / 0.00406 < 0.002
    # fully converged at the default truncation
    assert abs(k - navier_ss_coefficient(terms=240)) < 1e-12


def test_navier_two_to_one_rectangle():
    """b = 2a rectangle: classical tabulated coefficient 0.01013."""
    assert abs(navier_ss_coefficient(aspect=0.5) - 0.01013) / 0.01013 < 2e-3


def test_clamped_ritz_coefficient():
    k = clamped_ritz_coefficient()
    assert abs(k - 0.00126) / 0.00126 < 0.005
    k_fine = clamped_ritz_coefficient(modes=32)
    assert abs(k - k_fine) / k_fine < 1e-4


@pytest.mark.parametrize(
    "aspect, expected",
    [(1.0, 0.0012652880493825263), (9.4 / 7.75, 0.0008088994921492226)],
)
def test_clamped_ritz_pinned_values(aspect, expected):
    """Values of the entry-by-entry stiffness assembly, 24 modes per direction."""
    assert clamped_ritz_coefficient(aspect) == pytest.approx(expected, rel=1e-13)


def test_clamped_ritz_solves_in_scipys_lapack(monkeypatch):
    """The 576 x 576 Ritz system is solved by ``plate_model.lu_solve``, in the
    BLAS pool of every other solve: a threaded numpy solve leaves numpy's
    workers spinning, which stalls the next scipy call."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert clamped_ritz_coefficient() == pytest.approx(0.0012652880493825263, rel=1e-13)


def test_series_coefficient_dispatch():
    assert series_coefficient(SIMPLY_SUPPORTED) == pytest.approx(
        navier_ss_coefficient()
    )
    assert series_coefficient(CLAMPED) == pytest.approx(clamped_ritz_coefficient())
    with pytest.raises(ValueError):
        series_coefficient("free")


@pytest.mark.parametrize("bc", [SIMPLY_SUPPORTED, CLAMPED])
def test_builtin_linear_center_matches_series(bc, table1_ss, table1_clamped):
    spec = replace(table1_ss if bc == SIMPLY_SUPPORTED else table1_clamped,
                   bc=bc, nx=11, ny=11)
    mat = derive_material(spec)
    scale = spec.q * spec.a**4 / (mat.d1 * spec.h)
    center = linear_center_builtin(spec)
    ref = series_coefficient(bc) * scale
    assert abs(center - ref) / ref < 1e-3


def test_delta_treatment_less_accurate_than_builtin(table1_clamped):
    """Clamped line at N = 11: built-in reduction beats the delta rows."""
    spec = replace(table1_clamped, nx=11, ny=11)
    mat = derive_material(spec)
    scale = spec.q * spec.a**4 / (mat.d1 * spec.h)
    ref = series_coefficient(CLAMPED) * scale
    err_builtin = abs(linear_center_builtin(spec) - ref)
    err_delta = abs(linear_center_delta(spec, 1e-5) - ref)
    assert err_builtin < err_delta
    # the delta treatment is still a consistent discretization
    assert err_delta / ref < 1e-3


def test_delta_treatment_ss_variant_runs(table1_ss):
    spec = replace(table1_ss, nx=9, ny=9)
    mat = derive_material(spec)
    scale = spec.q * spec.a**4 / (mat.d1 * spec.h)
    ref = series_coefficient(SIMPLY_SUPPORTED) * scale
    center = linear_center_delta(spec, 1e-5)
    assert abs(center - ref) / ref < 0.02


def test_linear_reference_requires_isotropic(orthotropic_spec):
    with pytest.raises(ValueError):
        linear_reference_center(orthotropic_spec)


def test_linear_reference_center_value(table1_clamped):
    mat = derive_material(table1_clamped)
    scale = table1_clamped.q * table1_clamped.a**4 / (mat.d1 * table1_clamped.h)
    np.testing.assert_allclose(
        linear_reference_center(table1_clamped),
        clamped_ritz_coefficient() * scale,
        rtol=1e-12,
    )


def test_delta_center_matches_exact_solve():
    """FIG2 plate, simply supported, uniform 13x13, q = 1e-3.

    The pinned value is the 40-digit solution of the same float64 system
    (mpmath); without row equilibration numpy's solve gave 0.000947890.
    """
    spec = PlateSpec.isotropic(
        a=16.0, h=0.1, e=30e6, nu=0.316, q=1e-3, nx=13, ny=13,
        bc=SIMPLY_SUPPORTED, grid_kind=UNIFORM,
    )
    assert linear_center_delta(spec) == pytest.approx(0.000958378946466, rel=1e-7)


def delta_center_by_dense_rows(spec, delta=1e-5):
    """The auxiliary-point center with every replaced row cut from a dense
    (N^2)^2 helper: the identity, kron(D_x, I) and kron(I, D_y)."""
    mat = plate_model.derive_material(spec)
    nx, ny = spec.nx, spec.ny
    gx, gy = (bc_builder.delta_grid(dq_core.make_grid(m, spec.grid_kind), delta)
              for m in (nx, ny))
    dmx, dmy = dq_core.diff_matrices(gx), dq_core.diff_matrices(gy)
    op = plate_model.kron_sum(
        mat.terms[plate_model.H4], plate_model.factor_stack(dmx), plate_model.factor_stack(dmy)
    )
    order = "first" if spec.bc == CLAMPED else "second"
    rows = op.reshape(nx, ny, -1)
    ident = np.eye(nx * ny).reshape(nx, ny, -1)
    on_x = np.kron(getattr(dmx, order), np.eye(ny)).reshape(nx, ny, -1)
    on_y = np.kron(np.eye(nx), getattr(dmy, order)).reshape(nx, ny, -1)
    edge, aux = [0, -1], [1, -2]
    rows[edge], rows[:, edge] = ident[edge], ident[:, edge]
    rows[aux, 1:-1] = on_x[aux, 1:-1]
    rows[2:-2, aux] = on_y[2:-2, aux]
    rhs = np.zeros((nx, ny))
    rhs[2:-2, 2:-2] = mat.load
    w = plate_model.solve_bending(op, rhs.ravel())
    return plate_model._interp_center(w.reshape(nx, ny), gx.nodes, gy.nodes)


@pytest.mark.parametrize(
    "bc, nx, ny",
    [(SIMPLY_SUPPORTED, 5, 5), (SIMPLY_SUPPORTED, 8, 8), (CLAMPED, 8, 8),
     (SIMPLY_SUPPORTED, 13, 13), (CLAMPED, 13, 13), (SIMPLY_SUPPORTED, 9, 11),
     (CLAMPED, 9, 11)],
)
def test_delta_rows_match_dense_helpers(bc, nx, ny, table1_ss):
    """Rows written on the quarter as Kronecker products of folded 1-D rows
    give the center of the full-grid rows cut from dense helpers, within
    1e-9.  At N = 5 one x-line lies between the auxiliary x-lines."""
    spec = replace(table1_ss, bc=bc, nx=nx, ny=ny)
    assert linear_center_delta(spec) == pytest.approx(delta_center_by_dense_rows(spec), rel=1e-9)


def test_delta_center_peak_memory(table1_ss):
    """Beside the operator and the solve's scaled copy of it, the auxiliary-
    point center holds no (N^2)^2 array: 21 x 21 peaks below three."""
    spec = replace(table1_ss, nx=21, ny=21)
    tracemalloc.start()
    try:
        linear_center_delta(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (spec.nx * spec.ny) ** 2 * 8


QUARTER_DELTA_CASES = (
    [(bc, "chebyshev", m, m) for bc in (SIMPLY_SUPPORTED, CLAMPED)
     for m in (5, 6, 7, 8, 9, 11, 13, 21, 31) if (bc, m) != (CLAMPED, 5)]
    + [(bc, kind, nx, ny) for bc in (SIMPLY_SUPPORTED, CLAMPED)
       for kind, nx, ny in (("chebyshev", 9, 11), ("chebyshev", 29, 31), ("orthotropic", 7, 7),
                            ("orthotropic", 29, 31), ("uniform", 5, 8), ("uniform", 9, 11))]
    + [(bc, "uniform", m, m) for bc in (SIMPLY_SUPPORTED, CLAMPED) for m in (6, 7, 9, 13)]
)


@pytest.mark.parametrize("bc, kind, nx, ny", QUARTER_DELTA_CASES)
def test_quarter_delta_center_matches_dense_rows(bc, kind, nx, ny, table1_ss, orthotropic_spec):
    """The auxiliary-point center solved on the quarter is the full-grid
    center of the dense-row oracle within 1e-9, on Chebyshev grids of every
    point count up to 31, square or not, isotropic or the a != b orthotropic
    plate, and within 1e-8 on uniform grids up to 13, whose full-grid
    system rounds more."""
    base = orthotropic_spec if kind == "orthotropic" else table1_ss
    spec = replace(base, bc=bc, nx=nx, ny=ny)
    if kind == "uniform":
        spec = replace(spec, grid_kind=UNIFORM)
    expected = delta_center_by_dense_rows(spec)
    rel = 1e-8 if kind == "uniform" else 1e-9
    assert linear_center_delta(spec) == pytest.approx(expected, rel=rel)


def test_delta_center_stays_on_the_quarter(table1_ss):
    """At 31 x 31 the auxiliary-point center peaks below one full-grid
    operator, 961^2 doubles: it forms no (N^2)^2 array."""
    spec = replace(table1_ss, nx=31, ny=31)
    tracemalloc.start()
    try:
        linear_center_delta(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (spec.nx * spec.ny) ** 2 * 8


@pytest.mark.parametrize("case", ["ss", "clamped", "rectangular", "rectangular-clamped",
                                  "uniform-ss", "uniform-clamped"])
def test_lean_builtin_center_is_the_system_center(case, table1_ss, table1_clamped,
                                                  orthotropic_spec):
    """The built-in center of a spec, formed without a system, is bitwise the
    center of the Newton start of the system built for it: the same H4, solve
    and recovery maps."""
    spec = {
        "ss": table1_ss,
        "clamped": table1_clamped,
        "rectangular": replace(table1_ss, b=75.0, nx=9, ny=7),
        "rectangular-clamped": replace(orthotropic_spec, bc=CLAMPED, ny=9),
        "uniform-ss": replace(table1_ss, nx=13, ny=13, grid_kind=UNIFORM),
        "uniform-clamped": replace(table1_clamped, nx=13, ny=13, grid_kind=UNIFORM),
    }[case]
    assert linear_center_builtin(spec) == builtin_center(build_system(spec))


def test_lean_builtin_center_forms_no_inplane_block(table1_clamped, monkeypatch):
    """The built-in center of a spec never inverts the in-plane block."""
    expected = builtin_center(build_system(table1_clamped))

    def refuse(*args, **kwargs):
        raise AssertionError("_invert_inplane called")

    monkeypatch.setattr(plate_model, "_invert_inplane", refuse)
    assert linear_center_builtin(table1_clamped) == expected


@pytest.mark.parametrize("case", ["ss", "clamped", "rectangular", "rectangular-clamped"])
def test_builtin_center_matches_linear_solve(case, table1_ss, table1_clamped,
                                             orthotropic_spec):
    """The built-in center agrees with the unfolded dense solve of H4 W = load
    on every interior node, mapped to the full grid by the recovery maps."""
    spec = {
        "ss": table1_ss,
        "clamped": table1_clamped,
        "rectangular": replace(table1_ss, b=75.0, nx=9, ny=7),
        "rectangular-clamped": replace(orthotropic_spec, bc=CLAMPED, ny=9),
    }[case]
    sys = build_system(spec)
    full = FullGrid(sys)
    w = np.linalg.solve(full.h[plate_model.H4], full.load)
    w = sys.bcx.recovery @ w.reshape(sys.bcx.n_interior, -1) @ sys.bcy.recovery.T
    expected = plate_model._interp_center(w, sys.bcx.grid.nodes, sys.bcy.grid.nodes)
    assert linear_center_builtin(spec) == pytest.approx(expected, rel=1e-12)
