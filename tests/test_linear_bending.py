"""Classical series references and the boundary-treatment comparison."""

from dataclasses import replace

import numpy as np
import pytest

from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.linear_bending import (
    clamped_ritz_coefficient,
    linear_center_builtin,
    linear_center_delta,
    linear_reference_center,
    navier_ss_coefficient,
    series_coefficient,
)
from dqplate.dq_core import UNIFORM
from dqplate.plate_model import (
    PlateSpec,
    build_system,
    derive_material,
    linear_solve,
    recover_fields,
)


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


@pytest.mark.parametrize("case", ["ss", "clamped", "rectangular", "rectangular-clamped"])
def test_builtin_center_matches_linear_solve(case, table1_ss, table1_clamped,
                                             orthotropic_spec):
    """H4 W = load straight from the reduced operators gives the center of
    the assembled system's linear solve mapped through recover_fields."""
    spec = {
        "ss": table1_ss,
        "clamped": table1_clamped,
        "rectangular": replace(table1_ss, b=75.0, nx=9, ny=7),
        "rectangular-clamped": replace(orthotropic_spec, bc=CLAMPED, ny=9),
    }[case]
    sys = build_system(spec)
    w = linear_solve(sys)
    zero = np.zeros_like(w)
    expected = recover_fields(sys, w, zero, zero).center_deflection_ratio
    assert linear_center_builtin(spec) == pytest.approx(expected, rel=1e-12)
