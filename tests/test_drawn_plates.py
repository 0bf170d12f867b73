"""Differential tests over drawn plates: the analytic Jacobian against central
differences, the quarter solve against the fully dimensional oracle, and the
linear limit against the classical series, each on plates PlateSpec accepts.

A plate has a = 10 and a != b, is isotropic or orthotropic, and takes either
support and grid kind; a clamped direction has 6 points or more, as with 5 a
field odd in it is all rounding.  Its load puts the linear center w/h in
[0.2, 1.5], where the nonlinear terms are of the order of the linear ones.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from dimensional_oracle import solve_dimensional
from dqplate import linear_bending, plate_model
from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.dq_core import CHEBYSHEV, UNIFORM
from dqplate.newton_solver import fd_jacobian, solve_plate
from dqplate.plate_model import PlateSpec

E1 = 1e7
poisson = st.one_of(st.just(0.0), st.floats(0.01, 0.45))  # no subnormal nu12: refused
isotropic = st.builds(lambda nu: dict(e2=E1, nu12=nu, g12=E1 / (2.0 * (1.0 + nu))), poisson)
orthotropic = st.builds(lambda e2, g12, nu: dict(e2=E1 * e2, nu12=nu, g12=E1 * g12),
                        st.floats(0.05, 2.0), st.floats(0.02, 0.5), poisson)
plate = dict(
    bc=st.sampled_from([SIMPLY_SUPPORTED, CLAMPED]),
    b_over_a=st.floats(0.5, 2.0).filter(lambda x: abs(x - 1.0) > 0.05),
    h_over_a=st.floats(0.002, 0.05),
    center=st.floats(0.2, 1.5),
)
# A plate that the examples below place on 31 x 31 Chebyshev grids.
ORTHO = dict(e2=1.3e6, nu12=0.3, g12=0.6e6)


def loaded_system(bc, kind, nx, ny, b_over_a, h_over_a, material, center):
    """The system of the drawn plate under the load whose linear center w/h
    is ``center``: the linear solve is linear in q, so one at q = 1 sets it."""
    if bc == CLAMPED:
        nx, ny = max(nx, 6), max(ny, 6)
    spec = PlateSpec(a=10.0, b=10.0 * b_over_a, h=10.0 * h_over_a, e1=E1, **material,
                     bc=bc, q=1.0, nx=nx, ny=ny, grid_kind=kind)
    sys = plate_model.build_system(spec)
    return plate_model.with_load(sys, center / linear_bending.builtin_center(sys))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from([CHEBYSHEV, UNIFORM]), nx=st.integers(5, 13),
       ny=st.integers(5, 13), material=st.one_of(isotropic, orthotropic), **plate)
@example(bc=SIMPLY_SUPPORTED, kind=CHEBYSHEV, nx=31, ny=31, b_over_a=7.75 / 9.4,
         h_over_a=0.0624 / 9.4, material=ORTHO, center=1.5)
@example(bc=CLAMPED, kind=CHEBYSHEV, nx=31, ny=31, b_over_a=1.5, h_over_a=0.01,
         material=dict(e2=E1, nu12=0.3, g12=E1 / 2.6), center=1.5)
def test_jacobian_matches_central_differences_on_drawn_plates(
    bc, kind, nx, ny, b_over_a, h_over_a, material, center
):
    """At the linear solution, the analytic Jacobian agrees with central
    differences of the residual to 1e-6 of its largest entry (criterion 4)."""
    sys = loaded_system(bc, kind, nx, ny, b_over_a, h_over_a, material, center)
    w = plate_model.linear_solve(sys)
    analytic = plate_model.jacobian(sys, w)
    differenced = fd_jacobian(lambda z: plate_model.residual(sys, z), w)
    assert np.abs(analytic - differenced).max() <= 1e-6 * np.abs(analytic).max()


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from([CHEBYSHEV, UNIFORM]), nx=st.integers(5, 9),
       ny=st.integers(5, 9), material=st.one_of(isotropic, orthotropic), **plate)
def test_solve_matches_the_dimensional_oracle_on_drawn_plates(
    bc, kind, nx, ny, b_over_a, h_over_a, material, center
):
    """The quarter solve's w agrees to 1e-8 with the monolithic solve in
    physical variables, which builds its operators from the plate's constants
    rather than from the material's Kronecker terms.  The solve's tolerance is
    1e-11 times the load where that exceeds 1: the residual's rounding floor
    grows with the load, and an absolute 1e-11 lies below it from a load of
    about 1e3 on (Newton then stalls at 1.5e-11 for a load of 2.8e3)."""
    sys = loaded_system(bc, kind, nx, ny, b_over_a, h_over_a, material, center)
    sol = solve_plate(sys.spec, tol=1e-11 * max(1.0, sys.spec.material.load), system=sys)
    w_dim, _, report = solve_dimensional(sys.spec)
    assert sol.report.converged and report.converged
    assert np.abs(w_dim - sol.field.w).max() <= 1e-8 * np.abs(sol.field.w).max()


@settings(max_examples=10, deadline=None)
@given(nx=st.sampled_from([11, 13]), ny=st.sampled_from([11, 13]), material=isotropic,
       **plate)
def test_linear_center_matches_the_series_on_drawn_plates(
    bc, nx, ny, material, b_over_a, h_over_a, center
):
    """An isotropic plate's linear center on Chebyshev grids of 11 or 13
    points is within 1% of the Navier or Ritz series (criterion 5)."""
    sys = loaded_system(bc, CHEBYSHEV, nx, ny, b_over_a, h_over_a, material, center)
    reference = linear_bending.linear_reference_center(sys.spec)
    assert abs(linear_bending.builtin_center(sys) - reference) <= 0.01 * abs(reference)
