"""Property test over the plates PlateSpec accepts: each either builds a
finite system or is refused with a typed error, and nothing warns."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqplate.bc_builder import CLAMPED, SIMPLY_SUPPORTED
from dqplate.plate_model import (
    AssemblyError,
    DecouplingError,
    PlateSpec,
    SpecError,
    build_system,
)

log_uniform = st.floats(-20.0, 20.0).map(lambda x: 10.0**x)
loads = st.one_of(
    st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform).map(lambda s: s[0] * s[1])
)
# The bundled Table 1 simply supported plate, which the examples push out of range.
TABLE1 = dict(a=100.0, b=100.0, h=1.0, e1=2.1e6, e2=2.1e6, g12=2.1e6 / 2.5, nu12=0.25,
              q=1.0, bc=SIMPLY_SUPPORTED, nx=7, ny=7)


@settings(max_examples=150, deadline=None)
@given(
    a=log_uniform, b=log_uniform, h=log_uniform, e1=log_uniform, e2=log_uniform,
    g12=log_uniform, nu12=st.floats(0.0, 1.0, exclude_max=True), q=loads,
    bc=st.sampled_from([SIMPLY_SUPPORTED, CLAMPED]),
    nx=st.integers(5, 7), ny=st.integers(5, 7),
)
@example(**{**TABLE1, "h": 1e200})
@example(**{**TABLE1, "a": 1e100, "b": 1e100})
@example(**{**TABLE1, "h": 1e-200})
@example(**{**TABLE1, "q": 1e300})
@example(a=1.0, b=1.0, h=0.01, e1=1.0, e2=1e-320, g12=1e-320, nu12=0.3,
         q=1.0, bc=SIMPLY_SUPPORTED, nx=7, ny=7)
def test_accepted_plate_builds_a_finite_system(a, b, h, e1, e2, g12, nu12, q, bc, nx, ny):
    try:
        spec = PlateSpec(a=a, b=b, h=h, e1=e1, e2=e2, nu12=nu12, g12=g12, bc=bc, q=q,
                         nx=nx, ny=ny)
    except SpecError:
        return
    try:
        system = build_system(spec)
    except (DecouplingError, AssemblyError):
        return
    for value in (system.h4, system.inplane_inverse, spec.material.load, spec.material.alpha):
        assert np.isfinite(value).all()
