import numpy as np
import pytest

from dqplate import CLAMPED, SIMPLY_SUPPORTED, PlateSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def table1_ss():
    """Simply supported square benchmark plate (center w/h near 0.94)."""
    return PlateSpec.isotropic(
        a=100.0, h=1.0, e=2.1e6, nu=0.25, q=1.0, nx=7, ny=7, bc=SIMPLY_SUPPORTED
    )


@pytest.fixture
def table1_clamped():
    """Clamped square benchmark plate (center w/h near 1.12)."""
    return PlateSpec.isotropic(
        a=100.0, h=1.0, e=2.1e6, nu=0.316, q=3.0, nx=9, ny=9, bc=CLAMPED
    )


@pytest.fixture
def orthotropic_spec():
    """Rectangular orthotropic plate used for the sweep studies."""
    return PlateSpec(
        a=9.4,
        b=7.75,
        h=0.0624,
        e1=18.7e6,
        e2=1.3e6,
        nu12=0.3,
        g12=0.6e6,
        bc=SIMPLY_SUPPORTED,
        q=1.0,
        nx=7,
        ny=7,
    )


def row_scale(v, m):
    """SJT product diag(v) M, row i of M scaled by v_i, at n^2 cost: the dense
    form of the row scalings that plate_model.jacobian folds into 1-D factors."""
    return np.einsum("i,ij->ij", v, m)


def dense_operator(sys, k):
    """Dense H_k (k a name, plate_model.H1..H8) of an assembled system, summed
    with plain np.kron over its Kronecker terms (c, ix, iy); the 1-D factors
    are taken by name from the boundary operator sets, index 0 being the
    identity."""

    def factor(ops, i):
        if i == 0:
            return np.eye(ops.n_interior)
        return getattr(ops, ("first", "second", "fourth")[i - 1])

    return sum(
        c * np.kron(factor(sys.bcx, ix), factor(sys.bcy, iy))
        for c, ix, iy in sys.terms[k]
    )


def count_calls(monkeypatch, module, name):
    """The (args, kwargs) of every call to ``module.name`` from now on."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
