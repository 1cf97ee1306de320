"""The direct solver on moving data against a second formulation.

``helpers.vorticity_rk4`` integrates the vorticity form of the system with
its own right-hand side.  On dealiased data it is the same Fourier-Galerkin
system as the primitive form of ``run_direct`` (flux-form momentum, the 2/3
mask and the Leray projection), so the two trajectories agree up to
roundoff: a sign error in the buoyancy, a missing projection or a
dealiasing slip shows at O(1).  The tolerance was fixed before the first
run; a failure is a fault of the solver, not a tolerance to widen.

``int theta^2`` and ``int theta omega`` are exact invariants of the
dealiased semi-discrete system (d/dt int theta omega = int theta d1 theta
= 0), so RK4 drifts them at O(dt^4).

The data are synthesized r = 1.5 fields (velocity seed 4, temperature
seed 3) on short horizons, so the whole file runs in about a second.
"""

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp.spectral import make_grid

from helpers import vorticity_rk4

RTOL = 1e-12  # of the largest coefficient; about 2.5e-15 was measured


def _data(n, u_amplitude, theta_amplitude):
    g = make_grid(n)
    theta = bq.synthesize_holder_field(g, 1.5, theta_amplitude, 3)
    return bq.BoussinesqState.of(theta, bq.synthesize_divfree_velocity(g, 1.5, u_amplitude, 4))


@pytest.mark.parametrize("buoyancy", [True, False])
@pytest.mark.parametrize("n,T,dt", [(32, 0.1, 2e-3), (64, 0.05, 2e-3), (128, 0.01, 1e-3)])
def test_direct_run_matches_the_vorticity_form(n, T, dt, buoyancy):
    state0 = _data(n, 1.0, 0.5)
    got, _ = bq.run_direct(state0, T, dt, 1.5, buoyancy=buoyancy)
    want = vorticity_rk4(state0.grid, *state0.coeffs, T, dt, buoyancy=buoyancy)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.coeffs - state0.coeffs)) > 1e3 * RTOL * scale  # the data moved
    assert np.max(np.abs(got.coeffs - want)) <= RTOL * scale


def _invariants(state):
    """(int theta^2, int theta omega) over the grid, omega = d1 u2 - d2 u1."""
    g = state.grid
    theta = state.theta.values()
    omega = np.fft.irfft2(g.ik1 * state.coeffs[2] - g.ik2 * state.coeffs[1], s=(g.n, g.n), norm="forward")
    return np.array([np.sum(theta * theta), np.sum(theta * omega)]) * g.dx**2


def test_quadratic_invariants_drift_at_fourth_order():
    # 18-20x per halving of dt was measured on this data at T = 0.1 and
    # T = 0.5; 16x is the RK4 order
    state0 = _data(64, 2.0, 1.0)
    start = _invariants(state0)
    drifts = []
    for dt in (4e-3, 2e-3):
        state, _ = bq.run_direct(state0, 0.1, dt, 1.5)
        drifts.append(np.abs(_invariants(state) - start) / np.abs(start))
    assert np.all(drifts[0] >= 10.0 * drifts[1])
