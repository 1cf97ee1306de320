"""Linear advection: oracles, conservation, convergence, CFL handling."""

import numpy as np
import pytest

from boussinesq_lp.boussinesq import synthesize_divfree_velocity, synthesize_holder_field
from boussinesq_lp.harness import gronwall_constant
from boussinesq_lp.littlewood_paley import holder_norm
from boussinesq_lp import transport
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    derivative,
    grad_linf_norm,
    is_divergence_free,
    linf_norm,
)
from boussinesq_lp.transport import (
    CFLViolation,
    TransportProblem,
    cfl_bound,
    solve,
)

from helpers import mean_zero_smooth_field, rel_linf


def _trig_profile(x1, x2):
    return np.sin(3 * x1) * np.cos(2 * x2) + 0.5 * np.cos(5 * x1 + x2)


def constant_velocity_problem(grid, c=(1.0, 0.0), T=1.0, dt=1e-3):
    f0 = SpectralField.from_values(grid, _trig_profile(grid.x1, grid.x2))
    v = VectorField.from_values(
        grid, np.full((grid.n, grid.n), c[0]), np.full((grid.n, grid.n), c[1])
    )
    return TransportProblem(f0, v, T, dt), c


def translated_profile(grid, c, T):
    return _trig_profile(grid.x1 - c[0] * T, grid.x2 - c[1] * T)


def one_step(f, v, dt):
    """One RK4 step of solve: T = dt."""
    return solve(TransportProblem(f, v, T=dt, dt=dt)).final()


class TestStep:
    def test_zero_velocity_zero_forcing_identity(self, grid64):
        f = mean_zero_smooth_field(grid64, 1)
        out = one_step(f, VectorField.zero(grid64), 1e-2)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_cfl_violation_raises(self, grid64):
        f = mean_zero_smooth_field(grid64, 2)
        v = VectorField.from_values(
            grid64, np.full((64, 64), 10.0), np.zeros((64, 64))
        )
        bound = cfl_bound(v)
        with pytest.raises(CFLViolation):
            one_step(f, v, 2.0 * bound)
        one_step(f, v, 0.9 * bound)  # inside the bound: fine

    def test_rejects_compressible_velocity(self, grid64):
        rng = np.random.default_rng(3)
        v = VectorField.from_values(
            grid64, rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        )
        with pytest.raises(ValueError):
            one_step(mean_zero_smooth_field(grid64, 4), v, 1e-3)


class TestSolve:
    def test_constant_velocity_matches_characteristics(self, grid64):
        problem, c = constant_velocity_problem(grid64, c=(0.7, 0.4), T=0.5)
        traj = solve(problem, observers=500)
        expected = translated_profile(grid64, c, 0.5)
        err = np.max(np.abs(traj.final().values() - expected))
        assert err < 1e-8

    def test_manufactured_steady_state(self, grid64):
        # v = c grad-perp psi runs along the level sets of psi, so v.grad psi = 0
        psi = synthesize_holder_field(grid64, 2.5, 1.0, 6)
        v = VectorField(-derivative(psi, 2), derivative(psi, 1)) * 0.8
        traj = solve(TransportProblem(psi, v, T=1.0, dt=2e-3), observers=100)
        assert linf_norm(traj.final() - psi) < 1e-9

    def test_zero_data_stays_zero(self, grid64):
        v = synthesize_divfree_velocity(grid64, 1.5, 1.0, 7)
        traj = solve(TransportProblem(SpectralField.zero(grid64), v, 0.2, 2e-3))
        assert linf_norm(traj.final()) == 0.0

    def test_linearity(self, grid64):
        v = synthesize_divfree_velocity(grid64, 1.5, 0.5, 8)
        f0 = mean_zero_smooth_field(grid64, 9)
        h0 = mean_zero_smooth_field(grid64, 10)
        a, b = 2.0, -0.7
        combo = SpectralField(grid64, a * f0.coeffs + b * h0.coeffs)
        traj_combo = solve(TransportProblem(combo, v, 0.2, 2e-3), observers=100)
        traj_f = solve(TransportProblem(f0, v, 0.2, 2e-3), observers=100)
        traj_h = solve(TransportProblem(h0, v, 0.2, 2e-3), observers=100)
        recombined = a * traj_f.final() + b * traj_h.final()
        assert rel_linf(traj_combo.final(), recombined) < 1e-11

    def test_mean_conservation(self, grid64):
        v = synthesize_divfree_velocity(grid64, 1.5, 1.0, 11)
        f0 = mean_zero_smooth_field(grid64, 12) + SpectralField.from_values(
            grid64, np.full((64, 64), 0.5)
        )
        traj = solve(TransportProblem(f0, v, 0.3, 2e-3), observers=50)
        means = [f.mean() for f in traj.fields]
        assert max(abs(m - means[0]) for m in means) < 1e-11

    def test_sup_norm_control(self, grid64):
        v = synthesize_divfree_velocity(grid64, 1.5, 1.0, 13)
        f0 = mean_zero_smooth_field(grid64, 14)
        traj = solve(TransportProblem(f0, v, 0.5, 2e-3), observers=25)
        bound = linf_norm(f0) * (1.0 + 1e-6)
        assert all(linf_norm(f) <= bound for f in traj.fields)

    def test_self_convergence_order(self, grid64):
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            problem, c = constant_velocity_problem(grid64, c=(1.0, 0.0), T=0.5, dt=dt)
            traj = solve(problem, observers=10**6)
            expected = translated_profile(grid64, c, 0.5)
            errors.append(np.max(np.abs(traj.final().values() - expected)))
        assert errors[0] / errors[1] >= 2.0**3
        assert errors[1] / errors[2] >= 2.0**3

    def test_gronwall_envelope(self, grid64, reports):
        r = 1.5
        c_frozen = gronwall_constant(reports, r)
        v = synthesize_divfree_velocity(grid64, r, 1.0, 15)
        f0 = mean_zero_smooth_field(grid64, 16)
        traj = solve(TransportProblem(f0, v, 0.5, 2e-3), observers=25)
        gradv = grad_linf_norm(v)
        norm0 = holder_norm(f0, r)
        for t, f in zip(traj.times, traj.fields):
            envelope = norm0 * np.exp(c_frozen * gradv * t)
            assert holder_norm(f, r) <= envelope * (1 + 1e-9)

    def test_constant_velocity_checked_once(self, grid64, monkeypatch):
        calls = []

        def counting(v):
            calls.append(v)
            return is_divergence_free(v)

        monkeypatch.setattr(transport, "is_divergence_free", counting)
        problem, _ = constant_velocity_problem(grid64, T=0.01, dt=1e-3)
        solve(problem)
        assert len(calls) == 1 and calls[0] is problem.velocity

    def test_fractional_final_step(self, grid64):
        problem, c = constant_velocity_problem(grid64, c=(1.0, 0.0), T=0.2505, dt=1e-3)
        traj = solve(problem, observers=10**6)
        expected = translated_profile(grid64, c, 0.2505)
        assert np.max(np.abs(traj.final().values() - expected)) < 1e-8
        assert np.isclose(traj.times[-1], 0.2505)

    def test_observers_must_be_positive(self, grid64):
        problem, _ = constant_velocity_problem(grid64, T=0.01, dt=1e-3)
        for observers in (0, -1):
            with pytest.raises(ValueError, match="observers"):
                solve(problem, observers=observers)
