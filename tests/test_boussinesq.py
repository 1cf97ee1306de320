"""Coupled solver: pressure, conservation, iteration, monitor, probes."""

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp.littlewood_paley import (
    build_partition,
    holder_norm,
    holder_norm_vector,
    low_pass,
    low_pass_vector,
)
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    advect_vector,
    dealias,
    grad_inv_laplacian_div,
    divergence,
    leray_project,
    linf_norm,
    make_grid,
    transform,
)
from boussinesq_lp.transport import CFLViolation

from helpers import rel_linf, vec_linf


class TestPressureGradient:
    def test_hydrostatic_balance(self, grid64):
        theta = transform(grid64, np.sin(grid64.x2))
        grad_pi = bq.pressure_gradient(VectorField.zero(grid64), theta)
        assert linf_norm(grad_pi.u1) < 1e-14
        assert rel_linf(grad_pi.u2, theta) < 1e-13

    def test_zero_state(self, grid64):
        out = bq.pressure_gradient(VectorField.zero(grid64), SpectralField.zero(grid64))
        assert vec_linf(out) == 0.0

    def test_matches_analytic_taylor_green_pressure(self, grid64):
        # steady vortex: u.grad u = (sin 2x, sin 2y)/2, so the balancing
        # pressure is Pi = (cos 2x + cos 2y)/4 (up to amplitude squared)
        A = 1.0
        state = bq.taylor_green_data(grid64, A, 0.0)
        grad_pi = bq.pressure_gradient(state.u, SpectralField.zero(grid64))
        expected1 = -(A**2 / 2.0) * np.sin(2 * grid64.x1)
        expected2 = -(A**2 / 2.0) * np.sin(2 * grid64.x2)
        assert np.max(np.abs(grad_pi.u1.values() - expected1)) < 1e-12
        assert np.max(np.abs(grad_pi.u2.values() - expected2)) < 1e-12

    def test_forced_system_is_divergence_free(self, grid64):
        theta = bq.synthesize_holder_field(grid64, 1.5, 0.5, 1)
        u = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 2)
        grad_pi = bq.pressure_gradient(u, theta)
        rhs = -advect_vector(u, u) - grad_pi + VectorField(SpectralField.zero(grid64), theta)
        assert linf_norm(divergence(rhs)) < 1e-10


class TestDirectRun:
    def test_hydrostatic_steady_state_short(self, grid64):
        state0 = bq.hydrostatic_data(grid64)
        snaps, record = bq.run_direct(state0, 0.5, 0.02, 1.5)
        final = snaps[-1]
        assert vec_linf(final.u) <= 1e-10
        assert linf_norm(final.theta - state0.theta) <= 1e-10
        assert record.final().bkm_integral <= 1e-10

    def test_euler_reduction_short(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.0)
        full, _ = bq.run_direct(state0, 0.1, 1e-3, 1.5, buoyancy=True)
        plain, _ = bq.run_direct(state0, 0.1, 1e-3, 1.5, buoyancy=False)
        assert rel_linf(full[-1].u.u1, plain[-1].u.u1) < 1e-12
        assert rel_linf(full[-1].u.u2, plain[-1].u.u2) < 1e-12
        assert linf_norm(full[-1].theta) == 0.0

    def test_divergence_residual_along_run(self, taylor_green_run):
        record = taylor_green_run["record"]
        assert max(record.series("div_residual")) <= 1e-10

    def test_theta_maximum_principle(self, taylor_green_run):
        state0 = taylor_green_run["state0"]
        bound = linf_norm(state0.theta) * (1 + 1e-5)
        for snap in taylor_green_run["snapshots"]:
            assert linf_norm(snap.theta) <= bound

    def test_energy_bookkeeping(self, taylor_green_run):
        energy = taylor_green_run["energy"]
        d_kinetic = energy["E"][-1] - energy["E"][0]
        work = np.trapezoid(energy["W"], energy["t"])
        scale = max(abs(energy["E"][0]), 1.0)
        assert abs(d_kinetic - work) <= 1e-6 * scale * energy["t"][-1]

    def test_monitor_bkm_consistency(self, taylor_green_run):
        record = taylor_green_run["record"]
        t = record.times()
        g = record.series("grad_u_inf")
        integral = record.series("bkm_integral")
        assert np.all(np.diff(integral) >= -1e-15)
        recomputed = np.concatenate(
            [[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))]
        )
        assert np.max(np.abs(recomputed - integral)) < 1e-12

    def test_time_reversal(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        forward, _ = bq.run_direct(state0, 0.25, 1e-3, 1.5)
        turned = bq.BoussinesqState(forward[-1].theta, -forward[-1].u, 0.0)
        back, _ = bq.run_direct(turned, 0.25, 1e-3, 1.5)
        assert linf_norm(back[-1].theta - state0.theta) < 1e-6
        assert vec_linf(back[-1].u + state0.u) < 1e-6

    def test_cfl_violation(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.run_direct(state0, 1.0, 0.2, 1.5)

    def test_inviscid_taylor_green_is_steady(self):
        # with theta = 0 the vortex is an exact steady Euler solution; the
        # tolerance was fixed before the steppers were merged (error 4.6e-16)
        grid = make_grid(32)
        state0 = bq.taylor_green_data(grid, 1.0, 0.0)
        snaps, _ = bq.run_direct(state0, 0.5, 1e-3, 1.5)
        assert linf_norm(snaps[-1].theta) == 0.0
        assert vec_linf(snaps[-1].u - state0.u) < 1e-13

    def test_rk4_fourth_order(self):
        # halving dt divides the error by 2^4 = 16; compared with dt = T/256
        grid = make_grid(32)
        state0 = bq.taylor_green_data(grid, 1.0, 0.5)
        T = 0.4

        def final(steps):
            state = state0
            for _ in range(steps):
                state = bq.direct_step(state, T / steps)
            return state

        ref = final(256)
        errors = []
        for steps in (8, 16, 32, 64):
            s = final(steps)
            errors.append(max(linf_norm(s.theta - ref.theta), vec_linf(s.u - ref.u)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14.0 <= q <= 18.0 for q in ratios), ratios

    def test_nan_detection(self, grid64):
        bad = SpectralField.zero(grid64).coeffs.copy()
        bad[1, 1] = np.nan
        state = bq.BoussinesqState(
            SpectralField(grid64, bad), VectorField.zero(grid64), 0.0
        )
        with pytest.raises(bq.NumericsError):
            bq.direct_step(state, 1e-3)

    def test_rejects_non_mean_zero(self, grid64):
        theta = transform(grid64, np.full((64, 64), 1.0))
        state = bq.BoussinesqState(theta, VectorField.zero(grid64), 0.0)
        with pytest.raises(ValueError):
            bq.run_direct(state, 0.1, 1e-3, 1.5)


class TestIterationScheme:
    def test_low_block_data_not_truncated(self, grid64):
        part = build_partition(grid64)
        # velocity supported in blocks <= 0: the level-2 low-pass is the identity
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[1, 0] = -0.5j
        coeffs[-1, 0] = 0.5j  # sin(x1), |k| = 1
        psi = SpectralField(grid64, coeffs)
        u0 = VectorField(
            SpectralField(grid64, -1j * grid64.k2 * psi.coeffs),
            SpectralField(grid64, 1j * grid64.k1 * psi.coeffs),
        )
        assert rel_linf(low_pass_vector(2, u0, part).u1, u0.u1) < 1e-14
        theta0 = SpectralField.zero(grid64)
        records = bq.iterate_scheme(theta0, u0, 1.5, 6, 0.02, 2e-3, 1e-13)
        for rec in records:
            assert linf_norm(rec.theta_n) == 0.0

    def test_small_data_contraction(self, small_data):
        theta0, u0 = small_data
        records = bq.iterate_scheme(theta0, u0, 1.5, 20, 0.01, 2e-3, 1e-13)
        assert len(records) >= 3
        gaps = [max(r.cauchy_gap_theta, r.cauchy_gap_u) for r in records]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12

    def test_moderate_data_geometric_decay(self, grid64):
        # amplitude 0.1 over a longer horizon: gaps still decay with a
        # terminal ratio comfortably below 0.8
        theta0 = bq.synthesize_holder_field(grid64, 1.5, 0.1, 1)
        u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 0.1, 2)
        records = bq.iterate_scheme(theta0, u0, 1.5, 15, 0.2, 2e-3, 1e-13)
        gaps = [max(r.cauchy_gap_theta, r.cauchy_gap_u) for r in records]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        terminal_ratios = [r.ratio for r in records if r.ratio is not None]
        assert terminal_ratios and terminal_ratios[-1] <= 0.8

    def test_theta_lag_variant_runs(self, small_data):
        theta0, u0 = small_data
        records = bq.iterate_scheme(
            theta0, u0, 1.5, 8, 0.01, 2e-3, 1e-10, theta_lag=True
        )
        gaps = [max(r.cauchy_gap_theta, r.cauchy_gap_u) for r in records]
        assert gaps[-1] < gaps[0]

    def test_ratio_only_after_measurable_gap(self, small_data):
        theta0, u0 = small_data
        records = bq.iterate_scheme(theta0, u0, 1.5, 10, 0.01, 2e-3, 1e-13)
        assert records[0].ratio is None
        for rec in records[1:]:
            assert rec.ratio is None or rec.ratio >= 0.0

    def test_rejects_bad_inputs(self, grid64, small_data):
        theta0, u0 = small_data
        with pytest.raises(ValueError):
            bq.iterate_scheme(theta0, u0, 0.9, 5, 0.01, 2e-3, 1e-10)
        with pytest.raises(ValueError):
            bq.iterate_scheme(theta0, u0, 1.5, 1, 0.01, 2e-3, 1e-10)
        lumpy = theta0 + transform(grid64, np.full((64, 64), 1.0))
        with pytest.raises(ValueError):
            bq.iterate_scheme(lumpy, u0, 1.5, 5, 0.01, 2e-3, 1e-10)

    def test_cfl_violation(self, grid64):
        # unit-speed vortex: the bound is 0.5 * dx = 0.049
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.iterate_scheme(state0.theta, state0.u, 1.5, 5, 0.4, 0.2, 1e-10)


class TestSynthesize:
    def test_zero_amplitude(self, grid64):
        f = bq.synthesize_holder_field(grid64, 1.5, 0.0, 3)
        assert linf_norm(f) == 0.0

    def test_norm_matches_amplitude(self, grid64):
        for amplitude in (0.05, 1.0, 3.0):
            f = bq.synthesize_holder_field(grid64, 1.5, amplitude, 4)
            assert np.isclose(holder_norm(f, 1.5).value, amplitude, rtol=1e-12)

    def test_mean_zero_and_dealiased(self, grid64):
        f = bq.synthesize_holder_field(grid64, 2.0, 1.0, 5)
        assert f.mean() == 0.0
        assert rel_linf(dealias(f), f) == 0.0

    def test_seeds_give_distinct_fields_same_shape(self, grid64):
        f1 = bq.synthesize_holder_field(grid64, 1.5, 1.0, 6)
        f2 = bq.synthesize_holder_field(grid64, 1.5, 1.0, 7)
        assert linf_norm(f1 - f2) > 1e-3
        r1 = holder_norm(f1, 1.5)
        r2 = holder_norm(f2, 1.5)
        assert [q for q, _ in r1.block_norms] == [q for q, _ in r2.block_norms]

    def test_divfree_velocity(self, grid64):
        u = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 8)
        assert linf_norm(divergence(u)) < 1e-10
        assert np.isclose(holder_norm_vector(u, 1.5), 1.0, rtol=1e-12)


class TestBlowupMonitor:
    def test_zero_velocity_trajectory(self, grid64):
        state0 = bq.hydrostatic_data(grid64)
        _, record = bq.run_direct(state0, 0.2, 0.02, 1.5)
        assert bq.blowup_integral(record) <= 1e-10
        verdict = bq.continuation_check(record, 0.2)
        assert verdict.verdict == "FINITE"

    def test_suspect_needs_both_signals(self, grid64):
        # synthetic monitor with pole-type gradient growth (finite-time shape)
        record = bq.MonitorRecord(r=1.5)
        times = np.linspace(0.0, 1.0, 101)
        bkm = 0.0
        g_prev = (1.2 - 0.0) ** (-2.0)
        for i, t in enumerate(times):
            g = (1.2 - t) ** (-2.0)
            if i > 0:
                bkm += 0.5 * (g + g_prev) * (times[i] - times[i - 1])
            record.append(
                bq.MonitorSample(t, g, bkm, 1.0, np.exp(8.0 * t), 0.0)
            )
            g_prev = g
        assert bq._doubling_time_decreasing(record)
        # without constants the envelope leg is unavailable: stays FINITE
        assert bq.continuation_check(record, 1.0).verdict == "FINITE"
        # with a tight constant the envelope is violated: SUSPECT
        verdict = bq.continuation_check(
            record, 1.0, theta0_r=1.0, u0_r=1.0, c_frozen=0.1
        )
        assert verdict.verdict == "SUSPECT"

    def test_linear_growth_not_superlinear(self, grid64):
        record = bq.MonitorRecord(r=1.5)
        for i, t in enumerate(np.linspace(0.0, 1.0, 51)):
            record.append(bq.MonitorSample(t, 1.0, t, 1.0, 1.0, 0.0))
        assert not bq._doubling_time_decreasing(record)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            bq.blowup_integral(bq.MonitorRecord(r=1.5))


class TestUniquenessProbe:
    def test_zero_perturbation_zero_gap(self, grid64):
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        curve = bq.uniqueness_probe(state0, 0.0, 0.05, 2e-3, 1.5, sample_every=10)
        assert max(curve.theta_gaps) == 0.0
        assert max(curve.u_gaps) == 0.0

    def test_linear_response_ratio(self, grid64):
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        c4 = bq.uniqueness_probe(state0, 1e-4, 0.1, 2e-3, 1.5, sample_every=25)
        c5 = bq.uniqueness_probe(state0, 1e-5, 0.1, 2e-3, 1.5, sample_every=25)
        ratio = c4.terminal_theta_gap / c5.terminal_theta_gap
        assert 7.0 <= ratio <= 13.0

    def test_gap_growth_bounded_by_exponential_shape(self, grid64):
        # terminal-over-initial gap growth stays under exp(c * int ||u1||_r)
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        _, record = bq.run_direct(state0, 0.2, 2e-3, 1.5)
        curve = bq.uniqueness_probe(state0, 1e-4, 0.2, 2e-3, 1.5, sample_every=10)
        u_r_integral = np.trapezoid(record.series("u_r"), record.times())
        growth = max(curve.theta_gaps) / curve.theta_gaps[0]
        assert growth <= np.exp(10.0 * u_r_integral)

    def test_cfl_violation(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.uniqueness_probe(state0, 1e-4, 0.4, 0.2, 1.5)
