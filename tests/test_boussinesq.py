"""Coupled solver: pressure, conservation, iteration, monitor, probes."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import transport
from boussinesq_lp.littlewood_paley import (
    besov_norm,
    build_partition,
    holder_norm,
    holder_norm_vector,
    low_pass,
    low_pass_vector,
)
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    advect,
    advect_vector,
    dealias,
    derivative,
    divergence,
    leray_project,
    linf_norm,
    make_grid,
)
from boussinesq_lp.transport import CFLViolation

from helpers import rel_linf, vec_linf


class TestSelfAdvection:
    """The flux form of the direct step's right-hand side against the
    projected advective form."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("data", ["taylor-green", "divfree"])
    def test_flux_form_matches_advective_form(self, n, data):
        grid = make_grid(n)
        if data == "taylor-green":
            u = bq.taylor_green_data(grid, 1.0, 0.0).u
        else:
            u = bq.synthesize_divfree_velocity(grid, 1.5, 1.0, 5)
        slope = bq._rhs(bq._Stack.of(SpectralField.zero(grid), u), buoyancy=False).velocity
        advective = advect_vector(u, u)
        assert vec_linf(slope + leray_project(advective)) / vec_linf(advective) < 1e-12
        for c in (slope.u1, slope.u2):
            assert np.all(c.coeffs[~grid.dealias_mask] == 0.0)


class TestDirectRun:
    def test_hydrostatic_steady_state_short(self, grid64):
        state0 = bq.hydrostatic_data(grid64)
        final, record = bq.run_direct(state0, 0.5, 0.02, 1.5)
        assert vec_linf(final.u) <= 1e-10
        assert linf_norm(final.theta - state0.theta) <= 1e-10
        assert record.final().bkm_integral <= 1e-10

    def test_euler_reduction_short(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.0)
        full, _ = bq.run_direct(state0, 0.1, 1e-3, 1.5, buoyancy=True)
        plain, _ = bq.run_direct(state0, 0.1, 1e-3, 1.5, buoyancy=False)
        assert rel_linf(full.u.u1, plain.u.u1) < 1e-12
        assert rel_linf(full.u.u2, plain.u.u2) < 1e-12
        assert linf_norm(full.theta) == 0.0

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
        turned = bq.BoussinesqState(forward.theta, -forward.u, 0.0)
        back, _ = bq.run_direct(turned, 0.25, 1e-3, 1.5)
        assert linf_norm(back.theta - state0.theta) < 1e-6
        assert vec_linf(back.u + state0.u) < 1e-6

    def test_cfl_violation(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.run_direct(state0, 1.0, 0.2, 1.5)

    def test_inviscid_taylor_green_is_steady(self):
        # with theta = 0 the vortex is an exact steady Euler solution; the
        # tolerance was fixed before the steppers were merged (error 4.6e-16)
        grid = make_grid(32)
        state0 = bq.taylor_green_data(grid, 1.0, 0.0)
        final, _ = bq.run_direct(state0, 0.5, 1e-3, 1.5)
        assert linf_norm(final.theta) == 0.0
        assert vec_linf(final.u - state0.u) < 1e-13

    def test_rk4_fourth_order(self):
        # halving dt divides the error by 2^4 = 16; compared with dt = T/256
        grid = make_grid(32)
        state0 = bq.taylor_green_data(grid, 1.0, 0.5)
        T = 0.4

        def final(steps):
            y = bq._Stack.of(state0.theta, state0.u)
            for i in range(steps):
                y = bq._direct_step(y, i * T / steps, T / steps, True)
            return y

        ref = final(256)
        errors = []
        for steps in (8, 16, 32, 64):
            s = final(steps)
            errors.append(max(linf_norm(s.theta - ref.theta), vec_linf(s.velocity - ref.velocity)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(14.0 <= q <= 18.0 for q in ratios), ratios

    def test_nan_detection(self, grid64):
        bad = SpectralField.zero(grid64).coeffs.copy()
        bad[1, 1] = np.nan
        state = bq.BoussinesqState(
            SpectralField(grid64, bad), VectorField.zero(grid64), 0.0
        )
        with pytest.raises(bq.NumericsError):
            bq._direct_step(bq._Stack.of(state.theta, state.u), 0.0, 1e-3, True)

    def test_rejects_non_mean_zero(self, grid64):
        theta = SpectralField.from_values(grid64, np.full((64, 64), 1.0))
        state = bq.BoussinesqState(theta, VectorField.zero(grid64), 0.0)
        with pytest.raises(ValueError):
            bq.run_direct(state, 0.1, 1e-3, 1.5)

    def test_rejects_fields_on_different_grids(self, grid64):
        # the same n and q_max, boxes 2 pi and 1.9 pi: no other check fires
        theta0 = bq.synthesize_holder_field(grid64, 1.5, 0.05, 1)
        u0 = bq.synthesize_divfree_velocity(make_grid(64, 1.9 * np.pi), 1.5, 0.05, 2)
        with pytest.raises(ValueError, match="fields live on different grids"):
            bq.BoussinesqState(theta0, u0)
        with pytest.raises(ValueError, match="fields live on different grids"):
            bq.iterate_scheme(theta0, u0, 1.5, 3, 0.006, 2e-3, 1e-30)


class TestIterationScheme:
    def test_low_block_data_not_truncated(self, grid64):
        # velocity supported in blocks <= 0: the level-2 low-pass is the identity
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[1, 0] = -0.5j
        coeffs[-1, 0] = 0.5j  # sin(x1), |k| = 1
        psi = SpectralField(grid64, coeffs)
        u0 = VectorField(
            SpectralField(grid64, -1j * grid64.k2 * psi.coeffs),
            SpectralField(grid64, 1j * grid64.k1 * psi.coeffs),
        )
        assert rel_linf(low_pass_vector(2, u0).u1, u0.u1) < 1e-14
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
        # mean-zero, so only the dealias check can reject it
        aliased_theta = theta0 + SpectralField.from_values(grid64, 1e-3 * np.cos(30 * grid64.x1))
        with pytest.raises(ValueError, match="must be dealiased"):
            bq.iterate_scheme(aliased_theta, u0, 1.5, 5, 0.01, 2e-3, 1e-10)
        # mean-zero and divergence-free, with a mode |k| = 30 > n/3: its
        # alias residual is 0.03
        psi = SpectralField.from_values(
            grid64, 1e-3 * np.cos(30 * grid64.x1) + 1e-2 * np.sin(grid64.x1 + 2 * grid64.x2)
        )
        aliased_u = VectorField(-derivative(psi, 2), derivative(psi, 1))
        with pytest.raises(ValueError, match="must be dealiased"):
            bq.iterate_scheme(theta0, aliased_u, 1.5, 5, 0.01, 2e-3, 1e-10)

    def test_cfl_violation(self, grid64):
        # unit-speed vortex: the bound is 0.5 * dx = 0.049
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.iterate_scheme(state0.theta, state0.u, 1.5, 5, 0.4, 0.2, 1e-10)

    def test_same_dt_same_cfl_verdict_as_direct_run(self, grid64):
        # amplitude 27: the bound is 0.5 * dx / 27 = 1.82e-3 < dt; T/dt = 2.5
        state0 = bq.taylor_green_data(grid64, 27.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.run_direct(state0, 0.005, 2e-3, 1.5)
        with pytest.raises(CFLViolation):
            bq.iterate_scheme(state0.theta, state0.u, 1.5, 6, 0.005, 2e-3, 1e-13)

    def test_iterates_step_on_the_direct_lattice(self, small_data, monkeypatch):
        # T/dt = 3.65: three steps of dt and a remainder step ending at T
        theta0, u0 = small_data
        steps = []
        coupled_step = bq._coupled_step

        def recorded(y, rhs, t, h):
            steps.append((t, h))
            return coupled_step(y, rhs, t, h)

        monkeypatch.setattr(bq, "_coupled_step", recorded)
        records = bq.iterate_scheme(theta0, u0, 1.5, 3, 0.0073, 2e-3, 1e-30)
        lattice = [(0.0, 2e-3), (2e-3, 2e-3), (4e-3, 2e-3), (6e-3, 0.0073 - 3 * 2e-3)]
        assert len(records) == 2
        assert steps == 2 * lattice

    def test_peak_memory_is_one_trajectory(self):
        # 20 steps: an iterate holds 21 nodes and 21 slopes, each a stack
        # of 3 * n * (n/2 + 1) complex coefficients, and the run may hold
        # 1.5 times that at its peak, not the two trajectories of a
        # measurement taken after the iterate
        grid = make_grid(32)
        theta0 = bq.synthesize_holder_field(grid, 1.5, 0.05, 1)
        u0 = bq.synthesize_divfree_velocity(grid, 1.5, 0.05, 2)
        args = (theta0, u0, 1.5, 4, 20 * 2e-3, 2e-3, 1e-30)
        bq.iterate_scheme(*args)  # builds the grid's tables and work arrays
        tracemalloc.start()
        try:
            records = bq.iterate_scheme(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 3
        stack = 3 * grid.n * (grid.n // 2 + 1) * np.dtype(complex).itemsize
        assert peak < 1.5 * 2 * (20 + 1) * stack


def _parent_linear_iterate(prev, init, lattice, theta_lag):
    """The linearized iterate as stepped before its gaps were streamed:
    against the whole stored previous iterate, which it keeps."""
    frozen = lru_cache(maxsize=1)(prev.at)

    def rhs(t, y):
        advecting = frozen(t)
        return bq._linear_rhs(y, advecting.velocity, (advecting if theta_lag else y).coeffs[0])

    nodes, slopes, t = [init], [], 0.0
    for h, t_end in lattice:
        transport._check_cfl(frozen(t).velocity, h, t)
        y, k1 = bq._coupled_step(nodes[-1], rhs, t, h)
        nodes.append(y)
        slopes.append(k1)
        t = t_end
    slopes.append(rhs(t, nodes[-1]))
    return bq._HermiteTrajectory(lattice, nodes, slopes)


def _parent_gaps(theta0, u0, r, n_max, T, dt, theta_lag):
    """(gap_theta, gap_u, ratio, final stack) of iterates 2..n_max by the
    two-pass measurement: each iterate stepped, then its gaps taken at
    its node times with both trajectories kept; no stop rule."""
    lattice = transport._step_lattice(T, dt)
    q_max = build_partition(theta0.grid).q_max
    start = bq._Stack.of(low_pass(2, theta0), low_pass_vector(2, u0))
    current = bq._HermiteTrajectory([], [start], [0.0 * start])
    out, prev_gap = [], None
    for m in range(2, n_max + 1):
        level = min(m + 1, q_max + 1)
        init = bq._Stack.of(low_pass(level, theta0), low_pass_vector(level, u0))
        new = _parent_linear_iterate(current, init, lattice, theta_lag)
        gap_theta = gap_u = 0.0
        for t in new.times:
            node_theta, node_u = bq._gap_norms(new.at(t) - current.at(t), r - 1)
            gap_theta = max(gap_theta, node_theta)
            gap_u = max(gap_u, node_u)
        gap = max(gap_theta, gap_u)
        ratio = (gap / prev_gap) if (prev_gap is not None and prev_gap > 1e-14) else None
        out.append((gap_theta, gap_u, ratio, new.at(new.times[-1])))
        current, prev_gap = new, gap
    return out


def _hex(x):
    return None if x is None else float.hex(x)


class TestStreamedGaps:
    """The Cauchy gaps taken as each node is made, and the steps of the
    previous iterate released behind the reads, give every gap, ratio and
    final iterate bit for bit as the two-pass measurement."""

    @pytest.mark.parametrize("theta_lag", [False, True])
    @pytest.mark.parametrize("T", [0.006, 0.0073, 0.0])  # T/dt = 3, 3.65 and 0
    def test_gaps_match_the_two_pass_measurement(self, small_data, T, theta_lag):
        theta0, u0 = small_data
        records = bq.iterate_scheme(theta0, u0, 1.5, 5, T, 2e-3, 1e-30, theta_lag=theta_lag)
        want = _parent_gaps(theta0, u0, 1.5, 5, T, 2e-3, theta_lag)
        # at T = 0 the gap of iterate 3 is 0, below tol
        assert len(records) == (2 if T == 0.0 else 4)
        for rec, (gap_theta, gap_u, ratio, final) in zip(records, want):
            got = (rec.cauchy_gap_theta, rec.cauchy_gap_u, rec.ratio)
            assert tuple(map(_hex, got)) == tuple(map(_hex, (gap_theta, gap_u, ratio)))
            stack = bq._Stack.of(rec.theta_n, rec.u_n)
            assert np.array_equal(stack.coeffs.view(np.uint64), final.coeffs.view(np.uint64))

    def test_next_iterate_releases_the_steps_it_passed(self, small_data):
        theta0, u0 = small_data
        lattice = transport._step_lattice(0.0073, 2e-3)
        start = bq._Stack.of(theta0, u0)
        constant = bq._HermiteTrajectory([], [start], [0.0 * start])
        prev = bq._solve_linear_iterate(constant, start, lattice, False, 1.5)[0]
        assert constant.at(0.0) is start  # a one-node trajectory releases nothing
        last = prev.at(0.0073)
        bq._solve_linear_iterate(prev, start, lattice, False, 1.5)
        for t in (0.0, 3e-3, 5e-3):
            with pytest.raises(LookupError, match=f"t={t:.6g}"):
                prev.at(t)
        assert prev.at(0.0073) is last


def _per_field_rhs(theta, u, buoyancy):
    """The direct step's right-hand side field by field: -u . grad theta,
    and the projected force with u . grad u in flux form, one field per
    product and per derivative."""
    u1, u2 = u.values()
    f11, f12, f22 = (SpectralField.from_values(u.grid, p) for p in (u1 * u1, u1 * u2, u2 * u2))
    m = VectorField(
        dealias(derivative(f11, 1) + derivative(f12, 2)),
        dealias(derivative(f12, 1) + derivative(f22, 2)),
    )
    force = VectorField(-m.u1, theta - m.u2) if buoyancy else -m
    return -advect(u, theta), leray_project(force)


def _per_field_step(theta, u, h, buoyancy):
    """One RK4 step on the (theta, u) field pair, the velocity projected at the end."""
    k1 = _per_field_rhs(theta, u, buoyancy)
    k2 = _per_field_rhs(theta + (h / 2) * k1[0], u + (h / 2) * k1[1], buoyancy)
    k3 = _per_field_rhs(theta + (h / 2) * k2[0], u + (h / 2) * k2[1], buoyancy)
    k4 = _per_field_rhs(theta + h * k3[0], u + h * k3[1], buoyancy)
    combined = [
        y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for y, a, b, c, d in zip((theta, u), k1, k2, k3, k4)
    ]
    return combined[0], leray_project(combined[1])


class TestStack:
    """The stacked arithmetic of the coupled runs gives every coefficient
    bit for bit as the per-field operations it replaced."""

    def test_linear_rhs_matches_per_field_arithmetic(self, grid64):
        theta = bq.synthesize_holder_field(grid64, 1.5, 0.5, 71)
        u = bq.synthesize_divfree_velocity(grid64, 1.5, 0.5, 72)
        v = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 73)
        source = bq.synthesize_holder_field(grid64, 1.5, 0.5, 74)
        slope = bq._linear_rhs(bq._Stack.of(theta, u), v, source.coeffs)
        m = advect_vector(v, u)
        expected = bq._Stack.of(-advect(v, theta), leray_project(VectorField(-m.u1, source - m.u2)))
        assert np.array_equal(slope.coeffs.view(np.uint64), expected.coeffs.view(np.uint64))

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("buoyancy", [True, False])
    def test_direct_step_matches_per_field_rk4(self, n, buoyancy):
        grid = make_grid(n)
        tg = bq.taylor_green_data(grid, 1.0, 0.5)
        state = bq.BoussinesqState(
            tg.theta + bq.synthesize_holder_field(grid, 1.5, 0.1, 75),
            tg.u + bq.synthesize_divfree_velocity(grid, 1.5, 0.1, 76),
        )
        stepped = bq._direct_step(bq._Stack.of(state.theta, state.u), 0.0, 2e-3, buoyancy)
        theta, u = _per_field_step(state.theta, state.u, 2e-3, buoyancy)
        for got, want in zip((stepped.theta, stepped.velocity.u1, stepped.velocity.u2), (theta, u.u1, u.u2)):
            assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))

    def test_gap_norms_are_the_holder_norms_of_the_difference(self, grid64):
        a = bq.taylor_green_data(grid64, 1.0, 0.05)
        b = bq.taylor_green_data(grid64, 0.9, 0.04)
        gaps = bq._gap_norms(bq._Stack.of(a.theta, a.u) - bq._Stack.of(b.theta, b.u), 0.5)
        assert gaps == (holder_norm(a.theta - b.theta, 0.5), holder_norm_vector(a.u - b.u, 0.5))


class TestHermiteTrajectory:
    """Reads of a stored iterate: a cubic in time with exact slopes is
    reproduced on every step, the remainder step on its own width."""

    @staticmethod
    def cubic(t):
        return 1.0 + 3.0 * t - 40.0 * t**2 + 500.0 * t**3

    @staticmethod
    def slope(t):
        return 3.0 - 80.0 * t + 1500.0 * t**2

    def trajectory(self, grid):
        f = SpectralField.from_values(grid, np.sin(grid.x1))
        w = VectorField(f, -f)
        state = bq._Stack.of(f, w)
        lattice = transport._step_lattice(0.0073, 2e-3)
        times = [0.0] + [t for _, t in lattice]
        nodes = [self.cubic(t) * state for t in times]
        slopes = [self.slope(t) * state for t in times]
        return f, w, bq._HermiteTrajectory(lattice, nodes, slopes), nodes

    def test_node_times_return_the_stored_nodes(self):
        _, _, traj, nodes = self.trajectory(make_grid(16))
        assert traj.times == [0.0, 2e-3, 4e-3, 6e-3, 0.0073]
        for t, node in zip(traj.times, nodes):
            assert traj.at(t) is node
            assert traj.at(t).velocity is node.velocity
        # an rk4 stage time t + h can round to either side of the next node
        for t in (4e-3 * (1.0 - 1e-15), 4e-3 * (1.0 + 1e-15)):
            assert t != 4e-3 and traj.at(t) is nodes[2]

    @pytest.mark.parametrize("t", [1e-3, 3.3e-3, 5.5e-3, 6.65e-3, 7.2e-3])
    def test_reads_reproduce_a_cubic(self, t):
        f, w, traj, _ = self.trajectory(make_grid(16))
        scale = self.cubic(t)
        assert rel_linf(traj.at(t).theta, scale * f) < 1e-13
        assert rel_linf(traj.at(t).velocity.u2, scale * w.u2) < 1e-13

    def test_one_node_is_constant(self, grid64):
        f = SpectralField.from_values(grid64, np.sin(grid64.x1))
        node = bq._Stack.of(f, VectorField(f, f))
        traj = bq._HermiteTrajectory([], [node], [0.0 * node])
        assert traj.times == [0.0]
        traj.release(0)  # a constant trajectory keeps its one node
        assert traj.at(0.0) is node and traj.at(0.5) is node

    def test_a_read_of_a_released_step_raises(self):
        f, _, traj, nodes = self.trajectory(make_grid(16))
        traj.release(0)
        traj.release(1)
        for t in (0.0, 1e-3, 3.3e-3, 4e-3 * (1.0 - 1e-11)):
            with pytest.raises(LookupError, match=f"t={t:.6g} needs a released step"):
                traj.at(t)
        # reads that need only nodes 2 and later still return them
        for t in (4e-3 * (1.0 - 1e-15), 4e-3):
            assert traj.at(t) is nodes[2]
        assert rel_linf(traj.at(5.5e-3).theta, self.cubic(5.5e-3) * f) < 1e-13


BAD_T_DT = [
    (-0.01, 2e-3),
    (0.01, 0.0),
    (0.01, -2e-3),
    (np.inf, 2e-3),
    (np.nan, 2e-3),
    (0.01, np.inf),
    (0.01, np.nan),
]


INTEGRATORS = {
    "run_direct": lambda s, T, dt: bq.run_direct(s, T, dt, 1.5),
    "uniqueness_probe": lambda s, T, dt: bq.uniqueness_probe(s, [1e-4], T, dt, 1.5),
    "iterate_scheme": lambda s, T, dt: bq.iterate_scheme(s.theta, s.u, 1.5, 3, T, dt, 1e-13),
    "transport.solve": lambda s, T, dt: transport.solve(
        transport.TransportProblem(s.theta, s.u, T, dt)
    ),
}


@pytest.mark.parametrize("T,dt", BAD_T_DT)
@pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
def test_bad_time_lattice_rejected_before_any_step(integrator, T, dt, monkeypatch):
    def no_step(*args):
        raise AssertionError("an integrator stepped on a bad (T, dt)")

    monkeypatch.setattr(bq, "rk4", no_step)
    monkeypatch.setattr(transport, "rk4", no_step)
    state0 = bq.taylor_green_data(make_grid(16), 1.0, 0.05)
    with pytest.raises(ValueError, match="need 0 <= T < inf and 0 < dt < inf"):
        INTEGRATORS[integrator](state0, T, dt)


class TestSynthesize:
    def test_zero_amplitude(self, grid64):
        f = bq.synthesize_holder_field(grid64, 1.5, 0.0, 3)
        assert linf_norm(f) == 0.0

    def test_norm_matches_amplitude(self, grid64):
        for amplitude in (0.05, 1.0, 3.0):
            f = bq.synthesize_holder_field(grid64, 1.5, amplitude, 4)
            assert np.isclose(holder_norm(f, 1.5), amplitude, rtol=1e-12)

    def test_mean_zero_and_dealiased(self, grid64):
        f = bq.synthesize_holder_field(grid64, 2.0, 1.0, 5)
        assert f.mean() == 0.0
        assert rel_linf(dealias(f), f) == 0.0

    def test_seeds_give_distinct_fields_same_shape(self, grid64):
        f1 = bq.synthesize_holder_field(grid64, 1.5, 1.0, 6)
        f2 = bq.synthesize_holder_field(grid64, 1.5, 1.0, 7)
        assert linf_norm(f1 - f2) > 1e-3
        r1 = besov_norm(f1, 1.5)
        r2 = besov_norm(f2, 1.5)
        assert [q for q, _ in r1.block_norms] == [q for q, _ in r2.block_norms]

    def test_divfree_velocity(self, grid64):
        u = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 8)
        assert linf_norm(divergence(u)) < 1e-10
        assert np.isclose(holder_norm_vector(u, 1.5), 1.0, rtol=1e-12)


class TestBlowupMonitor:
    def test_zero_velocity_trajectory(self, grid64):
        state0 = bq.hydrostatic_data(grid64)
        _, record = bq.run_direct(state0, 0.2, 0.02, 1.5)
        verdict = bq.continuation_check(record)
        assert verdict.bkm_integral <= 1e-10
        assert verdict.verdict == "FINITE"

    def test_bkm_integral_is_the_monitor_integral(self, taylor_green_run):
        record = taylor_green_run["record"]
        verdict = bq.continuation_check(record)
        assert verdict.bkm_integral == record.final().bkm_integral

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
        # without a constant the envelope leg is unavailable: stays FINITE
        assert bq.continuation_check(record).verdict == "FINITE"
        # with a tight constant the envelope is violated: SUSPECT
        verdict = bq.continuation_check(record, 0.1)
        assert verdict.verdict == "SUSPECT"

    def test_envelope_starts_from_first_sample(self):
        # the envelope reads theta0_r = 1 and u0_r = 1 from samples[0]; with
        # sup|grad u| = 0 it is 1 + (2 + 2^-1.5) t, which 1 + 10 t exceeds
        # and 1 + t does not
        for slope, passed in ((10.0, False), (1.0, True)):
            record = bq.MonitorRecord(r=1.5)
            for t in np.linspace(0.0, 1.0, 11):
                record.append(bq.MonitorSample(t, 0.0, 0.0, 1.0, 1.0 + slope * t, 0.0))
            verdict = bq.continuation_check(record, 2.0)
            assert verdict.u_envelope.passed is passed
            assert verdict.verdict == "FINITE"  # no superlinear growth

    def test_worst_margin_at_a_later_sample(self):
        # envelope 1 + (2 + 2^-1.5) t; the gaps below it are smallest at t = 0.4
        coeff = 2.0 + 2.0 ** (-1.5)
        gaps = [0.0, 0.5, 0.3, 0.4, 0.05, 0.2]
        record = bq.MonitorRecord(r=1.5)
        for t, gap in zip(np.linspace(0.0, 0.5, 6), gaps):
            record.append(bq.MonitorSample(t, 0.0, 0.0, 1.0, 1.0 + coeff * t - gap, 0.0))
        leg = bq.continuation_check(record, 2.0).u_envelope
        assert leg.passed
        assert abs(leg.min_margin - 0.05) < 1e-12
        assert leg.worst_time == 0.4

    def test_one_sample_record_has_no_margin(self):
        record = bq.MonitorRecord(r=1.5, samples=[bq.MonitorSample(0.0, 1.0, 0.0, 1.0, 1.0, 0.0)])
        verdict = bq.continuation_check(record, 2.0)
        for leg in (verdict.theta_envelope, verdict.u_envelope):
            assert leg.passed and leg.min_margin is None and leg.worst_time is None

    def test_failed_theta_leg_stays_finite(self):
        # superlinear monitor growth and theta above its envelope, with u
        # inside its envelope: the theta leg is reported, not a SUSPECT signal
        record = bq.MonitorRecord(r=1.5)
        times = np.linspace(0.0, 1.0, 101)
        g = (1.2 - times) ** (-2.0)
        bkm = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(times))])
        for t, gi, b in zip(times, g, bkm):
            record.append(bq.MonitorSample(t, gi, b, np.exp(b), 1.0, 0.0))
        verdict = bq.continuation_check(record, 0.1)
        assert verdict.superlinear
        assert not verdict.theta_envelope.passed
        assert verdict.u_envelope.passed
        assert verdict.verdict == "FINITE"

    def test_linear_growth_not_superlinear(self, grid64):
        record = bq.MonitorRecord(r=1.5)
        for i, t in enumerate(np.linspace(0.0, 1.0, 51)):
            record.append(bq.MonitorSample(t, 1.0, t, 1.0, 1.0, 0.0))
        assert not bq._doubling_time_decreasing(record)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            bq.continuation_check(bq.MonitorRecord(r=1.5))


class TestUniquenessProbe:
    def test_zero_perturbation_zero_gap(self, grid64):
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        (curve,) = bq.uniqueness_probe(state0, [0.0], 0.05, 2e-3, 1.5)
        assert max(curve.theta_gaps) == 0.0
        assert max(curve.u_gaps) == 0.0

    def test_linear_response_ratio(self, grid64):
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        c4, c5 = bq.uniqueness_probe(state0, [1e-4, 1e-5], 0.1, 2e-3, 1.5)
        ratio = c4.terminal_theta_gap / c5.terminal_theta_gap
        assert 7.0 <= ratio <= 13.0

    def test_gap_growth_bounded_by_exponential_shape(self, grid64):
        # terminal-over-initial gap growth stays under exp(c * int ||u1||_r)
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        _, record = bq.run_direct(state0, 0.2, 2e-3, 1.5)
        (curve,) = bq.uniqueness_probe(state0, [1e-4], 0.2, 2e-3, 1.5)
        u_r_integral = np.trapezoid(record.series("u_r"), record.times())
        growth = max(curve.theta_gaps) / curve.theta_gaps[0]
        assert growth <= np.exp(10.0 * u_r_integral)

    def test_cfl_violation(self, grid64):
        state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
        with pytest.raises(CFLViolation):
            bq.uniqueness_probe(state0, [1e-4], 0.4, 0.2, 1.5)

    @pytest.mark.parametrize("defect", ["theta mean", "compressible u"])
    def test_rejects_invalid_initial_state(self, grid64, defect):
        # the checks of run_direct, before any step
        state0 = bq.taylor_green_data(grid64, 0.5, 0.02)
        if defect == "theta mean":
            lifted = state0.theta + SpectralField.from_values(grid64, np.full((64, 64), 0.3))
            bad, message = bq.BoussinesqState(lifted, state0.u), "theta must be mean-zero"
        else:
            rng = np.random.default_rng(3)
            u = VectorField.from_values(grid64, *rng.standard_normal((2, 64, 64)))
            u = u - VectorField.from_values(grid64, np.full((64, 64), u.u1.mean()),
                                            np.full((64, 64), u.u2.mean()))
            bad, message = bq.BoussinesqState(state0.theta, u), "divergence-free"
        with pytest.raises(ValueError, match=message):
            bq.run_direct(bad, 0.01, 2e-3, 1.5)
        with pytest.raises(ValueError, match=message):
            bq.uniqueness_probe(bad, [1e-4], 0.01, 2e-3, 1.5)

    def test_accepts_large_mean_zero_state(self, grid64):
        # the mean-zero check is relative to the field's largest coefficient
        bq.validate_state(bq.taylor_green_data(grid64, 1e200, 1e200))

    @pytest.mark.parametrize(
        "T,times", [(0.07, [0.0, 0.02, 0.04, 0.06, 0.07]), (0.05, [0.0, 0.02, 0.04, 0.05])]
    )
    def test_curve_ends_at_T(self, T, times):
        # T/dt is not an integer: a remainder step ends the curve at T
        state0 = bq.taylor_green_data(make_grid(32, 2.0 * np.pi), 1.0, 0.05)
        (curve,) = bq.uniqueness_probe(state0, [1e-4], T, 0.02, 1.5)
        assert np.allclose(curve.times, times, rtol=0.0, atol=1e-15)
        assert curve.times[-1] == T

    def test_one_reference_run_for_every_eps(self, monkeypatch):
        state0 = bq.taylor_green_data(make_grid(32, 2.0 * np.pi), 1.0, 0.05)
        eps_values = [1e-3, 1e-4, 1e-5]
        calls = []
        step = bq._direct_step

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(bq, "_direct_step", counted)
        curves = bq.uniqueness_probe(state0, eps_values, 0.02, 2e-3, 1.5)
        assert len(calls) == (len(eps_values) + 1) * 10
        monkeypatch.undo()
        for eps, curve in zip(eps_values, curves):
            (single,) = bq.uniqueness_probe(state0, [eps], 0.02, 2e-3, 1.5)
            assert curve == single
