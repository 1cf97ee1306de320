"""Inviscid buoyancy-coupled flow on the torus.

The state is a transported temperature theta and a divergence-free
velocity u driven by self-advection plus the vertical buoyancy force
theta*e2, with the pressure gradient recovered spectrally:

    grad Pi = -(k x k / |k|^2) applied to (u . grad u)  +  (k k2 / |k|^2) theta

Direct integration uses RK4 (``transport.rk4``); the right-hand side is
Leray-projected, and the velocity is projected once more at the end of
each step.  The successive-approximation scheme solves the linearized
problems (iterate n+1 advected by iterate n) with frequency-truncated
initial data, recording Cauchy gaps in the C^{r-1} norm.  A monitor
tracks sup|grad u|, its running time integral, Hoelder norms and the
divergence residual for blow-up diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .littlewood_paley import (
    DyadicPartition,
    build_partition,
    holder_norm,
    holder_norm_vector,
    low_pass,
    low_pass_vector,
)
from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    advect,
    advect_vector,
    dealias,
    dealias_vector,
    derivative,
    divergence_residual,
    grad_inv_laplacian_div,
    grad_inv_laplacian_partial,
    grad_linf_norm,
    is_divergence_free,
    leray_project,
    linf_norm,
    lp_norm,
)
from .transport import _check_cfl, rk4

__all__ = [
    "BoussinesqState",
    "MonitorSample",
    "MonitorRecord",
    "IterationRecord",
    "ProbeCurve",
    "NumericsError",
    "pressure_gradient",
    "run_direct",
    "iterate_scheme",
    "blowup_integral",
    "continuation_check",
    "velocity_envelope",
    "synthesize_holder_field",
    "synthesize_divfree_velocity",
    "hydrostatic_data",
    "taylor_green_data",
    "kinetic_energy",
    "buoyancy_work",
    "uniqueness_probe",
]

# direct_step is public but not listed: the per-function tracer in perfbench/
# wraps every name listed here, and run_direct calls direct_step per step,
# whose CFL and projection work the tracer attributes to run_direct.


class NumericsError(RuntimeError):
    """Raised when a run produces non-finite values."""


@dataclass(frozen=True)
class BoussinesqState:
    theta: SpectralField
    u: VectorField
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.theta.grid


def validate_state(state: BoussinesqState) -> None:
    if abs(state.theta.mean()) > 1e-12:
        raise ValueError("theta must be mean-zero")
    if abs(state.u.u1.mean()) > 1e-12 or abs(state.u.u2.mean()) > 1e-12:
        raise ValueError("velocity components must be mean-zero")
    if not is_divergence_free(state.u):
        raise ValueError("velocity must be divergence-free")


@dataclass
class MonitorSample:
    t: float
    grad_u_inf: float
    bkm_integral: float
    theta_r: float
    u_r: float
    div_residual: float


@dataclass
class MonitorRecord:
    """Per-step diagnostics of one run."""

    r: float
    samples: list[MonitorSample] = field(default_factory=list)

    def append(self, sample: MonitorSample) -> None:
        self.samples.append(sample)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    def final(self) -> MonitorSample:
        return self.samples[-1]


@dataclass
class IterationRecord:
    """Iterate n with its Cauchy gap against iterate n-1."""

    n: int
    theta_n: SpectralField
    u_n: VectorField
    cauchy_gap_theta: float
    cauchy_gap_u: float
    ratio: float | None


def _e2(theta: SpectralField) -> VectorField:
    return VectorField(SpectralField.zero(theta.grid), theta)


def pressure_gradient(u: VectorField, theta: SpectralField) -> VectorField:
    """Gradient of the pressure balancing advection and buoyancy.

    The full right-hand side -u.grad u - grad Pi + theta e2 is then
    divergence-free.
    """
    adv = advect_vector(u, u)
    return -grad_inv_laplacian_div(adv) + grad_inv_laplacian_partial(theta, axis=2)


def _rhs(theta: SpectralField, u: VectorField, buoyancy: bool) -> tuple[SpectralField, VectorField]:
    dtheta = -advect(u, theta)
    force = -advect_vector(u, u)
    if buoyancy:
        force = force + _e2(theta)
    return dtheta, leray_project(force)


def _check_finite(theta: SpectralField, u: VectorField, t: float) -> None:
    for c in (theta.coeffs, u.u1.coeffs, u.u2.coeffs):
        if not np.all(np.isfinite(c)):
            raise NumericsError(f"non-finite field values at t={t:.6g}")


def direct_step(state: BoussinesqState, dt: float, buoyancy: bool = True) -> BoussinesqState:
    """One RK4 step; raises on CFL violation or non-finite output.

    The stage slopes are already divergence-free, so only the final
    velocity is projected, to clear the roundoff of the combination.
    """
    _check_cfl(state.u, dt, state.t)
    (theta, u), _ = rk4((state.theta, state.u), lambda _t, y: _rhs(*y, buoyancy), state.t, dt)
    u = leray_project(u)
    _check_finite(theta, u, state.t + dt)
    return BoussinesqState(theta, u, state.t + dt)


def _monitor_sample(
    state: BoussinesqState,
    r: float,
    part: DyadicPartition,
    prev: MonitorSample | None = None,
    h: float = 0.0,
) -> MonitorSample:
    """Diagnostics of one state; the running integral of sup|grad u|
    extends ``prev`` by the trapezoid over the step h."""
    g = grad_linf_norm(state.u)
    bkm = 0.0 if prev is None else prev.bkm_integral + 0.5 * (prev.grad_u_inf + g) * h
    return MonitorSample(
        t=state.t,
        grad_u_inf=g,
        bkm_integral=bkm,
        theta_r=holder_norm(state.theta, r, part).value,
        u_r=holder_norm_vector(state.u, r, part),
        div_residual=divergence_residual(state.u),
    )


def run_direct(
    state0: BoussinesqState,
    T: float,
    dt: float,
    r: float,
    *,
    buoyancy: bool = True,
    snapshot_every: int | None = None,
    on_step=None,
    partition: DyadicPartition | None = None,
) -> tuple[list[BoussinesqState], MonitorRecord]:
    """Integrate to time T, filling the monitor at every step.

    Returns the snapshot list (initial state, every ``snapshot_every``-th
    step if requested, and the final state) and the monitor record.
    """
    validate_state(state0)
    part = partition or build_partition(state0.grid)
    record = MonitorRecord(r=r, samples=[_monitor_sample(state0, r, part)])
    state = state0
    snapshots = [state]
    if on_step is not None:
        on_step(state)

    n_steps = int(math.floor(T / dt + 1e-9))
    remainder = T - n_steps * dt
    steps = [dt] * n_steps + ([remainder] if remainder > 1e-12 else [])

    t0 = state0.t
    for i, h in enumerate(steps):
        stepped = direct_step(state, h, buoyancy)
        # keep the time lattice t0 + i*dt rather than summing the steps
        state = BoussinesqState(stepped.theta, stepped.u, t0 + (i + 1) * dt if i < n_steps else t0 + T)
        record.append(_monitor_sample(state, r, part, record.final(), h))
        if snapshot_every is not None and (i + 1) % snapshot_every == 0 and i + 1 < len(steps):
            snapshots.append(state)
        if on_step is not None:
            on_step(state)
    if len(steps) > 0:
        snapshots.append(state)
    return snapshots, record


def kinetic_energy(u: VectorField) -> float:
    return 0.5 * (lp_norm(u.u1, 2) ** 2 + lp_norm(u.u2, 2) ** 2)


def buoyancy_work(theta: SpectralField, u: VectorField) -> float:
    """Integral of theta * u2 over the torus (power input of the buoyancy force)."""
    cell = (theta.grid.length / theta.grid.n) ** 2
    return float(np.sum(theta.values() * u.u2.values()) * cell)


# ---------------------------------------------------------------------------
# blow-up monitoring


def blowup_integral(record: MonitorRecord) -> float:
    """Trapezoidal integral of sup|grad u| over the recorded samples."""
    if not record.samples:
        raise ValueError("empty monitor record")
    t = record.times()
    g = record.series("grad_u_inf")
    return float(np.trapezoid(g, t))


def velocity_envelope(
    record: MonitorRecord,
    theta0_r: float,
    u0_r: float,
    c_frozen: float,
    r: float | None = None,
) -> np.ndarray:
    """Gronwall envelope for ||u(t)||_r along a recorded trajectory.

    env(t) = ||u0||_r e^{C I(t)} + (2 + 2^-r) ||theta0||_r
             * (int_0^t e^{C I(s)} ds) * e^{C I(t)},
    with I(t) the running integral of sup|grad u| and C the frozen
    empirical constant.
    """
    t = record.times()
    integral = record.series("bkm_integral")
    growth = np.exp(c_frozen * integral)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (growth[1:] + growth[:-1]) * np.diff(t))])
    coeff = 2.0 + 2.0 ** (-(r if r is not None else record.r))
    return u0_r * growth + coeff * theta0_r * inner * growth


def _doubling_time_decreasing(record: MonitorRecord, windows: int = 5) -> bool:
    """True when the growth of the monitor integral is superlinear.

    Splits the run into equal windows and checks that the local doubling
    time of the running integral strictly decreases over the last three
    windows.  The first window is skipped: the integral starts at zero,
    so its log-rate there is a start-up artifact.  Linear growth gives
    increasing doubling times and is never flagged.
    """
    t = record.times()
    integral = record.series("bkm_integral")
    if len(t) < windows + 1 or integral[-1] <= 1e-12:
        return False
    edges = np.linspace(t[0], t[-1], windows + 1)
    vals = np.interp(edges, t, integral)
    if np.any(vals[1:] <= 0):
        return False
    rates = np.diff(np.log(np.maximum(vals, 1e-300))) / np.diff(edges)
    rates = rates[1:]  # drop the start-up window
    if len(rates) < 3 or np.any(rates <= 0):
        return False
    doubling = np.log(2.0) / rates
    tail = np.diff(doubling[-3:])
    return bool(np.all(tail < 0))


@dataclass
class ContinuationVerdict:
    verdict: str  # "FINITE" or "SUSPECT"
    bkm_integral: float
    superlinear: bool
    envelope_violated: bool | None


def continuation_check(
    record: MonitorRecord,
    t_star: float,
    *,
    theta0_r: float | None = None,
    u0_r: float | None = None,
    c_frozen: float | None = None,
) -> ContinuationVerdict:
    """Classify a run as continuable (FINITE) or SUSPECT.

    SUSPECT needs both superlinear growth of the monitor integral and a
    violation of the Gronwall envelope; single signals are too noisy at
    desk scale.  Without frozen constants the envelope leg is skipped.
    """
    integral = blowup_integral(record)
    superlinear = _doubling_time_decreasing(record)
    violated: bool | None = None
    if c_frozen is not None and theta0_r is not None and u0_r is not None:
        env = velocity_envelope(record, theta0_r, u0_r, c_frozen)
        violated = bool(np.any(record.series("u_r") > env * (1.0 + 1e-9)))
    suspect = superlinear and bool(violated)
    return ContinuationVerdict(
        verdict="SUSPECT" if suspect else "FINITE",
        bkm_integral=integral,
        superlinear=superlinear,
        envelope_violated=violated,
    )


# ---------------------------------------------------------------------------
# synthetic data


def synthesize_holder_field(
    grid: Grid, r: float, amplitude: float, seed: int
) -> SpectralField:
    """Random-phase field with block-q sup amplitude proportional to 2^{-qr}.

    Blocks q = 0..q_max-2 are populated (grids with q_max < 2 give the
    zero field) and the result is rescaled so the measured Hoelder norm
    equals ``amplitude`` exactly.  Mean-zero and dealiased by
    construction; deterministic per seed.
    """
    if r <= 0:
        raise ValueError(f"Hoelder exponent must be positive, got {r}")
    part = build_partition(grid)
    total = np.zeros(grid.spectral_shape, dtype=complex)
    if amplitude == 0.0:
        return SpectralField(grid, total)
    rng = np.random.default_rng(seed)
    for q in range(0, part.q_max - 1):
        noise = rng.standard_normal((grid.n, grid.n))
        piece = SpectralField.from_values(grid, noise).multiplied(part.multiplier(q))
        peak = linf_norm(piece)
        if peak == 0.0:
            continue
        total += piece.coeffs * (amplitude * 2.0 ** (-q * r) / peak)
    f = dealias(SpectralField(grid, total))
    measured = holder_norm(f, r, part).value
    if measured > 0.0:
        f = f * (amplitude / measured)
    return f


def synthesize_divfree_velocity(
    grid: Grid, r: float, amplitude: float, seed: int
) -> VectorField:
    """Divergence-free field with Hoelder norm ``amplitude``: the rotated
    gradient of a synthesized stream function one degree smoother."""
    psi = synthesize_holder_field(grid, r + 1.0, 1.0, seed)
    u = VectorField(-derivative(psi, 2), derivative(psi, 1))
    if amplitude == 0.0:
        return VectorField.zero(grid)
    measured = holder_norm_vector(u, r)
    if measured > 0.0:
        u = u * (amplitude / measured)
    return u


def hydrostatic_data(grid: Grid, amplitude: float = 1.0) -> BoussinesqState:
    """Stratified rest state: u = 0, theta a function of the vertical only."""
    theta = SpectralField.from_values(
        grid, amplitude * np.sin(2.0 * np.pi * grid.x2 / grid.length)
    )
    return BoussinesqState(dealias(theta), VectorField.zero(grid), 0.0)


def taylor_green_data(
    grid: Grid, u_amplitude: float = 1.0, theta_amplitude: float = 0.05
) -> BoussinesqState:
    """Taylor-Green vortex plus a small single-mode temperature field."""
    kx = 2.0 * np.pi * grid.x1 / grid.length
    ky = 2.0 * np.pi * grid.x2 / grid.length
    u = VectorField.from_values(
        grid,
        u_amplitude * np.sin(kx) * np.cos(ky),
        -u_amplitude * np.cos(kx) * np.sin(ky),
    )
    theta = SpectralField.from_values(grid, theta_amplitude * np.sin(kx))
    return BoussinesqState(dealias(theta), dealias_vector(u), 0.0)


# ---------------------------------------------------------------------------
# successive approximation


class _ConstantTrajectory:
    """Time-independent iterate (the frequency-truncated initial data)."""

    def __init__(self, theta: SpectralField, u: VectorField, times: np.ndarray):
        self.times = times
        self._theta = theta
        self._u = u
        self.node_velocities = (u,)  # the distinct velocities at the nodes

    def velocity(self, t: float) -> VectorField:
        return self._u

    def theta(self, t: float) -> SpectralField:
        return self._theta

    def theta_at_node(self, k: int) -> SpectralField:
        return self._theta

    def u_at_node(self, k: int) -> VectorField:
        return self._u


class _HermiteTrajectory:
    """Iterate sampled on a uniform step lattice with stored time
    derivatives; cubic Hermite interpolation serves the RK substages."""

    def __init__(self, times: np.ndarray, theta, u, dtheta, du):
        self.times = times
        self.dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
        self._theta = theta  # a SpectralField per node
        self._u = u  # a VectorField per node
        self.node_velocities = u
        self._dtheta = dtheta
        self._du = du

    def _locate(self, t: float) -> tuple[int, float]:
        if self.dt == 0.0:
            return 0, 0.0
        j = int(np.clip(np.floor((t - self.times[0]) / self.dt + 1e-12), 0, len(self.times) - 2))
        s = (t - self.times[j]) / self.dt
        return j, float(np.clip(s, 0.0, 1.0))

    @staticmethod
    def _hermite(y0, y1, d0, d1, s: float, h: float):
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        return h00 * y0 + (h10 * h) * d0 + h01 * y1 + (h11 * h) * d1

    def theta(self, t: float) -> SpectralField:
        j, s = self._locate(t)
        if s < 1e-12:
            return self._theta[j]
        if s > 1.0 - 1e-12:
            return self._theta[j + 1]
        return self._hermite(
            self._theta[j], self._theta[j + 1], self._dtheta[j], self._dtheta[j + 1], s, self.dt
        )

    def velocity(self, t: float) -> VectorField:
        j, s = self._locate(t)
        if s < 1e-12:
            return self._u[j]
        if s > 1.0 - 1e-12:
            return self._u[j + 1]
        return self._hermite(self._u[j], self._u[j + 1], self._du[j], self._du[j + 1], s, self.dt)

    def theta_at_node(self, k: int) -> SpectralField:
        return self._theta[k]

    def u_at_node(self, k: int) -> VectorField:
        return self._u[k]


def _solve_linear_iterate(
    prev,
    theta_init: SpectralField,
    u_init: VectorField,
    times: np.ndarray,
    theta_lag: bool,
) -> _HermiteTrajectory:
    """Advance the linearized system driven by the previous iterate.

    theta is advected by the previous velocity; u is advected by the
    previous velocity and forced by the buoyancy of the current (or, with
    ``theta_lag``, the previous) temperature, with the pressure gradient
    refreshed at every substage through the projection.  The stage-one
    slope of each step is kept as the Hermite derivative at its node.
    """
    dt = float(times[1] - times[0])

    def rhs(t: float, y: tuple) -> tuple[SpectralField, VectorField]:
        theta, u = y
        v = prev.velocity(t)
        dtheta = -advect(v, theta)
        forcing_theta = prev.theta(t) if theta_lag else theta
        du = leray_project(-advect_vector(v, u) + _e2(forcing_theta))
        return dtheta, du

    for v in prev.node_velocities:
        _check_cfl(v, dt, float(times[0]))

    states = [(theta_init, u_init)]
    slopes = []
    for j in range(len(times) - 1):
        (theta, u), k1 = rk4(states[-1], rhs, float(times[j]), dt)
        u = leray_project(u)
        _check_finite(theta, u, float(times[j + 1]))
        states.append((theta, u))
        slopes.append(k1)
    slopes.append(rhs(float(times[-1]), states[-1]))
    thetas, us = zip(*states)
    dthetas, dus = zip(*slopes)
    return _HermiteTrajectory(times, thetas, us, dthetas, dus)


def iterate_scheme(
    theta0: SpectralField,
    u0: VectorField,
    r: float,
    n_max: int,
    T: float,
    dt: float,
    tol: float,
    *,
    theta_lag: bool = False,
) -> list[IterationRecord]:
    """Run the successive-approximation scheme and record Cauchy gaps.

    Iterate 1 is the frequency-truncated initial data held fixed in
    time; iterate m >= 2 solves the linear transport problems with
    initial data truncated at low-pass level m+1.  Record m carries the
    gap sup_{t <= T} ||x_m - x_{m-1}||_{C^{r-1}} and the ratio to the
    previous gap.  Stops when the gap drops below tol, after three
    consecutive ratio > 1 events (non-contraction at this horizon), or
    at n_max.
    """
    if r <= 1:
        raise ValueError(f"need r > 1, got {r}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2 to measure a Cauchy gap, got {n_max}")
    grid = theta0.grid
    part = build_partition(grid)
    if abs(theta0.mean()) > 1e-12 or abs(u0.u1.mean()) > 1e-12 or abs(u0.u2.mean()) > 1e-12:
        raise ValueError("initial data must be mean-zero")
    if linf_norm(dealias(theta0) - theta0) > 1e-13:
        raise ValueError("initial data must be dealiased")
    if not is_divergence_free(u0):
        raise ValueError("initial velocity must be divergence-free")

    n_steps = max(1, int(math.ceil(T / dt - 1e-9)))
    times = np.linspace(0.0, T, n_steps + 1)

    current = _ConstantTrajectory(low_pass(2, theta0, part), low_pass_vector(2, u0, part), times)
    records: list[IterationRecord] = []
    prev_gap: float | None = None
    rising = 0

    for m in range(2, n_max + 1):
        level = min(m + 1, part.q_max + 1)
        new = _solve_linear_iterate(
            current,
            low_pass(level, theta0, part),
            low_pass_vector(level, u0, part),
            times,
            theta_lag,
        )
        gap_theta = 0.0
        gap_u = 0.0
        for k in range(len(times)):
            dth = new.theta_at_node(k) - current.theta_at_node(k)
            duv = new.u_at_node(k) - current.u_at_node(k)
            gap_theta = max(gap_theta, holder_norm(dth, r - 1, part).value)
            gap_u = max(gap_u, holder_norm_vector(duv, r - 1, part))
        gap = max(gap_theta, gap_u)
        ratio = (gap / prev_gap) if (prev_gap is not None and prev_gap > 1e-14) else None
        records.append(
            IterationRecord(
                n=m,
                theta_n=new.theta_at_node(n_steps),
                u_n=new.u_at_node(n_steps),
                cauchy_gap_theta=gap_theta,
                cauchy_gap_u=gap_u,
                ratio=ratio,
            )
        )
        current = new
        if gap < tol:
            break
        if ratio is not None and ratio > 1.0:
            rising += 1
            if rising >= 3:
                break
        else:
            rising = 0
        prev_gap = gap
    return records


# ---------------------------------------------------------------------------
# twin-run perturbation probe


@dataclass
class ProbeCurve:
    eps: float
    times: list[float]
    theta_gaps: list[float]
    u_gaps: list[float]

    @property
    def terminal_theta_gap(self) -> float:
        return self.theta_gaps[-1]

    @property
    def terminal_u_gap(self) -> float:
        return self.u_gaps[-1]


def uniqueness_probe(
    state0: BoussinesqState,
    perturbation_eps: float,
    T: float,
    dt: float,
    r: float,
    *,
    seed: int = 7,
    sample_every: int = 1,
) -> ProbeCurve:
    """Twin-run divergence curve for a theta-only perturbation.

    The perturbation direction is a fixed synthesized field with unit
    C^{r-1} norm; both trajectories advance in lockstep and the gaps are
    measured in C^{r-1}.
    """
    grid = state0.grid
    part = build_partition(grid)
    direction = synthesize_holder_field(grid, r - 1.0, 1.0, seed)
    a = BoussinesqState(state0.theta, state0.u, 0.0)
    b = BoussinesqState(state0.theta + perturbation_eps * direction, state0.u, 0.0)

    def gaps(a: BoussinesqState, b: BoussinesqState) -> tuple[float, float]:
        return (
            holder_norm(a.theta - b.theta, r - 1.0, part).value,
            holder_norm_vector(a.u - b.u, r - 1.0, part),
        )

    times = [0.0]
    sampled = [gaps(a, b)]
    n_steps = int(round(T / dt))
    for i in range(1, n_steps + 1):
        a = direct_step(a, dt)
        b = direct_step(b, dt)
        if i % sample_every == 0 or i == n_steps:
            times.append(i * dt)
            sampled.append(gaps(a, b))
    theta_gaps, u_gaps = (list(g) for g in zip(*sampled))
    return ProbeCurve(perturbation_eps, times, theta_gaps, u_gaps)
