"""Inviscid buoyancy-coupled flow on the torus.

The state is a transported temperature theta and a divergence-free
velocity u driven by self-advection plus the vertical buoyancy force
theta*e2, with the pressure gradient recovered spectrally:

    grad Pi = -(k x k / |k|^2) applied to (u . grad u)  +  (k k2 / |k|^2) theta

Direct integration uses RK4 (``transport.rk4``); the right-hand side is
Leray-projected, and the velocity is projected once more at the end of
each step.  Self-advection is taken in flux form, u . grad u =
div(u (x) u), which holds because div u = 0: the three products u1 u1,
u1 u2, u2 u2 cost three forward transforms against four derivative reads
and two forward transforms for the advective form, and on the dealiased
grid both give the same Galerkin term up to roundoff.  The linearized
iterate advects u by a different velocity v, where the flux form v (x) u
saves no transform, so it keeps the advective form v . grad u.
The successive-approximation scheme solves the linearized
problems (iterate n+1 advected by iterate n) with frequency-truncated
initial data, recording Cauchy gaps in the C^{r-1} norm.  Both use one
RK4 and one step tail: the linearized step is the direct step with the
advecting velocity and the buoyancy source frozen to the previous
iterate.  A monitor
tracks sup|grad u|, its running time integral, Hoelder norms and the
divergence residual for blow-up diagnostics.

Every coupled run holds its state as one (3, n, n//2 + 1) stack of
(theta, u1, u2) coefficients (``_Stack``), and ``rk4`` and
``_coupled_step`` see no other state: the direct run and the probe's twin
runs hold their stacks across steps, and the linearized iterate keeps its
nodes, stage slopes and Hermite reads as stacks, each step only until the
next iterate has stepped past it, so the scheme holds one trajectory, not
two.  A ``BoussinesqState`` handed out by a run has fields that are views
over the rows of the stack that produced it.  Each step does the per-field
arithmetic of the right-hand side on the rows, then one RK4 combination,
one projection and one finite check over the whole stack.  In the iterate
all three rows are advected by one velocity, so one stacked advection (3
transform calls over 9 fields) replaces three (9 calls), and a Cauchy gap
or a probe gap takes one inverse transform per block over the three rows
of a difference.  The direct step advects u by itself in flux form, so its
rows share no one advection and its stack saves no transform; it writes
the rows of each slope into one new array, with its products and their
transforms in the work arrays of the grid (see ``spectral``).  Measured
step times are kept with the benchmark records (``BENCH_*.json`` at the
repository root and their entries in ``CHANGES.md``), not here, where
they would go stale.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .littlewood_paley import (
    _holder_rows,
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
    _advect_rows,
    _gradient_part,
    _irfft2,
    _rfft2,
    advect,
    dealias,
    dealias_vector,
    derivative,
    divergence_residual,
    grad_linf_norm,
    is_divergence_free,
    leray_project,
    linf_norm,
)
from .transport import _check_cfl, _step_lattice, rk4

__all__ = [
    "BoussinesqState",
    "MonitorSample",
    "MonitorRecord",
    "IterationRecord",
    "ProbeCurve",
    "NumericsError",
    "run_direct",
    "iterate_scheme",
    "continuation_check",
    "velocity_envelope",
    "synthesize_holder_field",
    "synthesize_divfree_velocity",
    "hydrostatic_data",
    "taylor_green_data",
    "uniqueness_probe",
]


class NumericsError(RuntimeError):
    """Raised when a run produces non-finite values."""


@dataclass(frozen=True)
class BoussinesqState:
    """The temperature and velocity at time t, on one grid."""

    theta: SpectralField
    u: VectorField
    t: float = 0.0

    def __post_init__(self):
        if self.theta.grid != self.u.grid:
            raise ValueError("fields live on different grids")

    @property
    def grid(self) -> Grid:
        return self.theta.grid


def _mean_zero(f: SpectralField) -> bool:
    """Whether f's mean is zero up to roundoff on the scale of its largest coefficient."""
    return abs(f.mean()) <= 1e-12 * max(1.0, float(np.abs(f.coeffs).max()))


def validate_state(state: BoussinesqState) -> None:
    if not _mean_zero(state.theta):
        raise ValueError("theta must be mean-zero")
    if not (_mean_zero(state.u.u1) and _mean_zero(state.u.u2)):
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


class _Stack:
    """One state (or slope) of a coupled run: the (theta, u1, u2)
    coefficients on ``grid`` as one (3, n, n//2 + 1) array.  The direct
    run, the probe's twin runs and the linearized iterates all step it.

    ``rk4`` combines the coefficients of stacks as it combines those of
    fields, and sums, differences and scalar multiples act on the whole
    stack, so the Hermite reads and the gaps do too, with the same
    operations on every coefficient.  ``theta`` and
    ``velocity`` are fields over the rows, built on first read; so the
    values of a stepped state's velocity, cached on its ``VectorField``,
    are transformed once, whichever reader (the CFL check, the first
    stage of the next step, a Hermite read of a stored node) comes first.
    """

    def __init__(self, grid: Grid, coeffs: np.ndarray):
        self.grid = grid
        self.coeffs = coeffs

    @classmethod
    def of(cls, theta: SpectralField, u: VectorField) -> "_Stack":
        return cls(theta.grid, np.stack((theta.coeffs, u.u1.coeffs, u.u2.coeffs)))

    @cached_property
    def theta(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[0])

    @cached_property
    def velocity(self) -> VectorField:
        g, c = self.grid, self.coeffs
        return VectorField(SpectralField(g, c[1]), SpectralField(g, c[2]))

    def __add__(self, other: "_Stack") -> "_Stack":
        return _Stack(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "_Stack") -> "_Stack":
        return _Stack(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "_Stack":
        return _Stack(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _rhs(y: _Stack, buoyancy: bool) -> _Stack:
    """Slope of the stack y with its velocity u advecting every row, forced
    by the buoyancy of theta (unless ``buoyancy`` is off), with the
    velocity rows projected.

    The momentum term is taken in flux form, u . grad u = div(u (x) u),
    from the values of ``y.velocity``: each product u1 u1, u1 u2, u2 u2 is
    transformed once, 3 transforms in place of the 6 of the advective form.
    The products and their transforms go through work arrays of the grid,
    and the three rows of the slope are written into one new array.
    """
    g = y.grid
    u = y.velocity
    slope = np.empty_like(y.coeffs)
    np.negative(advect(u, y.theta).coeffs, out=slope[0])
    u1, u2 = u.values()
    product = g.work("rhs.product", (g.n, g.n), float)
    f11, f12, f22 = fluxes = g.work("rhs.fluxes", y.coeffs.shape)
    for a, b, out in zip((u1, u1, u2), (u1, u2, u2), fluxes):
        _rfft2(np.multiply(a, b, out=product), out)
    m1 = f11 * g.ik1
    m1 += np.multiply(f12, g.ik2, out=f11)
    m1 *= g.dealias_multiplier
    m2 = np.multiply(f12, g.ik1, out=f12)
    m2 += np.multiply(f22, g.ik2, out=f22)
    m2 *= g.dealias_multiplier
    force1 = np.negative(m1, out=m1)
    force2 = y.coeffs[0] - m2 if buoyancy else -m2
    force = leray_project(VectorField(SpectralField(g, force1), SpectralField(g, force2)))
    slope[1] = force.u1.coeffs
    slope[2] = force.u2.coeffs
    return _Stack(g, slope)


def _project_rows(y: _Stack) -> _Stack:
    """``leray_project`` of the velocity rows of a stack, in place: only
    for a stack its caller has just built and nothing has read."""
    g = y.grid
    grad = g.work("project_rows", (2, *g.spectral_shape))
    _gradient_part(g, y.coeffs[1], y.coeffs[2], grad[0], grad[1])
    y.coeffs[1:] -= grad
    return y


def _linear_rhs(y: _Stack, v: VectorField, source: np.ndarray) -> _Stack:
    """Slope of the stack y advected by v and forced by the buoyancy of the
    temperature coefficients ``source``, with the velocity rows projected:
    the arithmetic of ``-advect``, ``advect_vector`` and ``leray_project``
    on every coefficient, with the three rows advected by one
    ``_advect_rows``."""
    slope = _advect_rows(y.grid, v, y.coeffs)
    np.subtract(source, slope[2], out=slope[2])
    np.negative(slope[:2], out=slope[:2])
    return _project_rows(_Stack(y.grid, slope))


def _coupled_step(y: _Stack, rhs, t: float, h: float) -> tuple[_Stack, _Stack]:
    """One ``rk4`` step of a coupled stack with the final velocity rows
    projected and the whole stack checked finite; returns the new stack
    and the stage-one slope.  The stage slopes are already
    divergence-free, so the projection only clears the roundoff of the
    combination."""
    y, k1 = rk4(y, rhs, t, h)
    _project_rows(y)
    if not np.all(np.isfinite(y.coeffs)):
        raise NumericsError(f"non-finite field values at t={t + h:.6g}")
    return y, k1


def _direct_step(y: _Stack, t: float, h: float, buoyancy: bool) -> _Stack:
    """One step of the full system from the stack y at time t, checked
    against the CFL bound of its velocity."""
    _check_cfl(y.velocity, h, t)
    return _coupled_step(y, lambda _t, s: _rhs(s, buoyancy), t, h)[0]


def _monitor_sample(
    state: BoussinesqState,
    r: float,
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
        theta_r=holder_norm(state.theta, r),
        u_r=holder_norm_vector(state.u, r),
        div_residual=divergence_residual(state.u),
    )


def run_direct(
    state0: BoussinesqState,
    T: float,
    dt: float,
    r: float,
    *,
    buoyancy: bool = True,
    on_step=None,
) -> tuple[BoussinesqState, MonitorRecord]:
    """Integrate to time T, filling the monitor at every step.

    Steps follow ``transport._step_lattice``: steps of dt ending at
    t0 + i*dt, then a remainder step ending at t0 + T.  ``on_step`` is
    called with the initial state and with the state after every step.
    Returns the final state (``state0`` when T = 0) and the monitor record.
    """
    lattice = _step_lattice(T, dt, state0.t)
    validate_state(state0)
    record = MonitorRecord(r=r, samples=[_monitor_sample(state0, r)])
    state = state0
    if on_step is not None:
        on_step(state)
    y = _Stack.of(state0.theta, state0.u)
    for h, t in lattice:
        y = _direct_step(y, state.t, h, buoyancy)
        state = BoussinesqState(y.theta, y.velocity, t)
        record.append(_monitor_sample(state, r, record.final(), h))
        if on_step is not None:
            on_step(state)
    return state, record


# ---------------------------------------------------------------------------
# blow-up monitoring


def velocity_envelope(record: MonitorRecord, c_frozen: float) -> np.ndarray:
    """Gronwall envelope for ||u(t)||_r along a recorded trajectory.

    env(t) = ||u0||_r e^{C I(t)} + (2 + 2^-r) ||theta0||_r
             * (int_0^t e^{C I(s)} ds) * e^{C I(t)},
    with r = ``record.r``, the initial norms read from the record's first
    sample, I(t) the running integral of sup|grad u| and C the frozen
    empirical constant.
    """
    initial = record.samples[0]
    t = record.times()
    integral = record.series("bkm_integral")
    growth = np.exp(c_frozen * integral)
    inner = np.concatenate([[0.0], np.cumsum(0.5 * (growth[1:] + growth[:-1]) * np.diff(t))])
    coeff = 2.0 + 2.0 ** (-record.r)
    return initial.u_r * growth + coeff * initial.theta_r * inner * growth


DOUBLING_WINDOWS = 5


def _doubling_time_decreasing(record: MonitorRecord) -> bool:
    """True when the growth of the monitor integral is superlinear.

    Splits the run into ``DOUBLING_WINDOWS`` equal windows and checks that
    the local doubling time of the running integral strictly decreases
    over the last three windows.  The first window is skipped: the
    integral starts at zero, so its log-rate there is a start-up
    artifact.  Linear growth gives increasing doubling times and is never
    flagged.
    """
    t = record.times()
    integral = record.series("bkm_integral")
    if len(t) < DOUBLING_WINDOWS + 1 or integral[-1] <= 1e-12:
        return False
    edges = np.linspace(t[0], t[-1], DOUBLING_WINDOWS + 1)
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
class EnvelopeLeg:
    """One Gronwall envelope replayed along a record.

    ``passed`` when every sample has measured <= env (1 + 1e-9) + 1e-12.
    ``min_margin`` is the smallest env - measured over the samples after
    the first (at t0 the envelope equals the measured norm by
    construction), and ``worst_time`` its time; both are None for a
    one-sample record.
    """

    passed: bool
    min_margin: float | None
    worst_time: float | None


def _envelope_leg(record: MonitorRecord, env: np.ndarray, measured: np.ndarray) -> EnvelopeLeg:
    passed = bool(np.all(measured <= env * (1.0 + 1e-9) + 1e-12))
    if len(measured) < 2:
        return EnvelopeLeg(passed, None, None)
    margins = (env - measured)[1:]
    worst = int(np.argmin(margins))
    return EnvelopeLeg(passed, float(margins[worst]), float(record.times()[worst + 1]))


@dataclass
class ContinuationVerdict:
    verdict: str  # "FINITE" or "SUSPECT"
    bkm_integral: float
    superlinear: bool
    theta_envelope: EnvelopeLeg | None
    u_envelope: EnvelopeLeg | None


def continuation_check(record: MonitorRecord, c_frozen: float | None = None) -> ContinuationVerdict:
    """Classify a run as continuable (FINITE) or SUSPECT, replaying the
    Gronwall envelopes along it.

    With a frozen constant C, two legs start from the initial norms of the
    record's first sample at exponent ``record.r``: the temperature bound
    ||theta(t)||_r <= ||theta0||_r e^{C I(t)}, with I(t) the running
    integral of sup|grad u|, and the velocity bound ``velocity_envelope``.
    Both use one tolerance (see ``EnvelopeLeg``).  SUSPECT needs both
    superlinear growth of the monitor integral and a failed velocity leg;
    single signals are too noisy at desk scale, and the temperature leg is
    only reported.  Without a frozen constant both legs are None.  The
    BKM integral is the record's own running integral at its last sample.
    """
    if not record.samples:
        raise ValueError("empty monitor record")
    superlinear = _doubling_time_decreasing(record)
    theta_leg = u_leg = None
    if c_frozen is not None:
        theta_env = record.samples[0].theta_r * np.exp(c_frozen * record.series("bkm_integral"))
        theta_leg = _envelope_leg(record, theta_env, record.series("theta_r"))
        u_leg = _envelope_leg(record, velocity_envelope(record, c_frozen), record.series("u_r"))
    suspect = superlinear and u_leg is not None and not u_leg.passed
    return ContinuationVerdict(
        verdict="SUSPECT" if suspect else "FINITE",
        bkm_integral=record.final().bkm_integral,
        superlinear=superlinear,
        theta_envelope=theta_leg,
        u_envelope=u_leg,
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
    measured = holder_norm(f, r)
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


class _HermiteTrajectory:
    """Iterate stored at the node times of its step lattice (node 0 at
    t = 0, node i at the end of step i) with its time derivatives, one
    ``_Stack`` each.

    A read ``at(t)`` finds the step that holds t among the node times and
    interpolates by cubic Hermite over that step's own width, so a
    remainder step is read on its own width.  A read within 1e-12 of a
    step's ends (in units of its width) returns the stored node object
    itself, and a one-node trajectory is constant in time.  The next
    iterate consumes it: ``release`` drops a step's start node and slope
    (with the values cached on the node) once that iterate has passed
    the step, and a read that needs them raises ``LookupError``.
    """

    def __init__(self, lattice: list[tuple[float, float]], nodes: list, slopes: list):
        self.times = [0.0] + [t for _, t in lattice]
        self._widths = [h for h, _ in lattice]
        self._nodes = nodes
        self._slopes = slopes

    def release(self, j: int) -> None:
        """Drop node j and slope j; a one-node trajectory keeps its node."""
        if self._widths:
            self._nodes[j] = self._slopes[j] = None

    def at(self, t: float):
        if not self._widths:
            return self._nodes[0]
        j = min(max(bisect.bisect_right(self.times, t) - 1, 0), len(self._widths) - 1)
        h = self._widths[j]
        s = (t - self.times[j]) / h
        if self._nodes[j + (s > 1.0 - 1e-12)] is None:
            raise LookupError(f"read at t={t:.6g} needs a released step of the iterate")
        if s < 1e-12:
            return self._nodes[j]
        if s > 1.0 - 1e-12:
            return self._nodes[j + 1]
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        y0, y1 = self._nodes[j], self._nodes[j + 1]
        d0, d1 = self._slopes[j], self._slopes[j + 1]
        return h00 * y0 + (h10 * h) * d0 + h01 * y1 + (h11 * h) * d1


def _solve_linear_iterate(
    prev: _HermiteTrajectory,
    init: _Stack,
    lattice: list[tuple[float, float]],
    theta_lag: bool,
    r: float,
) -> tuple[_HermiteTrajectory, float, float]:
    """Advance the linearized system driven by the previous iterate.

    This is the coupled step of ``_direct_step`` with the advecting
    velocity frozen to the previous iterate and the buoyancy source set
    to the current (or, with ``theta_lag``, the previous) temperature;
    the pressure gradient is refreshed at every substage through the
    projection.  The state is one ``_Stack`` from ``init`` on, and each
    stage advects its three rows at once (``_linear_rhs``).  It steps on
    ``lattice`` (from ``transport._step_lattice``) and checks each step
    against the CFL bound of the advecting velocity at its start, as
    ``_direct_step`` does.  The stage-one slope of each step is kept as the
    Hermite derivative at its node.  The previous iterate is read once
    per distinct substage time (rk4 stages 2 and 3 share t + h/2), so the
    values of its velocity are transformed once.  Each node's Cauchy gap
    to ``prev`` (``_gap_norms`` in C^{r-1}) is taken as soon as the node
    exists, and each step of ``prev`` is released once passed.  Returns
    the trajectory and the largest theta and u gaps over its nodes.
    """
    frozen = lru_cache(maxsize=1)(prev.at)

    def rhs(t: float, y: _Stack) -> _Stack:
        driver = frozen(t)
        return _linear_rhs(y, driver.velocity, (driver if theta_lag else y).coeffs[0])

    gaps = [_gap_norms(init - frozen(0.0), r - 1)]
    nodes = [init]
    slopes = []
    t = 0.0
    for j, (h, t_end) in enumerate(lattice):
        _check_cfl(frozen(t).velocity, h, t)
        y, k1 = _coupled_step(nodes[-1], rhs, t, h)
        nodes.append(y)
        slopes.append(k1)
        t = t_end
        gaps.append(_gap_norms(y - frozen(t), r - 1))
        prev.release(j)
    slopes.append(rhs(t, nodes[-1]))
    gap_theta, gap_u = (reduce(max, column, 0.0) for column in zip(*gaps))
    return _HermiteTrajectory(lattice, nodes, slopes), gap_theta, gap_u


def _gap_norms(diff: _Stack, s: float) -> tuple[float, float]:
    """C^s norms of the temperature and of the velocity of a (theta, u1, u2)
    difference: ``holder_norm`` of its theta row and ``holder_norm_vector``
    of its velocity rows, from one inverse transform per block over all
    three rows.  The Cauchy gaps of the iterate and the twin-run gaps of
    the probe both read it."""
    theta, u1, u2 = _holder_rows(diff, s)
    return theta, max(u1, u2)


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
    initial data truncated at low-pass level m+1.  Every iterate steps on
    ``transport._step_lattice(T, dt)``, the lattice of ``run_direct``:
    steps of dt ending at i*dt, then a remainder step ending at T, each
    checked against the CFL bound, so a (T, dt) means the same here as in
    a direct run; a bad (T, dt) raises ``ValueError`` before any step.
    Record m carries the gap sup_{t <= T} ||x_m - x_{m-1}||_{C^{r-1}},
    taken at each node as iterate m makes it (so the run holds about one
    trajectory, see ``_solve_linear_iterate``), and the ratio to the
    previous gap.  Stops when the gap drops below tol, after three
    consecutive ratio > 1 events (non-contraction at this horizon), or
    at n_max.  The initial theta and u must be dealiased.
    """
    lattice = _step_lattice(T, dt)
    if r <= 1:
        raise ValueError(f"need r > 1, got {r}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2 to measure a Cauchy gap, got {n_max}")
    validate_state(BoussinesqState(theta0, u0))
    g = theta0.grid
    if np.max(np.abs(_irfft2(_Stack.of(theta0, u0).coeffs * (1.0 - g.dealias_multiplier), g))) > 1e-13:
        raise ValueError("initial data must be dealiased")
    q_max = build_partition(g).q_max

    # iterate 1 is constant in time: one node with a zero slope
    start = _Stack.of(low_pass(2, theta0), low_pass_vector(2, u0))
    current = _HermiteTrajectory([], [start], [_Stack(start.grid, np.zeros_like(start.coeffs))])
    records: list[IterationRecord] = []
    prev_gap: float | None = None
    rising = 0

    for m in range(2, n_max + 1):
        level = min(m + 1, q_max + 1)
        init = _Stack.of(low_pass(level, theta0), low_pass_vector(level, u0))
        new, gap_theta, gap_u = _solve_linear_iterate(current, init, lattice, theta_lag, r)
        gap = max(gap_theta, gap_u)
        ratio = (gap / prev_gap) if (prev_gap is not None and prev_gap > 1e-14) else None
        final = new.at(new.times[-1])
        records.append(
            IterationRecord(
                n=m,
                theta_n=final.theta,
                u_n=final.velocity,
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
    eps_values: Sequence[float],
    T: float,
    dt: float,
    r: float,
) -> list[ProbeCurve]:
    """Twin-run divergence curves for theta-only perturbations, one per eps.

    The perturbation direction is a fixed synthesized field (seed 7)
    with unit C^{r-1} norm.  One unperturbed reference run advances in
    lockstep with every perturbed run on ``transport._step_lattice``, the
    lattice of ``run_direct``, so each curve ends at T.  The gaps to the
    reference are measured in C^{r-1} at t = 0 and after every step.  A
    bad (T, dt) raises ``ValueError`` and a bad initial state the
    ``ValueError`` of ``run_direct``, before any step.
    """
    lattice = _step_lattice(T, dt)
    validate_state(state0)
    direction = synthesize_holder_field(state0.grid, r - 1.0, 1.0, seed=7)
    ref = _Stack.of(state0.theta, state0.u)
    runs = [_Stack.of(state0.theta + eps * direction, state0.u) for eps in eps_values]

    def gaps(b: _Stack) -> tuple[float, float]:
        return _gap_norms(ref - b, r - 1.0)

    times = [0.0]
    sampled = [[gaps(b)] for b in runs]
    for h, t in lattice:
        ref = _direct_step(ref, t - h, h, True)
        runs = [_direct_step(b, t - h, h, True) for b in runs]
        times.append(t)
        for curve, b in zip(sampled, runs):
            curve.append(gaps(b))
    return [
        ProbeCurve(eps, list(times), *(list(g) for g in zip(*curve)))
        for eps, curve in zip(eps_values, sampled)
    ]
