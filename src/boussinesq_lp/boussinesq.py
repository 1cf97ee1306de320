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

The one coupled state type is ``BoussinesqState``, the (theta, u1, u2)
coefficients as one (3, n, n//2 + 1) stack with its time, and ``rk4`` and
``_coupled_step`` see no other state: the direct run and the probe's twin
runs step states, and the linearized iterate keeps its nodes, stage-one
slopes and Hermite reads as states, each step only until the next iterate has
stepped past it, so the scheme holds one trajectory, not two.  Each step
does the per-field arithmetic of the right-hand side on the rows, then one
RK4 combination, one projection and one finite check over the whole stack.
In the iterate all three rows are advected by one velocity, so one stacked
advection (3 transform calls over 9 fields) replaces three (9 calls), and
a Cauchy gap or a probe gap takes one inverse transform per block over the
three rows of a difference.  The direct step advects u by itself in flux
form, so its rows share no one advection.  Both right-hand sides write the
rows of a slope into the array ``rk4`` hands them (its slope work array
after the first stage), with their products, their transforms and a stage
input's velocity values in the work arrays of the grid (see ``spectral``),
so a step allocates little more than the slope k1 and the new state.
Measured step times are kept with the benchmark records (``BENCH_*.json``
and ``CHANGES.md``), not here, where they would go stale.
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


@dataclass(frozen=True, eq=False)
class BoussinesqState:
    """The temperature and velocity at time t, on one grid, as one (3, n,
    n//2 + 1) array of (theta, u1, u2) coefficients.  Slopes, stage inputs,
    Hermite reads and differences are states too (their ``t`` is never
    read): ``rk4``, sums, differences and scalar multiples act on the whole
    array.  ``theta`` and ``u`` are fields over its rows, built on first
    read, so the values of a state's velocity are transformed once,
    whichever reader (the CFL check, the next step, the monitor, a Hermite
    read) comes first.
    """

    grid: Grid
    coeffs: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        shape, want = np.shape(self.coeffs), (3, *self.grid.spectral_shape)
        if shape != want:
            raise ValueError(f"coefficient array shape {shape} does not match the state "
                             f"shape {want} of {self.grid!r}")

    @classmethod
    def of(cls, theta: SpectralField, u: VectorField, t: float = 0.0) -> "BoussinesqState":
        if theta.grid != u.grid:
            raise ValueError("fields live on different grids")
        return cls(theta.grid, np.stack((theta.coeffs, u.u1.coeffs, u.u2.coeffs)), t)

    @cached_property
    def theta(self) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[0])

    @cached_property
    def u(self) -> VectorField:
        g, c = self.grid, self.coeffs
        return VectorField(SpectralField(g, c[1]), SpectralField(g, c[2]))

    def __add__(self, other: "BoussinesqState") -> "BoussinesqState":
        return BoussinesqState(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "BoussinesqState") -> "BoussinesqState":
        return BoussinesqState(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "BoussinesqState":
        return BoussinesqState(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


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
    """Iterate n, as its state at T, with its Cauchy gap against iterate n-1."""

    n: int
    state: BoussinesqState
    cauchy_gap_theta: float
    cauchy_gap_u: float
    ratio: float | None


def _rhs(y: BoussinesqState, buoyancy: bool, out: np.ndarray | None = None) -> BoussinesqState:
    """Slope of the state y with its velocity u advecting every row, forced
    by the buoyancy of theta (unless ``buoyancy`` is off), with the
    velocity rows projected, written into ``out`` if given (``rk4``'s
    slope work array), else into one new array.

    The momentum term is taken in flux form, u . grad u = div(u (x) u),
    from the values of u: each product u1 u1, u1 u2, u2 u2 is transformed
    once, 3 transforms in place of the 6 of the advective form.  A state
    whose velocity values a reader has cached on ``y.u`` (the CFL check of
    the step that holds it) is read through its fields: those values and
    ``advect(y.u, y.theta)``.  Any other state, such as a stage input of
    ``rk4``, has its velocity values transformed into a work array, not
    kept, and its temperature row advected into the slope.  The products,
    their transforms and the force go through work arrays of the grid and
    the velocity rows of the slope before the force is projected.
    """
    g = y.grid
    slope = np.empty_like(y.coeffs) if out is None else out
    u = y.__dict__.get("u")
    if u is not None and "_values" in u.u1.__dict__ and "_values" in u.u2.__dict__:
        u1, u2 = u.values()
        np.negative(advect(u, y.theta).coeffs, out=slope[0])
    else:
        u1, u2 = g.work("rhs.velocity", (2, g.n, g.n), float)
        _irfft2(y.coeffs[1], g, u1)
        _irfft2(y.coeffs[2], g, u2)
        np.negative(_advect_rows(g, (u1, u2), y.coeffs[0], slope[0]), out=slope[0])
    product = g.work("rhs.product", (g.n, g.n), float)
    f11, f12, f22 = fluxes = g.work("rhs.fluxes", y.coeffs.shape)
    for a, b, flux in zip((u1, u1, u2), (u1, u2, u2), fluxes):
        _rfft2(np.multiply(a, b, out=product), flux)
    m1 = np.multiply(f11, g.ik1, out=slope[1])
    m1 += np.multiply(f12, g.ik2, out=f11)
    m1 *= g.dealias_multiplier
    m2 = np.multiply(f12, g.ik1, out=f12)
    m2 += np.multiply(f22, g.ik2, out=f22)
    m2 *= g.dealias_multiplier
    force1 = np.negative(m1, out=m1)
    force2 = np.subtract(y.coeffs[0], m2, out=slope[2]) if buoyancy else np.negative(m2, out=slope[2])
    force = leray_project(VectorField(SpectralField(g, force1), SpectralField(g, force2)))
    slope[1] = force.u1.coeffs
    slope[2] = force.u2.coeffs
    return BoussinesqState(g, slope)


def _project_rows(y: BoussinesqState) -> BoussinesqState:
    """``leray_project`` of the velocity rows of a state, in place: only
    for a state its caller has just built and nothing has read."""
    g = y.grid
    grad = g.work("project_rows", (2, *g.spectral_shape))
    _gradient_part(g, y.coeffs[1], y.coeffs[2], grad[0], grad[1])
    y.coeffs[1:] -= grad
    return y


def _linear_rhs(
    y: BoussinesqState, v: VectorField, source: np.ndarray, out: np.ndarray | None = None
) -> BoussinesqState:
    """Slope of the state y advected by v and forced by the buoyancy of the
    temperature coefficients ``source``, with the velocity rows projected,
    written into ``out`` if given (``rk4``'s slope work array), else into
    one new array: the arithmetic of ``-advect``, ``advect_vector`` and
    ``leray_project`` on every coefficient, with the three rows advected by
    one ``_advect_rows``."""
    slope = _advect_rows(y.grid, v, y.coeffs, out)
    np.subtract(source, slope[2], out=slope[2])
    np.negative(slope[:2], out=slope[:2])
    return _project_rows(BoussinesqState(y.grid, slope))


def _coupled_step(y: BoussinesqState, rhs, h: float, t_end: float) -> tuple[BoussinesqState, BoussinesqState]:
    """One ``rk4`` step of width h from the state y at time ``y.t``, with the
    final velocity rows projected and the whole stack checked finite;
    returns the new state, at the lattice time ``t_end``, and the
    stage-one slope.  The stage slopes are already divergence-free, so the
    projection only clears the roundoff of the combination."""
    stepped, k1 = rk4(y, rhs, y.t, h)
    coeffs = _project_rows(stepped).coeffs
    if not np.all(np.isfinite(coeffs)):
        raise NumericsError(f"non-finite field values at t={t_end:.6g}")
    return BoussinesqState(y.grid, coeffs, t_end), k1


def _direct_step(y: BoussinesqState, h: float, t_end: float, buoyancy: bool) -> BoussinesqState:
    """One step of the full system from the state y to ``t_end``, checked
    against the CFL bound of its velocity."""
    _check_cfl(y.u, h, y.t)
    return _coupled_step(y, lambda _t, s, out: _rhs(s, buoyancy, out), h, t_end)[0]


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
    for h, t in lattice:
        state = _direct_step(state, h, t, buoyancy)
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


def _check_exponents(rs: Sequence[float]) -> None:
    for r in rs:
        if r <= 0:
            raise ValueError(f"Hoelder exponent must be positive, got {r}")


def _synthesize_holder_fields(
    grid: Grid, rs: Sequence[float], amplitude: float, seed: int
) -> list[SpectralField]:
    """``synthesize_holder_field`` at every exponent of ``rs``, in order,
    from one draw: each random block is drawn, transformed, filtered and
    peaked once, then added into the total of every exponent with the
    operations of the one-exponent call, so each field equals that call bit
    for bit.  An r <= 0 anywhere in ``rs`` raises before any draw."""
    _check_exponents(rs)
    part = build_partition(grid)
    totals = [np.zeros(grid.spectral_shape, dtype=complex) for _ in rs]
    if amplitude == 0.0:
        return [SpectralField(grid, total) for total in totals]
    rng = np.random.default_rng(seed)
    for q in range(0, part.q_max - 1):
        noise = rng.standard_normal((grid.n, grid.n))
        piece = SpectralField.from_values(grid, noise).multiplied(part.multiplier(q))
        peak = linf_norm(piece)
        if peak == 0.0:
            continue
        for total, r in zip(totals, rs):
            total += piece.coeffs * (amplitude * 2.0 ** (-q * r) / peak)
    fields = []
    for total, r in zip(totals, rs):
        f = dealias(SpectralField(grid, total))
        measured = holder_norm(f, r)
        if measured > 0.0:
            f = f * (amplitude / measured)
        fields.append(f)
    return fields


def _synthesize_divfree_velocities(
    grid: Grid, rs: Sequence[float], amplitude: float, seed: int
) -> list[VectorField]:
    """``synthesize_divfree_velocity`` at every exponent of ``rs``, in order,
    from the one draw of ``_synthesize_holder_fields`` for the stream
    functions; each velocity equals the one-exponent call bit for bit.  An
    r <= 0 anywhere in ``rs`` raises before any draw, and amplitude 0 gives
    zero velocities without one."""
    _check_exponents(rs)
    if amplitude == 0.0:
        return [VectorField.zero(grid) for _ in rs]
    velocities = []
    for psi, r in zip(_synthesize_holder_fields(grid, [r + 1.0 for r in rs], 1.0, seed), rs):
        u = VectorField(-derivative(psi, 2), derivative(psi, 1))
        measured = holder_norm_vector(u, r)
        if measured > 0.0:
            u = u * (amplitude / measured)
        velocities.append(u)
    return velocities


def synthesize_holder_field(
    grid: Grid, r: float, amplitude: float, seed: int
) -> SpectralField:
    """Random-phase field with block-q sup amplitude proportional to 2^{-qr}.

    Blocks q = 0..q_max-2 are populated (grids with q_max < 2 give the
    zero field) and the result is rescaled so the measured Hoelder norm
    equals ``amplitude`` exactly.  Mean-zero and dealiased by
    construction; deterministic per seed.  On a q_max = 2 grid (n = 32 at
    L = 2 pi) only block 0 is filled, with weight 1 at every r, so r
    reaches the data only through the rescale.  The one-exponent case of
    ``_synthesize_holder_fields``.
    """
    return _synthesize_holder_fields(grid, (r,), amplitude, seed)[0]


def synthesize_divfree_velocity(
    grid: Grid, r: float, amplitude: float, seed: int
) -> VectorField:
    """Divergence-free field with Hoelder norm ``amplitude``: the rotated
    gradient of a synthesized stream function one degree smoother.  The
    one-exponent case of ``_synthesize_divfree_velocities``."""
    return _synthesize_divfree_velocities(grid, (r,), amplitude, seed)[0]


def hydrostatic_data(grid: Grid, amplitude: float = 1.0) -> BoussinesqState:
    """Stratified rest state: u = 0, theta a function of the vertical only."""
    theta = SpectralField.from_values(
        grid, amplitude * np.sin(2.0 * np.pi * grid.x2 / grid.length)
    )
    return BoussinesqState.of(dealias(theta), VectorField.zero(grid))


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
    return BoussinesqState.of(dealias(theta), dealias_vector(u))


# ---------------------------------------------------------------------------
# successive approximation


class _HermiteTrajectory:
    """Iterate stored at the node times of its step lattice (node 0 at
    t = 0, node i at the end of step i) with its time derivatives, one
    ``BoussinesqState`` each.

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
        # h00*y0 + (h10*h)*d0 + h01*y1 + (h11*h)*d1 in one array, each
        # product through one work array of the grid
        g = y0.grid
        term = g.work("hermite.term", y0.coeffs.shape)
        read = y0.coeffs * h00
        read += np.multiply(d0.coeffs, h10 * h, out=term)
        read += np.multiply(y1.coeffs, h01, out=term)
        read += np.multiply(d1.coeffs, h11 * h, out=term)
        return BoussinesqState(g, read)


def _solve_linear_iterate(
    prev: _HermiteTrajectory,
    init: BoussinesqState,
    lattice: list[tuple[float, float]],
    theta_lag: bool,
    r: float,
) -> tuple[_HermiteTrajectory, float, float]:
    """Advance the linearized system driven by the previous iterate.

    This is the coupled step of ``_direct_step`` with the advecting
    velocity frozen to the previous iterate and the buoyancy source set
    to the current (or, with ``theta_lag``, the previous) temperature;
    the pressure gradient is refreshed at every substage through the
    projection.  Every node, slope and stage input is a ``BoussinesqState``,
    and each stage advects its three rows at once (``_linear_rhs``).  It
    steps from ``init`` (at t = 0) on ``lattice`` (from
    ``transport._step_lattice``) and checks each step against the CFL
    bound of the advecting velocity at its start, as ``_direct_step``
    does.  The stage-one slope of each step is kept as the Hermite
    derivative at its node.  The previous iterate is read once
    per distinct substage time (rk4 stages 2 and 3 share t + h/2), so the
    values of its velocity are transformed once.  Each node's Cauchy gap
    to ``prev`` (``_gap_norms`` in C^{r-1}) is taken as soon as the node
    exists, and each step of ``prev`` is released once passed.  Returns
    the trajectory and the largest theta and u gaps over its nodes.
    """
    frozen = lru_cache(maxsize=1)(prev.at)

    def rhs(t: float, y: BoussinesqState, out: np.ndarray | None = None) -> BoussinesqState:
        driver = frozen(t)
        return _linear_rhs(y, driver.u, (driver if theta_lag else y).coeffs[0], out)

    gaps = [_gap_norms(init - frozen(0.0), r - 1)]
    nodes = [init]
    slopes = []
    for j, (h, t_end) in enumerate(lattice):
        y = nodes[-1]
        _check_cfl(frozen(y.t).u, h, y.t)
        y, k1 = _coupled_step(y, rhs, h, t_end)
        nodes.append(y)
        slopes.append(k1)
        gaps.append(_gap_norms(y - frozen(t_end), r - 1))
        prev.release(j)
    slopes.append(rhs(nodes[-1].t, nodes[-1]))
    gap_theta, gap_u = (reduce(max, column, 0.0) for column in zip(*gaps))
    return _HermiteTrajectory(lattice, nodes, slopes), gap_theta, gap_u


def _gap_norms(diff: BoussinesqState, s: float) -> tuple[float, float]:
    """C^s norms of the temperature and of the velocity of a (theta, u1, u2)
    difference: ``holder_norm`` of its theta row and ``holder_norm_vector``
    of its velocity rows, from one inverse transform per block over all
    three rows.  The Cauchy gaps of the iterate and the twin-run gaps of
    the probe both read it."""
    theta, u1, u2 = _holder_rows(diff, s)
    return theta, max(u1, u2)


def iterate_scheme(
    state0: BoussinesqState,
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
    Every iterate starts at t = 0 (``state0.t`` is not read) from
    ``state0``, which must be dealiased, truncated as one state.  Record m
    carries the state of iterate m at T, the gap
    sup_{t <= T} ||x_m - x_{m-1}||_{C^{r-1}}, taken at each node as iterate
    m makes it (so the run holds about one trajectory, see
    ``_solve_linear_iterate``), and the ratio to the previous gap.  Stops
    when the gap drops below tol, after three consecutive ratio > 1 events
    (non-contraction at this horizon), or at n_max.
    """
    lattice = _step_lattice(T, dt)
    if r <= 1:
        raise ValueError(f"need r > 1, got {r}")
    if n_max < 2:
        raise ValueError(f"need n_max >= 2 to measure a Cauchy gap, got {n_max}")
    validate_state(state0)
    g = state0.grid
    if np.max(np.abs(_irfft2(state0.coeffs * (1.0 - g.dealias_multiplier), g))) > 1e-13:
        raise ValueError("initial data must be dealiased")
    part = build_partition(g)

    # iterate 1 is constant in time: one node with a zero slope
    start = BoussinesqState(g, state0.coeffs * part.lowpass_multiplier(2))
    current = _HermiteTrajectory([], [start], [BoussinesqState(g, np.zeros_like(start.coeffs))])
    records: list[IterationRecord] = []
    prev_gap: float | None = None
    rising = 0

    for m in range(2, n_max + 1):
        init = BoussinesqState(g, state0.coeffs * part.lowpass_multiplier(min(m + 1, part.q_max + 1)))
        new, gap_theta, gap_u = _solve_linear_iterate(current, init, lattice, theta_lag, r)
        gap = max(gap_theta, gap_u)
        ratio = (gap / prev_gap) if (prev_gap is not None and prev_gap > 1e-14) else None
        records.append(IterationRecord(m, new.at(new.times[-1]), gap_theta, gap_u, ratio))
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
    with unit C^{r-1} norm.  One unperturbed reference run, ``state0``
    itself, advances in lockstep with every perturbed run on
    ``transport._step_lattice``, the lattice of ``run_direct``, so each
    curve ends at ``state0.t`` + T.  The gaps to the reference are
    measured in C^{r-1} at the start and after every step.  A bad (T, dt)
    or r <= 1 raises ``ValueError``, and a bad initial state the
    ``ValueError`` of ``run_direct``, before any step.
    """
    lattice = _step_lattice(T, dt, state0.t)
    if r <= 1:
        raise ValueError(f"need r > 1, got {r}")
    validate_state(state0)
    direction = synthesize_holder_field(state0.grid, r - 1.0, 1.0, seed=7)
    ref = state0
    runs = [BoussinesqState.of(state0.theta + eps * direction, state0.u, state0.t) for eps in eps_values]
    times = [state0.t]
    sampled = [[_gap_norms(ref - b, r - 1.0)] for b in runs]
    for h, t in lattice:
        ref = _direct_step(ref, h, t, True)
        runs = [_direct_step(b, h, t, True) for b in runs]
        times.append(t)
        for curve, b in zip(sampled, runs):
            curve.append(_gap_norms(ref - b, r - 1.0))
    return [
        ProbeCurve(eps, list(times), *(list(g) for g in zip(*curve)))
        for eps, curve in zip(eps_values, sampled)
    ]
