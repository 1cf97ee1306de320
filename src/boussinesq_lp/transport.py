"""Linear transport on the torus: d/dt f + v . grad f = g.

Pseudo-spectral advection with classical RK4 in time.  Velocity and
forcing enter through time-indexed providers that are sampled at the RK
substage times; a plain field is treated as a constant-in-time provider.
The CFL bound dt <= 0.5 * (L/n) / max|v| is checked on every step and a
violation raises instead of silently clamping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spectral import Grid, SpectralField, VectorField, advect, is_divergence_free

__all__ = [
    "CFLViolation",
    "TransportProblem",
    "TransportTrajectory",
    "cfl_bound",
    "step",
    "solve",
]

CFL_NUMBER = 0.5

VelocityProvider = Callable[[float], VectorField]
ForcingProvider = Callable[[float], SpectralField]


class CFLViolation(RuntimeError):
    """Raised when a step exceeds the advective CFL limit."""

    def __init__(self, t: float, dt: float, bound: float):
        super().__init__(
            f"CFL violation at t={t:.6g}: dt={dt:.3g} exceeds bound {bound:.3g}"
        )
        self.t = t
        self.dt = dt
        self.bound = bound


def max_speed(v: VectorField) -> float:
    v1, v2 = v.values()
    return float(np.max(np.hypot(v1, v2)))


def cfl_bound(v: VectorField, grid: Grid) -> float:
    """Largest admissible dt for velocity v: 0.5 * dx / max|v|."""
    speed = max_speed(v)
    if speed == 0.0:
        return np.inf
    return CFL_NUMBER * grid.dx / speed


def _check_cfl(v: VectorField, grid: Grid, dt: float, t: float) -> None:
    bound = cfl_bound(v, grid)
    if dt > bound:
        raise CFLViolation(t, dt, bound)


def _rk4(
    f: SpectralField,
    rhs: Callable[[float, SpectralField], SpectralField],
    t: float,
    dt: float,
) -> SpectralField:
    k1 = rhs(t, f)
    k2 = rhs(t + dt / 2, f + (dt / 2) * k1)
    k3 = rhs(t + dt / 2, f + (dt / 2) * k2)
    k4 = rhs(t + dt, f + dt * k3)
    return f + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(
    f: SpectralField,
    v: VectorField,
    g: SpectralField | None,
    dt: float,
    t: float = 0.0,
) -> SpectralField:
    """One RK4 step with velocity and forcing held fixed over the step."""
    if not is_divergence_free(v):
        raise ValueError("transport velocity must be divergence-free")
    _check_cfl(v, f.grid, dt, t)
    if g is None:
        rhs = lambda _t, y: -advect(v, y)
    else:
        rhs = lambda _t, y: -advect(v, y) + g
    return _rk4(f, rhs, t, dt)


def _as_velocity_provider(v) -> VelocityProvider:
    return v if callable(v) else (lambda t: v)


def _as_forcing_provider(g) -> ForcingProvider | None:
    if g is None:
        return None
    return g if callable(g) else (lambda t: g)


@dataclass
class TransportProblem:
    f0: SpectralField
    velocity: VectorField | VelocityProvider
    forcing: SpectralField | ForcingProvider | None = None
    T: float = 1.0
    dt: float = 1e-3


@dataclass
class TransportTrajectory:
    """Fields captured at observer times (always includes t=0 and t=T)."""

    times: list[float]
    fields: list[SpectralField]

    def final(self) -> SpectralField:
        return self.fields[-1]


def solve(
    problem: TransportProblem,
    observers: Sequence[float] | int | None = None,
) -> TransportTrajectory:
    """March the transport problem to T, sampling providers at substages.

    ``observers`` is either a step stride (int), explicit times, or None
    (record every step).  Every distinct velocity object the provider
    returns at a substage is checked for divergence before use, so a
    constant provider is checked once per run.
    """
    v_of = _as_velocity_provider(problem.velocity)
    g_of = _as_forcing_provider(problem.forcing)
    grid = problem.f0.grid
    T, dt = float(problem.T), float(problem.dt)
    if T < 0 or dt <= 0:
        raise ValueError("need T >= 0 and dt > 0")

    if isinstance(observers, int):
        stride, wanted = observers, None
    elif observers is None:
        stride, wanted = 1, None
    else:
        stride, wanted = None, sorted(float(t) for t in observers)

    def observed(idx: int, t: float) -> bool:
        if wanted is None:
            return idx % stride == 0
        return any(abs(t - w) <= 1e-9 * max(1.0, T) for w in wanted)

    f = problem.f0
    t = 0.0
    times = [0.0]
    fields = [f]

    n_steps = int(np.floor(T / dt + 1e-9))
    remainder = T - n_steps * dt
    checked = None  # the last velocity object found divergence-free

    def advance(f: SpectralField, t: float, h: float) -> SpectralField:
        nonlocal checked
        va = v_of(t)
        vb = v_of(t + h / 2)
        vc = v_of(t + h)
        # a constant provider returns one object every time: check it once
        for v in (va, vb, vc):
            if v is not checked:
                if not is_divergence_free(v):
                    raise ValueError("velocity provider returned a non-divergence-free field")
                checked = v
        _check_cfl(va, grid, h, t)

        def rhs_at(tt: float, y: SpectralField, v: VectorField) -> SpectralField:
            out = -advect(v, y)
            if g_of is not None:
                out = out + g_of(tt)
            return out

        k1 = rhs_at(t, f, va)
        k2 = rhs_at(t + h / 2, f + (h / 2) * k1, vb)
        k3 = rhs_at(t + h / 2, f + (h / 2) * k2, vb)
        k4 = rhs_at(t + h, f + h * k3, vc)
        return f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for i in range(1, n_steps + 1):
        f = advance(f, t, dt)
        t = i * dt
        if observed(i, t) and t < T - 1e-12:
            times.append(t)
            fields.append(f)
    if remainder > 1e-12:
        f = advance(f, t, remainder)
        t = T
    if not times or times[-1] < T - 1e-12:
        times.append(T)
        fields.append(f)
    return TransportTrajectory(times, fields)
