"""Linear transport on the torus: d/dt f + v . grad f = 0.

Pseudo-spectral advection with classical RK4 in time.  The velocity v
is frozen in time and checked for divergence once per run.  The CFL bound
dt <= CFL_NUMBER * (L/n) / max|v|, with CFL_NUMBER = 0.5, is checked on
every step and a violation raises instead of silently clamping.  ``rk4``
is the one RK4 step of the package: the coupled solver and its
linearised iterates use it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .spectral import SpectralField, VectorField, advect, is_divergence_free

__all__ = [
    "CFLViolation",
    "TransportProblem",
    "TransportTrajectory",
    "cfl_bound",
    "solve",
]

CFL_NUMBER = 0.5
_State = TypeVar("_State")


class CFLViolation(RuntimeError):
    """Raised when a step exceeds the advective CFL limit."""

    def __init__(self, t: float, dt: float, bound: float):
        super().__init__(
            f"CFL violation at t={t:.6g}: dt={dt:.3g} exceeds bound {bound:.3g}"
        )
        self.t = t
        self.dt = dt
        self.bound = bound


def cfl_bound(v: VectorField) -> float:
    """Largest admissible dt for velocity v on its grid: 0.5 * dx / max|v|."""
    speed = v.max_speed()
    if speed == 0.0:
        return np.inf
    return CFL_NUMBER * v.grid.dx / speed


def _check_cfl(v: VectorField, dt: float, t: float) -> None:
    bound = cfl_bound(v)
    if dt > bound:
        raise CFLViolation(t, dt, bound)


def _step_lattice(T: float, dt: float, t0: float = 0.0) -> list[tuple[float, float]]:
    """The fixed-step time lattice to t0 + T, as (step, end time) pairs.

    Steps of dt end on the lattice t0 + i*dt (end times are not summed),
    then one remainder step ends at t0 + T when more than 1e-12 is left.
    This is the only place that turns (T, dt) into steps: every
    integrator of the package (``solve``, ``run_direct``,
    ``uniqueness_probe``, ``iterate_scheme``) steps on it, and it raises
    ``ValueError`` unless 0 <= T < inf and 0 < dt < inf.
    """
    if not (0.0 <= T < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need 0 <= T < inf and 0 < dt < inf, got T={T}, dt={dt}")
    n_steps = int(np.floor(T / dt + 1e-9))
    lattice = [(dt, t0 + i * dt) for i in range(1, n_steps + 1)]
    remainder = T - n_steps * dt
    if remainder > 1e-12:
        lattice.append((remainder, t0 + T))
    return lattice


def rk4(
    y: _State, rhs: Callable[[float, _State, np.ndarray | None], _State], t: float, h: float
) -> tuple[_State, _State]:
    """One classical RK4 step of dy/dt = rhs(t, y, out) for one state y: a
    ``SpectralField``, or the ``BoussinesqState`` of a coupled run.  Both
    are built as ``type(y)(grid, coeffs)``, so the stage inputs and the
    result of a coupled step are states too, at the default time.

    ``rhs(t, y, out)`` returns the slope at (t, y).  Given ``out``, an
    array of y's coefficient shape, it may write the slope there and return
    a state over it; given None it returns a slope over a new array.  Stage
    one passes None, because the slope k1 is returned; the later stages
    pass one slope work array of the grid.  Each stage input y + c*k is
    formed in one stage work array, and each slope is added into the
    combination y + (h/6) * (((k1 + 2*k2) + 2*k3) + k4) as soon as it
    exists, with the operations of that expression in its order (an
    addition's operands may swap: IEEE addition is commutative); the 2*k3
    product goes through the stage work array.  The combination, the new
    state, is the one array ``rk4`` allocates; the stage inputs and the
    slopes k2..k4 over its work arrays are dropped before it returns.

    Returns the new state and the first stage slope k1 = rhs(t, y, None).
    """
    g = y.grid
    stage = g.work("rk4.stage", y.coeffs.shape)
    slope = g.work("rk4.slope", y.coeffs.shape)

    def shifted(c: float, k: _State) -> _State:
        s = np.multiply(k.coeffs, c, out=stage)
        s += y.coeffs
        return type(y)(g, s)

    k1 = rhs(t, y, None)
    k = rhs(t + h / 2, shifted(h / 2, k1), slope)
    combined = k.coeffs * 2.0
    combined += k1.coeffs
    k = rhs(t + h / 2, shifted(h / 2, k), slope)
    combined += np.multiply(k.coeffs, 2.0, out=stage)
    k = rhs(t + h, shifted(h, k), slope)
    combined += k.coeffs
    combined *= h / 6.0
    combined += y.coeffs
    return type(y)(g, combined), k1


@dataclass
class TransportProblem:
    f0: SpectralField
    velocity: VectorField
    T: float = 1.0
    dt: float = 1e-3


@dataclass
class TransportTrajectory:
    """Fields captured at the observed steps (always includes t=0 and t=T)."""

    times: list[float]
    fields: list[SpectralField]

    def final(self) -> SpectralField:
        return self.fields[-1]


def solve(problem: TransportProblem, observers: int = 1) -> TransportTrajectory:
    """March f from f0 to T with the velocity held fixed.

    Steps follow ``_step_lattice``: steps of dt ending at i*dt, then a
    remainder step ending at T; a bad (T, dt) raises its ``ValueError``
    before any step.  The field is recorded at t = 0, after
    every ``observers``-th step, and at T.  The velocity is checked for
    divergence once, before the first step.
    """
    v = problem.velocity
    T = float(problem.T)
    lattice = _step_lattice(T, float(problem.dt))
    if observers < 1:
        raise ValueError(f"observers must be a positive step count, got {observers}")
    if not is_divergence_free(v):
        raise ValueError("transport velocity must be divergence-free")

    def rhs(_t: float, f: SpectralField, _out: np.ndarray | None) -> SpectralField:
        slope = advect(v, f)  # a fresh field nothing has read: negated in place
        np.negative(slope.coeffs, out=slope.coeffs)
        return slope

    f = problem.f0
    t = 0.0
    times = [0.0]
    fields = [f]
    for i, (h, t_end) in enumerate(lattice, 1):
        _check_cfl(v, h, t)
        f = rk4(f, rhs, t, h)[0]
        t = t_end
        if i % observers == 0 or i == len(lattice):
            times.append(T if i == len(lattice) else t)
            fields.append(f)
    return TransportTrajectory(times, fields)
