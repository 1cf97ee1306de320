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
    y: _State, rhs: Callable[[float, _State], _State], t: float, h: float
) -> tuple[_State, _State]:
    """One classical RK4 step of dy/dt = rhs(t, y) for one state y: a
    ``SpectralField``, or the ``BoussinesqState`` of a coupled run.  Both
    are built as ``type(y)(grid, coeffs)``, so the stage inputs and the
    result of a coupled step are states too, at the default time.

    The stage inputs y + c*k and the combination
    y + (h/6) * (((k1 + 2*k2) + 2*k3) + k4) are formed on the coefficients,
    each in one new array with the same operations in the same order (an
    addition's operands may swap: IEEE addition is commutative).  The
    2*k3 product of the combination goes through a work array of the grid.

    Returns the new state and the first stage slope k1 = rhs(t, y).
    """

    def shifted(c: float, k: _State) -> _State:
        s = k.coeffs * c
        s += y.coeffs
        return type(y)(y.grid, s)

    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, shifted(h / 2, k1))
    k3 = rhs(t + h / 2, shifted(h / 2, k2))
    k4 = rhs(t + h, shifted(h, k3))
    combined = k2.coeffs * 2.0
    combined += k1.coeffs
    combined += np.multiply(k3.coeffs, 2.0, out=y.grid.work("rk4", k3.coeffs.shape))
    combined += k4.coeffs
    combined *= h / 6.0
    combined += y.coeffs
    return type(y)(y.grid, combined), k1


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

    def rhs(_t: float, f: SpectralField) -> SpectralField:
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
