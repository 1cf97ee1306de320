"""Transform counts of the solver paths, pinned exactly.

Every transform in the program is a ``np.fft.rfft2`` or ``np.fft.irfft2``
issued by ``SpectralField``, so counting those two calls counts all the
work that dominates a step.  The counts do not depend on the machine, so
they gate a refactor where wall times on a shared host cannot.  The
numbers were recorded before the steppers were merged into one RK4.

Inputs are built fresh for every count: ``SpectralField.values()`` is
cached per field, so a field whose values were already read would give a
smaller count.
"""

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import transport
from boussinesq_lp.littlewood_paley import build_partition
from boussinesq_lp.spectral import make_grid

N = 64
DT = 1e-3


@pytest.fixture
def count(monkeypatch):
    """count(fn, *args) -> number of rfft2/irfft2 calls made by fn(*args)."""
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "rfft2", counted(np.fft.rfft2))
    monkeypatch.setattr(np.fft, "irfft2", counted(np.fft.irfft2))

    def run(fn, *args, **kwargs):
        before = calls[0]
        fn(*args, **kwargs)
        return calls[0] - before

    return run


def _grid():
    return make_grid(N)


def _tg():
    return bq.taylor_green_data(_grid(), 1.0, 0.05)


def _q_max() -> int:
    return build_partition(_grid()).q_max


def test_direct_step(count):
    # the CFL check reads u (2); each RHS makes three advection terms of
    # 3 transforms, and the stages after the first also read their
    # substage velocity (2): 2 + 9 + 3 * 11
    assert count(bq.direct_step, _tg(), DT) == 44


def test_run_direct_monitor_sample(count):
    # one step of run_direct = one direct_step + one monitor sample
    one = count(bq.run_direct, _tg(), DT, DT, 1.5)
    two = count(bq.run_direct, _tg(), 2 * DT, DT, 1.5)
    step = count(bq.direct_step, _tg(), DT)
    sample = two - one - step
    # grad_linf_norm (4) + divergence_residual (1) + three Hoelder norms
    # of q_max + 2 blocks each
    assert sample == 5 + 3 * (_q_max() + 2)
    # T = 0: validation (divergence-free check) plus the initial sample
    assert count(bq.run_direct, _tg(), 0.0, DT, 1.5) == 5 + 5 + 3 * (_q_max() + 2)


def _transport_problem(T):
    grid = _grid()
    f0 = bq.synthesize_holder_field(grid, 1.5, 1.0, 3)
    v = bq.synthesize_divfree_velocity(grid, 1.5, 1.0, 4)
    return transport.TransportProblem(f0, v, None, T=T, dt=DT)


def test_constant_velocity_transport_step(count):
    one = count(transport.solve, _transport_problem(DT))
    two = count(transport.solve, _transport_problem(2 * DT))
    assert two - one == 12
    # the first step also checks the velocity for divergence once (5) and
    # reads its values (2)
    assert one == 12 + 5 + 2
    grid = _grid()
    f = bq.synthesize_holder_field(grid, 1.5, 1.0, 3)
    v = bq.synthesize_divfree_velocity(grid, 1.5, 1.0, 4)
    assert count(transport.step, f, v, None, DT) == 12 + 5 + 2


def test_iterate_scheme_run(count):
    grid = _grid()
    theta0 = bq.synthesize_holder_field(grid, 1.5, 0.05, 1)
    u0 = bq.synthesize_divfree_velocity(grid, 1.5, 0.05, 2)
    # two linearised iterates over 3 steps, plus the Cauchy gap norms
    assert count(bq.iterate_scheme, theta0, u0, 1.5, 3, 0.006, 2e-3, 1e-30) == 382
