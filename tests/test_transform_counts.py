"""Transform counts of the solver paths, pinned exactly.

Every transform in the program is a ``np.fft.rfft2`` or ``np.fft.irfft2``,
so counting those two calls counts all the work that dominates a step.
One call may transform a stack of fields along its leading axes, so the
pins count fields (the product of the leading axes of each input, 1 for a
single field) and, where a path stacks its fields, calls as well.  The
counts do not depend on the machine, so they gate a refactor where wall
times on a shared host cannot.  The field counts were recorded before
the steppers were merged into one RK4.

Next to them, the number of ``SpectralField`` objects a path builds
counts its full-array field results (each is one coefficient array), the
elementwise work between the transforms.  Those pins must not rise.

Inputs are built fresh for every count: ``SpectralField.values()``, the
sup-norm block profile and the velocity norms are cached per field, so a
field whose values or norms were already read would give a smaller count.
"""

import math

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import harness, transport
from boussinesq_lp.littlewood_paley import build_partition, holder_norm
from boussinesq_lp.spectral import SpectralField, is_divergence_free, make_grid

N = 64
DT = 1e-3


def _counter(monkeypatch, owner, names, weight=lambda *args: 1):
    """run(fn, *args) -> the summed ``weight(*call_args)`` of the calls
    fn(*args) makes to the named attributes of ``owner`` (by default their
    number), wrapped for the rest of the test."""
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += weight(*args)
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))

    def run(fn, *args, **kwargs):
        before = calls[0]
        fn(*args, **kwargs)
        return calls[0] - before

    return run


TRANSFORMS = ("rfft2", "irfft2")


def _fields(a, *args) -> int:
    """The fields one transform call covers: the product of the leading
    axes of its input, 1 for a single (n, n) or (n, n//2 + 1) field."""
    return math.prod(np.shape(a)[:-2])


@pytest.fixture
def count(monkeypatch):
    """count(fn, *args) -> number of fields the rfft2/irfft2 calls of
    fn(*args) transform."""
    return _counter(monkeypatch, np.fft, TRANSFORMS, _fields)


@pytest.fixture
def calls(monkeypatch):
    """calls(fn, *args) -> number of rfft2/irfft2 calls made by fn(*args)."""
    return _counter(monkeypatch, np.fft, TRANSFORMS)


@pytest.fixture
def built(monkeypatch):
    """built(fn, *args) -> number of SpectralField objects fn(*args) builds,
    each one a full-array field result."""
    return _counter(monkeypatch, SpectralField, ("__post_init__",))


def _grid():
    return make_grid(N)


def _tg():
    return bq.taylor_green_data(_grid(), 1.0, 0.05)


def _q_max() -> int:
    return build_partition(_grid()).q_max


def test_direct_step(count):
    # the CFL check reads u (2); stage 1 advects theta (3) and transforms
    # the three products of the flux tensor u (x) u (3); the stages after
    # the first also read their substage velocity (2): 2 + (3 + 3) + 3 * 8
    assert count(bq.direct_step, _tg(), DT) == 32


def test_run_direct_monitor_sample(count):
    # one step of run_direct = one direct_step + one monitor sample
    one = count(bq.run_direct, _tg(), DT, DT, 1.5)
    two = count(bq.run_direct, _tg(), 2 * DT, DT, 1.5)
    step = count(bq.direct_step, _tg(), DT)
    sample = two - one - step
    # grad_linf_norm (4) + divergence_residual (1) + three Hoelder norms
    # of q_max + 2 blocks each
    assert sample == 5 + 3 * (_q_max() + 2)
    # T = 0: validation (divergence-free check) plus the initial sample,
    # which reads the two velocity norms the check cached on u0
    assert count(bq.run_direct, _tg(), 0.0, DT, 1.5) == 5 + 3 * (_q_max() + 2)


def test_field_results_per_step_and_sample(built):
    # each of the 4 stages: the theta and velocity fields over its input
    # stack (3, the first stage's shared with the CFL check), advect(u,
    # theta) (1), the force (2) and its projection (2; the gradient part
    # goes through work arrays of the grid).  The stage sums and the final
    # projection act on the stack and build none.  Then the returned
    # state's fields over the new stack (3): 4 * 8 + 3
    assert built(bq.direct_step, _tg(), DT) == 35
    one = built(bq.run_direct, _tg(), DT, DT, 1.5)
    two = built(bq.run_direct, _tg(), 2 * DT, DT, 1.5)
    # run_direct holds its stack, so a later step reads the fields of the
    # state it returned last: a direct_step less the 3 fields of its input
    sample = two - one - (built(bq.direct_step, _tg(), DT) - 3)
    # divergence (1); grad_linf_norm transforms its derivatives from a work
    # array and the three Hoelder profiles their blocks, without building
    # a field
    assert sample == 1
    # each of the 4 stages: -advect(v, f) (2); three shifted stage inputs
    # and the combination (1 each)
    step = built(transport.solve, _transport_problem(2 * DT)) - built(
        transport.solve, _transport_problem(DT)
    )
    assert step == 4 * 2 + 3 + 1 == 12


def _transport_problem(T):
    grid = _grid()
    f0 = bq.synthesize_holder_field(grid, 1.5, 1.0, 3)
    v = bq.synthesize_divfree_velocity(grid, 1.5, 1.0, 4)
    return transport.TransportProblem(f0, v, T=T, dt=DT)


def test_constant_velocity_transport_step(count):
    one = count(transport.solve, _transport_problem(DT))
    two = count(transport.solve, _transport_problem(2 * DT))
    assert two - one == 12
    # the first step also checks the velocity for divergence once (5) and
    # reads its values (2)
    assert one == 12 + 5 + 2


def _iterate_data():
    grid = _grid()
    theta0 = bq.synthesize_holder_field(grid, 1.5, 0.05, 1)
    u0 = bq.synthesize_divfree_velocity(grid, 1.5, 0.05, 2)
    return theta0, u0, 1.5, 3, 0.006, 2e-3, 1e-30


def test_iterate_scheme_run(count, calls):
    # two linearised iterates over 3 steps, plus the Cauchy gap norms
    assert count(bq.iterate_scheme, *_iterate_data()) == 376
    # the same fields in fewer calls: validation, divergence check (5) and
    # dealias check (1); each of the 4 stages of the 3 steps of both
    # iterates, and the slope at each final node, advects the (theta, u1,
    # u2) stack in 3 calls; the advecting velocity's values (2 calls) are
    # read at the one node of iterate 1, and at the first node, the 3
    # midpoints and the 3 later nodes of iterate 2; the Cauchy gap at each
    # of the 4 nodes of both iterates takes one call per block
    stages = 2 * (4 * 3 + 1) * 3
    velocity = 2 + 2 * (1 + 3 + 3)
    gaps = 2 * 4 * (_q_max() + 2)
    assert calls(bq.iterate_scheme, *_iterate_data()) == 6 + stages + velocity + gaps == 140


def test_holder_norms_share_one_block_profile(count):
    f = bq.synthesize_holder_field(_grid(), 1.5, 1.0, 3) * 0.5  # a fresh field
    assert count(holder_norm, f, 1.5) == _q_max() + 2  # one inverse transform per block
    assert count(holder_norm, f, 2.5) == 0


def test_divergence_check_paid_once_per_velocity(count):
    v = bq.synthesize_divfree_velocity(_grid(), 1.5, 1.0, 4) * 0.5  # a fresh field

    def check_twice():
        assert is_divergence_free(v) and is_divergence_free(v)

    # divergence_residual (1) + grad_linf_norm (4), for both calls together
    assert count(check_twice) == 5


def test_static_verify_run(count, monkeypatch):
    monkeypatch.setattr(harness, "_RUN_CACHE", {})
    corpus = harness.CorpusSpec(seeds=(0,), resolutions=(N,))
    q_max = _q_max()
    # a synthesized field: two transforms per populated block, then its
    # Hoelder norm; a velocity adds the Hoelder norms of both components
    holder = 2 * (q_max - 1) + (q_max + 2)
    velocity = holder + 2 * (q_max + 2)
    # per exponent: synthesize f, g, v, w; one block profile of f, which
    # besov_norm and holder_norm share; the 4 negative homogeneous blocks
    per_r = 2 * holder + 2 * velocity + (q_max + 2) + 4
    assert count(harness.verify, "lemma2.2.3", corpus) == 5 * per_r == 325


def test_commutator_verify_run(count, monkeypatch):
    monkeypatch.setattr(harness, "_RUN_CACHE", {})
    corpus = harness.CorpusSpec(seeds=(0,), resolutions=(N,))
    q_max = _q_max()
    # the four synthesized fields of each exponent, as in test_static_verify_run
    holder = 2 * (q_max - 1) + (q_max + 2)
    synthesis = 2 * holder + 2 * (holder + 2 * (q_max + 2))
    # per exponent, once: the block profile of f, the divergence check of v
    # (divergence_residual 1 + grad_linf_norm 4), the values of v (2) and
    # v.grad f (3), which the commutators of all blocks share; per block:
    # v.grad(D_q f) (3) and the sup of the commutator (1)
    per_r = synthesis + (q_max + 2) + 5 + 2 + 3 + 4 * (q_max + 2)
    assert count(harness.verify, "lemma2.1", corpus) == 5 * per_r == 455
