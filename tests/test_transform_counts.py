"""Transform counts of the solver paths, pinned exactly.

Every transform in the program goes through ``spectral._rfft2`` or
``spectral._irfft2``, which make exactly one call of ``np.fft.rfft2`` or
``np.fft.irfft`` per transform (``_irfft2`` first runs an ``np.fft.ifft``
down the columns, not counted), so counting those two calls counts all the
work that dominates a step.
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
block sups and the velocity norms are cached per field, so a field whose
values or norms were already read would give a smaller count.

A Hoelder norm transforms only the blocks whose l1 coefficient bound can
still set the norm (``littlewood_paley._holder_rows``), so its count
depends on the data; the pins below say which blocks each norm takes.
"""

import math

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import harness, transport
from boussinesq_lp.littlewood_paley import besov_norm, build_partition, holder_norm
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


TRANSFORMS = ("rfft2", "irfft")


def _fields(a, *args) -> int:
    """The fields one transform call covers: the product of the leading
    axes of its input, 1 for a single (n, n) or (n, n//2 + 1) field."""
    return math.prod(np.shape(a)[:-2])


@pytest.fixture
def count(monkeypatch):
    """count(fn, *args) -> number of fields the rfft2/irfft calls of
    fn(*args) transform."""
    return _counter(monkeypatch, np.fft, TRANSFORMS, _fields)


@pytest.fixture
def calls(monkeypatch):
    """calls(fn, *args) -> number of rfft2/irfft calls made by fn(*args)."""
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
    assert count(bq._direct_step, _tg(), DT, DT, True) == 32


def test_run_direct_monitor_sample(count):
    # one step of run_direct = one _direct_step + one monitor sample
    one = count(bq.run_direct, _tg(), DT, DT, 1.5)
    two = count(bq.run_direct, _tg(), 2 * DT, DT, 1.5)
    step = count(bq._direct_step, _tg(), DT, DT, True)
    sample = two - one - step
    # grad_linf_norm (4) + divergence_residual (1) + three Hoelder norms of
    # one block each (was 3 * (q_max + 2) = 15): Taylor-Green theta lives
    # in block -1 (|k| = 1) and u in block 0 (|k| = sqrt 2), and the bound
    # of every other block is 0 or, after a step, too small to set the norm
    assert sample == 5 + 3 == 8
    # T = 0: validation (divergence-free check) plus the initial sample,
    # which reads the two velocity norms the check cached on u0
    assert count(bq.run_direct, _tg(), 0.0, DT, 1.5) == 5 + 3


def test_taylor_green_monitor_sample_at_128(count):
    # the benchmark's size: the same 5 + 3 fields, where transforming every
    # block took 5 + 3 * (q_max + 2) = 23 (q_max = 4)
    state = bq.taylor_green_data(make_grid(128), 1.0, 0.05)
    assert count(bq._monitor_sample, state, 1.5) == 8


def test_field_results_per_step_and_sample(built):
    # the first stage reads y through its fields: the velocity fields the
    # CFL check builds and caches the values on (2), the theta field (1)
    # and advect(u, theta) (1).  Each of the 4 stages builds the force (2)
    # and its projection (2; the gradient part goes through work arrays of
    # the grid).  A stage input builds no field: its velocity values, the
    # advection of its theta row and the flux products go through work
    # arrays (each later stage built 8 when it read the fields of its input
    # and called advect).  The stage sums and the final projection act on
    # the coefficients and build none: 2 + 2 + 4 * 4 (was 32)
    assert built(bq._direct_step, _tg(), DT, DT, True) == 20
    one = built(bq.run_direct, _tg(), DT, DT, 1.5)
    two = built(bq.run_direct, _tg(), 2 * DT, DT, 1.5)
    # run_direct holds its state, whose 3 fields the monitor builds and the
    # first stage of the next step reads: a held step
    sample = two - one - built(bq._direct_step, _tg(), DT, DT, True)
    # divergence (1); grad_linf_norm transforms its derivatives from a work
    # array and the three Hoelder profiles their blocks, without building
    # a field
    assert sample == 1
    # each of the 4 stages: advect(v, f), negated in place (1, was 2 with
    # its negation as a second field); three shifted stage inputs and the
    # combination (1 each)
    step = built(transport.solve, _transport_problem(2 * DT)) - built(
        transport.solve, _transport_problem(DT)
    )
    assert step == 4 + 3 + 1 == 8


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
    return bq.BoussinesqState.of(theta0, u0), 1.5, 3, 0.006, 2e-3, 1e-30


def test_iterate_scheme_run(count, calls):
    # two linearised iterates over 3 steps, plus the Cauchy gap norms: 7
    # gaps of one block over 3 rows each, where transforming every block
    # took 2 * 4 * (q_max + 2) * 3 = 120 fields (378 in all)
    assert count(bq.iterate_scheme, *_iterate_data()) == 378 - 120 + 7 * 3 == 279
    # the same fields in fewer calls: validation, divergence check (5) and
    # dealias check of theta, u1 and u2 (1 call over 3 fields); each of
    # the 4 stages of the 3 steps of both iterates, and the slope at each
    # final node, advects the (theta, u1, u2) stack in 3 calls; the
    # advecting velocity's values (2 calls) are read at the one node of
    # iterate 1, and at the first node, the 3 midpoints and the 3 later
    # nodes of iterate 2; the Cauchy gap at each of the 4 nodes of both
    # iterates transforms one block, q = 2, the one with the largest bound
    # (the bounds of the others cannot reach its sup), except at the first
    # node of iterate 2: the data has no modes above block 1, so iterate 2
    # starts from the coefficients of iterate 1 bit for bit (low-pass levels
    # 4 and 3), and a zero difference has every bound 0 and takes none
    stages = 2 * (4 * 3 + 1) * 3
    velocity = 2 + 2 * (1 + 3 + 3)
    gaps = 2 * 4 - 1
    assert calls(bq.iterate_scheme, *_iterate_data()) == 6 + stages + velocity + gaps == 107


def test_holder_norms_share_one_block_profile(count):
    f = bq.synthesize_holder_field(_grid(), 1.5, 1.0, 3) * 0.5  # a fresh field
    # its populated blocks q = 0, 1 (synthesized with equal weighted sups
    # at r = 1.5): one inverse transform each; the bounds of the other
    # q_max blocks cannot reach their terms
    assert count(holder_norm, f, 1.5) == 2
    assert count(holder_norm, f, 2.5) == 0  # the cached sups at another r
    # the full profile fills the q_max + 2 - 2 blocks still missing
    assert count(besov_norm, f, 1.0, np.inf, 1.0) == _q_max()
    assert count(holder_norm, f, 1.1) == 0


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
    # once for all five exponents, the draw of f, g, v and w: two transforms
    # (the noise and the peak of its block) per populated block q = 0..q_max
    # - 2 of each; it was paid once per exponent, 5 * 16 = 80 of 173
    draw = 4 * 2 * (q_max - 1)
    # per exponent, the rest of the synthesis, 8 Hoelder norms (one of f and
    # of g, and per velocity one of its stream function and one of each
    # component), each transforming the top populated block q = 1; the
    # block profile of f (the rescaled field, a fresh one), which besov_norm
    # fills and holder_norm reads; the 4 negative homogeneous blocks.
    # Transforming every block took 5 * 65 = 325.
    per_r = 8 + (q_max + 2) + 4
    # the norms whose block q = 0 can still set the value, at r = 1.1, 1.5,
    # 2.0, 2.5 and 3.0
    also_q0 = 5 + 1 + 1 + 1 + 0
    assert count(harness.verify, "lemma2.2.3", corpus) == draw + 5 * per_r + also_q0 == 109


def test_commutator_verify_run(count, monkeypatch):
    monkeypatch.setattr(harness, "_RUN_CACHE", {})
    corpus = harness.CorpusSpec(seeds=(0,), resolutions=(N,))
    q_max = _q_max()
    # the four synthesized fields, as in test_static_verify_run: one draw for
    # all five exponents (it was one per exponent, 5 * 16 = 80 of 284) and
    # 8 Hoelder norms per exponent
    draw = 4 * 2 * (q_max - 1)
    synthesis = 8
    # per exponent, once: the Hoelder norm of f (its block q = 1), the
    # divergence check of v (divergence_residual 1 + grad_linf_norm 4), the
    # values of v (2) and v.grad f (3), which the commutators of all blocks
    # share; per block: v.grad(D_q f) (3) and the sup of the commutator (1).
    # Transforming every block took 5 * 91 = 455.
    per_r = synthesis + 1 + 5 + 2 + 3 + 4 * (q_max + 2)
    # block q = 0 as well: in 5, 1, 1, 1, 0 of the synthesis norms and 1, 0,
    # 0, 0, 0 norms of f, at r = 1.1, 1.5, 2.0, 2.5 and 3.0
    also_q0 = (5 + 1 + 1 + 1 + 0) + 1
    assert count(harness.verify, "lemma2.1", corpus) == draw + 5 * per_r + also_q0 == 220
