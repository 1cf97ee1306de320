"""The per-grid workspace: every kernel that writes its temporaries into the
work arrays of a ``Grid`` gives every output bit for bit as the expression
it replaced, no field aliases a work array, and reruns repeat exactly.

The ``_parent_*`` functions below write out the expressions the kernels
had before they used the workspace, each a fresh array per operation.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import transport
from boussinesq_lp.littlewood_paley import _block_norms, build_partition
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    _advect_rows,
    _irfft2,
    _rfft2,
    advect,
    divergence,
    divergence_residual,
    grad_inv_laplacian_div,
    grad_linf_norm,
    leray_project,
    make_grid,
)

from helpers import bits, signed_zero_coeffs

SRC = Path(__file__).resolve().parents[1] / "src" / "boussinesq_lp"
TABLES = ("ik1", "ik2", "dealias_multiplier", "leray_k1", "leray_k2", "leray_ksq")


def _parent_irfft2(g, c):
    return np.fft.irfft2(c, s=(g.n, g.n), norm="forward")


def _parent_advect_rows(g, v, coeffs):
    v1, v2 = v.values()
    fx = _parent_irfft2(g, coeffs * g.ik1)
    fy = _parent_irfft2(g, coeffs * g.ik2)
    return np.fft.rfft2(v1 * fx + v2 * fy, norm="forward") * g.dealias_multiplier


def _parent_gradient_part(g, c1, c2):
    s = (g.leray_k1 * c1 + g.leray_k2 * c2) / g.leray_ksq
    return g.leray_k1 * s, g.leray_k2 * s


def _parent_leray(g, c1, c2):
    g1, g2 = _parent_gradient_part(g, c1, c2)
    return c1 - g1, c2 - g2


def _parent_rhs(y, buoyancy):
    g = y.grid
    u1, u2 = y.u.values()
    dtheta = -_parent_advect_rows(g, y.u, y.coeffs[0])
    f11, f12, f22 = (np.fft.rfft2(p, norm="forward") for p in (u1 * u1, u1 * u2, u2 * u2))
    m1 = (f11 * g.ik1 + f12 * g.ik2) * g.dealias_multiplier
    m2 = (f12 * g.ik1 + f22 * g.ik2) * g.dealias_multiplier
    force = _parent_leray(g, -m1, y.coeffs[0] - m2 if buoyancy else -m2)
    return np.stack((dtheta, *force))


def _parent_rk4(y, rhs, t, h):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + (h / 2) * k1)
    k3 = rhs(t + h / 2, y + (h / 2) * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def _parent_grad_linf(g, c1, c2):
    d11, d12, d21, d22 = (np.abs(_parent_irfft2(g, c * k)) for c in (c1, c2) for k in (g.ik1, g.ik2))
    return float(max(np.max(d11 + d12), np.max(d21 + d22)))


def _parent_block_sups(g, coeffs):
    part = build_partition(g)
    blocks = (_parent_irfft2(g, coeffs * part.multiplier(q)) for q in range(-1, part.q_max + 1))
    return np.array([np.max(np.abs(values), axis=(-2, -1)) for values in blocks])


def _same_bits(got, want):
    assert np.array_equal(bits(got), bits(want))


def _stack(g, seed):
    return bq.BoussinesqState(g, np.stack([signed_zero_coeffs(g, seed + i) for i in range(3)]))


def _velocity(g, seed):
    return VectorField(*(SpectralField(g, signed_zero_coeffs(g, seed + i)) for i in range(2)))


@pytest.mark.parametrize("n", [16, 64, 128, 256])
class TestParentForms:
    """Each rewritten kernel against the expression it replaced, on
    coefficients with signed zeros, compared bit for bit."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_transform_seam(self, n, stacked):
        g = make_grid(n)
        coeffs, other = (_stack(g, 5 * n + i).coeffs for i in (0, 3))
        if not stacked:
            coeffs, other = coeffs[0], other[0]
        want = _parent_irfft2(g, coeffs)
        fresh = _irfft2(coeffs, g)
        _same_bits(fresh, want)
        assert not any(np.shares_memory(fresh, buf) for buf in g._work.values())
        _same_bits(_irfft2(coeffs), want)  # no grid: fresh arrays throughout
        slot = g.work("test.values", want.shape, float)
        assert _irfft2(coeffs, g, slot) is slot
        _same_bits(slot, want)
        values = _parent_irfft2(g, other)
        forward = np.fft.rfft2(values, norm="forward")
        _same_bits(_rfft2(values), forward)
        slot = g.work("test.coeffs", coeffs.shape)
        assert _rfft2(values, slot) is slot
        _same_bits(slot, forward)

    def test_advect_rows(self, n):
        g = make_grid(n)
        v = _velocity(g, 10 * n)
        one = signed_zero_coeffs(g, 10 * n + 2)
        rows = _stack(g, 10 * n + 3).coeffs
        _same_bits(_advect_rows(g, v, one), _parent_advect_rows(g, v, one))
        _same_bits(_advect_rows(g, v, rows), _parent_advect_rows(g, v, rows))
        # the one-field kernel again, after the stack used other work arrays
        _same_bits(advect(v, SpectralField(g, one)).coeffs, _parent_advect_rows(g, v, one))

    def test_rk4_on_a_field(self, n):
        g = make_grid(n)
        v = _velocity(g, 20 * n)
        f = SpectralField(g, signed_zero_coeffs(g, 20 * n + 2))
        rhs = lambda _t, x, _out=None: -advect(v, x)
        got, k1 = transport.rk4(f, rhs, 0.1, 2e-3)
        want, want_k1 = _parent_rk4(f, rhs, 0.1, 2e-3)
        assert type(got) is SpectralField and got.grid is g
        _same_bits(got.coeffs, want.coeffs)
        _same_bits(k1.coeffs, want_k1.coeffs)

    @pytest.mark.parametrize("buoyancy", [True, False])
    def test_rk4_on_a_stack_and_rhs(self, n, buoyancy):
        g = make_grid(n)
        y = _stack(g, 30 * n)
        _same_bits(bq._rhs(y, buoyancy).coeffs, _parent_rhs(y, buoyancy))
        rhs = lambda _t, s, out: bq._rhs(s, buoyancy, out)
        got, k1 = transport.rk4(y, rhs, 0.0, 1e-3)
        want, want_k1 = _parent_rk4(y, lambda _t, s: bq.BoussinesqState(g, _parent_rhs(s, buoyancy)), 0.0, 1e-3)
        assert type(got) is bq.BoussinesqState
        _same_bits(got.coeffs, want.coeffs)
        _same_bits(k1.coeffs, want_k1.coeffs)

    def test_leray_arithmetic(self, n):
        g = make_grid(n)
        c1, c2 = (signed_zero_coeffs(g, 40 * n + i) for i in range(2))
        w = VectorField(SpectralField(g, c1), SpectralField(g, c2))
        projected = leray_project(w)
        for got, want in zip((projected.u1, projected.u2), _parent_leray(g, c1, c2)):
            _same_bits(got.coeffs, want)
        grad = grad_inv_laplacian_div(w)
        for got, want in zip((grad.u1, grad.u2), _parent_gradient_part(g, c1, c2)):
            _same_bits(got.coeffs, want)
        y = _stack(g, 40 * n + 2)
        want = y.coeffs.copy()
        want[1:] = _parent_leray(g, want[1], want[2])
        _same_bits(bq._project_rows(y).coeffs, want)

    def test_linear_rhs(self, n):
        g = make_grid(n)
        y = _stack(g, 50 * n)
        v = _velocity(g, 50 * n + 3)
        source = signed_zero_coeffs(g, 50 * n + 5)
        advected = _parent_advect_rows(g, v, y.coeffs)
        want = -advected
        want[2] = source - advected[2]
        want[1:] = _parent_leray(g, want[1], want[2])
        _same_bits(bq._linear_rhs(y, v, source).coeffs, want)

    def test_monitor_norms(self, n):
        g = make_grid(n)
        c1, c2 = (signed_zero_coeffs(g, 60 * n + i) for i in range(2))
        w = VectorField(SpectralField(g, c1), SpectralField(g, c2))
        _same_bits(grad_linf_norm(w), _parent_grad_linf(g, c1, c2))
        div = _parent_irfft2(g, c1 * g.ik1 + c2 * g.ik2)
        _same_bits(divergence_residual(w), float(np.max(np.abs(div))))

    def test_block_sups(self, n):
        g = make_grid(n)
        part = build_partition(g)
        for f in (SpectralField(g, signed_zero_coeffs(g, 70 * n)), _stack(g, 70 * n + 1)):
            got = _block_norms(f, part.blocks, np.inf)
            want = _parent_block_sups(g, f.coeffs)
            assert got.shape == want.shape == (part.q_max + 2, *f.coeffs.shape[:-2])
            _same_bits(got, want)


def test_work_arrays_are_keyed_by_slot_shape_and_dtype():
    g = make_grid(16)
    a = g.work("test.a", (2, 16, 9))
    assert a.dtype == complex and a.shape == (2, 16, 9)
    assert g.work("test.a", (2, 16, 9)) is a
    others = [g.work("test.b", (2, 16, 9)), g.work("test.a", (16, 9)), g.work("test.a", (2, 16, 9), float)]
    assert all(b is not a and not np.shares_memory(a, b) for b in others)


def _fields(result):
    """Every SpectralField a run returns (or holds in its returned state)."""
    if isinstance(result, SpectralField):
        yield result
    elif isinstance(result, VectorField):
        yield result.u1
        yield result.u2
    elif isinstance(result, bq.BoussinesqState):
        yield from _fields(result.theta)
        yield from _fields(result.u)
    elif isinstance(result, transport.TransportTrajectory):
        for f in result.fields:
            yield f
    elif isinstance(result, bq.IterationRecord):
        yield from _fields(result.state)
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from _fields(item)


def _snapshot(result) -> bytes:
    """The bytes of a run's result: its fields' coefficients and every float."""
    if isinstance(result, SpectralField):
        return result.coeffs.tobytes()
    if isinstance(result, bq.BoussinesqState):
        return result.coeffs.tobytes() + _snapshot(result.t)
    if isinstance(result, (list, tuple)):
        return b"".join(_snapshot(item) for item in result)
    if isinstance(result, (int, float)):
        return np.float64(result).tobytes()
    if result is None:
        return b"none"
    fields = vars(result)  # a dataclass: MonitorRecord, ProbeCurve, IterationRecord, ...
    return b"".join(_snapshot(fields[k]) for k in sorted(fields))


def _state():
    g = make_grid(32)
    tg = bq.taylor_green_data(g, 1.0, 0.05)
    return bq.BoussinesqState.of(tg.theta + bq.synthesize_holder_field(g, 1.5, 0.05, 3), tg.u)


def _run_direct():
    return bq.run_direct(_state(), 4e-3, 1e-3, 1.5)


def _transport_solve():
    g = make_grid(32)
    f0 = bq.synthesize_holder_field(g, 1.5, 1.0, 3)
    v = bq.synthesize_divfree_velocity(g, 1.5, 1.0, 4)
    return transport.solve(transport.TransportProblem(f0, v, T=4e-3, dt=1e-3))


def _iterate_scheme():
    g = make_grid(32)
    theta0 = bq.synthesize_holder_field(g, 1.5, 0.05, 1)
    u0 = bq.synthesize_divfree_velocity(g, 1.5, 0.05, 2)
    return bq.iterate_scheme(bq.BoussinesqState.of(theta0, u0), 1.5, 3, 0.006, 2e-3, 1e-30)


def _uniqueness_probe():
    state = _state()
    return state, bq.uniqueness_probe(state, [1e-3, 1e-4], 3e-3, 1e-3, 1.5)


@pytest.mark.parametrize("run", [_run_direct, _transport_solve, _iterate_scheme, _uniqueness_probe])
def test_no_field_aliases_a_work_array_and_reruns_repeat(run):
    first = run()
    fields = list(_fields(first))
    assert fields
    grid = fields[0].grid
    work = list(grid._work.values())
    assert work  # the run used the workspace
    for f in fields:
        f.values()  # cache the values of every field, then look at them too
        for held in (f.coeffs, f.__dict__["_values"]):
            assert not any(np.shares_memory(held, buf) for buf in work)
    for name in TABLES:
        assert not getattr(grid, name).flags.writeable
    assert _snapshot(run()) == _snapshot(first)


@pytest.mark.parametrize("n", [16, 64])
def test_no_kernel_result_aliases_a_work_array(n):
    g = make_grid(n)
    v = _velocity(g, 80 * n)
    f = SpectralField(g, signed_zero_coeffs(g, 80 * n + 2))
    results = [
        advect(v, f),
        leray_project(v),
        grad_inv_laplacian_div(v),
        divergence(v),
        bq._rhs(_stack(g, 80 * n + 3), True),
        bq._linear_rhs(_stack(g, 80 * n + 6), v, f.coeffs),
    ]
    work = list(g._work.values())
    for result in results:
        for coeffs in [result.coeffs] if hasattr(result, "coeffs") else [w.coeffs for w in _fields(result)]:
            assert not any(np.shares_memory(coeffs, buf) for buf in work)


def _peak_above_start(call):
    """The tracemalloc peak of call() above the memory traced at its start,
    after a warm-up call has built the grid's tables and work arrays."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _held_direct_step(g):
    y = bq.taylor_green_data(g, 1.0, 0.05)  # the warm-up caches its velocity values
    return lambda: bq._direct_step(y, 1e-3, 1e-3, True)


def _linearised_step(g):
    v = bq.synthesize_divfree_velocity(g, 1.5, 1.0, 4)
    y = bq.BoussinesqState.of(bq.synthesize_holder_field(g, 1.5, 0.5, 3), v)
    rhs = lambda _t, s, out=None: bq._linear_rhs(s, v, s.coeffs[0], out)
    return lambda: bq._coupled_step(y, rhs, 1e-3, 1e-3)


def _transport_step(g):
    v = bq.synthesize_divfree_velocity(g, 1.5, 1.0, 4)
    f = bq.synthesize_holder_field(g, 1.5, 1.0, 3)

    def rhs(_t, x, _out):  # the right-hand side of transport.solve
        slope = advect(v, x)
        np.negative(slope.coeffs, out=slope.coeffs)
        return slope

    return lambda: transport.rk4(f, rhs, 0.0, 1e-3)


# The peak of one step above its start, in units of what it steps (a state
# of 3 fields, or one field), at n = 64.  k1 and the combination, the new
# state, are the two arrays a step keeps; every stage input and every slope
# after k1 lives in rk4's work arrays.  What else is live at the peak:
# - the held direct step: the two fresh rows leray_project returns in the
#   last stage, 2/3 (7.0 before the stage inputs, slopes and right-hand-side
#   temporaries moved to work arrays);
# - the linearised step: the buffer numpy allocates for a multiply that
#   broadcasts a grid table over the three rows, the stack's size at
#   n = 64 (it has fewer elements than numpy's 8192-element buffer; at
#   n = 128 the buffer is not allocated), 1 (6.0 before);
# - the transport step: the fresh slope of advect, which transport.solve's
#   right-hand side returns, made while the previous one is still bound,
#   2 (5.0 before).
# The rest is Python objects, well under 0.1 of a unit.
@pytest.mark.parametrize(
    "step,unit_fields,live",
    [(_held_direct_step, 3, 2 + 2 / 3), (_linearised_step, 3, 2 + 1), (_transport_step, 1, 2 + 2)],
    ids=["held direct step", "linearised step", "transport step"],
)
def test_a_step_allocates_only_what_it_keeps(step, unit_fields, live):
    g = make_grid(64)
    unit = unit_fields * g.n * (g.n // 2 + 1) * np.dtype(complex).itemsize
    assert _peak_above_start(step(g)) < (live + 0.1) * unit


SEAM = ("_rfft2", "_irfft2")


def _calls(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _inside(tree, names):
    """The functions of ``tree`` with the given names, and the ids of every
    node within them."""
    fns = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in names]
    return fns, {id(node) for fn in fns for node in ast.walk(fn)}


def test_one_transform_seam_and_no_object_setattr():
    # every transform goes through the seam spectral._rfft2/_irfft2: no other
    # code calls an np.fft transform (fftfreq only labels modes) or imports
    # from numpy.fft; littlewood_paley calls the seam only to transform a
    # dyadic block in _block_norms and the kernel mass in compute_a0; derived
    # values are cached through cached_property or a field's __dict__, never
    # object.__setattr__
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        seams, allowed = _inside(tree, SEAM if path.name == "spectral.py" else ())
        assert len(seams) == (2 if path.name == "spectral.py" else 0)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.fft"):
                offenders.append(f"{path.name}:{node.lineno}")
        for c in _calls(tree):
            func = ast.unparse(c.func)
            transform = func.startswith(("np.fft.", "numpy.fft.")) and not func.endswith(".fftfreq")
            if func == "object.__setattr__" or (transform and id(c) not in allowed):
                offenders.append(f"{path.name}:{c.lineno}")
    tree = ast.parse((SRC / "littlewood_paley.py").read_text())
    kernels, allowed = _inside(tree, ("_block_norms", "compute_a0"))
    for c in _calls(tree):
        name = c.func.attr if isinstance(c.func, ast.Attribute) else getattr(c.func, "id", None)
        if name in SEAM and id(c) not in allowed:
            offenders.append(f"littlewood_paley.py:{c.lineno}")
    assert len(kernels) == 2 and offenders == []
