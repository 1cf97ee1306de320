"""Field arithmetic on the periodic 2-torus.

Real scalar fields on a uniform n x n grid over [0, L)^2 are represented
by the real-to-complex half spectrum of their Fourier coefficients: an
(n, n//2 + 1) array holding the modes m2 >= 0 of the second axis.  The
modes m2 < 0 are the complex conjugates c_{-m} = conj(c_m) and are not
stored.  Along the first axis the mode labels are the ``fftfreq`` order
0..n/2-1, -n/2..-1; along the second axis they are 0..n/2-1, -n/2 (the
last column is the Nyquist column, labelled -n/2 as in the full layout).

The forward transform is normalized "unitary in mean" (numpy's
``norm="forward"``: the forward transform carries the 1/n^2, the inverse
none): a constant field c has a single nonzero coefficient equal to c,
and cos(2*pi*x/L) splits into the two modes m = +-1 with coefficient 1/2
each.  With this convention Parseval reads

    ||f||_{L^2(grid)} = L * sqrt(sum_m w_m |c_m|^2),

where the sum runs over the stored half spectrum, w_m = 2 on the interior
columns 0 < m2 < n/2 (each stands for itself and its conjugate partner)
and w_m = 1 on the columns m2 = 0 and m2 = -n/2, and the grid L^2 norm
uses the cell weight (L/n)^2.

Wavenumbers are k = 2*pi*m/L for integer mode indices m in [-n/2, n/2).
Odd-order derivative multipliers zero the Nyquist mode m = -n/2 so that
derivatives of real fields stay real; the same convention is applied to
the k (x) k / |k|^2 multipliers, whose sign at the Nyquist bin would
otherwise be ambiguous.  The zero mode of any inverse-Laplacian operator
is set to 0 (fields of interest are mean-zero).  Every multiplier is
thereby Hermitian-preserving, so restricting it to the stored half loses
nothing.

Each ``Grid`` builds its complex multiplier tables once, on first use, and
every field on the grid shares them, so they are read-only:

* ``ik1``, ``ik2``: the derivative multipliers 1j*k1, 1j*k2;
* ``dealias_multiplier``: the 2/3-rule ``dealias_mask`` as 1+0j / 0j;
* ``leray_k1``, ``leray_k2``, ``leray_ksq``: k1, k2 and the safe |k|^2
  denominator of ``grad_inv_laplacian_div`` as complex numbers.

numpy casts a float or bool operand to complex before it multiplies or
divides a complex array, so a table gives every coefficient bit for bit
as the float or bool form would (signed zeros included), without the
per-call allocation and cast.

Every transform goes through one private pair, ``_rfft2`` and
``_irfft2``, the one place that fixes the half spectrum, ``norm="forward"``
and the n x n grid.  ``_irfft2`` is numpy's own ``irfftn`` in its two
passes (``np.fft.ifft`` down the columns, then ``np.fft.irfft`` along the
rows), so it gives ``np.fft.irfft2`` bit for bit and, unlike it, honours
``out=``.  A call may cover a stack of fields along leading axes, each
row transformed bit for bit as on its own.  The pair keeps the one,
always-on transform tally ``_TALLY``: seam calls and fields (the product
of the leading axes) per direction, whose growth over a call the tests
read; the column pass of ``_irfft2`` is part of its one call.  The
linearized iterate of ``boussinesq`` advects the (theta, u1, u2) rows of
its states with ``_advect_rows``, of which ``advect`` is the one-field case.

Fields are immutable: a ``SpectralField`` never changes its coefficients
after construction, and no code writes into ``coeffs`` in place, with one
exception: the right-hand side of ``transport.solve`` negates its slope in
place, a field it has just built (``advect``'s at stage one, over ``rk4``'s
slope work array after) and nothing has read (as
``boussinesq._project_rows`` does for states).  Values
derived from a field are therefore computed on first use and kept in the
field's ``__dict__`` (by a ``functools.cached_property``, or directly in
``littlewood_paley``), so a later read is a plain attribute read:

* ``SpectralField.values()``: the grid samples (read-only array);
* ``VectorField.max_speed()``: max |v| over the grid;
* ``grad_linf_norm(w)`` and ``divergence_residual(w)``, cached on the
  ``VectorField`` (so ``is_divergence_free`` pays once per field);
* the block sups (each filled on demand), their l1 bounds and the
  advection term of the commutator in ``littlewood_paley`` (see there).

Writing into ``f.coeffs`` after one of these was read leaves the cache
stale; build a new field instead.

Each ``Grid`` also holds a small workspace: reusable work arrays, keyed
by (slot, shape, dtype) and built on first use (``Grid.work``).  The step
and norm kernels (``_advect_rows``, ``leray_project``, ``divergence``,
``grad_linf_norm``, ``littlewood_paley._block_norms``, ``transport.rk4``,
the right-hand sides of ``boussinesq`` and the Hermite reads of its
iterates) put the temporaries that no field keeps there: multiplied
coefficients before an inverse transform, pointwise products, the results
of the transforms, and ``rk4``'s stage inputs and slopes after the first.
Everything else they write with ``out=`` or in place on an array they have
just allocated.  The rules:

* each slot belongs to one kernel, which is done with its work arrays
  before it returns (it may pass them to a helper it calls, never back
  to its caller);
* no field's ``coeffs`` or cached value aliases a work array: what a
  field keeps is always a fresh array.  The one exception is ``rk4``'s
  own: the stage inputs it builds over its slots and the slopes k2..k4
  the right-hand side builds over its slope slot, which it drops before
  it returns;
* every operation, its operands and their order are those of the plain
  expression, so every result is the same bit for bit (the operands of
  an addition or of a real multiplication may swap: both are
  commutative in IEEE arithmetic).

``_irfft2`` puts its intermediate in its own slot ``irfft2`` and its result
in a slot of its kernel, but ``values()``, whose field keeps it, gets a
fresh result, and ``compute_a0``, which builds no grid, fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "make_grid",
    "derivative",
    "divergence",
    "dealias",
    "dealias_vector",
    "grad_inv_laplacian_div",
    "leray_project",
    "advect",
    "advect_vector",
    "linf_norm",
    "grad_linf_norm",
    "divergence_residual",
    "is_divergence_free",
]


def max_ksq(n: int, length: float) -> float:
    """The largest squared wavenumber |k|^2 = 2 k_max^2 of an n-point grid of
    side ``length``, computed without building the grid; inf when it overflows."""
    k_max = (2.0 * np.pi / length) * (n / 2)  # the largest axis wavenumber
    return 2.0 * k_max * k_max


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


class Grid:
    """Uniform periodic grid: n points per dimension on [0, L)^2.

    Precomputes mode indices, wavenumber meshes, the 2/3-rule dealias
    mask and the complex multiplier tables of the module docstring, all in
    the (n, n//2 + 1) half-spectrum layout.  An infinite box, or one whose
    |k|^2 overflows a float, is a ``ValueError``.  Grids compare and hash by
    (n, L); use :func:`make_grid` to get a cached instance.
    """

    def __init__(self, n: int, box_length: float):
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {n!r}")
        n = int(n)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        box_length = float(box_length)
        if not 0 < box_length < math.inf:
            raise ValueError(f"box_length must be positive and finite, got {box_length}")

        if not math.isfinite(max_ksq(n, box_length)):
            raise ValueError(
                f"grid n={n}, L={box_length:g}: its squared wavenumbers overflow a float"
            )

        self.n = n
        self.length = box_length

        m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        self.m1, self.m2 = np.meshgrid(m, m[: n // 2 + 1], indexing="ij")

        k0 = 2.0 * np.pi / box_length
        # full wavenumbers (Nyquist retained, used for |k|^2)
        self.k1_full = k0 * self.m1.astype(float)
        self.k2_full = k0 * self.m2.astype(float)
        # odd-derivative wavenumbers (Nyquist zeroed)
        nyq = n // 2
        self.k1 = np.where(self.m1 == -nyq, 0.0, self.k1_full)
        self.k2 = np.where(self.m2 == -nyq, 0.0, self.k2_full)

        self.abs_k = np.sqrt(self.k1_full**2 + self.k2_full**2)

        cutoff = n / 3.0
        self.dealias_mask = (np.abs(self.m1) <= cutoff) & (np.abs(self.m2) <= cutoff)

        x = box_length * np.arange(n) / n
        self.x1, self.x2 = np.meshgrid(x, x, indexing="ij")
        self._work: dict[tuple, np.ndarray] = {}

    def work(self, slot: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        """The reusable work array of ``slot`` with this shape and dtype,
        built (uninitialised) on first use; see the workspace rules of the
        module docstring."""
        key = (slot, shape, np.dtype(dtype))
        buf = self._work.get(key)
        if buf is None:
            buf = self._work[key] = np.empty(shape, dtype)
        return buf

    # The complex multiplier tables of the module docstring, each built on
    # first use (a grid whose fields only take norms never reads them).

    @cached_property
    def ik1(self) -> np.ndarray:
        return _frozen(1j * self.k1)

    @cached_property
    def ik2(self) -> np.ndarray:
        return _frozen(1j * self.k2)

    @cached_property
    def dealias_multiplier(self) -> np.ndarray:
        return _frozen(self.dealias_mask.astype(complex))

    @cached_property
    def leray_k1(self) -> np.ndarray:
        return _frozen(self.k1.astype(complex))

    @cached_property
    def leray_k2(self) -> np.ndarray:
        return _frozen(self.k2.astype(complex))

    @cached_property
    def leray_ksq(self) -> np.ndarray:
        # inverse-Laplacian denominators use the Nyquist-zeroed wavenumbers so
        # the k (x) k / |k|^2 operators stay exact projections on every bin;
        # bins where both odd wavenumbers vanish have a zero numerator, so
        # dividing by 1 there maps them to 0
        ksq_odd = self.k1**2 + self.k2**2
        return _frozen(np.where(ksq_odd == 0.0, 1.0, ksq_odd).astype(complex))

    @property
    def spectral_shape(self) -> tuple[int, int]:
        """Shape of a half-spectrum coefficient array, (n, n//2 + 1)."""
        return self.m1.shape

    @property
    def dx(self) -> float:
        return self.length / self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.n == other.n and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.n, self.length))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, L={self.length:g})"


@lru_cache(maxsize=None)
def make_grid(n: int, box_length: float = 2.0 * np.pi) -> Grid:
    """Build (or fetch a cached) grid with a consistent wavenumber table."""
    return Grid(n, box_length)


# The seam calls and fields transformed since start, per direction (see above)
_TALLY = {"forward calls": 0, "forward fields": 0, "inverse calls": 0, "inverse fields": 0}


def _rfft2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The half spectrum of every (n, n) field of ``values``, into ``out`` if given."""
    _TALLY["forward calls"] += 1
    _TALLY["forward fields"] += math.prod(values.shape[:-2])
    return np.fft.rfft2(values, norm="forward", out=out)


def _irfft2(coeffs: np.ndarray, grid: Grid | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The (n, n) values of every half spectrum of ``coeffs``, into ``out`` if
    given; the intermediate goes to the ``irfft2`` work array of ``grid``."""
    _TALLY["inverse calls"] += 1
    _TALLY["inverse fields"] += math.prod(coeffs.shape[:-2])
    n = coeffs.shape[-2]
    mid = None if grid is None else grid.work("irfft2", coeffs.shape)
    mid = np.fft.ifft(coeffs, n, axis=-2, norm="forward", out=mid)
    return np.fft.irfft(mid, n, axis=-1, norm="forward", out=out)


@dataclass(frozen=True)
class SpectralField:
    """Real scalar field stored as its half spectrum of Fourier coefficients."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.coeffs)
        if shape != self.grid.spectral_shape:
            raise ValueError(
                f"coefficient array shape {shape} does not match the half-spectrum "
                f"shape {self.grid.spectral_shape} of {self.grid!r}"
            )

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise ValueError(
                f"value array shape {values.shape} does not match grid {(grid.n, grid.n)}"
            )
        return cls(grid, _rfft2(values))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros(grid.spectral_shape, dtype=complex))

    def values(self) -> np.ndarray:
        """Collocation-grid samples, the (n, n) ``_irfft2`` of the half
        spectrum; cached on first call (fields are immutable), read-only."""
        return self._values

    @cached_property
    def _values(self) -> np.ndarray:
        return _frozen(_irfft2(self.coeffs, self.grid))

    def mean(self) -> float:
        return float(self.coeffs[0, 0].real)

    def multiplied(self, multiplier: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * multiplier)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coeffs)

    def _check(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


@dataclass(frozen=True)
class VectorField:
    """Two-component field (u1, u2) sharing one grid."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise ValueError("vector components live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(SpectralField.zero(grid), SpectralField.zero(grid))

    @classmethod
    def from_values(cls, grid: Grid, v1: np.ndarray, v2: np.ndarray) -> "VectorField":
        return cls(SpectralField.from_values(grid, v1), SpectralField.from_values(grid, v2))

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.u1.values(), self.u2.values()

    def max_speed(self) -> float:
        """max over the grid of |v|; cached like ``values()`` (fields are
        immutable), so a frozen velocity pays for it once."""
        return self._max_speed

    @cached_property
    def _max_speed(self) -> float:
        v1, v2 = self.values()
        return float(np.max(np.hypot(v1, v2)))

    @cached_property
    def _grad_linf_norm(self) -> float:
        g = self.grid
        d = g.work("grad_linf_norm", g.spectral_shape)
        values = g.work("grad_linf_norm.values", (2, g.n, g.n), float)

        def abs_derivative(c: np.ndarray, ik: np.ndarray, out: np.ndarray) -> np.ndarray:
            return np.abs(_irfft2(np.multiply(c, ik, out=d), g, out), out=out)

        def row_sup(c: np.ndarray) -> float:
            row = abs_derivative(c, g.ik1, values[0])
            row += abs_derivative(c, g.ik2, values[1])
            return np.max(row)

        return float(max(row_sup(self.u1.coeffs), row_sup(self.u2.coeffs)))

    @cached_property
    def _divergence_residual(self) -> float:
        return linf_norm(divergence(self))

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, scalar: float) -> "VectorField":
        return VectorField(self.u1 * scalar, self.u2 * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(-self.u1, -self.u2)


def derivative(f: SpectralField, axis: int) -> SpectralField:
    """Spectral partial derivative along axis 1 or 2 (Nyquist zeroed)."""
    if axis == 1:
        k = f.grid.ik1
    elif axis == 2:
        k = f.grid.ik2
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return f.multiplied(k)


def divergence(w: VectorField) -> SpectralField:
    g = w.grid
    div = w.u1.coeffs * g.ik1
    div += np.multiply(w.u2.coeffs, g.ik2, out=g.work("divergence", g.spectral_shape))
    return SpectralField(g, div)


def dealias(f: SpectralField) -> SpectralField:
    """Zero all modes with max(|m1|, |m2|) > n/3 (2/3 rule)."""
    return f.multiplied(f.grid.dealias_multiplier)


def dealias_vector(w: VectorField) -> VectorField:
    return VectorField(dealias(w.u1), dealias(w.u2))


def _gradient_part(
    g: Grid, c1: np.ndarray, c2: np.ndarray, out1: np.ndarray, out2: np.ndarray
) -> None:
    """The k (x) k / |k|^2 multiplier on the coefficient arrays (c1, c2) of
    grid g, written into (out1, out2), which must not be c1 or c2: the
    arithmetic of ``grad_inv_laplacian_div``, which ``leray_project`` and
    the states of ``boussinesq`` share."""
    s = np.multiply(g.leray_k1, c1, out=g.work("gradient_part", g.spectral_shape))
    s += np.multiply(g.leray_k2, c2, out=out1)
    s /= g.leray_ksq
    np.multiply(g.leray_k1, s, out=out1)
    np.multiply(g.leray_k2, s, out=out2)


def grad_inv_laplacian_div(w: VectorField) -> VectorField:
    """Gradient-part extractor: the k (x) k / |k|^2 multiplier.

    Reproduces any pure gradient exactly, annihilates divergence-free
    fields, and zeroes the mean mode.
    """
    g = w.grid
    g1, g2 = np.empty((2, *g.spectral_shape), dtype=complex)
    _gradient_part(g, w.u1.coeffs, w.u2.coeffs, g1, g2)
    return VectorField(SpectralField(g, g1), SpectralField(g, g2))


def leray_project(w: VectorField) -> VectorField:
    """Remove the gradient part; the result is divergence-free."""
    g = w.grid
    g1, g2 = g.work("leray_project", (2, *g.spectral_shape))
    _gradient_part(g, w.u1.coeffs, w.u2.coeffs, g1, g2)
    return VectorField(SpectralField(g, w.u1.coeffs - g1), SpectralField(g, w.u2.coeffs - g2))


def _advect_rows(
    g: Grid,
    v: VectorField | tuple[np.ndarray, np.ndarray],
    coeffs: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Dealiased v . grad f for every field f of a coefficient stack
    (..., n, n//2 + 1) on grid g, from the velocity v or the pair of its
    grid values: one inverse transform per derivative direction and one
    forward transform of the products, each over every row.  The two
    derivatives are transformed straight from the multiplied coefficients,
    with no intermediate field; the dealiased result goes to ``out`` if
    given, else to a fresh array.
    """
    v1, v2 = v.values() if isinstance(v, VectorField) else v
    d = g.work("advect_rows.derivative", coeffs.shape)
    fx, fy = g.work("advect_rows.values", (2, *coeffs.shape[:-2], g.n, g.n), float)
    _irfft2(np.multiply(coeffs, g.ik1, out=d), g, fx)
    _irfft2(np.multiply(coeffs, g.ik2, out=d), g, fy)
    fx *= v1
    fx += np.multiply(fy, v2, out=fy)
    product = _rfft2(fx, g.work("advect_rows.product", coeffs.shape))
    return np.multiply(product, g.dealias_multiplier, out=out)


def advect(v: VectorField, f: SpectralField) -> SpectralField:
    """Dealiased advection term v . grad f (pointwise product on the grid):
    ``_advect_rows`` of the one field f, three single-field transforms."""
    return SpectralField(f.grid, _advect_rows(f.grid, v, f.coeffs))


def advect_vector(v: VectorField, w: VectorField) -> VectorField:
    """Componentwise v . grad w."""
    return VectorField(advect(v, w.u1), advect(v, w.u2))


def linf_norm(f: SpectralField) -> float:
    return float(np.max(np.abs(f.values())))


def grad_linf_norm(w: VectorField) -> float:
    """sup-norm of the Jacobian as max over the grid of the max row sum.

    Consistent with the operator norm of v -> v . grad acting on scalars.
    Cached on ``w`` like ``max_speed()``.
    """
    return w._grad_linf_norm


def divergence_residual(w: VectorField) -> float:
    """||div w||_inf; cached on ``w`` like ``max_speed()``."""
    return w._divergence_residual


DIVFREE_RTOL = 1e-10
DIVFREE_ATOL = 1e-13


def is_divergence_free(w: VectorField) -> bool:
    """Check ||div w||_inf <= DIVFREE_RTOL * ||grad w||_inf + DIVFREE_ATOL.

    Both norms are cached on ``w``, so a repeated check is free.
    """
    return divergence_residual(w) <= DIVFREE_RTOL * grad_linf_norm(w) + DIVFREE_ATOL
