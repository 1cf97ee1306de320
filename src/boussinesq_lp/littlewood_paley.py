"""Dyadic frequency decomposition, Besov/Hoelder norms, paraproducts.

The decomposition is built from one smooth radial profile chi with
chi = 1 on |xi| <= 1 and chi = 0 on |xi| >= 4/3, via the classical
exp(-1/(1-t^2))-type mollified step.  The annulus multipliers are
phi(xi) = chi(xi/2) - chi(xi), supported in 1 <= |xi| <= 8/3, so the
telescoping identities

    chi(xi) + sum_{q=0}^{Q} phi(2^-q xi) = chi(2^-(Q+1) xi)

hold exactly and all support-separation and frame-bound properties
follow by construction.

On the discrete torus the top block q_max absorbs the remaining high
frequency tail (its multiplier is 1 - chi(2^-q_max xi) instead of
phi(2^-q_max xi)), which makes the partition of unity exact at *every*
grid frequency, including the corner modes beyond the last full
annulus.  Blocks q < q_max are genuine annulus multipliers.

Homogeneous norms use additional negative-q annulus blocks down to
q_min = -floor(log2(L)) - 2, a torus truncation of the whole-space
definition (below q_min there is no nonzero grid frequency left).  The
Hoelder norm C^r is the inhomogeneous B^r_{inf,inf} norm and needs none
of them: ``holder_norm`` returns it as a float, and only ``besov_norm``
builds a :class:`BesovReport`, whose negative blocks are computed on the
first read of ``homogeneous_blocks`` or ``homogeneous_value``.

Every operator here (blocks, low-pass, norms, paraproducts, commutator)
uses the partition of its field's own grid, ``build_partition(f.grid)``;
a grid has exactly one partition, so none of them takes one as an argument.

Every block norm ||D_q f||_p (inhomogeneous, homogeneous, any p) comes
from one private kernel, ``_block_norms``: one inverse transform per
block multiplier over every row of a field or of the (theta, u1, u2)
coefficients of a ``BoussinesqState``, and no field built.  Finite p is
scaled by the block sup (no p-th power under- or overflows) and computed
afresh on every call.  The block sups do not depend on the smoothness
index: each field, and each state whose gaps ``boussinesq`` takes, caches
them (next to the values cache of ``spectral``), each block transformed
at most once, over every row.
``besov_norm`` at p = inf fills the blocks still missing; the Hoelder
norms (``_holder_rows``) only those whose l1 bound B_q >= ||D_q f||_inf
can still set the norm, for the full profile's value bit for bit.  Each
:class:`BesovReport` gets its own ``block_norms`` list, so a caller that
edits a report cannot reach the cache.  Likewise ``commutator`` caches
advect(v, f) on f for the last velocity v it saw (by identity), so the
commutators of all blocks of one (v, f) pair advect f once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    _irfft2,
    advect,
    dealias,
    is_divergence_free,
)

__all__ = [
    "DyadicPartition",
    "BesovReport",
    "build_partition",
    "block",
    "low_pass",
    "holder_norm",
    "besov_norm",
    "holder_norm_vector",
    "bony_decompose",
    "commutator",
    "compute_a0",
]

OUTER_RADIUS = 8.0 / 3.0


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(1.0 - t > 0.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def chi_profile(s: np.ndarray) -> np.ndarray:
    """Radial low-pass bump: 1 on |xi| <= 1, 0 on |xi| >= 4/3."""
    s = np.asarray(s, dtype=float)
    return _smooth_step((4.0 / 3.0 - s) * 3.0)


def phi_profile(s: np.ndarray) -> np.ndarray:
    """Radial annulus bump chi(s/2) - chi(s), supported in 1 <= s <= 8/3."""
    return chi_profile(np.asarray(s, dtype=float) / 2.0) - chi_profile(s)


class DyadicPartition:
    """Sampled dyadic multipliers on a grid's frequency lattice.

    Attributes:
        grid: the host grid.
        q_max: largest dyadic block, ``top_block(n, L)``: the largest q
            with 2^q * 8/3 <= (2/3) * k_max so every full annulus sits
            inside the dealiased band.
        blocks: read-only (q_max + 2, n, n//2 + 1) array whose rows are the
            multipliers (all >= 0) of the blocks q = -1..q_max, in order.
        chi_hat: samples of chi(xi)  (block q = -1), its first row.
        phi_hat: list of its other rows, samples of phi(2^-q xi) for
            q = 0..q_max, the last entry being the high-frequency tail block.
    """

    def __init__(self, grid: Grid):
        self.grid = grid

        q_max = int(top_block(grid.n, grid.length))
        if q_max < 1:
            raise ValueError(
                f"grid too coarse for a dyadic partition (needs blocks -1..1): {grid!r}"
            )
        self.q_max = q_max

        s = grid.abs_k
        self.blocks = np.empty((q_max + 2, *s.shape))
        self.blocks[0], self.blocks[-1] = chi_profile(s), 1.0 - chi_profile(s / 2.0**q_max)
        for q in range(q_max):
            self.blocks[q + 1] = phi_profile(s / 2.0**q)
        self.blocks.setflags(write=False)
        self.chi_hat, *self.phi_hat = self.blocks

        # S_q multipliers for q = 0..q_max+1 (partial sums of the blocks)
        self._lowpass = [self.chi_hat.copy()]
        for q in range(q_max + 1):
            self._lowpass.append(self._lowpass[-1] + self.phi_hat[q])
        self._neg_phi: dict[int, np.ndarray] = {}

    @property
    def q_min_homogeneous(self) -> int:
        return -int(math.floor(math.log2(self.grid.length))) - 2

    def multiplier(self, q: int) -> np.ndarray:
        """Inhomogeneous block multiplier, q in [-1, q_max]."""
        if -1 <= q <= self.q_max:
            return self.blocks[q + 1]
        raise ValueError(f"block index q={q} outside [-1, {self.q_max}]")

    def homogeneous_multiplier(self, q: int) -> np.ndarray:
        """Annulus multiplier phi(2^-q xi) for any q in [q_min, q_max]."""
        if q >= 0:
            return self.multiplier(q)
        if q < self.q_min_homogeneous:
            raise ValueError(f"homogeneous block q={q} below q_min={self.q_min_homogeneous}")
        if q not in self._neg_phi:
            self._neg_phi[q] = phi_profile(self.grid.abs_k / 2.0**q)
        return self._neg_phi[q]

    def lowpass_multiplier(self, q: int) -> np.ndarray:
        """S_q multiplier (sum of blocks p <= q-1); q in [-1, q_max+1]."""
        if q <= -1:
            return np.zeros_like(self.chi_hat)
        if q > self.q_max + 1:
            raise ValueError(f"low-pass index q={q} outside [-1, {self.q_max + 1}]")
        return self._lowpass[q]

    def partition_sum(self) -> np.ndarray:
        return self._lowpass[-1]

    def frame_sum(self) -> np.ndarray:
        return sum(m**2 for m in self.blocks)


def top_block(n: int, length: float) -> float:
    """The q_max of the partition of an n-point grid of side ``length``,
    computed without building the grid; a float, inf when k_max overflows."""
    k_max = (2.0 * np.pi / length) * (n / 2)  # the largest axis wavenumber
    return float(np.floor(math.log2((2.0 / 3.0) * k_max / OUTER_RADIUS)))


@lru_cache(maxsize=None)
def build_partition(grid: Grid) -> DyadicPartition:
    """Build (or fetch the cached) dyadic partition for a grid."""
    return DyadicPartition(grid)


def block(q: int, f: SpectralField) -> SpectralField:
    """Dyadic block: apply the annulus multiplier of index q."""
    return f.multiplied(build_partition(f.grid).multiplier(q))


def low_pass(q: int, f: SpectralField) -> SpectralField:
    """Cumulative low-pass: sum of blocks p <= q-1."""
    return f.multiplied(build_partition(f.grid).lowpass_multiplier(q))


@dataclass
class BesovReport:
    """Per-block norms and the assembled (in)homogeneous Besov norm.

    The homogeneous blocks q_min..-1 are computed from ``source`` on the
    first read of ``homogeneous_blocks`` or ``homogeneous_value`` and
    cached on the report.
    """

    s: float
    p: float
    q_index: float
    block_norms: list[tuple[int, float]]
    value: float
    source: SpectralField = field(repr=False, compare=False)

    @cached_property
    def homogeneous_blocks(self) -> list[tuple[int, float]]:
        part = build_partition(self.source.grid)
        qs = range(part.q_min_homogeneous, 0)
        norms = _block_norms(self.source, [part.homogeneous_multiplier(q) for q in qs], self.p)
        # blocks q >= 0 coincide in both decompositions
        return list(zip(qs, map(float, norms))) + self.block_norms[1:]

    @cached_property
    def homogeneous_value(self) -> float:
        return _assemble(self.homogeneous_blocks, self.s, self.q_index)

    def to_dict(self) -> dict:
        def num(x):
            return "inf" if np.isinf(x) else float(x)

        return {
            "s": float(self.s),
            "p": num(self.p),
            "q": num(self.q_index),
            "blocks": [{"q": int(q), "norm": float(v)} for q, v in self.block_norms],
            "value": float(self.value),
            "homogeneous_value": float(self.homogeneous_value),
        }


def _assemble(entries: list[tuple[int, float]], s: float, q_index: float) -> float:
    """The l^q_index norm of the 2^{qs} v over the (q, v) entries; a term
    that overflows a float raises an ``OverflowError`` naming s and q."""
    terms = []
    for q, v in entries:
        try:
            term = 2.0 ** (q * s) * v
            terms.append(term if np.isinf(q_index) else term**q_index)
        except OverflowError:
            raise OverflowError(f"the weighted norm of block q={q} overflows a float at s={s:g}") from None
    if np.isinf(q_index):
        return max(terms, default=0.0)
    return float(sum(terms) ** (1.0 / q_index))


def _block_norms(f, multipliers, p: float) -> np.ndarray:
    """||m f||_p for each multiplier m (axis 0) and every row of f, a field
    or a ``BoussinesqState`` (the other axes): one inverse transform per
    multiplier over every row, through work arrays of the grid, no field built.
    p = inf takes the sup M of each row, finite p the quadrature
    M (sum (|f|/M)^p (L/n)^2)^(1/p) (M itself when M is 0, inf or NaN)."""
    g, coeffs = f.grid, f.coeffs
    multiplied = g.work("block_norms", coeffs.shape)
    values = g.work("block_norms.values", (*coeffs.shape[:-2], g.n, g.n), float)
    rows = values.reshape(-1, g.n, g.n)
    norms = np.empty((len(multipliers), len(rows)))
    cell = (g.length / g.n) ** 2
    for i, m in enumerate(multipliers):
        np.abs(_irfft2(np.multiply(coeffs, m, out=multiplied), g, values), out=values)
        norms[i] = np.max(rows, axis=(-2, -1))
        if not np.isinf(p):  # scaled by M, so no p-th power under- or overflows
            norms[i] = [M * (np.sum((row / M) ** p) * cell) ** (1.0 / p) if 0.0 < M < np.inf else M
                        for M, row in zip(norms[i], rows)]
    return norms.reshape(len(multipliers), *coeffs.shape[:-2])


def _profile(f: SpectralField, p: float) -> list[tuple[int, float]]:
    """[(q, ||D_q f||_p)] for the inhomogeneous blocks q = -1..q_max."""
    return list(enumerate(map(float, _block_norms(f, build_partition(f.grid).blocks, p)), -1))


def _block_sups(x, blocks=()) -> tuple[np.ndarray, np.ndarray]:
    """The sup cache on a field or ``BoussinesqState`` x: its (q_max + 2, rows)
    block sups and which are filled, after transforming each block of
    ``blocks`` still missing."""
    part = build_partition(x.grid)
    cache = x.__dict__.get("_block_sups")
    if cache is None:
        shape = (len(part.blocks), math.prod(x.coeffs.shape[:-2]))
        cache = x.__dict__["_block_sups"] = (np.zeros(shape), np.zeros(shape[0], bool))
    sups, known = cache
    if missing := [i for i in blocks if not known[i]]:
        sups[missing] = _block_norms(x, [part.blocks[i] for i in missing], np.inf).reshape(len(missing), -1)
        known[missing] = True
    return cache


def _sup_bounds(x) -> np.ndarray:
    """B_q = sum_k w_k m_q(k) |c_k| >= ||D_q f||_inf for every block (axis 0)
    and row f of x, kept on x: w = 1 on the columns m2 = 0 and m2 = -n/2 (the
    inverse transform reads one value of each conjugate pair there), w = 2
    on the others, and every m_q >= 0."""
    bounds = x.__dict__.get("_sup_bounds")
    if bounds is None:
        blocks = build_partition(x.grid).blocks
        weighted = np.abs(x.coeffs, out=x.grid.work("sup_bounds", x.coeffs.shape, float))
        weighted[..., 1:-1] *= 2.0
        bounds = blocks.reshape(len(blocks), -1) @ weighted.reshape(-1, blocks[0].size).T
        x.__dict__["_sup_bounds"] = bounds
    return bounds


def _sup_profile(f: SpectralField) -> tuple[tuple[int, float], ...]:
    """``_profile(f, inf)``, from the sup cache of f, filling the blocks it lacks."""
    sups = _block_sups(f, range(build_partition(f.grid).q_max + 2))[0]
    return tuple(enumerate(map(float, sups[:, 0]), -1))


def _holder_rows(x, r: float) -> list[float]:
    """``_assemble`` at s = r, index inf, of the block sups of every row of x
    (a field or a ``BoussinesqState``): the C^r norm of each row.

    While a row's running max M (over its cached blocks, from 0) is below
    2^{qr} (B_q (1 + 1e-9) + tiny) for an uncached block with B_q > 0, the
    block with the largest such bound is transformed over every row.  An FFT
    sup exceeds B_q by at most about log2(n^2) u B_q (tiny covers subnormal
    rounding), so no block left out can set a max: each value is the same
    float as ``_assemble``'s.  Non-finite bounds (NaN or inf coefficients),
    an overflowing weight and a full cache take the full profile in q order.
    """
    sups, known = _block_sups(x)
    try:
        weights = [2.0 ** (q * r) for q in range(-1, len(known) - 1)]
        bounds = None if known.all() else _sup_bounds(x) * (1.0 + 1e-9)
    except OverflowError:  # which _assemble raises again
        bounds = None
    if bounds is None or not np.isfinite(bounds).all():
        sups = _block_sups(x, range(len(known)))[0]
        return [_assemble(list(enumerate(map(float, column), -1)), r, np.inf) for column in sups.T]
    tiny = float(np.finfo(float).tiny)
    reach = [[w * (b + tiny) if b > 0.0 else 0.0 for b in row] for w, row in zip(weights, bounds.tolist())]
    best = [0.0] * len(reach[0])
    for i in sorted(range(len(known)), key=lambda i: (not known[i], -max(reach[i]))):  # cached first
        if known[i] or any(c > m for c, m in zip(reach[i], best)):
            best = [max(m, weights[i] * v) for m, v in zip(best, _block_sups(x, [i])[0][i].tolist())]
    return best


def besov_norm(
    f: SpectralField,
    s: float,
    p: float = np.inf,
    q_index: float = np.inf,
) -> BesovReport:
    """Inhomogeneous Besov norm; the homogeneous variant is built on first read.

    For p = inf the block norms come from the sups cached on f, the blocks
    still missing filled first.
    """
    if p < 1 or q_index < 1:
        raise ValueError("integrability indices must be >= 1")
    blocks = list(_sup_profile(f)) if np.isinf(p) else _profile(f, p)
    return BesovReport(s, p, q_index, blocks, _assemble(blocks, s, q_index), f)


def holder_norm(f: SpectralField, r: float) -> float:
    """Hoelder norm C^r = B^r_{inf,inf}: the value of ``besov_norm(f, r)``,
    bit for bit, without building a report; it transforms only the blocks
    of f whose sup can still set the norm (see ``_holder_rows``)."""
    if r <= 0:
        raise ValueError(f"Hoelder exponent must be positive, got {r}")
    return _holder_rows(f, r)[0]


def holder_norm_vector(w: VectorField, r: float) -> float:
    """Componentwise maximum of the Hoelder norms."""
    return max(holder_norm(w.u1, r), holder_norm(w.u2, r))


def bony_decompose(
    u: SpectralField, v: SpectralField
) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Split the product uv into (T_u v, T_v u, R(u, v)).

    T_u v pairs low frequencies of u against blocks of v, and R collects
    the diagonal |p - q| <= 1.  The three parts sum to the dealiased
    pointwise product.
    """
    grid = u.grid
    part = build_partition(grid)
    qs = range(-1, part.q_max + 1)

    ub = {q: block(q, u).values() for q in qs}
    vb = {q: block(q, v).values() for q in qs}
    us = {q: low_pass(q, u).values() for q in qs}
    vs = {q: low_pass(q, v).values() for q in qs}

    t_uv = np.zeros((grid.n, grid.n))
    t_vu = np.zeros((grid.n, grid.n))
    rem = np.zeros((grid.n, grid.n))
    for q in qs:
        if q - 1 >= 0:
            t_uv += us[q - 1] * vb[q]
            t_vu += vs[q - 1] * ub[q]
        near = np.zeros((grid.n, grid.n))
        for j in (-1, 0, 1):
            if -1 <= q + j <= part.q_max:
                near += vb[q + j]
        rem += ub[q] * near

    mk = lambda vals: dealias(SpectralField.from_values(grid, vals))
    return mk(t_uv), mk(t_vu), mk(rem)


def commutator(v: VectorField, q: int, f: SpectralField) -> SpectralField:
    """Commutator of advection with a dyadic block: v.grad(D_q f) - D_q(v.grad f)."""
    if not is_divergence_free(v):
        raise ValueError("commutator requires a divergence-free velocity field")
    return advect(v, block(q, f)) - block(q, _advected(v, f))


def _advected(v: VectorField, f: SpectralField) -> SpectralField:
    """advect(v, f), cached on f for the last v (by identity), so the
    commutators of every block of one (v, f) pair share it."""
    cache = f.__dict__.get("_advected")
    if cache is None or cache[0] is not v:
        cache = f.__dict__["_advected"] = (v, advect(v, f))
    return cache[1]


_A0_RESOLUTION, _A0_BOX = 2048, 64.0 * np.pi  # the quadrature grid of compute_a0


@lru_cache(maxsize=None)
def compute_a0() -> float:
    """L^1 mass a0 of the low-pass kernel F^{-1} chi, by quadrature on a fine box.

    The kernel decays super-algebraically, so a box of ~200 length units
    captures the L^1 mass far beyond the 1e-6 level needed downstream.
    chi(0) = 1 forces the integral of the kernel to 1, hence a0 >= 1.

    |k| and the quadrature are those of a ``Grid`` and of the p = 1
    quadrature of ``_block_norms`` on it, operation for operation, but no ``Grid`` is built (so
    ``_irfft2`` works in fresh arrays): the cache of ``make_grid`` would keep its meshes for the
    life of the process.
    """
    n, box = _A0_RESOLUTION, _A0_BOX
    k = (2.0 * np.pi / box) * np.rint(np.fft.fftfreq(n, d=1.0 / n))  # Grid.k1_full's column
    abs_k = np.sqrt(k[:, None] ** 2 + k[: n // 2 + 1] ** 2)
    coeffs = chi_profile(abs_k).astype(complex) / box**2
    return float(np.sum(np.abs(_irfft2(coeffs))) * (box / n) ** 2)
