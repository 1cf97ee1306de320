"""Shared test utilities."""

from collections import Counter

import numpy as np

from boussinesq_lp import spectral
from boussinesq_lp.spectral import SpectralField, VectorField, linf_norm


def tally(fn, *args) -> Counter:
    """What fn(*args) adds to ``spectral._TALLY``, the seam calls and fields
    of its transforms per direction (a key that did not grow reads 0)."""
    before = Counter(spectral._TALLY)
    fn(*args)
    return Counter(spectral._TALLY) - before


def rel_linf(a: SpectralField, b: SpectralField) -> float:
    """Relative sup-distance between two fields."""
    scale = max(linf_norm(a), linf_norm(b), 1e-300)
    return linf_norm(a - b) / scale


def rel_linf_values(values: np.ndarray, reference: np.ndarray) -> float:
    scale = max(np.max(np.abs(reference)), 1e-300)
    return float(np.max(np.abs(values - reference)) / scale)


def vec_linf(w: VectorField) -> float:
    return max(linf_norm(w.u1), linf_norm(w.u2))


def lp_norm(f: SpectralField, p: float) -> float:
    """L^p norm by collocation quadrature with cell weight (L/n)^2: the
    reference that the block-norm kernel of ``littlewood_paley`` is
    compared with."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if np.isinf(p):
        return linf_norm(f)
    vals = np.abs(f.values())
    cell = (f.grid.length / f.grid.n) ** 2
    return float((np.sum(vals**p) * cell) ** (1.0 / p))


def scaled_lp_norm(f: SpectralField, p: float) -> float:
    """``lp_norm`` scaled by the sup M of |f|, M (sum (|f|/M)^p (L/n)^2)^(1/p)
    (M itself when M is 0, inf or NaN), operation for operation: the
    bit-for-bit reference of the finite-p block norms of ``littlewood_paley``."""
    vals = np.abs(f.values())
    sup = np.max(vals)
    if np.isinf(p) or not 0.0 < sup < np.inf:
        return float(sup)
    cell = (f.grid.length / f.grid.n) ** 2
    return float(sup * (np.sum((vals / sup) ** p) * cell) ** (1.0 / p))


def kinetic_energy(u: VectorField) -> float:
    return 0.5 * (lp_norm(u.u1, 2) ** 2 + lp_norm(u.u2, 2) ** 2)


def buoyancy_work(theta: SpectralField, u: VectorField) -> float:
    """Integral of theta * u2 over the torus (power input of the buoyancy force)."""
    cell = (theta.grid.length / theta.grid.n) ** 2
    return float(np.sum(theta.values() * u.u2.values()) * cell)


def random_dealiased_field(grid, seed: int) -> SpectralField:
    from boussinesq_lp.spectral import dealias

    rng = np.random.default_rng(seed)
    return dealias(SpectralField.from_values(grid, rng.standard_normal((grid.n, grid.n))))


def mean_zero_smooth_field(grid, seed: int, decay: float = 2.0) -> SpectralField:
    """Random field with power-law decaying spectrum and zero mean."""
    rng = np.random.default_rng(seed)
    f = SpectralField.from_values(grid, rng.standard_normal((grid.n, grid.n)))
    weight = (1.0 + grid.abs_k) ** (-decay)
    coeffs = f.coeffs * weight * grid.dealias_mask
    coeffs[0, 0] = 0.0
    return SpectralField(grid, coeffs)


def signed_zero_coeffs(grid, seed: int) -> np.ndarray:
    """Random coefficients with about a third of the real and imaginary
    parts set to +0.0 and a third to -0.0."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, *grid.spectral_shape))
    pick = rng.integers(0, 3, size=parts.shape)
    parts[pick == 1] = 0.0
    parts[pick == 2] = -0.0
    coeffs = np.empty(grid.spectral_shape, dtype=complex)
    coeffs.real, coeffs.imag = parts
    return coeffs


def bits(a) -> np.ndarray:
    """The bit patterns of a float or complex array (or number), for
    comparisons that tell -0.0 from +0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def vorticity_rk4(grid, theta_hat, u1_hat, u2_hat, T, dt, buoyancy=True):
    """An independent discretization of the Boussinesq system: classical RK4
    on the vorticity form

        omega_t + u . grad omega = d1 theta,   theta_t + u . grad theta = 0,
        u = grad-perp inv-Laplacian omega,

    pseudo-spectral on the half spectrum with the same 2/3 mask, stepped on
    ``transport._step_lattice(T, dt)``.  It calls ``np.fft`` directly and
    shares no code with ``boussinesq`` but the grid's wavenumber tables.  On
    dealiased data it is the same Fourier-Galerkin system as the primitive
    form of ``run_direct`` (products of modes with |m_i| <= n/3 alias only
    outside the mask, and curl commutes with the truncation), so both give
    one trajectory up to roundoff.  Returns the final (theta, u1, u2) half
    spectra as one (3, n, n//2 + 1) array.
    """
    from boussinesq_lp.transport import _step_lattice

    n = grid.n
    ik1, ik2, mask = 1j * grid.k1, 1j * grid.k2, grid.dealias_mask
    ksq = grid.k1**2 + grid.k2**2
    inv_ksq = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0)

    def values(c):
        return np.fft.irfft2(c, s=(n, n), norm="forward")

    def velocity(omega):
        return ik2 * omega * inv_ksq, -ik1 * omega * inv_ksq

    def advect(v1, v2, c):
        product = v1 * values(ik1 * c) + v2 * values(ik2 * c)
        return np.fft.rfft2(product, norm="forward") * mask

    def rhs(y):
        omega, theta = y
        v1, v2 = (values(c) for c in velocity(omega))
        d_omega = -advect(v1, v2, omega)
        if buoyancy:
            d_omega += ik1 * theta
        return np.stack((d_omega, -advect(v1, v2, theta)))

    y = np.stack((ik1 * u2_hat - ik2 * u1_hat, theta_hat))
    for h, _ in _step_lattice(T, dt):
        k1 = rhs(y)
        k2 = rhs(y + (h / 2) * k1)
        k3 = rhs(y + (h / 2) * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.stack((y[1], *velocity(y[0])))
