"""Shared test utilities."""

import numpy as np

from boussinesq_lp.spectral import SpectralField, VectorField, linf_norm


def rel_linf(a: SpectralField, b: SpectralField) -> float:
    """Relative sup-distance between two fields."""
    scale = max(linf_norm(a), linf_norm(b), 1e-300)
    return linf_norm(a - b) / scale


def rel_linf_values(values: np.ndarray, reference: np.ndarray) -> float:
    scale = max(np.max(np.abs(reference)), 1e-300)
    return float(np.max(np.abs(values - reference)) / scale)


def vec_linf(w: VectorField) -> float:
    return max(linf_norm(w.u1), linf_norm(w.u2))


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
