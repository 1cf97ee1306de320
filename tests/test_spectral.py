"""Grid, transform, and Fourier-multiplier contracts."""

import warnings

import numpy as np
import pytest

from boussinesq_lp.littlewood_paley import besov_norm
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    _advect_rows,
    advect,
    dealias,
    derivative,
    divergence,
    divergence_residual,
    grad_inv_laplacian_div,
    grad_linf_norm,
    is_divergence_free,
    leray_project,
    linf_norm,
    make_grid,
)

from helpers import (
    bits,
    lp_norm,
    mean_zero_smooth_field,
    rel_linf,
    rel_linf_values,
    random_dealiased_field,
    signed_zero_coeffs,
    vec_linf,
)


class TestGrid:
    def test_integer_wavenumbers_at_standard_box(self):
        g = make_grid(64, 2.0 * np.pi)
        ks = np.unique(np.rint(g.k1_full).astype(int))
        assert ks.min() == -32 and ks.max() == 31
        assert np.allclose(g.k1_full, np.rint(g.k1_full), atol=1e-12)

    def test_max_wavenumber_small_box(self):
        g = make_grid(16, 1.0)
        assert np.isclose(np.max(np.abs(g.k1_full)), 16.0 * np.pi)

    @pytest.mark.parametrize("bad_n", [17, 100, 8, 0, -64])
    def test_rejects_bad_n(self, bad_n):
        with pytest.raises(ValueError):
            make_grid(bad_n, 2.0 * np.pi)

    @pytest.mark.parametrize("bad_length", [0.0, -1.0, float("inf")])
    def test_rejects_bad_length(self, bad_length):
        # rejected before any table is built: an infinite box would warn
        # while giving NaN coordinates and all-zero wavenumbers
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive and finite"):
                make_grid(16, bad_length)

    @pytest.mark.parametrize("tiny_length", [1e-200, 1e-320])
    def test_rejects_overflowing_wavenumbers(self, tiny_length):
        with pytest.raises(ValueError, match="squared wavenumbers overflow"):
            make_grid(64, tiny_length)


class TestTransform:
    def test_constant_field_single_mode(self, grid64):
        f = SpectralField.from_values(grid64, np.full((64, 64), 3.25))
        assert np.isclose(f.coeffs[0, 0].real, 3.25, atol=1e-14)
        other = f.coeffs.copy()
        other[0, 0] = 0.0
        assert np.max(np.abs(other)) < 1e-14

    def test_cosine_splits_into_half_amplitude_modes(self, grid64):
        f = SpectralField.from_values(grid64, np.cos(grid64.x1))
        assert np.isclose(f.coeffs[1, 0], 0.5, atol=1e-13)
        assert np.isclose(f.coeffs[-1, 0], 0.5, atol=1e-13)

    def test_roundtrip(self, grid64):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((64, 64))
        back = SpectralField.from_values(grid64, values).values()
        assert np.max(np.abs(back - values)) < 1e-12 * np.max(np.abs(values))

    def test_against_direct_dft(self):
        # O(n^4) DFT oracle at n=16
        g = make_grid(16, 2.0 * np.pi)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((16, 16))
        f = SpectralField.from_values(g, values)
        n = 16
        j = np.arange(n)
        direct = np.zeros((n, n), dtype=complex)
        for m1 in range(n):
            for m2 in range(n):
                phase = np.exp(-2j * np.pi * (m1 * j[:, None] + m2 * j[None, :]) / n)
                direct[m1, m2] = np.sum(values * phase) / n**2
        # the stored half spectrum is the columns m2 = 0..n/2 of the full DFT
        assert np.max(np.abs(direct[:, : n // 2 + 1] - f.coeffs)) < 1e-10

    def test_parseval(self, grid64):
        f = mean_zero_smooth_field(grid64, 3)
        grid_l2 = lp_norm(f, 2)
        # interior columns 0 < m2 < n/2 also stand for their conjugate partners
        weight = np.ones(grid64.spectral_shape)
        weight[:, 1:-1] = 2.0
        coeff_l2 = grid64.length * np.sqrt(np.sum(weight * np.abs(f.coeffs) ** 2))
        assert abs(grid_l2 - coeff_l2) < 1e-10 * coeff_l2

    def test_shape_mismatch(self, grid64):
        with pytest.raises(ValueError):
            SpectralField.from_values(grid64, np.zeros((32, 32)))

    def test_half_spectrum_shape(self, grid64):
        assert grid64.spectral_shape == (64, 33)
        assert SpectralField.from_values(grid64, np.cos(grid64.x1)).coeffs.shape == (64, 33)
        assert SpectralField.zero(grid64).coeffs.shape == (64, 33)
        assert list(grid64.m2[0, [0, 1, 31, 32]]) == [0, 1, 31, -32]

    def test_rejects_full_layout_coeffs(self, grid64):
        with pytest.raises(ValueError, match=r"\(64, 64\).*\(64, 33\)"):
            SpectralField(grid64, np.zeros((64, 64), dtype=complex))


class TestTransformScaling:
    """norm="forward" reproduces the explicit 1/n^2 scaling bit for bit:
    scaling by a power of two is exact."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_bit_identical_to_explicit_scaling(self, n):
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n))
        f = SpectralField.from_values(grid, x)
        assert np.array_equal(f.coeffs, np.fft.rfft2(x) / n**2)
        c = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(grid.spectral_shape)
        for coeffs in (f.coeffs, c):
            values = SpectralField(grid, coeffs).values()
            assert np.array_equal(values, np.fft.irfft2(coeffs * n**2, s=(n, n)))


class TestMultiplierTables:
    """The complex tables on ``Grid`` give every coefficient bit for bit as
    the per-call multipliers did (numpy cast those to complex anyway),
    signed zeros included."""

    TABLES = ("ik1", "ik2", "dealias_multiplier", "leray_k1", "leray_k2", "leray_ksq")

    @pytest.mark.parametrize("n", [16, 64])
    def test_operators_bit_identical_to_per_call_multipliers(self, n):
        g = make_grid(n)
        a, b, c = (signed_zero_coeffs(g, 10 * n + i) for i in range(3))
        zeros = np.concatenate([a.real[a.real == 0.0], a.imag[a.imag == 0.0]])
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        f = SpectralField(g, a)
        for axis, k in ((1, g.k1), (2, g.k2)):
            assert np.array_equal(bits(derivative(f, axis).coeffs), bits(a * (1j * k)))
        assert np.array_equal(bits(dealias(f).coeffs), bits(a * g.dealias_mask))

        ksq_odd = g.k1**2 + g.k2**2
        s = (g.k1 * b + g.k2 * c) / np.where(ksq_odd == 0.0, 1.0, ksq_odd)
        grad = grad_inv_laplacian_div(VectorField(SpectralField(g, b), SpectralField(g, c)))
        assert np.array_equal(bits(grad.u1.coeffs), bits(g.k1 * s))
        assert np.array_equal(bits(grad.u2.coeffs), bits(g.k2 * s))

        v = VectorField(SpectralField(g, b), SpectralField(g, c))
        v1, v2 = v.values()
        fx, fy = derivative(f, 1).values(), derivative(f, 2).values()
        expected = dealias(SpectralField.from_values(g, v1 * fx + v2 * fy))
        assert np.array_equal(bits(advect(v, SpectralField(g, a)).coeffs), bits(expected.coeffs))

    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_advection_bit_identical_to_per_field_advect(self, n):
        # one _advect_rows call over a (3, n, m) stack gives every row bit
        # for bit as advect of that row alone, signed zeros included
        g = make_grid(n)
        rows = np.stack([signed_zero_coeffs(g, 20 * n + i) for i in range(3)])
        v = VectorField(*(SpectralField(g, signed_zero_coeffs(g, 30 * n + i)) for i in range(2)))
        stacked = _advect_rows(g, v, rows)
        assert stacked.shape == rows.shape
        for row, coeffs in zip(stacked, rows):
            assert np.array_equal(bits(row), bits(advect(v, SpectralField(g, coeffs)).coeffs))

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_are_read_only_and_shared(self, name):
        g = make_grid(32)
        table = getattr(g, name)
        assert table.dtype == complex and table.shape == g.spectral_shape
        assert getattr(make_grid(32), name) is table  # one table for every field on the grid
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


class TestHalfSpectrumLayout:
    """The half-spectrum operators against the same multipliers built on the
    full fftfreq mesh and applied through fft2/ifft2."""

    RTOL = 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_operators_match_full_layout(self, n):
        g = make_grid(n, 2.0 * np.pi)
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, n, n))
        f = SpectralField.from_values(g, a)
        w = VectorField.from_values(g, a, b)

        m = np.rint(np.fft.fftfreq(n, d=1.0 / n)).astype(int)
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        k0 = 2.0 * np.pi / g.length
        k1 = np.where(m1 == -n // 2, 0.0, k0 * m1)
        k2 = np.where(m2 == -n // 2, 0.0, k0 * m2)
        ksq = k1**2 + k2**2
        inv_ksq = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq != 0.0)
        ca, cb = np.fft.fft2(a), np.fft.fft2(b)

        def check(got, spectrum):
            assert rel_linf_values(got, np.real(np.fft.ifft2(spectrum))) < self.RTOL

        for axis, ka in ((1, k1), (2, k2)):
            check(derivative(f, axis).values(), 1j * ka * ca)

        s = (k1 * ca + k2 * cb) * inv_ksq
        out = leray_project(w)
        check(out.u1.values(), ca - k1 * s)
        check(out.u2.values(), cb - k2 * s)

        keep = (np.abs(m1) <= n / 3.0) & (np.abs(m2) <= n / 3.0)
        check(dealias(f).values(), keep * ca)


class TestDerivative:
    def test_sine(self, grid64):
        L = grid64.length
        f = SpectralField.from_values(grid64, np.sin(2 * np.pi * grid64.x1 / L))
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * grid64.x1 / L)
        assert np.max(np.abs(derivative(f, 1).values() - expected)) < 1e-12

    def test_constant(self, grid64):
        f = SpectralField.from_values(grid64, np.full((64, 64), 2.0))
        assert linf_norm(derivative(f, 1)) < 1e-14
        assert linf_norm(derivative(f, 2)) < 1e-14

    def test_single_mode_multiplier(self, grid64):
        values = np.cos(3 * grid64.x1 + 5 * grid64.x2)
        f = SpectralField.from_values(grid64, values)
        expected = -3 * np.sin(3 * grid64.x1 + 5 * grid64.x2)
        assert np.max(np.abs(derivative(f, 1).values() - expected)) < 1e-11

    def test_nyquist_zeroed(self, grid64):
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[32, 0] = 1.0  # Nyquist bin of axis 1
        f = SpectralField(grid64, coeffs)
        assert linf_norm(derivative(f, 1)) == 0.0

    def test_invalid_axis(self, grid64):
        f = SpectralField.zero(grid64)
        with pytest.raises(ValueError):
            derivative(f, 3)


class TestRieszOperators:
    def test_gradient_projection_identity(self, grid64):
        psi = mean_zero_smooth_field(grid64, 7)
        w = VectorField(derivative(psi, 1), derivative(psi, 2))
        out = grad_inv_laplacian_div(w)
        assert rel_linf(out.u1, w.u1) < 1e-12
        assert rel_linf(out.u2, w.u2) < 1e-12

    def test_annihilates_divergence_free(self, grid64):
        psi = mean_zero_smooth_field(grid64, 8)
        w = VectorField(-derivative(psi, 2), derivative(psi, 1))
        out = grad_inv_laplacian_div(w)
        assert vec_linf(out) < 1e-12 * vec_linf(w)

    def test_shear_mode_is_divergence_free(self, grid64):
        # d/dx1 of sin(2 pi x2 / L) vanishes, so div w = 0 and the output is zero
        w = VectorField(
            SpectralField.from_values(grid64, np.sin(grid64.x2)), SpectralField.zero(grid64)
        )
        assert vec_linf(grad_inv_laplacian_div(w)) < 1e-13

    def test_zero_mode_exactly_zero(self, grid64):
        f = mean_zero_smooth_field(grid64, 9) + SpectralField.from_values(grid64, np.ones((64, 64)))
        out = grad_inv_laplacian_div(VectorField(f, f))
        assert out.u1.coeffs[0, 0] == 0.0 and out.u2.coeffs[0, 0] == 0.0


class TestLeray:
    def test_fixes_divergence_free(self, grid64):
        psi = mean_zero_smooth_field(grid64, 12)
        w = VectorField(-derivative(psi, 2), derivative(psi, 1))
        out = leray_project(w)
        assert rel_linf(out.u1, w.u1) < 1e-13
        assert rel_linf(out.u2, w.u2) < 1e-13

    def test_annihilates_gradients(self, grid64):
        psi = mean_zero_smooth_field(grid64, 13)
        w = VectorField(derivative(psi, 1), derivative(psi, 2))
        assert vec_linf(leray_project(w)) < 1e-13 * vec_linf(w)

    def test_idempotent(self, grid64):
        rng = np.random.default_rng(14)
        w = VectorField.from_values(
            grid64, rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        )
        once = leray_project(w)
        twice = leray_project(once)
        assert rel_linf(once.u1, twice.u1) < 1e-13
        assert rel_linf(once.u2, twice.u2) < 1e-13

    def test_result_divergence_free(self, grid64):
        rng = np.random.default_rng(15)
        w = VectorField.from_values(
            grid64, rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        )
        out = leray_project(w)
        assert divergence_residual(out) < 1e-12 * grad_linf_norm(out)


class TestDealiasAndNorms:
    def test_dealias_keeps_band_limited(self, grid64):
        f = random_dealiased_field(grid64, 16)
        assert rel_linf(dealias(f), f) == 0.0

    def test_dealias_kills_high_modes(self, grid64):
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[30, 0] = 1.0
        coeffs[-30, 0] = 1.0
        f = SpectralField(grid64, coeffs)
        assert linf_norm(dealias(f)) == 0.0

    def test_linf_of_sine(self, grid64):
        f = SpectralField.from_values(grid64, np.sin(grid64.x1))
        assert abs(linf_norm(f) - 1.0) < 1e-3

    def test_lp_norm_of_constant(self, grid64):
        # a constant c has only the q = -1 block, whose L^p norm is c L^(2/p)
        c = 2.5
        f = SpectralField.from_values(grid64, np.full((64, 64), c))
        for p in (1, 2, 4):
            (q, norm), *rest = besov_norm(f, 1.0, p).block_norms
            assert q == -1 and np.isclose(norm, c * grid64.length ** (2.0 / p), rtol=1e-12)
            assert max(v for _, v in rest) <= 1e-12 * norm

    def test_advect_constant_velocity(self, grid64):
        f = mean_zero_smooth_field(grid64, 17)
        v = VectorField.from_values(grid64, np.full((64, 64), 2.0), np.zeros((64, 64)))
        out = advect(v, f)
        expected = dealias(derivative(f, 1)) * 2.0
        assert rel_linf(out, expected) < 1e-13

    def test_divergence_of_rotated_gradient(self, grid64):
        psi = mean_zero_smooth_field(grid64, 18)
        w = VectorField(-derivative(psi, 2), derivative(psi, 1))
        assert linf_norm(divergence(w)) < 1e-12 * grad_linf_norm(w)

    def test_cached_velocity_norms_equal_fresh_ones(self, grid64):
        psi = mean_zero_smooth_field(grid64, 19)
        w = VectorField(-derivative(psi, 2), derivative(psi, 1))
        assert is_divergence_free(w)  # caches both norms on w
        fresh = VectorField(
            SpectralField(grid64, w.u1.coeffs.copy()), SpectralField(grid64, w.u2.coeffs.copy())
        )
        assert grad_linf_norm(w) == grad_linf_norm(fresh)
        assert divergence_residual(w) == divergence_residual(fresh)
