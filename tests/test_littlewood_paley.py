"""Dyadic partition, Besov norms, paraproducts, commutator, kernel mass."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boussinesq_lp import cli
from boussinesq_lp import littlewood_paley as lp
from boussinesq_lp.littlewood_paley import (
    DyadicPartition,
    besov_norm,
    block,
    bony_decompose,
    build_partition,
    commutator,
    compute_a0,
    holder_norm,
    holder_norm_vector,
    low_pass,
)
from boussinesq_lp.boussinesq import BoussinesqState, synthesize_divfree_velocity, synthesize_holder_field
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    dealias,
    linf_norm,
    make_grid,
)

from helpers import lp_norm, random_dealiased_field, rel_linf, scaled_lp_norm


class TestPartition:
    @pytest.mark.parametrize("n", [64, 128])
    def test_partition_of_unity_everywhere(self, n):
        part = build_partition(make_grid(n, 2 * np.pi))
        assert np.max(np.abs(part.partition_sum() - 1.0)) <= 1e-12

    def test_chi_at_origin(self, grid64):
        part = build_partition(grid64)
        assert part.chi_hat[0, 0] == 1.0
        for q in range(part.q_max + 1):
            assert part.phi_hat[q][0, 0] == 0.0

    @pytest.mark.parametrize("n", [64, 128])
    def test_support_disjointness(self, n):
        part = build_partition(make_grid(n, 2 * np.pi))
        mults = {-1: part.chi_hat}
        mults.update({q: part.phi_hat[q] for q in range(part.q_max + 1)})
        for p in range(-1, part.q_max + 1):
            for q in range(p + 2, part.q_max + 1):
                assert np.all(mults[p] * mults[q] == 0.0), (p, q)

    def test_chi_untouched_by_high_blocks(self, grid64):
        part = build_partition(grid64)
        for q in range(1, part.q_max + 1):
            assert np.all(part.chi_hat * part.phi_hat[q] == 0.0)

    @pytest.mark.parametrize("n", [64, 128])
    def test_frame_bounds(self, n):
        part = build_partition(make_grid(n, 2 * np.pi))
        fs = part.frame_sum()
        assert np.all(fs >= 1.0 / 3.0 - 1e-12)
        assert np.all(fs <= 1.0 + 1e-12)

    def test_too_coarse_grid_rejected(self):
        # a long box pushes every annulus below the resolvable band
        with pytest.raises(ValueError):
            build_partition(make_grid(16, 16.0 * np.pi))

    def test_qmax_scaling(self):
        assert build_partition(make_grid(64, 2 * np.pi)).q_max == 3
        assert build_partition(make_grid(128, 2 * np.pi)).q_max == 4
        assert build_partition(make_grid(16, 2 * np.pi)).q_max == 1


class TestBlocks:
    def test_single_mode_captured_by_its_block(self, grid64):
        part = build_partition(grid64)
        q0 = 2
        # pick a frequency where the annulus multiplier is exactly 1
        mask = part.phi_hat[q0] == 1.0
        assert mask.any()
        idx = np.argwhere(mask)[0]
        assert grid64.m2[tuple(idx)] > 0  # the conjugate partner is implicit
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[idx[0], idx[1]] = 1.0
        f = SpectralField(grid64, coeffs)
        assert rel_linf(block(q0, f), f) < 1e-14
        for p in range(-1, part.q_max + 1):
            if abs(p - q0) >= 2:
                assert linf_norm(block(p, f)) == 0.0

    def test_block_of_constant(self, grid64):
        part = build_partition(grid64)
        c = SpectralField.from_values(grid64, np.full((64, 64), 4.0))
        assert rel_linf(block(-1, c), c) < 1e-14
        for q in range(0, part.q_max + 1):
            assert linf_norm(block(q, c)) == 0.0

    @pytest.mark.parametrize("n", [64, 128])
    def test_reconstruction(self, n):
        grid = make_grid(n, 2 * np.pi)
        part = build_partition(grid)
        for seed in range(5):
            f = random_dealiased_field(grid, seed)
            total = block(-1, f)
            for q in range(0, part.q_max + 1):
                total = total + block(q, f)
            assert rel_linf(total, f) < 1e-12

    def test_lowpass_matches_cumulative_bump(self, grid64):
        part = build_partition(grid64)
        f = random_dealiased_field(grid64, 3)
        from boussinesq_lp.littlewood_paley import chi_profile

        for q in range(0, part.q_max + 1):
            expected = f.multiplied(chi_profile(grid64.abs_k / 2.0**q))
            assert rel_linf(low_pass(q, f), expected) < 1e-12

    def test_lowpass_bounds(self, grid64):
        part = build_partition(grid64)
        f = random_dealiased_field(grid64, 4)
        assert linf_norm(low_pass(-1, f)) == 0.0
        assert rel_linf(low_pass(part.q_max + 1, f), f) < 1e-14
        with pytest.raises(ValueError):
            low_pass(part.q_max + 2, f)

    def test_block_out_of_range(self, grid64):
        f = SpectralField.zero(grid64)
        part = build_partition(grid64)
        with pytest.raises(ValueError):
            block(part.q_max + 1, f)
        with pytest.raises(ValueError):
            block(-2, f)


class TestNorms:
    def test_constant_holder_norm(self, grid64):
        c = SpectralField.from_values(grid64, np.full((64, 64), 3.0))
        for r in (0.5, 1.5, 2.5):
            assert np.isclose(holder_norm(c, r), 2.0 ** (-r) * 3.0, rtol=1e-12)

    def test_single_mode_norm(self, grid64):
        part = build_partition(grid64)
        q0 = 2
        mask = part.phi_hat[q0] == 1.0
        idx = np.argwhere(mask)[0]
        assert grid64.m2[tuple(idx)] > 0  # the conjugate partner is implicit
        coeffs = SpectralField.zero(grid64).coeffs.copy()
        coeffs[idx[0], idx[1]] = 0.5
        f = SpectralField(grid64, coeffs)
        amplitude = linf_norm(f)
        r = 1.5
        value = holder_norm(f, r)
        # neighbors may contribute, never the blocks |p-q0| >= 2
        assert value >= 2.0 ** (q0 * r) * amplitude * (1 - 1e-6)
        expected = max(
            2.0 ** (q * r) * linf_norm(block(q, f))
            for q in (q0 - 1, q0, q0 + 1)
        )
        assert np.isclose(value, expected, rtol=1e-12)

    def test_flat_block_profile(self, grid64):
        r = 1.5
        f = synthesize_holder_field(grid64, r, 1.0, 42)
        part = build_partition(grid64)
        weighted = [
            2.0 ** (q * r) * linf_norm(block(q, f))
            for q in range(0, part.q_max - 1)
        ]
        assert max(weighted) <= 2.0 * min(weighted)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0).filter(lambda a: abs(a) > 1e-6))
    def test_norm_homogeneity(self, alpha):
        grid = make_grid(32, 2 * np.pi)
        f = random_dealiased_field(grid, 9)
        base = holder_norm(f, 1.5)
        scaled = holder_norm(f * alpha, 1.5)
        assert np.isclose(scaled, abs(alpha) * base, rtol=1e-12)

    def test_holder_equals_sup_besov(self, grid64):
        f = random_dealiased_field(grid64, 10)
        assert holder_norm(f, 1.7) == besov_norm(f, 1.7, np.inf, np.inf).value

    def test_besov_finite_q_index(self, grid64):
        f = random_dealiased_field(grid64, 11)
        rep = besov_norm(f, 1.0, np.inf, 1.0)
        expected = sum(2.0**q * v for q, v in rep.block_norms)
        assert np.isclose(rep.value, expected, rtol=1e-12)

    def test_embedding_chain(self, grid64):
        # homogeneous sup-block norm <= sup norm <= C * Hoelder norm
        for seed in range(5):
            f = synthesize_holder_field(grid64, 1.5, 1.0, seed)
            b0 = besov_norm(f, 0.0, np.inf, np.inf).homogeneous_value
            sup = linf_norm(f)
            assert b0 <= 1.5 * sup
            assert sup <= 4.0 * holder_norm(f, 1.5)

    def test_rejects_bad_parameters(self, grid64):
        f = SpectralField.zero(grid64)
        with pytest.raises(ValueError):
            holder_norm(f, 0.0)
        with pytest.raises(ValueError):
            holder_norm(f, -1.0)
        with pytest.raises(ValueError):
            besov_norm(f, 1.0, 0.5, np.inf)

    def test_report_json_schema(self, grid64):
        f = random_dealiased_field(grid64, 12)
        payload = json.loads(json.dumps(besov_norm(f, 1.5).to_dict()))
        assert set(payload) == {"s", "p", "q", "blocks", "value", "homogeneous_value"}
        assert payload["p"] == "inf" and payload["q"] == "inf"
        assert all(set(b) == {"q", "norm"} for b in payload["blocks"])


class TestLazyHomogeneousBlocks:
    def test_holder_norm_builds_no_homogeneous_block(self, grid64, monkeypatch):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 60)
        expected = holder_norm(f, 1.5)

        def forbidden(self, q):
            raise AssertionError(f"homogeneous block {q} built for an inhomogeneous norm")

        monkeypatch.setattr(DyadicPartition, "homogeneous_multiplier", forbidden)
        assert holder_norm(f, 1.5) == expected
        assert holder_norm_vector(VectorField(f, f), 1.5) == expected

    @pytest.mark.parametrize("s,p,q_index", [(1.5, np.inf, np.inf), (1.0, np.inf, 1.0), (0.5, 2.0, 2.0)])
    def test_homogeneous_value_equals_eager_computation(self, grid64, s, p, q_index):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 61)
        part = build_partition(grid64)
        eager = [
            (q, lp_norm(f.multiplied(part.homogeneous_multiplier(q)), p))
            for q in range(part.q_min_homogeneous, 0)
        ]
        eager += [(q, lp_norm(block(q, f), p)) for q in range(0, part.q_max + 1)]
        if np.isinf(q_index):
            eager_value = max(2.0 ** (q * s) * v for q, v in eager)
        else:
            eager_value = float(sum((2.0 ** (q * s) * v) ** q_index for q, v in eager) ** (1.0 / q_index))

        rep = besov_norm(f, s, p, q_index)
        assert "homogeneous_value" not in vars(rep)  # not built until read
        assert rep.homogeneous_value == eager_value
        assert rep.homogeneous_blocks == eager
        assert rep.homogeneous_blocks is rep.homogeneous_blocks  # cached on the report


class TestBlockProfileCache:
    """Each block sup is computed at most once per field and shared."""

    def test_cached_profile_gives_the_fresh_values(self, grid64):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 62)
        holder_norm(f, 2.0)  # f now holds the block sups this norm needed
        fresh = lambda: SpectralField(grid64, f.coeffs.copy())
        for r in (1.1, 1.5, 3.0):
            assert holder_norm(f, r) == holder_norm(fresh(), r)
        cached, cold = besov_norm(f, 1.0, np.inf, 1.0), besov_norm(fresh(), 1.0, np.inf, 1.0)
        assert cached.value == cold.value
        assert cached.homogeneous_value == cold.homogeneous_value

    def test_finite_p_does_not_read_the_sup_profile(self, grid64, monkeypatch):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 63)
        expected = json.dumps(besov_norm(SpectralField(grid64, f.coeffs.copy()), 1.5, 2.0).to_dict())
        holder_norm(f, 1.5)

        def forbidden(_f):
            raise AssertionError("finite p read the sup-norm profile")

        monkeypatch.setattr(lp, "_sup_profile", forbidden)
        assert json.dumps(besov_norm(f, 1.5, 2.0).to_dict()) == expected

    @pytest.mark.parametrize("p", [np.inf, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [16, 64])
    def test_stacked_block_sups_bit_identical_to_per_block_norms(self, n, p):
        # one irfft2 per block over a (3, n, m) stack gives every row's block
        # norms bit for bit as scaled_lp_norm(block(q, f), p), signed zeros
        # included, and within 1e-14 relative of the unscaled lp_norm
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        parts = rng.standard_normal((2, 3, *grid.spectral_shape))
        pick = rng.integers(0, 3, size=parts.shape)
        parts[pick == 1], parts[pick == 2] = 0.0, -0.0
        rows = parts[0] + 1j * parts[1]
        assert np.signbit(rows.real[rows.real == 0.0]).any()
        part = build_partition(grid)
        norms = lp._block_norms(BoussinesqState(grid, rows), part.blocks, p)
        q_max = part.q_max
        assert norms.shape == (q_max + 2, 3)
        for column, coeffs in zip(norms.T, rows):
            f = SpectralField(grid, coeffs)
            expected = np.array([scaled_lp_norm(block(q, f), p) for q in range(-1, q_max + 1)])
            assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))
            unscaled = [lp_norm(block(q, f), p) for q in range(-1, q_max + 1)]
            np.testing.assert_allclose(column, unscaled, rtol=1e-14, atol=0.0)
            one = lp._block_norms(f, part.blocks, p)
            assert np.array_equal(one.view(np.uint64), expected.view(np.uint64))
        if np.isinf(p):
            fields = [SpectralField(grid, coeffs) for coeffs in rows]
            assert lp._holder_rows(BoussinesqState(grid, rows), 1.5) == [holder_norm(f, 1.5) for f in fields]

    def test_reports_own_their_block_lists(self, grid64):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 64)
        first = besov_norm(f, 1.5)
        expected = list(first.block_norms)
        first.block_norms[0] = (-1, 1e9)
        first.block_norms.append((99, 1e9))
        second = besov_norm(f, 1.5)
        assert second.block_norms == expected
        assert second.value == holder_norm(SpectralField(grid64, f.coeffs.copy()), 1.5)

def _edge_modes(grid) -> np.ndarray:
    """Indices of the half-spectrum modes where some block multiplier lies
    strictly between 0 and 1: the edges of the dyadic blocks."""
    blocks = build_partition(grid).blocks
    return np.argwhere(((blocks > 0.0) & (blocks < 1.0)).any(axis=0))


def _test_coeffs(grid, kind: str, seed: int, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = grid.spectral_shape
    c = np.zeros(shape, dtype=complex)
    if kind == "random":
        c += rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c *= (1.0 + grid.abs_k) ** -rng.uniform(0.0, 4.0)
    elif kind == "lacunary":  # modes |k| = 2^j on both axes, decaying at random rates
        for j in range(int(np.log2(grid.n // 2))):
            pair = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c[2**j, 0], c[0, 2**j] = pair * 2.0 ** (-j * rng.uniform(0, 3))
    elif kind == "edge":  # one mode on a block edge
        edges = _edge_modes(grid)
        c[tuple(edges[rng.integers(len(edges))])] = rng.standard_normal() + 1j * rng.standard_normal()
    return c * amplitude


def _full_path(coeffs: np.ndarray, grid, r: float) -> float:
    """``_assemble`` over the full ``_block_norms`` sup profile of one field."""
    sups = lp._block_norms(SpectralField(grid, coeffs.copy()), build_partition(grid).blocks, np.inf)
    return lp._assemble(list(enumerate(map(float, sups), -1)), r, np.inf)


class TestBranchAndBound:
    """Hoelder norms transform a block only while its l1 coefficient bound
    can still set the norm, and give the full profile's value bit for bit."""

    def test_blocks_are_one_nonnegative_array(self, grid64):
        part = build_partition(grid64)
        assert part.blocks.shape == (part.q_max + 2, *grid64.spectral_shape)
        assert np.all(part.blocks >= 0.0) and not part.blocks.flags.writeable
        assert all(np.shares_memory(m, part.blocks) for m in [part.chi_hat, *part.phi_hat])

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_bound_dominates_every_block_sup(self, n):
        # random complex coefficients everywhere, the columns m2 = 0 and
        # m2 = -n/2 included (the inverse transform reads one value of each
        # conjugate pair there), and a stack of them
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        shape = (3, *grid.spectral_shape)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack = BoussinesqState(grid, rows * (1.0 + grid.abs_k) ** -1.0)
        sups = lp._block_norms(stack, build_partition(grid).blocks, np.inf)
        bounds = lp._sup_bounds(stack)
        assert bounds.shape == sups.shape
        assert np.all(sups <= bounds) and np.all(bounds <= 4.0 * n * n * sups)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        fields=st.lists(
            st.tuples(
                st.sampled_from(["random", "lacunary", "edge", "zero"]),
                st.integers(0, 2**16),
                st.sampled_from([1.0, 1e-300, 1e300]),
            ),
            min_size=3,
            max_size=3,
        ),
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0.0, np.nan)]),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["holder", "vector", "besov", "rows"]),
                st.integers(0, 2),
                st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0]),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_every_norm_equals_the_full_profile(self, n, fields, poison, calls):
        grid = make_grid(n)
        part = build_partition(grid)
        coeffs = [_test_coeffs(grid, *spec) for spec in fields]
        if poison is not None:  # NaN or inf coefficients take the full path
            coeffs[0][n // 4, 1] = poison
        expected = {(i, r): _full_path(c, grid, r) for i, c in enumerate(coeffs) for *_, r in calls}

        fs = [SpectralField(grid, c.copy()) for c in coeffs]
        w = VectorField(fs[1], fs[2])
        stack = BoussinesqState(grid, np.stack(coeffs))
        transformed = {id(x): [] for x in (*fs, stack)}
        kernel = lp._block_norms

        def recorded(x, multipliers, p):
            rows = [(m.ctypes.data - part.blocks.ctypes.data) // part.blocks.strides[0] for m in multipliers]
            transformed[id(x)].extend(rows)
            return kernel(x, multipliers, p)

        with mock.patch.object(lp, "_block_norms", recorded):
            for kind, i, r in calls:
                if kind == "holder":
                    got, want = [holder_norm(fs[i], r)], [expected[i, r]]
                elif kind == "vector":
                    got, want = [holder_norm_vector(w, r)], [max(expected[1, r], expected[2, r])]
                elif kind == "besov":
                    got, want = [besov_norm(fs[i], r).value], [expected[i, r]]
                else:
                    got, want = lp._holder_rows(stack, r), [expected[j, r] for j in range(3)]
                assert [v.hex() for v in got] == [v.hex() for v in want], (kind, i, r)
        for rows in transformed.values():  # each block at most once per field or stack
            assert len(rows) == len(set(rows)) and set(rows) <= set(range(part.q_max + 2))

    def test_search_skips_blocks_whose_bound_cannot_reach(self, grid64):
        # a single mode inside block 1 has a zero bound on the blocks it
        # does not touch and takes one transform at any r; a zero field none
        part = build_partition(grid64)
        c = np.zeros(grid64.spectral_shape, dtype=complex)
        c[3, 0] = 0.5
        f = SpectralField(grid64, c)
        assert holder_norm(f, 1.5) == _full_path(c, grid64, 1.5)
        assert lp._block_sups(f)[1].tolist() == [q == 1 for q in range(-1, part.q_max + 1)]
        zero = SpectralField.zero(grid64)
        assert holder_norm(zero, 2.0) == 0.0 and not lp._block_sups(zero)[1].any()


class TestFinitePNorms:
    """Finite-p block norms are scaled by the block sup M, so no p-th power
    under- or overflows, and they rise to the sup as p grows."""

    def test_lp_analyze_rises_to_its_sup_norm_value(self, tmp_path):
        def value(p: float) -> float:
            assert cli.main(["lp-analyze", "--n", "64", "--p", repr(p), "--out-dir", str(tmp_path)]) == 0
            return json.loads((tmp_path / "besov_report.json").read_text())["value"]

        ps = [2.0, 400.0, 1000.0, 1e6, 1e300]
        values = [value(p) for p in ps]
        sup = value(np.inf)
        # the raw norms carry the area factor L^(2/p), which falls from p = 2
        # to p = 400; without it each block norm is a power mean in p
        normalized = [v * (2.0 * np.pi) ** (-2.0 / p) for v, p in zip(values, ps)]
        assert normalized == sorted(normalized)
        assert values[1:] == sorted(values[1:]) and values[-1] == sup
        assert abs(values[3] - sup) <= 1e-5 * sup

    @pytest.mark.parametrize("amplitude", [1.0, 1e-200, 1e200])
    def test_block_power_means_rise_to_the_block_sups(self, grid64, amplitude):
        f = random_dealiased_field(grid64, 5) * amplitude
        sups = [v for _, v in besov_norm(f, 1.0).block_norms]
        ps = [2.0**k for k in range(20)] + [1e6]
        norms = [[v for _, v in besov_norm(f, 1.0, p).block_norms] for p in ps]
        means = np.array([np.multiply(row, grid64.length ** (-2.0 / p)) for row, p in zip(norms, ps)])
        assert np.all(np.diff(means, axis=0) >= 0.0)
        np.testing.assert_allclose(means[-1], sups, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("a", [1.0, 1e-250, 1e250])
    @pytest.mark.parametrize("p", [2, 4, 8, 20])
    def test_single_mode_has_its_closed_form(self, grid64, a, p):
        # a cos(3 x1) is its own block q = 1; for even p with 3p < n the grid
        # mean of cos^p is exact, C(p, p/2) / 2^p
        f = SpectralField.from_values(grid64, a * np.cos(3.0 * grid64.x1))
        norm = dict(besov_norm(f, 1.0, float(p)).block_norms)[1]
        exact = a * grid64.length ** (2.0 / p) * (math.comb(p, p // 2) / 2.0**p) ** (1.0 / p)
        assert norm == pytest.approx(exact, rel=1e-12)

    def test_besov_norm_falls_as_the_sum_index_grows(self, grid64):
        f = random_dealiased_field(grid64, 6)
        values = [besov_norm(f, 1.0, 3.0, q).value for q in (1.0, 2.0, 4.0, np.inf)]
        assert values == sorted(values, reverse=True)


class TestBony:
    def test_constant_second_factor(self, grid64):
        u = random_dealiased_field(grid64, 20)
        c = SpectralField.from_values(grid64, np.full((64, 64), 2.0))
        t_uc, t_cu, rem = bony_decompose(u, c)
        assert linf_norm(t_uc) < 1e-13
        total = t_cu + rem
        assert rel_linf(total, dealias(u * 2.0)) < 1e-12

    def test_square_reconstruction(self, grid64):
        u = random_dealiased_field(grid64, 21)
        t1, t2, rem = bony_decompose(u, u)
        product = dealias(SpectralField.from_values(grid64, u.values() ** 2))
        assert rel_linf(t1 + t2 + rem, product) < 1e-10

    def test_disjoint_spectra_have_no_remainder(self):
        grid = make_grid(512, 2 * np.pi)
        part = build_partition(grid)
        assert part.q_max >= 6
        u = _pure_block_field(grid, part, 2, seed=1)
        v = _pure_block_field(grid, part, 6, seed=2)
        t_uv, t_vu, rem = bony_decompose(u, v)
        assert linf_norm(rem) < 1e-13
        product = dealias(SpectralField.from_values(grid, u.values() * v.values()))
        assert rel_linf(t_uv + t_vu, product) < 1e-10


def _pure_block_field(grid, part, q, seed):
    """Random field spectrally inside the region where only block q sees it."""
    rng = np.random.default_rng(seed)
    noise = SpectralField.from_values(grid, rng.standard_normal((grid.n, grid.n)))
    mult = part.multiplier(q).copy()
    exact = mult == 1.0
    for p in (q - 1, q + 1):
        if -1 <= p <= part.q_max:
            exact &= part.multiplier(p) == 0.0
    return SpectralField(grid, noise.coeffs * np.where(exact, 1.0, 0.0))


class TestCommutator:
    def test_constant_velocity_commutes(self, grid64):
        f = random_dealiased_field(grid64, 30)
        v = VectorField.from_values(
            grid64, np.full((64, 64), 1.3), np.full((64, 64), -0.4)
        )
        for q in (-1, 0, 2):
            assert linf_norm(commutator(v, q, f)) < 1e-12

    def test_zero_field(self, grid64):
        v = synthesize_divfree_velocity(grid64, 1.5, 1.0, 31)
        assert linf_norm(commutator(v, 1, SpectralField.zero(grid64))) == 0.0

    def test_rejects_compressible_velocity(self, grid64):
        rng = np.random.default_rng(32)
        v = VectorField.from_values(
            grid64, rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        )
        with pytest.raises(ValueError):
            commutator(v, 1, SpectralField.zero(grid64))

    def test_ratio_stable_across_scales(self):
        # sup_q 2^{qr} ||[v.grad, D_q]f|| / (||f||_r ||grad v||) within +-25%
        # of its mean across n in {64, 128, 256}
        from boussinesq_lp.harness import commutator_sample

        r = 1.5
        maxima = []
        for n in (64, 128, 256):
            grid = make_grid(n, 2 * np.pi)
            part = build_partition(grid)
            ratios = []
            for seed in range(4):
                f = synthesize_holder_field(grid, r, 1.0, seed)
                v = synthesize_divfree_velocity(grid, r, 1.0, seed + 100)
                for q in range(-1, part.q_max + 1):
                    lhs, rhs = commutator_sample(v, f, q, r)
                    if rhs > 1e-13:
                        ratios.append(lhs / rhs)
            maxima.append(max(ratios))
        center = np.mean(maxima)
        assert all(abs(m - center) <= 0.25 * center for m in maxima), maxima


class TestKernelMass:
    def test_lower_bound(self):
        assert compute_a0() >= 1.0 - 1e-6

    def test_deterministic(self):
        assert compute_a0() == compute_a0()

    def test_builds_no_cached_grid(self):
        # the value of the quadrature on a cached make_grid(2048, 64 pi), bit
        # for bit; that grid's meshes are no longer kept for the process
        before = make_grid.cache_info().currsize
        assert compute_a0.__wrapped__() == 4.392412711163112
        assert make_grid.cache_info().currsize == before

    def test_vector_norm_is_component_max(self, grid64):
        f = synthesize_holder_field(grid64, 1.5, 1.0, 50)
        g = synthesize_holder_field(grid64, 1.5, 0.5, 51)
        w = VectorField(f, g)
        expected = max(holder_norm(f, 1.5), holder_norm(g, 1.5))
        assert np.isclose(holder_norm_vector(w, 1.5), expected, rtol=1e-12)
