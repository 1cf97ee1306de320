"""Estimate reports, threshold formulas, contraction fits, envelopes."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import fileio, harness
from boussinesq_lp.littlewood_paley import build_partition, holder_norm
from boussinesq_lp.spectral import SpectralField, VectorField, make_grid


class TestVerify:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            harness.verify("lemma9.9")

    @pytest.mark.parametrize("name, r_values", [("eq4.18", (2.0, 2.5)), ("lemma2.2.3", (0.5, 1.0))])
    def test_corpus_outside_the_domain_rejected_before_any_work(self, monkeypatch, name, r_values):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        corpus = harness.CorpusSpec(r_values=r_values, seeds=(0,), resolutions=(32,))
        with pytest.raises(harness.EstimateDomainError, match=f"estimate {name} needs"):
            harness.verify(name, corpus)
        assert harness._RUN_CACHE == {}

    def test_constant_velocity_gives_zero_ratios(self, grid64):
        f = bq.synthesize_holder_field(grid64, 1.5, 1.0, 1)
        v = VectorField.from_values(
            grid64, np.full((64, 64), 2.0), np.full((64, 64), -1.0)
        )
        for q in (-1, 0, 2):
            lhs, rhs = harness.commutator_sample(v, f, q, 1.5)
            sample = harness._ratio_sample("const", lhs, rhs, 1.5, 64)
            assert sample.ratio == 0.0 and not sample.flagged

    def test_report_invariants(self, reports):
        for name, rep in reports.items():
            ratios = [s.ratio for s in rep.samples if s.ratio is not None]
            assert len(rep.samples) >= 50, name
            assert all(np.isfinite(x) and x >= 0 for x in ratios), name
            assert np.isclose(
                rep.c_emp, max(x for s, x in zip(rep.samples, ratios) if not s.flagged)
                if ratios else 0.0,
            ), name
            assert rep.c_frozen == 2.0 * rep.c_emp, name

    def test_sample_layout_on_default_corpus(self, reports):
        # (count, exponents, first descriptor, last descriptor); eq4.18 keeps
        # only r with rho = r - 1 in (0, 1), the dynamic estimates run at 1.5, 2.5
        every_r = {1.1, 1.5, 2.0, 2.5, 3.0}
        static = (100, every_r, "n=64,r=1.1,seed=0", "n=128,r=3,seed=9")
        coupled = (120, {1.5, 2.5}, "n=64,r=1.5,tg-strong,t=0.040", "n=128,r=2.5,tg-mixed,t=0.288")
        expected = {
            "lemma2.1": (550, every_r, "n=64,r=1.1,seed=0,q=-1", "n=128,r=3,seed=9,q=4"),
            **{name: static for name in ("lemma2.2.1", "lemma2.2.3", "lemma2.3", "lemma2.4", "lemma2.5")},
            "eq4.18": (80, {1.1, 1.5}, "n=64,r=1.1,seed=0,pair=0", "n=128,r=1.5,seed=9,pair=1"),
            "lemma3.1": (100, {1.5, 2.5}, "n=64,r=1.5,seed=0,t=0.040", "n=128,r=2.5,seed=1,t=0.400"),
            "eq3.3": coupled,
            "eq3.4": coupled,
        }
        assert set(expected) == set(reports)
        for name, rep in reports.items():
            layout = (len(rep.samples), {s.r for s in rep.samples},
                      rep.samples[0].descriptor, rep.samples[-1].descriptor)
            assert layout == expected[name], name

    # SHA-256 of json.dumps(report.to_dict(), sort_keys=True) for every
    # default-corpus report; recorded with numpy 2.4.6 on x86-64
    REPORT_DIGESTS = {
        "lemma2.1": "4b060265b269d7b849e23945f8194e5ac48a2c4f70878078862bcc2371f61a0c",
        "lemma2.2.1": "c9d82661139250c2250418374a6958859ccc6f75cadebeeedf943ad48de50242",
        "lemma2.2.3": "77ee269ff35df4328d92a2d939d362f670da6f5a71e144a5bf4c0f704a65efc8",
        "lemma2.3": "16bc6beb7db08a53bfe5718644abbd2f56d256302611835919c9c47e28329f3d",
        "lemma2.4": "5357e3a99fdc5b70a60cad0e450847b82fb88a7cd4e4d17e60569ffcaf60a96c",
        "lemma2.5": "4704a1fa0501820452451949a64b6b3c2bbe2e3d94169a5de5fd68aa5c1a6af2",
        "eq4.18": "eaf38c0f0626d8b546a75160ea0b8a3385b76af271b3bba05431d4953e318a60",
        "lemma3.1": "59d3b167822d100190da312eacb9e956de2d5addb63fe604ceebfdd2b3c7d4dc",
        "eq3.3": "bcf13c90c9a14f9debc727dc547070f45c904e4c0dd4406d3ae1f592989c6e83",
        "eq3.4": "0386bc3620d0af6fe6b0db172546282484ba4f932c78acecd510caa344c22fff",
    }

    def test_report_digests_on_default_corpus(self, reports):
        digests = {
            name: hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()
            for name, rep in reports.items()
        }
        assert digests == self.REPORT_DIGESTS

    def test_stable_is_a_json_bool_over_two_resolutions(self, tmp_path):
        # the per-resolution comparison runs on numpy floats
        corpus = harness.CorpusSpec(seeds=(0,), resolutions=(32, 64))
        report = harness.verify("lemma3.1", corpus)
        assert len(report.per_resolution) == 2
        path = tmp_path / "estimate.json"
        fileio.write_json(path, report)
        assert isinstance(json.loads(path.read_text())["stable"], bool)

    def test_min_symmetry_when_arguments_equal(self, grid64):
        v = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 2)
        from boussinesq_lp.spectral import grad_linf_norm
        from boussinesq_lp.littlewood_paley import holder_norm_vector

        rho = 0.5
        a = grad_linf_norm(v) * holder_norm_vector(v, rho)
        b = holder_norm_vector(v, rho) * grad_linf_norm(v)
        assert a == b  # both arguments of the min coincide for w = v

    def test_determinism(self):
        corpus = harness.CorpusSpec(r_values=(1.5,), seeds=(0, 1), resolutions=(32,))
        rep1 = harness.verify("lemma2.5", corpus)
        rep2 = harness.verify("lemma2.5", corpus)
        assert json.dumps(rep1.to_dict()) == json.dumps(rep2.to_dict())


class TestSharedCorpus:
    corpus = harness.CorpusSpec(r_values=(1.5, 2.5), seeds=(0, 1), resolutions=(32, 64))

    def test_fields_synthesized_once_per_process(self, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        calls = []

        def counting(synthesize):
            def wrapped(grid, rs, amplitude, seed):
                calls.append((grid.n, seed, tuple(rs)))
                return synthesize(grid, rs, amplitude, seed)
            return wrapped

        monkeypatch.setattr(harness, "_synthesize_holder_fields", counting(bq._synthesize_holder_fields))
        monkeypatch.setattr(
            harness, "_synthesize_divfree_velocities", counting(bq._synthesize_divfree_velocities)
        )
        harness.verify("lemma2.2.1", self.corpus)
        harness.verify("lemma2.3", self.corpus)
        # four roles (f, g, v, w) per (n, seed), each drawn exactly once for
        # both exponents
        assert len(calls) == len(set(calls)) == 4 * 2 * 2
        assert {rs for _, _, rs in calls} == {self.corpus.r_values}

    def test_a_miss_draws_only_the_exponents_not_yet_cached(self, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        corpus = harness.CorpusSpec(r_values=(1.5, 2.5, 1.1), seeds=(0,), resolutions=(32,))
        drawn = []

        def counting(synthesize):
            def wrapped(grid, rs, amplitude, seed):
                drawn.append((seed, tuple(rs)))
                return synthesize(grid, rs, amplitude, seed)
            return wrapped

        monkeypatch.setattr(harness, "_synthesize_holder_fields", counting(bq._synthesize_holder_fields))
        monkeypatch.setattr(
            harness, "_synthesize_divfree_velocities", counting(bq._synthesize_divfree_velocities)
        )
        harness.verify("eq4.18", corpus)  # its domain keeps r = 1.5 and 1.1
        kept = {key: fl for key, fl in harness._RUN_CACHE.items() if key[0] == "fields"}
        report = harness.verify("lemma2.2.1", corpus)
        # f, g, v and w (seeds 0, 10000, 20000, 30000): the exponents of the
        # domain first, then only the one the first sweep left out
        roles = (0, 10_000, 20_000, 30_000)
        assert drawn == [(seed, (1.5, 1.1)) for seed in roles] + [(seed, (2.5,)) for seed in roles]
        assert all(harness._RUN_CACHE[key] is fl for key, fl in kept.items())
        assert [s.r for s in report.samples] == [1.5, 2.5, 1.1]

    def test_transport_runs_keep_their_layout(self, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        corpus = harness.CorpusSpec(seeds=(3, 4), resolutions=(32,))
        runs = harness._transport_runs(corpus, 32)
        assert runs is harness._RUN_CACHE[("transport", corpus, 32)]
        # (r, seed, v, f0, trajectory), r outermost
        assert [(r, seed) for r, seed, *_ in runs] == [(r, seed) for r in (1.5, 2.5) for seed in (3, 4)]
        grid = make_grid(32, corpus.box)
        for r, seed, v, f0, traj in runs:
            one_v = bq.synthesize_divfree_velocity(grid, r, corpus.amplitude, seed + 40_000)
            one_f0 = bq.synthesize_holder_field(grid, r, corpus.amplitude, seed + 50_000)
            for got, one in ((v.u1, one_v.u1), (v.u2, one_v.u2), (f0, one_f0)):
                assert got.coeffs.view(np.uint64).tobytes() == one.coeffs.view(np.uint64).tobytes()
            assert traj.fields[0] is f0 and traj.times[-1] == 0.4

    def test_shared_fields_give_bit_identical_reports(self, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        # every static estimate, so each block profile and velocity norm
        # cached on a shared field is read by several of them
        names = ("lemma2.2.1", "lemma2.3", "lemma2.1", "lemma2.2.3", "lemma2.4", "lemma2.5", "eq4.18")
        assert set(names) == set(harness.ESTIMATE_NAMES) - {"lemma3.1", "eq3.3", "eq3.4"}
        shared = [json.dumps(harness.verify(name, self.corpus).to_dict()) for name in names]
        cold = []
        for name in names:
            harness._RUN_CACHE.clear()
            cold.append(json.dumps(harness.verify(name, self.corpus).to_dict()))
        assert shared == cold

    def test_commutator_samples_match_commutator_sample(self, grid64, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        commutator_calls = []
        original = harness.commutator

        def counting(v, q, f):
            commutator_calls.append(q)
            return original(v, q, f)

        monkeypatch.setattr(harness, "commutator", counting)
        # amplitude 0.7, not 1: the rhs then depends on the order of its three factors
        corpus = harness.CorpusSpec(r_values=(1.5, 2.5), seeds=(0,), resolutions=(64,), amplitude=0.7)
        report = harness.verify("lemma2.1", corpus)
        part = build_partition(grid64)
        qs = list(range(-1, part.q_max + 1))
        assert commutator_calls == qs + qs  # one divergence-checked commutator per block

        expected = []
        for r in corpus.r_values:
            f = bq.synthesize_holder_field(grid64, r, 0.7, 0)
            v = bq.synthesize_divfree_velocity(grid64, r, 0.7, 20_000)
            expected += [harness.commutator_sample(v, f, q, r) for q in qs]
        assert [(s.lhs, s.rhs) for s in report.samples] == expected

    def test_taylor_green_runs_integrated_once_per_n(self, monkeypatch):
        monkeypatch.setattr(harness, "_RUN_CACHE", {})
        exponents = []
        original = harness.run_direct

        def counting(state0, T, dt, r, **kwargs):
            exponents.append(r)
            return original(state0, T, dt, r, **kwargs)

        monkeypatch.setattr(harness, "run_direct", counting)
        runs = harness._coupled_runs(harness.CorpusSpec(resolutions=(32,)), 32)
        # one run per Taylor-Green config, and the random data, drawn at r, once per r
        assert exponents == [1.5, 1.5, 1.5, 2.5]
        labels = ("tg-strong", "tg-mixed", "random")
        assert [(r, label) for r, label, _ in runs] == [(r, label) for r in (1.5, 2.5) for label in labels]

        def bits(record):
            return record.r, [tuple(map(float.hex, dataclasses.astuple(s))) for s in record.samples]

        (read_at_2_5,) = [rec for r, label, rec in runs if (r, label) == (2.5, "tg-strong")]
        tg = bq.taylor_green_data(make_grid(32, 2.0 * np.pi), 1.0, 0.05)
        assert bits(read_at_2_5) == bits(original(tg, 0.5, 2e-3, 2.5)[1])


class TestScaleInvariance:
    def test_static_ratios_invariant_under_scaling(self, grid64):
        alpha = 10.0
        f = bq.synthesize_holder_field(grid64, 1.5, 1.0, 3)
        g = bq.synthesize_holder_field(grid64, 1.5, 1.0, 4)
        v = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 5)
        w = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 6)

        def ratio(pair):
            lhs, rhs = pair
            return lhs / rhs

        base = ratio(harness.commutator_sample(v, f, 2, 1.5))
        scaled = ratio(harness.commutator_sample(v, f * alpha, 2, 1.5))
        assert abs(base - scaled) < 1e-10 * base

        w_any = VectorField(f, g)
        base = ratio(harness.riesz_sample(w_any, 1.5))
        scaled = ratio(harness.riesz_sample(w_any * alpha, 1.5))
        assert abs(base - scaled) < 1e-10 * base

        base = ratio(harness.product_sample(f, g, 1.5))
        scaled = ratio(harness.product_sample(f * alpha, g, 1.5))
        assert abs(base - scaled) < 1e-10 * base

        base = ratio(harness.advection_product_sample(v, f, 1.5))
        scaled = ratio(harness.advection_product_sample(v * alpha, f, 1.5))
        assert abs(base - scaled) < 1e-10 * base

        base = ratio(harness.pressure_bilinear_sample(v, w, 0.5))
        scaled = ratio(harness.pressure_bilinear_sample(v, w * alpha, 0.5))
        assert abs(base - scaled) < 1e-10 * base

    def test_dynamic_ratios_invariant_under_series_scaling(self):
        alpha = 10.0
        base = harness.theta_growth_ratio(2.0, 1.0, 0.5)
        scaled = harness.theta_growth_ratio(2.0 * alpha, 1.0 * alpha, 0.5)
        assert abs(base - scaled) < 1e-12

        base = harness.transport_growth_ratio(3.0, 1.0, 0.7)
        scaled = harness.transport_growth_ratio(3.0 * alpha, 1.0 * alpha, 0.7 * alpha)
        assert abs(base - scaled) < 1e-12


class TestThresholds:
    # overrides keeping every formula inside its domain: P*a0 = e, C*||u0|| = 1
    HAND_KWARGS = dict(P=math.e / 2.2, Q=0.5, a0=2.2, C=1.0)

    def test_hand_case_unit_time(self, grid64):
        # C = 1, ||u0||_r = 1, P*a0 = e  =>  first horizon is exactly 1
        u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 7)
        theta0 = SpectralField.zero(grid64)
        rep = harness.compute_thresholds(theta0, u0, 1.5, **self.HAND_KWARGS)
        assert abs(rep.t1[0] - 1.0) < 1e-12

    def test_hand_case_zero_theta(self, grid64):
        u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 8)
        theta0 = SpectralField.zero(grid64)
        rep = harness.compute_thresholds(theta0, u0, 1.5, **self.HAND_KWARGS)
        # the theta term drops out of the second horizon's denominator
        expected = math.log(0.5 * 2.2) / (3.0 * 1.0 * 1.0)
        assert abs(rep.t1[1] - expected) < 1e-12

    def test_all_formulas_positive_small_data(self, thresholds_data, reports):
        theta0, u0 = thresholds_data
        rep = harness.compute_thresholds(theta0, u0, 1.5, reports)
        assert all(t > 0 for t in rep.t1)
        assert all(t > 0 for t in rep.t2)
        assert rep.t_star == min(min(rep.t1), min(rep.t2))
        assert rep.t2_3_interior
        assert rep.t2_3_residual is not None and rep.t2_3_residual <= 1e-10

    def test_bisection_solves_the_implicit_equation(self, thresholds_data, reports):
        theta0, u0 = thresholds_data
        rep = harness.compute_thresholds(theta0, u0, 1.5, reports)
        t = rep.t2[2]
        C, a0 = rep.C, rep.a0
        lhs = (
            (2.0 * C * rep.P * a0 * rep.theta0_r / (C * rep.Q * a0 * rep.u0_r))
            * math.exp(3.0 * C * t * rep.Q * a0 * rep.u0_r)
            * t
        )
        assert abs(lhs - rep.Q * a0**2 / 5.0) < 1e-6 * rep.Q * a0**2

    def test_monotone_in_data_amplitude(self, grid64, reports):
        small = (
            bq.synthesize_holder_field(grid64, 1.5, 0.002, 1),
            bq.synthesize_divfree_velocity(grid64, 1.5, 0.002, 2),
        )
        large = (
            bq.synthesize_holder_field(grid64, 1.5, 0.004, 1),
            bq.synthesize_divfree_velocity(grid64, 1.5, 0.004, 2),
        )
        rep_s = harness.compute_thresholds(small[0], small[1], 1.5, reports)
        rep_l = harness.compute_thresholds(large[0], large[1], 1.5, reports)
        for ts, tl in zip(rep_s.t1, rep_l.t1):
            assert tl < ts

    def test_domain_error_names_formula(self, grid64):
        u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 1.0, 9)
        theta0 = SpectralField.zero(grid64)
        with pytest.raises(harness.ThresholdDomainError) as err:
            harness.compute_thresholds(theta0, u0, 1.5, P=32.0, a0=0.02, C=1.0)
        assert err.value.formula == "T1_1"

    def test_zero_velocity_rejected(self, grid64):
        theta0 = bq.synthesize_holder_field(grid64, 1.5, 1.0, 10)
        with pytest.raises(harness.ThresholdDomainError):
            harness.compute_thresholds(theta0, VectorField.zero(grid64), 1.5, C=1.0)


def _records_from_gaps(gaps):
    grid = make_grid(16, 2 * np.pi)
    zero = bq.BoussinesqState.of(SpectralField.zero(grid), VectorField.zero(grid))
    records = []
    prev = None
    for i, gap in enumerate(gaps):
        ratio = None if prev is None or prev <= 1e-14 else gap / prev
        records.append(bq.IterationRecord(i + 2, zero, gap, gap, ratio))
        prev = gap
    return records


class TestContractionReport:
    def test_exact_geometric_sequence(self):
        summary = harness.contraction_report(_records_from_gaps([1.0, 0.5, 0.25, 0.125]))
        assert summary.monotone
        assert abs(summary.rho - 0.5) < 1e-12
        assert summary.contracting

    def test_tiny_gaps_skip_fit(self):
        summary = harness.contraction_report(_records_from_gaps([1e-15] * 4))
        assert summary.converged and summary.rho is None

    def test_non_monotone_reported_without_fit(self):
        summary = harness.contraction_report(_records_from_gaps([1.0, 0.5, 0.8, 0.4]))
        assert not summary.monotone and summary.rho is None

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ValueError):
            harness.contraction_report(_records_from_gaps([1.0, 0.5]))


class TestEnvelopes:
    def test_resting_trajectory_envelope_formula(self):
        # sup|grad u| = 0 with the initial norms theta0_r = 0.7, u0_r = 0.3
        # held in every sample
        record = bq.MonitorRecord(r=1.5)
        for t in np.linspace(0.0, 2.0, 21):
            record.append(bq.MonitorSample(t, 0.0, 0.0, 0.7, 0.3, 0.0))
        c = 2.0
        env = bq.velocity_envelope(record, c)
        coeff = 2.0 + 2.0 ** (-1.5)
        expected = 0.3 + coeff * 0.7 * record.times()
        assert np.max(np.abs(env - expected)) < 1e-12
        verdict = bq.continuation_check(record, c)
        assert verdict.u_envelope.passed and verdict.theta_envelope.passed

    def test_hydrostatic_run_passes(self, grid64, reports):
        state0 = bq.hydrostatic_data(grid64)
        _, record = bq.run_direct(state0, 0.5, 0.02, 1.5)
        assert record.samples[0].theta_r == holder_norm(state0.theta, 1.5)
        assert record.samples[0].u_r == 0.0
        c = harness.gronwall_constant(reports, 1.5)
        verdict = bq.continuation_check(record, c)
        assert verdict.u_envelope.passed
        assert verdict.theta_envelope.passed

    def test_velocity_integral_inequality_replay(self, taylor_green_run, reports):
        # ||u(t)||_r <= ||u0||_r + 2C int ||u||_r ||grad u|| + (2+2^-r) int ||theta||_r
        record = taylor_green_run["record"]
        r = 1.5
        c = harness.gronwall_constant(reports, r)
        t = record.times()
        u_r = record.series("u_r")
        theta_r = record.series("theta_r")
        grad_u = record.series("grad_u_inf")
        weighted = np.concatenate(
            [[0.0], np.cumsum(0.5 * ((u_r * grad_u)[1:] + (u_r * grad_u)[:-1]) * np.diff(t))]
        )
        theta_int = np.concatenate(
            [[0.0], np.cumsum(0.5 * (theta_r[1:] + theta_r[:-1]) * np.diff(t))]
        )
        rhs = u_r[0] + 2.0 * c * weighted + (2.0 + 2.0 ** (-r)) * theta_int
        assert np.all(u_r <= rhs * (1 + 1e-9) + 1e-12)


class TestGronwallConstant:
    def test_frozen_constant_per_exponent(self):
        samples = [
            harness.EstimateSample("a", 1.0, 1.0, 0.5, 1.5, 64),
            harness.EstimateSample("b", 3.0, 1.0, 3.0, 2.5, 64),
        ]
        report = harness._finish("lemma2.1", samples, (64,))
        assert harness.frozen_constant(report, 1.5) == 1.0
        assert harness.frozen_constant(report, 2.5) == 6.0
        assert harness.frozen_constant(report) == report.c_frozen == 6.0
        assert harness.frozen_constant(report, 2.0) == 6.0  # no samples at r = 2

    def test_dominates_every_source(self, reports):
        c = harness.gronwall_constant(reports, 1.5)
        for name in harness.GRONWALL_SOURCES:
            assert c >= harness.frozen_constant(reports[name], 1.5) - 1e-12

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            harness.gronwall_constant({}, 1.5)
