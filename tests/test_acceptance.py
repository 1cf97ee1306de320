"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE <id> <name>: PASS/FAIL` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them as they go).
"""

import time

import numpy as np

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import harness
from boussinesq_lp.littlewood_paley import (
    block,
    bony_decompose,
    build_partition,
    holder_norm,
    holder_norm_vector,
)
from boussinesq_lp.spectral import (
    SpectralField,
    VectorField,
    dealias,
    linf_norm,
    make_grid,
)
from boussinesq_lp.transport import TransportProblem, solve

from helpers import random_dealiased_field, rel_linf, vec_linf


def _report(ident: str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {ident} {name}: {status} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_01_partition_of_unity():
    t0 = time.perf_counter()
    part = build_partition(make_grid(128, 2 * np.pi))
    dev = float(np.max(np.abs(part.partition_sum() - 1.0)))
    mults = {-1: part.chi_hat}
    mults.update({q: part.phi_hat[q] for q in range(part.q_max + 1)})
    disjoint = all(
        np.all(mults[p] * mults[q] == 0.0)
        for p in range(-1, part.q_max + 1)
        for q in range(p + 2, part.q_max + 1)
    )
    frame = part.frame_sum()
    frame_ok = bool(np.all(frame >= 1.0 / 3.0) and np.all(frame <= 1.0))
    runtime = time.perf_counter() - t0
    ok = dev <= 1e-12 and disjoint and frame_ok and runtime < 1.0
    _report(
        "01", "partition-of-unity", ok,
        f"max_dev={dev:.2e} disjoint={disjoint} frame_ok={frame_ok} runtime={runtime:.2f}s",
    )


def test_02_block_reconstruction():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (64, 128):
        grid = make_grid(n, 2 * np.pi)
        part = build_partition(grid)
        for seed in range(20):
            f = random_dealiased_field(grid, seed)
            total = block(-1, f)
            for q in range(0, part.q_max + 1):
                total = total + block(q, f)
            worst = max(worst, rel_linf(total, f))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-12 and runtime < 5.0
    _report("02", "block-reconstruction", ok, f"worst_rel_err={worst:.2e} runtime={runtime:.2f}s")


def test_03_bony_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (64, 128):
        grid = make_grid(n, 2 * np.pi)
        for seed in range(10):
            u = random_dealiased_field(grid, 100 + seed)
            v = random_dealiased_field(grid, 200 + seed)
            t_uv, t_vu, rem = bony_decompose(u, v)
            product = dealias(SpectralField.from_values(grid, u.values() * v.values()))
            worst = max(worst, rel_linf(t_uv + t_vu + rem, product))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-10 and runtime < 10.0
    _report("03", "bony-identity", ok, f"worst_rel_err={worst:.2e} runtime={runtime:.2f}s")


def test_04_commutator_estimate():
    t0 = time.perf_counter()
    report = harness.verify("lemma2.1")
    per_res = report.per_resolution
    finite = np.isfinite(report.c_emp) and report.c_emp > 0
    drift = max(per_res.values()) / min(per_res.values()) - 1.0
    runtime = time.perf_counter() - t0
    ok = finite and drift <= 0.5 and runtime < 120.0
    _report(
        "04", "commutator-estimate", ok,
        f"c_emp={report.c_emp:.3f} drift={drift:.1%} samples={len(report.samples)} "
        f"runtime={runtime:.1f}s",
    )


def test_05_riesz_and_product_laws():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("lemma2.5", "lemma2.3", "lemma2.4"):
        report = harness.verify(name)
        drift = max(report.per_resolution.values()) / min(report.per_resolution.values()) - 1.0
        good = np.isfinite(report.c_emp) and report.c_emp > 0 and drift <= 0.5
        ok = ok and good
        details.append(f"{name}: c_emp={report.c_emp:.3f} drift={drift:.1%}")
    runtime = time.perf_counter() - t0
    ok = ok and runtime < 120.0
    _report("05", "riesz-and-product-laws", ok, "; ".join(details) + f" runtime={runtime:.1f}s")


def test_06_transport_oracle():
    t0 = time.perf_counter()
    grid = make_grid(128, 2 * np.pi)

    def profile(x1, x2):
        return np.sin(3 * x1) * np.cos(2 * x2) + 0.5 * np.cos(5 * x1 + x2)

    c = (1.0, 0.0)
    f0 = SpectralField.from_values(grid, profile(grid.x1, grid.x2))
    v = VectorField.from_values(
        grid, np.full((128, 128), c[0]), np.full((128, 128), c[1])
    )

    traj = solve(TransportProblem(f0, v, T=1.0, dt=1e-3), observers=10**6)
    exact = profile(grid.x1 - c[0], grid.x2 - c[1])
    err_main = float(np.max(np.abs(traj.final().values() - exact)))

    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        if dt == 1e-3:
            errors.append(err_main)
            continue
        tr = solve(TransportProblem(f0, v, T=1.0, dt=dt), observers=10**6)
        errors.append(float(np.max(np.abs(tr.final().values() - exact))))
    order_ok = errors[0] / errors[1] >= 8.0 and errors[1] / errors[2] >= 8.0
    runtime = time.perf_counter() - t0
    ok = err_main < 1e-8 and order_ok and runtime < 60.0
    _report(
        "06", "transport-oracle", ok,
        f"translation_err={err_main:.2e} dt_errors={[f'{e:.2e}' for e in errors]} "
        f"runtime={runtime:.1f}s",
    )


def test_07_hydrostatic_steady_state():
    t0 = time.perf_counter()
    grid = make_grid(64, 2 * np.pi)
    state0 = bq.hydrostatic_data(grid)
    final, record = bq.run_direct(state0, 5.0, 0.02, 1.5)
    u_dev = vec_linf(final.u)
    theta_dev = linf_norm(final.theta - state0.theta)
    bkm = record.final().bkm_integral
    runtime = time.perf_counter() - t0
    ok = u_dev <= 1e-8 and theta_dev <= 1e-8 and bkm <= 1e-8 and runtime < 60.0
    _report(
        "07", "hydrostatic-steady-state", ok,
        f"u_inf={u_dev:.2e} theta_drift={theta_dev:.2e} bkm={bkm:.2e} runtime={runtime:.1f}s",
    )


def test_08_euler_reduction():
    t0 = time.perf_counter()
    grid = make_grid(64, 2 * np.pi)
    state0 = bq.taylor_green_data(grid, 1.0, 0.0)
    with_buoyancy, _ = bq.run_direct(state0, 1.0, 1e-3, 1.5, buoyancy=True)
    without, _ = bq.run_direct(state0, 1.0, 1e-3, 1.5, buoyancy=False)
    dev = max(
        rel_linf(with_buoyancy.u.u1, without.u.u1),
        rel_linf(with_buoyancy.u.u2, without.u.u2),
        linf_norm(with_buoyancy.theta - without.theta),
    )
    runtime = time.perf_counter() - t0
    ok = dev <= 1e-12 and runtime < 60.0
    _report("08", "euler-reduction", ok, f"trajectory_dev={dev:.2e} runtime={runtime:.1f}s")


def test_09_a_priori_envelopes(taylor_green_run, reports):
    t0 = time.perf_counter()
    record = taylor_green_run["record"]
    state0 = taylor_green_run["state0"]
    r = 1.5
    # the envelopes start from the record's first sample, the initial norms
    initial = record.samples[0]
    assert initial.theta_r == holder_norm(state0.theta, r)
    assert initial.u_r == holder_norm_vector(state0.u, r)
    c_frozen = harness.gronwall_constant(reports, r)
    verdict = bq.continuation_check(record, c_frozen)
    theta_leg, u_leg = verdict.theta_envelope, verdict.u_envelope
    runtime = time.perf_counter() - t0
    margins_set = min(theta_leg.min_margin, u_leg.min_margin) > 0.0
    ok = theta_leg.passed and u_leg.passed and margins_set and runtime < 120.0
    _report(
        "09", "a-priori-envelopes", ok,
        f"C={c_frozen:.3f} theta_margin={theta_leg.min_margin:.2e} "
        f"(t={theta_leg.worst_time:g}) u_margin={u_leg.min_margin:.2e} "
        f"(t={u_leg.worst_time:g}) runtime={runtime:.1f}s",
    )


def test_10_iteration_contraction(small_data, reports):
    t0 = time.perf_counter()
    theta0, u0 = small_data
    r, dt, tol = 1.5, 2e-3, 1e-13
    thresholds = harness.compute_thresholds(theta0, u0, r, reports)
    T = thresholds.t_star / 2.0
    records = bq.iterate_scheme(bq.BoussinesqState.of(theta0, u0), r, 25, T, dt, tol)

    gaps = [max(rec.cauchy_gap_theta, rec.cauchy_gap_u) for rec in records]
    tail = [g for rec, g in zip(records, gaps) if rec.n >= 3]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    summary = harness.contraction_report(records)
    rho_ok = summary.converged or (summary.rho is not None and summary.rho <= 0.8)

    final, _ = bq.run_direct(bq.BoussinesqState.of(theta0, u0), T, dt, r)
    limit_dist = max(
        holder_norm(records[-1].state.theta - final.theta, r - 1),
        holder_norm_vector(records[-1].state.u - final.u, r - 1),
    )
    runtime = time.perf_counter() - t0
    ok = (
        len(records) >= 4
        and monotone
        and rho_ok
        and limit_dist <= 10.0 * tol
        and runtime < 300.0
    )
    rho_str = "converged" if summary.rho is None else f"{summary.rho:.3g}"
    _report(
        "10", "iteration-contraction", ok,
        f"T={T:.4f} iterations={len(records)} rho={rho_str} monotone={monotone} "
        f"limit_dist={limit_dist:.2e} runtime={runtime:.1f}s",
    )


def test_11_threshold_formulas(thresholds_data, reports):
    harness.compute_a0()  # session-cached constant, excluded from the timing
    t0 = time.perf_counter()
    theta0, u0 = thresholds_data
    report = harness.compute_thresholds(theta0, u0, 1.5, reports)
    positive = all(t > 0 for t in report.t1) and all(t > 0 for t in report.t2)

    import math

    u_hand = bq.synthesize_divfree_velocity(make_grid(64, 2 * np.pi), 1.5, 1.0, 7)
    zero_theta = SpectralField.zero(make_grid(64, 2 * np.pi))
    hand = harness.compute_thresholds(
        zero_theta, u_hand, 1.5, P=math.e / 2.2, Q=0.5, a0=2.2, C=1.0
    )
    hand_ok = (
        abs(hand.t1[0] - 1.0) < 1e-12
        and abs(hand.t1[1] - math.log(1.1) / 3.0) < 1e-12
    )
    residual_ok = (
        report.t2_3_interior
        and report.t2_3_residual is not None
        and report.t2_3_residual <= 1e-10
    )
    runtime = time.perf_counter() - t0
    ok = positive and hand_ok and residual_ok and runtime < 1.0
    _report(
        "11", "threshold-formulas", ok,
        f"t_star={report.t_star:.4g} positive={positive} hand_cases={hand_ok} "
        f"residual={report.t2_3_residual:.1e} runtime={runtime:.2f}s",
    )


def test_12_uniqueness_probe():
    t0 = time.perf_counter()
    grid = make_grid(64, 2 * np.pi)
    state0 = bq.taylor_green_data(grid, 1.0, 0.05)
    c4, c5 = bq.uniqueness_probe(state0, [1e-4, 1e-5], 0.5, 2e-3, 1.5)
    ratio_theta = c4.terminal_theta_gap / c5.terminal_theta_gap
    ratio_u = c4.terminal_u_gap / c5.terminal_u_gap
    runtime = time.perf_counter() - t0
    ok = 7.0 <= ratio_theta <= 13.0 and 7.0 <= ratio_u <= 13.0 and runtime < 120.0
    _report(
        "12", "uniqueness-probe", ok,
        f"theta_ratio={ratio_theta:.2f} u_ratio={ratio_u:.2f} runtime={runtime:.1f}s",
    )
