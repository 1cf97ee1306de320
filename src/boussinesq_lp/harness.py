"""Empirical-constant reports and existence-time formulas.

Every inequality used by the solver analysis carries an unnamed constant.
This module measures those constants over a randomized corpus of
synthesized Hoelder fields (and along solved trajectories for the
dynamic bounds), freezes them with a 2x safety factor, and evaluates the
existence-time formulas with the frozen constants substituted.

The corpus fields depend only on (grid, r, seed, amplitude).  They are
synthesized once and kept in ``_RUN_CACHE`` next to the solved runs, so
every static estimate measured in one process reads the same fields;
clearing ``_RUN_CACHE`` drops them.

Registered estimate names:

    lemma2.1   commutator bound  2^{qr} ||[v.grad, D_q]f|| <= C ||f||_r ||grad v||
    lemma2.2.1 sup-norm embedding  ||f||_inf <= C ||f||_r
    lemma2.2.3 homogeneous B^1_{inf,1} embedding into C^r (r > 1)
    lemma2.3   product law  ||fg||_s <= C(||f||_inf ||g||_s + ||g||_inf ||f||_s)
    lemma2.4   advection product  ||u.grad v||_r <= C ||u||_r ||v||_{B^1_{inf,1}}
    lemma2.5   Riesz boundedness  ||grad inv-lap div w||_r <= C ||w||_r
    eq4.18     pressure bilinear bound in C^rho, rho = r-1 in (0,1)
    lemma3.1   transport growth along solved trajectories
    eq3.3      temperature Gronwall exponent along coupled runs
    eq3.4      velocity integral inequality along coupled runs
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boussinesq import (
    BoussinesqState,
    IterationRecord,
    MonitorRecord,
    run_direct,
    synthesize_divfree_velocity,
    synthesize_holder_field,
    taylor_green_data,
    velocity_envelope,
)
from .littlewood_paley import (
    besov_norm,
    build_partition,
    commutator,
    compute_a0,
    holder_norm,
    holder_norm_vector,
)
from .spectral import (
    SpectralField,
    VectorField,
    advect,
    advect_vector,
    dealias,
    grad_inv_laplacian_div,
    grad_linf_norm,
    linf_norm,
    make_grid,
)
from .transport import TransportProblem, solve

__all__ = [
    "CorpusSpec",
    "EstimateSample",
    "EstimateReport",
    "ThresholdReport",
    "ThresholdDomainError",
    "ContractionSummary",
    "EnvelopeVerdict",
    "ESTIMATE_NAMES",
    "default_corpus",
    "verify",
    "frozen_constant",
    "gronwall_constant",
    "compute_thresholds",
    "contraction_report",
    "blowup_envelope_check",
    "temperature_envelope_check",
]

DEGENERATE_RHS = 1e-13


@dataclass(frozen=True)
class CorpusSpec:
    """Randomized corpus: Hoelder exponents x seeds x resolutions."""

    r_values: tuple = (1.1, 1.5, 2.0, 2.5, 3.0)
    seeds: tuple = tuple(range(10))
    resolutions: tuple = (64, 128)
    box: float = 2.0 * np.pi
    amplitude: float = 1.0


def default_corpus() -> CorpusSpec:
    return CorpusSpec()


@dataclass
class EstimateSample:
    descriptor: str
    lhs: float
    rhs: float
    ratio: float | None
    r: float
    n: int
    flagged: bool = False


@dataclass
class EstimateReport:
    """Measured ratios for one estimate, with the frozen constant."""

    name: str
    samples: list[EstimateSample]
    resolutions: tuple
    c_emp: float
    c_frozen: float
    per_resolution: dict = field(default_factory=dict)
    per_r: dict = field(default_factory=dict)
    stable: bool = True
    flagged_count: int = 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "c_emp": self.c_emp,
            "c_frozen": self.c_frozen,
            "resolutions": list(self.resolutions),
            "stable": self.stable,
            "per_resolution": {str(k): v for k, v in self.per_resolution.items()},
            "per_r": {f"{k:g}": v for k, v in self.per_r.items()},
            "flagged": self.flagged_count,
            "samples": [
                {
                    "descriptor": s.descriptor,
                    "lhs": s.lhs,
                    "rhs": s.rhs,
                    "ratio": s.ratio,
                }
                for s in self.samples
            ],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _finish(name: str, samples: list[EstimateSample], resolutions) -> EstimateReport:
    ratios = [s.ratio for s in samples if s.ratio is not None and not s.flagged]
    if not ratios:
        raise ValueError(f"estimate {name}: no usable samples")
    c_emp = max(ratios)
    per_resolution = {}
    for n in sorted({s.n for s in samples}):
        rs = [s.ratio for s in samples if s.n == n and s.ratio is not None and not s.flagged]
        if rs:
            per_resolution[n] = max(rs)
    per_r = {}
    for r in sorted({s.r for s in samples}):
        rs = [s.ratio for s in samples if s.r == r and s.ratio is not None and not s.flagged]
        if rs:
            per_r[r] = max(rs)
    stable = True
    vals = list(per_resolution.values())
    if len(vals) >= 2 and min(vals) > 0:
        stable = (max(vals) / min(vals) - 1.0) <= 0.5
    return EstimateReport(
        name=name,
        samples=samples,
        resolutions=tuple(resolutions),
        c_emp=c_emp,
        c_frozen=2.0 * c_emp,
        per_resolution=per_resolution,
        per_r=per_r,
        stable=stable,
        flagged_count=sum(1 for s in samples if s.flagged),
    )


def _ratio_sample(descriptor, lhs, rhs, r, n) -> EstimateSample:
    if rhs < DEGENERATE_RHS:
        if lhs > DEGENERATE_RHS:
            return EstimateSample(descriptor, lhs, rhs, None, r, n, flagged=True)
        return EstimateSample(descriptor, lhs, rhs, 0.0, r, n)
    return EstimateSample(descriptor, lhs, rhs, lhs / rhs, r, n)


# ---------------------------------------------------------------------------
# single-sample ratio kernels (also used by the scale-invariance checks)


def commutator_sample(v: VectorField, f: SpectralField, q: int, r: float) -> tuple[float, float]:
    part = build_partition(f.grid)
    lhs = linf_norm(commutator(v, q, f, part))
    rhs = 2.0 ** (-q * r) * holder_norm(f, r, part).value * grad_linf_norm(v)
    return lhs, rhs


def embedding_linf_sample(f: SpectralField, r: float) -> tuple[float, float]:
    return linf_norm(f), holder_norm(f, r).value


def embedding_b1_sample(f: SpectralField, r: float) -> tuple[float, float]:
    rep = besov_norm(f, 1.0, np.inf, 1.0)
    return rep.homogeneous_value, holder_norm(f, r).value


def product_sample(f: SpectralField, g: SpectralField, s: float) -> tuple[float, float]:
    prod = dealias(SpectralField.from_values(f.grid, f.values() * g.values()))
    lhs = holder_norm(prod, s).value
    rhs = linf_norm(f) * holder_norm(g, s).value + linf_norm(g) * holder_norm(f, s).value
    return lhs, rhs


def advection_product_sample(u: VectorField, f: SpectralField, r: float) -> tuple[float, float]:
    lhs = holder_norm(advect(u, f), r).value
    rhs = holder_norm_vector(u, r) * besov_norm(f, 1.0, np.inf, 1.0).value
    return lhs, rhs


def riesz_sample(w: VectorField, r: float) -> tuple[float, float]:
    return holder_norm_vector(grad_inv_laplacian_div(w), r), holder_norm_vector(w, r)


def pressure_bilinear_sample(v: VectorField, w: VectorField, rho: float) -> tuple[float, float]:
    pi = -grad_inv_laplacian_div(advect_vector(v, w))
    lhs = holder_norm_vector(pi, rho)
    factor = 1.0 / (1.0 + rho) + 1.0 / (1.0 - rho)
    rhs = factor * min(
        grad_linf_norm(v) * holder_norm_vector(w, rho),
        holder_norm_vector(v, rho) * grad_linf_norm(w),
    )
    return lhs, rhs


def transport_growth_ratio(norm_t: float, norm_0: float, weighted_integral: float) -> float | None:
    """Affine transport bound: (||f(t)|| - ||f0||) / int ||grad v|| ||f|| ds."""
    if weighted_integral < 1e-12:
        return None
    return max(0.0, norm_t - norm_0) / weighted_integral


def theta_growth_ratio(theta_t: float, theta_0: float, bkm_t: float) -> float | None:
    """Gronwall exponent: ln(||theta(t)|| / ||theta0||) / int ||grad u||."""
    if bkm_t < 1e-8 or theta_0 <= 0.0 or theta_t <= 0.0:
        return None
    return max(0.0, math.log(theta_t / theta_0)) / bkm_t


def velocity_growth_ratio(
    u_t: float, u_0: float, theta_integral: float, weighted_integral: float, r: float
) -> float | None:
    """Integral inequality slot: (||u(t)|| - ||u0|| - (2+2^-r) int ||theta||)
    divided by 2 int ||u|| ||grad u||."""
    if weighted_integral < 1e-10:
        return None
    excess = u_t - u_0 - (2.0 + 2.0 ** (-r)) * theta_integral
    return max(0.0, excess) / (2.0 * weighted_integral)


def _lemma2_1_samples(fl: dict, r: float, part) -> list[tuple[str, float, float]]:
    # commutator_sample per q with its q-independent norms hoisted; the rhs
    # keeps commutator_sample's factor order, so the floats are the same
    v, f = fl["v"], fl["f"]
    holder_f = holder_norm(f, r, part).value
    grad_v = grad_linf_norm(v)
    return [
        (f",q={q}", linf_norm(commutator(v, q, f, part)), 2.0 ** (-q * r) * holder_f * grad_v)
        for q in range(-1, part.q_max + 1)
    ]


def _eq4_18_samples(fl: dict, r: float, part) -> list[tuple[str, float, float]]:
    pairs = ((fl["v"], fl["w"]), (fl["w"], fl["v"]))
    return [(f",pair={k}", *pressure_bilinear_sample(a, b, r - 1.0)) for k, (a, b) in enumerate(pairs)]


# static estimate -> kernel(fields, r, partition) -> [(descriptor suffix, lhs, rhs)]
_STATIC_KERNELS = {
    "lemma2.1": _lemma2_1_samples,
    "lemma2.2.1": lambda fl, r, part: [("", *embedding_linf_sample(fl["f"], r))],
    "lemma2.2.3": lambda fl, r, part: [("", *embedding_b1_sample(fl["f"], r))],
    "lemma2.3": lambda fl, r, part: [("", *product_sample(fl["f"], fl["g"], r))],
    "lemma2.4": lambda fl, r, part: [("", *advection_product_sample(fl["v"], fl["f"], r))],
    "lemma2.5": lambda fl, r, part: [("", *riesz_sample(VectorField(fl["f"], fl["g"]), r))],
    "eq4.18": _eq4_18_samples,
}

# the static estimates, then the ones measured along transport and coupled runs
ESTIMATE_NAMES = (*_STATIC_KERNELS, "lemma3.1", "eq3.3", "eq3.4")


# ---------------------------------------------------------------------------
# corpus sweeps


_RUN_CACHE: dict = {}


def _fields(grid, r, seed, amplitude):
    key = ("fields", grid, r, seed, amplitude)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = {
            "f": synthesize_holder_field(grid, r, amplitude, seed),
            "g": synthesize_holder_field(grid, r, amplitude, seed + 10_000),
            "v": synthesize_divfree_velocity(grid, r, amplitude, seed + 20_000),
            "w": synthesize_divfree_velocity(grid, r, amplitude, seed + 30_000),
        }
    return _RUN_CACHE[key]


def _static_sweep(name: str, corpus: CorpusSpec, resolutions) -> list[EstimateSample]:
    kernel = _STATIC_KERNELS[name]
    samples = []
    for n in resolutions:
        grid = make_grid(n, corpus.box)
        part = build_partition(grid)
        for r in corpus.r_values:
            if name == "eq4.18" and not (1.0 < r < 2.0):
                continue
            for seed in corpus.seeds:
                fl = _fields(grid, r, seed, corpus.amplitude)
                tag = f"n={n},r={r:g},seed={seed}"
                for suffix, lhs, rhs in kernel(fl, r, part):
                    samples.append(_ratio_sample(tag + suffix, lhs, rhs, r, n))
    return samples


def _transport_runs(corpus: CorpusSpec, n: int):
    key = ("transport", corpus, n)
    if key not in _RUN_CACHE:
        grid = make_grid(n, corpus.box)
        runs = []
        r_values = (1.5, 2.5)
        seeds = corpus.seeds[:3] if n <= 64 else corpus.seeds[:2]
        for r in r_values:
            for seed in seeds:
                v = synthesize_divfree_velocity(grid, r, corpus.amplitude, seed + 40_000)
                f0 = synthesize_holder_field(grid, r, corpus.amplitude, seed + 50_000)
                traj = solve(TransportProblem(f0, v, None, T=0.4, dt=2e-3), observers=20)
                runs.append((r, seed, v, f0, traj))
        _RUN_CACHE[key] = runs
    return _RUN_CACHE[key]


def _coupled_runs(corpus: CorpusSpec, n: int):
    """Short coupled runs whose monitors feed the dynamic estimates."""
    key = ("coupled", corpus, n)
    if key not in _RUN_CACHE:
        grid = make_grid(n, corpus.box)
        runs = []
        r_values = (1.5, 2.5)
        for r in r_values:
            configs = [
                ("tg-strong", taylor_green_data(grid, 1.0, 0.05)),
                ("tg-mixed", taylor_green_data(grid, 0.7, 0.1)),
            ]
            if n <= 64:
                theta0 = synthesize_holder_field(grid, r, 0.3, 61_000)
                u0 = synthesize_divfree_velocity(grid, r, 0.5, 62_000)
                configs.append(("random", BoussinesqState(theta0, u0, 0.0)))
            for label, state0 in configs:
                T = 0.5 if n <= 64 else 0.3
                _, record = run_direct(state0, T, 2e-3, r)
                runs.append((r, label, state0, record))
        _RUN_CACHE[key] = runs
    return _RUN_CACHE[key]


def _dynamic_sweep(name: str, corpus: CorpusSpec, resolutions) -> list[EstimateSample]:
    samples = []
    for n in resolutions:
        if name == "lemma3.1":
            for r, seed, v, f0, traj in _transport_runs(corpus, n):
                gradv = grad_linf_norm(v)
                norm0 = holder_norm(f0, r).value
                times = np.array(traj.times)
                norms = np.array([holder_norm(f, r).value for f in traj.fields])
                for i in range(1, len(times)):
                    weighted = float(np.trapezoid(gradv * norms[: i + 1], times[: i + 1]))
                    ratio = transport_growth_ratio(norms[i], norm0, weighted)
                    tag = f"n={n},r={r:g},seed={seed},t={times[i]:.3f}"
                    if ratio is None:
                        samples.append(EstimateSample(tag, norms[i] - norm0, weighted, None, r, n))
                    else:
                        samples.append(EstimateSample(tag, norms[i] - norm0, weighted, ratio, r, n))
        elif name in ("eq3.3", "eq3.4"):
            for r, label, state0, record in _coupled_runs(corpus, n):
                t = record.times()
                theta_r = record.series("theta_r")
                u_r = record.series("u_r")
                grad_u = record.series("grad_u_inf")
                bkm = record.series("bkm_integral")
                stride = max(1, (len(t) - 1) // 12)
                for i in range(stride, len(t), stride):
                    tag = f"n={n},r={r:g},{label},t={t[i]:.3f}"
                    if name == "eq3.3":
                        ratio = theta_growth_ratio(theta_r[i], theta_r[0], bkm[i])
                        if ratio is not None:
                            samples.append(
                                EstimateSample(tag, theta_r[i], theta_r[0] * bkm[i], ratio, r, n)
                            )
                    else:
                        weighted = float(np.trapezoid(u_r[: i + 1] * grad_u[: i + 1], t[: i + 1]))
                        theta_int = float(np.trapezoid(theta_r[: i + 1], t[: i + 1]))
                        ratio = velocity_growth_ratio(u_r[i], u_r[0], theta_int, weighted, r)
                        if ratio is not None:
                            samples.append(
                                EstimateSample(tag, u_r[i], 2.0 * weighted, ratio, r, n)
                            )
        else:
            raise ValueError(f"unknown dynamic estimate {name!r}")
    return samples


def verify(
    name: str,
    corpus: CorpusSpec | None = None,
    resolutions: tuple | None = None,
) -> EstimateReport:
    """Measure one registered estimate over the corpus."""
    if name not in ESTIMATE_NAMES:
        raise ValueError(f"unknown estimate {name!r}; registered: {ESTIMATE_NAMES}")
    corpus = corpus or default_corpus()
    resolutions = tuple(resolutions or corpus.resolutions)
    if name in _STATIC_KERNELS:
        samples = _static_sweep(name, corpus, resolutions)
    else:
        samples = _dynamic_sweep(name, corpus, resolutions)
    return _finish(name, samples, resolutions)


def frozen_constant(reports, name: str, r: float | None = None) -> float:
    """Frozen (2x) constant for an estimate, per-exponent when available."""
    if isinstance(reports, EstimateReport):
        rep = reports
    else:
        by_name = {rep.name: rep for rep in (reports.values() if isinstance(reports, dict) else reports)}
        rep = by_name[name]
    if r is not None:
        for rv, c in rep.per_r.items():
            if abs(rv - r) < 1e-9:
                return 2.0 * c
    return rep.c_frozen


GRONWALL_SOURCES = ("lemma2.1", "lemma3.1", "eq3.3", "eq3.4")


def gronwall_constant(reports, r: float | None = None) -> float:
    """Frozen constant for Gronwall-type replays.

    The exponent slot in the growth bounds is the commutator constant;
    the dynamic measurements can come out at zero on mild runs (norms
    that never grow), so the frozen value dominates every available
    source rather than trusting a single degenerate one.
    """
    by_name = {rep.name: rep for rep in (reports.values() if isinstance(reports, dict) else reports)}
    values = []
    for name in GRONWALL_SOURCES:
        if name in by_name:
            values.append(frozen_constant(by_name[name], name, r))
    if not values:
        raise ValueError(f"no Gronwall source among reports; need one of {GRONWALL_SOURCES}")
    return max(values)


# ---------------------------------------------------------------------------
# existence-time formulas


class ThresholdDomainError(ValueError):
    """A time formula left its domain (logarithm argument <= 1)."""

    def __init__(self, formula: str, message: str):
        super().__init__(f"{formula}: {message}")
        self.formula = formula


@dataclass
class ThresholdReport:
    a0: float
    P: float
    Q: float
    S: float
    C: float
    r: float
    theta0_r: float
    u0_r: float
    t1: list[float]
    t2: list[float]
    t_star: float
    t2_3_residual: float | None
    t2_3_interior: bool

    def to_dict(self) -> dict:
        return {
            "a0": self.a0,
            "P": self.P,
            "Q": self.Q,
            "S": self.S,
            "C": self.C,
            "r": self.r,
            "theta0_r": self.theta0_r,
            "u0_r": self.u0_r,
            "t1": self.t1,
            "t2": self.t2,
            "t_star": self.t_star,
            "t2_3_residual": self.t2_3_residual,
            "t2_3_interior": self.t2_3_interior,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _ln_or_raise(arg: float, formula: str) -> float:
    if not arg > 1.0:
        raise ThresholdDomainError(formula, f"logarithm argument {arg:.6g} <= 1")
    return math.log(arg)


def compute_thresholds(
    theta0: SpectralField,
    u0: VectorField,
    r: float,
    reports=None,
    *,
    P: float = 32.0,
    Q: float = 32.0,
    S: float | None = None,
    a0: float | None = None,
    C: float | None = None,
) -> ThresholdReport:
    """Evaluate the eight existence-time formulas with frozen constants.

    C defaults to the frozen commutator constant at this exponent; a0 to
    the measured kernel mass; S to 10x the larger initial norm.
    """
    tn = holder_norm(theta0, r).value
    un = holder_norm_vector(u0, r)
    if C is None:
        if reports is None:
            raise ValueError("need estimate reports or an explicit constant C")
        C = frozen_constant(reports, "lemma2.1", r)
    if a0 is None:
        a0 = compute_a0().a0
    if S is None:
        S = 10.0 * max(tn, un, 1e-12)
    if un <= 0.0:
        raise ThresholdDomainError("T1_1", "initial velocity norm is zero")

    pa, qa = P * a0, Q * a0

    t1_1 = _ln_or_raise(pa, "T1_1") / (C * un)
    t1_2 = _ln_or_raise(qa, "T1_2") / (3.0 * C * un + 2.0 * pa * tn / un)
    t1_3 = _ln_or_raise(pa, "T1_3") / (C * qa * un)
    t1_4 = _ln_or_raise(qa, "T1_4") / (3.0 * C * qa * un + 2.0 * pa * tn / un)

    t2_1a = _ln_or_raise(S / un, "T2_1") / (2.0 * C * qa * un)
    t2_1b = _ln_or_raise(S / tn, "T2_1") / (3.0 * C * qa * un) if tn > 0 else np.inf
    t2_1 = min(t2_1a, t2_1b)
    t2_2 = _ln_or_raise(pa / (5.0 * C * Q * un), "T2_2") / (3.0 * C * qa * un)

    # implicit horizon: unique positive root of an increasing function
    target = Q * a0**2 / 5.0
    coeff = 2.0 * C * pa * tn / (C * qa * un)

    def gap(t: float) -> float:
        return coeff * math.exp(3.0 * C * t * qa * un) * t - target

    t2_3_residual: float | None = None
    if tn <= 0.0 or gap(t2_2) < 0.0:
        t2_3 = t2_2  # constraint slack on the whole admissible window
        interior = False
    else:
        lo, hi = 0.0, t2_2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-14:
                break
        t2_3 = 0.5 * (lo + hi)
        t2_3_residual = hi - lo
        interior = True

    if tn > 0.0:
        arg = 1.0 + pa * (C * qa * un) ** 2 / (5.0 * C * pa * tn)
        t2_4 = _ln_or_raise(arg, "T2_4") / (C * qa * un)
    else:
        t2_4 = np.inf

    t1 = [t1_1, t1_2, t1_3, t1_4]
    t2 = [t2_1, t2_2, t2_3, t2_4]
    t_star = min(min(t1), min(t2))
    return ThresholdReport(
        a0=a0, P=P, Q=Q, S=S, C=C, r=r, theta0_r=tn, u0_r=un,
        t1=t1, t2=t2, t_star=t_star,
        t2_3_residual=t2_3_residual, t2_3_interior=interior,
    )


# ---------------------------------------------------------------------------
# contraction and envelope verdicts


@dataclass
class ContractionSummary:
    rho: float | None
    alpha: float | None
    monotone: bool
    converged: bool
    final_gap: float
    n_used: int
    contracting: bool

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "alpha": self.alpha,
            "monotone": self.monotone,
            "converged": self.converged,
            "final_gap": self.final_gap,
            "n_used": self.n_used,
            "contracting": self.contracting,
        }


RHO_TARGET = 3.0 / 5.0 + 0.2


def contraction_report(records: list[IterationRecord]) -> ContractionSummary:
    """Fit the Cauchy gaps against alpha * rho^n and judge contraction."""
    if len(records) < 4:
        raise ValueError(f"need at least 4 iterations, got {len(records)}")
    ns = np.array([rec.n for rec in records], dtype=float)
    gaps = np.array([max(rec.cauchy_gap_theta, rec.cauchy_gap_u) for rec in records])
    final_gap = float(gaps[-1])

    usable = gaps > 1e-14
    if usable.sum() < 2:
        return ContractionSummary(None, None, True, True, final_gap, int(usable.sum()), True)

    monotone = bool(np.all(np.diff(gaps[usable]) <= 1e-12 + 1e-9 * gaps[usable][:-1]))
    if not monotone:
        return ContractionSummary(None, None, False, False, final_gap, int(usable.sum()), False)

    x = ns[usable]
    y = np.log(gaps[usable])
    slope, intercept = np.polyfit(x, y, 1)
    rho = float(np.exp(slope))
    alpha = float(np.exp(intercept))
    converged = final_gap < 1e-14
    return ContractionSummary(
        rho=rho,
        alpha=alpha,
        monotone=True,
        converged=converged,
        final_gap=final_gap,
        n_used=int(usable.sum()),
        contracting=converged or rho <= RHO_TARGET,
    )


@dataclass
class EnvelopeVerdict:
    passed: bool
    min_margin: float
    worst_time: float
    margins: np.ndarray

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_margin": self.min_margin,
            "worst_time": self.worst_time,
        }


def blowup_envelope_check(
    record: MonitorRecord,
    theta0_r: float,
    u0_r: float,
    r: float,
    c_frozen: float,
) -> EnvelopeVerdict:
    """Replay the Gronwall velocity envelope along a recorded run."""
    env = velocity_envelope(record, theta0_r, u0_r, c_frozen, r=r)
    measured = record.series("u_r")
    margins = env - measured
    worst = int(np.argmin(margins))
    return EnvelopeVerdict(
        passed=bool(np.all(measured <= env * (1.0 + 1e-9) + 1e-12)),
        min_margin=float(margins[worst]),
        worst_time=float(record.times()[worst]),
        margins=margins,
    )


def temperature_envelope_check(
    record: MonitorRecord, theta0_r: float, c_frozen: float
) -> EnvelopeVerdict:
    """Replay the temperature Gronwall bound ||theta(t)|| <= ||theta0|| e^{C I(t)}."""
    env = theta0_r * np.exp(c_frozen * record.series("bkm_integral"))
    measured = record.series("theta_r")
    margins = env - measured
    worst = int(np.argmin(margins))
    return EnvelopeVerdict(
        passed=bool(np.all(measured <= env * (1.0 + 1e-9) + 1e-12)),
        min_margin=float(margins[worst]),
        worst_time=float(record.times()[worst]),
        margins=margins,
    )
