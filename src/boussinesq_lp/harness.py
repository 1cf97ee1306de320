"""Empirical-constant reports and existence-time formulas.

Every inequality used by the solver analysis carries an unnamed constant.
This module measures those constants over a randomized corpus of
synthesized Hoelder fields (and along solved trajectories for the
dynamic bounds), freezes them with a 2x safety factor, and evaluates the
existence-time formulas with the frozen constants substituted.

The corpus fields depend only on (grid, r, seed, amplitude).  They are
synthesized once and kept in ``_RUN_CACHE`` next to the solved runs, so
every static estimate measured in one process reads the same fields;
clearing ``_RUN_CACHE`` drops them.  The coupled runs are cached there
too, and a Taylor-Green run is integrated once per n for both exponents.

Each estimate is one ``_SWEEPS`` entry name -> (sweep, domain): a ratio
kernel on the corpus fields (``_static``) or a slot of the coupled runs
(``_coupled``); registered are:

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

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .boussinesq import (
    BoussinesqState,
    IterationRecord,
    MonitorRecord,
    run_direct,
    synthesize_divfree_velocity,
    synthesize_holder_field,
    taylor_green_data,
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
    "EstimateDomainError",
    "ContractionSummary",
    "ESTIMATE_NAMES",
    "verify",
    "frozen_constant",
    "gronwall_constant",
    "compute_thresholds",
    "contraction_report",
]

DEGENERATE_RHS = 1e-13


@dataclass(frozen=True)
class CorpusSpec:
    """Randomized corpus: Hoelder exponents x seeds x resolutions."""

    r_values: tuple = (1.1, 1.5, 2.0, 2.5, 3.0)
    seeds: tuple = tuple(range(10))
    resolutions: tuple = (64, 128)
    amplitude: float = 1.0
    box = 2.0 * np.pi  # the side of every corpus grid; unannotated, so a constant, not a field


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
        """The fields as JSON: ``flagged_count`` written as ``flagged``, dict
        keys as strings, and each sample as its descriptor, lhs, rhs, ratio."""
        d = asdict(self)
        d["flagged"] = d.pop("flagged_count")
        d["per_resolution"] = {str(k): v for k, v in self.per_resolution.items()}
        d["per_r"] = {f"{k:g}": v for k, v in self.per_r.items()}
        d["samples"] = [{k: s[k] for k in ("descriptor", "lhs", "rhs", "ratio")} for s in d["samples"]]
        return d


def _max_ratio_by(samples: list[EstimateSample], key) -> dict:
    """The largest ratio among the samples sharing each key, in key order."""
    best: dict = {}
    for s in samples:
        k = key(s)
        best[k] = max(best.get(k, s.ratio), s.ratio)
    return dict(sorted(best.items()))


def _finish(name: str, samples: list[EstimateSample], resolutions) -> EstimateReport:
    usable = [s for s in samples if s.ratio is not None and not s.flagged]
    if not usable:
        raise ValueError(f"estimate {name}: no usable samples")
    c_emp = max(s.ratio for s in usable)
    per_resolution = _max_ratio_by(usable, lambda s: s.n)
    vals = per_resolution.values()
    spread = max(vals) / min(vals) - 1.0 if len(vals) >= 2 and min(vals) > 0 else 0.0
    return EstimateReport(
        name=name,
        samples=samples,
        resolutions=tuple(resolutions),
        c_emp=c_emp,
        c_frozen=2.0 * c_emp,
        per_resolution=per_resolution,
        per_r=_max_ratio_by(usable, lambda s: s.r),
        stable=bool(spread <= 0.5),
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
    lhs = linf_norm(commutator(v, q, f))
    rhs = 2.0 ** (-q * r) * holder_norm(f, r) * grad_linf_norm(v)
    return lhs, rhs


def embedding_linf_sample(f: SpectralField, r: float) -> tuple[float, float]:
    return linf_norm(f), holder_norm(f, r)


def embedding_b1_sample(f: SpectralField, r: float) -> tuple[float, float]:
    rep = besov_norm(f, 1.0, np.inf, 1.0)
    return rep.homogeneous_value, holder_norm(f, r)


def product_sample(f: SpectralField, g: SpectralField, s: float) -> tuple[float, float]:
    prod = dealias(SpectralField.from_values(f.grid, f.values() * g.values()))
    lhs = holder_norm(prod, s)
    rhs = linf_norm(f) * holder_norm(g, s) + linf_norm(g) * holder_norm(f, s)
    return lhs, rhs


def advection_product_sample(u: VectorField, f: SpectralField, r: float) -> tuple[float, float]:
    lhs = holder_norm(advect(u, f), r)
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


# ---------------------------------------------------------------------------
# corpus sweeps: each registered estimate is one _SWEEPS entry


_RUN_CACHE: dict = {}


def _cached(key, build):
    """``_RUN_CACHE[key]``, built by ``build()`` on first use."""
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = build()
    return _RUN_CACHE[key]


def _fields(grid, r, seed, amplitude):
    return _cached(("fields", grid, r, seed, amplitude), lambda: {
        "f": synthesize_holder_field(grid, r, amplitude, seed),
        "g": synthesize_holder_field(grid, r, amplitude, seed + 10_000),
        "v": synthesize_divfree_velocity(grid, r, amplitude, seed + 20_000),
        "w": synthesize_divfree_velocity(grid, r, amplitude, seed + 30_000),
    })


def _static(kernel, domain: tuple[float, float] | None = None):
    """Sweep of a static estimate, with its domain: ``kernel(fields, r)``
    yields (descriptor suffix, lhs, rhs) on the field set of each (r, seed)."""
    def sweep(corpus: CorpusSpec, n: int):
        grid = make_grid(n, corpus.box)
        for r in corpus.r_values:
            for seed in corpus.seeds:
                tag = f"n={n},r={r:g},seed={seed}"
                for suffix, lhs, rhs in kernel(_fields(grid, r, seed, corpus.amplitude), r):
                    yield _ratio_sample(tag + suffix, lhs, rhs, r, n)
    return sweep, domain


def _lemma2_1_samples(fl: dict, r: float) -> list[tuple[str, float, float]]:
    # the q-independent norms are cached on f and v, so each is paid once
    v, f = fl["v"], fl["f"]
    return [
        (f",q={q}", *commutator_sample(v, f, q, r))
        for q in range(-1, build_partition(f.grid).q_max + 1)
    ]


def _eq4_18_samples(fl: dict, r: float) -> list[tuple[str, float, float]]:
    pairs = ((fl["v"], fl["w"]), (fl["w"], fl["v"]))
    return [(f",pair={k}", *pressure_bilinear_sample(a, b, r - 1.0)) for k, (a, b) in enumerate(pairs)]


# the exponents of the transport and coupled runs; the corpus r_values do not apply
DYNAMIC_R_VALUES = (1.5, 2.5)


def _transport_runs(corpus: CorpusSpec, n: int):
    """Frozen-velocity transport runs whose norms feed lemma3.1."""
    def build():
        grid = make_grid(n, corpus.box)
        runs = []
        for r in DYNAMIC_R_VALUES:
            for seed in corpus.seeds[:3] if n <= 64 else corpus.seeds[:2]:
                v = synthesize_divfree_velocity(grid, r, corpus.amplitude, seed + 40_000)
                f0 = synthesize_holder_field(grid, r, corpus.amplitude, seed + 50_000)
                traj = solve(TransportProblem(f0, v, T=0.4, dt=2e-3), observers=20)
                runs.append((r, seed, v, f0, traj))
        return runs
    return _cached(("transport", corpus, n), build)


def _transport_growth(corpus: CorpusSpec, n: int):
    for r, seed, v, _, traj in _transport_runs(corpus, n):
        gradv = grad_linf_norm(v)
        times = np.array(traj.times)
        norms = np.array([holder_norm(f, r) for f in traj.fields])
        norm0 = norms[0]  # traj.fields[0] is the initial field
        for i in range(1, len(times)):
            weighted = float(np.trapezoid(gradv * norms[: i + 1], times[: i + 1]))
            ratio = transport_growth_ratio(norms[i], norm0, weighted)
            tag = f"n={n},r={r:g},seed={seed},t={times[i]:.3f}"
            yield EstimateSample(tag, norms[i] - norm0, weighted, ratio, r, n)


def _coupled_runs(corpus: CorpusSpec, n: int):
    """Short coupled runs whose monitors feed eq3.3 and eq3.4, as (r, label,
    record), r outermost.  A Taylor-Green run is integrated once per n: its
    record at the second exponent re-reads the norms cached on its states."""
    def build():
        grid = make_grid(n, corpus.box)
        runs = []
        T = 0.5 if n <= 64 else 0.3
        r1, r2 = DYNAMIC_R_VALUES
        for label, state0 in (
            ("tg-strong", taylor_green_data(grid, 1.0, 0.05)),
            ("tg-mixed", taylor_green_data(grid, 0.7, 0.1)),
        ):
            at_r2 = []
            record = run_direct(state0, T, 2e-3, r1, on_step=lambda s: at_r2.append(
                (holder_norm(s.theta, r2), holder_norm_vector(s.u, r2))))[1]
            samples = [replace(m, theta_r=a, u_r=b) for m, (a, b) in zip(record.samples, at_r2)]
            runs += [(r1, label, record), (r2, label, MonitorRecord(r2, samples))]
        if n <= 64:
            for r in DYNAMIC_R_VALUES:  # the random data are drawn at r
                theta0 = synthesize_holder_field(grid, r, 0.3, 61_000)
                u0 = synthesize_divfree_velocity(grid, r, 0.5, 62_000)
                runs.append((r, "random", run_direct(BoussinesqState(theta0, u0, 0.0), T, 2e-3, r)[1]))
        return sorted(runs, key=lambda run: run[0])  # stable: labels keep their order
    return _cached(("coupled", corpus, n), build)


def _coupled(slot):
    """Sweep of a coupled-run estimate: ``slot(t, m, i, r)`` gives
    (lhs, rhs, ratio) at step i of the monitor series m, read at every
    twelfth of each run; a None ratio gives no sample."""
    def sweep(corpus: CorpusSpec, n: int):
        for r, label, record in _coupled_runs(corpus, n):
            t = record.times()
            m = {key: record.series(key) for key in ("theta_r", "u_r", "grad_u_inf", "bkm_integral")}
            stride = max(1, (len(t) - 1) // 12)
            for i in range(stride, len(t), stride):
                lhs, rhs, ratio = slot(t, m, i, r)
                if ratio is not None:
                    yield EstimateSample(f"n={n},r={r:g},{label},t={t[i]:.3f}", lhs, rhs, ratio, r, n)
    return sweep, None


def _theta_growth_slot(t, m, i, r):
    theta, bkm = m["theta_r"], m["bkm_integral"]
    return theta[i], theta[0] * bkm[i], theta_growth_ratio(theta[i], theta[0], bkm[i])


def _velocity_growth_slot(t, m, i, r):
    u = m["u_r"]
    weighted = float(np.trapezoid(u[: i + 1] * m["grad_u_inf"][: i + 1], t[: i + 1]))
    theta_int = float(np.trapezoid(m["theta_r"][: i + 1], t[: i + 1]))
    return u[i], 2.0 * weighted, velocity_growth_ratio(u[i], u[0], theta_int, weighted, r)


class EstimateDomainError(ValueError):
    """No exponent of the corpus is in the domain of the estimate."""


# estimate name -> (sweep(corpus, n) yielding its samples at resolution n,
# the domain lo < r < hi of a static estimate as (lo, hi), or None)
_SWEEPS = {
    "lemma2.1": _static(_lemma2_1_samples),
    "lemma2.2.1": _static(lambda fl, r: [("", *embedding_linf_sample(fl["f"], r))]),
    "lemma2.2.3": _static(lambda fl, r: [("", *embedding_b1_sample(fl["f"], r))], (1.0, math.inf)),
    "lemma2.3": _static(lambda fl, r: [("", *product_sample(fl["f"], fl["g"], r))]),
    "lemma2.4": _static(lambda fl, r: [("", *advection_product_sample(fl["v"], fl["f"], r))]),
    "lemma2.5": _static(lambda fl, r: [("", *riesz_sample(VectorField(fl["f"], fl["g"]), r))]),
    "eq4.18": _static(_eq4_18_samples, (1.0, 2.0)),  # rho = r - 1 in (0, 1)
    "lemma3.1": (_transport_growth, None),
    "eq3.3": _coupled(_theta_growth_slot),
    "eq3.4": _coupled(_velocity_growth_slot),
}

ESTIMATE_NAMES = tuple(_SWEEPS)


def verify(name: str, corpus: CorpusSpec | None = None, resolutions: tuple | None = None) -> EstimateReport:
    """Measure one registered estimate over the corpus exponents in its domain."""
    if name not in _SWEEPS:
        raise ValueError(f"unknown estimate {name!r}; registered: {ESTIMATE_NAMES}")
    corpus = corpus or CorpusSpec()
    resolutions = tuple(resolutions or corpus.resolutions)
    run, domain = _SWEEPS[name]
    if domain is not None:
        lo, hi = domain
        kept = tuple(r for r in corpus.r_values if lo < r < hi)
        if not kept:
            needs = f"r > {lo:g}" if hi == math.inf else f"{lo:g} < r < {hi:g}"
            have = ", ".join(f"{r:g}" for r in corpus.r_values)
            raise EstimateDomainError(f"estimate {name} needs {needs}; the corpus has r = {have}")
        corpus = replace(corpus, r_values=kept)
    samples = [sample for n in resolutions for sample in run(corpus, n)]
    return _finish(name, samples, resolutions)


def frozen_constant(report: EstimateReport, r: float | None = None) -> float:
    """Frozen (2x) constant of one estimate report: twice the largest ratio
    measured at exponent r when the report has samples at r, else the
    report's corpus-wide ``c_frozen``."""
    if r is not None:
        for rv, c in report.per_r.items():
            if abs(rv - r) < 1e-9:
                return 2.0 * c
    return report.c_frozen


GRONWALL_SOURCES = ("lemma2.1", "lemma3.1", "eq3.3", "eq3.4")


def gronwall_constant(reports: dict[str, EstimateReport], r: float | None = None) -> float:
    """Frozen constant for Gronwall-type replays, from reports keyed by name.

    The exponent slot in the growth bounds is the commutator constant;
    the dynamic measurements can come out at zero on mild runs (norms
    that never grow), so the frozen value dominates every available
    source rather than trusting a single degenerate one.
    """
    values = [frozen_constant(reports[name], r) for name in GRONWALL_SOURCES if name in reports]
    if not values:
        raise ValueError(f"no Gronwall source among reports; need one of {GRONWALL_SOURCES}")
    return max(values)


# ---------------------------------------------------------------------------
# existence-time formulas


class ThresholdDomainError(ValueError):
    """A time formula left its domain: a logarithm argument <= 1, or a
    zero velocity norm or a constant C <= 0 in a denominator."""

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


def _ln_or_raise(arg: float, formula: str) -> float:
    if not arg > 1.0:
        raise ThresholdDomainError(formula, f"logarithm argument {arg:.6g} <= 1")
    return math.log(arg)


def compute_thresholds(
    theta0: SpectralField,
    u0: VectorField,
    r: float,
    reports: dict[str, EstimateReport] | None = None,
    *,
    P: float = 32.0,
    Q: float = 32.0,
    S: float | None = None,
    a0: float | None = None,
    C: float | None = None,
) -> ThresholdReport:
    """Evaluate the eight existence-time formulas with frozen constants.

    C defaults to the frozen commutator constant at this exponent, read from
    ``reports["lemma2.1"]``; a0 to the measured kernel mass; S to 10x the
    larger initial norm.
    """
    tn = holder_norm(theta0, r)
    un = holder_norm_vector(u0, r)
    if C is None:
        if reports is None:
            raise ValueError("need estimate reports or an explicit constant C")
        C = frozen_constant(reports["lemma2.1"], r)
    if a0 is None:
        a0 = compute_a0()
    if S is None:
        S = 10.0 * max(tn, un, 1e-12)
    if un <= 0.0:
        raise ThresholdDomainError("T1_1", "initial velocity norm is zero")
    if not C > 0.0:
        raise ThresholdDomainError("T1_1", f"constant C = {C:.6g} is not positive")

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
# contraction


@dataclass
class ContractionSummary:
    rho: float | None
    alpha: float | None
    monotone: bool
    converged: bool
    final_gap: float
    n_used: int
    contracting: bool


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
