"""Command-line entry point and run configuration.

Commands: lp-analyze, solve, iterate, verify, thresholds, probe.
Values are resolved in the order: built-in defaults < preset < config
file (--config, JSON) < explicit command-line flags.  All outputs land
under --out-dir; reruns with identical config and seed are byte-stable
(headers carry no timestamps).

Exit codes: 0 success, 1 numerical abort (CFL violation or non-finite
values), 2 configuration error (including a value of the wrong type in a
config file or a malformed --input snapshot) or formula-domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import boussinesq as bq
from . import fileio
from . import harness
from .littlewood_paley import besov_norm
from .spectral import SpectralField, VectorField, make_grid
from .transport import CFLViolation

__all__ = ["RunConfig", "PRESETS", "parse_config", "run", "main", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    out_dir: str = "out"
    # grid
    n: int = 64
    L: float = 2.0 * np.pi
    # physics
    r: float = 1.5
    T: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    amplitude: float = 1.0
    theta_amplitude: float = 0.05
    data: str = "taylor-green"  # hydrostatic | taylor-green | random
    buoyancy: bool = True
    snapshot_every: int | None = None
    # iteration
    n_max: int = 25
    tol: float = 1e-6
    theta_lag: bool = False
    # constants overrides
    P: float = 32.0
    Q: float = 32.0
    S: float | None = None
    C: float | None = None
    a0: float | None = None
    # verify
    estimate: str | None = None
    quick: bool = False
    # probe
    eps: tuple = (1e-3, 1e-4, 1e-5)
    # lp-analyze
    s: float | None = None
    p: str = "inf"
    q: str = "inf"
    input: str | None = None

    def validate(self) -> list[str]:
        problems = []
        for f in dc_fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue  # an optional field left unset
            if not _has_kind(value, kind):
                problems.append(f"{f.name} must be {_KIND_NAMES[kind]}, got {value!r}")
        if problems:  # the value checks below assume the declared types
            return problems
        if self.command not in COMMANDS:
            problems.append(f"unknown command {self.command!r}")
        n = self.n
        if not isinstance(n, int) or n < 16 or (n & (n - 1)) != 0:
            problems.append("n must be a power of two >= 16")
        if not self.L > 0:
            problems.append("L must be positive")
        if not self.r > 0:
            problems.append("r must be positive")
        if self.command == "iterate" and not self.r > 1:
            problems.append("iterate requires r > 1")
        if self.T < 0:
            problems.append("T must be nonnegative")
        if not self.dt > 0:
            problems.append("dt must be positive")
        if self.seed < 0:
            problems.append("seed must be nonnegative")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            problems.append("snapshot_every must be >= 1")
        if self.command == "iterate":
            if self.n_max < 2:
                problems.append("n_max must be >= 2")
            if not self.tol > 0:
                problems.append("tol must be positive")
        if self.command == "verify":
            if self.estimate is None:
                problems.append("verify needs --estimate")
            elif self.estimate not in harness.ESTIMATE_NAMES:
                problems.append(
                    f"unknown estimate {self.estimate!r}; choose from {', '.join(harness.ESTIMATE_NAMES)}"
                )
        if self.command == "probe" and any(e < 0 for e in self.eps):
            problems.append("eps values must be nonnegative")
        if self.data not in ("hydrostatic", "taylor-green", "random"):
            problems.append(f"unknown data preset {self.data!r}")
        for name in ("p", "q"):
            try:
                ok = float(getattr(self, name)) >= 1.0
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{name} must be 'inf' or a number >= 1, got {getattr(self, name)!r}")
        if self.input is not None and not Path(self.input).is_file():
            problems.append(f"input {self.input!r} is not a file")
        problem = _out_dir_problem(self.out_dir)
        if problem:
            problems.append(f"out_dir {self.out_dir!r}: {problem}")
        return problems


def _out_dir_problem(out_dir: str) -> str | None:
    """Why ``run`` could not create or write ``out_dir``, or None.

    Checks the nearest existing ancestor; nothing is created here.
    """
    try:
        path = Path(out_dir).absolute()
        while not path.exists():
            path = path.parent
    except (OSError, ValueError) as exc:
        return str(exc)
    if not path.is_dir():
        return f"{str(path)!r} is not a directory"
    if not os.access(path, os.W_OK | os.X_OK):
        return "not writable"
    return None


_KIND_NAMES = {
    "int": "an integer",
    "float": "a number",
    "str": "a string",
    "bool": "true or false",
    "tuple": "a list of numbers",
}


def _has_kind(value, kind: str) -> bool:
    """Whether a config value has the kind its RunConfig field declares."""
    if kind == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):  # bool is an int subclass, but never a number here
        return False
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float))
    if kind == "str":
        return isinstance(value, str)
    return isinstance(value, tuple) and all(_has_kind(x, "float") for x in value)


COMMANDS = ("lp-analyze", "solve", "iterate", "verify", "thresholds", "probe")

PRESETS: dict[str, dict] = {
    "hydrostatic": {
        "data": "hydrostatic", "n": 64, "r": 1.5, "T": 5.0, "dt": 0.02,
        "amplitude": 1.0, "theta_amplitude": 1.0,
    },
    "taylor-green": {
        "data": "taylor-green", "n": 64, "r": 1.5, "T": 1.0, "dt": 1e-3,
        "amplitude": 1.0, "theta_amplitude": 0.05,
    },
    "euler-reduction": {
        "data": "taylor-green", "n": 64, "r": 1.5, "T": 1.0, "dt": 1e-3,
        "amplitude": 1.0, "theta_amplitude": 0.0,
    },
    "small-data-iteration": {
        "data": "random", "n": 64, "r": 1.5, "T": 0.0073, "dt": 2e-3,
        "amplitude": 0.05, "theta_amplitude": 0.05,
        "n_max": 25, "tol": 1e-13, "seed": 1,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boussinesq-lp",
        description="Pseudo-spectral toolkit for buoyancy-coupled inviscid flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--preset", type=str, default=None, choices=sorted(PRESETS))
        p.add_argument("--out-dir", dest="out_dir", type=str, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--amplitude", type=float, default=None)
        p.add_argument("--theta-amplitude", dest="theta_amplitude", type=float, default=None)
        p.add_argument("--data", type=str, default=None,
                       choices=("hydrostatic", "taylor-green", "random"))

    p = sub.add_parser("lp-analyze", help="dyadic-block analysis of one field")
    common(p)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--p", type=str, default=None)
    p.add_argument("--q", type=str, default=None)
    p.add_argument("--input", type=str, default=None, help="snapshot file to analyze")

    p = sub.add_parser("solve", help="direct coupled run with monitor output")
    common(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None)
    p.add_argument("--no-buoyancy", dest="buoyancy", action="store_false", default=None)
    p.add_argument("--C", type=float, default=None, help="frozen constant for envelope verdicts")

    p = sub.add_parser("iterate", help="successive-approximation run")
    common(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--theta-lag", dest="theta_lag", action="store_true", default=None)

    p = sub.add_parser("verify", help="measure one estimate over the corpus")
    common(p)
    p.add_argument("--estimate", type=str, default=None)
    p.add_argument("--quick", action="store_true", default=None)

    p = sub.add_parser("thresholds", help="evaluate the existence-time formulas")
    common(p)
    p.add_argument("--P", type=float, default=None)
    p.add_argument("--Q", type=float, default=None)
    p.add_argument("--S", type=float, default=None)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--a0", type=float, default=None)

    p = sub.add_parser("probe", help="twin-run perturbation probe")
    common(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--eps", type=float, nargs="+", default=None)

    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON file) into a validated RunConfig."""
    ns = vars(_build_parser().parse_args(argv))
    command = ns.pop("command")
    config_path = ns.pop("config", None)

    merged: dict = {"command": command}
    if ns.get("preset"):
        if ns["preset"] not in PRESETS:
            raise ConfigError([f"unknown preset {ns['preset']!r}"])
        merged.update(PRESETS[ns["preset"]])
        merged["preset"] = ns["preset"]
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError([f"config file {config_path!r}: {exc}"])
        if not isinstance(file_cfg, dict):
            raise ConfigError([f"config file {config_path!r}: expected a JSON object"])
        merged.update(file_cfg)
    for key, value in ns.items():
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("eps"), list):
        merged["eps"] = tuple(merged["eps"])

    valid_names = {f.name for f in dc_fields(RunConfig)}
    unknown = sorted(set(merged) - valid_names)
    if unknown:
        raise ConfigError([f"unknown config field {k!r}" for k in unknown])
    config = RunConfig(**merged)
    problems = config.validate()
    if problems:
        raise ConfigError(problems)
    return config


# ---------------------------------------------------------------------------
# command implementations


def _initial_state(config: RunConfig) -> bq.BoussinesqState:
    grid = make_grid(config.n, config.L)
    if config.data == "hydrostatic":
        return bq.hydrostatic_data(grid, config.theta_amplitude)
    if config.data == "taylor-green":
        return bq.taylor_green_data(grid, config.amplitude, config.theta_amplitude)
    theta = bq.synthesize_holder_field(grid, config.r, config.theta_amplitude, config.seed)
    u = bq.synthesize_divfree_velocity(grid, config.r, config.amplitude, config.seed + 1)
    return bq.BoussinesqState(theta, u, 0.0)


def _out(config: RunConfig, name: str) -> Path:
    return Path(config.out_dir) / name


def _cmd_lp_analyze(config: RunConfig) -> str:
    if config.input:
        field, _header = fileio.read_snapshot(config.input)
    else:
        grid = make_grid(config.n, config.L)
        field = bq.synthesize_holder_field(grid, config.r, config.amplitude, config.seed)
    s = config.s if config.s is not None else config.r
    report = besov_norm(field, s, float(config.p), float(config.q))
    fileio.write_json(_out(config, "besov_report.json"), report)
    return f"lp-analyze: s={s:g} value={report.value:.6g} homogeneous={report.homogeneous_value:.6g}"


def _cmd_solve(config: RunConfig) -> str:
    state0 = _initial_state(config)
    snapshots, record = bq.run_direct(
        state0, config.T, config.dt, config.r,
        buoyancy=config.buoyancy if config.buoyancy is not None else True,
        snapshot_every=config.snapshot_every,
    )
    fileio.monitor_to_csv(_out(config, "monitor.csv"), record)
    fileio.write_snapshot(_out(config, "theta_initial.snap"), state0.theta, "theta", 0.0)
    fileio.write_snapshot(
        _out(config, "theta_final.snap"), snapshots[-1].theta, "theta", snapshots[-1].t
    )
    initial = record.samples[0]
    verdict = bq.continuation_check(
        record, config.T,
        theta0_r=initial.theta_r, u0_r=initial.u_r,
        c_frozen=config.C,
    )
    final = record.final()
    label = f"solve[{config.preset}]" if config.preset else "solve"
    return (
        f"{label}: T={config.T:g} theta_r={final.theta_r:.6g} u_r={final.u_r:.6g} "
        f"bkm_integral={final.bkm_integral:.3e} div={final.div_residual:.2e} "
        f"verdict={verdict.verdict}"
    )


def _cmd_iterate(config: RunConfig) -> str:
    state0 = _initial_state(config)
    records = bq.iterate_scheme(
        state0.theta, state0.u, config.r, config.n_max, config.T, config.dt, config.tol,
        theta_lag=bool(config.theta_lag),
    )
    fileio.iterations_to_csv(_out(config, "iterations.csv"), records)
    if len(records) >= 4:
        summary = harness.contraction_report(records)
        fileio.write_json(_out(config, "contraction.json"), summary)
        rho = "n/a" if summary.rho is None else f"{summary.rho:.3f}"
        return (
            f"iterate: iterations={len(records)} final_gap={summary.final_gap:.3e} "
            f"rho={rho} contracting={summary.contracting}"
        )
    final_gap = max(records[-1].cauchy_gap_theta, records[-1].cauchy_gap_u)
    return f"iterate: iterations={len(records)} final_gap={final_gap:.3e} (too few for a fit)"


def _cmd_verify(config: RunConfig) -> str:
    if config.quick:
        corpus = harness.CorpusSpec(
            r_values=(config.r,), seeds=(0, 1, 2), resolutions=(config.n,)
        )
    else:
        corpus = harness.default_corpus()
    report = harness.verify(config.estimate, corpus)
    out_name = f"estimate_{config.estimate.replace('.', '_')}.json"
    fileio.write_json(_out(config, out_name), report)
    summary_path = _out(config, "estimates_summary.csv")
    exists = summary_path.exists()
    with open(summary_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["estimate", "c_emp", "resolutions", "stable"])
        writer.writerow(
            [report.name, f"{report.c_emp:.12g}",
             " ".join(str(n) for n in report.resolutions), report.stable]
        )
    return f"verify {report.name}: c_emp={report.c_emp:.6g} stable={report.stable} -> {out_name}"


def _cmd_thresholds(config: RunConfig) -> str:
    state0 = _initial_state(config)
    C = config.C
    if C is None:
        corpus = harness.CorpusSpec(
            r_values=(config.r,), seeds=(0, 1, 2), resolutions=(config.n,)
        )
        C = harness.frozen_constant(harness.verify("lemma2.1", corpus), "lemma2.1", config.r)
    report = harness.compute_thresholds(
        state0.theta, state0.u, config.r,
        P=config.P, Q=config.Q, S=config.S, a0=config.a0, C=C,
    )
    fileio.write_json(_out(config, "thresholds.json"), report)
    t1 = ", ".join(f"{t:.4g}" for t in report.t1)
    t2 = ", ".join(f"{t:.4g}" for t in report.t2)
    return f"thresholds: t_star={report.t_star:.6g} t1=[{t1}] t2=[{t2}]"


def _cmd_probe(config: RunConfig) -> str:
    state0 = _initial_state(config)
    terminal = []
    for eps in config.eps:
        curve = bq.uniqueness_probe(state0, eps, config.T, config.dt, config.r)
        rows = list(zip(curve.times, curve.theta_gaps, curve.u_gaps))
        with open(_out(config, f"probe_eps{eps:g}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "theta_gap", "u_gap"])
            for row in rows:
                writer.writerow([f"{x:.12g}" for x in row])
        terminal.append((eps, curve.terminal_theta_gap, curve.terminal_u_gap))
    parts = [f"eps={e:g}: theta={t:.3e} u={u:.3e}" for e, t, u in terminal]
    return "probe: " + "; ".join(parts)


def run(config: RunConfig) -> int:
    """Create ``out_dir``, dispatch a validated config and return the
    process exit code."""
    handlers = {
        "lp-analyze": _cmd_lp_analyze,
        "solve": _cmd_solve,
        "iterate": _cmd_iterate,
        "verify": _cmd_verify,
        "thresholds": _cmd_thresholds,
        "probe": _cmd_probe,
    }
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        print(handlers[config.command](config))
        return 0
    except (CFLViolation, bq.NumericsError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 1
    except harness.ThresholdDomainError as exc:
        print(f"formula domain error: {exc}", file=sys.stderr)
        return 2
    except fileio.SnapshotError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
