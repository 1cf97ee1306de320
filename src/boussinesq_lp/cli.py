"""Command-line entry point and run configuration.

Commands: lp-analyze, solve, iterate, verify, thresholds, probe.
Each option is a RunConfig field, set by the flag ``--field-name``
(``--no-buoyancy`` for ``buoyancy``), and each command is one ``_COMMANDS``
entry; the fields it reads give its flags (besides --config and --out-dir)
and its config-file keys.  Values resolve as defaults < preset < config
file (--config, JSON) < explicit flags.  A config file may not set the
command or the preset, and every number must be finite.
All outputs land under --out-dir; reruns with identical config and seed are
byte-stable (headers carry no timestamps).

Exit codes: 0 success, 1 numerical abort (CFL violation, non-finite
values or a float overflow), 2 configuration error (among them a config
value of the wrong type, a malformed --input snapshot, an abbreviated
flag and an exponent outside the estimate's domain) or formula-domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from pathlib import Path
from typing import NamedTuple

from . import boussinesq as bq
from . import fileio
from . import harness
from .littlewood_paley import besov_norm, top_block
from .spectral import make_grid, max_ksq
from .transport import CFLViolation

__all__ = ["RunConfig", "PRESETS", "parse_config", "run", "main", "ConfigError"]


_DATA_KINDS = ("hydrostatic", "taylor-green", "random")

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


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class RunConfig:
    command: str
    preset: str | None = dc_field(default=None, metadata={"choices": sorted(PRESETS)})
    out_dir: str = "out"
    # grid
    n: int = 64
    L: float = 2.0 * math.pi
    # physics
    r: float = 1.5
    T: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    amplitude: float = 1.0
    theta_amplitude: float = 0.05
    data: str = dc_field(default="taylor-green", metadata={"choices": _DATA_KINDS})
    buoyancy: bool = True
    n_max: int = 25
    tol: float = 1e-6
    theta_lag: bool = False
    # constants of the growth bounds and time formulas
    P: float = 32.0
    Q: float = 32.0
    S: float | None = None
    C: float | None = dc_field(default=None, metadata={"help": "frozen constant of the growth bounds"})
    a0: float | None = None
    estimate: str | None = None
    quick: bool = dc_field(default=False, metadata={
        "help": "three seeds at --r and --n only; lemma3.1, eq3.3 and eq3.4 always run at r = "
        + ", ".join(f"{r:g}" for r in harness.DYNAMIC_R_VALUES)
    })
    eps: tuple = (1e-3, 1e-4, 1e-5)
    s: float | None = None
    p: str = "inf"
    q: str = "inf"
    input: str | None = dc_field(default=None, metadata={"help": "snapshot file to analyze"})

    def validate(self) -> list[str]:
        problems = []
        for f in dc_fields(self):
            value, kind = getattr(self, f.name), _kind(f)
            if value is None and kind != f.type:
                continue  # an optional field left unset
            if not _has_kind(value, kind):
                problems.append(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
            elif kind in ("float", "tuple") and not _finite(value):
                problems.append(f"{f.name} must be finite, got {value!r}")
        if self.command not in _COMMANDS:
            problems.append(f"unknown command {self.command!r}")
        if problems:  # the value checks below assume finite values of the declared types
            return problems
        command = _COMMANDS[self.command]
        bad_n = self.n < 16 or self.n & (self.n - 1)
        q_max = math.nan if bad_n or self.L <= 0 else top_block(self.n, self.L)
        overflow = not (bad_n or self.L <= 0 or math.isfinite(max_ksq(self.n, self.L)))
        rules = [  # (broken, problem)
            (bad_n, "n must be a power of two >= 16"),
            (self.L <= 0, "L must be positive"),
            (overflow, f"grid n={self.n}, L={self.L:g} is too small: its squared wavenumbers overflow a float"),
            (q_max < 2, f"grid n={self.n}, L={self.L:g} is too coarse: "
                        f"its top dyadic block is q_max={q_max:.0f}, and synthesized data needs q_max >= 2"),
            (self.r <= 0, "r must be positive"),
            (command.gaps and self.r <= 1, f"{self.command} requires r > 1"),
            (self.T < 0, "T must be finite and nonnegative"),
            (self.dt <= 0, "dt must be finite and positive"),
            (self.seed < 0, "seed must be nonnegative"),
            (self.n_max < 2, "n_max must be >= 2"),
            (self.tol <= 0, "tol must be positive"),
            (self.C is not None and self.C <= 0, "C must be positive"),
            (self.P <= 0, "P must be positive"),
            (self.Q <= 0, "Q must be positive"),
            (self.S is not None and self.S <= 0, "S must be positive"),
            (self.a0 is not None and self.a0 <= 0, "a0 must be positive"),
            ("estimate" in command.fields and self.estimate is None, f"{self.command} needs --estimate"),
            (
                self.estimate not in (None, *harness.ESTIMATE_NAMES),
                f"unknown estimate {self.estimate!r}; choose from {', '.join(harness.ESTIMATE_NAMES)}",
            ),
            (not self.eps, "eps needs at least one value"),
            (any(e < 0 for e in self.eps), "eps values must be nonnegative"),
            (
                len({f"{e:g}" for e in self.eps}) < len(self.eps),
                f"eps values {', '.join(map(repr, self.eps))} share a probe_eps<eps:g>.csv file name",
            ),
            (self.data not in _DATA_KINDS, f"unknown data preset {self.data!r}"),
        ]
        problems = [problem for broken, problem in rules if broken]
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


# kind: (the Python types a config value of that kind may have, its name in messages)
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
    "tuple": (tuple, "a list of numbers"),
}


def _kind(f) -> str:
    """The kind a RunConfig field declares, which its flag and type check read."""
    return f.type.removesuffix(" | None")


def _has_kind(value, kind: str) -> bool:
    """Whether a config value has the kind its RunConfig field declares."""
    if isinstance(value, bool) != (kind == "bool"):
        return False  # bool is an int subclass, but never a number here
    if not isinstance(value, _KINDS[kind][0]):
        return False
    return kind != "tuple" or all(_has_kind(x, "float") for x in value)


def _finite(value) -> bool:
    """Whether a number, or each number of a tuple, is finite (an int always is)."""
    values = value if isinstance(value, tuple) else (value,)
    return all(isinstance(x, int) or math.isfinite(x) for x in values)


_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with --config, --out-dir and one flag per
    field it reads; every flag defaults to None, so that only flags given override."""
    parser = argparse.ArgumentParser(
        prog="boussinesq-lp",
        description="Pseudo-spectral toolkit for buoyancy-coupled inviscid flow",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fields = {f.name: f for f in dc_fields(RunConfig)}
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for f in [fields[field_name] for field_name in ("out_dir", *command.fields)]:
            flag, kind = "--" + f.name.replace("_", "-"), _kind(f)
            if f.name == "buoyancy":
                p.add_argument("--no-buoyancy", dest="buoyancy", action="store_false", default=None)
            elif kind == "bool":
                p.add_argument(flag, action="store_true", default=None, help=f.metadata.get("help"))
            elif kind == "tuple":
                p.add_argument(flag, type=float, nargs="+", default=None)
            else:
                p.add_argument(flag, type=_FLAG_TYPES[kind], choices=f.metadata.get("choices"),
                               default=None, help=f.metadata.get("help"))
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Parse flags (and an optional JSON file) into a validated RunConfig."""
    ns = vars(_build_parser().parse_args(argv))
    config_path = ns.pop("config")
    merged: dict = {"command": ns.pop("command"), **PRESETS.get(ns.get("preset"), {})}
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError([f"config file {config_path!r}: {exc}"])
        if not isinstance(file_cfg, dict):
            raise ConfigError([f"config file {config_path!r}: expected a JSON object"])
        chosen = [k for k in ("command", "preset") if k in file_cfg and k in ("command", *ns)]  # flags choose these
        unread = sorted(file_cfg.keys() - {"command", *ns})  # ns holds a key per flag of the command
        if chosen or unread:
            raise ConfigError(
                [f"{k} is chosen on the command line, not in a config file" for k in chosen]
                + [f"{merged['command']} reads no config field {k!r}" for k in unread]
            )
        merged.update(file_cfg)
    merged.update((key, value) for key, value in ns.items() if value is not None)
    if isinstance(merged.get("eps"), list):
        merged["eps"] = tuple(merged["eps"])

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
    final_state, record = bq.run_direct(state0, config.T, config.dt, config.r, buoyancy=config.buoyancy)
    fileio.monitor_to_csv(_out(config, "monitor.csv"), record)
    fileio.write_snapshot(_out(config, "theta_initial.snap"), state0.theta, "theta", 0.0)
    fileio.write_snapshot(
        _out(config, "theta_final.snap"), final_state.theta, "theta", final_state.t
    )
    verdict = bq.continuation_check(record, config.C)
    fileio.write_json(_out(config, "verdict.json"), verdict)
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


def _quick_corpus(config: RunConfig) -> harness.CorpusSpec:
    """Three seeds at the configured exponent and resolution only."""
    return harness.CorpusSpec(r_values=(config.r,), seeds=(0, 1, 2), resolutions=(config.n,))


def _cmd_verify(config: RunConfig) -> str:
    corpus = _quick_corpus(config) if config.quick else harness.CorpusSpec()
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
    reports = None
    if config.C is None:
        reports = {"lemma2.1": harness.verify("lemma2.1", _quick_corpus(config))}
    report = harness.compute_thresholds(
        state0.theta, state0.u, config.r, reports,
        P=config.P, Q=config.Q, S=config.S, a0=config.a0, C=config.C,
    )
    fileio.write_json(_out(config, "thresholds.json"), report)
    t1 = ", ".join(f"{t:.4g}" for t in report.t1)
    t2 = ", ".join(f"{t:.4g}" for t in report.t2)
    return f"thresholds: t_star={report.t_star:.6g} t1=[{t1}] t2=[{t2}]"


def _cmd_probe(config: RunConfig) -> str:
    curves = bq.uniqueness_probe(_initial_state(config), config.eps, config.T, config.dt, config.r)
    for curve in curves:
        with open(_out(config, f"probe_eps{curve.eps:g}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "theta_gap", "u_gap"])
            for row in zip(curve.times, curve.theta_gaps, curve.u_gaps):
                writer.writerow([f"{x:.12g}" for x in row])
    parts = [
        f"eps={c.eps:g}: theta={c.terminal_theta_gap:.3e} u={c.terminal_u_gap:.3e}" for c in curves
    ]
    return "probe: " + "; ".join(parts)


class _Command(NamedTuple):
    handler: Callable[[RunConfig], str]  # returns the one-line summary
    help: str
    fields: tuple[str, ...]  # the fields it reads: its flags and config-file keys, with --out-dir
    gaps: bool = False  # measures gaps in C^{r-1}, so needs r > 1


_STATE = ("preset", "n", "L", "r", "seed", "amplitude", "theta_amplitude", "data")  # preset + _initial_state's fields
_COMMANDS = {
    "lp-analyze": _Command(_cmd_lp_analyze, "dyadic-block analysis of one field",
                           ("n", "L", "r", "seed", "amplitude", "s", "p", "q", "input")),
    "solve": _Command(_cmd_solve, "direct coupled run with monitor output", _STATE + ("T", "dt", "buoyancy", "C")),
    "iterate": _Command(_cmd_iterate, "successive-approximation run",
                        _STATE + ("T", "dt", "n_max", "tol", "theta_lag"), gaps=True),
    "verify": _Command(_cmd_verify, "measure one estimate over the corpus", ("n", "r", "estimate", "quick")),
    "thresholds": _Command(_cmd_thresholds, "evaluate the existence-time formulas",
                           _STATE + ("P", "Q", "S", "C", "a0")),
    "probe": _Command(_cmd_probe, "twin-run perturbation probe", _STATE + ("T", "dt", "eps"), gaps=True),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> int:
    """Create ``out_dir``, run a validated config and return the exit code."""
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        print(_COMMANDS[config.command].handler(config))
        return 0
    except (CFLViolation, bq.NumericsError, OverflowError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 1
    except harness.ThresholdDomainError as exc:
        print(f"formula domain error: {exc}", file=sys.stderr)
        return 2
    except harness.EstimateDomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
