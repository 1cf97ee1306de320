"""The four benchmark workloads.

Each workload turns the benchmark seed into program inputs, fills the
process-level caches a CLI run pays for (``setup``), runs one round of a
fixed number of work units (``run``), reads the round's outputs back
(``collect``) and checks them (``check``).  ``check`` returns the units the
round completed and a list of problems; an empty list means the outputs
are correct.

Two layers of checks:

* invariants that hold for any seed: finite values, no flagged samples,
  the divergence residual under ``DIV_BOUND``, ``contracting`` true, and
  the unit count as expected;
* for the default seed and default sizes only, agreement with
  ``reference.json`` (recorded once, before any optimisation) within
  ``REF_RTOL``/``REF_ATOL``.  These tolerances are fixed; do not retune
  them to let a change pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from boussinesq_lp import cli, harness
from boussinesq_lp.littlewood_paley import build_partition
from boussinesq_lp.spectral import divergence_residual, make_grid

DEFAULT_SEED = 0
STATIC_ESTIMATES = ("lemma2.1", "lemma2.2.1", "lemma2.2.3", "lemma2.3", "lemma2.4", "lemma2.5", "eq4.18")
REF_RTOL = 1e-6
REF_ATOL = 1e-15
DIV_BOUND = 1e-10
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def fill_grid_caches(resolutions) -> None:
    """Build the cached grid and dyadic partition (with its lazily built
    negative homogeneous blocks) that every run at these sizes uses."""
    for n in resolutions:
        part = build_partition(make_grid(n, 2.0 * np.pi))
        for q in range(part.q_min_homogeneous, 0):
            part.homogeneous_multiplier(q)


def reset_process_caches() -> None:
    """Drop harness runs cached by an earlier ``verify`` in this process."""
    harness._RUN_CACHE.clear()


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REF_RTOL * abs(ref) + REF_ATOL


def _compare(label: str, values: dict, reference: dict) -> list[str]:
    return [
        f"{label} {key}: {values.get(key)!r} differs from reference {ref!r}"
        for key, ref in reference.items()
        if key not in values or not _close(values[key], ref)
    ]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _snapshot_ok(path: Path, n: int) -> bool:
    """A snapshot is a JSON header line followed by n*n float64 values."""
    if not path.exists():
        return False
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        return header.get("n") == n and len(fh.read()) == 8 * n * n


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name: str
    unit: str

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def uses_reference(self) -> bool:
        """The reference holds for the default seed at the default sizes."""
        return self.seed == DEFAULT_SEED and self.default_sizes

    def reference(self) -> dict | None:
        if not self.uses_reference:
            return None
        return json.loads(REFERENCE_PATH.read_text())[self.name]


class SolveTG(Workload):
    """``solve --preset taylor-green`` at n = 128: coupled RK4 plus monitor."""

    name = "solve-tg"
    unit = "coupled RK4 step with its monitor sample"
    dt = 1e-3

    def __init__(self, seed: int, n: int = 128, steps: int = 25):
        super().__init__(seed)
        self.n, self.steps = n, steps
        self.default_sizes = (n, steps) == (128, 25)
        if seed == DEFAULT_SEED:
            amplitude, theta_amplitude = 1.0, 0.05  # the preset's values
        else:  # stdlib random: numpy.random is a lazy import the solver never makes
            rng = random.Random(seed)
            amplitude, theta_amplitude = rng.uniform(0.9, 1.1), rng.uniform(0.03, 0.07)
        self.T = steps * self.dt
        self.argv = [
            "solve", "--preset", "taylor-green", "--n", str(n), "--T", f"{self.T:.12g}",
            "--amplitude", f"{amplitude:.12g}", "--theta-amplitude", f"{theta_amplitude:.12g}",
            "--seed", str(seed),
        ]

    def setup(self, out_dir: Path) -> None:
        fill_grid_caches((self.n,))
        cli._initial_state(cli.parse_config(self.argv + ["--out-dir", str(out_dir)]))

    def run(self, out_dir: Path) -> int:
        return _run_cli(self.argv + ["--out-dir", str(out_dir)])

    def collect(self, out_dir: Path, rc: int) -> dict:
        rows = [[float(x) for x in row] for row in _read_csv(out_dir / "monitor.csv")]
        return {"rc": rc, "rows": rows, "snapshot_ok": _snapshot_ok(out_dir / "theta_final.snap", self.n)}

    def check(self, out: dict) -> tuple[int, list[str]]:
        problems = []
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        rows = out["rows"]
        units = max(len(rows) - 1, 0)
        if units != self.steps:
            problems.append(f"monitor has {units} steps, expected {self.steps}")
        if not all(math.isfinite(x) for row in rows for x in row):
            problems.append("non-finite monitor value")
        if rows and abs(rows[-1][0] - self.T) > 1e-9:
            problems.append(f"final monitor time {rows[-1][0]} != T={self.T}")
        if rows and max(row[5] for row in rows) > DIV_BOUND:
            problems.append("divergence residual above bound")
        if not out["snapshot_ok"]:
            problems.append("final snapshot missing or malformed")
        ref = self.reference()
        if ref is not None and rows:
            final = dict(zip(("t", "grad_u_inf", "bkm_integral", "theta_r", "u_r"), rows[-1]))
            problems += _compare("final monitor row", final, ref["final_row"])
        return units, problems


class EstimateSweep(Workload):
    """``harness.verify`` over the seven static estimates on a reduced corpus."""

    name = "estimate-sweep"
    unit = "estimate sample"
    estimates = STATIC_ESTIMATES

    def __init__(self, seed: int, resolutions: tuple = (64, 128)):
        super().__init__(seed)
        self.default_sizes = tuple(resolutions) == (64, 128)
        self.corpus = harness.CorpusSpec(r_values=(1.5, 2.5), seeds=(seed,), resolutions=tuple(resolutions))

    def expected_samples(self, name: str) -> int:
        c = self.corpus
        per_field = len(c.seeds) * len(c.resolutions)
        if name == "lemma2.1":
            blocks = sum(build_partition(make_grid(n, c.box)).q_max + 2 for n in c.resolutions)
            return blocks * len(c.seeds) * len(c.r_values)
        if name == "eq4.18":
            return 2 * per_field * sum(1 for r in c.r_values if 1.0 < r < 2.0)
        return per_field * len(c.r_values)

    def setup(self, out_dir: Path) -> None:
        fill_grid_caches(self.corpus.resolutions)

    def run(self, out_dir: Path) -> list:
        return [harness.verify(name, self.corpus) for name in self.estimates]

    def collect(self, out_dir: Path, reports: list) -> dict:
        return _collect_reports(reports)

    def check(self, out: dict) -> tuple[int, list[str]]:
        return _check_reports(self, out)


class TransportGrowth(Workload):
    """``harness.verify("lemma3.1")`` at n = 128: frozen-velocity transport."""

    name = "transport-growth"
    unit = "transport RK4 step"
    estimates = ("lemma3.1",)
    run_T, steps_per_run = 0.4, 200  # harness._transport_runs integrates T = 0.4 at dt = 2e-3

    def __init__(self, seed: int, n: int = 128):
        super().__init__(seed)
        self.n = n
        self.default_sizes = n == 128
        # one corpus seed: two runs (r = 1.5, 2.5) of 200 steps per round
        self.corpus = harness.CorpusSpec(r_values=(1.5, 2.5), seeds=(seed,), resolutions=(n,))

    def expected_samples(self, name: str) -> int:
        return self.expected_runs() * 10  # observer times 0.04 .. 0.4

    def expected_runs(self) -> int:
        return 2 * len(self.corpus.seeds)

    def setup(self, out_dir: Path) -> None:
        fill_grid_caches((self.n,))

    def run(self, out_dir: Path) -> list:
        return [harness.verify(name, self.corpus, resolutions=(self.n,)) for name in self.estimates]

    def collect(self, out_dir: Path, reports: list) -> dict:
        out = _collect_reports(reports)
        runs = harness._RUN_CACHE.get(("transport", self.corpus, self.n), [])
        out["runs"] = [
            {"t_final": traj.times[-1], "div_residual": divergence_residual(v)}
            for _r, _seed, v, _f0, traj in runs
        ]
        return out

    def check(self, out: dict) -> tuple[int, list[str]]:
        out = dict(out)
        runs = out.pop("runs")
        _units, problems = _check_reports(self, out)
        if len(runs) != self.expected_runs():
            problems.append(f"{len(runs)} transport runs, expected {self.expected_runs()}")
        complete = [run for run in runs if abs(run["t_final"] - self.run_T) <= 1e-12]
        if len(complete) < len(runs):
            problems.append(f"{len(runs) - len(complete)} transport runs ended before T={self.run_T}")
        if not all(run["div_residual"] <= DIV_BOUND for run in runs):
            problems.append("transport velocity divergence residual above bound")
        return len(complete) * self.steps_per_run, problems


def _collect_reports(reports: list) -> dict:
    return {
        rep.name: {
            "c_emp": rep.c_emp,
            "ratios": [s.ratio for s in rep.samples],
            "flagged": rep.flagged_count,
        }
        for rep in reports
    }


def _check_reports(workload, out: dict) -> tuple[int, list[str]]:
    """Checks shared by the estimate reports of both verify workloads."""
    problems = [f"{name}: no report" for name in workload.estimates if name not in out]
    units = 0
    ref = workload.reference()
    for name, rep in out.items():
        ratios = rep["ratios"]
        units += len(ratios)
        if len(ratios) != workload.expected_samples(name):
            problems.append(f"{name}: {len(ratios)} samples, expected {workload.expected_samples(name)}")
        if not all(r is not None and math.isfinite(r) for r in ratios):
            problems.append(f"{name}: missing or non-finite ratio")
        if rep["flagged"]:
            problems.append(f"{name}: {rep['flagged']} flagged samples")
        if ref is not None:
            problems += _compare(name, {"c_emp": rep["c_emp"]}, {"c_emp": ref["c_emp"][name]})
    return units, problems


class IterateSmall(Workload):
    """``iterate --preset small-data-iteration`` at n = 64, lengthened to T = 0.1.

    ``--n-max 6 --tol 1e-30`` fixes the work: exactly five iterates
    (m = 2..6), whatever the seed's contraction rate.
    """

    name = "iterate-small"
    unit = "linearized RK4 step, summed over iterates"
    dt = 2e-3
    n_max = 6

    def __init__(self, seed: int, n: int = 64, steps: int = 50):
        super().__init__(seed)
        self.n, self.steps = n, steps
        self.default_sizes = (n, steps) == (64, 50)
        self.argv = [
            "iterate", "--preset", "small-data-iteration", "--n", str(n),
            "--T", f"{steps * self.dt:.12g}", "--n-max", str(self.n_max), "--tol", "1e-30",
            "--seed", str(1 + seed),  # seed 0 keeps the preset's seed 1
        ]

    def setup(self, out_dir: Path) -> None:
        fill_grid_caches((self.n,))
        cli._initial_state(cli.parse_config(self.argv + ["--out-dir", str(out_dir)]))

    def run(self, out_dir: Path) -> int:
        return _run_cli(self.argv + ["--out-dir", str(out_dir)])

    def collect(self, out_dir: Path, rc: int) -> dict:
        rows = _read_csv(out_dir / "iterations.csv")
        summary = out_dir / "contraction.json"
        return {
            "rc": rc,
            "gaps": [[float(row[1]), float(row[2])] for row in rows],
            "contracting": json.loads(summary.read_text())["contracting"] if summary.exists() else None,
        }

    def check(self, out: dict) -> tuple[int, list[str]]:
        problems = []
        if out["rc"] != 0:
            problems.append(f"exit code {out['rc']}")
        gaps = out["gaps"]
        if len(gaps) != self.n_max - 1:
            problems.append(f"{len(gaps)} iterates, expected {self.n_max - 1}")
        if not all(math.isfinite(g) and g > 0.0 for pair in gaps for g in pair):
            problems.append("non-finite or zero Cauchy gap")
        if out["contracting"] is not True:
            problems.append(f"contracting is {out['contracting']!r}")
        ref = self.reference()
        if ref is not None:
            if len(gaps) != len(ref["gaps"]):
                problems.append("iterate count differs from reference")
            for k, (pair, ref_pair) in enumerate(zip(gaps, ref["gaps"])):
                problems += _compare(
                    f"iterate {k + 2}", dict(zip(("theta", "u"), pair)), dict(zip(("theta", "u"), ref_pair))
                )
        return len(gaps) * self.steps, problems


WORKLOADS = {w.name: w for w in (SolveTG, EstimateSweep, TransportGrowth, IterateSmall)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def reference_entry(workload: Workload, out: dict) -> dict:
    """The values ``reference.json`` records for one workload's round."""
    if isinstance(workload, SolveTG):
        keys = ("t", "grad_u_inf", "bkm_integral", "theta_r", "u_r")
        return {"final_row": dict(zip(keys, out["rows"][-1]))}
    if isinstance(workload, IterateSmall):
        return {"gaps": out["gaps"]}
    return {"c_emp": {name: rep["c_emp"] for name, rep in out.items() if name != "runs"}}
