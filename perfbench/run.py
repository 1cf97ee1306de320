"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Rounds of a fixed unit count repeat until ``--seconds`` are
used up.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics: median ``throughput`` over the rounds, ``setup_s`` (median of
several fresh processes, each timed from its start until its inputs are
ready) and ``peak_rss_mb``.  With ``--trace 1`` untraced and traced rounds
alternate and the last line reports the per-layer metrics of
``layers.py`` plus ``trace_overhead_frac``.  Lines before it give the
failed fraction, the raw timings and the machine the run used.

Machine speed: the shared host this benchmark was built on drifts by up
to 2x within minutes, which no median over one run can absorb.  A fixed
numpy kernel (:func:`calibrate`, independent of the program) is therefore
timed before the first round and after every round, and ``throughput``
and ``setup_s`` are scaled to the speed at which that kernel takes
``CAL_REF_S``: each round by the mean of the two calibrations around it.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-tg", "estimate-sweep", "transport-growth", "iterate-small")
SETUP_PROCESSES = 5
# calibrate() on a quiet 2-vCPU Xeon (Sapphire Rapids class) VM, Python 3.11, numpy 2.4
CAL_REF_S = 0.30


def import_program() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "boussinesq_lp" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import boussinesq_lp

    if Path(boussinesq_lp.__file__).resolve().parent != SRC / "boussinesq_lp":
        raise SystemExit(f"boussinesq_lp imported from {boussinesq_lp.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int, out_root: Path, calibrations: list[float]) -> list[float]:
    """Seconds from the start of a fresh process until its inputs are ready,
    one sample per process; appends a calibration after each process."""
    samples = []
    for k in range(SETUP_PROCESSES):
        cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed), str(out_root / f"setup{k}")]
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
        calibrations.append(calibrate())
    return samples


def calibrate() -> float:
    """Seconds a fixed kernel takes now: complex FFTs at n = 128 (the
    transform-bound regime) and small n = 64 array operations, where
    interpreter overhead dominates (the regime of iterate and the sweeps)."""
    import numpy as np

    start = time.perf_counter()
    a = np.cos(np.arange(128 * 128.0)).reshape(128, 128)
    for _ in range(200):
        a = 0.5 * (a + np.real(np.fft.ifft2(np.fft.fft2(a))))
    b = np.cos(np.arange(64 * 64.0)).reshape(64, 64) + 0j
    m = np.sin(np.arange(64 * 64.0)).reshape(64, 64)
    peak = 0.0
    for _ in range(3000):
        b = 0.5 * m + 0.5 * b * m  # stays O(1): no overflow, no denormals
        peak = max(peak, float(np.max(np.abs(b.real))))
    return time.perf_counter() - start


def run_round(wl, out_dir: Path, tracer=None) -> dict:
    """Run, time and check one round; exceptions count as a failed round."""
    import workloads

    workloads.reset_process_caches()
    gc.collect()
    problems: list[str] = []
    units = 0
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.run(out_dir)
        else:
            with tracer:
                raw = wl.run(out_dir)
        elapsed = time.perf_counter() - start
        units, problems = wl.check(wl.collect(out_dir, raw))
    except Exception:  # a round that raises is a failed round, not a crash
        elapsed = time.perf_counter() - start
        problems = [traceback.format_exc()]
    for p in problems:
        print(f"check failed ({wl.name}): {p}", file=sys.stderr)
    return {"units": units, "seconds": elapsed, "failed": bool(problems)}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import layers
    import workloads

    wl = workloads.make(args.workload, args.seed)
    out_root = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        calibrations = [calibrate()]
        setup = [] if args.trace else measure_setup(args.workload, args.seed, out_root, calibrations)
        setup_scaled = [
            s * 2.0 * CAL_REF_S / (calibrations[k] + calibrations[k + 1]) for k, s in enumerate(setup)
        ]
        wl.setup(out_root / "setup")

        # A traced run starts with a warm-up round that no metric uses, then
        # alternates traced and untraced rounds, so that neither side of
        # trace_overhead_frac carries the first round's one-off costs.
        rounds, traced_metrics = [], []
        start = time.perf_counter()
        while True:
            i = len(rounds)
            traced = bool(args.trace) and i % 2 == 1
            tracer = layers.Tracer() if traced else None
            result = run_round(wl, out_root / f"round{i}", tracer)
            result["role"] = "warm-up" if args.trace and i == 0 else "traced" if traced else "untraced"
            calibrations.append(calibrate())
            result["speed"] = 0.5 * (calibrations[-2] + calibrations[-1]) / CAL_REF_S
            rounds.append(result)
            if traced and not result["failed"]:
                traced_metrics.append(layers.layer_metrics(tracer, result["units"]))
            longest = max(r["seconds"] for r in rounds) + max(calibrations)
            if i >= 2 * args.trace and time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed = sum(r["failed"] for r in rounds)

    def throughput(role: str, scaled: bool = True) -> float:
        rates = [
            r["units"] / r["seconds"] * (r["speed"] if scaled else 1.0)
            for r in rounds if r["role"] == role and not r["failed"]
        ]
        return statistics.median(rates) if rates else 0.0

    if args.trace:
        metrics = summarize_traced(traced_metrics, layers.COUNT_METRICS)
        traced_rate = throughput("traced")
        overhead = throughput("untraced") / traced_rate - 1.0 if traced_rate > 0 else 0.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "fraction"}
    else:
        metrics = {
            "throughput": {"value": throughput("untraced"), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }

    print(f"workload {wl.name} seed {args.seed}: {len(rounds)} rounds of {rounds[0]['units']} x {wl.unit}")
    print(f"  failed_frac {failed / len(rounds):g} (of {len(rounds)} rounds)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "failed_frac": failed / len(rounds),
        "raw_throughput": throughput("untraced", scaled=False),
        "round_seconds": [round(r["seconds"], 6) for r in rounds],
        "calibration_seconds": [round(c, 6) for c in calibrations],
        "setup_seconds": [round(s, 6) for s in setup],
        "machine": machine(),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def summarize_traced(per_round: list[dict], count_metrics) -> dict:
    """Counts from the first traced round (they repeat exactly), medians
    of the times over all traced rounds."""
    out = {}
    for name in per_round[0] if per_round else ():
        if name in count_metrics:
            if any(m[name] != per_round[0][name] for m in per_round):
                print(f"warning: count {name} differs between traced rounds", file=sys.stderr)
            out[name] = {"value": per_round[0][name], "unit": "count"}
        else:
            out[name] = {"value": statistics.median(m[name] for m in per_round), "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
