"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench -q

Small sizes keep the traced tests quick; the reference gate is exercised
at the default sizes, where ``reference.json`` applies.
"""

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from run import ROOT, import_program

import_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from boussinesq_lp import boussinesq, spectral  # noqa: E402

SMALL = {
    "solve-tg": lambda: workloads.SolveTG(0, n=32, steps=5),
    "estimate-sweep": lambda: workloads.EstimateSweep(0, resolutions=(32,)),
    "transport-growth": lambda: workloads.TransportGrowth(0, n=32),
    "iterate-small": lambda: workloads.IterateSmall(0, n=32, steps=5),
}

# layers each workload must reach, and (caller, callee) pairs that prove a
# wrapper was installed where the caller looks the name up
EXPECTED = {
    "solve-tg": (
        {"cli", "boussinesq", "littlewood_paley", "spectral", "fileio", "transport"},
        {("run_direct", "holder_norm"), ("run_direct", "holder_norm_vector"),
         ("run_direct", "leray_project"), ("main", "run"), ("run", "run_direct"),
         ("run", "monitor_to_csv"), ("run_direct", "cfl_bound")},
    ),
    "estimate-sweep": (
        {"harness", "boussinesq", "littlewood_paley", "spectral"},
        {("verify", "synthesize_holder_field"), ("verify", "commutator"),
         ("commutator", "advect"), ("besov_norm", "lp_norm")},
    ),
    "transport-growth": (
        {"harness", "transport", "boussinesq", "littlewood_paley", "spectral"},
        {("verify", "solve"), ("solve", "advect"), ("solve", "is_divergence_free")},
    ),
    "iterate-small": (
        {"cli", "boussinesq", "littlewood_paley", "spectral", "fileio"},
        {("run", "iterate_scheme"), ("iterate_scheme", "holder_norm"),
         ("iterate_scheme", "holder_norm_vector"), ("iterate_scheme", "advect"),
         ("run", "iterations_to_csv"), ("run", "contraction_report")},
    ),
}


def traced_round(wl, out_dir):
    workloads.reset_process_caches()
    wl.setup(out_dir)
    with layers.Tracer() as tracer:
        raw = wl.run(out_dir)
    units, problems = wl.check(wl.collect(out_dir, raw))
    assert problems == []
    return tracer, layers.layer_metrics(tracer, units)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, tmp_path):
    _, first = traced_round(SMALL[name](), tmp_path / "a")
    _, second = traced_round(SMALL[name](), tmp_path / "b")
    assert {k: first[k] for k in layers.COUNT_METRICS} == {k: second[k] for k in layers.COUNT_METRICS}
    assert first["spectral.fft_per_unit"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_layer_wrapper_records_calls(name, tmp_path):
    tracer, metrics = traced_round(SMALL[name](), tmp_path)
    want_layers, want_edges = EXPECTED[name]
    for layer in want_layers:
        assert metrics[f"{layer}.calls"] > 0, layer
    edges = {(s.parent.name, s.name) for s in tracer.spans if s.parent is not None}
    assert want_edges <= edges, want_edges - edges


def test_tracer_restores_every_binding(tmp_path):
    before = (boussinesq.holder_norm, boussinesq.advect, spectral.advect, spectral.np.fft.fft2)
    traced_round(SMALL["solve-tg"](), tmp_path)
    assert (boussinesq.holder_norm, boussinesq.advect, spectral.advect, spectral.np.fft.fft2) == before


def test_known_transform_counts(tmp_path):
    """Counts from the ROADMAP profile: 17 transforms per transport step;
    per monitor sample 4 (grad_linf_norm) + 1 (divergence_residual) plus
    three Hoelder norms of q_max + 2 blocks and 4 negative homogeneous ones."""
    _, m = traced_round(SMALL["transport-growth"](), tmp_path / "t")
    assert m["transport.fft_per_step"] == pytest.approx(17, abs=0.1)
    _, m = traced_round(SMALL["solve-tg"](), tmp_path / "s")
    q_max = 2  # n = 32
    assert m["boussinesq.fft_per_monitor_sample"] == 5 + 3 * (q_max + 2 + 4)


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    """One default-size round of the cheaper workloads at the default seed."""
    outs = {}
    for name in ("solve-tg", "iterate-small", "estimate-sweep"):
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        out_dir = tmp_path_factory.mktemp(name)
        workloads.reset_process_caches()
        outs[name] = (wl, wl.collect(out_dir, wl.run(out_dir)))
    return outs


PERTURBATIONS = {
    "solve-tg": lambda out: out["rows"][-1].__setitem__(3, out["rows"][-1][3] * (1 + 1e-5)),
    "iterate-small": lambda out: out["gaps"][-1].__setitem__(0, out["gaps"][-1][0] * 1.5),
    "estimate-sweep": lambda out: out["lemma2.4"].__setitem__("c_emp", out["lemma2.4"]["c_emp"] * (1 + 1e-5)),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_reference_gate_fires_on_perturbed_output(name, default_outputs):
    wl, out = default_outputs[name]
    units, problems = wl.check(out)
    assert problems == [] and units > 0
    bad = copy.deepcopy(out)
    PERTURBATIONS[name](bad)
    _, problems = wl.check(bad)
    assert problems


INVARIANT_BREAKS = {
    "solve-tg": lambda out: out["rows"].pop(),
    "iterate-small": lambda out: out.__setitem__("contracting", False),
    "estimate-sweep": lambda out: out["lemma2.1"]["ratios"].__setitem__(0, float("nan")),
    "transport-growth": lambda out: out["runs"][0].__setitem__("div_residual", 1e-6),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_BREAKS))
def test_invariant_gate_fires_off_the_reference(name, tmp_path):
    wl = SMALL[name]()  # small sizes: only the invariants apply
    assert wl.reference() is None
    workloads.reset_process_caches()
    out = wl.collect(tmp_path, wl.run(tmp_path))
    assert wl.check(out)[1] == []
    INVARIANT_BREAKS[name](out)
    assert wl.check(out)[1]


def test_fails_without_program_source(tmp_path):
    """In a directory with only the benchmark files, no result is printed."""
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-tg", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
