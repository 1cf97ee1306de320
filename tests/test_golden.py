"""Golden-output gate: CLI artifacts must match the committed reference files.

The files under ``tests/golden/`` were written by these commands at a
trusted commit, before any refactor they now guard:

    solve --preset taylor-green    --n 64 --T 0.05   -> taylor-green/monitor.csv
    solve --preset euler-reduction --n 64 --T 0.05   -> euler-reduction/monitor.csv
    solve --preset hydrostatic     --n 64 --T 0.1    -> hydrostatic/monitor.csv
    verify --estimate lemma2.5 --quick               -> verify-lemma2.5/estimate_lemma2_5.json
    iterate --preset small-data-iteration            -> iterate-small/preset/
    iterate --preset small-data-iteration --theta-lag --n-max 5
                                                     -> iterate-small/theta-lag/
    probe --preset taylor-green --T 0.5 --eps 1e-4 1e-5  -> probe/

(each ``iterate`` directory holds ``iterations.csv`` and ``contraction.json``,
the ``probe`` directory one ``probe_eps<eps>.csv`` per eps).

The tolerances are fixed in advance and are not to be retuned: every number
agrees to rtol 1e-12, and the ``div_residual`` column, a roundoff-level
quantity, may also differ by atol 1e-14.
"""

import csv
import json
from pathlib import Path

import pytest

from boussinesq_lp import cli

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
DIV_ATOL = 1e-14

SOLVE_CASES = {
    "taylor-green": ["--n", "64", "--T", "0.05"],
    "euler-reduction": ["--n", "64", "--T", "0.05"],
    "hydrostatic": ["--n", "64", "--T", "0.1"],
}


def _close(value: float, ref: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + atol


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, [[float(x) for x in row] for row in rows]


def _csv_mismatches(path: Path, ref_path: Path) -> list[str]:
    """Cells of an iterate or probe CSV that differ from the reference: a
    number beyond RTOL, or an empty cell (the first ratio of
    ``iterations.csv``) that is not empty in both."""
    with open(path, newline="") as fh, open(ref_path, newline="") as ref_fh:
        (header, *rows), (ref_header, *ref_rows) = list(csv.reader(fh)), list(csv.reader(ref_fh))
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{path.name}: header or row count differs"]
    bad = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, value, ref in zip(header, row, ref_row):
            if (value or ref) and not (value and ref and _close(float(value), float(ref))):
                bad.append(f"{path.name} row {i} {name}: {value!r} != {ref!r}")
    return bad


def _json_mismatches(value, ref, where: str = "") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            return [f"{where}: keys differ"]
        return [m for k in ref for m in _json_mismatches(value[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{where}: length differs"]
        return [m for i, (v, r) in enumerate(zip(value, ref)) for m in _json_mismatches(v, r, f"{where}[{i}]")]
    if isinstance(ref, float) and not isinstance(value, bool) and isinstance(value, (int, float)):
        return [] if _close(value, ref) else [f"{where}: {value!r} != {ref!r}"]
    return [] if value == ref else [f"{where}: {value!r} != {ref!r}"]


@pytest.mark.parametrize("preset", sorted(SOLVE_CASES))
def test_solve_monitor_matches_golden(tmp_path, preset):
    argv = ["solve", "--preset", preset, *SOLVE_CASES[preset], "--out-dir", str(tmp_path)]
    assert cli.run(cli.parse_config(argv)) == 0
    header, rows = _read_csv(tmp_path / "monitor.csv")
    ref_header, ref_rows = _read_csv(GOLDEN / preset / "monitor.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    bad = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for name, value, ref in zip(header, row, ref_row):
            atol = DIV_ATOL if name == "div_residual" else 0.0
            if not _close(value, ref, atol):
                bad.append(f"row {i} {name}: {value!r} != {ref!r}")
    assert not bad, bad[:10]


ITERATE_CASES = {
    "preset": [],
    "theta-lag": ["--theta-lag", "--n-max", "5"],
}


@pytest.mark.parametrize("case", sorted(ITERATE_CASES))
def test_iterate_matches_golden(tmp_path, case):
    argv = ["iterate", "--preset", "small-data-iteration", *ITERATE_CASES[case], "--out-dir", str(tmp_path)]
    assert cli.run(cli.parse_config(argv)) == 0
    ref_dir = GOLDEN / "iterate-small" / case
    bad = _csv_mismatches(tmp_path / "iterations.csv", ref_dir / "iterations.csv")
    name = "contraction.json"
    value, ref = (json.loads((d / name).read_text()) for d in (tmp_path, ref_dir))
    bad += _json_mismatches(value, ref)
    assert not bad, bad[:10]


def test_probe_matches_golden(tmp_path):
    argv = ["probe", "--preset", "taylor-green", "--T", "0.5", "--eps", "1e-4", "1e-5"]
    argv += ["--out-dir", str(tmp_path)]
    assert cli.run(cli.parse_config(argv)) == 0
    refs = sorted(p.name for p in (GOLDEN / "probe").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == refs
    bad = [m for name in refs for m in _csv_mismatches(tmp_path / name, GOLDEN / "probe" / name)]
    assert not bad, bad[:10]


def test_verify_report_matches_golden(tmp_path):
    argv = ["verify", "--estimate", "lemma2.5", "--quick", "--out-dir", str(tmp_path)]
    assert cli.run(cli.parse_config(argv)) == 0
    name = "estimate_lemma2_5.json"
    value = json.loads((tmp_path / name).read_text())
    ref = json.loads((GOLDEN / "verify-lemma2.5" / name).read_text())
    bad = _json_mismatches(value, ref)
    assert not bad, bad[:10]
