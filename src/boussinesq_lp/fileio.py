"""Artifact serialization: field snapshots, CSV tables, JSON reports.

Snapshot format: a one-line JSON header ``{"n":..., "L":..., "name":...,
"t":...}`` terminated by a newline, followed by the raw little-endian
float64 grid values in row-major order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .boussinesq import IterationRecord, MonitorRecord, MonitorSample
from .littlewood_paley import build_partition
from .spectral import SpectralField, make_grid

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "SnapshotError",
    "monitor_to_csv",
    "iterations_to_csv",
    "write_json",
]


class SnapshotError(ValueError):
    """A snapshot file with a malformed header or the wrong payload size."""


def write_snapshot(path, field: SpectralField, name: str, t: float) -> None:
    grid = field.grid
    header = json.dumps({"n": grid.n, "L": grid.length, "name": name, "t": t})
    values = np.ascontiguousarray(field.values(), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(values.tobytes())


def read_snapshot(path) -> tuple[SpectralField, dict]:
    with open(path, "rb") as fh:
        first_line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(first_line.decode("utf-8"))
        n, length = header["n"], header["L"]
        if type(n) is not int or type(length) not in (int, float):
            raise TypeError(f"n must be an integer and L a number, got n={n!r}, L={length!r}")
        length = float(length)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise SnapshotError(f"snapshot {path}: malformed header: {exc}") from None
    # sizes are compared before any grid is built, so a bad header allocates nothing
    expected = 8 * n * n
    if len(raw) != expected:
        raise SnapshotError(
            f"snapshot {path}: expected {expected} bytes of float64 values for n={n}, "
            f"found {len(raw)}"
        )
    try:
        grid = make_grid(n, length)
    except ValueError as exc:
        raise SnapshotError(f"snapshot {path}: malformed header: {exc}") from None
    try:
        build_partition(grid)  # every analysis of the field reads it
    except (ValueError, OverflowError) as exc:
        raise SnapshotError(f"snapshot {path}: {exc}") from None
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    return SpectralField.from_values(grid, values), header


def monitor_to_csv(path, record: MonitorRecord) -> None:
    """One column per ``MonitorSample`` field, in declaration order."""
    names = [f.name for f in fields(MonitorSample)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for s in record.samples:
            writer.writerow([f"{getattr(s, name):.12g}" for name in names])


def iterations_to_csv(path, records: list[IterationRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "cauchy_gap_theta", "cauchy_gap_u", "ratio"])
        for rec in records:
            ratio = "" if rec.ratio is None else f"{rec.ratio:.12g}"
            writer.writerow(
                [rec.n, f"{rec.cauchy_gap_theta:.12g}", f"{rec.cauchy_gap_u:.12g}", ratio]
            )


def write_json(path, payload) -> None:
    """Write a report as indented, key-sorted, strict JSON: through its own
    ``to_dict`` when it has one, else a dataclass through ``asdict``."""
    data = payload.to_dict() if hasattr(payload, "to_dict") else asdict(payload)
    Path(path).write_text(json.dumps(_strict(data), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _strict(data):
    """``data`` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(data, dict):
        return {key: _strict(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return list(map(_strict, data))
    return str(float(data)) if isinstance(data, float) and not np.isfinite(data) else data
