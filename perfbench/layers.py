"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces every public function of the seven modules of
``boussinesq_lp`` with a wrapper that records a span (layer, function,
parent span, start, end, transforms issued so far).  Modules bind names
with ``from .x import f``, so a wrapper is installed at every lookup site:
each module attribute that holds the original function object is rebound,
not only the one in the defining module.  ``numpy.fft.fft2``/``ifft2`` are
wrapped to count transforms; the spectral core calls them through the
``np.fft`` attribute, so that one patch sees every transform.

Spans stay in memory and are reduced to metrics by :func:`layer_metrics`
when the traced round ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

from workloads import STATIC_ESTIMATES

LAYERS = ("spectral", "littlewood_paley", "transport", "boussinesq", "harness", "fileio", "cli")

# calls that run_direct makes for its per-step monitor sample
MONITOR_FUNCTIONS = {"grad_linf_norm", "holder_norm", "holder_norm_vector", "divergence_residual"}
GAP_NORM_FUNCTIONS = {"holder_norm", "holder_norm_vector"}
SYNTHESIZE_FUNCTIONS = {"synthesize_holder_field", "synthesize_divfree_velocity"}
FILE_WRITERS = {"write_snapshot", "monitor_to_csv", "iterations_to_csv", "trajectory_to_csv", "write_json"}
VERIFY_ESTIMATES = STATIC_ESTIMATES + ("lemma3.1",)


class Span:
    __slots__ = ("layer", "name", "parent", "t0", "t1", "fft0", "fft1", "child_s", "extra")

    def __init__(self, layer: str, name: str, parent: "Span | None"):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.extra = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def ffts(self) -> int:
        return self.fft1 - self.fft0

    def has_ancestor(self, predicate) -> bool:
        p = self.parent
        while p is not None:
            if predicate(p):
                return True
            p = p.parent
        return False


def _transport_steps(args, kwargs, result) -> int:
    problem = args[0] if args else kwargs["problem"]
    T, dt = float(problem.T), float(problem.dt)
    n_steps = int(np.floor(T / dt + 1e-9))
    return n_steps + (1 if T - n_steps * dt > 1e-12 else 0)


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


# per-function observers: turn a call's arguments and result into a count
OBSERVERS = {
    ("boussinesq", "run_direct"): lambda args, kwargs, result: len(result[1].samples),
    ("transport", "solve"): _transport_steps,
    ("harness", "verify"): lambda args, kwargs, result: (result.name, len(result.samples)),
    **{("fileio", name): _bytes_written for name in FILE_WRITERS},
}


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fft_calls = 0
        self.fft_s = 0.0
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("boussinesq_lp")]
        modules += [importlib.import_module(f"boussinesq_lp.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for name in module.__all__:
                original = getattr(module, name)
                if isinstance(original, type) or not callable(original):
                    continue
                wrapper = self._wrap(layer, name, original)  # each __all__ lists only its own functions
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._rebind(site, attr, wrapper)
        self._rebind(np.fft, "fft2", self._count_fft(np.fft.fft2))
        self._rebind(np.fft, "ifft2", self._count_fft(np.fft.ifft2))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fft_s += time.perf_counter() - t0
                self.fft_calls += 1

        return counted

    def _wrap(self, layer: str, name: str, fn):
        observe = OBSERVERS.get((layer, name))
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            stack.append(span)
            span.fft0 = self.fft_calls
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.fft1 = self.fft_calls
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if observe is not None:
                span.extra = observe(args, kwargs, result)
            return result

        return traced


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Reduce one traced round to the per-layer metrics.

    Times are seconds per round and counts are per round, except the
    ``*_per_*`` ratios; a round is a fixed number of ``units``.
    """
    spans = tracer.spans
    by_name: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for s in spans:
        by_name[(s.layer, s.name)].append(s)

    def total(layer, name, attr="duration"):
        return sum(getattr(s, attr) for s in by_name[(layer, name)])

    m: dict[str, float] = {}
    m["spectral.fft_per_unit"] = tracer.fft_calls / units
    m["spectral.fft_s"] = tracer.fft_s
    m["spectral.advect_calls"] = len(by_name[("spectral", "advect")])
    m["spectral.advect_s"] = total("spectral", "advect")
    m["spectral.leray_project_s"] = total("spectral", "leray_project")
    m["spectral.divfree_checks_per_unit"] = len(by_name[("spectral", "is_divergence_free")]) / units

    holder = by_name[("littlewood_paley", "holder_norm")]
    besov = by_name[("littlewood_paley", "besov_norm")]
    block_norms = sum(
        1 for s in by_name[("spectral", "lp_norm")]
        if s.parent is not None and s.parent.name == "besov_norm"
    )
    m["littlewood_paley.holder_norm_calls"] = len(holder)
    m["littlewood_paley.holder_norm_s"] = sum(s.duration for s in holder)
    m["littlewood_paley.block_norms_per_call"] = block_norms / len(besov) if besov else 0.0
    m["littlewood_paley.commutator_s"] = total("littlewood_paley", "commutator")

    solves = by_name[("transport", "solve")]
    steps = sum(s.extra for s in solves)
    m["transport.solve_self_s"] = total("transport", "solve", "self_s")
    m["transport.steps"] = steps
    m["transport.fft_per_step"] = sum(s.ffts for s in solves) / steps if steps else 0.0

    runs = by_name[("boussinesq", "run_direct")]
    monitor = [
        s for s in spans
        if s.name in MONITOR_FUNCTIONS and s.parent is not None and s.parent.name == "run_direct"
    ]
    samples = sum(s.extra for s in runs)
    rk4_steps = samples - len(runs)  # the initial sample is taken before the first step
    monitor_s = sum(s.duration for s in monitor)
    monitor_ffts = sum(s.ffts for s in monitor)
    m["boussinesq.step_self_s"] = total("boussinesq", "run_direct") - monitor_s
    m["boussinesq.monitor_s"] = monitor_s
    m["boussinesq.fft_per_monitor_sample"] = monitor_ffts / samples if samples else 0.0
    m["boussinesq.fft_per_step"] = (
        (sum(s.ffts for s in runs) - monitor_ffts) / rk4_steps if rk4_steps else 0.0
    )
    m["boussinesq.iterate_self_s"] = total("boussinesq", "iterate_scheme", "self_s")
    m["boussinesq.gap_norm_s"] = sum(
        s.duration for s in spans
        if s.name in GAP_NORM_FUNCTIONS and s.parent is not None and s.parent.name == "iterate_scheme"
    )
    m["boussinesq.synthesize_s"] = sum(
        s.duration for s in spans
        if s.name in SYNTHESIZE_FUNCTIONS
        and not s.has_ancestor(lambda p: p.name in SYNTHESIZE_FUNCTIONS)
    )

    verify_s = dict.fromkeys(VERIFY_ESTIMATES, 0.0)
    for s in by_name[("harness", "verify")]:
        verify_s[s.extra[0]] = verify_s.get(s.extra[0], 0.0) + s.duration
    for name in VERIFY_ESTIMATES:
        m[f"harness.verify_s.{name}"] = verify_s[name]
    m["harness.samples"] = sum(s.extra[1] for s in by_name[("harness", "verify")])

    writes = [s for s in spans if s.layer == "fileio" and s.name in FILE_WRITERS]
    m["fileio.write_s"] = sum(s.duration for s in writes)
    m["fileio.bytes_written"] = sum(s.extra for s in writes)

    for layer in LAYERS:
        own = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(own)
        m[f"{layer}.busy_s"] = sum(
            s.duration for s in own if not s.has_ancestor(lambda p, layer=layer: p.layer == layer)
        )
        m[f"{layer}.self_s"] = sum(s.self_s for s in own)
    return m


# metrics that depend only on the code path, so they repeat exactly
COUNT_METRICS = (
    "spectral.fft_per_unit",
    "spectral.advect_calls",
    "spectral.divfree_checks_per_unit",
    "littlewood_paley.holder_norm_calls",
    "littlewood_paley.block_norms_per_call",
    "transport.steps",
    "transport.fft_per_step",
    "boussinesq.fft_per_monitor_sample",
    "boussinesq.fft_per_step",
    "harness.samples",
    "fileio.bytes_written",
) + tuple(f"{layer}.calls" for layer in LAYERS)
