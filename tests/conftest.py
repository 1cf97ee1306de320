"""Session fixtures: grids, corpus-wide estimate reports, shared runs.

The estimate reports are expensive (all ten take about 5.8 s on a 2-vCPU
VM, 3.4 s of it ``eq3.3``, whose coupled runs ``eq3.4`` reuses, and
1.3 s ``lemma3.1``), so everything that needs frozen constants shares
these session-scoped fixtures.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from boussinesq_lp import boussinesq as bq
from boussinesq_lp import harness
from boussinesq_lp.spectral import make_grid
from helpers import buoyancy_work, kinetic_energy


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 2.0 * np.pi)


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128, 2.0 * np.pi)


@pytest.fixture(scope="session")
def reports():
    """All registered estimates measured over the default corpus."""
    return {name: harness.verify(name) for name in harness.ESTIMATE_NAMES}


@pytest.fixture(scope="session")
def taylor_green_run(grid64):
    """The buoyant vortex preset integrated to T=1 (used by the envelope
    and energy checks)."""
    state0 = bq.taylor_green_data(grid64, 1.0, 0.05)
    energy = {"t": [], "E": [], "W": []}
    snapshots = []  # the states at t = 0, 0.2, ..., 1.0

    def on_step(state):
        if len(energy["t"]) % 200 == 0:
            snapshots.append(state)
        energy["t"].append(state.t)
        energy["E"].append(kinetic_energy(state.u))
        energy["W"].append(buoyancy_work(state.theta, state.u))

    _, record = bq.run_direct(state0, 1.0, 1e-3, 1.5, on_step=on_step)
    return {"state0": state0, "snapshots": snapshots, "record": record, "energy": energy}


@pytest.fixture(scope="session")
def small_data(grid64):
    """Synthesized small-amplitude initial data for the iteration checks."""
    theta0 = bq.synthesize_holder_field(grid64, 1.5, 0.05, 1)
    u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 0.05, 2)
    return theta0, u0


@pytest.fixture(scope="session")
def thresholds_data(grid64):
    """Very small data: every time formula is in its domain and the
    implicit horizon has an interior root."""
    theta0 = bq.synthesize_holder_field(grid64, 1.5, 0.002, 1)
    u0 = bq.synthesize_divfree_velocity(grid64, 1.5, 0.002, 2)
    return theta0, u0
