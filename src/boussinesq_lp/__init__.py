"""Pseudo-spectral toolkit for the inviscid buoyancy-coupled system.

Subpackages:
    spectral         periodic-grid field arithmetic and multipliers
    littlewood_paley dyadic decomposition, Besov/Hoelder norms, paraproducts
    transport        linear advection solver (RK4, pseudo-spectral)
    boussinesq       coupled solver, iteration scheme, blow-up monitor
    harness          empirical-constant reports and existence-time formulas
    fileio, cli      artifact output and the command-line front end
"""

from .spectral import (
    Grid,
    SpectralField,
    VectorField,
    make_grid,
    derivative,
    dealias,
    grad_inv_laplacian_div,
    leray_project,
    linf_norm,
    lp_norm,
)
from .littlewood_paley import (
    DyadicPartition,
    BesovReport,
    build_partition,
    block,
    low_pass,
    holder_norm,
    besov_norm,
    bony_decompose,
    commutator,
    compute_a0,
)
from .transport import TransportProblem, CFLViolation, solve
from .boussinesq import (
    BoussinesqState,
    MonitorRecord,
    IterationRecord,
    direct_step,
    run_direct,
    iterate_scheme,
    continuation_check,
    synthesize_holder_field,
    synthesize_divfree_velocity,
    uniqueness_probe,
)
from .harness import (
    CorpusSpec,
    EstimateReport,
    ThresholdReport,
    ThresholdDomainError,
    verify,
    compute_thresholds,
    contraction_report,
)

__version__ = "0.1.0"
