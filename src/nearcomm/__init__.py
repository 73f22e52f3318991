"""Commuting unitary pairs near almost-commuting unitaries with spectral gap.

Given two unitary matrices that nearly commute and whose spectra each
leave an empty arc on the unit circle, the pipeline produces an exactly
commuting unitary pair nearby: it centers each gap at angle 0, takes each
matrix logarithm exactly on the centered eigensystem (a smoothed Fourier
series equal to it there certifies the commutator bound), replaces the two
Hermitian logs by the nearest commuting pair found by joint approximate
diagonalization, and exponentiates back.

The package root exports the entry points the acceptance suite imports,
the error types, PipelineOptions and PipelineResult; every other name is
imported from its module (linalg, spectral, gapped_log, jointdiag,
pipeline, ensembles, sweep, mtxc).
"""

from .ensembles import (
    gen_almost_commuting_pair,
    gen_gapped_unitary,
    gen_voiculescu_pair,
    haar_unitary,
    stream_rng,
)
from .errors import (
    BranchPointError,
    GapTooSmallError,
    InvalidInputError,
    NumericalError,
    PreconditionError,
)
from .gapped_log import (
    choose_truncation,
    direct_log,
    evaluate_smoothed_sawtooth,
    gapped_log,
    laurent_coefficients,
)
from .jointdiag import nearest_commuting_pair
from .linalg import commutator, operator_norm
from .pipeline import PipelineOptions, PipelineResult, near_commuting_unitaries
from .sweep import ExperimentConfig, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "BranchPointError",
    "ExperimentConfig",
    "GapTooSmallError",
    "InvalidInputError",
    "NumericalError",
    "PipelineOptions",
    "PipelineResult",
    "PreconditionError",
    "choose_truncation",
    "commutator",
    "direct_log",
    "evaluate_smoothed_sawtooth",
    "gapped_log",
    "gen_almost_commuting_pair",
    "gen_gapped_unitary",
    "gen_voiculescu_pair",
    "haar_unitary",
    "laurent_coefficients",
    "near_commuting_unitaries",
    "nearest_commuting_pair",
    "operator_norm",
    "run_sweep",
    "stream_rng",
    "summarize",
]
