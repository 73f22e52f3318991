"""Commuting unitary pairs near almost-commuting unitaries with spectral gap.

Given two unitary matrices that nearly commute and whose spectra each
leave an empty arc on the unit circle, the pipeline produces an exactly
commuting unitary pair nearby: it centers each gap at angle 0, takes a
smoothed Fourier-series matrix logarithm with a certified truncation tail,
replaces the two Hermitian logs by the nearest commuting pair found by
joint approximate diagonalization, and exponentiates back.
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
    TruncationError,
)
from .gapped_log import (
    LaurentCoefficients,
    certified_truncation,
    choose_truncation,
    direct_log,
    evaluate_smoothed_sawtooth,
    gapped_log,
    kernel_transform,
    laurent_coefficients,
)
from .jointdiag import (
    CommutingHermitianPair,
    JadeOptions,
    nearest_commuting_pair,
    off_measure,
)
from .linalg import (
    HermitianMatrix,
    ToleranceConfig,
    UnitaryMatrix,
    commutator,
    herm_exp,
    hermiticity_defect,
    operator_norm,
    unitarity_defect,
)
from .pipeline import (
    BoundReport,
    PipelineOptions,
    PipelineResult,
    log_commutator_bound,
    near_commuting_unitaries,
)
from .spectral import (
    Eigensystem,
    GapInfo,
    center_gap,
    largest_gap,
    unitary_eigensystem,
    wrap_to_pi,
)
from .sweep import ExperimentConfig, SweepSummary, TrialRecord, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BranchPointError",
    "CommutingHermitianPair",
    "Eigensystem",
    "ExperimentConfig",
    "GapInfo",
    "GapTooSmallError",
    "HermitianMatrix",
    "InvalidInputError",
    "JadeOptions",
    "LaurentCoefficients",
    "NumericalError",
    "PipelineOptions",
    "PipelineResult",
    "PreconditionError",
    "SweepSummary",
    "ToleranceConfig",
    "TrialRecord",
    "TruncationError",
    "UnitaryMatrix",
    "center_gap",
    "certified_truncation",
    "choose_truncation",
    "commutator",
    "direct_log",
    "evaluate_smoothed_sawtooth",
    "gapped_log",
    "gen_almost_commuting_pair",
    "gen_gapped_unitary",
    "gen_voiculescu_pair",
    "haar_unitary",
    "herm_exp",
    "hermiticity_defect",
    "kernel_transform",
    "largest_gap",
    "laurent_coefficients",
    "log_commutator_bound",
    "near_commuting_unitaries",
    "nearest_commuting_pair",
    "off_measure",
    "operator_norm",
    "run_sweep",
    "stream_rng",
    "summarize",
    "unitarity_defect",
    "unitary_eigensystem",
    "wrap_to_pi",
]
