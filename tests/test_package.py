"""The package root exports the entry points and nothing else."""

import dataclasses

import nearcomm

PUBLIC = {
    # what the acceptance suite imports
    "ExperimentConfig",
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
    # the error types
    "BranchPointError",
    "GapTooSmallError",
    "InvalidInputError",
    "NumericalError",
    "PreconditionError",
    # the pipeline's options and result
    "PipelineOptions",
    "PipelineResult",
}


def test_all_is_the_public_api_and_resolves():
    assert set(nearcomm.__all__) == PUBLIC and len(nearcomm.__all__) == 24
    for name in nearcomm.__all__:
        assert getattr(nearcomm, name) is not None


def test_pipeline_options_are_the_two_knobs():
    # the tolerances and the sweep budget are module constants, not options
    names = tuple(f.name for f in dataclasses.fields(nearcomm.PipelineOptions))
    assert names == ("min_gap", "series_target")
