"""Numerical simulator of a qubit measurement chain and its information limits.

The chain couples a measured qubit to a detector pointer, an observer
pointer, and optionally a bath of environment qubits.  The package builds
the entangled chain states, samples collapse events with reproducible
counter-based streams, computes overlap and purity metrics, and searches
observable families for an operator that could tell the entangled state
from its branches (none exists while both amplitudes are nonzero).
"""

from .hilbert import (
    DensityMatrix,
    InvariantViolation,
    Observable,
    SpaceLayout,
    SpectralEntry,
    StateVector,
    basis_state,
    embed_operator,
    expectation,
    is_eigenstate,
    outcome_distribution,
    partial_trace,
    tensor_state,
)
from .model import (
    ObservableZoo,
    branch_state,
    decohere,
    interference_operator,
    measurement_chain_state,
    ms_layout,
    pointer_ready,
    premeasure,
    prepare_system,
    zoo,
)
from .ensembles import (
    FrequencyReport,
    Gemenge,
    mixture_density,
    restrict_statistical,
    restrict_stochastic,
    run_ensemble,
)
from .discrimination import (
    ChannelInformationReport,
    DiscriminationVerdict,
    ForcingCheck,
    InterferenceReport,
    OverlapReport,
    PhaseScanResult,
    channel_information,
    interference_analysis,
    interference_phase_scan,
    matched_pair,
    nogo_search,
    optimal_phase,
    overlap,
    purity_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelInformationReport",
    "DensityMatrix",
    "DiscriminationVerdict",
    "ForcingCheck",
    "FrequencyReport",
    "Gemenge",
    "InterferenceReport",
    "InvariantViolation",
    "Observable",
    "ObservableZoo",
    "OverlapReport",
    "PhaseScanResult",
    "SpaceLayout",
    "SpectralEntry",
    "StateVector",
    "basis_state",
    "branch_state",
    "channel_information",
    "decohere",
    "embed_operator",
    "expectation",
    "interference_analysis",
    "interference_operator",
    "interference_phase_scan",
    "is_eigenstate",
    "matched_pair",
    "measurement_chain_state",
    "mixture_density",
    "ms_layout",
    "nogo_search",
    "optimal_phase",
    "outcome_distribution",
    "overlap",
    "partial_trace",
    "pointer_ready",
    "premeasure",
    "prepare_system",
    "purity_rate",
    "restrict_statistical",
    "restrict_stochastic",
    "run_ensemble",
    "tensor_state",
    "zoo",
]
