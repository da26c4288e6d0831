"""Numerical simulator of a qubit measurement chain and its information limits.

The chain couples a measured qubit to a detector pointer, an observer
pointer, and optionally a bath of environment qubits.  The package builds
the entangled chain states, samples collapse events with reproducible
counter-based streams, computes overlap and purity metrics, and searches
observable families for an operator that could tell the entangled state
from its branches (none exists while both amplitudes are nonzero).
"""

from types import ModuleType as _ModuleType

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
    DiscriminationVerdict,
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

# every public name bound above, submodules aside
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
