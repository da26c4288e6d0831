"""The phase and direction scans against the per-point loops in ``_oracle``.

The scans score grid points and refinement steps with the exact stacked
kernels, so every reported phase and value, the minimum of the direction
sweep included, must equal the oracle's exactly.
"""

import math

import numpy as np
import pytest

import _oracle
from _helpers import random_density, random_hermitian, random_pure
from qmeas.discrimination import (
    PHASE_GRID,
    _batch_rows,
    _overlaps,
    _scan_extremum,
    channel_information,
    interference_phase_scan,
    optimal_phase,
    overlap,
)
from qmeas.hilbert import (
    DensityMatrix,
    InvariantViolation,
    Observable,
    SpaceLayout,
    StateVector,
    partial_trace,
)
from qmeas.model import PAULI_Z, decohere, interference_operator, prepare_system

AMPLITUDES = {
    "real": (0.6, 0.8),
    "complex": (0.28, 0.96j),
    "complex_both": (0.3 + 0.4j, 0.5 - 0.5j),
    "flat": (1.0, 0.0),
}


def _normalized(a):
    norm = math.sqrt(abs(a[0]) ** 2 + abs(a[1]) ** 2)
    return a[0] / norm, a[1] / norm


@pytest.mark.parametrize("name", sorted(AMPLITUDES))
def test_optimal_phase_equals_oracle(name):
    rho_s = prepare_system(*_normalized(AMPLITUDES[name]))
    assert optimal_phase(rho_s) == _oracle.optimal_phase(rho_s)


@pytest.mark.parametrize("env_overlap", [0.0, 0.4])
def test_optimal_phase_on_mixed_states_equals_oracle(env_overlap):
    # env_overlap 0 leaves the maximally mixed, indeterminate case
    tagged = decohere(prepare_system(0.6, 0.8j), 3, env_overlap, control_label="S")
    rho_s = partial_trace(tagged, ["S"])
    assert optimal_phase(rho_s) == _oracle.optimal_phase(rho_s)


@pytest.mark.parametrize("scope", ["MS", "SD"])
@pytest.mark.parametrize("name", sorted(AMPLITUDES))
def test_interference_phase_scan_equals_oracle(name, scope):
    a = _normalized(AMPLITUDES[name])
    assert interference_phase_scan(a, scope) == _oracle.interference_phase_scan(a, scope)


@pytest.mark.parametrize("name", sorted(AMPLITUDES))
def test_channel_information_equals_oracle(name):
    a = _normalized(AMPLITUDES[name])
    assert channel_information(a) == _oracle.channel_information(a)


def test_grid_tie_at_zero_and_pi_picks_zero():
    # real amplitudes: K(phase) = K(phase + pi) ties grid points 0 and 1800
    # exactly, and the scan must refine around the first, as the loop does
    a = (0.6, 0.8)
    pure, mixture = _oracle._chain_pair(a, "MS")
    grid = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    k_at_zero, k_at_pi = (
        overlap(interference_operator(pure.layout, np.exp(1j * p)), pure, mixture)
        for p in (grid[0], grid[PHASE_GRID // 2])
    )
    assert k_at_zero == k_at_pi
    phase, k_min = interference_phase_scan(a, "MS")
    assert min(phase, 2.0 * math.pi - phase) < 2.0 * math.pi / PHASE_GRID
    assert (phase, k_min) == _oracle.interference_phase_scan(a, "MS")


def test_scan_extremum_finds_a_second_half_value_below_its_mirrored_copy():
    # the objective at pi lies 1e-15 below its copy from 0; both points fall in
    # the near set, which is scored again at its own phases, so the scan
    # refines around pi, as a point-by-point scan does
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return -np.abs(np.cos(phases)) - 1e-15 * (phases > 3.0)

    phase, value = _scan_extremum(objective, minimize=True, dim=2)
    half_batches = -(-(PHASE_GRID // 2) // _batch_rows(4))
    assert np.array_equal(seen[half_batches], [0.0, math.pi])
    assert abs(phase - math.pi) < 2.0 * math.pi / PHASE_GRID
    assert value == objective(np.array([phase]))[0]


# ------------------------------------------------------------ overlap kernel

def _scalar_overlaps(layout, matrices, state1, state2):
    return np.array(
        [overlap(Observable(layout, m), state1, state2) for m in matrices]
    )


def _state_pairs(rng, layout):
    dim = layout.total_dim
    pure = [StateVector(layout, random_pure(rng, dim)) for _ in range(2)]
    mixed = [DensityMatrix(layout, random_density(rng, dim)) for _ in range(2)]
    return [tuple(pure), tuple(mixed), (pure[0], mixed[0]), (mixed[1], pure[1])]


@pytest.mark.parametrize("n_factors", [1, 2, 3])
def test_overlap_kernel_matches_overlap_on_random_stacks(n_factors):
    rng = np.random.default_rng(100 + n_factors)
    layout = SpaceLayout.of(*"SDO"[:n_factors])
    matrices = np.stack([random_hermitian(rng, layout.total_dim) for _ in range(70)])
    for state1, state2 in _state_pairs(rng, layout):
        got = _overlaps(matrices, state1, state2)
        want = _scalar_overlaps(layout, matrices, state1, state2)
        assert np.array_equal(got, want)


def test_overlap_kernel_matches_overlap_on_degenerate_spectra():
    rng = np.random.default_rng(7)
    sdo = SpaceLayout.of("S", "D", "O")
    flips = np.stack([
        interference_operator(sdo, np.exp(1j * p)).matrix for p in np.linspace(0, 6, 9)
    ])
    assert [e.multiplicity for e in Observable(sdo, flips[0]).spectrum] == [1, 6, 1]
    sd = SpaceLayout.of("S", "D")
    zz = np.kron(PAULI_Z, PAULI_Z)
    cases = [
        (sdo, flips),
        (sdo, np.stack([np.eye(8), 2.0 * flips[3] + np.eye(8)])),
        (sd, np.stack([np.eye(4), zz, -zz, 0.5 * zz])),
    ]
    for layout, matrices in cases:
        for state1, state2 in _state_pairs(rng, layout):
            got = _overlaps(matrices, state1, state2)
            want = _scalar_overlaps(layout, matrices, state1, state2)
            assert np.array_equal(got, want)


def test_overlap_kernel_on_chain_pure_state_and_branch_mixture():
    a = (0.6, 0.8j)
    pure, mixture = _oracle._chain_pair(a, "MS")
    phases = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    matrices = np.stack([interference_operator(pure.layout, np.exp(1j * p)).matrix
                         for p in phases])
    got = _overlaps(matrices, pure, mixture)
    want = _scalar_overlaps(pure.layout, matrices, pure, mixture)
    assert np.array_equal(got, want)


def test_overlap_kernel_rejects_non_hermitian_stack():
    matrices = np.stack([PAULI_Z, np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(InvariantViolation, match="Hermitian"):
        _overlaps(matrices, prepare_system(1, 0), prepare_system(0, 1))


def test_overlap_kernel_rejects_mismatched_layouts():
    with pytest.raises(ValueError, match="layout"):
        _overlaps(np.eye(2)[None], prepare_system(1, 0),
                  StateVector(SpaceLayout.of("D"), [1, 0]))

