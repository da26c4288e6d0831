"""The exact scalar K kernel and the pi-mirrored half grid of the phase scans.

``_k_value`` must equal ``overlap(Observable(layout, m), s1, s2).k_value``
bit for bit: the scans report the phases and values it finds.  The scans
run their batched objective on the first half of the grid only and copy
those values onto the second half (G(p + pi) = -G(p) for every scanned
family); the re-scoring and the refinement still cover the full grid with
the scalar objective, so the reports equal the per-point loops of
``_oracle``.  The direction sweep of ``channel_information`` runs in
batches, so its memory does not grow with ``n_directions``.
"""

import math
import tracemalloc

import numpy as np
import pytest

import _oracle
from _helpers import random_amplitude_pair, random_density, random_hermitian, random_pure
from qmeas.discrimination import (
    _POINTER_BASIS,
    MIN_DIRECTIONS,
    MIN_PHASE_GRID,
    _k_value,
    _overlaps,
    _scan_extremum,
    channel_information,
    fibonacci_sphere,
    interference_phase_scan,
    matched_pair,
    optimal_phase,
    overlap,
)
from qmeas.hilbert import DensityMatrix, Observable, SpaceLayout, StateVector, partial_trace
from qmeas.model import PAULI_Z, interference_matrix, prepare_system

GRID = np.linspace(0.0, 2.0 * math.pi, MIN_PHASE_GRID, endpoint=False)
POST_CHANNEL_TOL = 1e-13
# seeded random complex amplitude pairs beyond the fixed ones of test_scan_engine
RANDOM_PAIRS = [random_amplitude_pair(np.random.default_rng(seed)) for seed in (31, 47)]


# ------------------------------------------------------------ scalar kernel

def _assert_kernel_exact(layout, matrices, pairs):
    for matrix in matrices:
        obs = Observable(layout, matrix)
        for state1, state2 in pairs:
            assert _k_value(matrix, state1, state2) == overlap(obs, state1, state2).k_value


def _state_pairs(rng, layout, matrix):
    """Pure and mixed pairs; the eigenvector states put roundoff-negative
    weights on the other spectral groups, where the clamp to zero acts."""
    dim = layout.total_dim
    pure = StateVector(layout, random_pure(rng, dim))
    mixed = DensityMatrix(layout, random_density(rng, dim))
    vectors = np.linalg.eigh(Observable(layout, matrix).matrix)[1]
    eigen = StateVector(layout, vectors[:, 0] / np.linalg.norm(vectors[:, 0]))
    low = vectors[:, :2]
    eigen_mixed = DensityMatrix(layout, low @ low.conj().T / 2.0)
    return [(pure, mixed), (mixed, pure), (eigen, pure), (mixed, eigen),
            (eigen_mixed, mixed), (eigen, eigen_mixed)]


@pytest.mark.parametrize("n_factors", [1, 2, 3])
def test_k_value_equals_overlap_on_random_hermitians(n_factors):
    rng = np.random.default_rng(300 + n_factors)
    layout = SpaceLayout.of(*"SDO"[:n_factors])
    for _ in range(20):
        matrix = random_hermitian(rng, layout.total_dim)
        # a real symmetric matrix goes through the complex eigensolver as well
        _assert_kernel_exact(layout, [matrix, matrix.real], _state_pairs(rng, layout, matrix))


def test_k_value_equals_overlap_on_degenerate_spectra():
    rng = np.random.default_rng(17)
    sdo = SpaceLayout.of("S", "D", "O")
    flips = [interference_matrix(np.exp(1j * p), 3) for p in np.linspace(0, 6, 7)]
    assert [e.multiplicity for e in Observable(sdo, flips[0]).spectrum] == [1, 6, 1]
    sd = SpaceLayout.of("S", "D")
    zz = np.kron(PAULI_Z, PAULI_Z)
    cases = [
        (sdo, [*flips, np.eye(8), 2.0 * flips[3] + np.eye(8)]),
        (sd, [np.eye(4), zz, -zz, 0.5 * zz]),
    ]
    for layout, matrices in cases:
        pairs = _state_pairs(rng, layout, matrices[0])
        _assert_kernel_exact(layout, matrices, pairs)


@pytest.mark.parametrize("scope", ["MS", "SD"])
def test_k_value_equals_overlap_on_the_chain_pair(scope):
    pure, mixture = matched_pair((0.6, 0.8j), scope)
    n_factors = pure.layout.n_factors
    matrices = [interference_matrix(np.exp(1j * p), n_factors) for p in GRID[::40]]
    _assert_kernel_exact(pure.layout, matrices, [(pure, mixture), (mixture, pure)])


# ------------------------------------------------------------ mirrored half grid

@pytest.mark.parametrize("n_grid", [MIN_PHASE_GRID, 4000, 4098])
def test_scan_extremum_evaluates_batched_on_the_first_half_only(n_grid):
    seen = []

    def batched(phases):
        seen.append(phases.copy())
        return np.cos(phases)

    _scan_extremum(batched, math.cos, n_grid, minimize=True)
    grid = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    assert np.array_equal(np.concatenate(seen), grid[: n_grid // 2])


def test_scan_extremum_breaks_ties_favoured_later_in_the_evaluated_half():
    # four exact scalar ties, a quarter turn apart; the batched values favour
    # the later one of the evaluated half by 1e-15, and the copy carries that
    # onto its pi partner; the scalar re-score picks the first grid point
    n = MIN_PHASE_GRID
    ties = GRID[[0, n // 4, n // 2, 3 * n // 4]]
    calls = []

    def scalar(p):
        calls.append(p)
        return min((p - t) ** 2 for t in ties)

    def batched(phases):
        values = np.min((phases[:, None] - ties[None, :]) ** 2, axis=1)
        return values - 1e-15 * (phases > 1.0)

    phase, value = _scan_extremum(batched, scalar, n, minimize=True)
    assert calls[:4] == list(ties)
    assert len(calls) == 4 + 2 * 80 + 1
    assert abs(phase) < 2.0 * math.pi / n
    assert value == scalar(phase)


_SCANS = {
    "optimal_phase": lambda n: optimal_phase(prepare_system(0.6, 0.8), n),
    "interference_MS": lambda n: interference_phase_scan((0.6, 0.8), "MS", n),
    "interference_SD": lambda n: interference_phase_scan((0.6, 0.8), "SD", n),
    "channel_information": lambda n: channel_information((0.6, 0.8), n_gamma=n),
}


@pytest.mark.parametrize("name", sorted(_SCANS))
def test_odd_phase_grid_is_rejected(name):
    with pytest.raises(ValueError, match="even"):
        _SCANS[name](MIN_PHASE_GRID + 1)


@pytest.mark.parametrize("index", range(len(RANDOM_PAIRS)))
def test_scans_equal_oracle_on_random_complex_pairs(index):
    a = RANDOM_PAIRS[index]
    rho_s = prepare_system(*a)
    assert optimal_phase(rho_s) == _oracle.optimal_phase(rho_s)
    for scope in ("MS", "SD"):
        assert interference_phase_scan(a, scope) == _oracle.interference_phase_scan(a, scope)
    got = channel_information(a)
    want = _oracle.channel_information(a)
    assert abs(got.post_channel_k_min - want.post_channel_k_min) <= POST_CHANNEL_TOL
    assert got == want._replace(post_channel_k_min=got.post_channel_k_min)


# ------------------------------------------------------------ direction sweep

@pytest.mark.parametrize("n_directions", [MIN_DIRECTIONS, 4099, 200_000])
def test_direction_sweep_equals_the_whole_array_minimum(n_directions):
    a = (0.28, 0.96j)
    pure_sd, mixed_sd = matched_pair(a, "SD")
    pure_d, mixed_d = (partial_trace(s, ["D"]) for s in (pure_sd, mixed_sd))
    matrices = np.einsum("nk,kab->nab", fibonacci_sphere(n_directions), _POINTER_BASIS)
    whole = min(1.0, float(_overlaps(matrices, pure_d, mixed_d).min()))
    report = channel_information(a, n_directions=n_directions)
    assert report.post_channel_k_min == whole


def test_direction_sweep_memory_is_bounded():
    # one stacked call over 200k directions peaks at about 63 MB
    tracemalloc.start()
    try:
        report = channel_information((0.6, 0.8), n_directions=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_directions == 200_000
    assert peak < 4 * 2**20
