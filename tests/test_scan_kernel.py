"""The exact stacked K kernel and the pi-mirrored half grid of the phase scans.

Row n of ``_overlaps(matrices, s1, s2)`` must equal
``overlap(Observable(layout, matrices[n]), s1, s2).k_value`` bit for bit:
the scans report the phases and values it finds.  The scans evaluate the
first half of the grid only and copy those values onto the second half
(G(p + pi) = -G(p) for every scanned family); the near set of the copied
extremum is scored again at its own phases and the refinement scores each
pair of inner points in one call, so the reports equal the per-point loops
of ``_oracle``.  The direction sweep of ``channel_information`` runs in
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
    _batch_rows,
    _overlaps,
    _scan_extremum,
    channel_information,
    fibonacci_sphere,
    interference_phase_scan,
    matched_pair,
    optimal_phase,
    overlap,
)
from qmeas.hilbert import (
    DensityMatrix,
    Observable,
    SpaceLayout,
    StateVector,
    born,
    partial_trace,
)
from qmeas.model import PAULI_Z, conjugate_spin_matrix, interference_matrix, prepare_system

GRID = np.linspace(0.0, 2.0 * math.pi, MIN_PHASE_GRID, endpoint=False)
# seeded random complex amplitude pairs beyond the fixed ones of test_scan_engine
RANDOM_PAIRS = [random_amplitude_pair(np.random.default_rng(seed)) for seed in (31, 47)]


# ------------------------------------------------------------ exact kernel

def _assert_kernel_exact(layout, matrices, pairs):
    stack = np.stack(matrices)
    for state1, state2 in pairs:
        got = _overlaps(stack, state1, state2).tolist()
        assert got == [overlap(Observable(layout, m), state1, state2).k_value for m in stack]
        # the scalar loop of _oracle shares no code with the stacked kernel
        assert got == [_oracle.k_value(Observable(layout, m), state1, state2) for m in stack]


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
def test_overlaps_rows_equal_overlap_on_random_hermitians(n_factors):
    rng = np.random.default_rng(300 + n_factors)
    layout = SpaceLayout.of(*"SDO"[:n_factors])
    for _ in range(20):
        matrices = [random_hermitian(rng, layout.total_dim) for _ in range(6)]
        # real symmetric matrices go through the complex eigensolver as well
        matrices += [m.real for m in matrices]
        _assert_kernel_exact(layout, matrices, _state_pairs(rng, layout, matrices[0]))


def test_overlaps_rows_equal_overlap_on_degenerate_spectra():
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


def test_overlaps_rows_equal_overlap_on_a_stack_mixing_identity_and_random_rows():
    # the one-group identity rows and the lone eight-group random row are
    # scored apart; numpy sums the eight group weights of one row pairwise,
    # so a group sum by np.sum fails here
    rng = np.random.default_rng(23)
    sdo = SpaceLayout.of("S", "D", "O")
    for _ in range(10):
        matrices = [np.eye(8), random_hermitian(rng, 8), np.eye(8)]
        _assert_kernel_exact(sdo, matrices, _state_pairs(rng, sdo, matrices[1]))


def test_k_is_the_left_to_right_group_sum_on_every_python():
    # builtin sum compensates float roundoff from Python 3.12 on; K must not
    # depend on the interpreter, so it is the plain left-to-right sum, and
    # here a correctly rounded sum differs from it
    rng = np.random.default_rng(29)
    sdo = SpaceLayout.of("S", "D", "O")
    differs = 0
    for _ in range(40):
        op = Observable(sdo, random_hermitian(rng, 8))
        pure = StateVector(sdo, random_pure(rng, 8))
        mixed = DensityMatrix(sdo, random_density(rng, 8))
        terms = [min(w1, w2) for _, w1, w2 in overlap(op, pure, mixed).weights]
        plain = 0.0
        for term in terms:
            plain += term
        assert overlap(op, pure, mixed).k_value == plain
        assert _overlaps(op.matrix[None], pure, mixed)[0] == plain
        differs += math.fsum(terms) != plain
    assert differs > 0


def test_conjugate_spin_stack_equals_the_libm_form_bit_for_bit():
    # numpy's array cos/sin may run a SIMD kernel that differs from libm in the
    # last bit; the stacked matrices of the scans must be the per-point ones
    step = GRID[1]
    for phases in (GRID, *(np.array([g - step / 3.0, g + step / 3.0]) for g in GRID)):
        stack = conjugate_spin_matrix(phases)
        for matrix, phase in zip(stack, phases):
            assert matrix.tobytes() == _oracle.conjugate_spin_matrix(phase).tobytes()
    assert conjugate_spin_matrix(GRID[7]).tobytes() == _oracle.conjugate_spin_matrix(
        GRID[7]).tobytes()


@pytest.mark.parametrize("n_factors", [1, 2, 3])
def test_born_form_equals_vdot_and_trace_bit_for_bit(n_factors):
    # the one Born form of hilbert, stacked, against the per-matrix forms;
    # an einsum or a summed product differs in the last bit in about half the cases
    rng = np.random.default_rng(400 + n_factors)
    layout = SpaceLayout.of(*"SDO"[:n_factors])
    dim = layout.total_dim
    stack = np.stack([random_hermitian(rng, dim) for _ in range(50)])
    pure = StateVector(layout, random_pure(rng, dim))
    mixed = DensityMatrix(layout, random_density(rng, dim))
    a, rho = pure.amplitudes, mixed.matrix
    assert born(stack, pure).tolist() == [np.vdot(a, m @ a).real for m in stack]
    assert born(stack, mixed).tolist() == [np.trace(m @ rho).real for m in stack]


@pytest.mark.parametrize("scope", ["MS", "SD"])
def test_overlaps_rows_equal_overlap_on_the_chain_pair(scope):
    pure, mixture = matched_pair((0.6, 0.8j), scope)
    matrices = list(interference_matrix(np.exp(1j * GRID[::40]), pure.layout.n_factors))
    _assert_kernel_exact(pure.layout, matrices, [(pure, mixture), (mixture, pure)])


# ------------------------------------------------------------ mirrored half grid

@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("n_grid", [MIN_PHASE_GRID, 4000, 4098])
def test_scan_extremum_evaluates_the_first_half_then_the_near_set(n_grid, dim):
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return np.cos(2.0 * phases)

    _scan_extremum(objective, n_grid, minimize=True, dim=dim)
    grid = np.linspace(0.0, 2.0 * math.pi, n_grid, endpoint=False)
    rows = _batch_rows(dim)
    half_batches = -(-(n_grid // 2) // rows)
    assert np.array_equal(np.concatenate(seen[:half_batches]), grid[: n_grid // 2])
    assert max(len(phases) for phases in seen) <= rows
    assert set(seen[half_batches]) <= set(grid)
    # the refinement scores its pair of inner points in one call, then the midpoint
    assert [len(phases) for phases in seen[half_batches + 1:]] == [2] * 80 + [1]


def test_scan_extremum_picks_p_on_exact_ties_at_p_and_p_plus_pi():
    # four exact ties, a quarter turn apart: the later two are copies of the
    # first two, the near set holds all four, and the first grid point wins
    n = MIN_PHASE_GRID
    ties = GRID[[0, n // 4, n // 2, 3 * n // 4]]
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return np.min((phases[:, None] - ties[None, :]) ** 2, axis=1)

    phase, value = _scan_extremum(objective, n, minimize=True, dim=2)
    assert np.array_equal(seen[-(-(n // 2) // _batch_rows(2))], ties)
    assert abs(phase) < 2.0 * math.pi / n
    assert value == objective(np.array([phase]))[0]


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
    assert channel_information(a) == _oracle.channel_information(a)


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
