"""The exact stacked K kernel and the pi-mirrored half grid of the phase scans.

``_overlaps`` is the one K kernel: ``overlap`` is its one-row call.  Row n
of ``_overlaps(matrices, s1, s2)`` must equal that one-row call on
``matrices[n]`` and the scalar loop ``_oracle.k_value``, which shares no
code with it, bit for bit: the scans report the phases and values it
finds.  The scans evaluate the first half of the grid only and copy those
values onto the second half (G(p + pi) = -G(p) for every scanned family);
the near set of the copied minimum is scored again at its own phases and
the refinement scores the inner points of three ternary steps in one
call, so the reports equal the per-point loops of ``_oracle``.  The
direction sweep of ``channel_information`` is one stacked call over its
``N_DIRECTIONS`` directions.  The kernel runs no Hermiticity gate, so
every scanned family must be one that the gate returns bit for bit.
"""

import math

import numpy as np
import pytest

import _oracle
from _helpers import random_amplitude_pair, random_density, random_hermitian, random_pure
from qmeas import discrimination
from qmeas.discrimination import (
    _POINTER_BASIS,
    LOOKAHEAD,
    N_DIRECTIONS,
    PHASE_GRID,
    REFINE_STEPS,
    _batch_rows,
    _overlaps,
    _scan_extremum,
    _sphere_rows,
    channel_information,
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
    checked_hermitian,
    outcome_distribution,
    partial_trace,
)
from qmeas.model import (
    PAULI_Z,
    conjugate_spin_matrix,
    decohere,
    interference_matrix,
    interference_operator,
    prepare_system,
)

SQ2 = 1.0 / math.sqrt(2.0)
GRID = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)


def _normalized(a1, a2):
    norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
    return a1 / norm, a2 / norm


# fixed amplitude pairs, "flat" with a1 a2 = 0 (every grid point ties), and
# seeded random complex pairs
AMPLITUDES = {
    "real": _normalized(0.6, 0.8),
    "complex": _normalized(0.28, 0.96j),
    "complex_both": _normalized(0.3 + 0.4j, 0.5 - 0.5j),
    "flat": _normalized(1.0, 0.0),
    **{f"random{seed}": random_amplitude_pair(np.random.default_rng(seed))
       for seed in (31, 47)},
}


# ------------------------------------------------------------ exact kernel

def _assert_kernel_exact(layout, matrices, pairs):
    stack = np.stack(matrices)
    for state1, state2 in pairs:
        got = _overlaps(stack, state1, state2).tolist()
        # a row does not depend on the other rows of its stack
        assert got == [overlap(Observable(layout, m), state1, state2) for m in stack]
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
        # the public distributions carry the kernel's group weights exactly
        dist1, dist2 = outcome_distribution(pure, op), outcome_distribution(mixed, op)
        terms = [min(w1, w2) for (_, w1), (_, w2) in zip(dist1, dist2)]
        plain = 0.0
        for term in terms:
            plain += term
        assert overlap(op, pure, mixed) == plain
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
def test_scan_extremum_evaluates_the_first_half_then_the_near_set(dim):
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return np.cos(2.0 * phases)

    _scan_extremum(objective, dim=dim)
    assert PHASE_GRID % 2 == 0  # the second half copies the first
    rows = _batch_rows(dim * dim)
    half_batches = -(-(PHASE_GRID // 2) // rows)
    assert np.array_equal(np.concatenate(seen[:half_batches]), GRID[: PHASE_GRID // 2])
    assert max(len(phases) for phases in seen) <= rows
    assert set(seen[half_batches]) <= set(GRID)
    # the refinement looks three steps ahead: one call scores the 2 + 4 + 8
    # inner points of the brackets they can reach, 26 such calls and one of
    # two steps (2 + 4) make the 80 steps, then the midpoint is scored
    assert (REFINE_STEPS, LOOKAHEAD) == (80, 3)
    assert [len(phases) for phases in seen[half_batches + 1:]] == [14] * 26 + [6] + [1]


STEP = 2.0 * math.pi / PHASE_GRID

# objectives that stress the walk of the lookahead refinement, in steps
# placed at fractions of a grid step; the first grid minimum lies at 0, at
# the next grid point (a step down just after 0), or at the last one (the
# descending ramp, the minimum on the upper bracket edge)
_WALK_OBJECTIVES = {
    "constant": lambda p: np.zeros(len(p)),  # ties at every step
    "ramp_up": lambda p: p,
    "ramp_down": lambda p: -p,
    **{f"step_up_at_{t:+.2f}": (lambda p, t=t: np.where(p < t * STEP, 0.0, 1.0))
       for t in (-0.5, -1.0 / 3.0, 0.0, 0.3, 1.0 / 3.0, 0.7)},
    **{f"step_down_at_{t:+.2f}": (lambda p, t=t: np.where(p < t * STEP, 1.0, 0.0))
       for t in (-0.2, 0.1, 0.5)},
    "minimum_on_lower_edge": lambda p: (p + STEP) ** 2,
    "minimum_on_upper_edge": lambda p: (p - 2.0 * math.pi) ** 2,
    "minimum_inside": lambda p: (p - 0.37 * STEP) ** 2,
}


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("name", list(_WALK_OBJECTIVES))
def test_lookahead_refinement_equals_the_pairwise_loop(name, dim):
    # the point-by-point scan of _oracle, refined by its pairwise ternary loop,
    # must give the phase and value of the lookahead bit for bit; the loop's
    # points are among the ones the lookahead scored
    objective = _WALK_OBJECTIVES[name]
    scored, looped = set(), []

    def recorded(phases):
        scored.update(phases.tolist())
        return objective(phases)

    def scalar(p):
        looped.append(p)
        return float(objective(np.array([p]))[0])

    got = _scan_extremum(recorded, dim=dim)
    best = GRID[int(np.argmin([scalar(p) for p in GRID]))]
    looped.clear()
    want = _oracle._refine_extremum(scalar, best - STEP, best + STEP, minimize=True)
    assert got == want
    assert set(looped) <= scored


def test_scan_extremum_picks_p_on_exact_ties_at_p_and_p_plus_pi():
    # four exact ties, a quarter turn apart: the later two are copies of the
    # first two, the near set holds all four, and the first grid point wins
    n = PHASE_GRID
    ties = GRID[[0, n // 4, n // 2, 3 * n // 4]]
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return np.min((phases[:, None] - ties[None, :]) ** 2, axis=1)

    phase, value = _scan_extremum(objective, dim=2)
    assert np.array_equal(seen[-(-(n // 2) // _batch_rows(4))], ties)
    assert abs(phase) < 2.0 * math.pi / n
    assert value == objective(np.array([phase]))[0]


_SCANS = {
    "optimal_phase": lambda: optimal_phase(prepare_system(0.6, 0.8)),
    "interference_MS": lambda: interference_phase_scan((0.6, 0.8), "MS"),
    "interference_SD": lambda: interference_phase_scan((0.6, 0.8), "SD"),
    "channel_information": lambda: channel_information((0.6, 0.8)),
}


@pytest.mark.parametrize("name", sorted(_SCANS))
def test_every_scan_runs_on_the_fixed_even_grid(name, monkeypatch):
    # each public scan goes through _scan_extremum, whose objective sees the
    # first half of the PHASE_GRID grid in batches, then the near set
    seen, dims = [], []

    def recording(objective, dim):
        def wrapped(phases):
            seen.append(phases.copy())
            return objective(phases)

        dims.append(dim)
        return _scan_extremum(wrapped, dim=dim)

    monkeypatch.setattr(discrimination, "_scan_extremum", recording)
    _SCANS[name]()
    assert PHASE_GRID % 2 == 0 and len(dims) == 1
    half_batches = -(-(PHASE_GRID // 2) // _batch_rows(dims[0] ** 2))
    assert np.array_equal(np.concatenate(seen[:half_batches]), GRID[: PHASE_GRID // 2])
    assert set(seen[half_batches]) <= set(GRID)


def test_scan_extremum_finds_a_second_half_value_below_its_mirrored_copy():
    # the objective at pi lies 1e-15 below its copy from 0; both points fall in
    # the near set, which is scored again at its own phases, so the scan
    # refines around pi, as a point-by-point scan does
    seen = []

    def objective(phases):
        seen.append(phases.copy())
        return -np.abs(np.cos(phases)) - 1e-15 * (phases > 3.0)

    phase, value = _scan_extremum(objective, dim=2)
    half_batches = -(-(PHASE_GRID // 2) // _batch_rows(4))
    assert np.array_equal(seen[half_batches], [0.0, math.pi])
    assert abs(phase - math.pi) < 2.0 * math.pi / PHASE_GRID
    assert value == objective(np.array([phase]))[0]


def test_grid_tie_at_zero_and_pi_picks_zero():
    # real amplitudes: K(phase) = K(phase + pi) ties grid points 0 and 1800
    # exactly, and the scan must refine around the first, as the loop does
    a = (0.6, 0.8)
    pure, mixture = _oracle._chain_pair(a, "MS")
    k_at_zero, k_at_pi = (
        overlap(interference_operator(pure.layout, np.exp(1j * p)), pure, mixture)
        for p in (GRID[0], GRID[PHASE_GRID // 2])
    )
    assert k_at_zero == k_at_pi
    phase, k_min = interference_phase_scan(a, "MS")
    assert min(phase, 2.0 * math.pi - phase) < 2.0 * math.pi / PHASE_GRID
    assert (phase, k_min) == _oracle.interference_phase_scan(a, "MS")


# each scan of the package and its per-point loop in _oracle, on one pair
_ORACLE_SCANS = {
    "optimal_phase": lambda m, a: m.optimal_phase(prepare_system(*a)),
    "interference_MS": lambda m, a: m.interference_phase_scan(a, "MS"),
    "interference_SD": lambda m, a: m.interference_phase_scan(a, "SD"),
    "channel_information": lambda m, a: m.channel_information(a),
}


@pytest.mark.parametrize("scan", list(_ORACLE_SCANS))
@pytest.mark.parametrize("name", list(AMPLITUDES))
def test_scans_equal_oracle_on_amplitude_pairs(name, scan):
    a = AMPLITUDES[name]
    run = _ORACLE_SCANS[scan]
    assert run(discrimination, a) == run(_oracle, a)


@pytest.mark.parametrize("env_overlap", [0.0, 0.4])
def test_optimal_phase_on_mixed_states_equals_oracle(env_overlap):
    # env_overlap 0 leaves the maximally mixed, indeterminate case
    tagged = decohere(prepare_system(0.6, 0.8j), 3, env_overlap, control_label="S")
    rho_s = partial_trace(tagged, ["S"])
    assert optimal_phase(rho_s) == _oracle.optimal_phase(rho_s)


# ------------------------------------------------------------ direction sweep

@pytest.mark.parametrize(
    "a", [(0.28, 0.96j), (0.6, 0.8), (1.0, 0.0), (SQ2, -SQ2)], ids=str
)
def test_direction_sweep_equals_the_whole_array_minimum(a):
    pure_sd, mixed_sd = matched_pair(a, "SD")
    pure_d, mixed_d = (partial_trace(s, ["D"]) for s in (pure_sd, mixed_sd))
    directions = _sphere_rows(N_DIRECTIONS, 0, N_DIRECTIONS)
    matrices = np.einsum("nk,kab->nab", directions, _POINTER_BASIS)
    whole = min(1.0, float(_overlaps(matrices, pure_d, mixed_d).min()))
    *_, post_k_min = channel_information(a)
    assert post_k_min == whole


# ------------------------------------------------------------ exactly Hermitian families

# the kernels run no Hermiticity gate: every stack they are given must be
# one the gate returns bit for bit, signs of zero included
_FAMILIES = {
    "conjugate_spin": conjugate_spin_matrix,
    "interference_SD": lambda phases: interference_matrix(np.exp(1j * phases), 2),
    "interference_SDO": lambda phases: interference_matrix(np.exp(1j * phases), 3),
}


def _assert_gate_returns_its_input(stack):
    assert checked_hermitian(stack).tobytes() == stack.tobytes()


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_scanned_families_are_exactly_hermitian(family):
    # the grid, the refinement's offsets around it and seeded random phases
    step = GRID[1]
    random = np.random.default_rng(61).uniform(-math.pi, 3.0 * math.pi, 2000)
    phases = np.concatenate([GRID, GRID - step / 3.0, GRID + step / 3.0, random])
    _assert_gate_returns_its_input(_FAMILIES[family](phases))


def test_direction_sweep_stack_is_exactly_hermitian():
    directions = _sphere_rows(N_DIRECTIONS, 0, N_DIRECTIONS)
    _assert_gate_returns_its_input(np.einsum("nk,kab->nab", directions, _POINTER_BASIS))


# ------------------------------------------------------------ input gates

def test_overlap_kernel_rejects_mismatched_layouts():
    with pytest.raises(ValueError, match="layout"):
        _overlaps(np.eye(2)[None], prepare_system(1, 0),
                  StateVector(SpaceLayout.of("D"), [1, 0]))
