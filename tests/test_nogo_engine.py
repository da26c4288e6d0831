"""The batched no-go engine against the per-candidate loop in ``_oracle``.

The engine draws its random candidates in batches and applies them with
einsum and batched matrix products, so the comparison requires identical draws,
counts, parameters and flags, and floats equal to within 64 ulp of O(1)
quantities: the summation order of a matrix-vector product may differ from
the loop's, nothing else does.
"""

import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import _oracle
from qmeas import cli, discrimination
from qmeas.discrimination import (
    _apply,
    _batch_rows,
    _forcing_draws,
    _pointer_directions,
    _random_hermitians,
    _sphere_rows,
    forcing_check,
    nogo_search,
)
from qmeas.hilbert import DEFAULT_EIGENSTATE_TOL, InvariantViolation, StateVector, eigen_residuals
from qmeas.model import (
    PAULI_X,
    PAULI_Z,
    branch_state,
    decohere,
    measurement_chain_state,
    ms_layout,
    prepare_system,
)

SDO = ms_layout()
STATES = (measurement_chain_state(0.6, 0.8j), branch_state(1, SDO), branch_state(2, SDO))
# O and D scan 5006 grid points, then 5007 random directions, MS 10013 random
# matrices: no count is a multiple of the engine's batch size, and a swapped
# grid/random split would draw different candidates
N = 10_013
FLOAT_TOL = 64 * np.finfo(float).eps
# O and D batch rows at dim 8, _batch_rows(dim): a batch holds psi's (rows,
# dim) products alone unless psi passes in it, as many entries as the (64,
# dim, dim) matrices of an MS batch
OD_ROWS = 512
# psi's residual under d0 P_z + d1 P_x + d2 P_y on O is sqrt(1 - (0.28 d0)^2),
# smallest at the poles.  The grid comes nearest them at |d0| = 1 - 1/5006;
# just below its residual no grid point passes, and the first candidate that
# passes all three eigenstate tests is random direction 3603 (|d0| = 0.99982)
LATE_HIT_TOL = math.sqrt(1.0 - (0.28 * (1.0 - 1.0 / (N // 2))) ** 2) - 1e-7


def _leaves(value):
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def assert_same_verdict(got, want):
    got_leaves, want_leaves = _leaves(got), _leaves(want)
    assert len(got_leaves) == len(want_leaves), (got, want)
    for g, w in zip(got_leaves, want_leaves):
        if isinstance(w, float) and not isinstance(w, bool):
            assert g == pytest.approx(w, rel=FLOAT_TOL, abs=FLOAT_TOL), (got, want)
        else:
            assert type(g) is type(w) and g == w, (got, want)


@pytest.mark.parametrize("tol", [1e-9, 0.7, 1.2])
@pytest.mark.parametrize("scope", ["O", "D", "MS"])
def test_engine_matches_per_candidate_loop(scope, tol):
    got = nogo_search(scope, STATES, N, tol=tol, seed=3)
    want = _oracle.nogo_search(scope, STATES, N, tol=tol, seed=3)
    assert_same_verdict(got, want)


def test_engine_stops_mid_batch_like_the_loop():
    # random direction 3603 = 7 * 512 + 19 is the 20th of its batch
    got = nogo_search("O", STATES, N, tol=LATE_HIT_TOL, seed=3)
    want = _oracle.nogo_search("O", STATES, N, tol=LATE_HIT_TOL, seed=3)
    assert got.found and got.n_candidates_tested == N // 2 + 3604
    assert_same_verdict(got, want)


def test_found_verdict_renders_its_witness_in_json_and_csv():
    verdict = nogo_search("O", STATES, N, tol=LATE_HIT_TOL, seed=3)
    direction, g0, g1, g2 = verdict.witness
    section = cli._verdict_dict(verdict, None)
    parsed = json.loads(cli.render_json(section))
    assert parsed["found"] is True
    assert parsed["witness"] == {"parameters": str(direction), "g0": g0, "g1": g1, "g2": g2}
    rows = {row[0]: row[1] for row in csv.reader(cli.render_csv({"O": section}).splitlines())}
    assert rows["O.witness.parameters"] == str(direction)
    for name, value in (("g0", g0), ("g1", g1), ("g2", g2)):
        assert type(value) is float and float(rows[f"O.witness.{name}"]) == value


@pytest.mark.parametrize("n_samples", [1, 333])
def test_forcing_check_matches_per_sample_loop(n_samples):
    got = forcing_check(STATES, n_samples=n_samples, seed=5, tol=0.5)
    want = _oracle.forcing_check(STATES, n_samples=n_samples, seed=5, tol=0.5)
    assert_same_verdict(got, want)


def test_one_batch_rule_sizes_every_batched_loop():
    # about 4096 entries a batch; at dim 8, the size of every bench no-go run,
    # 64 MS and forcing matrices and 512 O/D directions, screened on psi's
    # dim-entry products, and 1024 phases of the 2 x 2 scans
    assert _batch_rows(8 * 8) == 64
    assert _batch_rows(8) == OD_ROWS == 512
    assert _batch_rows(2 * 2) == 1024
    # a dim 128 row holds more than 4096 entries; a batch still has one row
    assert _batch_rows(128 * 128) == 1 and _batch_rows(3 * 128) >= 1


@pytest.mark.parametrize("row_entries", [1, 4, 24, 64, 4095, 4096, 4097, 128 * 128])
def test_batch_rows_holds_at_most_4096_entries_and_at_least_one_row(row_entries):
    rows = _batch_rows(row_entries)
    assert rows >= 1
    # the batch is the largest that fits, or one row when a row alone overflows
    assert rows * row_entries <= 4096 or rows == 1
    assert (rows + 1) * row_entries > 4096


@pytest.mark.parametrize("tol", [1e-9, 0.2, 0.7])
def test_decohered_chain_matches_the_per_candidate_loop(tol):
    # one environment qubit: dim 16, where an MS or forcing batch holds 16
    # rows instead of the 64 at dim 8; the last batch of each is partial
    states = tuple(decohere(state, 1, 0.5) for state in STATES)
    assert _batch_rows(states[0].layout.total_dim ** 2) == 16
    got = nogo_search("MS", states, N, tol=tol, seed=3)
    assert_same_verdict(got, _oracle.nogo_search("MS", states, N, tol=tol, seed=3))
    got = forcing_check(states, n_samples=333, seed=5, tol=tol)
    assert_same_verdict(got, _oracle.forcing_check(states, n_samples=333, seed=5, tol=tol))


def test_grid_batches_equal_the_whole_sphere_bit_for_bit():
    # each batch computes its own rows, so memory does not grow with n_sphere
    n = 5001  # 9 full batches and a partial one
    got = np.concatenate(list(_pointer_directions(n, 0, None, OD_ROWS)))
    assert np.array_equal(got, _sphere_rows(n, 0, n))


def test_batched_draws_equal_sequential_draws():
    # 1100 random directions span three O/D batches and 150 random matrices
    # three MS batches, the last one partial in both
    dim = SDO.total_dim
    n_sphere, n_directions, n_random = 70, 1100, 150
    sequential = np.random.default_rng(3)
    rows = [sequential.normal(size=3) for _ in range(n_directions)]
    want = np.concatenate([_sphere_rows(n_sphere, 0, n_sphere),
                           [r / np.linalg.norm(r) for r in rows]])
    batches = list(_pointer_directions(n_sphere, n_directions, np.random.default_rng(3), OD_ROWS))
    assert [len(b) for b in batches] == [70, OD_ROWS, OD_ROWS, 76]
    np.testing.assert_allclose(np.concatenate(batches), want, rtol=FLOAT_TOL, atol=FLOAT_TOL)

    sequential = np.random.default_rng(3)
    want = []
    for _ in range(n_random):
        raw = sequential.normal(size=(dim, dim)) + 1j * sequential.normal(size=(dim, dim))
        want.append((raw + raw.conj().T) / 2.0)
    batches = list(_random_hermitians(n_random, dim, np.random.default_rng(3)))
    assert [start for start, _ in batches] == [0, 64, 128]
    # exactly Hermitian, so the MS scan applies them without an Observable gate
    assert all(np.array_equal(h, h.conj().swapaxes(1, 2)) for _, h in batches)
    assert np.array_equal(np.concatenate([m for _, m in batches]), want)

    sequential = np.random.default_rng(3)
    want = []
    for k in range(n_random):
        g1, g2 = sequential.normal(size=2)
        raw = sequential.normal(size=(dim, dim)) + 1j * sequential.normal(size=(dim, dim))
        want.append((g1, g1 if k % 2 == 0 else g2, (raw + raw.conj().T) / 2.0))
    batches = list(_forcing_draws(n_random, dim, np.random.default_rng(3)))
    got_g1, got_g2, got_h = (np.concatenate(part) for part in zip(*batches))
    assert np.array_equal(got_g1, [g1 for g1, _, _ in want])
    assert np.array_equal(got_g2, [g2 for _, g2, _ in want])
    assert np.array_equal(got_h, [h for _, _, h in want])


def _stacked_apply(matrices, vectors):
    """The per-vector stack that ``_apply``'s broadcast matmul replaced."""
    return np.stack([matrices @ v for v in vectors], axis=1)


def _norm_eigen_residuals(products, vectors, tol):
    """``eigen_residuals`` with its residual from ``np.linalg.norm``."""
    lam = np.einsum("si,nsi->ns", vectors.conj(), products).real
    residual = np.linalg.norm(products - lam[..., None] * vectors, axis=-1)
    return lam, np.all(residual <= tol, axis=1)


def _random_stack(dim, n_vectors):
    """64 random Hermitian matrices of ``dim`` and ``n_vectors`` unit vectors."""
    rng = np.random.default_rng(dim + n_vectors)
    matrices = discrimination._hermitians(rng.standard_normal((64, 2, dim, dim)))
    vectors = rng.standard_normal((n_vectors, dim)) + 1j * rng.standard_normal((n_vectors, dim))
    return matrices, vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


STACKS = pytest.mark.parametrize(
    "dim, n_vectors", [(dim, n) for dim in (2, 4, 8, 16) for n in (1, 3)]
)


@STACKS
def test_apply_equals_the_per_vector_stack(dim, n_vectors):
    matrices, vectors = _random_stack(dim, n_vectors)
    assert np.array_equal(_apply(matrices, vectors), _stacked_apply(matrices, vectors))


@STACKS
def test_eigen_residuals_equal_the_norm_residuals(dim, n_vectors):
    # a tolerance at a candidate's largest norm residual, or one ulp below it,
    # flips that candidate's mask if its inlined residual differs by one ulp
    matrices, vectors = _random_stack(dim, n_vectors)
    products = _apply(matrices, vectors)
    lam = np.einsum("si,nsi->ns", vectors.conj(), products).real
    largest = np.linalg.norm(products - lam[..., None] * vectors, axis=-1).max(axis=1)
    for tol in np.concatenate([largest, np.nextafter(largest, 0.0)]):
        got = eigen_residuals(products, vectors, tol)
        want = _norm_eigen_residuals(products, vectors, tol)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert np.array_equal(got[1], largest <= tol)


@pytest.mark.parametrize("tol", [1e-9, 0.7, 1.2, LATE_HIT_TOL])
def test_verdicts_do_not_depend_on_the_batch_rows(monkeypatch, tol):
    # the same scans in 64-row O/D batches, with the per-vector stack and the
    # norm residuals, give the same verdicts bit for bit
    scopes = ("O", "D", "MS")
    got = [nogo_search(scope, STATES, N, tol=tol, seed=3) for scope in scopes]
    rows_asked = []
    pointer_directions = discrimination._pointer_directions

    def at_64_rows(n_sphere, n_random, rng, rows):
        rows_asked.append(rows)
        return pointer_directions(n_sphere, n_random, rng, 64)

    monkeypatch.setattr(discrimination, "_pointer_directions", at_64_rows)
    monkeypatch.setattr(discrimination, "_apply", _stacked_apply)
    monkeypatch.setattr(discrimination, "eigen_residuals", _norm_eigen_residuals)
    want = [nogo_search(scope, STATES, N, tol=tol, seed=3) for scope in scopes]
    assert rows_asked == [OD_ROWS, OD_ROWS]
    assert got == want


@pytest.mark.parametrize("scope", ["O", "D", "MS", "forcing", "D-confirmed"])
def test_scan_memory_stays_bounded(scope):
    # a scan holds one batch at a time: about 0.3 MB for O/D and 0.4 MB for
    # MS at 20000 candidates, 0.55 MB for the forcing check, and 0.83 MB for
    # an O/D batch in which psi passes, so that all three products are formed
    # (the rotated detector's third batch); screened O/D batches of 2048 rows
    # would peak at about 1.05 MB, of 4096 rows at about 1.9 MB
    if scope == "forcing":
        def run():
            return forcing_check(STATES)
    elif scope == "D-confirmed":
        def run():
            return nogo_search("D", _rotated_detector(STATES, 1.0), 20_000, tol=0.9601, seed=3)
    else:
        def run():
            return nogo_search(scope, STATES, 20_000)
    run()  # one-time set-up inside numpy is not the scan's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _rotated_detector(states, angle):
    """The states with the detector qubit turned by ``angle`` about y."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    turn = np.array([[c, -s], [s, c]])
    return tuple(
        StateVector(SDO, np.einsum("ij,ajb->aib", turn, v.amplitudes.reshape(2, 2, 2)).ravel())
        for v in states
    )


def test_engine_labels_a_late_detector_hit_like_the_loop():
    # With the detector turned by 1 rad the passing directions form a cap
    # away from the pole, and the first grid point inside it lies in the
    # third batch, the first in which psi passes
    states = _rotated_detector(STATES, 1.0)
    got = nogo_search("D", states, N, tol=0.9601, seed=3)
    want = _oracle.nogo_search("D", states, N, tol=0.9601, seed=3)
    assert got.found and 2 * OD_ROWS < got.n_candidates_tested < 3 * OD_ROWS
    assert type(got.witness[0]) is tuple
    assert all(type(d) is np.float64 for d in got.witness[0])
    assert_same_verdict(got, want)


def test_engine_labels_a_late_random_hit_with_its_global_index():
    # On the chain every structured observable (S_z first) discriminates at
    # any tolerance a random one passes, so no random candidate is ever the
    # first hit there.  On one qubit a random Hermitian passes at tol 0.2 and
    # no structured one does; the first hit lies in the third batch, so a
    # label built from the batch offset alone would read random[39].
    psi = prepare_system(0.6, 0.8j)
    states = (psi, branch_state(1, psi.layout), branch_state(2, psi.layout))
    got = nogo_search("MS", states, 10_014, tol=0.2, seed=3)
    want = _oracle.nogo_search("MS", states, 10_014, tol=0.2, seed=3)
    assert got.witness[0] == "random[167]"
    assert_same_verdict(got, want)


def test_pointer_basis_is_still_gated(monkeypatch):
    # the O and D scopes check the basis once; a non-Hermitian basis fails
    raising = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    monkeypatch.setattr(discrimination, "_POINTER_BASIS", np.stack([PAULI_Z, PAULI_X, raising]))
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        nogo_search("O", STATES, N, seed=3)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_nonpositive_tolerance_is_rejected_on_every_path(tol):
    # out of the no-go regime the scan is skipped, and a forcing check with
    # no samples tests nothing; both still reject the tolerance
    flat = measurement_chain_state(1, 0)
    out_of_regime = (flat, branch_state(1, SDO), branch_state(2, SDO))
    with pytest.raises(ValueError, match="tol must be positive"):
        nogo_search("O", out_of_regime, N, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        forcing_check(STATES, n_samples=0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        nogo_search("MS", STATES, N, tol=tol)


def _recorded_vectors(monkeypatch):
    """The vectors of every ``eigen_residuals`` call the engine makes, in order."""
    calls = []

    def recording(products, vectors, tol):
        calls.append(vectors.copy())
        return eigen_residuals(products, vectors, tol)

    monkeypatch.setattr(discrimination, "eigen_residuals", recording)
    return calls


SCREEN_STACKS = pytest.mark.parametrize(
    "dim, rows", [(dim, rows) for dim in (2, 4, 8, 16) for rows in (1, 170, 512)]
)


def _screen_stack(dim, rows):
    """``rows`` random Hermitian matrices of ``dim``, three unit vectors, and a
    complex (3, 3 dim) pointer basis with ``rows`` real directions."""
    rng = np.random.default_rng(dim * 1000 + rows)
    matrices = discrimination._hermitians(rng.standard_normal((rows, 2, dim, dim)))
    vectors = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    basis = rng.standard_normal((3, 3 * dim)) + 1j * rng.standard_normal((3, 3 * dim))
    directions = rng.standard_normal((rows, 3))
    return matrices, vectors / np.linalg.norm(vectors, axis=1, keepdims=True), basis, directions


@SCREEN_STACKS
def test_psi_products_alone_equal_column_0_of_the_three_vector_products(dim, rows):
    # the screen forms G_n psi alone; the products of the states it confirms
    # must agree with it bit for bit, or a batch could pass one and not the other
    matrices, vectors, basis, directions = _screen_stack(dim, rows)
    assert _apply(matrices, vectors[:1]).tobytes() == _apply(matrices, vectors)[:, :1].tobytes()
    psi_columns = (directions @ basis)[:, :dim]
    assert (directions @ basis[:, :dim]).tobytes() == psi_columns.tobytes()


@SCREEN_STACKS
def test_psi_alone_gives_the_eigenvalue_bits_and_mask_of_the_three_vector_test(dim, rows):
    # a tolerance at each candidate's psi residual, or one ulp below it, flips
    # that candidate's screen if psi's residual alone differs by one ulp
    matrices, vectors, _, _ = _screen_stack(dim, rows)
    products = _apply(matrices, vectors)
    lam = eigen_residuals(products, vectors, 1.0)[0]
    residual = np.linalg.norm(products - lam[..., None] * vectors, axis=-1)[:, 0]
    screened = _apply(matrices, vectors[:1])
    for tol in np.concatenate([residual, np.nextafter(residual, 0.0)]):
        got_lam, got_passed = eigen_residuals(screened, vectors[:1], tol)
        assert got_lam.tobytes() == lam[:, :1].tobytes()
        assert np.array_equal(got_passed, residual <= tol)


@pytest.mark.parametrize(
    "scope, tol, batches, confirmed",
    [
        # 5006 grid points and 5007 random directions in 512-row batches
        ("O", DEFAULT_EIGENSTATE_TOL, 20, 0),
        ("D", DEFAULT_EIGENSTATE_TOL, 20, 0),
        # the structured chunk, which holds I, then 157 batches of 64 matrices
        ("MS", DEFAULT_EIGENSTATE_TOL, 158, 1),
        # every candidate passes all three tests, and the first one discriminates
        ("O", 1.2, 1, 1),
    ],
)
def test_each_batch_screens_on_psi_and_confirms_only_where_psi_passes(
        monkeypatch, scope, tol, batches, confirmed):
    states = np.stack([state.amplitudes for state in STATES])
    calls = _recorded_vectors(monkeypatch)
    nogo_search(scope, STATES, N, tol=tol, seed=3)
    screens = [vectors for vectors in calls if len(vectors) == 1]
    confirms = [vectors for vectors in calls if len(vectors) != 1]
    assert len(screens) == batches and len(confirms) == confirmed
    assert all(np.array_equal(vectors, states[:1]) for vectors in screens)
    assert all(np.array_equal(vectors, states) for vectors in confirms)
    # a confirmation follows the screen of its own batch
    assert all(len(calls[n - 1]) == 1 for n, vectors in enumerate(calls) if len(vectors) == 3)


def test_candidates_only_the_target_passes_are_rejected_by_the_confirmation(monkeypatch):
    # The target |111> is an eigenstate of the observer's P_z and its branches
    # (|111> +- |222>) / sqrt 2 are not: near the pole the target passes at
    # tol 0.05, and the test on all three states rejects every such candidate
    b1, b2 = (state.amplitudes for state in STATES[1:])
    states = (STATES[1], StateVector(SDO, (b1 + b2) / math.sqrt(2.0)),
              StateVector(SDO, (b1 - b2) / math.sqrt(2.0)))
    calls = _recorded_vectors(monkeypatch)
    got = nogo_search("O", states, N, tol=0.05, seed=3)
    assert sum(len(vectors) == 3 for vectors in calls) >= 1
    assert not got.found and got.max_min_gap == 0.0 and got.n_candidates_tested == N
    assert_same_verdict(got, _oracle.nogo_search("O", states, N, tol=0.05, seed=3))
