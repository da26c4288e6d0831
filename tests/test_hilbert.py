import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.hilbert import (
    InvariantViolation,
    Observable,
    SpaceLayout,
    StateVector,
    basis_state,
    eigen_residuals,
    embed_operator,
    expectation,
    grouped_spectra,
    is_eigenstate,
    outcome_distribution,
    partial_trace,
    tensor_state,
)
from qmeas.model import interference_matrix

import _oracle
from _helpers import pure_density, random_density, random_hermitian, random_pure

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

S = SpaceLayout.of("S")
SD = SpaceLayout.of("S", "D")
SDO = SpaceLayout.of("S", "D", "O")


def ket(layout, amplitudes):
    return StateVector(layout, np.asarray(amplitudes, dtype=complex))


# ---------------------------------------------------------------- layouts

def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        SpaceLayout.of("S", "S")


def test_layout_rejects_non_qubit_dims():
    with pytest.raises(ValueError, match="dim 3"):
        SpaceLayout((("S", 3),))


def test_layout_is_a_hashable_value():
    same = SpaceLayout((("S", 2), ("D", 2)))
    assert same == SD and same is not SD and hash(same) == hash(SD)
    assert len({SD, same, SpaceLayout.of("D", "S")}) == 2
    assert SD != SpaceLayout.of("D", "S") and SD != SD.factors
    with pytest.raises(AttributeError):
        SD.factors = S.factors


def test_layout_axis_and_total_dim():
    assert SDO.total_dim == 8
    assert SDO.axis("D") == 1
    with pytest.raises(ValueError, match="no factor"):
        SDO.axis("X")


# ----------------------------------------------------------- state vectors

def test_state_vector_rejects_non_normalized():
    with pytest.raises(InvariantViolation, match="norm"):
        ket(S, [1.0, 1.0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_state_vector_accepts_normalized_random(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    state = ket(layout, random_pure(rng, layout.total_dim))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_state_amplitudes_are_frozen():
    state = basis_state(S, [0])
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


@pytest.mark.parametrize("kind", ["state", "density", "observable"])
def test_states_reject_attribute_assignment_and_compare_by_identity(kind):
    state = basis_state(S, [0])
    value, name = {
        "state": (state, "amplitudes"),
        "density": (pure_density(state), "matrix"),
        "observable": (Observable(S, Z), "matrix"),
    }[kind]
    for attr in value.__slots__:
        with pytest.raises(AttributeError, match=attr):
            setattr(value, attr, getattr(value, attr))
        with pytest.raises(AttributeError):
            delattr(value, attr)
    with pytest.raises(ValueError, match="read-only"):
        getattr(value, name)[0] = 0.0
    assert value == value and value != type(value)(value.layout, getattr(value, name))


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))]
)
def test_values_survive_copy_and_pickle(clone):
    assert clone(SD) == SD
    state = basis_state(SD, [0, 1])
    obs = Observable(SD, np.diag([1.0, 1.0, 2.0, 3.0]))
    for value, name in ((state, "amplitudes"), (pure_density(state), "matrix"), (obs, "matrix")):
        twin = clone(value)
        assert twin.layout == value.layout
        assert np.array_equal(getattr(twin, name), getattr(value, name))
        assert not getattr(twin, name).flags.writeable
    assert repr(clone(obs)) == repr(obs) == "Observable(dim=4)"


# ------------------------------------------------------------ tensor_state

def test_tensor_basis_product():
    out = tensor_state([basis_state(S, [0]), basis_state(SpaceLayout.of("D"), [0])])
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_tensor_superposition_expansion():
    plus = ket(S, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    one = basis_state(SpaceLayout.of("D"), [1])
    out = tensor_state([plus, one])
    assert np.allclose(out.amplitudes, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)])


def test_tensor_triple_product_norm():
    # oracle: norm of the raw Kronecker product, computed independently
    psi = np.array([0.6, 0.8], dtype=complex)
    pointer = np.array([1, 1], dtype=complex) / np.sqrt(2)
    raw = np.kron(np.kron(psi, pointer), pointer)
    assert abs(np.linalg.norm(raw) - 1.0) < 1e-12

    out = tensor_state(
        [ket(S, psi), ket(SpaceLayout.of("D"), pointer), ket(SpaceLayout.of("O"), pointer)]
    )
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_tensor_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        tensor_state([basis_state(S, [0]), basis_state(S, [0])])


# ---------------------------------------------------------- embed_operator

def test_embed_sigma_z_on_first_factor():
    out = embed_operator(Z, ["S"], SD)
    assert np.allclose(out.matrix, np.kron(Z, np.eye(2)))


def test_embed_identity_gives_identity():
    out = embed_operator(np.eye(2), ["D"], SD)
    assert np.allclose(out.matrix, np.eye(4))


def test_embed_sigma_x_on_middle_factor_expectation():
    # symmetric entangled chain state (|000> + |111>)/sqrt(2)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    psi = ket(SDO, amps)
    # oracle: raw matrix expectation of I (x) X (x) I
    raw = np.kron(np.eye(2), np.kron(X, np.eye(2)))
    assert abs(np.vdot(amps, raw @ amps)) < 1e-12

    out = embed_operator(X, ["D"], SDO)
    assert abs(expectation(psi, out)) <= 1e-12


def test_embed_preserves_placement_for_permuted_targets():
    rng = np.random.default_rng(7)
    matrix = random_hermitian(rng, 4)
    # embedding on (D, S) must transpose the two-factor operator
    swapped = embed_operator(matrix, ["D", "S"], SD)
    tensor = matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(swapped.matrix, tensor)


def test_embed_unknown_label_raises():
    with pytest.raises(ValueError, match="no factor"):
        embed_operator(Z, ["X"], SD)


@pytest.mark.parametrize("matrix, targets", [
    (np.eye(4), ["S"]),          # two qubits' worth onto one target
    (Z, ["S", "D"]),             # one qubit's worth onto two targets
    (np.eye(2)[:, :1], ["S"]),   # not square
    (np.ones(2), ["S"]),         # not a matrix
])
def test_embed_rejects_a_matrix_not_sized_to_its_targets(matrix, targets):
    with pytest.raises(ValueError, match="targets given"):
        embed_operator(matrix, targets, SD)


def test_embed_rejects_a_non_hermitian_matrix_at_the_observable_gate():
    with pytest.raises(InvariantViolation, match="observable matrix is not Hermitian"):
        embed_operator(np.array([[0, 1], [0, 0]]), ["D"], SDO)


# ------------------------------------------------------------ partial_trace

def test_partial_trace_of_entangled_pair():
    a1, a2 = 0.6, 0.8
    amps = np.array([a1, 0, 0, a2], dtype=complex)
    reduced = partial_trace(ket(SD, amps), ["D"])
    assert np.allclose(reduced.matrix, np.diag([a1**2, a2**2]))
    assert reduced.layout.labels == ("D",)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    from qmeas.hilbert import DensityMatrix

    joint = DensityMatrix(SD, np.kron(rho_a, rho_b))
    kept = partial_trace(joint, ["S"])
    assert np.allclose(kept.matrix, rho_a, atol=1e-12)


def test_partial_trace_pure_and_density_paths_agree():
    rng = np.random.default_rng(11)
    psi = ket(SDO, random_pure(rng, 8))
    via_vector = partial_trace(psi, ["S", "O"])
    via_matrix = partial_trace(pure_density(psi), ["S", "O"])
    assert np.allclose(via_vector.matrix, via_matrix.matrix, atol=1e-12)


def test_partial_trace_rejects_empty_keep():
    psi = basis_state(SD, [0, 0])
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(psi, [])


@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=40)
def test_partial_trace_output_invariants(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    psi = ket(layout, random_pure(rng, layout.total_dim))
    keep = list(layout.labels[: rng.integers(1, n_factors + 1)])
    reduced = partial_trace(psi, keep)
    m = reduced.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-12


# -------------------------------------------------------- spectral analysis

def test_spectrum_of_sigma_z():
    (low, p_low, _), (high, p_high, _) = Observable(S, Z).spectrum
    assert (low, high) == (-1.0, 1.0)
    assert np.allclose(p_low, [[0, 0], [0, 1]])
    assert np.allclose(p_high, [[1, 0], [0, 0]])


def test_spectrum_of_identity_merges_degeneracy():
    obs = Observable(SD, np.eye(4))
    assert len(obs.spectrum) == 1
    value, projector, multiplicity = obs.spectrum[0]
    assert value == pytest.approx(1.0)
    assert multiplicity == 4
    assert np.allclose(projector, np.eye(4))


def test_spectrum_groups_nearly_degenerate_eigenvalues():
    m = np.diag([1.0, 1.0 + 1e-12, 2.0, 3.0])
    obs = Observable(SD, m)
    assert [multiplicity for _, _, multiplicity in obs.spectrum] == [2, 1, 1]


@pytest.mark.parametrize("split, multiplicities", [(1e-6, [1, 1]), (1e-9, [2])])
def test_spectrum_joins_a_split_exactly_below_its_tolerance(split, multiplicities):
    # at 0.5 the grouping tolerance EIG_GROUP_RTOL is 1e-8: a split of 1e-6
    # stays two groups, which 1e-4 would join, and 1e-9 is one
    obs = Observable(S, np.diag([0.5, 0.5 + split]))
    assert [multiplicity for _, _, multiplicity in obs.spectrum] == multiplicities


def test_interference_matrix_spectrum_contains_plus_minus_one():
    # joint flip operator |000><111| + |111><000| on the 8-dim chain space
    b = np.zeros((8, 8), dtype=complex)
    b[0, 7] = 1.0
    b[7, 0] = 1.0
    # oracle: direct diagonalization
    direct = np.linalg.eigvalsh(b)
    assert np.allclose(direct, [-1, 0, 0, 0, 0, 0, 0, 1], atol=1e-12)

    obs = Observable(SDO, b)
    values, _, multiplicities = zip(*obs.spectrum)
    assert values == pytest.approx((-1.0, 0.0, 1.0))
    assert list(multiplicities) == [1, 6, 1]


def test_spectrum_is_the_one_row_call_of_grouped_spectra():
    rng = np.random.default_rng(29)
    stack = np.stack([
        np.eye(8),
        random_hermitian(rng, 8),
        interference_matrix(np.exp(0.7j), 3),  # groups of 1, 6 and 1
        random_hermitian(rng, 8),
        np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    structures, seen = [], []
    for rows, values, cuts, projectors in grouped_spectra(stack):
        structures.append(np.diff(cuts).tolist())
        for i, n in enumerate(rows.tolist()):
            spectrum = Observable(SDO, stack[n]).spectrum
            assert [multiplicity for _, _, multiplicity in spectrum] == structures[-1]
            for (value, projector, _), start, stop, group in zip(
                spectrum, cuts, cuts[1:], projectors
            ):
                assert value == float(values[i, start:stop].mean())
                assert projector.tobytes() == group[i].tobytes()  # bit for bit
            seen.append(n)
    assert sorted(seen) == list(range(len(stack)))
    assert structures == [[8], [1] * 8, [1, 6, 1], [2, 3, 1, 1, 1]]


def test_observable_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(InvariantViolation, match="Hermitian"):
        Observable(S, m)


@pytest.mark.parametrize("size", [1e-9, 1e-8, 1e-7])
def test_observable_gate_rejects_an_anti_hermitian_part_above_its_tolerance(size):
    # X + i size Z differs from its adjoint by 2 size: above the gate's 1e-10,
    # and below 1e-6, which no other test tells apart from it
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        Observable(S, X + 1j * size * Z)


def test_observable_gate_admits_an_anti_hermitian_part_below_its_tolerance():
    # 2e-11 passes the gate, and symmetrizing removes the part exactly
    assert np.array_equal(Observable(S, X + 1j * 1e-11 * Z).matrix, X)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_spectral_reconstruction_random_hermitian(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    m = random_hermitian(rng, layout.total_dim)
    obs = Observable(layout, m)
    rebuilt = sum(value * projector for value, projector, _ in obs.spectrum)
    scale = max(np.linalg.norm(m), 1.0)
    assert np.linalg.norm(rebuilt - obs.matrix) / scale <= 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_projector_algebra(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    obs = Observable(layout, random_hermitian(rng, layout.total_dim))
    projectors = [projector for _, projector, _ in obs.spectrum]
    total = sum(projectors)
    assert np.max(np.abs(total - np.eye(layout.total_dim))) <= 1e-10
    for i, p in enumerate(projectors):
        for j, q in enumerate(projectors):
            expected = p if i == j else np.zeros_like(p)
            assert np.max(np.abs(p @ q - expected)) <= 1e-10


# --------------------------------------------------------------- expectation

def test_expectation_of_conjugate_spin_on_pure_state():
    a1, a2 = 0.6, 0.8
    sx = Observable(S, X / 2)
    val = expectation(ket(S, [a1, a2]), sx)
    assert val == pytest.approx(a1 * a2, abs=1e-12)


def test_expectation_of_conjugate_spin_on_mixture():
    from qmeas.hilbert import DensityMatrix

    sx = Observable(S, X / 2)
    mix = DensityMatrix(S, np.diag([0.36, 0.64]))
    assert expectation(mix, sx) == pytest.approx(0.0, abs=1e-12)


def test_expectation_of_identity_is_one():
    rng = np.random.default_rng(5)
    psi = ket(SD, random_pure(rng, 4))
    assert expectation(psi, Observable(SD, np.eye(4))) == pytest.approx(1.0, abs=1e-12)


def test_expectation_layout_mismatch_raises():
    with pytest.raises(ValueError, match="layout mismatch"):
        expectation(basis_state(S, [0]), Observable(SD, np.eye(4)))


def test_born_rejects_an_imaginary_expectation_in_a_stack():
    from qmeas.hilbert import born

    # |0><1| is not Hermitian: <psi|G|psi> = i/2 for psi = (1, i)/sqrt(2)
    stack = np.stack([X / 2, np.array([[0, 1], [0, 0]], dtype=complex)])
    psi = ket(S, np.array([1, 1j]) / np.sqrt(2))
    with pytest.raises(InvariantViolation, match="imaginary part"):
        born(stack, psi)
    with pytest.raises(InvariantViolation, match="imaginary part"):
        born(stack, pure_density(psi))


# -------------------------------------------------------------- is_eigenstate

def test_is_eigenstate_basis_vector():
    assert is_eigenstate(Observable(S, Z), basis_state(S, [0])) == pytest.approx(1.0)


def test_is_eigenstate_superposition_is_absent():
    plus = ket(S, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert is_eigenstate(Observable(S, Z), plus) is None


def test_is_eigenstate_rejects_bad_tol():
    with pytest.raises(ValueError, match="positive"):
        is_eigenstate(Observable(S, Z), basis_state(S, [0]), tol=0.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_is_eigenstate_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    layout = SD
    m = random_hermitian(rng, 4)
    obs = Observable(layout, m)
    if rng.random() < 0.5:
        vec = random_pure(rng, 4)
    else:
        # exact eigenvector of the symmetrized matrix
        _, vectors = np.linalg.eigh(obs.matrix)
        vec = vectors[:, rng.integers(0, 4)]
    state = ket(layout, vec)
    tol = 1e-9
    # oracle: residual computed directly from raw arrays
    lam = np.vdot(vec, obs.matrix @ vec).real
    brute = np.linalg.norm(obs.matrix @ vec - lam * vec) <= tol
    assert (is_eigenstate(obs, state, tol) is not None) == brute


def _eigen_cases(dim, seed):
    """(observable, state): random states, exact eigenvectors and near misses."""
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*"SDOE"[: dim.bit_length() - 1])
    cases = []
    for _ in range(20):
        obs = Observable(layout, random_hermitian(rng, dim))
        _, vectors = np.linalg.eigh(obs.matrix)
        eigen = vectors[:, rng.integers(0, dim)]
        near = eigen + 1e-10 * random_pure(rng, dim)
        for vec in (random_pure(rng, dim), eigen, near / np.linalg.norm(near)):
            cases.append((obs, ket(layout, vec)))
    return cases


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_is_eigenstate_is_row_zero_of_eigen_residuals(dim):
    # the op in row 0 of a stack of candidates: is_eigenstate returns row 0's
    # eigenvalue and verdict, bit for bit, also at a tolerance equal to the
    # row's residual (np.linalg.norm's, as the engine tests show) and one ulp below
    rng = np.random.default_rng(dim)
    for obs, state in _eigen_cases(dim, dim):
        stack = np.stack([obs.matrix, *(random_hermitian(rng, dim) for _ in range(7))])
        vectors = state.amplitudes[None]
        products = np.stack([m @ state.amplitudes for m in stack])[:, None]
        lam = eigen_residuals(products, vectors, 1.0)[0][0, 0]
        residual = np.linalg.norm(products[0] - lam * vectors, axis=-1)[0]
        for tol in (1e-9, residual, np.nextafter(residual, 0.0)):
            row_lam, passed = eigen_residuals(products, vectors, tol)
            want = float(row_lam[0, 0]) if passed[0] else None
            assert is_eigenstate(obs, state, tol) == want
            if tol != 1e-9:
                assert (want is not None) == (tol == residual)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_is_eigenstate_agrees_with_the_scalar_oracle(dim):
    passes = 0
    for obs, state in _eigen_cases(dim, 100 + dim):
        got, want = is_eigenstate(obs, state), _oracle.is_eigenstate(obs, state)
        assert (got is None) == (want is None)
        if got is not None:
            passes += 1
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert 0 < passes < 60  # random states fail, eigenvectors pass


# ------------------------------------------------------- outcome_distribution

def test_outcome_distribution_born_weights():
    sz = Observable(S, Z / 2)
    dist = outcome_distribution(ket(S, [0.6, 0.8]), sz)
    assert dist[0][0] == pytest.approx(-0.5)
    assert dist[0][1] == pytest.approx(0.64, abs=1e-12)
    assert dist[1][0] == pytest.approx(0.5)
    assert dist[1][1] == pytest.approx(0.36, abs=1e-12)


def test_outcome_distribution_branch_mixture_under_joint_flip():
    from qmeas.hilbert import DensityMatrix

    b = np.zeros((8, 8), dtype=complex)
    b[0, 7] = b[7, 0] = 1.0
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = rho[7, 7] = 0.5
    dist = outcome_distribution(DensityMatrix(SDO, rho), Observable(SDO, b))
    weights = dict((round(lam, 9), w) for lam, w in dist)
    assert weights[-1.0] == pytest.approx(0.5, abs=1e-12)
    assert weights[1.0] == pytest.approx(0.5, abs=1e-12)
    assert weights[0.0] == pytest.approx(0.0, abs=1e-12)


def test_outcome_distribution_identity():
    rng = np.random.default_rng(9)
    psi = ket(SD, random_pure(rng, 4))
    dist = outcome_distribution(psi, Observable(SD, np.eye(4)))
    assert dist == [(pytest.approx(1.0), pytest.approx(1.0))]


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_outcome_distribution_matches_projector_weights(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    obs = Observable(layout, random_hermitian(rng, layout.total_dim))
    psi = ket(layout, random_pure(rng, layout.total_dim))
    dist = outcome_distribution(psi, obs)
    assert abs(sum(w for _, w in dist) - 1.0) <= 1e-10
    for (lam, w), (_, projector, _) in zip(dist, obs.spectrum):
        direct = np.vdot(psi.amplitudes, projector @ psi.amplitudes).real
        assert w == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------------ density checks

def test_density_matrix_rejects_non_hermitian():
    from qmeas.hilbert import DensityMatrix

    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(InvariantViolation, match="Hermitian"):
        DensityMatrix(S, m)


def test_density_matrix_rejects_negative_eigenvalue():
    from qmeas.hilbert import DensityMatrix

    m = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvariantViolation, match="negative"):
        DensityMatrix(S, m)


def test_density_matrix_rejects_wrong_trace():
    from qmeas.hilbert import DensityMatrix

    with pytest.raises(InvariantViolation, match="trace"):
        DensityMatrix(S, np.diag([0.7, 0.7]).astype(complex))


# ------------------------------------------------------------ NaN at the gates

def _nan_inputs():
    from qmeas.discrimination import forcing_check, nogo_search, purity_rate
    from qmeas.ensembles import Gemenge
    from qmeas.hilbert import DensityMatrix, checked_hermitian
    from qmeas.model import (
        branch_state, interference_matrix, measurement_chain_state, prepare_system,
    )

    nan = float("nan")
    psi = measurement_chain_state(0.6, 0.8)
    chain = (psi, branch_state(1, psi.layout), branch_state(2, psi.layout))
    return {
        "state_vector": lambda: StateVector(S, [nan, 0]),
        "density_matrix": lambda: DensityMatrix(S, np.full((2, 2), nan)),
        "observable": lambda: Observable(S, [[nan, 0], [0, 1]]),
        "checked_hermitian": lambda: checked_hermitian(np.array([[nan, 0], [0, 1]])),
        "gemenge": lambda: Gemenge(((ket(S, [1, 0]), nan),)),
        "interference_matrix": lambda: interference_matrix(nan, 3),
        "is_eigenstate_tol": lambda: is_eigenstate(Observable(S, Z), ket(S, [1, 0]), tol=nan),
        "forcing_check_tol": lambda: forcing_check(chain, tol=nan),
        "nogo_search_tol": lambda: nogo_search("O", chain, 10_000, tol=nan),
        # no gate checks S_a; the Born form's imaginary-residue check rejects it
        "purity_rate_phase": lambda: purity_rate(prepare_system(0.6, 0.8), nan),
    }


@pytest.mark.parametrize("name", sorted(_nan_inputs()))
def test_gates_reject_nan(name):
    # a gate written `deviation > tol` lets NaN through, since every NaN
    # comparison is false; each gate is written `not deviation <= tol`
    with pytest.raises(ValueError):  # InvariantViolation is a ValueError
        _nan_inputs()[name]()
