import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.hilbert import (
    InvariantViolation,
    Observable,
    SpaceLayout,
    embed_operator,
    expectation,
    is_eigenstate,
    partial_trace,
    tensor_state,
)
from qmeas.ensembles import collapse_gemenge, run_ensemble
from qmeas.model import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    branch_state,
    conjugate_spin_matrix,
    decohere,
    interference_matrix,
    interference_operator,
    measurement_chain_state,
    ms_layout,
    pointer_ready,
    premeasure,
    prepare_system,
    zoo,
)

from _helpers import pure_density, random_amplitude_pair

SQ2 = 1 / math.sqrt(2)
SDO = ms_layout()
SD = SpaceLayout.of("S", "D")


def amplitude_grid():
    thetas = np.linspace(0.05, np.pi / 2 - 0.05, 7)
    phases = [0.0, np.pi / 3, np.pi]
    return [
        (math.cos(t), math.sin(t) * np.exp(1j * p)) for t in thetas for p in phases
    ]


# ------------------------------------------- amplitude and coupling checks

def test_config_rejects_non_normalized_amplitudes():
    with pytest.raises(InvariantViolation):
        collapse_gemenge(1.0, 1.0)


def test_config_rejects_bad_env_overlap():
    with pytest.raises(ValueError, match="env_overlap"):
        decohere(measurement_chain_state(1.0, 0.0), 1, env_overlap=1.5)


def test_config_born_weights():
    report = run_ensemble(0.6, 0.8, 10)
    assert report.born_probabilities == pytest.approx((0.36, 0.64))


# ----------------------------------------------------------- prepare_system

def test_prepare_eigenstate():
    assert np.allclose(prepare_system(1, 0).amplitudes, [1, 0])


def test_prepare_symmetric_superposition_has_zero_sz():
    psi = prepare_system(SQ2, SQ2)
    sz = zoo(psi.layout)["S_z"]
    assert expectation(psi, sz) == pytest.approx(0.0, abs=1e-12)


def test_prepare_asymmetric_sz_expectation():
    psi = prepare_system(0.6, 0.8)
    sz = zoo(psi.layout)["S_z"]
    assert expectation(psi, sz) == pytest.approx(-0.14, abs=1e-12)


def test_prepare_rejects_non_normalized():
    with pytest.raises(InvariantViolation):
        prepare_system(0.9, 0.9)


# --------------------------------------------------------------- premeasure

def test_premeasure_eigenstate_gives_product_state():
    state = tensor_state([prepare_system(1, 0), pointer_ready("D")])
    out = premeasure(state, "S", "D")
    assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_premeasure_superposition_gives_entangled_state():
    a1, a2 = 0.6, 0.8
    state = tensor_state([prepare_system(a1, a2), pointer_ready("D")])
    out = premeasure(state, "S", "D")
    assert np.allclose(out.amplitudes, [a1, 0, 0, a2], atol=1e-12)


def test_premeasure_twice_gives_triple_chain():
    for a1, a2 in [(SQ2, SQ2), (0.6, 0.8), (0.6, 0.8j)]:
        out = measurement_chain_state(a1, a2)
        expected = np.zeros(8, dtype=complex)
        expected[0] = a1
        expected[7] = a2
        assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_premeasure_requires_ready_pointer():
    state = tensor_state([prepare_system(SQ2, SQ2), pointer_ready("D")])
    once = premeasure(state, "S", "D")
    with pytest.raises(ValueError, match="ready state"):
        premeasure(once, "S", "D")


def test_premeasure_rejects_same_factor():
    state = tensor_state([prepare_system(1, 0), pointer_ready("D")])
    with pytest.raises(ValueError, match="different factors"):
        premeasure(state, "D", "D")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_premeasure_is_linear_and_norm_preserving(seed):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    chi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    chi /= np.linalg.norm(chi)
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    combo = alpha * phi + beta * chi
    scale = np.linalg.norm(combo)
    if scale < 1e-6:
        return

    def premeasured(sys_amps):
        state = tensor_state(
            [prepare_system(sys_amps[0], sys_amps[1]), pointer_ready("D")]
        )
        return premeasure(state, "S", "D").amplitudes

    lhs = premeasured(combo / scale) * scale
    rhs = alpha * premeasured(phi) + beta * premeasured(chi)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert abs(np.linalg.norm(premeasured(phi)) - 1.0) <= 1e-12


# ------------------------------------------------------------- branch_state

def test_branch_states_are_the_extreme_basis_vectors():
    b1 = branch_state(1, SDO)
    b2 = branch_state(2, SDO)
    assert b1.amplitudes[0] == 1.0 and np.count_nonzero(b1.amplitudes) == 1
    assert b2.amplitudes[7] == 1.0 and np.count_nonzero(b2.amplitudes) == 1
    assert np.vdot(b1.amplitudes, b2.amplitudes) == 0.0


def test_branch_states_with_environment_stay_orthogonal():
    b1, b2 = (decohere(branch_state(branch, SDO), 3, 0.7) for branch in (1, 2))
    assert abs(np.vdot(b1.amplitudes, b2.amplitudes)) <= 1e-12


def test_branch_state_rejects_environment_factors():
    # only decohere appends environment factors
    tagged = decohere(measurement_chain_state(0.6, 0.8), 2, 0.5).layout
    for layout in (tagged, SpaceLayout.of("S", "D", "O", "E1")):
        with pytest.raises(ValueError, match="decohere"):
            branch_state(1, layout)


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("n_env", [1, 2, 3])
@pytest.mark.parametrize("branch", [1, 2])
def test_decohered_branch_state_is_the_kronecker_product_bit_for_bit(branch, n_env, overlap):
    # oracle: the chain basis vector of the branch, then n_env copies of the
    # branch environment state, (1, 0) for branch 1 and (overlap, sqrt(1 -
    # overlap^2)) for branch 2
    direct = np.zeros(8, dtype=np.complex128)
    direct[0 if branch == 1 else 7] = 1.0
    env = [1.0, 0.0] if branch == 1 else [overlap, math.sqrt(1.0 - overlap**2)]
    for _ in range(n_env):
        direct = np.kron(direct, np.array(env, dtype=np.complex128))
    out = decohere(branch_state(branch, SDO), n_env, overlap)
    assert out.layout.labels == SDO.labels + tuple(f"E{j}" for j in range(1, n_env + 1))
    assert np.array_equal(out.amplitudes, direct)


def test_branch_state_rejects_bad_index():
    with pytest.raises(ValueError, match="branch"):
        branch_state(3, SDO)


def test_chain_state_is_branch_combination():
    for a1, a2 in amplitude_grid():
        psi = measurement_chain_state(a1, a2)
        combo = a1 * branch_state(1, SDO).amplitudes + a2 * branch_state(2, SDO).amplitudes
        assert np.allclose(psi.amplitudes, combo, atol=1e-12)


def test_triple_decomposition_spectra_match_born_weights():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a1, a2 = random_amplitude_pair(rng)
        psi = measurement_chain_state(a1, a2)
        expected = sorted([abs(a1) ** 2, abs(a2) ** 2])
        for label in ("S", "D", "O"):
            reduced = partial_trace(psi, [label])
            spectrum = sorted(np.linalg.eigvalsh(reduced.matrix))
            assert np.allclose(spectrum, expected, atol=1e-12)


def test_sz_q_product_is_degenerate_on_every_entangled_state():
    sz_q = zoo(SD)["SzQ"]
    values = []
    for a1, a2 in amplitude_grid():
        psi = measurement_chain_state(a1, a2, include_observer=False)
        lam = is_eigenstate(sz_q, psi, tol=1e-9)
        assert lam is not None
        values.append(lam)
    assert np.allclose(values, 0.5, atol=1e-12)


# ----------------------------------------------------------------- decohere

def test_decohere_eigenstate_branch_stays_pure():
    psi = measurement_chain_state(1, 0)
    out = decohere(psi, n_env=4, env_overlap=0.3)
    reduced = partial_trace(out, ["S", "D", "O"])
    assert reduced.purity() == pytest.approx(1.0, abs=1e-12)


def test_decohere_scales_coherence_block():
    psi = measurement_chain_state(SQ2, SQ2)
    out = decohere(psi, n_env=5, env_overlap=0.5)
    assert out.layout.labels == ("S", "D", "O", "E1", "E2", "E3", "E4", "E5")

    # oracle: trace out the environment directly with tensordot
    tensor = out.amplitudes.reshape((2,) * 8)
    env_axes = (3, 4, 5, 6, 7)
    rho = np.tensordot(tensor, tensor.conj(), axes=(env_axes, env_axes)).reshape(8, 8)
    factor = rho[0, 7] / (SQ2 * SQ2)
    assert factor == pytest.approx(0.03125, abs=1e-12)

    reduced = partial_trace(out, ["S", "D", "O"])
    assert reduced.matrix[0, 7] / (SQ2 * SQ2) == pytest.approx(0.03125, abs=1e-12)


def test_decohere_with_unit_overlap_is_invisible():
    psi = measurement_chain_state(0.6, 0.8)
    out = decohere(psi, n_env=3, env_overlap=1.0)
    reduced = partial_trace(out, ["S", "D", "O"])
    assert np.allclose(reduced.matrix, pure_density(psi).matrix, atol=1e-12)


@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n_env", [1, 4, 10])
def test_decohere_coherence_factor_formula(n_env, overlap):
    a1, a2 = 0.6, 0.8
    psi = measurement_chain_state(a1, a2)
    reduced = partial_trace(decohere(psi, n_env, overlap), ["S", "D", "O"])
    assert abs(reduced.matrix[0, 7] / (a1 * a2) - overlap**n_env) <= 1e-10


def test_decohere_validates_arguments():
    psi = measurement_chain_state(1, 0)
    with pytest.raises(ValueError, match="n_env"):
        decohere(psi, 0, 0.5)
    with pytest.raises(ValueError, match="env_overlap"):
        decohere(psi, 2, -0.1)
    once = decohere(psi, 2, 0.5)
    with pytest.raises(ValueError, match="duplicate factor labels"):
        decohere(once, 2, 0.5)


# ------------------------------------------------------------------- zoo

def test_zoo_gamma_zero_matches_sx():
    z = zoo(SDO, gamma=0.0)
    assert np.array_equal(z["S_a"].matrix, z["S_x"].matrix)


def test_zoo_trivial_direction_matches_v():
    z = zoo(SDO)
    assert np.array_equal(z["A"].matrix, z["V"].matrix)


def test_zoo_interference_expectation_on_symmetric_chain():
    psi = measurement_chain_state(SQ2, SQ2)
    b = zoo(SDO)["B"]
    assert expectation(psi, b) == pytest.approx(1.0, abs=1e-12)


def test_zoo_pointer_commutators():
    z = zoo(SpaceLayout.of("O"))
    v, vx, vy = z["V"].matrix, z["V_x"].matrix, z["V_y"].matrix
    assert np.allclose(v @ vx - vx @ v, 2j * vy, atol=1e-12)
    assert np.allclose(v @ vy - vy @ v, -2j * vx, atol=1e-12)


def test_zoo_membership_follows_layout():
    z = zoo(SD)
    assert "Q" in z and "B_SD" in z and "SzQ" in z
    assert "V" not in z and "B" not in z
    with pytest.raises(KeyError):
        z["B"]


def test_zoo_builds_one_observable_per_member(monkeypatch):
    # each member passes the Hermiticity gate once, on the target layout
    layouts = []
    init = Observable.__init__

    def counted(self, layout, matrix):
        layouts.append(layout)
        init(self, layout, matrix)

    monkeypatch.setattr(Observable, "__init__", counted)
    members = zoo(ms_layout())
    assert len(layouts) == len(members) == 14
    assert set(layouts) == {ms_layout()}


def test_interference_operator_rejects_inconsistent_phases():
    with pytest.raises(ValueError, match=r"\|c1\|"):
        interference_operator(SDO, c1=0.5)


def test_interference_operator_matches_outer_product_construction():
    # oracle: assemble from explicit dyads on the two extreme basis vectors
    c1 = np.exp(1j * 0.7)
    e0 = np.zeros(8)
    e0[0] = 1.0
    e7 = np.zeros(8)
    e7[7] = 1.0
    direct = c1 * np.outer(e0, e7) + np.conj(c1) * np.outer(e7, e0)
    op = interference_operator(SDO, c1)
    assert np.array_equal(op.matrix, direct)


PHASES = [np.exp(1j * p) for p in (0.0, 0.7, math.pi / 2, 2.0, math.pi, 5.9)]


@pytest.mark.parametrize(
    "layout, factors, after",
    [(SD, ("S", "D"), 1), (SDO, ("S", "D", "O"), 1), (SDO, ("S", "D"), 2),
     (SpaceLayout.of("S", "D", "O", "E1"), ("S", "D"), 4),
     (SpaceLayout.of("S", "D", "O", "E1", "E2"), ("S", "D", "O"), 4)],
    ids=["B_SD-on-SD", "B-on-SDO", "B_SD-on-SDO", "B_SD-on-SDOE1", "B-on-SDOE2"],
)
def test_interference_operator_is_the_kronecker_product_bit_for_bit(layout, factors, after):
    # interference_operator spans its whole layout (after = 1) and keeps every
    # bit of interference_matrix; a flip on some factors is embedded, as zoo
    # embeds B_SD and B
    for c1 in PHASES:
        direct = np.kron(interference_matrix(c1, len(factors)), np.eye(after))
        embedded = embed_operator(interference_matrix(c1, len(factors)), factors, layout)
        assert np.array_equal(embedded.matrix, direct)
        if after == 1:
            assert np.array_equal(interference_operator(layout, c1).matrix, direct)


def _direct_zoo(labels, gamma):
    """Every zoo member over ``labels``, as an explicit Kronecker product."""
    single = {
        "S": {"S_z": PAULI_Z / 2.0, "S_x": PAULI_X / 2.0, "S_y": PAULI_Y / 2.0,
              "S_a": conjugate_spin_matrix(gamma)},
        "D": {"Q": PAULI_Z, "Q_x": PAULI_X, "Q_y": PAULI_Y},
        "O": {"V": PAULI_Z, "V_x": PAULI_X, "V_y": PAULI_Y, "A": PAULI_Z},
    }
    members = {}
    for axis, label in enumerate(labels):
        for name, matrix in single[label].items():
            members[name] = np.kron(np.kron(np.eye(2**axis), matrix),
                                    np.eye(2 ** (len(labels) - axis - 1)))
    if labels[:2] == ("S", "D"):
        rest = np.eye(2 ** (len(labels) - 2))
        members["SzQ"] = np.kron(np.kron(PAULI_Z / 2.0, PAULI_Z), rest)
        members["B_SD"] = np.kron(interference_matrix(1.0, 2), rest)
    if labels == ("S", "D", "O"):
        members["B"] = interference_matrix(1.0, 3)
    return members


@pytest.mark.parametrize("labels", [("S",), ("S", "D"), ("S", "D", "O")], ids="".join)
@pytest.mark.parametrize("gamma", [0.0, 0.3, 2.0])
def test_zoo_members_equal_their_kronecker_forms(labels, gamma):
    z = zoo(SpaceLayout.of(*labels), gamma=gamma)
    direct = _direct_zoo(labels, gamma)
    assert set(z) == set(direct)
    for name, matrix in direct.items():
        assert np.array_equal(z[name].matrix, matrix), name
