import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas.discrimination import (
    DiscriminationVerdict,
    _sphere_rows,
    channel_information,
    forcing_check,
    interference_analysis,
    interference_phase_scan,
    matched_pair,
    nogo_search,
    optimal_phase,
    overlap,
    purity_rate,
)
from qmeas.ensembles import Gemenge, mixture_density
from qmeas.hilbert import (
    DensityMatrix,
    Observable,
    SpaceLayout,
    StateVector,
    basis_state,
    is_eigenstate,
    outcome_distribution,
    partial_trace,
)
from qmeas.model import (
    branch_state,
    decohere,
    measurement_chain_state,
    ms_layout,
    prepare_system,
    zoo,
)

from _helpers import random_density, random_pure

SQ2 = 1 / math.sqrt(2)
S = SpaceLayout.of("S")
SDO = ms_layout()


def system_mixture(a1, a2):
    return mixture_density(
        Gemenge(
            (
                (prepare_system(1, 0), abs(a1) ** 2),
                (prepare_system(0, 1), abs(a2) ** 2),
            )
        )
    )


def chain_states(a1, a2):
    psi = measurement_chain_state(a1, a2)
    return psi, branch_state(1, SDO), branch_state(2, SDO)


# ------------------------------------------------------------------ overlap

def test_overlap_conjugate_spin_symmetric_case():
    sx = zoo(S)["S_x"]
    k = overlap(sx, prepare_system(SQ2, SQ2), system_mixture(SQ2, SQ2))
    assert k == pytest.approx(0.5, abs=1e-12)


def test_overlap_conjugate_spin_asymmetric_case():
    sx = zoo(S)["S_x"]
    k = overlap(sx, prepare_system(0.6, 0.8), system_mixture(0.6, 0.8))
    assert k == pytest.approx(0.52, abs=1e-12)


def test_overlap_detector_observables_are_blind():
    a1, a2 = 0.6, 0.8
    pure = measurement_chain_state(a1, a2, include_observer=False)
    layout = pure.layout
    mixed = mixture_density(
        Gemenge(
            (
                (branch_state(1, layout), a1**2),
                (branch_state(2, layout), a2**2),
            )
        )
    )
    z = zoo(layout)
    for name in ("Q", "Q_x", "Q_y"):
        assert overlap(z[name], pure, mixed) == pytest.approx(1.0, abs=1e-9)


def test_overlap_detector_pointer_blind_on_amplitude_grid():
    for theta in np.linspace(0.0, np.pi / 2, 100):
        a1, a2 = math.cos(theta), math.sin(theta)
        pure = measurement_chain_state(a1, a2, include_observer=False)
        mixed = mixture_density(
            Gemenge(
                (
                    (branch_state(1, pure.layout), a1**2),
                    (branch_state(2, pure.layout), a2**2),
                )
            )
        )
        q = zoo(pure.layout)["Q"]
        assert overlap(q, pure, mixed) == pytest.approx(1.0, abs=1e-9)


def test_overlap_of_identical_inputs_is_one():
    rng = np.random.default_rng(4)
    rho = DensityMatrix(S, random_density(rng, 2))
    obs = zoo(S)["S_z"]
    assert overlap(obs, rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_overlap_report_weights_recompute_k():
    # the public outcome distributions and K agree, though overlap does not read them
    sx = zoo(S)["S_x"]
    pure, mixed = prepare_system(0.6, 0.8), system_mixture(0.6, 0.8)
    dist1, dist2 = outcome_distribution(pure, sx), outcome_distribution(mixed, sx)
    assert [lam for lam, _ in dist1] == [lam for lam, _ in dist2] == [value for value, _, _ in sx.spectrum]
    recomputed = sum(min(w1, w2) for (_, w1), (_, w2) in zip(dist1, dist2))
    assert overlap(sx, pure, mixed) == pytest.approx(recomputed, abs=1e-12)


def test_report_records_compare_field_by_field():
    verdict = DiscriminationVerdict("family", 10, False, None, 0.0)
    assert verdict.out_of_regime is False
    assert verdict == DiscriminationVerdict(
        family_description="family", n_candidates_tested=10, found=False,
        witness=None, max_min_gap=0.0, out_of_regime=False,
    )
    assert verdict != verdict._replace(out_of_regime=True)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_overlap_range_and_symmetry(seed, n_factors):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.of(*[f"F{i}" for i in range(n_factors)])
    dim = layout.total_dim
    obs = Observable(
        layout,
        (lambda m: (m + m.conj().T) / 2)(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ),
    )
    rho1 = DensityMatrix(layout, random_density(rng, dim))
    rho2 = DensityMatrix(layout, random_density(rng, dim))
    forward = overlap(obs, rho1, rho2)
    backward = overlap(obs, rho2, rho1)
    assert -1e-12 <= forward <= 1.0 + 1e-12
    assert forward == pytest.approx(backward, abs=1e-12)
    assert overlap(obs, rho1, rho1) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- purity rate

def test_purity_rate_symmetric_pure_state():
    assert purity_rate(prepare_system(SQ2, SQ2), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_purity_rate_vanishes_on_mixture():
    assert purity_rate(system_mixture(0.6, 0.8), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert purity_rate(system_mixture(SQ2, SQ2), 1.3) == pytest.approx(0.0, abs=1e-12)


def test_purity_rate_phase_matched_asymmetric_state():
    alpha = 0.9
    psi = prepare_system(0.6, 0.8 * np.exp(1j * alpha))
    assert purity_rate(psi, alpha) == pytest.approx(0.96, abs=1e-12)


def test_purity_rate_range_on_random_densities():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = DensityMatrix(S, random_density(rng, 2))
        value = purity_rate(rho, rng.uniform(0, 2 * np.pi))
        assert -1e-12 <= value <= 1.0 + 1e-12


def test_purity_rate_requires_single_qubit():
    psi = measurement_chain_state(1, 0)
    with pytest.raises(ValueError, match="single-qubit"):
        purity_rate(psi, 0.0)


# ------------------------------------------------------------- optimal_phase

def test_optimal_phase_recovers_quantum_phase():
    gamma, purity = optimal_phase(prepare_system(0.6, 0.8j))
    assert gamma == pytest.approx(np.pi / 2, abs=1e-6)
    assert purity == pytest.approx(0.96, abs=1e-9)


def test_optimal_phase_real_positive_amplitudes():
    gamma, purity = optimal_phase(prepare_system(0.8, 0.6))
    assert min(gamma, 2 * np.pi - gamma) == pytest.approx(0.0, abs=1e-6)
    assert purity == pytest.approx(0.96, abs=1e-9)


def test_optimal_phase_maximally_mixed_is_indeterminate():
    rho = DensityMatrix(S, np.eye(2) / 2)
    gamma, purity = optimal_phase(rho)
    assert gamma is None
    assert purity == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("coherence, determinate", [(1e-8, True), (1e-11, False)])
def test_optimal_phase_is_indeterminate_exactly_below_its_purity_bound(coherence, determinate):
    # the purity rate 2|rho_01| is 2e-8 or 2e-11: above and below
    # INDETERMINATE_PURITY = 1e-10, and both below 1e-6
    rho = DensityMatrix(S, np.array([[0.5, coherence], [coherence, 0.5]]))
    gamma, purity = optimal_phase(rho)
    assert (gamma is not None) == determinate
    assert purity == pytest.approx(2 * coherence, rel=1e-6)


def test_optimal_phase_matches_amplitude_product():
    rng = np.random.default_rng(8)
    for _ in range(10):
        v = random_pure(rng, 2)
        _, purity = optimal_phase(StateVector(S, v))
        assert purity == pytest.approx(2 * abs(v[0]) * abs(v[1]), abs=1e-9)


# ------------------------------------------------- eigenstate discrimination

def eigen_triple(op, target, b1, b2):
    return tuple(is_eigenstate(op, state) for state in (target, b1, b2))


def test_eigen_test_superposition_is_not_pointer_eigenstate():
    psi, b1, b2 = chain_states(SQ2, SQ2)
    triple = eigen_triple(zoo(SDO)["V"], psi, b1, b2)
    assert triple[0] is None
    assert triple[1:] == pytest.approx((1.0, -1.0), abs=1e-12)


def test_eigen_test_degenerate_product_observable():
    # the joint spin-pointer product has every chain state as eigenstate,
    # but with one shared eigenvalue, so it never discriminates
    sd = SpaceLayout.of("S", "D")
    psi = measurement_chain_state(0.6, 0.8, include_observer=False)
    b1, b2 = branch_state(1, sd), branch_state(2, sd)
    sz_q = zoo(sd)["SzQ"]
    assert is_eigenstate(sz_q, psi) == pytest.approx(0.5, abs=1e-12)
    assert eigen_triple(sz_q, psi, b1, b2) == pytest.approx((0.5, 0.5, 0.5), abs=1e-12)


def test_eigen_test_identity_never_discriminates():
    psi, b1, b2 = chain_states(0.6, 0.8)
    identity = Observable(SDO, np.eye(8))
    assert eigen_triple(identity, psi, b1, b2) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)


def test_eigen_test_positive_control():
    sd = SpaceLayout.of("S", "D")
    target = basis_state(sd, [0, 1])
    b1, b2 = basis_state(sd, [0, 0]), basis_state(sd, [1, 1])
    op = Observable(sd, np.diag([1.0, 5.0, 0.0, 2.0]))
    assert eigen_triple(op, target, b1, b2) == pytest.approx((5.0, 1.0, 2.0))


@pytest.mark.parametrize(
    "check",
    [lambda states: nogo_search("O", states, 10_000), lambda states: forcing_check(states, 10)],
    ids=["nogo_search", "forcing_check"],
)
@pytest.mark.parametrize("defect", ["non_orthogonal", "other_layout"])
def test_eigen_test_rejects_non_orthonormal_branches(check, defect):
    psi, b1, b2 = chain_states(0.6, 0.8)
    if defect == "non_orthogonal":
        states, message = (psi, b1, b1), "orthonormal"
    else:  # same dimension, other factors
        elsewhere = StateVector(SpaceLayout.of("A", "B", "C"), b2.amplitudes)
        states, message = (psi, b1, elsewhere), "one layout"
    with pytest.raises(ValueError, match=message):
        check(states)


# ------------------------------------------------------------ forcing check

def test_forcing_identity_residual_equals_gap_product():
    # oracle: for G built from branch projectors, the eigenstate residual of
    # the chain state is exactly |g1 - g2| |a1| |a2|
    rng = np.random.default_rng(17)
    psi, b1, b2 = chain_states(0.6, 0.8)
    for _ in range(50):
        g1, g2 = rng.normal(size=2)
        p1 = np.outer(b1.amplitudes, b1.amplitudes.conj())
        p2 = np.outer(b2.amplitudes, b2.amplitudes.conj())
        op = Observable(SDO, g1 * p1 + g2 * p2)
        lam = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes).real
        residual = np.linalg.norm(op.matrix @ psi.amplitudes - lam * psi.amplitudes)
        assert residual == pytest.approx(abs(g1 - g2) * 0.6 * 0.8, abs=1e-12)


def test_forcing_check_bounds():
    states = chain_states(0.6, 0.8)
    n_samples, max_residual, max_gap = forcing_check(states, n_samples=300, seed=3)
    assert n_samples == 300
    assert max_residual <= 1e-12
    assert max_gap <= 1e-8


# -------------------------------------------------------------- nogo_search

def test_nogo_search_observer_algebra():
    states = chain_states(SQ2, SQ2)
    verdict = nogo_search("O", states, 10_000, seed=2)
    assert isinstance(verdict, DiscriminationVerdict)
    assert verdict.found is False
    assert verdict.witness is None
    assert verdict.n_candidates_tested == 10_000
    assert verdict.max_min_gap <= 1e-8
    _, _, max_gap = forcing_check(states, seed=3)
    assert max_gap <= 1e-8


def test_nogo_search_detector_algebra():
    states = chain_states(0.6, 0.8)
    verdict = nogo_search("D", states, 10_000, seed=6)
    assert verdict.found is False
    assert verdict.max_min_gap <= 1e-8


def test_nogo_search_full_chain_random_hermitians():
    states = chain_states(0.6, 0.8)
    verdict = nogo_search("MS", states, 10_000, seed=9)
    assert verdict.found is False
    assert verdict.max_min_gap <= 1e-8
    assert verdict.n_candidates_tested >= 10_000  # structured set counts too


def test_nogo_search_flags_degenerate_regime():
    states = chain_states(1, 0)
    verdict = nogo_search("O", states, 10_000)
    assert verdict.out_of_regime is True
    assert verdict.found is False
    assert verdict.n_candidates_tested == 0
    # a pointer observable separates the branches trivially in this regime
    psi, b1, b2 = states
    v = zoo(SDO)["V"]
    assert is_eigenstate(v, psi) == pytest.approx(1.0)
    assert is_eigenstate(v, b2) == pytest.approx(-1.0)


def test_nogo_search_validates_inputs():
    states = chain_states(0.6, 0.8)
    for scope in ("O", "D", "MS"):
        for n_candidates in (-1, 200, 9_999):
            with pytest.raises(ValueError, match="at least 10000"):
                nogo_search(scope, states, n_candidates)
    with pytest.raises(ValueError, match="layout_scope"):
        nogo_search("X", states, 10_000)


@pytest.mark.parametrize("n_env", [1, 2])
def test_nogo_search_finds_nothing_on_the_decohered_chain(n_env):
    # the environment qubits tag the branches, and still no observable of the
    # observer, the detector or the whole space (dim 16, 32) tells them apart
    states = tuple(decohere(state, n_env, 0.5) for state in chain_states(0.6, 0.8))
    for scope in ("O", "D", "MS"):
        verdict = nogo_search(scope, states, 10_000)
        assert not verdict.found and not verdict.out_of_regime
        assert verdict.max_min_gap <= 1e-8


def test_fibonacci_sphere_is_deterministic_and_unit():
    a = _sphere_rows(500, 0, 500)
    b = _sphere_rows(500, 0, 500)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


# ----------------------------------------------------- interference analysis

def test_interference_symmetric_chain_is_eigenstate():
    psi = measurement_chain_state(SQ2, SQ2)
    b = zoo(SDO)["B"]
    assert is_eigenstate(b, psi, tol=1e-10) == pytest.approx(1.0, abs=1e-10)

    eigenvalues, pure, mixed, k = interference_analysis(1.0, (SQ2, SQ2), scope="MS")
    assert pure == pytest.approx(1.0, abs=1e-12)
    assert mixed == pytest.approx(0.0, abs=1e-12)
    assert k == pytest.approx(0.5, abs=1e-10)
    assert eigenvalues == pytest.approx((-1.0, 0.0, 1.0))


def test_interference_mixture_expectation_vanishes_for_any_phase():
    rng = np.random.default_rng(14)
    for _ in range(10):
        phase = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0.1, np.pi / 2 - 0.1)
        _, _, mixed, _ = interference_analysis(
            np.exp(1j * phase), (math.cos(theta), math.sin(theta)), scope="MS"
        )
        assert mixed == pytest.approx(0.0, abs=1e-12)


def test_interference_phase_matched_overlap():
    *_, k = interference_analysis(1.0, (0.6, 0.8), scope="MS")
    assert k == pytest.approx(0.52, abs=1e-10)


def test_interference_subchain_scope():
    _, pure, mixed, k = interference_analysis(1.0, (SQ2, SQ2), scope="SD")
    assert pure == pytest.approx(1.0, abs=1e-12)
    assert mixed == pytest.approx(0.0, abs=1e-12)
    assert k == pytest.approx(0.5, abs=1e-10)


def test_interference_phase_scan_reaches_minimal_overlap():
    alpha = 1.1
    phase, k_min = interference_phase_scan((0.6, 0.8 * np.exp(1j * alpha)), "MS")
    assert k_min == pytest.approx(1 - 0.48, abs=1e-6)
    # optimal interference phase compensates the amplitude phase
    assert phase == pytest.approx(2 * np.pi - alpha, abs=1e-3)


def test_interference_rejects_unknown_scope():
    with pytest.raises(ValueError, match="scope"):
        interference_analysis(1.0, (SQ2, SQ2), scope="DO")
    with pytest.raises(ValueError, match="scope"):
        interference_phase_scan((SQ2, SQ2), scope="S")
    with pytest.raises(ValueError, match="scope must be one of 'S', 'SD', 'MS'"):
        matched_pair((SQ2, SQ2), "X")


# ------------------------------------------------------- channel information

def test_channel_information_symmetric_case():
    k_sz, _, pre_k_min, post_k_min = channel_information((SQ2, SQ2))
    assert k_sz == pytest.approx(0.0, abs=1e-12)
    assert pre_k_min == pytest.approx(0.5, abs=1e-9)
    assert post_k_min == pytest.approx(1.0, abs=1e-9)


def test_channel_information_asymmetric_case():
    _, _, pre_k_min, post_k_min = channel_information((0.6, 0.8))
    assert pre_k_min == pytest.approx(0.52, abs=1e-9)
    assert post_k_min == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------- purity under decoherence

def test_purity_rate_of_restricted_system_after_chain_decoherence():
    # after premeasurement the system restriction is already incoherent, so
    # its purity rate sits at zero for every environment overlap
    values = []
    for env_overlap in np.linspace(1.0, 0.0, 9):
        full = decohere(measurement_chain_state(SQ2, SQ2), 3, float(env_overlap))
        rho_s = partial_trace(full, ["S"])
        _, purity = optimal_phase(rho_s)
        values.append(purity)
    assert all(v <= 1e-10 for v in values)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-10


def test_purity_rate_decays_for_directly_decohered_qubit():
    a1, a2 = 0.6, 0.8
    n_env = 3
    values = []
    for env_overlap in np.linspace(1.0, 0.0, 9):
        tagged = decohere(prepare_system(a1, a2), n_env, float(env_overlap), control_label="S")
        rho_s = partial_trace(tagged, ["S"])
        _, rate = optimal_phase(rho_s)
        assert rate == pytest.approx(2 * a1 * a2 * env_overlap**n_env, abs=1e-9)
        values.append(rate)
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-10
