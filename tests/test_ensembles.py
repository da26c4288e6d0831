import copy
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _oracle
import qmeas.ensembles as ensembles
from qmeas.ensembles import (
    Gemenge,
    collapse_gemenge,
    mixture_density,
    restrict_statistical,
    restrict_stochastic,
    run_ensemble,
)
from qmeas.hilbert import InvariantViolation, SpaceLayout, StateVector, basis_state, expectation
from qmeas.model import (
    branch_state,
    decohere,
    measurement_chain_state,
    ms_layout,
    pointer_ready,
    premeasure,
    prepare_system,
    tensor_state,
    zoo,
)

from _helpers import random_amplitude_pair

SQ2 = 1 / math.sqrt(2)
SDO = ms_layout()
O = SpaceLayout.of("O")


def observer_gemenge(p1, p2):
    return Gemenge(((basis_state(O, [0]), p1), (basis_state(O, [1]), p2)))


def branch_gemenge(p1, p2, layout=SDO):
    return Gemenge(((branch_state(1, layout), p1), (branch_state(2, layout), p2)))


# ------------------------------------------------------------------ gemenge

def test_gemenge_rejects_bad_probabilities():
    with pytest.raises(ValueError, match="sum"):
        observer_gemenge(0.5, 0.6)
    with pytest.raises(ValueError, match="negative"):
        observer_gemenge(-0.1, 1.1)


def test_gemenge_sum_rule_is_the_one_check_and_an_invariant_violation():
    with pytest.raises(InvariantViolation, match="probabilities sum to 1.1, expected 1"):
        observer_gemenge(0.5, 0.6)
    with pytest.raises(InvariantViolation, match="probabilities sum to 2.0, expected 1"):
        collapse_gemenge(1, 1)


def test_gemenge_rejects_no_members():
    with pytest.raises(ValueError, match="a gemenge needs at least one member"):
        Gemenge(())


def test_gemenge_rejects_mixed_layouts():
    with pytest.raises(ValueError, match="one layout"):
        Gemenge(((basis_state(O, [0]), 0.5), (branch_state(1, SDO), 0.5)))


def test_gemenge_rejects_attribute_assignment():
    g = observer_gemenge(0.5, 0.5)
    with pytest.raises(AttributeError, match="members"):
        g.members = g.members[:1]
    assert g != observer_gemenge(0.5, 0.5)  # identity equality, as for states
    assert copy.deepcopy(g).probabilities == g.probabilities
    with pytest.raises(ValueError, match="read-only"):
        g.members[0][0].amplitudes[0] = 0.0


def test_mixture_density_symmetric_system():
    g = Gemenge(
        ((prepare_system(1, 0), 0.5), (prepare_system(0, 1), 0.5))
    )
    assert np.allclose(mixture_density(g).matrix, np.eye(2) / 2)


def test_mixture_density_orthogonal_branches():
    rho = mixture_density(branch_gemenge(0.5, 0.5)).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 0.5
    assert np.allclose(rho, expected)


def test_mixture_density_single_member_is_pure_projector():
    g = Gemenge(((branch_state(2, SDO), 1.0),))
    rho = mixture_density(g)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------- one event's branch

def test_sample_event_degenerate_distributions():
    assert run_ensemble(1, 0, 50, seed=7).counts == (50, 0)
    assert run_ensemble(0, 1, 50, seed=7).counts == (0, 50)


def test_sample_event_balanced_frequency_within_binomial_bound():
    n = 100_000
    report = run_ensemble(SQ2, SQ2, n, seed=11)
    bound = 4 * math.sqrt(0.25 / n)
    assert abs(report.counts[0] / n - 0.5) <= bound


# ------------------------------------------------------------- run_ensemble

def test_run_ensemble_eigenstate_input_is_certain():
    report = run_ensemble(1, 0, 100, seed=5)
    assert report.frequencies == (1.0, 0.0)
    assert report.counts == (100, 0)


def test_run_ensemble_matches_born_weights_at_four_sigma():
    for a1, a2 in [(SQ2, SQ2), (0.6, 0.8)]:
        report = run_ensemble(a1, a2, 100_000, seed=20260809)
        for freq, p, se in zip(
            report.frequencies, report.born_probabilities, report.standard_errors
        ):
            assert abs(freq - p) <= 4 * se


def test_run_ensemble_is_deterministic():
    assert run_ensemble(0.6, 0.8, 10_000, seed=77) == run_ensemble(0.6, 0.8, 10_000, seed=77)


@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_seed_plus_the_key_step_shifts_the_events_by_one(seed):
    # event k's key before the finalizer is (k + 1) G + seed mod 2^64, so
    # seed + G draws events 1..n of seed: n + 1 events of seed are event 0
    # plus the n events of seed + G
    shifted = (seed + int(_oracle._GOLDEN)) % 2**64
    n = 10_000
    first = run_ensemble(0.6, 0.8, 1, seed=seed).counts
    got = run_ensemble(0.6, 0.8, n, seed=shifted).counts
    assert run_ensemble(0.6, 0.8, n + 1, seed=seed).counts == tuple(
        a + b for a, b in zip(first, got))
    if seed == 5:
        assert run_ensemble(0.6, 0.8, n, seed=seed).counts[0] == 3583 and got[0] == 3584


def test_run_ensemble_agrees_with_event_loop():
    n = 2000
    report = run_ensemble(0.6, 0.8, n, seed=31)
    p1 = collapse_gemenge(0.6, 0.8).probabilities[0]
    loop_count = sum(_oracle.uniforms(31, k, 1)[0] < p1 for k in range(n))
    assert report.counts[0] == loop_count


def test_run_ensemble_convergence_envelope():
    p = abs(0.6) ** 2
    for n in (1000, 10_000, 100_000):
        report = run_ensemble(0.6, 0.8, n, seed=13)
        assert abs(report.frequencies[0] - p) <= 4 * math.sqrt(p * (1 - p) / n)


def test_run_ensemble_rejects_empty_runs():
    with pytest.raises(ValueError, match="n_events"):
        run_ensemble(1, 0, 0)


BLOCK = ensembles._BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("a1, a2", [(0.6, 0.8), (1, 0), (0, 1), (0.28, 0.96j)])
def test_run_ensemble_equals_whole_array_sampler(a1, a2, seed, n):
    assert run_ensemble(a1, a2, n, seed) == _oracle.run_ensemble(a1, a2, n, seed)


def _unshift(z, shift):
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _seed_with_key(key, k):
    """The seed under which event k's stream key is ``key``: splitmix64 run backwards."""
    z = _unshift(key, 31)
    for mix, shift in ((_oracle._MIX2, 27), (_oracle._MIX1, 30)):
        z = _unshift(z * pow(int(mix), -1, 2**64) % 2**64, shift)
    return (z - (k + 1) * int(_oracle._GOLDEN)) % 2**64


THRESHOLD_P1 = [
    0.0,
    1e-160**2,
    2.0**-53,
    math.nextafter(0.5, 0.0),
    0.5,
    0.7071067811865476**2,
    0.36,
    1.0,
    1.0 + 8e-13,
]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, "key below edge", "key at edge"])
@pytest.mark.parametrize("p1", THRESHOLD_P1)
def test_run_ensemble_counts_equal_uniforms_below_p1(monkeypatch, p1, seed, n):
    # u_k < p1 exactly when key >> 11 < edge; a seed string puts the last
    # event's key on one side of edge << 11, which a floor for the ceil or a
    # <= for the < in the integer threshold miscounts by one
    if isinstance(seed, str):
        edge = math.ceil(Fraction(p1) * 2**53)
        key = min(max((edge << 11) - (seed == "key below edge"), 0), 2**64 - 1)
        seed = _seed_with_key(key, n - 1)
        assert _oracle.stream_keys(seed, n - 1, 1)[0] == key
    p2 = max(0.0, 1.0 - p1)
    monkeypatch.setattr(ensembles, "collapse_gemenge", lambda a1, a2: observer_gemenge(p1, p2))
    report = run_ensemble(None, None, n, seed)
    assert report.born_probabilities == (p1, p2)
    assert report.counts[0] == np.count_nonzero(_oracle.uniforms(seed, 0, n) < p1)


def _peak_bytes(n_events):
    tracemalloc.start()
    try:
        run_ensemble(0.6, 0.8, n_events, 7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_ensemble_memory_does_not_grow_with_n_events(monkeypatch):
    limit = 4 * 2**20
    assert _peak_bytes(2_000_000) < limit
    # tracemalloc sees the numpy buffers: one block for all events breaks the limit
    monkeypatch.setattr(ensembles, "_BLOCK", 2_000_000)
    assert _peak_bytes(2_000_000) > limit


# -------------------------------------------------------------- restrictions

def test_statistical_restriction_of_chain_state():
    psi = measurement_chain_state(0.6, 0.8)
    reduced = restrict_statistical(psi)
    assert np.allclose(reduced.matrix, np.diag([0.36, 0.64]), atol=1e-12)


def test_statistical_restriction_of_branch():
    reduced = restrict_statistical(branch_state(1, SDO))
    assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_statistical_restriction_of_mixture_equals_pure_case():
    pure = restrict_statistical(measurement_chain_state(0.6, 0.8))
    mixed = restrict_statistical(mixture_density(branch_gemenge(0.36, 0.64)))
    assert np.allclose(pure.matrix, mixed.matrix, atol=1e-12)


def test_stochastic_restriction_of_branch_gemenge():
    g = restrict_stochastic(branch_gemenge(0.36, 0.64))
    assert g.probabilities == pytest.approx((0.36, 0.64))
    assert np.allclose(g.members[0][0].amplitudes, [1, 0])
    assert np.allclose(g.members[1][0].amplitudes, [0, 1])


def test_stochastic_restriction_of_eigenstate_chain():
    g = restrict_stochastic(measurement_chain_state(1, 0))
    assert len(g.members) == 1
    assert g.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(g.members[0][0].amplitudes, [1, 0])


def test_stochastic_restriction_of_symmetric_chain():
    g = restrict_stochastic(measurement_chain_state(SQ2, SQ2))
    assert g.probabilities == pytest.approx((0.5, 0.5))


def test_stochastic_restriction_rejects_non_branch_states():
    plus = tensor_state(
        [prepare_system(SQ2, SQ2), pointer_ready("D"), pointer_ready("O")]
    )
    with pytest.raises(ValueError, match="not supported on the measurement branches"):
        restrict_stochastic(plus)
    # a member on both branches at once, though the weights sum to one
    both = measurement_chain_state(SQ2, SQ2)
    with pytest.raises(ValueError, match="gemenge member is not a branch state"):
        restrict_stochastic(Gemenge(((both, 1.0),)))


@pytest.mark.parametrize("off", [1e-6, 1e-5, 1e-4])
def test_stochastic_restriction_rejects_weight_off_the_branches(off):
    # a normalized chain state with weight `off` on |001>, outside both
    # branches: above the gate's 1e-9, below 1e-3, which no other test tells
    # apart from it
    amplitudes = math.sqrt(1.0 - off) * measurement_chain_state(0.6, 0.8).amplitudes
    amplitudes[1] = math.sqrt(off)
    state = StateVector(SDO, amplitudes)
    with pytest.raises(ValueError, match="not supported on the measurement branches"):
        restrict_stochastic(state)


def test_stochastic_restriction_rejects_environment_factors():
    # the branch weights are defined on chain factors only
    tagged = decohere(measurement_chain_state(0.6, 0.8), 2, 0.5)
    with pytest.raises(ValueError, match="environment factor 'E1'"):
        restrict_stochastic(tagged)


def test_stochastic_restriction_rejects_unknown_observer_label():
    # the system-detector state after premeasurement has no observer factor
    with pytest.raises(ValueError, match="no factor labelled 'O'"):
        restrict_stochastic(measurement_chain_state(1, 0, include_observer=False))


def test_restriction_consistency_between_maps():
    rng = np.random.default_rng(100)
    for _ in range(25):
        a1, a2 = random_amplitude_pair(rng)
        psi = measurement_chain_state(a1, a2)
        stochastic = mixture_density(restrict_stochastic(psi))
        statistical = restrict_statistical(psi)
        assert np.max(np.abs(stochastic.matrix - statistical.matrix)) <= 1e-12

        g = branch_gemenge(abs(a1) ** 2, abs(a2) ** 2)
        stochastic_g = mixture_density(restrict_stochastic(g))
        statistical_g = restrict_statistical(mixture_density(g))
        assert np.max(np.abs(stochastic_g.matrix - statistical_g.matrix)) <= 1e-12


def test_pointer_expectation_transfer_pure_vs_mixed():
    # the detector pointer expectation carries the incoming weight difference
    # identically for the pure superposition and the matched test mixture
    rng = np.random.default_rng(123)
    q = zoo(SpaceLayout.of("S", "D"))["Q"]
    for _ in range(20):
        a1, a2 = random_amplitude_pair(rng)
        pure = measurement_chain_state(a1, a2, include_observer=False)
        members = []
        for branch, amps in ((1, (1, 0)), (2, (0, 1))):
            state = tensor_state([prepare_system(*amps), pointer_ready("D")])
            members.append((premeasure(state, "S", "D"), abs((a1, a2)[branch - 1]) ** 2))
        mixed = mixture_density(Gemenge(tuple(members)))
        assert expectation(pure, q) == pytest.approx(expectation(mixed, q), abs=1e-12)
