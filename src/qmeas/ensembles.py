"""Gemenge construction, seeded event sampling, and the restriction maps.

A gemenge is a probabilistic mixture with an objective decomposition into
individual states; unlike a density matrix it remembers which states occur.
Sampling uses counter-based per-event streams derived from a single 64-bit
seed, so every event is reproducible and independent of every other:
identical (seed, event_index) always yields the identical uniform, and
``run_ensemble`` may draw the events in any blocks and aggregate them in any
order.  ``run_ensemble`` never forms the uniforms: u_k = (z_k >> 11) 2^-53
is below p1 exactly when the key z_k is below ceil(p1 2^53) << 11, an
integer test with no rounding.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hilbert import (
    DensityMatrix,
    Immutable,
    InvariantViolation,
    SpaceLayout,
    StateVector,
    basis_state,
    partial_trace,
)
from .model import OBSERVER, branch_state, is_env_label

ATOL_PROBABILITY = 1e-12
ATOL_BRANCH_SUPPORT = 1e-9

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_TWO53 = 1.0 / float(2**53)
# events per block: run_ensemble reuses one key and one scratch buffer of this
# size, which stay in cache, so memory does not grow with the event count
_BLOCK = 1 << 15


def _splitmix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied to ``z`` in place; ``scratch`` has its shape."""
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        if mix is not None:
            np.multiply(z, mix, out=z)
    return z


def stream_keys(seed: int, start: int, count: int) -> np.ndarray:
    """64-bit stream key per event counter: a splitmix64 finalizer of (seed, index)."""
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    z = np.arange(start, start + count, dtype=np.uint64)
    z += np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(seed % 2**64)
    return _splitmix64(z, np.empty_like(z))


def stream_uniform(seed: int, start: int, count: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1), one per event counter."""
    return (stream_keys(seed, start, count) >> np.uint64(11)).astype(np.float64) * _INV_TWO53


class Gemenge(Immutable):
    """Finite list of (individual state, probability) over one layout."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[tuple[StateVector, float], ...]):
        members = tuple((state, float(p)) for state, p in members)
        if not members:
            raise ValueError("a gemenge needs at least one member")
        layout = members[0][0].layout
        for state, p in members:
            if state.layout != layout:
                raise ValueError("all gemenge members must share one layout")
            if p < 0.0:
                raise ValueError(f"negative probability {p!r}")
        total = sum(p for _, p in members)
        if not abs(total - 1.0) <= ATOL_PROBABILITY:  # NaN fails too
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "members", members)

    @property
    def layout(self) -> SpaceLayout:
        return self.members[0][0].layout

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.members)


class FrequencyReport(NamedTuple):
    """Aggregated branch statistics of one sampled ensemble."""

    n_events: int
    counts: tuple[int, int]
    frequencies: tuple[float, float]
    born_probabilities: tuple[float, float]
    standard_errors: tuple[float, float]


def mixture_density(gemenge: Gemenge) -> DensityMatrix:
    """Density matrix of the gemenge: sum of P_i |psi_i><psi_i|."""
    dim = gemenge.layout.total_dim
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for state, p in gemenge.members:
        matrix += p * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(gemenge.layout, matrix)


def collapse_gemenge(a1: complex, a2: complex) -> Gemenge:
    """Observer-side branch gemenge with Born weights |a_i|^2."""
    p1, p2 = abs(a1) ** 2, abs(a2) ** 2
    if not abs(p1 + p2 - 1.0) <= ATOL_PROBABILITY:  # NaN fails too
        raise InvariantViolation(
            f"|a1|^2 + |a2|^2 = {p1 + p2!r}, expected 1 within {ATOL_PROBABILITY}"
        )
    layout = SpaceLayout.of(OBSERVER)
    return Gemenge(
        (
            (basis_state(layout, [0]), p1),
            (basis_state(layout, [1]), p2),
        )
    )


def run_ensemble(a1: complex, a2: complex, n_events: int, seed: int = 0) -> FrequencyReport:
    """Sample ``n_events`` collapse events and aggregate branch frequencies."""
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    gemenge = collapse_gemenge(a1, a2)
    p1, p2 = gemenge.probabilities
    # event k is branch 1 exactly when its uniform u_k < p1, that is when its
    # key z_k < ceil(p1 2^53) << 11; a threshold of 2^53 or more admits every key
    edge = math.ceil(p1 * 2.0**53)
    if edge >= 2**53:
        n1 = n_events
    else:
        threshold = np.uint64(edge << 11)
        block = min(_BLOCK, n_events)
        # key of event start + i: offsets[i] + (start + 1) G + seed, mod 2^64
        offsets = np.arange(block, dtype=np.uint64) * _GOLDEN
        keys, scratch = np.empty(block, np.uint64), np.empty(block, np.uint64)
        n1 = 0
        for start in range(0, n_events, block):
            size = min(block, n_events - start)
            base = np.uint64(((start + 1) * int(_GOLDEN) + seed) % 2**64)
            z = _splitmix64(np.add(offsets[:size], base, out=keys[:size]), scratch[:size])
            n1 += int(np.count_nonzero(z < threshold))
    n2 = n_events - n1
    return FrequencyReport(
        n_events=n_events,
        counts=(n1, n2),
        frequencies=(n1 / n_events, n2 / n_events),
        born_probabilities=(p1, p2),
        # a weight may exceed 1 by up to ATOL_PROBABILITY; its error is then 0
        standard_errors=tuple(math.sqrt(max(0.0, p * (1.0 - p)) / n_events) for p in (p1, p2)),
    )


def restrict_statistical(
    state: StateVector | DensityMatrix, observer_label: str = OBSERVER
) -> DensityMatrix:
    """Statistical restriction: the partial trace onto the observer factor."""
    return partial_trace(state, [observer_label])


def _branch_weights(state: StateVector) -> tuple[float, float]:
    layout = state.layout
    if any(is_env_label(label) for label in layout.labels):
        raise ValueError(
            "stochastic restriction is defined on chain factors only; "
            "trace out the environment first"
        )
    c1 = np.vdot(branch_state(1, layout).amplitudes, state.amplitudes)
    c2 = np.vdot(branch_state(2, layout).amplitudes, state.amplitudes)
    p1, p2 = abs(c1) ** 2, abs(c2) ** 2
    if abs(p1 + p2 - 1.0) > ATOL_BRANCH_SUPPORT:
        raise ValueError(
            "state is not supported on the measurement branches; "
            f"branch weights sum to {p1 + p2!r}"
        )
    return p1, p2


def restrict_stochastic(
    source: Gemenge | StateVector, observer_label: str = OBSERVER
) -> Gemenge:
    """Stochastic restriction: the gemenge of observer branch states.

    A pure chain state contributes its Born weights |a_i|^2; a gemenge of
    branch states contributes each member's probability to its branch.  The
    restriction forgets everything but which observer pointer state occurs
    and how often, which is exactly what a density matrix cannot express.
    """
    source_layout = source.layout
    if observer_label not in source_layout.labels:
        raise ValueError(
            f"no factor labelled {observer_label!r} in layout {source_layout.labels}"
        )
    weights = [0.0, 0.0]
    if isinstance(source, Gemenge):
        for state, p in source.members:
            p1, p2 = _branch_weights(state)
            if max(p1, p2) < 1.0 - ATOL_BRANCH_SUPPORT:
                raise ValueError(
                    "gemenge member is not a branch state; cannot restrict stochastically"
                )
            weights[0 if p1 >= p2 else 1] += p
    else:
        p1, p2 = _branch_weights(source)
        weights = [p1, p2]

    layout = SpaceLayout.of(observer_label)
    members = tuple(
        (basis_state(layout, [branch]), weight)
        for branch, weight in enumerate(weights)
        if weight > 0.0
    )
    return Gemenge(members)
