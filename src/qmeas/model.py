"""The measurement chain: system, detector pointer, observer pointer, environment.

Basis conventions, fixed once so amplitude layouts are bit-exact in tests:
the first basis vector of every factor carries branch 1 and the second
branch 2; the factor order is system, detector, observer, then environment
qubits, which only ``decohere`` appends.  Spin components on the system are
Pauli matrices over two (eigenvalues +-1/2); pointer observables on the
detector and observer are Pauli-normalized (eigenvalues +-1), branch 1
mapping to +1.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .hilbert import (
    Observable,
    SpaceLayout,
    StateVector,
    basis_state,
    embed_operator,
    partial_trace,
    tensor_state,
)

SYSTEM = "S"
DETECTOR = "D"
OBSERVER = "O"
CHAIN_LABELS = (SYSTEM, DETECTOR, OBSERVER)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

ATOL_PARAMETER = 1e-12
ATOL_POINTER_READY = 1e-9

# ready state of either pointer: the symmetric superposition of its basis
_POINTER_READY = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_CONTROLLED_FLIP = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
# maps |i>(x)|ready> to |i>(x)|pointer_i| for both source basis vectors,
# extended unitarily to the rest of the two-factor space
_PREMEASURE_UNITARY = _CONTROLLED_FLIP @ np.kron(np.eye(2), _HADAMARD)


def ms_layout() -> SpaceLayout:
    """Layout of the full chain: system, detector, observer."""
    return SpaceLayout.of(*CHAIN_LABELS)


def prepare_system(a1: complex, a2: complex) -> StateVector:
    """Pure system qubit a1|s1> + a2|s2>; rejects non-normalized amplitudes."""
    return StateVector(SpaceLayout.of(SYSTEM), np.array([a1, a2], dtype=np.complex128))


def pointer_ready(label: str) -> StateVector:
    """The symmetric ready state of a pointer factor."""
    return StateVector(SpaceLayout.of(label), _POINTER_READY)


def premeasure(state: StateVector, source_label: str, pointer_label: str) -> StateVector:
    """Correlate the source factor with a pointer that sits in its ready state.

    Applies the unitary defined on basis vectors by |i>|ready> -> |i>|p_i>
    (a basis flip controlled on the source, composed with the map taking the
    ready state to the first pointer vector).  The pointer factor must be in
    its ready state: the interaction is only tuned from there.
    """
    layout = state.layout
    source_axis = layout.axis(source_label)
    pointer_axis = layout.axis(pointer_label)
    if source_axis == pointer_axis:
        raise ValueError("source and pointer must be different factors")
    reduced = partial_trace(state, [pointer_label]).matrix
    ready = np.outer(_POINTER_READY, _POINTER_READY)
    if np.max(np.abs(reduced - ready)) > ATOL_POINTER_READY:
        raise ValueError(
            f"pointer {pointer_label!r} is not in its ready state; "
            "premeasurement is only defined from there"
        )
    n = layout.n_factors
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, (source_axis, pointer_axis), (0, 1))
    shape = tensor.shape
    tensor = (_PREMEASURE_UNITARY @ tensor.reshape(4, -1)).reshape(shape)
    tensor = np.moveaxis(tensor, (0, 1), (source_axis, pointer_axis))
    return StateVector(layout, tensor.reshape(-1))


def branch_state(branch: int, layout: SpaceLayout) -> StateVector:
    """Product state of one measurement branch: each factor in its branch basis vector.

    Rejects environment factors, which only ``decohere`` appends: the
    environment-tagged branch is
    ``decohere(branch_state(branch, ms_layout()), n_env, env_overlap)``.
    """
    if branch not in (1, 2):
        raise ValueError("branch must be 1 or 2")
    for label in layout.labels:
        if label not in CHAIN_LABELS:
            raise ValueError(
                f"layout contains environment factor {label!r}; "
                "environment factors are appended by decohere"
            )
    return basis_state(layout, [branch - 1] * layout.n_factors)


def decohere(
    state: StateVector,
    n_env: int,
    env_overlap: float,
    control_label: str = OBSERVER,
) -> StateVector:
    """Couple ``n_env`` fresh environment qubits to the pointer basis.

    Each basis value of the control factor tags every environment qubit with
    its branch state, whose mutual overlap is ``env_overlap``; branch
    amplitudes are unchanged.  The environment factors E1..En are appended
    after the existing ones; ``SpaceLayout`` rejects a label the state already has.
    """
    if n_env < 1:
        raise ValueError("n_env must be >= 1")
    if not 0.0 <= env_overlap <= 1.0:
        raise ValueError("env_overlap must lie in [0, 1]")
    layout = state.layout
    control_axis = layout.axis(control_label)
    new_labels = [f"E{j}" for j in range(1, n_env + 1)]
    target = SpaceLayout(tuple(layout.factors) + tuple((lab, 2) for lab in new_labels))

    # the environment qubit state of branch 1, then of branch 2
    envs = np.array([[1.0, 0.0], [env_overlap, math.sqrt(1.0 - env_overlap**2)]],
                    dtype=np.complex128)
    blocks = []
    for env in envs:
        block = env
        for _ in range(n_env - 1):
            block = np.kron(block, env)
        blocks.append(block.reshape((2,) * n_env))
    tensor = state.amplitudes.reshape((2,) * layout.n_factors)
    slices = [
        np.multiply.outer(np.take(tensor, value, axis=control_axis), blocks[value])
        for value in (0, 1)
    ]
    result = np.stack(slices, axis=control_axis)
    return StateVector(target, result.reshape(-1))


def interference_matrix(c1, n_factors: int) -> np.ndarray:
    """Matrix of ``interference_operator`` over ``n_factors`` qubits; rejects |c1| != 1.

    An array of phase factors ``c1`` gives a stack of matrices.
    """
    c1 = np.asarray(c1, dtype=np.complex128)
    if not (abs(abs(c1) - 1.0) <= ATOL_PARAMETER).all():  # NaN fails too
        raise ValueError("|c1| must equal 1")
    dim = 2**n_factors
    matrix = np.zeros(c1.shape + (dim, dim), dtype=np.complex128)
    matrix[..., 0, dim - 1] = c1
    matrix[..., dim - 1, 0] = c1.conj()
    return matrix


def interference_operator(layout: SpaceLayout, c1: complex) -> Observable:
    """Joint flip operator c1 |1..1><2..2| + conj(c1) |2..2><1..1| over all of ``layout``.

    Rejects |c1| != 1.  A flip on some factors of a larger layout is
    ``embed_operator(interference_matrix(c1, n), targets, layout)``, as ``zoo``
    builds B_SD and B.
    """
    return Observable(layout, interference_matrix(c1, layout.n_factors))


def zoo(layout: SpaceLayout, gamma: float = 0.0) -> Mapping[str, Observable]:
    """Read-only mapping of every named observable whose factors exist in ``layout``.

    ``gamma`` fixes the conjugate spin component S_a.  The interference
    operators B and B_SD take the phase c1 = 1, and the observer-algebra
    member A is d0 V + d1 V_x + d2 V_y at (d0, d1, d2) = (1, 0, 0), that is V.
    """
    labels = set(layout.labels)
    members: dict[str, Observable] = {}

    def put(name: str, matrix: np.ndarray, *targets: str) -> None:
        members[name] = embed_operator(matrix, targets, layout)

    if SYSTEM in labels:
        put("S_z", PAULI_Z / 2.0, SYSTEM)
        put("S_x", PAULI_X / 2.0, SYSTEM)
        put("S_y", PAULI_Y / 2.0, SYSTEM)
        put("S_a", conjugate_spin_matrix(gamma), SYSTEM)
    if DETECTOR in labels:
        put("Q", PAULI_Z, DETECTOR)
        put("Q_x", PAULI_X, DETECTOR)
        put("Q_y", PAULI_Y, DETECTOR)
    if OBSERVER in labels:
        put("V", PAULI_Z, OBSERVER)
        put("V_x", PAULI_X, OBSERVER)
        put("V_y", PAULI_Y, OBSERVER)
        put("A", PAULI_Z, OBSERVER)
    if SYSTEM in labels and DETECTOR in labels:
        put("SzQ", np.kron(PAULI_Z / 2.0, PAULI_Z), SYSTEM, DETECTOR)
        put("B_SD", interference_matrix(1.0, 2), SYSTEM, DETECTOR)
    if labels.issuperset(CHAIN_LABELS):
        put("B", interference_matrix(1.0, 3), *CHAIN_LABELS)

    return MappingProxyType(members)


def conjugate_spin_matrix(gamma) -> np.ndarray:
    """Spin component conjugate to S_z at quantum phase ``gamma``; a stack for an array.

    cos and sin come from ``math`` point by point: numpy may pick a SIMD
    kernel whose last bit differs, and the refined scan phases depend on it.
    """
    gammas = np.asarray(gamma, dtype=float)
    flat = gammas.ravel().tolist()
    cos, sin = (np.fromiter(map(f, flat), float, len(flat)).reshape(gammas.shape + (1, 1))
                for f in (math.cos, math.sin))
    return (cos * PAULI_X + sin * PAULI_Y) / 2.0


def measurement_chain_state(
    a1: complex, a2: complex, include_observer: bool = True
) -> StateVector:
    """Premeasured chain state for amplitudes (a1, a2).

    Runs the detector interaction, then (optionally) the observer
    interaction, from both pointers' ready states.
    """
    state = tensor_state([prepare_system(a1, a2), pointer_ready(DETECTOR)])
    state = premeasure(state, SYSTEM, DETECTOR)
    if include_observer:
        state = tensor_state([state, pointer_ready(OBSERVER)])
        state = premeasure(state, DETECTOR, OBSERVER)
    return state
