"""Dense complex linear algebra over small qubit tensor-product spaces.

Every state, density matrix and observable carries a :class:`SpaceLayout`
naming its ordered tensor factors, so composition, embedding and partial
traces can be checked against the factor structure instead of bare shapes.
Storage is dense ``complex128`` throughout; the largest space used anywhere
in this package is 13 qubits (dimension 8192), where dense wins on
simplicity.

``grouped_spectra`` is the one spectral decomposition: ``Observable.spectrum``
is its one-row call, and the overlap kernel of :mod:`qmeas.discrimination`
runs it on whole stacks.  ``eigen_residuals`` is the one eigenstate test in
the same way: ``is_eigenstate`` is its one-row call, and the no-go engine
runs it on whole batches of candidates.  Hermiticity is checked where a
matrix enters, in ``Observable`` construction; the scanned families of
:mod:`qmeas.model` are exactly Hermitian by construction, and go unchecked.

All operations are pure functions on immutable values (arrays are frozen at
construction), so they are safe to call from concurrent contexts.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

ATOL_NORM = 1e-12           # state-vector normalization
ATOL_HERMITIAN_INPUT = 1e-10  # acceptance gate for Hermitian input matrices
ATOL_HERMITIAN_STORED = 1e-12  # guaranteed for stored matrices
ATOL_TRACE = 1e-12          # density-matrix trace
ATOL_PSD = 1e-12            # tolerated magnitude of negative eigenvalues
ATOL_PROB_SUM = 1e-10       # outcome distributions must sum to one
ATOL_IMAG = 1e-10           # discarded imaginary residue of expectations
EIG_GROUP_RTOL = 1e-8       # |l_i - l_j| <= EIG_GROUP_RTOL * max(1, |l_i|)
DEFAULT_EIGENSTATE_TOL = 1e-9


class InvariantViolation(ValueError):
    """A numeric model invariant (norm, Hermiticity, positivity, ...) failed."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _shaped(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(value, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, layout needs {shape}")
    return arr


class Immutable:
    """Read-only slots: ``__init__`` sets them with ``object.__setattr__``, nothing else can."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__, which checks again
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class SpaceLayout(Immutable):
    """Ordered list of labelled tensor factors; all factors are qubits."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...]):
        if not factors:
            raise ValueError("a layout needs at least one factor")
        labels = [label for label, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for label, dim in factors:
            if dim != 2:
                raise ValueError(
                    f"factor {label!r} has dim {dim}; only qubit factors are supported"
                )
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        return self.factors == other.factors if type(other) is SpaceLayout else NotImplemented

    def __hash__(self):
        return hash(self.factors)

    @classmethod
    def of(cls, *labels: str) -> "SpaceLayout":
        return cls(tuple((label, 2) for label in labels))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.factors)

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def total_dim(self) -> int:
        return 2 ** len(self.factors)  # every factor is a qubit

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValueError(f"no factor labelled {label!r} in layout {self.labels}")

    def restricted(self, keep: Sequence[str]) -> "SpaceLayout":
        """Sub-layout of the factors in ``keep``, preserving this layout's order."""
        keep_set = set(keep)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise ValueError(f"unknown factor labels {sorted(unknown)}")
        return SpaceLayout(tuple(f for f in self.factors if f[0] in keep_set))


class StateVector(Immutable):
    """Normalized complex amplitude array over a layout's basis ordering."""

    __slots__ = ("layout", "amplitudes")

    def __init__(self, layout: SpaceLayout, amplitudes: np.ndarray):
        arr = _shaped(amplitudes, (layout.total_dim,), "amplitude array")
        norm = float(np.linalg.norm(arr))
        if not abs(norm - 1.0) <= ATOL_NORM:  # NaN fails too
            raise InvariantViolation(
                f"state norm {norm!r} deviates from 1 by more than {ATOL_NORM}"
            )
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", _frozen(arr))


class DensityMatrix(Immutable):
    """Hermitian, positive semidefinite, trace-one operator."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix: np.ndarray):
        arr = _shaped(matrix, (layout.total_dim,) * 2, "matrix")
        if not np.max(np.abs(arr - arr.conj().T)) <= ATOL_HERMITIAN_STORED:
            raise InvariantViolation("density matrix is not Hermitian")
        arr = (arr + arr.conj().T) / 2.0
        trace = float(arr.trace().real)
        if not abs(trace - 1.0) <= ATOL_TRACE:
            raise InvariantViolation(f"density matrix trace {trace!r} is not 1")
        lowest = float(np.linalg.eigvalsh(arr)[0])
        if lowest < -ATOL_PSD:
            raise InvariantViolation(
                f"density matrix has negative eigenvalue {lowest!r}"
            )
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", _frozen(arr))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


class Observable(Immutable):
    """Hermitian operator with a grouped spectral decomposition.

    The input matrix must be Hermitian within ``ATOL_HERMITIAN_INPUT``; the
    stored copy is symmetrized so downstream code sees an exactly Hermitian
    matrix.  ``spectrum``, the one-row call of ``grouped_spectra``, holds one
    (eigenvalue, projector, multiplicity) tuple per group, computed on each
    access.  An observable has no name: the named ones are the keys of ``model.zoo``.
    """

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix):
        arr = _shaped(matrix, (layout.total_dim,) * 2, "matrix")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "matrix", _frozen(checked_hermitian(arr)))

    @property
    def spectrum(self) -> tuple[tuple[float, np.ndarray, int], ...]:
        ((_, values, cuts, projectors),) = grouped_spectra(self.matrix[None])
        return tuple(
            (float(values[0, start:stop].mean()), _frozen(group[0]), stop - start)
            for start, stop, group in zip(cuts, cuts[1:], projectors)
        )

    def __repr__(self):
        return f"Observable(dim={self.layout.total_dim})"


def checked_hermitian(matrices: np.ndarray) -> np.ndarray:
    """Hermiticity gate at ``ATOL_HERMITIAN_INPUT``, then symmetrize; one matrix or a stack."""
    adjoints = matrices.conj().swapaxes(-1, -2)
    if not np.max(np.abs(matrices - adjoints)) <= ATOL_HERMITIAN_INPUT:  # NaN fails too
        raise InvariantViolation("observable matrix is not Hermitian")
    return (matrices + adjoints) / 2.0


def grouped_spectra(matrices: np.ndarray):
    """One stacked ``eigh`` and the eigenvalue groups of an exactly Hermitian stack.

    The stack is not checked: its rows are gated ``Observable`` matrices or
    scanned families, Hermitian by construction.  Ascending l_k joins the
    group of l_(k-1) when l_k - l_(k-1) <= EIG_GROUP_RTOL * max(1, |l_(k-1)|).  Yields
    (rows, values, cuts, projectors) for the rows sharing one group structure
    (the first remaining row's, until none remain): group g holds
    ``values[:, cuts[g]:cuts[g + 1]]``, and projectors[g, n] = B B^H over its
    eigenvectors B in row n, which depends on no other row.
    """
    values, vectors = np.linalg.eigh(matrices)
    before = values[:, :-1]
    joined = values[:, 1:] - before <= EIG_GROUP_RTOL * np.maximum(1.0, abs(before))
    rest = np.arange(len(values))
    while len(rest):
        same = (joined[rest] == joined[rest[0]]).all(axis=1)
        rows, rest = rest[same], rest[~same]
        cuts = [0, *(np.flatnonzero(~joined[rows[0]]) + 1).tolist(), values.shape[1]]
        stack = vectors[rows]
        blocks = (stack[..., start:stop] for start, stop in zip(cuts, cuts[1:]))
        yield rows, values[rows], cuts, np.array([b @ b.conj().swapaxes(-1, -2) for b in blocks])


State = Union[StateVector, DensityMatrix]


def require_same_layout(a, b) -> None:
    """Raise unless both operands live on one layout."""
    if a.layout != b.layout:
        raise ValueError(
            f"layout mismatch: {a.layout.labels} vs {b.layout.labels}"
        )


def tensor_state(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker product of states, factors concatenated in argument order."""
    if not parts:
        raise ValueError("tensor_state needs at least one part")
    factors: list[tuple[str, int]] = []
    for part in parts:
        factors.extend(part.layout.factors)
    layout = SpaceLayout(tuple(factors))  # rejects duplicate labels
    amplitudes = parts[0].amplitudes
    for part in parts[1:]:
        amplitudes = np.kron(amplitudes, part.amplitudes)
    return StateVector(layout, amplitudes)


def basis_state(layout: SpaceLayout, occupations: Sequence[int]) -> StateVector:
    """Computational basis vector with the given 0/1 value per factor."""
    if len(occupations) != layout.n_factors:
        raise ValueError("one occupation per factor required")
    index = 0
    for occ in occupations:
        if occ not in (0, 1):
            raise ValueError("occupations must be 0 or 1")
        index = 2 * index + occ
    amplitudes = np.zeros(layout.total_dim, dtype=np.complex128)
    amplitudes[index] = 1.0
    return StateVector(layout, amplitudes)


def embed_operator(
    matrix, target_labels: Sequence[str], layout: SpaceLayout
) -> Observable:
    """Lift ``matrix`` to a gated ``Observable`` on ``layout``, identity off the targets.

    ``target_labels`` name the factors of ``layout`` onto which the qubit
    factors of ``matrix`` (2^len(targets) square) map, in order.
    """
    targets = list(target_labels)
    if np.shape(matrix) != (2 ** len(targets),) * 2:
        raise ValueError(
            f"matrix has shape {np.shape(matrix)} but {len(targets)} targets given"
        )
    if len(set(targets)) != len(targets):
        raise ValueError("target labels must be distinct")
    for label in targets:
        layout.axis(label)  # raises on unknown labels
    rest = [label for label in layout.labels if label not in set(targets)]
    big = np.kron(matrix, np.eye(2 ** len(rest), dtype=np.complex128))
    # `big` is ordered targets + rest; permute the factor axes to layout order
    order = targets + rest
    source = {label: i for i, label in enumerate(order)}
    perm = [source[label] for label in layout.labels]
    n = layout.n_factors
    tensor = big.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return Observable(layout, tensor.reshape(layout.total_dim, layout.total_dim))


def partial_trace(state: State, keep_labels: Sequence[str]) -> DensityMatrix:
    """Reduced density matrix over the kept factors.

    Accepts a pure state or a density matrix; for a pure state the reduced
    matrix is formed without materializing the full projector.  The result
    layout is the input layout restricted to ``keep_labels``.
    """
    keep = list(keep_labels)
    if not keep:
        raise ValueError("keep_labels must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError("keep_labels must be distinct")
    layout = state.layout
    sub = layout.restricted(keep)  # raises on unknown labels
    keep_axes = [layout.axis(label) for label in sub.labels]
    rest_axes = [i for i in range(layout.n_factors) if i not in keep_axes]
    dim_keep = 2 ** len(keep_axes)
    dim_rest = 2 ** len(rest_axes)
    n = layout.n_factors
    if isinstance(state, StateVector):
        block = (
            state.amplitudes.reshape((2,) * n)
            .transpose(keep_axes + rest_axes)
            .reshape(dim_keep, dim_rest)
        )
        reduced = block @ block.conj().T
    else:
        axes = keep_axes + rest_axes
        tensor = state.matrix.reshape((2,) * (2 * n))
        tensor = tensor.transpose(axes + [a + n for a in axes])
        tensor = tensor.reshape(dim_keep, dim_rest, dim_keep, dim_rest)
        reduced = np.einsum("arbr->ab", tensor)
    return DensityMatrix(sub, reduced)


def born(operators: np.ndarray, state: State) -> np.ndarray:
    """<psi|G|psi> or Tr(G rho) for one Hermitian G or each of a stack.

    The pure form is the stacked equivalent of ``np.vdot(psi, G @ psi)``,
    bit for bit.  A tiny imaginary residue is discarded.
    """
    if isinstance(state, StateVector):
        amplitudes = state.amplitudes
        values = np.matmul(amplitudes.conj(), (operators @ amplitudes)[..., None])[..., 0]
    else:
        values = (operators @ state.matrix).trace(axis1=-2, axis2=-1)
    residue = abs(values.imag).max(initial=0.0)
    if not residue <= ATOL_IMAG:
        raise InvariantViolation(
            f"expectation of Hermitian operator has imaginary part {residue!r}"
        )
    return values.real


def expectation(state: State, op: Observable) -> float:
    """<psi|G|psi> or Tr(rho G); tiny imaginary residue is discarded."""
    require_same_layout(state, op)
    return float(born(op.matrix, state))


def eigen_residuals(products: np.ndarray, vectors: np.ndarray, tol: float):
    """The eigenstate test of each v_s under each G_n, given products[n, s] = G_n v_s.

    Returns lam[n, s] = <v_s|G_n v_s> and the mask of the candidates n under
    which every v_s passes ||G_n v_s - lam v_s|| <= tol.  ``tol`` is the
    caller's to check: the no-go engine calls this once per batch.
    """
    lam = np.einsum("si,nsi->ns", vectors.conj(), products)
    if not np.max(np.abs(lam.imag)) <= ATOL_IMAG:  # NaN fails too
        raise InvariantViolation("expectation of Hermitian operator is not real")
    lam = lam.real
    deviation = products - lam[..., None] * vectors
    # np.linalg.norm(deviation, axis=-1), without its per-call dispatch
    residual = np.sqrt(np.add.reduce((deviation.conj() * deviation).real, axis=-1))
    return lam, np.all(residual <= tol, axis=1)


def is_eigenstate(
    op: Observable, state: StateVector, tol: float = DEFAULT_EIGENSTATE_TOL
) -> float | None:
    """Eigenvalue of ``state`` under ``op`` if the residual is within ``tol``.

    Returns ``lam = <psi|G|psi>`` when ``||G psi - lam psi|| <= tol``, else
    None: the one-row call of ``eigen_residuals``.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    require_same_layout(state, op)
    vectors = state.amplitudes[None]
    lam, passed = eigen_residuals((op.matrix @ state.amplitudes)[None, None], vectors, tol)
    return float(lam[0, 0]) if passed[0] else None


def outcome_weights(state: State, projectors) -> np.ndarray:
    """Born weight of ``state`` on each projector, checked to form a distribution.

    Row g holds the weight on ``projectors[g]``, or one weight per matrix
    when each is a stack; negative roundoff is clamped to zero.
    """
    weights = born(np.asarray(projectors), state)
    if (weights < -ATOL_PROB_SUM).any():
        raise InvariantViolation(f"negative outcome probability {float(weights.min())!r}")
    weights = np.maximum(weights, 0.0)
    total = sum(weights)
    if not (abs(total - 1.0) <= ATOL_PROB_SUM).all():
        raise InvariantViolation(f"outcome probabilities sum to {total!r}")
    return weights


def outcome_distribution(state: State, op: Observable) -> list[tuple[float, float]]:
    """(eigenvalue, weight) of ``state`` on each group of ``op.spectrum``, ascending."""
    require_same_layout(state, op)
    spectrum = op.spectrum
    weights = outcome_weights(state, [projector for _, projector, _ in spectrum])
    return [(value, w) for (value, _, _), w in zip(spectrum, weights.tolist())]
