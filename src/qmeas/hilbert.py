"""Dense complex linear algebra over small qubit tensor-product spaces.

Every state, density matrix and observable carries a :class:`SpaceLayout`
naming its ordered tensor factors, so composition, embedding and partial
traces can be checked against the factor structure instead of bare shapes.
Storage is dense ``complex128`` throughout; the largest space used anywhere
in this package is 13 qubits (dimension 8192), where dense wins on
simplicity.

All operations are pure functions on immutable values (arrays are frozen at
construction), so they are safe to call from concurrent contexts.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

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
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.shape != (layout.total_dim,):
            raise ValueError(
                f"amplitude array has shape {arr.shape}, layout needs "
                f"({layout.total_dim},)"
            )
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > ATOL_NORM:
            raise InvariantViolation(
                f"state norm {norm!r} deviates from 1 by more than {ATOL_NORM}"
            )
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "amplitudes", _frozen(arr))

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix of this pure state."""
        return DensityMatrix(
            self.layout, np.outer(self.amplitudes, self.amplitudes.conj())
        )


class DensityMatrix(Immutable):
    """Hermitian, positive semidefinite, trace-one operator."""

    __slots__ = ("layout", "matrix")

    def __init__(self, layout: SpaceLayout, matrix: np.ndarray):
        dim = layout.total_dim
        arr = np.array(matrix, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise ValueError(f"matrix has shape {arr.shape}, layout needs ({dim}, {dim})")
        if np.max(np.abs(arr - arr.conj().T)) > ATOL_HERMITIAN_STORED:
            raise InvariantViolation("density matrix is not Hermitian")
        arr = (arr + arr.conj().T) / 2.0
        trace = float(arr.trace().real)
        if abs(trace - 1.0) > ATOL_TRACE:
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


class SpectralEntry(NamedTuple):
    eigenvalue: float
    projector: np.ndarray
    multiplicity: int


class Observable:
    """Hermitian operator with a grouped spectral decomposition.

    The input matrix must be Hermitian within ``ATOL_HERMITIAN_INPUT``; the
    stored copy is symmetrized so downstream code sees an exactly Hermitian
    matrix.  The spectral decomposition is computed lazily on first access
    and merges eigenvalues closer than the relative grouping tolerance into
    one entry, so degenerate spectra yield stable projectors.
    """

    __slots__ = ("layout", "matrix", "name", "_spectrum")

    def __init__(self, layout: SpaceLayout, matrix, name: str | None = None):
        dim = layout.total_dim
        arr = np.array(matrix, dtype=np.complex128)
        if arr.shape != (dim, dim):
            raise ValueError(f"matrix has shape {arr.shape}, layout needs ({dim}, {dim})")
        self.layout = layout
        self.matrix = _frozen(checked_hermitian(arr))
        self.name = name
        self._spectrum: tuple[SpectralEntry, ...] | None = None

    @property
    def spectrum(self) -> tuple[SpectralEntry, ...]:
        if self._spectrum is None:
            self._spectrum = _grouped_spectrum(self.matrix)
        return self._spectrum

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(entry.eigenvalue for entry in self.spectrum)

    def __repr__(self):
        label = self.name or "G"
        return f"Observable({label!r}, dim={self.layout.total_dim})"


def checked_hermitian(matrices: np.ndarray) -> np.ndarray:
    """Hermiticity gate at ``ATOL_HERMITIAN_INPUT``, then symmetrize; one matrix or a stack."""
    adjoints = matrices.conj().swapaxes(-1, -2)
    if np.max(np.abs(matrices - adjoints)) > ATOL_HERMITIAN_INPUT:
        raise InvariantViolation("observable matrix is not Hermitian")
    return (matrices + adjoints) / 2.0


def group_starts(values: np.ndarray) -> np.ndarray:
    """Flat index of each group's first eigenvalue: ``_grouped_spectrum``'s rule per row."""
    scale = np.maximum(1.0, np.abs(values[:, :-1]))
    joined = np.diff(values, axis=1) <= EIG_GROUP_RTOL * scale
    return np.flatnonzero(np.column_stack([np.ones(len(values), dtype=bool), ~joined]))


def spectral_projectors(values: np.ndarray, vectors: np.ndarray):
    """(start, stop, projector) of each eigenvalue group of one ``eigh`` result."""
    listed = values.tolist()
    start = 0
    for k in range(1, len(listed) + 1):
        last = listed[k - 1]
        if k < len(listed) and listed[k] - last <= EIG_GROUP_RTOL * max(1.0, abs(last)):
            continue
        block = vectors[:, start:k]
        yield start, k, block @ block.conj().T
        start = k


def _grouped_spectrum(matrix: np.ndarray) -> tuple[SpectralEntry, ...]:
    values, vectors = np.linalg.eigh(matrix)
    return tuple(
        SpectralEntry(float(values[start:stop].mean()), _frozen(projector), stop - start)
        for start, stop, projector in spectral_projectors(values, vectors)
    )


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
    op: Observable, target_labels: Sequence[str], layout: SpaceLayout
) -> Observable:
    """Lift ``op`` to ``layout``: acts as ``op`` on the targets, identity elsewhere.

    ``target_labels`` name the factors of ``layout`` onto which the factors of
    ``op`` map, in order.
    """
    targets = list(target_labels)
    if len(targets) != op.layout.n_factors:
        raise ValueError(
            f"operator has {op.layout.n_factors} factors but {len(targets)} targets given"
        )
    if len(set(targets)) != len(targets):
        raise ValueError("target labels must be distinct")
    for label in targets:
        layout.axis(label)  # raises on unknown labels
    rest = [label for label in layout.labels if label not in set(targets)]
    big = np.kron(op.matrix, np.eye(2 ** len(rest), dtype=np.complex128))
    # `big` is ordered targets + rest; permute the factor axes to layout order
    order = targets + rest
    source = {label: i for i, label in enumerate(order)}
    perm = [source[label] for label in layout.labels]
    n = layout.n_factors
    tensor = big.reshape((2,) * (2 * n))
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return Observable(layout, tensor.reshape(layout.total_dim, layout.total_dim),
                      name=op.name)


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


def expectation(state: State, op: Observable) -> float:
    """<psi|G|psi> or Tr(rho G); tiny imaginary residue is discarded."""
    require_same_layout(state, op)
    if isinstance(state, StateVector):
        value = complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    else:
        value = complex(np.trace(op.matrix @ state.matrix))
    if abs(value.imag) > ATOL_IMAG:
        raise InvariantViolation(
            f"expectation of Hermitian operator has imaginary part {value.imag!r}"
        )
    return float(value.real)


def is_eigenstate(
    op: Observable, state: StateVector, tol: float = DEFAULT_EIGENSTATE_TOL
) -> float | None:
    """Eigenvalue of ``state`` under ``op`` if the residual is within ``tol``.

    Returns ``lam = <psi|G|psi>`` when ``||G psi - lam psi|| <= tol``, else None.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    require_same_layout(state, op)
    lam = expectation(state, op)
    residual = float(
        np.linalg.norm(op.matrix @ state.amplitudes - lam * state.amplitudes)
    )
    return lam if residual <= tol else None


def outcome_weights(state: State, projectors) -> list[float]:
    """Born weight of ``state`` on each projector, checked to form a distribution."""
    weights: list[float] = []
    for projector in projectors:
        if isinstance(state, StateVector):
            weight = float(np.real(np.vdot(state.amplitudes, projector @ state.amplitudes)))
        else:
            weight = float(np.trace(projector @ state.matrix).real)
        if weight < -ATOL_PROB_SUM:
            raise InvariantViolation(f"negative outcome probability {weight!r}")
        weights.append(max(weight, 0.0))
    total = sum(weights)
    if abs(total - 1.0) > ATOL_PROB_SUM:
        raise InvariantViolation(f"outcome probabilities sum to {total!r}")
    return weights


def outcome_distribution(state: State, op: Observable) -> list[tuple[float, float]]:
    """Measurement distribution of ``op`` in ``state``, one entry per spectral group."""
    require_same_layout(state, op)
    weights = outcome_weights(state, [entry.projector for entry in op.spectrum])
    return list(zip(op.eigenvalues, weights))
