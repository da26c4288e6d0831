"""Distinguishability metrics and the observable no-go search.

The overlap K of two states under an observable is the intersection of
their outcome distributions, sum over spectral groups of min(w1, w2): 1
means the observable cannot tell the states apart even statistically, 0
means it separates them event by event.  The purity rate is the
conjugate-spin signature 2|<S_a>| that distinguishes a pure qubit state
from the matched mixture.

The no-go search scans observable families for an operator having the
entangled chain state and both branch states as eigenstates with distinct
eigenvalues; with both branch amplitudes nonzero no such operator exists.
The forcing check verifies the linear identity that forces the eigenvalues
to coincide, once per state triple.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .hilbert import (
    DEFAULT_EIGENSTATE_TOL,
    DensityMatrix,
    Observable,
    SpaceLayout,
    State,
    StateVector,
    born,
    checked_hermitian,
    eigen_residuals,
    expectation,
    grouped_spectra,
    outcome_weights,
    partial_trace,
    require_same_layout,
)
from .model import (
    DETECTOR,
    OBSERVER,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    branch_state,
    conjugate_spin_matrix,
    interference_matrix,
    interference_operator,
    measurement_chain_state,
    prepare_system,
    zoo,
)
from .ensembles import Gemenge, mixture_density

DISTINCTNESS_THRESHOLD = 1e-6   # eigenvalue separation that counts as discrimination
DEGENERATE_AMPLITUDE = 1e-12    # |a1 a2| below this is out of the no-go regime
INDETERMINATE_PURITY = 1e-10    # below this the optimal phase is meaningless
MIN_NOGO_SAMPLES = 10_000
PHASE_GRID = 3600               # points of every phase scan; even, for the mirrored half grid
N_DIRECTIONS = 1000             # detector directions of the post-channel sweep
ATOL_ORTHONORMAL = 1e-9


def matched_pair(a: tuple[complex, complex], scope: str) -> tuple[StateVector, DensityMatrix]:
    """Pure state for amplitudes ``a`` and the matched branch mixture.

    The mixture holds the branch states with the Born weights |a1|^2 and
    |a2|^2.  ``scope`` picks the factors: "S" the system qubit alone, "SD"
    system and detector after premeasurement, "MS" the whole chain.
    """
    if scope not in ("S", "SD", "MS"):
        raise ValueError("scope must be one of 'S', 'SD', 'MS'")
    a1, a2 = a
    if scope == "S":
        pure = prepare_system(a1, a2)
    else:
        pure = measurement_chain_state(a1, a2, include_observer=scope == "MS")
    members = ((branch_state(1, pure.layout), abs(a1) ** 2),
               (branch_state(2, pure.layout), abs(a2) ** 2))
    return pure, mixture_density(Gemenge(members))


def overlap(obs: Observable, state1: State, state2: State) -> float:
    """K = sum over spectral groups of min(w1, w2); 1 iff the distributions agree."""
    require_same_layout(state1, obs)  # _overlaps checks state2 against state1
    return float(_overlaps(obs.matrix[None], state1, state2)[0])


def _left_to_right(terms):
    """terms[0] + terms[1] + ..., in order, on every Python version.

    Builtin ``sum`` compensates the roundoff of exact floats from Python
    3.12 on, so K would depend on the interpreter.
    """
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _overlaps(matrices: np.ndarray, state1: State, state2: State) -> np.ndarray:
    """K under each matrix of an exactly Hermitian stack; the one K kernel, ``overlap`` too.

    ``grouped_spectra`` gives the group projectors of the rows that share
    one group structure; each row then takes the checked Born weights of
    ``outcome_weights`` on them and a left-to-right sum of min(w1, w2) over
    the groups.  Row n therefore does not depend on the other rows of the
    stack.  The stack itself is not checked: ``overlap`` passes an
    ``Observable`` matrix, gated when built, and the scans pass families
    that are Hermitian by construction.
    """
    require_same_layout(state1, state2)
    k = np.empty(len(matrices))
    for rows, _, _, projectors in grouped_spectra(matrices):
        w1, w2 = (outcome_weights(state, projectors) for state in (state1, state2))
        k[rows] = _left_to_right(np.minimum(w1, w2))
    return k


def _single_qubit(state: State) -> None:
    if state.layout.n_factors != 1:
        raise ValueError("purity rate is defined on a single-qubit state")


def purity_rate(rho_s: State, gamma: float) -> float:
    """Pure-vs-mixed signature 2|<S_a(gamma)>|, between 0 and 1, from the unchecked Born form
    ``born(conjugate_spin_matrix(gamma), rho_s)``: that matrix is exactly Hermitian."""
    _single_qubit(rho_s)
    return 2.0 * abs(float(born(conjugate_spin_matrix(gamma), rho_s)))


SCAN_TIE_WINDOW = 1e-12  # mirrored grid values this close to the minimum are re-scored
REFINE_STEPS = 80
# Ternary steps per objective call of the refinement.  The four scans of
# `discriminate` in process (2-vCPU Xeon KVM guest, one BLAS thread, median of
# 15 interleaved rounds): 49-51 ms at depth 1, 40 at 2, 38 at 3, 38-39 at 4.
# Depth 3 keeps the dim-8 call small: 14 rows of K take 138 us, 2 take 77, 62 take 355.
LOOKAHEAD = 3


def _scan_extremum(
    objective: Callable[[np.ndarray], np.ndarray], dim: int
) -> tuple[float, float]:
    """Phase in [0, 2 pi) minimizing ``objective``: ``PHASE_GRID`` scan plus refinement.

    ``objective(phases)`` returns the exact value at each phase of an array
    of dim x dim matrices; it is called on ``_batch_rows(dim * dim)`` phases
    at most.  Every scanned family is linear in (cos p, sin p), so
    G(p + pi) = -G(p), and K and 2|<S_a>| are invariant under G -> -G: the
    objective runs on the first half of the (even) grid only and its values
    are copied onto the second half.  A copied value differs from the value
    at its own point by roundoff, so the grid points within
    ``SCAN_TIE_WINDOW`` of the copied minimum are scored again at their own
    phases, and the first minimal one is refined by a ``REFINE_STEPS``-step
    ternary search.  Each step keeps (lo, m2) when f(m1) < f(m2) and
    (m1, hi) otherwise.  The search looks ``LOOKAHEAD`` steps ahead: one
    call scores the inner points of every bracket those steps can reach
    (2 + 4 + 8 at depth 3), and the comparisons then walk that tree.  The
    objective's rows do not depend on each other, so the walk takes the
    brackets of a step-by-step search bit for bit; the extra points only
    cost time.  The result is the one a point-by-point scan finds (exact
    grid ties at p and p + pi are the rule).  Returns the unwrapped phase
    and its value.
    """
    rows = _batch_rows(dim * dim)

    def score(phases: np.ndarray) -> np.ndarray:
        batches = _chunks(len(phases), rows)
        return np.concatenate([objective(phases[i:i + size]) for i, size in batches])

    grid = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    half = score(grid[: PHASE_GRID // 2])
    values = np.concatenate([half, half])
    near = np.flatnonzero(values <= values.min() + SCAN_TIE_WINDOW)
    best = grid[near[int(np.argmin(score(grid[near])))]]
    step = 2.0 * math.pi / PHASE_GRID
    lo, hi = best - step, best + step
    for done in range(0, REFINE_STEPS, LOOKAHEAD):
        depth = min(LOOKAHEAD, REFINE_STEPS - done)
        # bracket n has children 2n + 1 = (lo, m2) and 2n + 2 = (m1, hi)
        brackets, inner = [(lo, hi)], []
        for n in range(2**depth - 1):
            b_lo, b_hi = brackets[n]
            third = (b_hi - b_lo) / 3.0
            m1, m2 = b_lo + third, b_hi - third
            inner += [m1, m2]
            brackets += [(b_lo, m2), (m1, b_hi)]
        values = score(np.array(inner))
        n = 0
        for _ in range(depth):
            n = 2 * n + (1 if values[2 * n] < values[2 * n + 1] else 2)
        lo, hi = brackets[n]
    x = 0.5 * (lo + hi)
    return x, float(objective(np.array([x]))[0])


def optimal_phase(rho_s: State) -> tuple[float | None, float]:
    """(gamma, purity): grid scan plus local refinement of the purity rate over the phase.

    The scan minimizes -2|<S_a>|.  The returned phase is canonicalized so the
    conjugate-spin expectation is nonnegative there; a maximally mixed input
    has no meaningful maximizer and is reported with gamma None.
    """
    _single_qubit(rho_s)
    gamma, negated = _scan_extremum(
        lambda gammas: -2.0 * np.abs(born(conjugate_spin_matrix(gammas), rho_s)), dim=2
    )
    purity = -negated
    if purity <= INDETERMINATE_PURITY:
        return None, purity
    if born(conjugate_spin_matrix(gamma), rho_s) < 0.0:
        gamma -= math.pi
    return float(gamma % (2.0 * math.pi)), purity


def _apply(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """products[n, s] = matrices[n] @ vectors[s]."""
    return np.matmul(matrices[:, None], vectors[None, :, :, None])[..., 0]


class DiscriminationVerdict(NamedTuple):
    """Result of one no-go scan over an observable family.

    A record rather than a tuple: the benchmark's tracer reads
    ``n_candidates_tested`` by name.
    """

    family_description: str
    n_candidates_tested: int
    found: bool
    witness: tuple | None
    max_min_gap: float
    out_of_regime: bool = False


def _sphere_rows(n: int, start: int, size: int) -> np.ndarray:
    """Rows ``start:start + size`` of the n-point Fibonacci sphere: nearly uniform
    unit vectors, deterministic; row k depends only on k and n."""
    k = np.arange(start, start + size, dtype=float)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = golden * k
    return np.stack([z, np.cos(theta) * radius, np.sin(theta) * radius], axis=1)


_POINTER_BASIS = np.stack([PAULI_Z, PAULI_X, PAULI_Y])
_POINTER_FAMILY = "{} pointer algebra on the coefficient sphere ({} grid + {} random points)"


def _chunks(n: int, size: int):
    """(start, size) of the consecutive batches that cover ``range(n)``."""
    for start in range(0, n, size):
        yield start, min(size, n - start)


def _batch_rows(row_entries: int) -> int:
    """Rows per batch of every batched loop, about 4096 entries a batch.

    At dim 8 that is 64 MS or forcing matrices and 512 O/D directions, screened
    on psi's dim-entry products; at dim 2, 1024 scan phases.  256 MS rows at
    dim 8 lift `nogo` peak RSS 6%.
    """
    return max(1, 4096 // row_entries)


def _hermitians(parts: np.ndarray) -> np.ndarray:
    """(X + X^H) / 2 for X = parts[:, 0] + i parts[:, 1]."""
    real, imag = parts[:, 0], parts[:, 1]
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = (real + real.swapaxes(1, 2)) / 2.0, (imag - imag.swapaxes(1, 2)) / 2.0
    return out


def _random_hermitians(n: int, dim: int, rng: np.random.Generator):
    """(start, matrices) per batch; each matrix draws its real, then imaginary part."""
    for start, size in _chunks(n, _batch_rows(dim * dim)):
        yield start, _hermitians(rng.standard_normal((size, 2, dim, dim)))


def _forcing_draws(n: int, dim: int, rng: np.random.Generator):
    """(g1, g2, H) per batch; sample k draws g1, g2, then H as above, and
    g2 = g1 on even k so that the target passes the eigenstate test."""
    for start, size in _chunks(n, _batch_rows(dim * dim)):
        draw = rng.standard_normal((size, 2 + 2 * dim * dim))
        g2 = np.where(np.arange(start, start + size) % 2 == 0, draw[:, 0], draw[:, 1])
        yield draw[:, 0], g2, _hermitians(draw[:, 2:].reshape(size, 2, dim, dim))


def _pointer_directions(n_sphere: int, n_random: int, rng: np.random.Generator, rows: int):
    """Pointer-algebra coefficients, ``rows`` per batch: ``n_sphere`` grid points, then random."""
    for start, size in _chunks(n_sphere, rows):
        yield _sphere_rows(n_sphere, start, size)
    for _, size in _chunks(n_random, rows):
        draws = rng.standard_normal((size, 3))
        yield draws / np.linalg.norm(draws, axis=1, keepdims=True)


def _branch_amplitudes(states: tuple[StateVector, StateVector, StateVector]):
    """(a1, a2) = (<b1|psi>, <b2|psi>) of a state triple (psi, b1, b2) on one
    layout with orthonormal branches; raises ValueError otherwise."""
    psi, b1, b2 = states
    if not psi.layout == b1.layout == b2.layout:
        raise ValueError("target and branches must share one layout")
    if abs(np.vdot(b1.amplitudes, b2.amplitudes)) > ATOL_ORTHONORMAL:
        raise ValueError("branch states must be orthonormal")
    return (complex(np.vdot(b1.amplitudes, psi.amplitudes)),
            complex(np.vdot(b2.amplitudes, psi.amplitudes)))


def out_of_regime(states: tuple[StateVector, StateVector, StateVector]) -> bool:
    """The one regime rule: |<b1|psi><b2|psi>| <= DEGENERATE_AMPLITUDE for the triple
    (psi, b1, b2), a branch amplitude vanishes and the no-go result does not hold."""
    a1, a2 = _branch_amplitudes(states)
    return abs(a1 * a2) <= DEGENERATE_AMPLITUDE


def forcing_check(
    states: tuple[StateVector, StateVector, StateVector],
    n_samples: int = 1000,
    seed: int = 0,
    tol: float = DEFAULT_EIGENSTATE_TOL,
) -> tuple[int, float, float]:
    """Check the identity that forces equal eigenvalues on sampled Hermitian G.

    For Hermitian G with both branches as exact eigenvectors,
    G psi = a1 g1 psi_1 + a2 g2 psi_2, so the eigenstate residual of psi
    equals |g1 - g2| |a1| |a2|; whenever psi passes the eigenstate test that
    product is bounded by the tolerance.  Returns (n_samples,
    max_substitution_residual, max_forced_gap): the largest deviation of
    G psi from that substitution, and the largest forced gap
    |g1 - g2| |a1| |a2| among samples where psi passed.

    The identity depends on the state triple only, checked as in
    ``nogo_search``, so one check covers every scope on ``states``.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    psi, b1, b2 = states
    a1, a2 = _branch_amplitudes(states)
    dim = psi.layout.total_dim
    p1 = np.outer(b1.amplitudes, b1.amplitudes.conj())
    p2 = np.outer(b2.amplitudes, b2.amplitudes.conj())
    complement = np.eye(dim) - p1 - p2
    target = psi.amplitudes[None]
    rng = np.random.default_rng(seed)
    max_residual = 0.0
    max_gap = 0.0
    for g1, g2, hermitian in _forcing_draws(n_samples, dim, rng):
        block = complement @ hermitian @ complement
        matrices = checked_hermitian(g1[:, None, None] * p1 + g2[:, None, None] * p2 + block)
        products = _apply(matrices, target)
        forced = (a1 * g1)[:, None] * b1.amplitudes + (a2 * g2)[:, None] * b2.amplitudes
        residual = np.linalg.norm(products[:, 0] - forced, axis=1)
        max_residual = max(max_residual, float(residual.max()))
        passed = eigen_residuals(products, target, tol)[1]
        if passed.any():
            gap = np.abs(g1 - g2)[passed] * abs(a1) * abs(a2)
            max_gap = max(max_gap, float(gap.max()))
    return n_samples, max_residual, max_gap


def nogo_search(
    layout_scope: str,
    states: tuple[StateVector, StateVector, StateVector],
    n_candidates: int,
    tol: float = DEFAULT_EIGENSTATE_TOL,
    seed: int = 0,
) -> DiscriminationVerdict:
    """Scan an observable family for a discriminating operator.

    ``layout_scope`` selects the family: "O" and "D" scan the pointer
    algebra d0 P_z + d1 P_x + d2 P_y of that factor over the unit sphere of
    coefficients, ``n_candidates // 2`` grid points and then the rest as
    random directions; "MS" scans the structured observable set and then
    ``n_candidates`` random Hermitian matrices on the whole space.
    ``states`` is the entangled chain state followed by its two branches.

    Candidates are tested in batches, in scan order, and the scan stops at
    the first discriminating one.  A batch is screened on the chain state
    alone first, and only one in which it passes is tested on all three
    states; the others are counted.  The verdict reports whether one was
    found and the largest eigenvalue gap among candidates for which all
    three states passed the eigenstate test; ``forcing_check`` verifies the
    identity behind that gap.  With a vanishing branch amplitude the scan is
    skipped and flagged out of regime, where discrimination is trivially
    possible.
    """
    if layout_scope not in ("O", "D", "MS"):
        raise ValueError("layout_scope must be one of 'O', 'D', 'MS'")
    if n_candidates < MIN_NOGO_SAMPLES:
        raise ValueError(f"no-go sampling needs at least {MIN_NOGO_SAMPLES} candidates")
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    psi, b1, b2 = states
    vectors = np.stack([psi.amplitudes, b1.amplitudes, b2.amplitudes])
    if out_of_regime(states):
        return DiscriminationVerdict(
            family_description=(
                f"scope {layout_scope}: skipped, branch amplitude vanishes "
                "(out of the no-go regime; a pointer observable discriminates trivially)"
            ),
            n_candidates_tested=0,
            found=False,
            witness=None,
            max_min_gap=0.0,
            out_of_regime=True,
        )

    rng = np.random.default_rng(seed)
    dim = psi.layout.total_dim
    n_sphere = 0 if layout_scope == "MS" else n_candidates // 2
    n_random = n_candidates - n_sphere

    def candidate_chunks():
        """Batches of (products(k)[n, s] = G_n v_s for s < k, label(n): the parameters of G_n)."""
        if layout_scope in ("O", "D"):
            axis = psi.layout.axis(OBSERVER if layout_scope == "O" else DETECTOR)
            # P_k v_s, with P_k on the middle axis of (state, factors before, factor,
            # after); G_n v_s = sum_k d_nk P_k v_s, and real combinations of the
            # gated Hermitian basis are Hermitian
            tensors = vectors.reshape(3, 2**axis, 2, -1)
            basis = np.einsum("kij,sajb->ksaib", checked_hermitian(_POINTER_BASIS), tensors)
            basis = basis.reshape(3, 3 * dim)
            # a batch holds psi's products alone unless psi passes in it
            for directions in _pointer_directions(n_sphere, n_random, rng, _batch_rows(dim)):
                yield (lambda k, d=directions: (d @ basis[:, :k * dim]).reshape(len(d), k, dim),
                       lambda n, d=directions: tuple(d[n]))
        else:
            structured = zoo(psi.layout)
            matrices = np.stack([op.matrix for op in structured.values()] + [np.eye(dim)])
            yield (lambda k: _apply(matrices, vectors[:k])), [*structured, "I"].__getitem__
            for start, batch in _random_hermitians(n_random, dim, rng):
                yield (lambda k, batch=batch: _apply(batch, vectors[:k]),
                       lambda n, start=start: f"random[{start + n}]")

    if layout_scope == "MS":
        family = (
            f"random Hermitian matrices of dim {dim} plus the structured "
            f"observable set ({n_random} random points)"
        )
    else:
        factor = "observer" if layout_scope == "O" else "detector"
        family = _POINTER_FAMILY.format(factor, n_sphere, n_random)

    n_tested = 0
    witness = None
    max_min_gap = 0.0
    for products, label in candidate_chunks():
        # psi alone first: no candidate under which psi fails passes all three tests
        passed = eigen_residuals(products(1), vectors[:1], tol)[1]
        if passed.any():
            lam, passed = eigen_residuals(products(3), vectors, tol)
        if not passed.any():  # every gap is 0: nothing to record
            n_tested += len(passed)
            continue
        # min(|g0 - g1|, |g0 - g2|) of candidates all three states passed, else 0
        gaps = np.minimum(np.abs(lam[:, 0] - lam[:, 1]), np.abs(lam[:, 0] - lam[:, 2]))
        gaps = np.where(passed, gaps, 0.0)
        hits = np.flatnonzero(gaps > DISTINCTNESS_THRESHOLD)
        tested = int(hits[0]) + 1 if hits.size else len(passed)
        n_tested += tested
        max_min_gap = max(max_min_gap, float(gaps[:tested].max()))
        if hits.size:
            witness = (label(hits[0]), *(float(g) for g in lam[hits[0]]))
            break

    return DiscriminationVerdict(
        family_description=family,
        n_candidates_tested=n_tested,
        found=witness is not None,
        witness=witness,
        max_min_gap=max_min_gap,
    )


def interference_analysis(
    c1: complex, a: tuple[complex, complex], scope: str = "MS"
) -> tuple[tuple[float, ...], float, float, float]:
    """Interference-term diagnostics on the premeasured chain.

    Builds the joint flip operator at phase ``c1`` over the chain factors of
    the scope ("MS" or "SD") and returns (eigenvalues, expectation_pure,
    expectation_mixed, k): the eigenvalue of each group of ``op.spectrum``,
    its expectation on the entangled pure state and on the matched branch
    mixture, and the overlap between the two outcome distributions.
    """
    if scope not in ("MS", "SD"):
        raise ValueError("scope must be 'MS' or 'SD'")
    pure, mixture = matched_pair(a, scope)
    op = interference_operator(pure.layout, c1)
    values = tuple(value for value, _, _ in op.spectrum)
    return values, expectation(pure, op), expectation(mixture, op), overlap(op, pure, mixture)


def interference_phase_scan(a: tuple[complex, complex], scope: str = "MS") -> tuple[float, float]:
    """Phase of the interference term minimizing the pure/mixed overlap.

    Scans c1 = exp(i phase) over a uniform grid of ``PHASE_GRID`` points
    with local refinement and returns (phase, minimal K).
    """
    if scope not in ("MS", "SD"):
        raise ValueError("scope must be 'MS' or 'SD'")
    pure, mixture = matched_pair(a, scope)
    n_factors = pure.layout.n_factors

    def k_values(phases: np.ndarray) -> np.ndarray:
        return _overlaps(interference_matrix(np.exp(1j * phases), n_factors), pure, mixture)

    phase, k_min = _scan_extremum(k_values, dim=pure.layout.total_dim)
    return float(phase % (2.0 * math.pi)), float(k_min)


def channel_information(a: tuple[complex, complex]) -> tuple[float, float, float, float]:
    """Overlap accounting across the measurement channel.

    Returns (k_sz_eigenstates, pre_channel_gamma, pre_channel_k_min,
    post_channel_k_min): the overlap of the two incoming basis states under
    the measured spin component (zero: one full bit), the phase and value of
    the minimal input-side overlap of the pure state against the matched
    mixture over the ``PHASE_GRID`` conjugate-spin sweep, and the minimal
    detector-side overlap over ``N_DIRECTIONS`` detector observables on the
    Fibonacci sphere after premeasurement, scored in one stacked call (one:
    nothing about purity arrives).
    """
    sz = Observable(SpaceLayout.of("S"), PAULI_Z / 2.0)
    k_sz = overlap(sz, prepare_system(1, 0), prepare_system(0, 1))

    pure, mixture = matched_pair(a, "S")
    gamma, pre_k = _scan_extremum(
        lambda gammas: _overlaps(conjugate_spin_matrix(gammas), pure, mixture), dim=2
    )

    pure_sd, mixed_sd = matched_pair(a, "SD")
    pure_d = partial_trace(pure_sd, [DETECTOR])
    mixed_d = partial_trace(mixed_sd, [DETECTOR])
    # d0 P_z + d1 P_x + d2 P_y for each direction (d0, d1, d2)
    directions = _sphere_rows(N_DIRECTIONS, 0, N_DIRECTIONS)
    matrices = np.einsum("nk,kab->nab", directions, _POINTER_BASIS)
    post_k = min(1.0, float(_overlaps(matrices, pure_d, mixed_d).min()))

    return k_sz, float(gamma % (2.0 * math.pi)), float(pre_k), post_k
