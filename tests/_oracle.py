"""Per-candidate and per-point reference implementations.

The no-go search and forcing check build one validated ``Observable`` per
candidate, embedded into the full layout and tested with the scalar
``is_eigenstate`` below: the straightforward loop that the batched engine in
``qmeas.discrimination`` must reproduce draw for draw.  The package runs
every eigenstate test, ``qmeas.hilbert.is_eigenstate`` included, through the
stacked ``eigen_residuals``, so this scalar form (an ``np.vdot`` eigenvalue,
an ``np.linalg.norm`` residual) is its independent reference.

The phase scans (``optimal_phase``, ``interference_phase_scan``,
``channel_information``) evaluate the scalar ``purity_rate`` or ``k_value``
at every grid point and every sphere direction, then refine around the
first grid extremum: the loops the batched scans must reproduce.  The
package computes K in one place, the stacked ``_overlaps`` that ``overlap``
calls too, so ``k_value`` here is its independent reference.  These
scalar forms are written out here (``math.cos``/``math.sin``, one
``eigh`` and the grouping rule one eigenvalue at a time, ``np.vdot`` or
``np.trace`` weights, a left-to-right sum), so they share no code with the
stacked kernels they check.

``run_ensemble`` draws the uniforms of all events as one array from the
``stream_keys`` below and maps them to members with ``searchsorted``: the
whole-array sampler that the streamed block sampler in ``qmeas.ensembles``
must reproduce count for count, sharing none of its sampling code.
``stream_keys`` is the splitmix64 key expression written one array per
step, and ``uniforms`` the per-event uniforms; the package has no key or
uniform function of its own, only the integer test inside ``run_ensemble``.
"""

import math

import numpy as np

from qmeas.discrimination import (
    DEGENERATE_AMPLITUDE,
    DISTINCTNESS_THRESHOLD,
    INDETERMINATE_PURITY,
    MIN_NOGO_SAMPLES,
    N_DIRECTIONS,
    PHASE_GRID,
    DiscriminationVerdict,
    _sphere_rows,
)
from qmeas.ensembles import (
    FrequencyReport,
    Gemenge,
    collapse_gemenge,
    mixture_density,
)
from qmeas.hilbert import (
    DEFAULT_EIGENSTATE_TOL,
    EIG_GROUP_RTOL,
    Observable,
    SpaceLayout,
    StateVector,
    embed_operator,
    partial_trace,
)
from qmeas.model import (
    DETECTOR,
    OBSERVER,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    branch_state,
    interference_operator,
    measurement_chain_state,
    prepare_system,
    zoo,
)


def conjugate_spin_matrix(gamma):
    return (math.cos(gamma) * PAULI_X + math.sin(gamma) * PAULI_Y) / 2.0


def _born(state, matrix):
    if isinstance(state, StateVector):
        return float(np.vdot(state.amplitudes, matrix @ state.amplitudes).real)
    return float(np.trace(matrix @ state.matrix).real)


def purity_rate(rho_s, gamma):
    op = Observable(rho_s.layout, conjugate_spin_matrix(gamma))
    return 2.0 * abs(_born(rho_s, op.matrix))


def is_eigenstate(op, state, tol=DEFAULT_EIGENSTATE_TOL):
    lam = _born(state, op.matrix)
    residual = float(np.linalg.norm(op.matrix @ state.amplitudes - lam * state.amplitudes))
    return lam if residual <= tol else None


def k_value(op, state1, state2):
    values, vectors = np.linalg.eigh(op.matrix)
    listed = values.tolist()
    k = 0.0
    start = 0
    for stop in range(1, len(listed) + 1):
        last = listed[stop - 1]
        if stop < len(listed) and listed[stop] - last <= EIG_GROUP_RTOL * max(1.0, abs(last)):
            continue
        block = vectors[:, start:stop]
        projector = block @ block.conj().T
        k = k + min(max(_born(state1, projector), 0.0), max(_born(state2, projector), 0.0))
        start = stop
    return k


def _pointer_algebra_matrix(direction):
    d0, d1, d2 = direction
    return d0 * PAULI_Z + d1 * PAULI_X + d2 * PAULI_Y


def _eigen_triple(op, target, branches, tol):
    g0 = is_eigenstate(op, target, tol)
    if g0 is None:
        return None
    g1 = is_eigenstate(op, branches[0], tol)
    if g1 is None:
        return None
    g2 = is_eigenstate(op, branches[1], tol)
    if g2 is None:
        return None
    return g0, g1, g2


def forcing_check(states, n_samples=1000, seed=0, tol=DEFAULT_EIGENSTATE_TOL):
    psi, b1, b2 = states
    dim = psi.layout.total_dim
    a1 = complex(np.vdot(b1.amplitudes, psi.amplitudes))
    a2 = complex(np.vdot(b2.amplitudes, psi.amplitudes))
    p1 = np.outer(b1.amplitudes, b1.amplitudes.conj())
    p2 = np.outer(b2.amplitudes, b2.amplitudes.conj())
    complement = np.eye(dim) - p1 - p2
    rng = np.random.default_rng(seed)
    max_residual = 0.0
    max_gap = 0.0
    for k in range(n_samples):
        g1, g2 = rng.normal(size=2)
        if k % 2 == 0:
            g2 = g1
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        block = complement @ ((raw + raw.conj().T) / 2.0) @ complement
        matrix = g1 * p1 + g2 * p2 + block
        op = Observable(psi.layout, matrix)
        forced = a1 * g1 * b1.amplitudes + a2 * g2 * b2.amplitudes
        residual = float(np.linalg.norm(op.matrix @ psi.amplitudes - forced))
        max_residual = max(max_residual, residual)
        if is_eigenstate(op, psi, tol) is not None:
            max_gap = max(max_gap, abs(g1 - g2) * abs(a1) * abs(a2))
    return n_samples, max_residual, max_gap


def nogo_search(layout_scope, states, n_candidates, tol=DEFAULT_EIGENSTATE_TOL, seed=0):
    if layout_scope not in ("O", "D", "MS"):
        raise ValueError("layout_scope must be one of 'O', 'D', 'MS'")
    if n_candidates < MIN_NOGO_SAMPLES:
        raise ValueError(f"no-go sampling needs at least {MIN_NOGO_SAMPLES} candidates")
    # O and D: half grid points, then the rest random; MS: all random
    n_grid = 0 if layout_scope == "MS" else n_candidates // 2
    n_random = n_candidates - n_grid
    psi, b1, b2 = states
    a1 = complex(np.vdot(b1.amplitudes, psi.amplitudes))
    a2 = complex(np.vdot(b2.amplitudes, psi.amplitudes))
    if abs(a1 * a2) <= DEGENERATE_AMPLITUDE:
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

    def candidates():
        if layout_scope in ("O", "D"):
            label = OBSERVER if layout_scope == "O" else DETECTOR
            for row in _sphere_rows(n_grid, 0, n_grid):
                yield embed_operator(_pointer_algebra_matrix(row), [label], psi.layout), tuple(row)
            for _ in range(n_random):
                row = rng.normal(size=3)
                row /= np.linalg.norm(row)
                yield embed_operator(_pointer_algebra_matrix(row), [label], psi.layout), tuple(row)
        else:
            structured = dict(zoo(psi.layout))
            structured["I"] = Observable(psi.layout, np.eye(dim))
            for name, op in structured.items():
                yield op, name
            for k in range(n_random):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                yield Observable(psi.layout, (raw + raw.conj().T) / 2.0), f"random[{k}]"

    if layout_scope in ("O", "D"):
        factor = "observer" if layout_scope == "O" else "detector"
        family = (
            f"{factor} pointer algebra on the coefficient sphere "
            f"({n_grid} grid + {n_random} random points)"
        )
    else:
        family = (
            f"random Hermitian matrices of dim {dim} plus the structured "
            f"observable set ({n_random} random points)"
        )

    n_tested = 0
    found = False
    witness = None
    max_min_gap = 0.0
    for op, params in candidates():
        n_tested += 1
        triple = _eigen_triple(op, psi, (b1, b2), tol)
        if triple is None:
            continue
        g0, g1, g2 = triple
        gap = min(abs(g0 - g1), abs(g0 - g2))
        max_min_gap = max(max_min_gap, gap)
        if gap > DISTINCTNESS_THRESHOLD:
            found = True
            witness = (params, g0, g1, g2)
            break

    return DiscriminationVerdict(
        family_description=family,
        n_candidates_tested=n_tested,
        found=found,
        witness=witness,
        max_min_gap=max_min_gap,
        out_of_regime=False,
    )


def _refine_extremum(f, lo, hi, minimize, iters=80):
    for _ in range(iters):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        f1, f2 = f(m1), f(m2)
        better = f1 < f2 if minimize else f1 > f2
        if better:
            hi = m2
        else:
            lo = m1
    x = 0.5 * (lo + hi)
    return x, f(x)


def optimal_phase(rho_s):
    grid = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    values = [purity_rate(rho_s, g) for g in grid]
    best = int(np.argmax(values))
    step = 2.0 * math.pi / PHASE_GRID
    gamma, purity = _refine_extremum(
        lambda g: purity_rate(rho_s, g), grid[best] - step, grid[best] + step,
        minimize=False,
    )
    if purity <= INDETERMINATE_PURITY:
        return None, purity
    op = Observable(rho_s.layout, conjugate_spin_matrix(gamma))
    if _born(rho_s, op.matrix) < 0.0:
        gamma -= math.pi
    return float(gamma % (2.0 * math.pi)), purity


def _chain_pair(a, scope):
    a1, a2 = a
    pure = measurement_chain_state(a1, a2, include_observer=scope == "MS")
    layout = pure.layout
    mixture = mixture_density(
        Gemenge(
            (
                (branch_state(1, layout), abs(a1) ** 2),
                (branch_state(2, layout), abs(a2) ** 2),
            )
        )
    )
    return pure, mixture


def interference_phase_scan(a, scope="MS"):
    pure, mixture = _chain_pair(a, scope)
    factors = ("S", "D", "O") if scope == "MS" else ("S", "D")

    def k_of(phase):
        op = interference_operator(pure.layout, np.exp(1j * phase), factors=factors)
        return k_value(op, pure, mixture)

    grid = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    values = [k_of(p) for p in grid]
    best = int(np.argmin(values))
    step = 2.0 * math.pi / PHASE_GRID
    phase, k_min = _refine_extremum(
        k_of, grid[best] - step, grid[best] + step, minimize=True
    )
    return float(phase % (2.0 * math.pi)), float(k_min)


def channel_information(a):
    a1, a2 = a
    system_layout = SpaceLayout.of("S")
    sz = Observable(system_layout, PAULI_Z / 2.0)
    up = prepare_system(1, 0)
    down = prepare_system(0, 1)
    k_sz = k_value(sz, up, down)

    pure = prepare_system(a1, a2)
    mixture = mixture_density(
        Gemenge(((up, abs(a1) ** 2), (down, abs(a2) ** 2)))
    )

    def k_of_gamma(gamma):
        op = Observable(system_layout, conjugate_spin_matrix(gamma))
        return k_value(op, pure, mixture)

    grid = np.linspace(0.0, 2.0 * math.pi, PHASE_GRID, endpoint=False)
    values = [k_of_gamma(g) for g in grid]
    best = int(np.argmin(values))
    step = 2.0 * math.pi / PHASE_GRID
    gamma, pre_k = _refine_extremum(
        k_of_gamma, grid[best] - step, grid[best] + step, minimize=True
    )

    pure_sd, mixed_sd = _chain_pair((a1, a2), "SD")
    pure_d = partial_trace(pure_sd, [DETECTOR])
    mixed_d = partial_trace(mixed_sd, [DETECTOR])
    detector_layout = SpaceLayout.of(DETECTOR)
    post_k = 1.0
    for row in _sphere_rows(N_DIRECTIONS, 0, N_DIRECTIONS):
        op = Observable(detector_layout, _pointer_algebra_matrix(row))
        post_k = min(post_k, k_value(op, pure_d, mixed_d))

    return k_sz, float(gamma % (2.0 * math.pi)), float(pre_k), float(post_k)


def run_ensemble(a1, a2, n_events, seed=0):
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    gemenge = collapse_gemenge(a1, a2)
    cumulative = np.cumsum(gemenge.probabilities)
    members = np.searchsorted(cumulative, uniforms(seed, 0, n_events), side="right")
    n1 = int(np.count_nonzero(members == 0))
    n2 = n_events - n1
    p1, p2 = gemenge.probabilities
    return FrequencyReport(
        n_events=n_events,
        counts=(n1, n2),
        frequencies=(n1 / n_events, n2 / n_events),
        born_probabilities=(p1, p2),
        standard_errors=(
            math.sqrt(p1 * (1.0 - p1) / n_events),
            math.sqrt(p2 * (1.0 - p2) / n_events),
        ),
    )


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def stream_keys(seed, start, count):
    with np.errstate(over="ignore"):
        index = np.arange(start, start + count, dtype=np.uint64)
        z = np.uint64(seed % 2**64) + (index + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def uniforms(seed, start, count):
    """u_k = (z_k >> 11) 2^-53 of each event counter k in the window."""
    return (stream_keys(seed, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
