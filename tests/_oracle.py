"""Per-candidate reference implementation of the no-go search and forcing check.

One validated ``Observable`` per candidate, embedded into the full layout and
tested with the scalar ``is_eigenstate``: the straightforward loop that the
batched engine in ``qmeas.discrimination`` must reproduce draw for draw.
"""

import numpy as np

from qmeas.discrimination import (
    DEGENERATE_AMPLITUDE,
    DISTINCTNESS_THRESHOLD,
    MIN_NOGO_SAMPLES,
    DiscriminationVerdict,
    ForcingCheck,
    fibonacci_sphere,
)
from qmeas.hilbert import (
    DEFAULT_EIGENSTATE_TOL,
    Observable,
    SpaceLayout,
    embed_operator,
    is_eigenstate,
)
from qmeas.model import DETECTOR, OBSERVER, PAULI_X, PAULI_Y, PAULI_Z, zoo


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
    return ForcingCheck(n_samples, max_residual, max_gap)


def nogo_search(layout_scope, states, sampling, tol=DEFAULT_EIGENSTATE_TOL,
                seed=0, forcing_samples=1000):
    if layout_scope not in ("O", "D", "MS"):
        raise ValueError("layout_scope must be one of 'O', 'D', 'MS'")
    if sampling.total < MIN_NOGO_SAMPLES:
        raise ValueError(f"no-go sampling needs at least {MIN_NOGO_SAMPLES} candidates")
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
            forcing=None,
        )

    rng = np.random.default_rng(seed)
    dim = psi.layout.total_dim

    def candidates():
        if layout_scope in ("O", "D"):
            label = OBSERVER if layout_scope == "O" else DETECTOR
            sub = SpaceLayout.of(label)
            for row in fibonacci_sphere(sampling.n_grid):
                op = Observable(sub, _pointer_algebra_matrix(row), name="A")
                yield embed_operator(op, [label], psi.layout), tuple(row)
            for _ in range(sampling.n_random):
                row = rng.normal(size=3)
                row /= np.linalg.norm(row)
                op = Observable(sub, _pointer_algebra_matrix(row), name="A")
                yield embed_operator(op, [label], psi.layout), tuple(row)
        else:
            structured = dict(zoo(psi.layout).members)
            structured["I"] = Observable(psi.layout, np.eye(dim), name="I")
            for name, op in structured.items():
                yield op, name
            for k in range(sampling.n_random):
                raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                yield Observable(psi.layout, (raw + raw.conj().T) / 2.0), f"random[{k}]"

    if layout_scope in ("O", "D"):
        factor = "observer" if layout_scope == "O" else "detector"
        family = (
            f"{factor} pointer algebra on the coefficient sphere "
            f"({sampling.n_grid} grid + {sampling.n_random} random points)"
        )
    else:
        family = (
            f"random Hermitian matrices of dim {dim} plus the structured "
            f"observable set ({sampling.n_random} random points)"
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

    forcing = forcing_check((psi, b1, b2), forcing_samples, seed=seed + 1, tol=tol)
    return DiscriminationVerdict(
        family_description=family,
        n_candidates_tested=n_tested,
        found=found,
        witness=witness,
        max_min_gap=max_min_gap,
        out_of_regime=False,
        forcing=forcing,
    )
