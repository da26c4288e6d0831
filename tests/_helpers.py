"""Shared random-object builders for the test suite (seeded, reproducible)."""

import numpy as np

from qmeas.hilbert import DensityMatrix


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def pure_density(state):
    """|psi><psi| of a ``StateVector``, as a ``DensityMatrix`` on its layout."""
    return DensityMatrix(state.layout, np.outer(state.amplitudes, state.amplitudes.conj()))


def random_amplitude_pair(rng):
    """Normalized complex (a1, a2)."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return complex(v[0]), complex(v[1])
