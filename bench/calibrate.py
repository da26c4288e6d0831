"""Fixed calibration work that uses numpy but no qmeas code.

The benchmark runs this script as a child once per round, next to each
repetition, and divides the round's times by its wall time.  The machine
this benchmark runs on is shared: its speed drifts by tens of percent over
minutes, and the drift slows this script as it slows qmeas.  The work
mirrors the workloads: interpreter start and numpy import, many calls on
tiny complex matrices, and one pass over a large integer array.
"""

import numpy as np

rng = np.random.default_rng(0)
m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
m = (m + m.conj().T) / 2.0
v = np.ones(8, dtype=np.complex128) / np.sqrt(8.0)
residual = 0.0
for i in range(3000):
    a = np.kron(np.eye(2), m[:4, :4]) + i * 1e-9
    a = (a + a.conj().T) / 2.0
    w, _ = np.linalg.eigh(a)
    residual += float(np.linalg.norm(a @ v - w[0] * v))
x = np.arange(2_000_000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
x ^= x >> np.uint64(31)
print(residual, int(x[-1]))
