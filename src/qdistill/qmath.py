"""Dense linear algebra primitives shared by every other module.

Matrices are row-major ``numpy.ndarray``, complex128 unless known real.
Qubit 0 is the least-significant bit of the state index, so the full
operator for a register is ``kron(op_{n-1}, ..., op_1, op_0)``.
"""

from __future__ import annotations

import numpy as np

# Largest Hilbert-space dimension materialized densely (2^12); checked by
# `circuit.unitary_of`.
MAX_DIM = 4096

# Unitarity check tolerance.  Bound random c2x6, c6x2 and c15x7 templates
# at n = 6, 8 and 10 gave max|U^dag U - I| <= 1.33e-15, so it needs no
# scaling with the dimension up to 2^10 (2^11 and 2^12 are unmeasured).
UNITARY_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    return m


def is_unitary(m: np.ndarray) -> bool:
    m = as_matrix(m)
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= UNITARY_TOL
