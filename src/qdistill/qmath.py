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

# Unitarity check tolerance; well above double-precision accumulation
# error for dim <= 64.
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
