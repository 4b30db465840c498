"""Dense complex linear algebra primitives shared by every other module.

All matrices are plain ``numpy.ndarray`` of dtype complex128, row-major.
Qubit 0 is the least-significant bit of the state index, so the full
operator for a register is ``kron(op_{n-1}, ..., op_1, op_0)``.
"""

from __future__ import annotations

import numpy as np

# Largest Hilbert-space dimension we will materialize densely (2^12).
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


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = as_matrix(m)
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol


def kron(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_DIM) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > max_dim:
        raise ValueError(f"kron result dimension {out_dim} exceeds limit {max_dim}")
    return np.kron(a, b)


def hs_trace_overlap(u: np.ndarray, v: np.ndarray) -> complex:
    """Tr(U†V), the Hilbert-Schmidt inner product of two unitaries."""
    u, v = as_matrix(u), as_matrix(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return complex(np.sum(u.conj() * v))


def as_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size < 1:
        raise ValueError("state vector must be non-empty")
    return psi
