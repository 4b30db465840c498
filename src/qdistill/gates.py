"""Gate vocabulary and matrices.

`GENERATOR` is the one statement of what a rotation is: each parameterized
kind is exp(-i a G / 2) for a Pauli G, on the target of a controlled kind.
`gate_matrix` builds every rotation from it, `SIGNED_PERMUTATION` reads each
G as a signed permutation for the step list (`circuit`) and the batched
encoder (`encoding`), and the fixed gates are one constant table.

Matrices are complex128 and row-major.  Qubit 0 is the least-significant
bit of a state index, so a register's full operator is
``kron(op_{n-1}, ..., op_1, op_0)``; for a 4x4 gate matrix the control is
index bit 1 and the target is index bit 0, i.e. CX permutes |10> <-> |11>.

The basis sets and the rewrite rules into them live in
:mod:`qdistill.transpile`.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class GateKind(str, Enum):
    ID = "ID"
    X = "X"
    SX = "SX"
    H = "H"
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    CX = "CX"
    CZ = "CZ"
    CRX = "CRX"
    CRY = "CRY"
    CRZ = "CRZ"

    def __str__(self):
        return self.value


ARITY = {
    GateKind.ID: 1, GateKind.X: 1, GateKind.SX: 1, GateKind.H: 1,
    GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
    GateKind.CX: 2, GateKind.CZ: 2,
    GateKind.CRX: 2, GateKind.CRY: 2, GateKind.CRZ: 2,
}

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Pauli G of each rotation R(a) = exp(-i a G / 2); on the target qubit of the
# controlled kinds, whose generator is |1><1| (control) x G (target).
GENERATOR = {
    GateKind.RX: PAULI["X"], GateKind.RY: PAULI["Y"], GateKind.RZ: PAULI["Z"],
    GateKind.CRX: PAULI["X"], GateKind.CRY: PAULI["Y"], GateKind.CRZ: PAULI["Z"],
}
PARAMETERIZED = frozenset(GENERATOR)
CONTROLLED = frozenset({GateKind.CRX, GateKind.CRY, GateKind.CRZ})


def _signed_permutation(g):
    col = np.argmax(np.abs(g), axis=1)
    return col, g[np.arange(2), col]


# Every generator is a signed permutation: G v = phase * v[col], row by row.
SIGNED_PERMUTATION = {kind: _signed_permutation(g)
                      for kind, g in GENERATOR.items()}

_I2 = PAULI["I"]
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)


def _controlled(u):
    return np.kron(_P0, _I2) + np.kron(_P1, u)


_FIXED = {
    GateKind.ID: _I2,
    GateKind.X: PAULI["X"],
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    GateKind.CX: _controlled(PAULI["X"]),
    GateKind.CZ: _controlled(PAULI["Z"]),
}


def gate_matrix(kind: GateKind, angle: float | None = None) -> np.ndarray:
    """Standard matrix of a gate; ``angle`` required iff parameterized.

    A rotation is cos(a/2) I - i sin(a/2) G for its generator G; a controlled
    one is |0><0| x I + |1><1| x R(a).
    """
    if kind not in PARAMETERIZED:
        if angle is not None:
            raise ValueError(f"{kind} takes no angle")
        return _FIXED[kind].copy()
    if angle is None:
        raise ValueError(f"{kind} requires an angle")
    r = (math.cos(angle / 2) * _I2
         - 1j * math.sin(angle / 2) * GENERATOR[kind])
    return _controlled(r) if kind in CONTROLLED else r
