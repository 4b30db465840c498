"""Gate vocabulary and matrices.

Two-qubit matrices follow the register convention of :mod:`qdistill.qmath`:
for a 4x4 gate matrix the control is index bit 1 and the target is index
bit 0, i.e. CX permutes |10> <-> |11>.

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

PARAMETERIZED = frozenset({
    GateKind.RX, GateKind.RY, GateKind.RZ,
    GateKind.CRX, GateKind.CRY, GateKind.CRZ,
})
CONTROLLED = frozenset({GateKind.CRX, GateKind.CRY, GateKind.CRZ})

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

_I2 = PAULI["I"]
_X = PAULI["X"]
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)


def _rx(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])


def gate_matrix(kind: GateKind, angle: float | None = None) -> np.ndarray:
    """Standard matrix of a gate; ``angle`` required iff parameterized."""
    if kind in PARAMETERIZED:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
    elif angle is not None:
        raise ValueError(f"{kind} takes no angle")
    if kind is GateKind.ID:
        return _I2.copy()
    if kind is GateKind.X:
        return _X.copy()
    if kind is GateKind.SX:
        return _SX.copy()
    if kind is GateKind.H:
        return _H.copy()
    if kind is GateKind.RX:
        return _rx(angle)
    if kind is GateKind.RY:
        return _ry(angle)
    if kind is GateKind.RZ:
        return _rz(angle)
    if kind is GateKind.CX:
        return np.kron(_P0, _I2) + np.kron(_P1, _X)
    if kind is GateKind.CZ:
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind is GateKind.CRX:
        return np.kron(_P0, _I2) + np.kron(_P1, _rx(angle))
    if kind is GateKind.CRY:
        return np.kron(_P0, _I2) + np.kron(_P1, _ry(angle))
    if kind is GateKind.CRZ:
        return np.kron(_P0, _I2) + np.kron(_P1, _rz(angle))
    raise ValueError(f"unknown gate kind {kind!r}")
