"""Gate vocabulary, matrices, basis sets, and decomposition rewrite rules.

Two-qubit matrices follow the register convention of :mod:`qdistill.qmath`:
for a 4x4 gate matrix the control is index bit 1 and the target is index
bit 0, i.e. CX permutes |10> <-> |11>.

Rewrite rules are registered per (source gate, basis set) with
`register_rule` and validated numerically at registration time: the composed
replacement must equal the source unitary up to global phase at 20 sampled
angles.  Each replacement angle is affine in the source angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qmath

PI = math.pi


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


@dataclass(frozen=True)
class RuleGate:
    """One gate of a replacement sequence.

    ``role`` is 'q' for a single-qubit source, 'c'/'t' (or the pair
    ('c','t')) for a two-qubit source.  For parameterized kinds the emitted
    angle is ``scale * source_angle + offset``.
    """

    kind: GateKind
    roles: tuple
    scale: float = 0.0
    offset: float = 0.0

    def angle_for(self, source_angle):
        if self.kind not in PARAMETERIZED:
            return None
        a = 0.0 if source_angle is None else source_angle
        return self.scale * a + self.offset


class BasisSet:
    def __init__(self, name: str, gates):
        self.name = name
        self.gates = frozenset(gates)

    def __contains__(self, kind: GateKind) -> bool:
        return kind in self.gates

    def __repr__(self):
        return f"BasisSet({self.name})"


BASIS_SETS: dict[str, BasisSet] = {}
_RULES: dict[tuple[GateKind, str], tuple[RuleGate, ...]] = {}


def register_basis(name: str, gates) -> BasisSet:
    basis = BasisSet(name, gates)
    BASIS_SETS[name] = basis
    return basis


def get_basis(name) -> BasisSet:
    if isinstance(name, BasisSet):
        return name
    try:
        return BASIS_SETS[str(name).upper()]
    except KeyError:
        raise ValueError(
            f"unknown basis {name!r}; registered: {sorted(BASIS_SETS)}") from None


def _embed_for_source(kind: GateKind, roles: tuple, m: np.ndarray) -> np.ndarray:
    """Embed a replacement gate into the source gate's (2 or 4 dim) space."""
    if roles == ("q",):
        return m
    if roles == ("t",):
        return np.kron(_I2, m)
    if roles == ("c",):
        return np.kron(m, _I2)
    if roles == ("c", "t"):
        return m
    if roles == ("t", "c"):
        # swap the two qubits of a 4x4 matrix
        perm = [0, 2, 1, 3]
        return m[np.ix_(perm, perm)]
    raise ValueError(f"bad roles {roles!r} for {kind}")


def _replacement_unitary(source: GateKind, replacement, angle) -> np.ndarray:
    dim = 2 ** ARITY[source]
    u = np.eye(dim, dtype=complex)
    for rg in replacement:
        m = gate_matrix(rg.kind, rg.angle_for(angle))
        u = _embed_for_source(source, rg.roles, m) @ u  # earliest gate acts first
    return u


def register_rule(source: GateKind, basis_name: str, replacement) -> None:
    replacement = tuple(replacement)
    rng = np.random.default_rng(20)
    angles = rng.uniform(-PI, PI, size=20) if source in PARAMETERIZED else [None]
    dim = 2 ** ARITY[source]
    for a in angles:
        want = gate_matrix(source, a)
        got = _replacement_unitary(source, replacement, a)
        overlap = abs(qmath.hs_trace_overlap(want, got))
        if overlap < dim - 1e-9:
            raise ValueError(
                f"rule {source}->{basis_name} fails unitary check at angle {a}: "
                f"|Tr| = {overlap:.3e} < {dim}")
    _RULES[(source, basis_name)] = replacement


def get_rule(kind: GateKind, basis_name: str):
    """Registered replacement sequence for (gate, basis), or None."""
    return _RULES.get((kind, basis_name))


# ---------------------------------------------------------------------------
# Shipped basis sets and rules

IBM = register_basis("IBM", {GateKind.ID, GateKind.RZ, GateKind.SX,
                             GateKind.X, GateKind.CX})
# The vendor never publishes the single-qubit natives in one place; {RX, RZ, CZ}
# is the conventional CZ-native set (see README).
RIGETTI = register_basis("RIGETTI", {GateKind.RX, GateKind.RZ, GateKind.CZ})

_K = GateKind


def _rg(kind, roles, scale=0.0, offset=0.0):
    return RuleGate(kind, roles if isinstance(roles, tuple) else (roles,), scale, offset)


def _register_default_rules():
    half = PI / 2
    # IBM: {ID, RZ, SX, X, CX}
    register_rule(_K.H, "IBM", [
        _rg(_K.RZ, "q", 0, half), _rg(_K.SX, "q"), _rg(_K.RZ, "q", 0, half)])
    register_rule(_K.RX, "IBM", [
        _rg(_K.RZ, "q", 0, half), _rg(_K.SX, "q"), _rg(_K.RZ, "q", 1, PI),
        _rg(_K.SX, "q"), _rg(_K.RZ, "q", 0, half)])
    register_rule(_K.RY, "IBM", [
        _rg(_K.SX, "q"), _rg(_K.RZ, "q", 1, PI), _rg(_K.SX, "q"),
        _rg(_K.RZ, "q", 0, PI)])
    register_rule(_K.CZ, "IBM", [
        _rg(_K.H, "t"), _rg(_K.CX, ("c", "t")), _rg(_K.H, "t")])
    register_rule(_K.CRZ, "IBM", [
        _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t"))])
    register_rule(_K.CRX, "IBM", [
        _rg(_K.H, "t"), _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t")), _rg(_K.H, "t")])
    register_rule(_K.CRY, "IBM", [
        _rg(_K.RX, "t", 0, half), _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t")), _rg(_K.RX, "t", 0, -half)])

    # RIGETTI: {RX, RZ, CZ}
    register_rule(_K.ID, "RIGETTI", [])
    register_rule(_K.X, "RIGETTI", [_rg(_K.RX, "q", 0, PI)])
    register_rule(_K.SX, "RIGETTI", [_rg(_K.RX, "q", 0, half)])
    register_rule(_K.H, "RIGETTI", [
        _rg(_K.RZ, "q", 0, half), _rg(_K.RX, "q", 0, half), _rg(_K.RZ, "q", 0, half)])
    register_rule(_K.RY, "RIGETTI", [
        _rg(_K.RZ, "q", 0, -half), _rg(_K.RX, "q", 1, 0), _rg(_K.RZ, "q", 0, half)])
    register_rule(_K.CX, "RIGETTI", [
        _rg(_K.H, "t"), _rg(_K.CZ, ("c", "t")), _rg(_K.H, "t")])
    register_rule(_K.CRZ, "RIGETTI", [
        _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t"))])
    register_rule(_K.CRX, "RIGETTI", [
        _rg(_K.H, "t"), _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t")), _rg(_K.H, "t")])
    register_rule(_K.CRY, "RIGETTI", [
        _rg(_K.RX, "t", 0, half), _rg(_K.RZ, "t", 0.5, 0), _rg(_K.CX, ("c", "t")),
        _rg(_K.RZ, "t", -0.5, 0), _rg(_K.CX, ("c", "t")), _rg(_K.RX, "t", 0, -half)])


_register_default_rules()
