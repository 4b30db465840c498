"""Classical-to-quantum feature embedding and feature scaling.

Angle encoding in two flavors: 1:1 (one feature per qubit, H then RZ) and
2:1 (two features per qubit, H then RZ then RY).  `EncodingScheme.rotations`
is the one statement of each qubit's gates after H, and one check admits the
features, which must be pre-scaled into [-pi, pi]; :class:`Scaler` provides
the min-max map fitted on training data.  Two functions read the list:
`encode` builds one row's circuit (for noisy evaluation) and `encode_states`
all rows' product states at once (for the ideal model).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Op
from .gates import SIGNED_PERMUTATION, GateKind

ONE_PER_QUBIT = "1:1"
TWO_PER_QUBIT = "2:1"


@dataclass(frozen=True)
class EncodingScheme:
    mode: str
    n_qubits: int

    def __post_init__(self):
        if self.mode not in (ONE_PER_QUBIT, TWO_PER_QUBIT):
            raise ValueError(f"unknown encoding mode {self.mode!r}")

    @property
    def rotations(self) -> tuple:
        """The rotation kinds every qubit takes after its H, in order: qubit
        q's j-th rotation reads feature column q * len(rotations) + j."""
        if self.mode == ONE_PER_QUBIT:
            return (GateKind.RZ,)
        return (GateKind.RZ, GateKind.RY)

    @property
    def capacity(self) -> int:
        return self.n_qubits * len(self.rotations)


_RANGE_TOL = 1e-9


def checked_rows(features, scheme: EncodingScheme) -> np.ndarray:
    """Pre-scaled features as (rows, capacity) floats, or a ValueError for
    the wrong width or any feature that is not finite and in [-pi, pi]."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if x.ndim != 2 or x.shape[1] != scheme.capacity:
        raise ValueError(
            f"expected {scheme.capacity} features for {scheme.mode} on "
            f"{scheme.n_qubits} qubits, got {x.shape[-1]}")
    # written so that NaN fails it too: every comparison with NaN is False
    if not np.all(np.abs(x) <= math.pi + _RANGE_TOL):
        raise ValueError("features must be finite and scaled into [-pi, pi]")
    return x


def encode(features, scheme: EncodingScheme) -> Circuit:
    """Deterministic encoder circuit for one pre-scaled feature vector."""
    row = checked_rows(np.ravel(features), scheme)[0]
    rotations = scheme.rotations
    ops = []
    for q in range(scheme.n_qubits):
        ops.append(Op(GateKind.H, (q,)))
        ops += [Op(kind, (q,), float(row[q * len(rotations) + j]))
                for j, kind in enumerate(rotations)]
    return Circuit(scheme.n_qubits, ops)


def encode_states(features, scheme: EncodingScheme) -> np.ndarray:
    """Vectorized encoder: (B, capacity) pre-scaled features -> (B, 2^n) states.

    Every qubit of every row starts in H|0>, a (B, n, 2) block, and the
    block takes each rotation as cos(a/2) v - i sin(a/2) G v, with
    G v = phase * v[..., col] read from `gates.SIGNED_PERMUTATION`.
    """
    x = checked_rows(features, scheme)
    bsz, n = x.shape[0], scheme.n_qubits
    half = (x / 2).reshape(bsz, n, len(scheme.rotations))
    v = np.full((bsz, n, 2), 1 / math.sqrt(2), dtype=complex)
    for j, kind in enumerate(scheme.rotations):
        col, phase = SIGNED_PERMUTATION[kind]
        a = half[:, :, j, None]
        v = np.cos(a) * v + (np.sin(a) * (-1j * phase)) * v[:, :, col]
    out = np.ones((bsz, 1), dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.einsum("bi,bj->bij", out, v[:, q]).reshape(bsz, -1)
    return out


@dataclass
class Scaler:
    """Per-feature min-max map onto [-pi, pi]; clamps outside the fit range."""

    mins: np.ndarray
    maxs: np.ndarray

    def to_dict(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(np.asarray(d["mins"], float), np.asarray(d["maxs"], float))


def fit_scaler(train_features) -> Scaler:
    x = np.asarray(train_features, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    constant = maxs - mins <= 0
    if np.any(constant):
        warnings.warn(
            f"constant feature column(s) {np.flatnonzero(constant).tolist()} "
            "map to 0", stacklevel=2)
    return Scaler(mins, maxs)


def apply_scaler(scaler: Scaler, features) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (x - scaler.mins) / safe * (2 * math.pi) - math.pi
    scaled = np.where(span > 0, scaled, 0.0)
    return np.clip(scaled, -math.pi, math.pi)
