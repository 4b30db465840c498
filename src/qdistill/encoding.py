"""Classical-to-quantum feature embedding and feature scaling.

Angle encoding in two flavors: 1:1 (one feature per qubit, H then RZ) and
2:1 (two features per qubit, H then RZ then a second rotation on a
non-commuting axis, RY by default).  Features must be pre-scaled into
[-pi, pi]; :class:`Scaler` provides the min-max map fitted on training data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Op
from .gates import GateKind

ONE_PER_QUBIT = "1:1"
TWO_PER_QUBIT = "2:1"


@dataclass(frozen=True)
class EncodingScheme:
    mode: str
    n_qubits: int
    second_axis: GateKind = GateKind.RY  # 2:1 only; must not commute with RZ

    def __post_init__(self):
        if self.mode not in (ONE_PER_QUBIT, TWO_PER_QUBIT):
            raise ValueError(f"unknown encoding mode {self.mode!r}")
        if self.second_axis not in (GateKind.RX, GateKind.RY):
            raise ValueError("second rotation axis must be RX or RY")

    @property
    def capacity(self) -> int:
        return self.n_qubits if self.mode == ONE_PER_QUBIT else 2 * self.n_qubits


_RANGE_TOL = 1e-9


def encode(features, scheme: EncodingScheme) -> Circuit:
    """Deterministic encoder circuit for one pre-scaled feature vector."""
    features = np.asarray(features, dtype=float).ravel()
    if features.size != scheme.capacity:
        raise ValueError(
            f"expected {scheme.capacity} features for {scheme.mode} on "
            f"{scheme.n_qubits} qubits, got {features.size}")
    if np.any(np.abs(features) > math.pi + _RANGE_TOL):
        raise ValueError("features must be scaled into [-pi, pi]")
    ops = []
    for q in range(scheme.n_qubits):
        ops.append(Op(GateKind.H, (q,)))
        if scheme.mode == ONE_PER_QUBIT:
            ops.append(Op(GateKind.RZ, (q,), float(features[q])))
        else:
            ops.append(Op(GateKind.RZ, (q,), float(features[2 * q])))
            ops.append(Op(scheme.second_axis, (q,), float(features[2 * q + 1])))
    return Circuit(scheme.n_qubits, ops)


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
