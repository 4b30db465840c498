"""Density-matrix simulation under device noise profiles.

Each physical gate applies its ideal channel, then a depolarizing channel on
the touched qubits (p = err_1q or err_2q), then per-qubit thermal relaxation
for the gate duration: amplitude damping gamma = 1 - e^(-t/T1) composed with
phase damping lambda = 1 - e^(-t(1/T2 - 1/(2T1))).  Readout applies a
symmetric bit-flip, <Z>' = (1 - 2*meas_err) <Z>.  Expectations are computed
exactly from the density matrix; there is no shot sampling.

Circuits are lowered to the profile's basis before evaluation, so noise is
charged per physical gate, not per logical gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np

from .circuit import Circuit, Op, apply_matrix, bind
from .encoding import apply_scaler, encode
from .gates import PAULI, gate_matrix
from .qnn import softmax
from .transpile import lower

_CPTP_TOL = 1e-10


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    err_1q: float
    err_2q: float
    t1_us: float
    t2_us: float
    dur_1q_ns: float
    dur_2q_ns: float
    meas_err: float
    basis: str = "IBM"

    def __post_init__(self):
        for p in (self.err_1q, self.err_2q, self.meas_err):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if self.t2_us > 2.0 * self.t1_us:
            raise ValueError("unphysical profile: T2 must be <= 2*T1")
        if not (self.dur_1q_ns > 0 and self.dur_2q_ns > 0):
            raise ValueError("gate durations must be positive")
        # fail fast on an unphysical channel decomposition
        for ks in (depolarizing_kraus_1q(self.err_1q),
                   depolarizing_kraus_2q(self.err_2q),
                   self.relaxation_kraus(self.dur_1q_ns),
                   self.relaxation_kraus(self.dur_2q_ns)):
            assert_cptp(ks)

    def relaxation_gammas(self, duration_ns: float):
        """(gamma, lambda) amplitude/phase damping strengths for a duration."""
        t_us = duration_ns * 1e-3
        gamma = 1.0 - math.exp(-t_us / self.t1_us)
        rate = 1.0 / self.t2_us - 1.0 / (2.0 * self.t1_us)
        lam = 1.0 - math.exp(-t_us * rate)
        return gamma, lam

    def relaxation_kraus(self, duration_ns: float):
        gamma, lam = self.relaxation_gammas(duration_ns)
        return compose_kraus(phase_damping_kraus(lam),
                             amplitude_damping_kraus(gamma))

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceProfile":
        return cls(**d)

    def to_dict(self) -> dict:
        return {"name": self.name, "err_1q": self.err_1q,
                "err_2q": self.err_2q, "t1_us": self.t1_us,
                "t2_us": self.t2_us, "dur_1q_ns": self.dur_1q_ns,
                "dur_2q_ns": self.dur_2q_ns, "meas_err": self.meas_err,
                "basis": self.basis}


def load_profile(name_or_path) -> DeviceProfile:
    """Load a device profile by bundled name (melbourne, almaden) or path."""
    name = str(name_or_path)
    bundled = importlib_resources.files("qdistill.resources")
    ref = bundled.joinpath(f"{name.lower()}.json")
    try:
        exists = ref.is_file()
    except (TypeError, OSError):
        exists = False
    if "/" not in name and exists:
        with ref.open() as fh:
            return DeviceProfile.from_dict(json.load(fh))
    with open(name_or_path) as fh:
        return DeviceProfile.from_dict(json.load(fh))


def zero_noise_profile(basis: str = "IBM") -> DeviceProfile:
    return DeviceProfile("ideal", 0.0, 0.0, math.inf, math.inf, 1.0, 1.0,
                         0.0, basis=basis)


# ---------------------------------------------------------------------------
# Kraus sets

def depolarizing_kraus_1q(p: float):
    ks = [math.sqrt(1.0 - 3.0 * p / 4.0) * PAULI["I"]]
    ks += [math.sqrt(p / 4.0) * PAULI[s] for s in "XYZ"]
    return ks


def depolarizing_kraus_2q(p: float):
    ks = []
    for a in "IXYZ":
        for b in "IXYZ":
            weight = 1.0 - 15.0 * p / 16.0 if a == b == "I" else p / 16.0
            ks.append(math.sqrt(weight) * np.kron(PAULI[a], PAULI[b]))
    return ks


def amplitude_damping_kraus(gamma: float):
    return [np.array([[1, 0], [0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]


def phase_damping_kraus(lam: float):
    return [np.array([[1, 0], [0, math.sqrt(1.0 - lam)]], dtype=complex),
            np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)]


def compose_kraus(outer, inner):
    """Kraus set of channel outer∘inner, dropping identically-zero products."""
    out = []
    for a in outer:
        for b in inner:
            k = a @ b
            if np.any(k):
                out.append(k)
    return out


def assert_cptp(kraus, tol: float = _CPTP_TOL):
    dim = kraus[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus)
    if not np.allclose(total, np.eye(dim), atol=tol):
        raise ValueError("Kraus set is not trace preserving")


# ---------------------------------------------------------------------------
# Density-matrix mechanics

def zero_density(n_qubits: int) -> np.ndarray:
    dim = 2 ** n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def apply_kraus(rho: np.ndarray, kraus, qubits, n_qubits: int) -> np.ndarray:
    """rho' = sum_K K rho K^dag on the given qubits.

    rho is a 2n-qubit tensor: its ket (row) index holds qubit q at q + n, its
    bra (column) index at q, so K acts on the first and conj(K) on the second.
    """
    n = n_qubits
    shape = rho.shape
    t = rho.reshape((2,) * (2 * n))
    ket = [q + n for q in qubits]
    out = np.zeros_like(t)
    for k in kraus:
        term = apply_matrix(t, k, ket, 2 * n)
        out += apply_matrix(term, np.conj(k), qubits, 2 * n)
    return out.reshape(shape)


def apply_gate_noisy(rho: np.ndarray, op: Op, profile: DeviceProfile,
                     n_qubits: int) -> np.ndarray:
    """Ideal gate, then depolarizing, then thermal relaxation per qubit."""
    rho = apply_kraus(rho, [gate_matrix(op.kind, op.angle)], op.qubits,
                      n_qubits)
    if len(op.qubits) == 1:
        if profile.err_1q > 0:
            rho = apply_kraus(rho, depolarizing_kraus_1q(profile.err_1q),
                              op.qubits, n_qubits)
        duration = profile.dur_1q_ns
    else:
        if profile.err_2q > 0:
            rho = apply_kraus(rho, depolarizing_kraus_2q(profile.err_2q),
                              op.qubits, n_qubits)
        duration = profile.dur_2q_ns
    gamma, lam = profile.relaxation_gammas(duration)
    if gamma > 0 or lam > 0:
        relax = profile.relaxation_kraus(duration)
        for q in op.qubits:
            rho = apply_kraus(rho, relax, (q,), n_qubits)
    return rho


def run_noisy(circuit: Circuit, profile: DeviceProfile,
              rho: np.ndarray | None = None) -> np.ndarray:
    """Evolve a density matrix through a bound circuit under the profile."""
    if not circuit.is_bound:
        raise ValueError("circuit must be bound before noisy execution")
    n = circuit.n_qubits
    if rho is None:
        rho = zero_density(n)
    for op in circuit.ops:
        rho = apply_gate_noisy(rho, op, profile, n)
    return rho


def z_expectation(rho: np.ndarray, qubit: int) -> float:
    pops = np.real(np.diag(rho))
    signs = 1.0 - 2.0 * ((np.arange(pops.size) >> qubit) & 1)
    return float(np.dot(pops, signs))


def measure_z_noisy(rho: np.ndarray, qubit: int,
                    profile: DeviceProfile) -> float:
    return (1.0 - 2.0 * profile.meas_err) * z_expectation(rho, qubit)


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


# ---------------------------------------------------------------------------
# Model evaluation

def noisy_z_features(model, features_scaled, profile: DeviceProfile):
    """Readout-corrected per-qubit <Z> rows for pre-scaled feature rows."""
    from .gates import get_basis

    basis = get_basis(profile.basis)
    n = model.n_qubits
    bound_pqc = bind(model.pqc, model.theta)
    x = np.atleast_2d(np.asarray(features_scaled, float))
    rows = np.empty((x.shape[0], n))
    flip = 1.0 - 2.0 * profile.meas_err
    for i, row in enumerate(x):
        full = encode(row, model.scheme)
        circuit = Circuit(n, list(full.ops) + list(bound_pqc.ops))
        physical = lower(circuit, basis, merge_1q=True)
        rho = run_noisy(physical, profile)
        rows[i] = [flip * z_expectation(rho, q) for q in range(n)]
    return rows


def evaluate_noisy(model, features, labels, profile: DeviceProfile,
                   prescaled: bool = False) -> float:
    """Classification accuracy under the device profile."""
    if not prescaled and model.scaler is not None:
        features = apply_scaler(model.scaler, features)
    z = noisy_z_features(model, features, profile)
    probs = softmax(z @ model.W.T + model.b)
    pred = probs.argmax(axis=1)
    return float(np.mean(pred == np.asarray(labels, int).ravel()))
