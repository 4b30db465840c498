"""Density-matrix simulation under device noise profiles.

Each physical gate applies its ideal channel, then a depolarizing channel on
the touched qubits (p = err_1q or err_2q), then per-qubit thermal relaxation
for the gate duration: amplitude damping gamma = 1 - e^(-t/T1) composed with
phase damping lambda = 1 - e^(-t(1/T2 - 1/(2T1))).  Readout applies a
symmetric bit-flip: per-qubit <Z_q> = (1 - 2*meas_err) Tr(Z_q rho), with
Z_q = diag(S[:, q]) from the sign table `circuit.z_signs`, exactly from the
density matrix (there is no shot sampling), and `qnn.head` scores it as in
the ideal model.

The three steps are fused into one superoperator per gate,
N @ (U (x) conj(U)).  N = sum_K K (x) conj(K) is built once per profile and
gate arity, from the Kraus sets that its CPTP check reads, and
``circuit.apply_matrix`` contracts the product into rho's ket and bra axes.
A trailing batch axis on rho evolves many density matrices at once.

RZ is charged like any other 1q gate: depolarizing and relaxation noise for
``dur_1q_ns``.  On IBM devices RZ is a virtual frame change and costs
nothing, so this model overcharges circuits with many RZ gates.

Circuits are lowered to the profile's basis before evaluation, so noise is
charged per physical gate, not per logical gate.  1q-run merging buffers each
qubit's 1q gates and flushes them at its next 2q gate, so a row's encoding
can only fuse into each qubit's leading physical PQC gates (``lead``); the
merged rest of the PQC (the tail) is the same for every row.  There is no
idle noise, so channels on disjoint qubits commute exactly, and
``noisy_z_features`` runs in three stages.  The PQC is lowered once, and
`transpile.merge_1q_rows`, the one 1q merge, lowers and merges every row's
1q-only encoding plus ``lead`` at once, qubit by qubit, into slots.  Each
1q gate's noise acts on its own qubit, so a prefix leaves a product state:
each qubit's 2x2 density evolves alone, slot by slot on the rows that have
the slot's gate, and the n densities are Kronecker-multiplied into a (rows,
dim, dim) stack.  The tail's channel E is the same for every row, so it runs
once in the Heisenberg picture: the n observables Z_q are pulled back
through it, gate by gate in reverse with each fused superoperator
conjugate-transposed, and <Z_q> = Tr(E^dag(Z_q) rho) for all rows at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np

from .circuit import Circuit, Op, apply_matrix, bind, z_signs
from .encoding import apply_scaler, checked_rows
from .gates import PAULI, GateKind, gate_matrix, gate_stack
from .qnn import head, hit_rate
from .transpile import BASES, lower, merge_1q_rows

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
        for name in ("t1_us", "t2_us"):   # inf (no relaxation) is allowed
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got "
                                 f"{getattr(self, name)}")
        if self.t2_us > 2.0 * self.t1_us:
            raise ValueError("unphysical profile: T2 must be <= 2*T1")
        if not (self.dur_1q_ns > 0 and self.dur_2q_ns > 0):
            raise ValueError("gate durations must be positive")
        if str(self.basis).upper() not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; "
                             f"known: {sorted(BASES)}")
        depol_1q = depolarizing_kraus_1q(self.err_1q)
        depol_2q = depolarizing_kraus_2q(self.err_2q)
        relax_1q = self.relaxation_kraus(self.dur_1q_ns)
        relax_2q = self.relaxation_kraus(self.dur_2q_ns)
        # fail fast on an unphysical channel decomposition
        for ks in (depol_1q, depol_2q, relax_1q, relax_2q):
            assert_cptp(ks)
        # {arity: depolarizing, then per-qubit relaxation} after a gate;
        # not a field, so it stays out of eq, repr, asdict and replace
        object.__setattr__(self, "gate_noise", {
            1: _superop(relax_1q) @ _superop(depol_1q),
            2: (_superop(_kron_pairs(relax_2q, relax_2q))
                @ _superop(depol_2q)),
        })

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
            return DeviceProfile(**json.load(fh))
    with open(name_or_path) as fh:
        return DeviceProfile(**json.load(fh))


def zero_noise_profile() -> DeviceProfile:
    return DeviceProfile("ideal", 0.0, 0.0, math.inf, math.inf, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Kraus sets

def depolarizing_kraus_1q(p: float):
    ks = [math.sqrt(1.0 - 3.0 * p / 4.0) * PAULI["I"]]
    ks += [math.sqrt(p / 4.0) * PAULI[s] for s in "XYZ"]
    return ks


def depolarizing_kraus_2q(p: float):
    weights = np.full(16, p / 16.0)
    weights[0] = 1.0 - 15.0 * p / 16.0
    paulis = [PAULI[s] for s in "IXYZ"]
    return list(np.sqrt(weights)[:, None, None] * _kron_pairs(paulis, paulis))


def amplitude_damping_kraus(gamma: float):
    return [np.array([[1, 0], [0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)]


def phase_damping_kraus(lam: float):
    return [np.array([[1, 0], [0, math.sqrt(1.0 - lam)]], dtype=complex),
            np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)]


def _kron_pairs(a, b) -> np.ndarray:
    """kron(x, y) for every x in a and y in b, stacked in that order."""
    a, b = np.asarray(a), np.asarray(b)
    return np.einsum("aij,bkl->abikjl", a, b).reshape(
        len(a) * len(b), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


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


def _superop(kraus) -> np.ndarray:
    """sum_K K (x) conj(K): the channel acting on a row-major vec(rho)."""
    k = np.asarray(kraus)
    d = k.shape[-1]
    return np.einsum("kij,kab->iajb", k, k.conj()).reshape(d * d, d * d)


def _apply_superop(rho: np.ndarray, superop: np.ndarray, qubits,
                   n_qubits: int) -> np.ndarray:
    """Apply a superoperator to rho, or a (dim, dim, b) batch, on the qubits.

    rho is a 2n-qubit tensor: its ket (row) index holds qubit q at q + n, its
    bra (column) index at q, so the superoperator acts on the ket axes
    followed by the bra axes.
    """
    n = n_qubits
    t = rho.reshape((2,) * (2 * n) + rho.shape[2:])
    ket = [q + n for q in qubits]
    return apply_matrix(t, superop, ket + list(qubits), 2 * n).reshape(
        rho.shape)


def apply_kraus(rho: np.ndarray, kraus, qubits, n_qubits: int) -> np.ndarray:
    """rho' = sum_K K rho K^dag on the given qubits."""
    return _apply_superop(rho, _superop(kraus), qubits, n_qubits)


def run_noisy(circuit: Circuit, profile: DeviceProfile,
              rho: np.ndarray | None = None) -> np.ndarray:
    """Evolve a density matrix, or a (dim, dim, b) batch, through a bound circuit.

    Each gate is one fused channel, noise @ (U (x) conj(U)) with the
    profile's ``gate_noise``, applied by one ``apply_matrix``.
    """
    if not circuit.is_bound:
        raise ValueError("circuit must be bound before noisy execution")
    n = circuit.n_qubits
    if rho is None:
        rho = zero_density(n)
    noise = profile.gate_noise
    for op in circuit.ops:
        u = gate_matrix(op.kind, op.angle)
        rho = _apply_superop(rho, noise[len(op.qubits)] @ _superop([u]),
                             op.qubits, n)
    return rho


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


# ---------------------------------------------------------------------------
# Model evaluation

def _split_entangled(ops):
    """(prefix, suffix): each qubit's 1q ops before its first 2q op; the rest."""
    entangled = set()
    prefix, suffix = [], []
    for op in ops:
        if len(op.qubits) == 1 and op.qubits[0] not in entangled:
            prefix.append(op)
        else:
            entangled.update(op.qubits)
            suffix.append(op)
    return prefix, suffix


def _lowered_rows(model, rows, basis):
    """(slots, shared): the rows' merged 1q prefixes as slots, and the PQC
    tail that every row shares.

    Every row's prefix on qubit q is one op list with row-dependent angles:
    H and the encoding's rotations (`EncodingScheme.rotations`) at the row's
    features, then ``lead``'s ops on q.  `transpile.merge_1q_rows` lowers
    and merges it for all rows at once, so row r's run on q is the ops on q
    of ``lower(Circuit(n, encode(row).ops + lead), basis, merge_1q=True)``.
    A slot is (kind, qubit, angles, present), `merge_1q_rows`' slot and its
    qubit; the slots come qubit by qubit."""
    n = model.n_qubits
    physical = lower(bind(model.pqc, model.theta), basis)
    lead, _ = _split_entangled(physical.ops)
    _, shared = _split_entangled(lower(physical, basis, merge_1q=True).ops)
    x = checked_rows(rows, model.scheme)
    kinds = model.scheme.rotations
    slots = []
    for q in range(n):
        ops = [Op(GateKind.H, (q,))]
        ops += [Op(kind, (q,), x[:, q * len(kinds) + j])
                for j, kind in enumerate(kinds)]
        ops += [op for op in lead if op.qubits == (q,)]
        slots += [(kind, q, angles, present) for kind, angles, present
                  in merge_1q_rows(ops, basis, len(x))]
    return slots, shared


def _batched_kron(a, b) -> np.ndarray:
    """kron(a[i], b[i]) for each i of two (k, ., .) stacks."""
    return np.einsum("kij,kab->kiajb", a, b).reshape(
        len(a), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def _prefix_densities(slots, count: int, n_qubits: int,
                      profile: DeviceProfile) -> np.ndarray:
    """The (count, dim, dim) stack of densities that each row's 1q-only
    prefix leaves from |0...0>, under the profile's noise, for the slots of
    `_lowered_rows`.

    A prefix keeps the register a product state, so each qubit's 2x2
    density (a row-major 4-vector) evolves alone: a slot applies
    gate_noise[1] @ (U (x) conj(U)) to its qubit's vectors on the rows it is
    present in.  The n densities are then Kronecker-multiplied, qubit n-1
    first.
    """
    n = n_qubits
    vec = np.zeros((n, count, 4), dtype=complex)
    vec[:, :, 0] = 1.0
    for kind, q, angles, present in slots:
        rows = np.flatnonzero(present)
        u = gate_stack(kind, None if angles is None else angles[rows],
                       len(rows))
        channel = profile.gate_noise[1] @ _batched_kron(u, u.conj())
        vec[q, rows] = (channel @ vec[q, rows][..., None])[..., 0]
    dens = vec.reshape(n, count, 2, 2)
    out = dens[n - 1]
    for q in range(n - 2, -1, -1):
        out = _batched_kron(out, dens[q])
    return out


def _pulled_back_z(circuit: Circuit, profile: DeviceProfile) -> np.ndarray:
    """The (dim, dim, n) batch of observables E^dag(Z_q), one per qubit q,
    for the noisy channel E of a bound circuit: Tr(E^dag(Z_q) rho) is the
    <Z_q> of `run_noisy` from rho, before the readout flip.

    A gate's fused channel S acts on a row-major vec(rho), so its adjoint
    acts on vec(O) as S^dag; the gates run in reverse order, each through
    the same ``apply_matrix`` kernel as `run_noisy`.
    """
    n = circuit.n_qubits
    dim = 2 ** n
    obs = np.zeros((dim, dim, n), dtype=complex)
    obs[np.arange(dim), np.arange(dim)] = z_signs(n)
    noise = profile.gate_noise
    for op in reversed(circuit.ops):
        u = gate_matrix(op.kind, op.angle)
        channel = noise[len(op.qubits)] @ _superop([u])
        obs = _apply_superop(obs, channel.conj().T, op.qubits, n)
    return obs


def noisy_z_features(model, features_scaled, profile: DeviceProfile):
    """Readout-corrected per-qubit <Z> rows for pre-scaled feature rows."""
    n = model.n_qubits
    x = np.atleast_2d(np.asarray(features_scaled, float))
    slots, shared = _lowered_rows(model, x, profile.basis)
    rho = _prefix_densities(slots, len(x), n, profile)
    obs = _pulled_back_z(Circuit(n, shared), profile)
    return (1.0 - 2.0 * profile.meas_err) * np.real(
        np.einsum("rji,ijq->rq", rho, obs))


def evaluate_noisy(model, features, labels, profile: DeviceProfile) -> float:
    """Classification accuracy under the device profile; features are raw
    (the model's scaler applies)."""
    if model.scaler is not None:
        features = apply_scaler(model.scaler, features)
    z = noisy_z_features(model, features, profile)
    return hit_rate(head(model, z), labels)
