"""Circuit IR, parametric-layer template catalog, binding, and ideal simulation.

A circuit is an ordered gate list over ``n_qubits``.  Gate angles are either
literal floats or :class:`Param` references: the k-th parameterized gate in
op order takes ``Param(k)``, whose angle is theta[k], so each parameter is
the angle of exactly one gate.  Gates apply left to right: the earliest op
in the list acts first on the state, i.e. it is the rightmost factor of the
circuit unitary.

Templates are data: `TEMPLATES` maps each id (c1, c2, c6, c9, c12, c15) to
one layer, a tuple of (gate kind, placement) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qmath
from .gates import (ARITY, CONTROLLED, GENERATOR, PARAMETERIZED,
                    SIGNED_PERMUTATION, GateKind, gate_matrix)


@dataclass(frozen=True)
class Param:
    """The free parameter theta[slot], the angle of one gate."""

    slot: int


@dataclass(frozen=True)
class Op:
    kind: GateKind
    qubits: tuple
    angle: float | Param | None = None


class Circuit:
    """Immutable ordered gate list over n qubits with symbolic parameters;
    its `Param` slots are numbered 0, 1, ... in op order."""

    def __init__(self, n_qubits: int, ops=()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        self.n_qubits = int(n_qubits)
        self.ops = tuple(ops)
        self.n_params = 0
        for op in self.ops:
            if any(q < 0 or q >= n_qubits for q in op.qubits):
                raise ValueError(f"qubit index out of range in {op}")
            if len(op.qubits) != ARITY[op.kind]:
                raise ValueError(f"wrong qubit count for {op.kind}")
            if len(op.qubits) == 2 and op.qubits[0] == op.qubits[1]:
                raise ValueError(f"two-qubit op on identical qubits: {op}")
            if op.kind in PARAMETERIZED:
                if op.angle is None:
                    raise ValueError(f"{op.kind} needs an angle or slot")
                if isinstance(op.angle, Param):
                    if op.angle.slot != self.n_params:
                        raise ValueError(
                            f"{op} should take slot {self.n_params}: slots "
                            f"are numbered 0, 1, ... in op order, one per "
                            f"gate")
                    self.n_params += 1
            elif op.angle is not None:
                raise ValueError(f"{op.kind} takes no angle")

    @property
    def is_bound(self) -> bool:
        return self.n_params == 0

    @cached_property
    def steps(self) -> "StepList":
        """The compiled form, built on first use (the circuit is immutable)."""
        return StepList(self)

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return f"Circuit(n_qubits={self.n_qubits}, ops={len(self.ops)}, n_params={self.n_params})"


def bind(circuit: Circuit, values) -> Circuit:
    """Replace all parameter slots by literals; the input circuit is unchanged."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != circuit.n_params:
        raise ValueError(
            f"expected {circuit.n_params} parameter values, got {values.size}")
    ops = [Op(op.kind, op.qubits, float(values[op.angle.slot]))
           if isinstance(op.angle, Param) else op
           for op in circuit.ops]
    return Circuit(circuit.n_qubits, ops)


# ---------------------------------------------------------------------------
# Simulation.  States are tensors of shape (2,)*n + batch with qubit q on
# axis (n-1-q) so that qubit 0 is the least-significant index bit.

def apply_matrix(tensor, m, qubits, n):
    """Contract a 2^k x 2^k matrix into the axes of k of the n leading qubits."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    out = np.tensordot(m.reshape((2,) * (2 * k)), tensor,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; earliest gate is the rightmost matrix factor."""
    n = circuit.n_qubits
    dim = 2 ** n
    if dim > qmath.MAX_DIM:
        raise ValueError(f"a {n}-qubit unitary has dimension {dim}, above "
                         f"the dense limit qmath.MAX_DIM = {qmath.MAX_DIM}")
    # evolve all basis states at once: tensor of shape (2,)*n + (dim,) where
    # the trailing axis indexes the input basis state (matrix column).
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for op in circuit.ops:
        if isinstance(op.angle, Param):
            raise ValueError(f"circuit is not fully bound: {op}")
        u = apply_matrix(u, gate_matrix(op.kind, op.angle), op.qubits, n)
    return u.reshape(dim, dim)


# ---------------------------------------------------------------------------
# Compiled form: a step list that runs a parameterized circuit on a (dim, k)
# block of column states for any theta, and differentiates it exactly.

class _Rotation:
    """One parameterized gate exp(-i a/2 G) as a step on a (dim, k) block.

    G acts on the target bit as the signed permutation of
    `gates.SIGNED_PERMUTATION`, so G x = phase * x[perm] (perm is None for the
    diagonal RZ and CRZ).  For a controlled rotation the phase is zero on the
    rows whose control bit is 0, which the gate leaves alone.
    """

    real = False

    def __init__(self, op, dim):
        self.slot = op.angle.slot
        self.kind = op.kind
        self.qubit = op.qubits[-1]
        col, local_phase = SIGNED_PERMUTATION[op.kind]
        b = np.arange(dim)
        bit = (b >> self.qubit) & 1
        self.perm = None if col[0] == 0 else b ^ (1 << self.qubit)
        phase = local_phase[bit]
        self.mask = None
        if op.kind in CONTROLLED:
            self.mask = ((b >> op.qubits[0]) & 1).astype(float)[:, None]
            phase = phase * self.mask[:, 0]
        self.phase = phase[:, None]

    def generate(self, x):
        return self.phase * (x if self.perm is None else x[self.perm])

    def overlap_terms(self, lam, x):
        """(C, P, Q) with <lam, R(a) x> = C + cos(a/2) P - i sin(a/2) Q.

        C is the overlap on the rows a controlled rotation leaves alone (0
        for a plain one); P and Q are <lam, x> and <lam, G x> on the rest.
        """
        q = np.vdot(lam, self.generate(x))
        if self.mask is None:
            return 0.0, np.vdot(lam, x), q
        on = self.mask * x
        return np.vdot(lam, x - on), np.vdot(lam, on), q

    def terms(self, lam, x, e):
        e[self.slot] = -1j * complex(np.vdot(lam, self.generate(x)))

    def apply(self, x, theta, adjoint=False):
        a = theta[self.slot]
        c, s = math.cos(a / 2), math.sin(a / 2)
        diag = c if self.mask is None else 1.0 + (c - 1.0) * self.mask
        off = (1j if adjoint else -1j) * s * self.phase
        if self.perm is None:
            return (diag + off) * x
        out = x[self.perm]
        out *= off
        out += diag * x
        return out


class _Fused:
    """RY rotations on distinct qubits, which commute, as one real step: on
    a block at least as wide as it is tall, the Kronecker product of factors
    cos(a/2) I + sin(a/2) (-i Y) as one matmul (dim^2 k); on a narrower one,
    the members one by one (m dim k).  The reverse terms take one gather."""

    real = True

    def __init__(self, members, n):
        self.members = members
        self.slots = np.array([m.slot for m in members])
        # -i Y x = gen * x[perm], real, for every member from one gather
        self.gen = np.array([(-1j * m.phase).real for m in members])
        self.perm = np.array([m.perm for m in members])
        # member index of each qubit, qubit n-1 first (the Kronecker order)
        index = {m.qubit: j for j, m in enumerate(members)}
        self.layout = [index.get(q) for q in range(n - 1, -1, -1)]

    def matrix(self, theta, adjoint=False):
        """The step's dim x dim Kronecker product, or its adjoint."""
        h = theta[self.slots] / 2
        # [cos h, sin h] as cos(h - [0, pi/2]); the adjoint R(-a) has -sin h
        cs = np.cos(np.add.outer(h, _SHIFT[int(adjoint)]))
        f = (cs @ _RY_BASIS).reshape(-1, 2, 2)
        k, *rest = [_I2 if j is None else f[j] for j in self.layout]
        for g in rest:
            d = 2 * len(k)
            k = (k[:, None, :, None] * g[None, :, None, :]).reshape(d, d)
        return k

    def apply(self, x, theta, adjoint=False):
        if x.shape[1] >= x.shape[0]:
            return self.matrix(theta, adjoint) @ x
        for m in self.members[::-1] if adjoint else self.members:
            x = m.apply(x, theta, adjoint)
        return x

    def terms(self, lam, x, e):
        """e[slot] = <lam, -i Y x> per member, from one gather of x."""
        g = (x[self.perm] * self.gen).reshape(len(self.members), -1)
        e[self.slots] = g @ lam.conj().ravel()


_I2 = np.eye(2)
# rows I and -i Y, flattened: a factor is [cos(a/2), sin(a/2)] @ _RY_BASIS
_RY_BASIS = np.stack([_I2, (-1j * GENERATOR[GateKind.RY]).real]).reshape(2, 4)
_SHIFT = np.array([[0.0, -math.pi / 2], [0.0, math.pi / 2]])
# fused steps measured faster on square blocks up to 8 qubits (complex) and
# 9 (real); past that dim^2 k outgrows m dim k, and the terms hold m blocks
_FUSE_MAX_QUBITS = 8


class _Dense:
    """A run of literal gates as one matrix and its adjoint, by block dtype."""

    slot = None

    def __init__(self, circuit):
        m = unitary_of(circuit)
        self.real = not m.imag.any()
        self.m = {m.dtype: (m, m.conj().T.copy())}

    def apply(self, x, theta, adjoint=False):
        if self.real and x.dtype not in self.m:   # a real block, first time
            m = self.m[np.dtype(complex)][0].real
            self.m[x.dtype] = (m.copy(), m.T.copy())
        return self.m[x.dtype][adjoint] @ x

    def terms(self, lam, x, e):
        pass


class StepList:
    """A circuit as steps on (dim, k) blocks, column j one state: one
    `_Dense` per literal run, one `_Fused` per maximal run of RY rotations
    on distinct qubits (up to `_FUSE_MAX_QUBITS` qubits; one matmul on a
    block at least as wide as tall, member by member on a narrower one), and
    one `_Rotation` per other `Param` gate.  `real`: every step matrix is
    real, so a real wide block stays real (the evaluator's float64 path).

    `gradient` is the reverse sweep for exact derivatives (Jones & Gacon
    2020, arXiv:2009.02823).  For a real f(psi) of the output block, pass
    lam = df/dpsi^*; it returns e with e[slot] = <lam_k, -i G x_(k+1)> for
    the slot's rotation in step k, where lam_k = S_(k+1)^dag ... S_last^dag
    lam (the rotations of one step commute, so they share lam_k and
    x_(k+1)).  Then <lam, psi> has derivative e/2 in theta, and f has
    derivative Re(e).
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        units, literal = [], []
        for op in circuit.ops:
            if not isinstance(op.angle, Param):
                literal.append(op)
                continue
            if literal:
                units.append(_Dense(Circuit(n, literal)))
                literal = []
            units.append(_Rotation(op, 2 ** n))
        if literal:
            units.append(_Dense(Circuit(n, literal)))
        self.steps, run = [], []
        for unit in units + [None]:
            ry = getattr(unit, "kind", None) is _K.RY and n <= _FUSE_MAX_QUBITS
            if run and not (ry and all(m.qubit != unit.qubit for m in run)):
                self.steps.append(_Fused(run, n))
                run = []
            if ry:
                run.append(unit)
            elif unit is not None:
                self.steps.append(unit)
        self.real = all(step.real for step in self.steps)

    def run(self, x, theta, keep=False):
        """The block after all steps; with keep, the input and every block
        after a step, as a list that `gradient` takes."""
        blocks = [x]
        for step in self.steps:
            x = step.apply(x, theta)
            if keep:
                blocks.append(x)
        return blocks if keep else x

    def gradient(self, lam, blocks, theta):
        """The complex per-slot vector e, from one reverse sweep over the
        blocks of `run(x, theta, keep=True)`."""
        e = np.zeros(len(theta), complex)
        for k in range(len(self.steps) - 1, -1, -1):
            self.steps[k].terms(lam, blocks[k + 1], e)
            if k:
                lam = self.steps[k].apply(lam, theta, adjoint=True)
        return e


def z_expectations(states, n_qubits: int) -> np.ndarray:
    """Per-qubit <Z> for states of shape (..., 2^n); returns (..., n)."""
    states = np.asarray(states)
    batch = states.shape[:-1]
    probs = np.abs(states) ** 2
    probs = probs.reshape(batch + (2,) * n_qubits)
    out = np.empty(batch + (n_qubits,))
    for q in range(n_qubits):
        ax = len(batch) + (n_qubits - 1 - q)
        marg = probs.sum(axis=tuple(a for a in range(len(batch), probs.ndim)
                                    if a != ax))
        out[..., q] = marg[..., 0] - marg[..., 1]
    return out


# ---------------------------------------------------------------------------
# Template catalog ("cX")

def _place_all(n):
    return [(q,) for q in range(n)]


def _place_inner(n):
    return [(q,) for q in range(1, n - 1)]


def _place_chain(n):
    # descending chain: control above target
    return [(i, i - 1) for i in range(n - 1, 0, -1)]


def _place_ring(n):
    return [((i + 1) % n, i) for i in range(n - 1, -1, -1)]


def _place_pairs(n):
    return [(2 * i + 1, 2 * i) for i in range(n // 2)]


def _place_bridge(n):
    return [(2 * i + 2, 2 * i + 1) for i in range((n - 1) // 2)]


def _place_all_to_all(n):
    return [(c, t) for c in range(n - 1, -1, -1)
            for t in range(n - 1, -1, -1) if t != c]


_PLACEMENTS = {
    "all": _place_all,
    "inner": _place_inner,
    "chain": _place_chain,
    "ring": _place_ring,
    "pairs": _place_pairs,
    "bridge": _place_bridge,
    "all_to_all": _place_all_to_all,
}


_K = GateKind

# One layer of each template: (gate kind, placement) pairs, applied in order.
TEMPLATES = {
    "c1": ((_K.RX, "all"), (_K.RZ, "all")),
    "c2": ((_K.RX, "all"), (_K.RZ, "all"), (_K.CX, "chain")),
    "c6": ((_K.RX, "all"), (_K.RZ, "all"), (_K.CRX, "all_to_all"),
           (_K.RX, "all"), (_K.RZ, "all")),
    "c9": ((_K.H, "all"), (_K.CZ, "chain"), (_K.RX, "all")),
    "c12": ((_K.RY, "all"), (_K.RZ, "all"), (_K.CZ, "pairs"),
            (_K.RY, "inner"), (_K.RZ, "inner"), (_K.CZ, "bridge")),
    "c15": ((_K.RY, "all"), (_K.CX, "ring")),
}


def build_template(tid: str, n_qubits: int, layers: int) -> Circuit:
    """Build ``layers`` repetitions of a template's layer pattern."""
    if tid not in TEMPLATES:
        raise ValueError(f"unknown template {tid!r}; known: {sorted(TEMPLATES)}")
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    ops = []
    slot = 0
    for _ in range(layers):
        for kind, placement in TEMPLATES[tid]:
            for qubits in _PLACEMENTS[placement](n_qubits):
                if kind in PARAMETERIZED:
                    ops.append(Op(kind, qubits, Param(slot)))
                    slot += 1
                else:
                    ops.append(Op(kind, qubits))
    return Circuit(n_qubits, ops)
