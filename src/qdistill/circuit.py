"""Circuit IR, parametric-layer template registry, binding, and ideal simulation.

A circuit is an ordered gate list over ``n_qubits``.  Gate angles are either
literal floats or :class:`Param` references (affine in one parameter slot, so
one slot can drive several scaled or offset angles).  Gates apply left to
right: the earliest op in the list acts first on the state, i.e. it is the
rightmost factor of the circuit unitary.

Templates are data: a layer is a list of (gate kind, placement) pairs.  The
shipped catalog covers the layer architectures used throughout this package
(c1, c2, c6, c9, c12, c15); `register_template` adds more.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qmath
from .gates import (ARITY, CONTROLLED, GENERATOR, PARAMETERIZED, GateKind,
                    gate_matrix)


@dataclass(frozen=True)
class Param:
    """Affine reference to a free parameter slot: angle = scale*theta + offset."""

    slot: int
    scale: float = 1.0
    offset: float = 0.0

    def value(self, values) -> float:
        return self.scale * float(values[self.slot]) + self.offset


@dataclass(frozen=True)
class Op:
    kind: GateKind
    qubits: tuple
    angle: float | Param | None = None


class Circuit:
    """Immutable ordered gate list over n qubits with symbolic parameters."""

    def __init__(self, n_qubits: int, ops=()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        self.n_qubits = int(n_qubits)
        self.ops = tuple(ops)
        slots = set()
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
                    slots.add(op.angle.slot)
            elif op.angle is not None:
                raise ValueError(f"{op.kind} takes no angle")
        if slots and sorted(slots) != list(range(max(slots) + 1)):
            raise ValueError(f"parameter slots have gaps: {sorted(slots)}")
        self.n_params = (max(slots) + 1) if slots else 0

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
    ops = [Op(op.kind, op.qubits, op.angle.value(values))
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


def _op_matrix(op: Op) -> np.ndarray:
    angle = op.angle
    if isinstance(angle, Param):
        raise ValueError(f"circuit is not fully bound: {op}")
    return gate_matrix(op.kind, angle)


def apply_ops(ops, tensor, n_qubits):
    """Apply bound ops in order to a state tensor (trailing axes are batch)."""
    for op in ops:
        tensor = apply_matrix(tensor, _op_matrix(op), op.qubits, n_qubits)
    return tensor


def simulate(circuit: Circuit, state) -> np.ndarray:
    """Apply the circuit gate-by-gate to a state vector (O(gates * 2^n))."""
    state = qmath.as_state(state)
    n = circuit.n_qubits
    if state.size != 2 ** n:
        raise ValueError(f"state dim {state.size} != 2^{n}")
    tensor = state.reshape((2,) * n)
    tensor = apply_ops(circuit.ops, tensor, n)
    return tensor.reshape(-1)


def zero_state(n_qubits: int) -> np.ndarray:
    psi = np.zeros(2 ** n_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; earliest gate is the rightmost matrix factor."""
    n = circuit.n_qubits
    dim = 2 ** n
    # evolve all basis states at once: tensor of shape (2,)*n + (dim,) where
    # the trailing axis indexes the input basis state (matrix column).
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    return apply_ops(circuit.ops, u, n).reshape(dim, dim)


# ---------------------------------------------------------------------------
# Compiled form: a step list that runs a parameterized circuit on a (dim, k)
# block of column states for any theta, and differentiates it exactly.

class _Rotation:
    """One parameterized gate exp(-i a/2 G) as a step on a (dim, k) block.

    Every catalog generator is a signed permutation on the target bit, so
    G x = phase * x[perm] (perm is None for the diagonal RZ and CRZ).  For a
    controlled rotation the phase is zero on the rows whose control bit is 0,
    which the gate leaves alone.
    """

    def __init__(self, op, dim):
        self.param = op.angle
        g = GENERATOR[op.kind]
        col = np.argmax(np.abs(g), axis=1)    # local column of each row's entry
        b = np.arange(dim)
        bit = (b >> op.qubits[-1]) & 1
        self.perm = None if col[0] == 0 else b ^ (1 << op.qubits[-1])
        phase = g[bit, col[bit]]
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

    def apply(self, x, theta, adjoint=False):
        a = self.param.value(theta)
        c, s = math.cos(a / 2), math.sin(a / 2)
        diag = c if self.mask is None else 1.0 + (c - 1.0) * self.mask
        off = (1j if adjoint else -1j) * s * self.phase
        if self.perm is None:
            return (diag + off) * x
        out = x[self.perm]
        out *= off
        out += diag * x
        return out


class _Dense:
    """A run of literal gates, fused into one matrix."""

    param = None

    def __init__(self, circuit):
        self.m = unitary_of(circuit)
        self.m_dag = np.ascontiguousarray(self.m.conj().T)

    def apply(self, x, theta, adjoint=False):
        return (self.m_dag if adjoint else self.m) @ x


class StepList:
    """A circuit as steps: one `_Dense` per literal run, one `_Rotation` per
    `Param` gate.  Blocks are (dim, k): column j is one state.

    The reverse sweep gives exact derivatives (Jones & Gacon 2020,
    arXiv:2009.02823).  For a real f(psi) of the output block, pass
    lam = df/dpsi^*; the sweep yields c = <lam_k, G x_(k+1)> per rotation k,
    where lam_k = S_(k+1)^dag ... S_last^dag lam, and d psi/d a_k =
    -i/2 S_last ... S_(k+1) G x_(k+1) gives d f/d a_k = Re(-i c) = Im(c).
    Shared and scaled slots add p.scale times that into their slot.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        dim = 2 ** n
        self.steps = []
        literal = []
        for op in circuit.ops:
            if not isinstance(op.angle, Param):
                literal.append(op)
                continue
            if literal:
                self.steps.append(_Dense(Circuit(n, literal)))
                literal = []
            self.steps.append(_Rotation(op, dim))
        if literal:
            self.steps.append(_Dense(Circuit(n, literal)))

    def run(self, x, theta, keep=False):
        """The block after all steps; with keep, the input and every block
        after a step, as a list that `reverse` takes."""
        blocks = [x]
        for step in self.steps:
            x = step.apply(x, theta)
            if keep:
                blocks.append(x)
        return blocks if keep else x

    def reverse(self, lam, blocks, theta):
        """Yield (param, <lam_k, G x_(k+1)>) per rotation, last step first."""
        # zip stops before the input block, so each step meets its output
        for step, x in zip(reversed(self.steps), reversed(blocks)):
            if step.param is not None:
                yield step.param, np.vdot(lam, step.generate(x))
            lam = step.apply(lam, theta, adjoint=True)

    def pullbacks(self, lam, theta):
        """lam_k for every step k: lam pulled back through the steps after k."""
        lams = [lam]
        for step in reversed(self.steps[1:]):
            lams.append(step.apply(lams[-1], theta, adjoint=True))
        return lams[::-1]


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
# Template registry ("cX" catalog)

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


@dataclass(frozen=True)
class TemplateSpec:
    """Data-driven description of one parametric-layer architecture."""

    id: str
    pattern: tuple  # of (GateKind, placement-name)

    def expand_layer(self, n_qubits: int):
        """Yield (kind, qubits, parameterized) for one layer."""
        for kind, placement in self.pattern:
            for qubits in _PLACEMENTS[placement](n_qubits):
                yield kind, qubits, kind in PARAMETERIZED


TEMPLATES: dict[str, TemplateSpec] = {}


def register_template(tid: str, pattern) -> TemplateSpec:
    spec = TemplateSpec(tid, tuple(pattern))
    for _, placement in spec.pattern:
        if placement not in _PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
    TEMPLATES[tid] = spec
    return spec


def build_template(tid: str, n_qubits: int, layers: int) -> Circuit:
    """Build ``layers`` repetitions of a registered layer pattern."""
    if tid not in TEMPLATES:
        raise ValueError(f"unknown template {tid!r}; registered: {sorted(TEMPLATES)}")
    if n_qubits < 2:
        raise ValueError("n_qubits must be >= 2")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    spec = TEMPLATES[tid]
    ops = []
    slot = 0
    for _ in range(layers):
        for kind, qubits, parameterized in spec.expand_layer(n_qubits):
            if parameterized:
                ops.append(Op(kind, qubits, Param(slot)))
                slot += 1
            else:
                ops.append(Op(kind, qubits))
    return Circuit(n_qubits, ops)


_K = GateKind

register_template("c1", [(_K.RX, "all"), (_K.RZ, "all")])
register_template("c2", [(_K.RX, "all"), (_K.RZ, "all"), (_K.CX, "chain")])
register_template("c6", [(_K.RX, "all"), (_K.RZ, "all"), (_K.CRX, "all_to_all"),
                         (_K.RX, "all"), (_K.RZ, "all")])
register_template("c9", [(_K.H, "all"), (_K.CZ, "chain"), (_K.RX, "all")])
register_template("c12", [(_K.RY, "all"), (_K.RZ, "all"), (_K.CZ, "pairs"),
                          (_K.RY, "inner"), (_K.RZ, "inner"), (_K.CZ, "bridge")])
register_template("c15", [(_K.RY, "all"), (_K.CX, "ring")])


# ---------------------------------------------------------------------------
# Line-oriented circuit text: `qubits N`, then one op per line,
# `GATE q0[,q1] [angle|@slot[*scale][+offset]]`

_NUM = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_SLOT_TOKEN = re.compile(
    rf"@(?P<slot>\d+)(?:\*(?P<scale>{_NUM}))?(?:(?P<sign>[-+])(?P<offset>{_NUM}))?")


def _parse_angle_token(token: str):
    if token.startswith("@"):
        m = _SLOT_TOKEN.fullmatch(token)
        if not m:
            raise ValueError(f"bad parameter token {token!r}")
        offset = float(m.group("offset")) if m.group("offset") else 0.0
        if m.group("sign") == "-":
            offset = -offset
        return Param(int(m.group("slot")),
                     float(m.group("scale")) if m.group("scale") else 1.0,
                     offset)
    return float(token)


def from_text(text: str) -> Circuit:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("circuit text must start with 'qubits N'")
    n = int(lines[0].split()[1])
    ops = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = GateKind(parts[0])
        qubits = tuple(int(q) for q in parts[1].split(","))
        angle = _parse_angle_token(parts[2]) if len(parts) > 2 else None
        ops.append(Op(kind, qubits, angle))
    return Circuit(n, ops)
