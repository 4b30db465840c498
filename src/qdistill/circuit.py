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
from typing import NamedTuple

import numpy as np

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


# Largest Hilbert-space dimension `unitary_of` materializes densely (2^12).
MAX_DIM = 4096


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary; earliest gate is the rightmost matrix factor."""
    n = circuit.n_qubits
    dim = 2 ** n
    if dim > MAX_DIM:
        raise ValueError(f"a {n}-qubit unitary has dimension {dim}, above "
                         f"the dense limit circuit.MAX_DIM = {MAX_DIM}")
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
    """One parameterized gate exp(-i a/2 G) as a step on a (dim, k) block,
    or on a (C, dim, dim) stack of chains with theta (C, P).

    G acts on the target bit as the signed permutation of
    `gates.SIGNED_PERMUTATION`, so G x = phase * x[perm] (perm is None for the
    diagonal RZ and CRZ).  For a controlled rotation the phase is zero on the
    rows whose control bit is 0, which the gate leaves alone.  A chain's
    cos(a/2) and sin(a/2) come from `math`, as for one theta, so each chain
    of a stack is the same bits as its own run.  `apply(..., adjoint=True)`
    undoes the step, in the reverse sweep as in rotation-solve.
    """

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
        return self.phase * (x if self.perm is None
                             else np.take(x, self.perm, axis=-2))

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

    def term(self, lam, x, e):
        """e[slot] = <lam, -i G x> for the output block x, per chain."""
        g = self.generate(x)
        if e.ndim == 1:
            e[self.slot] = -1j * complex(np.vdot(lam, g))
        else:
            for c in range(len(e)):
                e[c, self.slot] = -1j * complex(np.vdot(lam[c], g[c]))

    def apply(self, x, theta, adjoint=False):
        unit = 1j if adjoint else -1j
        if theta.ndim == 1:
            h = theta[self.slot] / 2
            c, w = math.cos(h), unit * math.sin(h)
        else:
            h = theta[:, self.slot] / 2
            c = np.array([math.cos(v) for v in h])[:, None, None]
            w = np.array([unit * math.sin(v) for v in h])[:, None, None]
        diag = c if self.mask is None else 1.0 + (c - 1.0) * self.mask
        off = w * self.phase
        if self.perm is None:
            return (diag + off) * x
        out = np.take(x, self.perm, axis=-2)
        out *= off
        out += diag * x
        return out


class _Fused:
    """RY rotations on distinct qubits, which commute, as one real step K,
    followed by the 0/1 permutation D of a literal run folded into it (c15's
    CX ring), so that the step is D K.  `fold` holds D's rows, D x =
    x[fold] (None without a fold).  `StepList` builds every fused step's
    matrix D K in one gather, so on any (dim, k) block the step is one
    matmul (D K) @ x and its reverse terms come from `StepList.gradient`'s
    environment product."""

    def __init__(self, members, n):
        self.members = members
        self.fold = None
        self.index = None    # its place on the stacked matrices' step axis
        # -i Y x = gen * x[perm], real, for every member from one gather
        self.gen = np.array([(-1j * m.phase).real for m in members])
        self.perm = np.array([m.perm for m in members])
        # member index of each qubit, qubit n-1 first (the Kronecker order)
        index = {m.qubit: j for j, m in enumerate(members)}
        self.layout = [index.get(q) for q in range(n - 1, -1, -1)]

    def fold_in(self, rows):
        """Fold in the permutation D x = x[rows] that directly follows the
        members."""
        self.fold = rows
        # the terms read K x from the block y after D: K x = y[argsort(rows)]
        self.perm = np.argsort(rows)[self.perm]


# A factor of RY(2h) is cos h I + sin h (-i Y): cos h and sin h are cos(h +
# _SHIFTS), and the rows of _FACTORS map them to the factor, flattened
_SHIFTS = np.array([0.0, -math.pi / 2])
_I2 = np.eye(2).ravel()
_I2_ROW = _I2[None]
_FACTORS = np.stack([_I2, (-1j * GENERATOR[GateKind.RY]).real.ravel()])
# a fused step costs its stacked build and a dim^2 k matmul on any (dim, k)
# block, against m dim k for its m rotations one by one: with the build, its
# run and gradient measured faster than unfused rotations up to 6 qubits at
# k = 1, 8 and dim, and 2.5-7x slower at k = 1 at 7 and 8 qubits.  The
# build's gather table holds n 4^n int64 indices per fused step, C times
# that in a cached chain table: 8 KiB at n = 4, 40 KiB at n = 5 and 192 KiB
# at n = 6.  A call gathers n dim x dim float64 factor blocks per fused step
# and multiplies them down to its matrix, so for L fused steps it holds (n
# + 1) L dim x dim matrices at its peak, 224 KiB per c15 layer at 6 qubits,
# and a gradient call then holds the matrices and L dim x dim environments
# (complex ones for a complex block), 64 or 96 KiB per c15 layer.
_FUSE_MAX_QUBITS = 6


def _permutation_rows(dense):
    """The rows of a literal run whose matrix is a 0/1 permutation, D x =
    x[rows], or None if it is not one."""
    m = dense.m[0]
    rows = np.argmax(m.real, axis=1)
    return rows if np.array_equal(m, np.eye(len(m))[rows]) else None


class _Dense:
    """A run of literal gates as one complex matrix and its adjoint."""

    slot = None

    def __init__(self, circuit):
        m = unitary_of(circuit)
        self.m = (m, m.conj().T.copy())

    def apply(self, x, theta, adjoint=False):
        return self.m[adjoint] @ x


def _gather_table(layout, rows):
    """Indices into the flattened (factor, entry) array f of
    `StepList._matrices` for the fused steps whose factor rows are `layout`
    (steps, n), qubit n-1 first, and whose permutations D have rows `rows`
    (steps, 2^n).  Along axes (qubit, step, r, c), for entry (r, c) of the
    step's matrix D K, it picks that qubit's factor entry 2 bit(rows[r]) +
    bit(c): row r of D K is row rows[r] of K."""
    n = layout.shape[1]
    shift = np.arange(n - 1, -1, -1)[:, None, None, None]
    cols = (np.arange(2 ** n) >> shift) & 1               # (n, 1, 1, c)
    r = (rows[..., None] >> shift) & 1                    # (n, s, r, 1)
    return layout.T[..., None, None] * 4 + 2 * r + cols


class Tape(NamedTuple):
    """What `StepList.run(keep=True)` keeps for `StepList.gradient`: the
    input block (None for the identity) and the block after every step, and
    the fused steps' stacked adjoint matrices (D K)^T (None if there is no
    fused step).  For a chain stack, theta (C, P), each block after the
    first step is (C, dim, dim) and the adjoints are (steps, C, dim, dim)."""

    blocks: list
    adjoints: np.ndarray | None


class StepList:
    """A circuit as steps on (dim, k) blocks, column j one state: one
    `_Fused` per maximal run of RY rotations on distinct qubits (up to
    `_FUSE_MAX_QUBITS` qubits), with a literal run that is a 0/1
    permutation and directly follows it folded in; one `_Dense` per other
    literal run; and one `_Rotation` per other `Param` gate.  `units` is
    the circuit before fusing: one `_Rotation` per `Param` gate and one
    `_Dense` per literal run, in op order, each with `apply(x, theta,
    adjoint)` (rotation-solve walks them).  `real`: every step is fused, so
    every step matrix is real and a real block stays real (the evaluator's
    float64 path).  Any other real block is made complex before the first
    step, so it runs as the complex block of the same values.

    On a (dim, k) block of any width k, `run` builds every fused step's
    matrix D K in one vectorized pass from one cos call and one gather
    (`_gather_table`), and each fused step is one matmul; with keep the
    `Tape` holds their transposes as the adjoints.  From the identity (x
    None) the leading fused step of a real list takes its matrix as its
    block.  The gather's index table takes n 4^n int64 entries per fused
    step, 192 KiB at 6 qubits, and the reverse terms' tables 16 dim bytes
    per member, 6 KiB per c15 layer at 6 qubits.  The build holds (n + 1) L
    dim x dim matrices for L fused steps, 224 KiB per c15 layer at 6
    qubits.  The kept matrices travel only in the returned `Tape`: no step
    keeps state for a theta.

    From the identity, theta may be a (C, P) stack of chains: every step
    then runs on a (C, dim, dim) stack, the build's gather reads one (C,
    factors, 4) array through per-chain offsets (tables cached per C), the
    fused steps are stacked matmuls and a rotation takes each chain's angle
    through `math`, so chain c is the same bits as the call with theta[c].
    A given block (state prep, `qnn` batches) takes one theta.

    `gradient` is the reverse sweep for exact derivatives (Jones & Gacon
    2020, arXiv:2009.02823).  For a real f(psi) of the output block, pass
    lam = df/dpsi^*; it returns e with e[slot] = <lam_k, -i G x_(k+1)> for
    the slot's rotation in step k, where lam_k = S_(k+1)^dag ... S_last^dag
    lam and x_(k+1) is the block after the step's rotations (the rotations
    of one step commute, so they share lam_k and x_(k+1)).  Then <lam, psi>
    has derivative e/2 in theta, and f has derivative Re(e).  Each unfused
    step, a rotation or a literal run, is undone by its own `apply(...,
    adjoint=True)`, the call rotation-solve makes, and a rotation's term is
    one vdot per chain (`_Rotation.term`).  A fused step D K costs one
    environment product and one adjoint matmul: with M =
    conj(lam) y^T for lam and the block y after D, member j's term is sum_r
    sigma_j(r) M[r, pi_j(r)], where (pi_j, sigma_j) is the signed
    permutation D G_j D^T, and one gather over the stacked M's takes every
    such term after the sweep.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        self.dim = dim = 2 ** n
        self.units, literal = [], []
        for op in circuit.ops:
            if not isinstance(op.angle, Param):
                literal.append(op)
                continue
            if literal:
                self.units.append(_Dense(Circuit(n, literal)))
                literal = []
            self.units.append(_Rotation(op, dim))
        if literal:
            self.units.append(_Dense(Circuit(n, literal)))
        self.steps, run = [], []
        for unit in self.units + [None]:
            ry = getattr(unit, "kind", None) is _K.RY and n <= _FUSE_MAX_QUBITS
            if run and not (ry and all(m.qubit != unit.qubit for m in run)):
                self.steps.append(_Fused(run, n))
                run = []
            if ry:
                run.append(unit)
            elif unit is not None:
                last = self.steps[-1] if self.steps else None
                rows = _permutation_rows(unit) if isinstance(unit, _Dense) \
                    and isinstance(last, _Fused) else None
                if rows is None:
                    self.steps.append(unit)
                else:
                    last.fold_in(rows)
        self.real = all(isinstance(step, _Fused) for step in self.steps)
        # index tables of the stacked build: each fused step's slots, its
        # factor per qubit (the identity's row where it has no member), and
        # the rows its permutation gathers
        fused = [s for s in self.steps if isinstance(s, _Fused)]
        for i, step in enumerate(fused):
            step.index = i
        self._slots = np.array([m.slot for s in fused for m in s.members],
                               dtype=int)
        starts = np.cumsum([0] + [len(s.members) for s in fused])
        self._layout = np.array(
            [[len(self._slots) if j is None else start + j for j in s.layout]
             for s, start in zip(fused, starts)], dtype=int).reshape(-1, n)
        rows = np.array([np.arange(dim) if s.fold is None else s.fold
                         for s in fused], dtype=int).reshape(-1, dim)
        self._gather = _gather_table(self._layout, rows)
        # the reverse terms' tables, in slot order: member j of the fused
        # step at index i reads M_i[r, pi_j(r)] with sign sigma_j(r), where
        # pi_j = perm_j[rows] (perm_j reads K x after D) and sigma_j =
        # gen_j[rows], as flat indices into the stacked environments
        r = np.arange(dim)
        self._terms = np.array(
            [s.index * dim * dim + r * dim + perm[rows[s.index]]
             for s in fused for perm in s.perm], dtype=int).reshape(-1, dim)
        self._signs = np.array(
            [gen[rows[s.index], 0] for s in fused for gen in s.gen],
            dtype=float).reshape(-1, dim)
        self._chain_tables = {}

    def _tables(self, theta):
        """(gather, terms, identity row) for theta (P,) or a (C, P) stack.
        The stack's gather table, (n, C, steps, r, c), adds chain c's offset
        into the (C, factors, 4) factor array; its terms table, (C, members,
        dim), reads the (steps, C, dim, dim) environments; its identity
        factor is (C, 1, 4).  Built once per C."""
        if theta.ndim == 1:
            return self._gather, self._terms, _I2_ROW
        chains = len(theta)
        if chains not in self._chain_tables:
            c = np.arange(chains)
            square = self.dim * self.dim
            step, entry = np.divmod(self._terms, square)
            self._chain_tables[chains] = (
                self._gather[:, None]
                + (4 * (len(self._slots) + 1) * c)[:, None, None, None],
                (step * chains + c[:, None, None]) * square + entry,
                np.tile(_I2_ROW, (chains, 1, 1)))
        return self._chain_tables[chains]

    def _matrices(self, theta, keep):
        """Every fused step's dim x dim matrix D K, a stack on a leading
        step axis (then the chain axis of a (C, P) theta), and with keep its
        transpose (D K)^T, the adjoint (None without keep).  One gather
        (`_gather_table`) picks every qubit's factor entry, D's rows
        included, and the product runs over the qubits, qubit n-1 first:
        the order of a Kronecker chain over one step's factors, so each
        matrix is the same bits."""
        gather, _, identity = self._tables(theta)
        h = theta[..., self._slots] / 2
        cs = np.cos(np.add.outer(h, _SHIFTS))
        f = np.concatenate([cs @ _FACTORS, identity], axis=-2)
        k = np.multiply.reduce(f.ravel()[gather])
        if theta.ndim == 2:
            k = k.swapaxes(0, 1)
        return k, (k.swapaxes(-1, -2) if keep else None)

    def run(self, x, theta, keep=False):
        """The block after all steps, from the (dim, k) block x or, for x
        None, from the identity, where theta may be a (C, P) stack and the
        result is (C, dim, dim); with keep, a `Tape` that `gradient`
        takes."""
        fused = len(self._layout) > 0
        forward, adjoints = self._matrices(theta, keep) if fused \
            else (None, None)
        if x is None:
            # a real list's leading fused step turns the identity into its
            # matrix; a rotation needs a complex block
            if not (fused and self.real and isinstance(self.steps[0], _Fused)):
                x = np.eye(self.dim, dtype=float if self.real else complex)
                if theta.ndim == 2:
                    x = np.broadcast_to(x, (len(theta),) + x.shape)
        elif x.dtype.kind != "c" and not self.real:
            x = x.astype(complex)
        blocks = [x]
        for step in self.steps:
            if isinstance(step, _Fused):
                m = forward[step.index]
                x = m if x is None else m @ x
            else:
                x = step.apply(x, theta)
            if keep:
                blocks.append(x)
        return Tape(blocks, adjoints) if keep else x

    def gradient(self, lam, tape, theta):
        """The per-slot vector e, or (C, P) for a chain stack, real when lam
        and the tape are, from one reverse sweep over the `Tape` of `run(x,
        theta, keep=True)`."""
        e = np.zeros(theta.shape, np.result_type(lam, tape.blocks[-1]))
        if e.dtype.kind == "c":
            lam = np.asarray(lam, complex)
        adjoints = tape.adjoints
        if adjoints is not None:
            # C-contiguous, so that the terms' flat offsets read it
            envs = np.empty(adjoints.shape, e.dtype)
            conj = e.dtype.kind == "c"
        for k in range(len(self.steps) - 1, -1, -1):
            step, x = self.steps[k], tape.blocks[k + 1]
            if isinstance(step, _Fused):
                i = step.index
                np.matmul(lam.conj() if conj else lam, x.swapaxes(-1, -2),
                          out=envs[i])
                if k:
                    lam = adjoints[i] @ lam
            else:
                if lam.ndim < x.ndim:   # one lam for every chain so far
                    lam = np.broadcast_to(lam, x.shape)
                if step.slot is not None:
                    step.term(lam, x, e)
                if k:
                    lam = step.apply(lam, theta, adjoint=True)
        if adjoints is not None:
            terms = (envs.ravel()[self._tables(theta)[1]]
                     * self._signs).sum(axis=-1)
            e[..., self._slots] = terms
        return e


def z_signs(n_qubits: int) -> np.ndarray:
    """The (2^n, n) table S[i, q] = <i|Z_q|i>: +1 where bit q of i is 0, -1
    where it is 1.  Basis populations p read per-qubit <Z> as p @ S."""
    bits = np.arange(2 ** n_qubits)[:, None] >> np.arange(n_qubits)
    return 1.0 - 2.0 * (bits & 1)


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
