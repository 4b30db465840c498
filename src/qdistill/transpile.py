"""Lowering of bound circuits to a basis gate set, plus depth/gate-count metrics.

The basis sets (`BASES`) and the rewrite rules into them (`_RULES`) are
constant tables.  A rule replaces one source gate with a sequence over its
qubits, each gate's angle a literal or affine in the source angle; rule
gates outside the basis are rewritten in turn.  A test lowers every gate
kind into every basis at 20 seeded angles and checks that the result is
native and equals the source unitary up to global phase.

Depth is the number of moments under greedy ASAP layering: a gate enters the
earliest moment in which all of its qubits are free.  No commutation-aware
scheduling and no routing (all-to-all coupling is assumed).

``lower`` takes bound circuits only; bind a template's parameters first.
The optional ``merge_1q`` pass runs after lowering.  It buffers each qubit's
single-qubit gates, flushes the run at that qubit's next 2q gate, coalesces
same-axis rotations and replaces the run with a minimal native Euler
sequence where that is no longer.  There is one merge, `merge_1q_rows`, which
merges many runs of one kind sequence at once as arrays and masks over them:
``lower`` groups its runs by kind sequence and calls it once per group, and
noisy evaluation calls it on all rows' encoding prefixes at once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Op
from .gates import GateKind, gate_stack

_K = GateKind
_HALF = math.pi / 2

# The vendor never publishes Rigetti's single-qubit natives in one place;
# {RX, RZ, CZ} is the conventional CZ-native set.
BASES = {
    "IBM": frozenset({_K.ID, _K.RZ, _K.SX, _K.X, _K.CX}),
    "RIGETTI": frozenset({_K.RX, _K.RZ, _K.CZ}),
}

# Qubit 0 is a 1q source's qubit or a 2q source's control, 1 its target;
# a rule gate's angle is a literal or _Affine(scale, offset), the angle
# scale * source_angle + offset.
_Affine = namedtuple("_Affine", "scale offset", defaults=(0.0,))
_CRZ = (Op(_K.RZ, (1,), _Affine(0.5)), Op(_K.CX, (0, 1)),
        Op(_K.RZ, (1,), _Affine(-0.5)), Op(_K.CX, (0, 1)))
_CONTROLLED_RULES = {
    _K.CRZ: _CRZ,
    _K.CRX: (Op(_K.H, (1,)),) + _CRZ + (Op(_K.H, (1,)),),
    _K.CRY: (Op(_K.RX, (1,), _HALF),) + _CRZ + (Op(_K.RX, (1,), -_HALF),),
}
_RULES = {
    (_K.H, "IBM"): (Op(_K.RZ, (0,), _HALF), Op(_K.SX, (0,)),
                    Op(_K.RZ, (0,), _HALF)),
    (_K.RX, "IBM"): (Op(_K.RZ, (0,), _HALF), Op(_K.SX, (0,)),
                     Op(_K.RZ, (0,), _Affine(1.0, math.pi)), Op(_K.SX, (0,)),
                     Op(_K.RZ, (0,), _HALF)),
    (_K.RY, "IBM"): (Op(_K.SX, (0,)), Op(_K.RZ, (0,), _Affine(1.0, math.pi)),
                     Op(_K.SX, (0,)), Op(_K.RZ, (0,), math.pi)),
    (_K.CZ, "IBM"): (Op(_K.H, (1,)), Op(_K.CX, (0, 1)), Op(_K.H, (1,))),
    (_K.ID, "RIGETTI"): (),
    (_K.X, "RIGETTI"): (Op(_K.RX, (0,), math.pi),),
    (_K.SX, "RIGETTI"): (Op(_K.RX, (0,), _HALF),),
    (_K.H, "RIGETTI"): (Op(_K.RZ, (0,), _HALF), Op(_K.RX, (0,), _HALF),
                        Op(_K.RZ, (0,), _HALF)),
    (_K.RY, "RIGETTI"): (Op(_K.RZ, (0,), -_HALF),
                         Op(_K.RX, (0,), _Affine(1.0)),
                         Op(_K.RZ, (0,), _HALF)),
    (_K.CX, "RIGETTI"): (Op(_K.H, (1,)), Op(_K.CZ, (0, 1)), Op(_K.H, (1,))),
    **{(kind, basis): rule for kind, rule in _CONTROLLED_RULES.items()
       for basis in BASES},
}


@dataclass(frozen=True)
class CompileReport:
    depth: int
    total_gates: int
    gates_1q: int
    gates_2q: int


def metrics(circuit: Circuit) -> CompileReport:
    frontier = [0] * circuit.n_qubits
    g1 = g2 = 0
    for op in circuit.ops:
        moment = max(frontier[q] for q in op.qubits) + 1
        for q in op.qubits:
            frontier[q] = moment
        if len(op.qubits) == 1:
            g1 += 1
        else:
            g2 += 1
    depth = max(frontier) if frontier else 0
    return CompileReport(depth, g1 + g2, g1, g2)


def _expand_op(kind, qubits, angle, basis):
    if kind in BASES[basis]:
        return [Op(kind, qubits, angle)]
    out = []
    for r in _RULES[kind, basis]:
        a = r.angle
        if isinstance(a, _Affine):
            a = a.scale * angle + a.offset
        out.extend(_expand_op(r.kind, tuple(qubits[i] for i in r.qubits), a,
                              basis))
    return out


def lower(circuit: Circuit, basis: str, merge_1q: bool = False) -> Circuit:
    """Rewrite all gates into basis gates, preserving unitary up to phase.

    ``basis`` is a key of `BASES`, in any letter case.
    """
    if not circuit.is_bound:
        raise ValueError("circuit must be bound before lowering")
    name = str(basis).upper()
    if name not in BASES:
        raise ValueError(f"unknown basis {basis!r}; known: {sorted(BASES)}")
    ops = []
    for op in circuit.ops:
        ops.extend(_expand_op(op.kind, op.qubits, op.angle, name))
    if merge_1q:
        ops = _merge_1q_runs(ops, circuit.n_qubits, name)
    return Circuit(circuit.n_qubits, ops)


# ---------------------------------------------------------------------------
# Single-qubit run merging

_AXIS_OF = {GateKind.RX: "x", GateKind.RY: "y", GateKind.RZ: "z"}


def _merge_1q_runs(ops, n_qubits: int, basis: str):
    """Each qubit's run of 1q ops, flushed at its next 2q op and at the end,
    merged by `merge_1q_rows`: the runs that share a kind sequence are the
    rows of one call."""
    buffers: dict[int, list[Op]] = {q: [] for q in range(n_qubits)}
    runs = []   # (qubit, ops, merged ops), in flush order
    out = []    # lists of ops: each 2q op alone, and each run's merged ops

    def flush(q):
        if buffers[q]:
            runs.append((q, buffers[q], []))
            out.append(runs[-1][2])
            buffers[q] = []

    for op in ops:
        if len(op.qubits) == 1:
            buffers[op.qubits[0]].append(op)
        else:
            for q in op.qubits:
                flush(q)
            out.append([op])
    for q in range(n_qubits):
        flush(q)

    groups: dict[tuple, list] = {}
    for run in runs:
        groups.setdefault(tuple(op.kind for op in run[1]), []).append(run)
    for kinds, group in groups.items():
        gates = [Op(kind, (0,), np.array([run[j].angle for _, run, _ in group])
                    if kind in _AXIS_OF else None)
                 for j, kind in enumerate(kinds)]
        slots = merge_1q_rows(gates, basis, len(group))
        for r, (q, _, merged) in enumerate(group):
            merged.extend(Op(kind, (q,), None if a is None else a[r])
                          for kind, a, present in slots if present[r])
    return [op for part in out for op in part]


def _zero_angles(values):
    """Whether each angle is within 1e-9 of a multiple of 2 pi, read off
    its remainder of least magnitude (``math.remainder``): fmod by 2 pi is
    exact, and so, by Sterbenz's lemma, is the step from it to that
    remainder."""
    r = np.fmod(values, 2.0 * math.pi)
    r = np.where(np.fabs(r) > math.pi, r - np.copysign(2.0 * math.pi, r), r)
    return np.fabs(r) < 1e-9


def _zyz_rows(u):
    """(theta, phi, lam) with u ~ RZ(phi) RY(theta) RZ(lam) up to phase, for
    each matrix u of a (k, 2, 2) stack, as three (k,) arrays.  u is scaled
    to determinant 1; where |u00| or |u10| is below 1e-9 the whole phase
    goes to phi.  The determinant is taken in real arithmetic, as numpy's
    complex scalars multiply, and the moduli from hypot, as their abs, so
    each row has the bits of the same steps on one 2x2 matrix."""
    r, i = u.real, u.imag
    det = np.empty(len(u), complex)
    det.real = (r[:, 0, 0] * r[:, 1, 1] - i[:, 0, 0] * i[:, 1, 1]) \
        - (r[:, 0, 1] * r[:, 1, 0] - i[:, 0, 1] * i[:, 1, 0])
    det.imag = (r[:, 0, 0] * i[:, 1, 1] + i[:, 0, 0] * r[:, 1, 1]) \
        - (r[:, 0, 1] * i[:, 1, 0] + i[:, 0, 1] * r[:, 1, 0])
    su = u / np.sqrt(det)[:, None, None]
    a00 = np.hypot(su[:, 0, 0].real, su[:, 0, 0].imag)
    a10 = np.hypot(su[:, 1, 0].real, su[:, 1, 0].imag)
    theta = 2.0 * np.array([math.atan2(y, x) for y, x in zip(a10, a00)])
    ang_sum = 2.0 * np.angle(su[:, 1, 1])
    ang_dif = 2.0 * np.angle(su[:, 1, 0])
    phi = np.where(a00 < 1e-9, ang_dif,
                   np.where(a10 < 1e-9, ang_sum, (ang_sum + ang_dif) / 2.0))
    lam = np.where((a00 < 1e-9) | (a10 < 1e-9), 0.0,
                   (ang_sum - ang_dif) / 2.0)
    return theta, phi, lam


def merge_1q_rows(ops, basis: str, count: int) -> list:
    """One qubit's 1q ops, lowered to the basis and merged, for `count` rows
    at once: the one statement of the 1q-merge rules.

    An op's angle is None, a float, or a (count,) array of the rows'
    angles.  Returns slots (kind, angles, present): the kind, a (count,)
    angle array (None for a fixed gate) and a (count,) mask of the rows
    whose run has the gate; row r's run is the present slots in order.
    A row's run drops its identities, sums adjacent rotations of one kind
    and drops those at a multiple of 2 pi (coalescing keeps a stack per
    row: its top, and the slot below each pushed slot).  Where two or more
    gates are left, their product's native Euler sequence replaces them if
    it is no longer: RZ alone when the product is diagonal, else ZXZ with
    RX, or one SX at theta = pi/2 and two SX otherwise.  ``lower(...,
    merge_1q=True)`` calls it once per kind sequence of its runs.
    """
    name = str(basis).upper()
    ops = [e for op in ops for e in _expand_op(op.kind, op.qubits, op.angle,
                                                name)
           if e.kind is not GateKind.ID]
    k = len(ops)
    # each gate's kind as a number, and -1 (no kind) below a row's first
    code = np.array([list(GateKind).index(op.kind) for op in ops] + [-1])
    angle = np.zeros((k, count))
    alive = np.zeros((k, count), bool)
    below = np.full((k, count), -1)
    top = np.full(count, -1)
    rows = np.arange(count)
    for j, op in enumerate(ops):
        if op.kind not in _AXIS_OF:
            alive[j], below[j], top = True, top, np.full(count, j)
            continue
        merge = code[top] == code[j]
        value = np.where(merge, angle[top, rows] + op.angle, op.angle)
        alive[top[merge], rows[merge]] = False
        under = np.where(merge, below[top, rows], top)
        keep = ~_zero_angles(value)
        angle[j], alive[j], below[j] = value, keep, under
        top = np.where(keep, j, under)
    length = alive.sum(axis=0)

    # each row of two or more gates: its product, Euler angles and native
    # sequence, which replaces the row's run where that is no longer
    multi = np.flatnonzero(length >= 2)
    u = np.tile(np.eye(2, dtype=complex), (len(multi), 1, 1))
    for j, op in enumerate(ops):
        on = alive[j, multi]
        if on.any():
            rotation = angle[j, multi[on]] if op.kind in _AXIS_OF else None
            u[on] = gate_stack(op.kind, rotation, int(on.sum())) @ u[on]
    theta, phi, lam = (np.zeros(count) for _ in range(3))
    theta[multi], phi[multi], lam[multi] = _zyz_rows(u)
    flat, euler = np.zeros(count, bool), np.zeros(count, bool)
    flat[multi] = [abs(math.sin(t / 2.0)) < 1e-9 for t in theta[multi]]
    euler[multi] = ~flat[multi]
    rz, sx = GateKind.RZ, (GateKind.SX, None)
    if GateKind.RX in BASES[name]:
        branches = [(euler, [(rz, lam - _HALF), (GateKind.RX, theta),
                             (rz, phi + _HALF)])]
    else:
        at_half = np.fabs(theta - _HALF) < 1e-9
        branches = [(euler & at_half, [(rz, lam - _HALF), sx,
                                       (rz, phi + _HALF)]),
                    (euler & ~at_half, [(rz, lam), sx, (rz, theta + math.pi),
                                        sx, (rz, phi + math.pi)])]
    branches.append((flat, [(rz, phi + lam)]))
    native = [(kind, a, where & ~_zero_angles(a) if kind is rz else where)
              for where, gates in branches for kind, a in gates]
    swap = (flat | euler) & (sum(where.astype(int) for _, _, where in native)
                             <= length)
    return ([(op.kind, angle[j] if op.kind in _AXIS_OF else None,
              alive[j] & ~swap) for j, op in enumerate(ops)]
            + [(kind, a, where & swap) for kind, a, where in native])


# ---------------------------------------------------------------------------
# Overhead analysis table

def _generic_binding(n_params: int) -> np.ndarray:
    # fixed angles, no special values, so Euler merging sees generic rotations
    return 0.31 + 0.137 * np.arange(n_params)


def overhead_table(template_ids, basis_list, n_qubits: int) -> list[dict]:
    """One row per (template, basis): depth and gate counts of a single layer.

    Templates are bound at fixed generic angles before lowering so that the
    merge pass can fully resynthesize single-qubit runs, mirroring what a
    production compiler does to concrete circuits.
    """
    from .circuit import bind, build_template

    rows = []
    for tid in template_ids:
        tpl = build_template(tid, n_qubits, 1)
        bound = bind(tpl, _generic_binding(tpl.n_params))
        for basis_name in basis_list:
            rep = metrics(lower(bound, basis_name, merge_1q=True))
            rows.append({"template": tid, "basis": str(basis_name),
                         "depth": rep.depth, "total": rep.total_gates,
                         "g1q": rep.gates_1q, "g2q": rep.gates_2q})
    return rows

