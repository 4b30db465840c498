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
The optional ``merge_1q`` pass collapses each run of adjacent single-qubit
gates into a minimal native Euler sequence, after coalescing same-axis
rotations.  It is applied after lowering.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Op
from .gates import GateKind, gate_matrix

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
    basis: str
    depth: int
    total_gates: int
    gates_1q: int
    gates_2q: int


def metrics(circuit: Circuit, basis: str = "") -> CompileReport:
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
    return CompileReport(basis, depth, g1 + g2, g1, g2)


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
        ops = _merge_1q_runs(ops, circuit.n_qubits, BASES[name])
    return Circuit(circuit.n_qubits, ops)


# ---------------------------------------------------------------------------
# Single-qubit run merging

_AXIS_OF = {GateKind.RX: "x", GateKind.RY: "y", GateKind.RZ: "z"}


def _zyz_angles(u: np.ndarray):
    """(theta, phi, lam) with u ~ RZ(phi) RY(theta) RZ(lam) up to phase."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.sqrt(det)
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < 1e-9:
        return theta, 2.0 * np.angle(su[1, 0]), 0.0
    if abs(su[1, 0]) < 1e-9:
        return theta, 2.0 * np.angle(su[1, 1]), 0.0
    ang_sum = 2.0 * np.angle(su[1, 1])
    ang_dif = 2.0 * np.angle(su[1, 0])
    return theta, (ang_sum + ang_dif) / 2.0, (ang_sum - ang_dif) / 2.0


def _is_zero_angle(a: float) -> bool:
    return abs(math.remainder(a, 2.0 * math.pi)) < 1e-9


def _euler_native(u: np.ndarray, basis) -> list[Op]:
    """Minimal native 1q sequence for a literal 2x2 unitary (qubit filled later).

    Every basis has RZ, plus RX or SX.
    """
    theta, phi, lam = _zyz_angles(u)
    half = math.pi / 2

    def rz(a):
        return [] if _is_zero_angle(a) else [Op(GateKind.RZ, (0,), a)]

    if abs(math.sin(theta / 2.0)) < 1e-9:
        return rz(phi + lam)
    if GateKind.RX in basis:
        # ZXZ: RZ(phi+pi/2) RX(theta) RZ(lam-pi/2)
        return rz(lam - half) + [Op(GateKind.RX, (0,), theta)] + rz(phi + half)
    if abs(theta - half) < 1e-9:
        return rz(lam - half) + [Op(GateKind.SX, (0,))] + rz(phi + half)
    return (rz(lam) + [Op(GateKind.SX, (0,))] + rz(theta + math.pi)
            + [Op(GateKind.SX, (0,))] + rz(phi + math.pi))


def _coalesce_rotations(run: list[Op]) -> list[Op]:
    """Merge adjacent same-axis rotations; drop identities and zero rotations."""
    out: list[Op] = []
    for op in run:
        if op.kind is GateKind.ID:
            continue
        if op.kind in _AXIS_OF:
            if out and out[-1].kind is op.kind:
                angle = float(out.pop().angle) + float(op.angle)
                op = Op(op.kind, op.qubits, angle)
            if not _is_zero_angle(op.angle):
                out.append(op)
            continue
        out.append(op)
    return out


def _resynthesize_run(run: list[Op], basis) -> list[Op]:
    """One qubit's run as its native Euler sequence, where that is no longer."""
    run = _coalesce_rotations(run)
    if len(run) < 2:
        return run
    u = np.eye(2, dtype=complex)
    for op in run:
        u = gate_matrix(op.kind, op.angle) @ u
    native = _euler_native(u, basis)
    if len(native) > len(run):
        return run
    qubit = run[0].qubits[0]
    return [Op(op.kind, (qubit,), op.angle) for op in native]


def _merge_1q_runs(ops, n_qubits: int, basis):
    buffers: dict[int, list[Op]] = {q: [] for q in range(n_qubits)}
    out: list[Op] = []

    def flush(q):
        if buffers[q]:
            out.extend(_resynthesize_run(buffers[q], basis))
            buffers[q] = []

    for op in ops:
        if len(op.qubits) == 1:
            buffers[op.qubits[0]].append(op)
        else:
            for q in op.qubits:
                flush(q)
            out.append(op)
    for q in range(n_qubits):
        flush(q)
    return out


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
            lowered = lower(bound, basis_name, merge_1q=True)
            rep = metrics(lowered, str(basis_name))
            rows.append({"template": tid, "basis": str(basis_name),
                         "depth": rep.depth, "total": rep.total_gates,
                         "g1q": rep.gates_1q, "g2q": rep.gates_2q})
    return rows


def overhead_csv(rows, provenance: str = "") -> str:
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("template,basis,depth,total,g1q,g2q")
    for r in rows:
        lines.append(f"{r['template']},{r['basis']},{r['depth']},"
                     f"{r['total']},{r['g1q']},{r['g2q']}")
    return "\n".join(lines) + "\n"
