import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, transpile
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind, GateKind as K, gate_matrix


def overlap(a, b):
    return abs(np.sum(a.conj() * b)) / a.shape[0]


def test_cx_to_rigetti_exact_counts():
    c = Circuit(2, [Op(K.CX, (0, 1))])
    lowered = transpile.lower(c, "RIGETTI")
    rep = transpile.metrics(lowered)
    assert rep.gates_2q == 1
    assert rep.gates_1q == 6
    assert all(op.kind is K.CZ for op in lowered.ops if len(op.qubits) == 2)


def test_cz_to_ibm_exact_counts():
    c = Circuit(2, [Op(K.CZ, (0, 1))])
    lowered = transpile.lower(c, "IBM")
    rep = transpile.metrics(lowered)
    assert rep.gates_2q == 1
    assert rep.gates_1q == 6
    assert all(op.kind is K.CX for op in lowered.ops if len(op.qubits) == 2)


def test_lowered_gates_stay_in_basis():
    tpl = circ.build_template("c6", 4, 1)
    bound = circ.bind(tpl, np.linspace(0.1, 2.0, tpl.n_params))
    for name in ("IBM", "RIGETTI"):
        lowered = transpile.lower(bound, name)
        assert all(op.kind in transpile.BASES[name] for op in lowered.ops)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["c1", "c2", "c6", "c9", "c12", "c15"]),
       st.sampled_from(["IBM", "RIGETTI"]), st.integers(0, 1000))
def test_lowering_preserves_unitary(tid, basis, seed):
    tpl = circ.build_template(tid, 3, 1)
    rng = np.random.default_rng(seed)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    want = circ.unitary_of(bound)
    got = circ.unitary_of(transpile.lower(bound, basis))
    assert overlap(want, got) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["c2", "c6", "c15"]), st.integers(0, 1000))
def test_merge_pass_preserves_unitary(tid, seed):
    tpl = circ.build_template(tid, 3, 2)
    rng = np.random.default_rng(seed)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    want = circ.unitary_of(bound)
    for basis in ("IBM", "RIGETTI"):
        merged = transpile.lower(bound, basis, merge_1q=True)
        plain = transpile.lower(bound, basis)
        assert overlap(want, circ.unitary_of(merged)) == pytest.approx(1.0, abs=1e-8)
        assert transpile.metrics(merged).gates_1q <= transpile.metrics(plain).gates_1q


def test_lower_rejects_unbound_circuit():
    tpl = circ.build_template("c2", 3, 1)
    with pytest.raises(ValueError, match="must be bound"):
        transpile.lower(tpl, "IBM", merge_1q=True)


def test_metrics_depth_oracle():
    # H(0) then CX(0,1) then X(1): depth 3; parallel X(2) stays at depth 1
    c = Circuit(3, [Op(K.H, (0,)), Op(K.CX, (0, 1)), Op(K.X, (1,)), Op(K.X, (2,))])
    rep = transpile.metrics(c)
    assert rep.depth == 3
    assert rep.total_gates == 4
    assert rep.gates_2q == 1


def test_overhead_table_shape():
    rows = transpile.overhead_table(["c2", "c6"], ["IBM"], 4)
    assert len(rows) == 2


def test_overhead_ratio_bands():
    rows = {(r["template"], r["basis"]): r
            for r in transpile.overhead_table(["c2", "c6", "c9"],
                                              ["IBM", "RIGETTI"], 4)}
    depth_ratio = rows[("c6", "IBM")]["depth"] / rows[("c2", "IBM")]["depth"]
    gate_ratio = rows[("c6", "IBM")]["total"] / rows[("c2", "IBM")]["total"]
    assert 6.0 <= depth_ratio <= 11.0
    assert 4.0 <= gate_ratio <= 7.5
    rr = rows[("c2", "RIGETTI")]["depth"] / rows[("c9", "RIGETTI")]["depth"]
    assert 1.3 <= rr <= 2.2


# ---------------------------------------------------------------------------
# The scalar 1q merge, one run at a time: the reference that
# `transpile.merge_1q_rows`, the library's batched merge, must equal bit for
# bit.

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


def _op_bits(op):
    angle = None if op.angle is None else float(op.angle).hex()
    return op.kind, op.qubits, angle


def _merged(circuit, basis):
    """``lower(circuit, basis, merge_1q=True)``'s ops, checked bit for bit
    against the scalar merge of the plain lowering."""
    got = transpile.lower(circuit, basis, merge_1q=True).ops
    want = _merge_1q_runs(transpile.lower(circuit, basis).ops,
                          circuit.n_qubits, transpile.BASES[basis])
    assert [_op_bits(op) for op in got] == [_op_bits(op) for op in want]
    return got


# multiples of pi/2 (zero, signed zero, the SX angle, whole turns) nudged by
# nothing or by 1e-10, just inside the zero-angle tolerance
_GRID_ANGLES = st.builds(lambda k, nudge: k * math.pi / 2 + nudge,
                         st.integers(-8, 8), st.sampled_from([0.0, 1e-10,
                                                              -1e-10, -0.0]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(circ.TEMPLATES)), st.integers(2, 5),
       st.integers(1, 4), st.sampled_from(["IBM", "RIGETTI"]), st.data())
def test_merge_equals_the_scalar_merge_bit_for_bit(tid, n, layers, basis,
                                                   data):
    tpl = circ.build_template(tid, n, layers)
    angle = st.one_of(st.floats(-4 * math.pi, 4 * math.pi), _GRID_ANGLES)
    theta = data.draw(st.lists(angle, min_size=tpl.n_params,
                               max_size=tpl.n_params))
    _merged(circ.bind(tpl, np.array(theta)), basis)


def test_merge_drops_a_run_that_is_the_identity():
    # H H lowers to RZ SX RZ RZ SX RZ (IBM) or RZ RX RZ RZ RX RZ (RIGETTI)
    for basis in ("IBM", "RIGETTI"):
        assert _merged(Circuit(1, [Op(K.H, (0,)), Op(K.H, (0,))]), basis) == ()


def test_merge_coalesces_opposite_rotations_away():
    c = Circuit(2, [Op(K.RZ, (1,), 0.7), Op(K.RZ, (1,), -0.7),
                    Op(K.CX, (0, 1))])
    assert _merged(c, "IBM") == (Op(K.CX, (0, 1)),)


def _kinds(ops):
    return [op.kind for op in ops]


def _same_unitary(circuit, ops):
    lowered = circ.unitary_of(Circuit(circuit.n_qubits, ops))
    assert overlap(circ.unitary_of(circuit), lowered) == pytest.approx(
        1.0, abs=1e-12)


def test_merge_takes_one_sx_at_a_quarter_turn_on_ibm():
    # RX(pi/2) lowers to RZ SX RZ SX RZ; the one-SX form's RZs are zero here
    c = Circuit(1, [Op(K.RX, (0,), math.pi / 2)])
    ops = _merged(c, "IBM")
    assert _kinds(ops) == [K.SX]
    _same_unitary(c, ops)
    c = Circuit(1, [Op(K.RX, (0,), math.pi / 2), Op(K.RZ, (0,), 0.4)])
    assert _kinds(_merged(c, "IBM")) == [K.SX, K.RZ]


def test_merge_takes_two_sx_for_a_generic_run_on_ibm():
    c = Circuit(1, [Op(K.RX, (0,), 0.3), Op(K.RZ, (0,), 0.5),
                    Op(K.RX, (0,), 0.9)])
    ops = _merged(c, "IBM")
    assert _kinds(ops) == [K.RZ, K.SX, K.RZ, K.SX, K.RZ]
    _same_unitary(c, ops)


def test_merge_takes_zxz_on_rigetti():
    c = Circuit(1, [Op(K.RX, (0,), 0.3), Op(K.RZ, (0,), 0.5),
                    Op(K.RX, (0,), 0.9), Op(K.RZ, (0,), 1.1)])
    ops = _merged(c, "RIGETTI")
    assert _kinds(ops) == [K.RZ, K.RX, K.RZ]
    _same_unitary(c, ops)


def test_merge_keeps_a_run_shorter_than_its_euler_form():
    # SX RZ SX is three gates; its Euler form, with two SX, is five
    c = Circuit(1, [Op(K.SX, (0,)), Op(K.RZ, (0,), 0.3), Op(K.SX, (0,))])
    assert _merged(c, "IBM") == c.ops
