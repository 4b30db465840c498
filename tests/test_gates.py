import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import gates
from qdistill.circuit import Circuit, Op, unitary_of
from qdistill.gates import GateKind as K
from qdistill.transpile import lower

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def test_rotation_at_pi_oracles():
    assert np.allclose(gates.gate_matrix(K.RX, math.pi), -1j * X)
    assert np.allclose(gates.gate_matrix(K.RY, math.pi), -1j * Y)
    assert np.allclose(gates.gate_matrix(K.RZ, math.pi), -1j * Z)


def test_rotation_at_zero_is_identity():
    for kind in (K.RX, K.RY, K.RZ):
        assert np.allclose(gates.gate_matrix(kind, 0.0), I2)


def test_sx_squares_to_x():
    sx = gates.gate_matrix(K.SX)
    assert np.allclose(sx @ sx, X)


def test_cx_truth_table():
    # control is the first (high) factor, target the second
    cx = gates.gate_matrix(K.CX)
    want = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.array_equal(cx, want)


def test_angle_argument_policing():
    with pytest.raises(ValueError):
        gates.gate_matrix(K.RX)
    with pytest.raises(ValueError):
        gates.gate_matrix(K.H, 0.3)


def test_controlled_rotation_block_structure():
    crz = gates.gate_matrix(K.CRZ, 0.7)
    assert np.allclose(crz[:2, :2], I2)
    assert np.allclose(crz[2:, 2:], gates.gate_matrix(K.RZ, 0.7))
    assert np.allclose(crz[:2, 2:], 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([K.RX, K.RY, K.RZ, K.CRX, K.CRY, K.CRZ]), angles, angles)
def test_rotation_composition(kind, a, b):
    # R(a) R(b) == R(a + b) for every rotation family
    m = gates.gate_matrix
    assert np.allclose(m(kind, a) @ m(kind, b), m(kind, a + b), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(K)), angles)
def test_every_gate_is_unitary(kind, angle):
    a = angle if kind in gates.PARAMETERIZED else None
    m = gates.gate_matrix(kind, a)
    assert np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-10)


def test_basis_lookup_case_insensitive():
    assert gates.get_basis("ibm") is gates.get_basis("IBM")
    assert gates.get_basis("Rigetti") is gates.get_basis("RIGETTI")
    with pytest.raises(ValueError):
        gates.get_basis("google")


def test_basis_membership():
    ibm = gates.get_basis("IBM")
    assert K.CX in ibm and K.CZ not in ibm
    rig = gates.get_basis("RIGETTI")
    assert K.CZ in rig and K.CX not in rig


def _lower_one(kind, angle, basis):
    """(logical, lowered) unitaries of a circuit holding one gate."""
    n = gates.ARITY[kind]
    c = Circuit(n, [Op(kind, tuple(range(n - 1, -1, -1)), angle)])
    lowered = lower(c, basis)
    basis = gates.get_basis(basis)
    for op in lowered.ops:
        assert op.kind in basis
    return unitary_of(c), unitary_of(lowered)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(K)), st.sampled_from(["IBM", "RIGETTI"]), angles)
def test_decompositions_preserve_unitary_up_to_phase(kind, basis_name, angle):
    a = angle if kind in gates.PARAMETERIZED else None
    want, got = _lower_one(kind, a, basis_name)
    assert np.allclose(want, gates.gate_matrix(kind, a))
    overlap = abs(np.sum(want.conj() * got)) / want.shape[0]
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_native_gates_pass_through():
    c = Circuit(1, [Op(K.RZ, (0,), 0.4)])
    assert lower(c, "IBM").ops == c.ops


def test_rule_config_round_trip():
    half = math.pi / 2
    gates.register_basis("TOY", {K.RX, K.RZ, K.CZ})
    rz, rx = (gates.RuleGate(k, ("q",), 0.0, half) for k in (K.RZ, K.RX))
    gates.register_rule(K.H, "TOY", [rz, rx, rz])
    want, got = _lower_one(K.H, None, "TOY")
    assert abs(np.sum(want.conj() * got)) / 2 == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="fails unitary check"):
        gates.register_rule(K.H, "TOY", [rz, rx])
