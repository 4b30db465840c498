import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import gates
from qdistill.circuit import Circuit, Op, Param, unitary_of
from qdistill.gates import GateKind as K
from qdistill.transpile import BASES, lower

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
# Written out here rather than read from gates.GENERATOR, which gate_matrix,
# the step list and the encoder all share: they would agree on a wrong entry.
ORACLE_GENERATOR = {
    K.RX: X, K.RY: Y, K.RZ: Z,
    K.CRX: np.kron(P1, X), K.CRY: np.kron(P1, Y), K.CRZ: np.kron(P1, Z),
}

angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


def test_rotation_at_pi_oracles():
    assert np.allclose(gates.gate_matrix(K.RX, math.pi), -1j * X)
    assert np.allclose(gates.gate_matrix(K.RY, math.pi), -1j * Y)
    assert np.allclose(gates.gate_matrix(K.RZ, math.pi), -1j * Z)


def test_rotation_at_zero_is_identity():
    for kind in (K.RX, K.RY, K.RZ):
        assert np.allclose(gates.gate_matrix(kind, 0.0), I2)


@pytest.mark.parametrize("kind", sorted(ORACLE_GENERATOR), ids=str)
def test_rotations_match_expm_oracle(kind):
    from scipy.linalg import expm
    g = ORACLE_GENERATOR[kind]
    n = gates.ARITY[kind]
    # control on qubit 1 (index bit 1), target on qubit 0, as in gate_matrix
    steps = Circuit(n, [Op(kind, tuple(range(n - 1, -1, -1)), Param(0))]).steps
    for a in np.random.default_rng(11).uniform(-2 * math.pi, 2 * math.pi, 8):
        want = expm(-0.5j * a * g)
        assert np.allclose(gates.gate_matrix(kind, a), want, atol=1e-12)
        got = steps.run(np.eye(2 ** n, dtype=complex), np.array([a]))
        assert np.allclose(got, want, atol=1e-12)


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
    c = Circuit(2, [Op(K.CZ, (1, 0)), Op(K.RY, (0,), 0.7)])
    assert lower(c, "ibm").ops == lower(c, "IBM").ops
    assert lower(c, "Rigetti").ops == lower(c, "RIGETTI").ops
    with pytest.raises(ValueError, match="unknown basis"):
        lower(c, "google")


def test_basis_membership():
    ibm = BASES["IBM"]
    assert K.CX in ibm and K.CZ not in ibm
    rig = BASES["RIGETTI"]
    assert K.CZ in rig and K.CX not in rig
    # the 1q-run merge emits RZ plus RX or SX
    for basis in BASES.values():
        assert K.RZ in basis and (K.RX in basis or K.SX in basis)


def _lower_one(kind, angle, basis):
    """(logical, lowered) unitaries of a circuit holding one gate."""
    n = gates.ARITY[kind]
    c = Circuit(n, [Op(kind, tuple(range(n - 1, -1, -1)), angle)])
    lowered = lower(c, basis)
    for op in lowered.ops:
        assert op.kind in BASES[basis]
    return unitary_of(c), unitary_of(lowered)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(K)), st.sampled_from(["IBM", "RIGETTI"]), angles)
def test_decompositions_preserve_unitary_up_to_phase(kind, basis_name, angle):
    a = angle if kind in gates.PARAMETERIZED else None
    want, got = _lower_one(kind, a, basis_name)
    assert np.allclose(want, gates.gate_matrix(kind, a))
    overlap = abs(np.sum(want.conj() * got)) / want.shape[0]
    assert overlap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("basis", ["IBM", "RIGETTI"])
@pytest.mark.parametrize("kind", list(K), ids=str)
def test_every_gate_lowers_exactly(kind, basis):
    # every rewrite rule, composed through the rules it uses, at 20 seeded
    # angles: native gates only, and the source unitary up to global phase
    rng = np.random.default_rng(20)
    angles = (rng.uniform(-math.pi, math.pi, 20)
              if kind in gates.PARAMETERIZED else [None])
    for a in angles:
        want = gates.gate_matrix(kind, a)
        _, got = _lower_one(kind, a, basis)
        assert abs(np.vdot(want, got)) >= want.shape[0] - 1e-9


def test_native_gates_pass_through():
    c = Circuit(1, [Op(K.RZ, (0,), 0.4)])
    assert lower(c, "IBM").ops == c.ops
