import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ
from qdistill.circuit import Circuit, Op, Param
from qdistill.gates import GateKind as K
from qdistill.gates import gate_matrix


def test_bell_state_construction():
    c = Circuit(2, [Op(K.H, (0,)), Op(K.CX, (0, 1))])
    psi = circ.simulate(c, circ.zero_state(2))
    want = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.allclose(psi, want)


def test_qubit_zero_is_least_significant():
    # X on qubit 0 flips |00> -> |01> (index 1, not 2)
    c = Circuit(2, [Op(K.X, (0,))])
    psi = circ.simulate(c, circ.zero_state(2))
    assert psi[1] == pytest.approx(1.0)


def test_unitary_of_matches_kron_order():
    c = Circuit(2, [Op(K.X, (1,))])
    assert np.allclose(circ.unitary_of(c), np.kron(gate_matrix(K.X), np.eye(2)))


def test_op_validation():
    with pytest.raises(ValueError):
        Circuit(2, [Op(K.X, (2,))])
    with pytest.raises(ValueError):
        Circuit(2, [Op(K.CX, (1, 1))])
    with pytest.raises(ValueError):
        Circuit(2, [Op(K.RX, (0,))])                 # rotation without angle
    with pytest.raises(ValueError):
        Circuit(2, [Op(K.RX, (0,), Param(1))])       # slot gap


def test_bind_replaces_slots():
    c = Circuit(1, [Op(K.RX, (0,), Param(0)), Op(K.RZ, (0,), Param(1, 2.0, 0.5))])
    b = circ.bind(c, [0.3, 0.1])
    assert b.is_bound
    assert b.ops[0].angle == pytest.approx(0.3)
    assert b.ops[1].angle == pytest.approx(0.7)
    with pytest.raises(ValueError):
        circ.bind(c, [0.3])


def test_template_catalog_param_counts():
    # params per layer at 4 qubits, hand-counted from the layer patterns
    per_layer = {"c1": 8, "c2": 8, "c6": 28, "c9": 4, "c12": 12, "c15": 4}
    for tid, count in per_layer.items():
        for layers in (1, 3):
            tpl = circ.build_template(tid, 4, layers)
            assert tpl.n_params == count * layers, tid


def test_build_template_validation():
    with pytest.raises(ValueError):
        circ.build_template("nope", 4, 1)
    with pytest.raises(ValueError):
        circ.build_template("c2", 1, 1)
    with pytest.raises(ValueError):
        circ.build_template("c2", 4, 0)


def test_template_unitary_is_unitary():
    tpl = circ.build_template("c6", 3, 2)
    rng = np.random.default_rng(0)
    u = circ.unitary_of(circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params)))
    assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-10)


def test_expectation_z_oracle():
    # a single state with no batch axis: H|0> reads 0, X|0> reads -1
    plus = circ.simulate(Circuit(1, [Op(K.H, (0,))]), circ.zero_state(1))
    assert circ.z_expectations(plus, 1) == pytest.approx([0.0])
    flip = circ.simulate(Circuit(1, [Op(K.X, (0,))]), circ.zero_state(1))
    assert circ.z_expectations(flip, 1) == pytest.approx([-1.0])


def test_z_expectations_batched():
    flip = Circuit(2, [Op(K.X, (1,))])
    plus = Circuit(2, [Op(K.H, (0,))])
    psi = np.stack([circ.simulate(c, circ.zero_state(2)) for c in (flip, plus)])
    z = circ.z_expectations(psi, 2)
    assert z.shape == (2, 2)
    assert np.allclose(z, [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)


def test_from_text_parses_param_tokens():
    text = ("qubits 2   # header\n"
            "H 0\n"
            "RX 1 @0\n"
            "\n"
            "CRZ 1,0 @1*-0.5+0.25\n"
            "RZ 0 @0*2-1e-3\n"
            "RY 1 0.75\n")
    c = circ.from_text(text)
    assert c.n_qubits == 2 and c.n_params == 2
    assert c.ops == (Op(K.H, (0,)), Op(K.RX, (1,), Param(0)),
                     Op(K.CRZ, (1, 0), Param(1, -0.5, 0.25)),
                     Op(K.RZ, (0,), Param(0, 2.0, -1e-3)),
                     Op(K.RY, (1,), 0.75))
    with pytest.raises(ValueError):
        circ.from_text("H 0\n")
    with pytest.raises(ValueError):
        circ.from_text("qubits 1\nRX 0 @x\n")


def test_register_template_round_trip():
    circ.register_template("t_test", [(K.RY, "all"), (K.CZ, "ring")])
    try:
        tpl = circ.build_template("t_test", 3, 2)
        assert tpl.n_params == 6
        assert sum(1 for op in tpl.ops if op.kind is K.CZ) == 6
    finally:
        # the registry is global state; leaking t_test would change the
        # default template list seen by later tests
        circ.TEMPLATES.pop("t_test", None)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["c1", "c2", "c9", "c15"]), st.integers(0, 500))
def test_simulate_agrees_with_unitary(tid, seed):
    tpl = circ.build_template(tid, 3, 1)
    rng = np.random.default_rng(seed)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    psi = circ.simulate(bound, circ.zero_state(3))
    assert np.allclose(psi, circ.unitary_of(bound)[:, 0], atol=1e-10)
