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
    psi = circ.unitary_of(c)[:, 0]
    want = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.allclose(psi, want)


def test_qubit_zero_is_least_significant():
    # X on qubit 0 flips |00> -> |01> (index 1, not 2)
    c = Circuit(2, [Op(K.X, (0,))])
    psi = circ.unitary_of(c)[:, 0]
    assert psi[1] == pytest.approx(1.0)


def test_unitary_of_matches_kron_order():
    c = Circuit(2, [Op(K.X, (1,))])
    assert np.allclose(circ.unitary_of(c), np.kron(gate_matrix(K.X), np.eye(2)))


def test_unitary_of_refuses_dimension_above_limit():
    with pytest.raises(ValueError, match="qmath.MAX_DIM = 4096"):
        circ.unitary_of(Circuit(13, []))
    assert circ.unitary_of(Circuit(2, [])).shape == (4, 4)


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
    plus = circ.unitary_of(Circuit(1, [Op(K.H, (0,))]))[:, 0]
    assert circ.z_expectations(plus, 1) == pytest.approx([0.0])
    flip = circ.unitary_of(Circuit(1, [Op(K.X, (0,))]))[:, 0]
    assert circ.z_expectations(flip, 1) == pytest.approx([-1.0])


def test_z_expectations_batched():
    flip = Circuit(2, [Op(K.X, (1,))])
    plus = Circuit(2, [Op(K.H, (0,))])
    psi = np.stack([circ.unitary_of(c)[:, 0] for c in (flip, plus)])
    z = circ.z_expectations(psi, 2)
    assert z.shape == (2, 2)
    assert np.allclose(z, [[1.0, -1.0], [0.0, 1.0]], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["c1", "c2", "c9", "c15"]), st.integers(0, 500))
def test_simulate_agrees_with_unitary(tid, seed):
    # the step list run on |000> gives the first column of the bound unitary
    tpl = circ.build_template(tid, 3, 1)
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                 tpl.n_params)
    psi = tpl.steps.run(np.eye(8, 1, dtype=complex), theta)[:, 0]
    want = circ.unitary_of(circ.bind(tpl, theta))[:, 0]
    assert np.allclose(psi, want, atol=1e-10)
