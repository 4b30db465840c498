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
    with pytest.raises(ValueError, match="circuit.MAX_DIM = 4096"):
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


@pytest.mark.parametrize("slots", [(0, 0), (0, 2), (1, 0)],
                         ids=["shared", "gap", "out-of-order"])
def test_circuit_rejects_slots_out_of_op_order(slots):
    # each parameter is the angle of one gate, numbered 0, 1, ... in op order
    ops = [Op(K.RX, (0,), Param(slots[0])), Op(K.CX, (0, 1)),
           Op(K.RY, (1,), Param(slots[1]))]
    with pytest.raises(ValueError, match="in op order"):
        Circuit(2, ops)


def test_bind_replaces_slots():
    c = Circuit(1, [Op(K.RX, (0,), Param(0)), Op(K.RZ, (0,), Param(1))])
    b = circ.bind(c, [0.3, 0.1])
    assert b.is_bound
    assert b.ops[0].angle == pytest.approx(0.3)
    assert b.ops[1].angle == pytest.approx(0.1)
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


def _z_oracle(psi, n):
    """Per-qubit <psi|Z_q|psi> from the full Kronecker operator."""
    ops = [np.kron(np.kron(np.eye(2 ** (n - 1 - q)), np.diag([1.0, -1.0])),
                   np.eye(2 ** q)) for q in range(n)]
    return np.array([np.vdot(psi, z @ psi).real for z in ops])


def test_expectation_z_oracle():
    # the sign table is the diagonal of each Z_q: H|0> reads 0, X|0> reads -1
    assert np.array_equal(circ.z_signs(1), [[1.0], [-1.0]])
    for n in (1, 2, 3):
        psi = np.random.default_rng(n).normal(size=(2 ** n, 2)) @ [1, 1j]
        psi /= np.linalg.norm(psi)
        assert np.allclose(np.abs(psi) ** 2 @ circ.z_signs(n),
                           _z_oracle(psi, n), atol=1e-12)
    plus = circ.unitary_of(Circuit(1, [Op(K.H, (0,))]))[:, 0]
    assert np.abs(plus) ** 2 @ circ.z_signs(1) == pytest.approx([0.0])
    flip = circ.unitary_of(Circuit(1, [Op(K.X, (0,))]))[:, 0]
    assert np.abs(flip) ** 2 @ circ.z_signs(1) == pytest.approx([-1.0])


def test_z_expectations_batched():
    flip = Circuit(2, [Op(K.X, (1,))])
    plus = Circuit(2, [Op(K.H, (0,))])
    psi = np.stack([circ.unitary_of(c)[:, 0] for c in (flip, plus)])
    z = np.abs(psi) ** 2 @ circ.z_signs(2)
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


# ---------------------------------------------------------------------------
# The compiled step list: fused RY runs, both apply modes, gradients

_ROTATIONS = [K.RX, K.RY, K.RZ]
_CONTROLLED = [K.CRX, K.CRY, K.CRZ]


@st.composite
def _circuits(draw, n):
    """Random circuits on n qubits: literal gates, plain and controlled
    rotations, each rotation with its own slot."""
    ops, slot = [], 0
    for _ in range(draw(st.integers(1, 12))):
        # RY, the fused kind, is drawn most often
        kind = draw(st.sampled_from(_ROTATIONS + [K.RY] * 3 + _CONTROLLED
                                    + [K.H, K.SX, K.CX, K.CZ]))
        if kind in (K.CX, K.CZ) or kind in _CONTROLLED:
            qubits = tuple(draw(st.permutations(range(n)))[:2])
        else:
            qubits = (draw(st.integers(0, n - 1)),)
        if kind in _ROTATIONS or kind in _CONTROLLED:
            ops.append(Op(kind, qubits, Param(slot)))
            slot += 1
        else:
            ops.append(Op(kind, qubits))
    return Circuit(n, ops)


def _templates(n):
    return st.builds(circ.build_template, st.sampled_from(sorted(
        circ.TEMPLATES)), st.just(n), st.integers(1, 2))


# hand-built cases, drawn alongside the templates and random circuits
_HAND_BUILT = [
    # two RY on one qubit: the second starts a new run, which an RX ends
    Circuit(2, [Op(K.RY, (0,), Param(0)), Op(K.RY, (1,), Param(1)),
                Op(K.RY, (0,), Param(2)), Op(K.RX, (1,), Param(3))]),
    # a controlled rotation splits a run
    Circuit(3, [Op(K.RY, (0,), Param(0)), Op(K.CRY, (0, 2), Param(1)),
                Op(K.RY, (1,), Param(2)), Op(K.RY, (2,), Param(3))]),
    # an idle qubit inside a fused run
    Circuit(3, [Op(K.H, (1,)), Op(K.RZ, (2,), Param(0)),
                Op(K.RY, (0,), Param(1)), Op(K.CZ, (1, 2)),
                Op(K.RY, (2,), Param(2))]),
]


@st.composite
def _cases(draw):
    """(circuit, theta, block) at n = 2..5 and block widths 1, 3 and dim."""
    n = draw(st.integers(2, 5))
    c = draw(st.one_of(_templates(n), _circuits(n),
                       st.sampled_from(_HAND_BUILT)))
    n = c.n_qubits
    dim = 2 ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    theta = rng.uniform(-math.pi, math.pi, c.n_params)
    width = draw(st.sampled_from([1, 3, dim]))
    x = rng.normal(size=(dim, width)) + 1j * rng.normal(size=(dim, width))
    return c, theta, x / np.linalg.norm(x, axis=0)


def _step_kinds(c):
    return [(type(s).__name__, len(getattr(s, "members", ())))
            for s in c.steps.steps]


def test_step_list_fuses_each_run_of_distinct_qubit_ry():
    kinds = {tid: _step_kinds(circ.build_template(tid, 4, 1))
             for tid in circ.TEMPLATES}
    rot, dense = ("_Rotation", 0), ("_Dense", 0)
    assert kinds["c1"] == [rot] * 8
    assert kinds["c2"] == [rot] * 8 + [dense]
    assert kinds["c6"] == [rot] * 28
    assert kinds["c9"] == [dense] + [rot] * 4
    assert kinds["c12"] == [("_Fused", 4)] + [rot] * 4 + [dense] \
        + [("_Fused", 2)] + [rot] * 2 + [dense]
    assert kinds["c15"] == [("_Fused", 4), dense]
    assert _step_kinds(_HAND_BUILT[0]) == [("_Fused", 2), ("_Fused", 1), rot]
    assert _step_kinds(_HAND_BUILT[1]) == [("_Fused", 1), rot,
                                           ("_Fused", 2)]
    # past eight qubits every rotation is its own step
    assert _step_kinds(circ.build_template("c15", 9, 1)) == [rot] * 9 \
        + [dense]
    assert circ.build_template("c15", 4, 2).steps.real
    assert not circ.build_template("c15", 9, 1).steps.real


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_step_list_run_matches_unitary(case):
    c, theta, x = case
    want = circ.unitary_of(circ.bind(c, theta)) @ x
    assert np.max(np.abs(c.steps.run(x, theta) - want)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_fused_steps_agree_with_their_members(case):
    # a block at least as wide as it is tall runs the fused steps, each a
    # Kronecker matmul; one column at a time runs the rotations one by one
    c, theta, x = case
    x = np.hstack([x] * (1 + x.shape[0] // x.shape[1]))
    narrow = np.hstack([c.steps.run(x[:, [j]], theta)
                        for j in range(x.shape[1])])
    assert np.max(np.abs(c.steps.run(x, theta) - narrow)) <= 1e-13
    for step in c.steps.steps:
        if hasattr(step, "members"):
            for adjoint in (False, True):
                y = x
                for m in step.members[::-1] if adjoint else step.members:
                    y = m.apply(y, theta, adjoint)
                assert np.max(np.abs(step.apply(x, theta, adjoint) - y)) \
                    <= 1e-13


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_reverse_gradient_matches_central_differences(case):
    # d<lam, psi>/d theta_j = e_j / 2
    c, theta, x = case
    rng = np.random.default_rng(1)
    lam = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    lam /= np.linalg.norm(lam)
    steps = c.steps
    grad = steps.gradient(lam, steps.run(x, theta, keep=True), theta) / 2
    eps = 1e-6
    for j in range(c.n_params):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        fd = (np.vdot(lam, steps.run(x, tp))
              - np.vdot(lam, steps.run(x, tm))) / (2 * eps)
        assert abs(grad[j] - fd) <= 1e-7
