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
    # a permutation folds into the fused run before it, which leaves qubit
    # 1 idle; the literal run after the second fused run (H) does not
    Circuit(3, [Op(K.RY, (0,), Param(0)), Op(K.RY, (2,), Param(1)),
                Op(K.CX, (0, 1)), Op(K.X, (2,)), Op(K.RY, (1,), Param(2)),
                Op(K.RY, (0,), Param(3)), Op(K.H, (1,))]),
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


def _folded(c):
    return [getattr(s, "fold", None) is not None for s in c.steps.steps]


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
    # c15's CX ring, a permutation, folds into the fused RY run before it;
    # c12's CZ runs are not permutations, and c2's CX chain follows an RZ
    assert kinds["c15"] == [("_Fused", 4)]
    assert _folded(circ.build_template("c15", 4, 2)) == [True, True]
    assert not any(_folded(circ.build_template("c12", 4, 1)))
    assert _step_kinds(_HAND_BUILT[0]) == [("_Fused", 2), ("_Fused", 1), rot]
    assert _step_kinds(_HAND_BUILT[1]) == [("_Fused", 1), rot,
                                           ("_Fused", 2)]
    assert _step_kinds(_HAND_BUILT[3]) == [("_Fused", 2), ("_Fused", 2),
                                           dense]
    assert _folded(_HAND_BUILT[3]) == [True, False, False]
    # past the fusion limit every rotation is its own step
    n = circ._FUSE_MAX_QUBITS + 1
    assert _step_kinds(circ.build_template("c15", n, 1)) == [rot] * n \
        + [dense]
    assert circ.build_template("c15", 4, 2).steps.real
    assert not circ.build_template("c15", n, 1).steps.real


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_step_list_run_matches_unitary(case):
    c, theta, x = case
    u = circ.unitary_of(circ.bind(c, theta))
    assert np.max(np.abs(c.steps.run(x, theta) - u @ x)) <= 1e-12
    # x None runs from the identity: a real list's leading fused step takes
    # its matrix as its block, and any other first step an identity block
    assert np.max(np.abs(c.steps.run(None, theta) - u)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_fused_steps_agree_with_their_members(case):
    # a fused step is one matmul by its stacked Kronecker matrix at any
    # block width, so a block and its columns run one at a time agree; and
    # each matrix and its kept adjoint equal the step's members (the
    # rotations one by one), then its folded permutation x[fold]
    c, theta, x = case
    x = np.hstack([x] * (1 + x.shape[0] // x.shape[1]))
    columns = np.hstack([c.steps.run(x[:, [j]], theta)
                         for j in range(x.shape[1])])
    assert np.max(np.abs(c.steps.run(x, theta) - columns)) <= 1e-13
    fused = [s for s in c.steps.steps if hasattr(s, "members")]
    if not fused:
        return
    forward, adjoints = c.steps._matrices(theta, keep=True)
    for step in fused:
        y = x
        for member in step.members:
            y = member.apply(y, theta)
        if step.fold is not None:
            y = y[step.fold]
        assert np.max(np.abs(forward[step.index] @ x - y)) <= 1e-13
        # the kept adjoint pulls back through the permutation and the
        # rotations in one matmul
        y = x
        if step.fold is not None:
            y = y[np.argsort(step.fold)]
        for member in step.members[::-1]:
            y = member.apply(y, theta, adjoint=True)
        assert np.max(np.abs(adjoints[step.index] @ x - y)) <= 1e-13


def _kron_oracle(steps, theta):
    """Each fused step's matrix D K, as an np.kron chain of its factors,
    qubit n-1 first, then D's row gather."""
    cs = np.cos(np.add.outer(theta / 2, [0.0, -math.pi / 2]))
    out = []
    for step in steps.steps:
        if not isinstance(step, circ._Fused):
            continue
        factors = [np.eye(2)] * len(step.layout)
        for m in step.members:
            c, s = cs[m.slot]
            factors[m.qubit] = np.array([[c, -s], [s, c]])
        forward = factors[-1]
        for f in factors[-2::-1]:
            forward = np.kron(forward, f)
        if step.fold is not None:
            forward = forward[step.fold]
        out.append((step.index, forward))
    return out


_STACKED_CASES = {
    **{f"c15-n{n}": circ.build_template("c15", n, 2)
       for n in range(2, circ._FUSE_MAX_QUBITS + 1)},
    **{f"c12-n{n}": circ.build_template("c12", n, 2) for n in range(4, 7)},
    **{f"hand-built-{i}": c for i, c in enumerate(_HAND_BUILT)},
}


@pytest.mark.parametrize("c", list(_STACKED_CASES.values()),
                         ids=list(_STACKED_CASES))
def test_stacked_build_is_the_kron_chain_bit_for_bit(c):
    # the gather of every qubit's factor entries, D's rows included,
    # multiplies in the chain's order, so every matrix is the same bits with
    # or without keep, and the kept adjoint, D baked in, is the transpose of
    # the permuted chain; in a 3-chain stack, through the per-chain tables,
    # each chain's matrices are its own chain's bits
    rng = np.random.default_rng(c.n_qubits)
    for _ in range(3):
        theta = rng.uniform(-math.pi, math.pi, c.n_params)
        value, none = c.steps._matrices(theta, keep=False)
        forward, adjoints = c.steps._matrices(theta, keep=True)
        assert none is None
        for i, want in _kron_oracle(c.steps, theta):
            assert value[i].tobytes() == forward[i].tobytes() \
                == want.tobytes()
            assert adjoints[i].tobytes() == want.T.tobytes()
    thetas = rng.uniform(-math.pi, math.pi, (3, c.n_params))
    forward, adjoints = c.steps._matrices(thetas, keep=True)
    for chain, theta in enumerate(thetas):
        for i, want in _kron_oracle(c.steps, theta):
            assert forward[i, chain].tobytes() == want.tobytes()
            assert adjoints[i, chain].tobytes() == want.T.tobytes()


def test_wide_block_at_the_fusion_limit_matches_unitary():
    # at the fusion limit the stacked build holds dim x dim matrices for
    # each of the three layers' fused steps
    n = circ._FUSE_MAX_QUBITS
    c = circ.build_template("c15", n, 3)
    theta = np.random.default_rng(8).uniform(-math.pi, math.pi, c.n_params)
    assert [len(s.members) for s in c.steps.steps] == [n] * 3
    want = circ.unitary_of(circ.bind(c, theta))
    out = c.steps.run(np.eye(2 ** n), theta)
    assert np.max(np.abs(out - want)) <= 1e-12


def _unit_by_unit_terms(steps, lam, x, theta):
    """e[slot] = -i <lam_u, G x_u> for each rotation unit u, where x_u is
    the block after u and lam_u is lam pulled back to it, walking the
    list's units (its rotations and literal runs before fusing) one by
    one."""
    units = steps.units
    blocks = []
    for u in units:
        x = u.apply(x, theta)
        blocks.append(x)
    e = np.zeros(len(theta), complex)
    for u, block in zip(units[::-1], blocks[::-1]):
        if u.slot is not None:
            e[u.slot] = -1j * np.vdot(lam, u.generate(block))
        lam = u.apply(lam, theta, adjoint=True)
    return e


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(circ.TEMPLATES)), st.integers(2, 8),
       st.integers(1, 3), st.sampled_from(["1", "8", "dim", "120"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_its_units_one_by_one(tid, n, layers, width, real,
                                               seed):
    # at every block width each fused step takes its terms from its
    # environment product and its kept adjoint (D baked in), which must
    # match the unit-by-unit sweep
    c = circ.build_template(tid, n, layers)
    dim = 2 ** n
    cols = dim if width == "dim" else int(width)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, c.n_params)
    x, lam = (rng.normal(size=(dim, cols))
              + (0 if real else 1j) * rng.normal(size=(dim, cols))
              for _ in range(2))
    x, lam = x / np.linalg.norm(x), lam / np.linalg.norm(lam)
    fused = any(isinstance(s, circ._Fused) for s in c.steps.steps)
    tape = c.steps.run(x, theta, keep=True)
    assert (tape.adjoints is not None) == fused
    e = c.steps.gradient(lam, tape, theta)
    # a real block stays real through a real list's matrices; any other is
    # made complex before the first step (a rotation needs it), and then
    # runs as the complex block of the same values, bit for bit
    stays_real = real and c.steps.real
    assert (e.dtype.kind == "f") == stays_real
    if real and not stays_real:
        complex_tape = c.steps.run(x.astype(complex), theta, keep=True)
        assert tape.blocks[-1].tobytes() == complex_tape.blocks[-1].tobytes()
        assert e.tobytes() == c.steps.gradient(
            lam.astype(complex), complex_tape, theta).tobytes()
    want = _unit_by_unit_terms(c.steps, lam.astype(complex),
                               x.astype(complex), theta)
    assert np.max(np.abs(e - want)) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.one_of(
           _templates(n), _circuits(n), st.sampled_from(_HAND_BUILT))),
       st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_chain_stack_is_each_chains_run_bit_for_bit(c, chains, real, seed):
    # from the identity, theta (C, P) runs C chains at once: every block of
    # the tape, every kept adjoint and every row of the gradient is the
    # same bits as the call with that chain's theta alone
    dim = 2 ** c.n_qubits
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-math.pi, math.pi, (chains, c.n_params))
    lam = rng.normal(size=(dim, dim)) \
        + (0 if real else 1j) * rng.normal(size=(dim, dim))
    steps = c.steps
    out = steps.run(None, thetas)
    tape = steps.run(None, thetas, keep=True)
    e = steps.gradient(lam, tape, thetas)
    assert out.shape == (chains, dim, dim) and e.shape == thetas.shape
    for i, theta in enumerate(thetas):
        alone = steps.run(None, theta, keep=True)
        assert out[i].tobytes() == steps.run(None, theta).tobytes()
        for block, want in zip(tape.blocks[1:], alone.blocks[1:]):
            assert np.broadcast_to(block, out.shape)[i].tobytes() \
                == want.tobytes()
        if alone.adjoints is not None:
            assert tape.adjoints[:, i].tobytes() == alone.adjoints.tobytes()
        assert e[i].tobytes() == steps.gradient(lam, alone, theta).tobytes()


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
