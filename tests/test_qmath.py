import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, qmath, synthesis as syn
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind as K

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _bound(n, seed):
    tpl = circ.build_template("c6", n, 1)
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                tpl.n_params)
    return circ.bind(tpl, theta)


def _trace_overlap(student, teacher):
    """Tr(U^dag V) of teacher U and bound student V, as synthesis computes it."""
    return syn._Evaluator(student, teacher).overlap(np.empty(0))


def test_is_unitary_accepts_and_rejects():
    assert qmath.is_unitary(H)
    assert not qmath.is_unitary(2 * H)


def test_trace_overlap_of_identity():
    x = Circuit(1, [Op(K.X, (0,))])
    assert _trace_overlap(Circuit(1), I2) == pytest.approx(2.0)
    assert _trace_overlap(x, X) == pytest.approx(2.0)
    assert _trace_overlap(x, I2) == pytest.approx(0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        syn.SynthesisProblem(np.eye(4), Circuit(1))


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        qmath.as_matrix(np.zeros((2, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_overlap_unitary_invariance(sa, sb):
    # |Tr(U^dag V)| is invariant under a common unitary factor W:
    # the student "V then W" is W V, against the teacher W U
    u = random_unitary(4, sa)
    v, w = _bound(2, sa + 1), _bound(2, sb)
    lhs = abs(_trace_overlap(Circuit(2, v.ops + w.ops),
                             circ.unitary_of(w) @ u))
    assert lhs == pytest.approx(abs(_trace_overlap(v, u)), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_overlap_bounded_by_dimension(seed):
    u = random_unitary(8, seed)
    v = _bound(3, seed + 1)
    assert abs(_trace_overlap(v, u)) <= 8.0 + 1e-9
