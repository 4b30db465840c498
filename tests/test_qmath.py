import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import qmath

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_is_unitary_accepts_and_rejects():
    assert qmath.is_unitary(H)
    assert not qmath.is_unitary(2 * H)


def test_trace_overlap_of_identity():
    assert qmath.hs_trace_overlap(I2, I2) == pytest.approx(2.0)
    assert qmath.hs_trace_overlap(X, X) == pytest.approx(2.0)
    assert qmath.hs_trace_overlap(I2, X) == pytest.approx(0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        qmath.hs_trace_overlap(I2, np.eye(4))


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        qmath.as_matrix(np.zeros((2, 3)))


def test_as_state_rejects_empty():
    with pytest.raises(ValueError):
        qmath.as_state([])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_overlap_unitary_invariance(sa, sb):
    # |Tr(U^dag V)| is invariant under a common unitary factor
    u, v = random_unitary(4, sa), random_unitary(4, sa + 1)
    w = random_unitary(4, sb)
    lhs = abs(qmath.hs_trace_overlap(w @ u, w @ v))
    assert lhs == pytest.approx(abs(qmath.hs_trace_overlap(u, v)), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_overlap_bounded_by_dimension(seed):
    u = random_unitary(8, seed)
    v = random_unitary(8, seed + 1)
    assert abs(qmath.hs_trace_overlap(u, v)) <= 8.0 + 1e-9
