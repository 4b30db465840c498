import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import encoding, noisesim, qnn
from qdistill.encoding import EncodingScheme, Scaler
from qdistill.gates import GateKind as K


def test_capacity():
    assert EncodingScheme("1:1", 4).capacity == 4
    assert EncodingScheme("2:1", 4).capacity == 8


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        EncodingScheme("3:1", 4)


def test_one_to_one_circuit_shape():
    # H then RZ(x_q) per qubit
    c = encoding.encode([0.1, 0.2, 0.3, 0.4], EncodingScheme("1:1", 4))
    assert len(c.ops) == 8
    assert [op.kind for op in c.ops[:2]] == [K.H, K.RZ]
    assert c.ops[1].angle == pytest.approx(0.1)
    assert c.ops[7].angle == pytest.approx(0.4)


def test_two_to_one_uses_both_axes():
    sch = EncodingScheme("2:1", 2)
    c = encoding.encode([0.1, 0.2, 0.3, 0.4], sch)
    kinds = {op.kind for op in c.ops if op.kind in (K.RY, K.RZ)}
    assert kinds == {K.RY, K.RZ}


def test_encode_feature_count_guard():
    with pytest.raises(ValueError):
        encoding.encode([0.1, 0.2], EncodingScheme("1:1", 4))
    with pytest.raises(ValueError, match="expected 4 features"):
        encoding.encode_states(np.zeros((3, 2)), EncodingScheme("1:1", 4))
    with pytest.raises(ValueError, match=r"\[-pi, pi\]"):
        encoding.encode_states(np.full((3, 4), 3.2), EncodingScheme("1:1", 4))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("reader", ["encode", "encode_states",
                                    "noisy_z_features"])
def test_non_finite_features_are_rejected_without_a_warning(reader, bad):
    scheme = EncodingScheme("1:1", 4)
    rows = np.zeros((2, 4))
    rows[1, 0] = bad
    calls = {
        "encode": lambda: encoding.encode(rows[1], scheme),
        "encode_states": lambda: encoding.encode_states(rows, scheme),
        "noisy_z_features": lambda: noisesim.noisy_z_features(
            qnn.init_model("c15", 1, scheme, seed=0), rows,
            noisesim.load_profile("melbourne")),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            calls[reader]()


# axis: the 2:1 encoding's second rotation, RY
@pytest.mark.parametrize("mode,axis", [("1:1", K.RY), ("2:1", K.RY)])
def test_encode_states_matches_expm_oracle(mode, axis):
    # H, RZ(x_q) [then axis(x_q')] per qubit, from literal Paulis
    from scipy.linalg import expm
    pauli = {K.RX: np.array([[0, 1], [1, 0]]),
             K.RY: np.array([[0, -1j], [1j, 0]]),
             K.RZ: np.diag([1, -1])}
    h_zero = np.array([1, 1]) / math.sqrt(2)
    scheme = EncodingScheme(mode, 3)
    rows = np.random.default_rng(12).uniform(-math.pi, math.pi,
                                             (5, scheme.capacity))
    got = encoding.encode_states(rows, scheme)
    for row, psi in zip(rows, got):
        want = np.ones(1)
        for q in range(3):
            angles = [(K.RZ, row[q])] if mode == "1:1" else [
                (K.RZ, row[2 * q]), (axis, row[2 * q + 1])]
            v = h_zero
            for kind, a in angles:
                v = expm(-0.5j * a * pauli[kind]) @ v
            want = np.kron(v, want)        # qubit 0 is the low index bit
        assert np.allclose(psi, want, atol=1e-12)


def test_fit_scaler_endpoints():
    x = np.array([[0.0, 10.0], [1.0, 20.0], [0.5, 15.0]])
    sc = encoding.fit_scaler(x)
    scaled = encoding.apply_scaler(sc, x)
    assert scaled.min() == pytest.approx(-math.pi)
    assert scaled.max() == pytest.approx(math.pi)
    assert scaled[0, 0] == pytest.approx(-math.pi)
    assert scaled[1, 1] == pytest.approx(math.pi)


def test_apply_scaler_clamps_out_of_range():
    sc = encoding.fit_scaler(np.array([[0.0], [1.0]]))
    scaled = encoding.apply_scaler(sc, np.array([[2.0], [-1.0]]))
    assert scaled[0, 0] == pytest.approx(math.pi)
    assert scaled[1, 0] == pytest.approx(-math.pi)


def test_constant_column_warns():
    with pytest.warns(UserWarning):
        encoding.fit_scaler(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_scaler_json_round_trip():
    sc = encoding.fit_scaler(np.array([[0.0, 5.0], [2.0, 9.0]]))
    back = Scaler.from_dict(json.loads(json.dumps(sc.to_dict())))
    x = np.array([[1.3, 6.1]])
    assert np.allclose(encoding.apply_scaler(sc, x),
                       encoding.apply_scaler(back, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5000))
def test_scaled_features_always_in_range(seed):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(20, 3)) * 10
    other = rng.normal(size=(7, 3)) * 30
    sc = encoding.fit_scaler(train)
    scaled = encoding.apply_scaler(sc, other)
    assert np.all(scaled >= -math.pi - 1e-12)
    assert np.all(scaled <= math.pi + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000))
def test_encoded_state_is_normalized(seed):
    from qdistill import circuit as circ
    rng = np.random.default_rng(seed)
    sch = EncodingScheme("2:1", 3)
    feats = rng.uniform(-math.pi, math.pi, sch.capacity)
    psi = circ.unitary_of(encoding.encode(feats, sch))[:, 0]
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0)
