import math

import numpy as np
import pytest

from qdistill import circuit as circ, data, encoding, noisesim, qnn
from qdistill.circuit import Op, Param
from qdistill.encoding import EncodingScheme
from qdistill.gates import GateKind as K


def small_problem(template="c2", layers=1, n_samples=12, seed=0):
    ds = data.load_iris(seed=seed)
    scheme = EncodingScheme("1:1", 4)
    scaler = encoding.fit_scaler(ds.train_features)
    model = qnn.init_model(template, layers, scheme, seed=seed, scaler=scaler)
    x = encoding.apply_scaler(scaler, ds.train_features[:n_samples])
    y = ds.train_labels[:n_samples]
    return model, x, y, ds


def numeric_gradients(model, x, y, eps=1e-5):
    def loss_at(theta, W, b):
        probe = qnn.HybridModel(model.scheme, model.pqc, theta, W, b,
                                scaler=model.scaler)
        return qnn.loss(probe, x, y)

    dth = np.zeros_like(model.theta)
    for j in range(model.theta.size):
        tp, tm = model.theta.copy(), model.theta.copy()
        tp[j] += eps
        tm[j] -= eps
        dth[j] = (loss_at(tp, model.W, model.b)
                  - loss_at(tm, model.W, model.b)) / (2 * eps)
    return dth


@pytest.mark.parametrize("template,layers", [("c1", 2), ("c2", 1), ("c6", 1),
                                             ("c9", 2), ("c12", 1), ("c15", 2)])
def test_circuit_gradient_matches_finite_differences(template, layers):
    model, x, y, _ = small_problem(template, layers)
    dtheta, dW, db = qnn.gradients(model, x, y)
    fd = numeric_gradients(model, x, y)
    assert np.max(np.abs(dtheta - fd)) < 1e-5


# CRX/CRY/CRZ with the control above and below the target, between plain
# rotations and literal gates
_CONTROLLED_PQC = circ.Circuit(4, [
    Op(K.RX, (0,), Param(0)),
    Op(K.RY, (1,), Param(1)),
    Op(K.CRX, (0, 2), Param(2)),
    Op(K.CRY, (3, 1), Param(3)),
    Op(K.CRZ, (1, 3), Param(4)),
    Op(K.CX, (2, 0)),
    Op(K.RZ, (3,), 0.7),
    Op(K.CRX, (3, 0), Param(5)),
    Op(K.CRY, (2, 3), Param(6)),
    Op(K.CRZ, (2, 1), Param(7)),
    Op(K.RY, (0,), Param(8)),
])


def test_circuit_gradient_with_controlled_rotations():
    ref, x, y, _ = small_problem()
    pqc = _CONTROLLED_PQC
    theta = np.random.default_rng(1).uniform(-math.pi, math.pi, pqc.n_params)
    model = qnn.HybridModel(ref.scheme, pqc, theta, ref.W, ref.b)
    dtheta, _, _ = qnn.gradients(model, x, y)
    fd = numeric_gradients(model, x, y)
    assert np.max(np.abs(dtheta - fd)) < 1e-7


@pytest.mark.parametrize("mode,n_features", [("1:1", 4), ("2:1", 8)],
                         ids=["1:1-4", "2:1-8"])
@pytest.mark.parametrize("template", sorted(circ.TEMPLATES))
def test_forward_matches_gate_by_gate_simulation(template, mode, n_features):
    scheme = EncodingScheme(mode, 4)
    model = qnn.init_model(template, 2, scheme, seed=3)
    rows = np.random.default_rng(4).uniform(-math.pi, math.pi, (6, n_features))
    _, _, z = qnn.forward_batch(model, rows)
    bound = circ.bind(model.pqc, model.theta)
    for row, got in zip(rows, z):
        enc = encoding.encode(row, scheme)
        full = circ.Circuit(4, enc.ops + bound.ops)
        psi = circ.unitary_of(full)[:, 0]
        assert np.max(np.abs(got - circ.z_expectations(psi, 4))) < 1e-12


def test_head_gradient_matches_finite_differences():
    model, x, y, _ = small_problem()
    _, dW, db = qnn.gradients(model, x, y)
    eps = 1e-6
    for idx in [(0, 0), (2, 3)]:
        wp, wm = model.W.copy(), model.W.copy()
        wp[idx] += eps
        wm[idx] -= eps
        up = qnn.HybridModel(model.scheme, model.pqc, model.theta, wp, model.b)
        dn = qnn.HybridModel(model.scheme, model.pqc, model.theta, wm, model.b)
        fd = (qnn.loss(up, x, y) - qnn.loss(dn, x, y)) / (2 * eps)
        assert dW[idx] == pytest.approx(fd, abs=1e-6)


def test_zero_head_blocks_circuit_gradient():
    model, x, y, _ = small_problem()
    model.W = np.zeros_like(model.W)
    dtheta, _, _ = qnn.gradients(model, x, y)
    assert np.all(dtheta == 0.0)


def test_forward_probabilities_normalized():
    model, x, _, _ = small_problem()
    probs, logits, z = qnn.forward_batch(model, x)
    assert probs.shape == (x.shape[0], 3)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)
    assert z.shape == (x.shape[0], 4)
    assert np.all(np.abs(z) <= 1.0 + 1e-12)


def test_training_reduces_loss_and_logs_history():
    model, _, _, ds = small_problem()
    trained, history = qnn.train(model, ds, qnn.TrainConfig(epochs=3, seed=0))
    assert history[0]["epoch"] == 0
    assert len(history) == 4
    assert history[-1]["train_loss"] < history[0]["train_loss"]
    # input model untouched
    assert not np.array_equal(trained.theta, model.theta)


def test_training_is_deterministic():
    model, _, _, ds = small_problem()
    cfg = qnn.TrainConfig(epochs=2, seed=4, batch_size=16)
    a, _ = qnn.train(model, ds, cfg)
    b, _ = qnn.train(model, ds, cfg)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.W, b.W)


def test_train_config_validation():
    with pytest.raises(ValueError):
        qnn.TrainConfig(epochs=0)


def test_model_shape_validation():
    model, _, _, _ = small_problem()
    with pytest.raises(ValueError):
        qnn.HybridModel(model.scheme, model.pqc, model.theta[:-1], model.W,
                        model.b)
    with pytest.raises(ValueError):
        qnn.HybridModel(model.scheme, model.pqc, model.theta, model.W[:2],
                        model.b)


def test_checkpoint_round_trip(tmp_path):
    model, x, y, ds = small_problem()
    trained, _ = qnn.train(model, ds, qnn.TrainConfig(epochs=1, seed=0))
    path = tmp_path / "model.json"
    qnn.save_checkpoint(trained, path)
    back = qnn.load_checkpoint(path)
    assert np.allclose(back.theta, trained.theta)
    assert np.allclose(back.W, trained.W)
    assert back.template_id == trained.template_id
    assert back.fine_tuned == trained.fine_tuned
    assert qnn.accuracy(back, x, y) == qnn.accuracy(trained, x, y)


def test_checkpoint_bytes_deterministic(tmp_path):
    model, _, _, ds = small_problem()
    trained, _ = qnn.train(model, ds, qnn.TrainConfig(epochs=1, seed=0))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    qnn.save_checkpoint(trained, p1)
    qnn.save_checkpoint(trained, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_evaluate_backends():
    """Both backends take raw features and apply the model's scaler."""
    model, x, y, ds = small_problem()
    raw = ds.train_features[:len(y)]
    ideal = qnn.evaluate(model, raw, y)
    assert ideal == qnn.accuracy(model, x, y)
    profile = noisesim.load_profile("melbourne")
    noisy = noisesim.evaluate_noisy(model, raw, y, profile)
    z = noisesim.noisy_z_features(model, x, profile)
    pred = qnn.softmax(z @ model.W.T + model.b).argmax(axis=1)
    assert noisy == np.mean(pred == y)


def test_init_model_seeded():
    scheme = EncodingScheme("1:1", 4)
    a = qnn.init_model("c2", 2, scheme, seed=9)
    b = qnn.init_model("c2", 2, scheme, seed=9)
    c = qnn.init_model("c2", 2, scheme, seed=10)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)
    assert np.all(np.abs(a.theta) <= math.pi)
    assert np.all(np.abs(a.W) <= 0.1)
