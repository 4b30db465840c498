"""Hybrid model: angle encoder -> PQC -> per-qubit <Z> -> dense head -> softmax.

The PQC runs as its compiled step list (`circuit.StepList`), the same one
that synthesis fits, on a (dim, batch) block of states that
`encoding.encode_states` builds; this module holds no rotation formula.
Per-qubit <Z> is the populations times `circuit.z_signs`, and `head` maps
it to class probabilities for the ideal model and the noisy one alike.
Gradients are exact: closed-form softmax/cross-entropy backprop for the
dense head, and one forward plus one reverse (adjoint) sweep of the step
list (`StepList.gradient`) for the circuit angles.  Training uses Adam with
fixed constants (`LEARNING_RATE`, `BETA1`, `BETA2`, `EPSILON`) and is
bit-deterministic for a fixed seed.  `evaluate` scores the ideal model;
`noisesim.evaluate_noisy` scores it under a device profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, build_template, z_signs
from .encoding import (EncodingScheme, Scaler, apply_scaler, encode_states,
                       fit_scaler)

N_CLASSES = 3
_PROB_FLOOR = 1e-12
# Adam
LEARNING_RATE = 0.2
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int | None = None  # None = full batch
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1 (or None for the full "
                             f"batch), got {self.batch_size}")


@dataclass
class HybridModel:
    scheme: EncodingScheme
    pqc: Circuit
    theta: np.ndarray
    W: np.ndarray                  # (3, n_qubits)
    b: np.ndarray                  # (3,)
    scaler: Scaler | None = None
    template_id: str | None = None
    layers: int | None = None
    seed: int | None = None
    history: list = field(default_factory=list)
    fine_tuned: bool = False

    def __post_init__(self):
        self.theta = np.asarray(self.theta, float)
        self.W = np.asarray(self.W, float)
        self.b = np.asarray(self.b, float)
        if self.theta.size != self.pqc.n_params:
            raise ValueError(
                f"theta has {self.theta.size} entries, pqc expects {self.pqc.n_params}")
        if self.W.shape != (N_CLASSES, self.pqc.n_qubits):
            raise ValueError(f"W must be {N_CLASSES}x{self.pqc.n_qubits}")
        if self.b.shape != (N_CLASSES,):
            raise ValueError(f"b must have {N_CLASSES} entries")

    @property
    def n_qubits(self) -> int:
        return self.pqc.n_qubits


def init_model(template_id: str, layers: int, scheme: EncodingScheme,
               seed: int = 0, scaler: Scaler | None = None) -> HybridModel:
    pqc = build_template(template_id, scheme.n_qubits, layers)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, pqc.n_params)
    w = rng.uniform(-0.1, 0.1, (N_CLASSES, scheme.n_qubits))
    b = rng.uniform(-0.1, 0.1, N_CLASSES)
    return HybridModel(scheme, pqc, theta, w, b, scaler=scaler,
                       template_id=template_id, layers=layers, seed=seed)


# ---------------------------------------------------------------------------
# Forward pass (batched internally)

def head(model: HybridModel, z) -> np.ndarray:
    """Class probabilities softmax(z W^T + b) for rows z of per-qubit <Z>."""
    logits = z @ model.W.T + model.b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(model: HybridModel, features_scaled):
    """(probs, z) for a batch of pre-scaled feature rows."""
    states = encode_states(features_scaled, model.scheme).T
    psi = model.pqc.steps.run(states, model.theta)
    z = (np.abs(psi) ** 2).T @ z_signs(model.n_qubits)
    return head(model, z), z


def _one_hot(labels) -> np.ndarray:
    labels = np.asarray(labels, int).ravel()
    y = np.zeros((labels.size, N_CLASSES))
    y[np.arange(labels.size), labels] = 1.0
    return y


def _cross_entropy(probs, labels) -> float:
    y = _one_hot(labels)
    return float(-np.mean(np.sum(y * np.log(np.maximum(probs, _PROB_FLOOR)),
                                 axis=1)))


def hit_rate(probs, labels) -> float:
    """The fraction of rows whose most probable class is the label."""
    pred = probs.argmax(axis=1)
    return float(np.mean(pred == np.asarray(labels, int).ravel()))


def loss(model: HybridModel, features_scaled, labels) -> float:
    """Mean categorical cross-entropy over the batch."""
    return _cross_entropy(forward_batch(model, features_scaled)[0], labels)


# ---------------------------------------------------------------------------
# Gradients

def gradients(model: HybridModel, features_scaled, labels):
    """(dtheta, dW, db) of the mean cross-entropy over the batch.

    The circuit part is one adjoint sweep: with z = |psi|^2^T S for the sign
    table S = `circuit.z_signs`, the loss has dL/dpsi^* = (S dz^T) * psi,
    and `StepList.gradient` turns that into every angle's derivative.
    """
    x = np.atleast_2d(np.asarray(features_scaled, float))
    y = _one_hot(labels)
    bsz = x.shape[0]
    signs = z_signs(model.n_qubits)
    steps = model.pqc.steps
    tape = steps.run(encode_states(x, model.scheme).T, model.theta,
                     keep=True)
    psi = tape.blocks[-1]
    z = (np.abs(psi) ** 2).T @ signs
    probs = head(model, z)

    dlogits = (probs - y) / bsz
    dW = dlogits.T @ z
    db = dlogits.sum(axis=0)
    dz = dlogits @ model.W                     # (B, n_qubits)

    e = steps.gradient((signs @ dz.T) * psi, tape, model.theta)
    return e.real, dW, db


# ---------------------------------------------------------------------------
# Training and evaluation

def accuracy(model: HybridModel, features_scaled, labels) -> float:
    return hit_rate(forward_batch(model, features_scaled)[0], labels)


def evaluate(model: HybridModel, features, labels) -> float:
    """Ideal classification accuracy; features are raw (the model's scaler
    applies)."""
    if model.scaler is not None:
        features = apply_scaler(model.scaler, features)
    return accuracy(model, features, labels)


def _epoch_metrics(model, xt, yt, xv, yv) -> dict:
    """Loss and accuracy of both splits, from one forward pass per split."""
    metrics = {}
    for split, x, y in (("train", xt, yt), ("val", xv, yv)):
        if len(y):
            probs = forward_batch(model, x)[0]
            metrics[f"{split}_loss"] = _cross_entropy(probs, y)
            metrics[f"{split}_acc"] = hit_rate(probs, y)
        else:
            metrics[f"{split}_loss"] = metrics[f"{split}_acc"] = float("nan")
    return metrics


def train(model: HybridModel, dataset, config: TrainConfig):
    """Adam-train a copy of the model on a Dataset; returns (model, history).

    Epoch 0 of the history holds the untrained metrics, so resuming from a
    synthesized parameter seed starts exactly at the approximated model's
    numbers.
    """
    if len(dataset.train_idx) == 0:
        raise ValueError("empty training split")
    scaler = model.scaler or fit_scaler(dataset.train_features)
    xt = apply_scaler(scaler, dataset.train_features)
    yt = dataset.train_labels
    xv = apply_scaler(scaler, dataset.val_features)
    yv = dataset.val_labels

    model = HybridModel(model.scheme, model.pqc, model.theta.copy(),
                        model.W.copy(), model.b.copy(), scaler=scaler,
                        template_id=model.template_id, layers=model.layers,
                        seed=model.seed, fine_tuned=model.fine_tuned)
    n_theta = model.theta.size
    params = np.concatenate([model.theta, model.W.ravel(), model.b])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    rng = np.random.default_rng(config.seed)
    history = [{"epoch": 0, **_epoch_metrics(model, xt, yt, xv, yv)}]

    step = 0
    for epoch in range(1, config.epochs + 1):
        if config.batch_size is None:
            batches = [np.arange(len(yt))]
        else:
            order = rng.permutation(len(yt))
            batches = [order[i:i + config.batch_size]
                       for i in range(0, len(order), config.batch_size)]
        for batch in batches:
            dtheta, dW, db = gradients(model, xt[batch], yt[batch])
            grad = np.concatenate([dtheta, dW.ravel(), db])
            step += 1
            m = BETA1 * m + (1 - BETA1) * grad
            v = BETA2 * v + (1 - BETA2) * grad ** 2
            mhat = m / (1 - BETA1 ** step)
            vhat = v / (1 - BETA2 ** step)
            params = params - LEARNING_RATE * mhat / (np.sqrt(vhat) + EPSILON)
            model.theta = params[:n_theta]
            model.W = params[n_theta:n_theta + model.W.size].reshape(model.W.shape)
            model.b = params[n_theta + model.W.size:]
        history.append({"epoch": epoch, **_epoch_metrics(model, xt, yt, xv, yv)})

    model.history = history
    return model, history


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(model: HybridModel, path) -> None:
    doc = {
        "template_id": model.template_id,
        "layers": model.layers,
        "n_qubits": model.n_qubits,
        "encoding_mode": model.scheme.mode,
        "second_axis": "RY",   # the 2:1 encoding's second rotation
        "theta": model.theta.tolist(),
        "W": model.W.tolist(),
        "b": model.b.tolist(),
        "scaler": model.scaler.to_dict() if model.scaler else None,
        "seed": model.seed,
        "history": model.history,
        "fine_tuned": model.fine_tuned,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> HybridModel:
    with open(path) as fh:
        doc = json.load(fh)
    scheme = EncodingScheme(doc["encoding_mode"], doc["n_qubits"])
    if doc.get("second_axis", "RY") != "RY":
        raise ValueError(f"second_axis must be 'RY' (the 2:1 encoding's "
                         f"second rotation), got {doc['second_axis']!r}")
    pqc = build_template(doc["template_id"], doc["n_qubits"], doc["layers"])
    scaler = Scaler.from_dict(doc["scaler"]) if doc.get("scaler") else None
    if scaler is not None and not (scaler.mins.shape == scaler.maxs.shape
                                   == (scheme.capacity,)):
        raise ValueError(
            f"checkpoint scaler has {scaler.mins.shape} mins and "
            f"{scaler.maxs.shape} maxs, the {scheme.mode} encoding takes "
            f"{scheme.capacity} features")
    arrays = {k: np.asarray(doc[k], float) for k in ("theta", "W", "b")}
    if scaler is not None:
        arrays.update(scaler_mins=scaler.mins, scaler_maxs=scaler.maxs)
    for key, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint {key} holds non-finite numbers")
    return HybridModel(scheme, pqc, arrays["theta"], arrays["W"], arrays["b"],
                       scaler=scaler, template_id=doc["template_id"],
                       layers=doc["layers"], seed=doc.get("seed"),
                       history=doc.get("history") or [],
                       fine_tuned=bool(doc.get("fine_tuned", False)))
