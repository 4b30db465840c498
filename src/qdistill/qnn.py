"""Hybrid model: angle encoder -> PQC -> per-qubit <Z> -> dense head -> softmax.

The PQC runs as its compiled step list (`circuit.StepList`), the same one
that synthesis fits, on a (dim, batch) block of encoded states.  Gradients
are exact: closed-form softmax/cross-entropy backprop for the dense head, and
one forward plus one reverse (adjoint) sweep of the step list for the circuit
angles, so shared and scaled parameter slots work.  Training uses Adam with
fixed constants (`LEARNING_RATE`, `BETA1`, `BETA2`, `EPSILON`) and is
bit-deterministic for a fixed seed.  `evaluate` scores the ideal model;
`noisesim.evaluate_noisy` scores it under a device profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, build_template, z_expectations
from .encoding import (ONE_PER_QUBIT, EncodingScheme, Scaler, apply_scaler,
                       fit_scaler)
from .gates import GateKind

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

def encode_states(features, scheme: EncodingScheme) -> np.ndarray:
    """Vectorized encoder: (B, capacity) pre-scaled features -> (B, 2^n) states."""
    x = np.atleast_2d(np.asarray(features, float))
    if x.shape[1] != scheme.capacity:
        raise ValueError(f"expected {scheme.capacity} features, got {x.shape[1]}")
    if np.any(np.abs(x) > math.pi + 1e-9):
        raise ValueError("features must be scaled into [-pi, pi]")
    bsz = x.shape[0]
    inv_sqrt2 = 1 / math.sqrt(2)
    per_qubit = []
    for q in range(scheme.n_qubits):
        if scheme.mode == ONE_PER_QUBIT:
            f = x[:, q]
            v = np.stack([np.exp(-1j * f / 2), np.exp(1j * f / 2)], axis=1) * inv_sqrt2
        else:
            f, g = x[:, 2 * q], x[:, 2 * q + 1]
            v = np.stack([np.exp(-1j * f / 2), np.exp(1j * f / 2)], axis=1) * inv_sqrt2
            c, s = np.cos(g / 2), np.sin(g / 2)
            if scheme.second_axis is GateKind.RY:
                v = np.stack([c * v[:, 0] - s * v[:, 1],
                              s * v[:, 0] + c * v[:, 1]], axis=1)
            else:  # RX
                v = np.stack([c * v[:, 0] - 1j * s * v[:, 1],
                              -1j * s * v[:, 0] + c * v[:, 1]], axis=1)
        per_qubit.append(v)
    out = np.ones((bsz, 1), dtype=complex)
    for q in range(scheme.n_qubits - 1, -1, -1):
        out = np.einsum("bi,bj->bij", out, per_qubit[q]).reshape(bsz, -1)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_batch(model: HybridModel, features_scaled):
    """(probs, logits, z) for a batch of pre-scaled feature rows."""
    states = encode_states(features_scaled, model.scheme).T
    psi = model.pqc.steps.run(states, model.theta)
    z = z_expectations(psi.T, model.n_qubits)
    logits = z @ model.W.T + model.b
    return softmax(logits), logits, z


def _one_hot(labels) -> np.ndarray:
    labels = np.asarray(labels, int).ravel()
    y = np.zeros((labels.size, N_CLASSES))
    y[np.arange(labels.size), labels] = 1.0
    return y


def loss(model: HybridModel, features_scaled, labels) -> float:
    """Mean categorical cross-entropy over the batch."""
    probs, _, _ = forward_batch(model, features_scaled)
    y = _one_hot(labels)
    return float(-np.mean(np.sum(y * np.log(np.maximum(probs, _PROB_FLOOR)),
                                 axis=1)))


# ---------------------------------------------------------------------------
# Gradients

def gradients(model: HybridModel, features_scaled, labels):
    """(dtheta, dW, db) of the mean cross-entropy over the batch.

    The circuit part is one adjoint sweep: with z_bq = <psi_b|Z_q|psi_b>, the
    loss has dL/dpsi^* = lam, lam[i, b] = sum_q dz[b, q] Z_q[i] psi[i, b],
    and `StepList.reverse` turns that into every angle's derivative.
    """
    x = np.atleast_2d(np.asarray(features_scaled, float))
    y = _one_hot(labels)
    bsz = x.shape[0]
    n = model.n_qubits
    steps = model.pqc.steps
    blocks = steps.run(encode_states(x, model.scheme).T, model.theta,
                       keep=True)
    psi = blocks[-1]
    z = z_expectations(psi.T, n)
    probs = softmax(z @ model.W.T + model.b)

    dlogits = (probs - y) / bsz
    dW = dlogits.T @ z
    db = dlogits.sum(axis=0)
    dz = dlogits @ model.W                     # (B, n_qubits)

    signs = 1.0 - 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    dtheta = np.zeros(model.pqc.n_params)
    for p, c in steps.reverse((signs @ dz.T) * psi, blocks, model.theta):
        dtheta[p.slot] += p.scale * c.imag
    return dtheta, dW, db


# ---------------------------------------------------------------------------
# Training and evaluation

def accuracy(model: HybridModel, features_scaled, labels) -> float:
    probs, _, _ = forward_batch(model, features_scaled)
    pred = probs.argmax(axis=1)
    return float(np.mean(pred == np.asarray(labels, int).ravel()))


def evaluate(model: HybridModel, features, labels) -> float:
    """Ideal classification accuracy; features are raw (the model's scaler
    applies)."""
    if model.scaler is not None:
        features = apply_scaler(model.scaler, features)
    return accuracy(model, features, labels)


def _epoch_metrics(model, xt, yt, xv, yv) -> dict:
    return {
        "train_loss": loss(model, xt, yt),
        "train_acc": accuracy(model, xt, yt),
        "val_loss": loss(model, xv, yv) if len(yv) else float("nan"),
        "val_acc": accuracy(model, xv, yv) if len(yv) else float("nan"),
    }


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
        "second_axis": model.scheme.second_axis.value,
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
    scheme = EncodingScheme(doc["encoding_mode"], doc["n_qubits"],
                            GateKind(doc.get("second_axis", "RY")))
    pqc = build_template(doc["template_id"], doc["n_qubits"], doc["layers"])
    scaler = Scaler.from_dict(doc["scaler"]) if doc.get("scaler") else None
    return HybridModel(scheme, pqc, np.asarray(doc["theta"]),
                       np.asarray(doc["W"]), np.asarray(doc["b"]),
                       scaler=scaler, template_id=doc["template_id"],
                       layers=doc["layers"], seed=doc.get("seed"),
                       history=doc.get("history") or [],
                       fine_tuned=bool(doc.get("fine_tuned", False)))
