"""Compressing a trained circuit into cheaper students.

The trained teacher's unitary becomes a synthesis target; c2 students of
growing depth approximate it by generalized simulated annealing plus an
exact-gradient polish.  More layers, smaller distance.
"""

import numpy as np

from qdistill import AnnealConfig, EncodingScheme, TrainConfig, fit_scaler, \
    load_iris, train
from qdistill import qnn
from qdistill.circuit import build_template
from qdistill.qnn import HybridModel
from qdistill.synthesis import distill

ds = load_iris(seed=0)
scheme = EncodingScheme("1:1", 4)
scaler = fit_scaler(ds.train_features)

# a gently initialized teacher keeps the target unitary within reach of
# shallow hardware-efficient students
pqc = build_template("c6", 4, 2)
rng = np.random.default_rng(0)
teacher = HybridModel(scheme, pqc,
                      rng.uniform(-0.3, 0.3, pqc.n_params),
                      rng.uniform(-0.1, 0.1, (3, 4)),
                      rng.uniform(-0.1, 0.1, 3),
                      scaler=scaler, template_id="c6", layers=2, seed=0)
teacher, history = train(teacher, ds, TrainConfig(epochs=5, seed=0))
print(f"teacher val accuracy: {history[-1]['val_acc']:.3f}\n")

config = AnnealConfig(polish_method="grad-lbfgs", anneal_fraction=0.05)
print("layers  distance  val_acc")
for layers, budget in ((1, 3000), (2, 6000), (4, 12000), (8, 24000)):
    student, result = distill(teacher, ("c2", layers), config,
                              budget=budget, seeds=[0, 1, 2])
    acc = qnn.evaluate(student, ds.val_features, ds.val_labels)
    print(f"{layers:>6}  {result.distance:>8.4f}  {acc:>7.3f}")
