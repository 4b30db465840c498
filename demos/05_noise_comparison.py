"""Why compress at all: shallow students survive hardware noise better.

Both models are evaluated exactly as density matrices under a calibrated
device profile (depolarizing + thermal relaxation per gate, readout error).
The deep teacher's gate count eats its accuracy; the compressed and
fine-tuned student keeps most of its ideal performance.
"""

import numpy as np

from qdistill import AnnealConfig, EncodingScheme, TrainConfig, \
    evaluate_noisy, fit_scaler, init_model, load_iris, load_profile, train
from qdistill import qnn
from qdistill.synthesis import distill

ds = load_iris(seed=0)
scheme = EncodingScheme("1:1", 4)
scaler = fit_scaler(ds.train_features)
profile = load_profile("melbourne")

teacher = init_model("c15", layers=7, scheme=scheme, seed=0, scaler=scaler)
teacher, _ = train(teacher, ds, TrainConfig(epochs=10, seed=0))

config = AnnealConfig(polish_method="grad-lbfgs", anneal_fraction=0.2)
student, result = distill(teacher, ("c15", 4), config, budget=20000,
                          seeds=[0, 1, 2])
print(f"student 4L: distance {result.distance:.4f} (seed {result.seed})")
student, _ = train(student, ds, TrainConfig(epochs=2, seed=0, batch_size=16))

x = np.vstack([ds.train_features, ds.val_features])
y = np.concatenate([ds.train_labels, ds.val_labels])
for label, model in (("teacher 7L", teacher), ("student 4L", student)):
    ideal = qnn.evaluate(model, x, y)
    noisy = evaluate_noisy(model, x, y, profile)
    print(f"{label}: ideal {ideal:.3f} -> {profile.name} {noisy:.3f}")
