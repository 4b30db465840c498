"""Approximate, then fine-tune: recovering lost accuracy in two epochs.

Synthesis matches unitaries, not decision boundaries, so the approximated
student usually loses accuracy.  A brief resumption of training from the
synthesized parameters recovers most of it.
"""

from qdistill import AnnealConfig, EncodingScheme, TrainConfig, fit_scaler, \
    init_model, load_iris, train
from qdistill import qnn
from qdistill.synthesis import distill

ds = load_iris(seed=0)
scheme = EncodingScheme("1:1", 4)
scaler = fit_scaler(ds.train_features)

teacher = init_model("c15", layers=7, scheme=scheme, seed=0, scaler=scaler)
teacher, hist = train(teacher, ds, TrainConfig(epochs=10, seed=0))
t_tr = qnn.evaluate(teacher, ds.train_features, ds.train_labels)
print(f"teacher (7 layers): train {t_tr:.3f}  "
      f"val {qnn.evaluate(teacher, ds.val_features, ds.val_labels):.3f}\n")

config = AnnealConfig(polish_method="grad-lbfgs", anneal_fraction=0.2)
print("student  distance  approx(train/val)  finetuned(train/val)")
for layers, budget in ((2, 15000), (4, 20000)):
    student, result = distill(teacher, ("c15", layers), config,
                              budget=budget, seeds=[0, 1, 2])
    ap = (qnn.evaluate(student, ds.train_features, ds.train_labels),
          qnn.evaluate(student, ds.val_features, ds.val_labels))
    tuned, _ = train(student, ds, TrainConfig(epochs=2, seed=0, batch_size=16))
    ft = (qnn.evaluate(tuned, ds.train_features, ds.train_labels),
          qnn.evaluate(tuned, ds.val_features, ds.val_labels))
    print(f"{layers:>7}  {result.distance:>8.4f}  "
          f"{ap[0]:.3f} / {ap[1]:.3f}      {ft[0]:.3f} / {ft[1]:.3f}")
