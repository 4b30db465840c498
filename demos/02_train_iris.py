"""Training a hybrid classifier on Iris.

Four features map onto four qubits by angle encoding; a parameterized
circuit processes the state and per-qubit <Z> readouts feed a small softmax
head.  Circuit parameters get exact adjoint gradients from one reverse sweep
of the circuit's compiled step list, the head gets closed-form ones, and Adam
updates both jointly.
"""

from qdistill import EncodingScheme, TrainConfig, fit_scaler, init_model, \
    load_iris, train
from qdistill import qnn

ds = load_iris(seed=0)
scheme = EncodingScheme("1:1", 4)
scaler = fit_scaler(ds.train_features)

model = init_model("c6", layers=2, scheme=scheme, seed=0, scaler=scaler)
model, history = train(model, ds, TrainConfig(epochs=10, seed=0))

print("epoch  train_loss  train_acc  val_acc")
for row in history:
    print(f"{row['epoch']:>5}  {row['train_loss']:>10.4f}  "
          f"{row['train_acc']:>9.3f}  {row['val_acc']:>7.3f}")

print(f"\nfinal validation accuracy: "
      f"{qnn.evaluate(model, ds.val_features, ds.val_labels):.3f}")
