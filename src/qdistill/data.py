"""Dataset ingestion: bundled Iris, 8-feature CSV files, stratified splits.

The expected CSV schema for external feature files is ``f0,...,f7,label``
with integer class labels.  Class triplets are filtered and remapped densely
to {0,1,2} preserving the requested order.  The split protocol is fixed:
each class keeps at most `PER_CLASS` rows, and `VAL_FRACTION` of each class
goes to validation, so Iris splits 120/30 and a full CSV 600/150.  All
sampling and splitting is seeded and recorded in the dataset's provenance
string.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources as importlib_resources

import numpy as np

VAL_FRACTION = 0.2
PER_CLASS = 250


@dataclass
class Dataset:
    features: np.ndarray        # (M, F)
    labels: np.ndarray          # (M,) ints in {0,1,2}
    train_idx: np.ndarray
    val_idx: np.ndarray
    provenance: str

    @property
    def train_features(self):
        return self.features[self.train_idx]

    @property
    def train_labels(self):
        return self.labels[self.train_idx]

    @property
    def val_features(self):
        return self.features[self.val_idx]

    @property
    def val_labels(self):
        return self.labels[self.val_idx]


def stratified_split(labels, seed: int):
    """Disjoint train/val index arrays, stratified per class, seeded."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, val = [], []
    # sorted distinct labels without np.unique, whose first call in a
    # process imports numpy.ma (about 16 ms of start-up under numpy 2)
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_val = int(round(VAL_FRACTION * idx.size))
        val.extend(idx[:n_val])
        train.extend(idx[n_val:])
    return np.sort(np.asarray(train, int)), np.sort(np.asarray(val, int))


def _read_csv(path_or_file, expect_features: int | None = None):
    if hasattr(path_or_file, "read"):
        reader = csv.reader(path_or_file)
        rows = list(reader)
    else:
        with open(path_or_file, newline="") as fh:
            rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty CSV file")
    header = [h.strip() for h in rows[0]]
    n_feat = len(header) - 1
    if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
        raise ValueError(
            f"bad CSV header {header}; expected f0..f{n_feat - 1},label")
    if expect_features is not None and n_feat != expect_features:
        raise ValueError(f"expected {expect_features} feature columns, got {n_feat}")
    feats, labels = [], []
    for lineno, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"CSV line {lineno}: expected {len(header)} "
                             f"fields, got {len(row)}")
        try:
            values = [float(v) for v in row[:-1]]
            labels.append(int(row[-1]))
        except ValueError as exc:
            raise ValueError(f"CSV line {lineno}: {exc}") from exc
        for column, value in zip(header, values):
            if not math.isfinite(value):
                raise ValueError(
                    f"CSV line {lineno}: column {column} is {value}")
        feats.append(values)
    return np.asarray(feats, float), np.asarray(labels, int)


def load_iris(seed: int = 0) -> Dataset:
    """Bundled Iris: 150x4, 3 classes, stratified 120/30 split."""
    ref = importlib_resources.files("qdistill.resources").joinpath("iris.csv")
    with ref.open() as fh:
        feats, labels = _read_csv(fh, expect_features=4)
    if feats.shape != (150, 4):
        raise ValueError(f"corrupt bundled iris.csv: shape {feats.shape}")
    train, val = stratified_split(labels, seed)
    return Dataset(feats, labels, train, val,
                   provenance=f"iris(bundled,seed={seed},split=120/30)")


def load_features_csv(path, class_triplet, seed: int = 0) -> Dataset:
    """Load an 8-feature CSV, filter to three classes, subsample and split.

    Each class is capped at `PER_CLASS` rows (seeded subsample when larger).
    """
    class_triplet = tuple(int(c) for c in class_triplet)
    if len(class_triplet) != 3 or len(set(class_triplet)) != 3:
        raise ValueError(f"class_triplet must name exactly 3 distinct "
                         f"classes, got {class_triplet}")
    feats, labels = _read_csv(path, expect_features=8)
    rng = np.random.default_rng(seed)
    keep_feats, keep_labels, notes = [], [], []
    for new_label, cls in enumerate(class_triplet):
        idx = np.flatnonzero(labels == cls)
        if idx.size == 0:
            warnings.warn(f"class {cls} missing from {path}", stacklevel=2)
            notes.append(f"class{cls}:missing")
            continue
        if idx.size < PER_CLASS:
            warnings.warn(
                f"class {cls} has only {idx.size} rows (< {PER_CLASS})",
                stacklevel=2)
            notes.append(f"class{cls}:{idx.size}")
        elif idx.size > PER_CLASS:
            idx = np.sort(rng.choice(idx, size=PER_CLASS, replace=False))
        keep_feats.append(feats[idx])
        keep_labels.append(np.full(idx.size, new_label, int))
    if not keep_feats:
        raise ValueError(f"none of the classes {class_triplet} present in {path}")
    f = np.concatenate(keep_feats)
    y = np.concatenate(keep_labels)
    train, val = stratified_split(y, seed)
    prov = (f"csv({path},classes={class_triplet},seed={seed},"
            f"rows={len(y)},split={len(train)}/{len(val)}")
    prov += "," + ";".join(notes) + ")" if notes else ")"
    return Dataset(f, y, train, val, provenance=prov)
