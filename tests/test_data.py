import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import data


def test_iris_shapes_and_split():
    ds = data.load_iris(seed=0)
    assert ds.features.shape == (150, 4)
    assert ds.labels.shape == (150,)
    assert len(ds.train_idx) == 120
    assert len(ds.val_idx) == 30
    assert set(ds.labels) == {0, 1, 2}


def test_iris_split_is_stratified():
    ds = data.load_iris(seed=3)
    val_labels = ds.val_labels
    assert [int(np.sum(val_labels == c)) for c in (0, 1, 2)] == [10, 10, 10]


def test_iris_deterministic_per_seed():
    a = data.load_iris(seed=5)
    b = data.load_iris(seed=5)
    c = data.load_iris(seed=6)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_split_indices_disjoint_and_complete():
    ds = data.load_iris(seed=1)
    both = np.concatenate([ds.train_idx, ds.val_idx])
    assert len(set(both.tolist())) == 150


def test_stratified_split_fraction():
    labels = np.array([0] * 40 + [1] * 60)
    train, val = data.stratified_split(labels, 0.25, seed=0)
    assert len(val) == 25
    assert int(np.sum(labels[val] == 0)) == 10


def _toy_csv(rows_per_class=5, classes=(1, 7, 9)):
    lines = [",".join([f"f{i}" for i in range(8)] + ["label"])]
    rng = np.random.default_rng(0)
    for c in classes:
        for _ in range(rows_per_class):
            vals = rng.uniform(size=8)
            lines.append(",".join(f"{v:.4f}" for v in vals) + f",{c}")
    return io.StringIO("\n".join(lines) + "\n")


def test_features_csv_label_remap():
    ds = data.load_features_csv(_toy_csv(), (1, 7, 9), seed=0,
                                per_class=5, val_fraction=0.2)
    assert set(ds.labels) == {0, 1, 2}
    assert ds.features.shape == (15, 8)


def test_features_csv_subsampling_cap():
    ds = data.load_features_csv(_toy_csv(rows_per_class=10), (1, 7, 9),
                                seed=0, per_class=4, val_fraction=0.25)
    assert ds.features.shape == (12, 8)
    assert all(int(np.sum(ds.labels == c)) == 4 for c in (0, 1, 2))


def test_features_csv_missing_class_warns():
    with pytest.warns(UserWarning):
        ds = data.load_features_csv(_toy_csv(classes=(1, 7)), (1, 7, 9),
                                    seed=0, per_class=5, val_fraction=0.2)
    assert set(ds.labels) == {0, 1}


def test_features_csv_wrong_triplet():
    with pytest.raises(ValueError):
        data.load_features_csv(_toy_csv(), (1, 7), seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2000), st.floats(0.1, 0.5))
def test_stratified_split_properties(seed, frac):
    labels = np.array([0] * 30 + [1] * 30 + [2] * 30)
    train, val = data.stratified_split(labels, frac, seed)
    assert len(set(train.tolist()) & set(val.tolist())) == 0
    assert len(train) + len(val) == 90
    counts = [int(np.sum(labels[val] == c)) for c in (0, 1, 2)]
    assert max(counts) - min(counts) <= 1
