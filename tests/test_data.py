import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import data

# the toy CSVs hold fewer rows per class than data.PER_CLASS
pytestmark = pytest.mark.filterwarnings("ignore:class .* has only")


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
    train, val = data.stratified_split(labels, seed=0)
    assert data.VAL_FRACTION == 0.2
    assert len(val) == 20
    assert int(np.sum(labels[val] == 0)) == 8


def _toy_csv(rows_per_class=5, classes=(1, 7, 9)):
    lines = [",".join([f"f{i}" for i in range(8)] + ["label"])]
    rng = np.random.default_rng(0)
    for c in classes:
        for _ in range(rows_per_class):
            vals = rng.uniform(size=8)
            lines.append(",".join(f"{v:.4f}" for v in vals) + f",{c}")
    return io.StringIO("\n".join(lines) + "\n")


def test_features_csv_label_remap():
    ds = data.load_features_csv(_toy_csv(), (1, 7, 9), seed=0)
    assert set(ds.labels) == {0, 1, 2}
    assert ds.features.shape == (15, 8)


def test_features_csv_subsampling_cap(monkeypatch):
    monkeypatch.setattr(data, "PER_CLASS", 4)
    ds = data.load_features_csv(_toy_csv(rows_per_class=10), (1, 7, 9),
                                seed=0)
    assert ds.features.shape == (12, 8)
    assert all(int(np.sum(ds.labels == c)) == 4 for c in (0, 1, 2))


def test_features_csv_missing_class_warns():
    with pytest.warns(UserWarning):
        ds = data.load_features_csv(_toy_csv(classes=(1, 7)), (1, 7, 9),
                                    seed=0)
    assert set(ds.labels) == {0, 1}


def test_features_csv_wrong_triplet():
    with pytest.raises(ValueError):
        data.load_features_csv(_toy_csv(), (1, 7), seed=0)
    # a repeated class would take its rows twice, under two labels
    with pytest.raises(ValueError, match="distinct"):
        data.load_features_csv(_toy_csv(), (1, 7, 7), seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2000), st.lists(st.integers(1, 60), min_size=1,
                                      max_size=4))
def test_stratified_split_properties(seed, sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    train, val = data.stratified_split(labels, seed)
    assert len(set(train.tolist()) & set(val.tolist())) == 0
    assert len(train) + len(val) == labels.size
    counts = [int(np.sum(labels[val] == c)) for c in range(len(sizes))]
    assert counts == [int(round(data.VAL_FRACTION * n)) for n in sizes]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_features_csv_rejects_non_finite_cells(cell):
    text = _toy_csv().getvalue().splitlines()
    row = text[3].split(",")
    row[5] = cell
    text[3] = ",".join(row)
    with pytest.raises(ValueError, match=f"CSV line 4: column f5 is {cell}"):
        data.load_features_csv(io.StringIO("\n".join(text) + "\n"),
                               (1, 7, 9))


def test_features_csv_names_a_ragged_row():
    text = _toy_csv().getvalue().splitlines()
    text[4] = "0.1,0.2,0.3,1"
    with pytest.raises(ValueError,
                       match="CSV line 5: expected 9 fields, got 4"):
        data.load_features_csv(io.StringIO("\n".join(text) + "\n"),
                               (1, 7, 9))
