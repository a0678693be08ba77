import numpy as np
import pytest

from kernelcg.datasets import (
    Dataset,
    _toy_inputs,
    gen_toy,
    load_csv,
    load_series_csv,
    write_dataset_csv,
)


def _kurtosis(v):
    v = v - v.mean()
    return float(np.mean(v**4) / np.mean(v**2) ** 2)


def test_gen_toy_sizes():
    data = gen_toy(seed=0)
    assert data.n_train == 100
    assert data.n_test == 100
    assert data.dim == 1


def test_gen_toy_seed_reproducibility():
    a = gen_toy(seed=7)
    b = gen_toy(seed=7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X_star, b.X_star)
    assert np.array_equal(a.y_star, b.y_star)
    c = gen_toy(seed=8)
    assert not np.array_equal(a.y, c.y)


def test_toy_input_halves_distinguishable_by_kurtosis():
    # Monte-Carlo reference (400k draws): mixture kurtosis ~2.49, uniform
    # ~1.79; at a few thousand draws the gap separates cleanly.
    x = _toy_inputs(np.random.default_rng(0), 4000).ravel()
    mixture, uniform = x[:2000], x[2000:]
    assert _kurtosis(mixture) > 2.1
    assert _kurtosis(uniform) < 2.1
    assert np.all(uniform >= 0.0) and np.all(uniform <= 1.0)


def test_load_csv_split_and_determinism(tmp_path):
    path = tmp_path / "data.csv"
    rows = ["a,b,target"] + [f"{i},{i * 2},{i * 3}" for i in range(10)]
    path.write_text("\n".join(rows) + "\n")
    data = load_csv(path, "target", test_fraction=0.5, seed=1)
    assert data.n_train == 5 and data.n_test == 5
    assert data.dim == 2
    again = load_csv(path, "target", test_fraction=0.5, seed=1)
    assert np.array_equal(data.X, again.X)
    shuffled = load_csv(path, "target", test_fraction=0.5, seed=2)
    assert not np.array_equal(data.y, shuffled.y)
    # train/test disjoint: together they cover all 10 targets once
    all_targets = np.sort(np.concatenate([data.y, data.y_star]))
    assert np.array_equal(all_targets, np.arange(10) * 3.0)


def test_load_csv_missing_target_names_headers(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match=r"'missing' not found.*\['a', 'b', 'c'\]"):
        load_csv(path, "missing")


def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match="row 3.*'b'.*'oops'"):
        load_csv(path, "b")


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3 has 1 cells"):
        load_csv(path, "b")


@pytest.mark.parametrize("test_fraction, counts", [(0.1, "3 training and 0 test"), (0.9, "0 training and 3 test")])
def test_load_csv_rejects_a_split_with_an_empty_side(tmp_path, test_fraction, counts):
    path = tmp_path / "data.csv"
    path.write_text("a,target\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match=counts):
        load_csv(path, "target", test_fraction=test_fraction)


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError):
        Dataset(X=[[0.0]], y=[np.nan], X_star=[[1.0]], y_star=[0.0])


def test_dataset_csv_round_trip(tmp_path):
    data = gen_toy(seed=3, n_train=20, n_test=10)
    path = tmp_path / "toy.csv"
    write_dataset_csv(data, path)
    back = load_csv(path, "y", test_fraction=0.9, seed=5)  # the split column wins over both
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.X_star, data.X_star)
    assert np.array_equal(back.y_star, data.y_star)


def test_dataset_csv_rejects_unknown_split_label(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y,split\n0.0,1.0,train\n1.0,2.0,tset\n")
    with pytest.raises(ValueError, match=r"row 3, column 'split'.*'tset'"):
        load_csv(path, "y")


def test_dataset_csv_rejects_a_split_column_with_an_empty_side(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y,split\n0.0,1.0,train\n1.0,2.0,train\n")
    with pytest.raises(ValueError, match="2 training and 0 test"):
        load_csv(path, "y")


def test_masked_series_loader(tmp_path):
    path = tmp_path / "series.csv"
    lines = ["time,value,mask"] + [f"{0.5 * i},{np.sin(i)},{int(i % 3 != 0)}" for i in range(12)]
    path.write_text("\n".join(lines) + "\n")
    data = load_series_csv(path)
    assert data.n_train == 8 and data.n_test == 4
    observed = np.arange(12) % 3 != 0
    assert np.array_equal(data.X[:, 0], 0.5 * np.arange(12)[observed])
    assert np.array_equal(data.y, np.sin(np.arange(12))[observed])
    assert np.array_equal(data.X_star[:, 0], 0.5 * np.arange(12)[~observed])
    assert np.array_equal(data.y_star, np.sin(np.arange(12))[~observed])
    path.write_text("time,value,observed\n0,1,1\n1,1,0\n")
    with pytest.raises(ValueError, match="expected header time,value,mask, got"):
        load_series_csv(path)


def test_masked_series_rejects_irregular_grid(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,value,mask\n0,1,1\n1,1,1\n3,1,0\n")
    with pytest.raises(ValueError, match="not equispaced"):
        load_series_csv(path)


def test_masked_series_rejects_ragged_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,value,mask\n0,1,1\n1,2\n2,1,0\n")
    with pytest.raises(ValueError, match="row 3 has 2 cells, expected 3"):
        load_series_csv(path)


def test_masked_series_reports_bad_cell(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("time,value,mask\n0,1,1\n1,oops,1\n2,1,0\n")
    with pytest.raises(ValueError, match="row 3, column 'value': non-numeric cell 'oops'"):
        load_series_csv(path)
    path.write_text("time,value,mask\n0,1,1\n1,2,1\n2,1,2\n")
    with pytest.raises(ValueError, match="row 4, column 'mask': 2 is neither 0 nor 1"):
        load_series_csv(path)
