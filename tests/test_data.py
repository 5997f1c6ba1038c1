"""Toy generator, CSV ingestion, splits, standardization, corruption."""

import numpy as np
import pytest

from mcni.data import (DataError, Dataset, Standardizer, gaussian_corrupt,
                       gen_toy, load_csv, read_table, save_csv, split,
                       standardize_fit_apply, toy_mean)


# ---------------------------------------------------------------------------
# toy generator

def test_toy_grid_origin_has_no_noise():
    ds = gen_toy(5, seed=0)
    assert np.array_equal(ds.X[:, 0], [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert ds.Y[2, 0] == 0.0          # mean and noise both vanish at x=0


def test_toy_mean_function():
    assert abs(toy_mean(0.5) - 0.3) < 1e-15
    assert toy_mean(0.0) == 0.0


def test_toy_noise_std_scales_with_x():
    """Across many regenerations the sample std of y at x=1 approaches
    0.2 * |1| = 0.2."""
    ys = np.array([gen_toy(5, seed=s).Y[3, 0] for s in range(20_000)])
    resid = ys - toy_mean(1.0)
    assert abs(resid.std() - 0.2) / 0.2 < 0.02


def test_toy_random_x_sorted_in_range():
    ds = gen_toy(50, seed=3, random_x=True)
    x = ds.X[:, 0]
    assert np.all(np.diff(x) >= 0.0)
    assert x.min() >= -2.0 and x.max() <= 2.0


def test_toy_seeded_reproducibility():
    a, b = gen_toy(20, seed=9), gen_toy(20, seed=9)
    assert np.array_equal(a.Y, b.Y)


def test_toy_rejects_empty():
    with pytest.raises(ValueError):
        gen_toy(0)


# ---------------------------------------------------------------------------
# CSV round trip

def test_save_load_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(X=rng.normal(size=(17, 3)) * 1e3,
                 Y=rng.normal(size=(17, 1)) * 1e-7,
                 columns=["a", "b", "c", "t"])
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path, target="t")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert back.columns == ds.columns


def test_target_selection_by_name_and_index(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("p,q,r\n1,2,3\n4,5,6\n")
    by_name = load_csv(path, target="q")
    assert by_name.Y[:, 0].tolist() == [2.0, 5.0]
    assert by_name.X.tolist() == [[1.0, 3.0], [4.0, 6.0]]
    by_index = load_csv(path, target=1)
    assert np.array_equal(by_index.Y, by_name.Y)
    by_default = load_csv(path)
    assert by_default.Y[:, 0].tolist() == [3.0, 6.0]


def test_classification_labels_parsed_as_ints(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x0,x1,label\n0.5,0.1,1\n0.2,0.9,0\n")
    ds = load_csv(path, task="classification")
    assert ds.Y.dtype == np.int64
    assert ds.Y.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# CSV error reporting

def test_missing_file_named_in_error(tmp_path):
    with pytest.raises(DataError, match="no such data file"):
        load_csv(tmp_path / "absent.csv")


def test_ragged_row_names_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(path)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match="row 3.*'b'"):
        load_csv(path)


def test_non_finite_cells_rejected_with_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,nan\ninf,2\n")
    with pytest.raises(DataError, match="non-finite cell at row 2, column 'y'"):
        load_csv(path)
    path.write_text("x,y\n1,2\n-inf,2\n")
    with pytest.raises(DataError, match="row 3, column 'x'"):
        load_csv(path)


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path)


def test_blank_lines_skipped_row_numbers_physical(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n1,2\n\n3,4\n\n")
    ds = load_csv(path)
    assert np.array_equal(ds.X[:, 0], [1.0, 3.0])
    assert np.array_equal(ds.Y[:, 0], [2.0, 4.0])
    path.write_text("a,b\n1,2\n\n3,x\n")
    with pytest.raises(DataError, match="row 4, column 'b'"):
        load_csv(path)


def test_blank_only_body_has_no_data_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n\n\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path)


def test_repeated_header_name_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(DataError, match=r"repeated column names \['a'\]"):
        load_csv(path)
    path.write_text("a, a\n1,2\n")          # names compare stripped
    with pytest.raises(DataError, match="repeated"):
        load_csv(path)


def test_empty_file_and_non_utf8_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(DataError, match="no header row"):
        load_csv(path)
    path.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(path)


def test_read_table_returns_stripped_header_and_float_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" pred , target\n1.5,2\n-3,4e-3\n")
    header, table = read_table(path)
    assert header == ["pred", "target"]
    assert table.dtype == np.float64
    assert np.array_equal(table, [[1.5, 2.0], [-3.0, 4e-3]])


def test_single_column_rejected(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a\n1\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_unknown_target_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="no column named"):
        load_csv(path, target="z")


def test_fractional_class_labels_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x,label\n1.0,0.5\n")
    with pytest.raises(DataError, match="integers"):
        load_csv(path, task="classification")


# ---------------------------------------------------------------------------
# split

def test_split_partitions_without_overlap():
    ds = Dataset(X=np.arange(100, dtype=float)[:, None],
                 Y=np.zeros((100, 1)))
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=4)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    seen = np.concatenate([train.X[:, 0], val.X[:, 0], test.X[:, 0]])
    assert sorted(seen.tolist()) == list(range(100))


def test_split_is_seeded():
    ds = Dataset(X=np.arange(30, dtype=float)[:, None], Y=np.zeros((30, 1)))
    a = split(ds, seed=5)[0].X
    b = split(ds, seed=5)[0].X
    c = split(ds, seed=6)[0].X
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_validation():
    ds = Dataset(X=np.ones((10, 1)), Y=np.ones((10, 1)))
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split(ds, (0.0, 0.5, 0.5))


def test_split_leaving_a_part_empty_is_a_data_error():
    ds = Dataset(X=np.ones((10, 1)), Y=np.ones((10, 1)))
    with pytest.raises(DataError, match="training set empty"):
        split(ds, (0.0, 0.5, 0.5))
    with pytest.raises(DataError, match="validation set empty"):
        split(ds, (1.0, 0.0, 0.0))
    with pytest.raises(DataError, match="test set empty"):
        split(ds, (0.5, 0.5, 0.0))
    tiny = Dataset(X=np.ones((3, 1)), Y=np.ones((3, 1)))
    with pytest.raises(DataError, match="3 rows .* test set empty"):
        split(tiny, (0.8, 0.1, 0.1))        # 2 / 1 / 0 rows


# ---------------------------------------------------------------------------
# standardization

def test_standardize_uses_train_statistics_only():
    rng = np.random.default_rng(7)
    train = Dataset(X=rng.normal(2.0, 3.0, size=(200, 2)),
                    Y=rng.normal(-1.0, 0.5, size=(200, 1)))
    val = Dataset(X=rng.normal(5.0, 1.0, size=(50, 2)),
                  Y=rng.normal(size=(50, 1)))
    s_train, s_val = standardize_fit_apply(train, val)
    assert np.max(np.abs(s_train.X.mean(axis=0))) < 1e-12
    assert np.max(np.abs(s_train.X.std(axis=0) - 1.0)) < 1e-12
    # val was drawn at mean 5 under train stats near mean 2, so it cannot
    # be centered; that is the point
    assert np.min(s_val.X.mean(axis=0)) > 0.5
    expected = (val.X - train.X.mean(axis=0)) / train.X.std(axis=0)
    assert np.max(np.abs(s_val.X - expected)) < 1e-12


def test_constant_column_flagged_not_divided():
    v = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
    s = Standardizer.fit(v)
    assert s.constant_columns.tolist() == [True, False]
    assert s.std[0] == 1.0
    out = s.apply(v)
    assert np.all(out[:, 0] == 0.0)


def test_classification_targets_left_alone():
    X = np.random.default_rng(9).normal(size=(20, 2))
    y = np.arange(20) % 2
    ds = Dataset(X=X, Y=y, task="classification")
    (out,) = standardize_fit_apply(ds)
    assert np.array_equal(out.Y, ds.Y)


# ---------------------------------------------------------------------------
# corruption

def test_zero_sigma_corruption_is_bit_exact_copy():
    X = np.random.default_rng(10).normal(size=(5, 4))
    out = gaussian_corrupt(X, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, X)
    assert out is not X


def test_corruption_std_matches_sigma():
    X = np.zeros((200, 500))
    out = gaussian_corrupt(X, 0.7, np.random.default_rng(11))
    assert abs(out.std() - 0.7) / 0.7 < 0.01


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        gaussian_corrupt(np.ones((2, 2)), -0.1, np.random.default_rng(0))


def test_dataset_row_count_consistency():
    with pytest.raises(DataError):
        Dataset(X=np.ones((3, 2)), Y=np.ones((4, 1)))
