"""Container, ingestion, standardization, split, and generator contracts."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from churnpool.data import (Dataset, apply_standardization,
                            generate_hierarchical_population, load_collection,
                            load_csv, make_synthetic_smes, save_collection,
                            standardize, stratified_kfold, stratified_split)
from churnpool.errors import DataError, ValidationError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _toy(n=40, p=3, positives=10, seed=0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=int)
    y[:positives] = 1
    return Dataset(rng.normal(size=(n, p)), y,
                   tuple(f"x{k}" for k in range(p)))


class TestDataset:
    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), [0, 2], ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 2)), [0, 1], ("a", "a"))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValidationError):
            Dataset(np.array([[np.nan]]), [0], ("a",))

    def test_immutable(self):
        ds = _toy()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestLoadCsv:
    def test_clean_file_passthrough(self, tmp_path):
        path = _write(tmp_path, "clean.csv",
                      "a,b,target\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.p == 2
        assert ds.feature_names == ("a", "b")
        assert not any(name.endswith("_missing") for name in ds.feature_names)

    def test_missing_column_gets_median_and_indicator(self, tmp_path):
        # 10 rows, one missing cell (10% > 5% threshold). Present values
        # 1..9 have median 5, computed by hand.
        lines = ["a,b,target"]
        for i in range(1, 10):
            lines.append(f"{i},1.0,{i % 2}")
        lines.append(",1.0,0")
        path = _write(tmp_path, "miss.csv", "\n".join(lines) + "\n")
        ds = load_csv(path)
        assert ds.p == 3  # a, b, a_missing
        assert "a_missing" in ds.feature_names
        a = ds.features[:, ds.feature_names.index("a")]
        assert a[-1] == 5.0
        flag = ds.features[:, ds.feature_names.index("a_missing")]
        assert flag.sum() == 1 and flag[-1] == 1.0

    def test_below_threshold_imputes_silently(self, tmp_path):
        lines = ["a,target"] + [f"{i},0" for i in range(1, 25)] + [",1"]
        path = _write(tmp_path, "low.csv", "\n".join(lines) + "\n")
        ds = load_csv(path)  # 1/25 = 4% missing
        assert ds.p == 1

    def test_bad_label_names_row(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "a,target\n1,0\n2,2\n")
        with pytest.raises(ValidationError, match="row 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = _write(tmp_path, "empty.csv", "")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = _write(tmp_path, "ragged.csv", "a,b,target\n1,2,0\n1,0\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_categorical_one_hot_keeps_all_levels(self, tmp_path):
        path = _write(tmp_path, "cat.csv",
                      "plan,target\nbasic,0\npro,1\nbasic,0\n")
        ds = load_csv(path)
        assert set(ds.feature_names) == {"plan=basic", "plan=pro"}
        assert ds.features.sum(axis=1).tolist() == [1.0, 1.0, 1.0]

    def test_tag_column_collected(self, tmp_path):
        path = _write(tmp_path, "tags.csv",
                      "a,target,source\n1,0,telecom\n2,1,bank\n")
        ds = load_csv(path)
        assert ds.source_tags == ("telecom", "bank")
        assert ds.p == 1

    def test_label_preserved_through_harmonization(self, tmp_path):
        lines = ["a,target"] + [f"{i},{i % 3 == 0:d}" for i in range(30)]
        lines.append(",1")
        path = _write(tmp_path, "marginal.csv", "\n".join(lines) + "\n")
        ds = load_csv(path)
        assert int(ds.labels.sum()) == sum(i % 3 == 0 for i in range(30)) + 1


# The fuzz tests below rewrite one file under tmp_path per example.
_FILE_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

_CELLS = st.sampled_from(["0", "1", "2", "-1.5", "1e999", "nan", "na", "",
                          " ", "inf", "basic", "pro", "caf\u00e9", "target",
                          "source", "\"", "\"a,b\"", "x=1", "x_missing"])
_CSV_TEXT = st.lists(st.lists(_CELLS, min_size=1, max_size=5),
                     max_size=8).map(
    lambda rows: "".join(",".join(row) + "\n" for row in rows))

_VALID_CSV = ("tenure,plan,target,source\n3.5,basic,0,caf\u00e9\n"
              ",pro,1,bank\n7,,0,caf\u00e9\n1e2,basic,1,bank\n")


def _dataset_or_rejected(path):
    """``load_csv`` returns a Dataset or raises DataError/ValidationError;
    any other exception fails the calling test."""
    try:
        ds = load_csv(path)
    except (DataError, ValidationError):
        return None
    assert isinstance(ds, Dataset)
    return ds


class TestLoadCsvFuzz:
    @given(raw=st.binary(max_size=300))
    @_FILE_SETTINGS
    def test_random_bytes(self, tmp_path, raw):
        path = tmp_path / "random.csv"
        path.write_bytes(raw)
        _dataset_or_rejected(path)

    @given(text=_CSV_TEXT)
    @_FILE_SETTINGS
    def test_random_cells(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_text(text, encoding="utf-8")
        _dataset_or_rejected(path)

    @given(data=st.data())
    @_FILE_SETTINGS
    def test_truncation(self, tmp_path, data):
        raw = _VALID_CSV.encode("utf-8")
        cut = data.draw(st.integers(0, len(raw)))
        path = tmp_path / "cut.csv"
        path.write_bytes(raw[:cut])
        _dataset_or_rejected(path)

    @given(data=st.data())
    @_FILE_SETTINGS
    def test_ragged_rows(self, tmp_path, data):
        rows = [line.split(",") for line in _VALID_CSV.splitlines()]
        victim = data.draw(st.integers(1, len(rows) - 1))
        width = data.draw(st.integers(1, 8).filter(lambda w: w != 4))
        rows[victim] = ["9"] * width
        path = tmp_path / "ragged.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
        with pytest.raises(DataError, match=f":{victim + 1}:"):
            load_csv(path)

    def test_non_utf8_byte_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(_VALID_CSV.encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv"):
            load_csv(path)


class TestStandardize:
    def test_already_standard_unchanged(self):
        column = np.array([-1.0, 0.0, 1.0]) * math.sqrt(3.0 / 2.0)
        ds = Dataset(column[:, None], [0, 1, 0], ("a",))
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.features[:, 0], column, atol=1e-10)

    def test_constant_column_floored(self):
        ds = Dataset(np.column_stack([np.full(4, 7.0), np.arange(4.0)]),
                     [0, 1, 0, 1], ("c", "x"))
        with pytest.warns(UserWarning, match="zero-variance"):
            out, stats = standardize(ds)
        assert stats.stds[0] == 1.0
        np.testing.assert_array_equal(out.features[:, 0], np.zeros(4))

    def test_population_denominator(self):
        # [1, 2, 3]: mean 2, population std sqrt(2/3); hand arithmetic.
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0], ("a",))
        out, stats = standardize(ds)
        expected = 1.0 / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out.features[:, 0],
                                   [-expected, 0.0, expected], atol=1e-12)
        np.testing.assert_allclose(expected, 1.2247448713915890, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            standardize(Dataset(np.ones((1, 1)), [1], ("a",)))

    def test_apply_reuses_training_stats(self):
        train = _toy(seed=1)
        standardized, stats = standardize(train)
        again = apply_standardization(train, stats)
        np.testing.assert_array_equal(standardized.features, again.features)
        fresh = _toy(seed=2)
        shifted = apply_standardization(fresh, stats)
        # transform uses the training means, so new data is not re-centered
        assert abs(shifted.features.mean()) > 1e-6

    def test_output_moments(self):
        out, _ = standardize(_toy(n=200, seed=3))
        assert np.max(np.abs(out.features.mean(axis=0))) < 1e-10
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)


class TestStratifiedSplit:
    def test_counting_rule(self):
        ds = _toy(n=100, positives=21, seed=4)
        train, test = stratified_split(ds, 0.2, seed=42)
        assert test.n == 20
        assert int(test.labels.sum()) in (4, 5)
        assert train.n + test.n == 100

    def test_union_is_input(self):
        ds = _toy(n=50, positives=13, seed=5)
        train, test = stratified_split(ds, 0.3, seed=0)
        merged = np.sort(np.concatenate([train.features[:, 0],
                                         test.features[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(ds.features[:, 0]))

    def test_keeps_one_per_class_each_side(self):
        ds = _toy(n=10, positives=2, seed=6)
        train, test = stratified_split(ds, 0.9, seed=0)
        for part in (train, test):
            neg, pos = part.class_counts()
            assert neg >= 1 and pos >= 1

    def test_deterministic(self):
        ds = _toy(seed=7)
        a = stratified_split(ds, 0.25, seed=9)
        b = stratified_split(ds, 0.25, seed=9)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_small_class_rejected(self):
        ds = _toy(n=10, positives=1, seed=8)
        with pytest.raises(ValidationError):
            stratified_split(ds, 0.2, seed=0)


class TestStratifiedKfold:
    def test_fold_class_balance(self):
        ds = _toy(n=100, positives=21, seed=9)
        fold = stratified_kfold(ds, 5, seed=3)
        np.testing.assert_array_equal(np.bincount(fold), [20] * 5)
        for k in range(5):
            assert int(ds.labels[fold == k].sum()) in (4, 5)

    def test_partition_property(self):
        ds = _toy(n=37, positives=11, seed=10)
        fold = stratified_kfold(ds, 4, seed=1)
        # One test fold per row, and every fold is used.
        assert fold.shape == (37,)
        assert np.issubdtype(fold.dtype, np.integer)
        assert set(fold.tolist()) == {0, 1, 2, 3}

    def test_leave_one_out_on_balanced(self):
        ds = _toy(n=8, positives=4, seed=11)
        fold = stratified_kfold(ds, 8, seed=1)
        np.testing.assert_array_equal(np.sort(fold), np.arange(8))

    def test_class_smaller_than_k_rejected(self):
        ds = _toy(n=20, positives=3, seed=12)
        with pytest.raises(ValidationError):
            stratified_kfold(ds, 5, seed=0)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_for_any_seed(self, seed):
        ds = _toy(n=30, positives=9, seed=13)
        fold = stratified_kfold(ds, 3, seed=seed)
        assert fold.shape == (30,)
        np.testing.assert_array_equal(np.bincount(fold, minlength=3),
                                      [10] * 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_class_counts_within_one(self, data):
        K = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(2 * K, 60))
        positives = data.draw(st.integers(K, n - K))
        ds = _toy(n=n, positives=positives, seed=14)
        fold = stratified_kfold(ds, K, data.draw(
            st.integers(0, 2 ** 31 - 1)))
        for rows in (np.ones(n, bool), ds.labels == 0, ds.labels == 1):
            counts = np.bincount(fold[rows], minlength=K)
            assert counts.max() - counts.min() <= 1


class TestGenerators:
    def test_resample_counts(self):
        source = _toy(n=60, positives=20, seed=14)
        collection = make_synthetic_smes(source, J=15, n_per=100, seed=5)
        assert collection.J == 15
        assert sum(ds.n for ds in collection.smes) == 1500

    def test_resample_single_sme_allows_duplicates(self):
        source = _toy(n=12, positives=4, seed=15)
        collection = make_synthetic_smes(source, J=1, n_per=12, seed=5)
        assert collection.smes[0].n == 12

    def test_different_seeds_differ(self):
        source = _toy(n=50, positives=15, seed=16)
        def checksum(seed):
            c = make_synthetic_smes(source, J=3, n_per=40, seed=seed)
            blob = b"".join(ds.features.tobytes() for ds in c.smes)
            return hashlib.sha256(blob).hexdigest()
        assert checksum(1) != checksum(2)

    def test_same_seed_identical(self):
        source = _toy(n=50, positives=15, seed=17)
        a = make_synthetic_smes(source, J=3, n_per=40, seed=9)
        b = make_synthetic_smes(source, J=3, n_per=40, seed=9)
        for da, db in zip(a.smes, b.smes):
            np.testing.assert_array_equal(da.features, db.features)

    def test_simulator_degenerate_hierarchy(self):
        collection, truth = generate_hierarchical_population(
            p=4, J=5, n_per=20, mu_scale=1.0, sigma_true=0.0, seed=3)
        np.testing.assert_array_equal(
            truth.betas_true, np.tile(truth.mu_true, (5, 1)))

    def test_simulator_symmetric_margin_rate(self):
        # Margins are centered for any coefficients, so the overall churn
        # rate sits near one half; binomial 3-sigma band.
        collection, _ = generate_hierarchical_population(
            p=3, J=10, n_per=200, mu_scale=0.0, sigma_true=0.0, seed=4)
        labels = np.concatenate([ds.labels for ds in collection.smes])
        se = 0.5 / math.sqrt(labels.size)
        assert abs(labels.mean() - 0.5) < 3 * se

    def test_simulator_between_entity_heterogeneity(self):
        # Entity-level coefficient deviations show up as dispersion of the
        # per-entity feature/label correlations. Null distribution of the
        # same statistic is simulated with sigma_true = 0.
        def statistic(sigma, seed):
            collection, _ = generate_hierarchical_population(
                p=2, J=12, n_per=300, mu_scale=0.5, sigma_true=sigma,
                seed=seed)
            corr = []
            for ds in collection.smes:
                y = ds.labels.astype(float)
                y = y - y.mean()
                cols = ds.features - ds.features.mean(axis=0)
                denom = np.sqrt((cols ** 2).sum(axis=0) * (y ** 2).sum())
                corr.append((cols * y[:, None]).sum(axis=0) / denom)
            return float(np.var(np.asarray(corr), axis=0).sum())

        null = sorted(statistic(0.0, 1000 + i) for i in range(60))
        observed = statistic(1.0, 77)
        assert observed > null[-1]

    def test_simulator_validates_arguments(self):
        with pytest.raises(ValidationError):
            generate_hierarchical_population(0, 3, 20, 1.0, 1.0, 0)
        with pytest.raises(ValidationError):
            generate_hierarchical_population(2, 3, 20, 1.0, -0.5, 0)


class TestCollectionPersistence:
    def test_round_trip(self, tmp_path):
        collection, _ = generate_hierarchical_population(
            p=3, J=4, n_per=15, mu_scale=1.0, sigma_true=0.5, seed=8)
        manifest = save_collection(collection, tmp_path / "smes")
        loaded = load_collection(manifest)
        assert loaded.ids == collection.ids
        for da, db in zip(collection.smes, loaded.smes):
            np.testing.assert_allclose(da.features, db.features, rtol=0,
                                       atol=0)
            np.testing.assert_array_equal(da.labels, db.labels)

    def test_refuses_overwrite_without_force(self, tmp_path):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=12, mu_scale=1.0, sigma_true=0.5, seed=9)
        save_collection(collection, tmp_path / "smes")
        with pytest.raises(DataError):
            save_collection(collection, tmp_path / "smes")
        save_collection(collection, tmp_path / "smes", force=True)
