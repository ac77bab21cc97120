"""Container, ingestion, standardization, split, and generator contracts."""

import contextlib
import csv
import hashlib
import io
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from churnpool.data import (_CSV_CHUNK_ROWS, Dataset, SMECollection, _csv_rows,
                            apply_standardization,
                            generate_hierarchical_population, load_collection,
                            load_csv, make_synthetic_smes, save_collection,
                            standardize, stratified_kfold, stratified_split)
from churnpool.errors import DataError, ValidationError

from _oracles import per_cell_load_csv


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

    def test_constructor_copies_what_it_is_given(self):
        X, y = np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])
        ds = Dataset(X, y, ("a", "b"))
        assert not np.shares_memory(ds.features, X)
        assert not np.shares_memory(ds.labels, y)
        assert X.flags.writeable and y.flags.writeable

    def test_derived_datasets_own_read_only_arrays(self, tmp_path):
        # subset, the standardizers and load_csv hand their fresh arrays
        # to the Dataset instead of having it copy them again.
        source = _toy(n=30, p=3, positives=12, seed=5)
        rows = np.array([3, 0, 7, 7, 29])
        standardized, stats = standardize(source)
        path = _write(tmp_path, "small.csv", "a,plan,target\n1.5,x,0\n"
                      "2.5,y,1\n")
        derived = [
            (source.subset(rows), source.features[rows],
             source.labels[rows]),
            (standardized, (source.features - stats.means) / stats.stds,
             source.labels),
            (apply_standardization(source, stats),
             (source.features - stats.means) / stats.stds, source.labels),
            (load_csv(path), [[1.5, 1.0, 0.0], [2.5, 0.0, 1.0]], [0, 1]),
        ]
        for ds, features, labels in derived:
            for array in (ds.features, ds.labels):
                assert not array.flags.writeable
                assert not np.shares_memory(array, source.features)
                assert not np.shares_memory(array, source.labels)
            np.testing.assert_array_equal(ds.features, features)
            np.testing.assert_array_equal(ds.labels, labels)
        assert not np.shares_memory(derived[1][0].features,
                                    derived[2][0].features)

    def test_subset_allocates_one_output_matrix(self):
        rng = np.random.default_rng(6)
        n, p = 20_000, 20
        ds = Dataset(rng.normal(size=(n, p)), np.arange(n) % 2,
                     tuple(f"x{k}" for k in range(p)))
        rows = np.arange(0, n, 2)
        tracemalloc.start()
        try:
            half = ds.subset(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert half.n == n // 2
        # The half-size output, the isfinite mask and the index array;
        # copying the output again would reach the whole source's size.
        assert peak < 0.8 * ds.features.nbytes, peak / ds.features.nbytes


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


def _mixed_case(token, upper):
    return "".join(c.upper() if u else c for c, u in zip(token, upper))


_PAD = st.sampled_from(["", " ", "  ", "\t"])
_MISSING_CELL = st.tuples(
    _PAD, st.sampled_from(["", "na", "nan", "null", "none"]),
    st.lists(st.booleans(), min_size=4, max_size=4), _PAD).map(
    lambda t: t[0] + _mixed_case(t[1], t[2]) + t[3])
_NUMBER_CELL = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_000", " 2.5 ", "1e3", "-0", "+7"]))
_ODD_CELL = st.one_of(_MISSING_CELL, st.sampled_from(
    ["inf", "-Inf", "1e999", "-nan", "NaN", "basic", "pro", " pro ",
     "caf\u00e9", "1,5"]))


@st.composite
def _column_table(draw):
    """CSV text with a 0/1 target and 1-4 feature columns; each column is
    all numbers, or numbers mixed with missing tokens, infinities and text."""
    n = draw(st.integers(1, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        cell = _NUMBER_CELL if draw(st.booleans()) else st.one_of(
            _NUMBER_CELL, _ODD_CELL)
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"c{k}" for k in range(len(columns))] + ["target"])
    for i in range(n):
        writer.writerow([col[i] for col in columns] + [i % 2])
    return out.getvalue()


def _load_or_error(loader, path):
    try:
        return loader(path)
    except (DataError, ValidationError) as exc:
        return exc


def _assert_matches_per_cell(path):
    """``load_csv`` gives the per-cell oracle's Dataset bit for bit, or the
    same error type with the same message."""
    got = _load_or_error(load_csv, path)
    expected = _load_or_error(per_cell_load_csv, path)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return
    assert got.feature_names == expected.feature_names
    np.testing.assert_array_equal(got.features.view(np.int64),
                                  expected.features.view(np.int64))
    np.testing.assert_array_equal(got.labels, expected.labels)


class TestLoadCsvColumns:
    @given(text=_column_table())
    @_FILE_SETTINGS
    def test_matches_per_cell_parse(self, tmp_path, text):
        _assert_matches_per_cell(_write(tmp_path, "columns.csv", text))

    @given(text=_column_table())
    @_FILE_SETTINGS
    def test_matches_per_cell_parse_in_chunks_of_two(self, tmp_path,
                                                     monkeypatch, text):
        # 1-12 rows in chunks of 2: a column can parse in one chunk and
        # turn to text or missing in a later one.
        monkeypatch.setattr("churnpool.data._CSV_CHUNK_ROWS", 2)
        _assert_matches_per_cell(_write(tmp_path, "columns.csv", text))


class TestLoadCsvStreaming:
    """Rows are converted a chunk at a time; errors keep the order of a
    whole-file read."""

    @pytest.fixture(autouse=True)
    def _small_chunks(self, monkeypatch):
        monkeypatch.setattr("churnpool.data._CSV_CHUNK_ROWS", 2)

    def test_ragged_row_wins_over_earlier_bad_label(self, tmp_path):
        path = _write(tmp_path, "both.csv", "a,target\n1,0\n2,2\n3,1\n4\n")
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:5: expected 2 fields, got 1"

    def test_no_rows_wins_over_missing_label_column(self, tmp_path):
        path = _write(tmp_path, "header.csv", "a,b\n\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path)
        assert str(info.value) == f"{path} contains a header but no data rows"

    def test_first_bad_label_in_a_later_chunk(self, tmp_path):
        path = _write(tmp_path, "late.csv",
                      "a,target\n1,0\n2,1\n3,0\n4,1\n5,7\n6,x\n")
        with pytest.raises(ValidationError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: data row 5: label '7' is not 0/1"

    def test_tags_cross_chunks_as_shared_strings(self, tmp_path):
        path = _write(tmp_path, "tags.csv", "a,target,source\n"
                      + "".join(f"{i},{i % 2}, s{i % 2} \n" for i in range(7)))
        ds = load_csv(path)
        assert ds.source_tags == tuple(f"s{i % 2}" for i in range(7))
        assert ds.source_tags[0] is ds.source_tags[6]
        np.testing.assert_array_equal(ds.labels, [i % 2 for i in range(7)])
        np.testing.assert_array_equal(ds.features[:, 0], np.arange(7.0))

    @pytest.mark.parametrize("mode,text", [
        ("a", "pro,0\n"),
        ("w", "plan,target,extra\nbasic,0,1\npro,1,2\n"),
    ])
    def test_file_that_changes_between_reads(self, tmp_path, monkeypatch,
                                             mode, text):
        # A column that turns text after the first chunk sends load_csv
        # back to the file for its cells.
        path = _write(tmp_path, "changes.csv",
                      "plan,target\n1,0\n2,1\nbasic,0\n")
        reads = []

        def rows_after_edit(p):
            reads.append(p)
            if len(reads) == 2:
                with p.open(mode, encoding="utf-8") as fh:
                    fh.write(text)
            return _csv_rows(p)

        monkeypatch.setattr("churnpool.data._csv_rows", rows_after_edit)
        with pytest.raises(DataError, match="changed while it was being read"):
            load_csv(path)
        assert len(reads) == 2

    @staticmethod
    @contextlib.contextmanager
    def _fifo(tmp_path, text):
        """A named pipe in ``tmp_path`` that a writer thread fills with
        ``text`` once it is opened for reading, then closes."""
        path = tmp_path / "corpus.fifo"
        os.mkfifo(path)

        def write():
            with path.open("w", encoding="utf-8") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            yield path
        finally:
            if writer.is_alive():  # no reader came: let the writer finish
                os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no mkfifo")
    def test_numeric_pipe_is_read_once(self, tmp_path):
        with self._fifo(tmp_path, "a,target\n1,0\n2,1\n3,0\n") as path:
            ds = load_csv(path)
        np.testing.assert_array_equal(ds.features[:, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no mkfifo")
    @pytest.mark.parametrize("cell", ["pro", "NA"])
    def test_pipe_with_text_in_the_first_chunk_is_read_once(self, tmp_path,
                                                             cell):
        # Chunks of 2 rows: the cell in row 2 turns column a to text in
        # the first chunk, so its raw cells are kept as they are read.
        text = f"a,b,target\n1,x,0\n{cell},y,1\n3,x,0\n4,y,1\n5,x,0\n"
        with self._fifo(tmp_path, text) as path:
            got = load_csv(path)
        expected = per_cell_load_csv(_write(tmp_path, "same.csv", text))
        assert got.feature_names == expected.feature_names
        np.testing.assert_array_equal(got.features, expected.features)
        np.testing.assert_array_equal(got.labels, [0, 1, 0, 1, 0])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no mkfifo")
    @pytest.mark.parametrize("cell", ["pro", "NA"])
    def test_pipe_with_late_text_or_missing_cells_is_data_error(self,
                                                                tmp_path,
                                                                cell):
        # Row 3 opens the second chunk, so column a needs a second read.
        with self._fifo(tmp_path,
                        f"a,target\n1,0\n2,1\n{cell},0\n") as path:
            with pytest.raises(DataError) as info:
                load_csv(path)
        assert str(info.value) == (
            f"{path}: a column with text or missing cells after the first "
            "2 rows is read twice, so the file must be a regular file")


class TestLoadCsvReads:
    """A file is read a second time only for a column that turns text
    after the first ``_CSV_CHUNK_ROWS`` rows."""

    @staticmethod
    def _count_reads(monkeypatch):
        reads = []

        def counted(path):
            reads.append(path)
            return _csv_rows(path)

        monkeypatch.setattr("churnpool.data._csv_rows", counted)
        return reads

    @staticmethod
    def _rows(n, late_row):
        """``n`` rows of a numeric column ``a``, a categorical ``plan`` and
        a numeric ``b`` whose cell in data row ``late_row`` is missing."""
        lines = ["a,plan,b,target"]
        for i in range(1, n + 1):
            b = "NA" if i == late_row else f"{i / 7!r}"
            lines.append(f"{i * 0.5!r},{'basic' if i % 3 else 'pro'},{b},"
                         f"{i % 2}")
        return "\n".join(lines) + "\n"

    def test_text_in_the_first_chunk_is_read_once(self, tmp_path,
                                                  monkeypatch):
        path = _write(tmp_path, "early.csv",
                      self._rows(_CSV_CHUNK_ROWS + 10, 5))
        reads = self._count_reads(monkeypatch)
        _assert_matches_per_cell(path)
        assert reads == [path]

    def test_text_after_the_first_chunk_is_read_again(self, tmp_path,
                                                      monkeypatch):
        n = _CSV_CHUNK_ROWS + 10
        path = _write(tmp_path, "late.csv",
                      self._rows(n, _CSV_CHUNK_ROWS + 3))
        reads = self._count_reads(monkeypatch)
        _assert_matches_per_cell(path)
        assert reads == [path, path]
        ds = load_csv(path)
        assert ds.feature_names == ("a", "plan=basic", "plan=pro", "b")
        assert ds.features[_CSV_CHUNK_ROWS + 2, 3] == np.median(
            [i / 7 for i in range(1, n + 1) if i != _CSV_CHUNK_ROWS + 3])


def test_load_csv_peak_memory_is_a_few_feature_matrices(tmp_path):
    # 20,000 x 20 numeric cells and a tag column.  Holding every record
    # as Python strings peaks near 14x the feature matrix; streaming the
    # rows stays near 2x.
    rng = np.random.default_rng(0)
    n, p = 20_000, 20
    X = rng.normal(size=(n, p))
    header = [f"x{k:02d}" for k in range(p)] + ["target", "source"]
    rows = ([*map(repr, X[i].tolist()), str(i % 2), f"src_{i % 4}"]
            for i in range(n))
    path = tmp_path / "wide.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (n, p)
    assert peak < 8 * ds.features.nbytes, peak / ds.features.nbytes


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

    def test_peak_memory_is_about_one_feature_matrix(self):
        # The transform divides in place and the Dataset takes over its
        # result; std's one temporary is freed before then.
        rng = np.random.default_rng(7)
        n, p = 20_000, 20
        ds = Dataset(rng.normal(size=(n, p)), np.arange(n) % 2,
                     tuple(f"x{k}" for k in range(p)))
        tracemalloc.start()
        try:
            out, _ = standardize(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.features.shape == (n, p)
        assert peak < 1.5 * ds.features.nbytes, peak / ds.features.nbytes

    def test_output_moments(self):
        out, _ = standardize(_toy(n=200, seed=3))
        assert np.max(np.abs(out.features.mean(axis=0))) < 1e-10
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)


def _split(ds, test_fraction, seed):
    """``ds`` as (train, test) Datasets, by ``stratified_split``'s mask."""
    test = stratified_split(ds.labels, test_fraction, seed)
    assert test.dtype == bool and test.shape == (ds.n,)
    return ds.subset(np.flatnonzero(~test)), ds.subset(np.flatnonzero(test))


class TestStratifiedSplit:
    def test_counting_rule(self):
        ds = _toy(n=100, positives=21, seed=4)
        train, test = _split(ds, 0.2, seed=42)
        assert test.n == 20
        assert int(test.labels.sum()) in (4, 5)
        assert train.n + test.n == 100

    def test_union_is_input(self):
        ds = _toy(n=50, positives=13, seed=5)
        train, test = _split(ds, 0.3, seed=0)
        merged = np.sort(np.concatenate([train.features[:, 0],
                                         test.features[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(ds.features[:, 0]))

    def test_keeps_one_per_class_each_side(self):
        ds = _toy(n=10, positives=2, seed=6)
        train, test = _split(ds, 0.9, seed=0)
        for part in (train, test):
            neg, pos = part.class_counts()
            assert neg >= 1 and pos >= 1

    def test_deterministic(self):
        ds = _toy(seed=7)
        a = _split(ds, 0.25, seed=9)
        b = _split(ds, 0.25, seed=9)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_small_class_rejected(self):
        ds = _toy(n=10, positives=1, seed=8)
        with pytest.raises(ValidationError):
            stratified_split(ds.labels, 0.2, seed=0)


class TestStratifiedKfold:
    def test_fold_class_balance(self):
        ds = _toy(n=100, positives=21, seed=9)
        fold = stratified_kfold(ds.labels, 5, seed=3)
        np.testing.assert_array_equal(np.bincount(fold), [20] * 5)
        for k in range(5):
            assert int(ds.labels[fold == k].sum()) in (4, 5)

    def test_partition_property(self):
        ds = _toy(n=37, positives=11, seed=10)
        fold = stratified_kfold(ds.labels, 4, seed=1)
        # One test fold per row, and every fold is used.
        assert fold.shape == (37,)
        assert np.issubdtype(fold.dtype, np.integer)
        assert set(fold.tolist()) == {0, 1, 2, 3}

    def test_leave_one_out_on_balanced(self):
        ds = _toy(n=8, positives=4, seed=11)
        fold = stratified_kfold(ds.labels, 8, seed=1)
        np.testing.assert_array_equal(np.sort(fold), np.arange(8))

    def test_class_smaller_than_k_rejected(self):
        ds = _toy(n=20, positives=3, seed=12)
        with pytest.raises(ValidationError):
            stratified_kfold(ds.labels, 5, seed=0)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_partition_for_any_seed(self, seed):
        ds = _toy(n=30, positives=9, seed=13)
        fold = stratified_kfold(ds.labels, 3, seed=seed)
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
        fold = stratified_kfold(ds.labels, K, data.draw(
            st.integers(0, 2 ** 31 - 1)))
        for rows in (np.ones(n, bool), ds.labels == 0, ds.labels == 1):
            counts = np.bincount(fold[rows], minlength=K)
            assert counts.max() - counts.min() <= 1


class TestGenerators:
    def test_resample_counts(self):
        source = _toy(n=60, positives=20, seed=14)
        collection = make_synthetic_smes(source, J=15, n_per=100, seed=5)
        assert collection.J == 15
        assert sum(collection.sizes) == 1500

    def test_resample_single_sme_allows_duplicates(self):
        source = _toy(n=12, positives=4, seed=15)
        collection = make_synthetic_smes(source, J=1, n_per=12, seed=5)
        assert collection.sizes[0] == 12

    def test_different_seeds_differ(self):
        source = _toy(n=50, positives=15, seed=16)
        def checksum(seed):
            c = make_synthetic_smes(source, J=3, n_per=40, seed=seed)
            blob = c.X.tobytes()
            return hashlib.sha256(blob).hexdigest()
        assert checksum(1) != checksum(2)

    def test_same_seed_identical(self):
        source = _toy(n=50, positives=15, seed=17)
        a = make_synthetic_smes(source, J=3, n_per=40, seed=9)
        b = make_synthetic_smes(source, J=3, n_per=40, seed=9)
        np.testing.assert_array_equal(a.X, b.X)

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
        labels = collection.y
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
            for j in range(collection.J):
                ds = collection.dataset(j)
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
        np.testing.assert_allclose(collection.X, loaded.X, rtol=0, atol=0)
        np.testing.assert_array_equal(collection.y, loaded.y)

    def test_refuses_overwrite_without_force(self, tmp_path):
        collection, _ = generate_hierarchical_population(
            p=2, J=2, n_per=12, mu_scale=1.0, sigma_true=0.5, seed=9)
        save_collection(collection, tmp_path / "smes")
        with pytest.raises(DataError):
            save_collection(collection, tmp_path / "smes")
        save_collection(collection, tmp_path / "smes", force=True)

    def test_source_column_holds_the_id(self, tmp_path):
        ds = Dataset(np.eye(2), [0, 1], ("a", "b"), ("other", "tags"))
        save_collection(SMECollection((ds,), ("s0",)), tmp_path)
        with (tmp_path / "s0.csv").open(encoding="utf-8", newline="") as fh:
            assert [row["source"] for row in csv.DictReader(fh)] == [
                "s0", "s0"]


def _unequal_collection(seed=20):
    """Per-entity Datasets of 7, 12 and 9 rows, both classes in each, and
    the collection of them."""
    rng = np.random.default_rng(seed)
    smes = []
    for n in (7, 12, 9):
        y = (np.arange(n) < n // 2).astype(int)
        smes.append(Dataset(rng.normal(size=(n, 2)), rng.permutation(y),
                            ("a", "b")))
    return smes, SMECollection(smes, ("s0", "s1", "s2"))


class TestCollectionTable:
    def test_table_joins_entities_in_order(self):
        smes, collection = _unequal_collection()
        np.testing.assert_array_equal(
            collection.X, np.concatenate([ds.features for ds in smes]))
        np.testing.assert_array_equal(
            collection.y, np.concatenate([ds.labels for ds in smes]))
        np.testing.assert_array_equal(collection.entity,
                                      np.repeat([0, 1, 2], [7, 12, 9]))
        assert collection.sizes == (7, 12, 9) and collection.J == 3
        for array in (collection.X, collection.y, collection.entity):
            assert not array.flags.writeable

    def test_take_keeps_ids_order_and_sizes(self):
        _, collection = _unequal_collection()
        mask = np.random.default_rng(1).random(collection.y.size) < 0.5
        mask[collection.entity == 1] = False
        sub = collection.take(mask)
        assert sub.ids == collection.ids
        assert sub.feature_names == collection.feature_names
        assert sub.sizes == tuple(int(mask[collection.entity == j].sum())
                                  for j in range(3))
        assert sub.sizes[1] == 0
        np.testing.assert_array_equal(sub.entity, collection.entity[mask])
        np.testing.assert_array_equal(sub.X, collection.X[mask])
        np.testing.assert_array_equal(sub.y, collection.y[mask])

    def test_refit_fold_matches_per_entity_subsets(self):
        # A refit's training rows, taken from the table, are the rows
        # that subsetting each entity's Dataset outside fold k gives.
        smes, collection = _unequal_collection()
        folds = [stratified_kfold(ds.labels, 3, seed=j)
                 for j, ds in enumerate(smes)]
        fold = np.concatenate(folds)
        for k in range(3):
            sub = collection.take(fold != k)
            parts = [ds.subset(np.flatnonzero(f != k))
                     for ds, f in zip(smes, folds)]
            np.testing.assert_array_equal(
                sub.X, np.concatenate([ds.features for ds in parts]))
            np.testing.assert_array_equal(
                sub.y, np.concatenate([ds.labels for ds in parts]))
            assert sub.sizes == tuple(ds.n for ds in parts)

    def test_take_needs_bool_mask(self):
        _, collection = _unequal_collection()
        with pytest.raises(ValidationError):
            collection.take(np.arange(3))

    def test_dataset_is_one_entity_tagged_with_its_id(self):
        smes, collection = _unequal_collection()
        for j, ds in enumerate(smes):
            view = collection.dataset(j)
            np.testing.assert_array_equal(view.features, ds.features)
            np.testing.assert_array_equal(view.labels, ds.labels)
            assert view.source_tags == (collection.ids[j],) * ds.n

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "../../escaped",
                                     "/abs"])
    def test_id_must_be_bare_file_name(self, bad):
        smes, _ = _unequal_collection()
        with pytest.raises(ValidationError, match="bare file name"):
            SMECollection(smes, ("s0", bad, "s2"))
