"""Data containers, CSV ingestion, harmonization, splits, and generators.

The single-source sample container is :class:`Dataset`: an immutable
bundle of a float feature matrix, binary labels, feature names, and
optional per-row source tags.  Boosting and prior extraction consume
Datasets; the hierarchical fit, conformal calibration and evaluation
consume an :class:`SMECollection`, which holds every entity's rows in one
table.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (DataError, ValidationError, atomic_write,
                     malformed_artifact)
from .rng import default_rng
from .validation import as_float_matrix, as_name_tuple, check_binary_labels

__all__ = [
    "Dataset",
    "StandardizationStats",
    "SMECollection",
    "HierGroundTruth",
    "load_csv",
    "standardize",
    "apply_standardization",
    "stratified_split",
    "stratified_kfold",
    "make_synthetic_smes",
    "generate_hierarchical_population",
    "save_collection",
    "load_collection",
]

# Cells whose stripped text equals one of these are treated as missing.
_MISSING_TOKENS = frozenset({"", "na", "nan", "null", "none"})

# Columns with a higher missing rate than this get a binary indicator column.
MISSING_INDICATOR_THRESHOLD = 0.05

_STD_FLOOR_EPS = 1e-12

# Rows that load_csv reads and converts at a time.
_CSV_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with binary labels.

    Parameters
    ----------
    features : ndarray of shape (n, p)
        Finite float64 values (already imputed).
    labels : ndarray of shape (n,)
        Binary outcomes, 0 = retain, 1 = churn.
    feature_names : tuple of str
        Unique names, one per column.
    source_tags : tuple of str, optional
        Per-row origin identifiers (source dataset or synthetic entity id).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    source_tags: tuple[str, ...] | None = None

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, features, labels, feature_names,
               source_tags=None) -> "Dataset":
        """A Dataset that takes over ``features``, a fresh float64 matrix
        that nothing else holds, where the constructor would copy it."""
        data = cls.__new__(cls)
        for name, value in (("features", features), ("labels", labels),
                            ("feature_names", feature_names),
                            ("source_tags", source_tags)):
            object.__setattr__(data, name, value)
        data._freeze(copy=False)
        return data

    def _freeze(self, copy: bool) -> None:
        """Check the fields and make the arrays read-only, copying the
        features when ``copy`` (the labels are always a fresh int8 copy)."""
        features = as_float_matrix(self.features, "features")
        labels = check_binary_labels(self.labels)
        names = tuple(str(n) for n in self.feature_names)
        if labels.shape[0] != features.shape[0]:
            raise ValidationError(
                f"labels length {labels.shape[0]} != row count {features.shape[0]}")
        if len(names) != features.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {features.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValidationError("feature names must be unique")
        tags = self.source_tags
        if tags is not None:
            tags = tuple(str(t) for t in tags)
            if len(tags) != features.shape[0]:
                raise ValidationError("source_tags length must match row count")
        if copy:
            features = features.copy()
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "source_tags", tags)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset as a new Dataset (tags carried along)."""
        indices = np.asarray(indices, dtype=np.intp)
        tags = None
        if self.source_tags is not None:
            tags = tuple(self.source_tags[i] for i in indices)
        return Dataset._adopt(self.features[indices], self.labels[indices],
                              self.feature_names, tags)

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.labels.sum())
        return self.n - pos, pos


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column means and (floored) standard deviations of a training set."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        stds = np.asarray(self.stds, dtype=np.float64)
        if means.shape != stds.shape or means.ndim != 1:
            raise ValidationError("means and stds must be 1-D arrays of equal length")
        if np.any(stds <= 0):
            raise ValidationError("stds must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)


def _check_bare_names(names, what: str) -> None:
    """Raise ``ValidationError`` unless every name is a bare file name."""
    for name in names:
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValidationError(f"{what} {name!r} is not a bare file name")


class SMECollection:
    """Every entity's rows, in one feature space, as one row table.

    ``X`` (n, p) and ``y`` (n,) hold entity 0's rows first, then entity
    1's and so on, each entity's rows in their own order; ``entity`` (n,)
    gives each row's index into ``ids`` and ``sizes`` each entity's row
    count, which may be 0.  The arrays are read-only.

    The constructor takes one Dataset per entity, joins them into the
    table and keeps none of them; their source tags are not kept.  Each
    id names its entity's CSV on disk, so it must be a bare file name.
    """

    def __init__(self, smes, ids):
        smes = tuple(smes)
        ids = tuple(str(i) for i in ids)
        if len(smes) < 1:
            raise ValidationError("collection needs at least one entity")
        if len(ids) != len(smes):
            raise ValidationError("ids length must match number of entities")
        if len(set(ids)) != len(ids):
            raise ValidationError("entity ids must be unique")
        _check_bare_names(ids, "entity id")
        names = smes[0].feature_names
        if any(ds.feature_names != names for ds in smes):
            raise ValidationError("all entities must share feature names")
        self._set_table(np.concatenate([ds.features for ds in smes]),
                        np.concatenate([ds.labels for ds in smes]),
                        np.repeat(np.arange(len(smes)), [ds.n for ds in smes]),
                        ids, names)

    @classmethod
    def _from_table(cls, X, y, entity, ids, feature_names) -> "SMECollection":
        """A collection that takes over checked, entity-major arrays."""
        collection = cls.__new__(cls)
        collection._set_table(X, y, entity, ids, feature_names)
        return collection

    def _set_table(self, X, y, entity, ids, feature_names) -> None:
        for array in (X, y, entity):
            array.setflags(write=False)
        self.X, self.y, self.entity, self.ids = X, y, entity, ids
        self.feature_names, self.J = feature_names, len(ids)
        self.sizes = tuple(np.bincount(entity, minlength=self.J).tolist())

    def take(self, mask) -> "SMECollection":
        """The rows where the ``(n,)`` bool ``mask`` holds, in table
        order, with the same ids; an entity may be left with no rows."""
        if np.asarray(mask).dtype != bool:
            raise ValidationError("take needs a bool row mask")
        return SMECollection._from_table(self.X[mask], self.y[mask],
                                         self.entity[mask], self.ids,
                                         self.feature_names)

    def fingerprint(self) -> str:
        """The sha256 of the whole table: ``X`` as little-endian float64,
        ``y`` as int8, ``sizes`` as little-endian int64, then ``ids`` and
        ``feature_names`` as one JSON array."""
        # hashlib loads OpenSSL's libcrypto (3.4 MiB resident with CPython
        # 3.11 on Linux), so only the stages that take a fingerprint pay it.
        import hashlib

        digest = hashlib.sha256()
        for array, dtype in ((self.X, "<f8"), (self.y, "i1"),
                             (self.sizes, "<i8")):
            digest.update(np.ascontiguousarray(array, dtype=dtype).data)
        digest.update(json.dumps([list(self.ids), list(self.feature_names)])
                      .encode("utf-8"))
        return digest.hexdigest()

    def dataset(self, j: int) -> Dataset:
        """Entity j's rows as a Dataset with ``ids[j]`` as every tag."""
        rows = self.entity == j
        return Dataset(self.X[rows], self.y[rows], self.feature_names,
                       (self.ids[j],) * self.sizes[j])


@dataclass(frozen=True)
class HierGroundTruth:
    """Generating parameters of a simulated multi-entity population."""

    mu_true: np.ndarray
    sigma_true: float
    betas_true: np.ndarray
    seed: int

    def to_json(self) -> str:
        return json.dumps({
            "mu_true": [float(v) for v in self.mu_true],
            "sigma_true": float(self.sigma_true),
            "betas_true": [[float(v) for v in row] for row in self.betas_true],
            "seed": int(self.seed),
        }, indent=2)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _float_column(raw: list[str]) -> np.ndarray | None:
    """The cells parsed in one pass, or None when one of them does not
    parse or is NaN.  A column that parses has no missing cell, since
    "nan" is the only missing token ``float`` accepts."""
    try:
        values = np.fromiter(map(float, raw), np.float64, len(raw))
    except ValueError:
        return None
    return None if np.isnan(values).any() else values


def _csv_rows(path: Path):
    """Yield the header row, then each nonblank data row, of a UTF-8 CSV.

    A missing or unreadable file, bytes that are not UTF-8, a malformed
    record or a row whose field count differs from the header's is a
    ``DataError``; a file without a header is a ``ValidationError``.
    Rows are read as they are consumed, so a caller that converts each
    row holds one row of strings at a time.
    """
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path} is empty")
            yield header
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected "
                                    f"{len(header)} fields, got {len(row)}")
                yield row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV: {exc}") from None


def load_csv(path, label_column: str = "target",
             tag_column: str | None = "source") -> Dataset:
    """Load a harmonized CSV into a :class:`Dataset`.

    The file must be UTF-8 with a header row and "." decimal separators.
    Numeric columns are imputed by the column median, categorical columns by
    the most frequent level (ties broken alphabetically) and then one-hot
    encoded keeping every level.  A binary ``<col>_missing`` indicator is
    appended for any column whose missing rate exceeds
    :data:`MISSING_INDICATOR_THRESHOLD`.

    Rows are converted as they are read, ``_CSV_CHUNK_ROWS`` at a time,
    into float blocks joined once the file ends, so the file's records
    are never held all at once.  A column with a cell that does not parse
    or is NaN is text from then on.  A column that turns text in the
    first chunk keeps its raw strings as they are read, so a file whose
    text columns all turn text there is read once, as is a file whose
    columns are all numeric.  A column that turns text in a later chunk
    has lost its earlier cells, so a second read of the file takes the
    raw strings of such columns alone, and that file must be a regular
    file (not a pipe).  A malformed record anywhere in the file is
    reported before a bad label earlier in it.

    Parameters
    ----------
    path : str or Path
        CSV file location.
    label_column : str
        Name of the binary outcome column; every value must parse to 0 or 1.
    tag_column : str or None
        Optional per-row source tag column; silently skipped when absent.

    Returns
    -------
    Dataset
    """
    path = Path(path)
    reader = _csv_rows(path)
    header = next(reader)
    label_idx = header.index(label_column) if label_column in header else None
    tag_idx = header.index(tag_column) if tag_column in header else None
    feature_cols = [j for j in range(len(header)) if j not in (label_idx, tag_idx)]

    blocks: list[np.ndarray] = []
    label_blocks: list[np.ndarray] = []
    tags: list[str] | None = None if tag_idx is None else []
    interned: dict[str, str] = {}
    # Text columns by position in feature_cols: those that turn text in
    # the first chunk keep every raw cell; the others are read again.
    raws: dict[int, list[str]] = {}
    late: set[int] = set()
    bad_label = None
    n = 0
    while chunk := list(islice(reader, _CSV_CHUNK_ROWS)):
        block = np.empty((len(chunk), len(feature_cols)))
        for k, j in enumerate(feature_cols):
            if k in raws:
                raws[k].extend(row[j] for row in chunk)
            elif k not in late:
                cells = [row[j] for row in chunk]
                values = _float_column(cells)
                if values is not None:
                    block[:, k] = values
                elif n == 0:
                    raws[k] = cells
                else:
                    late.add(k)
        blocks.append(block)
        if label_idx is not None:
            labels = np.empty(len(chunk), dtype=np.int8)
            for i, row in enumerate(chunk):
                value = _parse_float(row[label_idx])
                if value is not None and value in (0.0, 1.0):
                    labels[i] = int(value)
                elif bad_label is None:
                    bad_label = ValidationError(f"{path}: data row {n + i + 1}: "
                                                f"label {row[label_idx]!r} is not 0/1")
            label_blocks.append(labels)
        if tags is not None:
            for row in chunk:
                tag = row[tag_idx].strip()
                tags.append(interned.setdefault(tag, tag))
        n += len(chunk)
    if n == 0:
        raise ValidationError(f"{path} contains a header but no data rows")
    if label_idx is None:
        raise ValidationError(f"label column {label_column!r} not found in {path}")
    if bad_label is not None:
        raise bad_label
    block = np.concatenate(blocks)
    del blocks
    labels = np.concatenate(label_blocks)
    if not raws and not late:
        return Dataset._adopt(block, labels,
                              tuple(header[j] for j in feature_cols), tags)
    if late:
        if not path.is_file():
            raise DataError(
                f"{path}: a column with text or missing cells after the first "
                f"{_CSV_CHUNK_ROWS} rows is read twice, so the file must be "
                "a regular file")
        again: dict[int, list[str]] = {k: [] for k in late}
        rows = _csv_rows(path)
        if next(rows) == header:
            for row in rows:
                for k, raw in again.items():
                    raw.append(row[feature_cols[k]])
        if any(len(raw) != n for raw in again.values()):
            raise DataError(f"{path} changed while it was being read")
        raws.update(again)

    columns: list[np.ndarray] = []
    names: list[str] = []
    indicators: list[tuple[str, np.ndarray]] = []
    for k, j in enumerate(feature_cols):
        name = header[j]
        if k not in raws:
            columns.append(block[:, k])
            names.append(name)
            continue
        raw = raws.pop(k)
        missing = np.array([_is_missing(c) for c in raw], dtype=bool)
        present = [raw[i] for i in range(n) if not missing[i]]
        if not present:
            raise DataError(f"{path}: column {name!r} has no observed values")
        parsed = [_parse_float(c) for c in present]
        if all(v is not None for v in parsed):
            values = np.full(n, np.nan)
            values[~missing] = parsed
            values[missing] = float(np.median(np.asarray(parsed)))
            columns.append(values)
            names.append(name)
        else:
            levels = sorted(set(c.strip() for c in present))
            counts = {lv: 0 for lv in levels}
            for c in present:
                counts[c.strip()] += 1
            mode = min(levels, key=lambda lv: (-counts[lv], lv))
            filled = [mode if missing[i] else raw[i].strip() for i in range(n)]
            for lv in levels:
                columns.append(np.array([1.0 if c == lv else 0.0 for c in filled]))
                names.append(f"{name}={lv}")
        if missing.mean() > MISSING_INDICATOR_THRESHOLD:
            indicators.append((f"{name}_missing", missing.astype(np.float64)))

    for ind_name, ind_col in indicators:
        columns.append(ind_col)
        names.append(ind_name)

    features = np.column_stack(columns) if columns else np.empty((n, 0))
    return Dataset._adopt(features, labels, tuple(names), tags)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def standardize(data: Dataset) -> tuple[Dataset, StandardizationStats]:
    """Standardize a Dataset, returning the transformed copy and the stats.

    Population standard deviations (denominator ``n``) are used.  Columns
    with zero variance get their std floored to 1 so downstream divisions
    stay defined; a warning is emitted when that happens.
    """
    if data.n < 2:
        raise ValidationError("standardization needs at least 2 rows")
    stds = data.features.std(axis=0)
    floored = stds < _STD_FLOOR_EPS
    if np.any(floored):
        warnings.warn(f"zero-variance columns {np.flatnonzero(floored).tolist()}"
                      " floored to std 1", stacklevel=2)
        stds = np.where(floored, 1.0, stds)
    stats = StandardizationStats(data.features.mean(axis=0), stds)
    return apply_standardization(data, stats), stats


def apply_standardization(data: Dataset, stats: StandardizationStats) -> Dataset:
    """Apply previously fitted stats to new data (no refitting)."""
    if data.p != stats.means.shape[0]:
        raise ValidationError(
            f"dataset has {data.p} columns, stats expect {stats.means.shape[0]}")
    transformed = data.features - stats.means
    transformed /= stats.stds
    return Dataset._adopt(transformed, data.labels, data.feature_names,
                          data.source_tags)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def _class_indices(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {c: np.flatnonzero(labels == c) for c in (0, 1)}


def stratified_split(labels, test_fraction: float, seed: int) -> np.ndarray:
    """Deterministic stratified train/test split of the 0/1 ``labels``:
    the ``(n,)`` bool array that is True on the test rows.

    Per-class test counts are ``round(count * test_fraction)`` clipped so both
    partitions keep at least one member of each class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = default_rng(seed)
    test = np.zeros(len(labels), dtype=bool)
    for c, idx in sorted(_class_indices(np.asarray(labels)).items()):
        if idx.size < 2:
            raise ValidationError(f"class {c} has {idx.size} members, need >= 2")
        n_test = int(math.floor(idx.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), idx.size - 1)
        perm = rng.permutation(idx.size)
        test[idx[perm[:n_test]]] = True
    return test


def stratified_kfold(labels, K: int, seed: int) -> np.ndarray:
    """Deterministic stratified K-fold partition of the 0/1 ``labels``:
    the ``(n,)`` int array of each row's test fold in ``[0, K)``.

    Fold k's test rows are ``fold == k`` and its training rows
    ``fold != k``.  Fold sizes, and each class's per-fold counts, differ
    by at most one.
    """
    n = len(labels)
    if K < 2:
        raise ValidationError(f"K must be >= 2, got {K}")
    if K > n:
        raise ValidationError(f"K={K} exceeds row count {n}")
    rng = default_rng(seed)
    fold_of = np.empty(n, dtype=np.intp)
    # Each class is dealt round-robin starting where the previous class's
    # remainder stopped, so fold sizes stay within one of each other.
    offset = 0
    for c, idx in sorted(_class_indices(np.asarray(labels)).items()):
        # K == n is the leave-one-out boundary: singleton test folds are
        # returned and the per-class floor cannot apply.
        if idx.size < K and K != n:
            raise ValidationError(
                f"class {c} has {idx.size} members, need >= K={K}")
        perm = rng.permutation(idx.size)
        fold_of[idx[perm]] = (np.arange(idx.size) + offset) % K
        offset += idx.size % K
    return fold_of


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _equal_entities(X, y, J: int, feature_names) -> SMECollection:
    """``J`` entities of equal size over the entity-major ``X`` and ``y``,
    with ids ``sme_00`` .. ``sme_{J-1}`` zero-padded to at least two
    digits."""
    width = max(2, len(str(J - 1)))
    return SMECollection._from_table(
        X, y, np.repeat(np.arange(J), y.size // J),
        tuple(f"sme_{j:0{width}d}" for j in range(J)), feature_names)


def make_synthetic_smes(source: Dataset, J: int, n_per: int,
                        seed: int) -> SMECollection:
    """Build ``J`` synthetic entities by resampling rows with replacement."""
    if source.n == 0:
        raise ValidationError("source dataset is empty")
    if J < 1:
        raise ValidationError(f"J must be >= 1, got {J}")
    if n_per < 10:
        raise ValidationError(f"n_per must be >= 10, got {n_per}")
    rng = default_rng(seed)
    rows = np.concatenate([rng.integers(0, source.n, size=n_per)
                           for _ in range(J)])
    return _equal_entities(source.features[rows], source.labels[rows], J,
                           source.feature_names)


def generate_hierarchical_population(
    p: int, J: int, n_per: int, mu_scale: float, sigma_true: float, seed: int,
) -> tuple[SMECollection, HierGroundTruth]:
    """Simulate a multi-entity logistic population with known ground truth.

    The population mean coefficient vector is drawn with scale ``mu_scale``,
    per-entity coefficients deviate from it with scale ``sigma_true``,
    features are standard normal, and outcomes are Bernoulli through the
    logistic link.  Draw order is fixed (mean, deviations, then per-entity
    features and outcomes) so results are bit-reproducible from the seed.
    """
    if p < 1 or J < 1:
        raise ValidationError(f"p and J must be >= 1, got p={p}, J={J}")
    if n_per < 10:
        raise ValidationError(f"n_per must be >= 10, got {n_per}")
    if sigma_true < 0:
        raise ValidationError(f"sigma_true must be >= 0, got {sigma_true}")
    rng = default_rng(seed)
    mu_true = mu_scale * rng.standard_normal(p)
    betas_true = mu_true + sigma_true * rng.standard_normal((J, p))
    X = np.empty((J, n_per, p))
    y = np.empty((J, n_per), dtype=np.int8)
    for j, beta in enumerate(betas_true):
        X[j] = X_j = rng.standard_normal((n_per, p))
        y[j] = rng.uniform(size=n_per) < 1.0 / (1.0 + np.exp(-X_j @ beta))
    names = tuple(f"x{k:02d}" for k in range(p))
    truth = HierGroundTruth(mu_true, float(sigma_true), betas_true, seed)
    return _equal_entities(X.reshape(-1, p), y.ravel(), J, names), truth


# ---------------------------------------------------------------------------
# Collection persistence: one CSV per entity plus a manifest
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """A header row, then ``rows``: comma-separated, quoted where a cell
    needs it, each line ending in ``\\n``."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_dataset_csv(ds: Dataset, path: Path, label_column: str = "target",
                       tag_column: str = "source") -> None:
    header = list(ds.feature_names) + [label_column]
    rows = ([*map(repr, ds.features[i].tolist()), str(int(ds.labels[i]))]
            for i in range(ds.n))
    if ds.source_tags is not None:
        header.append(tag_column)
        rows = (row + [tag] for row, tag in zip(rows, ds.source_tags))
    _write_csv(path, header, rows)


def save_collection(collection: SMECollection, out_dir,
                    force: bool = False) -> Path:
    """Write per-entity CSVs plus ``manifest.json``; returns the manifest
    path.  Entity j's CSV is ``<ids[j]>.csv``, and its ``source`` column
    holds ``ids[j]`` on every row."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists() and not force:
        raise DataError(f"{manifest_path} exists (use force to overwrite)")
    files = []
    for j, sme_id in enumerate(collection.ids):
        fname = f"{sme_id}.csv"
        target = out_dir / fname
        if target.exists() and not force:
            raise DataError(f"{target} exists (use force to overwrite)")
        _write_dataset_csv(collection.dataset(j), target)
        files.append(fname)
    manifest = {"ids": list(collection.ids), "files": files}
    with atomic_write(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_collection(path) -> SMECollection:
    """Load a collection from a manifest path or its directory.

    Each ``ids`` and ``files`` entry must be a bare file name, so entity
    CSVs are read from and written to a collection's own directory.
    """
    path = Path(path)
    manifest_path = path / "manifest.json" if path.is_dir() else path
    if not manifest_path.exists():
        raise DataError(f"no manifest at {manifest_path}")
    with malformed_artifact(f"manifest {manifest_path}"):
        manifest = json.loads(manifest_path.read_bytes())
        ids = as_name_tuple(manifest["ids"], "ids")
        files = as_name_tuple(manifest["files"], "files")
        if len(ids) != len(files):
            raise ValueError(f"{len(ids)} ids for {len(files)} files")
        _check_bare_names(ids + files, "manifest entry")
    return SMECollection([load_csv(manifest_path.parent / fname)
                          for fname in files], ids)
