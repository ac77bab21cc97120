"""Data containers, CSV ingestion, harmonization, splits, and generators.

The universal sample container is :class:`Dataset`: an immutable bundle of a
float feature matrix, binary labels, feature names, and optional per-row
source tags.  Everything downstream (boosting, priors, hierarchical fit,
conformal calibration, evaluation) consumes Datasets or collections of them.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError, malformed_artifact
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
        features = features.copy()
        features.setflags(write=False)
        labels = labels.copy()
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
        return Dataset(self.features[indices], self.labels[indices],
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


@dataclass(frozen=True)
class SMECollection:
    """A list of per-entity Datasets sharing one feature space."""

    smes: tuple[Dataset, ...]
    ids: tuple[str, ...]

    def __post_init__(self):
        smes = tuple(self.smes)
        ids = tuple(str(i) for i in self.ids)
        if len(smes) < 1:
            raise ValidationError("collection needs at least one entity")
        if len(ids) != len(smes):
            raise ValidationError("ids length must match number of entities")
        if len(set(ids)) != len(ids):
            raise ValidationError("entity ids must be unique")
        names = smes[0].feature_names
        for ds in smes[1:]:
            if ds.feature_names != names:
                raise ValidationError("all entities must share feature names")
        object.__setattr__(self, "smes", smes)
        object.__setattr__(self, "ids", ids)

    @property
    def J(self) -> int:
        return len(self.smes)

    @property
    def p(self) -> int:
        return self.smes[0].p

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.smes[0].feature_names


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
    rows = list(reader)
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    if label_column not in header:
        raise ValidationError(f"label column {label_column!r} not found in {path}")

    label_idx = header.index(label_column)
    tag_idx = header.index(tag_column) if tag_column in header else None

    labels = np.empty(len(rows), dtype=np.int8)
    for i, row in enumerate(rows):
        value = _parse_float(row[label_idx])
        if value is None or value not in (0.0, 1.0):
            raise ValidationError(
                f"{path}: data row {i + 1}: label {row[label_idx]!r} is not 0/1")
        labels[i] = int(value)

    tags = None
    if tag_idx is not None:
        tags = tuple(row[tag_idx].strip() for row in rows)

    feature_cols = [j for j in range(len(header)) if j not in (label_idx, tag_idx)]
    columns: list[np.ndarray] = []
    names: list[str] = []
    indicators: list[tuple[str, np.ndarray]] = []
    n = len(rows)

    for j in feature_cols:
        name = header[j]
        raw = [row[j] for row in rows]
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
    return Dataset(features, labels, tuple(names), tags)


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
    transformed = (data.features - stats.means) / stats.stds
    return Dataset(transformed, data.labels, data.feature_names, data.source_tags)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def _class_indices(labels: np.ndarray) -> dict[int, np.ndarray]:
    return {c: np.flatnonzero(labels == c) for c in (0, 1)}


def stratified_split(data: Dataset, test_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified train/test split.

    Per-class test counts are ``round(count * test_fraction)`` clipped so both
    partitions keep at least one member of each class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = default_rng(seed)
    train_idx, test_idx = [], []
    for c, idx in sorted(_class_indices(data.labels).items()):
        if idx.size < 2:
            raise ValidationError(f"class {c} has {idx.size} members, need >= 2")
        n_test = int(math.floor(idx.size * test_fraction + 0.5))
        n_test = min(max(n_test, 1), idx.size - 1)
        perm = rng.permutation(idx.size)
        test_idx.append(idx[perm[:n_test]])
        train_idx.append(idx[perm[n_test:]])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return data.subset(train), data.subset(test)


def stratified_kfold(data: Dataset, K: int, seed: int) -> np.ndarray:
    """Deterministic stratified K-fold partition: the ``(n,)`` int array
    of each row's test fold in ``[0, K)``.

    Fold k's test rows are ``fold == k`` and its training rows
    ``fold != k``.  Fold sizes, and each class's per-fold counts, differ
    by at most one.
    """
    if K < 2:
        raise ValidationError(f"K must be >= 2, got {K}")
    if K > data.n:
        raise ValidationError(f"K={K} exceeds row count {data.n}")
    rng = default_rng(seed)
    fold_of = np.empty(data.n, dtype=np.intp)
    # Each class is dealt round-robin starting where the previous class's
    # remainder stopped, so fold sizes stay within one of each other.
    offset = 0
    for c, idx in sorted(_class_indices(data.labels).items()):
        # K == n is the leave-one-out boundary: singleton test folds are
        # returned and the per-class floor cannot apply.
        if idx.size < K and K != data.n:
            raise ValidationError(
                f"class {c} has {idx.size} members, need >= K={K}")
        perm = rng.permutation(idx.size)
        fold_of[idx[perm]] = (np.arange(idx.size) + offset) % K
        offset += idx.size % K
    return fold_of


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _entity_ids(J: int) -> tuple[str, ...]:
    """``sme_00`` .. ``sme_{J-1}``, zero-padded to at least two digits."""
    width = max(2, len(str(J - 1)))
    return tuple(f"sme_{j:0{width}d}" for j in range(J))


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
    ids = _entity_ids(J)
    smes = []
    for sme_id in ids:
        rows = rng.integers(0, source.n, size=n_per)
        smes.append(Dataset(source.features[rows], source.labels[rows],
                            source.feature_names, (sme_id,) * n_per))
    return SMECollection(tuple(smes), ids)


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
    names = tuple(f"x{k:02d}" for k in range(p))
    ids = _entity_ids(J)
    smes = []
    for sme_id, beta in zip(ids, betas_true):
        X = rng.standard_normal((n_per, p))
        probs = 1.0 / (1.0 + np.exp(-X @ beta))
        y = (rng.uniform(size=n_per) < probs).astype(np.int8)
        smes.append(Dataset(X, y, names, (sme_id,) * n_per))
    truth = HierGroundTruth(mu_true, float(sigma_true), betas_true, seed)
    return SMECollection(tuple(smes), ids), truth


# ---------------------------------------------------------------------------
# Collection persistence: one CSV per entity plus a manifest
# ---------------------------------------------------------------------------

def _write_csv(path, header, rows) -> None:
    """A header row, then ``rows``: comma-separated, quoted where a cell
    needs it, each line ending in ``\\n``."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
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
    """Write per-entity CSVs plus ``manifest.json``; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists() and not force:
        raise DataError(f"{manifest_path} exists (use force to overwrite)")
    files = []
    for sme_id, ds in zip(collection.ids, collection.smes):
        fname = f"{sme_id}.csv"
        target = out_dir / fname
        if target.exists() and not force:
            raise DataError(f"{target} exists (use force to overwrite)")
        _write_dataset_csv(ds, target)
        files.append(fname)
    manifest = {"ids": list(collection.ids), "files": files}
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def load_collection(path) -> SMECollection:
    """Load a collection from a manifest path or its directory."""
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
    smes = [load_csv(manifest_path.parent / fname) for fname in files]
    return SMECollection(tuple(smes), ids)
