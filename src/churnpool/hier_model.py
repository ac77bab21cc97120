"""Three-level hierarchical Bayesian logistic regression.

Level 1 places a Gaussian prior (from the transfer layer) on the population
coefficient mean and a HalfNormal prior on the population scale; level 2
draws per-entity coefficient vectors around the population mean; level 3 is
a Bernoulli likelihood through the logistic link.

Everything is expressed in unconstrained, non-centered coordinates

    theta = (mu, log_sigma, beta_raw[0], ..., beta_raw[J-1])   (row-major)

with per-entity coefficients recovered as ``beta_j = mu + sigma * beta_raw_j``
and ``sigma = exp(log_sigma)``.  The log-posterior keeps all normalization
constants (including the HalfNormal's factor sqrt(2/pi) and the Jacobian of
the log transform), so independent evaluations can match it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SMECollection
from .errors import (ConvergenceError, DataError, ValidationError,
                     check_is_fitted)
from .logreg import fit_penalized_logreg
from .numerics import sigmoid
from .nuts import (Diagnostics, PosteriorTrace, SamplerConfig,
                   _one_blas_thread, sample)
from .validation import as_float_matrix, as_float_vector, check_binary_labels

__all__ = [
    "HierData",
    "HierHyper",
    "HierTarget",
    "posterior_predict_matrix",
    "shrinkage_weight",
    "ShrinkageReport",
    "shrinkage_report",
    "HierarchicalLogistic",
    "INTERCEPT_NAME",
    "INTERCEPT_PRIOR_VAR",
    "check_trace_collection",
]

INTERCEPT_NAME = "intercept"
# Weakly informative prior variance for the appended intercept coefficient
# (the transfer prior has no intercept entry).
INTERCEPT_PRIOR_VAR = 4.0

# Credible mass of the predictive interval.
_INTERVAL_MASS = 0.90

# Rows per probability matrix in posterior_predict_matrix: each holds
# (rows x retained draws) floats, so bigger chunks buy little speed for a
# lot of transient memory.
PREDICT_CHUNK_ROWS = 32

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Per-entity MLE coefficients beyond this magnitude are treated as
# separation and excluded from shrinkage summaries.
_SEPARATION_LIMIT = 1e2
_MLE_RIDGE = 1e-6


def _aligned_zeros(shape) -> np.ndarray:
    """A float64 zero array whose data starts on a 64-byte boundary.

    A ufunc pass over arrays that start mid cache line splits its vectors
    across lines: on 2,800 rows ``np.subtract(a, b, out=c)`` took 2.0-2.2
    us with the three arrays 16, 32 or 48 bytes past a boundary and 1.2 us
    aligned (timeit, one core).  numpy itself aligns data to 16 bytes.
    """
    size = int(np.prod(shape))
    buf = np.zeros(size + 7)
    start = -(buf.ctypes.data // 8) % 8
    return buf[start:start + size].reshape(shape)


def with_intercept(X: np.ndarray) -> np.ndarray:
    """``X`` with the constant-1 intercept column appended last."""
    return np.column_stack([X, np.ones(X.shape[0])])


class HierData:
    """The likelihood's copy of an entity-major row table, in row tiles.

    ``X`` (n, p) and ``y`` (n,) hold entity 0's rows first, then entity
    1's and so on; ``sizes`` gives each entity's row count, 0 allowed.
    They are copied into one stack of equal-length tiles and not kept.
    The tiles are feature-major: ``_tiles`` is one C-contiguous, 64-byte
    aligned ``(n_tiles, p, T)`` array, so that a tile's ``T`` values of
    one feature are contiguous and both of the kernel's products are long
    contiguous passes.  Entity j owns ``ceil(n_j / T)`` consecutive tiles
    (none when it has no rows), and only its last tile ends in zero rows.
    The flat labels ``_y`` (tile by tile, row order within a tile) are 0
    on those padded rows, and ``_xt_one_minus_y`` holds each entity's
    ``X^T (1 - y)``.  A padded row has z = 0, so it adds exactly log 2 to
    the summed softplus (undone by the constant ``_pad_softplus``) and a
    zero row to the gradient.

    ``T`` is the length in ``1 .. n_max`` that minimises
    ``n_tiles * (T + _TILE_COST_ROWS)``, the rows the kernel walks plus a
    fixed cost per tile; ties go to the longer tile.  ``T = n_max`` (one
    tile per entity) is a candidate and never has fewer tiles, so the
    chosen stack never holds more than ``J * n_max`` rows: the tiles cost
    ``n_tiles * T * p`` float64s, at most the block that pads every entity
    to the largest.  Entities of one size always get ``T = n_max``, and
    the one-tile-per-entity stack is the plain padded block, on which the
    kernel needs no gather and no per-entity sum (``_tile_entity`` is
    None).
    """

    # One tile's fixed cost in the gradient, in rows: its two batched
    # matmul steps, the gather of its betas and its share of the
    # per-entity sum.  A least-squares fit to kernel times at p = 11 on
    # one core (T from 8 to n_max; the seed-1 mixed_cv sizes, two more
    # draws of 12 log-uniform sizes in 50-500 and 15 x 100 rows) gave
    # 0.085-0.089 us per tile and 0.0062-0.0075 us per row over three
    # runs, 11-14 rows.  Every value from 8 to 16 picks the same T on all
    # four mixes (100, 100, 68 and 100), and kernel times were flat
    # within noise from T = 40 to 163 on them, so 8 stays: it gave the
    # faster two-worker fits when T = 100 was set against 64.
    _TILE_COST_ROWS = 8

    def __init__(self, X, y, sizes, feature_names):
        self.feature_names = tuple(feature_names)
        self.p = p = len(self.feature_names)
        X = as_float_matrix(X)
        if X.shape[1] != p:
            raise ValidationError(f"X has {X.shape[1]} columns, "
                                  f"expected {p} feature names")
        y = check_binary_labels(y)
        sizes = np.asarray(sizes)
        if (y.size != X.shape[0] or sizes.ndim != 1 or sizes.size == 0
                or sizes.dtype.kind not in "iu" or sizes.min() < 0
                or sizes.sum() != X.shape[0]):
            raise ValidationError("sizes must be one or more entity row "
                                  "counts that sum to the rows of X and y")
        self.n_j = tuple(sizes.tolist())
        self.J = sizes.size
        self.T = T = self.tile_length(sizes)
        counts = -(-sizes // T)                     # tiles of each entity
        self._first_tile = np.cumsum(counts) - counts
        n_tiles = int(counts.sum())
        owner = np.repeat(np.arange(self.J), counts)
        # Real rows of each tile: T, except in an entity's last tile.
        filled = np.minimum(
            sizes[owner] - (np.arange(n_tiles) - self._first_tile[owner]) * T,
            T)
        rows = np.arange(T) < filled[:, None]       # real (not padded) rows
        self._tiles = _aligned_zeros((n_tiles, p, T))
        self._tiles.transpose(0, 2, 1)[rows] = X    # rows are (T, p) views
        y2 = _aligned_zeros((n_tiles, T))
        y2[rows] = y
        self._y = y2.ravel()
        self._pad_softplus = float(rows.size - sizes.sum()) * math.log(2.0)
        self._tile_entity = None if (counts == 1).all() else owner
        # The per-entity sum runs over the entities that have tiles only:
        # reduceat gives an empty segment the next tile's row, not zeros.
        has_tiles = counts > 0
        self._starts = self._first_tile[has_tiles]
        self._owners = None if has_tiles.all() else np.flatnonzero(has_tiles)
        # Each entity's X^T (1 - y), so that the likelihood's label term
        # sum_i (1 - y_i) z_i is sum_j beta_j . _xt_one_minus_y[j].
        ends = np.cumsum(sizes)
        one_minus_y = 1.0 - y
        self._xt_one_minus_y = np.array(
            [X[a:b].T @ one_minus_y[a:b] for a, b in zip(ends - sizes, ends)])

    @classmethod
    def tile_length(cls, sizes) -> int:
        """The tile length ``T`` for entities of ``sizes`` rows (see the
        class docstring); 1 when no entity has rows."""
        sizes = np.asarray(sizes)
        lengths = np.arange(1, max(int(sizes.max()), 1) + 1)
        n_tiles = (-(-sizes[:, None] // lengths)).sum(axis=0)
        cost = n_tiles * (lengths + cls._TILE_COST_ROWS)
        return int(lengths[lengths.size - 1 - np.argmin(cost[::-1])])

    def entity_rows(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Entity j's ``(X, y)`` rows, ``X`` row-major ``(n_j, p)``; both
        are copies, since the tiles are feature-major, and ``y`` is
        float64."""
        n, first = self.n_j[j], self._first_tile[j]
        tiles = slice(first, first + -(-n // self.T))
        X = self._tiles[tiles].transpose(0, 2, 1).reshape(-1, self.p)[:n]
        return X.copy(), self._y.reshape(-1, self.T)[tiles].ravel()[:n].copy()

    def _entity_sums(self, per_tile: np.ndarray) -> np.ndarray:
        """Per-entity sums ``(J, p)`` of the per-tile rows ``(n_tiles, p)``."""
        sums = np.add.reduceat(per_tile, self._starts, axis=0)
        if self._owners is None:
            return sums
        out = np.zeros((self.J, per_tile.shape[1]))
        out[self._owners] = sums
        return out

    @classmethod
    def from_collection(cls, collection: SMECollection) -> "HierData":
        """The collection's table with the intercept column appended."""
        names = collection.feature_names
        if INTERCEPT_NAME in names:
            raise ValidationError(f"feature {INTERCEPT_NAME!r} already present")
        return cls(with_intercept(collection.X), collection.y,
                   collection.sizes, names + (INTERCEPT_NAME,))


@dataclass(frozen=True)
class HierHyper:
    """Fixed hyperparameters: prior location/scale of the population mean
    and the HalfNormal scale of the population deviation."""

    beta0: np.ndarray
    sigma0_diag: np.ndarray
    tau: float = 2.0

    def __post_init__(self):
        beta0 = as_float_vector(self.beta0, "beta0")
        sigma0 = as_float_vector(self.sigma0_diag, "sigma0_diag", beta0.size)
        if np.any(sigma0 <= 0):
            raise ValidationError("sigma0_diag must be strictly positive")
        if self.tau <= 0:
            raise ValidationError("tau must be positive")
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "sigma0_diag", sigma0)

    @classmethod
    def from_prior(cls, prior, feature_names: tuple[str, ...],
                   tau: float = 2.0) -> "HierHyper":
        """Extend a transfer prior over ``feature_names``, or the weak
        prior (``prior=None``: zeros and ones), with the intercept entry:
        mean 0, variance ``INTERCEPT_PRIOR_VAR``.

        Raises ``DataError`` unless the prior was extracted for exactly
        these features, in this order.
        """
        p = len(feature_names)
        if prior is None:
            beta0, sigma0 = np.zeros(p), np.ones(p)
        elif tuple(prior.feature_names) != tuple(feature_names):
            raise DataError(f"prior is over features "
                            f"{list(prior.feature_names)}, the collection "
                            f"has {list(feature_names)}")
        else:
            beta0, sigma0 = prior.beta0, prior.sigma0_diag
        return cls(np.append(beta0, 0.0),
                   np.append(sigma0, INTERCEPT_PRIOR_VAR), tau)

    @property
    def p(self) -> int:
        return self.beta0.size


def param_names(J: int, feature_names) -> tuple[str, ...]:
    """Documented flat order: mu, log_sigma, beta_raw row-major."""
    names = [f"mu[{name}]" for name in feature_names]
    names.append("log_sigma")
    for j in range(J):
        names.extend(f"beta_raw[{j},{name}]" for name in feature_names)
    return tuple(names)


class HierTarget:
    """Sampler target: fused log-posterior and gradient over flat theta.

    The target owns its work arrays: two of the tiles' row count and a
    few small ones, made once here.  ``logp_and_grad`` writes every
    intermediate into them and allocates only the gradient it returns, so
    one target serves one call at a time.  A forked sampler worker has its
    own copy.
    """

    def __init__(self, data: HierData, hyper: HierHyper):
        if data.p != hyper.p:
            raise ValidationError(
                f"data has p={data.p}, hyperparameters have p={hyper.p}")
        self.data = data
        self.hyper = hyper
        self.p = p = data.p
        self.J = J = data.J
        self.dim = p + 1 + J * p
        self._const = (0.5 * math.log(2.0 / math.pi) - math.log(hyper.tau)
                       - float(np.sum(0.5 * np.log(2.0 * math.pi
                                                   * hyper.sigma0_diag)))
                       - J * p * _HALF_LOG_2PI)
        self._tau_sq = hyper.tau ** 2
        self._two_tau_sq = 2.0 * self._tau_sq
        # The Gaussian priors of mu and beta_raw as one quadratic form:
        # with diff = theta - _loc, diff * _neg_prec is their gradient
        # (-(mu - beta0) / sigma0, 0, -beta_raw) and half its dot with
        # diff their log density, up to _const.
        self._loc = np.zeros(self.dim)
        self._loc[:p] = hyper.beta0
        self._neg_prec = np.full(self.dim, -1.0)
        self._neg_prec[:p] = -1.0 / hyper.sigma0_diag
        self._neg_prec[p] = 0.0
        n_tiles, T = data._tiles.shape[0], data.T
        self._diff = np.empty(self.dim)
        self._betas = np.empty((J, p))
        self._tile_betas = (self._betas if data._tile_entity is None
                            else np.empty((n_tiles, p)))
        self._z = _aligned_zeros((n_tiles, 1, T))
        self._e = _aligned_zeros(n_tiles * T)
        self._g_tiles = np.empty((n_tiles, p, 1))

    # Beyond this the HalfNormal term -sigma^2/(2 tau^2) underflows the
    # density to zero; exp() itself would overflow float64 near 710.
    _LOG_SIGMA_CAP = 300.0

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        p, J = self.p, self.J
        data = self.data
        log_sigma = theta[p]
        if log_sigma > self._LOG_SIGMA_CAP:
            # True limit of the log density; the sampler flags the step.
            return -math.inf, np.zeros(self.dim)
        sigma = math.exp(log_sigma)

        # One batched pass over the row tiles; see HierData.  With one
        # tile per entity the tiles are the entities and the betas need
        # no gather, nor the gradient a per-entity sum.
        betas = np.multiply(theta[p + 1:].reshape(J, p), sigma,
                            out=self._betas)
        betas += theta[:p]
        tiles, owner = data._tiles, data._tile_entity
        if owner is not None:
            betas.take(owner, axis=0, out=self._tile_betas, mode="clip")
        z = np.matmul(self._tile_betas[:, None, :], tiles,
                      out=self._z).ravel()
        # ll_i = -softplus(-z) - (1 - y_i) * z covers both labels, and
        # sigmoid(z) = exp(-softplus(-z)).  The split form
        # -softplus(-z) = min(z, 0) - log1p(exp(-|z|)) is overflow-safe for
        # any z and exactly -log 2 at z = 0, which _pad_softplus relies on.
        e = self._e
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=e)
        nsp = np.minimum(z, 0.0, out=z)             # z is not read again
        nsp -= e                                    # -softplus(-z)
        loglik = (float(nsp.sum()) + data._pad_softplus
                  - float(betas.ravel() @ data._xt_one_minus_y.ravel()))
        np.exp(nsp, out=e)                          # sigmoid(z)
        np.subtract(data._y, e, out=e)
        g_beta = np.matmul(tiles, e.reshape(-1, data.T, 1),
                           out=self._g_tiles)[:, :, 0]
        if owner is not None:
            g_beta = data._entity_sums(g_beta)

        diff = np.subtract(theta, self._loc, out=self._diff)
        grad = diff * self._neg_prec
        logp = (loglik + 0.5 * float(diff @ grad) + self._const
                - sigma * sigma / self._two_tau_sq + log_sigma)
        grad[:p] += g_beta.sum(axis=0)
        grad[p] = (sigma * float(g_beta.ravel() @ theta[p + 1:])
                   - sigma * sigma / self._tau_sq + 1.0)
        g_beta *= sigma
        grad[p + 1:] += g_beta.ravel()
        return logp, grad

    def init_point(self) -> np.ndarray:
        """Population mean at the transfer prior, sigma = 1, deviations 0."""
        return np.concatenate([self.hyper.beta0,
                               np.zeros(1 + self.J * self.p)])

    def names(self) -> tuple[str, ...]:
        return param_names(self.J, self.data.feature_names)


# ---------------------------------------------------------------------------
# Posterior predictive
# ---------------------------------------------------------------------------

def _trace_dims(trace: PosteriorTrace, p: int) -> int:
    J, rem = divmod(trace.dim - p - 1, p)
    if rem != 0 or J < 1:
        raise ValidationError(
            f"trace dim {trace.dim} incompatible with p={p}")
    return J


def _entity_betas(flat: np.ndarray, p: int, j: int) -> np.ndarray:
    """Entity j's coefficient draws ``mu + sigma * beta_raw_j``: (M, p)."""
    braw = flat[:, p + 1 + j * p: p + 1 + (j + 1) * p]
    return flat[:, :p] + np.exp(flat[:, p])[:, None] * braw


def check_trace_collection(trace: PosteriorTrace,
                           collection: SMECollection) -> None:
    """Raise ``DataError`` unless the trace's parameter names are those of
    a fit on the collection: ``param_names`` over its entity count and its
    features plus the intercept.  The message names the first parameter
    that differs."""
    features = collection.feature_names + (INTERCEPT_NAME,)
    expected = param_names(collection.J, features)
    fitted = trace.param_names
    if fitted == expected:
        return
    k = next((k for k, (a, b) in enumerate(zip(fitted, expected)) if a != b),
             min(len(fitted), len(expected)))

    def name(names):
        return repr(names[k]) if k < len(names) else "missing"

    raise DataError(f"trace parameter {k} is {name(fitted)}, where a fit on "
                    f"the collection ({collection.J} entities, features "
                    f"{list(features)}) has {name(expected)}")


def _order_statistic(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Lower order statistic at level q: the ceil(q*M)-th smallest value."""
    m = sorted_values.shape[-1]
    k = min(max(int(math.ceil(q * m)), 1), m)
    return sorted_values[..., k - 1]


def _check_entity(entity, n: int, J: int) -> np.ndarray:
    """One entity index per row: a scalar is repeated ``n`` times."""
    entity = np.asarray(entity)
    if entity.ndim == 0:
        entity = np.full(n, entity)
    if entity.dtype.kind not in "iu" or entity.shape != (n,):
        raise ValidationError(f"entity must be one integer or {n} integers, "
                              f"got {entity.dtype} of shape {entity.shape}")
    if n and not (entity.min() >= 0 and entity.max() < J):
        raise ValidationError(f"entity indices must lie in [0, {J})")
    return entity


def posterior_predict_matrix(trace: PosteriorTrace, X, entity
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior predictive mean and 90% credible bounds for rows of ``X``.

    ``X`` holds raw feature rows, without the intercept column, which is
    appended here.  ``entity`` is one entity index for every row, or one
    index per row, each in ``[0, J)``.  Each entity's coefficient draws
    are decoded once, every retained draw of every chain is pooled, and
    rows are scored in chunks of at most ``PREDICT_CHUNK_ROWS``.  The
    bounds are the empirical 0.05 and 0.95 quantiles of the per-draw
    probabilities under the lower-order-statistic rule, so they are
    always realized draws.  The three arrays follow the input row order.
    The products run on one BLAS thread: they are too small to split, and
    on a loaded machine a second thread waits for a busy core.
    """
    X = as_float_matrix(X)
    p = X.shape[1] + 1
    J = _trace_dims(trace, p)
    # The draw count alone can fit several widths; the names pin one.
    if trace.param_names[p:p + 1] != ("log_sigma",):
        raise ValidationError(f"X has {p - 1} feature columns; the trace "
                              f"was fitted on a different number")
    entity = _check_entity(entity, X.shape[0], J)
    X = with_intercept(X)
    flat = trace.flat()
    lo_q = (1.0 - _INTERVAL_MASS) / 2.0
    mean, lower, upper = np.empty((3, X.shape[0]))
    with _one_blas_thread():
        for j in np.unique(entity):
            betas = _entity_betas(flat, p, j)              # (M, p)
            rows = np.flatnonzero(entity == j)
            for start in range(0, rows.size, PREDICT_CHUNK_ROWS):
                chunk = rows[start:start + PREDICT_CHUNK_ROWS]
                probs = sigmoid(X[chunk] @ betas.T)        # (rows, M)
                mean[chunk] = probs.mean(axis=1)
                probs.sort(axis=1)
                lower[chunk] = _order_statistic(probs, lo_q)
                upper[chunk] = _order_statistic(probs, 1.0 - lo_q)
    return mean, lower, upper


# ---------------------------------------------------------------------------
# Shrinkage
# ---------------------------------------------------------------------------

def shrinkage_weight(sigma_industry_sq: float, sigma_within_sq: float,
                     n: int) -> float:
    """Fraction of the entity MLE retained by the approximate posterior mean:
    ``sigma_ind^2 / (sigma_ind^2 + sigma_within^2 / n)``."""
    if sigma_industry_sq < 0:
        raise ValidationError("sigma_industry_sq must be >= 0")
    if sigma_within_sq < 0:
        raise ValidationError("sigma_within_sq must be >= 0")
    if n < 1:
        raise ValidationError("n must be >= 1")
    denom = sigma_industry_sq + sigma_within_sq / n
    if denom == 0.0:
        raise ValidationError("shrinkage weight undefined when both variances are 0")
    return sigma_industry_sq / denom


@dataclass
class ShrinkageReport:
    """Per-entity, per-feature shrinkage weights plus the coefficient views
    (entity MLE, population mean, hierarchical posterior mean)."""

    lambda_jk: np.ndarray
    mle: np.ndarray
    posterior_means: np.ndarray
    population_mean: np.ndarray
    sigma_industry_sq: float
    flagged: np.ndarray
    n_j: tuple[int, ...]
    lambda_bar: float


def shrinkage_report(trace: PosteriorTrace, data: HierData) -> ShrinkageReport:
    """Estimate per-entity shrinkage weights from a converged trace.

    The between-entity variance is the posterior mean of sigma^2; the
    within-entity contribution per feature is the diagonal of the inverse
    observed Fisher information at a ridge-stabilized entity MLE.  Entities
    whose MLE fails or runs away (separation) are flagged and excluded
    from the mean weight.
    """
    p, J = data.p, data.J
    fitted_J = _trace_dims(trace, p)
    if fitted_J != J:
        raise ValidationError(f"trace was fitted on {fitted_J} entities, "
                              f"the data has {J}")
    flat = trace.flat()
    sigma_draws = np.exp(flat[:, p])
    sigma_ind_sq = float(np.mean(sigma_draws ** 2))
    population_mean = flat[:, :p].mean(axis=0)

    mle = np.full((J, p), np.nan)
    lambda_jk = np.full((J, p), np.nan)
    posterior_means = np.empty((J, p))
    flagged = np.zeros(J, dtype=bool)
    for j in range(J):
        posterior_means[j] = _entity_betas(flat, p, j).mean(axis=0)
        X, y = data.entity_rows(j)
        if y.size == 0 or y.min() == y.max():
            flagged[j] = True
            continue
        try:
            w = fit_penalized_logreg(X, y, l2=_MLE_RIDGE, loss_weight=1.0,
                                     fit_intercept=False)
        except ConvergenceError:
            flagged[j] = True
            continue
        if np.max(np.abs(w)) > _SEPARATION_LIMIT:
            flagged[j] = True
            continue
        mle[j] = w
        probs = sigmoid(X @ w)
        weights = probs * (1.0 - probs)
        fisher = X.T @ (X * weights[:, None]) + _MLE_RIDGE * np.eye(p)
        asymptotic_var = np.diag(np.linalg.inv(fisher))
        lambda_jk[j] = sigma_ind_sq / (sigma_ind_sq + asymptotic_var)

    valid = lambda_jk[~flagged]
    lambda_bar = float(valid.mean()) if valid.size else math.nan
    return ShrinkageReport(lambda_jk, mle, posterior_means, population_mean,
                           sigma_ind_sq, flagged, data.n_j, lambda_bar)


# ---------------------------------------------------------------------------
# Estimator wrapper
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HierarchicalLogistic:
    """Hierarchical Bayesian logistic regression fitted with NUTS.

    ``prior`` is a ``PriorSpec``-shaped transfer prior (``beta0`` and
    ``sigma0_diag`` over the features), or None for the weak prior (zeros
    and ones); a constant-1 intercept feature is always appended, with the
    prior entry of :meth:`HierHyper.from_prior`.  ``tau`` is the
    HalfNormal scale of the population deviation, ``sampler`` the NUTS
    settings; chains start at :meth:`HierTarget.init_point`.  ``fit`` sets
    ``trace_`` and ``diagnostics_``; ``dataclasses.replace`` clones unfitted.
    """

    prior: object = None
    tau: float = 2.0
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    trace_: PosteriorTrace | None = field(default=None, init=False,
                                          repr=False)
    diagnostics_: Diagnostics | None = field(default=None, init=False,
                                             repr=False)

    def fit(self, collection: SMECollection) -> "HierarchicalLogistic":
        data = HierData.from_collection(collection)
        hyper = HierHyper.from_prior(self.prior, collection.feature_names,
                                     self.tau)
        target = HierTarget(data, hyper)
        self.trace_, self.diagnostics_ = sample(target, self.sampler,
                                                param_names=target.names())
        return self

    def predict_proba(self, X, entity) -> np.ndarray:
        """Posterior predictive mean for raw rows of ``X``; ``entity`` as
        in :func:`posterior_predict_matrix`."""
        check_is_fitted(self, "trace_")
        return posterior_predict_matrix(self.trace_, X, entity)[0]
