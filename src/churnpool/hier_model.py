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
from .nuts import Diagnostics, PosteriorTrace, SamplerConfig, sample
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


def with_intercept(X: np.ndarray) -> np.ndarray:
    """``X`` with the constant-1 intercept column appended last."""
    return np.column_stack([X, np.ones(X.shape[0])])


class HierData:
    """The likelihood's copy of an entity-major row table.

    ``X`` (n, p) and ``y`` (n,) hold entity 0's rows first, then entity
    1's and so on; ``sizes`` gives each entity's row count, 0 allowed.
    They are copied into one zero-padded block and not kept: ``_X3`` has
    shape ``(J, n_max, p)`` with entity j's rows first and zero rows after
    them, and the flat ``_y`` / ``_one_minus_y`` are 0 on padded rows.  A
    padded row has z = 0, so it adds exactly log 2 to the summed softplus
    (undone by the constant ``_pad_softplus``) and a zero row to the
    gradient; entities with no rows need no special case.  The block
    costs ``J * n_max * p`` float64s, so a collection with one very large
    entity pays for padding every other entity to that size.
    """

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
        self.J, n_max = sizes.size, int(sizes.max())
        rows = np.arange(n_max) < sizes[:, None]    # real (not padded) rows
        self._X3 = np.zeros((self.J, n_max, p))
        self._X3[rows] = X
        y3 = np.zeros((self.J, n_max))
        y3[rows] = y
        self._y = y3.ravel()
        self._one_minus_y = (rows - y3).ravel()
        self._pad_softplus = float(rows.size - sizes.sum()) * math.log(2.0)

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
    """Sampler target: fused log-posterior and gradient over flat theta."""

    def __init__(self, data: HierData, hyper: HierHyper):
        if data.p != hyper.p:
            raise ValidationError(
                f"data has p={data.p}, hyperparameters have p={hyper.p}")
        self.data = data
        self.hyper = hyper
        self.p = data.p
        self.J = data.J
        self.dim = self.p + 1 + self.J * self.p
        self._mu_const = float(np.sum(0.5 * np.log(2.0 * math.pi
                                                   * hyper.sigma0_diag)))
        self._half_normal_const = 0.5 * math.log(2.0 / math.pi) - math.log(hyper.tau)
        self._braw_const = self.J * self.p * _HALF_LOG_2PI

    # Beyond this the HalfNormal term -sigma^2/(2 tau^2) underflows the
    # density to zero; exp() itself would overflow float64 near 710.
    _LOG_SIGMA_CAP = 300.0

    def logp_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        p, J = self.p, self.J
        data, hyper = self.data, self.hyper
        mu = theta[:p]
        log_sigma = theta[p]
        braw = theta[p + 1:].reshape(J, p)
        if log_sigma > self._LOG_SIGMA_CAP:
            # True limit of the log density; the sampler flags the step.
            return -math.inf, np.zeros(self.dim)
        sigma = math.exp(log_sigma)

        # One batched pass over the padded block; see HierData.
        # log(1 + exp(-z)) once covers both label cases:
        # ll_i = -softplus(-z) - (1 - y_i) * z, and sigmoid = exp(-softplus).
        # Split form max(-z, 0) + log1p(exp(-|z|)): overflow-safe for any z,
        # and exactly log 2 at z = 0, which _pad_softplus relies on.
        betas = mu + sigma * braw
        z = np.matmul(data._X3, betas[:, :, None]).ravel()
        softplus = np.maximum(-z, 0.0)
        softplus += np.log1p(np.exp(-np.abs(z)))
        loglik = data._pad_softplus - (float(softplus.sum())
                                       + float(data._one_minus_y @ z))
        err = data._y - np.exp(-softplus)
        g_beta = np.matmul(err.reshape(J, 1, -1), data._X3)[:, 0, :]

        diff = mu - hyper.beta0
        scaled = diff / hyper.sigma0_diag
        braw_flat = theta[p + 1:]
        logp = (loglik
                - 0.5 * float(diff @ scaled)
                - self._mu_const
                + self._half_normal_const
                - sigma * sigma / (2.0 * hyper.tau ** 2)
                + log_sigma
                - 0.5 * float(braw_flat @ braw_flat)
                - self._braw_const)

        grad = np.empty(self.dim)
        grad[:p] = g_beta.sum(axis=0) - scaled
        grad[p] = (sigma * float(g_beta.ravel() @ braw_flat)
                   - sigma * sigma / hyper.tau ** 2 + 1.0)
        np.subtract(sigma * g_beta, braw, out=grad[p + 1:].reshape(J, p))
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
    """Raise ``DataError`` unless the trace's ``mu[...]`` names are the
    collection's features plus the intercept, over the same entity count."""
    fitted = tuple(name[3:-1] for name in trace.param_names
                   if name.startswith("mu[") and name.endswith("]"))
    expected = collection.feature_names + (INTERCEPT_NAME,)
    if fitted != expected:
        raise DataError(f"trace was fitted on features {list(fitted)}, "
                        f"the collection has {list(expected)}")
    J = _trace_dims(trace, len(fitted))
    if J != collection.J:
        raise DataError(f"trace was fitted on {J} entities, "
                        f"the collection has {collection.J}")


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
    for j in np.unique(entity):
        betas = _entity_betas(flat, p, j)                  # (M, p)
        rows = np.flatnonzero(entity == j)
        for start in range(0, rows.size, PREDICT_CHUNK_ROWS):
            chunk = rows[start:start + PREDICT_CHUNK_ROWS]
            probs = sigmoid(X[chunk] @ betas.T)            # (rows, M)
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
    y3 = data._y.reshape(data._X3.shape[:2])
    for j, n in enumerate(data.n_j):
        posterior_means[j] = _entity_betas(flat, p, j).mean(axis=0)
        X, y = data._X3[j, :n], y3[j, :n]
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
