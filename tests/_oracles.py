"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written as straight-line, readable code on
a separate path from the library: exhaustive subset enumeration for
Shapley values, per-leaf TreeSHAP tables scored one leaf at a time, CSV
feature columns parsed one cell at a time, damped Newton for the
penalized logistic objective, an extended-precision log-posterior
evaluation, the hierarchical model's row tiles and its earlier padded
block filled one entity at a time with the padded block's batched
kernel, the two-branch logistic function, the argsort-per-node
boosted-tree grower, the sampler's inverse metric as an explicit dense
matrix, and the sampler's recursive tree builder with a state object per
leaf.
"""

import math
from itertools import combinations
from pathlib import Path

import numpy as np

from churnpool.data import (_MISSING_TOKENS, MISSING_INDICATOR_THRESHOLD,
                            Dataset, _csv_rows)
from churnpool.errors import DataError, DiagnosticError, ValidationError
from churnpool.gbdt import _MIN_SPLIT_GAIN, TreeNode
from churnpool.nuts import _DualAveraging, _log_add_exp


# ---------------------------------------------------------------------------
# Path-dependent expectation game and exhaustive Shapley values
# ---------------------------------------------------------------------------

def expvalue(node, x, subset):
    """Tree expectation with features outside ``subset`` marginalized by
    recorded cover fractions; features in ``subset`` follow ``x``."""
    if node.is_leaf:
        return node.value
    if node.feature_index in subset:
        child = node.left if x[node.feature_index] <= node.threshold else node.right
        return expvalue(child, x, subset)
    frac_left = node.left.cover / node.cover
    return (frac_left * expvalue(node.left, x, subset)
            + (1.0 - frac_left) * expvalue(node.right, x, subset))


def brute_force_shapley(ensemble, x):
    """Exhaustive-subset Shapley attribution of the ensemble margin.

    Returns (attributions, base_value) with the same value function the
    library uses: present features follow x, absent features are averaged
    with cover weights. Cost is p * 2**p per tree; keep p small.
    """
    p = ensemble.p
    features = list(range(p))
    phi = np.zeros(p)
    base = ensemble.init_logodds
    for tree in ensemble.trees:
        base += ensemble.learning_rate * expvalue(tree, x, frozenset())
        for j in features:
            others = [k for k in features if k != j]
            for size in range(p):
                weight = (math.factorial(size) * math.factorial(p - size - 1)
                          / math.factorial(p))
                for subset in combinations(others, size):
                    s = frozenset(subset)
                    delta = (expvalue(tree, x, s | {j})
                             - expvalue(tree, x, s))
                    phi[j] += ensemble.learning_rate * weight * delta
    return phi, base


# ---------------------------------------------------------------------------
# Per-leaf TreeSHAP: one table and one pattern pass per leaf
# ---------------------------------------------------------------------------

def _leaf_paths(root):
    """(value, features, constraints, q) of every leaf, left to right."""
    leaves = []

    def walk(node, path):
        if node.is_leaf:
            by_feature = {}
            for feat, threshold, went_left, frac in path:
                conds, q = by_feature.get(feat, ([], 1.0))
                conds.append((threshold, went_left))
                by_feature[feat] = (conds, q * frac)
            feats = sorted(by_feature)
            leaves.append((node.value, feats,
                           [by_feature[f][0] for f in feats],
                           np.array([by_feature[f][1] for f in feats])))
            return
        for child, went_left in ((node.left, True), (node.right, False)):
            path.append((node.feature_index, node.threshold, went_left,
                         child.cover / node.cover))
            walk(child, path)
            path.pop()

    walk(root, [])
    return leaves


def _leaf_table(value, q):
    """Attribution table of shape (2**d, d): row = presence pattern."""
    d = q.size
    n_pat = 1 << d
    bits = ((np.arange(n_pat)[:, None] >> np.arange(d)[None, :]) & 1
            ).astype(np.float64)
    prefix = [np.zeros((n_pat, k + 1)) for k in range(d + 1)]
    prefix[0][:, 0] = 1.0
    for k in range(d):
        cur, nxt = prefix[k], prefix[k + 1]
        nxt[:, :k + 1] = cur * q[k]
        nxt[:, 1:k + 2] += cur * bits[:, k:k + 1]
    suffix = [np.zeros((n_pat, k + 1)) for k in range(d + 1)]
    suffix[0][:, 0] = 1.0
    for i, k in enumerate(range(d - 1, -1, -1)):
        cur, nxt = suffix[i], suffix[i + 1]
        nxt[:, :i + 1] = cur * q[k]
        nxt[:, 1:i + 2] += cur * bits[:, k:k + 1]
    w = np.array([math.factorial(s) * math.factorial(d - 1 - s)
                  / math.factorial(d) for s in range(d)])
    table = np.empty((n_pat, d))
    for j in range(d):
        loo = np.zeros((n_pat, d))
        pre, suf = prefix[j], suffix[d - 1 - j]
        for a in range(pre.shape[1]):
            loo[:, a:a + suf.shape[1]] += pre[:, a:a + 1] * suf
        table[:, j] = (bits[:, j] - q[j]) * (loo @ w)
    return table * value


def per_leaf_shap_values(ensemble, X):
    """(phi, expected_value) of path-dependent TreeSHAP, built and scored
    one leaf at a time on the rows of ``X`` in (tree, leaf) order."""
    X = np.asarray(X, dtype=np.float64)
    lr = ensemble.learning_rate
    leaves = [_leaf_paths(tree) for tree in ensemble.trees]
    expected = ensemble.init_logodds + lr * sum(
        value * float(np.prod(q)) for tree in leaves for value, _, _, q in tree)
    out = np.zeros((X.shape[0], ensemble.p))
    for tree in leaves:
        for value, feats, constraints, q in tree:
            if not feats:
                continue
            table = _leaf_table(value, q)
            idx = np.zeros(X.shape[0], dtype=np.intp)
            for k, (feat, conds) in enumerate(zip(feats, constraints)):
                ok = np.ones(X.shape[0], dtype=bool)
                for threshold, went_left in conds:
                    col = X[:, feat]
                    ok &= (col <= threshold) if went_left else (col > threshold)
                idx |= ok.astype(np.intp) << k
            out[:, feats] += lr * table[idx]
    return out, expected


# ---------------------------------------------------------------------------
# CSV feature columns parsed one cell at a time
# ---------------------------------------------------------------------------

def per_cell_load_csv(path, label_column="target", tag_column="source"):
    """``load_csv`` with every feature cell checked for a missing token and
    parsed on its own, column by column."""
    def parse(cell):
        try:
            return float(cell)
        except ValueError:
            return None

    reader = _csv_rows(Path(path))
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
        value = parse(row[label_idx])
        if value is None or value not in (0.0, 1.0):
            raise ValidationError(
                f"{path}: data row {i + 1}: label {row[label_idx]!r} is not 0/1")
        labels[i] = int(value)
    tags = None
    if tag_idx is not None:
        tags = tuple(row[tag_idx].strip() for row in rows)

    n = len(rows)
    columns, names, indicators = [], [], []
    for j in range(len(header)):
        if j in (label_idx, tag_idx):
            continue
        name = header[j]
        raw = [row[j] for row in rows]
        missing = np.array([c.strip().lower() in _MISSING_TOKENS for c in raw],
                           dtype=bool)
        present = [raw[i] for i in range(n) if not missing[i]]
        if not present:
            raise DataError(f"{path}: column {name!r} has no observed values")
        parsed = [parse(c) for c in present]
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
# Damped Newton for 0.5*l2*||w||^2 + C * sum log(1 + exp(-s z))
# ---------------------------------------------------------------------------

def damped_newton_logreg(X, y, C=1.0, l2=1.0, fit_intercept=True,
                         tol=1e-12, max_iter=200):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if fit_intercept:
        X = np.column_stack([X, np.ones(X.shape[0])])
    d = X.shape[1]
    mask = np.ones(d)
    if fit_intercept:
        mask[-1] = 0.0
    w = np.zeros(d)

    def value(w):
        z = X @ w
        return (0.5 * l2 * float((w * mask) @ (w * mask))
                + C * float(np.logaddexp(0.0, -(2 * y - 1) * z).sum()))

    for _ in range(max_iter):
        z = X @ w
        prob = 1.0 / (1.0 + np.exp(-z))
        grad = l2 * w * mask + C * (X.T @ (prob - y))
        if np.max(np.abs(grad)) < tol:
            break
        weights = prob * (1.0 - prob)
        hessian = C * (X.T @ (X * weights[:, None])) + l2 * np.diag(mask)
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        base = value(w)
        while value(w - t * step) > base - 1e-4 * t * float(grad @ step):
            t *= 0.5
            if t < 1e-12:
                break
        w = w - t * step
    return w


# ---------------------------------------------------------------------------
# Extended-precision straight-line log-posterior
# ---------------------------------------------------------------------------

def longdouble_log_posterior(mu, log_sigma, beta_raw, Xs, ys, beta0,
                             sigma0_diag, tau):
    """Loop-based evaluation in float80, keeping every constant."""
    ld = np.longdouble
    mu = np.asarray(mu, dtype=ld)
    beta_raw = np.asarray(beta_raw, dtype=ld)
    beta0 = np.asarray(beta0, dtype=ld)
    sigma0 = np.asarray(sigma0_diag, dtype=ld)
    tau = ld(tau)
    log_sigma = ld(log_sigma)
    sigma = np.exp(log_sigma)
    two_pi = ld(2) * ld(np.pi)

    total = ld(0)
    for k in range(mu.size):
        total += (-(mu[k] - beta0[k]) ** 2 / (ld(2) * sigma0[k])
                  - ld(0.5) * np.log(two_pi * sigma0[k]))
    total += (ld(0.5) * np.log(ld(2) / ld(np.pi)) - np.log(tau)
              - sigma * sigma / (ld(2) * tau * tau) + log_sigma)
    for j in range(beta_raw.shape[0]):
        for k in range(beta_raw.shape[1]):
            total += (-ld(0.5) * beta_raw[j, k] ** 2
                      - ld(0.5) * np.log(two_pi))
    for j, (X, y) in enumerate(zip(Xs, ys)):
        X = np.asarray(X, dtype=ld)
        beta_j = mu + sigma * beta_raw[j]
        for i in range(X.shape[0]):
            z = ld(0)
            for k in range(X.shape[1]):
                z += X[i, k] * beta_j[k]
            s = ld(2) * ld(float(y[i])) - ld(1)
            total += -np.logaddexp(ld(0), -s * z)
    return float(total)


def longdouble_grad_log_posterior(mu, log_sigma, beta_raw, Xs, ys, beta0,
                                  sigma0_diag, tau):
    """Loop-based analytic gradient in float80, flat (mu, log_sigma,
    beta_raw) order."""
    ld = np.longdouble
    mu = np.asarray(mu, dtype=ld)
    beta_raw = np.asarray(beta_raw, dtype=ld)
    beta0 = np.asarray(beta0, dtype=ld)
    sigma0 = np.asarray(sigma0_diag, dtype=ld)
    tau = ld(tau)
    sigma = np.exp(ld(log_sigma))
    J, p = beta_raw.shape

    # Likelihood gradient with respect to each entity's coefficients.
    g_beta = np.zeros((J, p), dtype=ld)
    for j, (X, y) in enumerate(zip(Xs, ys)):
        X = np.asarray(X, dtype=ld)
        beta_j = mu + sigma * beta_raw[j]
        for i in range(X.shape[0]):
            z = ld(0)
            for k in range(p):
                z += X[i, k] * beta_j[k]
            err = ld(float(y[i])) - ld(1) / (ld(1) + np.exp(-z))
            for k in range(p):
                g_beta[j, k] += err * X[i, k]

    grad = np.zeros(p + 1 + J * p, dtype=ld)
    for k in range(p):
        grad[k] = -(mu[k] - beta0[k]) / sigma0[k]
        for j in range(J):
            grad[k] += g_beta[j, k]
    total = ld(0)
    for j in range(J):
        for k in range(p):
            total += g_beta[j, k] * beta_raw[j, k]
            grad[p + 1 + j * p + k] = sigma * g_beta[j, k] - beta_raw[j, k]
    grad[p] = sigma * total - sigma * sigma / (tau * tau) + ld(1)
    return grad.astype(np.float64)


# ---------------------------------------------------------------------------
# HierData's row tiles and the padded-block kernel, filled per entity
# ---------------------------------------------------------------------------

def padded_block(Xs, ys):
    """``(X3, y, pad_softplus)`` of entities given as their own ``Xs[j]``
    / ``ys[j]``: feature-major ``X3[j]`` of shape ``(p, n_max)`` holds
    entity j's rows as its first columns and zeros after them, the flat
    labels are 0 on padding, and log 2 is counted for each padded row."""
    sizes = [len(y) for y in ys]
    J, n_max, p = len(sizes), max(sizes), Xs[0].shape[1]
    X3 = np.zeros((J, p, n_max))
    y = np.zeros((J, n_max))
    for j, (X_j, y_j) in enumerate(zip(Xs, ys)):
        X3[j, :, :sizes[j]] = np.asarray(X_j).T
        y[j, :sizes[j]] = y_j
    pad_softplus = float(J * n_max - sum(sizes)) * math.log(2.0)
    return X3, y.ravel(), pad_softplus


def tiled_block(Xs, ys, T):
    """``(tiles, y, pad_softplus, tile_entity)`` of entities
    given as their own arrays, cut one entity at a time into feature-major
    tiles of ``(p, T)``: entity j's rows fill the columns of
    ``ceil(n_j / T)`` tiles in order and zeros end its last one."""
    p = Xs[0].shape[1]
    tiles, labels, entity = [], [], []
    for j, (X_j, y_j) in enumerate(zip(Xs, ys)):
        for start in range(0, len(y_j), T):
            tile = np.zeros((p, T))
            tile_y = np.full(T, np.nan)
            rows = X_j[start:start + T]
            tile[:, :len(rows)] = rows.T
            tile_y[:len(rows)] = y_j[start:start + T]
            tiles.append(tile)
            labels.append(tile_y)
            entity.append(j)
    y = np.concatenate(labels) if labels else np.zeros(0)
    real = ~np.isnan(y)
    pad_softplus = float(np.count_nonzero(~real)) * math.log(2.0)
    return (np.array(tiles).reshape(len(tiles), p, T), np.where(real, y, 0.0),
            pad_softplus, np.array(entity))


def padded_logp_and_grad(theta, Xs, ys, beta0, sigma0_diag, tau):
    """The hierarchical log posterior and gradient as one batched pass
    over the ``padded_block`` of ``(J, p, n_max)``: every entity padded
    to the largest, one vector-matrix product per entity in each
    direction, the label term of the likelihood from each entity's
    ``X^T (1 - y)``, and the priors of mu and beta_raw as one quadratic
    form over theta."""
    X3, y, pad_softplus = padded_block(Xs, ys)
    J, p, _ = X3.shape
    mu, log_sigma, braw = theta[:p], theta[p], theta[p + 1:].reshape(J, p)
    sigma = math.exp(log_sigma)
    betas = braw * sigma + mu
    z = np.matmul(betas[:, None, :], X3).ravel()
    neg_softplus = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
    label_products = np.array([np.asarray(X_j).T @ (1.0 - np.asarray(y_j))
                               for X_j, y_j in zip(Xs, ys)])
    loglik = (float(neg_softplus.sum()) + pad_softplus
              - float(betas.ravel() @ label_products.ravel()))
    err = y - np.exp(neg_softplus)
    g_beta = np.matmul(X3, err.reshape(J, -1, 1))[:, :, 0]

    diff = theta - np.concatenate([beta0, np.zeros(1 + J * p)])
    prior_grad = diff * np.concatenate([-1.0 / sigma0_diag, [0.0],
                                        np.full(J * p, -1.0)])
    const = (0.5 * math.log(2.0 / math.pi) - math.log(tau)
             - float(np.sum(0.5 * np.log(2.0 * math.pi * sigma0_diag)))
             - J * p * (0.5 * math.log(2.0 * math.pi)))
    logp = (loglik + 0.5 * float(diff @ prior_grad) + const
            - sigma * sigma / (2.0 * tau ** 2) + log_sigma)
    grad = prior_grad
    grad[:p] += g_beta.sum(axis=0)
    grad[p] = (sigma * float(g_beta.ravel() @ braw.ravel())
               - sigma * sigma / tau ** 2 + 1.0)
    grad[p + 1:] += (g_beta * sigma).ravel()
    return logp, grad


# ---------------------------------------------------------------------------
# Two-branch logistic function with boolean-mask indexing
# ---------------------------------------------------------------------------

def two_branch_sigmoid(z):
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere,
    each branch computed on its own masked subset."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Exact-greedy tree grower that sorts every feature at every node
# ---------------------------------------------------------------------------

def argsort_best_split(x, r, min_leaf):
    """Best squared-error split of one unsorted column: (gain, threshold)
    or None, sorting the node's values with a stable argsort."""
    n = x.size
    if n < 2 * min_leaf:
        return None
    order = np.argsort(x, kind="stable")
    xs = x[order]
    rs = r[order]
    csum = np.cumsum(rs)
    total = csum[-1]
    left_counts = np.arange(min_leaf, n - min_leaf + 1)
    valid = xs[left_counts - 1] < xs[left_counts]
    if not valid.any():
        return None
    left_counts = left_counts[valid]
    left_sums = csum[left_counts - 1]
    gains = (left_sums ** 2 / left_counts
             + (total - left_sums) ** 2 / (n - left_counts)
             - total ** 2 / n)
    best = int(np.argmax(gains))
    if gains[best] <= _MIN_SPLIT_GAIN:
        return None
    cut = left_counts[best]
    return float(gains[best]), float((xs[cut - 1] + xs[cut]) / 2.0)


def argsort_grow_tree(X, r, rows, features, depth, max_depth, min_leaf,
                      l2_leaf):
    """Grow a regression tree on ``rows`` (ascending) by exhaustive search
    over every feature's sorted values at every node."""
    n = rows.size
    if depth >= max_depth or n < 2 * min_leaf:
        return TreeNode(value=float(r[rows].sum() / (n + l2_leaf)), cover=n)
    best_gain, best_feature, best_threshold = 0.0, None, None
    for f in features:
        found = argsort_best_split(X[rows, f], r[rows], min_leaf)
        if found is not None and found[0] > best_gain:
            best_gain, best_threshold = found
            best_feature = int(f)
    if best_feature is None:
        return TreeNode(value=float(r[rows].sum() / (n + l2_leaf)), cover=n)
    go_left = X[rows, best_feature] <= best_threshold
    left = argsort_grow_tree(X, r, rows[go_left], features, depth + 1,
                             max_depth, min_leaf, l2_leaf)
    right = argsort_grow_tree(X, r, rows[~go_left], features, depth + 1,
                              max_depth, min_leaf, l2_leaf)
    return TreeNode(feature_index=best_feature, threshold=best_threshold,
                    left=left, right=right, gain=best_gain, cover=n)


# ---------------------------------------------------------------------------
# Dense inverse metric D (I + U diag(lam - 1) U^T) D
# ---------------------------------------------------------------------------

def dense_inverse_metric(diag, u, lam):
    """The sampler's inverse metric built as a full matrix from ``D^2``
    (``diag``) and the eigenpairs ``(lam, u)``."""
    d = np.diag(np.sqrt(np.asarray(diag, dtype=np.float64)))
    inner = np.eye(len(diag))
    for k in range(len(lam)):
        inner += (lam[k] - 1.0) * np.outer(u[:, k], u[:, k])
    return d @ inner @ d


# ---------------------------------------------------------------------------
# Recursive NUTS builder with a state object per leaf
# ---------------------------------------------------------------------------
#
# The sampler's earlier chain, kept whole as the reference for its tuple
# builder: a ``_State`` and a ``_Subtree`` object per leaf, every gradient
# call counted through ``RecursiveChain.logp_and_grad``, and both the log
# density and the gradient tested for finiteness at every leaf.

class _State:
    """Phase-space point with its cached gradient and log density; ``v`` is
    the velocity ``Sigma r``, read by the kinetic energy and the U-turn
    check, and ``w`` is ``Sigma grad``, so a leapfrog step makes one metric
    product."""

    __slots__ = ("q", "r", "grad", "logp", "v", "w")

    def __init__(self, q, r, grad, logp, v, w):
        self.q = q
        self.r = r
        self.grad = grad
        self.logp = logp
        self.v = v
        self.w = w


def _recursive_leapfrog(state, eps, target, metric):
    """One velocity-Verlet step from ``state``, which carries the gradient
    at its position and its metric products; None when the new point is
    not finite."""
    half = 0.5 * eps
    v_half = state.v + half * state.w
    q_new = state.q + eps * v_half
    logp, grad = target.logp_and_grad(q_new)
    if not (math.isfinite(logp) and np.isfinite(grad).all()):
        return None
    w = metric.apply(grad)
    return _State(q_new, state.r + half * (state.grad + grad), grad, logp,
                  v_half + half * w, w)


def _recursive_step_size(target, state, inv_metric, rng):
    """Doubling/halving search for a step size with ~50% acceptance from
    ``state``, whose log density, gradient and ``Sigma grad`` are reused."""
    r0 = inv_metric.momentum(rng.standard_normal(state.q.size))
    start = _State(state.q, r0, state.grad, state.logp, inv_metric.apply(r0),
                   state.w)
    h0 = -state.logp + 0.5 * float(np.dot(start.v, r0))

    def accept_logprob(eps):
        new = _recursive_leapfrog(start, eps, target, inv_metric)
        if new is None:
            return -np.inf
        return min(0.0, h0 - (-new.logp + 0.5 * float(np.dot(new.v, new.r))))

    eps = 1.0
    log_half = math.log(0.5)
    a = 1.0 if accept_logprob(eps) > log_half else -1.0
    for _ in range(100):
        if not a * accept_logprob(eps) > a * log_half:
            break
        eps *= 2.0 ** a
        if not 1e-10 < eps < 1e10:
            break
    return eps


class _Subtree:
    __slots__ = ("outer", "proposal", "log_sum_weight", "sum_accept",
                 "n_accept", "cont", "divergent", "inner")

    def __init__(self, inner, outer, proposal, log_sum_weight, sum_accept,
                 n_accept, cont, divergent):
        self.inner = inner
        self.outer = outer
        self.proposal = proposal
        self.log_sum_weight = log_sum_weight
        self.sum_accept = sum_accept
        self.n_accept = n_accept
        self.cont = cont
        self.divergent = divergent


def _no_uturn(minus, plus):
    """Classic criterion on the trajectory ends, in velocity space."""
    dq = plus.q - minus.q
    return np.dot(dq, minus.v) >= 0.0 and np.dot(dq, plus.v) >= 0.0


class RecursiveChain:
    """One chain with the recursive builder; the same calls as
    ``churnpool.nuts._Chain`` (``block``, ``adopt``, ``warm``, ``draw``),
    and ``draw`` returns the step size, warmup calls and calls, then the
    draw, divergence and acceptance rows: no max-depth count."""

    def __init__(self, target, config, rng, q0, metric):
        self.target = target
        self.config = config
        self.rng = rng
        self.metric = metric
        self.calls = 0
        logp, grad = self.logp_and_grad(q0)
        if not (np.isfinite(logp) and np.all(np.isfinite(grad))):
            raise ValidationError("target is not finite at the initial point")
        zeros = np.zeros_like(q0)
        self.state = _State(q0, zeros, grad, logp, zeros, metric.apply(grad))
        self.iteration = 0
        self.warmup_divergent = 0
        self.initial_eps = self._restart_step_size()
        self.eps = self.initial_eps

    def logp_and_grad(self, theta):
        self.calls += 1
        return self.target.logp_and_grad(theta)

    def _restart_step_size(self):
        eps0 = _recursive_step_size(self, self.state, self.metric, self.rng)
        self.averaging = _DualAveraging(eps0)
        return eps0

    def adopt(self, metric):
        self.metric = metric
        s = self.state
        self.state = _State(s.q, s.r, s.grad, s.logp, s.v,
                            metric.apply(s.grad))
        self._restart_step_size()

    def warm(self, stop):
        target_accept = self.config.target_accept
        visited = np.empty((max(stop - self.iteration, 0), self.target.dim))
        for row in visited:
            self.eps = self.averaging.current
            divergent, accept_stat = self.transition()
            self.warmup_divergent += divergent
            self.averaging.step(target_accept - accept_stat)
            row[:] = self.state.q
            self.iteration += 1
        return visited

    def block(self, start, end):
        self.warm(start)
        return self.warm(end)

    def draw(self):
        warmup = self.config.warmup
        self.warm(warmup)
        if self.warmup_divergent == warmup:
            raise DiagnosticError("every warmup iteration diverged")
        warmup_calls = self.calls
        self.eps = self.averaging.averaged
        draws = np.empty((self.config.draws, self.target.dim))
        divergent = np.empty(self.config.draws, dtype=bool)
        accept = np.empty(self.config.draws)
        for s in range(self.config.draws):
            divergent[s], accept[s] = self.transition()
            draws[s] = self.state.q
        return self.eps, warmup_calls, self.calls, draws, divergent, accept

    def _build_tree(self, depth, edge, direction, h0):
        if depth == 0:
            new = _recursive_leapfrog(edge, direction * self.eps, self,
                                      self.metric)
            if new is None:
                return _Subtree(edge, edge, None, -np.inf, 0.0, 1, False, True)
            energy_error = (-new.logp + 0.5 * float(np.dot(new.v, new.r))) - h0
            accept = math.exp(min(0.0, -energy_error))
            if energy_error > self.config.divergence_energy_threshold:
                return _Subtree(new, new, None, -np.inf, accept, 1, False, True)
            return _Subtree(new, new, new, -energy_error, accept, 1, True, False)

        first = self._build_tree(depth - 1, edge, direction, h0)
        if not first.cont:
            return first
        second = self._build_tree(depth - 1, first.outer, direction, h0)
        log_sum_weight = _log_add_exp(first.log_sum_weight,
                                      second.log_sum_weight)
        proposal = first.proposal
        if second.proposal is not None and (
                math.log(self.rng.uniform())
                < second.log_sum_weight - log_sum_weight):
            proposal = second.proposal
        inner, outer = first.inner, second.outer
        if direction > 0:
            ok = _no_uturn(inner, outer)
        else:
            ok = _no_uturn(outer, inner)
        return _Subtree(inner, outer, proposal, log_sum_weight,
                        first.sum_accept + second.sum_accept,
                        first.n_accept + second.n_accept,
                        second.cont and ok,
                        first.divergent or second.divergent)

    def transition(self):
        rng = self.rng
        state, metric = self.state, self.metric
        r0 = metric.momentum(rng.standard_normal(self.target.dim))
        current = _State(state.q, r0, state.grad, state.logp,
                         metric.apply(r0), state.w)
        h0 = -current.logp + 0.5 * float(np.dot(current.v, r0))
        minus, plus, proposal = current, current, current
        log_sum_weight = 0.0
        sum_accept, n_accept = 0.0, 0
        divergent = False
        for depth in range(self.config.max_tree_depth):
            direction = 1.0 if rng.uniform() < 0.5 else -1.0
            edge = plus if direction > 0 else minus
            subtree = self._build_tree(depth, edge, direction, h0)
            sum_accept += subtree.sum_accept
            n_accept += subtree.n_accept
            divergent = divergent or subtree.divergent
            if not subtree.cont:
                break
            if (subtree.log_sum_weight > log_sum_weight
                    or math.log(rng.uniform())
                    < subtree.log_sum_weight - log_sum_weight):
                proposal = subtree.proposal
            log_sum_weight = _log_add_exp(log_sum_weight,
                                          subtree.log_sum_weight)
            if direction > 0:
                plus = subtree.outer
            else:
                minus = subtree.outer
            if not _no_uturn(minus, plus):
                break
        self.state = proposal
        return divergent, sum_accept / max(n_accept, 1)
