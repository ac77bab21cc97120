"""L2-penalized logistic regression via L-BFGS.

Minimizes ``0.5 * l2 * ||w||^2 + loss_weight * sum_i log(1 + exp(-s_i z_i))``
with ``s = 2y - 1`` and ``z = X w`` (optionally with an appended intercept
column, which is never penalized).  Convergence is declared when the
gradient max-norm drops below ``_TOL`` within ``_MAX_ITER`` iterations; the
solver is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError
from .numerics import sigmoid
from .validation import as_float_matrix, check_binary_labels

__all__ = ["fit_penalized_logreg"]

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_TOL = 1e-6
_MAX_ITER = 500


def _objective_and_grad(w, X, y, penalty_mask, l2, loss_weight):
    z = X @ w
    s = 2.0 * y - 1.0
    # log(1 + exp(-s z)) summed, in overflow-safe form
    loss = float(np.logaddexp(0.0, -s * z).sum())
    penalized = w * penalty_mask
    value = 0.5 * l2 * float(penalized @ penalized) + loss_weight * loss
    grad = l2 * penalized + loss_weight * (X.T @ (sigmoid(z) - y))
    return value, grad


def fit_penalized_logreg(X, y, l2: float = 1.0, loss_weight: float = 1.0,
                         fit_intercept: bool = True) -> np.ndarray:
    """Fit and return the coefficient vector.

    With ``fit_intercept`` the intercept is the last entry of the returned
    vector (a constant-1 column is appended internally) and is left out of
    the penalty.

    Raises
    ------
    ValidationError
        On malformed inputs or single-class labels.
    ConvergenceError
        When the gradient max-norm has not reached ``_TOL`` after
        ``_MAX_ITER`` iterations; the message reports the final norm.
    """
    X = as_float_matrix(X)
    y = check_binary_labels(y).astype(np.float64)
    if y.shape[0] != X.shape[0]:
        raise ValidationError("X and y row counts differ")
    if fit_intercept and (y.min() == y.max()):
        raise ValidationError("labels contain a single class")
    if l2 < 0 or loss_weight <= 0:
        raise ValidationError("l2 must be >= 0 and loss_weight > 0")

    if fit_intercept:
        X = np.column_stack([X, np.ones(X.shape[0])])
    d = X.shape[1]
    penalty_mask = np.ones(d)
    if fit_intercept:
        penalty_mask[-1] = 0.0

    w = np.zeros(d)
    value, grad = _objective_and_grad(w, X, y, penalty_mask, l2, loss_weight)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []

    for _ in range(_MAX_ITER):
        if np.max(np.abs(grad)) < _TOL:
            return w

        # L-BFGS two-loop recursion
        q = grad.copy()
        alphas = []
        for s_vec, y_vec in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / float(y_vec @ s_vec)
            alpha = rho * float(s_vec @ q)
            q -= alpha * y_vec
            alphas.append((alpha, rho))
        if y_hist:
            gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
        else:
            gamma = 1.0
        r = gamma * q
        for (alpha, rho), s_vec, y_vec in zip(reversed(alphas), s_hist, y_hist):
            beta = rho * float(y_vec @ r)
            r += (alpha - beta) * s_vec
        direction = -r
        descent = float(grad @ direction)
        if descent >= 0:  # numerical breakdown; fall back to steepest descent
            direction = -grad
            descent = -float(grad @ grad)

        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            w_new = w + step * direction
            value_new, grad_new = _objective_and_grad(
                w_new, X, y, penalty_mask, l2, loss_weight)
            if value_new <= value + _ARMIJO_C1 * step * descent:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed; gradient max-norm "
                f"{np.max(np.abs(grad)):.3e}")

        s_vec = w_new - w
        y_vec = grad_new - grad
        if float(s_vec @ y_vec) > 1e-12:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        w, value, grad = w_new, value_new, grad_new

    if np.max(np.abs(grad)) < _TOL:
        return w
    raise ConvergenceError(
        f"no convergence in {_MAX_ITER} iterations; gradient max-norm "
        f"{np.max(np.abs(grad)):.3e}")
