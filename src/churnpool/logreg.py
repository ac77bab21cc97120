"""L2-penalized logistic regression by damped Newton steps.

Minimizes ``0.5 * l2 * ||w||^2 + loss_weight * sum_i log(1 + exp(-s_i z_i))``
with ``s = 2y - 1`` and ``z = X w`` (optionally with an appended intercept
column, which is never penalized).  Each iteration solves the Newton system
``loss_weight * X^T W X + l2 * diag(mask)`` directly (it has one row per
coefficient) and halves the step from 1 until the gradient at the new point
still points back along it, which for this convex objective means the
objective has not passed its minimum on the line.  The test reads only
gradients, so it stays exact near the optimum, where a decrease in the
summed loss is smaller than that sum's rounding.  Convergence is declared
when the gradient max-norm drops below ``_TOL`` within ``_MAX_ITER``
iterations; the solver is fully deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError
from .numerics import sigmoid
from .validation import as_float_matrix, check_binary_labels

__all__ = ["fit_penalized_logreg"]

_TOL = 1e-6
_MAX_ITER = 500
_MAX_HALVINGS = 40


def fit_penalized_logreg(X, y, l2: float = 1.0, loss_weight: float = 1.0,
                         fit_intercept: bool = True) -> np.ndarray:
    """Fit and return the coefficient vector.

    With ``fit_intercept`` the intercept is the last entry of the returned
    vector (a constant-1 column is appended internally) and is left out of
    the penalty.

    Raises
    ------
    ValidationError
        On malformed inputs, single-class labels, or ``l2`` or
        ``loss_weight`` not positive.
    ConvergenceError
        When the gradient max-norm has not reached ``_TOL`` after
        ``_MAX_ITER`` iterations, or a step finds no descent; the message
        reports the final norm.
    """
    X = as_float_matrix(X)
    y = check_binary_labels(y).astype(np.float64)
    if y.shape[0] != X.shape[0]:
        raise ValidationError("X and y row counts differ")
    if fit_intercept and (y.min() == y.max()):
        raise ValidationError("labels contain a single class")
    if not (l2 > 0 and loss_weight > 0):
        raise ValidationError("l2 and loss_weight must be > 0")

    if fit_intercept:
        X = np.column_stack([X, np.ones(X.shape[0])])
    penalty = np.full(X.shape[1], float(l2))
    if fit_intercept:
        penalty[-1] = 0.0

    def probs_and_grad(w):
        probs = sigmoid(X @ w)
        return probs, penalty * w + loss_weight * (X.T @ (probs - y))

    w = np.zeros(X.shape[1])
    probs, grad = probs_and_grad(w)
    for _ in range(_MAX_ITER):
        if np.max(np.abs(grad)) < _TOL:
            return w
        weights = loss_weight * probs * (1.0 - probs)
        hessian = X.T @ (X * weights[:, None]) + np.diag(penalty)
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w_new = w - t * step
            probs_new, grad_new = probs_and_grad(w_new)
            if float(grad_new @ step) >= 0.0:
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"no descent along the Newton step; gradient max-norm "
                f"{np.max(np.abs(grad)):.3e}")
        w, probs, grad = w_new, probs_new, grad_new

    if np.max(np.abs(grad)) < _TOL:
        return w
    raise ConvergenceError(
        f"no convergence in {_MAX_ITER} iterations; gradient max-norm "
        f"{np.max(np.abs(grad)):.3e}")
