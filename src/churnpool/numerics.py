"""Numerically stable scalar kernels shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PROB_CLIP", "sigmoid", "binary_log_loss", "average_ranks",
           "norm_ppf", "regularized_incomplete_beta"]

# Probabilities are clipped to [PROB_CLIP, 1 - PROB_CLIP] before any log.
PROB_CLIP = 1e-12


def sigmoid(z):
    """Logistic function, overflow-safe for any float64 input."""
    z = np.asarray(z, dtype=np.float64)
    # With e = exp(-|z|) this is 1 / (1 + exp(-z)) for z >= 0 and
    # exp(z) / (1 + exp(z)) below: the exponent never overflows.
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return out if out.ndim else float(out)


def binary_log_loss(labels, probs) -> float:
    """Mean negative log-likelihood with probabilities clipped for stability."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = np.clip(np.asarray(probs, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


def average_ranks(x) -> np.ndarray:
    """1-based ranks of a 1-D array without NaN, ties sharing their
    average rank.

    A value's tie block occupies sorted positions ``left+1 .. right``, so
    its average rank is ``(left + right + 1) / 2``: an exact half-integer.
    The blocks come from one sort; the order within a block is immaterial.
    """
    x = np.asarray(x)
    order = np.argsort(x)
    s = x[order]
    # Sorted positions where a tie block starts, then the end of the last.
    bounds = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1],
                                            [True])))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0,
                             np.diff(bounds))
    return ranks


def norm_ppf(q):
    """Standard normal quantile function (Wichura's AS241 rational fit).

    Accurate to roughly 1e-15 over (0, 1); endpoints map to +-inf.
    """
    q = np.asarray(q, dtype=np.float64)
    out = np.full_like(q, np.nan)
    out[q == 0.0] = -np.inf
    out[q == 1.0] = np.inf
    inner = (q > 0.0) & (q < 1.0)
    p = q[inner] - 0.5

    central = np.abs(p) <= 0.425
    r = 0.180625 - p[central] ** 2
    num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
              + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
            + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
    den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
              + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
            + 4.2313330701600911252e1) * r + 1.0)
    vals = np.empty(p.shape)
    vals[central] = p[central] * num / den

    tail = ~central
    qq = q[inner][tail]
    rr = np.sqrt(-np.log(np.minimum(qq, 1.0 - qq)))
    near = rr <= 5.0
    r1 = rr[near] - 1.6
    num1 = (((((((7.74545014278341407640e-4 * r1 + 2.27238449892691845833e-2) * r1
                 + 2.41780725177450611770e-1) * r1 + 1.27045825245236838258e0) * r1
               + 3.64784832476320460504e0) * r1 + 5.76949722146069140550e0) * r1
             + 4.63033784615654529590e0) * r1 + 1.42343711074968357734e0)
    den1 = (((((((1.05075007164441684324e-9 * r1 + 5.47593808499534494600e-4) * r1
                 + 1.51986665636164571966e-2) * r1 + 1.48103976427480074590e-1) * r1
               + 6.89767334985100004550e-1) * r1 + 1.67638483018380384940e0) * r1
             + 2.05319162663775882187e0) * r1 + 1.0)
    r2 = rr[~near] - 5.0
    num2 = (((((((2.01033439929228813265e-7 * r2 + 2.71155556874348757815e-5) * r2
                 + 1.24266094738807843860e-3) * r2 + 2.65321895265761230930e-2) * r2
               + 2.96560571828504891230e-1) * r2 + 1.78482653991729133580e0) * r2
             + 5.46378491116411436990e0) * r2 + 6.65790464350110377720e0)
    den2 = (((((((2.04426310338993978564e-15 * r2 + 1.42151175831644588870e-7) * r2
                 + 1.84631831751005468180e-5) * r2 + 7.86869131145613259100e-4) * r2
               + 1.48753612908506148525e-2) * r2 + 1.36929880922735805310e-1) * r2
             + 5.99832206555887937690e-1) * r2 + 1.0)
    mag = np.empty(rr.shape)
    mag[near] = num1 / den1
    mag[~near] = num2 / den2
    vals[tail] = np.where(qq < 0.5, -mag, mag)

    out[inner] = vals
    return out if out.ndim else float(out)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the regularized incomplete beta."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # The even and then the odd term of step m, one Lentz update each.
        for coeff in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                      -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coeff * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + coeff / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``: the CDF of ``Beta(a, b)`` at ``x``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
