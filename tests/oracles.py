"""Slow reference implementations the tests compare against.

Everything here is deliberately written as plain scalar loops (or textbook
closed forms) and stays independent of the package's vectorized code paths.
"""

import math

import numpy as np


def per_sample_grad(kind, l2, x, y, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    z = sum(float(a) * float(b) for a, b in zip(x, w))
    if kind == "logistic":
        m = y * z
        # math.exp(-m) overflows below m = -709; e^m / (1 + e^m) is the same value
        s = 1.0 / (1.0 + math.exp(-m)) if m >= 0 else math.exp(m) / (1.0 + math.exp(m))
        coeff = (s - 1.0) * y
    else:
        coeff = z - y
    return np.array([coeff * float(a) + l2 * float(b) for a, b in zip(x, w)])


def loss_scalar(kind, l2, X, y, w):
    total = 0.0
    for i in range(len(y)):
        z = sum(float(a) * float(b) for a, b in zip(X[i], w))
        if kind == "logistic":
            total += math.log(1.0 + math.exp(-y[i] * z))
        else:
            total += 0.5 * (z - y[i]) ** 2
    reg = 0.5 * l2 * sum(float(b) ** 2 for b in w)
    return total / len(y) + reg


def grad_scalar(kind, l2, X, y, w):
    acc = np.zeros(len(w))
    for i in range(len(y)):
        acc += per_sample_grad(kind, 0.0, X[i], y[i], w)
    return acc / len(y) + l2 * np.asarray(w, dtype=float)


def fd_gradient(f, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def ridge_solution(X, y, l2):
    """Minimizer of (1/2n)||Xw - y||^2 + (l2/2)||w||^2."""
    n, p = X.shape
    return np.linalg.solve(X.T @ X / n + l2 * np.eye(p), X.T @ y / n)


def laplace_cdf(x, scale):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def ks_statistic(samples, cdf):
    s = np.sort(samples)
    n = s.size
    theo = cdf(s)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return max(upper, lower)
