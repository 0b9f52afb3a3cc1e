"""Losses, gradients, and Hessian-vector products for the supported objectives.

Two strongly convex empirical-risk objectives are provided: binary logistic
regression (labels in {-1, +1}) and ridge regression. The regularizer
(l2/2)*||w||^2 is part of every per-sample loss, so per-sample gradients
carry an l2*w term and subset sums are consistent with n times the full
gradient.

All arithmetic is float64. Every function here is pure; Dataset arrays are
frozen after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

LOSS_KINDS = ("logistic", "ridge")

# Byte budget of one row block in `gradient_sum`: small enough that a block
# of X stays in a 2 MB L2 between `X_b @ w` and `X_b.T @ a`, so X is read
# from memory once per gradient instead of twice.
BLOCK_BYTES = 1 << 20


class Dataset:
    """Dense feature matrix (n x p) with one label per row.

    Labels are {-1, +1} for logistic loss, arbitrary reals for ridge.
    Row indices are semantic: deletion requests refer to them, and the
    content fingerprint is order-sensitive.
    """

    def __init__(self, features, labels):
        X = np.ascontiguousarray(features, dtype=np.float64)
        y = np.ascontiguousarray(labels, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError(f"features must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1:
            raise DimensionMismatchError(f"labels must be 1-D, got ndim={y.ndim}")
        if X.shape[0] != y.shape[0]:
            raise DimensionMismatchError(
                f"{X.shape[0]} feature rows vs {y.shape[0]} labels"
            )
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionMismatchError("dataset needs n >= 1 and p >= 1")
        X.flags.writeable = False
        y.flags.writeable = False
        self.features = X
        self.labels = y

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def fingerprint(self) -> bytes:
        """Order-sensitive 32-byte content hash of the canonical serialization."""
        h = hashlib.sha256()
        h.update(b"DGDS")
        h.update(np.asarray([self.n, self.p], dtype="<u8"))
        h.update(self.features.astype("<f8", copy=False))
        h.update(self.labels.astype("<f8", copy=False))
        return h.digest()

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx])

    def extended(self, features, labels) -> "Dataset":
        """New dataset with extra rows appended after the existing ones."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.p:
            raise DimensionMismatchError(
                f"appended rows have shape {X.shape}, expected (*, {self.p})"
            )
        y = np.asarray(labels, dtype=np.float64).reshape(-1)
        return Dataset(np.vstack([self.features, X]), np.concatenate([self.labels, y]))


@dataclass(frozen=True)
class LossConfig:
    """Objective selector: kind in {"logistic", "ridge"} and l2 coefficient.

    l2 > 0 is required by the strong-convexity engines (mu = l2); l2 = 0 is
    accepted only by the guarded general engine.
    """

    kind: str = "logistic"
    l2: float = 0.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not self.l2 >= 0.0:
            raise ValueError("l2 must be >= 0")


def _check_w(data: Dataset, w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.p,):
        raise DimensionMismatchError(f"w has shape {w.shape}, expected ({data.p},)")
    return w


def sigmoid(z):
    """Numerically stable logistic function.

    exp(-|z|) never overflows: 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_logistic_labels(y):
    if not (np.abs(y) == 1.0).all():
        raise ValueError("logistic loss requires labels exactly +1 or -1")


def loss(cfg: LossConfig, data: Dataset, w) -> float:
    """Average regularized loss (1/n) sum_i F_i(w) + (l2/2)*||w||^2."""
    w = _check_w(data, w)
    z = data.features @ w
    if cfg.kind == "logistic":
        _check_logistic_labels(data.labels)
        # log(1 + exp(-y*z)) evaluated stably via logaddexp(0, -y*z)
        core = float(np.mean(np.logaddexp(0.0, -data.labels * z)))
    else:
        core = float(0.5 * np.mean((z - data.labels) ** 2))
    return core + 0.5 * cfg.l2 * float(w @ w)


def gradient_sum(cfg: LossConfig, data: Dataset, w, indices=None) -> np.ndarray:
    """Sum over rows of the data part of per-sample gradients (no l2 term).

    indices=None sums over every row. This is the shared kernel for the
    trainer and the update engines; the regularizer is added by callers so
    that identical update formulas stay bitwise identical.

    Rows are summed in blocks of BLOCK_BYTES: z = X_b @ w, the per-row
    coefficient a, then g += X_b.T @ a. The logistic coefficient is
    (sigmoid(y*z) - 1)*y written as -y*sigmoid(-y*z). `indices` gathers its
    rows first and runs the same blocks, so indices=arange(n) reproduces
    indices=None bit for bit.
    """
    w = _check_w(data, w)
    X, y = data.features, data.labels
    if indices is not None:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return np.zeros(data.p)
        if idx.min() < 0 or idx.max() >= data.n:
            raise IndexError(f"sample index out of range [0, {data.n})")
        X, y = X[idx], y[idx]
    logistic = cfg.kind == "logistic"
    if logistic:
        _check_logistic_labels(y)
    rows = max(1, BLOCK_BYTES // (8 * data.p))
    g = np.zeros(data.p)
    for lo in range(0, y.size, rows):
        Xb, yb = X[lo:lo + rows], y[lo:lo + rows]
        z = Xb @ w
        a = -yb * sigmoid(-yb * z) if logistic else z - yb
        g += Xb.T @ a
    return g


def full_gradient(cfg: LossConfig, data: Dataset, w) -> np.ndarray:
    """Gradient of the average regularized loss."""
    w = _check_w(data, w)
    return gradient_sum(cfg, data, w) / data.n + cfg.l2 * w


def subset_gradient_sum(cfg: LossConfig, data: Dataset, w, indices) -> np.ndarray:
    """Unnormalized sum of per-sample gradients over the given row indices.

    Per-sample gradients include the l2*w regularization term, so summing
    over all rows gives n * full_gradient.
    """
    w = _check_w(data, w)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        return np.zeros(data.p)
    return gradient_sum(cfg, data, w, idx) + idx.size * cfg.l2 * w


def hessian_vector_product(cfg: LossConfig, data: Dataset, w, v) -> np.ndarray:
    """Exact H(w) @ v for the average regularized loss.

    Used by test oracles and the constant estimators only; the update
    engines never touch the true Hessian.
    """
    w = _check_w(data, w)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (data.p,):
        raise DimensionMismatchError(f"v has shape {v.shape}, expected ({data.p},)")
    X = data.features
    if cfg.kind == "logistic":
        _check_logistic_labels(data.labels)
        s = sigmoid(data.labels * (X @ w))
        lam = s * (1.0 - s)
        return X.T @ (lam * (X @ v)) / data.n + cfg.l2 * v
    return X.T @ (X @ v) / data.n + cfg.l2 * v


def per_sample_gradient_norms(cfg: LossConfig, data: Dataset, w) -> np.ndarray:
    """||grad F_i(w)|| for every row, including the l2*w term.

    Each per-sample gradient is a_i * x_i + l2 * w for a scalar a_i, so the
    norms come from a closed form instead of materializing an n x p array.
    """
    w = _check_w(data, w)
    X = data.features
    z = X @ w
    if cfg.kind == "logistic":
        _check_logistic_labels(data.labels)
        a = (sigmoid(data.labels * z) - 1.0) * data.labels
    else:
        a = z - data.labels
    row_sq = np.einsum("ij,ij->i", X, X)
    sq = a * a * row_sq + 2.0 * cfg.l2 * a * z + cfg.l2 ** 2 * float(w @ w)
    return np.sqrt(np.maximum(sq, 0.0))


def smoothness_bound(cfg: LossConfig, data: Dataset) -> float:
    """Upper bound on the per-sample smoothness constant of the objective.

    logistic: l2 + 0.25 * max_i ||x_i||^2 (sigmoid' <= 1/4);
    ridge:    l2 + lambda_max(X'X / n).
    """
    row_sq = np.einsum("ij,ij->i", data.features, data.features)
    if cfg.kind == "logistic":
        return cfg.l2 + 0.25 * float(row_sq.max())
    gram = data.features.T @ data.features / data.n
    return cfg.l2 + float(np.linalg.eigvalsh(gram)[-1])


class Objective:
    """Bundles a loss configuration with a sample set.

    The update engines and the trainer route every gradient evaluation
    through this adapter so that the r = 0 arithmetic is literally the
    training-time expression. `removed` (sorted row ids, usually empty) is
    subtracted from the all-rows sum; the online engine grows it per deletion.
    """

    def __init__(self, cfg: LossConfig, data: Dataset, removed=()):
        self.cfg = cfg
        self.data = data
        self.removed = np.asarray(removed, dtype=np.intp)

    @property
    def n(self) -> int:
        return self.data.n - self.removed.size

    @property
    def p(self) -> int:
        return self.data.p

    @property
    def l2(self) -> float:
        return self.cfg.l2

    def data_grad_sum(self, w, indices=None) -> np.ndarray:
        """Sum of data-part gradients over `indices` (absolute row ids),
        or over all rows not removed when indices is None."""
        if indices is not None:
            return gradient_sum(self.cfg, self.data, w, indices)
        total = gradient_sum(self.cfg, self.data, w)
        if self.removed.size:
            total -= gradient_sum(self.cfg, self.data, w, self.removed)
        return total

    def full_avg_gradient(self, w) -> np.ndarray:
        return self.data_grad_sum(w) / self.n + self.l2 * w

    def batch_avg_gradient(self, w, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.intp)
        return self.data_grad_sum(w, idx) / idx.size + self.l2 * w
