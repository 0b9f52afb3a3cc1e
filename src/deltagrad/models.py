"""Losses, gradients, and Hessian-vector products for the supported objectives.

Two strongly convex empirical-risk objectives are provided: binary logistic
regression (labels in {-1, +1}) and ridge regression. The regularizer
(l2/2)*||w||^2 is part of every per-sample loss, so per-sample gradients
carry an l2*w term and subset sums are consistent with n times the full
gradient. The one gradient kernel, `gradient_sum`, sums every row it is
given; rows are picked by `Objective.rows` alone.

All arithmetic is float64. Every function here is pure; Dataset arrays are
frozen after construction and safe to share across threads, except a
Dataset that `ActiveRows.dataset` returns, a view of rows that the next
edit of its ActiveRows changes. The one piece
of module state is the helper-thread pool of `gradient_sum`: built on the
first gradient at one iterate of two or more row blocks, at most
MAX_HELPER_THREADS threads, shared by every calling thread and dropped in
a forked child, which builds its own. It changes no bit of any result: the row blocks,
fixed by BLOCK_BYTES, are summed in block order whatever thread computed
them. A Dataset owns its labels and checks once, on first use, whether
they are all +1 or -1; the logistic functions read that result instead of
scanning the labels on every call, and ridge never pays for it.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import functools
import hashlib
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

LOSS_KINDS = ("logistic", "ridge")

# Byte budget of one row block in `gradient_sum`: small enough that a block
# of X stays in a 2 MB L2 between `X_b @ w` and `X_b.T @ a`, so X is read
# from memory once per gradient instead of twice.
BLOCK_BYTES = 1 << 20

# Most multiply-adds in each of the two products of one row block when
# `gradient_sum` is given a matrix of iterates (rows x iterates x p): the
# block's rows shrink as the iterates grow. The R x L margins then stay in
# cache beside the block of X (2 MB / p at most), and each product stays
# below OpenBLAS's threading threshold (m*n*k of 65536 times 4), so it
# runs on its caller's thread: on a 200-request online stream (2 vCPUs)
# threaded products raised the peak RSS by about 6 MB.
LANE_BLOCK_MACS = 1 << 18

# Most helper threads that join the caller of `gradient_sum`, and never more
# than the cores this process may run on, less one. One helper is the only
# configuration measured (2 cores); more would call BLAS concurrently beside
# OpenBLAS's own threads, which is unmeasured.
MAX_HELPER_THREADS = 1


class Dataset:
    """Dense feature matrix (n x p) with one label per row.

    Labels are {-1, +1} for logistic loss, arbitrary reals for ridge.
    Row indices are semantic: deletion requests refer to them, and the
    content fingerprint is order-sensitive.

    The labels are copied, so no caller-held array or view can change them
    after the one-time +-1 check; the features are not copied (a second
    n x p array would double the memory of large problems).
    """

    def __init__(self, features, labels):
        X = np.ascontiguousarray(features, dtype=np.float64)
        y = np.array(labels, dtype=np.float64)
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

    @functools.cached_property
    def _pm1_labels(self) -> bool:
        return bool((np.abs(self.labels) == 1.0).all())

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


def _check_w(data: Dataset, w, lanes: bool = False) -> np.ndarray:
    """w as float64 of shape (p,), or with `lanes` also (L, p), L iterates."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.p,) and not (lanes and w.ndim == 2 and w.shape[1] == data.p):
        raise DimensionMismatchError(f"w has shape {w.shape}, expected ({data.p},)")
    return w


def sigmoid(z):
    """Numerically stable logistic function.

    exp(-|z|) never overflows: 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_logistic_labels(data: Dataset):
    if not data._pm1_labels:
        raise ValueError("logistic loss requires labels exactly +1 or -1")


def loss(cfg: LossConfig, data: Dataset, w) -> float:
    """Average regularized loss (1/n) sum_i F_i(w) + (l2/2)*||w||^2."""
    w = _check_w(data, w)
    z = data.features @ w
    if cfg.kind == "logistic":
        _check_logistic_labels(data)
        # log(1 + exp(-y*z)) evaluated stably via logaddexp(0, -y*z)
        core = float(np.mean(np.logaddexp(0.0, -data.labels * z)))
    else:
        core = float(0.5 * np.mean((z - data.labels) ** 2))
    return core + 0.5 * cfg.l2 * float(w @ w)


def _block_gradient(X, y, w, logistic: bool, rows: int, lo: int) -> np.ndarray:
    """Data-part gradient sum over rows lo .. lo+rows of (X, y): z = X_b @ w,
    the per-row coefficient a, then X_b.T @ a. For iterates as rows w
    (L, p), the same as matrix products: z = w @ X_b.T (L x R), then a @ X_b
    (L x p). A logistic caller holds np.errstate(over="ignore")."""
    Xb, yb = X[lo:lo + rows], y[lo:lo + rows]
    if w.ndim == 2:
        return coefficients(logistic, w @ Xb.T, yb) @ Xb
    return Xb.T @ coefficients(logistic, Xb @ w, yb)


def coefficients(logistic: bool, z, y):
    """The coefficients a of rows with labels y at margins z (arrays that
    broadcast), whose data-part gradients are a * x: (logistic)
    y / (-1 - exp(y*z)), an exact 0 where exp overflows, or (ridge) z - y.
    Where exp may overflow the caller holds np.errstate(over="ignore")."""
    if not logistic:
        return z - y
    a = y * z
    np.exp(a, out=a)
    np.subtract(-1.0, a, out=a)
    np.divide(y, a, out=a)
    return a


# exp(a) overflows from a = log(DBL_MAX) ~ 709.78 on; the one-row logistic
# coefficient enters np.errstate only above this margin
EXP_SAFE_MARGIN = 709.0


def coefficient(kind: str, z: float, y: float) -> float:
    """The coefficient a of a row x with label y at margin z = x . w, whose
    data-part gradient is a * x, in plain floats: (logistic)
    y / (-1 - exp(y*z)) or (ridge) z - y. Each float operation is the one
    the block kernel applies to its arrays, and exp is np.exp, so a has the
    kernel's bits; np.errstate is entered only where exp overflows, above
    EXP_SAFE_MARGIN, and the coefficient is then an exact 0."""
    if kind != "logistic":
        return z - y
    a = y * z
    if a > EXP_SAFE_MARGIN:
        with np.errstate(over="ignore"):
            return y / (-1.0 - float(np.exp(a)))
    return y / (-1.0 - float(np.exp(a)))


def gradient_sum(cfg: LossConfig, data: Dataset, w) -> np.ndarray:
    """Sum over every row of `data` of the data part of per-sample
    gradients (no l2 term), at one iterate w (p,) or at each row of a matrix
    of iterates (L, p), which gives one sum per row (L, p).

    This is the shared kernel for the trainer and the update engines; the
    regularizer is added by callers so that identical update formulas stay
    bitwise identical.

    Rows are summed in blocks of BLOCK_BYTES: z = X_b @ w, the per-row
    coefficient a, then X_b.T @ a. The logistic coefficient is
    (sigmoid(y*z) - 1)*y = -y / (1 + exp(y*z)), computed as
    y / (-1 - exp(y*z)); where exp overflows the coefficient is an exact 0.
    The block sums are added into zeros in block order; the sum of data of
    one block is that block's sum plus 0.0, which turns -0.0 into 0.0 as the
    sum into zeros does, so the bits are the same. One row, the size of most
    change terms in an online stream, skips the block machinery: its
    gradient is its float `coefficient` times the row, plus 0.0, again the
    same bits. A matrix of L iterates makes the two products of a block
    matrix products (gemm), and the blocks shrink so that each product
    stays within LANE_BLOCK_MACS; each row of the result equals the
    one-iterate sum to roundoff, not bit for bit.

    The block partition alone fixes the bits: a block's sum does not depend
    on the thread that computes it, so the result is the same whatever the
    worker count. Data of one block, and a matrix of iterates, are summed on
    the caller's thread alone (on a 200-request online stream, 2 vCPUs, a
    helper thread made the matrix sums slower, not faster). From two blocks
    on, the caller and the helper threads (one per further core this
    process may run on, at most MAX_HELPER_THREADS) draw the blocks of one
    iterate from one shared counter; the helper pool is built on first use.
    """
    w = _check_w(data, w, lanes=True)
    X, y = data.features, data.labels
    logistic = cfg.kind == "logistic"
    if logistic:
        _check_logistic_labels(data)
    rows = max(1, BLOCK_BYTES // (8 * data.p))
    if w.ndim == 2:
        rows = max(1, min(rows, LANE_BLOCK_MACS // (w.shape[0] * data.p)))
    elif y.size == 1:
        # z = x . w as the block's 1 x p product (`dot` and `@` make the same
        # BLAS call), then the coefficient in floats
        g = X[0] * coefficient(cfg.kind, X.dot(w).item(), y.item())
        g += 0.0
        return g
    # exp(y*z) may overflow to inf, which makes the coefficient an exact 0
    with np.errstate(over="ignore") if logistic else contextlib.nullcontext():
        if y.size <= rows:
            g = _block_gradient(X, y, w, logistic, rows, 0)
            g += 0.0
            return g
        block = functools.partial(_block_gradient, X, y, w, logistic, rows)
        starts = range(0, y.size, rows)
        pool, helpers = _helper_pool() if w.ndim == 1 else (None, 0)
        parts = _parallel_blocks(pool, helpers, block, starts) if helpers else map(block, starts)
        g = np.zeros(w.shape)
        for part in parts:
            g += part
    return g


def _parallel_blocks(pool, helpers: int, block, starts) -> list:
    """[block(lo) for lo in starts], computed by the caller and up to
    `helpers` jobs on `pool` that draw from one shared iterator.

    Each job enters the caller's numpy error state, which a helper thread
    would not see otherwise: numpy keeps it per context. Warning filters
    are process-wide, so the caller's hold in the jobs as they are. Once
    the caller finds nothing left to draw, it cancels the jobs not yet
    started and waits only for the running ones; an error in any job is
    raised here.
    """
    parts = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock = threading.Lock()
    err = np.geterr()

    def drain():
        with np.errstate(**err):
            while True:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                parts[i] = block(starts[i])

    jobs = [pool.submit(drain) for _ in range(min(helpers, len(starts) - 1))]
    try:
        drain()
    finally:
        with lock:                  # on an error in the caller, stop the helpers too
            collections.deque(todo, maxlen=0)
        started = [job for job in jobs if not job.cancel()]
        for job in started:
            job.exception()         # waits for the job to end
    for job in started:
        job.result()
    return parts


_pool_lock = threading.Lock()
_pool = None        # (executor or None, helper count), built by _helper_pool


def _helper_pool():
    """The gradient helper threads: one per core this process may run on,
    less the caller's, at most MAX_HELPER_THREADS; (None, 0) on one core."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            helpers = min(cores - 1, MAX_HELPER_THREADS)
            # imported here: concurrent.futures and the logging it loads add
            # about 0.6 MB to a process whose gradients never fan out
            from concurrent.futures import ThreadPoolExecutor
            executor = ThreadPoolExecutor(helpers, "deltagrad-gradient") if helpers > 0 else None
            _pool = (executor, helpers)
        return _pool


def _forget_pool():
    # a forked child has none of its parent's threads; it builds its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def full_gradient(cfg: LossConfig, data: Dataset, w) -> np.ndarray:
    """Gradient of the average regularized loss."""
    w = _check_w(data, w)
    return gradient_sum(cfg, data, w) / data.n + cfg.l2 * w


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
        _check_logistic_labels(data)
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
        _check_logistic_labels(data)
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
    training-time expression. Subclasses override `data_grad_sum(w)`. `rows`
    is the one way to pick rows, for minibatch steps and deleted rows; the
    rows a request stream has left active come as a Dataset of their own
    (`ActiveRows.dataset`), so every gradient of an objective is one kernel
    call over its rows.
    """

    def __init__(self, cfg: LossConfig, data: Dataset):
        self.cfg = cfg
        self.data = data

    def rows(self, ids) -> "Objective | None":
        """This objective over rows `ids` only, gathered once; None for no rows."""
        idx = np.asarray(ids, dtype=np.intp)
        if idx.size == 0:
            return None
        if idx.min() < 0 or idx.max() >= self.data.n:
            raise IndexError(f"sample index out of range [0, {self.data.n})")
        if self.cfg.kind == "logistic":     # every label, not only the picked ones
            _check_logistic_labels(self.data)
        part = copy.copy(self)
        part.data = self.data.subset(idx)
        return part

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def p(self) -> int:
        return self.data.p

    @property
    def l2(self) -> float:
        return self.cfg.l2

    def data_grad_sum(self, w) -> np.ndarray:
        """Sum of data-part gradients over every row, at w (p,) or at each
        row of a matrix of iterates (L, p); a subclass may take w (p,) only."""
        return gradient_sum(self.cfg, self.data, w)

    def full_avg_gradient(self, w) -> np.ndarray:
        return self.data_grad_sum(w) / self.n + self.l2 * w


class ActiveRows:
    """The sample set a request stream edits: the rows of `data`, then rows
    added in arrival order, less the deleted ones.

    Rows are named by ids: 0 .. n-1 for the rows of `data`, then n, n+1, ...
    for added rows in arrival order. The active rows are kept in id order,
    the order a retraining on the remaining samples sees them, so the row
    of id i sits at position i minus the number of deleted ids below i.
    Until the first edit the set is `data` itself; the first edit copies
    the rows once into a buffer with room for `capacity` rows, and each
    later edit works in place: a deletion moves the rows after it up by
    one, an addition writes its rows after the last. `dataset()` views the
    buffer, so it is valid only until the next edit.
    """

    def __init__(self, data: Dataset, capacity: int):
        self._data = data
        self._capacity = capacity
        self._X = self._y = None
        self._deleted = np.empty(0, dtype=np.intp)     # sorted
        self.n = data.n
        self.next_id = data.n

    def positions(self, ids) -> np.ndarray:
        """Positions in `dataset()` of the active rows `ids`."""
        ids = np.asarray(ids, dtype=np.intp)
        return ids - np.searchsorted(self._deleted, ids)

    def dataset(self) -> Dataset:
        if self._X is None:
            return self._data
        return Dataset(self._X[:self.n], self._y[:self.n])

    def _buffer(self):
        if self._X is None:
            self._X = np.empty((self._capacity, self._data.p))
            self._y = np.empty(self._capacity)
            self._X[:self.n] = self._data.features
            self._y[:self.n] = self._data.labels
        return self._X, self._y

    def delete(self, ids):
        """Drop the active rows `ids`."""
        X, y = self._buffer()
        ids = np.sort(ids)
        for q in self.positions(ids)[::-1]:             # from the last up
            X[q:self.n - 1] = X[q + 1:self.n]
            y[q:self.n - 1] = y[q + 1:self.n]
            self.n -= 1
        self._deleted = np.insert(self._deleted, np.searchsorted(self._deleted, ids), ids)

    def append(self, features, labels):
        """Add rows after the last; they take the next ids."""
        X, y = self._buffer()
        r = len(labels)
        X[self.n:self.n + r] = features
        y[self.n:self.n + r] = labels
        self.n += r
        self.next_id += r
