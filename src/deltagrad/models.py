"""Losses, gradients, and Hessian-vector products for the supported objectives.

Two strongly convex empirical-risk objectives are provided: binary logistic
regression (labels in {-1, +1}) and ridge regression. The regularizer
(l2/2)*||w||^2 is part of every per-sample loss, so per-sample gradients
carry an l2*w term and subset sums are consistent with n times the full
gradient. The one gradient kernel, `gradient_sum`, sums every row it is
given, in one block loop at one iterate (one-row datasets included) and
one at a matrix of iterates; rows are picked by `Objective.rows` alone.
A row's data-part gradient is a*x, and its coefficient a comes from one
function over arrays, `coefficients`, which the kernel's blocks and the
engine's one-row change terms both call.

All arithmetic is float64. Every function here is pure; Dataset arrays are
frozen after construction and safe to share across threads, except a
Dataset that `ActiveRows.dataset` returns, a view of rows that the next
edit of its ActiveRows changes. A Dataset whose feature rows nothing else
can reach hashes them once: its first fingerprint makes the array that
owns that memory read-only and keeps the digest (`Dataset`). The one piece
of module state is the helper-thread pool of `gradient_sum`: built on the
first gradient at one iterate of two or more row blocks, at most
MAX_HELPER_THREADS threads, shared by every calling thread and dropped in
a forked child, which builds its own. It changes no bit of any result: the
row blocks, fixed by BLOCK_BYTES, one contiguous run per thread, are summed
in block order. A Dataset owns its labels and checks once, on first use,
whether they are all +1 or -1; the logistic functions read that result
instead of scanning the labels on every call, and ridge never pays for it.
A logistic row x with label y has the loss and gradient of the signed row
y*x with label +1; a request stream keeps its rows signed (`ActiveRows`),
and the kernel at a matrix of iterates skips the label passes over them.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import os
import sys
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
# than the cores this process may run on, less one. One helper, the only
# setting measured (2 vCPUs), cut a 39-block gradient (n = 1e5, p = 50) from
# 4.1 to 2.9 ms and `train_gd` at T = 300 from 1.24 to 0.88 s (medians, 10 of
# 12 alternating process pairs); more would call BLAS beside OpenBLAS's own
# threads, which is unmeasured.
MAX_HELPER_THREADS = 1


class Dataset:
    """Dense feature matrix (n x p) with one label per row.

    Labels are {-1, +1} for logistic loss, arbitrary reals for ridge.
    Row indices are semantic: deletion requests refer to them, and the
    content fingerprint is order-sensitive.

    The labels are copied, so no caller-held array or view can change them
    after the one-time +-1 check; the features are not copied (a second
    n x p array would double the memory of large problems). The dataset
    keeps a read-only view of its own, whose base owns the rows' memory,
    so the caller's array stays writeable.

    `fingerprint` hashes the rows once if they are unshared: an ndarray
    owns their memory, and no object but this Dataset holds it or the
    view (a reference count, calibrated at import as `_SOLE`). Every view,
    memoryview and buffer export holds a reference to the owner, so any
    alias fails the test. The first fingerprint of an unshared dataset
    makes the owner read-only, tests again, and keeps the digest; numpy
    makes no writeable view of a read-only array. A caller gets this by
    keeping no alias: `Dataset(X, y)` with X made in the call or dropped
    after it, or any dataset a parser, `generate_synthetic`, `subset` or
    `extended` builds. A dataset over an array or view the caller keeps,
    over a buffer or an mmap, or an `ActiveRows.dataset` view is hashed at
    every call and tested again. A copy or an unpickled dataset is built
    by the constructor, so it is frozen and keeps no digest of its source.
    """

    def __init__(self, features, labels):
        X = np.ascontiguousarray(features, dtype=np.float64).view()
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
        self._digest = None     # kept once the rows are sealed

    def __reduce__(self):
        return Dataset, (self.features, self.labels)

    @functools.cached_property
    def _pm1_labels(self) -> bool:
        return bool((np.abs(self.labels) == 1.0).all())

    @functools.cached_property
    def _unit_labels(self) -> bool:
        # every label +1: logistic rows signed as y*x, as `ActiveRows` keeps them
        return bool((self.labels == 1.0).all())

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def fingerprint(self) -> bytes:
        """Order-sensitive 32-byte content hash of the canonical serialization;
        computed once if the rows are unshared, else at every call."""
        if self._digest is not None:
            return self._digest
        sealed = _refs(self) in _SOLE
        if sealed:
            self.features.base.flags.writeable = False
            sealed = _refs(self) in _SOLE       # no alias made in between
        h = hashlib.sha256()
        h.update(b"DGDS")
        h.update(np.asarray([self.n, self.p], dtype="<u8"))
        h.update(self.features.astype("<f8", copy=False))
        h.update(self.labels.astype("<f8", copy=False))
        digest = h.digest()
        if sealed:
            self._digest = digest
        return digest

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


def _refs(data: Dataset):
    """(references to data.features, references to the ndarray that owns
    its memory, `features.base`), or None where no ndarray owns it (a
    buffer, an mmap)."""
    X = data.features
    owner = X.base
    if not (isinstance(owner, np.ndarray) and owner.flags.owndata):
        return None
    return sys.getrefcount(X), sys.getrefcount(owner)


def _calibrate() -> frozenset:
    """The `_refs` of unshared features, measured on a probe; empty, so
    that nothing seals, unless a second holder of each array adds exactly
    one reference."""
    probe = Dataset(np.zeros((1, 1)), [1.0])
    x, o = alone = _refs(probe)
    second = probe.features, probe.features.base        # held in a second place
    if _refs(probe) != (x + 1, o + 1):
        return frozenset()
    return frozenset([alone])


_SOLE = _calibrate()


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
        if not 0.0 <= self.l2 < np.inf:
            raise ValueError("l2 must be >= 0 and finite")


def _check_w(data: Dataset, w, lanes: bool = False) -> np.ndarray:
    """w as float64 of shape (p,), or with `lanes` also (L, p), L iterates."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (data.p,) and not (lanes and w.ndim == 2 and w.shape[1] == data.p):
        expected = f"({data.p},) or (L, {data.p})" if lanes else f"({data.p},)"
        raise DimensionMismatchError(f"w has shape {w.shape}, expected {expected}")
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
    """Data-part gradient sum over rows lo .. lo+rows of (X, y) at one
    iterate w: z = X_b @ w, the per-row coefficient a, then X_b.T @ a. A
    logistic caller holds np.errstate(over="ignore")."""
    Xb = X[lo:lo + rows]
    return Xb.T @ coefficients(logistic, Xb @ w, y[lo:lo + rows])


def coefficients(logistic: bool, z, y, out=None):
    """The coefficients a of rows with labels y at margins z (arrays that
    broadcast), whose data-part gradients are a * x: (logistic)
    y / (-1 - exp(y*z)), an exact 0 where exp overflows, or (ridge) z - y;
    written into `out` when given, which may be z. Where exp may overflow
    the caller holds np.errstate(over="ignore")."""
    if not logistic:
        return np.subtract(z, y, out=out)
    a = np.multiply(y, z, out=out)
    np.exp(a, out=a)
    np.subtract(-1.0, a, out=a)
    np.divide(y, a, out=a)
    return a


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
    one block, a one-row change term among them, is that block's sum plus
    0.0, which turns -0.0 into 0.0 as the sum into zeros does, so the bits
    are the same. A matrix of L iterates runs one loop of its own
    (`_lanes_gradient`): the two products of a block are matrix products
    (gemm), and the blocks shrink so that each product stays within
    LANE_BLOCK_MACS; each row of the result equals the one-iterate sum to
    roundoff, not bit for bit. L = 0 iterates give a (0, p) sum.

    The block partition alone fixes the bits: a block's sum does not depend
    on the thread that computes it, so the result is the same whatever the
    worker count. Data of one block, and a matrix of iterates, are summed on
    the caller's thread alone (on a 200-request online stream, 2 vCPUs, a
    helper thread made the matrix sums slower, not faster). From two blocks
    on, the caller and each helper thread, built on first use (one per
    further core, at most MAX_HELPER_THREADS), sum one contiguous run of
    the blocks of one iterate (`_parallel_blocks`).
    """
    w = _check_w(data, w, lanes=True)
    X, y = data.features, data.labels
    logistic = cfg.kind == "logistic"
    if logistic:
        _check_logistic_labels(data)
    rows = max(1, BLOCK_BYTES // (8 * data.p))
    # exp(y*z) may overflow to inf, which makes the coefficient an exact 0
    with np.errstate(over="ignore") if logistic else contextlib.nullcontext():
        if w.ndim == 2:
            return _lanes_gradient(X, y, w, logistic, logistic and data._unit_labels, rows)
        if y.size <= rows:
            g = _block_gradient(X, y, w, logistic, rows, 0)
            g += 0.0
            return g
        block = functools.partial(_block_gradient, X, y, w, logistic, rows)
        parts = _parallel_blocks(*_helper_pool(), block, range(0, y.size, rows))
    return sum(parts, np.zeros(w.shape))


def _lanes_gradient(X, y, w, logistic: bool, signed: bool, rows: int) -> np.ndarray:
    """`gradient_sum` at iterates w (L, p), in blocks of at most `rows` rows
    and LANE_BLOCK_MACS: the margins w @ X_b.T of a block go into one
    buffer, its coefficients a overwrite them there, then g += a @ X_b.
    Rows with every label +1 (`signed`, the rows y*x a logistic stream
    keeps) skip the label passes: the coefficient y/(-1-e) of a row is
    y*(1/(-1-e)) exactly, and y*(x . w) is (y*x) . w, so each product term,
    and with it each sum, has the bits of the label-weighted kernel over
    (x, y). Ridge rows enter no errstate; a logistic caller holds
    np.errstate(over="ignore")."""
    L = len(w)
    if not L:
        return np.zeros(w.shape)
    rows = max(1, min(rows, LANE_BLOCK_MACS // (L * X.shape[1])))
    buf = np.empty(L * min(rows, len(X)))
    g = np.zeros(w.shape)
    for lo in range(0, len(X), rows):
        Xb = X[lo:lo + rows]
        a = buf[:L * len(Xb)].reshape(L, len(Xb))
        np.matmul(w, Xb.T, out=a)
        if signed:
            np.exp(a, out=a)
            np.subtract(-1.0, a, out=a)
            np.divide(1.0, a, out=a)
        else:
            coefficients(logistic, a, y[lo:lo + rows], out=a)
        g += a @ Xb
    return g


def _parallel_blocks(pool, helpers: int, block, starts) -> list:
    """[block(lo) for lo in starts] in min(helpers + 1, len(starts))
    contiguous runs: the caller computes the first, one job on `pool` each
    of the others. The caller then cancels the jobs no helper has started,
    computes their runs itself and reads the started jobs' results. Each job
    enters the caller's numpy error state, which numpy keeps per context
    (warning filters are process-wide). An error in any run is raised here,
    once every started job has ended."""
    err = np.geterr()

    def run(los):
        with np.errstate(**err):
            return [block(lo) for lo in los]

    k = min(helpers + 1, len(starts))
    runs = [starts[len(starts) * i // k:len(starts) * (i + 1) // k] for i in range(k)]
    jobs = [pool.submit(run, los) for los in runs[1:]]
    try:
        parts = run(runs[0])
        mine = [run(los) if job.cancel() else None for los, job in zip(runs[1:], jobs)]
    finally:
        for job in jobs:            # on an error in the caller, stop the helpers too
            if not job.cancel():
                job.exception()     # waits for a started job to end
    for job, part in zip(jobs, mine):
        parts += job.result() if part is None else part
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
    logistic = cfg.kind == "logistic"
    if logistic:
        _check_logistic_labels(data)
    with np.errstate(over="ignore") if logistic else contextlib.nullcontext():
        a = coefficients(logistic, z, data.labels)
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
    The rows live in one buffer with room for `capacity` rows, and every
    edit works in place: a deletion moves the rows after it up by one, an
    addition writes its rows after the last. `dataset()` views the buffer,
    so it is valid only until the next edit.

    With `signed` (logistic loss) each row is stored as y*x with label +1,
    which has the same logistic loss and gradient; `gradient_sum` at a
    matrix of iterates then skips its label passes. The buffer is filled
    when the set is made: every stream of two or more requests edits its
    set when request 0 finishes.
    """

    def __init__(self, data: Dataset, capacity: int, signed: bool = False):
        self._signed = signed
        self._X = np.empty((capacity, data.p))
        self._y = np.ones(capacity) if signed else np.empty(capacity)
        self._deleted = np.empty(0, dtype=np.intp)     # sorted
        self.n = data.n
        self._write(0, data.features, data.labels)

    def positions(self, ids) -> np.ndarray:
        """Positions in `dataset()` of the active rows `ids`."""
        ids = np.asarray(ids, dtype=np.intp)
        return ids - np.searchsorted(self._deleted, ids)

    def dataset(self) -> Dataset:
        return Dataset(self._X[:self.n], self._y[:self.n])

    def _write(self, at: int, features, labels):
        """Rows `features` with `labels` into the buffer from position `at`."""
        end = at + len(labels)
        if self._signed:
            np.multiply(features, np.asarray(labels)[:, None], out=self._X[at:end])
        else:
            self._X[at:end] = features
            self._y[at:end] = labels

    def delete(self, ids):
        """Drop the active rows `ids`."""
        X, y = self._X, self._y
        ids = np.sort(ids)
        for q in self.positions(ids)[::-1]:             # from the last up
            X[q:self.n - 1] = X[q + 1:self.n]
            if not self._signed:                        # signed labels are all +1
                y[q:self.n - 1] = y[q + 1:self.n]
            self.n -= 1
        self._deleted = np.insert(self._deleted, np.searchsorted(self._deleted, ids), ids)

    def append(self, features, labels):
        """Add rows after the last; they take the next ids."""
        self._write(self.n, features, labels)
        self.n += len(labels)
