"""Deterministic GD / minibatch-SGD training with full trajectory caching.

The trainer records every iterate and every step gradient; that cache is
what the update engines consume instead of retraining. Histories are
bit-reproducible: rerunning the same TrainConfig on the same dataset gives
identical arrays, and the minibatch schedule reconstructs from (seed, n,
batch_size, iterations) alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, FingerprintMismatchError
from .models import Dataset, LossConfig, Objective, smoothness_bound


def require_integer(value, what: str) -> int:
    """int(value) of a Python or numpy integer (never wraps); others, 3.0 too, raise ValueError."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what}: {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class TrainConfig:
    """Training recipe.

    eta_schedule is a list of (first_iteration, rate) breakpoints, sorted
    ascending and starting at 0; each rate applies from its breakpoint up
    to the next one. batch_size == n means deterministic full-batch GD.
    """

    loss: LossConfig
    iterations: int
    batch_size: int
    eta_schedule: tuple = ((0, 0.1),)
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "batch_size", "seed"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        sched = tuple((require_integer(t, "eta_schedule breakpoint"), float(r))
                      for t, r in self.eta_schedule)
        object.__setattr__(self, "eta_schedule", sched)
        if not sched or sched[0][0] != 0:
            raise ValueError("eta_schedule must start with a breakpoint at iteration 0")
        if not all(0.0 < r < np.inf for _, r in sched):
            raise ValueError("learning rates must be positive and finite")
        if any(nxt[0] <= prev[0] for prev, nxt in zip(sched, sched[1:])):
            raise ValueError("eta_schedule breakpoints must be strictly increasing")
        if sched[-1][0] >= 2**64:     # a cache stores each breakpoint in 64 bits
            raise ValueError("eta_schedule breakpoints must be below 2**64")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")

    def eta_at(self, t: int) -> float:
        rate = self.eta_schedule[0][1]
        for start, r in self.eta_schedule:
            if t >= start:
                rate = r
            else:
                break
        return rate


@dataclass
class TrainingHistory:
    """Cached optimization path: iterates w_0..w_T and step gradients.

    For GD the gradients are full-batch; for SGD they are the
    minibatch-average gradients actually used by each update. Invariant:
    params has iterations+1 rows, gradients has iterations rows, and
    replaying the config from params[0] reproduces params exactly.
    """

    params: np.ndarray
    gradients: np.ndarray
    config: TrainConfig
    n: int
    p: int
    fingerprint: bytes

    @property
    def iterations(self) -> int:
        return self.params.shape[0] - 1

    def batches(self) -> list[np.ndarray]:
        """Reconstruct the minibatch schedule this history was trained with."""
        return derive_schedule(
            self.config.seed, self.n, self.config.batch_size, self.iterations
        )

    def copy(self) -> "TrainingHistory":
        return TrainingHistory(
            self.params.copy(),
            self.gradients.copy(),
            self.config,
            self.n,
            self.p,
            self.fingerprint,
        )


def verify_fingerprint(history: TrainingHistory, data: Dataset):
    """Raise FingerprintMismatchError unless `data` is the dataset `history`
    was trained on."""
    if history.fingerprint != data.fingerprint():
        raise FingerprintMismatchError("training history was cached for a different dataset")


def derive_schedule(seed: int, n: int, batch_size: int, iterations: int):
    """Epoch-shuffled sampling without replacement.

    Each epoch draws one permutation of [0, n) from a counter-keyed Philox
    stream (key = (seed, epoch)), slices it into ceil(n/B) batches, and
    emits them until `iterations` batches exist. The last slice of an epoch
    is shorter when B does not divide n; consumers divide by the actual
    batch size. Batch index lists are sorted ascending, so B == n yields
    arange(n) every iteration and SGD degenerates bitwise to GD.
    """
    if batch_size > n:
        raise ValueError("batch_size cannot exceed n")
    batches: list[np.ndarray] = []
    epoch = 0
    while len(batches) < iterations:
        key = np.array([seed, epoch], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        perm = rng.permutation(n)
        for s in range(0, n, batch_size):
            if len(batches) >= iterations:
                break
            batches.append(np.sort(perm[s : s + batch_size]))
        epoch += 1
    return batches


def _warn_if_rate_too_large(cfg: TrainConfig, data: Dataset):
    bound = 2.0 / (smoothness_bound(cfg.loss, data) + cfg.loss.l2)
    worst = max(r for _, r in cfg.eta_schedule)
    if worst > bound:
        warnings.warn(
            f"learning rate {worst:g} exceeds the contraction bound "
            f"2/(L+mu) = {bound:g}; training may not converge",
            stacklevel=4,
        )


def _check_finite(t: int, w_next: np.ndarray, last: np.ndarray):
    """Raise at step t unless the next iterate is finite; `last` is the last
    finite iterate. A non-finite step gradient always gives a non-finite
    next iterate, since every rate is positive. (count_nonzero is one C
    call; ndarray.all goes through a Python wrapper, about 1 us more per
    step at p = 20.)"""
    if np.count_nonzero(np.isfinite(w_next)) != w_next.size:
        raise DivergenceError(t, "non-finite parameters", last_finite=last)


def _descend(obj: Objective, w0, eta_at, iterations: int, batches=None):
    """The plain gradient-descent loop of training and retraining.

    Step t averages over every row of `obj` when `batches` is None, else
    over `obj.rows(batches[t])`; an empty batch leaves the iterate unchanged
    and records a zero step gradient. Returns the iterates w_0..w_T and the
    step gradients.
    """
    w = np.array(w0, dtype=np.float64)
    params = np.empty((iterations + 1, obj.p))
    grads = np.zeros((iterations, obj.p))
    params[0] = w
    for t in range(iterations):
        step = obj if batches is None else obj.rows(batches[t])
        if step is None:
            params[t + 1] = w
            continue
        g = step.full_avg_gradient(w)
        w_next = w - eta_at(t) * g
        _check_finite(t, w_next, w)
        grads[t] = g
        params[t + 1] = w = w_next
    return params, grads


def _train(data: Dataset, cfg: TrainConfig, obj: Objective, w0, batches=None):
    _warn_if_rate_too_large(cfg, data)
    params, grads = _descend(obj, w0, cfg.eta_at, cfg.iterations, batches)
    return TrainingHistory(params, grads, cfg, data.n, data.p, data.fingerprint())


def train_gd(data: Dataset, cfg: TrainConfig, objective: Objective | None = None,
             w0=None) -> TrainingHistory:
    """Full-batch gradient descent, caching every iterate and gradient.

    Requires cfg.batch_size == n. `objective` overrides the loss bundle
    (custom per-sample losses for the guarded engine); `w0` overrides the
    zero initial point.
    """
    if cfg.batch_size != data.n:
        raise ValueError("train_gd requires batch_size == n")
    obj = objective if objective is not None else Objective(cfg.loss, data)
    return _train(data, cfg, obj, np.zeros(data.p) if w0 is None else w0)


def train_sgd(data: Dataset, cfg: TrainConfig) -> TrainingHistory:
    """Minibatch SGD over the derived schedule, caching the minibatch-average
    gradient used at each step."""
    if not 1 <= cfg.batch_size <= data.n:
        raise ValueError("need 1 <= batch_size <= n")
    batches = derive_schedule(cfg.seed, data.n, cfg.batch_size, cfg.iterations)
    return _train(data, cfg, Objective(cfg.loss, data), np.zeros(data.p), batches)
