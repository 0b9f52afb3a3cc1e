"""Incremental model-update engines and the naive retraining baseline.

Every engine is a setting of one request driver, `_update`, which runs a
request list through one correction loop, `_run_gd_core`. The loop
corrects a cached training trajectory after sample deletion or addition
without retraining from scratch:

  unlearn_batch_gd / relearn_batch_gd  -- all rows, less or plus the change
  unlearn_batch_sgd                    -- each recorded minibatch, less its
                                          deleted rows
  unlearn_general                      -- all rows, with convexity guards
  unlearn_online                       -- a stream of single-sample requests

During a burn-in prefix and once every `period` iterations thereafter, the
new-trajectory gradient is computed exactly and the difference against the
cached gradient is pushed into a curvature-pair buffer; in between, the
gradient is reconstructed as cached_gradient + B(v) with v the parameter
drift and B the quasi-Hessian from the buffer, so only the changed samples'
gradients are ever evaluated. The driver validates the whole request list
first, then corrects a copy of the cached history: each request against
the trajectory the previous request left and over the sample set it left
(`ActiveRows`). Step t of a request reads only step t of the request
before it, so the requests run as a wavefront, one step apart per request,
and each step's arithmetic serves every request in flight (`_Wavefront`);
a single request is a wavefront of one lane.
Every engine returns the corrected copy as `updated_history`, a cache the
next update can start from.

A request's change enters the loop as change terms with a sign: -1 for
deletions, whose rows `Objective.rows` gathers from the objective itself (so
a custom objective evaluates its own deleted rows), and +1 for additions, an
Objective over the new rows. A full-batch request builds one term, used at
every iteration; the minibatch engine builds one per recorded batch, over
the batch's deleted members, as the loop reaches it.

`baseline_retrain` is the correctness oracle: it replays the recorded
schedule over the changed sample set through the trainer's own descent loop.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ChangeSetError, DivergenceError
from .lbfgs import PairLanes
from .lbfgs import quasi_hvp  # noqa: F401 (dgbench patches it here)
from .models import gradient_sum  # noqa: F401 (dgbench patches it here)
from .models import ActiveRows, Dataset, Objective, coefficients
from .trainer import TrainingHistory, _descend, require_integer, verify_fingerprint

MODES = ("gd", "sgd", "general")
MODE_LABELS = ("explicit", "approximated", "fallback", "skipped-empty-batch")
DIRECTIONS = ("delete", "add")
SMALL_FRACTION_WARN = 0.05
# The general engine's local smoothness guard: an approximate step whose
# ||B v|| reaches this multiple of ||v|| is recomputed exactly.
SMOOTHNESS_LIMIT = 1.0


@dataclass(frozen=True)
class DeltaGradConfig:
    """Engine hyperparameters.

    period: explicit-gradient period T0 (exact recomputation cadence);
    burn_in: number of leading iterations j0 that are always explicit;
    history_size: curvature pairs kept (m).
    """

    period: int = 5
    burn_in: int = 10
    history_size: int = 2
    mode: str = "gd"

    def __post_init__(self):
        for name in ("period", "burn_in", "history_size"):
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.history_size < 1:
            raise ValueError("history_size must be >= 1")
        if self.burn_in < self.history_size:
            raise ValueError("burn_in must be >= history_size to fill the pair buffer")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


class ChangeSet:
    """A deletion (row indices) or addition (new rows) request. Added rows
    and labels are copied, so a later write to the caller's arrays changes
    no request and an update freezes none of them."""

    def __init__(self, direction: str, indices=None, features=None, labels=None):
        if direction not in DIRECTIONS:
            raise ChangeSetError(f"direction must be one of {DIRECTIONS}")
        self.direction = direction
        if direction == "delete":
            idx = np.asarray([] if indices is None else indices)
            if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
                raise ChangeSetError("delete indices must be a 1-D sequence of integers")
            idx = idx.astype(np.intp)
            if np.unique(idx).size != idx.size:
                raise ChangeSetError("delete indices must be distinct")
            self.indices = np.sort(idx)     # canonical order; identity is the set
            self.features = None
            self.labels = None
        else:
            X = np.array(features, dtype=np.float64)
            if X.ndim == 0:
                raise ChangeSetError("added features must be a row or a 2-D block of rows")
            if X.ndim == 1:
                X = X.reshape(1, -1)
            y = np.array(labels, dtype=np.float64).reshape(-1)
            if X.shape[0] != y.shape[0]:
                raise ChangeSetError("added features/labels row counts differ")
            self.indices = None
            self.features = X
            self.labels = y

    @classmethod
    def delete(cls, indices) -> "ChangeSet":
        return cls("delete", indices=indices)

    @classmethod
    def add(cls, features, labels) -> "ChangeSet":
        return cls("add", features=features, labels=labels)

    @property
    def r(self) -> int:
        return self.indices.size if self.direction == "delete" else self.features.shape[0]


@dataclass
class UpdateOutcome:
    """Corrected parameters plus per-run diagnostics.

    mode_trace holds one entry per iteration of the last request: 'explicit',
    'approximated', 'fallback' (unscheduled exact recomputation), or
    'skipped-empty-batch'; diagnostics[label] counts each label over every
    request.
    updated_history holds the corrected iterates w_0..w_T (for a request
    stream, those of its last request) with their step gradients, a cache
    the next update can start from. distances/timings are filled when the
    baseline oracle was also run.
    """

    w_final: np.ndarray
    mode_trace: list
    updated_history: TrainingHistory
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    distances: dict = field(default_factory=dict)


def expected_full_gradient_evals(iterations: int, burn_in: int, period: int) -> int:
    """Scheduled explicit-iteration count: t <= burn_in or (t-burn_in) % period == 0.

    Equals burn_in + ceil((iterations-burn_in)/period) whenever
    iterations > burn_in.
    """
    if iterations <= burn_in + 1:
        return iterations
    return burn_in + 1 + (iterations - 1 - burn_in) // period


def _check_engine_convexity(history: TrainingHistory, guards: bool):
    if not guards and history.config.loss.l2 <= 0.0:
        raise ValueError(
            "l2 must be > 0 for the gd/sgd/online engines (mu = l2); "
            "use mode='general' for unregularized objectives"
        )


def _check_requests(requests, data: Dataset, loss_kind: str, full_batch: bool):
    """Check a request list, in arrival order, before any work runs.

    Request k may delete only rows active when it arrives: rows of `data`
    and rows added by earlier requests (numbered n, n+1, ... in arrival
    order) that no earlier request deleted. Over a full-batch history it
    may not delete every active row. Added rows need a 2-D block of data.p
    finite features and finite labels, under logistic loss +1 or -1.
    A request that touches more than SMALL_FRACTION_WARN of the active rows
    warns; so does, once, a list whose requests so far touch more than that
    fraction of data.n.
    """
    ids, active_n, touched, warned = data.n, data.n, 0, False
    deleted = np.zeros(data.n + sum(req.r for req in requests), dtype=bool)
    for k, req in enumerate(requests):
        touched += req.r
        if req.r / active_n > SMALL_FRACTION_WARN:
            warned = True
            warnings.warn(f"request {k} touches {req.r}/{active_n} samples; the correction "
                          "is only guaranteed accurate for small fractions", stacklevel=3)
        elif not warned and touched / data.n > SMALL_FRACTION_WARN:
            warned = True
            warnings.warn(f"requests 0..{k} touch {touched}/{data.n} samples; the correction "
                          "is only guaranteed accurate for small fractions", stacklevel=3)
        if req.direction == "delete":
            idx = req.indices
            out_of_range = (idx < 0) | (idx >= ids)
            bad = idx[out_of_range] if out_of_range.any() else idx[deleted[idx]]
            if bad.size:
                raise ChangeSetError(f"request {k}: index {bad[0]} is not an active sample")
            if full_batch and req.r and req.r >= active_n:
                raise ChangeSetError(f"request {k}: cannot delete every remaining sample")
            deleted[idx] = True
            active_n -= req.r
        elif req.r:
            X = req.features
            if X.ndim != 2 or X.shape[1] != data.p:
                raise ChangeSetError(
                    f"request {k}: added rows have shape {X.shape}, expected (r, {data.p})"
                )
            if not (np.isfinite(X).all() and np.isfinite(req.labels).all()):
                raise ChangeSetError(f"request {k}: added rows must be finite")
            if loss_kind == "logistic" and (np.abs(req.labels) != 1.0).any():
                raise ChangeSetError(f"request {k}: logistic loss needs labels of +1 or -1")
            ids += req.r
            active_n += req.r


def baseline_retrain(data: Dataset, history: TrainingHistory, change: ChangeSet) -> np.ndarray:
    """Retrain from scratch on the changed sample set, replaying the recorded
    schedule through the trainer's descent loop, and return the final
    parameters. This is the oracle the engines are measured against; it
    shares no update code with them."""
    verify_fingerprint(history, data)
    _check_requests([change], data, history.config.loss.kind,
                    full_batch=history.config.batch_size == data.n)
    return _retrain(data, history, change)


def _retrain(data: Dataset, history: TrainingHistory, change: ChangeSet) -> np.ndarray:
    """`baseline_retrain` for a dataset and change already checked."""
    cfg = history.config
    batches = None
    if change.direction == "add":
        if cfg.batch_size != data.n:
            raise ValueError("addition is defined for full-batch histories only")
        sample = data.extended(change.features, change.labels) if change.r else data
    elif cfg.batch_size == data.n:
        sample = data.subset(np.setdiff1d(np.arange(data.n), change.indices)) if change.r else data
    else:
        sample = data
        batches = history.batches()
        if change.r:
            removed_mask = np.zeros(data.n, dtype=bool)
            removed_mask[change.indices] = True
            batches = [batch[~removed_mask[batch]] for batch in batches]
    params, _ = _descend(Objective(cfg.loss, sample), history.params[0], cfg.eta_at,
                         history.iterations, batches)
    return params[-1].copy()


# The counters `_run_gd_core` reports, each summed over its requests.
_COUNTERS = (*MODE_LABELS, "full_gradient_evals", "scheduled_full_gradient_evals",
             "pair_rejections", "convexity_guard_events", "smoothness_guard_events",
             "cholesky_fallbacks", "empty_buffer_fallbacks")


@dataclass
class _Lane:
    """One request of a `_run_gd_core` call.

    sign is -1 for a deletion and +1 for an addition; n is the number of
    rows of the sample set the request runs on. `change` is its change
    term, an Objective over its r changed rows (None for r = 0), the same
    at every step; a minibatch request has `changes` instead, one term per
    step, over the deleted members of the step's batch. `finish` (a
    stream's requests but the last) edits the shared sample set by this
    request and returns the objective over the edited set. `seconds` holds
    the request's set-up time; the loop adds its even share of every wave
    it ran in, and sets `final` (its last iterate) and `trace` (its mode
    labels).
    """

    sign: float
    n: int
    change: Objective | None = None
    changes: Iterator | None = None
    finish: Callable | None = None
    seconds: float = 0.0
    final: np.ndarray | None = None
    trace: list | None = None


def _run_gd_core(
    obj: Objective,
    params: np.ndarray,
    grads: np.ndarray,
    etas: list,
    cfg: DeltaGradConfig,
    lanes: list,
    *,
    batches: list[np.ndarray] | None = None,
    guards: bool = False,
):
    """The correction loop of every engine, over a list of requests (`_Lane`).

    Iteration t of a request runs over every row of obj, or over
    `obj.rows(batches[t])`, the recorded minibatch, with step size etas[t].
    Its change term, an Objective over the r changed rows of that step
    (None when r = 0), enters with the request's sign: -1 for deleted rows
    (a subset of the step's rows) and +1 for added rows. With n step rows
    and denom = n + sign*r the changed-objective gradient at iterate w is

        ( data_sum(rows) + sign * data_sum(changed) ) / denom + l2*w

    at explicit iterations (t <= burn_in, then every `period`-th), in that
    operation order, and the difference of the step rows' gradient to the
    cached one, g_t, is the curvature pair of the drift v = w - cached w_t.
    At approximate iterations it is

        c1 * (sigma*v - (M^-1 K')' K'v + g_t) + c2 * (c + r*l2*w),

    with c the changed rows' data sum, c1 = n/denom and c2 = 1/(sign*denom)
    (sign is +-1): one product of a coefficient row with a stacked matrix
    (`_Wavefront`). An approximate step with v = 0 and r = 0 keeps the
    cached gradient's bits, so r = 0 reproduces the cached trajectory bit
    for bit; a minibatch left empty is skipped. An approximate step with no
    factorization (an empty buffer or a failed build) and v != 0 runs
    exactly, a fallback. With `guards` (the general engine) a pair with
    dg . v <= 0 is dropped, an approximate step whose ||B v|| reaches
    SMOOTHNESS_LIMIT * ||v|| runs exactly, and every fallback restarts its
    request's period at its step.

    Request k corrects the trajectory request k-1 left: its step t reads
    params[t] and grads[t] as request k-1's step t wrote them, then
    overwrites them with its own iterate and step gradient. The requests
    run as a wavefront (`_Wavefront`): since step t reads nothing of request
    k-1 past step t, wave s runs step s - k of every request k in flight,
    up to min(requests, T) of them, and each wave's arithmetic serves them
    all. A single request is a wavefront of one lane, which runs the
    arithmetic of a stream's lanes: from the same state an approximate step
    has the same bits alone as in a stream, and a stream moves at roundoff
    from its requests run one by one only through its explicit steps.
    Several requests need a full-batch history and one-row changes, as a
    stream has.

    The reference loop, request by request and term by term, is
    `reference_stream` in tests/oracles.py. params and grads are
    overwritten as described, params[T] with the last request's final
    iterate; callers that keep the cached history pass copies. A non-finite
    iterate raises the DivergenceError of the first request that has one
    (its step and last finite iterate), as running the requests one by one
    would. Returns the last request's final iterate, every request's mode
    trace in request order, and the counters summed over the requests; each
    request's final iterate and trace are also set on its lane.
    """
    if len(lanes) > 1 and batches is not None:
        raise ValueError("several requests need a full-batch history")
    return _Wavefront(obj, params, grads, etas, cfg, lanes, batches, guards).run()


class _Wavefront:
    """The state of `_run_gd_core`: per-lane arrays, lane k in slot k % S.

    Each lane keeps the stacked matrix of its approximate step in Z: the
    drift v, the rows of M^-1 K' (zero past 2m), its change row, the cached
    gradient g_t and two iterate rows, the current iterate w (row `cur`)
    and the row its next iterate is written to; COEF holds the matching
    coefficients [c1*sigma, -c1*K'v, c2*a, c1, c2*r*l2, 0], and KC the rows
    -c1*K' and x, so that one product, the first, gives -c1*K'v and x . v
    together. The change row is the row x of a one-row change term that
    uses the library's own gradient, with a = a(x . w) at
    x . w = x . w_t + x . v; or, for wider or custom terms, the changed
    rows' data sum c, with a = 1; none at r = 0. The approximate steps of a
    wave are then two batched products and the change coefficients; the
    arrays of a wave are views (a wave whose slots wrap around runs as two
    parts). Every lane writes its next iterate to the row that is not
    current, and after each wave that row becomes the current one.

    Every lane runs one arithmetic, and each of its operations acts on each
    lane alone: x . w_t is a sum of products per lane, a one-row term's
    margin at an explicit step is a dot product with the bits of the
    kernel's x @ w, coefficients are computed over arrays, and both
    products are matrix products over the lanes. So an approximate step has
    the same bits in a wave of one lane as in a wave of many, and a single
    request, a wave of one lane, has the bits tests/engine_digests.py pins.

    A wave's explicit lanes share one kernel call. `obj` holds the sample
    set of the oldest request in flight (for a logistic stream as signed
    rows y*x, over which the kernel skips its label passes), and a younger
    lane adds one signed one-row term for each row the requests ahead of it
    deleted or added; so a stream's explicit steps, and only they, move at
    roundoff from a request run alone. Each lane keeps its own pair buffer
    (a lane of `pairs`), the pairs of a wave's explicit lanes go in with one
    insert, and `fallbacks` gives the lanes that need a fresh factorization
    one batched build per pair count, a failed build falling back alone.

    Each lane has its own schedule, and both guards act on each lane alone.
    A stream's lanes all have one-row change terms. A run of one lane
    (S = 1), a single request, may also have a change term that is wide,
    custom, empty or new at every step (a minibatch history, whose steps
    have rows of their own and skip an emptied batch).
    """

    def __init__(self, obj, params, grads, etas, cfg, lanes, batches=None, guards=False):
        T, p = grads.shape
        self.obj, self.params, self.grads, self.lanes = obj, params, grads, lanes
        self.batches, self.guards = batches, guards
        self.l2, self.logistic = obj.l2, obj.cfg.kind == "logistic"
        self.burn_in, self.period = cfg.burn_in, cfg.period
        self.eta = np.asarray(etas, dtype=np.float64)
        self.S = S = max(1, min(len(lanes), T))
        self.k = k = 2 * cfg.history_size           # rows of M^-1 K'
        self.pairs = PairLanes(S, cfg.history_size, p)
        self.Z = np.zeros((S, k + 5, p))            # v, M^-1 K', change row, g_t, w, next w
        self.COEF = np.zeros((S, k + 5))
        self.KC = np.zeros((S, k + 1, p))           # -c1 K', x
        self.cur = k + 3
        # the lane's KC, Z and COEF rows do not hold the factorization of its
        # pairs (none built yet, a pair added since, or a failed build)
        self.stale = np.ones(S, dtype=bool)
        self.codes = np.zeros((S, T), dtype=np.int8)    # schedule, then trace, per slot
        self.flat, self.stride = self.codes.reshape(-1), max(T - 1, 1)
        # each lane's step constants, one row per lane: its rows n,
        # n + sign*r and sign (read as columns), c1, c2 and its change row's
        # label
        self.CONST = np.zeros((S, 6))
        self.NR, self.DEN, self.SIGN = (self.CONST[:, i:i + 1] for i in range(3))
        self.C1, self.C2, self.YR = (self.CONST[:, i] for i in range(3, 6))
        self.slots = np.arange(S)
        self.counts = dict.fromkeys(_COUNTERS, 0)
        # the change term of the lane started last, its row count and
        # whether it is a row x (a stream's always are); a lone lane's
        # per-step terms (minibatches) and its last factorization
        self.term, self.r, self.row = None, 0, False
        self.changes = self.built = None

    def start(self, k):
        """Lane k starts at w_0 with an empty buffer and its constants."""
        j, lane = k % self.S, self.lanes[k]
        self.Z[j] = self.COEF[j] = self.KC[j] = self.codes[j] = 0
        self.Z[j, self.cur] = self.params[0]
        self.SIGN[j] = lane.sign
        self.pairs.clear(j)
        self.stale[j] = True
        self.anchor(j, self.burn_in)
        self.changes = lane.changes
        if lane.changes is None:
            self.set_term(j, lane.change, lane.n)

    def set_term(self, j, term, n):
        """Slot j's change term (None for r = 0) over a step of n rows, and
        the constants that follow; a new c1 rescales a lone lane's
        factorization."""
        k, sign = self.k, self.SIGN.item(j)
        r = 0 if term is None else term.n
        denom = n + sign * r
        c1, c2 = n / denom, 1.0 / (sign * denom)
        if c1 != self.C1.item(j) and not self.stale.item(j):
            sigma, Kt = self.built
            np.multiply(Kt[0], -c1, out=self.KC[j, :len(Kt[0])])
            self.COEF[j, 0] = c1 * sigma.item(0)
        self.CONST[j, :5] = n, denom, sign, c1, c2
        self.COEF[j, k + 2] = c1
        self.COEF[j, self.cur] = c2 * r * self.l2 if r else 0.0
        self.term, self.r = term, r
        self.row = r == 1 and type(term).data_grad_sum is Objective.data_grad_sum
        if self.row:
            self.KC[j, k] = self.Z[j, k + 1] = term.data.features[0]
            self.YR[j] = term.data.labels[0]

    def skip(self, t):
        """Step t of a minibatch lane gets its term and rows; True when the
        batch has no row left, so the step is skipped: the iterate stays and
        the step gradient is zero."""
        term, n = next(self.changes), self.batches[t].size
        if n == (0 if term is None else term.n):
            self.codes[0, t] = MODE_LABELS.index("skipped-empty-batch")
            self.params[t] = self.Z[0, self.cur]
            self.grads[t] = 0.0
            return True
        self.set_term(0, term, n)
        return False

    def fallbacks(self, explicit, sl, V):
        """The lanes of a wave part (slots sl, a slice) whose step runs
        exactly. Each approximate stale lane that holds pairs is built first,
        one `PairLanes.build` per pair count, into its rows: sigma, -c1*K' and
        M^-1 K' in COEF, KC and Z. A lane left stale (an empty buffer or a
        failed build) with v != 0 falls back. Rows past 2m keep the zeros
        `start` wrote: a lane's pair count only grows until it finishes."""
        counts, stale, count = self.counts, self.stale[sl], self.pairs.count[sl]
        need = ~explicit & stale
        built = need & (count > 0)
        b = np.count_nonzero(built)
        if b:
            sb = sl if b == len(built) else np.flatnonzero(built) + sl.start
            ms = self.pairs.count[sb]
            sizes = ([int(ms[0])] if len(ms) == 1 or ms.min() == ms.max()
                     else np.unique(ms).tolist())
            for m in sizes:
                group = sb if len(sizes) == 1 else self.slots[sb][ms == m]
                sigma, Kt, _, MinvKt, failed = self.pairs.build(self.slots[group], m)
                if np.count_nonzero(failed >= 0):
                    ok = failed < 0
                    group, sigma, Kt, MinvKt = (x[ok] for x in (self.slots[group], sigma,
                                                                Kt, MinvKt))
                c1 = self.C1[group]
                self.COEF[group, 0] = c1 * sigma
                self.KC[group, :2 * m] = Kt * -c1[:, None, None]
                self.Z[group, 1:1 + 2 * m] = MinvKt
                self.stale[group] = False
                self.built = sigma, Kt
        fallback = need & stale
        if np.count_nonzero(fallback):
            fallback &= np.count_nonzero(V, axis=1) > 0
            empty = int(np.count_nonzero(fallback & (count == 0)))
            counts["empty_buffer_fallbacks"] += empty
            counts["cholesky_fallbacks"] += int(np.count_nonzero(fallback)) - empty
        return fallback

    def anchor(self, j, t):
        """Slot j's period restarts at step t: of the steps after it, every
        `period`-th is explicit (0), the others approximated (1)."""
        self.codes[j, t + 1:] = np.arange(1, self.codes.shape[1] - t) % self.period > 0

    def explicit(self, e, se, first, W, V, Gt, t):
        """Step gradients of a wave part's explicit lanes (rows e of the
        part, slots se, indices or a slice, lane indices from `first`, the
        first at step t), which also insert their curvature pairs."""
        iw = W[e]
        k, logistic = self.k, self.logistic
        obj = self.obj if self.batches is None else self.obj.rows(self.batches[t])
        S_ = obj.data_grad_sum(iw[0])[None] if len(iw) == 1 else obj.data_grad_sum(iw)
        ks = first + np.arange(len(W))[e]
        if ks[-1] > self.k_lo:
            # the rows the requests ahead (k_lo .. k-1) deleted or added
            ahead = np.arange(self.k_lo, ks[-1])
            sj = ahead % self.S
            X = self.KC[sj, k]
            A = coefficients(logistic, X @ iw.T, self.YR[sj][:, None])
            A *= np.where(ahead[:, None] < ks, self.SIGN[sj], 0.0)
            S_ = S_ + A.T @ X
        l2iw = self.l2 * iw
        dg = S_ / self.NR[se]
        dg += l2iw                              # the exact gradient g_full
        dg -= Gt[e]
        lanes = self.slots[se]
        ok, concave = self.pairs.insert(lanes, V[e], dg)
        self.stale[lanes[ok]] = True
        rejected = len(ok) - int(np.count_nonzero(ok))
        if rejected:
            # on a guarded lane a concave stretch's rejected pair is a guard
            # event, not a rejection
            guarded = int(np.count_nonzero(concave)) if self.guards else 0
            self.counts["convexity_guard_events"] += guarded
            self.counts["pair_rejections"] += rejected - guarded
        # (S + sign*changed) / denom + l2*w
        if self.row:        # the change rows' gradients a(x . w) x, as the kernel's
            X = self.KC[se, k]
            a = coefficients(logistic, np.vecdot(X, iw), self.YR[se])
            g = X * a[:, None]
            g += 0.0
        elif self.r:        # a wide or custom term (a lone lane)
            g = self.term.data_grad_sum(iw[0])[None]
        else:
            g = np.zeros(iw.shape)
        g *= self.SIGN[se]
        g += S_
        g /= self.DEN[se]
        g += l2iw
        return g

    def approximate(self, sl, Z, C, P, Gt):
        """Step gradients of a wave part's lanes (slots sl, their stacked
        matrices Z and coefficients C, the first product in C, cached
        iterates P and gradients Gt) as approximate steps; the explicit
        lanes' rows are overwritten."""
        k = self.k
        if self.row:
            # x . w = x . w_t plus x . v, from the first product
            z = np.add.reduce(Z[:, k + 1] * P, axis=1) + C[:, k + 1]
            a = coefficients(self.logistic, z, self.YR[sl])
            np.multiply(a, self.C2[sl], out=C[:, k + 1])
        elif self.r:        # a wide or custom term (a lone lane): its data sum at w
            Z[:, k + 1] = self.term.data_grad_sum(Z[0, self.cur])
            C[:, k + 1] = self.C2[sl]
        elif self.stale[sl.start]:      # r = 0 (a lone lane), B v = 0: the cached gradient
            return Gt.copy()
        else:
            C[:, k + 1] = 0.0
        Z[:, k + 2] = Gt
        return np.matmul(C[:, None], Z)[:, 0]

    def step(self, sl, t_top, first):
        """Wave steps of the lanes in slots sl (contiguous), lane `first` at
        step t_top and each next lane one step behind; each writes its next
        iterate to the iterate row that is not current. Returns the part's
        first lane whose next iterate is not finite, with its error, or None."""
        L, k, cur = sl.stop - sl.start, self.k, self.cur
        rows = slice(t_top, t_top - L if t_top >= L else None, -1)  # lane order: descending t
        Z, C = self.Z[sl], self.COEF[sl]
        P, Gt = self.params[rows], self.grads[rows]
        W, V = Z[:, cur], Z[:, 0]
        np.subtract(W, P, out=V)
        sched = self.flat[sl.start + t_top::self.stride][sl]    # (sl.start + i, t_top - i)
        explicit, fallback = np.logical_not(sched), None      # code 0: explicit
        n = np.count_nonzero(explicit)
        if n < L and np.count_nonzero(self.stale[sl]):
            fallback = self.fallbacks(explicit, sl, V)
        if n < L:
            # the first product: -c1 K'v and x . v (0 for a stale lane that is not a
            # fallback: its v is 0)
            np.matmul(self.KC[sl], V[:, :, None], out=C[:, 1:k + 2, None])
            if self.guards:
                # the local smoothness guard: a drift estimate past the
                # trusted Lipschitz cap means B is not believable here;
                # c1 B v = c1*sigma*v - (M^-1 K')'(c1 K'v)
                Bv = np.matmul(C[:, None, :k + 1], Z[:, :k + 1])[:, 0]
                v = np.sqrt(np.vecdot(V, V))
                rough = np.sqrt(np.vecdot(Bv, Bv)) >= SMOOTHNESS_LIMIT * self.C1[sl] * v
                if np.count_nonzero(rough):     # of an approximate lane with B and v != 0
                    rough &= V.any(axis=1) & ~(explicit | self.stale[sl])
                    self.counts["smoothness_guard_events"] += int(np.count_nonzero(rough))
                    fallback = rough if fallback is None else fallback | rough
        if fallback is not None and np.count_nonzero(fallback):    # exact, off the schedule
            sched[fallback] = MODE_LABELS.index("fallback")
            explicit |= fallback
            n = np.count_nonzero(explicit)
            for i in np.flatnonzero(fallback).tolist() if self.guards else ():
                self.anchor(sl.start + i, t_top - i)
        if n == L:
            G = self.explicit(slice(None), sl, first, W, V, Gt, t_top)
        else:
            G = self.approximate(sl, Z, C, P, Gt)
            if n:
                e = np.flatnonzero(explicit)
                G[e] = self.explicit(e, e + sl.start, first, W, V, Gt, t_top)
        nxt = Z[:, 2 * k + 7 - cur]
        np.multiply(G, self.eta[rows, None], out=nxt)
        np.subtract(W, nxt, out=nxt)
        failure = None
        if np.count_nonzero(np.isfinite(nxt)) != nxt.size:
            i = int(np.flatnonzero(~np.isfinite(nxt).all(axis=1))[0])
            failure = first + i, DivergenceError(t_top - i, "non-finite parameters",
                                                 last_finite=W[i].copy())
        P[:] = W
        Gt[:] = G
        return failure

    def run(self):
        lanes, counts, S, T = self.lanes, self.counts, self.S, self.grads.shape[0]
        K = len(lanes)
        error, failed = None, K                 # the first failed lane, K for none
        self.k_lo, waves = 0, [(0, -1, time.perf_counter())]     # lanes and end of each wave
        # an overflowing logistic exp gives an exact 0; ridge has no exp
        with np.errstate(over="ignore") if self.logistic else contextlib.nullcontext():
            for s in itertools.count():
                k_lo, k_hi = self.k_lo, min(s, failed - 1, K - 1)
                if k_lo > k_hi:
                    break
                if k_hi == s:
                    self.start(s)
                lo, hi = k_lo % S, k_hi % S
                # a wave whose slots wrap around the ring runs as two parts; with
                # T = 0 there are no steps, and each request ends at w_0
                parts = (((lo, hi + 1, k_lo),) if lo <= hi
                         else ((lo, S, k_lo), (0, hi + 1, k_lo + S - lo)))
                if T and (self.changes is None or not self.skip(s)):
                    for a, b, first in parts:
                        failure = self.step(slice(a, b), s - first, first)
                        if failure is not None and failure[0] < failed:
                            # this lane and the lanes after it stop
                            failed, error = failure
                    # the row of the next iterates becomes the current one, and
                    # w's coefficient moves with it (the other row's is 0)
                    cur, self.cur = self.cur, 2 * self.k + 7 - self.cur
                    self.COEF[:, self.cur] = self.COEF[:, cur]
                    self.COEF[:, cur] = 0.0
                if s - k_lo >= T - 1 and k_lo < failed:    # the oldest lane is done
                    self.finish(k_lo)
                    self.k_lo += 1
                waves.append((k_lo, k_hi, time.perf_counter()))
        # each wave's time, shared evenly by its lanes
        lo, hi, end = np.array(waves).T
        share = np.diff(end) / (hi - lo + 1)[1:]
        secs = np.zeros(K + 1)
        np.add.at(secs, lo[1:].astype(np.intp), share)
        np.add.at(secs, hi[1:].astype(np.intp) + 1, -share)
        for lane, sec in zip(lanes, np.cumsum(secs)):
            lane.seconds += sec
        if error is not None:
            raise error
        counts["full_gradient_evals"] = counts["explicit"] + counts["fallback"]
        counts["scheduled_full_gradient_evals"] = K * expected_full_gradient_evals(
            T, self.burn_in, self.period)
        return lanes[-1].final, [label for lane in lanes for label in lane.trace], counts

    def finish(self, k):
        """Lane k's last step is done: its results, its counters, and the
        sample set's edit by its request for the lanes after it."""
        j, lane = k % self.S, self.lanes[k]
        lane.final = self.params[-1] = self.Z[j, self.cur].copy()
        lane.trace = [MODE_LABELS[c] for c in self.codes[j].tolist()]
        for label in MODE_LABELS:
            self.counts[label] += lane.trace.count(label)
        if k + 1 < len(self.lanes) and lane.finish is not None:
            self.obj = lane.finish()


def _edit(active: ActiveRows, req: ChangeSet, loss) -> Objective:
    """Edit the sample set by `req`; the objective over the edited set."""
    if req.direction == "add":
        active.append(req.features, req.labels)
    elif req.r:
        active.delete(req.indices)
    return Objective(loss, active.dataset())


def _update(data, history, requests, cfg, *, guards=False, minibatch=False,
            objective=None, with_baseline=False) -> UpdateOutcome:
    """The request driver of every engine.

    Checks the inputs and the whole request list, sets up one `_Lane` per
    request, then runs the correction loop once over all of them on a copy
    of `history`. Each request corrects the trajectory the previous one
    left, over the sample set the previous ones left, kept as one
    `ActiveRows` set that the loop edits as each request finishes: a
    deletion drops its rows and an addition appends its rows as ids n,
    n+1, ... in arrival order. A stream's set copies its rows once, when
    the stream starts, under logistic loss signed, y*x with label +1; a
    single request copies nothing. The counters are summed over
    the requests, and diagnostics['requests'] holds one record per
    request. Its 'seconds' are the request's set-up (its change terms;
    request 0 also pays for the step-size list) plus its even share of
    every wave of the loop it ran in; for one request that is its set-up
    and the whole loop. timings['deltagrad_s'] is their sum. A list of
    several requests takes one-row requests, as `unlearn_online` checks.
    With `with_baseline` the requests must be one request or deletions
    only; that change is also retrained from scratch, timed, and measured
    against (distances between cached, corrected and retrained).
    """
    verify_fingerprint(history, data)
    _check_engine_convexity(history, guards)
    if minibatch:
        batches = history.batches()
    elif history.config.batch_size != data.n:
        raise ValueError("this engine needs a full-batch history; "
                         "minibatch histories go to the sgd engine")
    else:
        batches = None
    loss = history.config.loss
    _check_requests(requests, data, loss.kind, full_batch=batches is None)

    working = history.copy()
    start = time.perf_counter()         # request 0's clock covers the shared set-up
    etas = list(map(history.config.eta_at, range(history.iterations)))
    obj = objective if objective is not None else Objective(loss, data)
    rows_obj = obj              # the objective the loop starts on
    if len(requests) > 1:
        capacity = data.n + sum(req.r for req in requests if req.direction == "add")
        active = ActiveRows(data, capacity, signed=loss.kind == "logistic")
        rows_obj = Objective(loss, active.dataset())
    added = {}          # a stream's added rows by id, for a later deletion of one
    lanes, ids, n, next_id = [], [], data.n, data.n
    for k, req in enumerate(requests):
        if k:
            start = time.perf_counter()
        lane = _Lane(sign=-1.0, n=n)
        if req.direction == "add":
            lane.sign, rows = 1.0, np.arange(next_id, next_id + req.r)
            next_id += req.r
            lane.change = Objective(loss, Dataset(req.features, req.labels)) if req.r else None
            added.update(zip(rows.tolist(), zip(req.features, req.labels)))
        elif batches is None:
            rows = req.indices
            if rows.size and rows[0] >= data.n:     # one row that an earlier request added
                x, y = added[int(rows[0])]
                lane.change = Objective(loss, Dataset(x[None], [y]))
            else:
                lane.change = obj.rows(rows)
        else:
            rows = req.indices
            deleted_mask = np.zeros(data.n, dtype=bool)
            deleted_mask[rows] = True
            lane.changes = (obj.rows(batch[deleted_mask[batch]]) for batch in batches)
        if k + 1 < len(requests):
            lane.finish = functools.partial(_edit, active, req, loss)
        n += int(lane.sign) * req.r
        lane.seconds = time.perf_counter() - start
        lanes.append(lane)
        ids.append(rows)

    trace, totals = [], dict.fromkeys(_COUNTERS, 0)
    if lanes:
        set_up = sum(lane.seconds for lane in lanes)
        start = time.perf_counter()
        _, _, totals = _run_gd_core(rows_obj, working.params, working.gradients, etas, cfg,
                                    lanes, batches=batches, guards=guards)
        # the loop shares its waves out; what it spent beyond them goes to the last request
        lanes[-1].seconds += time.perf_counter() - start - (
            sum(lane.seconds for lane in lanes) - set_up)
        trace = lanes[-1].trace
    records, w_prev = [], history.params[-1]
    for k, (req, lane, rows) in enumerate(zip(requests, lanes, ids)):
        records.append({
            "request": k,
            "direction": req.direction,
            "index": int(rows[0]) if rows.size else None,
            "shift": float(np.linalg.norm(lane.final - w_prev)),
            "seconds": lane.seconds,
        })
        w_prev = lane.final
    t_engine = sum(rec["seconds"] for rec in records)

    outcome = UpdateOutcome(
        w_final=working.params[-1].copy(),
        mode_trace=trace,
        updated_history=working,
        diagnostics={**totals, "requests": records},
        timings={"deltagrad_s": t_engine},
    )
    if with_baseline:
        change = requests[0] if len(requests) == 1 else ChangeSet.delete(
            [i for req in requests for i in req.indices])
        t0 = time.perf_counter()
        w_u = _retrain(data, history, change)
        t_base = time.perf_counter() - t0
        w_cached = history.params[-1]
        outcome.timings.update(
            baseline_s=t_base,
            deltagrad_s=t_engine,
            speedup=(t_base / t_engine) if t_engine > 0 else float("inf"),
        )
        outcome.distances.update(
            uw_w=float(np.linalg.norm(w_u - w_cached)),
            uw_iw=float(np.linalg.norm(w_u - outcome.w_final)),
            w_iw=float(np.linalg.norm(w_cached - outcome.w_final)),
        )
        outcome.diagnostics["baseline_w"] = w_u
    return outcome


def unlearn_batch_gd(data, history, change, cfg, *, with_baseline=False) -> UpdateOutcome:
    """Correct a full-batch trajectory after deleting `change.indices`."""
    if cfg.mode != "gd":
        raise ValueError("unlearn_batch_gd requires cfg.mode == 'gd'")
    if change.direction != "delete":
        raise ValueError("unlearn_batch_gd handles deletions; use relearn_batch_gd to add")
    return _update(data, history, [change], cfg, with_baseline=with_baseline)


def relearn_batch_gd(data, history, change, cfg, *, with_baseline=False) -> UpdateOutcome:
    """Correct a full-batch trajectory after adding `change` rows.

    Mirror of the deletion rule: denominators become n + r and the added
    samples' gradients enter with a plus sign.
    """
    if cfg.mode != "gd":
        raise ValueError("relearn_batch_gd requires cfg.mode == 'gd'")
    if change.direction != "add":
        raise ValueError("relearn_batch_gd handles additions")
    return _update(data, history, [change], cfg, with_baseline=with_baseline)


def unlearn_general(data, history, change, cfg, *, with_baseline=False,
                    objective=None) -> UpdateOutcome:
    """Guarded deletion engine for objectives without global strong convexity.

    Explicit iterations drop curvature pairs whenever the local convexity
    check (dg . dw <= 0) fails; approximate iterations recompute exactly,
    and re-anchor the request's own explicit period, whenever
    ||B v|| >= SMOOTHNESS_LIMIT * ||v|| or there is no factorization.
    Accepts l2 = 0 and a custom per-sample objective.
    """
    if cfg.mode != "general":
        raise ValueError("unlearn_general requires cfg.mode == 'general'")
    if change.direction != "delete":
        raise ValueError("the general engine handles deletions")
    return _update(data, history, [change], cfg, guards=True, objective=objective,
                   with_baseline=with_baseline)


def unlearn_batch_sgd(data, history, change, cfg, *, with_baseline=False) -> UpdateOutcome:
    """Correct a minibatch trajectory after deleting `change.indices`.

    Per iteration the deleted members of the recorded batch are masked out;
    a batch left empty is skipped ('we do not change the parameters'). The
    curvature pairs difference the full-batch average gradients at the
    shared batch, matching what the trainer cached.
    """
    if cfg.mode != "sgd":
        raise ValueError("unlearn_batch_sgd requires cfg.mode == 'sgd'")
    if change.direction != "delete":
        raise ValueError("addition is not defined for minibatch histories")
    return _update(data, history, [change], cfg, minibatch=True, with_baseline=with_baseline)


def unlearn_online(data, history, requests, cfg, *, with_baseline=False) -> UpdateOutcome:
    """Process a stream of single-sample deletion/addition requests.

    Each request corrects the trajectory the previous one left: explicit
    iterations store the exact new gradient, approximate iterations store
    the reconstructed one. Added rows get indices n, n+1, ... in arrival
    order; deleting an index twice is an error. The requests run as a
    wavefront, request k one step behind request k-1, so each step's
    kernel call and each batched product serve every request in flight;
    the results are those of running them one by one, to roundoff (a
    single request keeps its bits), and a failing stream raises the error
    of its first failing request.

    The returned outcome carries the final parameters, the last request's
    mode trace, per-request records in diagnostics['requests'] (a record's
    'seconds' is the request's set-up plus its even share of every wave
    it ran in), and the rewritten history (updated_history) for an explicit
    cache flush.
    """
    if cfg.mode != "gd":
        raise ValueError("unlearn_online requires cfg.mode == 'gd'")
    for k, req in enumerate(requests):
        if req.r != 1:
            raise ChangeSetError(f"request {k}: online requests must touch exactly one sample")
    if with_baseline and any(req.direction == "add" for req in requests):
        raise ValueError("baseline comparison is supported for pure deletion streams")
    return _update(data, history, requests, cfg, with_baseline=with_baseline)
