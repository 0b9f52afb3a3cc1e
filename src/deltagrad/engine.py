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
before it, so a stream runs as a wavefront, one step apart per request,
and each step's arithmetic serves every request in flight (`_Wavefront`).
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

import functools
import itertools
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ChangeSetError, DivergenceError, FactorizationError
from .lbfgs import CurvaturePairBuffer, PairLanes, quasi_hvp
from .models import gradient_sum  # noqa: F401 (dgbench patches it here)
from .models import ActiveRows, Dataset, Objective, coefficient, coefficients
from .trainer import TrainingHistory, _check_finite, _descend, verify_fingerprint

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
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.history_size < 1:
            raise ValueError("history_size must be >= 1")
        if self.burn_in < self.history_size:
            raise ValueError("burn_in must be >= history_size to fill the pair buffer")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


class ChangeSet:
    """A deletion (row indices) or addition (new rows) request."""

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
            X = np.asarray(features, dtype=np.float64)
            if X.ndim == 0:
                raise ChangeSetError("added features must be a row or a 2-D block of rows")
            if X.ndim == 1:
                X = X.reshape(1, -1)
            y = np.asarray(labels, dtype=np.float64).reshape(-1)
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
    step. `finish` (a stream's requests but the last) edits the shared
    sample set by this request and returns the objective over the edited
    set. `seconds` holds the request's set-up time; the loop adds its even
    share of every wave it ran in, and sets `final` (its last iterate) and
    `trace` (its mode labels).
    """

    sign: float
    n: int
    change: Objective | None = None
    changes: Iterator | None = None
    finish: Callable | None = None
    seconds: float = 0.0
    final: np.ndarray | None = None
    trace: list | None = None


def _run_one(
    obj: Objective,
    params: np.ndarray,
    grads: np.ndarray,
    etas: list,
    cfg: DeltaGradConfig,
    changes,
    sign: float,
    *,
    batches: list[np.ndarray] | None = None,
    guards: bool = False,
):
    """The correction loop of a single request (see `_run_gd_core`).

    Iteration t runs over every row of obj, or over `obj.rows(batches[t])`,
    the recorded minibatch, with step size etas[t]. `changes` yields one
    change term per iteration: an Objective over the r changed rows of that
    step (None when r = 0), which enter with `sign`, -1 for deleted rows (a
    subset of the step's rows) and +1 for added rows. With n step rows and
    denom = n + sign*r the changed-objective gradient at iterate w is

        ( data_sum(rows) + sign * data_sum(changed) ) / denom + l2*w

    at explicit iterations, in that operation order. At approximate
    iterations it is

        c1 * (sigma*v - (M^-1 K')' s + g_t) + c2 * (c + r*l2*w),

    with v = w - cached w_t, s = K'v, g_t the cached step gradient, c the
    changed rows' data sum, c1 = n/denom and c2 = 1/(sign*denom) (sign is
    +-1). That is one product of a row of Python-float coefficients

        [c1*sigma, -c1*s_1 .. -c1*s_2m, c2*a, c1, c2*r*l2]

    with a stacked matrix whose rows are v, the 2m rows of M^-1 K', the
    change row, g_t and w. The M^-1 K' rows are copied in when the buffer's
    factorization changes. The change row is c with a = 1, or, for a one-row
    change term that uses the library's own gradient, the row x itself
    (written once per change term) with its float coefficient a(x . w), so
    that step makes no kernel call: x . w is x . v, which the product that
    gives K'v also gives, plus x . w_t of the cached iterates, taken at once
    for every step the term serves when it is first met. An approximate step with v = 0
    and r = 0 keeps the cached gradient's bits, so r = 0 reproduces the
    cached trajectory bit for bit; a minibatch left empty is skipped. The
    general engine (`guards`) also forms B v through `quasi_hvp` for its
    smoothness guard. The reference loop that writes the approximate step
    out term by term is `reference_correction` in tests/oracles.py.

    params[t] and grads[t] are overwritten with the corrected iterate and the
    (exact or reconstructed) new-objective step gradient, zero for a skipped
    step, and params[T] with the final iterate; callers that keep the cached
    history pass copies.
    """
    T = grads.shape[0]
    n, p, l2 = obj.n, obj.p, obj.l2
    burn_in, period = cfg.burn_in, cfg.period
    last_anchor = burn_in

    buf = CurvaturePairBuffer(cfg.history_size)
    k = 2 * cfg.history_size
    # The stacked matrix: v, M^-1 K' (k rows, zero past 2m), the change row,
    # g_t, and two iterate rows that take turns as the current one (`cur`).
    # coef is the coefficient row. Kc holds -c1 K' (zero past 2m) and, last,
    # a one-row change term's row x, so one product writes -c1 K'v into
    # coef[1:k+1] and x . v into coef[k+1], the change row's slot.
    Z = np.zeros((k + 5, p))
    coef = np.zeros(k + 5)
    Kc = np.zeros((k + 1, p))
    v, c_row, g_row = Z[0], Z[k + 1], Z[k + 2]
    s_out = coef[1:k + 2]
    cur, other = k + 3, k + 4
    iw, nxt = Z[cur], Z[other]
    iw[:] = params[0]
    zero = np.zeros(p)
    fact = c1 = None            # the factorization and c1 that Kc and coef hold
    change, r = None, 0
    row_change, row_form = None, False      # the change term whose row c_row holds
    trace: list[str] = []
    convexity_events = 0
    smoothness_events = 0
    cholesky_fallbacks = 0
    empty_buffer_fallbacks = 0
    batch = None

    for t in range(T):
        term = next(changes)
        if term is not change:
            change, r = term, 0 if term is None else term.n
        if batches is not None:
            batch = batches[t]
            n = batch.size
            if n == r:
                trace.append("skipped-empty-batch")
                params[t] = iw
                grads[t] = zero
                continue
        denom = n + sign * r
        g_t = grads[t]                  # read, then overwritten with the new step gradient
        np.subtract(iw, params[t], out=v)

        # without guards nothing re-anchors, so last_anchor stays burn_in
        scheduled = t <= burn_in or (t - last_anchor) % period == 0

        run_explicit = scheduled
        label = "explicit" if scheduled else "approximated"
        current = None

        if not scheduled:
            # an approximate step needs the factorization unless v = 0, where
            # B v = 0; v is tested only where the test decides the step
            empty = len(buf) == 0
            if not empty:
                try:
                    current = buf.factorization()
                except FactorizationError:
                    pass
            if current is None:
                if np.count_nonzero(v):
                    run_explicit = True
                    label = "fallback"
                    if empty:
                        empty_buffer_fallbacks += 1
                    else:
                        cholesky_fallbacks += 1
            # local smoothness guard: a drift estimate larger than the
            # trusted Lipschitz cap means B is not believable here
            elif guards and np.count_nonzero(v) and (
                    np.linalg.norm(quasi_hvp(buf, v)) >= SMOOTHNESS_LIMIT * np.linalg.norm(v)):
                run_explicit = True
                label = "fallback"
                smoothness_events += 1

        if run_explicit:
            if guards:
                last_anchor = t
            S = (obj if batch is None else obj.rows(batch)).data_grad_sum(iw)
            l2iw = l2 * iw
            dg = S / n
            dg += l2iw                  # the exact gradient g_full
            dg -= g_t
            if guards and np.count_nonzero(v) and float(dg @ v) <= 0.0:
                convexity_events += 1        # concave stretch: do not trust the pair
            else:
                buf.append_pair(v, dg)
            # (S + sign*changed) / denom + l2*w
            np.multiply(change.data_grad_sum(iw) if r else zero, sign, out=g_t)
            g_t += S
            g_t /= denom
            g_t += l2iw
        elif current is not None or r:
            if r and change is not row_change:
                row_change = change
                row_form = r == 1 and type(change).data_grad_sum is Objective.data_grad_sum
                if row_form:
                    kind, y = change.cfg.kind, change.data.labels.item()
                    c_row[:] = Kc[k] = change.data.features[0]
                    # x . w_t of the cached iterates this term meets, row by
                    # row alike for one row or many (x . w = x . v + x . w_t)
                    t0, xw = t, ((params[t:] if batches is None else params[t:t + 1])
                                 * c_row).sum(axis=1).tolist()
            # c1*sigma, -c1*K' and c1 change only with the factorization and n
            if current is None:         # v = 0: B v = 0
                coef[:k + 2] = 0.0
                coef[k + 2] = n / denom
                fact = None
            else:
                if current is not fact or n / denom != c1:
                    fact, c1 = current, n / denom
                    m2 = len(fact.Kt)
                    np.multiply(fact.Kt, -c1, out=Kc[:m2])
                    Z[1:1 + m2] = fact.MinvKt
                    coef[0] = c1 * fact.sigma
                    coef[k + 2] = c1
                np.dot(Kc, v, out=s_out)
            if r:
                c2 = 1.0 / (sign * denom)
                if row_form:
                    z = xw[t - t0]
                    if current is not None:
                        z += coef.item(k + 1)       # x . v, from the product above
                    coef[k + 1] = c2 * coefficient(kind, z, y)
                else:
                    c_row[:] = change.data_grad_sum(iw)
                    coef[k + 1] = c2
                coef[cur] = c2 * r * l2
            else:
                coef[k + 1] = coef[cur] = 0.0
            coef[other] = 0.0
            g_row[:] = g_t
            np.dot(coef, Z, out=g_t)

        np.multiply(g_t, etas[t], out=nxt)
        np.subtract(iw, nxt, out=nxt)
        _check_finite(t, nxt, iw)

        params[t] = iw
        iw, nxt = nxt, iw
        cur, other = other, cur
        trace.append(label)

    params[T] = iw

    counts = {label: trace.count(label) for label in MODE_LABELS}
    diagnostics = {
        **counts,
        "full_gradient_evals": counts["explicit"] + counts["fallback"],
        "scheduled_full_gradient_evals": expected_full_gradient_evals(
            T, cfg.burn_in, cfg.period
        ),
        "pair_rejections": buf.rejected,
        "convexity_guard_events": convexity_events,
        "smoothness_guard_events": smoothness_events,
        "cholesky_fallbacks": cholesky_fallbacks,
        "empty_buffer_fallbacks": empty_buffer_fallbacks,
    }
    return params[T], trace, diagnostics


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

    Request k corrects the trajectory request k-1 left: its step t reads
    params[t] and grads[t] as request k-1's step t wrote them, then
    overwrites them with its own iterate and step gradient. A single
    request runs through `_run_one`. Several run as a wavefront
    (`_Wavefront`): since step t reads nothing of request k-1 past step t,
    wave s runs step s - k of every request k in flight, up to
    min(requests, T) of them, and each wave's arithmetic serves them all.
    Both share the step arithmetic written out in `_run_one`. The wavefront
    serves one-row requests over full-batch histories, as streams are;
    a minibatch history, the general engine's guards and wider change
    terms come with one request. One request stays on its own loop because
    the lane bookkeeping cost it more than the benchmark's bound allows:
    on `sgd-ridge-1e5` (3000 steps of one request, 2 vCPUs) a request took
    526 ms through the wavefront against 281 ms through `_run_one`.

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
    if len(lanes) == 1:
        lane = lanes[0]
        changes = itertools.repeat(lane.change) if lane.changes is None else lane.changes
        final, lane.trace, counts = _run_one(obj, params, grads, etas, cfg, changes, lane.sign,
                                             batches=batches, guards=guards)
        lane.final = final.copy()
        return final, lane.trace, counts
    if batches is not None or guards:
        raise ValueError("several requests need a full-batch history and no guards")
    return _Wavefront(obj, params, grads, etas, cfg, lanes).run()


class _Wavefront:
    """The state of `_run_gd_core` for several requests: per-lane arrays,
    lane k in slot k % S. Every request changes one row through the
    library's own gradient over a full-batch history, as a stream's do.

    Each lane keeps the stacked matrix of its approximate step in Z: the
    drift v, the rows of M^-1 K' (zero past 2m), its change row x, the
    cached gradient g_t and its iterate w; COEF holds the matching
    coefficients [c1*sigma, -c1*K'v, c2*a(x . w), c1, c2*l2], and KC the
    rows -c1*K' and x, so that one product gives -c1*K'v and x . v
    together. The approximate steps of a wave are then two batched products
    and the change coefficients; the arrays of a wave are views (a wave
    whose slots wrap around runs as two parts).

    A wave's explicit lanes share one kernel call. `obj` holds the sample
    set of the oldest request in flight, and a younger lane adds one signed
    one-row term for each row the requests ahead of it deleted or added;
    so explicit steps move at roundoff from a request run alone. Each lane
    keeps its own pair buffer (a lane of `pairs`), the pairs of a wave's
    explicit lanes go in with one insert, and the lanes that need a fresh
    factorization get it from one batched build, a failed build falling
    back in its own lane only.
    """

    def __init__(self, obj, params, grads, etas, cfg, lanes):
        T, p = grads.shape
        self.obj, self.params, self.grads, self.lanes = obj, params, grads, lanes
        self.l2, self.logistic = obj.l2, obj.cfg.kind == "logistic"
        self.burn_in, self.period = cfg.burn_in, cfg.period
        self.eta = np.asarray(etas, dtype=np.float64)
        self.S = S = min(len(lanes), T)
        self.k = k = 2 * cfg.history_size           # rows of M^-1 K'
        self.pairs = PairLanes(S, cfg.history_size, p)
        self.Z = np.zeros((S, k + 4, p))            # v, M^-1 K', x, g_t, w
        self.COEF = np.zeros((S, k + 4))
        self.KC = np.zeros((S, k + 1, p))           # -c1 K', x
        # the lane's KC, Z and COEF rows do not hold the factorization of its
        # pairs (none built yet, a pair added since, or a failed build)
        self.stale = np.ones(S, dtype=bool)
        self.sched = np.array([t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0
                               for t in range(T)], dtype=bool)
        self.explicit_before = [0, *np.cumsum(self.sched).tolist()]     # steps < t
        self.codes = np.zeros((S, T), dtype=np.int8)    # indices into MODE_LABELS
        # each lane's step constants: its rows n, n + sign, sign, c1, c2 and label
        self.NR, self.DEN, self.SIGN, self.C1, self.C2, self.YR = np.zeros((6, S))
        self.counts = dict.fromkeys(_COUNTERS, 0)

    def start(self, k):
        """Lane k starts at w_0 with an empty buffer and its constants."""
        j, lane = k % self.S, self.lanes[k]
        n, sign = lane.n, lane.sign
        denom = n + sign
        c1, c2 = n / denom, 1.0 / (sign * denom)
        self.Z[j] = self.COEF[j] = self.KC[j] = 0.0
        self.Z[j, -1] = self.params[0]
        self.KC[j, -1] = self.Z[j, self.k + 1] = lane.change.data.features[0]
        self.COEF[j, self.k + 2:] = c1, c2 * self.l2
        self.NR[j], self.DEN[j], self.SIGN[j], self.C1[j], self.C2[j] = n, denom, sign, c1, c2
        self.YR[j] = lane.change.data.labels[0]
        self.pairs.clear(j)
        self.stale[j] = True
        self.codes[j] = np.where(self.sched, 0, 1)

    def build(self, sb):
        """Fresh factorizations for slots sb, one batched build per pair
        count (once full, every lane has the same)."""
        ms = self.pairs.count[sb]
        sizes = [int(ms[0])] if ms.min() == ms.max() else np.unique(ms).tolist()
        for m in sizes:
            group = sb if len(sizes) == 1 else sb[ms == m]
            sigma, Kt, _, MinvKt, failed = self.pairs.build(group, m)
            ok = failed < 0
            if not ok.all():
                group, sigma, Kt, MinvKt = (x[ok] for x in (group, sigma, Kt, MinvKt))
            c1 = self.C1[group]
            self.COEF[group, 0] = c1 * sigma
            self.KC[group, :2 * m] = Kt * -c1[:, None, None]
            self.Z[group, 1:1 + 2 * m] = MinvKt
            if 2 * m < self.k:
                self.KC[group, 2 * m:self.k] = 0.0
                self.Z[group, 1 + 2 * m:1 + self.k] = 0.0
            self.stale[group] = False

    def fallbacks(self, explicit, sl, V):
        """The lanes of a wave part (slots sl) that run exactly, scheduled or
        as a fallback, and the fallbacks, after one batched build of the
        factorizations that the other lanes need."""
        counts = self.counts
        approx = ~explicit
        need = approx & self.stale[sl] & (self.pairs.count[sl] > 0)
        if need.any():
            self.build(np.flatnonzero(need) + sl.start)
        # no factorization (empty buffer or failed build): B v is needed
        # unless v = 0, so the step is recomputed exactly
        fallback = approx & self.stale[sl]
        if fallback.any():
            fallback &= np.count_nonzero(V, axis=1) > 0
            empty = int(np.count_nonzero(fallback & (self.pairs.count[sl] == 0)))
            counts["empty_buffer_fallbacks"] += empty
            counts["cholesky_fallbacks"] += int(np.count_nonzero(fallback)) - empty
        return explicit | fallback, fallback

    def explicit(self, e, se, first, W, V, Gt):
        """Step gradients of a wave part's explicit lanes (rows e of the
        part, slots se, lane indices from `first`), which also insert their
        curvature pairs."""
        iw = W[e]
        k, logistic = self.k, self.logistic
        S_ = self.obj.data_grad_sum(iw[0])[None] if len(se) == 1 else self.obj.data_grad_sum(iw)
        ks = first + np.arange(len(W))[e]
        if ks[-1] > self.k_lo:
            # the rows the requests ahead (k_lo .. k-1) deleted or added
            ahead = np.arange(self.k_lo, ks[-1])
            sj = ahead % self.S
            X = self.KC[sj, k]
            with np.errstate(over="ignore"):
                A = coefficients(logistic, X @ iw.T, self.YR[sj][:, None])
            A *= np.where(ahead[:, None] < ks, self.SIGN[sj][:, None], 0.0)
            S_ = S_ + A.T @ X
        l2iw = self.l2 * iw
        dg = S_ / self.NR[se][:, None]
        dg += l2iw                              # the exact gradient g_full
        dg -= Gt[e]
        self.stale[se[self.pairs.insert(se, V[e], dg)]] = True
        # (S + sign*changed) / denom + l2*w, the change row's gradient a(x . w) x
        X = self.KC[se, k]
        with np.errstate(over="ignore"):
            a = coefficients(logistic, np.einsum("ij,ij->i", X, iw), self.YR[se])
        g = X * a[:, None]
        g += 0.0
        g *= self.SIGN[se][:, None]
        g += S_
        g /= self.DEN[se][:, None]
        g += l2iw
        return g

    def approximate(self, sl, Z, C, P, Gt):
        """Step gradients of a wave part's lanes (slots sl, their stacked
        matrices Z and coefficients C, cached iterates P and gradients Gt)
        as approximate steps; the explicit lanes' rows are overwritten."""
        k = self.k
        np.matmul(self.KC[sl], Z[:, 0, :, None], out=C[:, 1:k + 2, None])
        # x . w = x . v, from the product above, plus x . w_t
        z = np.einsum("lp,lp->l", Z[:, k + 1], P)
        z += C[:, k + 1]
        with np.errstate(over="ignore"):
            a = coefficients(self.logistic, z, self.YR[sl])
        np.multiply(a, self.C2[sl], out=C[:, k + 1])
        Z[:, k + 2] = Gt
        return np.matmul(C[:, None], Z)[:, 0]

    def step(self, sl, t_top, first):
        """Wave steps of the lanes in slots sl (contiguous), lane `first` at
        step t_top and each next lane one step behind. Returns the part's
        first lane whose next iterate is not finite, with its error, or None."""
        L = sl.stop - sl.start
        rows = slice(t_top - L + 1, t_top + 1)
        Z, C = self.Z[sl], self.COEF[sl]
        P = self.params[rows][::-1]             # lane order is descending t
        Gt = self.grads[rows][::-1]
        W, V = Z[:, -1], Z[:, 0]
        np.subtract(W, P, out=V)
        explicit = self.sched[rows][::-1]
        n = self.explicit_before[t_top + 1] - self.explicit_before[rows.start]
        if n < L and self.stale[sl].any():
            explicit, fallback = self.fallbacks(explicit, sl, V)
            f = np.flatnonzero(fallback)
            if f.size:
                self.codes[f + sl.start, t_top - f] = MODE_LABELS.index("fallback")
                n += f.size
        if n == L:
            G = self.explicit(slice(None), np.arange(sl.start, sl.stop), first, W, V, Gt)
        else:
            G = self.approximate(sl, Z, C, P, Gt)
            if n:
                e = np.flatnonzero(explicit)
                G[e] = self.explicit(e, e + sl.start, first, W, V, Gt)
        nxt = G * self.eta[rows][::-1, None]
        np.subtract(W, nxt, out=nxt)
        failure = None
        if np.count_nonzero(np.isfinite(nxt)) != nxt.size:
            i = int(np.flatnonzero(~np.isfinite(nxt).all(axis=1))[0])
            failure = first + i, DivergenceError(t_top - i, "non-finite parameters",
                                                 last_finite=W[i].copy())
        P[:] = W
        Gt[:] = G
        W[:] = nxt
        return failure

    def run(self):
        lanes, counts, S, T = self.lanes, self.counts, self.S, self.grads.shape[0]
        K = len(lanes)
        secs = np.zeros(K)
        error, failed = None, K                 # the first failed lane, K for none
        self.k_lo, clock = 0, time.perf_counter()
        for s in itertools.count():
            k_lo, k_hi = self.k_lo, min(s, failed - 1, K - 1)
            if k_lo > k_hi:
                break
            if k_hi == s:
                self.start(s)
            lo, hi = k_lo % S, k_hi % S
            # a wave whose slots wrap around the ring runs as two parts
            parts = (((lo, hi + 1, k_lo),) if lo <= hi
                     else ((lo, S, k_lo), (0, hi + 1, k_lo + S - lo)))
            for a, b, first in parts:
                failure = self.step(slice(a, b), s - first, first)
                if failure is not None and failure[0] < failed:
                    # this lane and the lanes after it stop
                    failed, error = failure
            if s - k_lo == T - 1 and k_lo < failed:    # the oldest lane is done
                self.finish(k_lo)
                self.k_lo += 1
            now = time.perf_counter()
            secs[k_lo:k_hi + 1] += (now - clock) / (k_hi - k_lo + 1)
            clock = now
        for lane, sec in zip(lanes, secs):
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
        lane.final = self.params[-1] = self.Z[j, -1].copy()
        codes = self.codes[j]
        lane.trace = [MODE_LABELS[c] for c in codes.tolist()]
        for c, label in enumerate(MODE_LABELS):
            self.counts[label] += int(np.count_nonzero(codes == c))
        self.counts["pair_rejections"] += int(self.pairs.rejected[j])
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
    n+1, ... in arrival order. The counters are summed over the requests,
    and diagnostics['requests'] holds one record per request. Its
    'seconds' are the request's set-up (its change terms; request 0 also
    pays for the step-size list) plus its even share of every wave of the
    loop it ran in; for one request that is its set-up and the whole loop.
    timings['deltagrad_s'] is their sum. A list of several requests takes
    one-row requests, as `unlearn_online` checks. With `with_baseline` the requests
    must be one request or deletions only; that change is also retrained
    from scratch, timed, and measured against (distances between cached,
    corrected and retrained).
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
    active = ActiveRows(data, data.n + sum(req.r for req in requests if req.direction == "add"))
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
        _, _, totals = _run_gd_core(obj, working.params, working.gradients, etas, cfg,
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
    check (dg . dw <= 0) fails; approximate iterations recompute exactly
    (and re-anchor the explicit period) whenever
    ||B v|| >= SMOOTHNESS_LIMIT * ||v||.
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
