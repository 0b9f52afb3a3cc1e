"""Incremental model-update engines and the naive retraining baseline.

Every engine is a setting of one request driver, `_update`, which runs each
request of a list through one correction loop, `_run_gd_core`. The loop
corrects a cached training trajectory after sample deletion or addition
without retraining from scratch:

  unlearn_batch_gd / relearn_batch_gd  -- all rows, minus or plus the change
  unlearn_batch_sgd                    -- each recorded minibatch, minus its
                                          deleted rows
  unlearn_general                      -- all rows, with convexity guards
  unlearn_online                       -- a stream of single-sample requests

During a burn-in prefix and once every `period` iterations thereafter, the
new-trajectory gradient is computed exactly and the difference against the
cached gradient is pushed into a curvature-pair buffer; in between, the
gradient is reconstructed as cached_gradient + B(v) with v the parameter
drift and B the quasi-Hessian from the buffer, so only the changed samples'
gradients are ever evaluated. The driver validates the whole request list
first, then corrects a copy of the cached history request by request, each
against the trajectory the previous request left; every engine returns that
copy as `updated_history`, a cache the next update can start from.

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

import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ChangeSetError, FactorizationError
from .lbfgs import CurvaturePairBuffer, quasi_hvp
from .models import Dataset, Objective, gradient_sum  # noqa: F401 (dgbench patches it here)
from .trainer import TrainingHistory, _check_finite, _descend, verify_fingerprint

MODES = ("gd", "sgd", "general")
MODE_LABELS = ("explicit", "approximated", "fallback", "skipped-empty-batch")
DIRECTIONS = ("delete", "add")
SMALL_FRACTION_WARN = 0.05


@dataclass(frozen=True)
class DeltaGradConfig:
    """Engine hyperparameters.

    period: explicit-gradient period T0 (exact recomputation cadence);
    burn_in: number of leading iterations j0 that are always explicit;
    history_size: curvature pairs kept (m);
    smoothness_limit: guard threshold for the general engine.
    """

    period: int = 5
    burn_in: int = 10
    history_size: int = 2
    mode: str = "gd"
    smoothness_limit: float = 1.0

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


def _check_requests(requests, data: Dataset, loss_kind: str):
    """Check a request list, in arrival order, before any work runs.

    Request k may delete only rows active when it arrives: rows of `data`
    and rows added by earlier requests (numbered n, n+1, ... in arrival
    order) that no earlier request deleted. Added rows need data.p features
    and, under logistic loss, labels of +1 or -1. A request that touches
    more than SMALL_FRACTION_WARN of the active rows warns; so does, once, a
    list whose requests so far touch more than that fraction of data.n.
    """
    active_n, touched, warned = data.n, 0, False
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
            ids = req.indices
            out_of_range = (ids < 0) | (ids >= active_n)
            bad = ids[out_of_range] if out_of_range.any() else ids[deleted[ids]]
            if bad.size:
                raise ChangeSetError(f"request {k}: index {bad[0]} is not an active sample")
            deleted[ids] = True
        elif req.r:
            if req.features.shape[1] != data.p:
                raise ChangeSetError(
                    f"request {k}: added rows have {req.features.shape[1]} features, "
                    f"expected {data.p}"
                )
            if loss_kind == "logistic" and (np.abs(req.labels) != 1.0).any():
                raise ChangeSetError(f"request {k}: logistic loss needs labels of +1 or -1")
            active_n += req.r


def baseline_retrain(data: Dataset, history: TrainingHistory, change: ChangeSet) -> np.ndarray:
    """Retrain from scratch on the changed sample set, replaying the recorded
    schedule through the trainer's descent loop, and return the final
    parameters. This is the oracle the engines are measured against; it
    shares no update code with them."""
    verify_fingerprint(history, data)
    _check_requests([change], data, history.config.loss.kind)
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


def _run_gd_core(
    obj: Objective,
    params: np.ndarray,
    grads: np.ndarray,
    eta_at,
    cfg: DeltaGradConfig,
    changes,
    sign: float,
    *,
    batches: list[np.ndarray] | None = None,
    guards: bool = False,
):
    """The correction loop of every engine.

    Iteration t runs over every row of obj, or over `obj.rows(batches[t])`,
    the recorded minibatch. `changes` yields one change term per iteration: an
    Objective over the r changed rows of that step (None when r = 0), which
    enter with `sign`, -1 for deleted rows (a subset of the step's rows)
    and +1 for added rows. With n step rows the changed-objective gradient
    at iterate w is

        ( data_sum(rows) + sign * data_sum(changed) ) / (n + sign*r) + l2*w

    at explicit iterations, and at approximate iterations

        n/(n + sign*r) * (B v + cached_grad) + sign * (changed_sum + r*l2*w)/(n + sign*r)

    which for r = 0 collapses bitwise to the cached update; a minibatch left
    empty is skipped. params[t] and grads[t] are overwritten with the
    corrected iterate and the (exact or reconstructed) new-objective step
    gradient, zero for a skipped step, and params[T] with the final iterate;
    callers that keep the cached history pass copies.
    """
    T = grads.shape[0]
    n = obj.n
    batch = None
    l2 = obj.l2

    buf = CurvaturePairBuffer(cfg.history_size)
    iw = params[0].copy()
    trace: list[str] = []
    convexity_events = 0
    smoothness_events = 0
    cholesky_fallbacks = 0
    empty_buffer_fallbacks = 0
    last_anchor = cfg.burn_in

    zero = np.zeros(obj.p)

    for t in range(T):
        change = next(changes)
        r = 0 if change is None else change.n
        if batches is not None:
            batch = batches[t]
            n = batch.size
            if n == r:
                trace.append("skipped-empty-batch")
                params[t] = iw
                grads[t] = zero
                continue
        denom = n + sign * r
        ratio = n / denom

        w_t = params[t]
        g_t = grads[t]
        v = iw - w_t

        # without guards nothing re-anchors, so last_anchor stays burn_in
        scheduled = t <= cfg.burn_in or (t - last_anchor) % cfg.period == 0

        run_explicit = scheduled
        label = "explicit" if scheduled else "approximated"
        Bv = None

        if not scheduled:
            if not v.any():
                Bv = zero
            elif len(buf) == 0:
                run_explicit = True
                label = "fallback"
                empty_buffer_fallbacks += 1
            else:
                try:
                    Bv = quasi_hvp(buf, v)
                except FactorizationError:
                    run_explicit = True
                    label = "fallback"
                    cholesky_fallbacks += 1
                if Bv is not None and guards:
                    # local smoothness guard: a drift estimate larger than the
                    # trusted Lipschitz cap means B is not believable here
                    if np.linalg.norm(Bv) >= cfg.smoothness_limit * np.linalg.norm(v):
                        run_explicit = True
                        label = "fallback"
                        smoothness_events += 1

        if run_explicit:
            if guards:
                last_anchor = t
            S = (obj if batch is None else obj.rows(batch)).data_grad_sum(iw)
            g_full = S / n + l2 * iw
            dg = g_full - g_t
            if guards and v.any() and float(dg @ v) <= 0.0:
                convexity_events += 1        # concave stretch: do not trust the pair
            else:
                buf.append_pair(v, dg, tag=t)
            changed = change.data_grad_sum(iw) if r else zero
            new_grad = (S + sign * changed) / denom + l2 * iw
        else:
            changed_reg = (change.data_grad_sum(iw) + r * l2 * iw) if r else zero
            new_grad = ratio * (Bv + g_t) + sign * (changed_reg / denom)

        iw_next = iw - eta_at(t) * new_grad
        _check_finite(t, iw_next, iw)

        params[t] = iw
        grads[t] = new_grad
        iw = iw_next
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
        "skipped_batches": counts["skipped-empty-batch"],
    }
    return iw, trace, diagnostics


# The counters `_run_gd_core` reports; `_update` sums them over its requests.
_COUNTERS = (*MODE_LABELS, "full_gradient_evals", "scheduled_full_gradient_evals",
             "pair_rejections", "convexity_guard_events", "smoothness_guard_events",
             "cholesky_fallbacks", "empty_buffer_fallbacks", "skipped_batches")


def _update(data, history, requests, cfg, *, guards=False, minibatch=False,
            objective=None, with_baseline=False) -> UpdateOutcome:
    """The request driver of every engine.

    Checks the inputs and the whole request list, then runs the correction
    loop once per request on a copy of `history`. Each request corrects the
    trajectory the previous one left, over the sample set the previous ones
    left: deleted rows are subtracted from the all-rows sum and added rows
    are appended as rows n, n+1, ... in arrival order. The counters are
    summed over the requests, and diagnostics['requests'] holds one record
    per request. With `with_baseline` the requests must be one request or
    deletions only; that change is also retrained from scratch, timed, and
    measured against (distances between cached, corrected and retrained).
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
    _check_requests(requests, data, loss.kind)

    working = history.copy()
    current, deleted = data, np.empty(0, dtype=np.intp)
    totals = dict.fromkeys(_COUNTERS, 0)
    records, trace, t_engine = [], [], 0.0
    for k, req in enumerate(requests):
        obj = objective if objective is not None else Objective(loss, current, removed=deleted)
        if req.direction == "delete" and batches is None and req.r >= obj.n:
            raise ChangeSetError("cannot delete every remaining sample")
        w_prev = working.params[-1].copy()
        start = time.perf_counter()
        sign, rows = -1.0, req.indices
        if req.direction == "add":
            sign, rows = 1.0, np.arange(current.n, current.n + req.r)
            change = Objective(loss, Dataset(req.features, req.labels)) if req.r else None
            changes = itertools.repeat(change)
        elif batches is None:
            changes = itertools.repeat(obj.rows(rows))
        else:
            deleted_mask = np.zeros(obj.data.n, dtype=bool)
            deleted_mask[rows] = True
            changes = (obj.rows(batch[deleted_mask[batch]]) for batch in batches)
        w_final, trace, diag = _run_gd_core(obj, working.params, working.gradients,
                                            history.config.eta_at, cfg, changes, sign,
                                            batches=batches, guards=guards)
        seconds = time.perf_counter() - start
        t_engine += seconds
        for key, val in diag.items():
            totals[key] += val
        records.append({
            "request": k,
            "direction": req.direction,
            "index": int(rows[0]) if rows.size else None,
            "shift": float(np.linalg.norm(w_final - w_prev)),
            "seconds": seconds,
        })
        if k + 1 < len(requests):   # the next request runs on the sample set this one left
            if req.direction == "add":
                current = current.extended(req.features, req.labels)
            else:
                deleted = np.union1d(deleted, req.indices)

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
    (and re-anchor the explicit period) whenever ||B v|| >= limit * ||v||.
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
    """Process single-sample deletion/addition requests sequentially.

    Each request corrects the trajectory the previous one left: explicit
    iterations store the exact new gradient, approximate iterations store
    the reconstructed one. Added rows get indices n, n+1, ... in arrival
    order; deleting an index twice is an error.

    The returned outcome carries the final parameters, the last request's
    mode trace, per-request records in diagnostics['requests'], and the
    rewritten history (updated_history) for an explicit cache flush.
    """
    if cfg.mode != "gd":
        raise ValueError("unlearn_online requires cfg.mode == 'gd'")
    for k, req in enumerate(requests):
        if req.r != 1:
            raise ChangeSetError(f"request {k}: online requests must touch exactly one sample")
    if with_baseline and any(req.direction == "add" for req in requests):
        raise ValueError("baseline comparison is supported for pure deletion streams")
    return _update(data, history, requests, cfg, with_baseline=with_baseline)
