"""Incremental model-update engines and the naive retraining baseline.

Every engine is a setting of one correction loop, `_run_gd_core`, which
corrects a cached training trajectory after sample deletion or addition
without retraining from scratch:

  unlearn_batch_gd / relearn_batch_gd  -- all rows, minus or plus the change
  unlearn_batch_sgd                    -- each recorded minibatch, minus its
                                          deleted rows
  unlearn_general                      -- all rows, with convexity guards
  unlearn_online                       -- one single-sample request at a
                                          time, rewriting the cached history

During a burn-in prefix and once every `period` iterations thereafter, the
new-trajectory gradient is computed exactly and the difference against the
cached gradient is pushed into a curvature-pair buffer; in between, the
gradient is reconstructed as cached_gradient + B(v) with v the parameter
drift and B the quasi-Hessian from the buffer, so only the changed samples'
gradients are ever evaluated.

`baseline_retrain` is the correctness oracle: it replays the recorded
schedule directly over the changed sample set.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ChangeSetError, DivergenceError, FactorizationError, FingerprintMismatchError
from .lbfgs import CurvaturePairBuffer, quasi_hvp
from .models import Dataset, Objective, gradient_sum
from .trainer import TrainingHistory

MODES = ("gd", "sgd", "general")
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
            idx = np.asarray([] if indices is None else indices, dtype=np.intp)
            if idx.size and np.unique(idx).size != idx.size:
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

    def validate_against(self, n: int, p: int):
        if self.direction == "delete":
            if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
                raise ChangeSetError(f"delete index out of range [0, {n})")
        else:
            if self.features.size and self.features.shape[1] != p:
                raise ChangeSetError(f"added rows have {self.features.shape[1]} features, expected {p}")
        if n and self.r / n > SMALL_FRACTION_WARN:
            warnings.warn(
                f"change touches {self.r}/{n} samples; the correction is only "
                "guaranteed accurate for small fractions",
                stacklevel=3,
            )


@dataclass
class UpdateOutcome:
    """Corrected parameters plus per-run diagnostics.

    mode_trace holds one entry per iteration: 'explicit', 'approximated',
    'fallback' (unscheduled exact recomputation), or 'skipped-empty-batch'.
    distances/timings are filled when the baseline oracle was also run.
    """

    w_final: np.ndarray
    mode_trace: list
    diagnostics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    distances: dict = field(default_factory=dict)
    trajectory: np.ndarray | None = None
    updated_history: TrainingHistory | None = None


def expected_full_gradient_evals(iterations: int, burn_in: int, period: int) -> int:
    """Scheduled explicit-iteration count: t <= burn_in or (t-burn_in) % period == 0.

    Equals burn_in + ceil((iterations-burn_in)/period) whenever
    iterations > burn_in.
    """
    if iterations <= burn_in + 1:
        return iterations
    return burn_in + 1 + (iterations - 1 - burn_in) // period


def _verify_fingerprint(history: TrainingHistory, data: Dataset):
    if history.fingerprint != data.fingerprint():
        raise FingerprintMismatchError(
            "training history was cached for a different dataset"
        )


def _check_engine_convexity(history: TrainingHistory, cfg: DeltaGradConfig):
    if cfg.mode != "general" and history.config.loss.l2 <= 0.0:
        raise ValueError(
            "l2 must be > 0 for the gd/sgd/online engines (mu = l2); "
            "use mode='general' for unregularized objectives"
        )


def _finite_or_raise(t: int, iw: np.ndarray, last: np.ndarray):
    if not np.isfinite(iw).all():
        raise DivergenceError(t, "non-finite updated parameters", last_finite=last)


def baseline_retrain(data: Dataset, history: TrainingHistory, change: ChangeSet) -> np.ndarray:
    """Retrain from scratch on the changed sample set, replaying the recorded
    schedule, and return the final parameters. This is the oracle the engines
    are measured against; it shares no update code with them."""
    _verify_fingerprint(history, data)
    change.validate_against(data.n, data.p)
    cfg = history.config
    T = history.iterations
    w = history.params[0].copy()

    if change.direction == "add":
        if cfg.batch_size != data.n:
            raise ValueError("addition is defined for full-batch histories only")
        grown = data.extended(change.features, change.labels) if change.r else data
        obj = Objective(cfg.loss, grown)
        for t in range(T):
            w = w - cfg.eta_at(t) * obj.full_avg_gradient(w)
            _finite_or_raise(t, w, w)
        return w

    if change.r:
        keep = np.setdiff1d(np.arange(data.n), change.indices)
        removed_mask = np.zeros(data.n, dtype=bool)
        removed_mask[change.indices] = True
    else:
        keep = None
        removed_mask = None

    if cfg.batch_size == data.n:
        sub = data if keep is None else data.subset(keep)
        obj = Objective(cfg.loss, sub)
        for t in range(T):
            w = w - cfg.eta_at(t) * obj.full_avg_gradient(w)
            _finite_or_raise(t, w, w)
        return w

    obj = Objective(cfg.loss, data)
    for t, batch in enumerate(history.batches()):
        members = batch if removed_mask is None else batch[~removed_mask[batch]]
        if members.size == 0:
            continue
        w = w - cfg.eta_at(t) * obj.batch_avg_gradient(w, members)
        _finite_or_raise(t, w, w)
    return w


def _run_gd_core(
    obj: Objective,
    params: np.ndarray,
    grads: np.ndarray,
    eta_at,
    cfg: DeltaGradConfig,
    removed_ids: np.ndarray | None,
    added: Dataset | None,
    *,
    batches: list[np.ndarray] | None = None,
    guards: bool = False,
    overwrite: bool = False,
    keep_trajectory: bool = False,
):
    """The correction loop of every engine.

    The sample change is either `removed_ids` (absolute rows of obj's data)
    or `added` (a small Dataset of new rows). Iteration t runs over every
    row of obj, or over the recorded minibatch batches[t], whose deleted
    members are its changed rows. With n rows and r changed, the
    changed-objective gradient at iterate w is

        ( data_sum(rows) -/+ data_sum(changed) ) / (n -/+ r) + l2*w

    at explicit iterations, and at approximate iterations

        n/(n -/+ r) * (B v + cached_grad) -/+ (changed_sum + r*l2*w)/(n -/+ r)

    which for r = 0 collapses bitwise to the cached update; a minibatch left
    empty is skipped. With overwrite=True, params[t] and grads[t] are
    replaced by the corrected iterate and the (exact or reconstructed)
    new-objective gradient.
    """
    T = grads.shape[0]
    n = obj.n
    sign = -1.0 if added is None else 1.0
    r = (0 if removed_ids is None else len(removed_ids)) if added is None else added.n
    if batches is None and added is None and n - r <= 0:
        raise ChangeSetError("cannot delete every remaining sample")
    if batches is not None:
        removed_mask = np.zeros(obj.data.n, dtype=bool)
        removed_mask[removed_ids] = True
    batch = None
    l2 = obj.l2

    def changed_data_sum(w):
        if added is not None:
            return gradient_sum(obj.cfg, added, w)
        return obj.data_grad_sum(w, removed_ids)

    buf = CurvaturePairBuffer(cfg.history_size)
    iw = params[0].copy()
    trace: list[str] = []
    trajectory = [iw.copy()] if keep_trajectory else None
    full_evals = 0
    convexity_events = 0
    smoothness_events = 0
    cholesky_fallbacks = 0
    empty_buffer_fallbacks = 0
    last_anchor = cfg.burn_in

    zero = np.zeros(obj.p)

    for t in range(T):
        if batches is not None:
            batch = batches[t]
            removed_ids = batch[removed_mask[batch]]
            n, r = batch.size, removed_ids.size
            if n == r:
                trace.append("skipped-empty-batch")
                if keep_trajectory:
                    trajectory.append(iw.copy())
                continue
        denom = n - r if added is None else n + r
        ratio = n / denom

        w_t = params[t]
        g_t = grads[t]
        v = iw - w_t

        if guards:
            scheduled = t <= cfg.burn_in or (t - last_anchor) % cfg.period == 0
        else:
            scheduled = t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0

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
            S = obj.data_grad_sum(iw, batch)
            full_evals += 1
            g_full = S / n + l2 * iw
            dg = g_full - g_t
            if guards and v.any() and float(dg @ v) <= 0.0:
                convexity_events += 1        # concave stretch: do not trust the pair
            else:
                buf.append_pair(v, dg, tag=t)
            changed = changed_data_sum(iw) if r else zero
            new_grad = (S + sign * changed) / denom + l2 * iw
        else:
            changed_reg = (changed_data_sum(iw) + r * l2 * iw) if r else zero
            new_grad = ratio * (Bv + g_t) + sign * (changed_reg / denom)

        iw_next = iw - eta_at(t) * new_grad
        _finite_or_raise(t, iw_next, iw)

        if overwrite:
            params[t] = iw
            grads[t] = new_grad
        iw = iw_next
        trace.append(label)
        if keep_trajectory:
            trajectory.append(iw.copy())

    if overwrite:
        params[T] = iw

    diagnostics = {
        "full_gradient_evals": full_evals,
        "scheduled_full_gradient_evals": expected_full_gradient_evals(
            T, cfg.burn_in, cfg.period
        ),
        "pair_rejections": buf.rejected,
        "convexity_guard_events": convexity_events,
        "smoothness_guard_events": smoothness_events,
        "cholesky_fallbacks": cholesky_fallbacks,
        "empty_buffer_fallbacks": empty_buffer_fallbacks,
        "skipped_batches": trace.count("skipped-empty-batch"),
    }
    return iw, trace, diagnostics, (np.asarray(trajectory) if keep_trajectory else None)


def _with_baseline(outcome: UpdateOutcome, data, history, change, t_engine):
    t0 = time.perf_counter()
    w_u = baseline_retrain(data, history, change)
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


def _batch_gd(data, history, change, cfg, *, guards, with_baseline, keep_trajectory,
              objective=None, minibatch=False):
    _verify_fingerprint(history, data)
    _check_engine_convexity(history, cfg)
    change.validate_against(data.n, data.p)
    if minibatch:
        batches = history.batches()
    elif history.config.batch_size != data.n:
        raise ValueError("history was trained with minibatches; use the sgd engine")
    else:
        batches = None
    obj = objective if objective is not None else Objective(history.config.loss, data)
    if change.direction == "delete":
        removed, added = change.indices, None
    elif change.r:
        removed, added = None, Dataset(change.features, change.labels)
    else:
        removed, added = np.asarray([], dtype=np.intp), None
    t0 = time.perf_counter()
    w_final, trace, diag, traj = _run_gd_core(
        obj,
        history.params,
        history.gradients,
        history.config.eta_at,
        cfg,
        removed,
        added,
        batches=batches,
        guards=guards,
        keep_trajectory=keep_trajectory,
    )
    t_engine = time.perf_counter() - t0
    outcome = UpdateOutcome(
        w_final=w_final,
        mode_trace=trace,
        diagnostics=diag,
        timings={"deltagrad_s": t_engine},
        trajectory=traj,
    )
    if with_baseline:
        _with_baseline(outcome, data, history, change, t_engine)
    return outcome


def unlearn_batch_gd(data, history, change, cfg, *, with_baseline=False,
                     keep_trajectory=False) -> UpdateOutcome:
    """Correct a full-batch trajectory after deleting `change.indices`."""
    if cfg.mode != "gd":
        raise ValueError("unlearn_batch_gd requires cfg.mode == 'gd'")
    if change.direction != "delete":
        raise ValueError("unlearn_batch_gd handles deletions; use relearn_batch_gd to add")
    return _batch_gd(data, history, change, cfg, guards=False,
                     with_baseline=with_baseline, keep_trajectory=keep_trajectory)


def relearn_batch_gd(data, history, change, cfg, *, with_baseline=False,
                     keep_trajectory=False) -> UpdateOutcome:
    """Correct a full-batch trajectory after adding `change` rows.

    Mirror of the deletion rule: denominators become n + r and the added
    samples' gradients enter with a plus sign.
    """
    if cfg.mode != "gd":
        raise ValueError("relearn_batch_gd requires cfg.mode == 'gd'")
    if change.direction != "add":
        raise ValueError("relearn_batch_gd handles additions")
    return _batch_gd(data, history, change, cfg, guards=False,
                     with_baseline=with_baseline, keep_trajectory=keep_trajectory)


def unlearn_general(data, history, change, cfg, *, with_baseline=False,
                    keep_trajectory=False, objective=None) -> UpdateOutcome:
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
    return _batch_gd(data, history, change, cfg, guards=True,
                     with_baseline=with_baseline, keep_trajectory=keep_trajectory,
                     objective=objective)


def unlearn_batch_sgd(data, history, change, cfg, *, with_baseline=False,
                      keep_trajectory=False) -> UpdateOutcome:
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
    return _batch_gd(data, history, change, cfg, guards=False, minibatch=True,
                     with_baseline=with_baseline, keep_trajectory=keep_trajectory)


def unlearn_online(data, history, requests, cfg, *, with_baseline=False) -> UpdateOutcome:
    """Process single-sample deletion/addition requests sequentially.

    After each request the working history is overwritten: explicit
    iterations store the exact new gradient, approximate iterations store
    the reconstructed one, so the next request corrects against the
    freshest trajectory. Added rows get indices n, n+1, ... in arrival
    order; deleting an index twice is an error.

    The returned outcome carries the final parameters, the last request's
    mode trace, per-request records in diagnostics['requests'], and the
    mutated history (updated_history) for an explicit cache flush.
    """
    if cfg.mode != "gd":
        raise ValueError("unlearn_online requires cfg.mode == 'gd'")
    _verify_fingerprint(history, data)
    _check_engine_convexity(history, cfg)
    if history.config.batch_size != data.n:
        raise ValueError("the online engine requires a full-batch history")
    for req in requests:
        if req.r != 1:
            raise ChangeSetError("online requests must touch exactly one sample")
        if req.direction == "add" and req.features.shape[1] != data.p:
            raise ChangeSetError(
                f"added row has {req.features.shape[1]} features, expected {data.p}"
            )
        if with_baseline and req.direction == "add":
            raise ValueError("baseline comparison is supported for pure deletion streams")

    working = history.copy()
    current = data
    deleted: set[int] = set()
    trace: list[str] = []
    diag_total: dict = {"full_gradient_evals": 0, "pair_rejections": 0,
                        "cholesky_fallbacks": 0, "empty_buffer_fallbacks": 0}
    records = []

    t_engine = 0.0
    for k, req in enumerate(requests):
        if req.direction == "delete":
            idx = int(req.indices[0])
            if not 0 <= idx < current.n or idx in deleted:
                raise ChangeSetError(f"request {k}: index {idx} is not an active sample")
            removed = np.asarray([idx], dtype=np.intp)
            added = None
        else:
            removed = None
            added = Dataset(req.features, req.labels)

        obj = Objective(history.config.loss, current, removed=sorted(deleted))
        start = time.perf_counter()
        w_prev = working.params[-1].copy()
        w_final, trace, diag, _ = _run_gd_core(
            obj,
            working.params,
            working.gradients,
            history.config.eta_at,
            cfg,
            removed,
            added,
            overwrite=True,
        )
        dt = time.perf_counter() - start
        t_engine += dt

        # commit the sample change for the next request
        if req.direction == "delete":
            deleted.add(idx)
        else:
            current = current.extended(req.features, req.labels)

        for key in diag_total:
            diag_total[key] += diag.get(key, 0)
        records.append({
            "request": k,
            "direction": req.direction,
            "index": int(req.indices[0]) if req.direction == "delete" else current.n - 1,
            "shift": float(np.linalg.norm(w_final - w_prev)),
            "seconds": dt,
        })

    outcome = UpdateOutcome(
        w_final=working.params[-1].copy(),
        mode_trace=trace,
        diagnostics={**diag_total, "requests": records},
        timings={"deltagrad_s": t_engine},
        updated_history=working,
    )

    if with_baseline:
        _with_baseline(outcome, data, history, ChangeSet.delete(sorted(deleted)), t_engine)
    return outcome


def record_benchmark(data, history, change, cfg) -> dict:
    """Run the matching engine and the baseline, timed, and report wall
    times, distances, and full-gradient-evaluation counts against the
    closed-form schedule."""
    engine = {
        "gd": unlearn_batch_gd if change.direction == "delete" else relearn_batch_gd,
        "sgd": unlearn_batch_sgd,
        "general": unlearn_general,
    }[cfg.mode]
    outcome = engine(data, history, change, cfg, with_baseline=True)
    T = history.iterations
    return {
        "n": data.n,
        "p": data.p,
        "r": change.r,
        "iterations": T,
        "period": cfg.period,
        "burn_in": cfg.burn_in,
        "baseline_s": outcome.timings["baseline_s"],
        "deltagrad_s": outcome.timings["deltagrad_s"],
        "speedup": outcome.timings["speedup"],
        "distances": dict(outcome.distances),
        "full_gradient_evals": outcome.diagnostics["full_gradient_evals"],
        "scheduled_full_gradient_evals": expected_full_gradient_evals(
            T, cfg.burn_in, cfg.period
        ),
        "baseline_gradient_evals": T,
        "mode_trace_summary": {
            label: outcome.mode_trace.count(label)
            for label in ("explicit", "approximated", "fallback", "skipped-empty-batch")
        },
    }
