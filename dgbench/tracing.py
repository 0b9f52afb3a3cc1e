"""Spans and counters recorded by wrappers around deltagrad's public functions.

Nothing inside the package changes: `Tracer.install` swaps module and class
attributes for timing wrappers and `uninstall` puts the originals back. The
engine imports `gradient_sum` and `quasi_hvp` by name, so those are replaced
in the engine's namespace as well as in the defining module.

Each span is a list [name, start, end, parent, request, info], kept in
memory and written out once the run ends. `parent` is the index of the
enclosing span (-1 at the top) and `info` holds what the hook for that
function recorded (rows, bytes, mode counts, ...).
"""

from __future__ import annotations

import gzip
import json
import os
import weakref
from collections import Counter, defaultdict
from time import perf_counter

from deltagrad import dataio, engine, lbfgs, models, trainer

LAYERS = ("models", "lbfgs", "engine", "trainer", "dataio")


def _rows_info(args, kwargs):
    cfg, data, w = args[:3]
    indices = args[3] if len(args) > 3 else kwargs.get("indices")
    rows = data.n if indices is None else len(indices)
    return {"full": indices is None, "rows": rows, "p": data.p}


def _fingerprint_info(args, kwargs):
    data = args[0]
    return {"bytes": 8 * data.n * (data.p + 1)}


def _extended_info(args, kwargs):
    data, features = args[0], args[1]
    added = 1 if getattr(features, "ndim", 1) == 1 else len(features)
    return {"bytes": 8 * (data.n + added) * (data.p + 1)}


def _load_info(args, kwargs):
    return {"path": os.fspath(args[0])}


def _save_info(args, kwargs):
    return {"path": os.fspath(args[1])}


def _file_size(rec, args, result):
    rec[5]["bytes"] = os.path.getsize(rec[5]["path"])


def _after_outcome(rec, args, outcome):
    rec[5]["reported_s"] = outcome.timings["deltagrad_s"]


def _mode_counts(trace, evals, expected):
    counts = Counter(trace)
    return {
        "explicit": counts["explicit"],
        "approximated": counts["approximated"],
        "fallback": counts["fallback"],
        "skipped": counts["skipped-empty-batch"],
        "evals": evals,
        "expected": expected,
    }


class Tracer:
    """Collects spans while installed; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.auto_request = False
        self._saved: list[tuple] = []
        self._last_fact = weakref.WeakKeyDictionary()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, new_request=False):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if new_request and self.auto_request:
                self.request = 0 if self.request is None else self.request + 1
            info = before(args, kwargs) if before else {}
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(rec, args, result)
            return result

        return wrapper

    def _patch(self, owners, attr, name, **hooks):
        original = getattr(owners[0], attr)
        wrapper = self._wrap(name, original, **hooks)
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _after_factorization(self, rec, args, result):
        buf = args[0]
        rec[5]["build"] = self._last_fact.get(buf) is not result
        self._last_fact[buf] = result

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        P = self._patch
        P([models, engine], "gradient_sum", "models.gradient_sum", before=_rows_info)
        P([models], "sigmoid", "models.sigmoid",
          before=lambda a, k: {"rows": len(a[0])})
        P([models.Dataset], "fingerprint", "models.fingerprint", before=_fingerprint_info)
        P([models.Dataset], "extended", "models.extended", before=_extended_info)
        P([lbfgs, engine], "quasi_hvp", "lbfgs.quasi_hvp")
        P([lbfgs.CurvaturePairBuffer], "factorization", "lbfgs.factorization",
          after=self._after_factorization)
        P([lbfgs.CurvaturePairBuffer], "append_pair", "lbfgs.append_pair",
          after=lambda rec, a, res: rec[5].update(accepted=bool(res)))
        P([engine], "_run_gd_core", "engine.correction_loop", new_request=True,
          after=lambda rec, a, res: rec[5].update(_mode_counts(
              res[1], res[2]["full_gradient_evals"],
              res[2]["scheduled_full_gradient_evals"])))
        for fn in ("unlearn_batch_gd", "unlearn_online"):
            P([engine], fn, f"engine.{fn}", after=_after_outcome)
        P([engine], "baseline_retrain", "engine.baseline_retrain")
        P([engine], "unlearn_batch_sgd", "engine.unlearn_batch_sgd",
          before=lambda a, k: {"cfg": a[3], "T": a[1].iterations},
          after=self._after_sgd)
        for fn in ("derive_schedule", "train_gd", "train_sgd"):
            P([trainer], fn, f"trainer.{fn}")
        P([dataio], "load_cache", "dataio.load_cache", before=_load_info, after=_file_size)
        P([dataio], "save_cache", "dataio.save_cache", before=_save_info, after=_file_size)
        P([dataio], "save_model", "dataio.save_model")
        return self

    @staticmethod
    def _after_sgd(rec, args, outcome):
        cfg, T = rec[5].pop("cfg"), rec[5].pop("T")
        expected = engine.expected_full_gradient_evals(T, cfg.burn_in, cfg.period)
        rec[5].update(_mode_counts(outcome.mode_trace,
                                   outcome.diagnostics["full_gradient_evals"], expected))
        rec[5]["reported_s"] = outcome.timings["deltagrad_s"]

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- benchmark-side spans ---------------------------------------------

    def begin(self, name, request=None):
        """Open a benchmark span: the caller's view of one request, or of a
        stream when `request` is None, whose requests are then numbered by
        the engine's correction-loop calls."""
        self.request = request
        self.auto_request = request is None
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, request, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, request, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, info],
                                    default=str) + "\n")


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, requests: int) -> dict:
    """Per-layer metrics of one traced phase, as totals per request.

    `requests` is the number of requests the phase served; every count and
    time below is divided by it, except the per-call means (`*_ms`, `*_us`).
    """
    selfs = self_times(spans)
    by = defaultdict(list)
    for i, rec in enumerate(spans):
        by[rec[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def busy(name):
        return sum(dur(i) for i in by[name])

    def mean_ms(idx, scale=1e3):
        return scale * sum(dur(i) for i in idx) / len(idx) if idx else 0.0

    k = float(requests)
    gs = by["models.gradient_sum"]
    full = [i for i in gs if spans[i][5]["full"]]
    indexed = [i for i in gs if not spans[i][5]["full"]]
    rows = sum(spans[i][5]["rows"] for i in gs)
    full_ids = set(full)
    sig_in_full = [i for i in by["models.sigmoid"] if spans[i][3] in full_ids]
    facts = by["lbfgs.factorization"]
    built = {spans[i][3] for i in facts if spans[i][5]["build"]}
    fresh_hvp = [i for i in by["lbfgs.quasi_hvp"] if i in built]
    loops = by["engine.correction_loop"] + by["engine.unlearn_batch_sgd"]

    def loop_sum(key):
        return sum(spans[i][5].get(key, 0) for i in loops)

    engine_ids = [i for i, rec in enumerate(spans) if rec[0].startswith("engine.")]
    engine_set = set(engine_ids)
    outer_engine = [i for i in engine_ids if spans[i][3] not in engine_set]
    reported = sum(spans[i][5].get("reported_s", 0.0) for i in outer_engine)
    expected = loop_sum("expected")

    layer_self = sum(s for rec, s in zip(spans, selfs) if rec[0].split(".")[0] in LAYERS)
    bench_self = sum(s for rec, s in zip(spans, selfs) if rec[0].startswith("bench."))
    bench_time = sum(dur(i) for i, rec in enumerate(spans) if rec[0].startswith("bench.")
                     and rec[3] < 0)

    return {
        "models.gradient_sum.calls": len(gs) / k,
        "models.gradient_sum.rows": rows / k,
        "models.gradient_sum.indexed_rows": sum(spans[i][5]["rows"] for i in indexed) / k,
        "models.gradient_sum.busy_s": busy("models.gradient_sum") / k,
        "models.gradient_sum.bytes_computed":
            sum(8 * spans[i][5]["rows"] * (spans[i][5]["p"] + 1) for i in gs) / k,
        "models.gradient_sum.full_ms": mean_ms(full),
        "models.gradient_sum.indexed_ms": mean_ms(indexed),
        "models.sigmoid.calls": len(by["models.sigmoid"]) / k,
        "models.sigmoid.busy_s": busy("models.sigmoid") / k,
        "models.sigmoid.full_ms": mean_ms(sig_in_full),
        "models.fingerprint.calls": len(by["models.fingerprint"]) / k,
        "models.fingerprint.busy_s": busy("models.fingerprint") / k,
        "models.fingerprint.bytes":
            sum(spans[i][5]["bytes"] for i in by["models.fingerprint"]) / k,
        "models.fingerprint.ms": mean_ms(by["models.fingerprint"]),
        "models.extended.calls": len(by["models.extended"]) / k,
        "models.extended.bytes_copied":
            sum(spans[i][5]["bytes"] for i in by["models.extended"]) / k,
        "lbfgs.quasi_hvp.calls": len(by["lbfgs.quasi_hvp"]) / k,
        "lbfgs.quasi_hvp.busy_s": busy("lbfgs.quasi_hvp") / k,
        "lbfgs.quasi_hvp.fresh_us": mean_ms(fresh_hvp, 1e6),
        "lbfgs.factorization.builds": sum(spans[i][5]["build"] for i in facts) / k,
        "lbfgs.factorization.busy_s": busy("lbfgs.factorization") / k,
        "lbfgs.factorization.reuse": sum(not spans[i][5]["build"] for i in facts) / k,
        "lbfgs.append_pair.calls": len(by["lbfgs.append_pair"]) / k,
        "lbfgs.append_pair.rejected":
            sum(not spans[i][5]["accepted"] for i in by["lbfgs.append_pair"]) / k,
        "engine.busy_s": sum(dur(i) for i in outer_engine) / k,
        "engine.self_s": sum(selfs[i] for i in engine_ids) / k,
        "engine.reported_s": reported / k,
        "engine.iters.explicit": loop_sum("explicit") / k,
        "engine.iters.approximated": loop_sum("approximated") / k,
        "engine.iters.fallback": loop_sum("fallback") / k,
        "engine.iters.skipped": loop_sum("skipped") / k,
        "engine.full_gradient_evals_ratio": loop_sum("evals") / expected if expected else 0.0,
        "trainer.derive_schedule.calls": len(by["trainer.derive_schedule"]) / k,
        "trainer.derive_schedule.busy_s": busy("trainer.derive_schedule") / k,
        "dataio.load_cache.self_s": sum(selfs[i] for i in by["dataio.load_cache"]) / k,
        "dataio.load_cache.bytes":
            sum(spans[i][5]["bytes"] for i in by["dataio.load_cache"]) / k,
        "dataio.save_model.busy_s": busy("dataio.save_model") / k,
        "trace.layer_self_sum_s": layer_self / k,
        "trace.unattributed_s": bench_self / k,
        "trace.request_s": bench_time / k,
    }


def train_metrics(spans) -> dict:
    """Figures of the training phase: one training run and its save_cache."""
    train = [rec for rec in spans if rec[0] in ("trainer.train_gd", "trainer.train_sgd")]
    save = [rec for rec in spans if rec[0] == "dataio.save_cache"]
    return {
        "trainer.train.busy_s": sum(rec[2] - rec[1] for rec in train),
        "dataio.save_cache.busy_s": sum(rec[2] - rec[1] for rec in save),
        "dataio.save_cache.bytes": float(sum(rec[5]["bytes"] for rec in save)),
    }
