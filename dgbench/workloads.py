"""The benchmark's workloads: inputs made from a seed, the closed request
loop, the correctness checks, and the metrics each run reports.

Every workload has one caller that issues the next request only after the
previous one returned, all in one process, with BLAS at its default thread
count. The library sees only the generated inputs, through the same public
calls `deltagrad train` and `deltagrad unlearn` make.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from deltagrad import dataio, engine, trainer
from deltagrad.engine import ChangeSet, DeltaGradConfig
from deltagrad.models import Dataset, LossConfig
from deltagrad.trainer import TrainConfig

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

# err_ratio above this fails the check; the acceptance suite uses the same
# bound for the 1% deletion and online problems.
ERR_RATIO_BOUND = 0.2
# Requests generated per run (batch workloads) and streams (online); a run
# that uses them all ends before --seconds has passed.
MAX_REQUESTS = 64
MAX_STREAMS = 4
ADD_EVERY = 4           # online: requests 4k+3 add a row, the rest delete one
# An untraced run issues its requests in ROUNDS rounds: the first round
# issues fresh requests for its share of --seconds, the later rounds replay
# the same ones. Each request is timed by its mean over the rounds, which
# lie up to a minute apart, so that a shared machine's slow and fast
# stretches are averaged rather than picked by a median.
ROUNDS = 3
# Training and retraining are each repeated for about REPEAT_S seconds,
# spread over the slots before, between and after the rounds, and timed by
# their mean.
REPEAT_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    loss: str
    n: int
    p: int
    iterations: int
    batch: int = 0          # 0: full batch
    delete_rate: float = 0.01
    stream: int = 0         # online: requests per stream
    l2: float = 0.01
    eta: float = 0.1
    noise: float = 0.05
    period: int = 5
    burn_in: int = 10
    history_size: int = 2

    @property
    def online(self) -> bool:
        return self.stream > 0

    @property
    def batch_size(self) -> int:
        return self.batch or self.n


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gd-delete-1e5", "logistic", n=100_000, p=50, iterations=300),
        Workload("online-mixed-5k", "logistic", n=5_000, p=20, iterations=300, stream=200),
        Workload("sgd-ridge-1e5", "ridge", n=100_000, p=50, iterations=3_000, batch=1_000),
    )
}


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    data: Dataset
    requests: list          # batch: delete-index arrays; online: streams
    digest: str


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Dataset and request list of one workload, a function of `seed` only.

    Logistic rows follow a planted direction with 5% of labels flipped;
    ridge targets are X @ beta plus Gaussian noise. Online additions are
    fresh rows drawn from the same distribution as the data.
    """
    rng = np.random.default_rng(seed)
    adds = MAX_STREAMS * (w.stream // ADD_EVERY)
    X = rng.normal(size=(w.n + adds, w.p))
    if w.loss == "logistic":
        direction = rng.normal(size=w.p)
        z = X @ (2.0 * direction / np.linalg.norm(direction))
        y = np.where(rng.random(len(X)) < 1.0 / (1.0 + np.exp(-z)), 1.0, -1.0)
        flip = rng.random(len(X)) < w.noise
        y[flip] = -y[flip]
    else:
        y = X @ rng.normal(size=w.p) + 0.1 * rng.normal(size=len(X))
    data = Dataset(X[: w.n], y[: w.n])
    if w.online:
        requests = []
        adds = w.stream // ADD_EVERY
        for s in range(MAX_STREAMS):
            dels = iter(rng.choice(w.n, size=w.stream - adds, replace=False))
            rows = iter(range(w.n + s * adds, w.n + (s + 1) * adds))
            stream = []
            for k in range(w.stream):
                if k % ADD_EVERY == ADD_EVERY - 1:
                    i = next(rows)
                    stream.append(("add", X[i], y[i]))
                else:
                    stream.append(("del", int(next(dels))))
            requests.append(stream)
    else:
        r = max(1, round(w.delete_rate * w.n))
        requests = [rng.choice(w.n, size=r, replace=False) for _ in range(MAX_REQUESTS)]
    h = hashlib.sha256()
    h.update(data.features.tobytes())
    h.update(data.labels.tobytes())
    h.update(repr([_request_key(r) for r in requests]).encode())
    return Inputs(data, requests, h.hexdigest()[:16])


def _request_key(request):
    if isinstance(request, np.ndarray):
        return request.tolist()
    return [(op, payload[0].tolist(), float(payload[1])) if op == "add" else (op, payload[0])
            for op, *payload in request]


def _change_sets(stream):
    return [ChangeSet.delete([item[1]]) if item[0] == "del" else ChangeSet.add(item[1], [item[2]])
            for item in stream]


# -- helpers ------------------------------------------------------------------


class Checks:
    """Operations attempted and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    def run(self, op: str, fn):
        """Call fn() -> (value, problems); a raised exception is a failure."""
        try:
            value, problems = fn()
        except Exception as exc:        # a failing operation is a result, not a crash
            self.record(op, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.record(op, problems)
        return value


def top_up(fn, times: list, total_s: float, once: bool = False):
    """Call fn() and append its wall time to `times` until they sum to at
    least total_s, and at least once given `once`; returns the last result,
    or None if fn() was not called."""
    result = None
    while once or sum(times) < total_s:
        once = False
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return result


def percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def err_ratio(w_dg, w_ref, w_cached) -> float:
    return float(np.linalg.norm(w_dg - w_ref) / np.linalg.norm(w_ref - w_cached))


def _expected_evals(w: Workload) -> int:
    return engine.expected_full_gradient_evals(w.iterations, w.burn_in, w.period)


def _outcome_problems(w: Workload, out) -> list[str]:
    problems = []
    if not np.isfinite(out.w_final).all():
        problems.append("non-finite parameters")
    evals, expected = out.diagnostics["full_gradient_evals"], _expected_evals(w)
    if evals != expected:
        problems.append(f"full_gradient_evals {evals} != expected {expected}")
    return problems


# -- the run ------------------------------------------------------------------


class Run:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.cache = os.path.join(workdir, "history.dgc")
        self.model = os.path.join(workdir, "model.dgw")
        self.checks = Checks()
        self.metrics: dict = {}
        self.info: dict = {"workload": asdict(w), "seed": seed, "seconds": seconds}
        self.tracers: dict = {}
        self.train_cfg = TrainConfig(
            loss=LossConfig(w.loss, w.l2), iterations=w.iterations, batch_size=w.batch_size,
            eta_schedule=((0, w.eta),), seed=seed,
        )
        self.cfg = DeltaGradConfig(period=w.period, burn_in=w.burn_in,
                                   history_size=w.history_size,
                                   mode="sgd" if w.batch else "gd")

    # phases ---------------------------------------------------------------

    def execute(self) -> "Run":
        w = self.w
        times: list = []
        self.inputs = top_up(lambda: make_inputs(w, self.seed), times, 1.0, once=True)
        self.metrics["setup_s"] = statistics.median(times)
        self.info["digest"] = self.inputs.digest
        self.info["x_bytes"] = self.inputs.data.features.nbytes
        self._train()
        self._null_change()
        if w.online:
            self._online()
        else:
            self._batch()
        if not self.trace:
            self.metrics["train_s"] = statistics.fmean(self.train_times)
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.metrics["failed_ratio"] = len(self.checks.failures) / self.checks.attempted
        return self

    def _train_and_save(self):
        train = trainer.train_sgd if self.w.batch else trainer.train_gd
        history = train(self.inputs.data, self.train_cfg)
        dataio.save_cache(history, self.cache)
        return history

    def _train(self):
        if self.trace:
            with tracing.Tracer() as tr:
                self.history = self._train_and_save()
            self.tracers["train"] = tr
            return
        self.train_times = []
        self.history = top_up(self._train_and_save, self.train_times, 0.0, once=True)

    def _null_change(self):
        """r = 0 must return the cached final iterate bit for bit. It runs
        before any timed request, so it also warms BLAS and the page cache."""
        w, data, history = self.w, self.inputs.data, self.history
        fn = engine.unlearn_batch_sgd if w.batch else engine.unlearn_batch_gd
        cfg = self.cfg

        def op():
            out = fn(data, history, ChangeSet.delete([]), cfg)
            same = out.w_final.tobytes() == history.params[-1].tobytes()
            return None, [] if same else ["r=0 result differs from history.params[-1]"]

        self.checks.run("r=0", op)

    def _rounds(self, count: int, request, retrain):
        """Issue request(0), request(1), ... (at most `count`) while they
        fit in the first round's share of --seconds, then replay the same
        requests in the later rounds; a traced run has one round.

        Before, between and after the rounds, retrain() and (untraced)
        training are topped up to their share of REPEAT_S, each at least
        once after the last round. Returns one list of results per request
        whose every round succeeded, and the retraining times; the last
        retrain() result is kept in self.retrained."""
        rounds = 1 if self.trace else ROUNDS
        retrain_times: list = []
        self.retrained = None

        def slot(k):
            share, last = REPEAT_S * (k + 1) / (rounds + 1), k == rounds
            got = self.checks.run("retrain", lambda: (
                top_up(retrain, retrain_times, share, once=k == 0 or last), []))
            if got is not None:
                self.retrained = got
            if not self.trace:
                top_up(self._train_and_save, self.train_times, share, once=last)

        results = []
        slot(0)
        start = perf_counter()
        for k in range(count):
            elapsed = perf_counter() - start
            if k and elapsed * (k + 1) / k > self.seconds / rounds:
                break       # the next request would likely end past the round's share
            results.append([request(k)])
        slot(1)
        for r in range(1, rounds):
            for k, res in enumerate(results):
                res.append(request(k))
            slot(r + 1)
        return [res for res in results if None not in res], retrain_times

    def _replayed(self, op: str, outs) -> None:
        """A replayed request must give the first round's parameters bit for bit."""
        if len(outs) < 2:
            return
        first = outs[0].w_final.tobytes()
        same = all(out.w_final.tobytes() == first for out in outs[1:])
        self.checks.record(op, [] if same else ["replayed result differs from first round"])

    # batch workloads ------------------------------------------------------

    def _request(self, change):
        """load_cache -> engine -> save_model, timed outside; returns
        (outcome, wall seconds, engine seconds)."""
        fn = engine.unlearn_batch_sgd if self.w.batch else engine.unlearn_batch_gd
        t0 = perf_counter()
        history = dataio.load_cache(self.cache, self.inputs.data)
        t1 = perf_counter()
        out = fn(self.inputs.data, history, change, self.cfg)
        t2 = perf_counter()
        dataio.save_model(out.w_final, self.model)
        t3 = perf_counter()
        return out, t3 - t0, t2 - t1

    def _batch(self):
        w, data = self.w, self.inputs.data
        requests = self.inputs.requests
        tr = tracing.Tracer() if self.trace else None
        change0 = ChangeSet.delete(requests[0])

        def retrain():
            return engine.baseline_retrain(data, self.history, change0)

        def request(k):
            change = ChangeSet.delete(requests[k])

            def op():
                out, wall, eng = self._request(change)
                problems = _outcome_problems(w, out)
                if tr is not None:
                    with tr:
                        span = tr.begin("bench.request", k)
                        traced, _, _ = self._request(change)
                        tr.end(span)
                    if traced.w_final.tobytes() != out.w_final.tobytes():
                        problems.append("traced result differs from untraced result")
                return (out, wall, eng), problems

            return self.checks.run(f"request {k}", op)

        results, retrain_times = self._rounds(len(requests), request, retrain)
        for k, res in enumerate(results):
            self._replayed(f"replay request {k}", [out for out, _, _ in res])
        # each request timed by its mean over the rounds
        walls = [statistics.fmean(wall for _, wall, _ in res) for res in results]
        engine_s = [statistics.fmean(eng for _, _, eng in res) for res in results]
        reported = [statistics.fmean(out.timings["deltagrad_s"] for out, _, _ in res) for res in results]
        w_dg0 = results[0][0][0].w_final if results else None
        self.info["requests"] = len(results)
        self.info["rounds"] = len(results[0]) if results else 0
        self.info["request_walls_s"] = walls
        self.info["engine_s"] = engine_s

        def accuracy():
            ratio = err_ratio(w_dg0, self.retrained, self.history.params[-1])
            ok = ratio <= ERR_RATIO_BOUND
            return ratio, [] if ok else [f"err_ratio {ratio:.3g} > {ERR_RATIO_BOUND}"]

        ratio = None
        if self.retrained is not None and w_dg0 is not None:
            ratio = self.checks.run("accuracy request 0", accuracy)
        self.metrics["err_ratio"] = float("nan") if ratio is None else ratio
        retrain_s = statistics.fmean(retrain_times) if retrain_times else float("nan")
        if self.trace:
            self._trace_metrics(tr, len(walls), statistics.fmean(walls))
            return
        self.metrics.update(
            update_s=statistics.median(walls),
            requests_per_s=len(walls) / sum(walls),
            request_p50_ms=1e3 * statistics.median(reported),
            request_p95_ms=1e3 * percentile(reported, 95),
            retrain_s=retrain_s,
            speedup=retrain_s / statistics.median(engine_s),
        )
        self.info["speedup_same_change"] = retrain_s / engine_s[0]

    # online workload ------------------------------------------------------

    def _stream(self, stream, tr=None):
        """One session: load the cache, then unlearn_online over the stream
        and save_model, which are what is timed (and traced, given `tr`)."""
        history = dataio.load_cache(self.cache, self.inputs.data)
        requests = _change_sets(stream)
        if tr is not None:
            with tr:
                span = tr.begin("bench.stream")
                out = engine.unlearn_online(self.inputs.data, history, requests, self.cfg)
                dataio.save_model(out.w_final, self.model)
                tr.end(span)
            return out, span[2] - span[1]
        t0 = perf_counter()
        out = engine.unlearn_online(self.inputs.data, history, requests, self.cfg)
        dataio.save_model(out.w_final, self.model)
        return out, perf_counter() - t0

    def _final_set(self, stream) -> Dataset:
        """Original rows minus the deleted ones, then the added rows in
        arrival order: the sample set the stream leaves behind."""
        data = self.inputs.data
        deleted = [item[1] for item in stream if item[0] == "del"]
        keep = np.setdiff1d(np.arange(data.n), deleted)
        added = [item for item in stream if item[0] == "add"]
        X = np.vstack([data.features[keep]] + [item[1][None, :] for item in added])
        y = np.concatenate([data.labels[keep], [item[2] for item in added]])
        return Dataset(X, y)

    def _online(self):
        w = self.w
        streams = self.inputs.requests
        tr = tracing.Tracer() if self.trace else None

        def retrain_cfg(final):
            return TrainConfig(loss=self.train_cfg.loss, iterations=w.iterations,
                               batch_size=final.n, eta_schedule=self.train_cfg.eta_schedule,
                               seed=self.seed)

        final0 = self._final_set(streams[0])
        cfg0 = retrain_cfg(final0)

        def retrain():
            return trainer.train_gd(final0, cfg0)

        def request(s):
            stream = streams[s]

            def op():
                out, wall = self._stream(stream)
                problems = []
                evals = out.diagnostics["full_gradient_evals"]
                expected = len(stream) * _expected_evals(w)
                if evals != expected:
                    problems.append(f"full_gradient_evals {evals} != expected {expected}")
                if tr is not None:
                    traced, _ = self._stream(stream, tr)
                    if traced.w_final.tobytes() != out.w_final.tobytes():
                        problems.append("traced result differs from untraced result")
                return (out, wall), problems

            return self.checks.run(f"stream {s}", op)

        results, retrains = self._rounds(len(streams), request, retrain)
        walls, seconds, ratios = [], [], []
        for s, res in enumerate(results):
            self._replayed(f"replay stream {s}", [out for out, _ in res])
            # each stream timed by its mean over the rounds, each of its requests likewise
            walls.append(statistics.fmean(wall for _, wall in res))
            per_round = [[rec["seconds"] for rec in out.diagnostics["requests"]]
                         for out, _ in res]
            seconds += [statistics.fmean(times) for times in zip(*per_round)]

            def accuracy():
                if s or self.retrained is None:
                    final = self._final_set(streams[s])
                    ref = trainer.train_gd(final, retrain_cfg(final))
                else:
                    ref = self.retrained
                ratio = err_ratio(res[0][0].w_final, ref.params[-1], self.history.params[-1])
                ok = ratio <= ERR_RATIO_BOUND
                return ratio, [] if ok else [f"err_ratio {ratio:.3g} > {ERR_RATIO_BOUND}"]

            ratio = self.checks.run(f"accuracy stream {s}", accuracy)
            if ratio is not None:
                ratios.append(ratio)
        self.info["streams"] = len(walls)
        self.info["rounds"] = len(results[0]) if results else 0
        self.info["requests"] = len(seconds)
        self.metrics["err_ratio"] = statistics.median(ratios) if ratios else float("nan")
        if self.trace:
            self._trace_metrics(tr, len(seconds), sum(walls) / len(seconds))
            return
        p50 = statistics.median(seconds)
        retrain_s = statistics.fmean(retrains) if retrains else float("nan")
        self.metrics.update(
            update_s=sum(walls) / len(seconds),
            requests_per_s=len(seconds) / sum(walls),
            request_p50_ms=1e3 * p50,
            request_p95_ms=1e3 * percentile(seconds, 95),
            retrain_s=retrain_s,
            speedup=retrain_s / p50,
        )

    # tracing --------------------------------------------------------------

    def _trace_metrics(self, tr, requests: int, untraced_request_s: float):
        m = tracing.layer_metrics(tr.spans, requests)
        m.update(tracing.train_metrics(self.tracers["train"].spans))
        m["trace.untraced_request_s"] = untraced_request_s
        m["trace.overhead_s"] = m["trace.request_s"] - untraced_request_s
        m["models.gradient_sum.full_ms_1t"] = (
            self._single_thread_full_ms() if self.w.name == "gd-delete-1e5" else 0.0)
        self.metrics.update(m)
        self.tracers["requests"] = tr

    def _single_thread_full_ms(self) -> float:
        """Mean full-gradient time with OpenBLAS held to one thread, measured
        in a child process on the same data and iterates."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        cmd = [sys.executable, os.path.join(HERE, "onethread.py"),
               "--workload", json.dumps(asdict(self.w)), "--seed", str(self.seed),
               "--cache", self.cache]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"single-thread child failed: {proc.stderr.strip()}")
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["full_ms"])


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    with warnings.catch_warnings():
        # the 1e5 logistic problem trains above the worst-case contraction
        # rate 2/(L+mu); the warning is expected and says nothing per run
        warnings.simplefilter("ignore", UserWarning)
        return Run(w, seed, seconds, trace, workdir).execute()
