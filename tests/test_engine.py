import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltagrad import (
    ChangeSet,
    ChangeSetError,
    CurvaturePairBuffer,
    Dataset,
    DeltaGradConfig,
    DivergenceError,
    FingerprintMismatchError,
    LossConfig,
    Objective,
    SyntheticSpec,
    TrainConfig,
    TrainingHistory,
    baseline_retrain,
    expected_full_gradient_evals,
    generate_synthetic,
    relearn_batch_gd,
    smoothness_bound,
    train_gd,
    train_sgd,
    unlearn_batch_gd,
    unlearn_batch_sgd,
    unlearn_general,
    unlearn_online,
)
import deltagrad.engine as engine_mod
import deltagrad.models as models_mod
from oracles import ridge_solution

GD = DeltaGradConfig(period=5, burn_in=10, history_size=2, mode="gd")
SGD = DeltaGradConfig(period=5, burn_in=10, history_size=2, mode="sgd")
GEN = DeltaGradConfig(period=5, burn_in=10, history_size=2, mode="general")


def train_problem(n=600, p=8, l2=0.01, T=80, eta=0.1, seed=0, batch=None):
    data = generate_synthetic(SyntheticSpec(n=n, p=p, noise=0.05, seed=seed))
    cfg = TrainConfig(
        loss=LossConfig("logistic", l2),
        iterations=T,
        batch_size=n if batch is None else batch,
        eta_schedule=((0, eta),),
        seed=seed,
    )
    hist = train_gd(data, cfg) if batch is None else train_sgd(data, cfg)
    return data, hist


# ---------------------------------------------------------------- baseline

def test_baseline_empty_change_returns_cached(logistic_data, logistic_history):
    w = baseline_retrain(logistic_data, logistic_history, ChangeSet.delete([]))
    assert np.array_equal(w, logistic_history.params[-1])


def test_baseline_leave_one_out_mean():
    # one-feature ridge with x=1: the optimum is the mean of remaining labels
    data = Dataset([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0])
    cfg = TrainConfig(loss=LossConfig("ridge", 0.0), iterations=200,
                      batch_size=3, eta_schedule=((0, 0.5),))
    hist = train_gd(data, cfg)
    with pytest.warns(UserWarning, match="small fraction"):
        w = baseline_retrain(data, hist, ChangeSet.delete([2]))
    assert w == pytest.approx([1.5], abs=1e-8)


def test_baseline_single_survivor():
    data = Dataset([[1.0], [1.0], [1.0]], [1.0, 2.0, 5.0])
    cfg = TrainConfig(loss=LossConfig("ridge", 0.0), iterations=300,
                      batch_size=3, eta_schedule=((0, 0.5),))
    hist = train_gd(data, cfg)
    with pytest.warns(UserWarning, match="small fraction"):
        w = baseline_retrain(data, hist, ChangeSet.delete([0, 1]))
    assert w == pytest.approx([5.0], abs=1e-8)


def test_baseline_fingerprint_check(logistic_data, logistic_history):
    other = Dataset(logistic_data.features.copy() + 1.0, logistic_data.labels)
    with pytest.raises(FingerprintMismatchError):
        baseline_retrain(other, logistic_history, ChangeSet.delete([]))


@pytest.mark.parametrize("runner", ["train_gd", "baseline_retrain", "unlearn_batch_gd"])
def test_divergence_reports_last_finite_iterate(ridge_data, runner):
    # eta = 1e6 on ridge overflows within a few dozen steps; every loop must
    # hand back the iterate before the first non-finite one
    T = 400
    cfg = TrainConfig(loss=LossConfig("ridge", 0.1), iterations=T,
                      batch_size=ridge_data.n, eta_schedule=((0, 1e6),))
    hist = TrainingHistory(np.zeros((T + 1, ridge_data.p)), np.zeros((T, ridge_data.p)),
                           cfg, ridge_data.n, ridge_data.p, ridge_data.fingerprint())
    # a burn-in covering every step makes the engine's r = 0 steps the trainer's
    every_step = DeltaGradConfig(period=1, burn_in=T, history_size=2, mode="gd")
    run = {
        "train_gd": lambda: train_gd(ridge_data, cfg),
        "baseline_retrain": lambda: baseline_retrain(ridge_data, hist, ChangeSet.delete([])),
        "unlearn_batch_gd": lambda: unlearn_batch_gd(
            ridge_data, hist, ChangeSet.delete([]), every_step),
    }[runner]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergenceError) as err:
            run()
        t = err.value.iteration
        ref = train_gd(ridge_data, dataclasses.replace(cfg, iterations=t)).params[-1]
    assert 0 < t < T
    assert np.isfinite(err.value.last_finite).all()
    assert np.array_equal(err.value.last_finite, ref)


# ---------------------------------------------------------------- batch GD

def test_gd_null_change_is_bit_exact():
    data, hist = train_problem()
    out = unlearn_batch_gd(data, hist, ChangeSet.delete([]), GD)
    assert np.array_equal(out.updated_history.params, hist.params)
    assert set(out.mode_trace) <= {"explicit", "approximated"}


def test_gd_quadratic_exactness(ridge_data, ridge_history):
    change = ChangeSet.delete([0, 17, 41, 63, 99])
    out = unlearn_batch_gd(ridge_data, ridge_history, change, GD, with_baseline=True)
    w_u = out.diagnostics["baseline_w"]
    assert out.distances["uw_iw"] <= 1e-10 * (1 + np.linalg.norm(w_u))


def test_gd_beats_cached_model_on_logistic():
    data, hist = train_problem(n=2000, p=10, T=150)
    rng = np.random.default_rng(5)
    change = ChangeSet.delete(rng.choice(data.n, size=20, replace=False))
    out = unlearn_batch_gd(data, hist, change, GD, with_baseline=True)
    assert out.distances["uw_iw"] < out.distances["uw_w"]


def test_gd_mode_trace_matches_schedule():
    data, hist = train_problem(T=47)
    cfg = DeltaGradConfig(period=7, burn_in=9, history_size=2, mode="gd")
    out = unlearn_batch_gd(data, hist, ChangeSet.delete([1, 2]), cfg)
    for t, label in enumerate(out.mode_trace):
        scheduled = t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0
        if scheduled:
            assert label == "explicit"
        else:
            assert label in ("approximated", "fallback")
    assert out.diagnostics["full_gradient_evals"] == expected_full_gradient_evals(
        47, cfg.burn_in, cfg.period
    ) + out.mode_trace.count("fallback")


def test_gd_monotone_degradation_in_period():
    data, hist = train_problem(n=800, p=8, T=90)
    rng = np.random.default_rng(6)
    change = ChangeSet.delete(rng.choice(data.n, size=8, replace=False))
    ratios = []
    for period in (20, 10, 5, 2, 1):
        cfg = DeltaGradConfig(period=period, burn_in=10, history_size=2, mode="gd")
        out = unlearn_batch_gd(data, hist, change, cfg, with_baseline=True)
        ratios.append(out.distances["uw_iw"] / out.distances["uw_w"])
    for worse, better in zip(ratios, ratios[1:]):
        assert better <= worse * (1 + 1e-6) + 1e-12
    assert ratios[-1] <= 1e-10      # every iteration explicit


def test_gd_divergence_guard(ridge_data, ridge_history):
    bad = ridge_history.copy()
    bad.gradients[21] = np.inf       # poisons an approximate iteration's input
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as err:
            unlearn_batch_gd(ridge_data, bad, ChangeSet.delete([0]), GD)
    assert "iteration 21" in str(err.value)


def test_gd_cholesky_fallback(monkeypatch):
    data, hist = train_problem(T=40)

    # the approximate step reads its lane's factorization from a batched
    # build, so the failure is injected there: the first three builds get a
    # Schur complement whose first pivot is not positive
    from deltagrad import lbfgs

    calls = {"count": 0}
    real = lbfgs._cholesky_inverse

    def flaky(C):
        calls["count"] += 1
        if calls["count"] <= 3:
            C = [list(row) for row in C]
            C[0][0] = 0.0 * C[0][0]
        return real(C)

    monkeypatch.setattr(lbfgs, "_cholesky_inverse", flaky)
    change = ChangeSet.delete([0, 1, 2])
    out = unlearn_batch_gd(data, hist, change, GD, with_baseline=True)
    assert out.mode_trace.count("fallback") == 3
    assert out.diagnostics["cholesky_fallbacks"] == 3
    assert out.distances["uw_iw"] < out.distances["uw_w"]


def test_changeset_validation():
    with pytest.raises(ChangeSetError):
        ChangeSet.delete([1, 1])
    data, hist = train_problem(n=100, T=5)
    with pytest.raises(ChangeSetError):
        unlearn_batch_gd(data, hist, ChangeSet.delete([100]), GD)
    with pytest.warns(UserWarning, match="small"):
        unlearn_batch_gd(data, hist, ChangeSet.delete(np.arange(20)), GD)


@pytest.mark.parametrize("ids", [[1.5, 7.9], np.array([False, True]), np.array(["3"]),
                                 [[1, 2]], 4])
def test_delete_ids_must_be_a_1d_integer_sequence(ids):
    with pytest.raises(ChangeSetError, match="integers"):
        ChangeSet.delete(ids)


@pytest.mark.parametrize("features", [5.0, np.float64(5.0), np.array(5.0)])
def test_added_features_must_have_a_row(features):
    # a scalar is no row; features of more than two dimensions are left to
    # the request check, which names the request (see the stream test below)
    with pytest.raises(ChangeSetError, match="row"):
        ChangeSet.add(features, [1.0])
    assert ChangeSet.add([5.0], [1.0]).features.shape == (1, 1)


def test_delete_ids_accept_empty_and_any_integer_dtype():
    assert ChangeSet.delete([]).r == 0
    np.testing.assert_array_equal(ChangeSet.delete(np.array([7, 2], dtype=np.uint8)).indices,
                                  [2, 7])


def test_baseline_comparison_hashes_the_dataset_once(monkeypatch):
    data, hist = train_problem(n=500, T=30)
    calls = []
    fingerprint = Dataset.fingerprint

    def counted(self):
        calls.append(self.n)
        return fingerprint(self)

    monkeypatch.setattr(Dataset, "fingerprint", counted)
    unlearn_batch_gd(data, hist, ChangeSet.delete([1, 2]), GD, with_baseline=True)
    assert calls == [500]
    calls.clear()
    requests = [ChangeSet.delete([i]) for i in range(20)]
    unlearn_online(data, hist, requests, GD, with_baseline=True)
    assert calls == [500]


# ---------------------------------------------------------------- addition

def test_add_null_change_is_bit_exact():
    data, hist = train_problem()
    change = ChangeSet("add", features=np.zeros((0, data.p)), labels=np.zeros(0))
    out = relearn_batch_gd(data, hist, change, GD)
    assert np.array_equal(out.w_final, hist.params[-1])


def test_add_duplicate_row_matches_baseline_on_ridge(ridge_data, ridge_history):
    change = ChangeSet.add(ridge_data.features[3], [ridge_data.labels[3]])
    out = relearn_batch_gd(ridge_data, ridge_history, change, GD, with_baseline=True)
    w_u = out.diagnostics["baseline_w"]
    assert out.distances["uw_iw"] <= 1e-10 * (1 + np.linalg.norm(w_u))


def test_delete_then_add_back_recovers_cached():
    data, hist = train_problem(n=900, p=6, T=250, l2=0.05, eta=0.3)
    rng = np.random.default_rng(7)
    ids = rng.choice(data.n, size=2, replace=False)
    keep = np.setdiff1d(np.arange(data.n), ids)
    reduced = data.subset(keep)
    cfg_reduced = TrainConfig(
        loss=hist.config.loss,
        iterations=hist.config.iterations,
        batch_size=reduced.n,
        eta_schedule=hist.config.eta_schedule,
        seed=hist.config.seed,
    )
    hist_reduced = train_gd(reduced, cfg_reduced)
    change = ChangeSet.add(data.features[ids], data.labels[ids])
    out = relearn_batch_gd(reduced, hist_reduced, change, GD)
    assert np.linalg.norm(out.w_final - hist.params[-1]) <= 1e-6


def test_sgd_add_rejected():
    data, hist = train_problem(batch=64)
    change = ChangeSet.add(np.zeros((1, data.p)), [1.0])
    with pytest.raises(ValueError):
        unlearn_batch_sgd(data, hist, change, SGD)


# ---------------------------------------------------------------- batch SGD

def test_sgd_null_change_is_bit_exact():
    data, hist = train_problem(batch=64, T=60)
    out = unlearn_batch_sgd(data, hist, ChangeSet.delete([]), SGD)
    assert np.array_equal(out.updated_history.params, hist.params)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    n=st.integers(3, 60),
    p=st.integers(1, 6),
    period=st.integers(1, 8),
    burn_in=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    data_st=st.data(),
)
def test_sgd_full_batch_degenerates_to_gd(kind, n, p, period, burn_in, seed, data_st):
    data = generate_synthetic(SyntheticSpec(n=n, p=p, noise=0.05, seed=seed))
    loss_cfg = LossConfig(kind, 0.01)
    eta = 1.0 / (smoothness_bound(loss_cfg, data) + loss_cfg.l2)
    cfg = TrainConfig(loss=loss_cfg, iterations=30, batch_size=n,
                      eta_schedule=((0, eta),), seed=seed)
    hist_gd = train_gd(data, cfg)
    hist_sgd = train_sgd(data, cfg)
    gd = DeltaGradConfig(period=period, burn_in=burn_in, history_size=2, mode="gd")
    sgd = DeltaGradConfig(period=period, burn_in=burn_in, history_size=2, mode="sgd")
    ids = data_st.draw(st.lists(st.integers(0, n - 1), max_size=min(5, n - 1), unique=True))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # r/n above the small-change hint
        out_gd = unlearn_batch_gd(data, hist_gd, ChangeSet.delete(ids), gd)
        out_sgd = unlearn_batch_sgd(data, hist_sgd, ChangeSet.delete(ids), sgd)
    assert np.array_equal(out_gd.w_final, out_sgd.w_final)
    assert out_gd.mode_trace == out_sgd.mode_trace
    empty = ChangeSet.delete([])
    assert np.array_equal(unlearn_batch_gd(data, hist_gd, empty, gd).w_final,
                          hist_gd.params[-1])
    assert np.array_equal(unlearn_batch_sgd(data, hist_sgd, empty, sgd).w_final,
                          hist_sgd.params[-1])


def test_sgd_tracks_baseline():
    data, hist = train_problem(n=2000, p=10, T=120, batch=256)
    rng = np.random.default_rng(8)
    change = ChangeSet.delete(rng.choice(data.n, size=20, replace=False))
    out = unlearn_batch_sgd(data, hist, change, SGD, with_baseline=True)
    assert out.distances["uw_iw"] < out.distances["uw_w"]


def test_sgd_empty_batch_skipped():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 3))
    y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
    data = Dataset(X, y)
    cfg = TrainConfig(loss=LossConfig("logistic", 0.05), iterations=12,
                      batch_size=2, eta_schedule=((0, 0.1),), seed=1)
    hist = train_sgd(data, cfg)
    batch0 = hist.batches()[0]
    change = ChangeSet.delete(batch0)
    with pytest.warns(UserWarning):
        out = unlearn_batch_sgd(data, hist, change, DeltaGradConfig(
            period=3, burn_in=2, history_size=2, mode="sgd"))
        w_u = baseline_retrain(data, hist, change)
    skipped = out.mode_trace.count("skipped-empty-batch")
    assert skipped >= 1
    assert out.diagnostics["skipped-empty-batch"] == skipped
    assert np.linalg.norm(out.w_final - w_u) < 1.0


# ---------------------------------------------------------------- online

def test_online_zero_requests(logistic_data, logistic_history):
    out = unlearn_online(logistic_data, logistic_history, [], GD)
    assert np.array_equal(out.w_final, logistic_history.params[-1])
    assert np.array_equal(out.updated_history.params, logistic_history.params)


def test_online_single_delete_matches_batch():
    data, hist = train_problem(T=60)
    out_batch = unlearn_batch_gd(data, hist, ChangeSet.delete([37]), GD)
    out_online = unlearn_online(data, hist, [ChangeSet.delete([37])], GD)
    assert np.array_equal(out_batch.w_final, out_online.w_final)


def test_online_single_add_matches_batch():
    data, hist = train_problem(T=60)
    row, label = np.ones(data.p) * 0.1, 1.0
    out_batch = relearn_batch_gd(data, hist, ChangeSet.add(row, [label]), GD)
    out_online = unlearn_online(data, hist, [ChangeSet.add(row, [label])], GD)
    assert np.array_equal(out_batch.w_final, out_online.w_final)


def test_online_stream_tracks_baseline():
    data, hist = train_problem(n=1200, p=8, T=100)
    rng = np.random.default_rng(10)
    ids = rng.choice(data.n, size=12, replace=False)
    out = unlearn_online(data, hist, [ChangeSet.delete([i]) for i in ids], GD,
                         with_baseline=True)
    assert len(out.diagnostics["requests"]) == 12
    assert out.distances["uw_iw"] < out.distances["uw_w"]


def test_stream_raises_the_first_failed_requests_divergence(ridge_data):
    # the stream runs as a wavefront (wave s runs step s - k of request k):
    # request 1 adds a row of 1e150, which overflows at its step 1, in wave
    # 2; request 0 adds a row of 300s, too steep for the step size, which
    # overflows at its step 61, in wave 61. The stream raises request 0's
    # error, its step and last finite iterate, as running the requests one
    # by one does; a failed request's error also waits for the requests
    # before it to finish
    cfg = TrainConfig(loss=LossConfig("ridge", 0.1), iterations=80, batch_size=ridge_data.n,
                      eta_schedule=((0, 0.1),))
    hist = train_gd(ridge_data, cfg)
    params = hist.params.copy()
    p = ridge_data.p
    steep, huge = ChangeSet.add(np.full(p, 300.0), [1.0]), ChangeSet.add(np.full(p, 1e150), [1.0])
    runs = {"alone": [steep], "stream": [steep, huge, ChangeSet.delete([5])],
            "huge": [huge], "second": [ChangeSet.delete([5]), huge]}
    errors = {}
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, reqs in runs.items():
            with pytest.raises(DivergenceError) as err:
                unlearn_online(ridge_data, hist, reqs, GD)
            errors[name] = err.value
    assert errors["stream"].iteration == errors["alone"].iteration > 2
    # request 0 shared its first waves' kernel calls with request 1: roundoff
    np.testing.assert_allclose(errors["stream"].last_finite, errors["alone"].last_finite,
                               rtol=1e-9)
    assert errors["second"].iteration == errors["huge"].iteration == 1
    assert np.array_equal(hist.params, params)


def test_stream_longer_than_the_trajectory_matches_the_reference():
    # more requests than steps: at most T lanes are in flight, and a lane's
    # slot passes to the request T places later, wrapping around
    from oracles import reference_stream

    data, hist = train_problem(n=200, p=4, T=7)
    cfg = DeltaGradConfig(period=2, burn_in=2, history_size=2, mode="gd")
    rng = np.random.default_rng(8)
    reqs = [ChangeSet.delete([i]) if i % 3 else ChangeSet.add(rng.uniform(-1, 1, size=data.p),
                                                              [1.0])
            for i in range(1, 19)] + [ChangeSet.delete([data.n + 2])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # 19 rows of 200: above the hint
        out = unlearn_online(data, hist, reqs, cfg)
    params, grads, trace, counters = reference_stream(data, hist, reqs, cfg)
    assert out.mode_trace == trace
    for key in engine_mod._COUNTERS:
        assert out.diagnostics[key] == counters[key], key
    np.testing.assert_allclose(out.updated_history.params, params, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out.updated_history.gradients, grads, rtol=1e-12, atol=1e-14)
    assert [rec["index"] for rec in out.diagnostics["requests"]][-2:] == [data.n + 5, data.n + 2]


def test_stream_request_seconds_sum_to_the_engine_time():
    # a stream request's seconds are its set-up plus its even share of every
    # wave it ran in; they add up to the engine's time, as one request's do
    data, hist = train_problem(n=300, p=5, T=40)
    rows = np.random.default_rng(3).normal(size=(2, data.p))
    reqs = [ChangeSet.delete([3]), ChangeSet.add(rows[0], [1.0]), ChangeSet.delete([9]),
            ChangeSet.add(rows[1], [-1.0]), ChangeSet.delete([data.n + 1])]
    for out in (unlearn_online(data, hist, reqs, GD),
                unlearn_online(data, hist, reqs[:1], GD),
                unlearn_batch_gd(data, hist, ChangeSet.delete([3, 4]), GD, with_baseline=True)):
        seconds = [rec["seconds"] for rec in out.diagnostics["requests"]]
        assert all(sec > 0 for sec in seconds)
        assert sum(seconds) == pytest.approx(out.timings["deltagrad_s"], rel=1e-12)


@pytest.fixture
def core_calls(monkeypatch):
    """Records every call of the correction loop."""
    calls = []
    core = engine_mod._run_gd_core
    monkeypatch.setattr(engine_mod, "_run_gd_core",
                        lambda *a, **k: calls.append(1) or core(*a, **k))
    return calls


def test_online_rejects_repeated_delete(core_calls):
    data, hist = train_problem(T=30)
    reqs = [ChangeSet.delete([5]), ChangeSet.delete([7]), ChangeSet.delete([5])]
    with pytest.raises(ChangeSetError, match="request 2"):
        unlearn_online(data, hist, reqs, GD)
    assert core_calls == []


@pytest.mark.parametrize("idx", [-1, 601])
def test_online_rejects_out_of_range_delete(idx, core_calls):
    data, hist = train_problem(T=30)
    # n = 600, so after one addition the valid ids are 0..600
    row = np.full(data.p, 0.1)
    reqs = [ChangeSet.delete([0]), ChangeSet.add(row, [1.0]), ChangeSet.delete([idx])]
    with pytest.raises(ChangeSetError, match="request 2"):
        unlearn_online(data, hist, reqs, GD)
    assert core_calls == []


def test_online_delete_of_added_row_matches_retrain():
    data, hist = train_problem(n=400, p=5, T=60)
    rng = np.random.default_rng(14)
    rows = rng.normal(size=(2, data.p))
    labels = [1.0, -1.0]
    reqs = [ChangeSet.delete([3]), ChangeSet.add(rows[0], [labels[0]]),
            ChangeSet.add(rows[1], [labels[1]]), ChangeSet.delete([data.n]),
            ChangeSet.delete([11])]
    out = unlearn_online(data, hist, reqs, GD)
    # final sample set: originals minus {3, 11}, then the second added row
    keep = np.setdiff1d(np.arange(data.n), [3, 11])
    final = Dataset(np.vstack([data.features[keep], rows[1:]]),
                    np.concatenate([data.labels[keep], labels[1:]]))
    cfg = TrainConfig(loss=hist.config.loss, iterations=hist.iterations,
                      batch_size=final.n, eta_schedule=hist.config.eta_schedule,
                      seed=hist.config.seed)
    w_ref = train_gd(final, cfg).params[-1]
    ratio = np.linalg.norm(out.w_final - w_ref) / np.linalg.norm(w_ref - hist.params[-1])
    assert ratio <= 0.2


def test_online_baseline_rejects_additions_before_any_work(core_calls):
    data, hist = train_problem(T=30)
    reqs = [ChangeSet.delete([4]), ChangeSet.add(np.full(data.p, 0.1), [1.0])]
    with pytest.raises(ValueError, match="pure deletion"):
        unlearn_online(data, hist, reqs, GD, with_baseline=True)
    assert core_calls == []


def test_online_rejects_non_pm1_added_label_before_any_work(core_calls):
    data, hist = train_problem(T=30)
    reqs = [ChangeSet.delete([1]), ChangeSet.delete([2]),
            ChangeSet.add(np.full(data.p, 0.1), [0.0])]
    with pytest.raises(ChangeSetError, match="request 2"):
        unlearn_online(data, hist, reqs, GD)
    assert core_calls == []


def test_added_label_is_checked_before_any_work(core_calls):
    # the batch engines and the oracle share the online stream's validator
    data, hist = train_problem(T=30)
    change = ChangeSet.add(np.full(data.p, 0.1), [0.0])
    with pytest.raises(ChangeSetError, match="request 0"):
        relearn_batch_gd(data, hist, change, GD)
    with pytest.raises(ChangeSetError, match="request 0"):
        baseline_retrain(data, hist, change)
    assert core_calls == []


@pytest.mark.parametrize("bad", ["nan-feature", "inf-label", "3-d-features"])
def test_bad_added_row_is_rejected_before_any_work(bad, core_calls):
    # ridge, whose label check lets any float through
    X = generate_synthetic(SyntheticSpec(n=600, p=8, seed=0)).features
    data = Dataset(X, X @ np.ones(X.shape[1]))
    hist = train_gd(data, TrainConfig(loss=LossConfig("ridge", 0.01), iterations=30,
                                      batch_size=data.n, eta_schedule=((0, 0.1),)))
    row, label = np.full(data.p, 0.1), [1.0]
    if bad == "nan-feature":
        row[2] = np.nan
    elif bad == "inf-label":
        label = [np.inf]
    else:
        row = row.reshape(1, data.p, 1)
    reqs = [ChangeSet.delete([0]), ChangeSet.add(row, label)]
    with pytest.raises(ChangeSetError, match="request 1"):
        unlearn_online(data, hist, reqs, GD)
    assert core_calls == []


BAD_REQUESTS = ("inactive", "deleted-twice", "wrong-width", "3-d-features",
                "label", "non-finite-feature", "non-finite-label")


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    bad=st.sampled_from(BAD_REQUESTS),
    seed=st.integers(0, 2**16),
    data_st=st.data(),
)
def test_stream_with_one_bad_request_fails_whole(kind, bad, seed, data_st):
    # a valid mixed stream with one bad request at position k: the validator
    # names request k before any work, the input history is unchanged, and
    # no RuntimeWarning (from arithmetic on the bad values) is emitted
    rng = np.random.default_rng(seed)
    n, p = 30, 3
    data = generate_synthetic(SyntheticSpec(n=n, p=p, noise=0.05, seed=seed))
    if kind == "ridge":
        data = Dataset(data.features, rng.normal(size=n))
    hist = train_gd(data, TrainConfig(loss=LossConfig(kind, 0.01), iterations=15,
                                      batch_size=n, eta_schedule=((0, 0.1),), seed=seed))
    params, grads = hist.params.copy(), hist.gradients.copy()

    def good_label():
        return float(rng.choice([-1.0, 1.0])) if kind == "logistic" else float(rng.normal())

    active, deleted, total = list(range(n)), [], n
    requests = []
    for _ in range(data_st.draw(st.integers(0, 6))):
        if data_st.draw(st.booleans()):
            requests.append(ChangeSet.add(rng.uniform(-1, 1, size=p), [good_label()]))
            active.append(total)
            total += 1
        else:
            gone = data_st.draw(st.sampled_from(active))
            requests.append(ChangeSet.delete([gone]))
            active.remove(gone)
            deleted.append(gone)
    k = len(requests)
    row, label = rng.uniform(-1, 1, size=p), [good_label()]
    if bad == "inactive":
        requests.append(ChangeSet.delete([data_st.draw(st.sampled_from([-1, total, total + 5]))]))
    elif bad == "deleted-twice" and deleted:
        requests.append(ChangeSet.delete([data_st.draw(st.sampled_from(deleted))]))
    elif bad == "deleted-twice":
        requests.append(ChangeSet.delete([total]))
    elif bad == "wrong-width":
        requests.append(ChangeSet.add(rng.uniform(-1, 1, size=data_st.draw(
            st.sampled_from([p - 1, p + 1]))), label))
    elif bad == "3-d-features":
        requests.append(ChangeSet.add(row.reshape(1, p, 1), label))
    elif bad == "label" and kind == "logistic":
        requests.append(ChangeSet.add(row, [data_st.draw(st.sampled_from([0.0, 0.5, 2.0]))]))
    elif bad in ("label", "non-finite-label"):
        requests.append(ChangeSet.add(row, [data_st.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))]))
    else:
        row[data_st.draw(st.integers(0, p - 1))] = data_st.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        requests.append(ChangeSet.add(row, label))
    for _ in range(data_st.draw(st.integers(0, 3))):
        requests.append(ChangeSet.delete([data_st.draw(st.sampled_from(active))]))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ChangeSetError, match=rf"^request {k}:"):
            unlearn_online(data, hist, requests, GD)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.array_equal(hist.params, params) and np.array_equal(hist.gradients, grads)


def test_online_rejects_multi_sample_request():
    data, hist = train_problem(T=30)
    with pytest.raises(ChangeSetError):
        unlearn_online(data, hist, [ChangeSet.delete([1, 2])], GD)


@pytest.mark.parametrize("engine", ["unlearn_batch_gd", "relearn_batch_gd", "unlearn_general",
                                    "unlearn_batch_sgd", "unlearn_online"])
def test_online_history_is_replayable_cache(engine):
    # every engine returns its corrected trajectory as a cache that chains:
    # w_{t+1} = w_t - eta * stored_gradient_t, where a skipped minibatch
    # stores a zero gradient and so keeps the iterate
    data, hist = train_problem(n=400, p=5, T=40,
                               batch=4 if engine == "unlearn_batch_sgd" else None)
    ids = [3, 77, 200]
    if engine == "unlearn_batch_gd":
        out = unlearn_batch_gd(data, hist, ChangeSet.delete(ids), GD)
    elif engine == "relearn_batch_gd":
        out = relearn_batch_gd(data, hist, ChangeSet.add(data.features[ids], data.labels[ids]), GD)
    elif engine == "unlearn_general":
        out = unlearn_general(data, hist, ChangeSet.delete(ids), GEN)
    elif engine == "unlearn_batch_sgd":
        out = unlearn_batch_sgd(data, hist, ChangeSet.delete(hist.batches()[0]), SGD)
        assert out.mode_trace[0] == "skipped-empty-batch"
    else:
        out = unlearn_online(data, hist, [ChangeSet.delete([i]) for i in ids], GD)
    upd = out.updated_history
    assert np.array_equal(upd.params[-1], out.w_final)
    for t in range(upd.iterations):
        step = upd.params[t] - hist.config.eta_at(t) * upd.gradients[t]
        np.testing.assert_allclose(step, upd.params[t + 1], atol=1e-12)


def test_online_stream_warns_about_its_cumulative_change():
    # 100 single-row deletions touch 10% of n = 1000 rows, each under 5%
    data, hist = train_problem(n=1000, p=5, T=30)
    ids = np.random.default_rng(15).choice(data.n, size=100, replace=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unlearn_online(data, hist, [ChangeSet.delete([i]) for i in ids], GD)
    assert [str(w.message).split(";")[0] for w in caught] == ["requests 0..50 touch 51/1000 samples"]
    assert "small fraction" in str(caught[0].message)
    # a single request warns as before, once, about itself
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unlearn_batch_gd(data, hist, ChangeSet.delete(ids[:60]), GD)
    assert [str(w.message).split(";")[0] for w in caught] == ["request 0 touches 60/1000 samples"]


def test_changed_rows_are_gathered_once_per_request(monkeypatch):
    # the change term holds its rows, so the rows a request gathers do not
    # grow with the number of iterations
    gathers = []
    subset = models_mod.Dataset.subset
    monkeypatch.setattr(models_mod.Dataset, "subset",
                        lambda d, ids: gathers.append(len(ids)) or subset(d, ids))
    counts = []
    for T in (20, 40):
        data, hist = train_problem(n=300, p=5, T=T)
        gathers.clear()
        ids = [3, 77, 200]
        unlearn_batch_gd(data, hist, ChangeSet.delete(ids), GD)
        relearn_batch_gd(data, hist, ChangeSet.add(data.features[ids], data.labels[ids]), GD)
        unlearn_general(data, hist, ChangeSet.delete(ids), GEN)
        unlearn_online(data, hist, [ChangeSet.delete([5]), ChangeSet.add(data.features[9], [1.0]),
                                    ChangeSet.delete([data.n])], GD)
        counts.append(len(gathers))
    # 6 requests, each gathering its deleted rows and the rows deleted before it
    assert 0 < counts[0] == counts[1] <= 2 * 6


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    n=st.integers(10, 60),
    p=st.integers(1, 5),
    T=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    data_st=st.data(),
)
def test_online_mixed_stream_with_period_one_equals_retrain(kind, n, p, T, seed, data_st):
    # every iteration explicit: each request rewrites the trajectory exactly,
    # so a stream of adds and deletes (also of added rows) is plain GD on
    # the sample set it leaves
    rng = np.random.default_rng(seed)
    data = generate_synthetic(SyntheticSpec(n=n, p=p, noise=0.05, seed=seed))
    if kind == "ridge":
        data = Dataset(data.features, rng.normal(size=n))
    loss_cfg = LossConfig(kind, 0.01)
    # added rows lie in [-1, 1]^p, so 1/eta bounds the smoothness of every sample set
    row_sq = max(float(np.einsum("ij,ij->i", data.features, data.features).max()), p)
    cfg = TrainConfig(loss=loss_cfg, iterations=T, batch_size=n,
                      eta_schedule=((0, 1.0 / (row_sq + loss_cfg.l2)),), seed=seed)
    hist = train_gd(data, cfg)
    rows, labels = list(data.features), list(data.labels)
    active = list(range(n))
    requests = []
    for _ in range(data_st.draw(st.integers(1, 8))):
        if data_st.draw(st.booleans()):
            row = rng.uniform(-1.0, 1.0, size=p)
            label = float(rng.choice([-1.0, 1.0])) if kind == "logistic" else rng.normal()
            requests.append(ChangeSet.add(row, [label]))
            active.append(len(rows))
            rows.append(row)
            labels.append(label)
        else:
            gone = data_st.draw(st.sampled_from(active))
            requests.append(ChangeSet.delete([gone]))
            active.remove(gone)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # r/n above the small-change hint
        out = unlearn_online(data, hist, requests,
                             DeltaGradConfig(period=1, burn_in=2, history_size=2, mode="gd"))
    final = Dataset(np.asarray(rows)[active], np.asarray(labels)[active])
    w_ref = train_gd(final, dataclasses.replace(cfg, batch_size=final.n)).params[-1]
    assert np.linalg.norm(out.w_final - w_ref) <= 1e-12 * (1 + np.linalg.norm(w_ref))


# ---------------------------------------------------------------- general

def test_general_matches_gd_when_guards_silent():
    data, hist = train_problem(T=70)
    change = ChangeSet.delete([2, 11, 400])
    out_gd = unlearn_batch_gd(data, hist, change, GD)
    out_gen = unlearn_general(data, hist, change, GEN)
    assert out_gen.diagnostics["convexity_guard_events"] == 0
    assert out_gen.diagnostics["smoothness_guard_events"] == 0
    assert np.array_equal(out_gd.w_final, out_gen.w_final)


class WavyObjective(Objective):
    """1-D per-sample loss (w - y_i)^2/2 + a*cos(b*w): convex on average only
    where 1 - a*b^2*cos(b*w) > 0, with genuinely concave stretches."""

    def __init__(self, data, a=0.8, b=2.0):
        super().__init__(LossConfig("ridge", 0.0), data)
        self.a = a
        self.b = b

    def data_grad_sum(self, w, indices=None):
        idx = np.arange(self.data.n) if indices is None else np.asarray(indices, int)
        if idx.size == 0:
            return np.zeros(1)
        y = self.data.labels[idx]
        return np.asarray([np.sum(w[0] - y) - idx.size * self.a * self.b * np.sin(self.b * w[0])])


def wavy_problem(T=60):
    rng = np.random.default_rng(12)
    y = rng.normal(size=40) * 2.0
    data = Dataset(np.ones((40, 1)), y)
    obj = WavyObjective(data)
    cfg = TrainConfig(loss=LossConfig("ridge", 0.0), iterations=T, batch_size=40,
                      eta_schedule=((0, 0.25),))
    hist = train_gd(data, cfg, objective=obj, w0=np.asarray([0.4]))
    return data, obj, hist


def test_general_convexity_guard_fires_and_finishes():
    data, obj, hist = wavy_problem()
    rng = np.random.default_rng(13)
    change = ChangeSet.delete(rng.choice(40, size=2, replace=False))
    cfg = DeltaGradConfig(period=3, burn_in=4, history_size=2, mode="general")
    out = unlearn_general(data, hist, change, cfg, objective=obj)
    assert out.diagnostics["convexity_guard_events"] >= 1
    assert np.isfinite(out.w_final).all()


def test_custom_objective_supplies_the_change_gradient():
    # with period 1 the guarded engine is exact, so it equals training the
    # custom objective on the 38 remaining rows only if the two deleted rows
    # are also evaluated through WavyObjective.data_grad_sum
    data, obj, hist = wavy_problem()
    ids = [4, 29]
    cfg = DeltaGradConfig(period=1, burn_in=4, history_size=2, mode="general")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # r/n above the small-change hint
        out = unlearn_general(data, hist, ChangeSet.delete(ids), cfg, objective=obj)
    rest = data.subset(np.setdiff1d(np.arange(data.n), ids))
    train_cfg = dataclasses.replace(hist.config, batch_size=rest.n)
    w_ref = train_gd(rest, train_cfg, objective=WavyObjective(rest), w0=hist.params[0]).params[-1]
    assert np.linalg.norm(out.w_final - w_ref) <= 1e-12 * (1 + np.linalg.norm(w_ref))
    w_plain = train_gd(rest, train_cfg, w0=hist.params[0]).params[-1]
    assert np.linalg.norm(w_plain - w_ref) > 1e-3


def test_general_all_explicit_equals_baseline():
    data, hist = train_problem(n=500, p=6, T=60)
    rng = np.random.default_rng(14)
    change = ChangeSet.delete(rng.choice(data.n, size=5, replace=False))
    cfg = DeltaGradConfig(period=1, burn_in=10, history_size=2, mode="general")
    out = unlearn_general(data, hist, change, cfg)
    w_u = baseline_retrain(data, hist, change)
    # identical mathematics, different summation grouping: float-level equal
    assert np.linalg.norm(out.w_final - w_u) <= 1e-12 * (1 + np.linalg.norm(w_u))
    assert out.mode_trace.count("approximated") == 0


def test_general_accepts_unregularized_loss():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(200, 4))
    y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    data = Dataset(X, y)
    cfg_train = TrainConfig(loss=LossConfig("logistic", 0.0), iterations=40,
                            batch_size=200, eta_schedule=((0, 0.3),))
    hist = train_gd(data, cfg_train)
    out = unlearn_general(data, hist, ChangeSet.delete([0]), GEN)
    assert np.isfinite(out.w_final).all()
    with pytest.raises(ValueError):
        unlearn_batch_gd(data, hist, ChangeSet.delete([0]), GD)


# ---------------------------------------------------------------- schedule

def test_benchmark_gradient_counts():
    data, hist = train_problem(n=300, p=4, T=110)
    out = unlearn_batch_gd(data, hist, ChangeSet.delete([5]), GD, with_baseline=True)
    assert out.diagnostics["scheduled_full_gradient_evals"] == 30      # 10 + ceil(100/5)
    assert expected_full_gradient_evals(hist.iterations, GD.burn_in, GD.period) == 30
    assert out.diagnostics["full_gradient_evals"] == 30
    assert hist.iterations == 110                 # the baseline takes one full gradient a step
    assert out.timings["speedup"] > 0


@settings(max_examples=40, deadline=None)
@given(T=st.integers(1, 60), burn_in=st.integers(2, 30), period=st.integers(1, 12),
       online=st.booleans())
def test_explicit_steps_follow_the_schedule(T, burn_in, period, online):
    # the explicit steps sit exactly where the schedule puts them, for the
    # batch engine and a one-request stream
    data, hist = train_problem(n=120, p=4, T=T)
    cfg = DeltaGradConfig(period=period, burn_in=burn_in, history_size=2, mode="gd")
    change = ChangeSet.delete([3])
    out = (unlearn_online(data, hist, [change], cfg) if online
           else unlearn_batch_gd(data, hist, change, cfg))
    explicit = [t for t, label in enumerate(out.mode_trace) if label == "explicit"]
    assert explicit == [t for t in range(T) if t <= burn_in or (t - burn_in) % period == 0]
    assert out.diagnostics["full_gradient_evals"] == expected_full_gradient_evals(
        T, burn_in, period) + out.mode_trace.count("fallback")


def test_expected_evals_closed_form():
    for T, j0, T0 in ((110, 10, 5), (300, 10, 5), (57, 9, 7), (40, 10, 1)):
        direct = sum(
            1 for t in range(T) if t <= j0 or (t - j0) % T0 == 0
        )
        assert expected_full_gradient_evals(T, j0, T0) == direct
        assert direct == j0 + int(np.ceil((T - j0) / T0))


# ------------------------------------------------- naive transcription oracle

def test_gd_engine_matches_naive_transcription():
    # re-derive the whole corrected trajectory with a deliberately naive
    # loop over public gradient calls and the dense recursive quasi-Hessian;
    # the engine (compact products, fused sums) must agree step by step
    from deltagrad import CurvaturePairBuffer, full_gradient
    from oracles import recursive_B_apply, subset_gradient_sum

    data, hist = train_problem(n=300, p=5, T=40, l2=0.02, eta=0.2, seed=21)
    R = np.asarray([7, 40, 182])
    cfg = DeltaGradConfig(period=4, burn_in=6, history_size=2, mode="gd")
    out = unlearn_batch_gd(data, hist, ChangeSet.delete(R), cfg)

    loss_cfg = hist.config.loss
    n, r = data.n, R.size
    buf = CurvaturePairBuffer(cfg.history_size)
    iw = hist.params[0].copy()
    naive = [iw.copy()]
    for t in range(hist.iterations):
        eta = hist.config.eta_at(t)
        explicit = t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0
        v = iw - hist.params[t]
        if explicit:
            g = full_gradient(loss_cfg, data, iw)
            buf.append_pair(v, g - hist.gradients[t])
            step = (n * g - subset_gradient_sum(loss_cfg, data, iw, R)) / (n - r)
        else:
            Bv = recursive_B_apply(buf, v)
            approx = n * (Bv + hist.gradients[t])
            step = (approx - subset_gradient_sum(loss_cfg, data, iw, R)) / (n - r)
        iw = iw - eta * step
        naive.append(iw.copy())

    gap = np.max(np.abs(out.updated_history.params - np.asarray(naive)))
    assert gap <= 1e-11


def test_sgd_engine_matches_naive_transcription():
    from deltagrad import CurvaturePairBuffer, full_gradient
    from oracles import recursive_B_apply, subset_gradient_sum

    data, hist = train_problem(n=300, p=5, T=40, l2=0.02, eta=0.2, seed=22, batch=64)
    R = np.asarray([3, 44, 260])
    removed = np.zeros(data.n, bool)
    removed[R] = True
    cfg = DeltaGradConfig(period=4, burn_in=6, history_size=2, mode="sgd")
    out = unlearn_batch_sgd(data, hist, ChangeSet.delete(R), cfg)

    loss_cfg = hist.config.loss
    buf = CurvaturePairBuffer(cfg.history_size)
    iw = hist.params[0].copy()
    naive = [iw.copy()]
    for t, batch in enumerate(hist.batches()):
        eta = hist.config.eta_at(t)
        B_t = batch.size
        hit = batch[removed[batch]]
        if B_t == hit.size:
            naive.append(iw.copy())
            continue
        explicit = t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0
        v = iw - hist.params[t]
        if explicit:
            g = full_gradient(loss_cfg, data.subset(batch), iw)
            buf.append_pair(v, g - hist.gradients[t])
            step = (B_t * g - subset_gradient_sum(loss_cfg, data, iw, hit)) / (B_t - hit.size)
        else:
            Bv = recursive_B_apply(buf, v)
            approx = B_t * (Bv + hist.gradients[t])
            step = (approx - subset_gradient_sum(loss_cfg, data, iw, hit)) / (B_t - hit.size)
        iw = iw - eta * step
        naive.append(iw.copy())

    gap = np.max(np.abs(out.updated_history.params - np.asarray(naive)))
    assert gap <= 1e-11


def test_engines_do_not_mutate_inputs():
    data, hist = train_problem(n=200, p=4, T=30)
    params_before = hist.params.copy()
    grads_before = hist.gradients.copy()
    feats_before = data.features.copy()
    unlearn_batch_gd(data, hist, ChangeSet.delete([1, 5]), GD, with_baseline=True)
    unlearn_online(data, hist, [ChangeSet.delete([9])], GD)
    assert np.array_equal(hist.params, params_before)
    assert np.array_equal(hist.gradients, grads_before)
    assert np.array_equal(data.features, feats_before)


# ------------------------------------------------ fused step vs reference loop

FUSED_ENGINES = ("gd", "add", "sgd", "general", "online")


def fused_requests(name, data, hist, ids, rng):
    """The entry point for engine `name`, its request list over the rows
    `ids` (added rows drawn from rng; online alternates deletions and
    additions) and what `reference_stream` needs to know of the engine."""
    p = data.p
    labels = (lambda size: rng.choice([-1.0, 1.0], size=size)) \
        if hist.config.loss.kind == "logistic" else (lambda size: rng.normal(size=size))
    if name == "add":
        return relearn_batch_gd, [ChangeSet.add(
            rng.uniform(-1.0, 1.0, size=(len(ids), p)), labels(len(ids)))], {}
    if name == "online":
        return unlearn_online, [
            ChangeSet.delete([i]) if j % 2 == 0
            else ChangeSet.add(rng.uniform(-1.0, 1.0, size=p), labels(1))
            for j, i in enumerate(ids)], {}
    engine = {"gd": unlearn_batch_gd, "sgd": unlearn_batch_sgd, "general": unlearn_general}[name]
    return engine, [ChangeSet.delete(ids)], {"sgd": {"minibatch": True},
                                             "general": {"guards": True}}.get(name, {})


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    name=st.sampled_from(FUSED_ENGINES),
    n=st.integers(20, 60),
    p=st.integers(1, 6),
    T=st.integers(1, 40),
    period=st.integers(1, 6),
    burn_in=st.integers(2, 10),
    seed=st.integers(0, 2**16),
    data_st=st.data(),
)
def test_fused_step_matches_the_reference_loop(kind, name, n, p, T, period, burn_in, seed,
                                               data_st):
    # every engine, and a stream of requests run as a wavefront, against the
    # loop that runs the requests one by one and writes the approximate step
    # out term by term (tests/oracles.py): the same modes and counters,
    # iterates and step gradients equal to roundoff, and r = 0 bit for bit
    from unittest import mock

    from deltagrad import lbfgs
    from oracles import reference_stream, schur_complement

    rng = np.random.default_rng(seed)
    data = generate_synthetic(SyntheticSpec(n=n, p=p, noise=0.05, seed=seed))
    if kind == "ridge":
        data = Dataset(data.features, rng.normal(size=n))
    loss_cfg = LossConfig(kind, 0.0 if name == "general" and seed % 3 == 0 else 0.01)
    eta = 1.0 / (smoothness_bound(loss_cfg, data) + loss_cfg.l2)
    batch = data_st.draw(st.integers(3, n - 1)) if name == "sgd" else n
    train_cfg = TrainConfig(loss=loss_cfg, iterations=T, batch_size=batch,
                            eta_schedule=((0, eta),), seed=seed)
    hist = train_sgd(data, train_cfg) if name == "sgd" else train_gd(data, train_cfg)
    cfg = DeltaGradConfig(period=period, burn_in=burn_in, history_size=2,
                          mode={"sgd": "sgd", "general": "general"}.get(name, "gd"))
    ids = data_st.draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    engine, requests, setting = fused_requests(name, data, hist, ids, np.random.default_rng(seed))

    # the condition of every factorization the fused run builds (a stream
    # in its lanes, one request in its buffer), as the factorization oracle
    # test measures it
    conditions = [1.0]

    def measure(dws, dgs):
        gram_cond = max(float(np.abs(s) @ np.abs(y) / (s @ y)) for s, y in zip(dws, dgs))
        conditions.append(np.linalg.cond(schur_complement(dws, dgs)) * gram_cond)

    build, factorization = lbfgs.PairLanes.build, lbfgs.CurvaturePairBuffer.factorization

    def measured_build(lanes, slots, m):
        for dws, dgs in zip(lanes.W[slots, :m], lanes.G[slots, :m]):
            measure(dws, dgs)
        return build(lanes, slots, m)

    def measured_factorization(buf):
        measure(buf._W[:len(buf)], buf._G[:len(buf)])
        return factorization(buf)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # r/n above the small-change hint
        with mock.patch.object(lbfgs.PairLanes, "build", measured_build), \
                mock.patch.object(lbfgs.CurvaturePairBuffer, "factorization",
                                  measured_factorization):
            out = engine(data, hist, requests if name == "online" else requests[0], cfg)
        params, grads, trace, counters = reference_stream(data, hist, requests, cfg, **setting)

    assert out.mode_trace == trace
    for key in engine_mod._COUNTERS:
        assert out.diagnostics[key] == counters.get(key, 0), key
    if not ids:
        assert out.updated_history.params.tobytes() == hist.params.tobytes()
        assert out.updated_history.params.tobytes() == params.tobytes()
        assert out.updated_history.gradients.tobytes() == grads.tobytes()
        return
    # per step, roundoff of the stacked product (2m + 4 terms) and of the
    # factorization (the oracle test's 8 (m + p) eps cond_C gram_cond); it
    # can add up over the T steps. A stream also sums each explicit
    # gradient's n rows in another order (matrix products over the requests
    # in flight, the rows ahead of a request added one by one): n more terms
    terms = cfg.history_size + p + (n if len(requests) > 1 else 0)
    tol = 8 * terms * np.finfo(float).eps * max(conditions) * T
    for field, want in (("params", params), ("gradients", grads)):
        got = getattr(out.updated_history, field)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), field


# ------------------------------------------------------------ operation counts

def test_online_request_operation_counts(monkeypatch):
    # the kernel calls and fresh factorizations of an online stream, which
    # runs as a wavefront (wave s runs step s - k of request k): a wave with
    # explicit steps makes one kernel call for all of them, over the rows of
    # the oldest request in flight (the change rows cost none); a wave of
    # approximate steps makes none, and builds in one call the fresh
    # factorizations its lanes need, one per lane after each explicit step
    # that added a pair past the burn-in
    from deltagrad import lbfgs

    T, cfg = 62, GD
    data, hist = train_problem(n=400, p=5, T=T)
    kernel, builds = [], []
    gradient_sum = models_mod.gradient_sum
    monkeypatch.setattr(models_mod, "gradient_sum",
                        lambda *a: kernel.append((a[1].n, np.ndim(a[2]))) or gradient_sum(*a))
    build = lbfgs.PairLanes.build
    monkeypatch.setattr(lbfgs.PairLanes, "build",
                        lambda lanes, slots, m: builds.append(len(slots)) or build(lanes, slots, m))
    rows = np.random.default_rng(16).normal(size=(2, data.p))
    reqs = [ChangeSet.delete([3]), ChangeSet.add(rows[0], [1.0]), ChangeSet.delete([50]),
            ChangeSet.add(rows[1], [-1.0]), ChangeSet.delete([data.n])]
    out = unlearn_online(data, hist, reqs, cfg)
    explicit = expected_full_gradient_evals(T, cfg.burn_in, cfg.period)     # 11 + 10
    assert out.diagnostics["full_gradient_evals"] == len(reqs) * explicit

    def scheduled(t):
        return 0 <= t < T and (t <= cfg.burn_in or (t - cfg.burn_in) % cfg.period == 0)

    waves = [[k for k in range(len(reqs)) if scheduled(s - k)] for s in range(T + len(reqs) - 1)]
    assert len(kernel) == sum(1 for lanes in waves if lanes)
    assert [ndim for _, ndim in kernel] == [2 if len(lanes) > 1 else 1 for lanes in waves if lanes]
    # the rows of the oldest request in flight: n until request 0 ends,
    # then n - 1 (it deleted row 3), n (request 1 added a row), n - 1
    oldest = [max(0, s - T + 1) for s, lanes in enumerate(waves) if lanes]
    assert set(oldest) == {0, 1, 2, 3}
    assert [rows for rows, _ in kernel] == [data.n + (0, -1, 0, -1)[k] for k in oldest]
    # the burn-in's pairs, then one per later explicit step, in at most one
    # build per wave
    assert sum(builds) == len(reqs) * (1 + explicit - cfg.burn_in - 1)
    assert len(builds) <= T + len(reqs) - 1


def test_batched_build_matches_one_buffer_per_lane(monkeypatch):
    # one build serves every lane that needs a factorization: lanes of
    # different pair counts get what a buffer of their own pairs builds,
    # and a lane whose Schur complement is not SPD fails alone
    from deltagrad import lbfgs

    data, hist = train_problem(n=50, p=4, T=10)
    lanes = [engine_mod._Lane(sign=-1.0, n=data.n) for _ in range(3)]
    waves = engine_mod._Wavefront(Objective(hist.config.loss, data), hist.params.copy(),
                                  hist.gradients.copy(), [0.1] * 10, GD, lanes)
    waves.C1[:] = 0.5
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    H = A @ A.T + np.eye(4)
    for j, m in enumerate((2, 1, 2)):
        for _ in range(m):
            dw = rng.normal(size=(1, 4))
            assert waves.pairs.insert(np.array([j]), dw, dw @ H).all()
    waves.build(np.arange(3))
    for j in range(3):
        buf = CurvaturePairBuffer(2)
        for dw, dg in zip(waves.pairs.W[j, :waves.pairs.count[j]],
                          waves.pairs.G[j, :waves.pairs.count[j]]):
            buf.append_pair(dw, dg)
        fact, m2 = buf.factorization(), 2 * len(buf)
        assert not waves.stale[j]
        assert waves.COEF[j, 0] == pytest.approx(0.5 * fact.sigma, rel=1e-12)
        np.testing.assert_allclose(waves.KC[j, :m2], -0.5 * fact.Kt, rtol=1e-12)
        np.testing.assert_allclose(waves.Z[j, 1:1 + m2], fact.MinvKt, rtol=1e-9, atol=1e-12)
        assert not waves.KC[j, m2:waves.k].any() and not waves.Z[j, 1 + m2:1 + waves.k].any()

    real = lbfgs._linalg_factors

    def second_fails(grams, sigma):
        F, failed = real(grams, sigma)
        failed[1] = 0
        return F, failed

    monkeypatch.setattr(lbfgs, "_linalg_factors", second_fails)
    dw = rng.normal(size=(3, 4))
    waves.stale[waves.pairs.insert(np.arange(3), dw, dw @ H)] = True
    waves.build(np.arange(3))
    assert waves.stale.tolist() == [False, True, False]


# ------------------------------------------------------------ request checks

def test_stream_that_would_empty_the_dataset_fails_before_any_work(core_calls):
    data = Dataset([[1.0, 0.5], [0.2, -1.0], [-0.3, 0.8]], [1.0, -1.0, 1.0])
    cfg = TrainConfig(loss=LossConfig("logistic", 0.1), iterations=20, batch_size=3,
                      eta_schedule=((0, 0.5),))
    hist = train_gd(data, cfg)
    small = DeltaGradConfig(period=2, burn_in=2, history_size=2, mode="gd")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # r/n above the small-change hint
        with pytest.raises(ChangeSetError, match="^request 2: cannot delete every remaining"):
            unlearn_online(data, hist, [ChangeSet.delete([i]) for i in (0, 1, 2)], small)
        with pytest.raises(ChangeSetError, match="^request 0: cannot delete every remaining"):
            unlearn_batch_gd(data, hist, ChangeSet.delete([0, 1, 2]), small)
        with pytest.raises(ChangeSetError, match="^request 0: cannot delete every remaining"):
            baseline_retrain(data, hist, ChangeSet.delete([2, 0, 1]))
        assert core_calls == []
        # an addition first leaves one row after three deletions
        row = ChangeSet.add([0.1, 0.1], [1.0])
        out = unlearn_online(data, hist, [row] + [ChangeSet.delete([i]) for i in (0, 1, 2)],
                             small)
    assert len(core_calls) == 1             # the four requests run as one wavefront
    assert len(out.diagnostics["requests"]) == 4
