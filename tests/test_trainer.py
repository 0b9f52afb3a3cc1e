import warnings

import numpy as np
import pytest

from deltagrad import (
    Dataset,
    DivergenceError,
    LossConfig,
    SyntheticSpec,
    TrainConfig,
    derive_schedule,
    full_gradient,
    load_cache,
    loss,
    save_cache,
    train_gd,
    train_sgd,
)
from deltagrad.models import Objective
from oracles import ridge_solution


def make_cfg(kind, l2, n, T, eta, batch=None, seed=0):
    return TrainConfig(
        loss=LossConfig(kind, l2),
        iterations=T,
        batch_size=n if batch is None else batch,
        eta_schedule=((0, eta),),
        seed=seed,
    )


def test_one_step_ridge_solves_quadratic():
    data = Dataset([[1.0]], [1.0])
    hist = train_gd(data, make_cfg("ridge", 0.0, 1, 1, 1.0))
    assert hist.params[1] == pytest.approx([1.0])
    assert hist.gradients[0] == pytest.approx([-1.0])


def test_zero_iterations():
    data = Dataset([[1.0, 2.0]], [1.0])
    hist = train_gd(data, make_cfg("ridge", 0.0, 1, 0, 0.3))
    assert hist.params.shape == (1, 2)
    assert hist.gradients.shape == (0, 2)


def test_gd_descends(logistic_data):
    cfg = make_cfg("logistic", 0.01, logistic_data.n, 80, 0.2)
    hist = train_gd(logistic_data, cfg)
    g0 = np.linalg.norm(full_gradient(cfg.loss, logistic_data, hist.params[0]))
    gT = np.linalg.norm(full_gradient(cfg.loss, logistic_data, hist.params[-1]))
    assert gT < g0


def test_sgd_with_full_batch_equals_gd(logistic_data):
    cfg = make_cfg("logistic", 0.01, logistic_data.n, 40, 0.2)
    gd = train_gd(logistic_data, cfg)
    sgd = train_sgd(logistic_data, cfg)
    assert np.array_equal(gd.params, sgd.params)
    assert np.array_equal(gd.gradients, sgd.gradients)


def test_training_is_deterministic(logistic_data):
    cfg = make_cfg("logistic", 0.01, logistic_data.n, 30, 0.1, batch=32, seed=7)
    a = train_sgd(logistic_data, cfg)
    b = train_sgd(logistic_data, cfg)
    assert np.array_equal(a.params, b.params)
    assert np.array_equal(a.gradients, b.gradients)


def test_sgd_descends_on_average(logistic_data):
    final_vs_initial = []
    for seed in range(10):
        cfg = make_cfg("logistic", 0.01, logistic_data.n, 50, 0.1, batch=16, seed=seed)
        hist = train_sgd(logistic_data, cfg)
        final_vs_initial.append(
            loss(cfg.loss, logistic_data, hist.params[-1])
            - loss(cfg.loss, logistic_data, hist.params[0])
        )
    assert np.mean(final_vs_initial) < 0


def test_schedule_partitions_one_epoch():
    batches = derive_schedule(0, 4, 2, 2)
    assert [b.size for b in batches] == [2, 2]
    assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3]
    again = derive_schedule(0, 4, 2, 2)
    assert all(np.array_equal(a, b) for a, b in zip(batches, again))


def test_schedule_index_frequencies_over_whole_epochs():
    n, B, epochs = 12, 4, 3
    T = epochs * (n // B)
    counts = np.zeros(n, dtype=int)
    for batch in derive_schedule(5, n, B, T):
        counts[batch] += 1
    target = T * B / n
    assert np.all((counts == int(np.floor(target))) | (counts == int(np.ceil(target))))


def test_schedule_ragged_tail_sizes():
    batches = derive_schedule(1, 10, 4, 6)
    assert [b.size for b in batches] == [4, 4, 2, 4, 4, 2]
    assert all(np.array_equal(b, np.sort(b)) for b in batches)


def test_cached_gradients_are_recomputable(logistic_data, logistic_history):
    cfg = logistic_history.config
    obj = Objective(cfg.loss, logistic_data)
    for t in range(logistic_history.iterations):
        rebuilt = obj.full_avg_gradient(logistic_history.params[t])
        np.testing.assert_allclose(rebuilt, logistic_history.gradients[t], atol=1e-12)


def test_cached_sgd_gradients_are_recomputable(logistic_data):
    cfg = make_cfg("logistic", 0.01, logistic_data.n, 25, 0.1, batch=32, seed=2)
    hist = train_sgd(logistic_data, cfg)
    obj = Objective(cfg.loss, logistic_data)
    for t, batch in enumerate(hist.batches()):
        rebuilt = obj.rows(batch).full_avg_gradient(hist.params[t])
        np.testing.assert_allclose(rebuilt, hist.gradients[t], atol=1e-12)


def test_sgd_refuses_a_bad_label_outside_every_batch():
    # a logistic minibatch step checks the labels of the whole dataset,
    # not only those of the rows its batch gathers
    cfg = make_cfg("logistic", 0.1, 40, 2, 0.1, batch=10, seed=3)
    seen = np.concatenate(derive_schedule(cfg.seed, 40, 10, 2))
    labels = np.where(np.arange(40) % 2, 1.0, -1.0)
    labels[np.setdiff1d(np.arange(40), seen)[0]] = 0.5
    data = Dataset(np.random.default_rng(3).normal(size=(40, 3)), labels)
    with pytest.raises(ValueError, match="labels exactly"):
        train_sgd(data, cfg)


def test_replay_reproduces_history(logistic_data, logistic_history):
    again = train_gd(logistic_data, logistic_history.config)
    assert np.array_equal(again.params, logistic_history.params)


def test_gd_contraction_toward_ridge_solution(ridge_data):
    l2 = 0.1
    cfg = make_cfg("ridge", l2, ridge_data.n, 60, 0.3)
    hist = train_gd(ridge_data, cfg)
    w_star = ridge_solution(ridge_data.features, ridge_data.labels, l2)
    dists = np.linalg.norm(hist.params - w_star, axis=1)
    assert np.all(dists[1:] <= dists[:-1] + 1e-12)


def test_learning_rate_warning(ridge_data):
    cfg = make_cfg("ridge", 0.1, ridge_data.n, 1, 50.0)
    with pytest.warns(UserWarning, match="contraction bound"):
        train_gd(ridge_data, cfg)


def test_divergence_reports_iteration(ridge_data):
    with np.errstate(all="ignore"), pytest.warns(UserWarning):
        with pytest.raises(DivergenceError) as err:
            train_gd(ridge_data, make_cfg("ridge", 0.0, ridge_data.n, 500, 1e6))
    assert err.value.iteration >= 0


def test_decaying_schedule_expressible():
    cfg = TrainConfig(
        loss=LossConfig("logistic", 0.001),
        iterations=20,
        batch_size=10,
        eta_schedule=((0, 0.2), (10, 0.1)),
        seed=0,
    )
    assert cfg.eta_at(0) == 0.2
    assert cfg.eta_at(9) == 0.2
    assert cfg.eta_at(10) == 0.1
    assert cfg.eta_at(19) == 0.1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss=LossConfig(), iterations=5, batch_size=4,
                    eta_schedule=((0, -0.1),))
    with pytest.raises(ValueError):
        TrainConfig(loss=LossConfig(), iterations=5, batch_size=4,
                    eta_schedule=((1, 0.1),))
    with pytest.raises(ValueError):
        derive_schedule(0, 4, 8, 2)
    # a cache stores the seed and each breakpoint in 64 bits
    for field in ({"seed": 2**64}, {"seed": -1}, {"eta_schedule": ((0, 0.1), (2**64, 0.05))}):
        with pytest.raises(ValueError, match="64"):
            TrainConfig(**{"loss": LossConfig(), "iterations": 5, "batch_size": 4, **field})
    # counts, seeds and breakpoints are Python or numpy integers: a float,
    # even a whole one, is refused before training instead of failing in it,
    # in save_cache or by rounding a breakpoint of 0.5 down to 0
    for field in ({"iterations": 5.0}, {"batch_size": 4.0}, {"seed": 1.5},
                  {"eta_schedule": ((0.5, 0.1),)}):
        with pytest.raises(ValueError, match="not an integer"):
            TrainConfig(**{"loss": LossConfig(), "iterations": 5, "batch_size": 4, **field})
    for field in ({"n": 10.5}, {"p": 2.0}, {"seed": 0.0}):
        with pytest.raises(ValueError, match="not an integer"):
            SyntheticSpec(**{"n": 10, "p": 2, **field})
    cfg = TrainConfig(loss=LossConfig(), iterations=np.int64(5), batch_size=np.int32(4),
                      eta_schedule=((np.uint64(0), 0.1),), seed=np.uint64(2**64 - 1))
    assert cfg.eta_schedule == ((0, 0.1),) and type(cfg.eta_schedule[0][0]) is int
    assert type(cfg.seed) is type(cfg.batch_size) is int and cfg.seed == 2**64 - 1


@pytest.mark.parametrize("field,message", [
    ({"eta_schedule": ((0, 0.1), (5, 0.05), (5, 0.01))}, "strictly increasing"),
    ({"iterations": -1}, "iterations must be >= 0"),
], ids=["breakpoints", "iterations"])
def test_config_refuses_repeated_breakpoints_and_negative_iterations(field, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{"loss": LossConfig(), "iterations": 5, "batch_size": 4, **field})


@pytest.mark.parametrize("trainer,batch,message", [
    (train_gd, 3, "train_gd requires batch_size == n"),
    (train_sgd, 5, "need 1 <= batch_size <= n"),
], ids=["gd", "sgd"])
def test_trainers_check_the_batch_size(trainer, batch, message):
    data = Dataset(np.ones((4, 2)), [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match=message):
        trainer(data, make_cfg("logistic", 0.1, 4, 5, 0.1, batch=batch))


def test_seeds_from_two_to_the_63_key_their_own_schedules(tmp_path):
    # the Philox key is (seed, epoch) as two 64-bit words, so seeds of 2^63
    # and above neither collide nor go through float64
    assert not all(np.array_equal(a, b) for a, b in zip(
        derive_schedule(2**63, 50, 7, 8), derive_schedule(2**63 + 1, 50, 7, 8)))
    data = Dataset(np.arange(12.0).reshape(6, 2) / 10.0, [1.0, -1.0] * 3)
    cfg = make_cfg("logistic", 0.1, 6, 4, 0.1, batch=2, seed=2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = train_sgd(data, cfg)
    save_cache(hist, tmp_path / "top.dgc")
    again = load_cache(tmp_path / "top.dgc", data)
    assert again.config.seed == 2**64 - 1
    assert all(np.array_equal(a, b) for a, b in zip(again.batches(), hist.batches()))
