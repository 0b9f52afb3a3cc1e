import contextlib
import copy
import hashlib
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from concurrent import futures
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltagrad import (
    ChangeSet,
    Dataset,
    DeltaGradConfig,
    DimensionMismatchError,
    FingerprintMismatchError,
    LossConfig,
    TrainConfig,
    full_gradient,
    hessian_vector_product,
    loss,
    load_cache,
    save_cache,
    smoothness_bound,
    train_gd,
    unlearn_batch_gd,
)
from deltagrad import models
from deltagrad.models import ActiveRows, Objective, gradient_sum, per_sample_gradient_norms
from deltagrad.trainer import verify_fingerprint
from oracles import (
    block_gradient_sum,
    fd_gradient,
    grad_scalar,
    loss_scalar,
    per_sample_grad,
    ridge_solution,
)


def test_loss_single_logistic_sample():
    data = Dataset([[1.0]], [1.0])
    cfg = LossConfig("logistic", 0.0)
    assert loss(cfg, data, np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_ridge_zero_residual():
    data = Dataset([[1.0]], [0.0])
    assert loss(LossConfig("ridge", 0.0), data, np.zeros(1)) == 0.0


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    y_cls = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    y_reg = rng.normal(size=50)
    w = rng.normal(size=4)
    for kind, y in (("logistic", y_cls), ("ridge", y_reg)):
        cfg = LossConfig(kind, 0.03)
        data = Dataset(X, y)
        assert loss(cfg, data, w) == pytest.approx(
            loss_scalar(kind, 0.03, X, y, w), rel=1e-12
        )


def test_gradient_single_logistic_sample():
    data = Dataset([[1.0]], [1.0])
    g = full_gradient(LossConfig("logistic", 0.0), data, np.zeros(1))
    assert g == pytest.approx([-0.5], abs=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 4))
    for kind, y in (
        ("logistic", np.where(rng.random(30) < 0.5, 1.0, -1.0)),
        ("ridge", rng.normal(size=30)),
    ):
        cfg = LossConfig(kind, 0.05)
        data = Dataset(X, y)
        for _ in range(20):
            w = rng.normal(size=4)
            g = full_gradient(cfg, data, w)
            g_fd = fd_gradient(lambda v: loss(cfg, data, v), w)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1e-12)


def test_gradient_stationary_at_least_squares():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    data = Dataset(X, y)
    w_star = ridge_solution(X, y, 0.0)
    g = full_gradient(LossConfig("ridge", 0.0), data, w_star)
    assert np.linalg.norm(g) <= 1e-10


def test_subset_sum_empty_and_all(ridge_data):
    cfg = LossConfig("ridge", 0.1)
    w = np.linspace(-1, 1, ridge_data.p)
    obj = Objective(cfg, ridge_data)
    assert obj.rows([]) is None
    total = obj.rows(np.arange(ridge_data.n)).data_grad_sum(w) + ridge_data.n * cfg.l2 * w
    # per-sample gradients carry the l2 term, so the full sum is n * full gradient
    np.testing.assert_allclose(total, ridge_data.n * full_gradient(cfg, ridge_data, w),
                               rtol=1e-12)


def test_subset_sum_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 5))
    y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
    data = Dataset(X, y)
    cfg = LossConfig("logistic", 0.02)
    w = rng.normal(size=5)
    idx = rng.choice(100, size=5, replace=False)
    expected = sum(per_sample_grad("logistic", 0.02, X[i], y[i], w) for i in idx)
    got = Objective(cfg, data).rows(idx).data_grad_sum(w) + idx.size * cfg.l2 * w
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_subset_sum_rejects_out_of_range(ridge_data):
    with pytest.raises(IndexError):
        Objective(LossConfig("ridge", 0.0), ridge_data).rows([ridge_data.n])


@pytest.mark.parametrize("kind", ["logistic", "ridge"])
def test_per_sample_gradient_norms_match_the_scalar_oracle(kind):
    # two logistic rows have y*z above 710, where exp(y*z) overflows and the
    # coefficient is an exact 0; the suite fails on any RuntimeWarning
    data, w = margin_problem(kind, 40, 4, 800.0, seed=3)
    l2 = 0.05
    expected = [np.linalg.norm(per_sample_grad(kind, l2, x, label, w))
                for x, label in zip(data.features, data.labels)]
    got = per_sample_gradient_norms(LossConfig(kind, l2), data, w)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_hvp_zero_vector(logistic_data):
    cfg = LossConfig("logistic", 0.01)
    out = hessian_vector_product(cfg, logistic_data, np.ones(logistic_data.p),
                                 np.zeros(logistic_data.p))
    assert np.array_equal(out, np.zeros(logistic_data.p))


def test_hvp_logistic_hand_value():
    data = Dataset([[2.0]], [1.0])
    out = hessian_vector_product(LossConfig("logistic", 0.0), data, np.zeros(1), np.ones(1))
    # sigma(0)*(1-sigma(0)) * (x.v) * x / n = 0.25 * 2 * 2
    assert out == pytest.approx([1.0], abs=1e-14)


def test_hvp_matches_directional_finite_difference(ridge_data, logistic_data):
    rng = np.random.default_rng(5)
    for cfg, data in ((LossConfig("ridge", 0.1), ridge_data),
                      (LossConfig("logistic", 0.01), logistic_data)):
        w = rng.normal(size=data.p)
        v = rng.normal(size=data.p)
        h = 1e-6
        fd = (full_gradient(cfg, data, w + h * v) - full_gradient(cfg, data, w)) / h
        hv = hessian_vector_product(cfg, data, w, v)
        assert np.linalg.norm(hv - fd) <= 1e-5 * max(np.linalg.norm(hv), 1e-12)


def test_hvp_symmetry(logistic_data):
    cfg = LossConfig("logistic", 0.01)
    rng = np.random.default_rng(6)
    w = rng.normal(size=logistic_data.p)
    for _ in range(20):
        u = rng.normal(size=logistic_data.p)
        v = rng.normal(size=logistic_data.p)
        left = v @ hessian_vector_product(cfg, logistic_data, w, u)
        right = u @ hessian_vector_product(cfg, logistic_data, w, v)
        assert abs(left - right) <= 1e-10 * max(abs(left), 1.0)


def test_strong_convexity_witness(logistic_data):
    l2 = 0.05
    cfg = LossConfig("logistic", l2)
    rng = np.random.default_rng(7)
    for _ in range(100):
        w1 = rng.normal(size=logistic_data.p)
        w2 = rng.normal(size=logistic_data.p)
        gap = full_gradient(cfg, logistic_data, w1) - full_gradient(cfg, logistic_data, w2)
        assert gap @ (w1 - w2) >= l2 * np.linalg.norm(w1 - w2) ** 2 - 1e-9


def test_smoothness_witness(logistic_data, ridge_data):
    rng = np.random.default_rng(8)
    for cfg, data in ((LossConfig("logistic", 0.05), logistic_data),
                      (LossConfig("ridge", 0.05), ridge_data)):
        L = smoothness_bound(cfg, data)
        for _ in range(50):
            w1 = rng.normal(size=data.p)
            w2 = rng.normal(size=data.p)
            gap = full_gradient(cfg, data, w1) - full_gradient(cfg, data, w2)
            assert np.linalg.norm(gap) <= L * np.linalg.norm(w1 - w2) * (1 + 1e-12)


def test_dimension_errors(logistic_data):
    cfg = LossConfig("logistic", 0.0)
    with pytest.raises(DimensionMismatchError):
        loss(cfg, logistic_data, np.zeros(logistic_data.p + 1))
    with pytest.raises(DimensionMismatchError):
        hessian_vector_product(cfg, logistic_data, np.zeros(logistic_data.p), np.zeros(2))


def test_objective_rows_keeps_class_and_gathers_once(ridge_data):
    class Tagged(Objective):
        pass

    cfg = LossConfig("ridge", 0.1)
    w = np.linspace(-1.0, 1.0, ridge_data.p)
    # rows 1 and 4 deleted, then one row added (id n) and row 7 deleted;
    # the rows are copied once, when the set is made, and edited in place
    rows = ActiveRows(ridge_data, ridge_data.n + 1)
    start = rows.dataset()
    assert np.array_equal(start.features, ridge_data.features)
    assert np.array_equal(start.labels, ridge_data.labels)
    rows.delete([4, 1])
    buffer = rows.dataset().features
    added = np.full((1, ridge_data.p), 0.5)
    rows.append(added, [2.0])
    rows.delete([7])
    assert np.shares_memory(rows.dataset().features, buffer)
    active = np.setdiff1d(np.arange(ridge_data.n), [1, 4, 7])
    obj = Tagged(cfg, rows.dataset())
    obj.tag = "kept"
    part = obj.rows(rows.positions([8, 2]))
    assert type(part) is Tagged and part.tag == "kept"
    assert part.n == 2
    assert np.array_equal(part.data_grad_sum(w), gradient_sum(cfg, ridge_data.subset([8, 2]), w))
    assert obj.n == ridge_data.n - 2
    full = Dataset(np.vstack([ridge_data.features[active], added]),
                   np.append(ridge_data.labels[active], 2.0))
    assert bits(obj.data_grad_sum(w)) == bits(gradient_sum(cfg, full, w))
    assert bits(obj.rows(rows.positions([ridge_data.n])).data_grad_sum(w)) == bits(
        gradient_sum(cfg, Dataset(added, [2.0]), w))
    assert obj.rows([]) is None
    for bad in ([obj.n], [-1]):
        with pytest.raises(IndexError):
            obj.rows(bad)


def test_logistic_requires_pm1_labels():
    data = Dataset([[1.0], [2.0]], [1.0, 0.5])
    with pytest.raises(ValueError):
        loss(LossConfig("logistic", 0.0), data, np.zeros(1))


LABEL_CHECKED_CALLS = {
    "gradient_sum": lambda cfg, d, w: gradient_sum(cfg, d, w),
    "gradient_sum_indices": lambda cfg, d, w: Objective(cfg, d).rows([0]).data_grad_sum(w),
    "data_grad_sum": lambda cfg, d, w: Objective(cfg, d).data_grad_sum(w),
    "loss": lambda cfg, d, w: loss(cfg, d, w),
    "hessian_vector_product": lambda cfg, d, w: hessian_vector_product(cfg, d, w, w),
    "per_sample_gradient_norms": lambda cfg, d, w: per_sample_gradient_norms(cfg, d, w),
}


@pytest.mark.parametrize("call", sorted(LABEL_CHECKED_CALLS))
def test_logistic_label_check_on_every_entry_point(call):
    # row 0 is a valid label, so `rows([0])` is refused for the dataset,
    # not for the rows it gathers
    cfg = LossConfig("logistic", 0.1)
    bad = Dataset([[1.0, 0.0], [0.5, 2.0], [1.0, 1.0]], [1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="labels exactly"):
        LABEL_CHECKED_CALLS[call](cfg, bad, np.full(2, 0.3))
    good = Dataset(bad.features, [1.0, -1.0, -1.0])
    LABEL_CHECKED_CALLS[call](cfg, good, np.full(2, 0.3))
    # ridge accepts any real label
    LABEL_CHECKED_CALLS[call](LossConfig("ridge", 0.1), bad, np.full(2, 0.3))


def test_dataset_owns_its_labels():
    cfg = LossConfig("logistic", 0.0)
    X = np.ones((3, 1))
    y = np.array([1.0, -1.0, 1.0])
    base = np.array([0.0, 1.0, -1.0, 1.0])
    w = np.zeros(1)
    for labels, alias in ((y, y), (base[1:], base)):
        data = Dataset(X, labels)
        g = gradient_sum(cfg, data, w)
        alias[1:] = 0.5          # the caller keeps a writeable array
        assert np.array_equal(data.labels, [1.0, -1.0, 1.0])
        assert not data.labels.flags.writeable
        assert np.array_equal(gradient_sum(cfg, data, w), g)
        assert loss(cfg, data, w) == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("features,labels,message", [
    (np.ones(3), np.ones(3), "features must be 2-D, got ndim=1"),
    (np.ones((3, 2)), np.ones((3, 1)), "labels must be 1-D, got ndim=2"),
    (np.ones((3, 2)), np.ones(2), "3 feature rows vs 2 labels"),
    (np.ones((3, 0)), np.ones(3), "dataset needs n >= 1 and p >= 1"),
], ids=["1-d-features", "2-d-labels", "row-count", "no-feature"])
def test_dataset_shape_checks(features, labels, message):
    with pytest.raises(DimensionMismatchError, match=message):
        Dataset(features, labels)


@pytest.mark.parametrize("rows,labels", [(np.ones(3), [1.0]), (np.ones((2, 1)), [1.0, -1.0])],
                         ids=["1-d-row", "2-d-rows"])
def test_extended_rows_need_the_datasets_width(rows, labels):
    data = Dataset(np.ones((2, 2)), [1.0, -1.0])
    with pytest.raises(DimensionMismatchError, match=r"expected \(\*, 2\)"):
        data.extended(rows, labels)
    assert data.extended(np.ones(2), [1.0]).n == 3


def test_loss_kind_is_logistic_or_ridge():
    with pytest.raises(ValueError, match="unknown loss kind 'hinge'"):
        LossConfig(kind="hinge")


def test_fingerprint_is_order_sensitive(logistic_data):
    perm = np.arange(logistic_data.n)[::-1]
    shuffled = Dataset(logistic_data.features[perm], logistic_data.labels[perm])
    assert logistic_data.fingerprint() != shuffled.fingerprint()
    again = Dataset(logistic_data.features.copy(), logistic_data.labels.copy())
    assert logistic_data.fingerprint() == again.fingerprint()


def test_fingerprint_digest_is_stable():
    # pinned so that caches written by earlier versions keep loading; the
    # rows are unshared, so the second call returns the kept digest
    data = Dataset(np.arange(12.0).reshape(4, 3) / 7.0, [1.0, -1.0, -1.0, 1.0])
    with counted_hashes() as hashes:
        digests = [data.fingerprint().hex() for _ in range(2)]
    assert digests == 2 * [
        "bb8ee9e104dd91a5c0cc99b7bda794b821fdbbd2f19e644d8729152e5d9f420b"
    ]
    assert len(hashes) == 1


@contextlib.contextmanager
def counted_hashes():
    """A list that gains one entry for each hash `Dataset.fingerprint` starts."""
    calls = []

    def sha256(*args):
        calls.append(None)
        return hashlib.sha256(*args)

    with mock.patch.object(models, "hashlib", mock.Mock(sha256=sha256)):
        yield calls


def aliased_dataset(alias, as_view, seed):
    """A 5 x 3 dataset over a fresh array, either the array itself or a view
    of its first 5 of 6 rows, and the one alias of its rows the caller keeps:
    the array, a view made before construction, a memoryview, or None."""
    owner = np.random.default_rng(seed).normal(size=(6, 3) if as_view else (5, 3))
    kept = None
    if alias == "owner":
        kept = owner
    elif alias == "view":
        kept = owner[1:]
    elif alias == "memoryview":
        kept = memoryview(owner)
    data = Dataset(owner[:5] if as_view else owner, np.ones(5))
    return data, kept


@settings(max_examples=30, deadline=None)
@given(alias=st.sampled_from(["owner", "view", "memoryview", None]),
       as_view=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fingerprint_is_kept_only_for_unshared_rows(alias, as_view, seed):
    data, kept = aliased_dataset(alias, as_view, seed)
    history = train_gd(data, TrainConfig(loss=LossConfig("logistic", 0.1), iterations=1,
                                         batch_size=5, eta_schedule=((0, 0.1),)))
    first = history.fingerprint
    if kept is None:
        with counted_hashes() as hashes:
            assert data.fingerprint() == first
            verify_fingerprint(history, data)
        assert hashes == []
        assert not data.features.base.flags.writeable
        with pytest.raises(ValueError):
            data.features.base[1:].flags.writeable = True
        return
    rows = np.asarray(kept)
    rows[1, 0] += 1.0               # row 1 of the data, or row 2 through owner[1:]
    with counted_hashes() as hashes:
        assert data.fingerprint() != first
        with pytest.raises(FingerprintMismatchError):
            verify_fingerprint(history, data)
    assert len(hashes) == 2


def test_the_callers_array_stays_writeable():
    # the dataset freezes a view of its own; a write through the caller's
    # array reaches the rows, and the next check hashes them and fails
    X = np.random.default_rng(2).normal(size=(6, 2))
    data = Dataset(X, np.ones(6))
    history = train_gd(data, TrainConfig(loss=LossConfig("logistic", 0.1), iterations=1,
                                         batch_size=6, eta_schedule=((0, 0.1),)))
    assert X.flags.writeable and not data.features.flags.writeable
    assert data.features.base is X
    X[0, 0] += 1.0
    assert data.features[0, 0] == X[0, 0]
    with pytest.raises(FingerprintMismatchError):
        verify_fingerprint(history, data)


def test_copies_are_frozen_and_keep_no_digest():
    data = Dataset(np.arange(6.0).reshape(3, 2), [1.0, -1.0, 1.0])
    digest = data.fingerprint()
    for other in (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
        assert other._digest is None
        assert not (other.features.flags.writeable or other.labels.flags.writeable)
        assert other.fingerprint() == digest


def test_active_rows_datasets_never_keep_a_fingerprint():
    # a view of the buffer that the set's next edit rewrites
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=(8, 2)), np.where(rng.random(8) < 0.5, 1.0, -1.0))
    for signed in (False, True):
        rows = ActiveRows(data, 9, signed=signed)
        rows.delete([2])
        rows.append(rng.normal(size=(1, 2)), [1.0])
        view = rows.dataset()
        with counted_hashes() as hashes:
            before = view.fingerprint()
            assert view.fingerprint() == before
        assert len(hashes) == 2
        assert view.features.base.flags.writeable
        rows.delete([0])
        assert view.fingerprint() != before


@pytest.mark.parametrize("keep_alias", [False, True])
def test_an_unshared_dataset_hashes_no_row_per_request(tmp_path, keep_alias):
    # load_cache(path, data) and the engine each check the fingerprint; an
    # unshared dataset sealed by its training run hashes neither time
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    data = Dataset(X, np.where(X[:, 0] > 0, 1.0, -1.0))
    if not keep_alias:
        del X
    cfg = TrainConfig(loss=LossConfig("logistic", 0.1), iterations=20, batch_size=60,
                      eta_schedule=((0, 0.1),))
    save_cache(train_gd(data, cfg), tmp_path / "h.dgc")
    with counted_hashes() as hashes:
        history = load_cache(tmp_path / "h.dgc", data)
        unlearn_batch_gd(data, history, ChangeSet.delete([4, 9]), DeltaGradConfig())
    assert len(hashes) == (2 if keep_alias else 0)


def margin_problem(kind, n, p, margin, seed):
    """Random rows with w scaled so that max_i |x_i . w| equals `margin`."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0) if kind == "logistic" else rng.normal(size=n)
    w = rng.normal(size=p)
    w *= margin / max(np.max(np.abs(X @ w)), 1e-300)
    return Dataset(X, y), w


def check_kernel_against_oracle(kind, data, w):
    """gradient_sum within a worst-case roundoff bound of the scalar oracle,
    and the gathered copy data.subset(arange(n)) and the matrix of one
    iterate w[None] equal to it bit for bit.

    Both sides round the dot products x_i . w (error ~ p*eps*sum_k |x_ik w_k|),
    the per-row coefficient (absolute error ~ eps*|y_i| at most, plus the
    dot-product error, since |d coeff / d z| <= 1) and the sum over rows
    (~ n*eps times the sum of |coeff_i * x_ij|, with |coeff_i| bounded by
    sum_k |x_ik w_k| + |y_i|). Hence per component
    tol_j = 8 (n + p) eps sum_i (sum_k |x_ik w_k| + |y_i|) |x_ij|.
    """
    X, y = data.features, data.labels
    n, p = X.shape
    cfg = LossConfig(kind, 0.0)
    got = gradient_sum(cfg, data, w)
    expected = grad_scalar(kind, 0.0, X, y, w)
    row_mag = np.abs(X) @ np.abs(w) + np.abs(y)
    tol = 8 * (n + p) * np.finfo(float).eps * (np.abs(X).T @ row_mag) / n
    assert np.all(np.abs(got / n - expected) <= tol)
    assert np.array_equal(gradient_sum(cfg, data.subset(np.arange(n)), w), got)
    assert bits(gradient_sum(cfg, data, w[None])[0]) == bits(got)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    p=st.integers(1, 60),
    block_rows=st.integers(1, 64),
    blocks=st.floats(0.01, 4.0),
    margin=st.floats(0.0, 800.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_sum_across_blocks(kind, p, block_rows, blocks, margin, seed):
    n = max(1, int(blocks * block_rows))
    data, w = margin_problem(kind, n, p, margin, seed)
    with mock.patch.object(models, "BLOCK_BYTES", 8 * p * block_rows):
        check_kernel_against_oracle(kind, data, w)


@pytest.mark.parametrize("kind", ["logistic", "ridge"])
def test_gradient_sum_across_default_blocks(kind):
    p = 50
    rows = models.BLOCK_BYTES // (8 * p)
    data, w = margin_problem(kind, 2 * rows + rows // 2, p, 800.0, seed=7)
    check_kernel_against_oracle(kind, data, w)


@pytest.mark.parametrize("margin", [709.0, 710.0, 800.0, 1e4])
def test_logistic_gradient_at_exp_overflow(margin):
    # y*z = +margin on rows 0 and 3, where exp(y*z) overflows from 710 on,
    # and -margin on rows 1 and 2
    X = np.array([[1.0, 0.5], [1.0, -0.5], [-1.0, 0.25], [-1.0, 2.0]])
    data = Dataset(X, [1.0, -1.0, 1.0, -1.0])
    w = np.array([margin, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gradient_sum(LossConfig("logistic", 0.0), data, w)
        assert np.isfinite(g).all()
        check_kernel_against_oracle("logistic", data, w)


@contextlib.contextmanager
def kernel_workers(workers, block_rows, p):
    """gradient_sum with blocks of `block_rows` rows, fanned out from two
    blocks on to the caller and workers - 1 helper threads."""
    pool = futures.ThreadPoolExecutor(workers - 1) if workers > 1 else None
    try:
        with mock.patch.multiple(models, BLOCK_BYTES=8 * p * block_rows,
                                 _pool=(pool, workers - 1)):
            yield
    finally:
        if pool is not None:
            pool.shutdown()


@contextlib.contextmanager
def helper_takes_a_block(helper_block=None):
    """Hold the calling thread at its first block until a helper thread has
    finished one, so that a fanned-out gradient computes at least one block
    off the caller's thread. Helpers compute their blocks with
    `helper_block` when given."""
    real = models._block_sum
    caller, helped = threading.get_ident(), threading.Event()

    def block(*args):
        if threading.get_ident() == caller:
            assert helped.wait(10)
            return real(*args)
        try:
            return (helper_block or real)(*args)
        finally:
            helped.set()

    with mock.patch.object(models, "_block_sum", block):
        yield
    assert helped.is_set()


def bits(a):
    return np.asarray(a).tobytes()


def one_row_examples(test):
    """Hypothesis examples of one row (n = 1, p = 3), whose sum the
    engine's one-row change terms reproduce bit for bit, for both losses
    at margins 0, 709.5 (exp(y*z) still finite, just below log(DBL_MAX)
    ~ 709.78) and 800 (exp overflows when y*z > 0); with p = 3, seed 0
    gives a logistic row y*z = +margin and seed 1 gives -margin."""
    for kind in ("logistic", "ridge"):
        for margin in (0.0, 709.5, 800.0):
            for seed in (0, 1):
                test = example(kind=kind, n=1, p=3, block_rows=1, margin=margin,
                               seed=seed)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "ridge"]),
    n=st.integers(1, 150),
    p=st.integers(1, 20),
    block_rows=st.integers(1, 40),
    margin=st.floats(0.0, 800.0),
    seed=st.integers(0, 2**32 - 1),
)
@one_row_examples
def test_parallel_gradient_sum_is_the_serial_block_sum(kind, n, p, block_rows, margin, seed):
    # margins past 709 overflow exp(y*z) in the logistic coefficient; the
    # suite turns a RuntimeWarning in any thread into a failure
    data, w = margin_problem(kind, n, p, margin, seed)
    expected = bits(block_gradient_sum(kind, data.features, data.labels, w, block_rows))
    for workers in (1, 2, 3):
        fans_out = workers > 1 and n > block_rows
        with kernel_workers(workers, block_rows, p), \
                helper_takes_a_block() if fans_out else contextlib.nullcontext():
            assert bits(gradient_sum(LossConfig(kind, 0.0), data, w)) == expected


@pytest.mark.parametrize("kind", ["logistic", "ridge"])
def test_one_row_gradient_keeps_signed_zeros_of_the_block_sum(kind):
    # zero entries of the row times a negative coefficient give -0.0, which
    # the block loop's sum into zeros turns into 0.0; so does an exact-zero
    # coefficient, the logistic one where exp overflows (y*z = 1000)
    data = Dataset([[0.0, -0.0, 2.0, -1.0]], [1.0])
    for w in ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 500.0, 0.0], [0.0, 0.0, 0.5, 0.0]):
        w = np.asarray(w)
        expected = block_gradient_sum(kind, data.features, data.labels, w, 1)
        assert bits(gradient_sum(LossConfig(kind, 0.0), data, w)) == bits(expected)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 12),
    n=st.integers(1, 300),
    p=st.integers(1, 20),
    kind=st.sampled_from(["+1", "-1", "mixed", "ridge"]),
    block_macs=st.integers(1, 4096),
    margin=st.floats(0.0, 800.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(L=3, n=50, p=4, kind="mixed", block_macs=60, margin=800.0, seed=0)
@example(L=5, n=40, p=3, kind="-1", block_macs=4096, margin=800.0, seed=0)
@example(L=4, n=60, p=5, kind="ridge", block_macs=80, margin=3.0, seed=0)
def test_lane_kernel_over_signed_rows_is_the_label_weighted_kernel(L, n, p, kind, block_macs,
                                                                    margin, seed):
    # rows y*x with label +1 give the label-weighted lane kernel over (x, y)
    # bit for bit: a row's coefficient and product terms only change sign.
    # Margins past 710 overflow exp, where the coefficient is an exact 0;
    # each logistic example has at least one such margin. Ridge rows, with
    # real labels, run the same lanes loop and match the block oracle too.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = {"+1": np.ones(n), "-1": -np.ones(n),
         "mixed": np.where(rng.random(n) < 0.5, 1.0, -1.0),
         "ridge": rng.normal(size=n)}[kind]
    W = rng.normal(size=(L, p))
    W *= margin / max(np.max(np.abs(W @ X.T)), 1e-300)
    rows = max(1, min(models.BLOCK_BYTES // (8 * p), block_macs // (L * p)))
    loss_kind = "ridge" if kind == "ridge" else "logistic"
    expected = bits(block_gradient_sum(loss_kind, X, y, W, rows))
    cfg = LossConfig(loss_kind, 0.0)
    with mock.patch.object(models, "LANE_BLOCK_MACS", block_macs):
        if kind != "ridge":
            assert bits(gradient_sum(cfg, Dataset(X * y[:, None], np.ones(n)), W)) == expected
        assert bits(gradient_sum(cfg, Dataset(X, y), W)) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 30),
    edits=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_signed_active_rows_are_the_rows_a_retrain_sees(n, edits, seed):
    # after random deletes and appends, a signed set views y*x of the active
    # rows in id order (the original rows less the deleted, then the added
    # in arrival order), all labels +1, in one buffer filled once
    rng = np.random.default_rng(seed)
    p = 3
    data = Dataset(rng.normal(size=(n, p)), np.where(rng.random(n) < 0.5, 1.0, -1.0))
    X_all, y_all = list(data.features), list(data.labels)
    deleted = set()
    rows = ActiveRows(data, n + len(edits), signed=True)
    buffer = rows.dataset().features
    for add, pick in edits:
        live = [i for i in range(len(y_all)) if i not in deleted]
        if add or len(live) == 1:
            x, label = rng.normal(size=(1, p)), [float(rng.choice([-1.0, 1.0]))]
            rows.append(x, label)
            X_all.append(x[0])
            y_all.append(label[0])
        else:
            i = live[pick % len(live)]
            rows.delete([i])
            deleted.add(i)
        live = [i for i in range(len(y_all)) if i not in deleted]
        got = rows.dataset()
        assert np.shares_memory(got.features, buffer)
        assert np.array_equal(got.features, np.array([X_all[i] * y_all[i] for i in live]))
        assert np.array_equal(got.labels, np.ones(len(live)))
        assert np.array_equal(rows.positions(live), np.arange(len(live)))


def test_gradient_sum_at_no_iterates_and_bad_shapes(logistic_data):
    cfg = LossConfig("logistic", 0.0)
    p = logistic_data.p
    for data in (logistic_data,
                 Dataset(logistic_data.features * logistic_data.labels[:, None],
                         np.ones(logistic_data.n))):
        g = gradient_sum(cfg, data, np.empty((0, p)))
        assert g.shape == (0, p)
    for bad in (np.zeros(p + 1), np.zeros((2, p + 1)), np.zeros((1, 1, p))):
        with pytest.raises(DimensionMismatchError, match=rf"expected \({p},\) or \(L, {p}\)$"):
            gradient_sum(cfg, logistic_data, bad)
    with pytest.raises(DimensionMismatchError, match=rf"expected \({p},\)$"):
        full_gradient(cfg, logistic_data, np.zeros((2, p)))


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(models, "_pool", None)
    data, w = margin_problem("logistic", 300, 5, 3.0, seed=2)
    before = threading.active_count()
    g = gradient_sum(LossConfig("logistic", 0.0), data, w)
    assert models._pool is None and threading.active_count() == before
    assert bits(g) == bits(block_gradient_sum("logistic", data.features, data.labels, w, 300))


def test_only_one_iterate_fans_out():
    # a matrix of two or more iterates sums every block on the caller's
    # thread; a matrix of one iterate fans its blocks out as an iterate (p,)
    cfg = LossConfig("logistic", 0.0)
    data, w = margin_problem("logistic", 40, 3, 5.0, seed=10)
    W = np.stack([w, -0.5 * w, 2.0 * w])
    real, threads = models._block_sum, set()

    def block(*args):
        threads.add(threading.get_ident())
        return real(*args)

    with kernel_workers(2, 4, 3), mock.patch.object(models, "_block_sum", block):
        G = gradient_sum(cfg, data, W)
    assert threads == {threading.get_ident()}
    assert bits(G) == bits(block_gradient_sum("logistic", data.features, data.labels, W, 4))
    expected = bits(block_gradient_sum("logistic", data.features, data.labels, w, 4))
    for iterate in (w, w[None]):
        with kernel_workers(2, 4, 3), helper_takes_a_block():
            assert bits(gradient_sum(cfg, data, iterate).reshape(-1)) == expected


def test_helper_threads_are_capped(monkeypatch):
    monkeypatch.setattr(models, "_pool", None)
    monkeypatch.setattr(models.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    pool, helpers = models._helper_pool()
    pool.shutdown()
    assert helpers == models.MAX_HELPER_THREADS


def test_helper_warnings_reach_the_caller():
    # X @ w = +inf and y = +inf on every row: z - y warns "invalid value" in
    # each block, whichever thread computes it
    n = 12
    data = Dataset(np.ones((n, 2)), np.full(n, np.inf))
    w = np.array([np.inf, 0.0])
    with kernel_workers(2, 1, 2), helper_takes_a_block(), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = gradient_sum(LossConfig("ridge", 0.0), data, w)
    assert np.isnan(g).all()
    assert [str(c.message) for c in caught] == ["invalid value encountered in subtract"] * n
    # the caller's numpy error state holds in the helpers too
    with kernel_workers(2, 1, 2), helper_takes_a_block(), np.errstate(invalid="ignore"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bits(gradient_sum(LossConfig("ridge", 0.0), data, w)) == bits(g)


def test_ridge_lanes_enter_no_errstate():
    # at a matrix of iterates too, only logistic rows silence an overflow
    # (of exp); a ridge residual z - y that overflows warns
    data = Dataset([[1e308], [1.0]], [-1e308, 0.0])
    with pytest.warns(RuntimeWarning, match="overflow encountered in subtract"):
        gradient_sum(LossConfig("ridge", 0.0), data, np.ones((2, 1)))


def test_helper_errors_are_raised_in_the_caller():
    def fail(*args):
        raise ArithmeticError("in a helper")

    data, w = margin_problem("ridge", 12, 3, 1.0, seed=5)
    with kernel_workers(3, 1, 3), helper_takes_a_block(fail), \
            pytest.raises(ArithmeticError, match="in a helper"):
        gradient_sum(LossConfig("ridge", 0.0), data, w)


@pytest.mark.parametrize("workers", [2, 3])
def test_each_thread_computes_one_contiguous_run_of_blocks(workers):
    # every thread waits at its first block until all have started, so no
    # run comes back to the caller; the caller's blocks are then a prefix,
    # and each helper's blocks one run after it
    data, w = margin_problem("ridge", 40, 3, 1.0, seed=4)
    real, everyone = models._block_sum, threading.Barrier(workers, timeout=10)
    waited, owner = threading.local(), {}

    def block(*args):
        if not hasattr(waited, "done"):
            waited.done = True
            everyone.wait()
        owner[args[-1]] = threading.get_ident()
        return real(*args)

    with kernel_workers(workers, 1, 3), mock.patch.object(models, "_block_sum", block):
        g = gradient_sum(LossConfig("ridge", 0.0), data, w)
    assert bits(g) == bits(block_gradient_sum("ridge", data.features, data.labels, w, 1))
    threads = [owner[lo] for lo in range(40)]
    runs = [t for i, t in enumerate(threads) if i == 0 or t != threads[i - 1]]
    assert len(runs) == len(set(runs)) == workers
    assert runs[0] == threading.get_ident()


def test_a_run_no_helper_starts_comes_back_to_the_caller():
    # the pool's one thread is held by another job: the caller cancels the
    # helper's job and computes every block itself, with the serial bits
    cfg = LossConfig("logistic", 0.0)
    data, w = margin_problem("logistic", 30, 4, 5.0, seed=6)
    expected = bits(block_gradient_sum("logistic", data.features, data.labels, w, 4))
    real, threads, got = models._block_sum, set(), []

    def block(*args):
        threads.add(threading.get_ident())
        return real(*args)

    release = threading.Event()
    with kernel_workers(2, 4, 4), mock.patch.object(models, "_block_sum", block):
        held = models._pool[0].submit(release.wait, 30)
        caller = threading.Thread(target=lambda: got.append(bits(gradient_sum(cfg, data, w))))
        try:
            caller.start()
            caller.join(timeout=10)
            assert not caller.is_alive()
        finally:
            release.set()
        assert held.result()
    assert got == [expected]
    assert threads == {caller.ident}


def test_an_error_in_the_callers_run_waits_for_the_running_helper():
    # two blocks: the caller's fails once the helper has started its own,
    # and the error reaches the caller only after the helper's job ended
    real, caller = models._block_sum, threading.get_ident()
    started, ended = threading.Event(), threading.Event()

    def block(*args):
        if threading.get_ident() == caller:
            assert started.wait(10)
            raise ArithmeticError("in the caller")
        started.set()
        time.sleep(0.2)
        ended.set()
        return real(*args)

    data, w = margin_problem("ridge", 2, 3, 1.0, seed=8)
    with kernel_workers(2, 1, 3), mock.patch.object(models, "_block_sum", block), \
            pytest.raises(ArithmeticError, match="in the caller"):
        gradient_sum(LossConfig("ridge", 0.0), data, w)
    assert ended.is_set()


def fork_child_gradient(cfg, data, w, out):
    # the parent's helper thread does not exist here; the child builds its
    # own pool, whose helper computes a block as well
    fans_out = len(os.sched_getaffinity(0)) > 1
    try:
        with helper_takes_a_block() if fans_out else contextlib.nullcontext():
            out.put(bits(gradient_sum(cfg, data, w)))
    except BaseException as exc:
        out.put(repr(exc))


def test_fork_child_after_the_pool_is_live():
    cfg = LossConfig("logistic", 0.0)
    data, w = margin_problem("logistic", 400, 6, 5.0, seed=3)
    with kernel_workers(2, 10, 6):
        with helper_takes_a_block():
            expected = bits(gradient_sum(cfg, data, w))
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        child = ctx.Process(target=fork_child_gradient, args=(cfg, data, w, out))
        child.start()
        try:
            got = out.get(timeout=30)
            child.join(timeout=30)
            assert not child.is_alive()
        finally:
            if child.is_alive():
                child.kill()
    assert child.exitcode == 0
    assert got == expected


def test_callers_share_the_pool():
    # more threads than cores: two callers and two helpers, switching often
    cfg = LossConfig("logistic", 0.0)
    data, _ = margin_problem("logistic", 300, 4, 1.0, seed=9)
    iterates = np.random.default_rng(1).normal(size=(40, 4))
    expected = [bits(block_gradient_sum("logistic", data.features, data.labels, w, 7))
                for w in iterates]
    mismatches = []

    def caller(order):
        for i in order:
            if bits(gradient_sum(cfg, data, iterates[i])) != expected[i]:
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with kernel_workers(3, 7, 4):
            callers = [threading.Thread(target=caller, args=(order,))
                       for order in (range(40), range(39, -1, -1))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []


def test_process_with_helpers_exits_promptly():
    # the pool's threads are joined at interpreter exit, before atexit hooks
    script = (
        "import atexit, threading\n"
        "import numpy as np\n"
        "from deltagrad import models\n"
        "models.BLOCK_BYTES = 8 * 4 * 10\n"
        "data = models.Dataset(np.ones((200, 4)), np.ones(200))\n"
        "models.gradient_sum(models.LossConfig('logistic', 0.0), data, np.zeros(4))\n"
        "atexit.register(lambda: print('left', threading.active_count()))\n"
        "print('helpers', models._pool[1])\n"
    )
    src = str(Path(models.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={"PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    helpers = min(len(os.sched_getaffinity(0)) - 1, models.MAX_HELPER_THREADS)
    assert proc.stdout.split("\n")[:2] == [f"helpers {helpers}", "left 1"]
