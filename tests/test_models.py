import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltagrad import (
    Dataset,
    DimensionMismatchError,
    LossConfig,
    full_gradient,
    hessian_vector_product,
    loss,
    smoothness_bound,
    subset_gradient_sum,
)
from deltagrad import models
from deltagrad.models import gradient_sum
from oracles import fd_gradient, grad_scalar, loss_scalar, per_sample_grad, ridge_solution


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
    assert np.array_equal(subset_gradient_sum(cfg, ridge_data, w, []), np.zeros(ridge_data.p))
    total = subset_gradient_sum(cfg, ridge_data, w, np.arange(ridge_data.n))
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
    got = subset_gradient_sum(cfg, data, w, idx)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_subset_sum_rejects_out_of_range(ridge_data):
    with pytest.raises(IndexError):
        subset_gradient_sum(LossConfig("ridge", 0.0), ridge_data, np.zeros(ridge_data.p),
                            [ridge_data.n])


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


def test_logistic_requires_pm1_labels():
    data = Dataset([[1.0], [2.0]], [1.0, 0.5])
    with pytest.raises(ValueError):
        loss(LossConfig("logistic", 0.0), data, np.zeros(1))


def test_fingerprint_is_order_sensitive(logistic_data):
    perm = np.arange(logistic_data.n)[::-1]
    shuffled = Dataset(logistic_data.features[perm], logistic_data.labels[perm])
    assert logistic_data.fingerprint() != shuffled.fingerprint()
    again = Dataset(logistic_data.features.copy(), logistic_data.labels.copy())
    assert logistic_data.fingerprint() == again.fingerprint()


def test_fingerprint_digest_is_stable():
    # pinned so that caches written by earlier versions keep loading
    data = Dataset(np.arange(12.0).reshape(4, 3) / 7.0, [1.0, -1.0, -1.0, 1.0])
    assert data.fingerprint().hex() == (
        "bb8ee9e104dd91a5c0cc99b7bda794b821fdbbd2f19e644d8729152e5d9f420b"
    )


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
    and indices=arange(n) equal to indices=None bit for bit.

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
    assert np.array_equal(gradient_sum(cfg, data, w, np.arange(n)), got)


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
