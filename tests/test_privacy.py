import numpy as np
import pytest

from deltagrad import (
    Dataset,
    LossConfig,
    ConstantEstimates,
    FingerprintMismatchError,
    PrivacyBoundError,
    TrainConfig,
    delta_bound,
    estimate_constants,
    laplace_noise,
    sample_laplace,
    train_gd,
)
from oracles import ks_statistic, laplace_cdf, log_density_ratio_bound, per_sample_grad


def make_params(r=10, **kw):
    """(estimates, r) for delta_bound; grad_bound=0.5 with mu=1 gives m1=1."""
    base = dict(n=1000, p=4, eta=0.1, mu=1.0, smoothness=1.0, grad_bound=0.5,
                hessian_lipschitz=0.0, amplification=1.0)
    base.update(kw)
    return ConstantEstimates(**base), r


# ------------------------------------------------------------- constants

def test_ridge_has_constant_hessian(ridge_data, ridge_history):
    est = estimate_constants(ridge_data, ridge_history)
    assert est.hessian_lipschitz == 0.0
    assert est.mu == 0.1


def test_logistic_smoothness_formula():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 5))
    X /= np.linalg.norm(X, axis=1, keepdims=True)      # all rows unit norm
    y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
    data = Dataset(X, y)
    cfg = TrainConfig(loss=LossConfig("logistic", 0.01), iterations=5,
                      batch_size=30, eta_schedule=((0, 0.1),))
    hist = train_gd(data, cfg)
    est = estimate_constants(data, hist)
    assert est.smoothness == pytest.approx(0.26, abs=1e-12)


def test_gradient_bound_matches_bruteforce(logistic_data, logistic_history):
    cfg = logistic_history.config.loss
    est = estimate_constants(logistic_data, logistic_history)
    brute = 0.0
    for t in range(logistic_history.params.shape[0]):
        w = logistic_history.params[t]
        for i in range(logistic_data.n):
            g = per_sample_grad(cfg.kind, cfg.l2, logistic_data.features[i],
                                logistic_data.labels[i], w)
            brute = max(brute, float(np.linalg.norm(g)))
    assert est.grad_bound == pytest.approx(brute, rel=1e-10)


def test_hessian_lipschitz_positive_for_logistic(logistic_data, logistic_history):
    est = estimate_constants(logistic_data, logistic_history)
    assert est.hessian_lipschitz > 0.0
    assert np.isfinite(est.amplification)


def test_constants_require_regularization(logistic_data):
    cfg = TrainConfig(loss=LossConfig("logistic", 0.0), iterations=5,
                      batch_size=logistic_data.n, eta_schedule=((0, 0.1),))
    with pytest.raises(PrivacyBoundError):
        estimate_constants(logistic_data, train_gd(logistic_data, cfg))


def test_constants_require_the_training_dataset(logistic_data, logistic_history):
    other = Dataset(logistic_data.features + 1.0, logistic_data.labels)
    with pytest.raises(FingerprintMismatchError):
        estimate_constants(other, logistic_history)


@pytest.mark.parametrize("kw", [{"history_size": 0}, {"history_size": -1},
                                {"independence": 0.0}, {"independence": -0.2},
                                {"independence": np.nan}, {"independence": np.inf}])
def test_constants_need_a_history_size_and_a_finite_positive_independence(
        logistic_data, logistic_history, kw):
    with pytest.raises(PrivacyBoundError):
        estimate_constants(logistic_data, logistic_history, **kw)


# ------------------------------------------------------------ delta bound

def test_delta_zero_deletions():
    assert delta_bound(*make_params(r=0)) == 0.0


def test_delta_matches_hand_evaluation():
    # p=4, A=1, M1=1, r=10, eta=0.1, mu=1, c0=0, n=1000 evaluated exactly
    # with rational arithmetic: 7920/461041
    assert delta_bound(*make_params()) == pytest.approx(0.017178515576705758, abs=1e-12)


def test_delta_strictly_increasing_in_r():
    values = [delta_bound(*make_params(r=r)) for r in range(0, 120, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_delta_scales_with_sqrt_p():
    assert delta_bound(*make_params(p=16)) == pytest.approx(
        2.0 * delta_bound(*make_params(p=4)), rel=1e-12
    )


def test_delta_denominator_guard():
    with pytest.raises(PrivacyBoundError, match="too large"):
        delta_bound(*make_params(r=400))        # r/(n-r) term kills the gap
    with pytest.raises(PrivacyBoundError, match="too large"):
        delta_bound(*make_params(r=600))        # n/2 - r <= 0


@pytest.mark.parametrize("amplification", [np.inf, np.nan, 1e308])
def test_delta_must_be_finite(amplification):
    # 1e308 overflows the numerator to inf
    with pytest.raises(PrivacyBoundError, match="not finite"):
        delta_bound(*make_params(amplification=amplification))


# --------------------------------------------------------------- sampler

def test_noise_deterministic_under_seed():
    w = np.arange(5, dtype=float)
    a = laplace_noise(w, 0.3, seed=42)
    b = laplace_noise(w, 0.3, seed=42)
    c = laplace_noise(w, 0.3, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_requires_positive_scale():
    with pytest.raises(PrivacyBoundError):
        laplace_noise(np.zeros(3), 0.0, seed=0)


@pytest.mark.parametrize("scale", [np.inf, np.nan])
def test_noise_requires_a_finite_scale(scale):
    # an infinite scale gave +-inf noise, a NaN scale NaN noise
    with pytest.raises(PrivacyBoundError, match="finite"):
        sample_laplace(3, scale, seed=0)
    with pytest.raises(PrivacyBoundError, match="finite"):
        laplace_noise(np.zeros(3), scale, seed=0)


def test_sampler_moments():
    b = 0.7
    x = sample_laplace(1_000_000, b, seed=0)
    assert abs(x.mean()) <= 0.01 * b
    assert abs(np.abs(x).mean() - b) <= 0.02 * b       # E|X| = b


def test_sampler_ks_statistic():
    b = 1.3
    x = sample_laplace(1_000_000, b, seed=1)
    assert ks_statistic(x, lambda t: laplace_cdf(t, b)) <= 0.002


# ----------------------------------------------------------- audit chain

def test_density_ratio_bounded_by_epsilon():
    rng = np.random.default_rng(5)
    p, epsilon = 9, 0.8
    delta = 0.05
    w_a = rng.normal(size=p)
    gap = rng.normal(size=p)
    w_b = w_a + gap / np.linalg.norm(gap) * (delta / np.sqrt(p)) * 0.999
    scale = delta / epsilon
    # || w_a - w_b ||_1 <= sqrt(p) ||.||_2 <= delta, so the ratio stays under eps
    assert log_density_ratio_bound(w_a, w_b, scale) <= epsilon


def test_density_ratio_is_exact_l1_formula():
    w_a = np.array([0.0, 1.0, -2.0])
    w_b = np.array([0.5, 1.0, -1.0])
    assert log_density_ratio_bound(w_a, w_b, 0.5) == pytest.approx(1.5 / 0.5)


def test_params_validation():
    with pytest.raises(PrivacyBoundError):
        delta_bound(*make_params(mu=0.0))
