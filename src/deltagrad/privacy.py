"""Approximate-deletion noising via the Laplace mechanism.

The noise scale is calibrated from a worst-case bound on the distance
between the incrementally updated optimum and the truly retrained one. The
bound reads only r and what `estimate_constants` reads from a dataset and
the cache trained on it. The trajectory's constants are empirical
estimates, so the scale is a best-effort calibration, not a certified
supremum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PrivacyBoundError
from .models import (
    Dataset,
    hessian_vector_product,
    per_sample_gradient_norms,
    smoothness_bound,
)
from .trainer import TrainingHistory, verify_fingerprint

DEFAULT_INDEPENDENCE = 0.2    # empirical floor on the normalized-update singular value


@dataclass(frozen=True)
class ConstantEstimates:
    """The problem constants of a dataset and the cache trained on it:
    everything `delta_bound` reads besides the deletion count r."""

    n: int                     # samples
    p: int                     # features
    eta: float                 # learning rate of the last cached step
    mu: float                  # strong convexity (the l2 coefficient)
    smoothness: float          # per-sample gradient Lipschitz bound
    grad_bound: float          # max per-sample gradient norm over cached iterates
    hessian_lipschitz: float   # spectral Lipschitz constant of the Hessian map
    amplification: float       # quasi-Hessian error amplification factor

    @property
    def m1(self) -> float:
        return 2.0 * self.grad_bound / self.mu


def _spectral_norm_diff(cfg, data, w_a, w_b, tol=1e-6, max_iter=200, seed=0):
    """Power iteration for || H(w_a) - H(w_b) ||_2 (symmetric operator)."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=data.p)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        y = hessian_vector_product(cfg, data, w_a, v) - hessian_vector_product(
            cfg, data, w_b, v
        )
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        v = y / norm
        if abs(norm - lam) <= tol * max(norm, 1e-30):
            return norm
        lam = norm
    return lam


def amplification_factor(mu: float, smoothness: float, history_size: int,
                         hessian_lipschitz: float, independence: float) -> float:
    """Error amplification of the quasi-Hessian against the true mean Hessian.

    Built from the conditioning bounds of the rank-2 update: eigenvalues of
    the quasi-Hessian lie in [K1, K2] with K2 = (m+1)L and K1 the closed-form
    lower bound; the per-pair growth rate is e = (L(L+1) + K2*L)/(mu*K1).
    """
    L, m = smoothness, history_size
    base = (1.0 + L / mu) ** (2 * m)
    k1 = 1.0 / (base * (L / mu) + (1.0 - base) / (1.0 - (1.0 + L / mu) ** 2) / mu)
    k2 = (m + 1) * L
    e = (L * (L + 1.0) + k2 * L) / (mu * k1)
    return hessian_lipschitz * np.sqrt(m) * ((1.0 + e) ** m - 1.0) / independence + hessian_lipschitz


def estimate_constants(data: Dataset, history: TrainingHistory, history_size: int = 2,
                       independence: float = DEFAULT_INDEPENDENCE, pair_budget: int = 100,
                       seed: int = 0) -> ConstantEstimates:
    """Measure (mu, L, c2, c0) from the cached trajectory, under its loss and
    on `data`, which must be its training set, and derive the amplification.

    mu is the l2 coefficient (an error if zero: no strong convexity). The
    gradient bound scans every (sample, iterate) pair. The Hessian Lipschitz
    constant is 0 for ridge (constant Hessian) and otherwise the max over
    `pair_budget` random iterate pairs of ||H(w_a)-H(w_b)|| / ||w_a-w_b||,
    spectral norms via power iteration (tol 1e-6).
    """
    verify_fingerprint(history, data)
    cfg = history.config.loss
    if cfg.l2 <= 0.0:
        raise PrivacyBoundError("l2 must be > 0: the bound needs strong convexity")
    mu = cfg.l2
    L = smoothness_bound(cfg, data)
    grad_bound = 0.0
    for w in history.params:
        grad_bound = max(grad_bound, float(per_sample_gradient_norms(cfg, data, w).max()))

    if cfg.kind == "ridge":
        c0 = 0.0
    else:
        rng = np.random.default_rng(seed)
        iters = history.params
        c0 = 0.0
        if iters.shape[0] >= 2:
            for _ in range(pair_budget):
                a, b = rng.choice(iters.shape[0], size=2, replace=False)
                gap = float(np.linalg.norm(iters[a] - iters[b]))
                if gap == 0.0:
                    continue
                c0 = max(c0, _spectral_norm_diff(cfg, data, iters[a], iters[b]) / gap)

    A = amplification_factor(mu, L, history_size, c0, independence)
    return ConstantEstimates(
        n=data.n,
        p=data.p,
        eta=history.config.eta_at(max(history.iterations - 1, 0)),
        mu=mu,
        smoothness=L,
        grad_bound=grad_bound,
        hessian_lipschitz=c0,
        amplification=A,
    )


def delta_bound(est: ConstantEstimates, r: int) -> float:
    """Upper bound on sqrt(p) * || retrained optimum - corrected optimum ||
    after r deletions.

        delta = sqrt(p) * A * M1^2 * r^2
                / ( eta * (mu/2 - r*mu/(n-r) - c0*M1*r/(2n))^2 * (n-r) * (n/2-r) )

    Raises PrivacyBoundError for r < 0 or a non-positive n, p, eta or mu,
    and when the denominator is not positive (the deleted fraction is too
    large for the bound to hold).
    """
    n = est.n
    if r < 0 or n <= 0 or est.p <= 0 or est.eta <= 0.0 or est.mu <= 0.0:
        raise PrivacyBoundError("n, p, eta, mu must be positive and r >= 0")
    if n - r <= 0 or n / 2.0 - r <= 0:
        raise PrivacyBoundError("deletion fraction too large for privacy bound")
    gap = (
        0.5 * est.mu
        - (r / (n - r)) * est.mu
        - est.hessian_lipschitz * est.m1 * r / (2.0 * n)
    )
    if gap <= 0.0:
        raise PrivacyBoundError("deletion fraction too large for privacy bound")
    num = np.sqrt(est.p) * est.amplification * est.m1 ** 2 * r ** 2
    den = est.eta * gap ** 2 * (n - r) * (n / 2.0 - r)
    return float(num / den)


def sample_laplace(size: int, scale: float, seed: int) -> np.ndarray:
    """Inverse-CDF sampling: X = -b * sgn(U) * ln(1 - 2|U|), U ~ U(-1/2, 1/2)."""
    if scale <= 0.0:
        raise PrivacyBoundError("noise scale must be > 0")
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    while True:                # u = 0 would put U on the open boundary
        zeros = u == 0.0
        if not zeros.any():
            break
        u[zeros] = rng.random(int(zeros.sum()))
    centered = u - 0.5
    return -scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def laplace_noise(w: np.ndarray, scale: float, seed: int) -> np.ndarray:
    """w plus i.i.d. Laplace(0, scale) noise per coordinate, reproducible
    under the seed."""
    w = np.asarray(w, dtype=np.float64)
    return w + sample_laplace(w.size, scale, seed)


def log_density_ratio_bound(w_a, w_b, scale: float) -> float:
    """Analytic sup over outputs of |log p_a(z) - log p_b(z)| for the
    Laplace mechanism applied at w_a vs w_b: the l1 gap over the scale."""
    if scale <= 0.0:
        raise PrivacyBoundError("noise scale must be > 0")
    return float(np.abs(np.asarray(w_a) - np.asarray(w_b)).sum() / scale)
