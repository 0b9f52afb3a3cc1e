import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltagrad import CurvaturePairBuffer, FactorizationError, lbfgs, quasi_hvp
from oracles import compact_factors, inverse_apply, recursive_B_apply, schur_complement


def spd_pairs(rng, p, m, cond=1.0):
    A = rng.normal(size=(p, p))
    H = A @ A.T + cond * np.eye(p)
    dws = [rng.normal(size=p) for _ in range(m)]
    return H, dws, [H @ s for s in dws]


def filled_buffer(rng, p, m, capacity=None):
    H, dws, dgs = spd_pairs(rng, p, m)
    buf = CurvaturePairBuffer(capacity or m)
    for s, y in zip(dws, dgs):
        assert buf.append_pair(s, y)
    return buf, H, dws, dgs


def test_append_and_eviction_semantics():
    buf = CurvaturePairBuffer(2)
    e = np.eye(3)
    assert buf.append_pair(e[0], e[0])
    assert len(buf) == 1
    buf.append_pair(e[1], e[1])
    buf.append_pair(e[2], e[2])
    assert len(buf) == 2
    # oldest entry evicted
    assert np.array_equal(buf._W[:len(buf)], e[1:]) and np.array_equal(buf._G[:len(buf)], e[1:])


def test_negative_curvature_rejected():
    buf = CurvaturePairBuffer(2)
    dw = np.array([1.0, -2.0])
    assert not buf.append_pair(dw, -dw)
    assert len(buf) == 0 and buf.rejected == 1


def test_zero_pair_rejected():
    buf = CurvaturePairBuffer(2)
    assert not buf.append_pair(np.zeros(3), np.zeros(3))
    assert buf.rejected == 1


def test_quasi_hvp_zero_vector():
    buf, *_ = filled_buffer(np.random.default_rng(0), 5, 2)
    assert np.array_equal(quasi_hvp(buf, np.zeros(5)), np.zeros(5))


def test_identity_pairs_give_identity_operator():
    rng = np.random.default_rng(1)
    buf = CurvaturePairBuffer(3)
    for _ in range(3):
        s = rng.normal(size=6)
        buf.append_pair(s, s)
    for _ in range(5):
        v = rng.normal(size=6)
        np.testing.assert_allclose(quasi_hvp(buf, v), v, atol=1e-12)
        np.testing.assert_allclose(inverse_apply(buf, v), v, atol=1e-12)


def test_compact_matches_recursive_small():
    rng = np.random.default_rng(2)
    buf, H, dws, dgs = filled_buffer(rng, 6, 2)
    for _ in range(10):
        v = rng.normal(size=6)
        np.testing.assert_allclose(quasi_hvp(buf, v), recursive_B_apply(buf, v),
                                   atol=1e-8)


def test_compact_matches_recursive_randomized():
    rng = np.random.default_rng(3)
    for _ in range(60):
        p = int(rng.integers(2, 51))
        m = int(rng.integers(1, 6))
        buf, *_ = filled_buffer(rng, p, m)
        v = rng.normal(size=p)
        a = quasi_hvp(buf, v)
        b = recursive_B_apply(buf, v)
        assert np.max(np.abs(a - b)) <= 1e-8


def test_secant_after_every_insert():
    rng = np.random.default_rng(4)
    H, dws, dgs = spd_pairs(rng, 8, 6)
    buf = CurvaturePairBuffer(3)
    for s, y in zip(dws, dgs):
        buf.append_pair(s, y)
        resid = np.linalg.norm(quasi_hvp(buf, s) - y)
        assert resid <= 1e-10 * np.linalg.norm(y)


def test_single_pair_secant_and_inverse():
    buf = CurvaturePairBuffer(1)
    rng = np.random.default_rng(5)
    dw = rng.normal(size=4)
    dg = 2.0 * dw
    buf.append_pair(dw, dg)
    np.testing.assert_allclose(quasi_hvp(buf, dw), dg, rtol=1e-12)
    np.testing.assert_allclose(inverse_apply(buf, dg), dw, rtol=1e-12)


def test_inverse_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        buf, *_ = filled_buffer(rng, 7, 3)
        v = rng.normal(size=7)
        np.testing.assert_allclose(inverse_apply(buf, quasi_hvp(buf, v)), v, atol=1e-8)


def test_positive_definite_and_bounded():
    # pairs from an actual gradient map keep B inside [K1, (m+1)L] spectrally;
    # here H has known largest eigenvalue so the cap is checkable directly
    rng = np.random.default_rng(7)
    p, m = 10, 3
    H, dws, dgs = spd_pairs(rng, p, m)
    L = np.linalg.eigvalsh(H)[-1]
    buf = CurvaturePairBuffer(m)
    for s, y in zip(dws, dgs):
        buf.append_pair(s, y)
    for _ in range(100):
        z = rng.normal(size=p)
        quad = z @ quasi_hvp(buf, z)
        assert quad > 0.0
        assert quad <= (m + 1) * L * (z @ z) * (1 + 1e-9)


def test_operator_symmetry():
    rng = np.random.default_rng(8)
    buf, *_ = filled_buffer(rng, 9, 4, capacity=4)
    for _ in range(20):
        u = rng.normal(size=9)
        v = rng.normal(size=9)
        left = v @ quasi_hvp(buf, u)
        right = u @ quasi_hvp(buf, v)
        assert abs(left - right) <= 1e-10 * max(abs(left), 1.0)


def test_newest_secant_exact_on_quadratic_pairs():
    # With a constant Hessian the newest pair's secant equation is exact;
    # older pairs recover it only as the stored directions become collinear
    # (the trajectory regime), which is what the drift-alignment test checks.
    rng = np.random.default_rng(9)
    H, dws, dgs = spd_pairs(rng, 6, 3)
    buf = CurvaturePairBuffer(3)
    for s, y in zip(dws, dgs):
        buf.append_pair(s, y)
    np.testing.assert_allclose(quasi_hvp(buf, dws[-1]), dgs[-1], rtol=1e-10)


def test_near_collinear_quadratic_pairs_recover_all_secants():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(6, 6))
    H = A @ A.T + np.eye(6)
    base = rng.normal(size=6)
    buf = CurvaturePairBuffer(3)
    dws = [0.9 ** k * base + 1e-6 * rng.normal(size=6) for k in range(3)]
    for s in dws:
        buf.append_pair(s, H @ s)
    for s in dws:
        resid = np.linalg.norm(quasi_hvp(buf, s) - H @ s)
        assert resid <= 1e-5 * np.linalg.norm(H @ s)


def test_cholesky_failure_signals_fallback(monkeypatch):
    # a pivot of the float Cholesky factorization that is not positive, NaN
    # included, raises FactorizationError; injected here by overwriting one
    # diagonal entry of the Schur complement C the routine is given
    real = lbfgs._cholesky_inverse
    rng = np.random.default_rng(11)
    for k in (0, 1):
        for value in (0.0, -1.0, np.nan):
            def poisoned(C, k=k, value=value):
                C = [list(row) for row in C]
                C[k][k] = value
                return real(C)

            buf, *_ = filled_buffer(rng, 5, 2)
            monkeypatch.setattr(lbfgs, "_cholesky_inverse", poisoned)
            with pytest.raises(FactorizationError, match=f"pivot {k}"):
                quasi_hvp(buf, rng.normal(size=5))
            monkeypatch.setattr(lbfgs, "_cholesky_inverse", real)
            quasi_hvp(buf, rng.normal(size=5))


@pytest.mark.parametrize("m", range(1, 9))
def test_float_and_linalg_factors_agree(m):
    # the buffer computes F = [E, J^-1] in floats up to FLOAT_FACTOR_MAX_M
    # pairs and through np.linalg beyond; both give the same matrix to
    # roundoff (well-conditioned pairs) and both reject a C that is not SPD
    # (np.linalg takes a stack of buffers; here a stack of one)
    rng = np.random.default_rng(m)
    buf, *_ = filled_buffer(rng, 7, m)
    W, G = buf._W[:m], buf._G[:m]
    grams = W @ np.concatenate([G, W]).T
    sigma = float(grams[-1, m - 1] / grams[-1, -1])
    F, failed = lbfgs._float_factors(grams, sigma)
    assert F.shape == (m, 2 * m) and failed == -1
    # np.linalg.inv leaves roundoff above the diagonal of J^-1, where the
    # float routine has exact zeros
    F_linalg, failed = lbfgs._linalg_factors(grams[None], np.array([sigma]))
    assert np.allclose(F, F_linalg[0], rtol=1e-9, atol=1e-12 * np.abs(F).max())
    assert failed.tolist() == [-1]
    # C = -sigma W'W + L D^-1 L' has C[0, 0] < 0: both name pivot 0
    assert lbfgs._float_factors(grams, -sigma) == (None, 0)
    assert lbfgs._linalg_factors(grams[None], np.array([-sigma]))[1].tolist() == [0]


def test_buffer_picks_the_float_factors_up_to_the_limit(monkeypatch):
    calls = []
    for name in ("_float_factors", "_linalg_factors"):
        real = getattr(lbfgs, name)
        monkeypatch.setattr(lbfgs, name,
                            lambda g, s, name=name, real=real: calls.append(name) or real(g, s))
    limit = lbfgs.FLOAT_FACTOR_MAX_M
    buf, *_ = filled_buffer(np.random.default_rng(3), 6, limit + 1)
    buf.factorization()
    buf, *_ = filled_buffer(np.random.default_rng(3), 6, limit)
    buf.factorization()
    assert calls == ["_linalg_factors", "_float_factors"]


def test_factorization_snapshot_is_frozen():
    # a snapshot owns its arrays: later inserts and evictions, which shift
    # the buffer's preallocated rows, leave it unchanged; every accepted
    # insert gives a new snapshot, a rejected one keeps the old
    rng = np.random.default_rng(12)
    H, dws, dgs = spd_pairs(rng, 6, 7)
    buf = CurvaturePairBuffer(3)
    v = rng.normal(size=6)
    snapshots = []
    for s, y in zip(dws, dgs):
        assert buf.append_pair(s, y)
        fact = buf.factorization()
        assert all(fact is not old for old, *_ in snapshots)
        assert buf.factorization() is fact
        snapshots.append((fact, fact.Kt.copy(), fact.Minv.copy(), fact.MinvKt.copy(),
                          fact.apply(v)))
    assert not buf.append_pair(dws[0], -dgs[0])
    assert buf.factorization() is snapshots[-1][0]
    for fact, Kt, Minv, MinvKt, Bv in snapshots:
        assert np.array_equal(fact.Kt, Kt) and np.array_equal(fact.Minv, Minv)
        assert np.array_equal(fact.MinvKt, MinvKt) and np.array_equal(fact.apply(v), Bv)


def test_empty_buffer_rejected():
    buf = CurvaturePairBuffer(2)
    with pytest.raises(ValueError):
        quasi_hvp(buf, np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 5),
    spare=st.integers(0, 4),
    evicted=st.integers(0, 3),
    p=st.integers(1, 30),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factorization_matches_tril_diag_oracle(m, spare, evicted, p, noise, seed):
    # up to m pairs (a noisy pair may fail the curvature test) in a capacity
    # of m + spare (at most 5), after `evicted` older pairs were pushed out
    # of a full buffer; Minv and Kt must agree with the np.tril/np.diag/
    # np.linalg formulation and B v with the rank-2 recursion to within
    # roundoff, or both formulations must fail Cholesky
    rng = np.random.default_rng(seed)
    capacity = min(m + spare, 5)
    A = rng.normal(size=(p, p))
    H = A @ A.T + np.eye(p)
    buf = CurvaturePairBuffer(capacity)
    kept = []
    for _ in range(m + (evicted if m == capacity else 0)):
        s = rng.normal(size=p) * 10.0 ** rng.uniform(-3, 3)
        y = H @ s + noise * np.linalg.norm(H @ s) * rng.normal(size=p) / np.sqrt(p)
        if buf.append_pair(s, y):
            kept.append((s, y))
    if not kept:
        return
    dws, dgs = zip(*kept[-len(buf):])
    try:
        Minv, Kt = compact_factors(dws, dgs)
    except np.linalg.LinAlgError:
        with pytest.raises(FactorizationError):
            buf.factorization()
        return
    fact = buf.factorization()
    # The two sides sum each Gram entry w_i . g_j, a length-p dot product,
    # in another order: relative error up to p eps times its conditioning
    # |w_i|.|g_i| / w_i.g_i (the diagonal D enters M^-1 as 1/D). The float
    # Cholesky factor J and J^-1 add O(m eps), and C^-1 = J^-T J^-1
    # amplifies every relative error of C by its condition number.
    gram_cond = max(float(np.abs(s) @ np.abs(y) / (s @ y)) for s, y in zip(dws, dgs))
    cond_C = np.linalg.cond(schur_complement(dws, dgs))
    tol = 8 * (len(buf) + p) * np.finfo(float).eps * cond_C * gram_cond
    assert np.max(np.abs(fact.Minv - Minv)) <= tol * np.max(np.abs(Minv))
    assert np.max(np.abs(fact.Kt - Kt)) <= tol * np.max(np.abs(Kt))
    v = rng.normal(size=p)
    # B v = sigma*v - K M^-1 K' v: the error scales with the terms that cancel
    scale = (abs(fact.sigma) + np.linalg.norm(Kt, 2) ** 2 * np.linalg.norm(Minv, 2)) \
        * np.linalg.norm(v)
    assert np.linalg.norm(fact.apply(v) - recursive_B_apply(buf, v)) <= tol * scale
