"""Slow reference implementations the tests compare against.

Everything here is deliberately written as plain scalar loops (or textbook
closed forms) and stays independent of the package's vectorized code paths,
except `reference_correction`, the correction loop with its approximate
step written out term by term, which reuses the package's pair buffer.
"""

import csv
import math

import numpy as np


def per_sample_grad(kind, l2, x, y, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    z = sum(float(a) * float(b) for a, b in zip(x, w))
    if kind == "logistic":
        m = y * z
        # math.exp(-m) overflows below m = -709; e^m / (1 + e^m) is the same value
        s = 1.0 / (1.0 + math.exp(-m)) if m >= 0 else math.exp(m) / (1.0 + math.exp(m))
        coeff = (s - 1.0) * y
    else:
        coeff = z - y
    return np.array([coeff * float(a) + l2 * float(b) for a, b in zip(x, w)])


def loss_scalar(kind, l2, X, y, w):
    total = 0.0
    for i in range(len(y)):
        z = sum(float(a) * float(b) for a, b in zip(X[i], w))
        if kind == "logistic":
            total += math.log(1.0 + math.exp(-y[i] * z))
        else:
            total += 0.5 * (z - y[i]) ** 2
    reg = 0.5 * l2 * sum(float(b) ** 2 for b in w)
    return total / len(y) + reg


def subset_gradient_sum(cfg, data, w, indices):
    """Sum over the rows `indices` of per-sample gradients, l2*w included,
    one row at a time; summing over every row gives n * full gradient."""
    total = np.zeros(data.p)
    for i in indices:
        total += per_sample_grad(cfg.kind, cfg.l2, data.features[i], data.labels[i], w)
    return total


def grad_scalar(kind, l2, X, y, w):
    acc = np.zeros(len(w))
    for i in range(len(y)):
        acc += per_sample_grad(kind, 0.0, X[i], y[i], w)
    return acc / len(y) + l2 * np.asarray(w, dtype=float)


def schur_complement(dws, dgs):
    """C = sigma*W'W + L D^-1 L', the matrix whose Cholesky factor is the
    compact form's SPD test, built with np.tril and np.diag."""
    Wt = np.array(dws)
    Gt = np.array(dgs)
    sigma = float(Gt[-1] @ Wt[-1]) / float(Wt[-1] @ Wt[-1])
    WtG = Wt @ Gt.T
    Ltri = np.tril(WtG, -1)
    return sigma * (Wt @ Wt.T) + (Ltri / np.diag(WtG)) @ Ltri.T


def compact_factors(dws, dgs):
    """(Minv, Kt) of the compact quasi-Hessian form built with np.tril,
    np.diag and np.linalg, as the library first wrote it. Raises LinAlgError
    when the middle matrix is not SPD."""
    Wt = np.array(dws)
    Gt = np.array(dgs)
    sigma = float(Gt[-1] @ Wt[-1]) / float(Wt[-1] @ Wt[-1])
    WtG = Wt @ Gt.T
    D = np.diag(WtG)
    LDinv = np.tril(WtG, -1) / D
    J = np.linalg.cholesky(schur_complement(dws, dgs))
    Jinv = np.linalg.inv(J)
    F = np.concatenate([Jinv @ LDinv, Jinv], axis=1)
    Minv = F.T @ F
    Minv[:D.size, :D.size] -= np.diag(1.0 / D)
    return Minv, np.concatenate([Gt, sigma * Wt])


def recursive_B_apply(buf, v):
    """B @ v with B the dense p x p matrix of the rank-2 update recursion,
    oldest pair first, starting from sigma * I with sigma from the newest
    pair; the arbiter of the compact form in `deltagrad.lbfgs`."""
    if len(buf) == 0:
        raise ValueError("buffer is empty")
    v = np.asarray(v, dtype=np.float64)
    dWs, dGs = buf._W[:len(buf)], buf._G[:len(buf)]
    p = dWs[0].size
    sigma = float(dGs[-1] @ dWs[-1]) / float(dWs[-1] @ dWs[-1])
    B = sigma * np.eye(p)
    for s, y in zip(dWs, dGs):
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (y @ s)
    return B @ v


def inverse_apply(buf, v):
    """B^-1 @ v via the equivalent inverse recursion."""
    if len(buf) == 0:
        raise ValueError("buffer is empty")
    v = np.asarray(v, dtype=np.float64)
    dWs, dGs = buf._W[:len(buf)], buf._G[:len(buf)]
    p = dWs[0].size
    sigma = float(dGs[-1] @ dWs[-1]) / float(dWs[-1] @ dWs[-1])
    Binv = np.eye(p) / sigma
    eye = np.eye(p)
    for s, y in zip(dWs, dGs):
        ys = float(y @ s)
        left = eye - np.outer(s, y) / ys
        Binv = left @ Binv @ left.T + np.outer(s, s) / ys
    return Binv @ v


def fd_gradient(f, w, h=1e-6):
    w = np.asarray(w, dtype=float)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def ridge_solution(X, y, l2):
    """Minimizer of (1/2n)||Xw - y||^2 + (l2/2)||w||^2."""
    n, p = X.shape
    return np.linalg.solve(X.T @ X / n + l2 * np.eye(p), X.T @ y / n)


def laplace_cdf(x, scale):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def log_density_ratio_bound(w_a, w_b, scale):
    """Analytic sup over outputs of |log p_a(z) - log p_b(z)| for the
    Laplace mechanism applied at w_a vs w_b: the l1 gap over the scale."""
    return float(np.abs(np.asarray(w_a) - np.asarray(w_b)).sum() / scale)


def ks_statistic(samples, cdf):
    s = np.sort(samples)
    n = s.size
    theo = cdf(s)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return max(upper, lower)


def block_gradient_sum(kind, X, y, w, rows):
    """Data-part gradient sum as the serial row-block loop computes it: each
    block of `rows` rows gives X_b.T @ a(X_b @ w), and the block sums are
    added into zeros in block order. The parallel kernel must match it bit
    for bit. For iterates as rows w (L, p) each block gives a(w @ X_b.T) @ X_b
    with the labels weighing every margin and coefficient, which the kernel
    over signed rows must match bit for bit."""
    g = np.zeros(w.shape)
    with np.errstate(over="ignore"):
        for lo in range(0, len(y), rows):
            Xb, yb = X[lo:lo + rows], y[lo:lo + rows]
            z = w @ Xb.T if w.ndim == 2 else Xb @ w
            a = yb / (-1.0 - np.exp(yb * z)) if kind == "logistic" else z - yb
            g += a @ Xb if w.ndim == 2 else Xb.T @ a
    return g


def write_libsvm(data, path):
    """Inverse of parse_libsvm; zero entries are omitted."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(data.n):
            label = int(data.labels[i])
            cols = np.nonzero(data.features[i])[0]
            feats = " ".join(f"{j + 1}:{float(data.features[i, j])!r}" for j in cols)
            fh.write(f"{label:+d} {feats}\n".rstrip() + "\n")


def write_csv(data, path, label_column="label"):
    """Inverse of parse_csv: a header row, then the label and the features
    of each row, every value written with repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([label_column] + [f"x{j}" for j in range(data.p)])
        for i in range(data.n):
            writer.writerow([repr(float(data.labels[i]))]
                            + [repr(float(v)) for v in data.features[i]])


def reference_correction(obj, params, grads, etas, cfg, changes, sign, *, batches=None,
                         guards=False):
    """The correction loop of one request before its approximate step was
    fused and before requests ran as a wavefront (`reference_stream` runs
    it request by request): the same schedule, guards, pair updates and
    counters, with the approximate step written out term by term,

        n/(n + sign*r) * (B v + cached_grad) + sign * (changed_sum + r*l2*w)/(n + sign*r),

    B v from `quasi_hvp` at every approximate step and the changed rows'
    sum from their own gradient call."""
    from deltagrad.engine import MODE_LABELS, SMOOTHNESS_LIMIT, expected_full_gradient_evals
    from deltagrad.errors import FactorizationError
    from deltagrad.lbfgs import CurvaturePairBuffer, quasi_hvp
    from deltagrad.trainer import _check_finite

    T = grads.shape[0]
    n, p, l2 = obj.n, obj.p, obj.l2
    last_anchor = cfg.burn_in
    buf = CurvaturePairBuffer(cfg.history_size)
    iw = params[0].copy()
    zero = np.zeros(p)
    trace = []
    events = dict.fromkeys(("convexity_guard_events", "smoothness_guard_events",
                            "cholesky_fallbacks", "empty_buffer_fallbacks"), 0)
    batch = None
    for t in range(T):
        change = next(changes)
        r = 0 if change is None else change.n
        if batches is not None:
            batch = batches[t]
            n = batch.size
            if n == r:
                trace.append("skipped-empty-batch")
                params[t] = iw
                grads[t] = zero
                continue
        denom = n + sign * r
        g_t = grads[t].copy()
        v = iw - params[t]
        scheduled = t <= cfg.burn_in or (t - last_anchor) % cfg.period == 0
        label = "explicit" if scheduled else "approximated"
        Bv = None
        if not scheduled:
            if not np.count_nonzero(v):
                Bv = zero
            elif len(buf) == 0:
                label = "fallback"
                events["empty_buffer_fallbacks"] += 1
            else:
                try:
                    Bv = quasi_hvp(buf, v)
                except FactorizationError:
                    label = "fallback"
                    events["cholesky_fallbacks"] += 1
                if (Bv is not None and guards
                        and np.linalg.norm(Bv) >= SMOOTHNESS_LIMIT * np.linalg.norm(v)):
                    Bv = None
                    label = "fallback"
                    events["smoothness_guard_events"] += 1
        if Bv is None:
            if guards:
                last_anchor = t
            S = (obj if batch is None else obj.rows(batch)).data_grad_sum(iw)
            dg = S / n + l2 * iw - g_t
            if guards and np.count_nonzero(v) and float(dg @ v) <= 0.0:
                events["convexity_guard_events"] += 1
            else:
                buf.append_pair(v, dg)
            changed = change.data_grad_sum(iw) if r else zero
            g = (sign * changed + S) / denom + l2 * iw
        else:
            extra = (change.data_grad_sum(iw) + r * l2 * iw) if r else zero
            g = (Bv + g_t) * (n / denom) + extra / (sign * denom)
        nxt = iw - etas[t] * g
        _check_finite(t, nxt, iw)
        grads[t] = g
        params[t] = iw
        iw = nxt
        trace.append(label)
    params[T] = iw
    counts = {label: trace.count(label) for label in MODE_LABELS}
    return iw, trace, {
        **counts,
        "full_gradient_evals": counts["explicit"] + counts["fallback"],
        "scheduled_full_gradient_evals": expected_full_gradient_evals(
            T, cfg.burn_in, cfg.period),
        "pair_rejections": buf.rejected,
        **events,
    }


def reference_stream(data, history, requests, cfg, *, guards=False, minibatch=False):
    """`reference_correction` applied request by request, each over the
    sample set the requests before it left: the rows of `data` less the
    deleted ones, then the added rows, in id order, as a new dataset per
    request. Request k's change term is gathered from that set (an added
    row is an objective of its own), and a minibatch history's one request
    masks each recorded batch. Returns the corrected params and gradients,
    the last request's mode trace and the counters summed over the
    requests."""
    import itertools

    from deltagrad import Dataset, Objective

    loss = history.config.loss
    params, grads = history.params.copy(), history.gradients.copy()
    etas = [history.config.eta_at(t) for t in range(history.iterations)]
    batches = history.batches() if minibatch else None
    X, y, ids, next_id = data.features, data.labels, np.arange(data.n), data.n
    trace, totals = [], {}
    for req in requests:
        obj = Objective(loss, Dataset(X, y))
        if req.direction == "add":
            sign = 1.0
            changes = itertools.repeat(
                Objective(loss, Dataset(req.features, req.labels)) if req.r else None)
            X, y = np.vstack([X, req.features]), np.concatenate([y, req.labels])
            ids = np.concatenate([ids, np.arange(next_id, next_id + req.r)])
            next_id += req.r
        else:
            sign = -1.0
            pos = np.searchsorted(ids, req.indices)
            if batches is None:
                changes = itertools.repeat(obj.rows(pos))
            else:
                deleted = np.zeros(len(ids), dtype=bool)
                deleted[pos] = True
                changes = (obj.rows(batch[deleted[batch]]) for batch in batches)
            keep = np.ones(len(ids), dtype=bool)
            keep[pos] = False
            X, y, ids = X[keep], y[keep], ids[keep]
        _, trace, diag = reference_correction(obj, params, grads, etas, cfg, changes, sign,
                                              batches=batches, guards=guards)
        for key, val in diag.items():
            totals[key] = totals.get(key, 0) + val
    return params, grads, trace, totals
