"""Curvature-pair store and quasi-Hessian products in compact form.

A buffer stores up to `capacity` recent (dw, dg) pairs, where
dw = updated parameters minus cached parameters and dg is the matching
gradient difference. `quasi_hvp` evaluates B @ v, with B the BFGS-style
quasi-Hessian built from the stored pairs on top of B0 = sigma * I,
sigma = (dg_newest . dw_newest) / (dw_newest . dw_newest).

The compact form (Byrd, Nocedal & Schnabel, 1994) is

    B v = sigma*v - K @ M^-1 @ K' v,   K = [G, sigma*W],
    M = [[-D, L'], [L, sigma*W'W]],

with W'G = D + L + (strictly upper). The Schur complement of -D in M is
C = sigma*W'W + L D^-1 L' = J J'; its Cholesky factor J is the SPD test.
With E = J^-1 L D^-1 and F = [E, J^-1],

    M^-1 = F'F - [[D^-1, 0], [0, 0]].

The middle matrix uses L D^-1 L'; the plain L D L' variant does not
reproduce the rank-2 update recursion. The arbiter is the dense p x p
operator built by that recursion, `recursive_B_apply` in tests/oracles.py.

Cost of a build, with m pairs of length p: one product W [G; W]' gives
the Gram matrices W'G and W'W, O(m^2*p). C, its Cholesky factor J, the
triangular inverse J^-1 and F take O(m^3) operations. `_float_factors`
computes them as a few dozen float operations, with no np.linalg call:
in plain Python floats for one buffer, and for a stack of buffers with
each float an array over the stack, the same operations in the same
order, so a buffer's F has the same bits in a stack as alone. The float
work grows as m^3, and np.linalg (`cholesky`, `inv`, `_linalg_factors`)
takes over above one crossover, FLOAT_FACTOR_MAX_M pairs, for one buffer
and a stack alike: the pair count alone picks the route, so a buffer's F
has its lone bits in a stack of any size, and a stack of 3 or 4 pairs
pays for that with floats where np.linalg would be faster. Time of F in
us, floats / np.linalg, the route taken marked * (p = 20, 2-vCPU x86,
numpy 2.4, the least of 15 interleaved rounds of 200 calls):

    lanes    m = 1      m = 2      m = 3      m = 4      m = 5
      1     4* / 19    8* / 21   12* / 22   18* / 22    25 / 23*
      8    10* / 21   24* / 25   50* / 29   91* / 30   146 / 35*
     24     9* / 23   24* / 33   51* / 42   91* / 44   150 / 58*
     48    10* / 26   25* / 45   52* / 61   94* / 68   153 / 92*

At m = 20 one buffer took 0.9 ms in floats against 0.06 to 0.11 ms
through np.linalg.
Two more small products give M^-1 = F'F - [[D^-1, 0], [0, 0]] and
M^-1 K' (2m x p). A snapshot (`CompactFactorization`) carries sigma, K',
M^-1 and M^-1 K', so B v = sigma*v - (M^-1 K')'(K' v) is two small
matrix-vector products, O(m*p); the engines' approximate step reads K'
and M^-1 K' directly and folds the second product into its own.

One store keeps the pairs: `PairLanes`, a stack of buffers (lanes) with
the one curvature test (which also names the concave pairs that the
general engine counts), the one eviction and the one compact build. The
engines keep one lane per request in flight, and a single request is lane
0 of a one-lane `PairLanes`: a wave of requests inserts its pairs with one
call, and builds the factorizations of every lane that needs one with one
call, whose float operations, or np.linalg calls, take the whole stack.
`CurvaturePairBuffer`, one pair set with a cached snapshot of its
factorization that `quasi_hvp` applies, is lane 0 of a one-lane
`PairLanes` as well; the test oracles use it, the engines do not. At
every pair count each lane's factorization has the bits it has alone. A
lane whose C is not SPD is marked failed in its own lane only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FactorizationError

CURVATURE_FLOOR = 1e-12
# largest pair count whose F `_float_factors` computes, for one buffer and
# a stack alike (the crossover of the module docstring's table)
FLOAT_FACTOR_MAX_M = 4


@dataclass
class CompactFactorization:
    """Frozen ingredients of the compact quasi-Hessian representation:
    B v = sigma*v - MinvKt' (Kt v)."""

    sigma: float
    Kt: np.ndarray         # 2m x p, rows of K' = [G, sigma*W]'
    Minv: np.ndarray       # 2m x 2m inverse of the middle matrix
    MinvKt: np.ndarray     # 2m x p, M^-1 K'

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.sigma * v - self.MinvKt.T @ (self.Kt @ v)


def _cholesky_inverse(C: list) -> tuple:
    """J^-1 for the lower Cholesky factor J of the symmetric m x m matrix C,
    J J' = C, and the first pivot that is not positive, NaN included, or -1.
    C is given by the rows of its lower triangle, whose entries are floats,
    or arrays over a stack of matrices, and J^-1, lower triangular too, is
    returned the same way, the failed pivot as an array over the stack. A
    failed matrix goes on with a pivot of 1, and its entries are
    meaningless. Floats and arrays run the same operations in the same
    order, so each matrix of a stack gets the bits it gets alone."""
    sqrt = math.sqrt if isinstance(C[0][0], float) else np.sqrt
    J, failed = [], -1
    for i, Ci in enumerate(C):
        Ji = []
        for j, Jj in enumerate(J):
            s = Ci[j]
            for k in range(j):
                s = s - Ji[k] * Jj[k]
            Ji.append(s / Jj[j])
        pivot = Ci[i]
        for x in Ji:
            pivot = pivot - x * x
        ok = pivot > 0.0
        if ok is not True and (ok is False or not ok.all()):    # a float's test is a bool
            failed = np.where(np.logical_not(ok) & (failed < 0), i, failed)
            pivot = np.where(ok, pivot, 1.0)
        Ji.append(sqrt(pivot))
        J.append(Ji)
    Jinv = []
    for i, Ji in enumerate(J):
        d = 1.0 / Ji[i]
        Xi = []
        for j in range(i):
            s = 0.0
            for k in range(j, i):
                s = s + Ji[k] * Jinv[k][j]
            Xi.append(-s * d)
        Xi.append(d)
        Jinv.append(Xi)
    return Jinv, failed


def _float_factors(grams: np.ndarray, sigma: np.ndarray) -> tuple:
    """F = [E, J^-1] (B x m x 2m) of a stack of B buffers from their Gram
    rows [W'G | W'W] (grams, B x m x 2m: row i holds w_i . g_j, then
    w_i . w_j, for j = 0 .. m-1) and sigmas (B,), computed in floats with
    no np.linalg call, and each buffer's first failed pivot of C (-1 for
    none), whose F is then meaningless. One buffer runs on plain Python
    floats; a stack runs the same operations in the same order with each
    float an array over the stack, so every buffer's F has the bits it has
    alone."""
    B, m = grams.shape[:2]
    # g[i][j]: entry (i, j), a float or the stack's entries
    if B == 1:
        g, sigma = grams[0].tolist(), float(sigma[0])
    else:
        g = grams.transpose(1, 2, 0).copy()
    # rows of L D^-1 (strictly lower) and of the lower triangle of
    # C = sigma*W'W + L D^-1 L'
    LDinv, C = [], []
    for i, row in enumerate(g):
        Ri = [row[k] / g[k][k] for k in range(i)]
        Ci = []
        for j in range(i + 1):
            Lj = g[j]
            s = 0.0
            for k in range(j):
                s = s + Ri[k] * Lj[k]
            Ci.append(sigma * row[m + j] + s)
        LDinv.append(Ri)
        C.append(Ci)
    Jinv, failed = _cholesky_inverse(C)
    # rows of F: E[i][k] sums over k < j <= i
    F = []
    for i, Xi in enumerate(Jinv):
        Ei = []
        for k in range(m):
            s = 0.0
            for j in range(k + 1, i + 1):
                s = s + Xi[j] * LDinv[j][k]
            Ei.append(s)
        F.append(Ei + Xi)
    if B == 1:
        return (np.array([[row + [0.0] * (m - 1 - i) for i, row in enumerate(F)]]),
                np.array([failed]))
    out = np.zeros(grams.shape)
    for i, row in enumerate(F):
        for j, x in enumerate(row):
            if not isinstance(x, float):    # the floats are empty sums, 0.0
                out[:, i, j] = x
    return out, np.full(B, failed)


def _linalg_factors(grams: np.ndarray, sigma: np.ndarray) -> tuple:
    """`_float_factors` through np.linalg for a stack of B buffers: grams
    (B x m x 2m) and sigmas (B,) give F (B x m x 2m) and the first failed
    pivot of each (-1 for none), whose F is then meaningless. Each call
    costs a few np.linalg calls whatever the pair count, so it is the
    faster above the float crossover, from FLOAT_FACTOR_MAX_M + 1 pairs on."""
    B, m = grams.shape[:2]
    Ltri = grams[:, :, :m] * np.tri(m, k=-1)
    LDinv = Ltri / np.diagonal(grams, axis1=1, axis2=2)[:, None, :]
    C = sigma[:, None, None] * grams[:, :, m:] + LDinv @ Ltri.transpose(0, 2, 1)
    failed = np.full(B, -1)
    try:
        J = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        J = np.empty_like(C)
        for b, Cb in enumerate(C):
            try:
                J[b] = np.linalg.cholesky(Cb)
            except np.linalg.LinAlgError:
                # the float factorization names the pivot (the last, if at
                # roundoff it accepts what np.linalg refused)
                pivot = _cholesky_inverse([row[:i + 1] for i, row in enumerate(Cb.tolist())])[1]
                failed[b] = pivot if pivot >= 0 else m - 1
                J[b] = np.eye(m)
    Jinv = np.linalg.inv(J)
    return np.concatenate([Jinv @ LDinv, Jinv], axis=2), failed


class PairLanes:
    """`lanes` curvature-pair buffers of at most `capacity` pairs of length
    p each, stored as one array: GW[j] (2 x capacity x p) holds lane j's G
    and W, pairs oldest first, so that an eviction is one copy and a build
    one gather; G and W are its views, and `count` says how many pairs
    each lane holds. One call inserts a pair into each of several lanes,
    and one call builds the compact factorizations of several lanes.

    Inserts enforce the curvature condition dg.dw > CURVATURE_FLOOR*||dw||^2
    per lane; a rejected pair (dw = 0 included) leaves its lane unchanged.
    A full lane evicts its oldest pair: a count only grows until cleared.
    """

    def __init__(self, lanes: int, capacity: int, p: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.GW = np.zeros((lanes, 2, capacity, p))     # each lane's [G; W]
        self.G, self.W = self.GW[:, 0], self.GW[:, 1]
        self.count = np.zeros(lanes, dtype=np.intp)

    def clear(self, lanes):
        """Empty `lanes` (an index or slice)."""
        self.count[lanes] = 0

    def insert(self, lanes: np.ndarray, dW: np.ndarray, dG: np.ndarray) -> tuple:
        """Store the pair (dW[i], dG[i]) in lane lanes[i] (distinct lanes);
        returns which were accepted and which of the rejected are concave,
        dg.dw <= 0 with dw != 0 (a dw = 0 or a NaN product is not)."""
        dgdw = np.vecdot(dG, dW)
        ok = dgdw > CURVATURE_FLOOR * np.vecdot(dW, dW)
        acc, concave = lanes, np.zeros(len(ok), dtype=bool)
        # count_nonzero is one C call; ndarray.all and .any go through Python
        if np.count_nonzero(ok) < len(ok):
            concave = (dgdw <= 0.0) & (np.count_nonzero(dW, axis=1) > 0)
            acc, dW, dG = lanes[ok], dW[ok], dG[ok]
        if acc.size:
            at = self.count[acc]
            full = at == self.capacity
            if np.count_nonzero(full):
                evict = acc[full]
                self.GW[evict, :, :-1] = self.GW[evict, :, 1:]
                at = at - full
            self.W[acc, at] = dW
            self.G[acc, at] = dG
            self.count[acc] = at + 1
        return ok, concave

    def build(self, lanes: np.ndarray, m: int) -> tuple:
        """The compact factorizations of `lanes`, each holding m pairs:
        sigma (B,), K' (B x 2m x p), M^-1 (B x 2m x 2m), M^-1 K' (B x 2m x p)
        and, per lane, the first pivot of C that is not positive, or -1. The
        arrays are new; a failed lane's entries are meaningless. Every
        lane's entries have the bits that a build of that lane alone gives
        them."""
        Kt = self.GW[lanes, :, :m].reshape(len(lanes), 2 * m, -1)     # [G; W], a copy
        grams = Kt[:, m:] @ Kt.transpose(0, 2, 1)   # rows [W'G | W'W]
        sigma = grams[:, m - 1, m - 1] / grams[:, m - 1, 2 * m - 1]
        factors = _float_factors if m <= FLOAT_FACTOR_MAX_M else _linalg_factors
        F, failed = factors(grams, sigma)
        Minv = F.transpose(0, 2, 1) @ F
        diag = np.arange(m)                         # top-left m x m block: - D^-1
        Minv[:, diag, diag] -= 1.0 / grams[:, diag, diag]
        Kt[:, m:] *= sigma[:, None, None]
        return sigma, Kt, Minv, Minv @ Kt, failed


_LANE0 = np.zeros(1, dtype=np.intp)


class CurvaturePairBuffer:
    """One set of curvature pairs: at most `capacity`, oldest evicted
    first, kept as lane 0 of a one-lane `PairLanes` of the first pair's
    length, so that it has the curvature test, eviction and build of the
    engines' lanes.

    A rejected pair (dw = 0 included) leaves the buffer unchanged and is
    counted in `rejected`. Single writer; each accepted insert makes
    `factorization()` build a new snapshot, which owns its arrays and is
    safe to use from other threads.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lanes = PairLanes(1, capacity, 0)     # remade at the first pair's length
        self._W, self._G = self._lanes.W[0], self._lanes.G[0]     # lane 0's pairs
        self._fact: CompactFactorization | None = None
        self.rejected = 0

    def __len__(self) -> int:
        return int(self._lanes.count[0])

    def append_pair(self, dw, dg) -> bool:
        """Store a pair; returns False (and counts it) when curvature fails."""
        dw = np.asarray(dw, dtype=np.float64)
        dg = np.asarray(dg, dtype=np.float64)
        if dw.shape != dg.shape or dw.ndim != 1:
            raise DimensionMismatchError("dw and dg must be 1-D with equal length")
        if dw.size != self._W.shape[1]:
            if len(self):
                raise DimensionMismatchError("pair length differs from stored pairs")
            lanes = PairLanes(1, self.capacity, dw.size)
            self._lanes, self._W, self._G = lanes, lanes.W[0], lanes.G[0]
        if not self._lanes.insert(_LANE0, dw[None], dg[None])[0][0]:
            self.rejected += 1
            return False
        self._fact = None
        return True

    def factorization(self) -> CompactFactorization:
        """Compact factorization of the current pair set (cached until the
        next insert). Raises FactorizationError if Cholesky fails."""
        if self._fact is None:
            if not len(self):
                raise ValueError("buffer is empty")
            sigma, Kt, Minv, MinvKt, failed = self._lanes.build(_LANE0, len(self))
            if failed[0] >= 0:
                raise FactorizationError(f"middle matrix not SPD: pivot {failed[0]}")
            self._fact = CompactFactorization(sigma.item(), Kt[0], Minv[0], MinvKt[0])
        return self._fact


def quasi_hvp(buf: CurvaturePairBuffer, v) -> np.ndarray:
    """B @ v through the compact representation.

    Raises FactorizationError when the middle matrix loses positive
    definiteness to roundoff; callers fall back to an explicit-gradient
    iteration in that case.
    """
    v = np.asarray(v, dtype=np.float64)
    return buf.factorization().apply(v)
