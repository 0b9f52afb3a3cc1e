"""Curvature-pair buffer and quasi-Hessian products in compact form.

The buffer stores up to `capacity` recent (dw, dg) pairs, where
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
triangular inverse J^-1 and F take O(m^3) operations. Up to
FLOAT_FACTOR_MAX_M pairs they are computed in plain Python floats, with no
numpy call: at the engines' m = 2 that is a few dozen float operations,
where np.linalg would spend far longer on its per-call overhead for 2 x 2
and 4 x 4 matrices. The float work grows as m^3, so from
FLOAT_FACTOR_MAX_M + 1 pairs on the same matrices come from np.linalg
(`cholesky`, `inv`). On a 2-vCPU x86 machine at p = 20 and 50 a build
took about 17 us at m = 2 in floats against 32 us through np.linalg,
29 against 33 us at m = 4 and 39 against 34 us at m = 5; at m = 20 floats
took 0.9 ms against 0.06 to 0.11 ms through np.linalg.
Two more small products give M^-1 = F'F - [[D^-1, 0], [0, 0]] and
M^-1 K' (2m x p). A snapshot (`CompactFactorization`) carries sigma, K',
M^-1 and M^-1 K', so B v = sigma*v - (M^-1 K')'(K' v) is two small
matrix-vector products, O(m*p); the engines' approximate step reads K'
and M^-1 K' directly and folds the second product into its own. A float
build makes eight numpy calls (the copy into K', the Gram product, the
Gram rows as floats here and in `_float_factors`, F as an array, F'F,
the scaling of K' and M^-1 K') and m scalar updates of M^-1; sigma and
D^-1 come from the float Gram rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FactorizationError

CURVATURE_FLOOR = 1e-12
# largest pair count whose factorization is computed in plain floats
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


def _cholesky_inverse(C: list) -> list:
    """J^-1 for the lower Cholesky factor J of the symmetric m x m matrix C,
    J J' = C. C is given by the rows of its lower triangle, lists of floats,
    and J^-1, lower triangular too, is returned the same way. Raises
    FactorizationError at the first pivot that is not positive, NaN
    included."""
    J = []
    for i, Ci in enumerate(C):
        Ji = []
        for j, Jj in enumerate(J):
            s = Ci[j]
            for k in range(j):
                s -= Ji[k] * Jj[k]
            Ji.append(s / Jj[j])
        pivot = Ci[i]
        for x in Ji:
            pivot -= x * x
        if not pivot > 0.0:
            raise FactorizationError(f"middle matrix not SPD: pivot {i} is {pivot}")
        Ji.append(math.sqrt(pivot))
        J.append(Ji)
    Jinv = []
    for i, Ji in enumerate(J):
        d = 1.0 / Ji[i]
        Xi = []
        for j in range(i):
            s = 0.0
            for k in range(j, i):
                s += Ji[k] * Jinv[k][j]
            Xi.append(-s * d)
        Xi.append(d)
        Jinv.append(Xi)
    return Jinv


def _float_factors(grams: np.ndarray, sigma: float) -> np.ndarray:
    """F = [E, J^-1] (m x 2m) from the Gram rows [W'G | W'W] (row i holds
    w_i . g_j, then w_i . w_j, for j = 0 .. m-1), in plain floats."""
    grams = grams.tolist()
    m = len(grams)
    # rows of L D^-1 (strictly lower) and of the lower triangle of
    # C = sigma*W'W + L D^-1 L'
    LDinv, C = [], []
    for i, row in enumerate(grams):
        Ri = [row[k] / grams[k][k] for k in range(i)]
        Ci = []
        for j in range(i + 1):
            Lj = grams[j]
            s = 0.0
            for k in range(j):
                s += Ri[k] * Lj[k]
            Ci.append(sigma * row[m + j] + s)
        LDinv.append(Ri)
        C.append(Ci)
    # rows of F: E[i][k] sums over k < j <= i
    F = []
    for i, Xi in enumerate(_cholesky_inverse(C)):
        Ei = []
        for k in range(m):
            s = 0.0
            for j in range(k + 1, i + 1):
                s += Xi[j] * LDinv[j][k]
            Ei.append(s)
        F.append(Ei + Xi + [0.0] * (m - 1 - i))
    return np.array(F)


def _linalg_factors(grams: np.ndarray, sigma: float) -> np.ndarray:
    """`_float_factors` through np.linalg, the faster from
    FLOAT_FACTOR_MAX_M + 1 pairs on."""
    m = grams.shape[0]
    Ltri = np.tril(grams[:, :m], -1)
    LDinv = Ltri / grams.diagonal()
    try:
        J = np.linalg.cholesky(sigma * grams[:, m:] + LDinv @ Ltri.T)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"middle matrix not SPD: {exc}") from exc
    Jinv = np.linalg.inv(J)
    return np.concatenate([Jinv @ LDinv, Jinv], axis=1)


class CurvaturePairBuffer:
    """Ring buffer of at most `capacity` curvature pairs, oldest evicted first.

    Inserts enforce the curvature condition dg.dw > CURVATURE_FLOOR*||dw||^2;
    rejected pairs (including dw = 0) leave the buffer unchanged and are
    counted in `rejected`. The pairs live in two preallocated capacity x p
    arrays, oldest first; an eviction shifts the rows up by one. Single
    writer; each accepted insert makes `factorization()` build a new
    snapshot, which owns its arrays and is safe to use from other threads.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._W: np.ndarray | None = None      # allocated by the first accepted pair
        self._G: np.ndarray | None = None
        self._m = 0
        self.rejected = 0
        self._fact: CompactFactorization | None = None

    def __len__(self) -> int:
        return self._m

    def append_pair(self, dw, dg) -> bool:
        """Store a pair; returns False (and counts it) when curvature fails."""
        dw = np.asarray(dw, dtype=np.float64)
        dg = np.asarray(dg, dtype=np.float64)
        if dw.shape != dg.shape or dw.ndim != 1:
            raise DimensionMismatchError("dw and dg must be 1-D with equal length")
        if self._m and dw.size != self._W.shape[1]:
            raise DimensionMismatchError("pair length differs from stored pairs")
        if not (dg @ dw > CURVATURE_FLOOR * (dw @ dw)):
            self.rejected += 1
            return False
        if self._W is None:
            self._W = np.empty((self.capacity, dw.size))
            self._G = np.empty((self.capacity, dw.size))
        if self._m == self.capacity:
            self._W[:-1] = self._W[1:]
            self._G[:-1] = self._G[1:]
        else:
            self._m += 1
        self._W[self._m - 1] = dw
        self._G[self._m - 1] = dg
        self._fact = None
        return True

    def factorization(self) -> CompactFactorization:
        """Compact factorization of the current pair set (cached until the
        next insert). Raises FactorizationError if Cholesky fails."""
        if not self._m:
            raise ValueError("buffer is empty")
        if self._fact is None:
            m = self._m
            W = self._W[:m]
            Kt = np.concatenate([self._G[:m], W])
            grams = W @ Kt.T                    # rows [W'G | W'W]
            rows = grams.tolist()
            sigma = rows[-1][m - 1] / rows[-1][-1]
            factors = _float_factors if m <= FLOAT_FACTOR_MAX_M else _linalg_factors
            F = factors(grams, sigma)
            Minv = F.T @ F
            for i, row in enumerate(rows):      # top-left m x m block: - D^-1
                Minv[i, i] -= 1.0 / row[i]
            Kt[m:] *= sigma
            self._fact = CompactFactorization(sigma, Kt, Minv, Minv @ Kt)
        return self._fact


def quasi_hvp(buf: CurvaturePairBuffer, v) -> np.ndarray:
    """B @ v through the compact representation.

    Raises FactorizationError when the middle matrix loses positive
    definiteness to roundoff; callers fall back to an explicit-gradient
    iteration in that case.
    """
    v = np.asarray(v, dtype=np.float64)
    return buf.factorization().apply(v)
