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
reproduce the rank-2 update recursion (cross-checked against
`recursive_B_apply`, which is the arbiter). Building K and M^-1 costs
O(m^2*p + m^3) once per insert; each product is then three small
matrix-vector products, O(m*p).

`recursive_B_apply` and `inverse_apply` materialize dense p x p operators
from the textbook rank-2 recursions; they are O(m*p^2) test oracles, not
hot-path code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FactorizationError

CURVATURE_FLOOR = 1e-12


@dataclass
class CompactFactorization:
    """Frozen ingredients of the compact quasi-Hessian representation."""

    sigma: float
    Kt: np.ndarray         # 2m x p, rows of K' = [G, sigma*W]'
    Minv: np.ndarray       # 2m x 2m inverse of the middle matrix

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.sigma * v - self.Kt.T @ (self.Minv @ (self.Kt @ v))


class CurvaturePairBuffer:
    """Ring buffer of at most `capacity` curvature pairs, oldest evicted first.

    Inserts enforce the curvature condition dg.dw > CURVATURE_FLOOR*||dw||^2;
    rejected pairs (including dw = 0) leave the buffer unchanged and are
    counted in `rejected`. Single writer; `factorization()` snapshots are
    pure and safe to use from other threads.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._dw: list[np.ndarray] = []
        self._dg: list[np.ndarray] = []
        self.tags: list[int] = []
        self.rejected = 0
        self._fact: CompactFactorization | None = None
        self._strict_lower = np.tri(capacity, k=-1, dtype=bool)

    def __len__(self) -> int:
        return len(self._dw)

    def append_pair(self, dw, dg, tag: int = -1) -> bool:
        """Store a pair; returns False (and counts it) when curvature fails."""
        dw = np.asarray(dw, dtype=np.float64)
        dg = np.asarray(dg, dtype=np.float64)
        if dw.shape != dg.shape or dw.ndim != 1:
            raise DimensionMismatchError("dw and dg must be 1-D with equal length")
        if self._dw and dw.shape != self._dw[0].shape:
            raise DimensionMismatchError("pair length differs from stored pairs")
        if not (dg @ dw > CURVATURE_FLOOR * (dw @ dw)):
            self.rejected += 1
            return False
        self._dw.append(dw.copy())
        self._dg.append(dg.copy())
        self.tags.append(tag)
        if len(self._dw) > self.capacity:
            self._dw.pop(0)
            self._dg.pop(0)
            self.tags.pop(0)
        self._fact = None
        return True

    def factorization(self) -> CompactFactorization:
        """Compact factorization of the current pair set (cached until the
        next insert). Raises FactorizationError if Cholesky fails."""
        if not self._dw:
            raise ValueError("buffer is empty")
        if self._fact is None:
            Wt = np.array(self._dw)          # m x p, oldest pair first
            Gt = np.array(self._dg)
            sigma = float(Gt[-1] @ Wt[-1]) / float(Wt[-1] @ Wt[-1])
            m = len(Wt)
            WtG = Wt @ Gt.T
            D = WtG.diagonal()
            Ltri = np.where(self._strict_lower[:m, :m], WtG, 0.0)
            LDinv = Ltri / D
            middle = sigma * (Wt @ Wt.T) + LDinv @ Ltri.T
            try:
                J = np.linalg.cholesky(middle)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(f"middle matrix not SPD: {exc}") from exc
            Jinv = np.linalg.inv(J)
            F = np.concatenate([Jinv @ LDinv, Jinv], axis=1)
            Minv = F.T @ F
            Minv.flat[:m * (2 * m + 1):2 * m + 1] -= 1.0 / D   # top-left m x m diagonal
            self._fact = CompactFactorization(sigma, np.concatenate([Gt, sigma * Wt]), Minv)
        return self._fact


def quasi_hvp(buf: CurvaturePairBuffer, v) -> np.ndarray:
    """B @ v through the compact representation.

    Raises FactorizationError when the middle matrix loses positive
    definiteness to roundoff; callers fall back to an explicit-gradient
    iteration in that case.
    """
    v = np.asarray(v, dtype=np.float64)
    return buf.factorization().apply(v)


def _materialize(buf: CurvaturePairBuffer) -> np.ndarray:
    if len(buf) == 0:
        raise ValueError("buffer is empty")
    dWs, dGs = buf._dw, buf._dg
    p = dWs[0].size
    sigma = float(dGs[-1] @ dWs[-1]) / float(dWs[-1] @ dWs[-1])
    B = sigma * np.eye(p)
    for s, y in zip(dWs, dGs):
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / (s @ Bs) + np.outer(y, y) / (y @ s)
    return B


def recursive_B_apply(buf: CurvaturePairBuffer, v) -> np.ndarray:
    """Oracle: apply the rank-2 update recursion, oldest pair first,
    starting from sigma * I with sigma from the newest pair."""
    v = np.asarray(v, dtype=np.float64)
    return _materialize(buf) @ v


def inverse_apply(buf: CurvaturePairBuffer, v) -> np.ndarray:
    """Oracle: apply B^-1 via the equivalent inverse recursion."""
    if len(buf) == 0:
        raise ValueError("buffer is empty")
    v = np.asarray(v, dtype=np.float64)
    dWs, dGs = buf._dw, buf._dg
    p = dWs[0].size
    sigma = float(dGs[-1] @ dWs[-1]) / float(dWs[-1] @ dWs[-1])
    Binv = np.eye(p) / sigma
    eye = np.eye(p)
    for s, y in zip(dWs, dGs):
        ys = float(y @ s)
        left = eye - np.outer(s, y) / ys
        Binv = left @ Binv @ left.T + np.outer(s, s) / ys
    return Binv @ v
