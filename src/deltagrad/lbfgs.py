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
Building K and M^-1 costs O(m^2*p + m^3) once per insert; each product is
then three small matrix-vector products, O(m*p).
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
        self.rejected = 0
        self._fact: CompactFactorization | None = None
        self._strict_lower = np.tri(capacity, k=-1, dtype=bool)

    def __len__(self) -> int:
        return len(self._dw)

    def append_pair(self, dw, dg) -> bool:
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
        if len(self._dw) > self.capacity:
            self._dw.pop(0)
            self._dg.pop(0)
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
