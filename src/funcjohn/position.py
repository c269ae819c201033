"""Affine positions g(x) = alpha * w(A^{-1}(x - a)) and their algebra.

The inverse-matrix convention is used throughout the library: a position with
a larger |det A| has a larger integral, which is what the solver's objective
and the height curve rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lcfunc import DimensionMismatchError, LogConcaveFunction, Positioned

MIN_ABS_DET = 1e-12


class SingularPositionError(ValueError):
    pass


@dataclass(frozen=True)
class AffinePosition:
    """Triple (alpha, A, a) with alpha > 0 and A nonsingular.  A
    positive_definite of None is inferred from A: whether A passes the
    checks a True flag asks of it."""

    alpha: float
    A: tuple  # row tuples of the d x d matrix
    a: tuple
    positive_definite: bool | None = False

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("position scale alpha must be positive")
        A = np.asarray(self.A, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if not np.isfinite(np.concatenate(([self.alpha], A.ravel(),
                                           a.ravel()))).all():
            raise ValueError("position has a non-finite entry")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if a.shape != (A.shape[0],):
            raise DimensionMismatchError("translation dimension mismatch")
        if abs(np.linalg.det(A)) <= MIN_ABS_DET:
            raise SingularPositionError("position matrix is singular")
        if self.positive_definite is not False:
            symmetric = _symmetric(A)
            definite = symmetric and np.min(np.linalg.eigvalsh(A)) > 0
            if self.positive_definite is None:
                object.__setattr__(self, "positive_definite", bool(definite))
            elif not symmetric:
                raise ValueError("positive_definite position needs symmetric A")
            elif not definite:
                raise ValueError("positive_definite position needs eigenvalues > 0")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "A", tuple(map(tuple, A.tolist())))
        object.__setattr__(self, "a", tuple(a.tolist()))

    @property
    def dim(self) -> int:
        return len(self.a)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.A, dtype=float)

    def a_vector(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def inverse_matrix(self) -> np.ndarray:
        """A^{-1}, found on first use and kept read-only beside the
        position, outside its dataclass fields."""
        if "_inverse" not in self.__dict__:
            inv = np.linalg.inv(self.matrix())
            inv.flags.writeable = False
            object.__setattr__(self, "_inverse", inv)
        return self._inverse

    def det(self) -> float:
        return float(np.linalg.det(self.matrix()))

    def log_objective(self) -> float:
        """log alpha + log det A, the solver's objective for this position."""
        return math.log(self.alpha) + math.log(abs(self.det()))


def _symmetric(A: np.ndarray) -> bool:
    """np.allclose(A, A.T, atol=1e-10) for a finite A: its test
    |x - y| <= atol + rtol |y| at every entry.  An inf or a NaN fails it,
    and AffinePosition refuses such an A."""
    T = A.T
    return bool((np.abs(A - T) <= 1e-10 + 1e-5 * np.abs(T)).all())


def identity_position(d: int, alpha: float = 1.0) -> AffinePosition:
    return AffinePosition(alpha=alpha, A=tuple(map(tuple, np.eye(d))),
                          a=(0.0,) * d, positive_definite=True)


def make_position(alpha: float, A, a, positive_definite: bool | None = None
                  ) -> AffinePosition:
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float)
    return AffinePosition(alpha=float(alpha), A=tuple(map(tuple, A.tolist())),
                          a=tuple(float(v) for v in a),
                          positive_definite=positive_definite)


def apply_position(pos: AffinePosition, w: LogConcaveFunction) -> Positioned:
    """The function x -> alpha * w(A^{-1}(x - a))."""
    if pos.dim != w.dim:
        raise DimensionMismatchError("position and function dimensions differ")
    return Positioned(inner=w, position=pos)


def position_integral(pos: AffinePosition, base_integral: float) -> float:
    """Integral of the positioned function given the base integral of w."""
    if not base_integral > 0 or not math.isfinite(base_integral):
        raise ValueError("base integral must be finite and positive")
    return pos.alpha * abs(pos.det()) * base_integral


def interpolate_positions(p1: AffinePosition, p2: AffinePosition,
                          beta: float) -> AffinePosition:
    """Inner interpolation: geometric mean of scales, arithmetic mean of
    matrices and translations, weight beta on p1."""
    if not (p1.positive_definite and p2.positive_definite):
        raise ValueError("interpolation requires positive-definite positions")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    alpha = p1.alpha ** beta * p2.alpha ** (1.0 - beta)
    A = beta * p1.matrix() + (1.0 - beta) * p2.matrix()
    a = beta * p1.a_vector() + (1.0 - beta) * p2.a_vector()
    return make_position(alpha, A, a, positive_definite=True)
