"""Independent references for the benchmark's output checks.

Everything here is derived from the inputs with numpy and scipy alone; no
function of funcjohn is called.  A check therefore compares the library with
a second derivation of the same mathematics, never with a stored copy of an
earlier output.

Tolerances come from the method's documented accuracy: the solver's
``constraint_tol`` (1e-8 on the log-violation) and the 1e-3 relative
objective tolerance of acceptance criterion 7.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

CONSTRAINT_TOL = 1e-8
OBJECTIVE_RTOL = 1e-3


class CheckFailed(AssertionError):
    """An output of the library disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close_rel(value: float, ref: float, rtol: float = OBJECTIVE_RTOL) -> bool:
    """|value - ref| within rtol of max(|ref|, 1), the criterion-7 rule."""
    return abs(value - ref) <= rtol * max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# the height function and its support function
# ---------------------------------------------------------------------------


def hbar_support(c):
    """S(c) = sup_{|y| < 1} <p, y> + log hbar(y) for |p| = c >= 0.

    The maximizer along p has length t* = (-1 + sqrt(1 + 4c^2)) / (2c),
    written here as 2c / (1 + sqrt(1 + 4c^2)) so that c = 0 is exact."""
    c = np.asarray(c, dtype=float)
    t = 2.0 * c / (1.0 + np.sqrt(1.0 + 4.0 * c * c))
    return c * t + 0.5 * np.log1p(-t * t)


def log_height_power(r, s: float):
    """log (1 - r^2)^(s/2) inside the unit ball, -inf outside."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(r < 1.0, 0.5 * s * np.log1p(-np.minimum(r * r, 1.0)),
                        -np.inf)


def uniform_ball(rng: np.random.Generator, n: int, d: int,
                 radius: float = 1.0) -> np.ndarray:
    V = rng.standard_normal((n, d))
    V /= np.linalg.norm(V, axis=1)[:, None]
    return V * (radius * rng.random(n) ** (1.0 / d))[:, None]


# ---------------------------------------------------------------------------
# bumps: log f = min_i (b_i - <s_i, x>), closed-form certificates
# ---------------------------------------------------------------------------


class BumpForm:
    """Normal form of the bump over interior anchors u_i.

    The majorant touching hbar at u is log hbar(u) - <u, x - u> / hbar(u)^2
    (the tangent of log hbar at u), so s_i = u_i / h_i^2 and
    b_i = log h_i + |u_i|^2 / h_i^2 with h_i^2 = 1 - |u_i|^2."""

    def __init__(self, anchors):
        U = np.asarray(anchors, dtype=float)
        sq = np.einsum("ij,ij->i", U, U)
        if np.any(sq >= 1.0 - 1e-12):
            raise ValueError("the reference covers interior anchors only")
        h2 = 1.0 - sq
        self.dim = U.shape[1]
        self.slopes = U / h2[:, None]
        self.intercepts = 0.5 * np.log(h2) + sq / h2

    def log_value(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.min(self.intercepts[None, :] - X @ self.slopes.T, axis=1)

    def violation(self, alpha: float, A, a) -> float:
        """Exact max over the unit ball of log(alpha hbar(y)) - log f(Ay + a):
        log alpha + max_i [<s_i, a> - b_i + S(|A^T s_i|)]."""
        A = np.asarray(A, dtype=float)
        a = np.asarray(a, dtype=float)
        c = np.linalg.norm(self.slopes @ A, axis=1)
        return math.log(alpha) + float(np.max(
            self.slopes @ a - self.intercepts + hbar_support(c)))

    def log_sup(self, P) -> np.ndarray:
        """S(p) = sup_x <p, x> + log f(x) through the dual LP
        min { b . lam : lam >= 0, sum lam = 1, sum lam_i s_i = p }."""
        P = np.atleast_2d(np.asarray(P, dtype=float))
        m = self.slopes.shape[0]
        A_eq = np.vstack([self.slopes.T, np.ones(m)])
        out = np.empty(P.shape[0])
        for k, p in enumerate(P):
            res = optimize.linprog(self.intercepts, A_eq=A_eq,
                                   b_eq=np.append(p, 1.0),
                                   bounds=[(0.0, None)] * m, method="highs")
            if res.status == 2:
                out[k] = math.inf
            elif res.status == 0:
                out[k] = res.fun
            else:
                raise RuntimeError(f"reference LP status {res.status}")
        return out


def compose(alpha, A, a, outer):
    """Express the position (alpha, A, a) against the bump inside a
    positioned copy outer = (alpha_T, T, t) of it:
    f(Ay + a) = alpha_T * bump(T^{-1}(Ay + a - t))."""
    alpha_t, T, t = outer
    Tinv = np.linalg.inv(np.asarray(T, dtype=float))
    return (alpha / alpha_t, Tinv @ np.asarray(A, dtype=float),
            Tinv @ (np.asarray(a, dtype=float) - np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


def identity_residuals(points, weights) -> tuple[float, float, float, float]:
    """Residuals of sum c u u^T = Id (max entry), sum c hbar(u)^2 = 1,
    sum c u = 0 (norm) and sum c = d + 1."""
    U = np.asarray(points, dtype=float)
    c = np.asarray(weights, dtype=float)
    d = U.shape[1]
    outer = (U * c[:, None]).T @ U - np.eye(d)
    h2 = 1.0 - np.einsum("ij,ij->i", U, U)
    return (float(np.max(np.abs(outer))), abs(float(c @ h2) - 1.0),
            float(np.linalg.norm(c @ U)), abs(float(c.sum()) - (d + 1)))


def identity_residual(points, weights) -> float:
    return max(identity_residuals(points, weights))


def sampled_hull_support(points, directions) -> np.ndarray:
    """Support function max_i <u_i, theta> of the point hull."""
    return np.max(np.asarray(directions) @ np.asarray(points, dtype=float).T,
                  axis=1)


# ---------------------------------------------------------------------------
# radial targets: the 1-D reduction (sampled plus local refinement)
# ---------------------------------------------------------------------------

_T_GRID = np.concatenate([np.linspace(0.0, 0.999, 4000),
                          1.0 - np.geomspace(1e-3, 1e-13, 400)[1:]])


def radial_m(log_phi, r: float) -> float:
    """min over t in [0, 1) of log phi(r t) - log hbar(t): the log of the
    best height of a copy of hbar scaled by r under the radial target.
    Sampled on a grid that crowds toward t = 1, then refined by Brent."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = log_phi(r * _T_GRID) - 0.5 * np.log1p(-_T_GRID * _T_GRID)
    if np.any(np.isnan(v)):
        raise ValueError("radial profile produced NaN")
    k = int(np.argmin(v))
    if not math.isfinite(v[k]):
        return float(v[k])
    lo, hi = _T_GRID[max(k - 1, 0)], _T_GRID[min(k + 1, _T_GRID.size - 1)]
    if hi <= lo:
        return float(v[k])
    res = optimize.minimize_scalar(
        lambda t: float(log_phi(np.array([r * t]))[0]
                        - 0.5 * math.log1p(-t * t)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-14})
    return min(float(v[k]), float(res.fun))


def radial_free_optimum(log_phi, d: int, r_max: float) -> float:
    """max over r of d log r + m(r).  By concavity of the objective in the
    position and averaging over rotations, the optimum of a radial target
    is attained at A = r Id, a = 0; d log r + m(r) is concave in r."""
    res = optimize.minimize_scalar(
        lambda lr: -(d * lr + radial_m(log_phi, math.exp(lr))),
        bounds=(math.log(1e-3), math.log(r_max)), method="bounded",
        options={"xatol": 1e-10})
    return -float(res.fun)


def gaussian_free_optimum(d: int) -> float:
    """Closed form of the 1-D reduction for exp(-|x|^2)."""
    h = (d + 1) / 2.0
    return h * math.log(h) - d / 2.0 + 0.5 * math.log(2.0)


def sampled_violation(log_f, alpha: float, A, a, d: int, seed: int,
                      n: int = 20_000) -> float:
    """max over the unit ball of log(alpha hbar(y)) - log f(Ay + a) for a
    smooth target: seeded uniform sample plus near-boundary shells, refined
    by Nelder-Mead from the best points.  Sampled, so a lower bound."""
    A = np.asarray(A, dtype=float)
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = rng.standard_normal((512, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    shells = np.vstack([(1.0 - 10.0 ** -k) * dirs for k in range(1, 13)])
    Y = np.vstack([uniform_ball(rng, n, d), shells])

    def value(Y):
        sq = np.einsum("ij,ij->i", Y, Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            lf = log_f(Y @ A.T + a)
            return math.log(alpha) + 0.5 * np.log1p(-sq) - lf

    v = value(Y)
    best = float(np.max(v))
    if not math.isfinite(best):
        return best

    def neg(z):
        y = z / math.sqrt(1.0 + float(z @ z))
        return -float(value(y[None, :])[0])

    for idx in np.argsort(v)[-4:]:
        y0 = Y[idx]
        z0 = y0 / math.sqrt(max(1.0 - float(y0 @ y0), 1e-16))
        res = optimize.minimize(neg, z0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-15,
                                         "maxiter": 2000})
        best = max(best, -float(res.fun))
    return best
