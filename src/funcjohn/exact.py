"""The John problem for log-polyhedral targets, solved and certified exactly.

A target with a normal form (LogConcaveFunction.normal_form) has
log f(x) = min_i (b_i - <s_i, x>), and f = 0 on each half-space
<n_j, x> >= c_j.  For a radial w of support radius R and radial support
function S_w (LogConcaveFunction.radial_log_sup_derivatives), the position
alpha * w(A^{-1}(x - a)) lies below f everywhere exactly when

    log alpha + max_i [<s_i, a> - b_i + S_w(|A^T s_i|)] <= 0   and
    R |A^T n_j| + <n_j, a> < c_j  for every wall j.

Each row is convex in (A, a), so the John problem, maximize
log alpha + log det A, is a small convex program.  Problem.solve runs a
log-barrier method on it, with exact gradients and Hessians and damped
Newton steps in (upper triangle of a symmetric A, a, t = -log alpha).  The
same closed form, `certificate`, certifies the result; at the identity
position it is the exact hbar <= f of funcjohn.verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .lcfunc import (
    DivergentIntegralError,
    ImproperFunctionError,
    LogConcaveFunction,
)

_STAGE_FACTOR = 50.0  # growth of the barrier weight tau per stage
# the solve stops once (number of rows + squared decrement) / tau, a bound on
# the duality gap, is at most this
_GAP_TOL = 1e-9
_CENTERED = 1e-10  # squared Newton decrement that ends a stage
# Below this squared decrement Newton steps are taken in full when they stay
# strictly feasible: at large tau the merit's rounding exceeds the decrease
# an Armijo test asks for, while the Newton step is still sound.
_FULL_STEP = 1e-3
_STAGE_STEPS = 50
_MAX_NEWTON_STEPS = 400
_MAX_HALVINGS = 60  # line-search and start-radius halvings


def _surrounds_origin(P) -> bool:
    """Whether the rays through the nonzero rows of P positively span R^d,
    that is, whether no direction theta has <p, theta> <= 0 for every row;
    f decays along every ray exactly then.  Holds when the unit rows span
    R^d and one LP writes 0 as their combination with all weights > 0."""
    U = P[np.any(P != 0.0, axis=1)]
    n, d = U.shape
    if n <= d or np.linalg.matrix_rank(U) < d:
        return False
    U = U / np.linalg.norm(U, axis=1)[:, None]
    # maximize rho over weights lam >= rho with sum 1 and sum lam_i u_i = 0
    A_eq = np.zeros((d + 1, n + 1))
    A_eq[:d, :n] = U.T
    A_eq[d, :n] = 1.0
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = optimize.linprog(np.append(np.zeros(n), -1.0), A_ub=A_ub,
                           b_ub=np.zeros(n), A_eq=A_eq,
                           b_eq=np.append(np.zeros(d), 1.0),
                           bounds=[(0.0, None)] * n + [(None, None)],
                           method="highs")
    return res.status == 0 and -res.fun > 1e-9


def _row_values(P, off, m_int, w, R, A, a) -> np.ndarray:
    """<p, a> + offset + sigma(|A^T p|) for every row: sigma = S_w on the
    first m_int (interior) rows, R c on the walls after them."""
    c = np.linalg.norm(P @ A, axis=1)
    S = w.radial_log_sup_derivatives(c[:m_int])[0]
    return P @ a + off + np.concatenate([S, R * c[m_int:]])


def certificate(form: tuple, w: LogConcaveFunction, log_alpha: float, A, a,
                snap: float = 0.0) -> float:
    """Exact sup over supp w of log(alpha w(y)) - log f(Ay + a) for the
    target of normal form `form`: +inf when the positioned support reaches
    a wall, -inf when f has walls only and none is reached.

    The open ball |y| < R where w > 0 reaches the wall <n, x> >= c exactly
    when R |A^T n| + <n, a> > c; at equality the two touch where w = 0,
    unless w is positive at its edge (a ball indicator).  Where w vanishes
    there, a crossing of at most snap times the wall's scale 1 + |c| counts
    as a touch; the solver's own certificate leaves snap at 0."""
    slopes, intercepts, normals, offsets = form
    m_int = slopes.shape[0]
    R = w.support_radius()
    v = _row_values(np.vstack([slopes, normals]),
                    -np.concatenate([intercepts, offsets]), m_int, w, R,
                    np.asarray(A, dtype=float), np.asarray(a, dtype=float))
    walls = v[m_int:]
    if math.isfinite(float(w.radial_log_profile(np.array([R]))[0])):
        reached = walls >= 0.0
    else:
        reached = walls > snap * (1.0 + np.abs(offsets))
    if np.any(reached):
        return math.inf
    if not m_int:
        return -math.inf
    return log_alpha + float(np.max(v[:m_int]))


@dataclass(frozen=True)
class ExactSolution:
    A: np.ndarray
    a: np.ndarray
    log_alpha: float
    stop_reason: str  # "gap_reached", "iteration_cap" or "numerical_breakdown"
    newton_steps: int
    barrier_stages: int
    gap_bound: float  # (rows + decrement^2) / tau at the last stage


class Problem:
    """The closed-form rows of one target f and one radial w.

    Rows stack the interior rows (p = s_i, offset -b_i, sigma = S_w) over
    the wall rows (p = n_j, offset -c_j, sigma = R c), so every row reads
    <p, a> + offset + sigma(|A^T p|)."""

    def __init__(self, form: tuple, w: LogConcaveFunction):
        slopes, intercepts, normals, offsets = form
        if not slopes.shape[0]:
            raise ImproperFunctionError(
                "a target with walls only takes no finite positive value")
        self.w = w
        self.d = w.dim
        self.R = w.support_radius()
        self.m_int = slopes.shape[0]
        self.P = np.vstack([slopes, normals])
        if not _surrounds_origin(self.P):
            raise DivergentIntegralError(
                "f does not decay along some ray, so its integral diverges "
                "and positions of w below it grow without bound")
        self.off = -np.concatenate([intercepts, offsets])
        rows, cols = np.triu_indices(self.d)
        self._rows, self._cols = rows, cols
        self._half = np.where(rows == cols, 0.5, 1.0)
        # J[i, :, k] = E_k p_i for the basis E_k = e_r e_c^T + e_c e_r^T of
        # symmetric matrices, halved on the diagonal
        K = rows.size
        self._J = np.zeros((self.P.shape[0], self.d, K))
        self._J[:, rows, np.arange(K)] += self.P[:, cols] * self._half
        self._J[:, cols, np.arange(K)] += self.P[:, rows] * self._half

    # --- the closed form ------------------------------------------------

    def _sigma(self, c):
        """(sigma, sigma', sigma'') of every row at c = |A^T p|."""
        S, S1, S2 = self.w.radial_log_sup_derivatives(c[:self.m_int])
        cw = c[self.m_int:]
        return (np.concatenate([S, self.R * cw]),
                np.concatenate([S1, np.full(cw.shape, self.R)]),
                np.concatenate([S2, np.zeros(cw.shape)]))

    def values(self, A, a) -> np.ndarray:
        """<p, a> + offset + sigma(|A^T p|) for every row."""
        return _row_values(self.P, self.off, self.m_int, self.w, self.R, A, a)

    def contacts(self, log_alpha: float, A, a, tol: float) -> np.ndarray:
        """Points y of supp w where alpha w(y) = f(Ay + a) within tol in
        log: y_i = sigma'(|A^T p_i|) A^T p_i / |A^T p_i| for each row within
        tol of zero (the origin when p_i = 0)."""
        V = self.P @ np.asarray(A, dtype=float)
        c = np.linalg.norm(V, axis=1)
        S, S1, _ = self._sigma(c)
        g = self.P @ np.asarray(a, dtype=float) + self.off + S
        g[:self.m_int] += log_alpha
        scale = np.divide(S1, c, out=np.zeros_like(c), where=c > 0.0)
        return (scale[:, None] * V)[g >= -tol]

    # --- the barrier ----------------------------------------------------

    def _unpack(self, x):
        K, d = self._rows.size, self.d
        A = np.empty((d, d))
        A[self._rows, self._cols] = x[:K]
        A[self._cols, self._rows] = x[:K]
        return A, x[K:K + d], x[K + d:]

    def _barrier_rows(self, x, log_alpha):
        """(A, its Cholesky factor, rows shifted by log alpha or by -t), or
        None when A is not positive definite or a row is not negative."""
        A, a, t = self._unpack(x)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return None
        v = self.values(A, a)
        v[:self.m_int] += -t[0] if log_alpha is None else log_alpha
        if not np.all(v < 0.0):
            return None
        return A, L, v

    def _merit(self, x, tau, log_alpha) -> float:
        """tau (-log det A + t) - sum log(-row), +inf outside the domain."""
        got = self._barrier_rows(x, log_alpha)
        if got is None:
            return math.inf
        _, L, v = got
        f0 = -2.0 * float(np.sum(np.log(np.diag(L))))
        if log_alpha is None:
            f0 += float(x[-1])
        return tau * f0 - float(np.sum(np.log(-v)))

    def _newton(self, x, tau, log_alpha):
        """(gradient, Newton step) of the merit at a strictly feasible x."""
        A, _, v = self._barrier_rows(x, log_alpha)
        rows, cols, half, J = self._rows, self._cols, self._half, self._J
        K, d, n = rows.size, self.d, x.size
        B = np.linalg.inv(A)
        V = self.P @ A
        c = np.linalg.norm(V, axis=1)
        _, S1, S2 = self._sigma(c)
        inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0.0)
        Gz = np.einsum("id,idk->ik", V * inv_c[:, None], J)  # d|A p| / dz
        D = np.zeros((v.size, n))  # row gradients
        D[:, :K] = S1[:, None] * Gz
        D[:, K:K + d] = self.P
        if log_alpha is None:
            D[:self.m_int, -1] = -1.0
        wt = -1.0 / v
        grad = D.T @ wt
        grad[:K] -= tau * 2.0 * half * B[rows, cols]
        H = (D.T * wt * wt) @ D
        # Hessian of -log det A, tr(B E_k B E_l), in the symmetric basis
        Brr, Bcc = B[np.ix_(rows, rows)], B[np.ix_(cols, cols)]
        Brc, Bcr = B[np.ix_(rows, cols)], B[np.ix_(cols, rows)]
        H[:K, :K] += tau * np.outer(half, half) * 2.0 * (Brr * Bcc
                                                          + Brc * Bcr)
        # curvature of each row: sigma'' grad|Ap| grad|Ap|^T plus
        # sigma' (J^T J - grad grad^T) / |Ap|
        H[:K, :K] += (Gz.T * (wt * (S2 - S1 * inv_c))) @ Gz
        H[:K, :K] += np.einsum("i,idk,idl->kl", wt * S1 * inv_c, J, J)
        if log_alpha is None:
            grad[-1] += tau
        return grad, np.linalg.solve(H, -grad)

    def _line_search(self, x, step, decrement2, tau, log_alpha):
        """Largest step in 1, 1/2, 1/4, ... that keeps every row strictly
        negative and A positive definite, and (above _FULL_STEP) passes
        Armijo's test; None when none does."""
        s = 1.0
        full = decrement2 <= _FULL_STEP
        merit = self._merit(x, tau, log_alpha)
        for _ in range(_MAX_HALVINGS):
            trial = x + s * step
            value = self._merit(trial, tau, log_alpha)
            if math.isfinite(value) and (
                    full or value <= merit - 0.25 * s * decrement2):
                return trial
            s *= 0.5
        return None

    def _lp(self, cost, A_ub, b_ub, bounds):
        # rows of unit norm: anchors near the sphere give slopes of 1e8
        # beside ones of 1e-5, which leave HiGHS at a poor vertex otherwise
        norms = np.linalg.norm(A_ub, axis=1)
        return optimize.linprog(cost, A_ub=A_ub / norms[:, None],
                                b_ub=b_ub / norms, bounds=bounds,
                                method="highs")

    def start(self, log_alpha: float | None):
        """A strictly feasible (A, a) = (r Id, x), or None when there is
        none.  One LP finds the largest ball B(x, r), r <= 1, whose
        positioned copy of supp w keeps a margin r from every wall and lies
        where log f >= level + r; level is log alpha for a fixed height, and
        one below the peak of log f (a second LP) for the free solve.  Then
        S_w(r|p|) <= R r |p| leaves every row below -r."""
        d, m_int, R = self.d, self.m_int, self.R
        b = -self.off
        if log_alpha is None:
            # the peak: maximize z over z + <s_i, x> <= b_i and the walls
            A_ub = np.hstack([self.P, np.zeros((self.P.shape[0], 1))])
            A_ub[:m_int, d] = 1.0
            res = self._lp(np.append(np.zeros(d), -1.0), A_ub, b,
                           [(None, None)] * (d + 1))
            if res.status != 0:
                return None
            level = res.x[d] - 1.0
        else:
            level = log_alpha
        # maximize r over <p, x> + r (1 + R |p|) <= b - level (interior
        # rows) or <= c (walls)
        A_ub = np.hstack([self.P, 1.0 + R * np.linalg.norm(self.P, axis=1,
                                                           keepdims=True)])
        b = b.copy()
        b[:m_int] -= level
        res = self._lp(np.append(np.zeros(d), -1.0), A_ub, b,
                       [(None, None)] * d + [(None, 1.0)])
        if res.status != 0 or not res.x[d] > 0.0:
            return None
        a, r = res.x[:d], res.x[d]
        for _ in range(_MAX_HALVINGS):
            v = self.values(r * np.eye(d), a)
            v[:m_int] += level
            if np.all(v < 0.0):
                return r * np.eye(d), a
            r *= 0.5  # rounding only: the LP's ball leaves every row below -r
        return None

    def solve(self, start, log_alpha: float | None) -> ExactSolution:
        """Barrier stages from a strictly feasible start; log_alpha None
        maximizes log det A - t with t >= every interior row, a number
        maximizes log det A at that height."""
        A, a = start
        x = np.concatenate([A[self._rows, self._cols], a])
        if log_alpha is None:
            x = np.append(x, float(np.max(self.values(A, a)[:self.m_int]))
                          + 1.0)
        m = self.P.shape[0]
        tau, tau_last = 1.0, 2.0 * m / _GAP_TOL
        steps = stages = 0
        stop = None
        while stop is None and steps < _MAX_NEWTON_STEPS:
            stages += 1
            for _ in range(_STAGE_STEPS):
                try:
                    grad, step = self._newton(x, tau, log_alpha)
                    decrement2 = -float(grad @ step)
                except np.linalg.LinAlgError:
                    decrement2 = math.nan
                if not decrement2 >= 0.0:
                    # rounding has cost the Newton system its definiteness:
                    # a non-descent step must not pass for a centred stage
                    stop = "numerical_breakdown"
                    break
                if decrement2 <= _CENTERED:
                    break
                steps += 1
                moved = self._line_search(x, step, decrement2, tau, log_alpha)
                if moved is None:
                    break
                x = moved
                if steps >= _MAX_NEWTON_STEPS:
                    break
            gap = (m + decrement2) / tau
            if gap <= _GAP_TOL:
                stop = "gap_reached"
            tau = min(tau * _STAGE_FACTOR, tau_last)
        A, a, _ = self._unpack(x)
        if log_alpha is None:
            log_alpha = -float(np.max(self.values(A, a)[:self.m_int]))
        return ExactSolution(A=A, a=a.copy(), log_alpha=log_alpha,
                             stop_reason=stop or "iteration_cap",
                             newton_steps=steps,
                             barrier_stages=stages, gap_bound=gap)
