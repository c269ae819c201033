"""The John problem for log-polyhedral targets, solved and certified exactly.

A target with a normal form (LogConcaveFunction.normal_form) has
log f(x) = min_i (b_i - <s_i, x>), and f = 0 on each half-space
<n_j, x> >= c_j.  For a radial w of support radius R and radial support
function S_w (Radial.radial_log_sup_derivatives), the position
alpha * w(A^{-1}(x - a)) lies below f everywhere exactly when

    log alpha + max_i [<s_i, a> - b_i + S_w(|A^T s_i|)] <= 0   and
    R |A^T n_j| + <n_j, a> < c_j  for every wall j.

Each row is convex in (A, a), so the John problem, maximize
log alpha + log det A, is a small convex program.  Problem.solve runs a
log-barrier method on it, with exact gradients and Hessians and damped
Newton steps in (upper triangle of a symmetric A, a, t = -log alpha); each
point it visits is evaluated once, by Problem._point.  The merit at weight
tau is tau f0 - sum log(-rows), f0 = -log det A (+ t).  Before tau rises to
tau', a predictor step starts the next stage near its centre: on the
central path x(tau) ~ x* + c / tau near the optimum, so from the centre it
steps -(1 - tau/tau') tau H^-1 grad f0 along the path's tangent (Nesterov
and Nemirovski, 1994), with the Hessian H of the stage's last Newton step,
halved until the merit at tau' does not rise.  Where rounding leaves a
Newton system singular or indefinite, the step is taken on its Jacobi
scaling shifted by a multiple of the identity (_descent_step).  The same
closed form, `certificate`, certifies the result; at the identity position
it is the exact hbar <= f of funcjohn.verify.  Whether f decays
(`surrounds_origin`) is for the caller to ask.

Problem.start needs no LP: the peak of log f is S(0) of f's own normal
form, walls included, and the largest start ball below it is the peak of
a wall-free normal form; both are read off lower facets
(polar.lower_facets).

With at most 28 unknowns, the barrier's kernel (_row_values, Problem._point
and Problem._newton) is bound by the overhead of each NumPy call, not by
arithmetic, so it makes few calls; it gives the same bits as the
straightforward formulas that tests/test_exact.py keeps as its reference.
The Cholesky factor only tests that A is positive definite and gives
log det A, so it comes straight from LAPACK's dpotrf, whose info flag
replaces np.linalg.cholesky's exception and whose factor is the one
np.linalg.cholesky computes (potrf on the lower triangle).  np.linalg.inv
and np.linalg.solve stay: LAPACK's dgesv in place of solve moved the last
bits of the steps in d >= 2, and with them newton_steps on some solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.spatial import QhullError

from .lcfunc import ImproperFunctionError, LogConcaveFunction
from .polar import hull_min_offset, lower_facets

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
_MAX_HALVINGS = 60  # line-search and start-radius halvings, shift doublings


def surrounds_origin(P) -> bool:
    """Whether the rays through the nonzero rows of P positively span R^d,
    that is, whether no direction theta has <p, theta> <= 0 for every row;
    f decays along every ray exactly then.  In d = 1 that is rows of both
    signs; otherwise it holds when the unit rows span R^d and the origin
    lies inside their hull.  Then the hull of the unit rows and the origin
    is full-dimensional, and its smallest facet offset is 0 exactly when
    the origin is not inside."""
    U = P[np.any(P != 0.0, axis=1)]
    n, d = U.shape
    if d == 1:
        return bool((U < 0.0).any() and (U > 0.0).any())
    if n <= d or np.linalg.matrix_rank(U) < d:
        return False
    U = U / np.linalg.norm(U, axis=1)[:, None]
    try:
        return hull_min_offset(np.vstack([U, np.zeros(d)]))[0] > 1e-9
    except QhullError:
        # rows that span for numpy's rank but are flat to Qhull leave the
        # origin within rounding of a facet
        return False


def _peak(form) -> tuple | None:
    """(max_x log f(x), the centre of the face of x that attains it) for f
    of normal form `form`, from its lower facets (polar.lower_facets): the
    peak is S(0) = max_J e_J, the face is the subdifferential of S at 0,
    the hull of the c_J of the facets within 1e-9 (1 + |peak|) of it.
    None when S(0) = +inf, where 0 is outside dom S: f is unbounded."""
    (_, c, e), (_, h) = lower_facets(*form)
    if np.any(h < 0.0):
        return None
    peak = float(np.max(e))
    return peak, c[e >= peak - 1e-9 * (1.0 + abs(peak))].mean(axis=0)


def _descent_step(H, grad) -> tuple:
    """(step, H') for a Newton system H that rounding has left singular or
    indefinite: the step -H'^{-1} grad, H' = H + mu D^-2, on the Jacobi
    scaling D = diag(H)^-1/2, with the smallest mu in 0, 1e-3, 2e-3, 4e-3,
    ... for which D H' D has a Cholesky factor (Nocedal and Wright,
    Numerical Optimization, Alg. 3.3); H' is positive definite, so the
    step descends.  LinAlgError when no mu up to 2^58 1e-3 does."""
    s = 1.0 / np.sqrt(np.abs(np.diag(H)))
    scaled = H * np.outer(s, s)
    mu = 0.0
    for _ in range(_MAX_HALVINGS):
        M = scaled + mu * np.eye(s.size)
        if dpotrf(M, lower=1, clean=0)[1]:
            mu = max(2.0 * mu, 1e-3)
            continue
        return s * np.linalg.solve(M, -s * grad), M / np.outer(s, s)
    raise np.linalg.LinAlgError("no shift makes the Newton system definite")


def _row_values(P, off, m_int, w, R, A, a) -> tuple:
    """(V = P A, c = |A^T p|, (sigma, sigma', sigma'') at c, and
    <p, a> + offset + sigma(c)) for every row: sigma = S_w on the first
    m_int (interior) rows, R c on the walls after them."""
    V = P @ A
    c = np.sqrt(np.add.reduce(V * V, axis=1))  # what np.linalg.norm computes
    if m_int == c.size:
        sigma = w.radial_log_sup_derivatives(c)
    else:
        S, S1, S2 = w.radial_log_sup_derivatives(c[:m_int])
        cw = c[m_int:]
        sigma = (np.concatenate([S, R * cw]),
                 np.concatenate([S1, np.full(cw.shape, R)]),
                 np.concatenate([S2, np.zeros(cw.shape)]))
    return V, c, sigma, P @ a + off + sigma[0]


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
                    np.asarray(A, dtype=float), np.asarray(a, dtype=float))[3]
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


@dataclass
class _Point:
    """What the barrier reads at one x of its domain."""
    x: np.ndarray
    A: np.ndarray
    V: np.ndarray  # P A
    c: np.ndarray  # |A^T p| for every row
    sigma: tuple  # (sigma, sigma', sigma'') at c
    rows: np.ndarray  # <p, a> + offset + sigma(c)
    v: np.ndarray  # rows, the interior ones shifted by log alpha or by -t
    f0: float  # -log det A, plus t on the free solve
    log_sum: float  # sum log(-v)

    def merit(self, tau: float) -> float:
        return tau * self.f0 - self.log_sum


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
        self.off = -np.concatenate([intercepts, offsets])
        rows, cols = np.triu_indices(self.d)
        self._rows, self._cols = rows, cols
        # x[_sym] is the symmetric A whose upper triangle is x[:K]
        self._sym = np.empty((self.d, self.d), dtype=int)
        self._sym[rows, cols] = self._sym[cols, rows] = np.arange(rows.size)
        half = np.where(rows == cols, 0.5, 1.0)
        # J[i, :, k] = E_k p_i for the basis E_k = e_r e_c^T + e_c e_r^T of
        # symmetric matrices, halved on the diagonal
        K, d, m = rows.size, self.d, self.P.shape[0]
        self._J = np.zeros((m, d, K))
        self._J[:, rows, np.arange(K)] += self.P[:, cols] * half
        self._J[:, cols, np.arange(K)] += self.P[:, rows] * half
        self._g0_scale = -2.0 * half  # grad -log det A = -2 half B[r, c]
        # the Hessian of -log det A, tr(B E_k B E_l) = 2 half_k half_l
        # (B[r_k, r_l] B[c_k, c_l] + B[r_k, c_l] B[c_k, r_l]), takes both
        # products from the outer product of B with itself at these flat
        # indices
        rk, ck = rows[:, None], cols[:, None]
        self._logdet_ix = np.array([
            np.ravel_multi_index(ix, (d,) * 4)
            for ix in ((rk, rows, ck, cols), (rk, cols, ck, rows))])
        self._half2x2 = 2.0 * np.outer(half, half)
        # the parts of the row gradients D and of the gradient of f0 that do
        # not move: <p, a> is linear in a, and on the free solve (keyed
        # True) the interior rows fall by t while f0 rises by it
        D, Dt = np.zeros((m, K + d)), np.zeros((m, K + d + 1))
        D[:, K:] = Dt[:, K:K + d] = self.P
        Dt[:self.m_int, -1] = -1.0
        g0t = np.zeros(K + d + 1)
        g0t[-1] = 1.0
        self._blocks = {False: (D, np.zeros(K + d)), True: (Dt, g0t)}

    # --- the closed form ------------------------------------------------

    def _rows_at(self, A, a) -> tuple:
        return _row_values(self.P, self.off, self.m_int, self.w, self.R, A, a)

    def values(self, A, a) -> np.ndarray:
        """<p, a> + offset + sigma(|A^T p|) for every row."""
        return self._rows_at(A, a)[3]

    def contacts(self, log_alpha: float, A, a, tol: float) -> np.ndarray:
        """Points y of supp w where alpha w(y) = f(Ay + a) within tol in
        log: y_i = sigma'(|A^T p_i|) A^T p_i / |A^T p_i| for each row within
        tol of zero (the origin when p_i = 0)."""
        V, c, (_, S1, _), g = self._rows_at(np.asarray(A, dtype=float),
                                            np.asarray(a, dtype=float))
        g[:self.m_int] += log_alpha
        scale = np.divide(S1, c, out=np.zeros_like(c), where=c > 0.0)
        return (scale[:, None] * V)[g >= -tol]

    # --- the barrier ----------------------------------------------------

    def _unpack(self, x):
        K, d = self._rows.size, self.d
        return x[self._sym], x[K:K + d], x[K + d:]

    def _point(self, x, log_alpha) -> _Point | None:
        """The barrier at x, or None when A is not positive definite or a
        row is not negative.  A free x without its t (the solve's start)
        takes t one above the highest interior row."""
        A, a, t = self._unpack(x)
        L, info = dpotrf(A, lower=1, clean=0)
        if info:
            return None
        V, c, sigma, rows = self._rows_at(A, a)
        if log_alpha is None and not t.size:
            x = np.append(x, float(np.max(rows[:self.m_int])) + 1.0)
            t = x[-1:]
        v = rows.copy()
        v[:self.m_int] += -t[0] if log_alpha is None else log_alpha
        if not (v < 0.0).all():
            return None
        f0 = -2.0 * float(np.log(L.diagonal()).sum())
        if log_alpha is None:
            f0 += float(x[-1])
        return _Point(x, A, V, c, sigma, rows, v, f0,
                      float(np.log(-v).sum()))

    def _newton(self, pt: _Point, tau, log_alpha):
        """(gradient, Newton step, Hessian) of the merit at pt, and the
        gradient of f0."""
        K, J = self._rows.size, self._J
        B = np.linalg.inv(pt.A)
        c, v, (_, S1, S2) = pt.c, pt.v, pt.sigma
        if c.all():
            inv_c = 1.0 / c
        else:
            inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0.0)
        Gz = np.einsum("id,idk->ik", pt.V * inv_c[:, None], J)  # d|A p| / dz
        D, g0 = self._blocks[log_alpha is None]
        D, g0 = D.copy(), g0.copy()  # row gradients, gradient of f0
        D[:, :K] = S1[:, None] * Gz
        g0[:K] = self._g0_scale * B[self._rows, self._cols]
        wt = -1.0 / v
        grad = D.T @ wt + tau * g0
        H = (D.T * wt * wt) @ D
        # Hessian of -log det A, tr(B E_k B E_l), in the symmetric basis
        BB = np.multiply.outer(B, B).take(self._logdet_ix)
        H[:K, :K] += tau * self._half2x2 * (BB[0] + BB[1])
        # curvature of each row: sigma'' grad|Ap| grad|Ap|^T plus
        # sigma' (J^T J - grad grad^T) / |Ap|
        H[:K, :K] += (Gz.T * (wt * (S2 - S1 * inv_c))) @ Gz
        H[:K, :K] += np.einsum("i,idk,idl->kl", wt * S1 * inv_c, J, J)
        try:
            step = np.linalg.solve(H, -grad)
            if -float(grad @ step) >= 0.0:
                return grad, step, H, g0
        except np.linalg.LinAlgError:
            pass
        return (grad, *_descent_step(H, grad), g0)

    def _line_search(self, pt: _Point, step, tau, log_alpha, slope
                     ) -> _Point | None:
        """The point at the largest step s in 1, 1/2, 1/4, ... that keeps
        every row strictly negative and A positive definite, and whose merit
        at tau is at most pt's minus s slope (Armijo's test; -inf passes any
        such point); None when none does."""
        s = 1.0
        merit = pt.merit(tau)
        for _ in range(_MAX_HALVINGS):
            trial = self._point(pt.x + s * step, log_alpha)
            value = math.inf if trial is None else trial.merit(tau)
            if math.isfinite(value) and value <= merit - s * slope:
                return trial
            s *= 0.5
        return None

    def start(self, log_alpha: float | None):
        """A strictly feasible (A, a) = (r Id, a), or None when there is
        none.  (a, r) is the centre of the largest ball B(a, r), r <= 1,
        whose positioned copy of supp w keeps a margin r from every wall
        and lies where log f >= level + r; level is log alpha for a fixed
        height, and one below the peak of log f for the free solve.  Then
        S_w(r|p|) <= R r |p| leaves every row below -r.

        The peak of log f and the ball are each the peak S(0) = max_J e_J
        of a normal form, read off its lower facets (polar.lower_facets):
        for the peak of log f that form is f's own, walls included.
        For the ball (a Chebyshev centre; Boyd and Vandenberghe, Convex
        Optimization, 8.5.1) each row <p, a> + r k <= b - level (interior
        rows) or <= c (walls), k = 1 + R|p|, is divided by k, and the row
        of slope 0 and intercept 1 adds r <= 1.  The ball's optimum is a
        face, the subdifferential of that form's S at 0, and a is its
        centre: the mean of c_J over the facets within 1e-9 (1 + |r|) of
        the peak."""
        d, m_int, R = self.d, self.m_int, self.R
        b = -self.off
        if log_alpha is not None:
            level = log_alpha
        else:
            peak = _peak((self.P[:m_int], b[:m_int], self.P[m_int:],
                          b[m_int:]))
            level = math.nan if peak is None else peak[0] - 1.0
        if not math.isfinite(level):
            return None
        k = 1.0 + R * np.linalg.norm(self.P, axis=1)
        b[:m_int] -= level
        ball = _peak((np.vstack([self.P / k[:, None], np.zeros(d)]),
                      np.append(b / k, 1.0), np.zeros((0, d)), np.zeros(0)))
        if ball is None or not ball[0] > 0.0:
            return None
        r, a = ball
        for _ in range(_MAX_HALVINGS):
            v = self.values(r * np.eye(d), a)
            v[:m_int] += level
            if np.all(v < 0.0):
                return r * np.eye(d), a
            r *= 0.5  # rounding only: the ball leaves every row below -r
        return None

    def solve(self, start, log_alpha: float | None) -> ExactSolution:
        """Barrier stages from a strictly feasible start; log_alpha None
        maximizes log det A - t with t >= every interior row, a number
        maximizes log det A at that height."""
        A, a = start
        pt = self._point(np.concatenate([A[self._rows, self._cols], a]),
                         log_alpha)
        m = self.P.shape[0]
        tau, tau_last = 1.0, 2.0 * m / _GAP_TOL
        steps = stages = 0
        stop = None
        while stop is None and steps < _MAX_NEWTON_STEPS:
            stages += 1
            for _ in range(_STAGE_STEPS):
                try:
                    grad, step, H, g0 = self._newton(pt, tau, log_alpha)
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
                moved = self._line_search(
                    pt, step, tau, log_alpha, -math.inf
                    if decrement2 <= _FULL_STEP else 0.25 * decrement2)
                if moved is None:
                    break
                pt = moved
                if steps >= _MAX_NEWTON_STEPS:
                    break
            gap = (m + decrement2) / tau
            if stop is None and gap <= _GAP_TOL:
                stop = "gap_reached"
            nxt = min(tau * _STAGE_FACTOR, tau_last)
            if stop is None and decrement2 <= _CENTERED:
                # the predictor step of the module docstring (a centred
                # stage at tau_last has met the gap test)
                dx = np.linalg.solve(H, g0) * ((tau / nxt - 1.0) * tau)
                pt = self._line_search(pt, dx, nxt, log_alpha, 0.0) or pt
            tau = nxt
        _, a, _ = self._unpack(pt.x)
        if log_alpha is None:
            log_alpha = -float(np.max(pt.rows[:self.m_int]))
        return ExactSolution(A=pt.A, a=a.copy(), log_alpha=log_alpha,
                             stop_reason=stop or "iteration_cap",
                             newton_steps=steps,
                             barrier_stages=stages, gap_bound=gap)
