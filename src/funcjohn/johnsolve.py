"""Numerical solution of the functional John problem.

Each solve takes the first route that fits its target:

1. a log-polyhedral normal form (bumps and their positioned copies): solved
   and certified exactly by the barrier method of funcjohn.exact;
2. a radial target: the optimum is A = r Id, a = 0, found by the
   one-dimensional solve of funcjohn.radial, with a sampled certificate;
3. a positioned copy Positioned(g, T) of any other target: g is solved and
   its position composed with T, which covers nested positions and a
   translated ball indicator;
4. anything else: the sampled constraint-exchange engine below.  No
   function of this library reaches it; it serves LogConcaveFunction
   subclasses defined elsewhere, and the tests use it as an independent
   reference.

The sampled engine maximizes log(alpha) + log det A over positive-definite
positions g(x) = alpha * w(A^{-1}(x - a)) subject to g <= f.  The scale is
eliminated: for fixed (A, a) the best alpha is exp(m) with
    m(A, a) = inf over supp w of (log f(A y + a) - log w(y)),
and m + log det A is jointly concave, so a soft-min relaxation of m over a
finite constraint sample is maximized by quasi-Newton steps in
(log-Cholesky(A), a) at a decreasing temperature, with the most violated
constraint points located by ascent and exchanged into the sample.  The
fixed-height problem maximizes log det A subject to m >= log(xi / ||w||_inf),
solved through bisection on the multiplier of m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from . import radial
from .decomp import InfeasibleWeightsError, weights_from_points
from .exact import Problem
from .lcfunc import Height, LogConcaveFunction, Positioned, hbar
from .position import AffinePosition, make_position
from .verify import ball_grid, log_gap, sphere_points, spread

_INIT_GRID = {1: 201, 2: 421, 3: 800}
_SEP_GRID = {1: 2001, 2: 4096, 3: 8192}
_CERT_GRID = {1: 10_001, 2: 250_000, 3: 131_072}
_TAU_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
_FINAL_SHRINK = 1.0 - 1e-12  # keeps supp g strictly inside supp f
_MAX_OUTER_ITERATIONS = 200  # cap on the fixed-height multiplier bisection
_CONTACT_TOL = 1e-6  # relative gap below which a point counts as a contact

# a solve is feasible when its certified log-violation is at most this
CONSTRAINT_TOL = 1e-8


class InfeasibleProblemError(RuntimeError):
    pass


class NoContactsError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    """Options of the sampled engine: the seed of its grids and starts, and
    its number of restarts.  They do not apply on the exact route (targets
    with a normal form) nor on the radial route (radial targets and their
    positioned copies), which have no options; their reports say engine
    "exact" and "radial".  Every function of this library takes one of
    those two, so the options reach only functions defined elsewhere."""

    seed: int = 0
    restarts: int = 16

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("invalid solver options")


@dataclass(frozen=True)
class SolveReport:
    position: AffinePosition
    objective: float  # log alpha + log det A
    feasible: bool
    contacts: tuple = ()
    recovered_weights: tuple | None = None
    diagnostics: dict = field(default_factory=dict)


def target_log_grad(f: LogConcaveFunction, X: np.ndarray, tau: float = 0.0
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(log f, grad log f) rows for the solver's smooth target; see
    LogConcaveFunction.log_value_grad."""
    return f.log_value_grad(X, tau)


def _validate(f: LogConcaveFunction, w: LogConcaveFunction):
    if not (math.isfinite(w.support_radius()) and w.is_radial()):
        raise ValueError(
            "w must be a radial function of bounded support "
            "(height, height power, or ball indicator, unpositioned)")
    if w.dim != f.dim:
        raise ValueError("f and w dimensions differ")


# ---------------------------------------------------------------------------
# the exact route
# ---------------------------------------------------------------------------


def _solve_exact(f: LogConcaveFunction, w: LogConcaveFunction, form: tuple,
                 log_alpha: float | None) -> SolveReport:
    """Barrier solve of a target with normal form `form`, certified by the
    same closed form."""
    problem = Problem(form, w)
    start = problem.start(log_alpha)
    if start is None:
        raise InfeasibleProblemError(
            "no position of w fits inside the support of f"
            if log_alpha is None else
            "no position of w attains the prescribed height strictly below f")
    sol = problem.solve(start, log_alpha)
    pos = make_position(math.exp(sol.log_alpha), sol.A, sol.a,
                        positive_definite=True)
    violation = problem.certificate(math.log(pos.alpha), pos.matrix(),
                                    pos.a_vector())
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        diagnostics={
            "engine": "exact", "certificate": "exact",
            "converged": sol.stop_reason == "gap_reached",
            "stop_reason": sol.stop_reason,
            "newton_steps": sol.newton_steps,
            "barrier_stages": sol.barrier_stages,
            "gap_bound": sol.gap_bound,
            "max_constraint_violation": violation})


# ---------------------------------------------------------------------------
# the radial route and composition
# ---------------------------------------------------------------------------


def _solve_radial(f: LogConcaveFunction, w: LogConcaveFunction,
                  log_alpha: float | None) -> SolveReport:
    """One-dimensional solve of a radial target at A = r Id, a = 0, with
    the violation re-measured on a grid four times denser."""
    problem = radial.Problem(f, w)
    sol = problem.solve(log_alpha)
    if sol is None:
        raise InfeasibleProblemError(
            "no position of w fits inside the support of f"
            if log_alpha is None else
            "no position of w attains the prescribed height below f")
    check = radial.Problem(f, w, density=4)
    violation = float(sol.log_alpha - check.m(sol.r))
    pos = make_position(math.exp(sol.log_alpha), sol.r * np.eye(f.dim),
                        np.zeros(f.dim), positive_definite=True)
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        diagnostics={
            "engine": "radial", "certificate": "sampled",
            "converged": sol.stop_reason != "iteration_cap",
            "stop_reason": sol.stop_reason,
            "m_evaluations": problem.evaluations + check.evaluations,
            "max_constraint_violation": violation})


def _polar_factor(M: np.ndarray) -> np.ndarray:
    """The positive-definite factor sqrt(M M^T) of M = P Q, Q orthogonal."""
    U, s, _ = np.linalg.svd(M)
    P = (U * s) @ U.T
    return 0.5 * (P + P.T)


def _solve_composed(f: Positioned, w: LogConcaveFunction,
                    log_alpha: float | None, opts: SolverOptions
                    ) -> SolveReport:
    """Solve the inner function of f = alpha_T g(T^{-1}(x - t)) and carry
    its position (alpha_g, A_g, a_g) out: (alpha_T alpha_g, T A_g,
    t + T a_g), with T A_g replaced by its positive-definite polar factor,
    which positions a radial w identically."""
    outer = f.position
    T, t = outer.matrix(), outer.a_vector()
    inner = _solve(f.inner, w,
                   None if log_alpha is None
                   else log_alpha - math.log(outer.alpha), opts)
    pos = make_position(outer.alpha * inner.position.alpha,
                        _polar_factor(T @ inner.position.matrix()),
                        t + T @ inner.position.a_vector(),
                        positive_definite=True)
    return replace(inner, position=pos, objective=pos.log_objective(),
                   diagnostics=dict(inner.diagnostics, composed=True))


# ---------------------------------------------------------------------------
# the constraint-exchange engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, f, w, opts: SolverOptions):
        self.f, self.w, self.opts = f, w, opts
        self.d = f.dim
        # theta packs the lower triangle of the Cholesky factor L of A row
        # by row, its diagonal as logs, followed by a
        self._rows, self._cols = np.tril_indices(self.d)
        self._diag = self._rows == self._cols
        self.K = self._rows.shape[0]
        self.wrad = w.support_radius()
        core = ball_grid(self.d, _INIT_GRID[min(self.d, 3)],
                         radius=0.999 * self.wrad, seed=opts.seed)
        # near-boundary rings pin down the support constraint early
        dirs = sphere_points(self.d, max(2 * self.d, 16), seed=opts.seed + 3)
        rings = np.vstack([r * self.wrad * dirs
                           for r in (0.99, 0.999, 0.9999, 0.99999)])
        self.Y = np.vstack([core, rings])
        self.logw = w.log_evaluate_many(self.Y)
        # the violation surface often rides a narrow radial ridge just inside
        # the support boundary, so the separation grid carries dense shells
        if self.d == 1:
            shell_dirs = np.array([[1.0], [-1.0]])
        else:
            shell_dirs = sphere_points(
                self.d, {2: 256, 3: 512}[min(self.d, 3)], seed=opts.seed + 5)
        shells = np.vstack([r * self.wrad * shell_dirs for r in
                            (0.95, 0.98, 0.99, 0.995, 0.998,
                             0.999, 0.9995, 0.9999)])
        self.sep_grid = np.vstack([
            ball_grid(self.d, _SEP_GRID[min(self.d, 3)],
                      radius=0.9999 * self.wrad, seed=opts.seed + 1),
            shells])
        self.logw_sep = w.log_evaluate_many(self.sep_grid)
        self._rng = np.random.default_rng(opts.seed + 29)

    # --- packing ------------------------------------------------------

    def _factor(self, theta):
        """(log-Cholesky parameters, Cholesky factor L, a) of theta."""
        # clamp the parametrization so wild line-search probe steps cannot
        # overflow; the objective at the clamp is astronomical anyway, so
        # such probes are always rejected
        chol = np.clip(theta[:self.K], -50.0, 50.0)
        a = np.clip(theta[self.K:], -1e6, 1e6)
        L = np.zeros((self.d, self.d))
        L[self._rows, self._cols] = chol
        for i in range(self.d):
            L[i, i] = math.exp(L[i, i])
        return chol, L, a

    def unpack(self, theta):
        """(A, a) of theta."""
        _, L, a = self._factor(theta)
        return L @ L.T, a

    def pack(self, A, a):
        L = np.linalg.cholesky(np.asarray(A, dtype=float))
        for i in range(self.d):
            L[i, i] = math.log(L[i, i])
        return np.concatenate([L[self._rows, self._cols], a])

    # --- objective --------------------------------------------------------

    def fused(self, theta, lam, tau):
        """Value and gradient of -(log det A + lam * softmin_tau r)."""
        chol, L, a = self._factor(theta)
        A = L @ L.T
        fvals, fgrads = target_log_grad(self.f, self.Y @ A.T + a, tau)
        r = fvals - self.logw
        rmin = float(r.min())
        e = np.exp(-(r - rmin) / tau)
        Z = float(e.sum())
        m = rmin - tau * math.log(Z)
        p = e / Z
        # log det A = 2 * the sum of the log-diagonal parameters
        val = -(2.0 * sum(chol[self._diag]) + lam * m)

        G = fgrads * p[:, None]     # softmax-weighted gradients of r
        # the soft-min's gradient in A is M = G^T Y, and in L it is
        # (M + M^T) L; the diagonal is packed as log L_ii, which scales its
        # entries by L_ii, and d log det A / d(log L_ii) = 2
        M = G.T @ self.Y
        dL = (M + M.T) @ L
        dL[np.diag_indices(self.d)] *= np.diag(L)
        grad_chol = -lam * dL[self._rows, self._cols] - 2.0 * self._diag
        return val, np.concatenate([grad_chol, -lam * G.sum(axis=0)])

    def grid_min(self, theta):
        """min over the sample of log f(A y + a) - log w(y), smooth target."""
        A, a = self.unpack(theta)
        fvals, _ = target_log_grad(self.f, self.Y @ A.T + a)
        return float(np.min(fvals - self.logw))

    # --- separation ------------------------------------------------------

    def _sup_over(self, theta, grid, logw, n_refine):
        """sup over the ball of log w(y) - log f(A y + a), grid plus ascent."""
        A, a = self.unpack(theta)
        fvals, _ = target_log_grad(self.f, grid @ A.T + a)
        v = logw - fvals
        order = np.argsort(v)[::-1]
        best, best_y = float(v[order[0]]), grid[order[0]]
        points = []
        r = self.wrad
        # one ascent start per spatial basin of the violation
        starts = order[spread(grid[order], 0.1 * r, n_refine)]

        def fused(z):
            s = math.sqrt(1.0 + float(z @ z))
            y = r * z / s
            lw, gw = target_log_grad(self.w, y[None, :])
            lf, gf = target_log_grad(self.f, (y @ A.T + a)[None, :])
            gy = gw[0] - gf[0] @ A
            J = (np.eye(self.d) - np.outer(z, z) / (s * s)) * (r / s)
            return -(lw[0] - lf[0]), -(J @ gy)

        for idx in starts:
            y0 = grid[idx]
            n0 = np.linalg.norm(y0) / r
            z0 = y0 / r / max(math.sqrt(max(1.0 - n0 * n0, 1e-12)), 1e-6)
            res = optimize.minimize(fused, z0, jac=True, method="L-BFGS-B",
                                    options={"maxiter": 120, "gtol": 1e-12})
            s = math.sqrt(1.0 + float(res.x @ res.x))
            y = r * res.x / s
            points.append(y)
            if -res.fun > best:
                best, best_y = float(-res.fun), y
        return best, best_y, points

    def separation(self, theta, n_refine=16):
        return self._sup_over(theta, self.sep_grid, self.logw_sep, n_refine)

    def certify(self, theta):
        """Dense independent sup of log w(y) - log f(A y + a), returned with
        its witness; exp of the negated sup is the largest feasible alpha.

        Grid values use the true log f (+inf when the position pokes out of
        supp f at a sampled point); ascent refinement navigates the smooth
        surrogate but the refined points are re-scored exactly."""
        A, a = self.unpack(theta)
        n = _CERT_GRID[min(self.d, 3)]
        grid = ball_grid(self.d, n, radius=0.9999 * self.wrad,
                         seed=self.opts.seed + 17)
        logw = self.w.log_evaluate_many(grid)

        def exact(Y, lw):
            return log_gap(lw, self.f.log_evaluate_many(Y @ A.T + a))

        v = exact(grid, logw)
        k = int(np.argmax(v))
        best, witness = float(v[k]), grid[k]
        if math.isinf(best):
            return best, witness
        soft_best, _, points = self._sup_over(theta, grid, logw, n_refine=32)
        if points:
            P = np.asarray(points)
            pv = exact(P, self.w.log_evaluate_many(P))
            j = int(np.argmax(pv))
            if float(pv[j]) > best:
                best, witness = float(pv[j]), P[j]
        return best, witness

    def add_points(self, points):
        fresh = [y for y in points
                 if np.min(np.linalg.norm(self.Y - y, axis=1)) > 1e-9]
        if fresh:
            self.Y = np.vstack([self.Y] + fresh)
            self.logw = np.append(
                self.logw, self.w.log_evaluate_many(np.asarray(fresh)))
        return len(fresh)

    # --- initialization --------------------------------------------------

    def initial_theta(self, rng, restart):
        d = self.d
        box = ball_grid(d, _SEP_GRID[min(d, 3)],
                        radius=max(4.0, 2.0 * self.wrad), seed=13)
        fv, _ = target_log_grad(self.f, box)
        a = box[int(np.argmax(fv))].copy()
        res = optimize.minimize(
            lambda x: -target_log_grad(self.f, x[None, :])[0][0], a,
            method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
        a = res.x
        scale = 0.4 * self.wrad if restart == 0 else \
            self.wrad * (0.2 + 0.6 * rng.random())
        A = scale * np.eye(d)
        if restart > 0:
            a = a + 0.2 * rng.standard_normal(d)
            W = rng.standard_normal((d, d)) * 0.1
            A = A + scale * (W + W.T) / 2.0
            A = A + (0.05 - min(0.0, np.linalg.eigvalsh(A).min())) * np.eye(d)
        return self.pack(A, a)

    # --- inner solve at fixed multiplier -----------------------------------

    def solve_lambda(self, theta0, lam, exchange_rounds=12):
        """Anneal the soft-min temperature, then alternate quasi-Newton
        re-optimization with constraint exchange; the returned iterate is the
        one with the best feasibility-corrected objective seen (the ascent
        can regress when a stage's line search fails near a ridge)."""
        theta = theta0.copy()
        iters = 0
        best = None
        stall = 0
        schedule = _TAU_SCHEDULE
        for _ in range(exchange_rounds):
            for tau in schedule:
                for attempt in range(3):
                    res = optimize.minimize(
                        self.fused, theta, args=(lam, tau), jac=True,
                        method="L-BFGS-B",
                        options={"maxiter": 400, "gtol": 1e-12,
                                 "ftol": 1e-16, "maxls": 100})
                    iters += 1
                    if res.nit > 0 or attempt == 2:
                        theta = res.x
                        break
                    # immediate line-search failure: nudge off the ridge
                    theta = theta + 1e-8 * self._rng.standard_normal(
                        theta.shape[0])
            schedule = _TAU_SCHEDULE[3:]
            sup, _, points = self.separation(theta)
            A, _ = self.unpack(theta)
            obj = math.log(max(np.linalg.det(A), 1e-300)) - lam * sup
            if best is None or obj > best[0] + 1e-12:
                best = (obj, theta.copy())
                stall = 0
            else:
                stall += 1
            if self.add_points(points) == 0 or stall >= 2:
                break
        return best[1], iters


def _bisect_scale(violation, lo, hi, vtol, iterations):
    """Largest scale in [lo, hi] with violation(scale) <= vtol, by bisection
    to width 1e-13 or at most `iterations` halvings; returns the low end."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if violation(mid) <= vtol:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return lo


def _finish(engine: _Engine, theta, log_alpha, diagnostics) -> SolveReport:
    """Shrink inside the support, certify, and package the report."""
    A, a = engine.unpack(theta)
    A = _FINAL_SHRINK * A
    cert, _ = engine.certify(engine.pack(A, a))
    fac = 1.0 - 1e-9
    for _ in range(50):
        # the support of the positioned w pokes out of supp f somewhere:
        # back the matrix off until the certificate is finite
        if math.isfinite(cert):
            break
        A = fac * A
        fac = fac ** 4
        cert, _ = engine.certify(engine.pack(A, a))
    if not math.isfinite(cert):
        raise InfeasibleProblemError(
            "no position of w fits inside the support of f")
    if log_alpha is None:
        la = -cert
        violation = 0.0
    else:
        # the prescribed height cannot move, so feasibility and leftover
        # slack are both resolved by scaling A (w is radially nonincreasing:
        # scaling down only lowers the positioned function, scaling up only
        # raises it), with a cheap separation sup steering the bisection
        la = log_alpha
        # a height pinned at the peak makes the violation there an exact
        # zero up to rounding, so the sign tests need a small tolerance
        vtol = min(1e-10, 0.01 * CONSTRAINT_TOL)

        def sep_violation(s):
            return la + engine.separation(engine.pack(s * A, a),
                                          n_refine=4)[0]

        if sep_violation(1.0) > vtol:
            lo, hi = 0.5, 1.0
            while sep_violation(lo) > vtol and lo > 1e-3:
                lo *= 0.7
        else:
            lo, hi = 1.0, 1.05
            while sep_violation(hi) <= vtol and hi < 4.0:
                lo, hi = hi, hi * 1.05
        scale = _bisect_scale(sep_violation, lo, hi, vtol, 50)

        def exact_violation(s):
            return la + engine.certify(engine.pack(s * A, a))[0]

        violation = exact_violation(scale)
        if violation > vtol:
            # the dense certificate sees a violation the separation sup
            # missed (possibly infinite, when the support pokes out)
            lo = 0.5 * scale
            while exact_violation(lo) > vtol and lo > 1e-3:
                lo *= 0.7
            scale = _bisect_scale(exact_violation, lo, scale, vtol, 40)
            violation = exact_violation(scale)
        A = scale * A
    if la < math.log(1e-12):
        raise InfeasibleProblemError(
            "alpha collapsed below 1e-12: no position of w fits below f")
    pos = make_position(math.exp(la), A, a, positive_definite=True)
    diagnostics = dict(diagnostics, engine="sampled", certificate="sampled")
    diagnostics["max_constraint_violation"] = violation
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        diagnostics=diagnostics,
    )


def _solve(f: LogConcaveFunction, w: LogConcaveFunction,
           log_alpha: float | None, opts: SolverOptions) -> SolveReport:
    """The free solve (log_alpha None) or the fixed-height one, routed to
    the exact route, the radial route, composition through a position, or
    the sampled engine, in that order."""
    _validate(f, w)
    form = f.normal_form()
    if form is not None:
        return _solve_exact(f, w, form, log_alpha)
    if f.is_radial():
        return _solve_radial(f, w, log_alpha)
    if isinstance(f, Positioned):
        return _solve_composed(f, w, log_alpha, opts)
    if log_alpha is None:
        return _sampled_free(f, w, opts)
    return _sampled_fixed_height(f, w, log_alpha, opts)


def solve_john(f: LogConcaveFunction, w: LogConcaveFunction,
               opts: SolverOptions = SolverOptions()) -> SolveReport:
    """Best found positive-definite position of w below f: the optimum, to
    a duality gap of 1e-9, for a target with a normal form, and to the
    accuracy of the one-dimensional solve for a radial target or a
    positioned copy of one."""
    return _solve(f, w, None, opts)


def solve_fixed_height(f: LogConcaveFunction, w: LogConcaveFunction,
                       xi: float, opts: SolverOptions = SolverOptions()
                       ) -> SolveReport:
    """As solve_john with the height pinned: alpha = xi / ||w||_inf.  opts
    apply only where f or, through positions, its innermost function takes
    the sampled engine."""
    fsup = f.sup_norm()
    if not 0.0 < xi <= fsup * (1.0 + 1e-12):
        raise ValueError(f"xi={xi} out of range (0, {fsup}]")
    return _solve(f, w, math.log(xi / w.sup_norm()), opts)


def _sampled_free(f, w, opts: SolverOptions) -> SolveReport:
    engine = _Engine(f, w, opts)
    rng = np.random.default_rng(opts.seed)
    best = None
    trace = []
    for r in range(opts.restarts):
        theta, iters = engine.solve_lambda(engine.initial_theta(rng, r),
                                           lam=1.0)
        A, _ = engine.unpack(theta)
        obj = engine.grid_min(theta) + math.log(max(np.linalg.det(A), 1e-300))
        trace.append(max(obj, trace[-1] if trace else -math.inf))
        if best is None or obj > best[0] + 1e-12:
            best = (obj, theta, iters, r)
        elif abs(obj - best[0]) <= 1e-12:
            Ab, ab = engine.unpack(best[1])
            Ac, ac = engine.unpack(theta)
            kb = tuple(Ab.ravel()) + tuple(ab)
            kc = tuple(Ac.ravel()) + tuple(ac)
            if kc < kb:
                best = (obj, theta, iters, r)
    _, theta, iters, which = best
    # the dense certificate can expose a violation the separation ascent
    # missed; feed its witness back as a constraint and re-optimize so the
    # matrix adapts instead of alpha absorbing the whole correction.  Only
    # running out of rounds leaves that disagreement unresolved.
    stop_reason = "round_cap"
    for _ in range(5):
        sup, _, _ = engine.separation(theta)
        cert, witness = engine.certify(theta)
        if not math.isfinite(cert):
            stop_reason = "certificate_infinite"
            break
        if cert <= sup + 1e-8:
            stop_reason = "certificate_agrees"
            break
        if engine.add_points([witness]) == 0:
            stop_reason = "witness_known"
            break
        theta, it = engine.solve_lambda(theta, lam=1.0, exchange_rounds=3)
        iters += it
        A, _ = engine.unpack(theta)
        trace.append(max(trace[-1], engine.grid_min(theta)
                         + math.log(max(np.linalg.det(A), 1e-300))))
    return _finish(engine, theta, None, {
        "restarts": opts.restarts, "restart": which,
        "outer_iterations": iters, "objective_trace": trace,
        "converged": stop_reason != "round_cap", "stop_reason": stop_reason})


def _sampled_fixed_height(f, w, log_alpha: float, opts: SolverOptions
                          ) -> SolveReport:
    engine = _Engine(f, w, opts)
    theta = engine.initial_theta(np.random.default_rng(opts.seed), 0)
    # bisection on the multiplier of m: grid_min is nondecreasing in lambda
    lo, hi = 1e-3, 1.0
    theta, _ = engine.solve_lambda(theta, lam=hi)
    iters = 0
    slack = 1e-9  # the peak height is matched only to optimization accuracy
    while engine.grid_min(theta) < log_alpha - slack and hi < 1e9:
        lo, hi = hi, hi * 10.0
        theta, it = engine.solve_lambda(theta, lam=hi)
        iters += it
    if engine.grid_min(theta) < log_alpha - slack:
        raise InfeasibleProblemError(
            "no position of w attains the prescribed height below f")
    converged = False
    for _ in range(_MAX_OUTER_ITERATIONS):
        mid = math.sqrt(lo * hi)
        theta_mid, it = engine.solve_lambda(theta, lam=mid,
                                            exchange_rounds=2)
        iters += it
        gap = engine.grid_min(theta_mid) - log_alpha
        if gap >= -slack:
            hi, theta = mid, theta_mid
        else:
            lo = mid
        if abs(gap) <= 1e-12 or hi / lo < 1.0 + 1e-12:
            converged = True
            break
    # feed back any certificate-only violation so the matrix re-optimizes
    # rather than being scaled down wholesale during restoration
    for _ in range(3):
        cert, witness = engine.certify(theta)
        if not math.isfinite(cert):
            break
        if log_alpha + cert <= min(1e-10, 0.01 * CONSTRAINT_TOL):
            break
        if engine.add_points([witness]) == 0:
            break
        theta, it = engine.solve_lambda(theta, lam=hi, exchange_rounds=2)
        iters += it
    return _finish(engine, theta, log_alpha, {
        "restarts": 1, "restart": 0, "outer_iterations": iters,
        "objective_trace": [], "converged": converged,
        "multiplier": hi})


# ---------------------------------------------------------------------------
# contact extraction and certification
# ---------------------------------------------------------------------------


def extract_and_certify(f: LogConcaveFunction, report: SolveReport
                        ) -> SolveReport:
    """Find contact points of f with hbar (in John coordinates) and recover
    decomposition weights; success certifies optimality via the John
    condition.  A target with a normal form has its contacts in closed form;
    any other is searched on a grid."""
    if not report.feasible:
        raise ValueError("certification requires a feasible report")
    pos = report.position
    d = f.dim
    dev = max(abs(pos.alpha - 1.0),
              float(np.max(np.abs(pos.matrix() - np.eye(d)))),
              float(np.max(np.abs(pos.a_vector()))))
    if dev > 0.05:
        raise ValueError("certification runs in John coordinates; "
                         "transform f to the solved position first")
    form = f.normal_form()
    if form is not None:
        contacts = Problem(form, Height(d)).contacts(
            math.log(pos.alpha), pos.matrix(), pos.a_vector(), _CONTACT_TOL)
    else:
        contacts = _searched_contacts(f)
    if contacts.shape[0] == 0:
        raise NoContactsError(
            "no contact points found: the position does not certify as "
            "optimal at this tolerance")
    weights = None
    certified = False
    try:
        weights = weights_from_points(contacts, 1e-6)
        certified = True
    except InfeasibleWeightsError:
        pass
    diag = dict(report.diagnostics)
    diag["certified"] = certified
    return replace(
        report,
        contacts=tuple(tuple(float(v) for v in u) for u in contacts),
        recovered_weights=None if weights is None else
        tuple(float(v) for v in weights),
        diagnostics=diag,
    )


def _searched_contacts(f: LogConcaveFunction) -> np.ndarray:
    """Contacts of f with hbar by a grid, Nelder-Mead ascents from its
    basins of the gap, and the support edges."""
    d = f.dim
    grid = ball_grid(d, {1: 4001, 2: 8192, 3: 16384}[min(d, 3)],
                     radius=0.99999)
    hvals = hbar(grid)
    fvals = f.evaluate_many(grid)
    ratio = (fvals - hvals) / np.maximum(hvals, 1e-12)

    def rel_gap(u):
        h = float(hbar(u))
        if np.linalg.norm(u) >= 1.0 or h < 1e-8:
            return 1e9
        return (float(f.evaluate_many(u[None, :])[0]) - h) / h

    # spatially clustered seeds: one ascent start per basin of the ratio
    order = np.argsort(ratio)
    order = order[ratio[order] <= max(1.0, 10.0 * ratio.min())]
    seeds = grid[order[spread(grid[order], 0.05, 48)]]
    candidates = []
    for s in seeds:
        res = optimize.minimize(rel_gap, s, method="Nelder-Mead",
                                options={"xatol": 1e-13, "fatol": 1e-15,
                                         "maxiter": 4000})
        if res.fun <= _CONTACT_TOL:
            candidates.append(res.x)
    # when the gap vanishes on a sizable region (f coincides with the height
    # function there), any spanning subset certifies; a clustered refinement
    # set alone can be one-sided, so add spatially spread exact grid contacts
    exact = np.flatnonzero((np.abs(ratio) <= _CONTACT_TOL) & (hvals > 1e-6))
    if exact.size >= 0.05 * grid.shape[0]:
        candidates.extend(grid[exact[spread(grid[exact], 0.3, 8 * (d + 1))]])
    # boundary-of-support contacts for targets with bounded support
    if math.isfinite(f.support_radius()):
        dirs = np.vstack([np.eye(d), -np.eye(d)])
        for u in dirs:
            inside = float(f.evaluate_many((1.0 - 1e-9) * u[None, :])[0])
            outside = float(f.evaluate_many((1.0 + 1e-9) * u[None, :])[0])
            if inside > 0.0 and outside == 0.0:
                candidates.append(u.astype(float))
    candidates = np.reshape(candidates, (-1, d))
    return candidates[spread(candidates, 1e-5)]


# ---------------------------------------------------------------------------
# the height curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveSample:
    alpha: float
    t: float
    psi: float
    phi: float
    feasible: bool
    max_violation: float
    error: str | None = None


def height_curve(f: LogConcaveFunction, w: LogConcaveFunction,
                 alphas, opts: SolverOptions = SolverOptions()
                 ) -> list[CurveSample]:
    """One independent fixed-height solve per height, in the order given;
    psi = det A, phi = psi^{1/d}.  A solve that fails is recorded in its
    sample's error rather than raised."""
    d = f.dim
    samples = []
    for alpha in map(float, alphas):
        try:
            rep = solve_fixed_height(f, w, alpha, opts)
            psi = abs(rep.position.det())
            samples.append(CurveSample(
                alpha=alpha, t=math.log(alpha), psi=psi, phi=psi ** (1.0 / d),
                feasible=rep.feasible,
                max_violation=rep.diagnostics["max_constraint_violation"]))
        except (InfeasibleProblemError, ValueError) as exc:
            samples.append(CurveSample(
                alpha=alpha, t=math.log(alpha), psi=math.nan, phi=math.nan,
                feasible=False, max_violation=math.nan, error=str(exc)))
    return samples


def phi_concavity_violation(samples: list[CurveSample]) -> float:
    """Worst midpoint concavity violation of phi as a function of t over
    consecutive feasible triples (positive = violation)."""
    pts = sorted((s.t, s.phi) for s in samples
                 if s.feasible and math.isfinite(s.phi))
    worst = -math.inf
    for (t0, p0), (t1, p1), (t2, p2) in zip(pts, pts[1:], pts[2:]):
        if t2 - t0 < 1e-12:
            continue
        lam = (t2 - t1) / (t2 - t0)
        worst = max(worst, lam * p0 + (1.0 - lam) * p2 - p1)
    return worst
