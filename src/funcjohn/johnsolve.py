"""Numerical solution of the functional John problem.

The problem: maximize log(alpha) + log det A over positive-definite
positions g(x) = alpha * w(A^{-1}(x - a)) subject to g <= f.  Each solve
takes the first route that fits its target:

1. a log-polyhedral normal form (bumps, their half-restrictions and their
   positioned copies): solved and certified exactly by the barrier method of
   funcjohn.exact;
2. a radial target: the optimum is A = r Id, a = 0, found by the
   one-dimensional solve of funcjohn.radial, with an exact certificate
   where m(r) has a rule (every library f under a height power w, and every
   radial f under a ball indicator) and a sampled one elsewhere;
3. a positioned copy Positioned(g, T) of any other target: g is solved and
   its position composed with T, which covers nested positions and a
   translated ball indicator;
4. anything else (a HalfRestriction of a smooth function, and subclasses
   defined elsewhere): Kelley's cutting planes (J. SIAM 8, 1960) on the
   same barrier.  A log-concave f lies below each tangent majorant
   log f(x_k) + <grad log f(x_k), x - x_k>, so finitely many of them, plus
   the half-space walls (-n, 0) of its HalfRestriction layers, form a
   normal form whose optimum bounds the true one from above.  Each round
   solves that relaxation exactly and measures the violation of f at the
   relaxation's contacts and on a seeded sample of supp w, adding tangents
   at the violated contacts and at the worst sample point, until that
   violation is at most CONSTRAINT_TOL; a free solve then lowers alpha by
   any violation left.  The certificate is that sample plus the contacts.
   A bounded support has no tangent cuts, so the route refuses it.

Each route reports where its constraint binds, as the contacts of the
solved position; extract_and_certify recovers John weights from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import radial
from .decomp import InfeasibleWeightsError, weights_from_points
from .exact import Problem, certificate, surrounds_origin
from .lcfunc import (
    DivergentIntegralError,
    HalfRestriction,
    LogConcaveFunction,
    NoSolverTargetError,
    Positioned,
)
from .position import AffinePosition, make_position
from .verify import ball_grid

_CUT_SAMPLE = 20_000  # points of supp w the cut route measures violations on
_MAX_ROUNDS = 50  # cap on the relaxations of one cut-route solve
_MAX_CUT_RADIUS = 1e6  # farthest first cut that may still surround the origin
_CONTACT_TOL = 1e-6  # relative gap below which a point counts as a contact
_NO_DECAY = ("f does not decay along some ray, so its integral diverges and "
             "positions of w below it grow without bound")

# a solve is feasible when its certified log-violation is at most this
CONSTRAINT_TOL = 1e-8


class InfeasibleProblemError(RuntimeError):
    pass


class NoContactsError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    """seed seeds the sample of supp w on which the cut route measures
    violations; ball_grid draws that sample at random only in d >= 3, and
    lays a lattice in d <= 2.  The exact and radial routes have no options.
    No route reads restarts; it is still accepted and validated, so that
    configs and callers that pass it stay valid."""

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
    # points y of supp w where alpha w(y) = f(Ay + a) within _CONTACT_TOL in
    # log, in the coordinates of `position`; () when the route cannot vouch
    # for them
    contacts: tuple = ()
    recovered_weights: tuple | None = None
    diagnostics: dict = field(default_factory=dict)


def _validate(f: LogConcaveFunction, w: LogConcaveFunction):
    if not (math.isfinite(w.support_radius()) and w.is_radial()):
        raise ValueError(
            "w must be a radial function of bounded support "
            "(height, height power, or ball indicator, unpositioned)")
    if w.dim != f.dim:
        raise ValueError("f and w dimensions differ")


def _points(Y: np.ndarray) -> tuple:
    """Rows of Y as the tuples SolveReport.contacts holds."""
    return tuple(tuple(float(v) for v in y) for y in Y)


# ---------------------------------------------------------------------------
# the exact route
# ---------------------------------------------------------------------------


def _solve_exact(f: LogConcaveFunction, w: LogConcaveFunction, form: tuple,
                 log_alpha: float | None) -> SolveReport:
    """Barrier solve of a target with normal form `form`, certified by the
    same closed form."""
    problem = Problem(form, w)
    if not surrounds_origin(problem.P):
        raise DivergentIntegralError(_NO_DECAY)
    start = problem.start(log_alpha)
    if start is None:
        raise InfeasibleProblemError(
            "no position of w fits inside the support of f"
            if log_alpha is None else
            "no position of w attains the prescribed height strictly below f")
    sol = problem.solve(start, log_alpha)
    pos = make_position(math.exp(sol.log_alpha), sol.A, sol.a,
                        positive_definite=True)
    log_alpha, A, a = math.log(pos.alpha), pos.matrix(), pos.a_vector()
    violation = certificate(form, w, log_alpha, A, a)
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        contacts=_points(problem.contacts(log_alpha, A, a, _CONTACT_TOL)),
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
    """One-dimensional solve of a radial target at A = r Id, a = 0.  Where
    the pair has a rule, m(r) is exact, and so are the violation and the
    contact spheres; otherwise they are measured on a grid four times
    denser than the solve's."""
    problem = radial.Problem(f, w)
    sol = problem.solve(log_alpha)
    if sol is None:
        raise InfeasibleProblemError(
            "no position of w fits inside the support of f"
            if log_alpha is None else
            "no position of w attains the prescribed height below f")
    check = problem if problem.exact else radial.Problem(f, w, density=4)
    m, radii = check.contacts(sol.r, sol.log_alpha, _CONTACT_TOL)
    violation = float(sol.log_alpha - m)
    # the edge of supp w touches f's edge when that binds
    if sol.stop_reason == "support_edge":
        radii.add(check.R)
    pos = make_position(math.exp(sol.log_alpha), sol.r * np.eye(f.dim),
                        np.zeros(f.dim), positive_definite=True)
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        contacts=_points(_sphere_points(f.dim, sorted(radii))),
        diagnostics={
            "engine": "radial",
            "certificate": "exact" if problem.exact else "sampled",
            "converged": sol.stop_reason != "iteration_cap",
            "stop_reason": sol.stop_reason,
            "m_evaluations": problem.evaluations + (
                0 if check is problem else check.evaluations),
            "max_constraint_violation": violation})


def _sphere_points(d: int, radii) -> np.ndarray:
    """The points +-t e_i that represent the sphere |y| = t of each radius,
    and the origin for t = 0."""
    E = np.vstack([np.eye(d), -np.eye(d)])
    return np.vstack([np.zeros((0, d)), *(t * E if t > 0.0 else
                                          np.zeros((1, d)) for t in radii)])


def _polar_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors (P, Q) of M = P Q: P = sqrt(M M^T) positive definite, Q
    orthogonal."""
    U, s, Vt = np.linalg.svd(M)
    P = (U * s) @ U.T
    return 0.5 * (P + P.T), U @ Vt


def _solve_composed(f: Positioned, w: LogConcaveFunction,
                    log_alpha: float | None, opts: SolverOptions
                    ) -> SolveReport:
    """Solve the inner function of f = alpha_T g(T^{-1}(x - t)) and carry
    its position (alpha_g, A_g, a_g) out: (alpha_T alpha_g, T A_g,
    t + T a_g), with T A_g = P Q replaced by its positive-definite polar
    factor P, which positions a radial w identically.  A contact y of the
    inner solve moves to Q y."""
    outer = f.position
    T, t = outer.matrix(), outer.a_vector()
    inner = _solve(f.inner, w,
                   None if log_alpha is None
                   else log_alpha - math.log(outer.alpha), opts)
    P, Q = _polar_factor(T @ inner.position.matrix())
    pos = make_position(outer.alpha * inner.position.alpha, P,
                        t + T @ inner.position.a_vector(),
                        positive_definite=True)
    Y = np.reshape(inner.contacts, (-1, f.dim))
    return replace(inner, position=pos, objective=pos.log_objective(),
                   contacts=_points(Y @ Q.T),
                   diagnostics=dict(inner.diagnostics, composed=True))


# ---------------------------------------------------------------------------
# the cut route
# ---------------------------------------------------------------------------


def _cut_target(f: LogConcaveFunction):
    """(body, wall normals N, wall offsets c): f is body on the half-spaces
    <N[j], x> < c[j]; each HalfRestriction layer of f adds the wall
    (-n, 0)."""
    walls = []
    while isinstance(f, HalfRestriction):
        walls.append(-f.normal_vector())
        f = f.inner
    return f, np.reshape(walls, (-1, f.dim)), np.zeros(len(walls))


def _tangents(body: LogConcaveFunction, X: np.ndarray):
    """Normal-form rows (s, b) of the tangent majorants of body at the rows
    of X: log f(x) + <grad log f(x), y - x> = b - <s, y>."""
    vals, grads = body.log_value_grad(X)
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))):
        raise NoSolverTargetError(
            f"{type(body).__name__} has no finite log value and gradient at "
            "a point no half-space wall excludes; tangent cuts need f > 0 "
            "there")
    return -grads, vals - np.einsum("ij,ij->i", grads, X)


def _cut_sample(w: LogConcaveFunction, seed: int):
    """The seeded sample of supp w the cut route measures violations on,
    with log w there."""
    Y = ball_grid(w.dim, _CUT_SAMPLE, radius=w.support_radius(), seed=seed)
    logw = w.log_evaluate_many(Y)
    keep = np.isfinite(logw)
    return Y[keep], logw[keep]


def _sampled_violation(f: LogConcaveFunction, Y, logw, log_alpha: float,
                       A, a) -> tuple[float, np.ndarray]:
    """(max over the sample of log(alpha w(y)) - log f(Ay + a), the point
    Ay + a where it is attained)."""
    X = Y @ A.T + a
    gap = log_alpha + logw - f.log_evaluate_many(X)
    k = int(np.argmax(gap))
    return float(gap[k]), X[k]


def _solve_cuts(f: LogConcaveFunction, w: LogConcaveFunction,
                log_alpha: float | None, seed: int) -> SolveReport:
    """Kelley's cutting planes: the exact barrier solves the relaxation of
    f to its tangent majorants at the points X plus its walls, and each
    round cuts at the relaxation's violated contacts and at the worst point
    of the sample, until the violation on both is at most CONSTRAINT_TOL."""
    if math.isfinite(f.support_radius()):
        raise NoSolverTargetError(
            f"{type(f).__name__} has a bounded support, which tangent cuts "
            "cannot follow")
    body, N, c = _cut_target(f)
    E = np.vstack([np.eye(f.dim), -np.eye(f.dim)])
    X = np.vstack([E, 3.0 * E])
    radius = 3.0
    Y, logw = _cut_sample(w, seed)
    rounds = newton_steps = 0
    cuts = _tangents(body, X)
    # cut farther out until the slopes surround the origin; later rounds
    # only add rows, which keeps it surrounded
    while not surrounds_origin(np.vstack([cuts[0], N])):
        radius *= 3.0
        if radius > _MAX_CUT_RADIUS:
            raise DivergentIntegralError(_NO_DECAY)
        X = np.vstack([X, radius * E])
        cuts = _tangents(body, X)
    while True:
        problem = Problem((*cuts, N, c), w)
        rounds += 1
        start = problem.start(log_alpha)
        if start is None:
            raise InfeasibleProblemError(
                "no position of w fits inside the support of f"
                if log_alpha is None else
                "no position of w attains the prescribed height below f")
        sol = problem.solve(start, log_alpha)
        newton_steps += sol.newton_steps
        violation, worst = _sampled_violation(f, Y, logw, sol.log_alpha,
                                              sol.A, sol.a)
        # f may fall below the relaxation between the sample's points, most
        # likely at the relaxation's contacts, where a cut row is tight
        Yc = problem.contacts(sol.log_alpha, sol.A, sol.a, _CONTACT_TOL)
        Xc = Yc @ sol.A.T + sol.a
        gap = (sol.log_alpha + w.log_evaluate_many(Yc)
               - f.log_evaluate_many(Xc))
        violation = max(violation, float(np.max(gap, initial=-np.inf)))
        if violation <= CONSTRAINT_TOL or rounds == _MAX_ROUNDS:
            break
        # cut where f is below the relaxation: at the worst sample point,
        # and at each contact of the relaxation that f violates (a contact
        # at a point already cut would only repeat its row)
        X = np.vstack([X, Xc[gap > CONSTRAINT_TOL], worst])
        cuts = _tangents(body, X)
    stop_reason = ("violation_below_tol" if violation <= CONSTRAINT_TOL
                   else "round_cap")
    upper_bound = sol.log_alpha + math.log(np.linalg.det(sol.A))
    la = sol.log_alpha
    if log_alpha is None:
        # the free height absorbs what violation is left
        la -= max(violation, 0.0)
        violation = min(violation, 0.0)
    pos = make_position(math.exp(la), sol.A, sol.a, positive_definite=True)
    # the answer is the last relaxation's optimum only if its barrier solve
    # reached the duality gap; only then do its contacts vouch for it
    converged = (stop_reason == "violation_below_tol"
                 and sol.stop_reason == "gap_reached")
    return SolveReport(
        position=pos,
        objective=pos.log_objective(),
        feasible=violation <= CONSTRAINT_TOL,
        contacts=_points(Yc) if converged else (),
        diagnostics={
            "engine": "cuts", "certificate": "sampled",
            "converged": converged,
            "stop_reason": stop_reason,
            "relaxation_stop_reason": sol.stop_reason,
            "rounds": rounds, "cuts": int(problem.m_int),
            "newton_steps": newton_steps, "upper_bound": upper_bound,
            "max_constraint_violation": violation})


def _solve(f: LogConcaveFunction, w: LogConcaveFunction,
           log_alpha: float | None, opts: SolverOptions) -> SolveReport:
    """The free solve (log_alpha None) or the fixed-height one, routed to
    the exact route, the radial route, composition through a position, or
    the cut route, in that order."""
    _validate(f, w)
    form = f.normal_form()
    if form is not None:
        return _solve_exact(f, w, form, log_alpha)
    if f.is_radial():
        return _solve_radial(f, w, log_alpha)
    if isinstance(f, Positioned):
        return _solve_composed(f, w, log_alpha, opts)
    return _solve_cuts(f, w, log_alpha, opts.seed)


def solve_john(f: LogConcaveFunction, w: LogConcaveFunction,
               opts: SolverOptions = SolverOptions()) -> SolveReport:
    """Best found positive-definite position of w below f: the optimum, to
    a duality gap of 1e-9, for a target with a normal form, to the accuracy
    of the one-dimensional solve for a radial target or a positioned copy of
    one, and to the cut route's sample for any other target."""
    return _solve(f, w, None, opts)


def solve_fixed_height(f: LogConcaveFunction, w: LogConcaveFunction,
                       xi: float, opts: SolverOptions = SolverOptions()
                       ) -> SolveReport:
    """As solve_john with the height pinned: alpha = xi / ||w||_inf.  opts
    apply only where f or, through positions, its innermost function takes
    the cut route."""
    fsup = f.sup_norm()
    if not 0.0 < xi <= fsup * (1.0 + 1e-12):
        raise ValueError(f"xi={xi} out of range (0, {fsup}]")
    return _solve(f, w, math.log(xi / w.sup_norm()), opts)


# ---------------------------------------------------------------------------
# contact extraction and certification
# ---------------------------------------------------------------------------


def extract_and_certify(f: LogConcaveFunction, report: SolveReport
                        ) -> SolveReport:
    """Recover John weights for the contacts the solve of f reported: the
    weights certify the solved position as optimal for w = hbar by the John
    condition (Ivanov and Naszodi, Functional John ellipsoids, 2022), read
    at that position.  NoContactsError when the solve reported none."""
    if not report.feasible:
        raise ValueError("certification requires a feasible report")
    contacts = np.reshape(report.contacts, (-1, f.dim))
    if contacts.shape[0] == 0:
        raise NoContactsError(
            "no contact points found: the position does not certify as "
            "optimal at this tolerance")
    try:
        weights = tuple(float(v) for v in weights_from_points(contacts, 1e-6))
    except InfeasibleWeightsError:
        weights = None
    return replace(report, recovered_weights=weights,
                   diagnostics=dict(report.diagnostics,
                                    certified=weights is not None))


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
