"""Inclusion and inequality verifiers.

Domination certificates (pointwise g <= f over a ball), the two facts behind
the John-type inclusion check (hbar <= f and the polar floor), the sandwich
construction built on them, and the Löwner counterexample suite.

hbar <= f (height_below) and the sandwich's left side (the minimum of f on
a ball) share one check, _log_gap_sup, routed as the solver routes f:
exact for normal forms, and for radial cores c g(x / r) (a radial g under
positions r Id with no shift, such as g at its John position) where the
pair has a rule, as every library g under Height has, ExpNorm with p > 2
included; sampled by check_domination for every other f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import exact, polar, radial
from .lcfunc import (
    BOUNDARY_SNAP,
    BallIndicator,
    ExpNorm,
    HalfRestriction,
    Height,
    LogConcaveFunction,
    PolarHeightPower,
    Positioned,
    Radial,
)
from .position import AffinePosition, apply_position, make_position

DOMINATION_PASS_TOL = 1e-8


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def ball_grid(d: int, n: int, radius: float = 1.0, seed: int = 0) -> np.ndarray:
    """About n points covering the ball of the given radius: a lattice in
    d <= 2, sphere-stratified seeded samples in d >= 3."""
    if d == 1:
        return np.linspace(-radius, radius, max(n, 3))[:, None]
    if d == 2:
        side = int(math.ceil(math.sqrt(n * 4.0 / math.pi)))
        axis = np.linspace(-radius, radius, side)
        X = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        return X[np.einsum("ij,ij->i", X, X) <= radius ** 2 + 1e-15]
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, d))
    V /= np.linalg.norm(V, axis=1)[:, None]
    radii = ((np.arange(n) + rng.random(n)) / n) ** (1.0 / d)
    return V * radii[:, None] * radius


def sphere_points(d: int, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((n, d))
    return V / np.linalg.norm(V, axis=1)[:, None]


# ---------------------------------------------------------------------------
# domination certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationCertificate:
    max_log_violation: float
    witness: tuple
    points_checked: int
    refined: bool
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_log_violation <= DOMINATION_PASS_TOL


def log_gap(lg: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """log g - log f from the two log-value arrays: -inf where g vanishes,
    +inf where g > 0 but f = 0."""
    gap = np.full(lg.shape[0], -np.inf)
    live = lg > -np.inf
    gap[live] = np.where(lf[live] > -np.inf, lg[live] - lf[live], np.inf)
    return gap


def _log_gap_many(g: LogConcaveFunction, f: LogConcaveFunction,
                  X: np.ndarray) -> np.ndarray:
    return log_gap(g.log_evaluate_many(X), f.log_evaluate_many(X))


def check_domination(g: LogConcaveFunction, f: LogConcaveFunction,
                     radius: float, seed: int = 0) -> DominationCertificate:
    """Lattice of about 4096 points plus seeded multi-start ascent of
    log g - log f over the ball of the given radius intersected with
    supp g; the ascent is skipped when the lattice already finds an
    infinite gap."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = g.dim
    X = ball_grid(d, 4096, radius, seed=seed)
    gap = _log_gap_many(g, f, X)
    order = np.argsort(gap)
    best = float(gap[order[-1]])
    witness = X[order[-1]]
    checked = X.shape[0]
    did_refine = math.isfinite(best)
    if did_refine:

        def neg(x):
            v = _log_gap_many(g, f, x[None, :])[0]
            if v == np.inf:
                return -1e9
            if v == -np.inf:
                return 1e9
            if np.linalg.norm(x) > radius:
                return 1e9
            return -v

        for idx in order[-6:]:
            res = optimize.minimize(neg, X[idx], method="Nelder-Mead",
                                    options={"xatol": 1e-12, "fatol": 1e-14,
                                             "maxiter": 2000})
            checked += res.nfev
            if -res.fun > best:
                best = float(-res.fun)
                witness = res.x
    return DominationCertificate(
        max_log_violation=best, witness=tuple(float(v) for v in witness),
        points_checked=checked, refined=did_refine, seed=seed)


# ---------------------------------------------------------------------------
# hbar <= f, the polar floor, John-type inclusion and the sandwich
# ---------------------------------------------------------------------------


def _radial_core(f: LogConcaveFunction) -> tuple | None:
    """(g, log c, r) with f(x) = c g(x / r) for a radial g: f is g under
    Positioned layers whose matrices are multiples r_k Id and whose shifts
    are 0, and c and r are the products of their alpha_k and |r_k|.  None
    for every other f."""
    log_c, r = 0.0, 1.0
    while isinstance(f, Positioned):
        pos = f.position
        A = pos.matrix()
        if np.any(A != A[0, 0] * np.eye(f.dim)) or np.any(pos.a_vector()):
            return None
        log_c += math.log(pos.alpha)
        r *= abs(float(A[0, 0]))
        f = f.inner
    return (f, log_c, r) if f.is_radial() else None


def _at_identity(form: tuple, w: Radial) -> float:
    d = w.dim
    return exact.certificate(form, w, 0.0, np.eye(d), np.zeros(d),
                             snap=BOUNDARY_SNAP)


def _log_gap_sup(w: Radial, f: LogConcaveFunction, seed: int = 0
                 ) -> tuple[float, str]:
    """(sup over supp w of log w - log f, "exact" or "sampled") for a radial
    w at the identity.  A normal form takes the exact route's certificate:
    +inf when a wall cuts into the open support of w (a crossing within
    BOUNDARY_SNAP of the wall's scale is a touch where w vanishes at its
    edge), -inf for walls only.  A radial core f(x) = c g(x / r) takes
    -log c - m(1 / r) of the radial route's certifying problem for g, w."""
    form = f.normal_form()
    if form is not None:
        return _at_identity(form, w), "exact"
    core = _radial_core(f)
    if core is not None:
        g, log_c, r = core
        problem = radial.Problem(g, w).certifying()
        return (-log_c - problem.m(1.0 / r),
                "exact" if problem.exact else "sampled")
    return check_domination(w, f, radius=w.support_radius(),
                            seed=seed).max_log_violation, "sampled"


def height_below(f: LogConcaveFunction, seed: int = 0) -> tuple[float, str]:
    """(max over the unit ball of log hbar - log f, "exact" or "sampled"),
    with hbar <= f exactly when it is <= 0: _log_gap_sup of Height(d)."""
    return _log_gap_sup(Height(f.dim), f, seed)


def exact_height_passes(form: tuple, violation: float) -> bool:
    """Whether hbar <= f passes for f of normal form `form`, whose exact
    height_below value is violation: within DOMINATION_PASS_TOL, widened
    for each row by the rounding of that row's own terms."""
    if violation <= DOMINATION_PASS_TOL:
        return True
    # row i, -b_i + S_hbar(|s_i|), reads a few ulps of |b_i| + |s_i| on a
    # touching anchor far out; raising b_i by 16 of them allows row i its
    # own rounding alone
    s, b, N, c = form
    b = b + 16.0 * math.ulp(1.0) * (np.abs(b) + np.linalg.norm(s, axis=1))
    return _at_identity((s, b, N, c), Height(s.shape[1])) \
        <= DOMINATION_PASS_TOL


def polar_floor(f: LogConcaveFunction, seed: int = 0) -> tuple[float, str]:
    """(exp(-M), "exact" or "sampled"): the minimum of polar(f) on the ball
    of radius rho = 1/(d+1), with M = max_{|p| = rho} S(p), as S is convex.
    For a radial core f(x) = c g(x / r) (_radial_core, radial f included),
    M = log c + S_g(r rho) from g's radial_log_sup, exact from a closed-form
    S and sampled from Radial's numeric search.  Exact for every f with a
    normal form, walls and flat slopes included, from its lower facets
    <c_J, p> + e_J: M = max_J (e_J + rho |c_J|), or +inf when dom S misses
    part of the ball.  Sampled on 1000 seeded points of the sphere for
    every other f."""
    d = f.dim
    rho = 1.0 / (d + 1)
    core = _radial_core(f)
    if core is not None:
        g, log_c, r = core
        numeric = type(g).radial_log_sup is Radial.radial_log_sup
        return (math.exp(-log_c
                         - float(g.radial_log_sup(np.array([r * rho]))[0])),
                "sampled" if numeric else "exact")
    facets = f.support_facets()
    if facets is not None:
        (_, c, e), (_, h) = facets
        if np.min(h, initial=math.inf) < rho:
            return 0.0, "exact"
        return math.exp(-np.max(e + rho * np.linalg.norm(c, axis=1))), "exact"
    # in d = 1 the 1000 points are copies of -rho and rho
    P = np.unique(sphere_points(d, 1000, seed=seed) * rho, axis=0)
    return float(polar.polar_eval_many(f, P).min()), "sampled"


def _floor_holds(floor: float, d: int) -> bool:
    return floor >= math.exp(-(d + 1)) - 1e-9


@dataclass(frozen=True)
class JohnInclusionRecord:
    height_below_max_log_violation: float  # see height_below
    height_below_certificate: str  # "exact" or "sampled"
    height_below_pass: bool
    polar_floor_min: float
    polar_floor_certificate: str  # "exact" or "sampled"
    polar_floor_pass: bool

    @property
    def passed(self) -> bool:
        return self.height_below_pass and self.polar_floor_pass


def john_inclusion_check(f: LogConcaveFunction, seed: int = 0
                         ) -> JohnInclusionRecord:
    """For f in John position: hbar <= f by height_below, and
    polar(f) >= e^{-(d+1)} on the ball of radius 1/(d+1) by polar_floor,
    which implies the corollary polar(f)(p) >= e^{-(d+1)} hbar((d+1) p).
    hbar <= f passes within DOMINATION_PASS_TOL, widened for each row of
    a normal form's certificate by the rounding of that row's own terms."""
    d = f.dim
    violation, height_how = height_below(f, seed)
    form = f.normal_form()
    height_pass = (exact_height_passes(form, violation) if form is not None
                   else violation <= DOMINATION_PASS_TOL)
    floor, how = polar_floor(f, seed)
    return JohnInclusionRecord(
        height_below_max_log_violation=violation,
        height_below_certificate=height_how,
        height_below_pass=height_pass,
        polar_floor_min=floor,
        polar_floor_certificate=how,
        polar_floor_pass=_floor_holds(floor, d),
    )


@dataclass(frozen=True)
class SandwichRecord:
    position: AffinePosition  # realizes f-tilde as a position of f
    left_floor: float
    right_scale: float
    right_decay_rate: float
    right_offset: float
    right_envelope: str
    r_star: float
    left_min: float
    left_certificate: str  # "exact" or "sampled"
    left_pass: bool
    right_log_gap_bound: float  # M - (d+1), see sandwich_construct
    polar_floor_certificate: str  # "exact" or "sampled"
    right_pass: bool

    @property
    def passed(self) -> bool:
        return self.left_pass and self.right_pass


def sandwich_construct(f: LogConcaveFunction, seed: int = 0
                       ) -> SandwichRecord:
    """Build f_tilde(x) = sqrt(d+1) f(sqrt(d/(d+1)) x) and certify
    chi_ball <= f_tilde <= sqrt(d+1) e^{-|x|/(d+2) + (d+1)}.

    The left side is the minimum of f_tilde on the closed unit ball,
    sqrt(d+1) times that of f on the closed ball of radius
    rho = sqrt(d/(d+1)): sqrt(d+1) exp(-v) with v = _log_gap_sup of the
    indicator of that ball, routed and labelled as height_below; for a
    normal form it is 0 when a wall meets the ball, and for a radial core
    it is sqrt(d+1) c phi_g(rho / r), as the profile phi_g is nonincreasing.
    The right side follows from polar_floor by Fenchel:
    log f(y) <= M - |y|/(d+1), so its log gap is at most M - (d+1) -
    (c1 - c2)|x|, c1 = sqrt(d/(d+1))/(d+1) > c2 = 1/(d+2), and it holds when
    M <= d+1.  The record reports M - (d+1); past r_star = 1/(c1 - c2) the
    gap is at least one below it."""
    d = f.dim
    shrink = math.sqrt(d / (d + 1.0))
    scale = math.sqrt(d + 1.0)
    pos = make_position(scale, np.eye(d) / shrink, np.zeros(d),
                        positive_definite=True)

    c1 = shrink / (d + 1.0)
    c2 = 1.0 / (d + 2.0)

    # left: chi_ball <= f_tilde on the closed ball, boundary included
    excess, left_how = _log_gap_sup(BallIndicator(d, shrink), f, seed)
    left_min = scale * float(np.exp(-excess))

    floor, how = polar_floor(f, seed)
    return SandwichRecord(
        position=pos,
        left_floor=1.0,
        right_scale=scale,
        right_decay_rate=c2,
        right_offset=float(d + 1),
        right_envelope=f"sqrt({d + 1})*exp(-|x|/{d + 2}+{d + 1})",
        r_star=1.0 / (c1 - c2),
        left_min=left_min,
        left_certificate=left_how,
        left_pass=left_min >= 1.0 - 1e-9,
        right_log_gap_bound=(-math.log(floor) if floor > 0.0 else math.inf)
        - (d + 1.0),
        polar_floor_certificate=how,
        right_pass=c1 > c2 and _floor_holds(floor, d),
    )


# ---------------------------------------------------------------------------
# Löwner counterexample suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LownerRecord:
    kind: str
    dim: int
    probe_t: tuple
    probe_values: tuple
    probe_pass: bool
    domination: DominationCertificate
    trials: int
    min_integral_ratio: float
    minimality_pass: bool
    tail_spot_pass: bool

    @property
    def passed(self) -> bool:
        return self.probe_pass and self.domination.passed \
            and self.minimality_pass and self.tail_spot_pass


def _lowner_base(kind: str, dim: int, p: float = 2.0, s: float = 1.0
                 ) -> LogConcaveFunction:
    if kind == "expnorm":
        return ExpNorm(dimension=dim, p=p)
    if kind == "polar_height_power":
        return PolarHeightPower(dimension=dim, s=s)
    raise ValueError(f"unknown Löwner kind {kind!r}")


def _project_to_feasible(L, Lplus, pos: AffinePosition, probe: np.ndarray
                         ) -> AffinePosition:
    """Scale alpha up so the positioned L dominates L_plus on the probe set
    (plus local refinement of the worst point)."""
    g = apply_position(pos, L)
    gap = _log_gap_many(Lplus, g, probe)
    worst = float(np.max(gap))
    idx = int(np.argmax(gap))

    def neg(x):
        v = _log_gap_many(Lplus, g, x[None, :])[0]
        return 1e9 if not math.isfinite(v) else -v

    res = optimize.minimize(neg, probe[idx], method="Nelder-Mead",
                            options={"xatol": 1e-10, "maxiter": 1000})
    worst = max(worst, float(-res.fun))
    bump_up = math.exp(max(0.0, worst) + 1e-12)
    return make_position(pos.alpha * bump_up, pos.matrix(), pos.a_vector(),
                         positive_definite=pos.positive_definite)


def lowner_counterexample(kind: str, dim: int, p: float = 2.0, s: float = 1.0,
                          trials: int = 200, seed: int = 0) -> LownerRecord:
    """The half-restriction counterexample: the polar of L_plus does not
    decay along -e_1, the identity position of L dominates L_plus, and seeded
    feasible perturbations never beat the integral of L."""
    L = _lowner_base(kind, dim, p=p, s=s)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    Lplus = HalfRestriction(inner=L, normal=tuple(e1))

    t_values = (1.0, 2.0, 5.0, 10.0)
    probe_vals = polar.improperness_probe(Lplus, -e1, t_values)
    probe_pass = all(abs(v - 1.0) <= 1e-9 for v in probe_vals)

    dom = check_domination(Lplus, L, radius=12.0, seed=seed)

    probe = ball_grid(dim, 8192, radius=25.0, seed=seed + 7)
    rng = np.random.default_rng(seed)
    min_ratio = math.inf
    tail_dirs = sphere_points(dim, 64, seed=seed + 11)
    tail_dirs[:, 0] = np.abs(tail_dirs[:, 0])
    tail_dirs /= np.linalg.norm(tail_dirs, axis=1)[:, None]
    tail_ok = True
    for _ in range(trials):
        B = rng.standard_normal((dim, dim))
        S = B @ B.T
        S *= 0.3 / max(np.linalg.eigvalsh(S).max(), 1e-12)
        delta = 0.05 + 0.2 * rng.random()
        A = (1.0 + delta) * (np.eye(dim) + S)
        a = 0.3 * rng.uniform(-1.0, 1.0, size=dim)
        alpha0 = 1.0 + 0.5 * rng.random()
        pos = make_position(alpha0, A, a, positive_definite=True)
        pos = _project_to_feasible(L, Lplus, pos, probe)
        ratio = pos.alpha * abs(pos.det())
        min_ratio = min(min_ratio, ratio)
        # limit-argument spot check at t = 1e3 along 8 directions
        g = apply_position(pos, L)
        T = 1e3 * tail_dirs[:8]
        tgap = _log_gap_many(Lplus, g, T)
        if np.max(tgap[np.isfinite(tgap)]) > 1e-6 * 1e3:
            tail_ok = False
    minimality_pass = min_ratio >= 1.0 - 1e-6

    return LownerRecord(
        kind=kind, dim=dim, probe_t=t_values,
        probe_values=tuple(float(v) for v in probe_vals),
        probe_pass=probe_pass, domination=dom, trials=trials,
        min_integral_ratio=float(min_ratio),
        minimality_pass=minimality_pass, tail_spot_pass=tail_ok)
