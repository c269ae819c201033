"""Representations and evaluation of log-concave functions.

The library works with a small family of closed-form log-concave functions:
the ball height function, its powers, ball indicators, Gaussians, exp-of-norm
densities, log-affine majorants touching the height function, bumps (pointwise
minima of majorants), half-space restrictions, and affinely positioned copies
of any of the above.

Each variant holds its own math in one place: log f (log_evaluate_many), log f
and its gradient where f > 0 (log_value_grad), from which the solver's cut
route takes tangent majorants, and the support function
S(p) = sup_x <p,x> + log f(x) behind the polar (log_sup).  The radial
variants subclass Radial and state their log profile once; log f, sup f, S
and the integral follow from it, through closed forms where a variant
states them for its own profile (S as radial_log_sup of |p|, and its
derivatives for the height powers and the ball).  Bumps, their
half-restrictions and their positioned copies also give the log-polyhedral
normal form (normal_form) that the exact solver reads.  The base log_sup
takes S of every normal form, those of variants defined outside the library
included, exactly from polar.bump_log_sup, and the base support_facets keeps
its facets; a variant with neither a normal form nor a radial profile falls
back to a seeded numeric ascent.

All values are immutable after construction and evaluation is pure; the
lower facets are computed once, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

MAX_DIM = 8
BOUNDARY_SNAP = 1e-12

_GENERIC_STARTS = 32  # ascents per point of the numeric support function
_NEGLIGIBLE_LOG = -46.0  # log f - log peak at which f counts as negligible
_MAX_NEWTON = 100  # cap on the Newton steps of one radial gap root
_NEWTON_TOL = 1e-15  # relative step in y = log(u / (1 - u)) that ends them


class DimensionMismatchError(ValueError):
    pass


class ImproperFunctionError(ValueError):
    pass


class UnboundedFunctionError(ValueError):
    pass


class DivergentIntegralError(ValueError):
    pass


class NoSolverTargetError(ValueError):
    """The solver has no route for the variant: it has no log value and
    gradient to cut with, or a bounded support that cuts cannot follow."""


def _check_dim(d: int) -> int:
    d = int(d)
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {d}")
    return d


def _as_points(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of dimension {dim}, got array of shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("points must have finite coordinates")
    return X


def unit_ball_volume(d: int) -> float:
    """Volume of the Euclidean unit ball in dimension d."""
    return math.pi ** (d / 2.0) / special.gamma(d / 2.0 + 1.0)


def hbar(x) -> np.ndarray | float:
    """Height of the unit (d+1)-ball over x: sqrt(1 - |x|^2), zero outside."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return math.sqrt(max(0.0, 1.0 - float(x @ x)))
    sq = 1.0 - np.einsum("ij,ij->i", x, x)
    return np.sqrt(np.maximum(sq, 0.0))


def zeta(t: float) -> float:
    """t^{-t} on [0, 1], with the continuous value 1 at t = 0."""
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"zeta argument must lie in [0, 1], got {t}")
    if t == 0.0:
        return 1.0
    return t ** (-t)


@dataclass(frozen=True)
class LogConcaveFunction:
    """Base class; subclasses implement log_evaluate_many and override the
    gradient and support-function hooks where they have closed forms."""

    def __post_init__(self):
        _check_dim(self.dim)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def log_evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Log of the function at rows of X; -inf where the value is 0,
        +inf only on the hard branch of a boundary majorant."""
        raise NotImplementedError

    def evaluate_many(self, X) -> np.ndarray:
        X = _as_points(X, self.dim)
        logs = self.log_evaluate_many(X)
        out = np.empty_like(logs)
        finite = np.isfinite(logs)
        out[finite] = np.exp(logs[finite])
        out[~finite] = np.where(logs[~finite] > 0, np.inf, 0.0)
        return out

    def evaluate(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None, :]
                                        if np.ndim(x) == 1 else x)[0])

    def log_evaluate(self, x) -> float:
        X = _as_points(x, self.dim)
        return float(self.log_evaluate_many(X)[0])

    # --- analytic structure hooks -------------------------------------

    def is_radial(self) -> bool:
        """True when the function depends on |x| only: a Radial."""
        return False

    def support_radius(self) -> float:
        """Radius R with f = 0 outside the R-ball (inf when unbounded)."""
        return math.inf

    def sup_norm(self) -> float:
        """sup f = exp S(0)."""
        return math.exp(float(self.log_sup(np.zeros((1, self.dim)))[0]))

    def integral(self) -> float:
        return _numeric_integral(self)

    # --- gradient, normal form and support function -------------------

    def log_value_grad(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log f, grad log f) at the rows of X where f > 0 (a gradient of
        the active piece where log f has a kink); the value is -inf where
        f = 0, and the gradient there means nothing.  Variants without an
        analytic gradient are refused rather than finite-differenced."""
        raise NoSolverTargetError(
            f"{type(self).__name__} has no log value and gradient, so the "
            "solver cannot take it as f")

    def normal_form(self) -> tuple | None:
        """(slopes, intercepts, wall normals N, wall offsets c) when the
        function is log-polyhedral: log f(x) = min_i (intercepts[i] -
        <slopes[i], x>), and f = 0 on every half-space <N[j], x> >= c[j].
        None for every other variant."""
        return None

    def support_facets(self) -> tuple | None:
        """polar.lower_facets of the normal form: ((J, c, e), (N, h)), the
        lower facets <c, p> + e of the support function S and the facets
        <N, p> <= h of its domain, beyond which S = +inf; None without a
        normal form.  Found on first use and kept read-only beside the
        function, outside its dataclass fields: its sup norm, polar and
        polar floor all read them."""
        if "_facets" not in self.__dict__:
            form = self.normal_form()
            facets = None
            if form is not None:
                from . import polar  # deferred: polar builds on lcfunc
                facets = polar.lower_facets(*form)
                for arr in facets[0] + facets[1]:
                    arr.flags.writeable = False
            object.__setattr__(self, "_facets", facets)
        return self._facets

    def log_sup(self, P: np.ndarray) -> np.ndarray:
        """S(p) = sup over supp f of (<p,x> + log f(x)) for each row of P:
        exact from the normal form where there is one (polar.bump_log_sup),
        and by a seeded numeric ascent for every other f but a Radial."""
        if self.normal_form() is not None:
            from . import polar  # deferred: polar builds on lcfunc
            return polar.bump_log_sup(self, P)
        return np.asarray([_generic_log_sup(self, p) for p in P])


def _generic_log_sup(f: LogConcaveFunction, p: np.ndarray) -> float:
    """Seeded multi-start ascent of <p,x> + log f(x), from the origin and
    _GENERIC_STARTS - 1 uniform points of the effective-radius box."""
    d = f.dim
    R = effective_radius(f)

    def neg(x):
        lf = float(f.log_evaluate_many(x[None, :])[0])
        if not math.isfinite(lf):
            return 1e12 + float(np.linalg.norm(x))
        return -(float(p @ x) + lf)

    rng = np.random.default_rng(0)
    best = -math.inf
    X0 = [np.zeros(d), *rng.uniform(-R, R, size=(_GENERIC_STARTS - 1, d))]
    for x0 in X0:
        if neg(x0) > 1e11:
            continue
        res = optimize.minimize(neg, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-13,
                                         "maxiter": 4000})
        best = max(best, -res.fun)
    if not math.isfinite(best):
        raise ImproperFunctionError("function appears to vanish everywhere")
    return best


# ---------------------------------------------------------------------------
# concrete variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Radial(LogConcaveFunction):
    """f(x) = phi(|x|) for a nonincreasing log-concave profile phi.

    A subclass states log phi once (radial_log_profile); log f, sup f =
    phi(0), S(p) = radial_log_sup(|p|) and the integral follow from it.  A
    closed form (S, its derivatives, the gap rule, the slope, the integral)
    holds for its class's profile only: a subclass with a profile of its own
    takes Radial's for each it does not state (numeric S, quadrature, no
    rule, no slope)."""

    dimension: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls._profile_owner() is cls:
            for name in ("radial_log_sup", "radial_log_sup_derivatives",
                         "radial_gap_rule", "radial_log_slope", "integral"):
                if name not in vars(cls):
                    setattr(cls, name, vars(Radial)[name])

    @classmethod
    def _profile_owner(cls) -> type:
        """The class whose radial_log_profile this class uses."""
        return next(c for c in cls.__mro__ if "radial_log_profile" in vars(c))

    @property
    def dim(self) -> int:
        return self.dimension

    def is_radial(self):
        return True

    def radial_log_profile(self, r: np.ndarray) -> np.ndarray:
        """log phi at each entry of r >= 0."""
        raise NotImplementedError

    def log_evaluate_many(self, X):
        return self.radial_log_profile(np.linalg.norm(X, axis=1))

    def sup_norm(self):
        return math.exp(float(self.radial_log_profile(np.zeros(1))[0]))

    def log_sup(self, P):
        return self.radial_log_sup(np.linalg.norm(P, axis=1))

    def radial_log_sup(self, c: np.ndarray) -> np.ndarray:
        """S as a function of c = |p|, sup_{r >= 0} (c r + log phi(r)), at
        each entry of c >= 0: here by a bounded Brent search per entry,
        which can read S low."""

        def search(c):
            def g(r):
                return c * r + float(self.radial_log_profile(np.array([r]))[0])

            hi = self.support_radius()
            if not math.isfinite(hi):
                hi = 1.0
                while g(hi) > g(0.0) - 20.0:
                    hi *= 2.0
                    if hi > 1e9:
                        return math.inf
            res = optimize.minimize_scalar(lambda r: -g(r), bounds=(0.0, hi),
                                           method="bounded",
                                           options={"xatol": 1e-13})
            return max(-res.fun, g(0.0))

        return np.vectorize(search, otypes=[float])(c)

    def radial_log_sup_derivatives(self, c: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
        """(S, S', S'') of radial_log_sup at each entry of c >= 0, for the
        exact solver; S' is the radius at which the sup is attained."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form radial support "
            "function derivatives")

    def radial_gap_rule(self, s_w: float):
        """For w = hbar^{s_w}, the map r -> (m(r), t) of funcjohn.radial:
        m(r) is the minimum over 0 <= u < 1 of
        g(u) = log phi(r sqrt(u)) - (s_w / 2) log(1 - u), and t = sqrt(u) a
        point where it is attained.  None without a closed form, and the
        radial route samples g instead."""
        return None

    def radial_log_slope(self, rho: float) -> float:
        """d/drho log phi at a float 0 <= rho inside the support, for the
        radial route's free solve, which finds the root of the derivative
        of d log r + m(r) from it; without it that solve searches values."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form radial log slope")

    def integral(self):
        # d V_d times the integral of r^{d-1} phi(r); scipy.integrate is
        # imported here and in _numeric_integral, its only users
        from scipy import integrate
        d = self.dimension

        def radial(r):
            return r ** (d - 1) * math.exp(float(self.radial_log_profile(
                np.array([r]))[0]))

        val, _ = integrate.quad(radial, 0.0, effective_radius(self), limit=200)
        return d * unit_ball_volume(d) * val


def _log_height_power(r: np.ndarray, s: float) -> np.ndarray:
    """(s/2) log(1 - r^2) at each entry of r >= 0, -inf from r = 1."""
    # 1 - r^2 as (1 - r)(1 + r), which keeps its relative accuracy near
    # the edge r = 1
    r = np.asarray(r, dtype=float)
    sq = (1.0 - r) * (1.0 + r)
    with np.errstate(divide="ignore"):
        return np.where(sq > 0.0, 0.5 * s * np.log(np.maximum(sq, 1e-320)),
                        -np.inf)


def _height_power_sup(c: np.ndarray, s: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, S', S'') at each entry of c >= 0 of the support function of
    hbar^s, S(c) = sup_r (c r + (s/2) log(1 - r^2)); S' is the radius r
    where the sup is attained, and exp(-S(|x|)) is the polar of hbar^s."""
    # c r + (s/2) log(1 - r^2) peaks at r = 2c / (s + q), q^2 = s^2 + 4c^2;
    # 1 - r = s (1 + s / (q + 2c)) / (s + q) keeps 1 - r^2 accurate for
    # large c, and differentiating c (1 - r^2) = s r gives S''.  2c is
    # exact, so (2c)^2 rounds as 4c^2 does
    c = np.asarray(c, dtype=float)
    c2 = 2.0 * c
    q = np.sqrt(s * s + c2 * c2)
    sq = s + q
    r = c2 / sq
    h2 = s * (1.0 + s / (q + c2)) / sq * (1.0 + r)
    return c * r + 0.5 * s * np.log(h2), r, h2 / (s + c2 * r)


@dataclass(frozen=True)
class HeightPower(Radial):
    """(1 - |x|^2)^{s/2} on the unit ball."""

    s: float

    def __post_init__(self):
        super().__post_init__()
        if not self.s > 0:
            raise ValueError("height power exponent must be positive")

    def radial_log_profile(self, r):
        return _log_height_power(r, self.s)

    def radial_gap_rule(self, s_w):
        # g'(u) is s_w (1 - r^2 u) - s r^2 (1 - u) times a positive factor,
        # linear in u and positive at u = 1 for r < 1: where it is also
        # nonnegative at u = 0 the minimum is g(0) = 0, and otherwise it sits
        # at the root u*, with 1 - r^2 u* = s (1 - r^2) / (s - s_w) and
        # 1 - u* = s_w (1 - r^2) / (r^2 (s - s_w)); 1 - r^2 is taken as
        # (1 - r)(1 + r) so that it stays exact near the edge r = 1
        s = self.s

        def rule(r):
            if r > 1.0:
                return -math.inf, 1.0
            if s <= s_w or s * r * r <= s_w:
                return 0.0, 0.0
            if r == 1.0:
                return -math.inf, 1.0
            h2, k = (1.0 - r) * (1.0 + r), s - s_w
            m = 0.5 * (s * math.log(s * h2 / k)
                       - s_w * math.log(s_w * h2 / (r * r * k)))
            return m, math.sqrt((s * r * r - s_w) / (r * r * k))

        return rule

    def radial_log_slope(self, rho):
        return -self.s * rho / ((1.0 - rho) * (1.0 + rho))

    def log_value_grad(self, X):
        sq = 1.0 - np.einsum("ij,ij->i", X, X)
        scale = np.divide(-self.s, sq, out=np.zeros_like(sq), where=sq > 0.0)
        return self.log_evaluate_many(X), scale[:, None] * X

    def radial_log_sup(self, c):
        return _height_power_sup(c, self.s)[0]

    def radial_log_sup_derivatives(self, c):
        return _height_power_sup(c, self.s)

    def support_radius(self):
        return 1.0

    def integral(self):
        d, s = self.dimension, self.s
        return unit_ball_volume(d) * (d / 2.0) * special.beta(d / 2.0, s / 2.0 + 1.0)


@dataclass(frozen=True)
class Height(HeightPower):
    """sqrt(1 - |x|^2) on the unit ball, 0 outside: HeightPower with s = 1."""

    dimension: int = 1
    s: float = field(default=1.0, init=False)


@dataclass(frozen=True)
class BallIndicator(Radial):
    """Indicator of the closed ball of given radius about the origin; a
    translated ball is a Positioned copy of it."""

    radius: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")

    def radial_log_profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, 0.0, -np.inf)

    def radial_log_slope(self, rho):
        return 0.0

    def log_value_grad(self, X):
        return self.log_evaluate_many(X), np.zeros_like(X)

    def radial_log_sup(self, c):
        return self.radius * np.asarray(c, dtype=float)

    def radial_log_sup_derivatives(self, c):
        c = np.asarray(c, dtype=float)
        return (self.radius * c, np.full(c.shape, self.radius),
                np.zeros(c.shape))

    def support_radius(self):
        return float(self.radius)

    def integral(self):
        return unit_ball_volume(self.dimension) * self.radius ** self.dimension


def _gaussian_gap(r: float, s_w: float) -> tuple[float, float]:
    """Gaussian.radial_gap_rule: g'(u) = s_w / (2 (1 - u)) - r^2 rises
    through 0 at 1 - u* = s_w / (2 r^2) when that is below 1; otherwise the
    minimum is g(0) = 0."""
    r2 = r * r
    if 2.0 * r2 <= s_w:
        return 0.0, 0.0
    e = s_w / (2.0 * r2)
    return (0.5 * s_w - r2 - 0.5 * s_w * math.log(e),
            math.sqrt((2.0 * r2 - s_w) / (2.0 * r2)))


def _softplus(y: float) -> float:
    """log(1 + e^y) without overflow."""
    return max(y, 0.0) + math.log1p(math.exp(-abs(y)))


def _exp_norm_gap(r: float, p: float, s_w: float) -> tuple[float, float]:
    """ExpNorm.radial_gap_rule for p < 2.  g'(u) = 0 where
    p r^p u^{p/2 - 1} (1 - u) = s_w, that is where
    G(y) = log(p r^p / s_w) + (p/2 - 1) log u + log(1 - u) vanishes, in
    y = log(u / (1 - u)), which keeps both u and the distance 1 - u to the
    edge exact.  G is decreasing and concave in y, so Newton from a y where
    G <= 0 falls monotonically onto the root."""
    c = math.log(p / s_w) + p * math.log(r)
    a = 1.0 - 0.5 * p
    # G(y) <= c + a log 2 - y for y >= 0
    y = max(0.0, c + math.log(2.0))
    for _ in range(_MAX_NEWTON):
        log_u, log_e = -_softplus(-y), -_softplus(y)
        step = (c - a * log_u + log_e) / (a * math.exp(log_e)
                                          + math.exp(log_u))
        # G(y) is step times a positive slope; rounding ends the fall when
        # the step turns up or stalls
        if not step < -_NEWTON_TOL * max(1.0, abs(y)):
            break
        y += step
    return (-math.exp(p * (math.log(r) + 0.5 * log_u)) - 0.5 * s_w * log_e,
            math.exp(0.5 * log_u))


@dataclass(frozen=True)
class Gaussian(Radial):
    """exp(-|x|^2)."""

    dimension: int = 1

    def radial_log_profile(self, r):
        return -np.square(r)

    def radial_gap_rule(self, s_w):
        return lambda r: _gaussian_gap(r, s_w)

    def radial_log_slope(self, rho):
        return -2.0 * rho

    def log_value_grad(self, X):
        return -np.einsum("ij,ij->i", X, X), -2.0 * X

    def radial_log_sup(self, c):
        return np.square(c) / 4.0

    def integral(self):
        return math.pi ** (self.dimension / 2.0)


def _two_prod(a, b):
    """(x, y) with x = fl(a b) and x + y = a b exactly (Dekker, Numer. Math.
    18, 1971), from Veltkamp's split of each factor into 26-bit halves."""
    x = a * b

    def split(v):
        t = 134217729.0 * v  # 2^27 + 1
        hi = t - (t - v)
        return hi, v - hi

    (ah, al), (bh, bl) = split(a), split(b)
    return x, al * bl - (((x - ah * bh) - al * bh) - ah * bl)


@dataclass(frozen=True)
class ExpNorm(Radial):
    """exp(-|x|^p) with p >= 1."""

    p: float

    def __post_init__(self):
        super().__post_init__()
        if not self.p >= 1:
            raise ValueError("exp-norm exponent must be >= 1")

    def radial_log_profile(self, r):
        return -np.asarray(r, dtype=float) ** self.p

    def radial_gap_rule(self, s_w):
        # u^{p/2} is concave for p <= 2, so g(u) = -r^p u^{p/2} -
        # (s_w / 2) log(1 - u) is convex; for p > 2 it need not be
        p = self.p
        if p == 2.0:
            return lambda r: _gaussian_gap(r, s_w)
        if p < 2.0:
            return lambda r: _exp_norm_gap(r, p, s_w)
        return None

    def radial_log_slope(self, rho):
        return -self.p * rho ** (self.p - 1.0)

    def log_value_grad(self, X):
        r = np.maximum(np.linalg.norm(X, axis=1), 1e-300)
        return -r ** self.p, (-self.p * r ** (self.p - 2.0))[:, None] * X

    def radial_log_sup(self, c):
        # the sup of c r - r^p is at r = q^k, q = c / p, k = 1 / m, m = p - 1,
        # where r^p = c r / p: S = c r m / p, without the cancellation of
        # c r - r^p.  S then has the relative error of r, k times those of
        # q and k, so r takes their first-order corrections from the exact
        # remainders of _two_prod, c / p = q (1 + e_q) and 1 / m = k (1 + e_k):
        # r = q^k (1 + k (e_q + e_k log q))
        c = np.asarray(c, dtype=float)
        p = self.p
        if p == 1.0:
            return np.where(c <= 1.0, 0.0, np.inf)
        m = p - 1.0
        k = 1.0 / m
        # c = 0 and an overflowing q^k take S = 0 and inf unfixed
        with np.errstate(all="ignore"):
            q = c / p
            hi, lo = _two_prod(q, p)
            hi_k, lo_k = _two_prod(k, m)
            fix = k * (((c - hi) - lo) / hi
                       + ((1.0 - hi_k) - lo_k) * np.log(q))
            r = q ** k * (1.0 + np.where(np.isfinite(fix), fix, 0.0))
            return c * r * (m / p)

    def integral(self):
        d = self.dimension
        return unit_ball_volume(d) * special.gamma(d / self.p + 1.0)


@dataclass(frozen=True)
class PolarHeightPower(Radial):
    """The polar function of hbar^s, exp(-S(|x|)) (_height_power_sup).

    The inner maximizer of c r + (s/2) log(1 - r^2) solves a quadratic, so the
    value is available in closed form; the function is radial, log-concave,
    equal to 1 at the origin, and decays like e^{-|x|} times a power.
    """

    s: float

    def __post_init__(self):
        super().__post_init__()
        if not self.s > 0:
            raise ValueError("exponent must be positive")

    def radial_log_profile(self, r):
        return -_height_power_sup(r, self.s)[0]

    def radial_gap_rule(self, s_w):
        # with v = r^2 u, d/dv of the log polar -log phi(sqrt v) is
        # 1 / (s + sqrt(s^2 + 4 v)), so g'(u) = s_w / (2 e) -
        # r^2 / (s + sqrt(s^2 + 4 r^2 u)), e = 1 - u, rises in u.  Above
        # g'(0) < 0, that is r^2 > s s_w, it vanishes at the root of
        # r^2 e^2 - s_w k e - s_w^2 with k = s - s_w:
        # e = s_w (k + q) / (2 r^2) = 2 s_w / (q - k), q = sqrt(k^2 + 4 r^2),
        # each form taken where it does not cancel, and
        # u = 2 e (r^2 - s s_w) / (s_w (q + s + s_w)) without 1 - e
        s = self.s
        k = s - s_w

        def rule(r):
            r2 = r * r
            if r2 <= s * s_w:
                return 0.0, 0.0
            q = math.sqrt(k * k + 4.0 * r2)
            e = s_w * (k + q) / (2.0 * r2) if k >= 0.0 else 2.0 * s_w / (q - k)
            t = math.sqrt(2.0 * e * (r2 - s * s_w) / (s_w * (q + s + s_w)))
            return (float(self.radial_log_profile(r * t))
                    - 0.5 * s_w * math.log(e), t)

        return rule

    def radial_log_slope(self, rho):
        # -S'(rho), minus the maximizer 2 rho / (s + q) of _height_power_sup
        c2 = 2.0 * rho
        return -c2 / (self.s + math.sqrt(self.s * self.s + c2 * c2))

    def log_value_grad(self, X):
        r = np.maximum(np.linalg.norm(X, axis=1), 1e-300)
        # envelope theorem: the derivative of -S in r is -S'(r), minus the
        # inner maximizer
        S, S1, _ = _height_power_sup(r, self.s)
        return -S, (-S1 / r)[:, None] * X

    def radial_log_sup(self, c):
        # hbar^s is the polar of its polar, so by Fenchel-Moreau this S is
        # -log hbar^s: -(s/2) log(1 - c^2), +inf from c = 1
        return -_log_height_power(c, self.s)


# ---------------------------------------------------------------------------
# log-affine majorants and bumps
# ---------------------------------------------------------------------------


def _snap_anchor(u: np.ndarray) -> tuple[np.ndarray, bool]:
    """Snap anchors within BOUNDARY_SNAP of the unit sphere onto it."""
    n = float(np.linalg.norm(u))
    if n > 1.0 + BOUNDARY_SNAP:
        raise ValueError(f"anchor norm {n} exceeds 1")
    if abs(n - 1.0) <= BOUNDARY_SNAP:
        return u / n, True
    return u, False


def _majorant_coeffs(anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope vectors s_i = u_i / hbar^2(u_i) and intercepts
    b_i = log hbar(u_i) + |u_i|^2 / hbar^2(u_i), so that
    log ell_{u_i}(x) = b_i - <s_i, x> for interior anchors."""
    h2 = 1.0 - np.einsum("ij,ij->i", anchors, anchors)
    slopes = anchors / h2[:, None]
    intercepts = 0.5 * np.log(h2) + np.einsum("ij,ij->i", anchors, anchors) / h2
    return slopes, intercepts


@dataclass(frozen=True)
class LogAffineMajorant(LogConcaveFunction):
    """ell_u: the log-affine function touching hbar at u (interior case),
    or the half-space 0/+inf indicator when |u| = 1."""

    anchor: tuple

    def __post_init__(self):
        u = np.asarray(self.anchor, dtype=float)
        if u.ndim != 1:
            raise ValueError("anchor must be a vector")
        u, boundary = _snap_anchor(u)
        object.__setattr__(self, "anchor", tuple(float(v) for v in u))
        object.__setattr__(self, "_boundary", boundary)
        super().__post_init__()

    @property
    def dim(self) -> int:
        return len(self.anchor)

    @property
    def is_boundary(self) -> bool:
        return self._boundary

    def _u(self) -> np.ndarray:
        return np.asarray(self.anchor, dtype=float)

    @property
    def height(self) -> float:
        if self._boundary:
            return 0.0
        return float(hbar(self._u()))

    @property
    def slope(self) -> np.ndarray:
        if self._boundary:
            raise ValueError("boundary majorant has no finite slope")
        u = self._u()
        return u / (self.height ** 2)

    def log_evaluate_many(self, X):
        u = self._u()
        if self._boundary:
            return np.where(X @ u >= 1.0, -np.inf, np.inf)
        h2 = self.height ** 2
        return 0.5 * math.log(h2) - (X @ u - float(u @ u)) / h2

    def log_sup(self, P):
        if self._boundary:
            return np.full(P.shape[0], math.inf)
        slopes, intercepts = _majorant_coeffs(self._u()[None, :])
        hit = np.linalg.norm(P - slopes[0], axis=1) <= 1e-12
        return np.where(hit, intercepts[0], math.inf)

    def sup_norm(self):
        if self._boundary:
            raise UnboundedFunctionError("boundary majorant takes the value +inf")
        if np.any(self._u()):
            raise UnboundedFunctionError("interior majorant with u != 0 is unbounded")
        return 1.0


def ell_majorant(u) -> LogAffineMajorant:
    """The majorant ell_u; requires |u| <= 1."""
    return LogAffineMajorant(anchor=tuple(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class Bump(LogConcaveFunction):
    """min_i ell_{u_i} over a finite anchor set with |u_i| <= 1.

    Its normal form is set once, at construction, as read-only arrays:
    log f(x) = min_i (intercepts[i] - <slopes[i], x>) over the interior
    anchors, and f = 0 on every half-space <walls[j], x> >= 1 of a boundary
    anchor.  They are not dataclass fields, so ==, hash and repr see only
    the anchors."""

    anchors: tuple  # tuple of coordinate tuples

    def __post_init__(self):
        A = np.asarray(self.anchors, dtype=float)
        if A.ndim != 2 or A.shape[0] < 1:
            raise ValueError("bump needs at least one anchor vector")
        snapped = []
        boundary = []
        for row in A:
            u, b = _snap_anchor(row)
            snapped.append(u)
            boundary.append(b)
        A = np.asarray(snapped)
        boundary = np.asarray(boundary, dtype=bool)
        object.__setattr__(self, "anchors",
                           tuple(tuple(float(v) for v in row) for row in A))
        super().__post_init__()
        slopes, intercepts = _majorant_coeffs(A[~boundary])
        for name, arr in (("slopes", slopes), ("intercepts", intercepts),
                          ("walls", A[boundary])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return len(self.anchors[0])

    def anchor_array(self) -> np.ndarray:
        return np.asarray(self.anchors, dtype=float)

    @property
    def is_regular(self) -> bool:
        return not self.walls.shape[0]

    def log_evaluate_many(self, X):
        logs = np.full(X.shape[0], np.inf)
        if self.intercepts.shape[0]:
            logs = np.min(self.intercepts - X @ self.slopes.T, axis=1)
        if self.walls.shape[0]:
            logs[np.any(X @ self.walls.T >= 1.0, axis=1)] = -np.inf
        return logs

    def log_value_grad(self, X):
        idx = np.argmin(self.intercepts - X @ self.slopes.T, axis=1)
        return self.log_evaluate_many(X), -self.slopes[idx]

    def normal_form(self):
        return (self.slopes, self.intercepts, self.walls,
                np.ones(self.walls.shape[0]))


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfRestriction(LogConcaveFunction):
    """inner(x) on the half-space <x, normal> >= 0, zero on the other side."""

    inner: LogConcaveFunction
    normal: tuple

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (self.inner.dim,):
            raise DimensionMismatchError("normal dimension mismatch")
        nn = float(np.linalg.norm(n))
        if abs(nn - 1.0) > 1e-9:
            raise ValueError("half-restriction normal must be a unit vector")
        object.__setattr__(self, "normal", tuple(float(v) for v in n / nn))
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.inner.dim

    def normal_vector(self) -> np.ndarray:
        return np.asarray(self.normal, dtype=float)

    def log_evaluate_many(self, X):
        logs = self.inner.log_evaluate_many(X)
        return np.where(X @ self.normal_vector() >= 0.0, logs, -np.inf)

    def normal_form(self):
        """The inner normal form plus the wall f = 0 on <-n, x> >= 0."""
        form = self.inner.normal_form()
        if form is None:
            return None
        slopes, intercepts, N, c = form
        return (slopes, intercepts, np.vstack([N, -self.normal_vector()]),
                np.append(c, 0.0))

    def log_sup(self, P):
        if not self.inner.is_radial():
            return super().log_sup(P)
        # a nonincreasing radial inner peaks along p when p points into the
        # half-space, and on the boundary hyperplane otherwise
        n = self.normal_vector()
        pn = P @ n
        perp = P - pn[:, None] * n[None, :]
        return self.inner.radial_log_sup(np.where(
            pn >= 0.0, np.linalg.norm(P, axis=1), np.linalg.norm(perp, axis=1)))

    def support_radius(self):
        return self.inner.support_radius()

    def integral(self):
        if self.inner.is_radial():
            return self.inner.integral() / 2.0
        return _numeric_integral(self)


@dataclass(frozen=True)
class Positioned(LogConcaveFunction):
    """alpha * inner(A^{-1}(x - a)) for an affine position (alpha, A, a)."""

    inner: LogConcaveFunction
    position: "AffinePosition"  # noqa: F821 - defined in funcjohn.position

    def __post_init__(self):
        if self.position.dim != self.inner.dim:
            raise DimensionMismatchError("position dimension mismatch")
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.inner.dim

    def log_evaluate_many(self, X):
        pos = self.position
        Y = (X - pos.a_vector()) @ pos.inverse_matrix().T
        return math.log(pos.alpha) + self.inner.log_evaluate_many(Y)

    def log_value_grad(self, X):
        pos = self.position
        inv = pos.inverse_matrix()
        Y = (X - pos.a_vector()) @ inv.T
        vals, grads = self.inner.log_value_grad(Y)
        return vals + math.log(pos.alpha), grads @ inv

    def normal_form(self):
        form = self.inner.normal_form()
        if form is None:
            return None
        slopes, intercepts, N, c = form
        pos = self.position
        inv, t = pos.inverse_matrix(), pos.a_vector()
        slopes, N = slopes @ inv, N @ inv
        return (slopes, intercepts + math.log(pos.alpha) + slopes @ t,
                N, c + N @ t)

    def log_sup(self, P):
        pos = self.position
        inner_S = self.inner.log_sup(P @ pos.matrix())
        return P @ pos.a_vector() + math.log(pos.alpha) + inner_S

    def support_radius(self):
        r = self.inner.support_radius()
        if not math.isfinite(r):
            return math.inf
        pos = self.position
        return float(np.linalg.norm(pos.a_vector())
                     + np.linalg.norm(pos.matrix(), 2) * r)

    def sup_norm(self):
        return self.position.alpha * self.inner.sup_norm()

    def integral(self):
        scale = self.position.alpha * abs(self.position.det())
        return scale * self.inner.integral()


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------


def effective_radius(f: LogConcaveFunction) -> float:
    """Radius beyond which f is negligible relative to its peak.

    Probes decay along coordinate axes and seeded random rays; raises
    DivergentIntegralError when no decay is detected by radius 1e6.
    """
    R = f.support_radius()
    if math.isfinite(R):
        return R
    d = f.dim
    rng = np.random.default_rng(0)
    dirs = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    for _ in range(2 * d + 4):
        v = rng.standard_normal(d)
        dirs.append(v / np.linalg.norm(v))
    log_peak = float(np.max(f.log_evaluate_many(np.zeros((1, d)))))
    radius = 1.0
    while radius <= 1e6:
        P = np.asarray([radius * v for v in dirs])
        logs = f.log_evaluate_many(P)
        if np.all(logs <= log_peak + _NEGLIGIBLE_LOG):
            return radius
        radius *= 2.0
    raise DivergentIntegralError("no decay detected along probe rays")


def _numeric_integral(f: LogConcaveFunction) -> float:
    from scipy import integrate  # a cold path, as Radial.integral is
    d = f.dim
    R = effective_radius(f)
    if d == 1:
        return integrate.quad(lambda t: f.evaluate([t]), -R, R, limit=200)[0]
    if d == 2:
        return integrate.dblquad(
            lambda y, x: f.evaluate([x, y]), -R, R, -R, R,
            epsabs=1e-10, epsrel=1e-10)[0]
    # d >= 3: seeded quasi-Monte Carlo over the bounding box; scipy.stats
    # is imported here, its one user, as it takes about half a second
    from scipy.stats import qmc
    m = 20  # 2^20 ~ 1e6 points
    sampler = qmc.Sobol(d=d, scramble=True, seed=12345)
    U = sampler.random_base2(m)
    X = (2.0 * U - 1.0) * R
    vals = f.evaluate_many(X)
    return float(vals.mean() * (2.0 * R) ** d)
