"""The John problem for radial targets, reduced to one dimension.

For a radial f and a radial w of support radius R, the objective
log alpha + log det A is concave in the position and unchanged by rotations,
so averaging an optimal position over rotations gives an optimal one of the
form A = r Id, a = 0.  The best height at that position is exp(m(r)), with

    m(r) = inf over 0 <= t < R of  log phi_f(r t) - log phi_w(t)

for the radial log profiles phi (t = R included when w is positive there,
as for a ball indicator).  m is concave and nonincreasing in r, so the free
problem maximizes the concave F(x) = d x + m(e^x) over x = log r, and the
fixed-height problem bisects for the largest float r with m(r) >= log alpha.

Where m has a rule (below) and f states the slope psi' of its log profile
psi = log phi_f (Radial.radial_log_slope), the free problem solves
F'(x) = 0 instead.  By the envelope theorem (Danskin, SIAM J. Appl. Math.
14, 1966), m'(r) = t psi'(r t) at the t where m(r) is attained, so
F'(x) = d + r t psi'(r t), nonincreasing in x and -inf where m = -inf.  Its
sign brackets the optimum, F' >= 0 at the cap x = log(R_f / R) puts it at
the edge of f's support, and Brent's root method (Algorithms for
Minimization without Derivatives, 1973) closes the bracket to adjacent
floats.  Every other pair keeps a bounded Brent search on the values of F,
to 1e-12 in log r.  Problem.evaluations, the m_evaluations of a report,
counts the points at which m(r) was found; on the root each of them also
gives F'.

m is exact for two kinds of w:

- a height power w = hbar^{s_w} (Height has s_w = 1, R = 1), where the gap
  in u = t^2, g(u) = log phi_f(r sqrt(u)) - (s_w / 2) log(1 - u), has one
  stationary point for every library f: f.radial_gap_rule gives m(r) and
  the t where it is attained, in closed form or as one monotone root.  As
  every closed form of a Radial, the rule holds for the profile it was
  written for, so a subclass with a profile of its own does not inherit it;
- a ball indicator of radius R, where m(r) = log phi_f(r R) for every
  radial f, since a radial log-concave profile is nonincreasing.

Every other pair (ExpNorm with p > 2 or a ball indicator f under a height
power, and radial subclasses defined outside the library) samples m on a
grid of t that crowds toward R, refined by a bounded Brent search in the
bracket of the best grid point.  That is an upper bound on the infimum,
exact at the points it samples, so its certificate is sampled.  Where w
vanishes at R the grid stops 1e-13 R short of it, and a minimum at the
grid's last point counts as m = -inf: a position is returned only when the
grid sees where its constraint binds.

The same pass locates the contacts: at the position r Id of height alpha,
alpha w(y) = f(r y) on the spheres |y| = t whose gap log phi_f(r t) -
log phi_w(t) - log alpha vanishes, which Problem.contacts returns: the t
where m(r) is attained and, on the grid, the first and last grid points
within the tolerance; when r reaches the edge of f's support, the sphere
|y| = R of supp w touches it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .lcfunc import (
    BallIndicator,
    DivergentIntegralError,
    HeightPower,
    ImproperFunctionError,
    Radial,
)

_REACH = 100.0  # log r distance a bracket walk covers before giving up
# m(r) >= log alpha - this counts as the height attained, which absorbs the
# rounding of log alpha at the peak of f
_HEIGHT_SLACK = 1e-14
_MAX_BISECTIONS = 200
_PENALTY = 1e300  # stands in for +inf in the minimized objective
_NO_DECAY = ("m(r) does not fall as r grows: f does not decay, so positions "
             "of w below it grow without bound")


@dataclass(frozen=True)
class RadialSolution:
    r: float
    log_alpha: float
    stop_reason: str  # "xtol_reached", "support_edge" or "iteration_cap"


class Problem:
    """m(r) of one radial target f and one radial w: exact where the pair
    has a rule (`exact`), otherwise sampled on a grid; `density` scales the
    number of grid points in t (1,100 at density 1)."""

    def __init__(self, f, w, density: int = 1):
        self.f, self.w, self.d = f, w, f.dim
        self.R = R = w.support_radius()
        self.rule = self._rule()
        self.exact = self.rule is not None
        # with the rule, f's slope gives F' (Problem._free)
        stated = type(f).radial_log_slope is not Radial.radial_log_slope
        self.slope = f.radial_log_slope if self.exact and stated else None
        if not self.exact:
            t = R * np.concatenate([
                np.linspace(0.0, 0.999, 1000 * density, endpoint=False),
                1.0 - np.geomspace(1e-3, 1e-13, 100 * density)])
            # a ball indicator keeps its edge; where w vanishes, the grid
            # stops 1e-13 R short of it
            self.open_edge = not math.isfinite(
                float(w.radial_log_profile(np.array([R]))[0]))
            if not self.open_edge:
                t = np.append(t, R)
            self.t = t
            self.log_w = w.radial_log_profile(t)
        # walks start where w's support is scaled to radius 0.5; beyond the
        # cap r = R_f / R it reaches out of f's support, where m = -inf
        self.start = math.log(0.5 / R)
        self.log_cap = math.log(f.support_radius() / R)
        self.evaluations = 0

    def _rule(self):
        """r -> (m(r), the t where it is attained) for a pair with a rule,
        else None."""
        owner = self.w._profile_owner()
        if owner is BallIndicator:
            # f's profile does not increase, so the gap is least at t = R
            def at_edge(r):
                edge = np.array([r * self.R])
                return float(self._checked(
                    self.f.radial_log_profile(edge))[0]), self.R
            return at_edge
        if owner is HeightPower:
            return self.f.radial_gap_rule(self.w.s)
        return None

    def _checked(self, v):
        if np.any(np.isnan(v)):
            raise ImproperFunctionError(
                f"the radial log profile of {type(self.f).__name__} gave NaN")
        return v

    def m(self, r: float) -> float:
        """m(r): exact from the pair's rule; from the grid and its
        refinement an upper bound on the infimum, exact at its samples, or
        -inf where it cannot be bounded."""
        self.evaluations += 1
        if self.exact:
            return self.rule(r)[0]
        return self._sampled(r)[0]

    def contacts(self, r: float, log_alpha: float, tol: float
                 ) -> tuple[float, set]:
        """(m(r), the radii t of the contact spheres |y| = t at height
        log_alpha): the t where m(r) is attained, when m(r) is within tol of
        log_alpha, and on the grid also its first and last points whose gap
        log phi_f(r t) - log phi_w(t) is."""
        self.evaluations += 1
        if self.exact:
            m, t_min = self.rule(r)
            radii = set()
        else:
            m, t_min, gaps = self._sampled(r)
            near = self.t[gaps - log_alpha <= tol]
            radii = {float(near[0]), float(near[-1])} if near.size else set()
        if m - log_alpha <= tol:
            radii.add(t_min)
        return m, radii

    def _sampled(self, r: float) -> tuple[float, float, np.ndarray]:
        """(m(r) on the grid, the t where that value was found, the gap
        log phi_f(r t) - log phi_w(t) at each grid point t)."""
        t = self.t
        v = self._checked(self.f.radial_log_profile(r * t) - self.log_w)
        k = int(np.argmin(v))
        if not math.isfinite(v[k]):
            return float(v[k]), float(t[k]), v
        if self.open_edge and k == t.size - 1:
            # still falling at the last point short of the edge: the
            # infimum may lie beyond the grid's reach, so count it as -inf
            return -math.inf, float(t[k]), v

        def gap(u):
            y = np.array([self.R - u])
            return float(self._checked(self.f.radial_log_profile(r * y)
                                       - self.w.radial_log_profile(y))[0])

        # Brent's tolerance is relative to its variable, so it searches the
        # distance u = R - t to the support edge, which it then resolves
        # however close to the edge the minimum sits
        res = optimize.minimize_scalar(
            gap, bounds=(self.R - t[min(k + 1, t.size - 1)],
                         self.R - t[max(k - 1, 0)]),
            method="bounded", options={"xatol": 1e-14})
        if float(res.fun) < v[k]:
            return float(res.fun), float(self.R - res.x), v
        return float(v[k]), float(t[k]), v

    def solve(self, log_alpha: float | None) -> RadialSolution | None:
        """The optimal r of the free problem (log_alpha None) or of the
        fixed-height one; None when no position of w fits below f."""
        if log_alpha is None:
            return self._free()
        return self._height(log_alpha)

    def _walk(self, holds, x, direction):
        """From x, step outward in doubling steps in log r, never past the
        cap, while `holds`; returns the last point where it held and the
        first where it failed, or None for the latter once the walk has
        gone _REACH from the start.  An upward walk needs `holds` to fail
        at the cap, where it would otherwise stay."""
        step = 0.5
        while True:
            nxt = x + direction * step
            if direction > 0:
                nxt = min(nxt, self.log_cap)
            if abs(nxt - self.start) > _REACH:
                return x, None
            if not holds(nxt):
                return x, nxt
            x, step = nxt, 2.0 * step

    def _free(self) -> RadialSolution | None:
        if self.slope is None:
            return self._free_search()
        d, rule, slope = self.d, self.rule, self.slope
        seen = {}  # r -> (h, m(r))

        def h(r):
            """d + rho psi'(rho) at rho = r t, the derivative of
            d log r + m(r) in log r, -inf where m(r) = -inf."""
            if r not in seen:
                self.evaluations += 1
                m, t = rule(r)
                rho = r * t
                seen[r] = (d + rho * slope(rho) if math.isfinite(m)
                           else -math.inf, m)
            return seen[r][0]

        def rises(x):
            return h(math.exp(x)) > 0.0

        cap = math.exp(self.log_cap)
        if math.isfinite(cap) and h(cap) >= 0.0:
            # the objective still rises into the support edge
            return RadialSolution(r=cap, log_alpha=seen[cap][1],
                                  stop_reason="support_edge")
        x = min(self.start, self.log_cap)
        if rises(x):
            lo, hi = self._walk(rises, x, 1.0)
            if hi is None:
                raise DivergentIntegralError(_NO_DECAY)
        else:
            hi, lo = self._walk(lambda y: not rises(y), x, -1.0)
            if lo is None:
                if seen[math.exp(hi)][1] == -math.inf:
                    return None
                raise ImproperFunctionError(
                    "d log r + m(r) rises without bound as r falls")
        r, closed = _root(h, math.exp(lo), math.exp(hi))
        return RadialSolution(
            r=r, log_alpha=seen[r][1],
            stop_reason="xtol_reached" if closed else "iteration_cap")

    def _free_search(self) -> RadialSolution | None:
        """The free optimum by a bounded Brent search on the values of
        d log r + m(r), for a pair without a rule or f without a slope."""
        d = self.d
        values = {}

        def F(x):
            if x not in values:
                values[x] = d * x + self.m(math.exp(x))
            return values[x]

        edge = self.log_cap
        if math.isfinite(edge) and math.isfinite(F(edge)) \
                and F(edge - 1e-9) <= F(edge):
            # the concave objective still rises into the support edge
            return RadialSolution(r=math.exp(edge),
                                  log_alpha=values[edge] - d * edge,
                                  stop_reason="support_edge")
        x = min(self.start, edge)
        if not math.isfinite(F(x)):
            # m = -inf at r means -inf at every larger r: step down to a
            # point inside the support of f
            _, x = self._walk(lambda y: not math.isfinite(F(y)), x, -1.0)
            if x is None:
                return None
        # walk uphill in doubling steps to a bracket of the concave
        # objective; `other` is the far side of x, where it is no higher
        other = min(x + 0.5, self.log_cap)
        direction = 1.0 if F(other) > F(x) else -1.0
        step = 0.5
        while True:
            nxt = x + direction * step
            if direction > 0:
                nxt = min(nxt, self.log_cap)
            if nxt == x or F(nxt) <= F(x):
                break
            other, x, step = x, nxt, 2.0 * step
            if abs(x - self.start) <= _REACH:
                continue
            if direction > 0:
                raise DivergentIntegralError(_NO_DECAY)
            raise ImproperFunctionError(
                "d log r + m(r) rises without bound as r falls")
        res = optimize.minimize_scalar(
            lambda y: -F(y) if math.isfinite(F(y)) else _PENALTY,
            bounds=tuple(sorted((other, nxt))), method="bounded",
            options={"xatol": 1e-12, "maxiter": 500})
        best = max((y for y in values if math.isfinite(values[y])),
                   key=values.get)
        if best == self.log_cap:
            stop = "support_edge"
        else:
            stop = "xtol_reached" if res.status == 0 else "iteration_cap"
        return RadialSolution(r=math.exp(best),
                              log_alpha=values[best] - d * best,
                              stop_reason=stop)

    def _height(self, log_alpha: float) -> RadialSolution | None:
        target = log_alpha - _HEIGHT_SLACK

        def attained(x):
            return self.m(math.exp(x)) >= target

        if math.isfinite(self.log_cap) and attained(self.log_cap):
            return RadialSolution(r=math.exp(self.log_cap),
                                  log_alpha=log_alpha,
                                  stop_reason="support_edge")
        x = min(self.start, self.log_cap)
        if attained(x):
            lo, hi = self._walk(attained, x, 1.0)
            if hi is None:
                raise DivergentIntegralError(_NO_DECAY)
        else:
            hi, lo = self._walk(lambda y: not attained(y), x, -1.0)
            if lo is None:
                return None
        # bisect r itself until lo and hi are adjacent floats: by geometric
        # means while they are a factor 2 apart, then by arithmetic ones,
        # so that 1 - r resolves to rounding however near the edge of f's
        # support the height is attained
        lo, hi = math.exp(lo), math.exp(hi)
        stop = "iteration_cap"
        for _ in range(_MAX_BISECTIONS):
            mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo \
                else lo + 0.5 * (hi - lo)
            if not lo < mid < hi:
                stop = "xtol_reached"
                break
            if self.m(mid) >= target:
                lo = mid
            else:
                hi = mid
        return RadialSolution(r=lo, log_alpha=log_alpha, stop_reason=stop)


def _root(h, lo: float, hi: float) -> tuple[float, bool]:
    """Brent's root method (Algorithms for Minimization without
    Derivatives, 1973, ch. 4) on a nonincreasing h with h(lo) > 0 >= h(hi),
    0 < lo < hi: an inverse quadratic or secant step where it shrinks the
    bracket fast enough, a bisection otherwise, by the geometric mean while
    the ends are a factor 2 apart and by the arithmetic one after, as
    Problem._height bisects.  A step shorter than the float spacing moves by
    one float, so the bracket closes to adjacent floats.  Returns the end
    with the smaller |h| and whether the bracket closed."""
    a, fa = lo, h(lo)
    b, fb = hi, h(hi)
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_BISECTIONS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0 or math.nextafter(b, c) == c:
            return b, True
        half = 0.5 * (c - b)
        bisect = (math.sqrt(b) * math.sqrt(c) if max(b, c) > 2.0 * min(b, c)
                  else b + half) - b
        # -inf where m(r) = -inf has no slope to interpolate
        if e != 0.0 and abs(fa) > abs(fb) and math.isfinite(fa) \
                and math.isfinite(fc):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q, abs(e * q)):
                e, d = d, p / q
            else:
                d = e = bisect
        else:
            d = e = bisect
        a, fa = b, fb
        b = b + d
        if not min(a, c) < b < max(a, c):
            b = math.nextafter(a, c)
        fb = h(b)
    return b, False
