"""The John problem for radial targets, reduced to one dimension.

For a radial f and a radial w of support radius R, the objective
log alpha + log det A is concave in the position and unchanged by rotations,
so averaging an optimal position over rotations gives an optimal one of the
form A = r Id, a = 0.  The best height at that position is exp(m(r)), with

    m(r) = inf over 0 <= t < R of  log phi_f(r t) - log phi_w(t)

for the radial log profiles phi (t = R included when w is positive there,
as for a ball indicator).  m is concave and nonincreasing in r, so the free
problem maximizes the concave d log r + m(r) over log r, and the
fixed-height problem bisects for the largest r with m(r) >= log alpha.

m is computed on a grid of t that crowds toward R, refined by a bounded
Brent search in the bracket of the best grid point.  That is an upper bound
on the infimum, exact at the points it samples, so its certificate is
sampled.  Where w vanishes at R the grid stops 1e-13 R short of it, and a
minimum at the grid's last point counts as m = -inf: a position is returned
only when the grid sees where its constraint binds.

The same pass locates the contacts: at the position r Id of height alpha,
alpha w(y) = f(r y) on the spheres |y| = t whose gap log phi_f(r t) -
log phi_w(t) - log alpha vanishes, which Problem.minimum returns on the grid
with the t where m(r) is attained; when r reaches the edge of f's support,
the sphere |y| = R of supp w touches it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .lcfunc import DivergentIntegralError, ImproperFunctionError

_REACH = 100.0  # log r distance a bracket walk covers before giving up
_LOG_R_TOL = 1e-13  # width in log r that ends the height bisection
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
    """m(r) of one radial target f and one radial w; `density` scales the
    number of grid points in t (1,100 at density 1)."""

    def __init__(self, f, w, density: int = 1):
        self.f, self.w, self.d = f, w, f.dim
        self.R = R = w.support_radius()
        t = R * np.concatenate([
            np.linspace(0.0, 0.999, 1000 * density, endpoint=False),
            1.0 - np.geomspace(1e-3, 1e-13, 100 * density)])
        # a ball indicator keeps its edge; where w vanishes, the grid stops
        # 1e-13 R short of it
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

    def _checked(self, v):
        if np.any(np.isnan(v)):
            raise ImproperFunctionError(
                f"the radial log profile of {type(self.f).__name__} gave NaN")
        return v

    def m(self, r: float) -> float:
        """m(r) from the grid and its refinement: an upper bound on the
        infimum, exact at its samples, or -inf where it cannot be bounded."""
        return self.minimum(r)[0]

    def minimum(self, r: float) -> tuple[float, np.ndarray, float]:
        """(m(r), the gap log phi_f(r t) - log phi_w(t) at each grid point
        t, the t where that value of m(r) was found)."""
        self.evaluations += 1
        t = self.t
        v = self._checked(self.f.radial_log_profile(r * t) - self.log_w)
        k = int(np.argmin(v))
        if not math.isfinite(v[k]):
            return float(v[k]), v, float(t[k])
        if self.open_edge and k == t.size - 1:
            # still falling at the last point short of the edge: the
            # infimum may lie beyond the grid's reach, so count it as -inf
            return -math.inf, v, float(t[k])

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
            return float(res.fun), v, float(self.R - res.x)
        return float(v[k]), v, float(t[k])

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
        stop = "iteration_cap"
        for _ in range(_MAX_BISECTIONS):
            if hi - lo <= _LOG_R_TOL:
                stop = "xtol_reached"
                break
            mid = 0.5 * (lo + hi)
            if attained(mid):
                lo = mid
            else:
                hi = mid
        return RadialSolution(r=math.exp(lo), log_alpha=log_alpha,
                              stop_reason=stop)
