"""Polar-function computation.

polar(f)(p) = inf over supp f of e^{-<p,x>} / f(x) = exp(-S(p)) with
S(p) = sup_x (<p,x> + log f(x)).  Each variant computes S with its log_sup
method; this module holds the exact S of every normal form
(LogConcaveFunction.normal_form), which the base log_sup calls, the convex
hulls it stands on, and the polar values built on S.

For log f = min_i (b_i - <s_i,x>), with f = 0 on each half-space
<n_j,x> >= c_j, LP duality gives S(p) = min b.lam + c.mu over lam, mu >= 0
with sum lam = 1 and sum lam_i s_i + sum mu_j n_j = p.  Without walls S is
the lower convex envelope of the lifted anchors (s_i, b_i): one Qhull
(Barber, Dobkin and Huhdanpaa, ACM TOMS 1996) gives its lower facets, once
per function, and S(p) is the largest facet plane at p on the slope hull
conv{s_i}, +inf beyond it.  HiGHS solves the LP dual per point only where
there are no facets: normal forms with walls, or whose slopes do not span
R^d affinely (for numpy's rank or for Qhull).  That LP is the library's
only one: funcjohn.exact asks it for S(0), the peak of log f, on a free
solve of a normal form with walls, and finds every other start of its
barrier from lower facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.spatial import ConvexHull, QhullError

from .lcfunc import (
    ImproperFunctionError,
    LogConcaveFunction,
    hbar,
)

POLAR_CLAMP = 1e-300


@dataclass(frozen=True)
class PolarAtom:
    """Polar of an interior majorant: a single support point with a mass."""

    location: tuple
    mass: float


def polar_of_ell(u) -> PolarAtom:
    """Closed-form polar atom of ell_u for an interior anchor u."""
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm >= 1.0:
        raise ValueError("polar atom requires |u| < 1")
    if norm == 0.0:
        return PolarAtom(location=tuple(np.zeros_like(u)), mass=1.0)
    h = float(hbar(u))
    location = u / h ** 2
    mass = (1.0 / h) * math.exp(-norm ** 2 / h ** 2)
    return PolarAtom(location=tuple(float(v) for v in location), mass=mass)


# ---------------------------------------------------------------------------
# hulls and the support function of a normal form
# ---------------------------------------------------------------------------

_SPREAD_BLOCK = 256  # rows screened at once against the picks so far


def spread(P: np.ndarray, radius: float, limit: int | None = None
           ) -> np.ndarray:
    """Indices, in row order, of the rows of P that lie farther than radius
    from every row kept before them, at most limit of them: the greedy
    thinning of a ranked point list to spread-out picks.  Rows are screened
    a block at a time, so a walk that fills its limit early stays short."""
    limit = P.shape[0] if limit is None else limit
    kept: list[int] = []
    for start in range(0, P.shape[0], _SPREAD_BLOCK):
        if len(kept) >= limit:
            break
        block = P[start:start + _SPREAD_BLOCK]
        live = np.all(np.linalg.norm(block[:, None, :] - P[kept], axis=2)
                      > radius, axis=1)
        for i in np.flatnonzero(live):
            if len(kept) >= limit:
                break
            if live[i]:
                kept.append(start + int(i))
                live[i + 1:] &= np.linalg.norm(
                    block[i + 1:] - block[i], axis=1) > radius
    return np.asarray(kept, dtype=np.intp)


def hull_facets(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, h): the outward unit normals and offsets of the facets
    <n, u> <= h of conv{u_i}, exactly (d = 1 by hand, else by Qhull on the
    rows left once near-identical ones are dropped)."""
    if U.shape[1] == 1:
        return np.array([[1.0], [-1.0]]), np.array([np.max(U), -np.min(U)])
    eq = ConvexHull(U[spread(U, 1e-12)]).equations  # normal . x + offset <= 0
    return eq[:, :-1], -eq[:, -1]


def hull_min_offset(U: np.ndarray) -> tuple[float, tuple]:
    """(h, n): the smallest offset h of the facets <n, u> <= h of
    conv{u_i}, with its normal; B_r lies in the hull iff r <= h."""
    N, h = hull_facets(U)
    k = int(np.argmin(h))
    return float(h[k]), tuple(float(v) for v in N[k])


def _bump_log_sup_linprog(slopes, intercepts, walls, P, offsets):
    """Per-point HiGHS solve of the LP dual
    min b.lam + c.mu  s.t.  sum lam_i s_i + sum mu_j n_j = p, sum lam = 1,
    lam, mu >= 0, for walls n_j with offsets c_j; an infeasible dual means
    S(p) = +inf."""
    m, nw = slopes.shape[0], walls.shape[0]
    A_eq = np.vstack([np.hstack([slopes.T, walls.T]),
                      np.append(np.ones(m), np.zeros(nw))])
    cost = np.concatenate([intercepts, offsets])
    out = np.empty(P.shape[0])
    for k, p in enumerate(P):
        res = optimize.linprog(cost, A_eq=A_eq, b_eq=np.append(p, 1.0),
                               bounds=(0.0, None), method="highs")
        if res.status == 2:
            out[k] = math.inf
        elif res.status == 0:
            out[k] = res.fun
        else:
            raise RuntimeError(f"bump LP failed with status {res.status}")
    return out


def lower_facets(slopes, intercepts, walls):
    """(J, c, e) for the lower facets of the lifted anchors (s_j, b_j): the
    d + 1 rows J of each facet's anchors, sorted, and the plane
    <c, s> + e through them, solved from those rows.  None when there are
    walls, or when the slopes do not span R^d affinely.

    Qhull triangulates the hull of the lifted anchors and one apex
    (mean s, max b + 1) above them, which keeps its input full-dimensional
    when the slopes span; the lower facets are those whose outward normal
    points down, and none of them holds the apex.  Simplices of no volume
    in Qhull's triangulation, and vertical facets whose normal rounds
    below 0, are dropped: the determinant of their rows [s_j, 1] is
    within 1e-12 of the product of the rows' lengths, its rounding.  On
    the slope hull S(p) = max over the facets of <c, p> + e."""
    m, d = slopes.shape
    if walls.shape[0] or m <= d \
            or np.linalg.matrix_rank(slopes[1:] - slopes[0]) < d:
        return None
    lifted = np.hstack([slopes, intercepts[:, None]])
    apex = np.append(slopes.mean(axis=0), intercepts.max() + 1.0)
    hull = ConvexHull(np.vstack([lifted, apex]))
    J = np.sort(hull.simplices[hull.equations[:, d] < 0.0], axis=1)
    rows = np.concatenate([slopes[J], np.ones(J.shape + (1,))], axis=2)
    full = np.abs(np.linalg.det(rows)) \
        > 1e-12 * np.prod(np.linalg.norm(rows, axis=2), axis=1)
    if not full.any():
        return None
    J, rows = J[full], rows[full]
    ce = np.linalg.solve(rows, intercepts[J][:, :, None])[:, :, 0]
    return J, ce[:, :d], ce[:, d]


def support_facets(slopes, intercepts, walls):
    """(lower_facets, hull_facets of the slopes): all that S reads beside
    the normal form, or None without lower facets or for slopes flat to
    Qhull."""
    try:
        facets = lower_facets(slopes, intercepts, walls)
        return None if facets is None else (facets, hull_facets(slopes))
    except QhullError:
        return None


def bump_log_sup(f: LogConcaveFunction, P) -> np.ndarray:
    """S(p) = sup_x (<p,x> + log f(x)) for each row p of P, exactly, for f
    with a normal form (see the module docstring).  With support facets, S
    is one matrix max over the lower facets' planes on the slope hull and
    +inf beyond its facets, by more than 1e-9 of |h| + |p|; HiGHS solves
    the LP dual at every point where f has none."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    slopes, intercepts, walls, offsets = f.normal_form()
    if not intercepts.shape[0]:
        raise ImproperFunctionError(
            "a normal form with walls only takes no finite positive value")
    facets = f.support_facets()
    if facets is None:
        return _bump_log_sup_linprog(slopes, intercepts, walls, P, offsets)
    (_, c, e), (N, h) = facets
    out = np.max(P @ c.T + e, axis=1)
    tol = 1e-9 * (np.abs(h) + np.linalg.norm(P, axis=1)[:, None])
    out[np.any(P @ N.T - h > tol, axis=1)] = math.inf
    return out


# ---------------------------------------------------------------------------
# support function and polar values
# ---------------------------------------------------------------------------


def log_sup_transform(f: LogConcaveFunction, P) -> np.ndarray:
    """S(p) = sup over supp f of (<p,x> + log f(x)) for each row of P."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    return f.log_sup(P)


def polar_eval_many(f: LogConcaveFunction, P) -> np.ndarray:
    """Polar values exp(-S(p)); values below POLAR_CLAMP are clamped to 0."""
    S = log_sup_transform(f, P)
    out = np.where(np.isfinite(S), np.exp(-np.minimum(S, 700.0)), 0.0)
    out[out < POLAR_CLAMP] = 0.0
    return out


def polar_eval(f: LogConcaveFunction, p) -> float:
    return float(polar_eval_many(f, np.asarray(p, dtype=float)[None, :])[0])


def improperness_probe(f: LogConcaveFunction, direction, t_values) -> list[float]:
    """Polar values along t * direction; non-decay signals an improper polar."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise ValueError("probe direction must be a unit vector")
    P = np.asarray([t * direction for t in t_values])
    return [float(v) for v in polar_eval_many(f, P)]
