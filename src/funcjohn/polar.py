"""Polar-function computation.

polar(f)(p) = inf over supp f of e^{-<p,x>} / f(x) = exp(-S(p)) with
S(p) = sup_x (<p,x> + log f(x)).  Each variant computes S with its log_sup
method; this module holds the exact S of every normal form
(LogConcaveFunction.normal_form), which the base log_sup calls, the convex
hulls it stands on, and the polar values built on S.

For log f = min_i (b_i - <s_i,x>), with f = 0 on each half-space
<n_j,x> >= c_j, LP duality gives S(p) = min b.lam + c.mu over lam, mu >= 0
with sum lam = 1 and sum lam_i s_i + sum mu_j n_j = p: the epigraph of S is
conv{(s_i, b_i)} + cone{(n_j, c_j)} + cone{(0, 1)}.  One Qhull (Barber,
Dobkin and Huhdanpaa, ACM TOMS 1996) of the cone over it gives, once per
function, both its lower facets and the facets of dom S
(lower_facets); S(p) is the largest lower facet plane at p on dom S,
+inf beyond it.  Walls, half-restrictions and slopes that do not span R^d
affinely all take that one path, and the module solves no LP:
funcjohn.exact reads the peak of log f and its start ball off the same
facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

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
# below this a singular value of unit rows, relative to the largest, or the
# up part of a unit normal counts as zero
_FLAT = 1e-12


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


def hull_min_offset(U: np.ndarray) -> tuple[float, tuple]:
    """(h, n): the smallest offset h of the facets <n, u> <= h of
    conv{u_i}, with its outward unit normal, exactly (d = 1 by hand, else
    by Qhull on the rows left once near-identical ones are dropped); B_r
    lies in the hull iff r <= h."""
    if U.shape[1] == 1:
        lo, hi = float(np.min(U)), float(np.max(U))
        return (hi, (1.0,)) if hi <= -lo else (-lo, (-1.0,))
    eq = ConvexHull(U[spread(U, 1e-12)]).equations  # normal . x + offset <= 0
    k = int(np.argmax(eq[:, -1]))
    return float(-eq[k, -1]), tuple(float(v) for v in eq[k, :-1])


def lower_facets(slopes, intercepts, walls, offsets):
    """((J, c, e), (N, h)) of a normal form with an interior row: the
    lower facets <c, p> + e of S, each with the rows J of the stacked
    slopes and walls it was solved from, and the facets <N, p> <= h,
    |N| = 1, of dom S = conv{s_i} + cone{n_j}.  S(p) is the largest
    <c, p> + e on dom S, +inf beyond it.

    By LP duality the epigraph of S is the slice t = 1 of the cone K in
    R^{d+2} spanned by (s_i, 1, b_i), (n_j, 0, c_j) and the up ray
    (0, 0, 1).  One Qhull of K's unit generators and the origin gives K's
    facets: the simplices of its triangulation that have the origin as a
    vertex.  A simplex whose rows [s_j, 1], [n_j, 0] have volume (their
    determinant above 1e-12 of the product of their lengths) lies on a
    lower facet, whose plane is solved from those rows = b_j, c_j.  A
    vertical one, with no up part in its normal, lies on a facet of dom S
    when it holds a slope row: N from Qhull's normal, h the largest
    <N, s_i>; without one it lies on t = 0, at infinity.  Rows that do
    not span R^{d+1} (a single anchor, collinear slopes, a sliver thinner
    than 1e-12 of the unit rows) are projected onto their span, by one
    SVD, before the hull, and each direction orthogonal to the span adds
    two facets that pin dom S to it.  When K holds a line the walls leave
    no open set where f > 0, and the origin is no vertex:
    ImproperFunctionError."""
    m, d = slopes.shape
    if not m:
        raise ImproperFunctionError(
            "a normal form with walls only takes no finite positive value")
    n = m + walls.shape[0]
    # the generators (s_i, 1, b_i), (n_j, 0, c_j), the up ray and the origin
    G = np.zeros((n + 2, d + 2))
    G[:m, :d], G[m:n, :d], G[:m, d] = slopes, walls, 1.0
    G[:m, d + 1], G[m:n, d + 1], G[n, d + 1] = intercepts, offsets, 1.0
    unit = G[:n, :d + 1] / np.linalg.norm(G[:n, :d + 1], axis=1)[:, None]
    sv = np.linalg.svd(unit, compute_uv=False)
    r = int(np.sum(sv > _FLAT * sv[0]))
    if r <= d:  # the rows [s, 1], [n, 0] in coordinates of their span
        Vt = np.linalg.svd(unit)[2]
        G = np.hstack([G[:, :d + 1] @ Vt[:r].T, G[:, d + 1:]])
    norms = np.linalg.norm(G, axis=1)
    norms[-1] = 1.0
    hull = ConvexHull(G / norms[:, None])
    S = np.sort(hull.simplices, axis=1)
    at0 = S[:, -1] == n + 1
    if not at0.any():
        raise ImproperFunctionError(
            "the walls leave no open set where f > 0: f vanishes everywhere")
    J, eq = S[at0, :-1], hull.equations[at0]
    rows = G[J, :r]  # the up ray's row is 0
    full = np.abs(np.linalg.det(rows)) \
        > 1e-12 * np.prod(np.linalg.norm(rows, axis=2), axis=1)
    ce = np.linalg.solve(rows[full], G[J[full], r][:, :, None])[:, :, 0]
    vertical = ~full & (np.abs(eq[:, r]) <= _FLAT) & (J[:, 0] < m)
    N = eq[vertical, :r]  # the (p, t) part of each outward normal
    if r <= d:
        ce, N = ce @ Vt[:r], np.vstack([N @ Vt[:r], Vt[r:], -Vt[r:]])
    N = N[:, :d] / np.linalg.norm(N[:, :d], axis=1)[:, None]
    return (J[full], ce[:, :d], ce[:, d]), (N, np.max(N @ slopes.T, axis=1))


def bump_log_sup(f: LogConcaveFunction, P) -> np.ndarray:
    """S(p) = sup_x (<p,x> + log f(x)) for each row p of P, exactly, for f
    with a normal form: one matrix max over the planes of its lower facets
    (f.support_facets(), see lower_facets), +inf beyond the facets of
    dom S by more than 1e-9 of |h| + |p|."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    (_, c, e), (N, h) = f.support_facets()
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
