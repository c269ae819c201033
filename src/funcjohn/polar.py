"""Polar-function computation.

polar(f)(p) = inf over supp f of e^{-<p,x>} / f(x) = exp(-S(p)) with
S(p) = sup_x (<p,x> + log f(x)).  Each variant computes S with its log_sup
method; this module holds the exact treatment of bumps that Bump.log_sup
calls, and the polar values built on S.

For a bump, log f = min_i (b_i - <s_i,x>), and by LP duality S is the lower
convex envelope of the lifted anchors (s_i, b_i), evaluated at p.  The lower
facets of the lifted set are found once per call, by enumerating the
(d+1)-subsets of the anchors, and every point is evaluated against that
short list.  HiGHS solves the LP dual per point only where the facets
cannot answer: points that no facet covers (beyond the slope hull, where S
is +inf), bumps with a boundary anchor, bumps with fewer than d + 1
interior anchors, and bumps with more than _FACET_ENUM_MAX_SUBSETS subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
from scipy import optimize

from .lcfunc import (
    Bump,
    ImproperFunctionError,
    LogConcaveFunction,
    hbar,
)

POLAR_CLAMP = 1e-300
# Past this many (d+1)-subsets the facet search outgrows a call's LPs: it
# took 7 ms on the 3,432 subsets of a d = 6 corpus bump (14 anchors), 29 ms
# on the 12,870 of d = 7 and 128 ms on the 48,620 of d = 8, against about
# 1.5 ms per HiGHS LP.
_FACET_ENUM_MAX_SUBSETS = 20_000
_FACET_CHUNK = 1024  # subsets solved per batch, so memory stays flat


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
# bump support function
# ---------------------------------------------------------------------------


def _bump_log_sup_linprog(slopes, intercepts, boundary, P):
    """Per-point HiGHS solve of the LP dual
    min b.lam + sum mu  s.t.  sum lam_i s_i + sum mu_j u_j = p, sum lam = 1,
    lam, mu >= 0; an infeasible dual means S(p) = +inf."""
    m, nb = slopes.shape[0], boundary.shape[0]
    A_eq = np.vstack([np.hstack([slopes.T, boundary.T]),
                      np.append(np.ones(m), np.zeros(nb))])
    cost = np.concatenate([intercepts, np.ones(nb)])
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
    """(J, c, e), or None where the facets do not settle S (see the module
    docstring): the (d+1)-subsets J of the anchors, by row, whose lifted
    points (s_j, b_j) span a lower facet <c,s> + e of the lifted set, below
    every lifted anchor up to a tolerance scaled by each residual's terms.
    On the slope hull S(p) = max over the facets of <c,p> + e."""
    m, d = slopes.shape
    if (walls.shape[0] or m < d + 1
            or math.comb(m, d + 1) > _FACET_ENUM_MAX_SUBSETS):
        return None
    lifted = np.hstack([slopes, np.ones((m, 1))])  # rows [s_k, 1]
    s_norm = np.linalg.norm(slopes, axis=1)
    b_abs = np.abs(intercepts)
    subsets = combinations(range(m), d + 1)
    facets = [(np.empty((0, d + 1), dtype=np.intp), np.empty((0, d)),
               np.empty(0))]
    while True:
        J = np.array(list(islice(subsets, _FACET_CHUNK)), dtype=np.intp)
        if not J.size:
            return tuple(np.concatenate(parts) for parts in zip(*facets))
        # the point solves factor M = rows^T and the facet solve factors
        # rows; on huge slopes one LU can meet an exact zero pivot while the
        # other does not, so both determinants must pass
        rows = lifted[J]  # (k, d+1, d+1)
        regular = ((np.abs(np.linalg.det(rows.transpose(0, 2, 1))) >= 1e-12)
                   & (np.abs(np.linalg.det(rows)) >= 1e-12))
        J, rows = J[regular], rows[regular]
        if not J.size:
            continue
        ce = np.linalg.solve(rows, intercepts[J][:, :, None])[:, :, 0]
        c, e = ce[:, :d], ce[:, d]
        resid = intercepts[None, :] - c @ slopes.T - e[:, None]
        tol = 1e-12 * (b_abs[None, :]
                       + np.linalg.norm(c, axis=1)[:, None] * s_norm[None, :]
                       + np.abs(e)[:, None])
        lower = np.all(resid >= -tol, axis=1)
        facets.append((J[lower], c[lower], e[lower]))


def bump_log_sup(bump: Bump, P) -> np.ndarray:
    """S(p) = sup_x (<p,x> + log bump(x)) for each row p of P (exact).

    S is the lower convex envelope of the lifted anchors (s_i, b_i) at p.
    Each lower facet J gives the affine lower bound b_J . lam on S, where
    lam are p's barycentric coordinates in the simplex of the s_j, and it
    is exact on that simplex; so a point's value is the largest b_J . lam
    over the facets whose simplex covers it.  HiGHS settles the points no
    facet covers, and whole calls on bumps the facets do not serve (see the
    module docstring)."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    slopes, intercepts, boundary = bump.slopes, bump.intercepts, bump.walls
    if not intercepts.shape[0]:
        raise ImproperFunctionError("bump has no interior anchor")
    facets = bump.lower_facets()
    if facets is None:
        return _bump_log_sup_linprog(slopes, intercepts, boundary, P)

    # LP dual: S(p) = min { b . lam : lam >= 0, sum lam = 1, lam . s = p },
    # attained on the lower facet whose simplex holds p
    d = slopes.shape[1]
    n = P.shape[0]
    rhs = np.vstack([P.T, np.ones(n)])  # (d+1, n)
    best = np.full(n, -math.inf)
    for J in facets[0]:
        M = np.vstack([slopes[J].T, np.ones(d + 1)])
        lam = np.linalg.solve(M, rhs)  # (d+1, n)
        covered = np.all(lam >= -1e-11, axis=0)
        vals = intercepts[J] @ lam
        best = np.where(covered & (vals > best), vals, best)
    missing = np.isneginf(best)
    if missing.any():
        best[missing] = _bump_log_sup_linprog(slopes, intercepts, boundary,
                                              P[missing])
    return best


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
