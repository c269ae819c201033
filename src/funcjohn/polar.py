"""Polar-function computation.

polar(f)(p) = inf over supp f of e^{-<p,x>} / f(x) = exp(-S(p)) with
S(p) = sup_x (<p,x> + log f(x)).  Each variant computes S with its log_sup
method; this module holds the exact linear-programming treatment of bumps
(dual vertex enumeration for small regular bumps, HiGHS otherwise) that
Bump.log_sup calls, and the polar values built on S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import optimize

from .lcfunc import (
    Bump,
    ImproperFunctionError,
    LogConcaveFunction,
    _majorant_coeffs,
    hbar,
)

POLAR_CLAMP = 1e-300
_SUBSET_ENUM_MAX_ANCHORS = 12


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
# bump LP
# ---------------------------------------------------------------------------


def _bump_log_sup_linprog(slopes, intercepts, boundary, P):
    """Per-point HiGHS solve of max <p,x> + t s.t. t + <s_i,x> <= b_i,
    <u_j,x> <= 1."""
    d = P.shape[1]
    rows = [np.append(s, 1.0) for s in slopes]
    rows += [np.append(u, 0.0) for u in boundary]
    A_ub = np.asarray(rows)
    b_ub = np.concatenate([intercepts, np.ones(len(boundary))])
    out = np.empty(P.shape[0])
    for k, p in enumerate(P):
        c = -np.append(p, 1.0)
        res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub,
                               bounds=[(None, None)] * (d + 1), method="highs")
        if res.status == 3:
            out[k] = math.inf
        elif res.status == 0:
            out[k] = -res.fun
        else:
            raise RuntimeError(f"bump LP failed with status {res.status}")
    return out


def bump_log_sup(bump: Bump, P) -> np.ndarray:
    """S(p) = sup_x (<p,x> + log bump(x)) for each row p of P (exact)."""
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        P = P[None, :]
    interior = bump.interior_anchors()
    if not interior.shape[0]:
        raise ImproperFunctionError("bump has no interior anchor")
    slopes, intercepts = _majorant_coeffs(interior)
    boundary = bump.boundary_anchors()
    m, d = slopes.shape
    if boundary.shape[0] or m < d + 1 or m > _SUBSET_ENUM_MAX_ANCHORS:
        return _bump_log_sup_linprog(slopes, intercepts, boundary, P)

    # LP dual: S(p) = min { b . lam : lam >= 0, sum lam = 1, lam . s = p };
    # enumerate the (d+1)-subsets of atoms that can carry a basic solution.
    n = P.shape[0]
    rhs = np.vstack([P.T, np.ones(n)])  # (d+1, n)
    best = np.full(n, math.inf)
    for J in combinations(range(m), d + 1):
        M = np.vstack([slopes[list(J)].T, np.ones(d + 1)])
        det = np.linalg.det(M)
        if abs(det) < 1e-12:
            continue
        lam = np.linalg.solve(M, rhs)  # (d+1, n)
        feasible = np.all(lam >= -1e-11, axis=0)
        if not feasible.any():
            continue
        vals = intercepts[list(J)] @ lam
        best = np.where(feasible & (vals < best), vals, best)
    # points with no feasible basic solution found: settle them with HiGHS
    missing = np.isinf(best)
    if missing.any():
        hull_check = _bump_log_sup_linprog(slopes, intercepts, boundary,
                                           P[missing])
        best[missing] = hull_check
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
