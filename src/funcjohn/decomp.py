"""John decompositions of the identity for functions.

A decomposition is a finite family of points u_i in the closed unit ball with
positive weights c_i satisfying
    (1) sum c_i u_i (x) u_i = Id,
    (2) sum c_i hbar^2(u_i) = 1,
    (3) sum c_i u_i = 0,
which forces sum c_i = d + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .lcfunc import BOUNDARY_SNAP, MAX_DIM, DimensionMismatchError, hbar
from .polar import hull_min_offset

DEFAULT_VERIFY_TOL = 1e-8


class InvalidDecompositionError(ValueError):
    pass


class InfeasibleWeightsError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionalJohnDecomposition:
    points: tuple  # tuple of coordinate tuples, each |u_i| <= 1
    weights: tuple

    def __post_init__(self):
        P = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if P.ndim != 2 or P.shape[0] != w.shape[0] or P.shape[0] < 1:
            raise DimensionMismatchError("points/weights shape mismatch")
        if not 1 <= P.shape[1] <= MAX_DIM:
            raise ValueError("dimension out of range")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        norms = np.linalg.norm(P, axis=1)
        if np.any(norms > 1.0 + BOUNDARY_SNAP):
            raise ValueError("points must lie in the closed unit ball")
        # snap points within BOUNDARY_SNAP of the sphere onto it
        on_boundary = np.abs(norms - 1.0) <= BOUNDARY_SNAP
        safe = np.where(norms > 0.0, norms, 1.0)
        P = np.where(on_boundary[:, None], P / safe[:, None], P)
        object.__setattr__(self, "points",
                           tuple(tuple(float(v) for v in row) for row in P))
        object.__setattr__(self, "weights", tuple(float(v) for v in w))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def size(self) -> int:
        return len(self.weights)

    def point_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class DecompositionResiduals:
    """Max-norm residuals of the three identities plus the weight sum."""

    outer_identity: float
    height_sum: float
    center_of_mass: float
    weight_sum: float
    dim: int

    def passes(self, tol: float) -> bool:
        return (self.outer_identity <= tol
                and self.height_sum <= tol
                and self.center_of_mass <= tol
                and self.weight_sum <= (self.dim + 1) * tol)


@dataclass(frozen=True)
class HullMarginReport:
    margin: float
    witness_direction: tuple


def verify_decomposition(dec: FunctionalJohnDecomposition
                         ) -> DecompositionResiduals:
    """Residual report; passes(tol) iff all residuals are within tol."""
    U = dec.point_array()
    c = dec.weight_array()
    d = dec.dim
    outer = np.einsum("i,ij,ik->jk", c, U, U) - np.eye(d)
    h = hbar(U)
    res = DecompositionResiduals(
        outer_identity=float(np.max(np.abs(outer))),
        height_sum=float(abs(c @ (h * h) - 1.0)),
        center_of_mass=float(np.linalg.norm(c @ U)),
        weight_sum=float(abs(c.sum() - (d + 1))),
        dim=d,
    )
    return res


def _random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded Haar-ish orthogonal matrix via sign-fixed QR."""
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    return Q * np.sign(np.diag(R))


def generate_decomposition(d: int, seed: int) -> FunctionalJohnDecomposition:
    """Rotated-lift generator: start from the cross-polytope decomposition
    {+-e_j, weight 1/2} of R^{d+1}, rotate by a seeded random orthogonal map,
    and project onto the first d coordinates."""
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}]")
    rng = np.random.default_rng(seed)
    Q = _random_rotation(d + 1, rng)
    lifted = np.vstack([Q.T, -Q.T])  # rows are Q ei and -Q ei
    points = lifted[:, :d]
    weights = np.full(2 * (d + 1), 0.5)
    return FunctionalJohnDecomposition(
        points=tuple(map(tuple, points)), weights=tuple(weights))


def regularize_decomposition(dec: FunctionalJohnDecomposition, n: int,
                             seed: int = 0) -> FunctionalJohnDecomposition:
    """Lift to R^{d+1}, rotate by angle 1/n around a hyperplane that avoids
    the lifted points lying in R^d, and project back.

    Interior points u split into (u, +-hbar(u)) with half weight each;
    boundary points lift flat as (u, 0) with full weight.  For large n all
    output points are interior.
    """
    res = verify_decomposition(dec)
    if not res.passes(DEFAULT_VERIFY_TOL):
        raise InvalidDecompositionError(f"input fails verification: {res}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    U = dec.point_array()
    c = dec.weight_array()
    d = dec.dim
    h = hbar(U)
    lifted, weights = [], []
    flat = []  # last coordinate vanishes: these must avoid the hyperplane
    for u, w, hu in zip(U, c, h):
        if hu > 0.0:
            lifted.append(np.append(u, hu))
            lifted.append(np.append(u, -hu))
            weights.extend([w / 2.0, w / 2.0])
        else:
            lifted.append(np.append(u, 0.0))
            weights.append(w)
            flat.append(u)
    lifted = np.asarray(lifted)

    rng = np.random.default_rng(seed)
    axis = None
    for _ in range(100):
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        if all(abs(float(u @ v)) > 1e-6 for u in flat):
            axis = v
            break
    if axis is None:
        raise InvalidDecompositionError(
            "no rotation hyperplane avoiding the flat lifted points found")

    # rotation by 1/n in the plane spanned by (axis, e_{d+1})
    theta = 1.0 / n
    e = np.zeros(d + 1)
    e[d] = 1.0
    va = np.append(axis, 0.0)
    R = np.eye(d + 1)
    R += (math.cos(theta) - 1.0) * (np.outer(va, va) + np.outer(e, e))
    R += math.sin(theta) * (np.outer(e, va) - np.outer(va, e))
    rotated = lifted @ R.T
    projected = rotated[:, :d]
    return FunctionalJohnDecomposition(
        points=tuple(map(tuple, projected)), weights=tuple(weights))


def hull_ball_margin(dec: FunctionalJohnDecomposition) -> HullMarginReport:
    """Min over directions of the support function of conv{u_i}, minus
    1/(d+1), from the exact facets of polar.hull_min_offset."""
    res = verify_decomposition(dec)
    if not res.passes(DEFAULT_VERIFY_TOL):
        raise InvalidDecompositionError(f"decomposition fails verification: {res}")
    offset, witness = hull_min_offset(dec.point_array())
    return HullMarginReport(margin=offset - 1.0 / (dec.dim + 1),
                            witness_direction=witness)


def _identity_system(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear system for the three identities, with symmetric
    outer-product rows deduplicated."""
    d = points.shape[1]
    h2 = 1.0 - np.einsum("ij,ij->i", points, points)
    iu, ju = np.triu_indices(d)
    rows = np.vstack([points[:, iu].T * points[:, ju].T, h2, points.T])
    return rows, np.concatenate([(iu == ju).astype(float), [1.0], np.zeros(d)])


def weights_from_points(points, target_tol: float) -> np.ndarray:
    """Nonnegative least-squares recovery of weights for given contact
    candidates; raises InfeasibleWeightsError when the residual exceeds
    target_tol."""
    P = np.asarray(points, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if np.any(np.linalg.norm(P, axis=1) > 1.0 + BOUNDARY_SNAP):
        raise ValueError("contact candidates must lie in the closed unit ball")
    A, b = _identity_system(P)
    weights, _ = optimize.nnls(A, b, maxiter=1000)
    # the residual reported by nnls is not reliable; recompute it
    residual = float(np.linalg.norm(A @ weights - b))
    if residual > target_tol:
        raise InfeasibleWeightsError(
            f"identity system residual {residual:.3e} exceeds {target_tol:.3e}")
    return weights


# ---------------------------------------------------------------------------
# serialization (structured-text records, exact float round-trip)
# ---------------------------------------------------------------------------


def decomposition_to_records(dec: FunctionalJohnDecomposition) -> dict:
    return {
        "type": "decomposition",
        "dimension": dec.dim,
        "records": [
            {"point": list(p), "weight": w}
            for p, w in zip(dec.points, dec.weights)
        ],
    }


def decomposition_from_records(data: dict) -> FunctionalJohnDecomposition:
    if data.get("type") not in ("decomposition", "bump"):
        raise ValueError("not a decomposition record")
    points = tuple(tuple(float(v) for v in r["point"]) for r in data["records"])
    weights = tuple(float(r["weight"]) for r in data["records"])
    dec = FunctionalJohnDecomposition(points=points, weights=weights)
    if dec.dim != int(data["dimension"]):
        raise ValueError("record dimension mismatch")
    return dec
