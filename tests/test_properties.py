"""Property tests of the per-variant math behind the solver and the polar:
log_value_grad agrees with log f, its gradient matches central differences
away from the support boundary, and the support function satisfies
the Fenchel-Young inequality S(p) >= <p,x> + log f(x).  The log-polyhedral
normal form of nested positioned bumps reproduces their values, and the
closed-form derivatives of w's radial support function match it, and the
support function of a positioned bump agrees with the LP dual on its
composed normal form, and the exact polar floor of bumps and their
positioned copies is the maximum of S on the sphere of radius 1/(d+1).
Solving a positioned radial target composes the position with the inner
solve.  Also the greedy thinning `spread` against the point-by-point loop
it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from funcjohn import (
    BallIndicator,
    Bump,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    LogAffineMajorant,
    PolarHeightPower,
    Positioned,
    log_sup_transform,
    make_position,
    polar_floor,
    solve_john,
)
from funcjohn.acceptance import bump_corpus
from funcjohn.polar import _SPREAD_BLOCK, spread
from funcjohn.verify import sphere_points
from test_polar import _dual_log_sup

REFUSED = (HalfRestriction, LogAffineMajorant)  # no log_value_grad
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True,
                    database=None)


def _e1(d):
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _sq(Y):
    return np.einsum("ij,ij->i", Y, Y)


def _off_band(Y):
    # clear of the support's edge, where log f falls to -inf
    return np.abs(1.0 - _sq(Y)) > 1e-2


def _everywhere(Y):
    return np.ones(Y.shape[0], dtype=bool)


def _axis_anchors(d):
    return [tuple(s * 0.6 * e) for e in np.eye(d) for s in (1.0, -1.0)]


def _off_kinks(Y):
    # clear of the kinks of the axis-anchor bump, where its two lowest
    # majorants, those of the two largest entries of (y, -y), tie
    top = np.sort(np.hstack([Y, -Y]), axis=1)
    return top[:, -1] - top[:, -2] > 1e-3


# name -> d -> (f, mask of points where log f is smooth or -inf, clear of the
# support's edge and of kinks), in the function's own coordinates
CASES = {
    "height": lambda d: (Height(d), _off_band),
    "height_power": lambda d: (HeightPower(dimension=d, s=2.5), _off_band),
    "ball": lambda d: (
        BallIndicator(dimension=d, radius=0.8),
        lambda Y: np.abs(0.64 - _sq(Y)) > 1e-3),
    "ball_off_centre": lambda d: (
        Positioned(inner=BallIndicator(dimension=d, radius=0.8),
                   position=make_position(1.0, np.eye(d), 0.3 * _e1(d))),
        lambda Y: np.abs(0.64 - _sq(Y - 0.3 * _e1(d))) > 1e-3),
    "gaussian": lambda d: (Gaussian(d), _everywhere),
    "expnorm": lambda d: (
        ExpNorm(dimension=d, p=1.5),
        lambda Y: np.sqrt(_sq(Y)) > 0.05),
    "polar_height_power": lambda d: (PolarHeightPower(dimension=d, s=1.0),
                                     _everywhere),
    "majorant": lambda d: (LogAffineMajorant(tuple(0.5 * _e1(d))),
                           _everywhere),
    "bump": lambda d: (Bump(anchors=tuple(_axis_anchors(d))), _off_kinks),
    "bump_with_wall": lambda d: (
        Bump(anchors=tuple(_axis_anchors(d) + [tuple(_e1(d))])),
        lambda Y: _off_kinks(Y) & (np.abs(1.0 - Y[:, 0]) > 1e-3)),
    "half_restriction": lambda d: (
        HalfRestriction(inner=Gaussian(d), normal=tuple(_e1(d))),
        lambda Y: np.abs(Y[:, 0]) > 1e-3),
}


def _draw_case(name, d, positioned, data):
    """(base variant, function, points X, regular-point mask)."""
    base, regular = CASES[name](d)
    Y = data.draw(hnp.arrays(np.float64, (6, d),
                             elements=st.floats(-1.5, 1.5)))
    if not positioned:
        return base, base, Y, regular(Y)
    A = 1.3 * np.eye(d) + 0.2 * np.tri(d, k=-1)
    a = 0.1 * np.arange(1.0, d + 1.0)
    f = Positioned(inner=base, position=make_position(1.7, A, a))
    return base, f, Y @ A.T + a, regular(Y)


case_args = dict(d=st.integers(1, 3), positioned=st.booleans(),
                 data=st.data())


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(**case_args)
def test_target_equals_log_f_outside_the_band(name, d, positioned, data):
    base, f, X, regular = _draw_case(name, d, positioned, data)
    try:
        vals, _ = f.log_value_grad(X)
    except ValueError:
        assert isinstance(base, REFUSED)
        return
    logf = f.log_evaluate_many(X)
    keep = regular & np.isfinite(logf)
    np.testing.assert_allclose(vals[keep], logf[keep], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(**case_args)
def test_target_gradient_matches_central_differences(name, d, positioned,
                                                     data):
    base, f, X, regular = _draw_case(name, d, positioned, data)
    try:
        vals, grads = f.log_value_grad(X)
    except ValueError:
        assert isinstance(base, REFUSED)
        return
    h = 1e-6
    with np.errstate(invalid="ignore"):  # -inf - -inf outside the support
        fd = np.column_stack([
            (f.log_value_grad(X + h * e)[0]
             - f.log_value_grad(X - h * e)[0]) / (2.0 * h)
            for e in np.eye(d)])
    keep = regular & np.isfinite(vals)
    np.testing.assert_allclose(fd[keep], grads[keep], rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("name", sorted(CASES))
@PROPERTY
@given(**case_args)
def test_log_sup_fenchel_young(name, d, positioned, data):
    _, f, X, _ = _draw_case(name, d, positioned, data)
    P = data.draw(hnp.arrays(np.float64, (4, d), elements=st.floats(-3, 3)))
    S = log_sup_transform(f, P)
    logf = f.log_evaluate_many(X)
    live = np.isfinite(logf)
    rhs = P @ X[live].T + logf[live][None, :]
    assert np.all(S[:, None] >= rhs - 1e-9 * (1.0 + np.abs(rhs)))


@PROPERTY
@given(d=st.integers(1, 3), depth=st.integers(1, 3), walls=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normal_form_reproduces_nested_positioned_bumps(d, depth, walls,
                                                        seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((d + 2 + walls, d))
    U /= np.linalg.norm(U, axis=1)[:, None]
    # the first `walls` anchors stay on the sphere
    U[walls:] *= rng.uniform(0.1, 0.9, size=(d + 2, 1))
    f = Bump(anchors=tuple(map(tuple, U)))
    for _ in range(depth):
        T = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        f = Positioned(inner=f, position=make_position(
            rng.uniform(0.5, 2.0), T, rng.uniform(-1.0, 1.0, size=d)))
    slopes, intercepts, N, c = f.normal_form()
    X = rng.uniform(-3.0, 3.0, size=(200, d))
    want = np.min(intercepts - X @ slopes.T, axis=1)
    wall = X @ N.T - c
    want[np.any(wall >= 0.0, axis=1)] = -np.inf
    # rounding can put a point on either side of a wall it nearly touches
    clear = np.all(np.abs(wall) > 1e-9 * (1.0 + np.abs(c)), axis=1)
    got = f.log_evaluate_many(X)
    assert np.array_equal(np.isinf(got[clear]), np.isinf(want[clear]))
    live = clear & np.isfinite(want)
    np.testing.assert_allclose(got[live], want[live], rtol=1e-10, atol=1e-10)


@PROPERTY
@given(w=st.sampled_from([Height(2), HeightPower(dimension=2, s=2.5),
                          HeightPower(dimension=2, s=0.3),
                          BallIndicator(dimension=2, radius=1.7)]),
       c=st.floats(0.0, 1e3))
def test_radial_log_sup_derivatives_match_the_support_function(w, c):
    S, S1, S2 = w.radial_log_sup_derivatives(np.array([c, c + 1e-5,
                                                       max(c - 1e-5, 0.0)]))
    assert abs(S[0] - w.radial_log_sup(c)) <= 1e-12 * (1.0 + abs(S[0]))
    if c >= 1e-5:
        h = 1e-5
        assert abs((S[1] - S[2]) / (2 * h) - S1[0]) <= 1e-6 * (1.0 + S1[0])
        assert abs((S1[1] - S1[2]) / (2 * h) - S2[0]) <= 1e-5 * (1.0 + S2[0])


@PROPERTY
@given(d=st.integers(1, 3), idx=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_log_sup_is_equivariant_under_positions(d, idx, seed):
    # S of alpha * f(T^{-1}(x - t)) is <p, t> + log alpha + S_f(p T); the
    # LP dual on the composed normal form computes the same S independently
    f = bump_corpus(d)[idx].function
    rng = np.random.default_rng(seed)
    T = rng.uniform(-0.5, 0.5, size=(d, d)) + rng.uniform(1.0, 2.0) * np.eye(d)
    g = Positioned(inner=f, position=make_position(
        rng.uniform(0.5, 2.0), T, rng.uniform(-1.0, 1.0, size=d)))
    # points p T in the slope hull of f, where S is finite, and far
    # beyond it, where S = +inf
    lam = rng.dirichlet(np.ones(f.slopes.shape[0]), size=6)
    far = rng.standard_normal((3, d))
    far *= (1.0 + 2.0 * np.max(np.linalg.norm(f.slopes, axis=1))
            / np.linalg.norm(far, axis=1))[:, None]
    Q = np.vstack([lam @ f.slopes, far])
    P = Q @ np.linalg.inv(T)
    want = _dual_log_sup(g.normal_form(), P)
    got = g.log_sup(P)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(want[6:]).all() and np.isfinite(want[:6]).all()
    live = np.isfinite(want)
    np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=1e-12)


@PROPERTY
@given(d=st.integers(1, 4), idx=st.integers(0, 9), positioned=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_polar_floor_is_the_max_of_S_on_the_small_sphere(
        d, idx, positioned, seed):
    # M = -log polar_floor = max_J (e_J + rho |c_J|) bounds S at sampled
    # points of the sphere |p| = rho, and S attains it at rho c_J / |c_J|
    # of the maximizing facet
    f = bump_corpus(d)[idx].function
    rng = np.random.default_rng(seed)
    if positioned:
        T = np.eye(d) + rng.uniform(-0.1, 0.1, size=(d, d))
        f = Positioned(inner=f, position=make_position(
            rng.uniform(0.5, 2.0), T, rng.uniform(-0.5, 0.5, size=d)))
    rho = 1.0 / (d + 1)
    floor, how = polar_floor(f)
    assert how == "exact" and floor > 0.0
    M = -math.log(floor)
    S = f.log_sup(sphere_points(d, 1000, seed=seed) * rho)
    assert np.max(S) <= M + 1e-12
    (_, c, e), _ = f.support_facets()
    k = int(np.argmax(e + rho * np.linalg.norm(c, axis=1)))
    norm = np.linalg.norm(c[k])
    p = rho * (c[k] / norm if norm else _e1(d))
    assert abs(f.log_sup(p[None, :])[0] - M) <= 1e-12


RADIAL_TARGETS = {
    "gaussian": Gaussian,
    "expnorm": lambda d: ExpNorm(dimension=d, p=1.5),
    "polar_height_power": lambda d: PolarHeightPower(dimension=d, s=1.0),
    "height_power": lambda d: HeightPower(dimension=d, s=2.0),
}


@PROPERTY
@given(name=st.sampled_from(sorted(RADIAL_TARGETS)), d=st.integers(1, 3),
       depth=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_solving_a_positioned_target_composes_the_position(name, d, depth,
                                                           seed):
    # objective(Positioned(g, T)) = objective(g) + log alpha_T + log|det T|,
    # through T that need not be symmetric or positive definite; a diagonal
    # that dominates every row keeps T invertible
    g = RADIAL_TARGETS[name](d)
    rng = np.random.default_rng(seed)
    f, expect = g, solve_john(g, Height(d)).objective
    for _ in range(depth):
        T = rng.uniform(-0.4, 0.4, size=(d, d))
        T[np.diag_indices(d)] = rng.choice([-1.0, 1.0], size=d) \
            * rng.uniform(1.0, 2.0, size=d)
        pos = make_position(rng.uniform(0.5, 2.0), T,
                            rng.uniform(-1.0, 1.0, size=d))
        f = Positioned(inner=f, position=pos)
        expect += math.log(pos.alpha) + math.log(abs(pos.det()))
    rep = solve_john(f, Height(d))
    assert rep.diagnostics["composed"] and rep.feasible
    assert abs(rep.objective - expect) <= 1e-12 * max(1.0, abs(expect))


def _greedy_thinning(P, radius, limit):
    """The reference: walk the rows, keep one farther than radius from
    every kept row, stop at limit."""
    kept = []
    for i in range(P.shape[0]):
        if limit is not None and len(kept) >= limit:
            break
        if all(np.linalg.norm(P[i] - P[j]) > radius for j in kept):
            kept.append(i)
    return kept


# row counts on both sides of one and two block boundaries
_ROWS = st.sampled_from([0, 1, 2, 7, _SPREAD_BLOCK - 1, _SPREAD_BLOCK,
                         _SPREAD_BLOCK + 1, 2 * _SPREAD_BLOCK + 3])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=_ROWS, d=st.integers(1, 3), coarse=st.booleans(),
       radius=st.sampled_from([0.0, 1e-12, 0.1, 0.25, 0.5, 3.0]),
       limit=st.sampled_from([None, 0, 1, 3, 16, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2 * _SPREAD_BLOCK + 3, d=1, coarse=True, radius=0.25, limit=None,
         seed=0)
@example(n=2 * _SPREAD_BLOCK + 3, d=2, coarse=True, radius=0.25, limit=None,
         seed=1)
def test_spread_matches_greedy_loop(n, d, coarse, radius, limit, seed):
    rng = np.random.default_rng(seed)
    if coarse:
        # a 0.25 lattice: duplicates, and distances equal to the radius
        P = 0.25 * rng.integers(-4, 5, size=(n, d))
    else:
        # resampled rows: exact duplicates among spread-out points
        P = rng.uniform(-2.0, 2.0, size=(n, d))[rng.integers(0, n, size=n)]
    got = spread(P, radius, limit)
    assert got.dtype == np.intp
    assert got.tolist() == _greedy_thinning(P, radius, limit)
