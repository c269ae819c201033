"""Function variants: evaluation rules, closed-form integrals, and the
log-concavity property."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import funcjohn
from funcjohn import radial
from funcjohn import (
    BallIndicator,
    Bump,
    DimensionMismatchError,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    ImproperFunctionError,
    PolarHeightPower,
    Positioned,
    Radial,
    UnboundedFunctionError,
    ell_majorant,
    hbar,
    identity_position,
    log_sup_transform,
    make_position,
    polar_floor,
    unit_ball_volume,
    zeta,
)


def test_hbar_values():
    assert hbar(np.array([0.0])) == 1.0
    assert hbar(np.array([1.0])) == 0.0
    assert hbar(np.array([2.0])) == 0.0  # clamped outside the ball
    assert abs(hbar(np.array([0.6, 0.8])) - 0.0) < 1e-15
    assert abs(hbar(np.array([0.5])) - math.sqrt(0.75)) < 1e-15


def test_hbar_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.2, 1.2, size=(50, 3))
    many = hbar(X)
    for x, v in zip(X, many):
        assert abs(hbar(x) - v) < 1e-15


def test_zeta_endpoint_and_values():
    assert zeta(0.0) == 1.0
    assert zeta(1.0) == 1.0
    assert abs(zeta(0.5) - math.sqrt(2.0)) < 1e-15
    with pytest.raises(ValueError):
        zeta(1.5)


def test_unit_ball_volume():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-14
    assert abs(unit_ball_volume(2) - math.pi) < 1e-14
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-14


def test_height_basics():
    h = Height(1)
    assert h.evaluate([0.0]) == 1.0
    assert h.evaluate([1.0]) == 0.0
    assert h.evaluate([2.0]) == 0.0
    assert h.sup_norm() == 1.0
    assert h.support_radius() == 1.0


def test_height_integrals_closed_form():
    # half the volume of the (d+1)-ball
    assert abs(Height(1).integral() - math.pi / 2.0) < 1e-14
    assert abs(Height(2).integral() - 2.0 * math.pi / 3.0) < 1e-14
    assert abs(Height(3).integral() - math.pi ** 2 / 4.0) < 1e-14


def test_height_power_matches_height_at_s1():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        h, hp = Height(d), HeightPower(dimension=d, s=1.0)
        assert isinstance(h, HeightPower) and h.s == 1.0 and h == Height(d)
        X = rng.uniform(-1.2, 1.2, size=(5000, d))
        assert np.array_equal(h.log_evaluate_many(X), hp.log_evaluate_many(X))
        P = rng.uniform(-3.0, 3.0, size=(200, d))
        assert np.array_equal(log_sup_transform(h, P),
                              log_sup_transform(hp, P))
    with pytest.raises(TypeError):
        Height(dimension=1, s=2.0)


def test_height_power_integral_beta_form():
    # d=1, s=2: integral of (1-x^2) over [-1,1] is 4/3
    assert abs(HeightPower(dimension=1, s=2.0).integral() - 4.0 / 3.0) < 1e-13
    with pytest.raises(ValueError):
        HeightPower(dimension=1, s=0.0)


def test_ball_indicator():
    b = BallIndicator(dimension=2, radius=2.0)
    assert b.evaluate([1.9, 0.0]) == 1.0
    assert b.evaluate([2.1, 0.0]) == 0.0
    assert abs(b.integral() - math.pi * 4.0) < 1e-13
    # a translated ball is a positioned copy of the centred one
    shifted = Positioned(inner=BallIndicator(dimension=2, radius=1.0),
                         position=make_position(1.0, np.eye(2), [3.0, 0.0]))
    assert shifted.evaluate([3.0, 0.5]) == 1.0
    assert shifted.evaluate([0.0, 0.0]) == 0.0
    assert shifted.support_radius() == 4.0


def test_generic_log_sup_of_a_half_restricted_shifted_gaussian():
    # neither the restriction nor its inner function is radial, so S comes
    # from the numeric multi-start ascent; for exp(-(x - t)^2) on x >= 0,
    # S(p) = p t + p^2 / 4 where the peak t + p / 2 lies in the half-line,
    # and -t^2 (at x = 0) otherwise
    t = 0.7
    f = HalfRestriction(inner=Positioned(
        inner=Gaussian(1), position=make_position(1.0, [[1.0]], [t])),
        normal=(1.0,))
    p = np.linspace(-4.0, 3.0, 15)
    want = np.where(t + p / 2.0 >= 0.0, p * t + p * p / 4.0, -t * t)
    np.testing.assert_allclose(f.log_sup(p[:, None]), want, rtol=0.0,
                               atol=1e-12)


def test_gaussian_closed_forms():
    g = Gaussian(dimension=2)
    assert abs(g.evaluate([1.0, 0.0]) - math.exp(-1.0)) < 1e-15
    assert abs(g.integral() - math.pi) < 1e-14
    assert abs(Gaussian(dimension=1).integral() - math.sqrt(math.pi)) < 1e-14


def test_expnorm_integrals():
    # d=1, p=1: integral of e^{-|x|} is 2
    assert abs(ExpNorm(dimension=1, p=1.0).integral() - 2.0) < 1e-14
    assert abs(ExpNorm(dimension=1, p=2.0).integral() - math.sqrt(math.pi)) < 1e-14
    with pytest.raises(ValueError):
        ExpNorm(dimension=1, p=0.5)


def test_polar_height_power_is_one_at_origin_and_decays():
    f = PolarHeightPower(dimension=2, s=1.0)
    assert f.evaluate([0.0, 0.0]) == 1.0
    vals = [f.evaluate([r, 0.0]) for r in (0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # against a direct numeric inner maximization of c r + (s/2) log(1-r^2)
    r = np.linspace(0.0, 1.0 - 1e-9, 200001)
    for c in (0.3, 1.0, 4.0):
        brute = np.max(c * r + 0.5 * np.log1p(-r * r))
        assert abs(f.log_evaluate(np.array([c, 0.0])) + brute) < 1e-8


def test_majorant_touches_height_and_dominates():
    u = np.array([0.5, 0.2])
    ell = ell_majorant(u)
    assert abs(ell.evaluate(u) - hbar(u)) < 1e-14
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(500, 2))
    X = X[np.linalg.norm(X, axis=1) < 1.0]
    assert np.all(ell.evaluate_many(X) >= hbar(X) - 1e-12)


def test_majorant_slope_formula():
    u = np.array([0.5])
    ell = ell_majorant(u)
    h2 = 1.0 - 0.25
    assert np.allclose(ell.slope, u / h2)
    assert abs(ell.height - math.sqrt(h2)) < 1e-15


def test_boundary_majorant_is_halfspace():
    ell = ell_majorant([1.0, 0.0])
    assert ell.is_boundary
    assert ell.evaluate(np.array([1.5, 0.0])) == 0.0
    assert math.isinf(ell.evaluate(np.array([0.5, 0.0])))
    with pytest.raises(UnboundedFunctionError):
        ell.sup_norm()


def test_two_point_bump_sup_norm_exact():
    r = 1.0 / math.sqrt(2.0)
    f = Bump(anchors=((r,), (-r,)))
    # the two majorants cross at 0 where each has value sqrt(1/2) e^{1}
    assert abs(f.sup_norm() - math.e / math.sqrt(2.0)) < 1e-12
    assert f.is_regular


def test_bump_is_min_of_majorants():
    anchors = ((0.3, 0.1), (-0.4, 0.2), (0.0, -0.5))
    f = Bump(anchors=anchors)
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(200, 2))
    stacked = np.min([ell_majorant(u).log_evaluate_many(X) for u in anchors],
                     axis=0)
    assert np.allclose(f.log_evaluate_many(X), stacked)
    # two boundary anchors: the half-space branch of ell_majorant is the
    # reference for the walls, points on a wall included
    anchors = anchors + ((1.0, 0.0), (0.0, -1.0))
    f = Bump(anchors=anchors)
    assert f.walls.shape == (2, 2) and f.slopes.shape == (3, 2)
    X = np.vstack([X, [[1.0, 0.3], [0.2, -1.0], [0.99, -0.5]]])
    stacked = np.min([ell_majorant(u).log_evaluate_many(X) for u in anchors],
                     axis=0)
    logs = f.log_evaluate_many(X)
    assert np.array_equal(np.isneginf(logs), np.isneginf(stacked))
    assert 0 < np.isneginf(logs).sum() < X.shape[0]
    assert np.allclose(logs, stacked)


def test_bump_with_boundary_anchor_truncates():
    f = Bump(anchors=((0.0, 0.0), (1.0, 0.0)))
    assert not f.is_regular
    assert f.evaluate(np.array([1.5, 0.0])) == 0.0
    assert f.evaluate(np.array([0.5, 0.0])) == 1.0


def test_bump_all_boundary_is_improper():
    f = Bump(anchors=((1.0,), (-1.0,)))
    with pytest.raises(ImproperFunctionError):
        f.sup_norm()


def test_half_restriction():
    f = HalfRestriction(inner=Gaussian(dimension=2), normal=(1.0, 0.0))
    assert f.evaluate([0.5, 0.0]) == math.exp(-0.25)
    assert f.evaluate([-0.5, 0.0]) == 0.0
    assert f.sup_norm() == 1.0
    assert abs(f.integral() - math.pi / 2.0) < 1e-13


def test_half_restriction_sup_norm_of_a_shifted_inner():
    # the peak of exp(-|x + e_1|^2) lies outside x_1 >= 0, so the sup of the
    # restriction sits on the boundary line, at e^-1, not at the inner's 1
    shifted = Positioned(inner=Gaussian(2),
                         position=make_position(1.0, np.eye(2), [-1.0, 0.0]))
    f = HalfRestriction(inner=shifted, normal=(1.0, 0.0))
    assert abs(f.sup_norm() - math.exp(-1.0)) <= 1e-12
    X = np.random.default_rng(0).uniform(-3.0, 3.0, size=(20_000, 2))
    assert float(f.evaluate_many(X).max()) <= f.sup_norm()


def test_half_restriction_normal_form_adds_its_wall():
    bump = Bump(anchors=((0.6, 0.0), (-0.6, 0.0), (0.0, 0.6), (0.0, -0.6)))
    f = HalfRestriction(inner=bump, normal=(0.6, 0.8))
    slopes, intercepts, N, c = f.normal_form()
    np.testing.assert_array_equal(slopes, bump.slopes)
    np.testing.assert_array_equal(intercepts, bump.intercepts)
    np.testing.assert_array_equal(N, [[-0.6, -0.8]])
    np.testing.assert_array_equal(c, [0.0])
    assert HalfRestriction(inner=Gaussian(2), normal=(1.0, 0.0)) \
        .normal_form() is None


def test_positioned_evaluation_rule():
    pos = make_position(2.0, 3.0 * np.eye(1), np.array([1.0]))
    g = Positioned(inner=Height(1), position=pos)
    # g(x) = 2 * hbar((x - 1) / 3)
    assert abs(g.evaluate([1.0]) - 2.0) < 1e-15
    assert abs(g.evaluate([2.5]) - 2.0 * hbar(np.array([0.5]))) < 1e-14
    assert g.evaluate([4.5]) == 0.0
    assert abs(g.sup_norm() - 2.0) < 1e-15
    assert abs(g.integral() - 2.0 * 3.0 * math.pi / 2.0) < 1e-13
    assert abs(g.support_radius() - 4.0) < 1e-12


def test_identity_position_is_noop():
    g = Positioned(inner=Height(2), position=identity_position(2))
    X = np.random.default_rng(4).uniform(-1.5, 1.5, size=(100, 2))
    assert np.allclose(g.evaluate_many(X), Height(2).evaluate_many(X))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Height(2).evaluate_many(np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError):
        HalfRestriction(inner=Gaussian(dimension=2), normal=(1.0,))


@pytest.mark.parametrize("f", [
    Height(2),
    HeightPower(dimension=2, s=3.0),
    Gaussian(dimension=2),
    ExpNorm(dimension=2, p=1.5),
    PolarHeightPower(dimension=2, s=1.0),
    Bump(anchors=((0.3, 0.1), (-0.4, 0.2), (0.0, -0.5))),
])
def test_midpoint_log_concavity(f):
    rng = np.random.default_rng(5)
    X = rng.uniform(-0.9, 0.9, size=(300, 2))
    Y = rng.uniform(-0.9, 0.9, size=(300, 2))
    lx = f.log_evaluate_many(X)
    ly = f.log_evaluate_many(Y)
    lm = f.log_evaluate_many(0.5 * (X + Y))
    ok = np.isfinite(lx) & np.isfinite(ly)
    assert np.all(lm[ok] >= 0.5 * (lx[ok] + ly[ok]) - 1e-10)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half a second to import; only the
    # quasi-Monte Carlo integral of d >= 3 needs it, and imports it there.
    # scipy.integrate is imported the same way, by the two numeric integrals.
    # The subprocess imports funcjohn from where this process did, which
    # pytest's pythonpath setting does not pass on by itself
    src = str(Path(funcjohn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, funcjohn; "
         "print('scipy.stats' in sys.modules, "
         "'scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


# ---------------------------------------------------------------------------
# the Radial base against the per-class formulas it replaced
# ---------------------------------------------------------------------------


def _ref_polar_height_power_log(c, s):
    """log of the polar of hbar^s at radius c, in its former closed form."""
    c = np.asarray(c, dtype=float)
    out = np.zeros_like(c)
    pos = c > 0
    cp = c[pos]
    r = (-s + np.sqrt(s * s + 4.0 * cp * cp)) / (2.0 * cp)
    out[pos] = -(cp * r + 0.5 * s * np.log1p(-r * r))
    return out


def _ref_log_f(f, X):
    """log f as each radial variant stated it for itself."""
    if isinstance(f, HeightPower):
        sq = 1.0 - np.einsum("ij,ij->i", X, X)
        with np.errstate(divide="ignore"):
            return np.where(sq > 0.0, 0.5 * f.s * np.log(
                np.maximum(sq, 1e-320)), -np.inf)
    if isinstance(f, BallIndicator):
        return np.where(np.einsum("ij,ij->i", X, X) <= f.radius ** 2, 0.0,
                        -np.inf)
    if isinstance(f, Gaussian):
        return -np.einsum("ij,ij->i", X, X)
    if isinstance(f, ExpNorm):
        return -np.linalg.norm(X, axis=1) ** f.p
    return _ref_polar_height_power_log(np.linalg.norm(X, axis=1), f.s)


def _ref_radial_log_sup(f, c):
    """S at one c = |p| as each variant stated it for itself; the polar
    height power had no form of its own and took the numeric search."""
    if isinstance(f, HeightPower):
        return -float(_ref_polar_height_power_log(np.array([c]), f.s)[0])
    if isinstance(f, Gaussian):
        return c * c / 4.0
    if isinstance(f, ExpNorm):
        if f.p == 1.0:
            return 0.0 if c <= 1.0 else math.inf
        r = (c / f.p) ** (1.0 / (f.p - 1.0))
        return c * r - r ** f.p
    return float(Radial.radial_log_sup(f, c))


def _ref_log_sup(f, P):
    """S at the rows of P: a batch norm for the ball, and one norm per row
    through the scalar S for every other radial variant."""
    if isinstance(f, BallIndicator):
        return f.radius * np.linalg.norm(P, axis=1)
    return np.asarray([_ref_radial_log_sup(f, float(np.linalg.norm(p)))
                       for p in P])


def _ref_height_power_sup(c, s):
    """HeightPower.radial_log_sup_derivatives as the class stated it."""
    c = np.asarray(c, dtype=float)
    c2 = 2.0 * c
    q = np.sqrt(s * s + c2 * c2)
    sq = s + q
    r = c2 / sq
    h2 = s * (1.0 + s / (q + c2)) / sq * (1.0 + r)
    return c * r + 0.5 * s * np.log(h2), r, h2 / (s + c2 * r)


_RADIAL_VARIANTS = [
    lambda d: Height(d), lambda d: HeightPower(d, 0.5),
    lambda d: HeightPower(d, 2.5), lambda d: BallIndicator(d),
    lambda d: BallIndicator(d, 0.7), lambda d: Gaussian(d),
    lambda d: ExpNorm(d, 1.0), lambda d: ExpNorm(d, 1.5),
    lambda d: ExpNorm(d, 3.0), lambda d: PolarHeightPower(d, 1.0),
    lambda d: PolarHeightPower(d, 3.0)]


def _ulps(got, want):
    """|got - want| in units of the spacing of floats at want; 0 where the
    two are the same infinity."""
    same = got == want
    with np.errstate(invalid="ignore"):
        return np.where(same, 0.0, np.abs(got - want)
                        / np.spacing(np.abs(np.where(same, 1.0, want))))


def _points(d, edge, seed):
    """Seeded points in d dimensions: 400 with radii up to 3 edges (or 5
    without an edge), and for an edge R 17 on each of 20 rays at
    R (1 + k eps), |k| <= 8."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((420, d))
    U /= np.linalg.norm(U, axis=1)[:, None]
    radii = rng.uniform(0.0, 3.0 * edge if math.isfinite(edge) else 5.0, 420)
    X = U * radii[:, None]
    if math.isfinite(edge):
        k = np.arange(-8, 9) * np.finfo(float).eps
        X = np.vstack([X, (U[:20, None, :] * (edge * (1.0 + k))[None, :, None]
                           ).reshape(-1, d)])
    return X


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", _RADIAL_VARIANTS)
def test_radial_base_matches_the_per_class_formulas(make, d):
    f = make(d)
    eps = np.finfo(float).eps
    X = _points(d, f.support_radius(), seed=d)
    got, want = f.log_evaluate_many(X), _ref_log_f(f, X)
    P = _points(d, math.inf, seed=10 + d)
    S, S_ref = f.log_sup(P), _ref_log_sup(f, P)
    assert f.sup_norm() == 1.0
    if isinstance(f, HeightPower):
        sq = 1.0 - np.einsum("ij,ij->i", X, X)
        live = np.isfinite(got) & np.isfinite(want)
        # the two differ only in the rounding of 1 - |x|^2, and in whether
        # f vanishes within a few eps of the edge
        assert np.all(live | (got == want) | (np.abs(sq) <= 4.0 * eps))
        assert np.all(np.abs(got[live] - want[live])
                      <= 0.5 * f.s * 4.0 * eps / sq[live])
        assert np.all(np.abs(S - S_ref) <= 2e-15 * (1.0 + np.abs(S_ref)))
        c = np.linalg.norm(P, axis=1)
        for a, b in zip(f.radial_log_sup_derivatives(c),
                        _ref_height_power_sup(c, f.s)):
            assert np.array_equal(a, b)
    elif isinstance(f, BallIndicator):
        near = np.abs(np.linalg.norm(X, axis=1) - f.radius) \
            <= 2.0 * np.spacing(f.radius)
        assert np.array_equal(got[~near], want[~near])
        assert np.array_equal(S, S_ref)
    elif isinstance(f, Gaussian):
        assert np.max(_ulps(got, want)) <= 4.0
        assert np.max(_ulps(S, S_ref)) <= 4.0
    elif isinstance(f, ExpNorm):
        assert np.array_equal(got, want)
        if f.p == 1.0:
            assert np.array_equal(S, S_ref)  # 0 or +inf
        else:
            # S(c) = (p - 1) (c / p)^{p / (p - 1)} turns a relative change
            # of c, as between the two norms, into p / (p - 1) times as much
            assert np.max(_ulps(S, S_ref)) <= 4.0 * max(1.0, f.p / (f.p - 1))
    else:
        assert np.all(np.abs(got - want) <= 2e-15 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
def test_polar_height_power_support_function_is_closed_form(d, s):
    # the polar of the polar of hbar^s is hbar^s: S = -(s/2) log(1 - c^2)
    f = PolarHeightPower(d, s)
    c = np.linspace(0.0, 0.999, 40)
    # near r = 0 the profile rounds up to (s/2) eps above 0, which the
    # search reads at c = 0
    np.testing.assert_allclose(f.radial_log_sup(c),
                               Radial.radial_log_sup(f, c), rtol=1e-12,
                               atol=s * np.finfo(float).eps)
    assert np.all(np.isposinf(f.radial_log_sup(
        np.array([1.0, 1.0 + 1e-15, 2.0, 1e3]))))
    rho = 1.0 / (d + 1)
    floor, how = polar_floor(f)
    assert how == "exact"
    assert abs(floor - (1.0 - rho * rho) ** (s / 2.0)) <= 1e-15


@dataclass(frozen=True)
class _NarrowGaussian(Gaussian):
    """exp(-2|x|^2): a Gaussian with a profile of its own."""

    def radial_log_profile(self, r):
        return -2.0 * np.square(r)


@dataclass(frozen=True)
class _RenamedGaussian(Gaussian):
    """exp(-|x|^2) under another name: it keeps Gaussian's profile."""


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_forms_follow_the_profile(d):
    f = _NarrowGaussian(d)
    X = np.random.default_rng(d).uniform(-2.0, 2.0, size=(50, d))
    np.testing.assert_allclose(f.log_evaluate_many(X),
                               -2.0 * np.einsum("ij,ij->i", X, X), rtol=1e-15)
    c = np.linspace(0.0, 3.0, 13)
    np.testing.assert_allclose(f.radial_log_sup(c), c * c / 8.0,
                               rtol=0, atol=1e-12)
    assert abs(f.integral() - (math.pi / 2.0) ** (d / 2.0)) \
        <= 1e-8 * (math.pi / 2.0) ** (d / 2.0)
    floor, how = polar_floor(f)
    assert how == "sampled"
    assert abs(floor - math.exp(-1.0 / (8.0 * (d + 1) ** 2))) <= 1e-12
    assert f.radial_gap_rule(1.0) is None
    with pytest.raises(NotImplementedError):
        f.radial_log_slope(1.0)
    assert not radial.Problem(f, Height(d)).exact
    # a subclass that keeps the profile keeps the closed forms
    g = _RenamedGaussian(d)
    assert g.radial_log_sup(np.array([2.0]))[0] == 1.0
    assert g.integral() == math.pi ** (d / 2.0)
    assert g.radial_log_slope(1.5) == -3.0
    assert polar_floor(g)[1] == "exact"
    assert radial.Problem(g, Height(d)).exact


@pytest.mark.parametrize("make", _RADIAL_VARIANTS)
def test_radial_log_slope_is_the_derivative_of_the_profile(make):
    f = make(2)
    rho = np.linspace(0.05, 0.9, 12) * min(f.support_radius(), 2.0)
    step = 1e-6
    diff = (f.radial_log_profile(rho + step)
            - f.radial_log_profile(rho - step)) / (2.0 * step)
    slope = np.array([f.radial_log_slope(float(x)) for x in rho])
    np.testing.assert_allclose(slope, diff, rtol=1e-7, atol=1e-8)


@pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 3.0])
def test_expnorm_support_function_is_accurate_near_p_1(p):
    # S = (p - 1) (c / p)^{p / (p - 1)} moves by p / (p - 1) times any
    # relative error of its argument, so the roundings of c / p and of
    # 1 / (p - 1) are corrected, and c r - r^p no longer cancels
    mpmath = pytest.importorskip("mpmath")
    c = np.linspace(0.05, 3.0, 60)
    got = ExpNorm(2, p).radial_log_sup(c)
    with mpmath.workdps(50):
        P = mpmath.mpf(p)
        for ci, g in zip(c, got):
            C = mpmath.mpf(float(ci))
            r = (C / P) ** (1 / (P - 1))
            S = C * r - r ** P
            assert abs(mpmath.mpf(float(g)) - S) <= 2e-15 * S, ci
