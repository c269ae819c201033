"""Domination certificates, the polar floor behind the inclusion check and
the sandwich construction, and the half-restriction counterexample suite."""

import math

import numpy as np
import pytest

from funcjohn import (
    BallIndicator,
    Bump,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    ImproperFunctionError,
    PolarHeightPower,
    Positioned,
    check_domination,
    generate_decomposition,
    height_below,
    john_inclusion_check,
    lowner_counterexample,
    make_position,
    polar_floor,
    sandwich_construct,
    solve_john,
)
from funcjohn import exact, polar, radial
from funcjohn.acceptance import bump_corpus
from funcjohn.lcfunc import BOUNDARY_SNAP
from funcjohn.position import apply_position
from funcjohn.verify import DOMINATION_PASS_TOL, ball_grid, sphere_points

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = Bump(anchors=((R2,), (-R2,)))
# boundary anchors |u| = 1 give walls <u, x> >= 1 tangent to the unit sphere
BOUNDARY_BUMPS = (
    Bump(anchors=((1.0,), (-R2,))),
    Bump(anchors=((1.0, 0.0), (-0.5, 0.6), (-0.5, -0.6))),
    Bump(anchors=((1.0,), (-1.0,))),
)


def _conjugate(f, rng):
    """A positive-definite position of f, drawn as in criterion 7."""
    d = f.dim
    B = rng.standard_normal((d, d))
    T = B @ B.T + (0.3 + rng.random()) * np.eye(d)
    alpha = 0.5 + 2.0 * rng.random()
    shift = 0.5 * rng.uniform(-1.0, 1.0, size=d)
    return Positioned(inner=f, position=make_position(
        alpha, T, shift, positive_definite=True))


def _height_below_inputs():
    rng = np.random.default_rng(7)
    for d in range(1, 7):
        for idx in (0, 1):
            f = bump_corpus(d)[idx].function
            yield f"corpus-d{d}-{idx}", f
            yield f"positioned-d{d}-{idx}", _conjugate(f, rng)
    for k, f in enumerate(BOUNDARY_BUMPS):
        yield f"boundary-{k}", f
    for f in (Gaussian(2), ExpNorm(2, 1.5), PolarHeightPower(2, 1.0),
              *(Height(d) for d in (1, 2, 3))):
        yield f"{type(f).__name__}-{f.dim}", f


HEIGHT_BELOW_INPUTS = dict(_height_below_inputs())


def _grid_left_min(f, seed=0):
    """The sampled left side of the sandwich: f_tilde on about 4096 points
    of the unit ball and 256 just inside its sphere."""
    d = f.dim
    ftilde = apply_position(sandwich_construct(f, seed).position, f)
    X = ball_grid(d, 4096, radius=1.0, seed=seed)
    ring = sphere_points(d, 256, seed=seed + 1) * (1.0 - 1e-9)
    return float(ftilde.evaluate_many(np.vstack([X, ring])).min())


def test_domination_height_below_bump():
    cert = check_domination(Height(1), TWO_POINT, radius=1.0)
    assert cert.passed
    # contact at the anchors makes the sup an exact zero up to rounding
    assert cert.max_log_violation <= 1e-12


def test_domination_reflexive():
    cert = check_domination(TWO_POINT, TWO_POINT, radius=1.0)
    assert cert.passed
    assert cert.max_log_violation == 0.0


def test_domination_detects_scaled_violation():
    g = Positioned(inner=Height(1),
                   position=make_position(1.01, np.eye(1), np.zeros(1)))
    cert = check_domination(g, Height(1), radius=1.0)
    # the log gap is the constant log(1.01) on the whole support, so any
    # witness attains it
    assert not cert.passed
    assert abs(cert.max_log_violation - math.log(1.01)) < 1e-9
    assert abs(cert.witness[0]) < 1.0


def test_domination_scaling_shifts_violation_exactly():
    base = check_domination(Height(1), TWO_POINT, radius=1.0, seed=7)
    eps = 1e-3
    scaled = Positioned(inner=Height(1),
                        position=make_position(1.0 + eps, np.eye(1),
                                               np.zeros(1)))
    after = check_domination(scaled, TWO_POINT, radius=1.0, seed=7)
    assert abs(after.max_log_violation
               - (base.max_log_violation + math.log1p(eps))) < 1e-9


def test_domination_reproducible():
    a = check_domination(Height(2), Height(2), radius=1.0, seed=3)
    b = check_domination(Height(2), Height(2), radius=1.0, seed=3)
    assert a == b


def test_domination_rejects_bad_radius():
    with pytest.raises(ValueError):
        check_domination(Height(1), Height(1), radius=0.0)


def test_john_inclusion_height():
    for d in (1, 2):
        rec = john_inclusion_check(Height(d))
        assert rec.passed
        assert rec.polar_floor_certificate == "exact"
        assert rec.polar_floor_min >= math.exp(-(d + 1)) - 1e-9


@pytest.mark.parametrize("name", HEIGHT_BELOW_INPUTS)
def test_height_below_agrees_with_check_domination(name):
    f = HEIGHT_BELOW_INPUTS[name]
    d = f.dim
    value, how = height_below(f)
    rule = f.is_radial() and radial.Problem(f, Height(d)).exact
    assert how == ("exact" if f.normal_form() is not None or rule
                   else "sampled")
    sampled = check_domination(Height(d), f, radius=1.0).max_log_violation
    assert value >= sampled - 1e-12
    if math.isfinite(value) and math.isfinite(sampled):
        assert abs(value - sampled) <= 1e-9
    else:
        assert value == sampled
    if name != "boundary-2":  # walls only: the polar floor is refused
        rec = john_inclusion_check(f)
        assert rec.height_below_max_log_violation == value
        assert rec.height_below_certificate == how
        assert rec.height_below_pass == (sampled <= DOMINATION_PASS_TOL)


def test_tangent_walls_of_boundary_anchors_pass():
    for f in BOUNDARY_BUMPS[:2]:
        value, how = height_below(f)
        assert how == "exact" and abs(value) <= 1e-15
    # walls only: f = +inf inside them, so log hbar - log f is -inf
    assert height_below(BOUNDARY_BUMPS[2]) == (-math.inf, "exact")
    with pytest.raises(ImproperFunctionError):
        exact.Problem(BOUNDARY_BUMPS[2].normal_form(), Height(1))


def test_a_wall_is_reached_past_tangency_or_at_a_positive_edge():
    form = BOUNDARY_BUMPS[0].normal_form()
    Id, zero = np.eye(1), np.zeros(1)
    assert abs(exact.certificate(form, Height(1), 0.0, Id, zero)) <= 1e-15
    # the ball indicator is positive on the wall where they touch
    assert exact.certificate(form, BallIndicator(1), 0.0, Id, zero) \
        == math.inf
    # a shift of 1e-9 takes the open unit ball past the wall
    assert exact.certificate(form, Height(1), 0.0, Id, np.full(1, 1e-9)) \
        == math.inf
    assert math.isfinite(exact.certificate(form, Height(1), 0.0, Id,
                                           np.full(1, -1e-9)))
    # a crossing of 1e-13 reaches the wall for a solve's certificate, and
    # is a touch within the snap that height_below allows
    shift = np.full(1, 1e-13)
    assert exact.certificate(form, Height(1), 0.0, Id, shift) == math.inf
    assert math.isfinite(exact.certificate(form, Height(1), 0.0, Id, shift,
                                           snap=BOUNDARY_SNAP))


def test_height_below_of_a_lowered_two_point_bump_is_log_2():
    f = Positioned(inner=TWO_POINT,
                   position=make_position(0.5, np.eye(1), np.zeros(1)))
    assert height_below(f) == (math.log(2.0), "exact")
    rec = john_inclusion_check(f)
    assert not rec.passed and not rec.height_below_pass


def test_walled_floors_are_exact():
    # the wall of a boundary anchor, and that of a half-restriction, used to
    # leave the floor to 1,000 sampled points of the sphere; the facets of
    # the normal form's cone give it exactly, at or below the sampled rule
    half = HalfRestriction(inner=bump_corpus(2)[0].function,
                           normal=(1.0, 0.0))
    for f, want in ((BOUNDARY_BUMPS[1], 0.06662449944413602),
                    (half, 0.6539396091308745)):
        floor, how = polar_floor(f)
        assert how == "exact"
        assert abs(floor - want) <= 1e-12
        P = np.unique(sphere_points(2, 1000, seed=0) / 3.0, axis=0)
        assert floor <= float(polar.polar_eval_many(f, P).min())


def test_a_touching_anchor_near_the_sphere_passes_the_exact_check():
    # 1 - |u|^2 = 7.4e-9 gives an intercept near 1.35e8, so the certificate
    # row of that touching anchor reads one of its ulps, 2.98e-8, above the
    # pass tolerance of 1e-8; the value is reported as computed
    f = Bump(anchors=generate_decomposition(5, 115).points)
    rec = john_inclusion_check(f)
    assert rec.height_below_certificate == "exact"
    assert rec.height_below_max_log_violation == height_below(f)[0]
    assert DOMINATION_PASS_TOL < rec.height_below_max_log_violation < 1e-7
    assert rec.height_below_pass and rec.passed
    # lowered by 1e-7, the small anchors' rows read 1e-7, a violation; the
    # rounding allowed the near-sphere row, 4.8e-7, is not theirs
    lowered = Positioned(inner=f, position=make_position(
        math.exp(-1e-7), np.eye(5), np.zeros(5)))
    rec = john_inclusion_check(lowered)
    assert rec.height_below_certificate == "exact"
    assert 1e-7 < rec.height_below_max_log_violation < 2e-7
    assert not rec.height_below_pass


@pytest.mark.parametrize("name", HEIGHT_BELOW_INPUTS)
def test_exact_left_min_is_never_above_the_grid(name):
    f = HEIGHT_BELOW_INPUTS[name]
    if name == "boundary-2":
        # walls only: f_tilde = +inf on the ball, and no polar floor
        with pytest.raises(ImproperFunctionError):
            sandwich_construct(f)
        return
    rec = sandwich_construct(f)
    assert rec.left_certificate == "exact"
    grid = _grid_left_min(f)
    assert rec.left_min <= grid * (1.0 + 1e-12)
    assert rec.left_pass == (rec.left_min >= 1.0 - 1e-9)


def test_grid_overstates_the_left_min_in_high_dimension():
    # 4,352 points leave most of the sphere unseen in d = 5 and 6; the
    # grid is seeded by the corpus index, as in criterion 5
    for d, idx, exact_min, grid_min in ((5, 2, 1.0889, 1.2370),
                                        (6, 4, 1.0054, 1.2293)):
        f = bump_corpus(d)[idx].function
        assert abs(sandwich_construct(f).left_min - exact_min) <= 1e-4
        assert abs(_grid_left_min(f, seed=idx) - grid_min) <= 1e-4


def test_sampled_left_min_is_labelled():
    f = HalfRestriction(inner=Gaussian(2), normal=(1.0, 0.0))
    rec = sandwich_construct(f)
    assert rec.left_certificate == "sampled"
    assert rec.left_min == _grid_left_min(f)


def _written_out_left_min(f):
    """The sandwich's left side as it was written out before it shared
    height_below's check, kept as the reference: for a normal form
    sqrt(d+1) exp(min_i (b_i - rho |s_i|)), or 0 when a wall meets the
    closed ball of radius rho = sqrt(d/(d+1)), and for radial f
    sqrt(d+1) phi(rho), with the C library's exp."""
    d = f.dim
    rho, scale = math.sqrt(d / (d + 1.0)), math.sqrt(d + 1.0)
    form = f.normal_form()
    if form is None:
        return scale * math.exp(
            float(f.radial_log_profile(np.array([rho]))[0]))
    slopes, intercepts, N, c = form
    if np.any(rho * np.linalg.norm(N, axis=1) >= c):
        return 0.0
    return scale * float(np.exp(np.min(
        intercepts - rho * np.linalg.norm(slopes, axis=1),
        initial=math.inf)))


# every library radial variant whose pair with Height(d) has a rule
RADIAL_VARIANTS = [
    lambda d: Gaussian(d), lambda d: ExpNorm(d, 1.0),
    lambda d: ExpNorm(d, 1.5), lambda d: ExpNorm(d, 2.0),
    lambda d: ExpNorm(d, 3.0), lambda d: HeightPower(d, 0.5),
    lambda d: Height(d), lambda d: HeightPower(d, 2.0),
    lambda d: PolarHeightPower(d, 1.0), lambda d: PolarHeightPower(d, 3.0)]


def test_left_side_keeps_the_bits_of_its_written_out_formulas():
    rng = np.random.default_rng(3)
    bumps = [b.function for d in range(1, 7) for b in bump_corpus(d, 20)]
    bumps += [*BOUNDARY_BUMPS[:2], _conjugate(bumps[45], rng),
              _conjugate(BOUNDARY_BUMPS[1], rng)]
    for f in bumps:
        rec = sandwich_construct(f)
        assert rec.left_certificate == "exact"
        assert rec.left_min == _written_out_left_min(f)
    # numpy's exp, which the normal forms have always taken, and the C
    # library's differ in the last bit on some radial inputs, among them
    # PolarHeightPower(2, 3.0) and ExpNorm(3, 1.5)
    for make in RADIAL_VARIANTS + [lambda d: BallIndicator(d, 0.9)]:
        for d in (1, 2, 3):
            f = make(d)
            rec = sandwich_construct(f)
            rho = math.sqrt(d / (d + 1.0))
            log_phi = float(f.radial_log_profile(np.array([rho]))[0])
            assert rec.left_certificate == "exact"
            assert rec.left_min == math.sqrt(d + 1.0) * float(np.exp(log_phi))
            ref = _written_out_left_min(f)
            assert abs(rec.left_min - ref) <= math.ulp(ref)


def test_a_wall_across_the_shrunk_ball_gives_left_min_zero():
    # a half-restriction's wall passes through the origin; the boundary
    # anchor's wall x >= 1, shifted by -0.5, sits at 0.5 < sqrt(1/2)
    half = HalfRestriction(inner=bump_corpus(2)[0].function,
                           normal=(1.0, 0.0))
    shifted = Positioned(inner=BOUNDARY_BUMPS[0],
                         position=make_position(1.0, np.eye(1), [-0.5]))
    for f in (half, shifted):
        rec = sandwich_construct(f)
        assert rec.left_min == 0.0 == _written_out_left_min(f)
        assert rec.left_certificate == "exact" and not rec.left_pass


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make", RADIAL_VARIANTS)
def test_radial_targets_at_their_john_position_pass_exactly(make, d):
    # f_J = Positioned(f, (1/alpha, A^-1, -A^-1 a)) is f in John position;
    # the radial route's A = r Id, a = 0 keeps it a radial core
    f = make(d)
    rep = solve_john(f, Height(d))
    assert rep.diagnostics["certificate"] == "exact" and rep.feasible
    A, a = rep.position.matrix(), rep.position.a_vector()
    A_inv = np.linalg.inv(A)
    f_j = Positioned(inner=f, position=make_position(
        1.0 / rep.position.alpha, A_inv, -A_inv @ a))
    john, sandwich = john_inclusion_check(f_j), sandwich_construct(f_j)
    assert john.height_below_certificate == "exact"
    assert john.polar_floor_certificate == "exact"
    assert sandwich.left_certificate == "exact"
    assert john.passed and sandwich.passed


def test_john_inclusion_two_point_bump():
    rec = john_inclusion_check(TWO_POINT)
    assert rec.passed
    # S is the constant intercept 1 - log(2)/2 on the slope hull
    # [-sqrt 2, sqrt 2], so the polar is sqrt(2)/e on [-1/2, 1/2]
    assert rec.polar_floor_certificate == "exact"
    assert abs(rec.polar_floor_min - math.sqrt(2.0) / math.e) <= 1e-15


@pytest.mark.parametrize("anchors", [
    ((0.1,), (-0.1,)),
    ((0.1,), (0.2,)),
    tuple((0.05 * math.cos(a), 0.05 * math.sin(a)) for a in (0.0, 2.0, 4.0)),
], ids=["d1-about-the-origin", "d1-off-the-origin", "d2-about-the-origin"])
def test_a_slope_hull_missing_the_small_ball_gives_floor_zero(anchors):
    # S = +inf off the slope hull, so the polar vanishes on the part of the
    # ball of radius 1/(d+1) that the hull misses
    f = Bump(anchors=anchors)
    d = f.dim
    assert polar_floor(f) == (0.0, "exact")
    assert np.isinf(f.log_sup(sphere_points(d, 100) / (d + 1))).any()
    assert not john_inclusion_check(f).polar_floor_pass
    assert not sandwich_construct(f).right_pass


def test_sampled_polar_floor_is_labelled_and_never_below_the_exact():
    for d in (2, 3):
        f = bump_corpus(d)[3].function
        exact, how = polar_floor(f)
        assert how == "exact"
        # the sampled rule: the least polar value on 1000 seeded points of
        # the sphere of radius 1/(d+1)
        P = sphere_points(d, 1000, seed=0) / (d + 1)
        sampled = float(polar.polar_eval_many(f, P).min())
        assert exact - 1e-12 <= sampled <= exact + 0.02
    # neither radial nor log-polyhedral; S = |p|^2 / 4 where p points into
    # the half-plane and |p_2|^2 / 4 elsewhere, so it peaks at rho^2 / 4
    floor, how = polar_floor(HalfRestriction(inner=Gaussian(2),
                                             normal=(1.0, 0.0)))
    assert how == "sampled"
    assert math.exp(-1.0 / 36.0) <= floor <= math.exp(-1.0 / 36.0) + 1e-3
    # in d = 1 the sphere is {-1/2, 1/2}; for exp(-(x - 0.3)^2) on x >= 0,
    # S(p) = 0.3 p + p^2 / 4 at both, by the numeric multi-start ascent
    floor, how = polar_floor(HalfRestriction(inner=Positioned(
        inner=Gaussian(1), position=make_position(1.0, [[1.0]], [0.3])),
        normal=(1.0,)))
    assert how == "sampled" and abs(floor - math.exp(-0.2125)) <= 1e-9


def test_sandwich_two_point_constants():
    rec = sandwich_construct(TWO_POINT)
    assert rec.passed
    assert rec.left_floor == 1.0
    assert rec.right_envelope == "sqrt(2)*exp(-|x|/3+2)"
    assert abs(rec.right_scale - math.sqrt(2.0)) < 1e-15
    assert abs(rec.right_decay_rate - 1.0 / 3.0) < 1e-15
    assert rec.right_offset == 2.0
    # the Fenchel bound M - (d+1) with M = 1 - log(2)/2
    assert rec.polar_floor_certificate == "exact"
    assert abs(rec.right_log_gap_bound - (-1.0 - 0.5 * math.log(2.0))) \
        <= 1e-15


def test_sandwich_height_equality_at_boundary():
    # f-tilde of Height equals 1 exactly on the unit sphere
    for d in (1, 2, 3):
        rec = sandwich_construct(Height(d))
        assert rec.passed
        assert abs(rec.left_min - 1.0) < 1e-8
        shrink = math.sqrt(d / (d + 1.0))
        boundary_val = math.sqrt(d + 1.0) * math.sqrt(1.0 - shrink ** 2)
        assert abs(boundary_val - 1.0) < 1e-12


def test_sandwich_tail_coefficient_inequality():
    # sqrt(d/(d+1)) / (d+1) > 1/(d+2) for d = 1..8
    for d in range(1, 9):
        assert math.sqrt(d / (d + 1.0)) / (d + 1.0) > 1.0 / (d + 2.0)


def test_sandwich_r_star_bounded():
    for d in (1, 2, 3):
        rec = sandwich_construct(Height(d))
        assert rec.r_star <= 40.0 * (d + 2)


def test_lowner_gaussian_counterexample():
    rec = lowner_counterexample("expnorm", 1, p=2.0, trials=30, seed=0)
    assert rec.passed
    assert rec.probe_values == (1.0, 1.0, 1.0, 1.0)
    assert rec.min_integral_ratio >= 1.0 - 1e-6


def test_lowner_expnorm_p1_integral_floor():
    # d=1: the base integral of e^{-|x|} is 2; feasible positions beat it
    rec = lowner_counterexample("expnorm", 1, p=1.0, trials=30, seed=1)
    assert rec.passed
    base = 2.0
    assert rec.min_integral_ratio * base >= base - 1e-6


def test_lowner_polar_height_power():
    rec = lowner_counterexample("polar_height_power", 2, s=1.0, trials=20,
                                seed=2)
    assert rec.passed


def test_lowner_control_direction_decays():
    # along +e1 (the restricted side) the polar does decay
    from funcjohn import HalfRestriction, improperness_probe
    f = HalfRestriction(inner=Gaussian(dimension=1), normal=(1.0,))
    vals = improperness_probe(f, (1.0,), (1.0, 2.0, 5.0))
    assert vals[0] > vals[1] > vals[2]


def test_lowner_unknown_kind():
    with pytest.raises(ValueError):
        lowner_counterexample("mystery", 1)


@pytest.mark.parametrize("n", [421, 855, 4096, 8192])
def test_ball_grid_d2_lattice_order(n):
    # reference: the lattice row by row, x in the outer loop, y in the inner
    side = int(math.ceil(math.sqrt(n * 4.0 / math.pi)))
    for radius in (1.0, 0.9999):
        axis = np.linspace(-radius, radius, side)
        X = np.array([[x, y] for x in axis for y in axis])
        X = X[np.einsum("ij,ij->i", X, X) <= radius ** 2 + 1e-15]
        assert np.array_equal(ball_grid(2, n, radius=radius), X)
