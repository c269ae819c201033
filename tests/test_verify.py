"""Domination certificates, inclusion checks, the sandwich construction, and
the half-restriction counterexample suite."""

import math

import numpy as np
import pytest

from funcjohn import (
    Bump,
    Gaussian,
    Height,
    Positioned,
    check_domination,
    john_inclusion_check,
    lowner_counterexample,
    make_position,
    sandwich_construct,
)
from funcjohn.verify import ball_grid

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = Bump(anchors=((R2,), (-R2,)))


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
        assert rec.polar_floor_min >= math.exp(-(d + 1)) - 1e-9


def test_john_inclusion_two_point_bump():
    rec = john_inclusion_check(TWO_POINT)
    assert rec.passed
    # min of the polar over [-1/2, 1/2] is at least e^{-2}
    assert rec.polar_floor_min >= math.exp(-2.0) - 1e-9
    assert rec.corollary_min_gap >= -1e-9


def test_sandwich_two_point_constants():
    rec = sandwich_construct(TWO_POINT)
    assert rec.passed
    assert rec.left_floor == 1.0
    assert rec.right_envelope == "sqrt(2)*exp(-|x|/3+2)"
    assert abs(rec.right_scale - math.sqrt(2.0)) < 1e-15
    assert abs(rec.right_decay_rate - 1.0 / 3.0) < 1e-15
    assert rec.right_offset == 2.0


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
