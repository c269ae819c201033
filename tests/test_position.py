"""Affine positions: construction, integrals and interpolation."""

import math

import numpy as np
import pytest

from funcjohn import (
    AffinePosition,
    BallIndicator,
    Height,
    SingularPositionError,
    apply_position,
    identity_position,
    interpolate_positions,
    make_position,
    position_integral,
)


def test_identity_position_fields():
    p = identity_position(2)
    assert p.alpha == 1.0
    assert np.allclose(p.matrix(), np.eye(2))
    assert np.allclose(p.a_vector(), 0.0)
    assert p.log_objective() == 0.0


def test_singular_matrix_rejected():
    with pytest.raises(SingularPositionError):
        make_position(1.0, np.zeros((2, 2)), np.zeros(2))


def test_nonpositive_alpha_rejected():
    with pytest.raises(ValueError):
        make_position(0.0, np.eye(1), np.zeros(1))


def test_positive_definite_flag_validation():
    with pytest.raises(ValueError):
        make_position(1.0, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2),
                      positive_definite=True)
    with pytest.raises(ValueError):
        make_position(1.0, -np.eye(2), np.zeros(2), positive_definite=True)


def test_apply_position_rescales_ball():
    pos = make_position(2.0, 2.0 * np.eye(2), np.zeros(2))
    g = apply_position(pos, BallIndicator(dimension=2))
    assert g.evaluate(np.array([1.5, 0.0])) == 2.0
    assert g.evaluate(np.array([2.5, 0.0])) == 0.0


def test_apply_position_translation():
    pos = make_position(1.0, np.eye(2), np.array([1.0, 0.0]))
    g = apply_position(pos, Height(2))
    assert abs(g.evaluate(np.array([1.0, 0.0])) - 1.0) < 1e-15


def test_position_integral_scaling():
    p = make_position(2.0, 3.0 * np.eye(1), np.array([5.0]))
    assert abs(position_integral(p, math.pi / 2.0) - 3.0 * math.pi) < 1e-13
    assert position_integral(identity_position(3), 1.0) == 1.0
    with pytest.raises(ValueError):
        position_integral(p, -1.0)


def test_interpolation_endpoints_and_idempotence():
    p1 = make_position(2.0, np.eye(1), np.zeros(1), positive_definite=True)
    p2 = make_position(3.0, 4.0 * np.eye(1), np.ones(1),
                       positive_definite=True)
    assert interpolate_positions(p1, p2, 1.0) == p1
    mid = interpolate_positions(p1, p1, 0.37)
    assert mid == p1
    with pytest.raises(ValueError):
        interpolate_positions(p1, p2, 1.2)


def test_interpolation_requires_positive_definite():
    # a rotation is nonsingular but not positive definite
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    p1 = make_position(1.0, R, np.zeros(2))
    assert not p1.positive_definite
    with pytest.raises(ValueError):
        interpolate_positions(p1, p1, 0.5)


def test_interpolation_minkowski_hand_case():
    # d=1: A1 = 1, A2 = 4, midpoint matrix 2.5 beats the geometric mean 2
    p1 = make_position(1.0, np.eye(1), np.zeros(1), positive_definite=True)
    p2 = make_position(1.0, 4.0 * np.eye(1), np.zeros(1),
                       positive_definite=True)
    mid = interpolate_positions(p1, p2, 0.5)
    assert abs(mid.matrix()[0, 0] - 2.5) < 1e-15
    assert position_integral(mid, 1.0) >= 2.0


def test_interpolation_geometric_mean_property():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(100):
            B1 = rng.standard_normal((d, d))
            B2 = rng.standard_normal((d, d))
            p1 = make_position(0.5 + rng.random(), B1 @ B1.T + 0.3 * np.eye(d),
                               rng.standard_normal(d), positive_definite=True)
            p2 = make_position(0.5 + rng.random(), B2 @ B2.T + 0.3 * np.eye(d),
                               rng.standard_normal(d), positive_definite=True)
            beta = rng.random()
            mid = interpolate_positions(p1, p2, beta)
            gm = (position_integral(p1, 1.0) ** beta
                  * position_integral(p2, 1.0) ** (1.0 - beta))
            assert position_integral(mid, 1.0) >= gm - 1e-10


def test_interpolated_position_stays_dominated():
    # both endpoints below Height => interpolation below Height on a grid
    rng = np.random.default_rng(12)
    f = Height(1)
    grid = np.linspace(-1.0, 1.0, 2001)[:, None]
    fv = f.evaluate_many(grid)
    for _ in range(50):
        s1 = 0.3 + 0.4 * rng.random()
        s2 = 0.3 + 0.4 * rng.random()
        p1 = make_position(0.5, s1 * np.eye(1), np.zeros(1),
                           positive_definite=True)
        p2 = make_position(0.5, s2 * np.eye(1), np.zeros(1),
                           positive_definite=True)
        g1 = apply_position(p1, f).evaluate_many(grid)
        g2 = apply_position(p2, f).evaluate_many(grid)
        assert np.all(g1 <= fv + 1e-12) and np.all(g2 <= fv + 1e-12)
        mid = apply_position(interpolate_positions(p1, p2, rng.random()), f)
        assert np.all(mid.evaluate_many(grid) <= fv + 1e-10)


def test_position_value_semantics():
    p = identity_position(2)
    q = AffinePosition(alpha=1.0, A=((1.0, 0.0), (0.0, 1.0)), a=(0.0, 0.0),
                       positive_definite=True)
    assert p == q
    assert hash(p) == hash(q)


def _reference_check(A, positive_definite):
    """What AffinePosition decided with np.allclose and the least
    eigenvalue, kept as the reference for its own checks; make_position
    inferred the flag the same way when it was not given."""
    A = np.asarray(A, dtype=float)
    if positive_definite is None:
        positive_definite = bool(
            np.allclose(A, A.T, atol=1e-10)
            and np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0)
    if abs(np.linalg.det(A)) <= 1e-12:
        return "singular"
    if positive_definite:
        if not np.allclose(A, A.T, atol=1e-10):
            return "asymmetric"
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            return "indefinite"
    return ("accepted", positive_definite)


def _library_check(A, positive_definite):
    try:
        pos = make_position(1.0, A, np.zeros(len(A)), positive_definite)
    except SingularPositionError:
        return "singular"
    except ValueError as exc:
        return "asymmetric" if "symmetric" in str(exc) else "indefinite"
    return ("accepted", pos.positive_definite)


_EPS_UP, _EPS_DOWN = np.nextafter(1e-10, 1.0), np.nextafter(1e-10, 0.0)
_CHECK_TABLE = [
    [[2.0, 0.5], [0.5, 1.0]], [[3.0]], [[-3.0]],
    [[1.0, 1e-10], [0.0, 1.0]], [[1.0, _EPS_UP], [0.0, 1.0]],
    [[1.0, _EPS_DOWN], [0.0, 1.0]], [[1.0, 0.0], [-_EPS_UP, 1.0]],
    [[1.0, 0.3 + 3e-6], [0.3, 1.0]], [[1.0, 0.3 + 4e-6], [0.3, 1.0]],
    [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
    [[1.0, 2.0], [np.inf, 1.0]], [[-np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 2.0], [2.0, 4.0]], [[1e-7, 0.0], [0.0, 1e-6]],
    [[1.0, 2.0], [2.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]],
    [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]],
    [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]]


@pytest.mark.parametrize("positive_definite", [None, False, True])
@pytest.mark.parametrize("A", _CHECK_TABLE, ids=repr)
def test_position_checks_decide_as_the_reference_formulas(A,
                                                          positive_definite):
    with np.errstate(all="ignore"):
        assert _library_check(A, positive_definite) \
            == _reference_check(A, positive_definite)


def test_inverse_matrix_is_kept_read_only_beside_the_fields():
    A = [[1.2, 0.7], [-0.4, 0.8]]
    p = make_position(1.5, A, [0.1, -0.2])
    inv = p.inverse_matrix()
    assert np.array_equal(inv, np.linalg.inv(np.asarray(A)))
    assert p.inverse_matrix() is inv and not inv.flags.writeable
    q = make_position(1.5, A, [0.1, -0.2])
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
