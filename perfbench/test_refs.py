"""Tests of the benchmark's independent references against brute force and
closed forms.  They do not import funcjohn.

    python3 -m pytest perfbench/test_refs.py
"""

import math

import numpy as np
import pytest

import refs

R2 = 1.0 / math.sqrt(2.0)


def cross_polytope_decomposition(d, seed):
    """Rotate {+-e_j, weight 1/2} in R^{d+1} and drop the last coordinate."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d + 1, d + 1)))
    Q = Q * np.sign(np.diag(R))
    return np.vstack([Q.T, -Q.T])[:, :d], np.full(2 * (d + 1), 0.5)


@pytest.mark.parametrize("c", [0.0, 1e-6, 0.3, 1.0, 7.5])
def test_hbar_support_matches_brute_force(c):
    t = np.linspace(0.0, 1.0 - 1e-9, 2_000_001)
    brute = float(np.max(c * t + 0.5 * np.log1p(-t * t)))
    assert abs(float(refs.hbar_support(c)) - brute) <= 1e-10


def test_bump_violation_is_the_sup_over_the_ball():
    form = refs.BumpForm(cross_polytope_decomposition(2, 3)[0])
    rng = np.random.default_rng(0)
    A = np.array([[0.9, 0.1], [0.1, 1.05]])
    a = np.array([0.02, -0.03])
    Y = refs.uniform_ball(rng, 400_000, 2, 1.0 - 1e-9)
    sampled = float(np.max(0.5 * np.log1p(-np.sum(Y * Y, axis=1))
                           - form.log_value(Y @ A.T + a)))
    exact = form.violation(1.0, A, a)
    assert sampled <= exact + 1e-12
    assert exact - sampled <= 1e-3
    # the same number through the sampled-plus-ascent reference
    sampled_ascent = refs.sampled_violation(form.log_value, 1.0, A, a, 2, 0)
    assert abs(sampled_ascent - exact) <= 1e-8


def test_identity_position_is_optimal_for_decomposition_bumps():
    for d in (1, 2, 3):
        U, c = cross_polytope_decomposition(d, d)
        assert refs.identity_residual(U, c) <= 1e-12
        v = refs.BumpForm(U).violation(1.0, np.eye(d), np.zeros(d))
        assert abs(v) <= 1e-12


def test_compose_reduces_a_conjugate_to_its_base():
    form = refs.BumpForm(cross_polytope_decomposition(2, 5)[0])
    T = np.array([[1.3, 0.2], [0.2, 0.7]])
    outer = (1.7, T, np.array([0.1, -0.4]))
    # the image of the identity position under the conjugation touches too
    alpha, A, a = refs.compose(1.7, T, outer[2], outer)
    assert abs(form.violation(alpha, A, a)) <= 1e-12


def test_dual_lp_matches_a_dense_primal_in_d1():
    form = refs.BumpForm(np.array([[R2], [-R2]]))
    x = np.linspace(-20.0, 20.0, 4_000_001)[:, None]
    logf = form.log_value(x)
    for p in (0.0, 0.3, -1.1):
        brute = float(np.max(p * x[:, 0] + logf))
        assert abs(float(form.log_sup([[p]])[0]) - brute) <= 1e-6
    assert abs(math.exp(form.log_sup([[0.0]])[0]) - math.e * R2) <= 1e-12
    assert math.isinf(form.log_sup([[2.0]])[0])  # outside the slope hull


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_reduction_matches_closed_form(d):
    numeric = refs.radial_free_optimum(lambda r: -np.square(r), d, 20.0)
    assert abs(numeric - refs.gaussian_free_optimum(d)) <= 1e-7


def test_sampled_hull_support_bounds_the_facet_margin():
    U, _ = cross_polytope_decomposition(2, 1)
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((4096, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    h = refs.sampled_hull_support(U, dirs)
    assert float(np.min(h)) >= 1.0 / 3.0 - 1e-12
