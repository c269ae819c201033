"""Functional John solver: fixed points, certification, equivariance,
fixed-height solves, and the height curve."""

import math

import numpy as np
import pytest

from funcjohn import (
    CONSTRAINT_TOL,
    Bump,
    Gaussian,
    HalfRestriction,
    Height,
    InfeasibleProblemError,
    NoContactsError,
    NoSolverTargetError,
    Positioned,
    SolverOptions,
    apply_position,
    check_domination,
    extract_and_certify,
    height_curve,
    make_position,
    phi_concavity_violation,
    solve_fixed_height,
    solve_john,
)
from funcjohn.acceptance import bump_corpus
from funcjohn.johnsolve import CurveSample, _Engine

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = Bump(anchors=((R2,), (-R2,)))
OPTS = SolverOptions(seed=0, restarts=2)


@pytest.fixture(scope="module")
def two_point_solve():
    """The free solve of TWO_POINT under OPTS, shared by the tests that
    only read it."""
    return solve_john(TWO_POINT, Height(1), OPTS)


@pytest.fixture(scope="module")
def gaussian_solve():
    """A free solve that takes the sampled engine: the Gaussian has no
    log-polyhedral normal form."""
    return solve_john(Gaussian(1), Height(1), OPTS)


def _deviation(pos, d):
    return max(abs(pos.alpha - 1.0),
               float(np.max(np.abs(pos.matrix() - np.eye(d)))),
               float(np.max(np.abs(pos.a_vector()))))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(restarts=0)


def test_height_height_fixed_point():
    for d in (1, 2):
        rep = solve_john(Height(d), Height(d), OPTS)
        assert rep.feasible
        assert rep.position.positive_definite
        assert _deviation(rep.position, d) < 1e-4
        assert abs(rep.objective) < 1e-4


def test_half_restriction_target_is_refused():
    # finite differences of its -inf values would hand the solver NaN
    f = HalfRestriction(inner=Gaussian(1), normal=(1.0,))
    with pytest.raises(NoSolverTargetError, match="HalfRestriction"):
        solve_john(f, Height(1), OPTS)


def test_two_point_bump_identity_and_certification(two_point_solve):
    rep = two_point_solve
    assert rep.feasible
    assert _deviation(rep.position, 1) < 1e-3
    rep = extract_and_certify(TWO_POINT, rep)
    contacts = np.sort(np.asarray(rep.contacts).ravel())
    assert np.allclose(contacts, [-R2, R2], atol=1e-4)
    assert rep.recovered_weights is not None
    assert np.allclose(rep.recovered_weights, [1.0, 1.0], atol=1e-3)
    assert rep.diagnostics.get("certified")


def test_feasibility_cross_check(two_point_solve):
    g = apply_position(two_point_solve.position, Height(1))
    cert = check_domination(g, TWO_POINT, radius=1.5, seed=99)
    assert cert.max_log_violation <= 2.0 * CONSTRAINT_TOL


def test_objective_trace_monotone(gaussian_solve):
    rep = gaussian_solve
    trace = rep.diagnostics["objective_trace"]
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_free_solve_reports_why_it_stopped(gaussian_solve):
    assert gaussian_solve.diagnostics["engine"] == "sampled"
    assert gaussian_solve.diagnostics["certificate"] == "sampled"
    assert gaussian_solve.diagnostics["stop_reason"] == "certificate_agrees"
    assert gaussian_solve.diagnostics["converged"] is True


def test_exact_route_reports_why_it_stopped(two_point_solve):
    diag = two_point_solve.diagnostics
    assert diag["engine"] == "exact"
    assert diag["certificate"] == "exact"
    assert diag["stop_reason"] == "gap_reached"
    assert diag["converged"] is True
    assert diag["gap_bound"] <= 1e-9
    assert diag["newton_steps"] > 0 and diag["barrier_stages"] > 0


def test_free_solve_flags_the_round_cap(monkeypatch):
    # a certificate that never agrees with the separation sup, with a fresh
    # witness each time, runs the feedback loop out of rounds
    witnesses = iter(np.linspace(-0.5, 0.5, 50))

    def certify(engine, theta):
        return engine.separation(theta)[0] + 1e-3, np.array([next(witnesses)])

    monkeypatch.setattr(_Engine, "certify", certify)
    rep = solve_john(Gaussian(1), Height(1), SolverOptions(seed=0, restarts=1))
    assert rep.diagnostics["stop_reason"] == "round_cap"
    assert rep.diagnostics["converged"] is False


def test_equivariance_single_conjugation(two_point_solve):
    base = two_point_solve
    pos = make_position(2.0, 3.0 * np.eye(1), np.array([1.0]),
                        positive_definite=True)
    g = Positioned(inner=TWO_POINT, position=pos)
    rep = solve_john(g, Height(1), OPTS)
    expect = base.objective + math.log(2.0) + math.log(3.0)
    assert rep.feasible
    assert abs(rep.objective - expect) / abs(expect) < 1e-3


def test_norm_bound_against_solved_position(two_point_solve):
    # sup f <= e^d * sup of the solved position
    g_sup = two_point_solve.position.alpha
    assert TWO_POINT.sup_norm() <= math.exp(1) * g_sup + 1e-6


def test_fixed_height_identity():
    rep = solve_fixed_height(Height(1), Height(1), 1.0, OPTS)
    assert rep.feasible
    assert _deviation(rep.position, 1) < 1e-3


def test_fixed_height_full_copy():
    f = Positioned(inner=Height(1),
                   position=make_position(2.0, np.eye(1), np.zeros(1)))
    rep = solve_fixed_height(f, Height(1), 2.0, OPTS)
    assert rep.feasible
    assert abs(rep.position.alpha - 2.0) < 1e-12  # alpha is pinned
    assert abs(rep.position.matrix()[0, 0] - 1.0) < 1e-3


def test_fixed_height_rejects_out_of_range():
    with pytest.raises(ValueError):
        solve_fixed_height(Height(1), Height(1), 1.5, OPTS)
    with pytest.raises(ValueError):
        solve_fixed_height(Height(1), Height(1), 0.0, OPTS)


def test_fixed_height_uniqueness_across_seeds():
    mats = []
    for seed in (0, 1, 2):
        rep = solve_fixed_height(TWO_POINT, Height(1), 1.0,
                                 SolverOptions(seed=seed, restarts=1))
        assert rep.feasible
        mats.append(rep.position.matrix())
    for M in mats[1:]:
        assert np.max(np.abs(M - mats[0])) < 1e-3


def test_extract_fails_to_certify_strictly_larger_f():
    # f = 1.5 * Height never touches the height function; only the support
    # edge yields candidates and weight recovery is infeasible there
    f = Positioned(inner=Height(1),
                   position=make_position(1.5, np.eye(1), np.zeros(1)))
    from funcjohn import SolveReport, identity_position
    rep = SolveReport(position=identity_position(1), objective=0.0,
                      feasible=True)
    out = extract_and_certify(f, rep)
    assert out.recovered_weights is None
    assert out.diagnostics["certified"] is False
    assert all(abs(abs(u[0]) - 1.0) < 1e-12 for u in out.contacts)


def test_extract_no_contacts_for_gaussian_like_target():
    # a strictly dominating target with unbounded support has no touching
    # points and no support edge, so extraction raises
    from funcjohn import Gaussian, SolveReport, identity_position
    g = Positioned(inner=Gaussian(dimension=1),
                   position=make_position(2.0, np.eye(1), np.zeros(1)))
    rep = SolveReport(position=identity_position(1), objective=0.0,
                      feasible=True)
    with pytest.raises(NoContactsError):
        extract_and_certify(g, rep)


def test_extract_height_every_point_contacts():
    from funcjohn import SolveReport, identity_position
    rep = SolveReport(position=identity_position(2), objective=0.0,
                      feasible=True)
    rep = extract_and_certify(Height(2), rep)
    assert rep.recovered_weights is not None
    assert rep.diagnostics["certified"]
    assert abs(sum(rep.recovered_weights) - 3.0) < 1e-5


def test_extract_requires_feasible_identity():
    from funcjohn import SolveReport, identity_position
    infeasible = SolveReport(position=identity_position(1), objective=0.0,
                             feasible=False)
    with pytest.raises(ValueError):
        extract_and_certify(TWO_POINT, infeasible)
    shifted = SolveReport(
        position=make_position(1.0, np.eye(1), np.array([0.5])),
        objective=0.0, feasible=True)
    with pytest.raises(ValueError):
        extract_and_certify(TWO_POINT, shifted)


def test_height_curve_psi_one_at_alpha_one():
    samples = height_curve(Height(1), Height(1), [1.0], OPTS)
    assert len(samples) == 1
    assert samples[0].feasible
    assert abs(samples[0].psi - 1.0) < 1e-3
    assert samples[0].t == 0.0


def test_height_curve_errors_are_recorded_not_raised():
    samples = height_curve(Height(1), Height(1), [0.5, 5.0], OPTS)
    assert samples[0].feasible and samples[0].error is None
    assert not samples[1].feasible and samples[1].error is not None
    assert math.isnan(samples[1].psi)


def test_height_curve_concavity_two_point():
    alphas = list(np.exp(np.linspace(math.log(0.2), math.log(1.6), 7)))
    samples = height_curve(TWO_POINT, Height(1), alphas, OPTS)
    assert all(s.feasible for s in samples)
    assert phi_concavity_violation(samples) <= 1e-4
    # endpoint bound: t0 = log sup w >= -d + log sup f
    assert 0.0 >= -1.0 + math.log(TWO_POINT.sup_norm()) - 1e-12


def test_phi_concavity_violation_synthetic():
    concave = [CurveSample(alpha=math.exp(t), t=t, psi=0.0,
                           phi=-t * t, feasible=True, max_violation=0.0)
               for t in (-1.0, 0.0, 1.0)]
    assert phi_concavity_violation(concave) <= 0.0
    convex = [CurveSample(alpha=math.exp(t), t=t, psi=0.0,
                          phi=t * t, feasible=True, max_violation=0.0)
              for t in (-1.0, 0.0, 1.0)]
    assert phi_concavity_violation(convex) == 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("target", ["bump", "positioned_gaussian"])
def test_fused_gradient_matches_central_differences(d, target):
    # fused differentiates through the log-Cholesky packing of position.py,
    # so a packing order of its own would show up here
    if target == "bump":
        f = bump_corpus(d)[1].function
    else:
        B = np.tri(d) + 0.3 * np.tri(d, k=-1)
        f = Positioned(inner=Gaussian(d), position=make_position(
            1.5, B @ B.T, 0.2 * np.arange(1.0, d + 1.0)))
    engine = _Engine(f, Height(d), SolverOptions(seed=0, restarts=1))
    rng = np.random.default_rng(d)
    theta = engine.initial_theta(rng, 1)
    theta[:engine.K] += 0.1 * rng.standard_normal(engine.K)
    for lam, tau in ((1.0, 1e-1), (0.5, 1e-2)):
        _, grad = engine.fused(theta, lam, tau)
        h = 1e-6
        fd = np.array([(engine.fused(theta + h * e, lam, tau)[0]
                        - engine.fused(theta - h * e, lam, tau)[0]) / (2 * h)
                       for e in np.eye(theta.shape[0])])
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)
