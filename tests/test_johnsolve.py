"""Functional John solver: fixed points, certification, equivariance,
fixed-height solves, the height curve, the radial route against closed
forms and the cut route, and the cut route on half-restrictions against the
exact route."""

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
import scipy.optimize

from funcjohn import (
    CONSTRAINT_TOL,
    BallIndicator,
    Bump,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    ImproperFunctionError,
    InfeasibleProblemError,
    LogAffineMajorant,
    NoContactsError,
    NoSolverTargetError,
    PolarHeightPower,
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
from funcjohn import johnsolve, radial
from funcjohn.acceptance import bump_corpus
from funcjohn.cli import function_from_config
from funcjohn.exact import Problem
from funcjohn.johnsolve import CurveSample
from funcjohn.verify import ball_grid
from test_exact import _ValuesOnly

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
    """A free solve that takes the cut route: the Gaussian seen only
    through its values is neither log-polyhedral nor known to be radial."""
    return solve_john(_ValuesOnly(Gaussian(1)), Height(1), OPTS)


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
    # a bounded support has no tangent cuts, and its edge is not a wall
    f = HalfRestriction(inner=Height(1), normal=(1.0,))
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


def test_free_solve_reports_why_it_stopped(gaussian_solve):
    diag = gaussian_solve.diagnostics
    assert diag["engine"] == "cuts"
    assert diag["certificate"] == "sampled"
    assert diag["stop_reason"] == "violation_below_tol"
    assert diag["converged"] is True
    assert diag["rounds"] >= 1 and diag["cuts"] >= 4
    assert diag["newton_steps"] > 0
    # the relaxation's optimum bounds the true one from above
    assert gaussian_solve.objective <= diag["upper_bound"] <= \
        gaussian_solve.objective + 1e-8


def test_exact_route_reports_why_it_stopped(two_point_solve):
    diag = two_point_solve.diagnostics
    assert diag["engine"] == "exact"
    assert diag["certificate"] == "exact"
    assert diag["stop_reason"] == "gap_reached"
    assert diag["converged"] is True
    assert diag["gap_bound"] <= 1e-9
    assert diag["newton_steps"] > 0 and diag["barrier_stages"] > 0


def test_free_solve_flags_the_round_cap(monkeypatch):
    # a sampled violation that never falls below the tolerance runs the
    # cut loop out of rounds
    sampled_violation = johnsolve._sampled_violation

    def stuck(*args):
        violation, worst = sampled_violation(*args)
        return max(violation, 1e-3), worst

    monkeypatch.setattr(johnsolve, "_sampled_violation", stuck)
    rep = solve_john(_ValuesOnly(Gaussian(1)), Height(1),
                     SolverOptions(seed=0, restarts=1))
    assert rep.diagnostics["stop_reason"] == "round_cap"
    assert rep.diagnostics["converged"] is False
    assert rep.diagnostics["rounds"] == johnsolve._MAX_ROUNDS
    # the free height absorbed the violation the loop left
    assert rep.feasible
    assert rep.diagnostics["upper_bound"] - rep.objective >= 1e-3 - 1e-12
    # a position short of the optimum reports no contacts to certify with
    assert rep.contacts == ()
    with pytest.raises(NoContactsError):
        extract_and_certify(_ValuesOnly(Gaussian(1)), rep)


def test_cut_route_is_not_converged_when_its_relaxation_is_not(
        monkeypatch):
    # a feasible position from a barrier solve cut short is no optimum
    solve = Problem.solve

    def capped(problem, start, log_alpha):
        return replace(solve(problem, start, log_alpha),
                       stop_reason="iteration_cap")

    monkeypatch.setattr(Problem, "solve", capped)
    rep = solve_john(_ValuesOnly(Gaussian(1)), Height(1), OPTS)
    assert rep.feasible
    assert rep.diagnostics["stop_reason"] == "violation_below_tol"
    assert rep.diagnostics["relaxation_stop_reason"] == "iteration_cap"
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
    # f = 1.5 * Height lies strictly above hbar inside the ball: a report
    # at the identity carries no contacts, while its own solve, at height
    # 1.5, touches f everywhere and certifies
    f = Positioned(inner=Height(1),
                   position=make_position(1.5, np.eye(1), np.zeros(1)))
    from funcjohn import SolveReport, identity_position
    rep = SolveReport(position=identity_position(1), objective=0.0,
                      feasible=True)
    with pytest.raises(NoContactsError):
        extract_and_certify(f, rep)
    out = extract_and_certify(f, solve_john(f, Height(1)))
    assert abs(out.position.alpha - 1.5) < 1e-12
    assert out.diagnostics["certified"] is True
    assert abs(sum(out.recovered_weights) - 2.0) < 1e-5


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
    rep = extract_and_certify(Height(2), solve_john(Height(2), Height(2)))
    assert rep.recovered_weights is not None
    assert rep.diagnostics["certified"]
    assert abs(sum(rep.recovered_weights) - 3.0) < 1e-5


def test_extract_requires_a_feasible_report():
    from funcjohn import SolveReport, identity_position
    infeasible = SolveReport(position=identity_position(1), objective=0.0,
                             feasible=False)
    with pytest.raises(ValueError):
        extract_and_certify(TWO_POINT, infeasible)
    # no John coordinates are needed: a shifted and scaled copy of the
    # two-point bump certifies at its own solved position, with the
    # contacts and weights of the bump itself
    shifted = Positioned(inner=TWO_POINT, position=make_position(
        2.0, np.array([[3.0]]), np.array([0.5])))
    out = extract_and_certify(shifted, solve_john(shifted, Height(1)))
    assert abs(out.position.a_vector()[0] - 0.5) < 1e-9
    assert out.diagnostics["certified"] is True
    assert np.allclose(np.sort(np.ravel(out.contacts)), [-R2, R2],
                       atol=1e-6)
    assert np.allclose(out.recovered_weights, [1.0, 1.0], atol=1e-6)


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


# ---------------------------------------------------------------------------
# the radial route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_optimum_matches_the_closed_form(d):
    # at A = r Id the best height of hbar below exp(-|x|^2) is
    # exp(-r^2 + 1/2 + log(2 r^2) / 2) for r^2 >= 1/2, so the objective
    # peaks at r^2 = h = (d + 1) / 2
    h = (d + 1) / 2.0
    rep = solve_john(Gaussian(d), Height(d))
    diag = rep.diagnostics
    assert diag["engine"] == "radial" and diag["certificate"] == "exact"
    assert diag["converged"] and diag["stop_reason"] == "xtol_reached"
    assert diag["m_evaluations"] > 0
    assert rep.feasible
    assert abs(diag["max_constraint_violation"]) <= 1e-12
    assert abs(rep.objective - (h * math.log(h) - d / 2.0
                                + 0.5 * math.log(2.0))) <= 1e-12
    assert np.allclose(rep.position.matrix(), math.sqrt(h) * np.eye(d),
                       rtol=1e-6)
    assert not np.any(rep.position.a_vector())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_under_a_ball_indicator_matches_the_closed_form(d):
    # at A = r Id the best height is exp(-r^2), f at the edge of w's
    # support, so d log r - r^2 peaks at r^2 = d / 2
    rep = solve_john(Gaussian(d), BallIndicator(d))
    assert rep.diagnostics["engine"] == "radial" and rep.feasible
    assert rep.diagnostics["certificate"] == "exact"
    assert abs(rep.objective - ((d / 2.0) * math.log(d / 2.0) - d / 2.0)) \
        <= 1e-12
    assert np.allclose(rep.position.matrix(), math.sqrt(d / 2.0) * np.eye(d),
                       rtol=1e-6)


@pytest.mark.parametrize("d", range(1, 9))
def test_gaussian_position_is_exact_to_4_ulps(d):
    # the free optimum is the root of d + 1 - 2 r^2, closed to adjacent
    # floats, so r is sqrt((d + 1) / 2) up to the rounding of the root
    rep = solve_john(Gaussian(d), Height(d))
    r = math.sqrt((d + 1) / 2.0)
    assert np.all(np.abs(rep.position.matrix() - r * np.eye(d))
                  <= 4.0 * math.ulp(r))


@pytest.mark.parametrize("f, w", [
    (Gaussian(2), Height(2)), (ExpNorm(2, 1.5), Height(2)),
    (PolarHeightPower(2, 1.0), Height(2)), (HeightPower(2, 2.0), Height(2)),
    (Gaussian(2), BallIndicator(2))], ids=repr)
def test_exact_free_radial_solves_run_no_optimizer(monkeypatch, f, w):
    # the pair's rule and f's slope give the objective's derivative, whose
    # root radial._root closes without scipy.optimize
    _no_optimizer(monkeypatch)
    rep = solve_john(f, w)
    assert rep.diagnostics["certificate"] == "exact" and rep.feasible
    assert rep.diagnostics["stop_reason"] == "xtol_reached"


def test_root_closes_to_adjacent_floats():
    r, closed = radial._root(lambda r: 2.0 - r * r, 1.0, 2.0)
    assert closed and abs(r - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    # -inf beyond a support edge, and ends 1e30 apart
    r, closed = radial._root(lambda r: 1.0 if r <= 0.7 else -math.inf,
                             0.5, 1.0)
    assert closed and r == 0.7
    r, closed = radial._root(lambda r: 1.0 - r * 1e20, 1e-30, 1.0)
    assert closed and abs(r - 1e-20) <= math.ulp(1e-20)


def test_radial_fixed_height_walks_down_from_its_start():
    # m(1/2) < log 0.95 for exp(-|x|), so the search for the height steps
    # down in r from its start at r = 1/2 before it bisects
    rep = solve_fixed_height(ExpNorm(1, 1.0), Height(1), 0.95)
    assert rep.diagnostics["engine"] == "radial" and rep.feasible
    r = rep.position.matrix()[0, 0]
    assert r < 0.5
    m = radial.Problem(ExpNorm(1, 1.0), Height(1)).m(r)
    assert abs(m - math.log(0.95)) <= 1e-10


def _agrees_with_the_cut_route(f):
    radial_rep = solve_john(f, Height(f.dim))
    sampled = solve_john(_ValuesOnly(f), Height(f.dim),
                         SolverOptions(seed=0, restarts=1))
    assert radial_rep.diagnostics["engine"] == "radial"
    assert sampled.diagnostics["engine"] == "cuts"
    assert radial_rep.feasible and sampled.feasible
    assert sampled.diagnostics["converged"]
    assert abs(sampled.objective - radial_rep.objective) <= 1e-8


@pytest.mark.parametrize("f", [ExpNorm(2, 1.5), PolarHeightPower(2, 1.0)],
                         ids=type)
def test_radial_route_agrees_with_the_sampled_engine(f):
    # the sampled engine is the cut route, whose certificate is sampled
    _agrees_with_the_cut_route(f)


@pytest.mark.parametrize("f", [Gaussian(1), Gaussian(2), Gaussian(3),
                               ExpNorm(3, 1.5)], ids=repr)
def test_radial_route_agrees_with_the_cut_route(f):
    _agrees_with_the_cut_route(f)


def test_values_only_height_power_is_refused_before_any_relaxation(
        monkeypatch):
    # its support ends at the unit sphere, which is no half-space wall, and
    # the first tangent points lie on that sphere, where log f = -inf
    def refuse(*args, **kwargs):
        raise AssertionError("a relaxation was built")

    monkeypatch.setattr(johnsolve, "Problem", refuse)
    with pytest.raises(NoSolverTargetError, match="_ValuesOnly"):
        solve_john(_ValuesOnly(HeightPower(2, 2.0)), Height(2))


def test_radial_fixed_height_attains_the_height():
    rep = solve_fixed_height(Gaussian(1), Height(1), 0.5, OPTS)
    assert rep.diagnostics["engine"] == "radial"
    assert rep.feasible and rep.diagnostics["converged"]
    r = rep.position.matrix()[0, 0]
    m = radial.Problem(Gaussian(1), Height(1)).m(r)
    assert abs(m - math.log(0.5)) <= 1e-10
    sampled = solve_fixed_height(_ValuesOnly(Gaussian(1)), Height(1), 0.5,
                                 OPTS)
    assert sampled.diagnostics["engine"] == "cuts" and sampled.feasible
    assert abs(sampled.objective - rep.objective) <= 1e-8


@pytest.mark.parametrize("xi", [1e-3, 1e-6, 1e-7, 1e-30])
def test_radial_fixed_height_below_a_vanishing_edge_is_feasible(xi):
    # f = 1 - |x|^2 vanishes at the unit sphere faster than hbar, so at
    # r = 1 the constraint fails arbitrarily close to the sphere; the solve
    # must stop short of that, at the largest float r where
    # m(r) = log 2 + log(1 - r^2) / 2 + log r still reaches log xi
    rep = solve_fixed_height(HeightPower(2, 2.0), Height(2), xi)
    assert rep.feasible
    assert rep.diagnostics["certificate"] == "exact"
    r = rep.position.matrix()[0, 0]

    def gap(r):
        if r >= 1.0:
            return -math.inf
        return (math.log(2.0) + 0.5 * math.log((1.0 - r) * (1.0 + r))
                + math.log(r) - math.log(xi))

    assert gap(r) >= 0.0 > gap(np.nextafter(r, 2.0))
    if xi == 1e-30:
        assert r == np.nextafter(1.0, 0.0)
    eps = 1.0 - r
    # along a radius at distance u from the sphere, with 1 - t^2 and
    # 1 - r t written out so that they stay exact down to u = 1e-300
    u = np.geomspace(1e-1, 1e-300, 6000)
    violation = (math.log(rep.position.alpha)
                 + 0.5 * (np.log(u) + np.log(2.0 - u))
                 - np.log(eps + u - eps * u) - np.log(1.0 + r * (1.0 - u)))
    assert np.max(violation) <= CONSTRAINT_TOL


def _sampled_copy(f):
    """f under a subclass that defines radial_log_profile anew, with the
    same values: the class of its profile has no rule, so the radial route
    samples m(r) on its grid."""
    cls = type(f)
    sub = type(f"_Sampled{cls.__name__}", (cls,), {
        "radial_log_profile": lambda self, r: cls.radial_log_profile(self, r)})
    return sub(**{fld.name: getattr(f, fld.name) for fld in fields(f)
                  if fld.init})


# every library radial f with a rule under a height power, and under a ball
# indicator every radial f
_RULE_TARGETS = [
    lambda d: Gaussian(d), lambda d: ExpNorm(d, 1.0),
    lambda d: ExpNorm(d, 1.5), lambda d: ExpNorm(d, 2.0),
    lambda d: HeightPower(d, 0.5), lambda d: Height(d),
    lambda d: HeightPower(d, 2.0), lambda d: PolarHeightPower(d, 1.0),
    lambda d: PolarHeightPower(d, 3.0)]
_RULE_PAIRS = [(make(d), HeightPower(d, s_w))
               for make in _RULE_TARGETS for d in (1, 2, 3)
               for s_w in (1.0, 2.0)] + [
    (make(d), BallIndicator(d, radius))
    for make in (*_RULE_TARGETS[:3], lambda d: BallIndicator(d, 0.7))
    for d in (1, 2) for radius in (0.5, 1.0)]


@pytest.mark.parametrize("f, w", _RULE_PAIRS, ids=repr)
def test_exact_m_matches_the_grid_and_never_exceeds_it(f, w):
    exact = radial.Problem(f, w)
    grid = radial.Problem(_sampled_copy(f), _sampled_copy(w))
    assert exact.exact and not grid.exact
    cap = f.support_radius() / w.support_radius()
    for r in np.linspace(0.01, 1.0, 50) * (0.99 * cap if math.isfinite(cap)
                                           else 10.0):
        m, m_grid = exact.m(r), grid.m(r)
        # the grid samples points of the infimum, so it only reads high
        assert m <= m_grid + 1e-12 * (1.0 + abs(m_grid))
        assert abs(m - m_grid) <= 1e-9


@pytest.mark.parametrize("r", [0.99999, 0.999999, 0.9999999])
def test_grid_m_near_the_edge_reads_below_the_rule_only_by_rounding_rt(r):
    # the grid evaluates f at fl(r t), within 2^-54 of r t, which moves
    # (s/2) log(1 - (r t)^2) by at most (s - s_w) 2^-54 / (1 - r^2) at the
    # minimum; a profile that took 1 - r^2 as 1 - r r would add as much again
    w = Height(2)
    for s in np.linspace(1.02, 4.0, 50):
        f = HeightPower(2, float(s))
        m = radial.Problem(f, w).m(r)
        m_grid = radial.Problem(_sampled_copy(f), w).m(r)
        tol = (s - w.s) * 2.0 ** -54 / ((1.0 - r) * (1.0 + r))
        assert m_grid >= m - tol - 1e-15 * (1.0 + abs(m)), s


@pytest.mark.parametrize("f, w", _RULE_PAIRS, ids=repr)
def test_exact_free_radial_solve_agrees_with_the_grid_and_certifies(f, w):
    rep = solve_john(f, w)
    grid = solve_john(_sampled_copy(f), _sampled_copy(w))
    assert rep.diagnostics["certificate"] == "exact"
    assert grid.diagnostics["certificate"] == "sampled"
    assert rep.feasible and rep.diagnostics["converged"]
    assert rep.diagnostics["m_evaluations"] > 0
    assert abs(rep.diagnostics["max_constraint_violation"]) <= 1e-12
    assert abs(rep.objective - grid.objective) \
        <= 1e-12 * max(1.0, abs(rep.objective))
    if isinstance(w, HeightPower) and w.s == 1.0:
        # the John condition extract_and_certify reads is that of hbar
        assert extract_and_certify(f, rep).diagnostics["certified"] is True


def test_radial_pairs_with_a_rule_sample_no_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was sampled")

    monkeypatch.setattr(radial.Problem, "_sampled", refuse)
    for f, w in _RULE_PAIRS[::7]:
        for rep in (solve_john(f, w),
                    solve_fixed_height(f, w, 0.5 * f.sup_norm())):
            assert rep.diagnostics["certificate"] == "exact"
            assert rep.feasible


@pytest.mark.parametrize("f", [
    ExpNorm(2, 3.0), BallIndicator(2, 1.5), _sampled_copy(Gaussian(2)),
    _sampled_copy(PolarHeightPower(2, 1.0))], ids=repr)
def test_radial_pairs_without_a_rule_keep_the_sampled_grid(f):
    assert not radial.Problem(f, Height(f.dim)).exact
    rep = solve_john(f, Height(f.dim))
    assert rep.diagnostics["engine"] == "radial" and rep.feasible
    assert rep.diagnostics["certificate"] == "sampled"


@pytest.mark.parametrize("d", [1, 2])
def test_height_curve_concavity_radial(d):
    alphas = list(np.exp(np.linspace(math.log(0.05), 0.0, 12)))
    samples = height_curve(Gaussian(d), Height(d), alphas, OPTS)
    assert all(s.feasible for s in samples)
    assert phi_concavity_violation(samples) <= 1e-6


def test_positioned_radial_target_is_composed():
    T = make_position(1.5, [[1.2, 0.7], [-0.4, 0.8]], [0.1, -0.2])
    rep = solve_john(Positioned(inner=ExpNorm(2, 1.5), position=T),
                     Height(2))
    inner = solve_john(ExpNorm(2, 1.5), Height(2))
    assert rep.diagnostics == dict(inner.diagnostics, composed=True)
    assert rep.position.positive_definite
    assert abs(rep.objective - inner.objective - math.log(1.5)
               - math.log(abs(T.det()))) <= 1e-12
    # the same function as T applied to the inner position
    g = apply_position(rep.position, Height(2))
    M = T.matrix() @ inner.position.matrix()
    h = Positioned(inner=Height(2), position=make_position(
        rep.position.alpha, M, T.a_vector()))
    X = np.random.default_rng(0).uniform(-2.0, 2.0, size=(200, 2))
    np.testing.assert_allclose(g.evaluate_many(X), h.evaluate_many(X),
                               rtol=1e-12, atol=1e-12)


@dataclass(frozen=True)
class _Vanishing(Gaussian):
    """A radial function that is zero everywhere."""

    def radial_log_profile(self, r):
        return np.full(np.shape(r), -np.inf)


@dataclass(frozen=True)
class _NaNBeyond(Gaussian):
    """A radial profile that turns NaN beyond radius 0.1."""

    def radial_log_profile(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.1, np.nan, -r * r)


def _no_optimizer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an optimizer ran")

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", refuse)
    monkeypatch.setattr(scipy.optimize, "minimize", refuse)


def test_radial_target_without_any_position_is_refused():
    with pytest.raises(InfeasibleProblemError):
        solve_john(_Vanishing(2), Height(2))


def test_radial_nan_profile_is_refused_before_any_optimizer(monkeypatch):
    _no_optimizer(monkeypatch)
    with pytest.raises(ImproperFunctionError, match="NaN"):
        solve_john(_NaNBeyond(1), Height(1))


def test_positioned_half_restriction_is_refused_before_any_optimizer(
        monkeypatch):
    _no_optimizer(monkeypatch)
    f = Positioned(inner=HalfRestriction(inner=Height(1), normal=(1.0,)),
                   position=make_position(2.0, [[3.0]], [1.0]))
    with pytest.raises(NoSolverTargetError, match="HalfRestriction"):
        solve_john(f, Height(1), OPTS)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("xi", [None, 0.5])
def test_off_centre_ball_is_a_composed_radial_solve(d, xi):
    # a ball of radius 1.5 about c holds hbar positioned at A = 1.5 Id,
    # a = c, at every height up to 1, and no larger A fits
    c = np.array([0.25, -0.5])[:d]
    f = Positioned(inner=BallIndicator(dimension=d, radius=1.5),
                   position=make_position(1.0, np.eye(d), c))
    rep = solve_john(f, Height(d)) if xi is None else \
        solve_fixed_height(f, Height(d), xi)
    assert rep.diagnostics["engine"] == "radial"
    assert rep.diagnostics["composed"] is True
    assert rep.feasible
    assert abs(rep.position.det() - 1.5 ** d) <= 1e-12
    np.testing.assert_allclose(rep.position.matrix(), 1.5 * np.eye(d),
                               rtol=0.0, atol=1e-12)
    assert np.array_equal(rep.position.a_vector(), c)
    if xi is None:
        assert abs(rep.objective - d * math.log(1.5)) <= 1e-12
    else:
        assert rep.position.alpha == xi


_VARIANT_CONFIGS = [
    {"variant": "height"},
    {"variant": "height_power", "s": 2.0},
    {"variant": "ball_indicator", "radius": 1.5},
    {"variant": "ball_indicator", "radius": 1.5, "center": [0.25, -0.5]},
    {"variant": "gaussian"},
    {"variant": "expnorm", "p": 1.5},
    {"variant": "polar_height_power", "s": 2.0},
    {"variant": "bump", "anchors": [[0.6, 0.0], [-0.6, 0.0], [0.0, 0.6],
                                    [0.0, -0.6]]},
    {"variant": "half_restriction", "normal": [1.0, 0.0],
     "inner": {"variant": "gaussian", "dimension": 2}},
]


@pytest.mark.parametrize("positioned", [False, True])
@pytest.mark.parametrize("config", _VARIANT_CONFIGS,
                         ids=lambda c: c["variant"] + "_centre" * ("center"
                                                                  in c))
def test_no_library_variant_reaches_the_sampled_engine(monkeypatch, config,
                                                       positioned):
    # every variant solves, free and at half its peak, on a route with an
    # exact or a one-dimensional certificate, or on the cut route
    config = dict(config, dimension=2)
    if positioned:
        config["position"] = {"alpha": 1.5, "A": [[1.2, 0.7], [-0.4, 0.8]],
                              "a": [0.1, -0.2]}
    f = function_from_config(config)

    def finite(form, w):
        # no NaN reaches the barrier
        assert all(np.all(np.isfinite(part)) for part in form)
        return Problem(form, w)

    monkeypatch.setattr(johnsolve, "Problem", finite)
    route = "cuts" if config["variant"] == "half_restriction" else None
    free = solve_john(f, Height(2))
    for rep in (free,
                solve_fixed_height(f, Height(2), 0.5 * f.sup_norm())):
        assert rep.diagnostics["engine"] in ((route,) if route else
                                             ("exact", "radial"))
        assert rep.feasible and rep.diagnostics["converged"]
    # the free solve's own contacts certify it, at its position
    out = extract_and_certify(f, free)
    assert out.diagnostics["certified"] is True
    assert abs(sum(out.recovered_weights) - 3.0) < 1e-5
    # and each touches: alpha w(y) = f(Ay + a), or y is at the edge of
    # supp w, where w vanishes and the logs only measure rounding
    pos = free.position
    Y = np.asarray(out.contacts)
    norms = np.linalg.norm(Y, axis=1)
    inner = Y[norms < 1.0 - 1e-6]
    gap = (math.log(pos.alpha) + Height(2).log_evaluate_many(inner)
           - f.log_evaluate_many(inner @ pos.matrix().T + pos.a_vector()))
    assert np.all(np.abs(gap) <= 1e-6 + CONSTRAINT_TOL)
    assert np.allclose(norms[norms >= 1.0 - 1e-6], 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("positioned", [False, True])
@pytest.mark.parametrize("inner", [
    {"variant": "height"}, {"variant": "height_power", "s": 2.0},
    {"variant": "ball_indicator", "radius": 1.5}], ids=lambda c: c["variant"])
def test_half_restriction_of_a_bounded_support_is_refused_up_front(
        monkeypatch, inner, positioned):
    config = {"variant": "half_restriction", "dimension": 2,
              "normal": [1.0, 0.0], "inner": dict(inner, dimension=2)}
    if positioned:
        config["position"] = {"alpha": 1.5, "A": [[1.2, 0.7], [-0.4, 0.8]],
                              "a": [0.1, -0.2]}
    f = function_from_config(config)

    def refuse(*args, **kwargs):
        raise AssertionError("a relaxation was built")

    monkeypatch.setattr(johnsolve, "Problem", refuse)
    with pytest.raises(NoSolverTargetError, match="HalfRestriction"):
        solve_john(f, Height(2))
    with pytest.raises(NoSolverTargetError, match="HalfRestriction"):
        solve_fixed_height(f, Height(2), 0.5 * f.sup_norm())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("inner", ["gaussian", "expnorm"])
def test_half_restriction_solves_on_the_cut_route(d, inner):
    f = HalfRestriction(
        inner=Gaussian(d) if inner == "gaussian" else ExpNorm(d, 1.5),
        normal=tuple(np.eye(d)[-1]))
    assert f.sup_norm() == 1.0
    # a sample ten times denser than the route's own, drawn apart from it
    Y = ball_grid(d, 200_000, seed=123)
    logw = Height(d).log_evaluate_many(Y)
    Y, logw = Y[np.isfinite(logw)], logw[np.isfinite(logw)]
    for rep in (solve_john(f, Height(d)),
                solve_fixed_height(f, Height(d), 0.5)):
        diag = rep.diagnostics
        assert diag["engine"] == "cuts" and diag["certificate"] == "sampled"
        assert rep.feasible and diag["converged"]
        assert rep.objective <= diag["upper_bound"] <= rep.objective + 1e-8
        pos = rep.position
        violation, _ = johnsolve._sampled_violation(
            f, Y, logw, math.log(pos.alpha), pos.matrix(), pos.a_vector())
        assert violation <= CONSTRAINT_TOL
        # the positioned support stays strictly inside the half-space
        n = np.eye(d)[-1]
        assert float(n @ pos.a_vector()) \
            > np.linalg.norm(pos.matrix() @ n) * (1.0 + 1e-12)


@pytest.mark.parametrize("d, idx", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 0)])
def test_half_restricted_bump_takes_the_exact_route(d, idx):
    # the inner normal form plus the wall (-n, 0) solves exactly; the same
    # function seen through values only takes the cut route
    bump = bump_corpus(d)[idx].function
    n = tuple(np.full(d, 1.0 / math.sqrt(d)))
    exact = solve_john(HalfRestriction(inner=bump, normal=n), Height(d))
    cuts = solve_john(HalfRestriction(inner=_ValuesOnly(bump), normal=n),
                      Height(d))
    assert exact.diagnostics["engine"] == "exact"
    assert exact.diagnostics["certificate"] == "exact"
    assert cuts.diagnostics["engine"] == "cuts"
    assert exact.feasible and cuts.feasible
    assert abs(cuts.objective - exact.objective) <= 1e-8


def test_a_majorant_is_refused():
    for f in (LogAffineMajorant((0.5, 0.0)),
              Positioned(inner=LogAffineMajorant((0.5, 0.0)),
                         position=make_position(2.0, np.eye(2), [1.0, 0.0]))):
        with pytest.raises(NoSolverTargetError):
            solve_john(f, Height(2))
