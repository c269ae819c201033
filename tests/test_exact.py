"""The exact route for bumps and their positioned copies: feasibility by an
independent closed-form certificate, agreement with the cut route (whose
certificate is sampled), and the barrier's derivatives."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from funcjohn import (
    CONSTRAINT_TOL,
    Bump,
    DivergentIntegralError,
    HalfRestriction,
    Height,
    HeightPower,
    InfeasibleProblemError,
    LogConcaveFunction,
    Positioned,
    SolverOptions,
    bump_from_decomposition,
    generate_decomposition,
    make_position,
    solve_fixed_height,
    solve_john,
)
from funcjohn.acceptance import bump_corpus
from funcjohn.exact import (
    Problem,
    _descent_step,
    certificate,
    surrounds_origin,
)
from funcjohn.johnsolve import _cut_sample, _sampled_violation

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT = Bump(anchors=((R2,), (-R2,)))


def _violation(anchors, alpha, A, a):
    """max over the unit ball of log(alpha hbar(y)) - log f(Ay + a) for the
    bump of interior anchors u_i, written out from its definition: f's
    majorants have slopes s_i = u_i / h_i^2 and intercepts
    b_i = log h_i + |u_i|^2 / h_i^2, and sup_y <p, y> + log hbar(y) is
    c t + log sqrt(1 - t^2) at c = |p|, t = 2c / (1 + sqrt(1 + 4c^2))."""
    U = np.asarray(anchors, dtype=float)
    sq = np.sum(U * U, axis=1)
    h2 = 1.0 - sq
    s = U / h2[:, None]
    b = 0.5 * np.log(h2) + sq / h2
    c = np.linalg.norm(s @ np.asarray(A, dtype=float), axis=1)
    t = 2.0 * c / (1.0 + np.sqrt(1.0 + 4.0 * c * c))
    S = c * t + 0.5 * np.log1p(-t * t)
    return math.log(alpha) + float(np.max(s @ np.asarray(a) - b + S))


def _in_bump_coordinates(rep, outer):
    """The solved position against the bump inside outer = Positioned(bump,
    (alpha_T, T, t)): f(Ay + a) = alpha_T bump(T^{-1}(Ay + a - t))."""
    pos, T = rep.position, outer.position
    Tinv = np.linalg.inv(T.matrix())
    return (pos.alpha / T.alpha, Tinv @ pos.matrix(),
            Tinv @ (pos.a_vector() - T.a_vector()))


@pytest.mark.parametrize("seed", range(6))
def test_d3_bump_solves_are_feasible(seed):
    # the sampled solver this library once had reported these feasible at
    # exact violations of 1.8e-3 to 1.21, and objectives up to 7.3e-4 above
    # the optimum 0
    f = bump_from_decomposition(generate_decomposition(3, seed)).function
    rep = solve_john(f, Height(3), SolverOptions(seed=0, restarts=2))
    assert rep.feasible
    assert abs(rep.objective) <= 1e-8
    pos = rep.position
    assert _violation(f.anchors, pos.alpha, pos.matrix(),
                      pos.a_vector()) <= CONSTRAINT_TOL


def test_conjugate_with_anchors_near_the_sphere_is_feasible():
    # anchors +-0.9999999983 lie beyond the radius 0.9999 that the
    # certificate of the former sampled solver covered; its position here
    # violated the closed form by 2951
    bump = bump_from_decomposition(generate_decomposition(1, 696582)).function
    T = make_position(1.0886571223938564, [[1.2552511830718847]],
                      [0.4227256864229143], positive_definite=True)
    g = Positioned(inner=bump, position=T)
    rep = solve_john(g, Height(1), SolverOptions(seed=0, restarts=1))
    assert rep.feasible
    assert _violation(bump.anchors, *_in_bump_coordinates(rep, g)) \
        <= CONSTRAINT_TOL
    expect = math.log(T.alpha) + math.log(T.det())
    assert abs(rep.objective - expect) <= 1e-8


@pytest.mark.parametrize("seed", [2127, 300885])
@pytest.mark.parametrize("T", [[[1.182, -0.463], [-0.463, 0.922]],
                               [[2.532, 3.146], [3.146, 5.793]]])
def test_anchors_within_1e_6_of_the_sphere_solve(seed, T):
    # 1 - |u|^2 of 1.4e-7 and 2.6e-10 gives slopes of 1e7 and 4e9 beside
    # ones near 1; a start at A = Id over the peak of f, which sits against
    # such a steep row, left the first Newton systems singular
    f = bump_from_decomposition(generate_decomposition(2, seed)).function
    T = make_position(1.39, T, [0.005, 0.053], positive_definite=True)
    for g, expect in ((f, 0.0), (Positioned(inner=f, position=T),
                                 math.log(T.alpha) + math.log(T.det()))):
        rep = solve_john(g, Height(2))
        assert rep.feasible and rep.diagnostics["converged"]
        assert abs(rep.objective - expect) <= 1e-8 * max(1.0, abs(expect))
        rep = solve_fixed_height(g, Height(2), 0.9 * g.sup_norm())
        assert rep.feasible and rep.diagnostics["converged"]


def test_a_breakdown_is_not_reported_as_a_reached_gap():
    # from this start the first Newton systems round indefinite; a gap test
    # that reads the negative decrement of such a step as a gap (-2.8e10)
    # stops after 2 steps at objective -0.79, against the optimum 1.8918,
    # and reports it converged
    f = bump_from_decomposition(generate_decomposition(2, 300885)).function
    T = make_position(1.39, [[2.532, 3.146], [3.146, 5.793]], [0.005, 0.053],
                      positive_definite=True)
    g = Positioned(inner=f, position=T)
    sol = Problem(g.normal_form(), Height(2)).solve(
        (0.6484805329483206 * np.eye(2), np.array([-0.02542889, 0.0])), None)
    if sol.stop_reason == "gap_reached":
        assert 0.0 <= sol.gap_bound <= 1e-9
        expect = math.log(T.alpha) + math.log(T.det())
        objective = sol.log_alpha + math.log(np.linalg.det(sol.A))
        assert abs(objective - expect) <= 1e-8
    else:
        assert sol.stop_reason == "numerical_breakdown"


def test_a_last_stage_that_cannot_step_is_not_reported_as_a_reached_gap(
        monkeypatch):
    # every line search at tau_last = 2m / 1e-9 is refused, so the last
    # stage stops short of its centre.  A gap test that scores such a stop
    # by (m + decrement^2) / tau_last passes for any decrement^2 <= m, and
    # reported the free solve here as gap_reached at decrement^2 = 0.19.
    f = bump_corpus(3, 2)[1].function
    problem = Problem(f.normal_form(), Height(3))
    tau_last = 2.0 * problem.P.shape[0] / 1e-9
    line_search = Problem._line_search

    def refused(self, pt, step, tau, *args):
        if tau >= tau_last:
            return None
        return line_search(self, pt, step, tau, *args)

    monkeypatch.setattr(Problem, "_line_search", refused)
    for log_alpha in (None, math.log(0.5 * f.sup_norm())):
        sol = problem.solve(problem.start(log_alpha), log_alpha)
        assert sol.stop_reason != "gap_reached", log_alpha
        assert sol.stop_reason == "numerical_breakdown"


def _lp_start_ball(form, R, log_alpha):
    """(r, level) of the start ball by HiGHS on the primal LPs, rows scaled
    to unit norm: the peak, max z over z + <s_i, x> <= b_i and the walls
    <n_j, x> <= c_j, gives level = peak - 1 on a free solve; then r is the
    largest r <= 1 with <p, x> + r (1 + R|p|) <= b - level on the interior
    rows and <= c on the walls."""
    slopes, intercepts, normals, offsets = form
    m, d = slopes.shape
    P = np.vstack([slopes, normals])
    b = np.concatenate([intercepts, offsets])

    def lp(A_ub, b_ub, bounds):
        norms = np.linalg.norm(A_ub, axis=1)
        res = optimize.linprog(np.append(np.zeros(d), -1.0),
                               A_ub=A_ub / norms[:, None], b_ub=b_ub / norms,
                               bounds=bounds, method="highs")
        assert res.status == 0, res.message
        return res.x[d]

    level = log_alpha
    if level is None:
        A_ub = np.hstack([P, np.zeros((P.shape[0], 1))])
        A_ub[:m, d] = 1.0
        level = lp(A_ub, b, [(None, None)] * (d + 1)) - 1.0
    b[:m] -= level
    k = 1.0 + R * np.linalg.norm(P, axis=1, keepdims=True)
    return lp(np.hstack([P, k]), b, [(None, None)] * d + [(None, 1.0)]), level


def _start_inputs():
    rng = np.random.default_rng(17)
    for d in range(1, 7):
        for bump in bump_corpus(d, 3):
            f = bump.function
            B = 0.4 * rng.standard_normal((d, d))
            A = np.eye(d) + (B + B.T) / 2.0
            A += max(0.0, 0.3 - np.linalg.eigvalsh(A).min()) * np.eye(d)
            T = make_position(math.exp(rng.uniform(-1.0, 1.0)), A,
                              0.3 * rng.standard_normal(d),
                              positive_definite=True)
            yield f
            yield Positioned(inner=f, position=T)
    yield Bump(anchors=((1.0, 0.0), (-0.5, 0.6), (-0.5, -0.6)))
    yield HalfRestriction(bump_corpus(2, 1)[0].function, (0.6, 0.8))


def test_the_start_ball_is_the_lp_ball_without_highs(monkeypatch):
    # free and at half the peak: r is the LP's to 1e-9, every row keeps its
    # margin r (1 + R|p|) at a, and no start reaches HiGHS, not even the
    # peak of a form with walls
    calls = []
    linprog = optimize.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(optimize, "linprog", counted)
    walled = 0
    for f in _start_inputs():
        d = f.dim
        form = f.normal_form()
        problem = Problem(form, Height(d))
        has_walls = form[2].shape[0] > 0
        walled += has_walls
        for log_alpha in (None, math.log(0.5 * f.sup_norm())):
            before = len(calls)
            A, a = problem.start(log_alpha)
            assert len(calls) == before
            r = A[0, 0]
            want, level = _lp_start_ball(form, problem.R, log_alpha)
            assert abs(r - want) <= 1e-9 * want, (f, log_alpha, r, want)
            np.testing.assert_array_equal(A, r * np.eye(d))
            k = 1.0 + problem.R * np.linalg.norm(problem.P, axis=1)
            b = -problem.off
            b[:problem.m_int] -= level
            margin = (b - problem.P @ a) / k
            assert np.all(margin >= r - 1e-12 * (1.0 + np.abs(b / k))), f
    assert walled == 2


@pytest.mark.parametrize("d, count", [(1, 10), (2, 10), (3, 10), (4, 10),
                                      (5, 5), (6, 5)])
def test_regular_corpus_bumps_solve_to_the_optimum(d, count):
    # a decomposition bump is in John position: the optimum is exactly 0
    for seed in range(count):
        f = bump_from_decomposition(generate_decomposition(d, seed)).function
        assert f.is_regular
        rep = solve_john(f, Height(d))
        pos = rep.position
        assert rep.diagnostics["converged"], (d, seed)
        assert rep.feasible and abs(rep.objective) <= 1e-8, (d, seed)
        assert _violation(f.anchors, pos.alpha, pos.matrix(),
                          pos.a_vector()) <= CONSTRAINT_TOL, (d, seed)


@dataclass(frozen=True)
class _ValuesOnly(LogConcaveFunction):
    """A function seen only through its values and their gradients, without
    a normal form and without being radial, so that the solver takes it on
    the cut route."""

    inner: LogConcaveFunction

    @property
    def dim(self):
        return self.inner.dim

    def log_evaluate_many(self, X):
        return self.inner.log_evaluate_many(X)

    def log_value_grad(self, X):
        return self.inner.log_value_grad(X)

    def sup_norm(self):
        return self.inner.sup_norm()


@pytest.mark.parametrize("d, idx", [(1, 0), (1, 1), (1, 2), (2, 2)])
def test_sampled_engine_agrees_with_the_exact_route(d, idx):
    f = bump_corpus(d)[idx].function
    exact = solve_john(f, Height(d))
    sampled = solve_john(_ValuesOnly(f), Height(d),
                         SolverOptions(seed=0, restarts=1))
    assert exact.diagnostics["engine"] == "exact"
    assert sampled.diagnostics["engine"] == "cuts"
    assert sampled.feasible and sampled.diagnostics["converged"]
    assert abs(sampled.objective - exact.objective) <= 1e-8


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 2), idx=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_certificate_never_exceeds_the_exact_one(d, idx, seed):
    f = bump_corpus(d)[idx].function
    rng = np.random.default_rng(seed)
    B = 0.3 * rng.standard_normal((d, d))
    A = np.eye(d) + (B + B.T) / 2.0
    A += max(0.0, 0.3 - np.linalg.eigvalsh(A).min()) * np.eye(d)
    a = 0.3 * rng.standard_normal(d)
    # the cut route's violation on its sample of supp w
    sampled, _ = _sampled_violation(f, *_cut_sample(Height(d), seed=0),
                                    0.0, A, a)
    exact = certificate(f.normal_form(), Height(d), 0.0, A, a)
    assert sampled <= exact + 1e-12


def test_fixed_height_at_the_peak_is_refused_up_front():
    # alpha = sup f leaves no strictly feasible start for the barrier
    with pytest.raises(InfeasibleProblemError):
        solve_fixed_height(TWO_POINT, Height(1), TWO_POINT.sup_norm())


@pytest.mark.parametrize("anchors", [((0.5,),), ((0.5, 0.0), (-0.5, 0.0))])
def test_bump_with_divergent_integral_is_refused_up_front(anchors):
    # f does not decay along some ray: no position of w below it is largest
    with pytest.raises(DivergentIntegralError):
        solve_john(Bump(anchors=anchors), Height(len(anchors[0])))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("height", [False, True])
def test_barrier_step_is_the_newton_step(d, height):
    # gradient against central differences of the merit, and the step
    # against the central-difference Hessian of that gradient
    f = bump_corpus(d)[1].function
    problem = Problem(f.normal_form(), Height(d))
    log_alpha = math.log(0.8) if height else None
    tau = 3.0

    def merit(x):
        pt = problem._point(x, log_alpha)
        return math.inf if pt is None else pt.merit(tau)

    def newton(x):
        return problem._newton(problem._point(x, log_alpha), tau, log_alpha)

    A, a = problem.start(log_alpha)
    x = np.concatenate([A[np.triu_indices(d)], a])
    if log_alpha is None:
        x = np.append(x, float(np.max(problem.values(A, a))) + 1.0)
    # off the start's A = r Id, and strictly inside the barrier's domain
    noise = 0.2 * np.random.default_rng(d).standard_normal(x.size) * abs(x[0])
    while not math.isfinite(merit(x + noise)):
        noise /= 2.0
    x = x + noise
    grad, step, _, _ = newton(x)
    h = 1e-6
    E = np.eye(x.size)
    fd = np.array([(merit(x + h * e) - merit(x - h * e)) / (2 * h)
                   for e in E])
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-5)
    H = np.array([(newton(x + h * e)[0] - newton(x - h * e)[0]) / (2 * h)
                  for e in E])
    np.testing.assert_allclose(H @ step, -grad, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("d, idx", [(1, 0), (2, 2), (3, 1)])
@pytest.mark.parametrize("height", [False, True])
def test_each_barrier_point_is_evaluated_once(monkeypatch, d, idx, height):
    # every S_w evaluation of a solve belongs to one point of the barrier:
    # the Newton step and the line search's start reuse that point
    f = bump_corpus(d)[idx].function
    problem = Problem(f.normal_form(), Height(d))
    log_alpha = math.log(0.5 * f.sup_norm()) if height else None
    start = problem.start(log_alpha)
    calls = {"S_w": 0, "points": 0}

    def counted(key, method):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HeightPower, "radial_log_sup_derivatives", counted(
        "S_w", HeightPower.radial_log_sup_derivatives))
    monkeypatch.setattr(Problem, "_point", counted("points", Problem._point))
    sol = problem.solve(start, log_alpha)
    assert sol.stop_reason == "gap_reached" and sol.newton_steps > 0
    assert calls["S_w"] == calls["points"] > sol.newton_steps


def test_predictor_keeps_corpus_solves_in_few_newton_steps():
    # 48 solves: corpus bumps d = 1-4, seeds 0-5, free and at half the peak.
    # Barrier stages at tau rising x50, each opened at the last centre, took
    # 2,193 Newton steps in all, and 1,165 with a predictor step along the
    # central path; primal-dual steps, whose weight rises after every step,
    # take 583.
    steps = 0
    for d in range(1, 5):
        for bump in bump_corpus(d, 6):
            f = bump.function
            free = solve_john(f, Height(d))
            half = solve_fixed_height(f, Height(d), 0.5 * f.sup_norm())
            for rep in (free, half):
                assert rep.diagnostics["stop_reason"] == "gap_reached"
                steps += rep.diagnostics["newton_steps"]
            assert abs(free.objective) <= 1e-9
    assert steps < 650


# The barrier's reference: the straightforward formulas for the rows, the
# point and the Newton system, one NumPy call per term.  The kernel in
# funcjohn.exact makes fewer calls and must give the same bits.

def _reference_sigma(s, c):
    q = np.sqrt(s * s + 4.0 * c * c)
    r = 2.0 * c / (s + q)
    h2 = s * (1.0 + s / (q + 2.0 * c)) / (s + q) * (1.0 + r)
    return c * r + 0.5 * s * np.log(h2), r, h2 / (s + 2.0 * c * r)


def _reference_rows(problem, A, a):
    P, m_int, R = problem.P, problem.m_int, problem.R
    V = P @ A
    c = np.linalg.norm(V, axis=1)
    S, S1, S2 = _reference_sigma(problem.w.s, c[:m_int])
    cw = c[m_int:]
    sigma = (np.concatenate([S, R * cw]),
             np.concatenate([S1, np.full(cw.shape, R)]),
             np.concatenate([S2, np.zeros(cw.shape)]))
    return V, c, sigma, P @ a + problem.off + sigma[0]


def _reference_point(problem, x, log_alpha):
    """(A, V, c, sigma, rows, f0, log_sum) at x, or None off the domain."""
    A, a, t = problem._unpack(x)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    V, c, sigma, rows = _reference_rows(problem, A, a)
    v = rows.copy()
    v[:problem.m_int] += -t[0] if log_alpha is None else log_alpha
    if not (v < 0.0).all():
        return None
    f0 = -2.0 * float(np.log(L.diagonal()).sum())
    if log_alpha is None:
        f0 += float(x[-1])
    return A, V, c, sigma, rows, f0, float(np.log(-v).sum())


def _reference_newton(problem, pt, tau, log_alpha, weights=None):
    rows, cols, J = problem._rows, problem._cols, problem._J
    K, d, n = rows.size, problem.d, pt.x.size
    half = np.where(rows == cols, 0.5, 1.0)
    B = np.linalg.inv(pt.A)
    c, v, (_, S1, S2) = pt.c, pt.v, pt.sigma
    inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0.0)
    Gz = np.einsum("id,idk->ik", pt.V * inv_c[:, None], J)
    D = np.zeros((v.size, n))
    D[:, :K] = S1[:, None] * Gz
    D[:, K:K + d] = problem.P
    g0 = np.zeros(n)
    g0[:K] = -2.0 * half * B[rows, cols]
    if log_alpha is None:
        D[:problem.m_int, -1] = -1.0
        g0[-1] = 1.0
    wt = -1.0 / v
    # a row's curvature and outer-product terms take the primal-dual weight
    # tau lambda where one is given; -1/v gives back the barrier's own
    u = wt if weights is None else weights
    grad = D.T @ wt + tau * g0
    H = (D.T * wt * u) @ D
    rr, cc, rc, cr = (np.ix_(rows, rows), np.ix_(cols, cols),
                      np.ix_(rows, cols), np.ix_(cols, rows))
    H[:K, :K] += tau * np.outer(half, half) * 2.0 * (B[rr] * B[cc]
                                                     + B[rc] * B[cr])
    H[:K, :K] += (Gz.T * (u * (S2 - S1 * inv_c))) @ Gz
    H[:K, :K] += np.einsum("i,idk,idl->kl", u * S1 * inv_c, J, J)
    try:
        step = np.linalg.solve(H, -grad)
        if -float(grad @ step) >= 0.0:
            return grad, step, H, D
    except np.linalg.LinAlgError:
        pass
    return (grad, *_descent_step(H, grad), D)


def test_barrier_kernel_matches_the_reference_to_the_bit(monkeypatch):
    # every point and every Newton system of 16 solves: corpus bumps #0 in
    # d = 1-4 (no walls) and their half-restrictions at e1 (one wall), free
    # and at half the peak; the Newton systems of the primal-dual steps and
    # of the last stage alike
    point, newton = Problem._point, Problem._newton
    seen = {"points": 0, "newton": 0, "primal_dual": 0, "walls": set()}

    def checked_point(self, x, log_alpha):
        pt = point(self, x, log_alpha)
        ref = _reference_point(self, pt.x if pt is not None else x,
                               log_alpha)
        assert (pt is None) == (ref is None)
        if pt is not None:
            A, V, c, sigma, rows, f0, log_sum = ref
            for got, want in [(pt.A, A), (pt.V, V), (pt.c, c), (pt.rows, rows),
                              *zip(pt.sigma, sigma)]:
                assert np.array_equal(got, want)
            assert (pt.f0, pt.log_sum) == (f0, log_sum)
            seen["points"] += 1
        return pt

    def checked_newton(self, pt, tau, log_alpha, weights=None):
        out = newton(self, pt, tau, log_alpha, weights)
        for got, want in zip(out, _reference_newton(self, pt, tau, log_alpha,
                                                    weights)):
            assert np.array_equal(got, want)
        seen["newton"] += 1
        seen["primal_dual"] += weights is not None
        return out

    monkeypatch.setattr(Problem, "_point", checked_point)
    monkeypatch.setattr(Problem, "_newton", checked_newton)
    for d in range(1, 5):
        f = bump_corpus(d, 1)[0].function
        e1 = (1.0,) + (0.0,) * (d - 1)
        for g in (f, HalfRestriction(f, e1)):
            problem = Problem(g.normal_form(), Height(d))
            seen["walls"].add(problem.P.shape[0] - problem.m_int)
            for log_alpha in (None, math.log(0.5 * f.sup_norm())):
                sol = problem.solve(problem.start(log_alpha), log_alpha)
                assert sol.stop_reason == "gap_reached"
    assert seen["walls"] == {0, 1}
    assert seen["points"] > seen["newton"] > seen["primal_dual"] > 150


def _lp_surrounds_origin(P):
    """The decay test by LP: the unit rows u_i span R^d, and weights
    lam_i >= rho with sum 1 write 0 as sum lam_i u_i for some rho > 1e-9."""
    U = P[np.any(P != 0.0, axis=1)]
    n, d = U.shape
    if n <= d or np.linalg.matrix_rank(U) < d:
        return False
    U = U / np.linalg.norm(U, axis=1)[:, None]
    # maximize rho over weights lam >= rho with sum 1 and sum lam_i u_i = 0
    A_eq = np.zeros((d + 1, n + 1))
    A_eq[:d, :n] = U.T
    A_eq[d, :n] = 1.0
    A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = optimize.linprog(np.append(np.zeros(n), -1.0), A_ub=A_ub,
                           b_ub=np.zeros(n), A_eq=A_eq,
                           b_eq=np.append(np.zeros(d), 1.0),
                           bounds=[(0.0, None)] * n + [(None, None)],
                           method="highs")
    return res.status == 0 and -res.fun > 1e-9


def test_d1_sign_rule_agrees_with_the_lp():
    # rows p_i in R surround the origin exactly when the rows (p_i, 0) with
    # (0, 1) and (0, -1) surround it in R^2, which the LP decides
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 6))
        signs = rng.choice([-1.0, 0.0, 1.0], size=n,
                           p=rng.dirichlet(np.ones(3)))
        P = (signs * 10.0 ** rng.uniform(-8.0, 8.0, n))[:, None]
        lifted = np.vstack([np.hstack([P, np.zeros((n, 1))]),
                            [[0.0, 1.0], [0.0, -1.0]]])
        assert surrounds_origin(P) == _lp_surrounds_origin(lifted), P.ravel()


def _row_sets(rng, count):
    """Rows in d = 2-6: Gaussian sets, sets in a closed half-space, and
    balanced sets, with the origin exactly on a face of the hull or inside
    the hull of +-e_i."""
    for k in range(count):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(d, 2 * d + 5))
        P = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        kind = k % 4
        if kind == 1:
            P[:, 0] = np.abs(P[:, 0])
            P[rng.random(n) < 0.3, 0] = 0.0
        elif kind == 2:
            # +-u with the rest on the hyperplane <x, u> = 0, mirrored or not
            u = P[0]
            P = np.vstack([u, -u, P[1:] - np.outer(P[1:] @ u, u) / (u @ u)])
            if rng.random() < 0.5:
                P = np.vstack([P, -P[2:]])
        elif kind == 3:
            P = np.vstack([np.eye(d), -np.eye(d), P[:int(rng.integers(0, 3))]])
        yield P


def test_the_hull_decay_rule_agrees_with_the_lp():
    rng = np.random.default_rng(3)
    seen = set()
    for P in _row_sets(rng, 600):
        want = _lp_surrounds_origin(P)
        assert surrounds_origin(P) == want, P
        seen.add(want)
    assert seen == {False, True}
    for d in range(2, 7):
        for bump in bump_corpus(d, 30):
            S = bump.function.slopes
            assert surrounds_origin(S) and _lp_surrounds_origin(S)
            # the rows in the closed half-space <x, s_0> >= 0 do not
            half = S[S @ S[0] >= 0.0]
            assert not surrounds_origin(half)
            assert not _lp_surrounds_origin(half)


def test_rows_flat_to_qhull_do_not_surround_the_origin():
    # the last rows lie 1e-14 off the line or plane of the others: they span
    # R^d for numpy's rank, Qhull finds the hull of the unit rows and the
    # origin flat, and the origin is inside by no more than rounding
    for P in ([[1.0, 0.0], [-1.0, 0.0], [0.3, 1e-14]],
              [[1.0, 0.0], [-1.0, 0.0], [0.3, 1e-14], [0.2, -1e-14]],
              [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
               [0.0, -1.0, 0.0], [0.3, 0.2, 1e-14]]):
        P = np.asarray(P)
        assert np.linalg.matrix_rank(P) == P.shape[1]
        assert not surrounds_origin(P)
