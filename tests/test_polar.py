"""Polar transform: closed forms, the exact bump support function against
an LP dual, atoms, and the order-reversal and log-concavity properties."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from funcjohn import (
    BallIndicator,
    Bump,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    ImproperFunctionError,
    LogConcaveFunction,
    PolarHeightPower,
    Positioned,
    generate_decomposition,
    improperness_probe,
    john_inclusion_check,
    make_position,
    polar_eval,
    polar_eval_many,
    polar_floor,
    polar_of_ell,
    sandwich_construct,
)
from funcjohn import lcfunc, polar
from funcjohn.cli import EXIT_PASS, main
from funcjohn.polar import bump_log_sup
from funcjohn.verify import sphere_points

TWO_POINT = Bump(anchors=((1.0 / math.sqrt(2.0),), (-1.0 / math.sqrt(2.0),)))


def test_polar_at_zero_is_reciprocal_sup():
    cases = [Height(1), Height(2), HeightPower(dimension=2, s=3.0),
             BallIndicator(dimension=2), Gaussian(dimension=2),
             ExpNorm(dimension=1, p=1.5), TWO_POINT]
    for f in cases:
        val = polar_eval(f, np.zeros(f.dim))
        assert abs(val - 1.0 / f.sup_norm()) < 1e-9


def test_two_point_bump_polar_at_zero():
    assert abs(polar_eval(TWO_POINT, np.array([0.0]))
               - math.sqrt(2.0) / math.e) < 1e-12


def test_gaussian_polar_closed_form():
    g = Gaussian(dimension=2)
    for p in (np.array([0.5, 0.0]), np.array([1.0, -2.0])):
        assert abs(polar_eval(g, p)
                   - math.exp(-float(p @ p) / 4.0)) < 1e-12


def test_ball_indicator_polar_is_exp_support():
    # polar of chi_B is e^{-|p|}
    b = BallIndicator(dimension=2)
    for r in (0.5, 1.0, 3.0):
        assert abs(polar_eval(b, np.array([r, 0.0])) - math.exp(-r)) < 1e-9


def test_polar_atom_values():
    atom = polar_of_ell(np.zeros(2))
    assert atom.mass == 1.0
    assert atom.location == (0.0, 0.0)
    atom = polar_of_ell(np.array([0.5]))
    assert abs(atom.location[0] - 2.0 / 3.0) < 1e-15
    assert abs(atom.mass - (2.0 / math.sqrt(3.0)) * math.exp(-1.0 / 3.0)) < 1e-15
    # rotational symmetry of the mass
    atom2 = polar_of_ell(np.array([0.5, 0.0]))
    assert abs(atom2.mass - atom.mass) < 1e-15
    assert np.allclose(atom2.location, (2.0 / 3.0, 0.0))
    with pytest.raises(ValueError):
        polar_of_ell(np.array([1.0]))


def test_atom_matches_single_anchor_bump_polar():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = rng.integers(1, 4)
        u = rng.standard_normal(d)
        u *= (0.05 + 0.85 * rng.random()) / np.linalg.norm(u)
        atom = polar_of_ell(u)
        lp = polar_eval(Bump(anchors=(tuple(u),)), np.asarray(atom.location))
        assert abs(lp - atom.mass) < 1e-9


def test_bump_lp_matches_dense_grid_d1():
    rng = np.random.default_rng(22)
    x = np.linspace(-60.0, 60.0, 2_000_001)[:, None]
    for _ in range(20):
        k = rng.integers(2, 5)
        anchors = tuple((float(v),) for v in rng.uniform(-0.9, 0.9, size=k))
        f = Bump(anchors=anchors)
        logs = f.log_evaluate_many(x)
        # finite sup requires p between the extreme majorant slopes
        u = np.asarray(anchors)[:, 0]
        slopes = u / (1.0 - u * u)
        lo, hi = float(slopes.min()), float(slopes.max())
        step = x[1, 0] - x[0, 0]
        for t in rng.random(3):
            p = lo + t * (hi - lo)
            vals = p * x[:, 0] + logs
            k = int(np.argmax(vals))
            # refine around the kink the coarse grid found
            fine = np.linspace(x[k, 0] - step, x[k, 0] + step, 20001)[:, None]
            brute = float(np.max(p * fine[:, 0]
                                 + f.log_evaluate_many(fine)))
            exact = float(bump_log_sup(f, np.array([[p]]))[0])
            assert exact >= brute - 1e-12
            assert abs(exact - brute) < 1e-6


def test_polar_order_reversal():
    rng = np.random.default_rng(23)
    grid = np.linspace(-1.0, 1.0, 501)[:, None]
    for _ in range(50):
        anchors = tuple((float(v),) for v in rng.uniform(-0.8, 0.8, size=3))
        g = Bump(anchors=anchors)
        sub = Bump(anchors=anchors + ((float(rng.uniform(-0.8, 0.8)),),))
        # more majorants => pointwise smaller
        assert np.all(sub.log_evaluate_many(grid)
                      <= g.log_evaluate_many(grid) + 1e-12)
        for p in rng.uniform(-1.5, 1.5, size=2):
            assert polar_eval(sub, np.array([p])) \
                >= polar_eval(g, np.array([p])) - 1e-12


def test_polar_log_concavity_on_a_segment():
    f = TWO_POINT
    # the polar vanishes beyond the extreme majorant slopes +-sqrt(2)
    P = np.linspace(-1.4, 1.4, 41)[:, None]
    vals = polar_eval_many(f, P)
    assert np.all(vals > 0.0)
    logs = np.log(vals)
    mid = 0.5 * (logs[:-2] + logs[2:])
    assert np.all(logs[1:-1] >= mid - 1e-9)


def test_polar_positioned_reduction():
    # polar of alpha f(x/s) at p equals (1/alpha) polar of f at s p
    pos = make_position(2.0, 1.5 * np.eye(1), np.zeros(1))
    g = Positioned(inner=Height(1), position=pos)
    for p in (0.0, 0.7, -1.3):
        lhs = polar_eval(g, np.array([p]))
        rhs = polar_eval(Height(1), np.array([1.5 * p])) / 2.0
        assert abs(lhs - rhs) < 1e-9


def test_improperness_probe_halfspace_gaussian():
    f = HalfRestriction(inner=Gaussian(dimension=2), normal=(1.0, 0.0))
    vals = improperness_probe(f, (-1.0, 0.0), (1.0, 2.0, 5.0, 10.0))
    assert all(abs(v - 1.0) <= 1e-9 for v in vals)


def test_improperness_probe_gaussian_decays():
    vals = improperness_probe(Gaussian(dimension=1), (-1.0,), (2.0,))
    assert abs(vals[0] - math.exp(-1.0)) < 1e-10


def test_polar_decays_along_bounded_support():
    vals = improperness_probe(Height(1), (1.0,), (5.0, 20.0, 80.0))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-9


def test_polar_height_power_closed_form_agrees_with_polar_eval():
    f = HeightPower(dimension=1, s=1.0)
    g = PolarHeightPower(dimension=1, s=1.0)
    for p in (0.0, 0.4, 1.0, 3.0):
        assert abs(polar_eval(f, np.array([p]))
                   - g.evaluate(np.array([p]))) < 1e-9


def _anchor_form(anchors, walls=(), offsets=()):
    """The normal form of a bump with interior anchors, and f = 0 on each
    half-space <n_j, x> >= c_j, from the majorants' closed form:
    log f = min_i (b_i - <s_i, x>)."""
    U = np.asarray(anchors, dtype=float)
    sq = np.einsum("ij,ij->i", U, U)
    h2 = 1.0 - sq
    return (U / h2[:, None], 0.5 * np.log(h2) + sq / h2,
            np.asarray(walls, dtype=float).reshape(-1, U.shape[1]),
            np.asarray(offsets, dtype=float))


def _dual_log_sup(form, P):
    """Reference S(p) of a normal form (slopes s, intercepts b, walls n,
    offsets c): HiGHS on the LP dual min b.lam + c.mu s.t. lam, mu >= 0,
    sum lam = 1, sum lam_i s_i + sum mu_j n_j = p; +inf where the dual is
    infeasible."""
    slopes, intercepts, N, c = form
    A_eq = np.vstack([np.hstack([slopes.T, N.T]),
                      np.append(np.ones(len(slopes)), np.zeros(len(N)))])
    cost = np.concatenate([intercepts, c])
    out = []
    for p in np.atleast_2d(P):
        res = optimize.linprog(cost, A_eq=A_eq, b_eq=np.append(p, 1.0),
                               bounds=(0.0, None), method="highs")
        assert res.status in (0, 2), res.message
        out.append(res.fun if res.status == 0 else math.inf)
    return np.asarray(out)


def _corpus_bump(d, seed):
    return Bump(anchors=generate_decomposition(d, seed).points)


def test_bump_log_sup_with_an_anchor_near_the_sphere():
    # 1 - |u|^2 = 8.1e-10 gives an intercept near 1.2e9; a slightly negative
    # dual weight on that anchor used to pull S(0) down to -2.8e-5
    f = _corpus_bump(1, 117)
    assert abs(bump_log_sup(f, np.zeros((1, 1)))[0] - 4.0351e-10) <= 1e-12
    for d, seed in ((5, 115), (5, 94128), (4, 34)):
        f = _corpus_bump(d, seed)
        got = bump_log_sup(f, np.zeros((1, d)))[0]
        ref = _dual_log_sup(_anchor_form(f.anchors), np.zeros(d))[0]
        assert abs(got - ref) <= 1e-12, (d, seed, got, ref)


# points beyond the slope hull, where S = +inf, on which the primal LP
# stopped with status 4
OUTSIDE_SLOPE_HULL = (
    (2, 4, [[-2.142857142857143, 1.2857142857142856],
            [2.1428571428571423, -1.2857142857142858]]),
    (3, 46, [[1.79572472221028, 1.7138519944134805, -0.40323955314944826],
             [1.7366030016600509, 1.616858763304522, -1.4071844582824238],
             [1.8472688259374959, 1.3651273819711611, -1.8004832521477354]]),
)


def test_bump_log_sup_is_inf_outside_the_slope_hull(tmp_path):
    for d, seed, points in OUTSIDE_SLOPE_HULL:
        f = _corpus_bump(d, seed)
        assert np.all(np.isposinf(bump_log_sup(f, np.asarray(points))))
        assert np.all(polar_eval_many(f, np.asarray(points)) == 0.0)
        cfg = tmp_path / f"polar{d}.json"
        cfg.write_text(json.dumps({
            "f": {"variant": "bump", "dimension": d,
                  "anchors": [list(u) for u in f.anchors]},
            "points": points}))
        out = tmp_path / f"polar{d}"
        assert main(["polar", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        assert report["values"] == [0.0] * len(points)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), corpus=st.booleans(), near_sphere=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=6, corpus=True, near_sphere=False, seed=0)
@example(d=7, corpus=True, near_sphere=False, seed=0)
@example(d=8, corpus=True, near_sphere=False, seed=0)
@example(d=8, corpus=False, near_sphere=True, seed=0)
def test_bump_log_sup_matches_the_lp_dual(d, corpus, near_sphere, seed):
    rng = np.random.default_rng(seed)
    if corpus:
        # symmetric anchors +-u: at p = 0 several facets tie
        f = _corpus_bump(d, seed)
    else:
        m = int(rng.integers(d + 1, 2 * d + 5))
        V = rng.standard_normal((m, d))
        V /= np.linalg.norm(V, axis=1)[:, None]
        radii = (1.0 - 10.0 ** rng.uniform(-6.0, -2.0, m) if near_sphere
                 else rng.uniform(0.05, 0.95, m))
        f = Bump(anchors=tuple(map(tuple, V * radii[:, None])))
    U = np.asarray(f.anchors)
    sq = np.einsum("ij,ij->i", U, U)
    reach = float(np.max(np.sqrt(sq) / (1.0 - sq)))  # the largest |s_i|
    # a box that straddles the slope hull, and the origin
    P = np.vstack([rng.uniform(-1.2 * reach, 1.2 * reach, size=(30, d)),
                   np.zeros((1, d))])
    got = bump_log_sup(f, P)
    ref = _dual_log_sup(_anchor_form(U), P)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    fin = np.isfinite(ref)
    assert np.all(np.abs(got[fin] - ref[fin])
                  <= 1e-9 * (1.0 + np.abs(ref[fin])))


def test_slopes_flat_to_the_hull_are_projected_onto_their_span():
    # the third anchor lies 1e-14 off the line of the others: the slopes
    # span R^2 for numpy's rank, but every simplex Qhull finds is flat, and
    # a plane solved from one misread S(0) as 0.061 where the LP reads 0.19;
    # on the line of the slopes, where S is finite, the hull is taken
    for anchors in (((0.5, 0.0), (-0.5, 0.0), (0.2, 1e-14)),
                    ((0.5, 0.0), (-0.5, 0.0), (0.2, 1e-14), (0.0, 0.0))):
        f = Bump(anchors=anchors)
        assert np.linalg.matrix_rank(f.slopes[1:] - f.slopes[0]) == 2
        P = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 1e-3], [3.0, 0.0]])
        got = f.log_sup(P)
        ref = _dual_log_sup(_anchor_form(anchors), P)
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(got[fin] - ref[fin])
                      <= 1e-9 * (1.0 + np.abs(ref[fin])))
        assert polar_floor(f) == (0.0, "exact")


@pytest.mark.parametrize("d", [4, 5])
def test_coplanar_boundary_slopes_give_only_simplices_of_full_volume(d):
    # the vertices of a cube and its centre in d = 4, and the points +-e_i
    # and +-(e_i + e_j) / 2 in d = 5: many slopes share each face of the
    # slope hull, so Qhull's triangulation holds flat simplices, and solving
    # a plane through one raised a singular-matrix error
    if d == 4:
        U = 0.4 * np.vstack([np.array(np.meshgrid(*[[-1.0, 1.0]] * 4))
                             .reshape(4, -1).T, np.zeros((1, 4))])
    else:
        E = 0.5 * np.eye(5)
        U = np.vstack([E, -E] + [s * (E[i] + E[j]) / 2.0 for s in (1, -1)
                                 for i in range(5) for j in range(i + 1, 5)])
    f = Bump(anchors=tuple(map(tuple, U)))
    (J, c, e), _ = f.support_facets()
    rows = np.concatenate([f.slopes[J], np.ones(J.shape + (1,))], axis=2)
    assert np.all(np.abs(np.linalg.det(rows)) > 1e-6)
    rng = np.random.default_rng(d)
    reach = float(np.max(np.linalg.norm(f.slopes, axis=1)))
    P = np.vstack([rng.uniform(-reach, reach, size=(30, d)),
                   np.zeros((1, d)), f.slopes[:3]])
    got = f.log_sup(P)
    ref = _dual_log_sup(_anchor_form(U), P)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    fin = np.isfinite(ref)
    assert fin.any() and not fin.all()
    assert np.all(np.abs(got[fin] - ref[fin])
                  <= 1e-9 * (1.0 + np.abs(ref[fin])))
    floor, how = polar_floor(f)
    assert how == "exact"
    S = f.log_sup(sphere_points(d, 1000, seed=0) / (d + 1))
    assert np.max(S) <= -math.log(floor) + 1e-12


def test_a_bump_finds_its_lower_facets_once(monkeypatch):
    calls = []

    def counted(find):
        def call(*args):
            calls.append(find.__name__)
            return find(*args)
        return call

    monkeypatch.setattr(polar, "lower_facets", counted(polar.lower_facets))
    bump = Bump(anchors=generate_decomposition(3, 0).points)
    # a positioned bump keeps facets of its own, for its polar floor; its
    # support function comes from the inner bump's, through the position,
    # and those the bump has kept already
    pos = make_position(1.5, np.diag([1.0, 1.2, 0.9]), [0.1, 0.0, -0.1])
    for f in (bump, Positioned(inner=bump, position=pos)):
        calls.clear()
        f.sup_norm()
        polar_eval_many(f, np.zeros((4, 3)))
        sandwich_construct(f)
        john_inclusion_check(f)
        assert calls == ["lower_facets"]
        (J, c, e), (N, h) = f.support_facets()
        assert not any(arr.flags.writeable for arr in (J, c, e, N, h))
    # equality and hashing still see the dataclass fields only
    copy = Bump(anchors=bump.anchors)
    assert copy == bump and hash(copy) == hash(bump)
    copy = Positioned(inner=copy, position=pos)
    assert copy == f and hash(copy) == hash(f)


def test_the_polar_floor_of_a_d8_corpus_bump_is_exact():
    # 18 anchors: 48,620 subsets of 9, past what enumerating them allowed
    f = _corpus_bump(8, 0)
    floor, how = polar_floor(f)
    assert how == "exact" and floor >= math.exp(-9.0)
    M = -math.log(floor)
    P = sphere_points(8, 1000, seed=0) / 9.0
    assert np.max(f.log_sup(P)) <= M + 1e-12
    (_, c, e), _ = f.support_facets()
    k = int(np.argmax(e + np.linalg.norm(c, axis=1) / 9.0))
    p = c[k] / (9.0 * np.linalg.norm(c[k]))
    assert abs(f.log_sup(p[None, :])[0] - M) <= 1e-12 * max(1.0, abs(M))


@pytest.mark.parametrize("d, seed", [(1, 0), (2, 0), (3, 4)])
def test_a_half_restricted_bump_takes_s_from_its_normal_form(
        monkeypatch, d, seed):
    # the wall f = 0 on <-n, x> >= 0 enters the LP dual with cost 0; S is
    # finite beyond the slope hull wherever the wall's normal makes up p,
    # and the cone of the normal form, wall included, has its facets
    bump = _corpus_bump(d, seed)
    n = np.ones(d) / math.sqrt(d)
    f = HalfRestriction(inner=bump, normal=tuple(n))
    monkeypatch.setattr(lcfunc, "_generic_log_sup", None)  # never reached
    rng = np.random.default_rng(seed)
    reach = float(np.max(np.linalg.norm(bump.slopes, axis=1)))
    P = np.vstack([rng.uniform(-1.5 * reach, 1.5 * reach, size=(12, d)),
                   np.zeros((1, d))])
    got = f.log_sup(P)
    ref = _dual_log_sup(_anchor_form(bump.anchors, [-n], [0.0]), P)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    fin = np.isfinite(ref)
    assert fin.any() and not fin.all()
    assert np.all(np.abs(got[fin] - ref[fin])
                  <= 1e-9 * (1.0 + np.abs(ref[fin])))
    assert f.support_facets() is not None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 6), walls=st.integers(0, 2), half=st.booleans(),
       positioned=st.booleans(), near_sphere=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=2, walls=1, half=True, positioned=True, near_sphere=True, seed=0)
@example(d=6, walls=2, half=True, positioned=True, near_sphere=False, seed=1)
def test_the_cone_s_matches_the_lp_dual_on_walled_and_positioned_forms(
        d, walls, half, positioned, near_sphere, seed):
    # boundary anchors and a half-space add walls; a position composes the
    # normal form; S of that form, from the facets of its cone, against the
    # LP dual at points of dom S, of a box that straddles it, and of the
    # sphere of radius 1/(d+1)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(d + 1, 2 * d + 4))
    V = rng.standard_normal((walls + m, d))
    V /= np.linalg.norm(V, axis=1)[:, None]
    radii = (1.0 - 10.0 ** rng.uniform(-6.0, -2.0, walls + m) if near_sphere
             else rng.uniform(0.05, 0.95, walls + m))
    radii[:walls] = 1.0
    f = Bump(anchors=tuple(map(tuple, V * radii[:, None])))
    if half:
        n = rng.standard_normal(d)
        f = HalfRestriction(inner=f, normal=tuple(n / np.linalg.norm(n)))
    if positioned:
        T = np.eye(d) + rng.uniform(-0.3, 0.3, size=(d, d))
        f = Positioned(inner=f, position=make_position(
            rng.uniform(0.5, 2.0), T, rng.uniform(-0.5, 0.5, size=d)))
    assert f.support_facets() is not None
    form = f.normal_form()
    slopes, _, N, _ = form
    reach = float(np.max(np.linalg.norm(slopes, axis=1)))
    inside = rng.dirichlet(np.ones(len(slopes)), size=8) @ slopes \
        + rng.uniform(0.0, reach, size=(8, len(N))) @ N
    P = np.vstack([inside, rng.uniform(-1.2 * reach, 1.2 * reach, (12, d)),
                   np.zeros((1, d)), sphere_points(d, 8, seed) / (d + 1)])
    got = bump_log_sup(f, P)
    ref = _dual_log_sup(form, P)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    assert np.isfinite(ref[:8]).all()
    fin = np.isfinite(ref)
    assert np.all(np.abs(got[fin] - ref[fin])
                  <= 1e-9 * (1.0 + np.abs(ref[fin])))


def test_a_cone_that_holds_a_line_is_refused():
    # the walls n and -n at offset 0 leave no open set where f > 0: the cone
    # of the normal form holds the line through (n, 0, 0), and the origin
    # is no vertex of its hull
    for d in (1, 2, 3):
        n = tuple(np.eye(d)[0])
        f = HalfRestriction(inner=HalfRestriction(inner=_corpus_bump(d, 0),
                                                  normal=n),
                            normal=tuple(-np.eye(d)[0]))
        with pytest.raises(ImproperFunctionError):
            f.log_sup(np.zeros((1, d)))
        with pytest.raises(ImproperFunctionError):
            polar_floor(f)


@dataclass(frozen=True)
class _OrthantSimplex(LogConcaveFunction):
    """e^{-sum x_i} on the orthant x >= 0, defined outside the library by
    its log values and its normal form only."""

    dimension: int

    @property
    def dim(self):
        return self.dimension

    def log_evaluate_many(self, X):
        return np.where(np.all(X >= 0.0, axis=1), -X.sum(axis=1), -np.inf)

    def normal_form(self):
        d = self.dimension
        return np.ones((1, d)), np.zeros(1), -np.eye(d), np.zeros(d)


def test_a_normal_form_defined_outside_the_library_gets_an_exact_s():
    # S(p) = sup_{x >= 0} <p - 1, x> is 0 where every p_i <= 1, else +inf
    for d in (1, 2, 3):
        f = _OrthantSimplex(d)
        P = np.stack(np.meshgrid(*[[-2.0, 0.0, 0.5, 1.0, 1.5]] * d,
                                 indexing="ij"), -1).reshape(-1, d)
        got = f.log_sup(P)
        inside = np.all(P <= 1.0, axis=1)
        assert np.all(got[inside] == 0.0)
        assert np.all(np.isposinf(got[~inside]))
        assert f.sup_norm() == 1.0
