"""Acceptance corpus: eleven numbered criteria, each a self-contained check
returning a pass/fail record.

The CLI `corpus` command and the test suite both call `run_criterion`; the
bump corpus used by several criteria is built once and cached.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import polar
from .bump import JohnBumpFunction, bump_from_decomposition, norm_gap_probe
from .decomp import (
    FunctionalJohnDecomposition,
    generate_decomposition,
    hull_ball_margin,
    verify_decomposition,
)
from .johnsolve import (
    extract_and_certify,
    height_curve,
    phi_concavity_violation,
    solve_john,
)
from .lcfunc import Height, Positioned
from .position import interpolate_positions, make_position, position_integral
from .verify import lowner_counterexample, polar_floor, sandwich_construct

CORPUS_DIMS = (1, 2, 3)
CORPUS_BUMPS_PER_DIM = 100


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def verdict_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{tag}] {self.name}: "
                f"{self.detail} ({self.seconds:.1f}s)")


def two_point_bump_d1() -> JohnBumpFunction:
    """The d=1 bump with anchors +-1/sqrt(2) and weights {1, 1}."""
    r = 1.0 / math.sqrt(2.0)
    dec = FunctionalJohnDecomposition(points=((r,), (-r,)), weights=(1.0, 1.0))
    return bump_from_decomposition(dec)


@lru_cache(maxsize=None)
def bump_corpus(d: int, count: int = CORPUS_BUMPS_PER_DIM
                ) -> tuple[JohnBumpFunction, ...]:
    return tuple(bump_from_decomposition(generate_decomposition(d, seed))
                 for seed in range(count))


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def criterion_1() -> tuple[bool, str]:
    """1000 generated decompositions per dimension satisfy the three
    identities to 1e-10 and the weight sum to 1e-9."""
    worst = 0.0
    worst_sum = 0.0
    for d in CORPUS_DIMS:
        for seed in range(1000):
            res = verify_decomposition(generate_decomposition(d, seed))
            m = max(res.outer_identity, res.height_sum, res.center_of_mass)
            worst = max(worst, m)
            worst_sum = max(worst_sum, res.weight_sum)
            if m > 1e-10 or res.weight_sum > 1e-9:
                return False, (f"d={d} seed={seed} residual {m:.2e} "
                               f"weight-sum residual {res.weight_sum:.2e}")
    return True, (f"3000 decompositions, max residual {worst:.2e}, "
                  f"max weight-sum residual {worst_sum:.2e}")


def criterion_2() -> tuple[bool, str]:
    """Convex hulls of decomposition points contain the ball of radius
    1/(d+1); the two-point d=1 case has margin 1/sqrt(2) - 1/2 exactly."""
    worst = math.inf
    for d in CORPUS_DIMS:
        for seed in range(1000):
            margin = hull_ball_margin(generate_decomposition(d, seed)).margin
            worst = min(worst, margin)
            if margin < -1e-9:
                return False, f"d={d} seed={seed} margin {margin:.2e}"
    hand = hull_ball_margin(two_point_bump_d1().decomposition).margin
    expect = 1.0 / math.sqrt(2.0) - 0.5
    if abs(hand - expect) > 1e-12:
        return False, f"two-point margin {hand!r} != {expect!r}"
    return True, f"min margin {worst:.4f}; two-point margin exact"


def criterion_3() -> tuple[bool, str]:
    """Inclusion: hbar <= bump by construction, and the polar floor of each
    corpus bump, exact from its lower facets, is >= e^{-(d+1)} on B/(d+1)."""
    worst_gap = math.inf
    for d in CORPUS_DIMS:
        for seed, bf in enumerate(bump_corpus(d)):
            floor, how = polar_floor(bf.function, seed)
            gap = floor - math.exp(-(d + 1))
            worst_gap = min(worst_gap, gap)
            if gap < -1e-9 or how != "exact":
                return False, f"d={d} seed={seed} {how} floor gap {gap:.2e}"
    return True, f"300 bumps, exact min polar-floor gap {worst_gap:.4f}"


def criterion_4() -> tuple[bool, str]:
    """sup norm of every corpus bump is at most e^d with a strictly positive
    gap; the two-point d=1 bump peaks at e/sqrt(2) exactly."""
    min_gap = math.inf
    for d in CORPUS_DIMS:
        for bf in bump_corpus(d):
            rec = norm_gap_probe(bf)
            min_gap = min(min_gap, rec.gap)
            if rec.sup_norm > math.exp(d) or rec.gap <= 0.0:
                return False, f"d={d} sup {rec.sup_norm!r} gap {rec.gap!r}"
    hand = two_point_bump_d1().function.sup_norm()
    expect = math.e / math.sqrt(2.0)
    if abs(hand - expect) > 1e-12:
        return False, f"two-point sup {hand!r} != {expect!r}"
    return True, f"min gap {min_gap:.4f} > 0; e/sqrt(2) peak exact"


def criterion_5() -> tuple[bool, str]:
    """Sandwich construction certifies on the corpus; the d=1 record carries
    the constants (left floor 1, envelope sqrt(2)*exp(-|x|/3+2))."""
    for d in CORPUS_DIMS:
        for seed, bf in enumerate(bump_corpus(d)):
            rec = sandwich_construct(bf.function, seed=seed)
            if not rec.passed:
                return False, (f"d={d} seed={seed} left={rec.left_min:.3e} "
                               f"right={rec.right_log_gap_bound:.3e}")
    rec = sandwich_construct(two_point_bump_d1().function)
    ok = (rec.left_floor == 1.0
          and rec.right_envelope == "sqrt(2)*exp(-|x|/3+2)")
    if not ok:
        return False, f"d=1 constants missing: {rec.right_envelope}"
    return True, "300 sandwiches certified; d=1 constants verbatim"


def criterion_6() -> tuple[bool, str]:
    """Solver fixed point: (Height, Height) returns the identity position;
    the two-point d=1 bump solve certifies with weights {1, 1}."""
    for d in (1, 2):
        rep = solve_john(Height(d), Height(d))
        dev = max(abs(rep.position.alpha - 1.0),
                  float(np.max(np.abs(rep.position.matrix() - np.eye(d)))),
                  float(np.max(np.abs(rep.position.a_vector()))))
        if not rep.feasible or dev > 1e-4:
            return False, f"(Height, Height) d={d} deviation {dev:.2e}"
    bf = two_point_bump_d1()
    rep = solve_john(bf.function, Height(1))
    dev = max(abs(rep.position.alpha - 1.0),
              abs(rep.position.matrix()[0, 0] - 1.0),
              abs(rep.position.a_vector()[0]))
    if not rep.feasible or dev > 1e-3:
        return False, f"two-point bump deviation {dev:.2e}"
    rep = extract_and_certify(bf.function, rep)
    w = rep.recovered_weights
    if w is None or len(w) != 2 or max(abs(v - 1.0) for v in w) > 1e-3:
        return False, f"weight recovery failed: {w}"
    return True, (f"identity fixed points hit; recovered weights "
                  f"({w[0]:.6f}, {w[1]:.6f})")


def criterion_7() -> tuple[bool, str]:
    """Equivariance: solver objectives of positive-definite conjugates match
    base objective + log(alpha |det T|) within 1e-3 relative."""
    rng = np.random.default_rng(7)
    base_cache: dict[tuple[int, int], float] = {}
    worst = 0.0
    for trial in range(20):
        d = 1 + trial % 2
        idx = trial % 5
        bf = bump_corpus(d)[idx]
        key = (d, idx)
        if key not in base_cache:
            base_cache[key] = solve_john(bf.function, Height(d)).objective
        B = rng.standard_normal((d, d))
        T = B @ B.T + (0.3 + rng.random()) * np.eye(d)
        alpha = 0.5 + 2.0 * rng.random()
        shift = 0.5 * rng.uniform(-1.0, 1.0, size=d)
        pos = make_position(alpha, T, shift, positive_definite=True)
        g = Positioned(inner=bf.function, position=pos)
        rep = solve_john(g, Height(d))
        expect = base_cache[key] + math.log(alpha) + math.log(abs(pos.det()))
        rel = abs(rep.objective - expect) / max(abs(expect), 1.0)
        worst = max(worst, rel)
        if not rep.feasible or rel > 1e-3:
            return False, f"trial {trial} d={d} relative error {rel:.2e}"
    return True, f"20 conjugations, max relative objective error {worst:.2e}"


def criterion_8() -> tuple[bool, str]:
    """Height curve of the two-point d=1 bump: Phi(t) passes the midpoint
    concavity test, and t0 >= -d + log sup_norm(f)."""
    bf = two_point_bump_d1()
    f = bf.function
    alphas = np.exp(np.linspace(math.log(0.05), math.log(1.9), 20))
    samples = height_curve(f, Height(1), list(alphas))
    n_ok = sum(s.feasible for s in samples)
    if n_ok < 18:
        return False, f"only {n_ok}/20 curve samples feasible"
    violation = phi_concavity_violation(samples)
    if violation > 1e-4:
        return False, f"concavity violation {violation:.2e}"
    t0 = math.log(Height(1).sup_norm())
    if t0 < -1 + math.log(f.sup_norm()) - 1e-12:
        return False, f"endpoint bound fails: t0 = {t0}"
    return True, (f"{n_ok}/20 samples feasible, concavity violation "
                  f"{violation:.2e}, endpoint bound holds")


def criterion_9() -> tuple[bool, str]:
    """Interpolation of positions: Minkowski determinant-root inequality and
    integral geometric-mean inequality with correct equality cases."""
    rng = np.random.default_rng(9)
    for d in CORPUS_DIMS:
        for trial in range(1000):
            B1 = rng.standard_normal((d, d))
            B2 = rng.standard_normal((d, d))
            A1 = B1 @ B1.T + 0.5 * np.eye(d)
            A2 = B2 @ B2.T + 0.5 * np.eye(d) if trial % 10 else A1.copy()
            beta = rng.random()
            mid = beta * A1 + (1.0 - beta) * A2
            lhs = np.linalg.det(mid) ** (1.0 / d)
            rhs = (beta * np.linalg.det(A1) ** (1.0 / d)
                   + (1.0 - beta) * np.linalg.det(A2) ** (1.0 / d))
            if lhs < rhs - 1e-10:
                return False, f"d={d} trial={trial} det-root gap {lhs - rhs:.2e}"
            p1 = make_position(1.0 + rng.random(), A1, rng.standard_normal(d),
                               positive_definite=True)
            p2 = make_position(1.0 + rng.random(), A2, rng.standard_normal(d),
                               positive_definite=True)
            interp = interpolate_positions(p1, p2, beta)
            gm = math.sqrt(position_integral(p1, 1.0) ** (2 * beta)
                           * position_integral(p2, 1.0) ** (2 * (1 - beta)))
            gap = position_integral(interp, 1.0) - gm
            if gap < -1e-10:
                return False, f"d={d} trial={trial} integral gap {gap:.2e}"
            equal_inputs = np.max(np.abs(A1 - A2)) <= 1e-8
            if equal_inputs and abs(gap) > 1e-10 * max(gm, 1.0):
                return False, f"d={d} trial={trial} equality case gap {gap:.2e}"
            if not equal_inputs and beta * (1 - beta) > 0.01 \
                    and np.max(np.abs(A1 - A2)) > 0.1 and gap <= 1e-10:
                return False, f"d={d} trial={trial} strictness fails {gap:.2e}"
    return True, "3000 pairs: both inequalities and equality detection hold"


def criterion_10() -> tuple[bool, str]:
    """Polar engine exactness: value at 0 is 1/sup norm; majorant atoms match
    the LP polar; the dominated-bump polar inequality holds."""
    cases = [Height(d) for d in CORPUS_DIMS]
    cases += [bf.function for d in CORPUS_DIMS for bf in bump_corpus(d)[:20]]
    worst = 0.0
    for f in cases:
        err = abs(polar.polar_eval(f, np.zeros(f.dim)) - 1.0 / f.sup_norm())
        worst = max(worst, err)
        if err > 1e-9:
            return False, f"zero-point identity off by {err:.2e} on {f}"
    rng = np.random.default_rng(10)
    for trial in range(100):
        d = 1 + trial % 3
        u = rng.uniform(-1.0, 1.0, size=d)
        u *= (0.05 + 0.85 * rng.random()) / np.linalg.norm(u)
        atom = polar.polar_of_ell(u)
        from .lcfunc import Bump
        lp = polar.polar_eval(Bump(anchors=(tuple(u),)),
                              np.asarray(atom.location))
        if abs(lp - atom.mass) > 1e-9:
            return False, f"atom mismatch {abs(lp - atom.mass):.2e} at u={u}"
    for trial in range(100):
        d = 1 + trial % 2
        bf = bump_corpus(d)[trial % CORPUS_BUMPS_PER_DIM]
        g = bf.function
        U = bf.decomposition.point_array()
        u = U[trial % U.shape[0]]
        if not 0.0 < np.linalg.norm(u) < 1.0:
            continue
        lhs = polar.polar_eval(g, u)
        rhs = polar.polar_eval(g, np.zeros(d)) / math.e
        if lhs < rhs - 1e-9:
            return False, f"dominated-bump bound fails by {rhs - lhs:.2e}"
    return True, f"identity max error {worst:.2e}; atoms and bound hold"


def criterion_11() -> tuple[bool, str]:
    """Half-restriction counterexample: improperness probe pins the polar at
    1, identity dominates, and 200 feasible perturbations never beat the
    base integral."""
    families = [("expnorm", dict(p=1.0)), ("expnorm", dict(p=2.0)),
                ("polar_height_power", dict(s=1.0))]
    min_ratio = math.inf
    for kind, kw in families:
        for d in (1, 2):
            rec = lowner_counterexample(kind, d, trials=200, seed=0, **kw)
            min_ratio = min(min_ratio, rec.min_integral_ratio)
            if not rec.probe_pass:
                return False, f"{kind} d={d} probe values {rec.probe_values}"
            if not rec.passed:
                return False, (f"{kind} d={d}: dom={rec.domination.passed} "
                               f"min ratio {rec.min_integral_ratio:.6f}")
    return True, f"6 records pass; min perturbed/base integral {min_ratio:.4f}"


CRITERIA = {
    1: ("decomposition identities", criterion_1),
    2: ("hull contains the small ball", criterion_2),
    3: ("polar floor on the corpus", criterion_3),
    4: ("norm bound with strict gap", criterion_4),
    5: ("sandwich construction", criterion_5),
    6: ("solver fixed point and certification", criterion_6),
    7: ("solver equivariance", criterion_7),
    8: ("height curve concavity", criterion_8),
    9: ("position interpolation inequalities", criterion_9),
    10: ("polar engine exactness", criterion_10),
    11: ("half-restriction counterexample", criterion_11),
}


def run_criterion(number: int) -> CriterionResult:
    name, fn = CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with the message attached
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(number=number, name=name, passed=passed,
                           detail=detail, seconds=time.perf_counter() - start)


def run_all(numbers=None) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if numbers is None else list(numbers)
    return [run_criterion(n) for n in numbers]
