"""Time the barrier solver, funcjohn.exact.Problem, on fixed targets.

    PYTHONPATH=src python3 tools/time_barrier.py [--repeat N]

Each target is solved N times through the public solve; only the time spent
inside Problem.start and Problem.solve is counted.  Per target it prints the
median of each in ms, and per solve the primal-dual steps, the steps of the
last stage at tau_last, the points evaluated and the Newton systems built.
Points are counted as the calls of w's radial_log_sup_derivatives inside
Problem.solve, one per barrier point (line-search trials included), so
that a checkout which evaluates a point more than once shows its repeats.
Newton systems are the calls of Problem._newton: one per step, and the one
that ends the last stage.  The last two columns are the median over the N
solves of the microseconds per call of Problem._point and of
Problem._newton, the barrier's kernel; their timers add about 0.5 us a
call to the solve time.  The targets are the two exact solves of the
john_bump benchmark (corpus bump d = 2 #2 free, d = 1 #0 at xi = 1), corpus
bump #0 free in d = 1-4, and two d = 3 half-restrictions on the cut route,
where one solve runs the barrier on every relaxation.  It writes no files.
"""

from __future__ import annotations

import argparse
import statistics
import time

import funcjohn as fj
from funcjohn import exact


def _corpus_bump(d: int, seed: int):
    return fj.bump_from_decomposition(fj.generate_decomposition(d, seed)) \
        .function


E1 = (1.0, 0.0, 0.0)
TARGETS = [
    ("john_bump d2 #2 free", lambda: fj.solve_john(_corpus_bump(2, 2),
                                                   fj.Height(2))),
    ("john_bump d1 #0 xi=1", lambda: fj.solve_fixed_height(
        _corpus_bump(1, 0), fj.Height(1), 1.0)),
    *((f"corpus d{d} #0 free", lambda d=d: fj.solve_john(_corpus_bump(d, 0),
                                                          fj.Height(d)))
      for d in range(1, 5)),
    ("HalfRestriction(Gaussian(3), e1)", lambda: fj.solve_john(
        fj.HalfRestriction(fj.Gaussian(3), E1), fj.Height(3))),
    ("HalfRestriction(ExpNorm(3, 1.5), e1)", lambda: fj.solve_john(
        fj.HalfRestriction(fj.ExpNorm(3, 1.5), E1), fj.Height(3))),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=10)
    args = parser.parse_args()
    tally = {"start_s": 0.0, "solve_s": 0.0, "last": 0, "steps": 0,
             "points": 0, "inside": False, "point_s": 0.0, "point_calls": 0,
             "newton_s": 0.0, "newton_calls": 0}
    start, solve = exact.Problem.start, exact.Problem.solve
    sigma = fj.HeightPower.radial_log_sup_derivatives

    def timed_start(self, *a):
        t0 = time.perf_counter()
        out = start(self, *a)
        tally["start_s"] += time.perf_counter() - t0
        return out

    def timed_solve(self, *a):
        tally["inside"] = True
        t0 = time.perf_counter()
        sol = solve(self, *a)
        tally["solve_s"] += time.perf_counter() - t0
        tally["inside"] = False
        tally["last"] += sol.last_stage_steps
        tally["steps"] += sol.newton_steps
        return sol

    def counted_sigma(self, c):
        tally["points"] += tally["inside"]
        return sigma(self, c)

    def timed(name, method):
        def wrapper(*a):
            t0 = time.perf_counter()
            try:
                return method(*a)
            finally:
                tally[name + "_s"] += time.perf_counter() - t0
                tally[name + "_calls"] += 1
        return wrapper

    exact.Problem.start, exact.Problem.solve = timed_start, timed_solve
    exact.Problem._point = timed("point", exact.Problem._point)
    exact.Problem._newton = timed("newton", exact.Problem._newton)
    fj.HeightPower.radial_log_sup_derivatives = counted_sigma
    print(f"{'target':38s} {'start ms':>9s} {'solve ms':>9s} "
          f"{'primal_dual':>12s} {'last_stage':>11s} {'points':>7s} "
          f"{'newton':>7s} {'us/point':>9s} {'us/newton':>10s}")
    for name, run in TARGETS:
        starts, solves, per_point, per_newton = [], [], [], []
        for _ in range(args.repeat):
            tally.update(start_s=0.0, solve_s=0.0, last=0, steps=0,
                         points=0, point_s=0.0, point_calls=0, newton_s=0.0,
                         newton_calls=0)
            run()
            starts.append(tally["start_s"])
            solves.append(tally["solve_s"])
            per_point.append(tally["point_s"] / tally["point_calls"])
            per_newton.append(tally["newton_s"] / tally["newton_calls"])
        print(f"{name:38s} {1e3 * statistics.median(starts):9.2f} "
              f"{1e3 * statistics.median(solves):9.2f} "
              f"{tally['steps'] - tally['last']:12d} {tally['last']:11d} "
              f"{tally['points']:7d} {tally['newton_calls']:7d} "
              f"{1e6 * statistics.median(per_point):9.1f} "
              f"{1e6 * statistics.median(per_newton):10.1f}")


if __name__ == "__main__":
    main()
