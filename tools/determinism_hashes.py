"""Print one `name exit_code determinism_hash` line per config of a fixed
CLI set, so that two checkouts can be compared for identical results.

    PYTHONPATH=src python3 tools/determinism_hashes.py > hashes.txt

Run it on both checkouts and diff the outputs; any difference in a hash
means a report changed.  The set covers free solves (the two-point bump and
a d = 3 decomposition bump on the exact route; the Gaussian and a polar
height power on the radial route, and a positioned exp-norm under a ball
indicator composed with the radial solve of its inner function),
fixed-height solves of the two-point bump and of a positioned d = 2 bump on
the exact route, the polar of six variants on a 7x7 lattice, and the
john-check and sandwich certificates of the two-point bump, the Gaussian
(radial polar floor), a d = 3 decomposition bump (polar floor from its
lower facets), the positioned d = 2 bump, and a d = 2 bump with a boundary
anchor (a wall tangent to the unit sphere, polar floor from the lower
facets of its normal form's cone, wall included), then the free and
fixed-height solves of a half-restricted d = 2 Gaussian on the cut route,
the certified free solves of the d = 2 Gaussian (radial route) and of its
half-restriction (cut route), and last a fixed height of 1e-7 on
(1 - |x|^2)_+ in d = 2 (radial route), attained 1.3e-15 from the edge of
its support.  The 28 cases take 1-2 s on a shared two-core machine.

Two changes to the exact barrier (funcjohn.exact) changed the hashes of the
seven cases that run a barrier solve, through their newton_steps and the
last bits of their positions: first its predictor step, then its start
from lower facets in place of HiGHS, which moves the start to another
point of the start ball's optimal face, or by its last bits.  The seven are
solve-john/two-point-bump, solve-john/decomposition-bump-3,
fixed-height/two-point-bump-0.5, fixed-height/positioned-bump-2-1.0,
solve-john/half-restriction-gaussian-2,
fixed-height/half-restriction-gaussian-2-0.25 and
solve-john/half-restriction-gaussian-2-certified.  Both times their exit
codes and the other 20 lines stayed the same.  The polar floor of the
boundary-anchor bump then turned from sampled (1,000 HiGHS LPs, about 4 s)
to exact, which changed john-check/boundary-anchor-bump-2 and
sandwich/boundary-anchor-bump-2 through the floor and its label; the same
change reads the start of solve-john/decomposition-bump-3 off another
triangulation, which sums the centre of its optimal face in another order
and moves its position by last bits.  Every exit code stayed the same.

The radial route then computed m(r) exactly, from the stationary point of
the gap, for every library f under a height power w and for every radial f
under a ball indicator, in place of a grid and Brent search.  That changed
the four lines whose solves take such a pair, solve-john/gaussian-2,
solve-john/gaussian-2-certified, solve-john/polar-height-power-2 and
solve-john/positioned-expnorm-ball, through their certificate label (now
exact), their contacts (the sphere where m(r) is attained in place of grid
radii near it), the Gaussian's m_evaluations, and the positions of the
Gaussian (r = 1.2247448616 became 1.2247448715, nearer sqrt(1.5), with the
objective within 5e-16) and of the polar height power (in the 11th digit).
Every exit code and the other 23 lines stayed the same, and the
case fixed-height/height-power-2-1e-7 was added to pin where the bisection
for a fixed height now stops: at the last float r below the edge where the
height is still attained.

The radial variants then derived log f, S and the integral from their
profiles (lcfunc.Radial), which changed seven lines by rounding; every
exit code and the other 21 lines stayed the same.
solve-john/polar-height-power-2: the profile of the polar height power is
minus the support function of hbar^s from the one formula that the height
powers' S and its derivatives use, whose maximizer 2c / (s + q) does not
cancel, and its gap rule reads that profile; on the flat optimum r moved
by 2.2e-11 relative, alpha by 4.5e-11 and the contact radius by 6.4e-12,
and the objective by 1 ulp.  polar/height and polar/height_power: S of
hbar^s comes from that formula too (values move by at most 2.8e-16
relative).  polar/polar_height_power: its S is the closed form
-(s/2) log(1 - c^2) in place of a bounded search (at most 1.1e-16).
john-check/gaussian-2: height_below samples log hbar - log f, both now the
profile at |x| in place of 1 - <x, x> and -<x, x> (3.6e-16).
solve-john/half-restriction-gaussian-2 and its -certified twin: the cut
route's sample of hbar and the Gaussian's values are read the same way
(alpha 2.0e-16, objective 1.9e-16).

The radial route's free solve then took its optimum at the root of the
objective's derivative, closed to adjacent floats, in place of a bounded
Brent search on its values.  That changed the four lines that solve such a
pair free, through r, alpha, the contact radius and m_evaluations:
solve-john/gaussian-2 and solve-john/gaussian-2-certified (r =
1.224744871453244 became 1.2247448713915892, one ulp above sqrt(1.5); the
objective the same float; 20 m evaluations became 11),
solve-john/polar-height-power-2 (r = 3.4641016142973853 became
3.4641016151377544, sqrt(12) to the last bit; objective by 6.7e-16; 17 to
9) and solve-john/positioned-expnorm-ball (the inner r = 2 is now exact,
so the composed A reads 2.4 where it read 2.4000000339; objective by
8.9e-16; 22 to 5).  ExpNorm's support function lost the cancellation of
c r - r^p and the roundings of c / p and 1 / (p - 1), which moved
polar/expnorm: 28 of its 49 values by at most 3.4e-16 relative.  Every
exit code and the other 23 lines stayed the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from funcjohn.cli import main
from funcjohn.decomp import generate_decomposition

R2 = 1.0 / math.sqrt(2.0)
TWO_POINT_BUMP = {"variant": "bump", "dimension": 1,
                  "anchors": [[R2], [-R2]]}
GAUSSIAN_2 = {"variant": "gaussian", "dimension": 2}
# a boundary anchor (1, 0): its wall <(1, 0), x> >= 1 touches the unit
# sphere where hbar vanishes
BOUNDARY_BUMP_2 = {"variant": "bump", "dimension": 2,
                   "anchors": [[1.0, 0.0], [-0.5, 0.6], [-0.5, -0.6]]}
HALF_GAUSSIAN_2 = {"variant": "half_restriction", "dimension": 2,
                   "normal": [1.0, 0.0], "inner": GAUSSIAN_2}


def _decomposition_bump(d: int, seed: int) -> dict:
    return {"variant": "bump", "dimension": d, "anchors": [
        list(u) for u in generate_decomposition(d, seed).points]}


POSITIONED_BUMP_2 = {**_decomposition_bump(2, 0), "position": {
    "alpha": 1.5, "A": [[1.2, 0.3], [0.3, 0.8]], "a": [0.1, -0.2]}}
LATTICE_7X7 = [[x, y] for x in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
               for y in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)]
POLAR_VARIANTS = {
    "height": {"variant": "height", "dimension": 2},
    "height_power": {"variant": "height_power", "dimension": 2, "s": 2.0},
    "gaussian": GAUSSIAN_2,
    "expnorm": {"variant": "expnorm", "dimension": 2, "p": 1.5},
    "polar_height_power": {"variant": "polar_height_power", "dimension": 2,
                           "s": 2.0},
    "ball_indicator": {"variant": "ball_indicator", "dimension": 2,
                       "radius": 1.5, "center": [0.25, -0.5]},
}

# (name, argv before --config, config)
CASES = [
    ("solve-john/two-point-bump", ["solve-john"],
     {"f": TWO_POINT_BUMP, "certify": True}),
    ("solve-john/decomposition-bump-3", ["solve-john"],
     {"f": _decomposition_bump(3, 0), "certify": True}),
    ("solve-john/gaussian-2", ["solve-john"], {"f": GAUSSIAN_2}),
    ("solve-john/polar-height-power-2", ["solve-john"],
     {"f": {"variant": "polar_height_power", "dimension": 2, "s": 2.0}}),
    ("solve-john/positioned-expnorm-ball", ["solve-john"],
     {"f": {"variant": "expnorm", "dimension": 2, "p": 1.0,
            "position": {"alpha": 1.5, "A": [[1.2, 0.3], [0.3, 0.8]],
                         "a": [0.1, -0.2]}},
      "w": {"variant": "ball_indicator", "dimension": 2, "radius": 1.0}}),
    ("fixed-height/two-point-bump-0.5", ["fixed-height", "--xi", "0.5"],
     {"f": TWO_POINT_BUMP}),
    ("fixed-height/positioned-bump-2-1.0", ["fixed-height", "--xi", "1.0"],
     {"f": POSITIONED_BUMP_2}),
    *[(f"polar/{name}", ["polar"], {"f": f, "points": LATTICE_7X7})
      for name, f in POLAR_VARIANTS.items()],
    *[(f"{cmd}/{name}", [cmd], {"f": f})
      for cmd in ("john-check", "sandwich")
      for name, f in (("two-point-bump", TWO_POINT_BUMP),
                      ("gaussian-2", GAUSSIAN_2),
                      ("decomposition-bump-3", _decomposition_bump(3, 0)),
                      ("positioned-bump-2", POSITIONED_BUMP_2),
                      ("boundary-anchor-bump-2", BOUNDARY_BUMP_2))],
    ("solve-john/half-restriction-gaussian-2", ["solve-john"],
     {"f": HALF_GAUSSIAN_2}),
    ("fixed-height/half-restriction-gaussian-2-0.25",
     ["fixed-height", "--xi", "0.25"], {"f": HALF_GAUSSIAN_2}),
    ("solve-john/gaussian-2-certified", ["solve-john"],
     {"f": GAUSSIAN_2, "certify": True}),
    ("solve-john/half-restriction-gaussian-2-certified", ["solve-john"],
     {"f": HALF_GAUSSIAN_2, "certify": True}),
    ("fixed-height/height-power-2-1e-7", ["fixed-height", "--xi", "1e-7"],
     {"f": {"variant": "height_power", "dimension": 2, "s": 2.0}}),
]


def run_case(argv: list[str], config: dict, workdir: Path) -> tuple[int, str]:
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
    report = out / "report.json"
    digest = json.loads(report.read_text())["determinism_hash"] \
        if report.is_file() else "-"
    return code, digest


def main_hashes() -> int:
    for name, argv, config in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, digest = run_case(argv, config, Path(tmp))
        print(f"{name} {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_hashes())
