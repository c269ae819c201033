"""Print one `name exit_code determinism_hash` line per config of a fixed
CLI set, so that two checkouts can be compared for identical results.

    PYTHONPATH=src python3 tools/determinism_hashes.py > hashes.txt

Run it on both checkouts and diff the outputs; any difference in a hash
means a report changed.  The 30 cases, in the order printed:

- solve-john: the two-point bump and a d = 3 decomposition bump, both
  certified (exact route); the d = 2 Gaussian and a polar height power
  (radial route); a positioned exp-norm under a ball indicator (composed
  with the radial solve of its inner function);
- fixed-height: the two-point bump at xi = 0.5 and a positioned d = 2
  bump at xi = 1.0 (exact route);
- polar: six variants on a 7x7 lattice;
- john-check and sandwich of the two-point bump, the d = 2 Gaussian, the
  d = 3 decomposition bump, the positioned d = 2 bump, a d = 2 bump with a
  boundary anchor (a wall tangent to the unit sphere), and the d = 2
  Gaussian at its John position in closed form, alpha = e / sqrt(3) and
  A = Id / sqrt(1.5) (in d dimensions r = sqrt((d+1)/2) and
  alpha* = sqrt(d+1) e^{-d/2}, which the radial solve matches to 2 ulps
  in d = 1-3);
- the free and fixed-height (xi = 0.25) solves of a half-restricted d = 2
  Gaussian (cut route), the certified free solves of the d = 2 Gaussian
  and of its half-restriction, and a fixed height of 1e-7 on
  (1 - |x|^2)_+ in d = 2 (radial route), attained 1.3e-15 from the edge of
  its support.

They take 1-2 s on a shared two-core machine.  The history of each line
is in CHANGES.md.  When height_below and the sandwich's left side came to
share one check, routed as the solver routes f, only
john-check/gaussian-2 changed: its height_below turned from sampled to
exact, 0.15342640972002747 to 0.15342640972002736.  The two
john-position-gaussian-2 cases were added then; they read sampled labels
before that change and exact ones after, and exit 0 on both.
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
# the d = 2 Gaussian at its John position: alpha = 1 / alpha* and
# A = Id / r for the radial optimum r Id, alpha*
JOHN_GAUSSIAN_2 = {**GAUSSIAN_2, "position": {
    "alpha": math.e / math.sqrt(3.0),
    "A": [[1.0 / math.sqrt(1.5), 0.0], [0.0, 1.0 / math.sqrt(1.5)]]}}
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
                      ("boundary-anchor-bump-2", BOUNDARY_BUMP_2),
                      ("john-position-gaussian-2", JOHN_GAUSSIAN_2))],
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
