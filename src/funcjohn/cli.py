"""Command-line entry point.

Configs and reports are JSON (decimal floats round-trip exactly via the
shortest-repr encoding); curve data is emitted as CSV.  Reports carry a
determinism hash computed over everything except the timing field, so two
runs with the same config and seed produce hash-identical reports.

Exit codes: 0 all certificates pass, 1 certificate failure, 2 config parse
error, 3 precondition failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance, polar
from .bump import bump_from_decomposition, norm_gap_probe
from .decomp import (
    decomposition_from_records,
    decomposition_to_records,
    generate_decomposition,
    hull_ball_margin,
    regularize_decomposition,
    verify_decomposition,
)
from .johnsolve import (
    InfeasibleProblemError,
    NoContactsError,
    SolverOptions,
    extract_and_certify,
    height_curve,
    phi_concavity_violation,
    solve_fixed_height,
    solve_john,
)
from .lcfunc import (
    BallIndicator,
    Bump,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    LogConcaveFunction,
    PolarHeightPower,
    Positioned,
)
from .position import make_position
from .verify import (
    john_inclusion_check,
    lowner_counterexample,
    sandwich_construct,
)

EXIT_PASS = 0
EXIT_CERT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_PRECONDITION = 3


class ConfigError(ValueError):
    pass


def _read(data: dict, key: str, kind=lambda v: v, default=...):
    """kind(data[key]), or default when the key is absent; a missing key
    without a default, or a value kind refuses, is a ConfigError naming it."""
    if not isinstance(data, dict) or (key not in data and default is ...):
        raise ConfigError(f"missing config key {key!r}")
    if key not in data:
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _vector(d: int):
    """A reader of a list of d finite numbers, for _read."""
    def read(value) -> np.ndarray:
        v = _floats(value)
        if v.shape != (d,) or not np.all(np.isfinite(v)):
            raise ValueError(f"expected a list of {d} finite numbers")
        return v
    return read


def _square(value) -> np.ndarray:
    """A reader of a square matrix of finite numbers, for _read."""
    M = _floats(value)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.isfinite(M).all():
        raise ValueError("expected a square matrix of finite numbers")
    return M


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def position_from_config(data: dict):
    """Position dict -> AffinePosition.  The stored convention is the
    inverse form g(x) = alpha * w(A^{-1}(x - a)); configs may also supply
    the forward form alpha * w(Ax + a) via "form": "forward", which is
    converted on parse."""
    alpha = _read(data, "alpha", float, 1.0)
    A = _read(data, "A", _square)
    a = _read(data, "a", _vector(A.shape[0]), np.zeros(A.shape[0]))
    form = _read(data, "form", default="inverse")
    if form == "forward":
        Ainv = np.linalg.inv(A)
        A, a = Ainv, -Ainv @ a
    elif form != "inverse":
        raise ConfigError(f"unknown position form {form!r}")
    return make_position(alpha, A, a, positive_definite=_read(
        data, "positive_definite", bool, False))


def function_from_config(data: dict) -> LogConcaveFunction:
    if not isinstance(data, dict) or "variant" not in data:
        raise ConfigError("function config must be a dict with a 'variant'")
    variant = data["variant"]
    d = _read(data, "dimension", int, 1)
    if variant == "height":
        f = Height(dimension=d)
    elif variant == "height_power":
        f = HeightPower(dimension=d, s=_read(data, "s", float))
    elif variant == "ball_indicator":
        f = BallIndicator(dimension=d,
                          radius=_read(data, "radius", float, 1.0))
        if "center" in data:
            f = Positioned(inner=f, position=make_position(
                1.0, np.eye(d), _read(data, "center", _vector(d))))
    elif variant == "gaussian":
        f = Gaussian(dimension=d)
    elif variant == "expnorm":
        f = ExpNorm(dimension=d, p=_read(data, "p", float))
    elif variant == "polar_height_power":
        f = PolarHeightPower(dimension=d, s=_read(data, "s", float))
    elif variant == "bump":
        f = Bump(anchors=_read(data, "anchors", _floats))
    elif variant == "half_restriction":
        f = HalfRestriction(inner=function_from_config(_read(data, "inner")),
                            normal=_read(data, "normal", _floats))
    else:
        raise ConfigError(f"unknown function variant {variant!r}")
    if "position" in data:
        f = Positioned(inner=f, position=position_from_config(data["position"]))
    return f


def solver_options_from_config(data: dict, seed: int) -> SolverOptions:
    opts = _read(data, "solver", dict, {})
    defaults = {f.name: f.default for f in dataclasses.fields(SolverOptions)}
    unknown = sorted(set(opts) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown solver options: {unknown}")
    defaults.update(seed=seed, restarts=2)  # the CLI's own defaults
    # each option is read with the type of its default
    return SolverOptions(**{name: _read(opts, name, type(v), v)
                            for name, v in defaults.items()})


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursive conversion of dataclasses / numpy values into plain JSON
    types; non-finite floats become tagged strings."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"_record": type(obj).__name__}
        out.update({k: _jsonable(v)
                    for k, v in dataclasses.asdict(obj).items()})
        return out
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def determinism_hash(report: dict) -> str:
    scrubbed = {k: v for k, v in report.items() if k != "timing"}
    blob = json.dumps(scrubbed, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_report(report: dict, out_dir: str | None, started: float) -> dict:
    report["timing"] = {"wall_clock_seconds": time.perf_counter() - started}
    report["determinism_hash"] = determinism_hash(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(text + "\n")
    else:
        print(text)
    return report


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return config


def decomposition_from_config(config: dict):
    try:
        return decomposition_from_records(config)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed decomposition config: {exc!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_decomp(args, config, started):
    dec = generate_decomposition(args.d, args.seed)
    if args.regularize:
        dec = regularize_decomposition(dec, args.regularize, seed=args.seed)
    res = verify_decomposition(dec)
    passed = res.passes(1e-10)
    report = {
        "command": "gen-decomp",
        "config": {"d": args.d, "seed": args.seed,
                   "regularize": args.regularize},
        "decomposition": decomposition_to_records(dec),
        "residuals": _jsonable(res),
        "passed": passed,
    }
    write_report(report, args.out, started)
    if args.out:
        Path(args.out, "decomposition.json").write_text(
            json.dumps(decomposition_to_records(dec), indent=2) + "\n")
    return EXIT_PASS if passed else EXIT_CERT_FAIL


def cmd_verify_decomp(args, config, started):
    dec = decomposition_from_config(config)
    res = verify_decomposition(dec)
    margin = hull_ball_margin(dec) if res.passes(1e-8) else None
    passed = margin is not None and margin.margin >= -1e-9
    report = {
        "command": "verify-decomp",
        "config": config,
        "residuals": _jsonable(res),
        "hull_margin": _jsonable(margin) if margin is not None else None,
        "passed": passed,
    }
    write_report(report, args.out, started)
    return EXIT_PASS if passed else EXIT_CERT_FAIL


def cmd_bump(args, config, started):
    dec = decomposition_from_config(config)
    bf = bump_from_decomposition(dec)
    gap = norm_gap_probe(bf) if bf.regular else None
    passed = gap is None or gap.gap > 0
    report = {
        "command": "bump",
        "config": config,
        "regular": bf.regular,
        "anchors": _jsonable(bf.function.anchors),
        "sup_norm": bf.function.sup_norm(),
        "norm_gap": _jsonable(gap),
        "passed": passed,
    }
    write_report(report, args.out, started)
    return EXIT_PASS if passed else EXIT_CERT_FAIL


def cmd_solve_john(args, config, started, fixed_xi=None):
    """solve-john, and with fixed_xi the solve of fixed-height."""
    f = function_from_config(_read(config, "f"))
    w = function_from_config(_read(config, "w", default={
        "variant": "height", "dimension": f.dim}))
    if config.get("certify") and not (isinstance(w, HeightPower) and w.s == 1):
        raise ConfigError("certify needs w to be the height function")
    opts = solver_options_from_config(config, args.seed)
    if fixed_xi is None:
        rep = solve_john(f, w, opts)
    else:
        rep = solve_fixed_height(f, w, fixed_xi, opts)
    certified = None
    if config.get("certify"):
        try:
            rep = extract_and_certify(f, rep)
            certified = rep.recovered_weights is not None
        except (NoContactsError, ValueError) as exc:
            certified = False
            rep = dataclasses.replace(
                rep, diagnostics={**rep.diagnostics,
                                  "certification_error": str(exc)})
    passed = rep.feasible and certified is not False
    report = {
        "command": "solve-john" if fixed_xi is None else "fixed-height",
        "config": config,
        "seed": args.seed,
        "solve": _jsonable(rep),
        "certified": certified,
        "passed": passed,
    }
    write_report(report, args.out, started)
    return EXIT_PASS if passed else EXIT_CERT_FAIL


def cmd_fixed_height(args, config, started):
    xi = args.xi if args.xi is not None else _read(config, "xi", float)
    return cmd_solve_john(args, config, started, fixed_xi=xi)


def cmd_height_curve(args, config, started):
    f = function_from_config(_read(config, "f"))
    w = function_from_config(_read(config, "w", default={
        "variant": "height", "dimension": f.dim}))
    alphas = _read(config, "alphas", lambda v: [float(a) for a in v])
    opts = solver_options_from_config(config, args.seed)
    samples = height_curve(f, w, alphas, opts)
    violation = phi_concavity_violation(samples)
    passed = all(s.feasible for s in samples) and violation <= 1e-6
    rows = [[s.alpha, s.t, s.psi, s.phi, s.feasible, s.max_violation]
            for s in samples]
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        with open(Path(args.out, "curve.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "t", "psi", "phi", "feasible",
                             "max_violation"])
            writer.writerows(rows)
    report = {
        "command": "height-curve",
        "config": config,
        "seed": args.seed,
        "samples": _jsonable(samples),
        "concavity_violation": _jsonable(violation),
        "passed": passed,
    }
    write_report(report, args.out, started)
    return EXIT_PASS if passed else EXIT_CERT_FAIL


def cmd_polar(args, config, started):
    f = function_from_config(_read(config, "f"))
    points = _read(config, "points", _floats)
    if points.ndim == 1:
        points = points[:, None] if f.dim == 1 else points[None, :]
    values = polar.polar_eval_many(f, points)
    report = {
        "command": "polar",
        "config": config,
        "values": _jsonable(values),
        "passed": True,
    }
    write_report(report, args.out, started)
    return EXIT_PASS


def _cmd_record(command: str, check):
    """The subcommand that reports the record check(f, seed) of the f in
    its config: john-check and sandwich."""
    def cmd(args, config, started):
        rec = check(function_from_config(_read(config, "f")), seed=args.seed)
        report = {
            "command": command,
            "config": config,
            "seed": args.seed,
            "record": _jsonable(rec),
            "passed": rec.passed,
        }
        write_report(report, args.out, started)
        return EXIT_PASS if rec.passed else EXIT_CERT_FAIL
    return cmd


def cmd_lowner_check(args, config, started):
    kind = args.kind or config.get("kind")
    if kind not in ("expnorm", "polar_height_power"):
        raise ConfigError("lowner-check needs --kind expnorm or "
                          "polar_height_power")
    rec = lowner_counterexample(
        kind, args.d, p=args.p, s=args.s,
        trials=_read(config, "trials", int, 200), seed=args.seed)
    report = {
        "command": "lowner-check",
        "config": {"kind": kind, "d": args.d, "p": args.p, "s": args.s,
                   **config},
        "seed": args.seed,
        "record": _jsonable(rec),
        "passed": rec.passed,
    }
    write_report(report, args.out, started)
    return EXIT_PASS if rec.passed else EXIT_CERT_FAIL


def cmd_corpus(args, config, started):
    numbers = None
    if args.criteria:
        try:
            numbers = sorted({int(v) for v in args.criteria.split(",")})
        except ValueError as exc:
            raise ConfigError(f"--criteria: {exc}") from exc
        unknown = [n for n in numbers if n not in acceptance.CRITERIA]
        if unknown:
            raise ConfigError(f"unknown criteria: {unknown}")
    results = acceptance.run_all(numbers)
    for res in results:
        print(res.verdict_line(), flush=True)
    passed = all(r.passed for r in results)
    report = {
        "command": "corpus",
        "config": {"criteria": numbers},
        "results": _jsonable(results),
        "passed": passed,
    }
    if args.out:
        write_report(report, args.out, started)
    return EXIT_PASS if passed else EXIT_CERT_FAIL


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# flags beside --out, which every subcommand takes: (flag, type, default)
_CONFIG = ("--config", str, None)
_SEED = ("--seed", int, 0)
_D = ("--d", int, 1)

# each subcommand, and the flags it reads
COMMANDS = {
    "gen-decomp": (cmd_gen_decomp, [_D, _SEED, ("--regularize", int, 0)]),
    "verify-decomp": (cmd_verify_decomp, [_CONFIG]),
    "bump": (cmd_bump, [_CONFIG]),
    "solve-john": (cmd_solve_john, [_CONFIG, _SEED]),
    "fixed-height": (cmd_fixed_height,
                     [_CONFIG, _SEED, ("--xi", float, None)]),
    "height-curve": (cmd_height_curve, [_CONFIG, _SEED]),
    "polar": (cmd_polar, [_CONFIG]),
    "john-check": (_cmd_record("john-check", john_inclusion_check),
                   [_CONFIG, _SEED]),
    "sandwich": (_cmd_record("sandwich", sandwich_construct),
                 [_CONFIG, _SEED]),
    "lowner-check": (cmd_lowner_check,
                     [_CONFIG, _SEED, _D, ("--kind", str, None),
                      ("--p", float, 2.0), ("--s", float, 1.0)]),
    "corpus": (cmd_corpus, [("--criteria", str, None)]),
}

_NEEDS_CONFIG = {"verify-decomp", "bump", "solve-john", "fixed-height",
                 "height-curve", "polar", "john-check", "sandwich"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every in-process call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="funcjohn",
        description="John positions, polars, and decompositions of the "
                    "identity for log-concave functions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", default=None)
        for flag, kind, default in flags:
            p.add_argument(flag, type=kind, default=default)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(getattr(args, "config", None))
        if args.command in _NEEDS_CONFIG and not config:
            raise ConfigError(f"{args.command} requires --config")
        return COMMANDS[args.command][0](args, config, started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, InfeasibleProblemError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
