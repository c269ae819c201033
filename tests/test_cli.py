"""CLI: config parsing, report determinism, CSV output, and exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from funcjohn.cli import (
    EXIT_CERT_FAIL,
    EXIT_CONFIG_ERROR,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ConfigError,
    function_from_config,
    main,
    position_from_config,
    solver_options_from_config,
)
from funcjohn.bump import bump_from_decomposition
from funcjohn.decomp import decomposition_to_records, generate_decomposition
from funcjohn.lcfunc import Bump, Gaussian, Height

R2 = 1.0 / math.sqrt(2.0)
BUMP_CONFIG = {"variant": "bump", "dimension": 1,
               "anchors": [[R2], [-R2]]}


def run(tmp_path, *argv):
    return main([*argv])


def test_function_from_config_variants():
    assert function_from_config({"variant": "height", "dimension": 2}) == \
        Height(2)
    assert function_from_config({"variant": "gaussian", "dimension": 1}) == \
        Gaussian(1)
    f = function_from_config(BUMP_CONFIG)
    assert isinstance(f, Bump)
    assert abs(f.sup_norm() - math.e / math.sqrt(2.0)) < 1e-12
    with pytest.raises(ConfigError):
        function_from_config({"variant": "mystery"})
    with pytest.raises(ConfigError):
        function_from_config(["not", "a", "dict"])


def test_position_form_conversion():
    # forward form alpha w(Ax + a) converts to the inverse convention
    fwd = position_from_config({"alpha": 2.0, "A": [[2.0]], "a": [1.0],
                                "form": "forward"})
    inv = position_from_config({"alpha": 2.0, "A": [[0.5]], "a": [-0.5]})
    assert np.allclose(fwd.matrix(), inv.matrix())
    assert np.allclose(fwd.a_vector(), inv.a_vector())
    with pytest.raises(ConfigError):
        position_from_config({"A": [[1.0]], "form": "sideways"})


def test_positioned_function_from_config():
    f = function_from_config({
        "variant": "height", "dimension": 1,
        "position": {"alpha": 2.0, "A": [[3.0]], "a": [0.0]}})
    assert abs(f.evaluate(np.array([0.0])) - 2.0) < 1e-15
    assert abs(f.sup_norm() - 2.0) < 1e-15


def test_gen_decomp_roundtrip(tmp_path):
    out = tmp_path / "g"
    assert main(["gen-decomp", "--d", "2", "--seed", "7",
                 "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["command"] == "gen-decomp"
    dec = json.loads((out / "decomposition.json").read_text())
    assert dec["dimension"] == 2
    assert len(dec["records"]) == 6


def test_verify_decomp_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    main(["gen-decomp", "--d", "1", "--seed", "0", "--out", str(tmp_path)])
    good.write_text((tmp_path / "decomposition.json").read_text())
    assert main(["verify-decomp", "--config", str(good),
                 "--out", str(tmp_path / "v")]) == EXIT_PASS
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "type": "decomposition", "dimension": 1,
        "records": [{"point": [0.5], "weight": 1.0},
                    {"point": [-0.5], "weight": 1.0}]}))
    assert main(["verify-decomp", "--config", str(bad),
                 "--out", str(tmp_path / "vb")]) == EXIT_CERT_FAIL


def test_bump_command(tmp_path):
    dec = generate_decomposition(2, 0)
    cfg = tmp_path / "dec.json"
    cfg.write_text(json.dumps(decomposition_to_records(dec)))
    out = tmp_path / "b"
    assert main(["bump", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "bump" and report["passed"] is True
    assert report["regular"] is True
    assert report["sup_norm"] == \
        bump_from_decomposition(dec).function.sup_norm()
    assert report["norm_gap"]["gap"] > 0
    cfg.write_text(json.dumps({"type": "decomposition", "dimension": 2}))
    assert main(["bump", "--config", str(cfg),
                 "--out", str(tmp_path / "m")]) == EXIT_CONFIG_ERROR


def test_off_centre_ball_is_a_composed_radial_solve(tmp_path):
    # the CLI builds a ball with a "center" as a translated centred ball,
    # which composition hands to the radial route
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": {
        "variant": "ball_indicator", "dimension": 2, "radius": 1.5,
        "center": [0.25, -0.5]}}))
    out = tmp_path / "s"
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    solve = json.loads((out / "report.json").read_text())["solve"]
    assert solve["diagnostics"]["engine"] == "radial"
    assert solve["diagnostics"]["composed"] is True
    assert solve["feasible"] is True
    assert abs(solve["objective"] - 2.0 * math.log(1.5)) <= 1e-12
    assert np.allclose(solve["position"]["A"], 1.5 * np.eye(2),
                       rtol=0.0, atol=1e-12)
    assert solve["position"]["a"] == [0.25, -0.5]


def test_missing_config_is_config_error():
    assert main(["solve-john"]) == EXIT_CONFIG_ERROR
    assert main(["polar", "--config", "/nonexistent/path.json"]) \
        == EXIT_CONFIG_ERROR


def test_precondition_failure_exit(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG}))
    assert main(["fixed-height", "--config", str(cfg), "--xi", "99",
                 "--out", str(tmp_path / "x")]) == EXIT_PRECONDITION


def test_solve_john_refuses_half_restriction(tmp_path, capsys):
    # of a bounded support, which tangent cuts cannot follow
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": {
        "variant": "half_restriction", "normal": [1.0],
        "inner": {"variant": "height", "dimension": 1}}}))
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(tmp_path / "h")]) == EXIT_PRECONDITION
    assert "HalfRestriction" in capsys.readouterr().err


def test_solve_john_solves_a_half_restricted_gaussian(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": {
        "variant": "half_restriction", "normal": [1.0],
        "inner": {"variant": "gaussian", "dimension": 1}}}))
    out = tmp_path / "h"
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    solve = json.loads((out / "report.json").read_text())["solve"]
    assert solve["feasible"] is True
    assert solve["diagnostics"]["engine"] == "cuts"
    assert solve["diagnostics"]["certificate"] == "sampled"


@pytest.mark.parametrize("f", [
    {"variant": "gaussian", "dimension": 2},
    {"variant": "half_restriction", "dimension": 2, "normal": [1.0, 0.0],
     "inner": {"variant": "gaussian", "dimension": 2}}],
    ids=["radial", "cuts"])
def test_certify_passes_on_the_radial_and_cut_routes(tmp_path, f):
    # each route reports its contacts, so certification needs neither a
    # normal form nor a position near the identity
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": f, "certify": True}))
    out = tmp_path / "s"
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["certified"] is True
    assert report["solve"]["diagnostics"]["certified"] is True
    assert "certification_error" not in report["solve"]["diagnostics"]


def test_unknown_solver_option_is_config_error(tmp_path, capsys):
    # an option the solver does not know must not be silently ignored
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG,
                               "solver": {"restarts": 1, "step_tol": 1e-10}}))
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(tmp_path / "s")]) == EXIT_CONFIG_ERROR
    assert "step_tol" in capsys.readouterr().err
    # options that became library constants are refused the same way
    for key, value in (("grid_density", 4), ("constraint_tol", 1e-6),
                       ("max_outer_iterations", 50)):
        with pytest.raises(ConfigError, match=key):
            solver_options_from_config({"solver": {key: value}}, seed=0)


def test_certify_needs_the_height_function(tmp_path, capsys):
    # height_power with s = 1 is the height function and certifies; any
    # other w is refused up front instead of silently skipping certify
    cfg = tmp_path / "f.json"
    out = tmp_path / "s"
    w = {"variant": "height_power", "dimension": 1, "s": 1}
    cfg.write_text(json.dumps({"f": BUMP_CONFIG, "w": w, "certify": True,
                               "solver": {"restarts": 1}}))
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    assert json.loads((out / "report.json").read_text())["certified"] is True
    w["s"] = 2
    cfg.write_text(json.dumps({"f": BUMP_CONFIG, "w": w, "certify": True}))
    assert main(["fixed-height", "--config", str(cfg), "--xi", "0.5",
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG_ERROR
    assert "certify" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, config, key", [
    ("solve-john", {"f": {"variant": "height_power", "dimension": 1}}, "'s'"),
    ("solve-john", {"f": BUMP_CONFIG, "solver": {"restarts": "two"}},
     "'restarts'"),
    ("polar", {"f": {"variant": "gaussian", "dimension": 1}}, "'points'"),
    ("verify-decomp", {"type": "decomposition", "dimension": 1},
     "'records'"),
    ("solve-john", {"f": {"variant": "ball_indicator", "dimension": 2,
                          "center": 3}}, "'center'"),
    ("solve-john", {"f": {"variant": "ball_indicator", "dimension": 2,
                          "center": [0.0, 1.0, 2.0]}}, "'center'"),
    ("solve-john", {"f": {"variant": "gaussian", "dimension": 1,
                          "position": {"A": [[1.0]], "a": None}}}, "'a'"),
    ("solve-john", {"f": {"variant": "gaussian", "dimension": 1,
                          "position": {"A": 3}}}, "'A'"),
    ("solve-john", {"f": {"variant": "gaussian", "dimension": 2,
                          "position": {"A": [[1.0, 0.0]]}}}, "'A'"),
    ("solve-john", {"f": {"variant": "gaussian", "dimension": 2,
                          "position": {"A": [[1.0, 0.0], [0.0, None]]}}},
     "'A'"),
])
def test_missing_or_ill_typed_key_is_config_error(tmp_path, capsys, command,
                                                  config, key):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
    assert key in capsys.readouterr().err


def test_solve_john_certifies_two_point(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG, "certify": True,
                               "solver": {"restarts": 1}}))
    out = tmp_path / "s"
    assert main(["solve-john", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["solve"]["feasible"] is True
    assert report["certified"] is True
    w = report["solve"]["recovered_weights"]
    assert np.allclose(w, [1.0, 1.0], atol=1e-3)


def test_height_curve_csv_schema(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG,
                               "alphas": [0.5, 1.0],
                               "solver": {"restarts": 1}}))
    out = tmp_path / "hc"
    assert main(["height-curve", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_PASS
    with open(out / "curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "t", "psi", "phi", "feasible",
                       "max_violation"]
    assert len(rows) == 3
    assert abs(float(rows[2][2]) - 1.0) < 1e-3  # psi(1) = 1


def test_polar_command(tmp_path):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"f": {"variant": "gaussian", "dimension": 1},
                               "points": [[0.0], [2.0]]}))
    out = tmp_path / "p"
    assert main(["polar", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert abs(report["values"][0] - 1.0) < 1e-12
    assert abs(report["values"][1] - math.exp(-1.0)) < 1e-12


def test_john_check_and_determinism(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG}))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["john-check", "--config", str(cfg), "--seed", "3",
                 "--out", str(a)]) == EXIT_PASS
    assert main(["john-check", "--config", str(cfg), "--seed", "3",
                 "--out", str(b)]) == EXIT_PASS
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra["determinism_hash"] == rb["determinism_hash"]


def test_sandwich_command(tmp_path):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"f": BUMP_CONFIG}))
    out = tmp_path / "sw"
    assert main(["sandwich", "--config", str(cfg), "--out", str(out)]) \
        == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["record"]["right_envelope"] == "sqrt(2)*exp(-|x|/3+2)"


def test_lowner_check_command(tmp_path):
    cfg = tmp_path / "l.json"
    cfg.write_text(json.dumps({"trials": 10}))
    out = tmp_path / "lc"
    assert main(["lowner-check", "--kind", "expnorm", "--p", "2", "--d", "1",
                 "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["record"]["probe_values"] == [1.0, 1.0, 1.0, 1.0]
    assert main(["lowner-check", "--kind", "mystery", "--d", "1"]) \
        == EXIT_CONFIG_ERROR


def test_corpus_subset(tmp_path, capsys):
    out = tmp_path / "corp"
    assert main(["corpus", "--criteria", "1,2", "--out", str(out)]) \
        == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    verdicts = [ln for ln in lines if ln.startswith("criterion")]
    assert len(verdicts) == 2
    assert all("[PASS]" in ln for ln in verdicts)
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert main(["corpus", "--criteria", "99"]) == EXIT_CONFIG_ERROR
    assert main(["corpus", "--criteria", "1,x"]) == EXIT_CONFIG_ERROR


def test_config_roundtrip_stability(tmp_path):
    cfg = {"f": BUMP_CONFIG, "alphas": [0.5, 1.0]}
    text = json.dumps(cfg)
    assert json.loads(json.dumps(json.loads(text))) == cfg


@pytest.mark.parametrize("argv", [
    ["solve-john", "--d", "2"], ["polar", "--seed", "1"],
    ["verify-decomp", "--d", "1"], ["gen-decomp", "--config", "c.json"],
    ["corpus", "--config", "c.json"], ["corpus", "--seed", "1"]])
def test_subcommands_refuse_flags_they_do_not_read(argv, capsys):
    # argparse refuses an unknown flag before any command runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
