import json
import os
import pathlib
import subprocess
import sys

import pytest

from lovelock_mass import cli, mass as massmod, metrics, quadrature

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def run(args):
    return cli.main(list(args))


def test_mass_euclidean_exits_clean(capsys):
    code = run(["mass", "--metric", "euclidean", "--n", "5",
                "--quad-level", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0.0
    assert doc["metric"] == "euclidean"


def test_mass_schwarzschild_value(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = run(["mass", "--metric", "schwarzschild", "--k", "1",
                "--n", "6", "--m", "1.0", "--quad-level", "3",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(1.0, abs=1e-3)


def test_rerun_bit_identical(tmp_path):
    # reruns in fresh interpreters at BLAS thread counts 1 and 2 must write
    # the same bytes; exit 2 (fit warning from the saturating model) is
    # fine here.  The sigma2 run covers the Weyl norm on index pairs, the
    # invariance run the planned pushforward einsums and the pair-matrix
    # pullback, the penrose run the Gauss-equation graph curvature, the
    # ellipsoid run horizon sums over 131 072 nodes (a threaded BLAS dot
    # splits sums that long by thread count), the k = 3 run the
    # wedge-power flux tensor, the EGB run the flux vector beside the
    # first-order density.
    ellipsoid = tmp_path / "ellipsoid.json"
    ellipsoid.write_text(json.dumps({
        "metric": {"family": "none", "n": 5},
        "horizon": {"type": "ellipsoid", "semiaxes": [1.7, 0.9, 1.2, 1.95, 1.1]},
        "quad_level": 16}))
    argvs = (["mass", "--metric", "schwarzschild", "--k", "2", "--n", "5",
              "--m", "1.0", "--quad-level", "2"],
             ["mass", "--metric", "egb", "--as", "egb", "--n", "6",
              "--alpha", "0.05", "--m", "1.0", "--quad-level", "2"],
             ["verify", "--suite", "sigma2", "--n", "6", "--seed", "1"],
             ["verify", "--suite", "invariance", "--n", "5", "--seed", "1"],
             ["penrose", "--metric", "schwarzschild-graph", "--n", "5",
              "--m", "1.3", "--quad-level", "4"],
             ["penrose", "--config", str(ellipsoid)],
             ["mass", "--metric", "schwarzschild", "--k", "3", "--n", "7",
              "--m", "1.0", "--quad-level", "2"])
    for argv in argvs:
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-threads{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "lovelock_mass.cli", *argv,
                 "--out", str(out)], env=env, capture_output=True, text=True,
                timeout=600)
            assert proc.returncode in (0, 2), proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv


def test_flux_csv_header(tmp_path):
    csv = tmp_path / "f.csv"
    code = run(["flux", "--metric", "schwarzschild", "--k", "2", "--n", "5",
                "--quad-level", "2", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "# integrand=m2 n=5 k=2"
    assert lines[1] == "r,flux"
    assert len(lines) == 6


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "metric": {"family": "schwarzschild", "k": 2, "n": 5, "m": 1.0},
        "quad_level": 2}))
    code = run(["mass", "--config", str(cfg), "--m", "0.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # the --m flag overrides the config mass, so the metric is flat
    assert abs(doc["value"]) < 1e-12


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metrc": {"family": "euclidean", "n": 5}}))
    code = run(["mass", "--config", str(cfg)])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, message", [
    ("mass", [{"metric": {"family": "euclidean", "n": 5}}],
     "config must be a JSON object"),
    ("mass", {"metric": "schwarzschild"},
     "config metric must be a JSON object"),
    ("mass", {"metric": {"family": "euclidean", "n": 5}, "mass": [20, 40]},
     "config mass must be a JSON object"),
    ("penrose", {"metric": {"family": "none", "n": 5}, "horizon": "sphere"},
     'config horizon must be a JSON object or "none"'),
    ("penrose", {"metric": {"family": "none", "n": 5},
                 "horizon": {"type": "ellipsoid", "semiaxes": 5}},
     "horizon needs a list of 5 semiaxes, got 5"),
], ids=["top-level", "metric", "mass", "horizon", "semiaxes"])
def test_config_shapes_rejected(tmp_path, capsys, command, doc, message):
    # a section of the wrong JSON type is a plain error, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cached_parser_parses_fresh():
    # main reuses the one parser built at import; no flag of one parse may
    # leak into the next
    first = cli._PARSER.parse_args(
        ["mass", "--metric", "euclidean", "--n", "7", "--radii", "2,4"])
    second = cli._PARSER.parse_args(["mass"])
    third = cli._PARSER.parse_args(["verify", "--suite", "sigma2"])
    assert first is not second
    assert (first.metric, first.n, first.radii) == ("euclidean", 7, [2.0, 4.0])
    assert (second.metric, second.n, second.radii) == (None, None, None)
    assert third.command == "verify" and third.n is None
    assert not hasattr(third, "metric")
    assert first.n == 7 and first.command == "mass"


def test_unknown_family_rejected(capsys):
    assert run(["mass", "--metric", "kerr", "--n", "5"]) == 1
    assert "unknown metric.family" in capsys.readouterr().err


def test_dimension_cap(capsys):
    assert run(["mass", "--metric", "euclidean", "--n", "9"]) == 1
    assert "exceeds the supported maximum" in capsys.readouterr().err


def test_unknown_suite_rejected(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_verify_suite_passes(capsys):
    code = run(["verify", "--suite", "sigma2", "--n", "5", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS" in captured.err
    doc = json.loads(captured.out)
    assert doc["checks"][0]["pass"] is True


def test_verify_dimension_zero_rejected(tmp_path, capsys):
    # n = 0 is out of range, from the flag and from the config alike; it
    # once fell back to the default n = 5 and passed
    assert run(["verify", "--suite", "hypersurface", "--n", "0"]) == 1
    assert "error: n must be in [4, 8]" in capsys.readouterr().err
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"suite": "hypersurface", "n": 0}))
    assert run(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "error: n must be in [4, 8]" in captured.err
    assert not captured.out


def test_verify_seed_recorded(capsys):
    run(["verify", "--suite", "hypersurface", "--n", "5", "--seed", "11"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 11
    assert all(c["pass"] for c in doc["checks"])


def test_fit_warning_exit_code(tmp_path, capsys):
    # oscillatory conformal factor gives a non-monotone flux series
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({
        "metric": {"family": "conformal-radial", "n": 5,
                   "u": "sin(r)/r**2"},
        "mass": {"as": "adm", "radii": [20.0, 27.0, 33.0, 41.0]},
        "quad_level": 2}))
    assert run(["mass", "--config", str(cfg)]) == 2


def test_conformal_radial_text_profile(tmp_path):
    # the CLI hands metric.u to metrics as text; the JSON matches that of
    # the same metric built from the profile as a function of r
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "metric": {"family": "conformal-radial", "n": 5,
                   "u": "3/10/(1 + r**2)"},
        "quad_level": 2}))
    out = tmp_path / "c-out.json"
    assert run(["mass", "--config", str(cfg), "--out", str(out)]) == 0
    g = metrics.conformal_radial(5, lambda r: 3 / 10 / (1 + r ** 2))
    est = massmod.mass("gbc", g, massmod.default_radii(),
                       quadrature.sphere_rule(5, 2))
    doc = dict(massmod.mass_estimate_dict(est), metric=g.name, quad_level=2)
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_conformal_radial_rejects_text_outside_the_grammar(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "metric": {"family": "conformal-radial", "n": 5,
                   "u": "__import__('os').getcwd()"},
        "quad_level": 2}))
    assert run(["mass", "--config", str(cfg)]) == 1
    assert "error: profile text must be an expression in r" in \
        capsys.readouterr().err


def test_profile_arithmetic_error_reported(tmp_path, capsys):
    # text inside the grammar can still overflow or divide by zero when
    # evaluated: error and exit 1, not a traceback
    for text in ("9**9**9*r", "1/0 + r"):
        cfg = tmp_path / "arith.json"
        cfg.write_text(json.dumps({
            "metric": {"family": "conformal-radial", "n": 5, "u": text},
            "quad_level": 2}))
        assert run(["mass", "--config", str(cfg)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: "), (text, err)
        assert "Traceback" not in err


def test_penrose_saturated_sphere(capsys):
    code = run(["penrose", "--metric", "schwarzschild-graph", "--n", "5",
                "--m", "1.0", "--quad-level", "3"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert min(doc["slack"]) > -2e-3


def test_penrose_graph_order_out_of_range(capsys):
    # k = n/2 (q = 0) and k > n/2 have no static graph
    for flags in (["--n", "4", "--m", "1"], ["--n", "5", "--k", "3"]):
        code = run(["penrose", "--metric", "schwarzschild-graph", *flags])
        assert code == 1
        assert ("error: require integer 1 <= k < n/2"
                in capsys.readouterr().err)
    # the dimension is checked before any graph is built
    assert run(["penrose", "--metric", "schwarzschild-graph"]) == 1
    assert "error: need metric.n in [4, 8]" in capsys.readouterr().err


def test_bad_radius_schedule_fails_before_any_flux(monkeypatch, capsys):
    def no_flux(*args, **kwargs):
        raise AssertionError("flux computed for a rejected radius schedule")

    monkeypatch.setattr(cli.massmod, "flux", no_flux)
    for flags in (["--ratio", "1"], ["--ratio", "0.5"], ["--r0", "0"]):
        code = run(["mass", "--metric", "schwarzschild", "--n", "5",
                    "--quad-level", "2", *flags])
        assert code == 1
        assert "error: radius schedule needs r0 > 0 and ratio > 1" in \
            capsys.readouterr().err


def test_flux_order_checked_before_integrating(monkeypatch, capsys):
    # flux of an order with 2k >= n fails up front, not after a whole
    # sphere is integrated
    def no_integral(*args, **kwargs):
        raise AssertionError("sphere integrated for a rejected order")

    monkeypatch.setattr(quadrature, "surface_integral", no_integral)
    code = run(["flux", "--metric", "euclidean", "--n", "5", "--k", "3",
                "--quad-level", "2"])
    assert code == 1
    assert "error: require 1 <= k < n/2, got k=3, n=5" in capsys.readouterr().err


def test_penrose_bound_violation_exit(tmp_path, capsys):
    # the Gauss-Bonnet-corrected graph has L_2 < 0 in its bulk, so its
    # second-order mass (about 0.0008) falls below the horizon bound of
    # 0.25 by far more than the tolerance: exit code 3
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "metric": {"family": "egb-graph", "n": 5, "alpha": 0.05, "m": 0.65},
        "quad_level": 3, "tolerance": 0.0}))
    code = run(["penrose", "--config", str(cfg)])
    assert code == 3
    assert min(json.loads(capsys.readouterr().out)["slack"]) < -0.2


@pytest.mark.parametrize("command, doc, message", [
    ("mass", {"metric": {"family": "euclidean", "n": [5]}},
     "metric.n must be a number, got [5]"),
    ("penrose", {"metric": {"family": "none", "n": 5},
                 "horizon": {"type": "sphere", "radius": [1.0]}},
     "horizon.radius must be a number, got [1.0]"),
    ("mass", {"metric": {"family": "euclidean", "n": 5.7}},
     "metric.n must be an integer, got 5.7"),
    ("mass", {"metric": {"family": "schwarzschild", "n": 6, "k": 2.6}},
     "metric.k must be an integer, got 2.6"),
    ("mass", {"metric": {"family": "euclidean", "n": 5}, "quad_level": 2.9},
     "quad_level must be an integer, got 2.9"),
    ("mass", {"metric": {"family": "euclidean", "n": 5},
              "mass": {"count": 4.8}},
     "mass.count must be an integer, got 4.8"),
    ("penrose", {"metric": {"family": "none", "n": 5},
                 "horizon": {"type": "sphere", "radius": 1.0},
                 "tolerance": -1},
     "tolerance must be >= 0.0, got -1.0"),
], ids=["n-list", "radius-list", "n-fraction", "k-fraction",
        "level-fraction", "count-fraction", "tolerance-negative"])
def test_config_numbers_checked(tmp_path, capsys, command, doc, message):
    # a number of the wrong type or out of range is a plain error: never a
    # traceback, and never truncated to a value the config did not name
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert not captured.out


def test_thread_cap_validation(monkeypatch, capsys):
    monkeypatch.setenv("LOVELOCK_MASS_THREADS", "zero")
    with pytest.raises(SystemExit):
        run(["verify", "--suite", "sigma2"])
    monkeypatch.setenv("LOVELOCK_MASS_THREADS", "2")
    assert run(["verify", "--suite", "hypersurface", "--n", "4"]) == 0
    # without threadpoolctl the cap cannot be applied, and stderr says so
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    capsys.readouterr()
    assert run(["verify", "--suite", "hypersurface", "--n", "4"]) == 0
    captured = capsys.readouterr()
    assert ("note: LOVELOCK_MASS_THREADS=2 not applied: threadpoolctl is "
            "not installed") in captured.err
    assert json.loads(captured.out)["suite"] == "hypersurface"


def test_commands_run_without_scipy(tmp_path):
    # every command kind of the benchmark workloads, in one fresh
    # interpreter: the runtime needs numpy alone
    config = tmp_path / "ellipsoid.json"
    config.write_text(json.dumps({
        "metric": {"family": "none", "n": 5},
        "horizon": {"type": "ellipsoid", "semiaxes": [1.5, 1.2, 1.0, 0.9, 1.1]},
        "quad_level": 4}))
    argvs = [["mass", "--metric", "schwarzschild", "--k", "2", "--n", "5",
              "--m", "1.2", "--quad-level", "2"],
             ["mass", "--metric", "egb", "--as", "egb", "--n", "6",
              "--alpha", "0.05", "--m", "1.0", "--quad-level", "2"],
             ["mass", "--metric", "schwarzschild", "--k", "3", "--n", "7",
              "--m", "1.0", "--quad-level", "2"],
             ["penrose", "--metric", "schwarzschild-graph", "--n", "5",
              "--m", "1.3", "--quad-level", "2"],
             ["penrose", "--config", str(config)]]
    argvs += [["verify", "--suite", suite, "--n", "5", "--seed", "1"]
              for suite in sorted(cli._SUITES)]
    script = (
        "import json, sys\n"
        "from lovelock_mass import cli\n"
        f"for i, argv in enumerate({argvs!r}):\n"
        f"    rc = cli.main(argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.json'])\n"
        "    assert rc in (0, 2), (argv, rc)\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_usage_errors_exit_1(capsys):
    # argparse's own code 2 is the fit-warning code, so usage errors exit 1
    with pytest.raises(SystemExit) as exc:
        run(["mass", "--bogus", "1"])
    assert exc.value.code == 1
    assert "error: unrecognized arguments: --bogus 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["mass", "--seed", "1"], ["flux", "--out", "x.json"], ["flux", "--seed", "1"],
    ["flux", "--as", "gbc"], ["verify", "--quad-level", "3"],
    ["penrose", "--seed", "1"], ["penrose", "--as", "gbc"],
    ["penrose", "--radii", "1,2,3,4"], ["penrose", "--r0", "10"],
    ["penrose", "--ratio", "3"], ["penrose", "--count", "5"]])
def test_unread_flags_rejected(argv, capsys):
    # each subcommand takes only the flags it reads
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_config_output_key_rejected(tmp_path, capsys):
    # no command reads "output": results go to --out or stdout
    cfg = tmp_path / "o.json"
    cfg.write_text(json.dumps({"output": str(tmp_path / "x.json"),
                               "suite": "hypersurface", "n": 4}))
    assert run(["verify", "--config", str(cfg)]) == 1
    assert "unknown config keys: ['output']" in capsys.readouterr().err


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(not (PERFBENCH / "tracer.py").exists(),
                    reason="the benchmark harness is not in this checkout")
def test_benchmark_tracer_binds_every_name(tmp_path):
    # the benchmark's tracer rebinds package names by hand; a small op of
    # each command under it fails here when a name it binds is gone
    argvs = [["mass", "--metric", "schwarzschild", "--k", "2", "--n", "6",
              "--m", "1.0", "--quad-level", "2"],
             ["flux", "--metric", "schwarzschild", "--k", "2", "--n", "5",
              "--quad-level", "2", "--csv", str(tmp_path / "f.csv")],
             ["verify", "--suite", "hypersurface", "--n", "4", "--seed", "1"],
             ["penrose", "--metric", "schwarzschild-graph", "--n", "5",
              "--m", "1.0", "--quad-level", "2"]]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracer\n"
        "from lovelock_mass import cli\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        f"for i, argv in enumerate({argvs!r}):\n"
        f"    if argv[0] != 'flux':\n"
        f"        argv = argv + ['--out', {str(tmp_path)!r} + f'/{{i}}.json']\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert t.spans\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
