"""Exit codes and file outputs of the command line front end."""

import json
import os
import subprocess
import sys

import pytest

import amplasso
import amplasso.cli as cli
from amplasso.experiments import ExperimentRecord
from amplasso.instances import generate, save_instance
from amplasso.state_evolution import SEParams
from amplasso.scalars import get_preset


SMALL = {
    "delta": 0.64, "sigma2": 0.2, "prior": "three_point_0.064",
    "lambda_grid": [0.8], "N_list": [120], "seeds": [0],
    "ensemble": "gaussian", "amp_t_max": 40, "amp_policy": "residual",
}


def small_config(tmp_path, **overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL, **overrides}))
    return str(path)


def test_sweep_writes_csv_and_sidecar(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    side = json.loads((out / "sweep.json").read_text())
    assert side["n_errors"] == 0


def test_sweep_gnuplot_flag(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--gnuplot"]) == 0
    script = (out / "sweep.gp").read_text()
    assert "sweep.csv" in script
    # lambda, mse_lasso and mse_predicted are sweep.csv's columns 1, 5 and 7
    assert "using 1:5 " in script and "using 1:7 " in script


def test_sweep_seed_base(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--seed-base", "7"]) == 0
    body = (out / "sweep.csv").read_text().splitlines()
    assert body[1].split(",")[2] == "7"


def test_missing_config_file(tmp_path):
    assert cli.main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_missing_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"delta": 0.64}))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "missing config key" in capsys.readouterr().err


def test_invalid_value(tmp_path):
    cfg = small_config(tmp_path, lambda_grid=[-1.0])
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("patch", [
    {"sigma2": 0.0}, {"amp_t_max": 0}, {"lasso_max_iter": 0}, {"lasso_tol": 0.0},
    {"amp_t_max": "abc"}, {"amp_t_max": 2.5}, {"amp_stop_tol": "x"}, {"seeds": [1.5]},
])
def test_invalid_value_rejected_before_output(tmp_path, patch):
    cfg = small_config(tmp_path, **patch)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("lambda_grid", [1.0, 1.0, 2.0]), ("N_list", [120, 120]), ("seeds", [0, 0]),
])
def test_repeated_grid_entry_rejected_naming_the_key(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path, **{key: value})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config key {key}: expected distinct" in capsys.readouterr().err


def test_failed_prediction_is_an_error_row(tmp_path):
    cfg = small_config(tmp_path, lambda_grid=[0.8, 1e7])
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[1].endswith(",")  # lambda = 0.8 solved
    assert "ConvergenceError: no alpha" in lines[2]


NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity


def _malformed(case_id, key, obj):
    """A config file text whose error line must name `key`."""
    return pytest.param(json.dumps(obj), key, id=case_id)


MALFORMED = [
    _malformed("prior-int", "prior", {**SMALL, "prior": 3}),
    _malformed("top-level-list", "JSON object", [SMALL]),
    _malformed("lambda_grid-scalar", "lambda_grid", {**SMALL, "lambda_grid": 0.8}),
    _malformed("N_list-scalar", "N_list", {**SMALL, "N_list": 120}),
    _malformed("N_list-fraction", "N_list", {**SMALL, "N_list": [400.7]}),
    _malformed("lambda_bracket-one-entry", "lambda_bracket", {**SMALL, "lambda_bracket": [1.0]}),
    _malformed("seeds-empty", "seeds", {**SMALL, "seeds": []}),
    _malformed("seeds-missing", "seeds", {k: v for k, v in SMALL.items() if k != "seeds"}),
    _malformed("lamda_bracket-misspelled", "lamda_bracket", {**SMALL, "lamda_bracket": [0.1, 2.0]}),
    _malformed("alpah_grid-misspelled", "alpah_grid", {**SMALL, "alpah_grid": [1.0, 2.0]}),
    _malformed("tau2_grid-zero", "tau2_grid", {**SMALL, "tau2_grid": [0.0, 1.0]}),
    _malformed("f_map_alpha-negative", "f_map_alpha", {**SMALL, "f_map_alpha": -1.0}),
    _malformed("out-int", "out", {**SMALL, "out": 5}),
    _malformed("lasso_tol-infinity", "lasso_tol", {**SMALL, "lasso_tol": INF}),
    _malformed("delta-string", "delta", {**SMALL, "delta": "0.64"}),
    _malformed("sigma2-boolean", "sigma2", {**SMALL, "sigma2": True}),
    _malformed("lambda_grid-string", "lambda_grid", {**SMALL, "lambda_grid": ["0.5"]}),
    _malformed("prior-atoms-string-and-boolean", "prior", {**SMALL, "prior": {
        "atoms": ["-1", 0, True], "weights": [0.064, 0.872, 0.064]}}),
    _malformed("prior-weight-nan", "prior", {**SMALL, "prior": {
        "atoms": [-1.0, 0.0, 1.0], "weights": [0.064, NAN, 0.064]}}),
    _malformed("alpha_grid-nan", "alpha_grid", {**SMALL, "alpha_grid": [NAN]}),
    _malformed("lambda_grid-infinity", "lambda_grid", {**SMALL, "lambda_grid": [INF]}),
    _malformed("seeds-negative", "seeds", {**SMALL, "seeds": [-1]}),
    _malformed("amp_stop_tol-nan", "amp_stop_tol", {**SMALL, "amp_stop_tol": NAN}),
    _malformed("tau2_grid-infinity", "tau2_grid", {**SMALL, "tau2_grid": [INF]}),
    _malformed("f_map_alpha-infinity", "f_map_alpha", {**SMALL, "f_map_alpha": INF}),
    _malformed("lambda_bracket-reversed", "lambda_bracket", {**SMALL, "lambda_bracket": [2.0, 0.5]}),
]


@pytest.mark.parametrize("command", ["sweep", "se-curves", "min-lambda", "check-instance"])
@pytest.mark.parametrize("text,key", MALFORMED)
def test_malformed_config_rejected_before_output(tmp_path, capsys, command, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "run"
    argv = [command, "--config", str(path)]
    if command in ("sweep", "se-curves"):
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep"], ["se-curves"], ["min-lambda"],
    ["min-lambda", "--config", "cfg.json", "--out", "run"],
    ["min-lambda", "--config", "cfg.json", "--seed-base", "1"],
    ["se-curves", "--config", "cfg.json", "--seed-base", "1"],
    ["check-instance", "--config", "cfg.json", "--out", "run"],
], ids=" ".join)
def test_missing_or_unread_flag_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "check-instance"])
def test_negative_seed_base_rejected_by_parser(tmp_path, capsys, command):
    out = tmp_path / "run"
    argv = [command, "--config", small_config(tmp_path), "--seed-base", "-3"]
    if command == "sweep":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed-base" in captured.err


def test_check_instance_requires_config_or_file(capsys):
    assert cli.main(["check-instance"]) == 2
    assert "--config or --file" in capsys.readouterr().err


def test_unconverged_reference_solve_exit_code(tmp_path):
    cfg = small_config(tmp_path, lasso_max_iter=5)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    side = json.loads((out / "sweep.json").read_text())
    assert side["n_errors"] == 1
    assert "ConvergenceError" in (out / "sweep.csv").read_text()


def test_sweep_tolerates_other_subcommand_keys(tmp_path):
    # one config file is meant to be shared by all subcommands
    cfg = small_config(tmp_path, lambda_bracket=[0.1, 2.0], alpha_grid=[1.0, 2.0])
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0


def test_sweep_rejects_misspelled_key(tmp_path, capsys):
    cfg = small_config(tmp_path, lamda_grid=[0.5])
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_failed_cell_exit_code(tmp_path, monkeypatch):
    bad = ExperimentRecord(
        lam=0.8, N=120, seed=0, ensemble="gaussian", mse_lasso=float("nan"),
        mse_amp=float("nan"), mse_predicted=float("nan"),
        amp_lasso_gap=float("nan"), l1_lasso=float("nan"),
        l1_predicted=float("nan"), kkt_residual=float("nan"),
        wall_time_generate=0.0, wall_time_lasso=0.0, wall_time_amp=0.0,
        error="RuntimeError: boom")
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: [bad])
    cfg = small_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    side = json.loads((out / "sweep.json").read_text())
    assert side["n_errors"] == 1


def test_se_curves(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "curves"
    rc = cli.main(["se-curves", "--config", cfg, "--out", str(out)])
    assert rc == 0
    for name in ("f_map.csv", "tau_star.csv", "lambda_of_alpha.csv"):
        assert (out / name).exists()


def test_se_curves_custom_grids_and_gnuplot(tmp_path, capsys):
    cfg = small_config(tmp_path, alpha_grid=[0.1, 2.0],
                       tau2_grid=[0.1, 0.4, 0.9], f_map_alpha=1.8)
    out = tmp_path / "curves"
    assert cli.main(["se-curves", "--config", cfg, "--out", str(out),
                     "--gnuplot"]) == 0
    assert (out / "se_curves.gp").exists()
    body = (out / "tau_star.csv").read_text()
    assert "alpha_min" in body and "dropped" in body
    assert "warning" in capsys.readouterr().err.lower()


def test_min_lambda(tmp_path, capsys):
    cfg = small_config(tmp_path, lambda_bracket=[0.1, 2.0])
    assert cli.main(["min-lambda", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "lambda_opt" in text and "mse_opt" in text


def test_min_lambda_default_bracket(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert cli.main(["min-lambda", "--config", cfg]) == 0
    assert "lambda_opt" in capsys.readouterr().out


def test_check_instance_generated(tmp_path, capsys):
    cfg = small_config(tmp_path, N_list=[400])
    assert cli.main(["check-instance", "--config", cfg, "--seed-base", "3"]) == 0
    text = capsys.readouterr().out
    assert "column norms" in text and "pass" in text


def test_check_instance_from_file(tmp_path, capsys):
    params = SEParams(delta=0.64, sigma2=0.2, prior=get_preset("three_point_0.064"))
    inst = generate(params, 400, "gaussian", 5)
    path = tmp_path / "inst.npz"
    save_instance(inst, path)
    cfg = small_config(tmp_path)
    assert cli.main(["check-instance", "--config", cfg, "--file", str(path)]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_instance_bad_file(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"\x00" * 8)
    cfg = small_config(tmp_path)
    assert cli.main(["check-instance", "--config", cfg, "--file", str(path)]) == 2


def test_unknown_subcommand_exits_two(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


NO_SCIPY_SCRIPT = """
import sys
import amplasso
from amplasso.cli import main
cfg, out = sys.argv[1], sys.argv[2]
codes = [main(["sweep", "--config", cfg, "--out", out]),
         main(["se-curves", "--config", cfg, "--out", out]),
         main(["check-instance", "--config", cfg])]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_sweep_se_curves_and_check_instance_run_without_scipy(tmp_path):
    # a fresh interpreter: this test process has SciPy loaded already
    cfg = small_config(tmp_path, lambda_grid=[0.5, 1.5], N_list=[40])
    src = os.path.dirname(os.path.dirname(amplasso.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, cfg, str(tmp_path / "run")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert (tmp_path / "run" / "sweep.csv").exists() and (tmp_path / "run" / "f_map.csv").exists()
