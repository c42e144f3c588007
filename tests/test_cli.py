"""End-to-end command behavior through run_cli, including exit codes."""

import csv
import json
import math

import numpy as np
import pytest

from crossflux.cli import _worker_count, run_cli
from crossflux.errors import ConfigError
from crossflux.io import read_field, write_field
from crossflux.model import thresholds as model_thresholds
from crossflux.model import ModelSpec, Poly2
from crossflux.spaces import besov_Nk, sobolev_norm
from crossflux.spectral import Field, TorusGrid


MODEL = {
    "d": 1,
    "N": 32,
    "d1": 1.0,
    "d2": 1.0,
    "p": [[1, 0, 1.0], [0, 1, 1.0]],
    "q": [[1, 0, 1.0], [0, 1, 1.0]],
    "eta": None,
    "trunc_delta": None,
}


def run_config(**overrides):
    cfg = {
        "model": dict(MODEL),
        "initial": {
            "kind": "cosine",
            "u_mean": 0.5,
            "u_amp": 0.05,
            "v_mean": 0.6,
            "v_amp": 0.05,
            "mode": 1,
        },
        "dt": 2e-4,
        "t_end": 2e-2,
        "record_every": 10,
        "scheme": "imex",
        "variant": "plain",
    }
    cfg.update(overrides)
    return cfg


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def test_simulate_writes_trajectory(tmp_path):
    cfg = write_json(tmp_path / "run.json", run_config())
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 11
    assert float(rows[0]["mass_u"]) == pytest.approx(0.5, abs=1e-12)
    assert set(rows[0]) == {"t", "mass_u", "mass_v", "min_u", "min_v", "l2_u", "l2_v"}


def test_simulate_blowup_exit_code(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "run.json",
        run_config(
            initial={
                "kind": "cosine",
                "u_mean": 10.0,
                "u_amp": 8.0,
                "v_mean": 10.0,
                "v_amp": 8.0,
                "mode": 1,
            },
            dt=1.0,
            t_end=50.0,
            record_every=1,
        ),
    )
    out = tmp_path / "traj.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert out.exists()  # partial history is still written
    assert "blew up" in capsys.readouterr().err.lower()


def test_verify_passing_checks(tmp_path, capsys):
    # small data: the sup norm includes the mean, and both the energy
    # threshold and the stability delta sit near 0.25 for this model
    cfg = write_json(
        tmp_path / "run.json",
        run_config(
            initial={
                "kind": "cosine",
                "u_mean": 0.10,
                "u_amp": 0.02,
                "v_mean": 0.12,
                "v_amp": 0.02,
                "mode": 1,
            },
            checks={"k": 2.0, "delta": 0.3, "stability_scale": 0.5},
        ),
    )
    report = tmp_path / "report.json"
    code = run_cli(
        [
            "verify",
            "--config",
            cfg,
            "--checks",
            "mass,energy,duality,stability",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    for line in ("mass: pass", "energy: pass", "duality_u: pass", "stability: pass"):
        assert line in text
    names = [r["check"] for r in json.loads(report.read_text())]
    assert names == ["mass", "energy", "duality_u", "duality_v", "stability"]


def test_verify_failing_check_exit_code(tmp_path, capsys):
    # constant data has no decaying mode, so the rate fit cannot pass
    cfg = write_json(
        tmp_path / "run.json",
        run_config(
            initial={
                "kind": "cosine",
                "u_mean": 0.5,
                "u_amp": 0.0,
                "v_mean": 0.6,
                "v_amp": 0.0,
                "mode": 1,
            }
        ),
    )
    report = tmp_path / "report.json"
    code = run_cli(
        ["verify", "--config", cfg, "--checks", "mass,rate", "--report", str(report)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "mass: pass" in out
    assert "rate: FAIL" in out


def test_verify_unknown_check(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", run_config())
    code = run_cli(
        ["verify", "--config", cfg, "--checks", "entropy", "--report",
         str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_initial_from_files(tmp_path):
    grid = TorusGrid(1, 32)
    x = grid.coords(0)
    u = Field(grid, 0.5 + 0.05 * np.cos(2 * np.pi * x))
    v = Field(grid, 0.6 + 0.05 * np.cos(2 * np.pi * x))
    write_field(tmp_path / "u0.csv", u)
    write_field(tmp_path / "v0.csv", v)
    cfg = write_json(
        tmp_path / "run.json",
        run_config(
            initial={
                "kind": "files",
                "u": str(tmp_path / "u0.csv"),
                "v": str(tmp_path / "v0.csv"),
            }
        ),
    )
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
    # same run as the cosine config: identical first row masses
    rows = list(csv.DictReader(out.open()))
    assert float(rows[0]["mass_v"]) == pytest.approx(0.6, abs=1e-12)


def test_norms_match_library(tmp_path, capsys):
    grid = TorusGrid(1, 64)
    f = Field(grid, np.cos(2 * np.pi * grid.coords(0)))
    path = tmp_path / "cos.csv"
    write_field(path, f)

    assert run_cli(["norms", "--input", str(path), "--norm", "lp", "--p", "2"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(math.sqrt(0.5), rel=1e-10)

    assert run_cli(["norms", "--input", str(path), "--norm", "hs", "--s", "-1"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(sobolev_norm(f, -1), rel=1e-10)

    assert run_cli(["norms", "--input", str(path), "--norm", "nk", "--k", "2"]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(besov_Nk(f, 2), rel=1e-8)

    assert run_cli(["norms", "--input", str(path), "--norm", "lp", "--p", "inf"]) == 0
    capsys.readouterr()

    assert run_cli(["norms", "--input", str(path), "--norm", "nk"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_counterexample_command(tmp_path):
    report = tmp_path / "ce.json"
    code = run_cli(
        [
            "counterexample",
            "--nmax",
            "3",
            "--grid",
            "256",
            "--report",
            str(report),
            "--dump-fields",
            str(tmp_path / "fields"),
        ]
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data[0]["check"] == "counterexample"
    assert data[0]["pass"] is True
    h1 = read_field(tmp_path / "fields" / "h_01.csv")
    assert set(np.unique(h1.values)) == {-1.0, 1.0}


def test_thresholds_command(tmp_path, capsys):
    cfg = write_json(tmp_path / "model.json", {"model": dict(MODEL), "R": 1.0})
    assert run_cli(["thresholds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    spec = ModelSpec(1.0, 1.0, Poly2({(1, 0): 1, (0, 1): 1}), Poly2({(1, 0): 1, (0, 1): 1}))
    expected = model_thresholds(spec, 1.0)
    values = {}
    for line in out.strip().split("\n"):
        key, _, val = line.partition(" = ")
        values[key.strip()] = float(val)
    for key, val in expected.items():
        assert values[key] == pytest.approx(val, rel=1e-9)


def test_sweep_serial_parallel_identical(tmp_path, monkeypatch):
    base = run_config(dt=1e-3, t_end=1e-2, record_every=1)
    base["checks"] = {"k": 2.0, "delta": 0.3}
    sweep = {
        "base": base,
        "axis": "amplitude",
        "values": [0.5, 1.0],
        "parallel": False,
    }
    cfg = write_json(tmp_path / "sweep.json", sweep)
    serial = tmp_path / "serial.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(serial)]) == 0

    sweep["parallel"] = True
    cfg2 = write_json(tmp_path / "sweep_par.json", sweep)
    parallel = tmp_path / "parallel.csv"
    monkeypatch.setenv("CROSSFLUX_THREADS", "2")
    assert run_cli(["sweep", "--config", cfg2, "--out", str(parallel)]) == 0

    assert serial.read_bytes() == parallel.read_bytes()
    rows = list(csv.DictReader(serial.open()))
    assert [r["value"] for r in rows] == ["0.5", "1.0"]
    assert float(rows[0]["smallness"]) < float(rows[1]["smallness"])


def test_sweep_rejects_empty_values(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "sweep.json",
        {"base": run_config(), "axis": "amplitude", "values": []},
    )
    assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_sweep_rejects_string_numbers(tmp_path, capsys):
    base = run_config(initial=dict(run_config()["initial"], u_mean="0.5"))
    cfg = write_json(tmp_path / "sweep.json",
                     {"base": base, "axis": "amplitude", "values": [1.0]})
    assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "u_mean must be a number" in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": }")
    code = run_cli(["simulate", "--config", str(bad), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "line 1" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"dt": math.nan},
        {"t_end": math.inf},
        {"record_every": "x"},
        {"initial": dict(run_config()["initial"], mode="x")},
        {"initial": dict(run_config()["initial"], mode=2.5)},
        {"initial": dict(run_config()["initial"], mode=True)},
        {"record_every": 1.5},
        {"record_every": True},
        {"dt": "1e-3"},
        {"dt": 1e-16, "t_end": 1},
    ],
    ids=["nan-dt", "inf-t_end", "bad-record_every", "bad-mode", "fractional-mode",
         "bool-mode", "fractional-record_every", "bool-record_every", "string-dt",
         "too-many-steps"],
)
def test_malformed_run_parameters_exit_code(tmp_path, capsys, overrides):
    cfg = write_json(tmp_path / "run.json", run_config(**overrides))
    code = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "check, params",
    [
        ("hk", {"k_sob": 1.5}),
        ("hk", {"k_sob": True}),
        ("hk", {"k_sob": "1"}),
        ("hk", {"k_sob": 2, "hk_small": "0.1"}),
        ("stability", {"delta": "0.3"}),
        ("stability", {"delta": 0.3, "R": True}),
        ("stability", {"delta": 0.3, "stability_scale": "0.5"}),
        ("lambda", {"k": "3"}),
        ("lambda", {"k": 3.0, "delta": "0.3"}),
    ],
    ids=["fractional-k_sob", "bool-k_sob", "string-k_sob", "string-hk_small",
         "string-delta", "bool-R", "string-stability_scale", "string-k",
         "lambda-string-delta"],
)
def test_malformed_check_parameters_exit_code(tmp_path, capsys, check, params):
    cfg = write_json(tmp_path / "run.json", run_config(checks=params))
    code = run_cli(["verify", "--config", cfg, "--checks", check,
                    "--report", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("checks, finished", [("mass,energy", []),
                                              ("mass,stability", ["mass"])])
def test_verify_blowup_writes_partial_reports(tmp_path, capsys, checks, finished):
    # amplitude 2.9 makes the explicit flux unstable at dt = 1e-3; the
    # second case blows up only in the stability check's second run
    big = dict(run_config()["initial"], u_mean=2.9, u_amp=2.9, v_mean=2.9, v_amp=2.9)
    if finished:
        cfg = run_config(dt=1e-3, checks={"delta": 0.3, "initial2": big})
    else:
        cfg = run_config(dt=1e-3, initial=big)
    report = tmp_path / "report.json"
    code = run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", checks, "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert "blew up at step" in err
    reports = json.loads(report.read_text())
    assert [r["check"] for r in reports] == finished + ["blowup"]
    blowup = reports[-1]
    assert blowup["pass"] is False
    assert f"blew up at step {int(blowup['measured']['step'])}" in err


@pytest.mark.parametrize("cap", ["abc", "0", "-1"])
def test_worker_count_rejects_bad_values(cap):
    with pytest.raises(ConfigError, match="CROSSFLUX_THREADS"):
        _worker_count(cap)
    assert _worker_count("3") == 3


def test_unknown_subcommand():
    assert run_cli(["transmogrify"]) == 2
