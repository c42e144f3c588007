"""End-to-end command behavior through run_cli, including exit codes."""

import copy
import csv
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from crossflux import cli
from crossflux.cli import KNOWN_CHECKS, _worker_count, run_cli
from crossflux.errors import ConfigError
from crossflux.io import read_field, write_field
from crossflux.model import thresholds as model_thresholds
from crossflux.model import ModelSpec, Poly2, parse_model_json, smallness_functional
from crossflux.solver import simulate
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 1
    assert not caught
    assert capsys.readouterr().err == "run blew up at step 8\n"
    # the partial history is still written, its l2 finite although the
    # squares of its last state overflow
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8
    assert all(math.isfinite(float(r[key])) for r in rows for key in ("l2_u", "l2_v"))


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


def test_initial_from_files(tmp_path, capsys):
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
    # files on another grid than the model's are refused in one line
    write_field(tmp_path / "v0.csv", Field(TorusGrid(1, 16), np.full(16, 0.6)))
    assert run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: initial field files do not match the model grid\n")


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


def test_norms_of_a_constant_at_a_large_sobolev_exponent(tmp_path, capsys):
    # the weights of the top modes overflow to inf, where the coefficients
    # are 0; no numpy warning is printed (one raises here)
    path = tmp_path / "const.csv"
    write_field(path, Field(TorusGrid(1, 32), np.full(32, 0.7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["norms", "--input", str(path), "--norm", "hs", "--s", "100"]) == 0
    assert capsys.readouterr() == ("0.7\n", "")


def test_norms_at_a_large_lebesgue_exponent(tmp_path, capsys):
    # the mean of |f|^p overflows for f in [1, 2] at p = 1e6; the norm lies
    # in [N^(-1/p) max|f|, max|f|], and no numpy warning is printed
    grid = TorusGrid(1, 32)
    path = tmp_path / "wave.csv"
    write_field(path, Field(grid, 1.5 + 0.5 * np.cos(2 * np.pi * grid.coords(0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["norms", "--input", str(path), "--norm", "lp", "--p", "1e6"]) == 0
    out, err = capsys.readouterr()
    top = 1.5 + 0.5 * math.cos(math.pi / 32)
    assert err == "" and 32.0 ** -1e-6 * top <= float(out) <= top


@pytest.mark.parametrize(
    "flags",
    [["--norm", "lp", "--p", "abc"], ["--norm", "lp", "--p", "nan"],
     ["--norm", "hs", "--s", "abc"], ["--norm", "hs", "--s", "inf"],
     ["--norm", "nk", "--k", "abc"], ["--norm", "nk", "--k", "2", "--tol", "nan"]],
    ids=["string-p", "nan-p", "string-s", "inf-s", "string-k", "nan-tol"],
)
def test_malformed_norm_flags_exit_code(tmp_path, capsys, flags):
    grid = TorusGrid(1, 32)
    path = tmp_path / "cos.csv"
    write_field(path, Field(grid, np.cos(2 * np.pi * grid.coords(0))))
    assert run_cli(["norms", "--input", str(path)] + flags) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


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


@pytest.mark.parametrize("argv, code", [(["--d", "3", "--grid", "16", "--nmax", "3"], 0),
                                        (["--d", "4", "--grid", "16"], 2)], ids=["d-3", "d-4"])
def test_counterexample_command_takes_the_grid_rule_for_d(tmp_path, capsys, argv, code):
    # TorusGrid alone decides which d the command accepts
    assert run_cli(["counterexample", "--report", str(tmp_path / "ce.json")] + argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == code // 2
    if code:
        assert err.startswith("configuration error: d must be 1, 2 or 3, got 4")
    else:
        assert json.loads((tmp_path / "ce.json").read_text())[0]["pass"] is True


def test_thresholds_command(tmp_path, capsys):
    cfg = write_json(tmp_path / "model.json", {"model": dict(MODEL), "checks": {"R": 2.0}})
    assert run_cli(["thresholds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    spec = ModelSpec(1.0, 1.0, Poly2({(1, 0): 1, (0, 1): 1}), Poly2({(1, 0): 1, (0, 1): 1}))
    expected = model_thresholds(spec, 2.0)
    values = {}
    for line in out.strip().split("\n"):
        key, _, val = line.partition(" = ")
        values[key.strip()] = float(val)
    for key, val in expected.items():
        assert values[key] == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("p, radius", [
    pytest.param([[110, 0, 1.0]], 1.0, id="p-degree-110"),
    pytest.param([[90, 0, 1.0]], 1e4, id="p-degree-90-R-1e4"),
])
def test_thresholds_of_an_overflowing_model_are_values(tmp_path, capsys, p, radius):
    # a bound that overflows a float is unbounded: the thresholds it
    # limits come out as numbers, with no warning and no traceback
    cfg = write_json(tmp_path / "model.json",
                     {"model": dict(MODEL, p=p), "checks": {"R": radius}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["thresholds", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.partition(" = ")[0] for line in lines] == [
        "delta_A", "delta_stability", "delta_bootstrap", "delta_min"]
    assert all(math.isfinite(float(line.partition(" = ")[2])) for line in lines)


def test_stability_check_at_an_overflowing_radius_is_one_line(tmp_path, capsys):
    # the Lipschitz bound of p = X^13 on [0, 1e30]^2 overflows, so the
    # check is refused as not admissible, not with an OverflowError
    cfg = run_config(dt=2e-4, t_end=2e-3)
    cfg["model"]["p"] = [[13, 0, 1.0]]
    cfg["checks"] = {"R": 1e30, "delta": 0.3}
    code = run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", "stability", "--report", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: delta is not admissible") and err.count("\n") == 1


def test_thresholds_without_a_model_is_one_line(tmp_path, capsys):
    cfg = write_json(tmp_path / "model.json", {"checks": {"R": 2.0}})
    assert run_cli(["thresholds", "--config", cfg]) == 2
    assert capsys.readouterr().err == "configuration error: config is missing 'model'\n"


def test_thresholds_rejects_checks_that_are_not_an_object(tmp_path, capsys):
    cfg = write_json(tmp_path / "model.json", {"model": dict(MODEL), "checks": [1]})
    assert run_cli(["thresholds", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "checks must be an object" in err


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


@pytest.mark.parametrize("checks", [{"k": 2.0, "delta": 0.3}, {"k": 2.0}])
def test_sweep_smallness_is_that_of_the_initial_data(tmp_path, checks):
    # with checks.delta the lambda report measures it; without, the row
    # computes it: either way it is the functional of the initial data
    base = run_config(dt=1e-3, t_end=1e-2, record_every=1)
    base["checks"] = checks
    cfg = write_json(tmp_path / "sweep.json",
                     {"base": base, "axis": "amplitude", "values": [1.0]})
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    grid, spec = parse_model_json(base["model"])
    wave = np.cos(2.0 * np.pi * 1 * grid.coords(0))
    u, v = Field(grid, 0.5 + 0.05 * wave), Field(grid, 0.6 + 0.05 * wave)
    assert row["smallness"] == repr(smallness_functional(u, v, spec, 2.0))


def test_sweep_row_is_the_verify_lambda_and_rate_reports(tmp_path):
    # the base records every 10th step; the sweep row, like verify with
    # lambda requested, records every step
    base = run_config(checks={"k": 3.0, "delta": 0.3})
    cfg = write_json(tmp_path / "sweep.json",
                     {"base": base, "axis": "amplitude", "values": [1.0]})
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    report = tmp_path / "report.json"
    assert run_cli(["verify", "--config", write_json(tmp_path / "run.json", base),
                    "--checks", "lambda,rate", "--report", str(report)]) == 0
    lam, rate = json.loads(report.read_text())
    assert row["smallness"] == repr(lam["measured"]["smallness"])
    assert row["lambda_final"] == repr(lam["measured"]["lambda_final"])
    assert row["rate"] == repr(rate["measured"]["rate"])
    assert row["r_squared"] == repr(rate["measured"]["r_squared"])
    assert (row["lambda_pass"], row["rate_pass"]) == ("1", "1")


def test_sweep_blowup_row(tmp_path):
    base = run_config(initial={"kind": "cosine", "u_mean": 10.0, "u_amp": 8.0,
                               "v_mean": 10.0, "v_amp": 8.0, "mode": 1},
                      dt=1.0, t_end=50.0, record_every=1)
    cfg = write_json(tmp_path / "sweep.json",
                     {"base": base, "axis": "amplitude", "values": [1.0]})
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1.0,nan,nan,nan,nan,0,0,1"


def test_sweep_dotted_axis(tmp_path):
    # the model.d1 = 1.0 row runs the base itself, as amplitude 1.0 does
    base = run_config(dt=1e-3, t_end=1e-2, record_every=1)
    rows = {}
    for axis, values in (("model.d1", [0.5, 1.0]), ("amplitude", [1.0])):
        cfg = write_json(tmp_path / "sweep.json",
                         {"base": base, "axis": axis, "values": values})
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows[axis] = out.read_text().splitlines()[1:]
    assert rows["model.d1"][1] == rows["amplitude"][0]
    assert rows["model.d1"][0] != rows["model.d1"][1]


@pytest.mark.parametrize("edits, message", [
    ({"axis": "model.nothing.x"}, "sweep axis 'model.nothing.x' not found"),
    ({"base": run_config(checks=[])}, "checks must be an object"),
    ({"base": [1]}, "the amplitude axis needs cosine initial data"),
    ({"base": run_config(initial=[1])}, "the amplitude axis needs cosine initial data"),
    ({"axis": "model.nope"}, "sweep axis 'model.nope' not found"),
    ({"axis": None}, "sweep config is missing 'axis'"),
    # written as Infinity, which json.loads reads
    ({"values": [math.inf]}, "sweep value inf is not a finite number"),
], ids=["missing-axis", "checks-list", "base-list", "initial-list", "missing-leaf", "no-axis",
        "infinite-value"])
def test_sweep_config_errors_print_one_line(tmp_path, capsys, edits, message):
    # an amplitude sweep of one value, edited; an entry set to None is dropped
    sweep = dict({"base": run_config(), "axis": "amplitude", "values": [1.0]}, **edits)
    cfg = write_json(tmp_path / "sweep.json",
                     {key: value for key, value in sweep.items() if value is not None})
    assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert message in err


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


def test_sweep_rejects_boolean_values(tmp_path, capsys):
    cfg = write_json(tmp_path / "sweep.json",
                     {"base": run_config(), "axis": "amplitude", "values": [True, 0.5]})
    assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "sweep value must be a number" in err


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
        {"model": dict(MODEL, N=32.7)},
        {"model": dict(MODEL, d=1.5)},
        {"model": dict(MODEL, d1=True)},
        {"model": dict(MODEL, d1="1.0")},
        {"model": dict(MODEL, d1=math.nan)},
        {"model": dict(MODEL, p=[[1.5, 0, 1.0]])},
        {"model": dict(MODEL, q=[[1, 0, "1.0"]])},
    ],
    ids=["nan-dt", "inf-t_end", "bad-record_every", "bad-mode", "fractional-mode",
         "bool-mode", "fractional-record_every", "bool-record_every", "string-dt",
         "too-many-steps", "fractional-N", "fractional-d", "bool-d1", "string-d1",
         "nan-d1", "fractional-exponent", "string-coefficient"],
)
def test_malformed_run_parameters_exit_code(tmp_path, capsys, overrides):
    cfg = write_json(tmp_path / "run.json", run_config(**overrides))
    code = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, record_every", [("simulate", 1), ("verify", 10 ** 6)])
def test_oversized_recording_exit_code(tmp_path, capsys, command, record_every):
    # 2-d N=256 states at each of 10^6 steps take 977 GiB; verify's lambda
    # check records every step whatever the config's record_every
    cfg = write_json(tmp_path / "run.json",
                     run_config(model=dict(MODEL, d=2, N=256), dt=1e-6, t_end=1.0,
                                record_every=record_every))
    out = (["--out", str(tmp_path / "t.csv")] if command == "simulate"
           else ["--checks", "lambda", "--report", str(tmp_path / "r.json")])
    assert run_cli([command, "--config", cfg] + out) == 2
    err = capsys.readouterr().err
    assert "977 GiB, above the limit of 2 GiB" in err
    assert len(err.strip().splitlines()) == 1


def test_stability_batch_recording_exit_code(tmp_path, capsys):
    # each run records 1536 states of 2-d N=256, 1.5 GiB; the stability
    # pair integrates both as one batch, whose 3 GiB are refused.  The
    # data blow up within ten steps, so a batch that was not refused
    # would end there rather than fill its recording
    big = dict(run_config()["initial"], u_mean=10.0, u_amp=8.0, v_mean=10.0, v_amp=8.0)
    cfg = write_json(tmp_path / "run.json",
                     run_config(model=dict(MODEL, d=2, N=256), initial=big, dt=1.0,
                                t_end=1535.0, record_every=1, checks={"delta": 0.3}))
    code = run_cli(["verify", "--config", cfg, "--checks", "mass,stability",
                    "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: recording 3072 states of TorusGrid(d=2, N=256) takes 3 GiB, "
        "above the limit of 2 GiB"]


def test_an_oversized_recording_is_refused_before_any_field_is_made(tmp_path, capsys):
    # 2-d N=16384: u, v and the cosine wave take 2 GiB each, and 11
    # recorded states of both species 44 GiB.  dt, t_end and record_every
    # alone refuse the recording, before the initial data are built
    cfg = write_json(tmp_path / "run.json",
                     run_config(model=dict(MODEL, d=2, N=16384), dt=1e-3, t_end=1e-2,
                                record_every=1))
    with mock.patch.object(cli, "_build_initial", side_effect=AssertionError("fields built")):
        tracemalloc.start()
        try:
            code = run_cli(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: recording 11 states of TorusGrid(d=2, N=16384) takes 44 GiB, "
        "above the limit of 2 GiB"]
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize(
    "check, params, message",
    [
        ("hk", {"k_sob": 1.5}, "configuration error"),
        ("hk", {"k_sob": True}, "configuration error"),
        ("hk", {"k_sob": "1"}, "configuration error"),
        ("hk", {"k_sob": 2, "hk_small": "0.1"}, "configuration error"),
        ("stability", {"delta": "0.3"}, "configuration error"),
        ("stability", {"delta": 0.3, "R": True}, "configuration error"),
        ("stability", {"delta": 0.3, "stability_scale": "0.5"}, "configuration error"),
        ("lambda", {"k": "3"}, "configuration error"),
        ("lambda", {"k": 3.0, "delta": "0.3"}, "configuration error"),
        # refused before the k warning and before any |Lap flux|^k
        ("lambda", {"k": -2.0}, "error: exponent must lie in (1, inf), got -2.0"),
        ("hk", {}, "configuration error: hk check needs checks.k_sob"),
        ("stability", {}, "configuration error: stability check needs checks.delta"),
        (" , ", {}, "configuration error: no checks requested"),
    ],
    ids=["fractional-k_sob", "bool-k_sob", "string-k_sob", "string-hk_small",
         "string-delta", "bool-R", "string-stability_scale", "string-k",
         "lambda-string-delta", "lambda-k-below-one", "hk-without-k_sob",
         "stability-without-delta", "no-checks"],
)
def test_malformed_check_parameters_exit_code(tmp_path, capsys, check, params, message):
    cfg = write_json(tmp_path / "run.json", run_config(checks=params))
    code = run_cli(["verify", "--config", cfg, "--checks", check,
                    "--report", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("checks, finished", [("mass,energy", []),
                                              ("mass,stability", ["mass"])])
def test_verify_blowup_writes_partial_reports(tmp_path, capsys, checks, finished):
    # amplitude 2.9 makes the explicit flux unstable at dt = 1e-3; the
    # second case blows up only in the stability check's second run.  The
    # first overflow falls in step 13, where the run stops, so numpy
    # warns of nothing
    big = dict(run_config()["initial"], u_mean=2.9, u_amp=2.9, v_mean=2.9, v_amp=2.9)
    if finished:
        cfg = run_config(dt=1e-3, checks={"delta": 0.3, "initial2": big})
    else:
        cfg = run_config(dt=1e-3, initial=big)
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                        "--checks", checks, "--report", str(report)])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.splitlines() == ["run blew up at step 13", "failed checks: blowup"]
    reports = json.loads(report.read_text())
    assert [r["check"] for r in reports] == finished + ["blowup"]
    blowup = reports[-1]
    assert blowup["pass"] is False
    assert blowup["measured"]["step"] == 13


def test_verify_stability_integrates_both_runs_in_one_call(tmp_path, monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return simulate(config)

    monkeypatch.setattr(cli, "simulate", counted)
    small = dict(run_config()["initial"], u_mean=0.1, u_amp=0.02, v_mean=0.12, v_amp=0.02)
    cfg = run_config(initial=small, checks={"delta": 0.3})
    assert run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", "mass,stability", "--report", str(tmp_path / "r.json")]) == 0
    (batch,) = calls
    assert len(batch) == 2


def test_verify_stability_config_errors_before_the_run(tmp_path, capsys):
    # the run would blow up at step 13; the malformed delta is reported first
    big = dict(run_config()["initial"], u_mean=2.9, u_amp=2.9, v_mean=2.9, v_amp=2.9)
    cfg = run_config(dt=1e-3, initial=big, checks={"delta": "0.3"})
    report = tmp_path / "report.json"
    assert run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", "mass,stability", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["configuration error: delta must be a number, got '0.3'"]
    assert not report.exists()


def test_verify_prints_each_warning_as_one_line(tmp_path, capsys):
    # k_sob = 1 is not above d/2 = 1 in 2-d: track_hk warns, and the
    # run still passes
    model = dict(MODEL, d=2, N=16)
    cfg = run_config(model=model, dt=2e-4, t_end=2e-3, checks={"k_sob": 1})
    code = run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", "hk", "--report", str(tmp_path / "r.json")])
    assert code == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == [
        "warning: k_sob = 1 is not above d/2 = 1.0"]
    assert "cli.py" not in err


# the nonconvex model of the Lyapunov identity: every check runs on it
LYAP_MODEL = dict(MODEL, p=[[0, 2, 1.0]], q=[[2, 0, 1.0]])


@pytest.mark.parametrize("name", KNOWN_CHECKS)
def test_verify_runs_every_known_check(tmp_path, name):
    # a check name with no branch in the run path gives no report
    cfg = run_config(model=LYAP_MODEL, initial=SMALL, t_end=2e-3, record_every=5,
                     checks={"delta": 0.3, "k_sob": 1})
    report = tmp_path / "report.json"
    code = run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", name, "--report", str(report)])
    assert code in (0, 1)
    expected = ["duality_u", "duality_v"] if name == "duality" else [name]
    assert [r["check"] for r in json.loads(report.read_text())] == expected


@pytest.mark.parametrize("hk_small, premise", [(1e-6, 0.0), (10.0, 1.0)])
def test_verify_hk_small_premise(tmp_path, hk_small, premise):
    # the initial H^1 norm of the small data lies between the two thresholds
    cfg = run_config(initial=SMALL, t_end=2e-3, checks={"k_sob": 1, "hk_small": hk_small})
    report = tmp_path / "report.json"
    assert run_cli(["verify", "--config", write_json(tmp_path / "run.json", cfg),
                    "--checks", "hk", "--report", str(report)]) == 0
    (hk,) = json.loads(report.read_text())
    assert hk["measured"]["premise_holds"] == premise
    assert hk["pass"] is True


@pytest.mark.parametrize("cap", ["abc", "0", "-1"])
def test_worker_count_rejects_bad_values(cap):
    with pytest.raises(ConfigError, match="CROSSFLUX_THREADS"):
        _worker_count(cap)
    assert _worker_count("3") == 3


# small data: every check of a short run passes
SMALL = {"kind": "cosine", "u_mean": 0.1, "u_amp": 0.02, "v_mean": 0.12, "v_amp": 0.02,
         "mode": 1}


def test_each_checks_report_is_the_same_alone_and_with_the_others(tmp_path):
    # the seven checks of the verify-1d benchmark, with every step recorded
    # so that `lambda`, which records every step, changes no recording
    checks = ("mass", "energy", "duality", "stability", "lambda", "hk", "rate")
    cfg = run_config(initial=SMALL, record_every=1,
                     checks={"k": 3.0, "delta": 0.3, "R": 1.0, "k_sob": 1,
                             "stability_scale": 0.5})
    config = write_json(tmp_path / "run.json", cfg)

    def reports(names):
        report = tmp_path / "report.json"
        assert run_cli(["verify", "--config", config, "--checks", names,
                        "--report", str(report)]) in (0, 1)
        return [json.dumps(r) for r in json.loads(report.read_text())]

    together = reports(",".join(checks))
    assert len(together) == 8
    assert [r for name in checks for r in reports(name)] == together


def test_cosine_initial_data_in_2d(tmp_path, capsys):
    # the cosine runs along the first axis and is constant along the second
    cfg = write_json(tmp_path / "run.json",
                     run_config(model=dict(MODEL, d=2, N=16), initial=SMALL,
                                checks={"delta": 0.3}))
    out = tmp_path / "traj.csv"
    assert run_cli(["simulate", "--config", cfg, "--out", str(out),
                    "--dump-fields", str(tmp_path)]) == 0
    rows = list(csv.DictReader(out.open()))
    low = 0.1 + 0.02 * math.cos(2.0 * math.pi * 7.5 / 16)  # the cell center nearest 1/2
    assert float(rows[0]["min_u"]) == pytest.approx(low, abs=1e-12)
    u0 = read_field(str(tmp_path / "u_000000.csv")).values
    assert u0.shape == (16, 16)
    assert np.array_equal(u0, np.broadcast_to(u0[:, :1], u0.shape))
    assert run_cli(["verify", "--config", cfg, "--checks", "mass,energy,stability,rate",
                    "--report", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""


def _edit(path, value):
    """A short small-data run config with the entry at path replaced by
    value, or deleted when value is KeyError."""
    cfg = copy.deepcopy(run_config(initial=SMALL, t_end=2e-3, record_every=5))
    *head, last = path
    node = cfg
    for key in head:
        node = node[key]
    if value is KeyError:
        del node[last]
    else:
        node[last] = value
    return cfg


FUZZ_CASES = {
    "top-level-list": [],
    "top-level-null": None,
    "no-model": _edit(["model"], KeyError),
    "no-initial": _edit(["initial"], KeyError),
    "no-dt": _edit(["dt"], KeyError),
    "no-N": _edit(["model", "N"], KeyError),
    "no-p": _edit(["model", "p"], KeyError),
    "model-list": _edit(["model"], [1, 2]),
    "d-4": _edit(["model", "d"], 4),
    "N-12": _edit(["model", "N"], 12),
    "N-string": _edit(["model", "N"], "16"),
    "d1-inf": _edit(["model", "d1"], math.inf),
    "p-string": _edit(["model", "p"], "X+Y"),
    "p-short-triple": _edit(["model", "p"], [[1, 0]]),
    "p-nan-coefficient": _edit(["model", "p"], [[1, 0, math.nan]]),
    "p-inf-coefficient": _edit(["model", "q"], [[0, 1, math.inf]]),
    "p-constant": _edit(["model", "p"], [[0, 0, 1.0]]),
    # a fine grid of 16 000 016 points: refused before it is allocated
    "p-degree-1e6": _edit(["model", "p"], [[1000000, 0, 1.0]]),
    "eta-negative": _edit(["model", "eta"], -1.0),
    "initial-list": _edit(["initial"], [1]),
    "no-kind": _edit(["initial", "kind"], KeyError),
    "kind-gauss": _edit(["initial", "kind"], "gauss"),
    "kind-number": _edit(["initial", "kind"], 3),
    "no-u_mean": _edit(["initial", "u_mean"], KeyError),
    "u_amp-nan": _edit(["initial", "u_amp"], math.nan),
    "u_mean-inf": _edit(["initial", "u_mean"], math.inf),
    "negative-initial": _edit(["initial", "u_amp"], 0.9),
    "files-without-paths": _edit(["initial"], {"kind": "files"}),
    "files-missing": _edit(["initial"], {"kind": "files", "u": "no/u.npz", "v": "no/v.npz"}),
    "dt-negative": _edit(["dt"], -1e-4),
    "dt-null": _edit(["dt"], None),
    "dt-list": _edit(["dt"], [1]),
    "t_end-nan": _edit(["t_end"], math.nan),
    "dt-not-dividing": _edit(["dt"], 3e-4),
    "record_every-0": _edit(["record_every"], 0),
    "scheme-euler": _edit(["scheme"], "euler"),
    "regularized-without-eta": _edit(["variant"], "regularized"),
    "rk4-above-bound": _edit(["scheme"], "rk4"),
    "checks-list": _edit(["checks"], [1]),
    "negative-mode": _edit(["initial", "mode"], -3),
    "cosine-2d": _edit(["model"], dict(MODEL, d=2, N=16)),
    "cosine-3d": _edit(["model"], dict(MODEL, d=3, N=8)),
    # an 8 TiB field, which numpy refuses at once
    "grid-too-large": _edit(["model"], dict(MODEL, d=2, N=2 ** 20)),
}


@pytest.mark.parametrize("name", FUZZ_CASES)
def test_malformed_and_edge_configs_fail_cleanly(tmp_path, capsys, name):
    # each config through simulate and verify, in process: a known exit
    # code, never a traceback, and a one-line message on exit 2
    cfg = write_json(tmp_path / "run.json", FUZZ_CASES[name])
    for argv in (["simulate", "--out", str(tmp_path / "t.csv")],
                 ["verify", "--checks", "mass,energy", "--report", str(tmp_path / "r.json")]):
        code = run_cli(argv + ["--config", cfg])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert len(err.strip().splitlines()) == 1
    assert code == (0 if name in ("cosine-2d", "cosine-3d", "negative-mode") else 2)


@pytest.mark.parametrize("argv", [[], ["transmogrify"], ["simulate"],
                                  ["norms", "--norm", "lp"]],
                         ids=["empty", "unknown-subcommand", "simulate-bare",
                              "norms-without-input"])
def test_usage_errors_print_one_line(capsys, argv):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("configuration error: ")


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "usage" in capsys.readouterr().out
