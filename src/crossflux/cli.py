"""Command-line front end: runs, verification suites, norms, sweeps.

Exit codes: 0 when everything requested succeeded and every check
passed, 1 when a run blew up or some check failed, 2 for configuration
problems (bad flags, malformed JSON, inconsistent parameters). All file
outputs are written atomically.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io
from .counterexample import build_pair, verify_counterexample
from .errors import BlowupError, ConfigError, CrossfluxError
from .model import parse_model_json, smallness_functional, thresholds
from .report import Report
from .solver import RunConfig, State, Trajectory, simulate
from .spaces import TimeSeriesField, besov_Nk, lp_norm, sobolev_norm
from .spectral import Field, TorusGrid
from .verifier import (check_duality, check_energy_decay, check_lyapunov_nonconvex,
                       check_mass, check_stability_pair, fit_decay_rate,
                       track_hk, track_lambda)

KNOWN_CHECKS = ("mass", "energy", "duality", "stability", "lambda", "hk",
                "lyapunov", "rate")


def _number(obj: dict, key: str, default=None, integral: bool = False):
    """obj[key], or the default, as a float (an int when integral).
    Booleans, strings and fractional integers are errors, not coerced."""
    value = obj.get(key, default)
    if value is None:
        raise ConfigError(f"missing {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range") from None
    if integral and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


def _build_initial(grid: TorusGrid, obj) -> tuple[Field, Field]:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("initial must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "cosine":
        um, ua = _number(obj, "u_mean"), _number(obj, "u_amp")
        vm, va = _number(obj, "v_mean"), _number(obj, "v_amp")
        mode = _number(obj, "mode", 1, integral=True)
        wave = np.cos(2.0 * np.pi * mode * grid.coords(0))
        if grid.d == 2:
            wave = np.broadcast_to(wave[:, None], grid.shape).copy()
        return Field(grid, um + ua * wave), Field(grid, vm + va * wave)
    if kind == "files":
        try:
            u = io.read_field(str(obj["u"]))
            v = io.read_field(str(obj["v"]))
        except KeyError as exc:
            raise ConfigError(f"files initial data needs key {exc}") from exc
        if u.grid != grid or v.grid != grid:
            raise ConfigError("initial field files do not match the model grid")
        return u, v
    raise ConfigError(f"unknown initial kind {kind!r}")


def _parse_run(obj, force_record_every: int | None = None):
    for key in ("model", "initial", "dt", "t_end"):
        if key not in obj:
            raise ConfigError(f"run config is missing {key!r}")
    grid, spec = parse_model_json(obj["model"])
    u0, v0 = _build_initial(grid, obj["initial"])
    record_every = _number(obj, "record_every", 1, integral=True)
    dt, t_end = _number(obj, "dt"), _number(obj, "t_end")
    if force_record_every is not None:
        record_every = force_record_every
    cfg = RunConfig(spec, State(0.0, u0, v0), dt=dt, t_end=t_end,
                    record_every=record_every,
                    scheme=str(obj.get("scheme", "imex")),
                    variant=str(obj.get("variant", "plain")))
    checks = obj.get("checks", {})
    if not isinstance(checks, dict):
        raise ConfigError("checks must be an object")
    return grid, spec, cfg, checks


def _optional_number(obj: dict, key: str):
    """obj[key] checked as by `_number`, or None when absent or null."""
    return None if obj.get(key) is None else _number(obj, key)


def _mu_series(traj: Trajectory, d_coef: float, poly) -> TimeSeriesField:
    return TimeSeriesField(traj.times, d_coef + poly.eval_arrays(traj.u, traj.v))


def _zero_series(traj: Trajectory) -> TimeSeriesField:
    return TimeSeriesField(np.array([traj.times[0], traj.times[-1]]),
                           np.zeros((2,) + traj.grid.shape))


def _verify_reports(obj, requested) -> list[Report]:
    """The requested reports in order.  When a run blows up, the reports
    finished so far are followed by a failed `blowup` report."""
    reports: list[Report] = []
    try:
        for rep in _check_reports(obj, requested):
            reports.append(rep)
    except BlowupError as exc:
        print(f"run blew up at step {exc.step}", file=sys.stderr)
        reports.append(Report("blowup", False, {"step": exc.step}, 0.0,
                              "the run stays finite up to t_end"))
    return reports


def _check_reports(obj, requested):
    """Yield the report of each requested check in order."""
    force = 1 if "lambda" in requested else None
    grid, spec, cfg, checks = _parse_run(obj, force_record_every=force)
    traj = simulate(cfg)
    for name in requested:
        if name == "mass":
            yield check_mass(traj)
        elif name == "energy":
            yield check_energy_decay(traj, spec)
        elif name == "duality":
            zeros = _zero_series(traj)
            for label, series, d_coef, poly, z_in in (
                    ("duality_u", traj.series_u(), spec.d1, spec.p, cfg.initial.u),
                    ("duality_v", traj.series_v(), spec.d2, spec.q, cfg.initial.v)):
                rep = check_duality(series, _mu_series(traj, d_coef, poly),
                                    zeros, z_in)
                yield Report(label, rep.passed, rep.measured, rep.tolerance, rep.anchor)
        elif name == "rate":
            yield fit_decay_rate(traj)
        elif name == "stability":
            if "delta" not in checks:
                raise ConfigError("stability check needs checks.delta")
            delta = _number(checks, "delta")
            radius = _number(checks, "R", 1.0)
            if checks.get("initial2") is not None:
                u2, v2 = _build_initial(grid, checks["initial2"])
            else:
                scale = _number(checks, "stability_scale", 0.5)
                init2 = copy.deepcopy(obj["initial"])
                if init2.get("kind") != "cosine":
                    raise ConfigError(
                        "stability_scale needs cosine initial data; "
                        "supply checks.initial2 otherwise")
                init2["u_amp"] = _number(init2, "u_amp") * scale
                init2["v_amp"] = _number(init2, "v_amp") * scale
                u2, v2 = _build_initial(grid, init2)
            cfg2 = RunConfig(spec, State(0.0, u2, v2), cfg.dt, cfg.t_end,
                             cfg.record_every, cfg.scheme, cfg.variant)
            yield check_stability_pair(traj, simulate(cfg2), spec, radius, delta)
        elif name == "lambda":
            if "k" not in checks:
                raise ConfigError("lambda check needs checks.k")
            _, rep = track_lambda(traj, spec, _number(checks, "k"),
                                  delta=_optional_number(checks, "delta"))
            yield rep
        elif name == "hk":
            if "k_sob" not in checks:
                raise ConfigError("hk check needs checks.k_sob")
            _, rep = track_hk(traj, _number(checks, "k_sob", integral=True),
                              small=_optional_number(checks, "hk_small"))
            yield rep
        elif name == "lyapunov":
            yield check_lyapunov_nonconvex(traj)


def _cmd_simulate(args) -> int:
    obj = io.load_json(args.config)
    _, _, cfg, _ = _parse_run(obj)
    try:
        traj = simulate(cfg)
    except BlowupError as exc:
        if exc.trajectory is not None:
            io.write_trajectory(args.out, exc.trajectory)
        print(f"run blew up at step {exc.step}", file=sys.stderr)
        return 1
    io.write_trajectory(args.out, traj)
    if args.dump_fields:
        io.dump_fields(args.dump_fields, traj)
    return 0


def _cmd_verify(args) -> int:
    obj = io.load_json(args.config)
    requested = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not requested:
        raise ConfigError("no checks requested")
    for name in requested:
        if name not in KNOWN_CHECKS:
            raise ConfigError(
                f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    reports = _verify_reports(obj, requested)
    io.write_reports(args.report, reports)
    failed = [r.name for r in reports if not r.passed]
    for rep in reports:
        print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_norms(args) -> int:
    field = io.read_field(args.input)
    if args.norm == "lp":
        if args.p is None:
            raise ConfigError("--norm lp needs --p")
        p = math.inf if args.p.lower() in ("inf", "infinity") else float(args.p)
        value = lp_norm(field, p)
    elif args.norm == "hs":
        if args.s is None:
            raise ConfigError("--norm hs needs --s")
        value = sobolev_norm(field, float(args.s))
    else:
        if args.k is None:
            raise ConfigError("--norm nk needs --k")
        value = besov_Nk(field, float(args.k), tol=args.tol)
    print(f"{value:.12g}")
    return 0


def _cmd_counterexample(args) -> int:
    grid = TorusGrid(args.d, args.grid)
    report = verify_counterexample(args.nmax, grid)
    io.write_reports(args.report, [report])
    if args.dump_fields:
        for n in range(1, args.nmax + 1):
            pair = build_pair(n, grid)
            for tag, field in (("h", pair.h), ("u", pair.u), ("v", pair.v)):
                io.write_field(os.path.join(args.dump_fields,
                                            f"{tag}_{n:02d}.csv"), field)
    print(f"counterexample: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_thresholds(args) -> int:
    obj = io.load_json(args.config)
    if "model" not in obj:
        raise ConfigError("config is missing 'model'")
    _, spec = parse_model_json(obj["model"])
    radius = _number(obj.get("checks", {}), "R", 1.0)
    for key, value in thresholds(spec, radius).items():
        print(f"{key} = {value:.12g}")
    return 0


def _sweep_axis(base: dict, axis: str, value: float) -> dict:
    obj = copy.deepcopy(base)
    if axis == "amplitude":
        init = obj.get("initial", {})
        if init.get("kind") != "cosine":
            raise ConfigError("the amplitude axis needs cosine initial data")
        for key in ("u_mean", "u_amp", "v_mean", "v_amp"):
            init[key] = _number(init, key) * value
        return obj
    node = obj
    parts = axis.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"sweep axis {axis!r} not found in base config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"sweep axis {axis!r} not found in base config")
    node[parts[-1]] = value
    return obj


def _sweep_row(payload: str) -> str:
    run_obj = json.loads(payload)
    value = run_obj.pop("_sweep_value")
    checks = run_obj.get("checks", {})
    k = _number(checks, "k", 3.0)
    delta = _optional_number(checks, "delta")
    try:
        _, spec, cfg, _ = _parse_run(run_obj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = simulate(cfg)
            small = smallness_functional(cfg.initial.u, cfg.initial.v, spec, k)
            lam, lam_rep = track_lambda(traj, spec, k, delta=delta)
            rate_rep = fit_decay_rate(traj)
        row = (repr(float(value)), repr(small), repr(float(lam[-1])),
               repr(rate_rep.measured["rate"]),
               repr(rate_rep.measured["r_squared"]),
               str(int(lam_rep.passed)), str(int(rate_rep.passed)), "0")
    except BlowupError:
        row = (repr(float(value)), "nan", "nan", "nan", "nan", "0", "0", "1")
    return ",".join(row)


def _worker_count(cap: str | None) -> int:
    """Sweep worker cap from CROSSFLUX_THREADS; the CPU count when unset."""
    if not cap:
        return os.cpu_count() or 1
    if not cap.isdecimal() or int(cap) < 1:
        raise ConfigError(f"CROSSFLUX_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


def _cmd_sweep(args) -> int:
    obj = io.load_json(args.config)
    for key in ("base", "axis", "values"):
        if key not in obj:
            raise ConfigError(f"sweep config is missing {key!r}")
    values = obj["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep values must be a nonempty list")
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError(f"sweep value {v!r} is not a finite number")
    axis = str(obj["axis"])
    payloads = []
    for v in values:
        run_obj = _sweep_axis(obj["base"], axis, float(v))
        run_obj["_sweep_value"] = float(v)
        payloads.append(json.dumps(run_obj, sort_keys=True))
    parallel = bool(obj.get("parallel", False))
    if parallel and len(payloads) > 1:
        workers = min(len(payloads),
                      _worker_count(os.environ.get("CROSSFLUX_THREADS")))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]
    header = ("value,smallness,lambda_final,rate,r_squared,"
              "lambda_pass,rate_pass,blowup")
    io.atomic_write_text(args.out, "\n".join([header] + rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossflux",
        description="pseudo-spectral simulator and estimate verifier for "
                    "two-species cross-diffusion on the torus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a configured run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-fields", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run checkers against a configured run")
    p.add_argument("--config", required=True)
    p.add_argument("--checks", required=True,
                   help="comma-separated subset of " + ",".join(KNOWN_CHECKS))
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("norms", help="evaluate a norm of a stored field")
    p.add_argument("--input", required=True)
    p.add_argument("--norm", required=True, choices=("lp", "hs", "nk"))
    p.add_argument("--p", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--k", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("counterexample",
                       help="build and verify the staircase family")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--report", required=True)
    p.add_argument("--dump-fields", default=None)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("sweep", help="run a family of configs along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("thresholds",
                       help="print the smallness thresholds of a model")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_thresholds)
    return parser


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CrossfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
