"""Command-line front end: runs, verification suites, norms, sweeps.

Exit codes: 0 when everything requested succeeded and every check
passed, 1 when a run blew up or some check failed, 2 for configuration
problems (bad flags, malformed JSON, inconsistent parameters) and for
a grid whose arrays do not fit in memory. All file outputs are written
atomically.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import io
from .counterexample import build_pair, verify_counterexample
from .errors import BlowupError, ConfigError, CrossfluxError
from .model import config_number, parse_model_json, thresholds
from .report import Report
from .solver import RunConfig, State, _check_recording, _recorded_steps, simulate
from .spaces import TimeSeriesField, besov_Nk, lp_norm, sobolev_norm
from .spectral import Field, TorusGrid
from .verifier import (check_duality, check_energy_decay, check_lyapunov_nonconvex,
                       check_mass, check_stability_pair, fit_decay_rate,
                       track_hk, track_lambda)

KNOWN_CHECKS = ("mass", "energy", "duality", "stability", "lambda", "hk",
                "lyapunov", "rate")


def _build_initial(grid: TorusGrid, obj) -> tuple[Field, Field]:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("initial must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "cosine":
        um, ua = config_number(obj, "u_mean"), config_number(obj, "u_amp")
        vm, va = config_number(obj, "v_mean"), config_number(obj, "v_amp")
        mode = config_number(obj, "mode", 1, integral=True)
        # coords(0) already spans the grid, constant along the other axes
        wave = np.cos(2.0 * np.pi * mode * grid.coords(0))
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
    record_every = config_number(obj, "record_every", 1, integral=True)
    dt, t_end = config_number(obj, "dt"), config_number(obj, "t_end")
    if force_record_every is not None:
        record_every = force_record_every
    # a recording too large for one run is refused before any field is made
    _check_recording(grid, 2, 1, len(_recorded_steps(dt, t_end, record_every)))
    u0, v0 = _build_initial(grid, obj["initial"])
    cfg = RunConfig(spec, State(0.0, u0, v0), dt=dt, t_end=t_end,
                    record_every=record_every,
                    scheme=str(obj.get("scheme", "imex")),
                    variant=str(obj.get("variant", "plain")))
    return grid, spec, cfg, _checks(obj)


def _checks(obj) -> dict:
    """The `checks` object of a config, {} when absent."""
    checks = obj.get("checks", {})
    if not isinstance(checks, dict):
        raise ConfigError("checks must be an object")
    return checks


def _scaled_cosine(init, keys, factor: float, error: str) -> dict:
    """A copy of cosine initial data with the numbers at `keys` multiplied
    by factor; other initial data raise ConfigError(error)."""
    if not isinstance(init, dict) or init.get("kind") != "cosine":
        raise ConfigError(error)
    init = dict(init)
    for key in keys:
        init[key] = config_number(init, key) * factor
    return init


def _optional_number(obj: dict, key: str):
    """obj[key] checked as by `config_number`, or None when absent or null."""
    return None if obj.get(key) is None else config_number(obj, key)


def _stability_inputs(obj, grid, cfg, checks):
    """delta, R and the second run of the stability check: `cfg` with
    checks.initial2, or else with both cosine amplitudes scaled by
    checks.stability_scale."""
    if "delta" not in checks:
        raise ConfigError("stability check needs checks.delta")
    delta = config_number(checks, "delta")
    radius = config_number(checks, "R", 1.0)
    if checks.get("initial2") is not None:
        u2, v2 = _build_initial(grid, checks["initial2"])
    else:
        init2 = _scaled_cosine(obj["initial"], ("u_amp", "v_amp"),
                               config_number(checks, "stability_scale", 0.5),
                               "stability_scale needs cosine initial data; "
                               "supply checks.initial2 otherwise")
        u2, v2 = _build_initial(grid, init2)
    return delta, radius, dataclasses.replace(cfg, initial=State(0.0, u2, v2))


def _run(obj, requested=()):
    """Parse a run config, integrate it and compute the requested reports
    in order: the one run path of every command.  A request with `lambda`
    records every step; one with `stability` integrates the check's
    second run in one batch with the first.  Returns the trajectory
    (partial after a blow-up), the reports finished, and the blow-up step
    or None."""
    force = 1 if "lambda" in requested else None
    grid, spec, cfg, checks = _parse_run(obj, force_record_every=force)
    configs = [cfg]
    if "stability" in requested:
        delta, radius, cfg2 = _stability_inputs(obj, grid, cfg, checks)
        configs.append(cfg2)
    results = simulate(configs)
    traj = results[0]
    if isinstance(traj, BlowupError):
        return traj.trajectory, [], traj.step
    reports: list[Report] = []
    for name in requested:
        if name == "mass":
            reports.append(check_mass(traj))
        elif name == "energy":
            reports.append(check_energy_decay(traj, spec))
        elif name == "duality":
            zeros = TimeSeriesField(traj.times[[0, -1]], np.zeros((2,) + grid.shape))
            for label, series, d_coef, poly, z_in in (
                    ("duality_u", traj.series_u(), spec.d1, spec.p, cfg.initial.u),
                    ("duality_v", traj.series_v(), spec.d2, spec.q, cfg.initial.v)):
                mu = TimeSeriesField(traj.times,
                                     d_coef + poly.eval_arrays(traj.u, traj.v))
                rep = check_duality(series, mu, zeros, z_in)
                reports.append(dataclasses.replace(rep, name=label))
        elif name == "rate":
            reports.append(fit_decay_rate(traj))
        elif name == "stability":
            # a blow-up in the second run leaves the first whole
            if isinstance(results[1], BlowupError):
                return traj, reports, results[1].step
            reports.append(check_stability_pair(traj, results[1], spec, radius, delta))
        elif name == "lambda":
            _, rep = track_lambda(traj, spec, config_number(checks, "k", 3.0),
                                  delta=_optional_number(checks, "delta"))
            reports.append(rep)
        elif name == "hk":
            if "k_sob" not in checks:
                raise ConfigError("hk check needs checks.k_sob")
            _, rep = track_hk(traj, config_number(checks, "k_sob", integral=True),
                              small=_optional_number(checks, "hk_small"))
            reports.append(rep)
        elif name == "lyapunov":
            reports.append(check_lyapunov_nonconvex(traj))
    return traj, reports, None


def _cmd_simulate(args) -> int:
    traj, _, step = _run(io.load_json(args.config))
    io.write_trajectory(args.out, traj)
    if step is not None:
        print(f"run blew up at step {step}", file=sys.stderr)
        return 1
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
    # each warning raised on the way is printed as one `warning:` line,
    # after the blow-up line and before a configuration error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            _, reports, step = _run(obj, requested)
            if step is not None:
                print(f"run blew up at step {step}", file=sys.stderr)
                reports.append(Report("blowup", False, {"step": step}, 0.0,
                                      "the run stays finite up to t_end"))
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    io.write_reports(args.report, reports)
    failed = [r.name for r in reports if not r.passed]
    for rep in reports:
        print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}")
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _flag_number(args, flag: str, allow_inf: bool = False) -> float:
    """The number a norms flag gives; NaN, and infinity unless allowed,
    are errors."""
    text = getattr(args, flag)
    if text is None:
        raise ConfigError(f"--norm {args.norm} needs --{flag}")
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"--{flag} must be a number, got {text!r}") from None
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ConfigError(f"--{flag} must be finite, got {text!r}")
    return value


def _cmd_norms(args) -> int:
    field = io.read_field(args.input)
    if args.norm == "lp":
        value = lp_norm(field, _flag_number(args, "p", allow_inf=True))
    elif args.norm == "hs":
        value = sobolev_norm(field, _flag_number(args, "s"))
    else:
        value = besov_Nk(field, _flag_number(args, "k"), tol=_flag_number(args, "tol"))
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
    radius = config_number(_checks(obj), "R", 1.0)
    for key, value in thresholds(spec, radius).items():
        print(f"{key} = {value:.12g}")
    return 0


def _sweep_axis(base: dict, axis: str, value: float) -> dict:
    obj = copy.deepcopy(base)
    if axis == "amplitude":
        init = obj.get("initial") if isinstance(obj, dict) else None
        obj["initial"] = _scaled_cosine(init, ("u_mean", "u_amp", "v_mean", "v_amp"), value,
                                        "the amplitude axis needs cosine initial data")
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


def _sweep_row(item: tuple) -> str:
    """One table row from a (value as text, run config) pair: verify's
    `lambda` and `rate` reports of the run."""
    value, run_obj = item
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, reports, step = _run(run_obj, ("lambda", "rate"))
    if step is not None:
        return ",".join((value, "nan", "nan", "nan", "nan", "0", "0", "1"))
    lam, rate = reports
    return ",".join((value, repr(lam.measured["smallness"]),
                     repr(lam.measured["lambda_final"]), repr(rate.measured["rate"]),
                     repr(rate.measured["r_squared"]), str(int(lam.passed)),
                     str(int(rate.passed)), "0"))


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
    if not isinstance(obj["values"], list) or not obj["values"]:
        raise ConfigError("sweep values must be a nonempty list")
    values = [config_number({"sweep value": v}, "sweep value") for v in obj["values"]]
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"sweep value {v!r} is not a finite number")
    axis = str(obj["axis"])
    payloads = [(repr(v), _sweep_axis(obj["base"], axis, v)) for v in values]
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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, in one line like any other;
    subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(
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
    p.add_argument("--tol", default="1e-8")
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("counterexample",
                       help="build and verify the staircase family")
    p.add_argument("--nmax", type=int, default=5)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--d", type=int, default=1)
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
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CrossfluxError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
