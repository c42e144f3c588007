"""File formats: field CSV, trajectory CSV, report JSON, config JSON.

All writers go through an atomic temp-file-plus-rename so a crashed or
interrupted run never leaves a half-written artifact. Floats are
serialized with repr (shortest round-trip form), which makes outputs
byte-stable across runs of the same configuration.
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import numpy as np

from .errors import ConfigError
from .spectral import Field, TorusGrid

_FIELD_HEADER = re.compile(r"#\s*d=(\d+)\s+N=(\d+)\s*$")


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _field_text(grid: TorusGrid, values: np.ndarray) -> str:
    lines = [f"# d={grid.d} N={grid.N}"]
    lines.extend(map(repr, values.ravel(order="C").tolist()))
    return "\n".join(lines) + "\n"


def write_field(path: str, field: Field) -> None:
    """One value per line in row-major order, after a shape header."""
    atomic_write_text(path, _field_text(field.grid, field.values))


def read_field(path: str) -> Field:
    """Parse a field CSV written by write_field."""
    try:
        with open(path) as handle:
            header = handle.readline()
            match = _FIELD_HEADER.match(header.strip())
            if not match:
                raise ConfigError(
                    f"{path}: expected a '# d=<d> N=<N>' header, got {header!r}")
            d, n = int(match.group(1)), int(match.group(2))
            body = handle.read().split()
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc
    grid = TorusGrid(d, n)
    if len(body) != grid.size:
        raise ConfigError(
            f"{path}: expected {grid.size} values for d={d} N={n}, "
            f"got {len(body)}")
    try:
        vals = np.array([float(tok) for tok in body]).reshape(grid.shape)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric value ({exc})") from exc
    return Field(grid, vals)


def _l2_rows(s: np.ndarray) -> list:
    with np.errstate(over="ignore"):
        squares = np.mean(np.abs(s) ** 2, axis=1)
    l2 = [float(m ** 0.5) for m in squares]
    for i in np.flatnonzero(~np.isfinite(squares)):
        scale = np.abs(s[i]).max()
        l2[i] = float(scale * np.mean((s[i] / scale) ** 2) ** 0.5)
    return l2


def trajectory_csv(traj) -> str:
    """Summary rows at recorded times: masses, minima, L2 norms.  Each
    column is one reduction over the state stacks; the L2 root is taken
    per state, as `lp_norm` takes it.  A row whose squares overflow, as
    in the partial history of a blown-up run, is scaled by its largest
    |sample| first."""
    n = len(traj.times)
    u, v = traj.u.reshape(n, -1), traj.v.reshape(n, -1)
    l2_u, l2_v = (_l2_rows(s) for s in (u, v))
    cols = (traj.times.tolist(), u.mean(axis=1).tolist(), v.mean(axis=1).tolist(),
            u.min(axis=1).tolist(), v.min(axis=1).tolist(), l2_u, l2_v)
    lines = ["t,mass_u,mass_v,min_u,min_v,l2_u,l2_v"]
    lines.extend(",".join(map(repr, row)) for row in zip(*cols))
    return "\n".join(lines) + "\n"


def write_trajectory(path: str, traj) -> None:
    atomic_write_text(path, trajectory_csv(traj))


def dump_fields(directory: str, traj) -> None:
    """One field CSV per species per recorded time."""
    g = traj.grid
    for idx, (u, v) in enumerate(zip(traj.u, traj.v)):
        atomic_write_text(os.path.join(directory, f"u_{idx:06d}.csv"), _field_text(g, u))
        atomic_write_text(os.path.join(directory, f"v_{idx:06d}.csv"), _field_text(g, v))


def write_reports(path: str, reports) -> None:
    """Deterministic JSON array of report objects."""
    payload = [r.to_json_dict() for r in reports]
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path: str) -> dict:
    """Read a JSON config, reporting parse failures with line and column."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return obj
