import json
import os

import numpy as np
import pytest

from crossflux.errors import ConfigError
from crossflux.io import (
    atomic_write_text,
    dump_fields,
    load_json,
    read_field,
    trajectory_csv,
    write_field,
    write_reports,
    write_trajectory,
)
from crossflux.model import X, Y, ModelSpec
from crossflux.report import Report
from crossflux.solver import RunConfig, State, simulate
from crossflux.spaces import lp_norm
from crossflux.spectral import Field, TorusGrid


def small_run(grid, cosine):
    spec = ModelSpec(1.0, 1.0, X + Y, X + Y)
    u0 = cosine(grid, mean=0.5, amp=0.1)
    return simulate(RunConfig(spec, State(0.0, u0, u0), dt=1e-4, t_end=5e-4))


def test_field_round_trip(tmp_path, rng):
    for grid in (TorusGrid(1, 32), TorusGrid(2, 8)):
        f = Field(grid, rng.standard_normal(grid.shape))
        path = tmp_path / f"f{grid.d}.csv"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, f.values)  # repr round trip


def test_field_header_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("no header\n1.0\n")
    with pytest.raises(ConfigError, match="header"):
        read_field(p)
    p.write_text("# d=1 N=32\n1.0\n2.0\n")
    with pytest.raises(ConfigError, match="32"):
        read_field(p)
    with pytest.raises(ConfigError):
        read_field(tmp_path / "missing.csv")


def test_trajectory_csv_layout(grid32, cosine, tmp_path):
    traj = small_run(grid32, cosine)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,mass_u,mass_v,min_u,min_v,l2_u,l2_v"
    assert len(lines) == 1 + traj.times.size
    out = tmp_path / "traj.csv"
    write_trajectory(out, traj)
    assert out.read_text() == text


def test_dump_fields(grid32, cosine, tmp_path):
    traj = small_run(grid32, cosine)
    dump_fields(tmp_path, traj)
    for n in range(traj.times.size):
        u = read_field(tmp_path / f"u_{n:06d}.csv")
        np.testing.assert_array_equal(u.values, traj.states[n].u.values)
        assert (tmp_path / f"v_{n:06d}.csv").exists()


def test_writers_match_state_by_state_forms(tmp_path, cosine, rng):
    # the stack reductions write the bytes of the per-State forms: a row
    # of Field reductions per recorded state, a write_field per field
    for grid in (TorusGrid(1, 32), TorusGrid(2, 8)):
        spec = ModelSpec(1.0, 1.5, X + Y, X * X)
        u0 = Field(grid, 0.5 + 0.1 * rng.standard_normal(grid.shape))
        v0 = cosine(grid, mean=0.3, amp=0.1)
        traj = simulate(RunConfig(spec, State(0.0, u0, v0), dt=1e-5, t_end=4e-5))
        lines = ["t,mass_u,mass_v,min_u,min_v,l2_u,l2_v"]
        for t, st in zip(traj.times, traj.states):
            row = (float(t), float(st.u.values.mean()), float(st.v.values.mean()),
                   float(st.u.values.min()), float(st.v.values.min()),
                   lp_norm(st.u, 2), lp_norm(st.v, 2))
            lines.append(",".join(repr(x) for x in row))
        assert trajectory_csv(traj) == "\n".join(lines) + "\n"

        dump_fields(tmp_path / "dump", traj)
        for n, st in enumerate(traj.states):
            for tag, field in (("u", st.u), ("v", st.v)):
                write_field(tmp_path / "one.csv", field)
                dumped = tmp_path / "dump" / f"{tag}_{n:06d}.csv"
                assert dumped.read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_write_reports_schema(tmp_path):
    rep = Report("demo", True, {"x": 1.0}, 1e-6, "anchor text")
    out = tmp_path / "report.json"
    write_reports(out, [rep])
    data = json.loads(out.read_text())
    assert data == [
        {
            "check": "demo",
            "pass": True,
            "measured": {"x": 1.0},
            "tolerance": 1e-6,
            "paper_anchor": "anchor text",
        }
    ]


def test_load_json_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{\n  \"a\": 1,\n}\n")
    with pytest.raises(ConfigError, match="line 3"):
        load_json(p)
    p.write_text("[1, 2]\n")
    with pytest.raises(ConfigError, match="object"):
        load_json(p)
    with pytest.raises(ConfigError):
        load_json(tmp_path / "absent.json")


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "one\n")
    atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["out.txt"]
