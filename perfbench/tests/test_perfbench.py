"""Self-tests of the benchmark harness (run: python3 -m pytest perfbench/tests)."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import oracle
import run
from conftest import BENCH, ROOT
from workloads import WORKLOAD_TYPES, WORKLOADS, make_inputs

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _bump(out, workload):
    """Copy of a job output with one value moved by 1e-12."""
    out = json.loads(json.dumps(out, default=lambda a: a.tolist()))
    if workload == "verify-1d":
        out["reports"][2]["measured"]["final_margin"] += 1e-12
    else:
        out["fields"] = {k: np.array(v) for k, v in out["fields"].items()}
        name = next(iter(out["fields"]))
        out["fields"][name].flat[5] += 1e-12
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_off_by_1e12_fails(cf, workload, tmp_path):
    wl = WORKLOAD_TYPES[workload](cf, 0, str(tmp_path))
    ref = oracle.load_reference(workload, 0)[0]
    out = wl.run(0)
    assert oracle.check(workload, wl.inputs[0], out, ref)[0] == []
    assert oracle.check(workload, wl.inputs[0], _bump(out, workload), ref)[0]


def test_off_output_counts_as_failed_job(cf, tmp_path):
    wl = WORKLOAD_TYPES["sim-1d"](cf, 0, str(tmp_path))
    outputs = [wl.run(0), wl.run(1)]
    wl.run = lambda i: _bump(outputs[i % 2], "sim-1d")
    times, _, failures = run.measure(wl, oracle.load_reference("sim-1d", 0), 0.0)
    assert len(times) == run.MIN_JOBS and len(failures) == run.MIN_JOBS


def _bindings(cf):
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "crossflux" or n.startswith("crossflux."))]
    table = {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()
             if callable(v)}
    table.update({("numpy.fft", k): id(v) for k, v in vars(np.fft).items()})
    return table


def test_traced_run_restores_every_original(cf, tmp_path):
    before = _bindings(cf)
    wl = WORKLOAD_TYPES["verify-1d"](cf, 0, str(tmp_path))
    refs = {name: oracle.load_reference(name, 0) for name in WORKLOADS}
    metrics, ledger = layers.traced_run(cf, wl, 0, 0.1, str(tmp_path), refs,
                                        str(tmp_path / "spans.npz"))
    assert _bindings(cf) == before
    assert ledger.problems == []  # includes bit-identity with untraced twins
    assert metrics["spaces.besov_Nk.calls"]["value"] > 0
    assert metrics["spectral.fft.calls_per_step"]["value"] > 0


def test_seed_changes_inputs_not_metric_names(cf, tmp_path):
    for workload in WORKLOADS:
        assert make_inputs(workload, 0) == make_inputs(workload, 0)
        assert make_inputs(workload, 0) != make_inputs(workload, 1)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers.metric_units()) == per_layer
    names = []
    for seed in (0, 1, 99):  # 99 has no stored reference
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "verify-1d",
             "--seed", str(seed), "--seconds", "0.1", "--trace", "0"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        names.append(set(result["metrics"]))
    assert names[0] == names[1] == names[2] == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "sim-1d", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
