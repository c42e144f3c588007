"""Regenerate the stored reference outputs for the shipped seeds.

    python3 perfbench/make_reference.py

Runs every pool entry of every workload for seeds 0..REFERENCE_SEEDS-1,
refuses to store an output that fails the invariant checks, and writes
perfbench/reference/{sim-1d,sim-2d}.npz and verify-1d.json.  Reference
outputs pin the program's results at the commit that made them; run it
again only when a change is meant to alter those results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

import oracle
from run import SRC, WORK, fresh_import
from workloads import POOL, WORKLOAD_TYPES, WORKLOADS

REFERENCE_SEEDS = 16


def main() -> int:
    sys.path.insert(0, SRC)
    cf = fresh_import()
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(oracle.REF_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        for name in WORKLOADS:
            arrays, reports = {}, {}
            for seed in range(REFERENCE_SEEDS):
                wl = WORKLOAD_TYPES[name](cf, seed, workdir)
                reports[str(seed)] = []
                for k in range(POOL):
                    out = wl.run(k)
                    problems, _ = oracle.check(name, wl.inputs[k], out, None)
                    if problems:
                        print(f"{name} seed {seed} entry {k}: {problems}", file=sys.stderr)
                        return 1
                    if name == "verify-1d":
                        reports[str(seed)].append(out["reports"])
                    else:
                        for field, vals in oracle.reference_arrays(name, out).items():
                            arrays[f"s{seed}_{k}_{field}"] = vals
            if name == "verify-1d":
                with open(os.path.join(oracle.REF_DIR, "verify-1d.json"), "w") as handle:
                    json.dump(reports, handle, sort_keys=True)
            else:
                np.savez(os.path.join(oracle.REF_DIR, f"{name}.npz"), **arrays)
            print(f"{name}: {REFERENCE_SEEDS} seeds x {POOL} inputs stored")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
