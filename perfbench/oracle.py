"""Correctness oracle behind `pass_frac`: invariants plus stored references.

Every job is checked for invariants that hold for any seed: finite,
positive final fields, means equal to the generated means, every Report
passing, and a fitted relaxation rate within 5% of 8*pi^2*m^2*min(d1, d2)
(criterion c06).  For seeds with a stored reference, final fields must
also match it to 1e-13 max-abs (the ROADMAP bound) and verify reports
must match it to 1e-9 relative.
"""

from __future__ import annotations

import json
import os

import numpy as np

from workloads import POOL, SIM2D_N, expected_rate

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

FIELD_TOL = 1e-13
MASS_TOL = 1e-13
REPORT_RTOL = 1e-9
# Values that are pure roundoff (mass drift, ~1e-18) have no relative
# precision; they are compared to this absolute floor instead.
REPORT_ATOL = 1e-15
RATE_RTOL = 0.05

VERIFY_NAMES = ["mass", "energy", "duality_u", "duality_v", "stability",
                "lambda", "hk", "rate"]


def load_reference(workload: str, seed: int):
    """Per pool entry reference outputs for the seed, or None."""
    if workload == "verify-1d":
        path = os.path.join(REF_DIR, "verify-1d.json")
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle).get(str(seed))
    path = os.path.join(REF_DIR, f"{workload}.npz")
    if not os.path.exists(path):
        return None
    with np.load(path) as data:
        prefix = f"s{seed}_"
        if not any(key.startswith(prefix) for key in data.files):
            return None
        refs = []
        for k in range(POOL):
            head = f"{prefix}{k}_"
            refs.append({key[len(head):]: data[key] for key in data.files
                         if key.startswith(head)})
        return refs


def reference_arrays(workload: str, out: dict) -> dict:
    """The arrays stored as reference for one job output."""
    fields = out["fields"]
    if workload == "sim-2d":
        # the diagonal data make u[i, j] a function of (i + j) mod N
        return {name: vals[:, 0].copy() for name, vals in fields.items()}
    return dict(fields)


def expand(workload: str, ref: np.ndarray) -> np.ndarray:
    """Full final field from its stored reference."""
    if workload == "sim-2d":
        idx = np.arange(SIM2D_N)
        return ref[(idx[:, None] + idx[None, :]) % SIM2D_N]
    return ref


def _check_reports(reports, problems):
    for rep in reports:
        if not rep["pass"]:
            problems.append(f"report {rep['check']} failed: {rep['measured']}")


def _check_rate(reports, inp, problems):
    rate = next(r for r in reports if r["check"] == "rate")["measured"]["rate"]
    target = expected_rate(inp)
    if not abs(rate - target) <= RATE_RTOL * target:
        problems.append(f"fitted rate {rate:.6g} is not within 5% of {target:.6g}")


def _check_fields(workload, inp, out, ref, problems) -> float:
    """Invariant and reference checks on final fields; returns the
    largest deviation from the reference (0 without one)."""
    worst = 0.0
    for name, vals in out["fields"].items():
        if not np.all(np.isfinite(vals)) or float(vals.min()) <= 0.0:
            problems.append(f"{name} is not finite and positive")
            continue
        mean = inp["u_mean"] if name.endswith("u") else inp["v_mean"]
        drift = abs(float(vals.mean()) - mean)
        if not drift <= MASS_TOL:
            problems.append(f"{name} mean drifted by {drift:.3e}")
        if ref is not None:
            err = float(np.max(np.abs(vals - expand(workload, ref[name]))))
            worst = max(worst, err)
            if not err <= FIELD_TOL:
                problems.append(f"{name} is {err:.3e} max-abs from the reference")
    return worst


def _check_verify(inp, out, ref, problems):
    if out["exit_code"] != 0:
        problems.append(f"verify exited with {out['exit_code']}: {out['stderr'].strip()}")
    reports = out["reports"]
    names = [r["check"] for r in reports]
    if names != VERIFY_NAMES:
        problems.append(f"verify wrote reports {names}, expected {VERIFY_NAMES}")
        return
    _check_reports(reports, problems)
    _check_rate(reports, inp, problems)
    mass = reports[0]["measured"]
    for sp in ("u", "v"):
        drift = abs(mass[f"initial_mass_{sp}"] - inp[f"{sp}_mean"])
        if not (drift <= MASS_TOL and abs(mass[f"max_deviation_{sp}"]) <= MASS_TOL):
            problems.append(f"mass of {sp} is not conserved to {MASS_TOL}")
    if ref is None:
        return
    for rep, want in zip(reports, ref):
        if rep["pass"] != want["pass"] or set(rep["measured"]) != set(want["measured"]):
            problems.append(f"report {rep['check']} differs in shape from the reference")
            continue
        for key, expect in want["measured"].items():
            got = rep["measured"][key]
            if not abs(got - expect) <= REPORT_RTOL * abs(expect) + REPORT_ATOL:
                problems.append(f"{rep['check']}.{key} = {got!r}, reference {expect!r}")


def check(workload: str, inp: dict, out: dict, ref) -> tuple[list, float]:
    """Problems found in one job output, and its largest field deviation
    from the reference.  `ref` is this pool entry's reference or None."""
    problems: list = []
    worst = 0.0
    if workload == "verify-1d":
        _check_verify(inp, out, ref, problems)
    else:
        _check_reports(out["reports"], problems)
        if workload == "sim-1d":
            _check_rate(out["reports"], inp, problems)
        worst = _check_fields(workload, inp, out, ref, problems)
    return problems, worst


def same_output(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of two outputs of the same job."""
    if a.keys() != b.keys():
        return False
    for key in a:
        if key == "fields":
            if a[key].keys() != b[key].keys() or not all(
                    np.array_equal(a[key][n], b[key][n]) for n in a[key]):
                return False
        elif json.dumps(a[key], sort_keys=True) != json.dumps(b[key], sort_keys=True):
            return False
    return True
