"""Workload definitions: seeded inputs and one job of each workload.

Every workload integrates the linear SKT model d1=1, d2=1.5, p=q=X+Y.
The seed draws a small pool of positive cosine initial data; job i of a
run uses pool entry i % POOL, so every job has a stored reference when
the seed has one.  The crossflux package is passed in as `cf`, because
the harness imports it afresh for each set-up it times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("sim-1d", "sim-2d", "verify-1d")
POOL = 2

D1, D2 = 1.0, 1.5

SIM1D_N = 64
SIM1D_DT = 1e-4
SIM1D_STEPS = 800
SIM1D_RECORD = 20
RK4_STEPS = 100
RK4_SAFETY = 0.9

SIM2D_N = 256
SIM2D_DT = 1e-4
SIM2D_STEPS = 8

VERIFY_N = 32
VERIFY_DT = 2e-4
VERIFY_T_END = 0.02
VERIFY_CHECKS = "mass,energy,duality,stability,lambda,hk,rate"
# delta = 0.3 is admissible for the stability estimate (C_delta > 0 up to
# about 0.55) and at least twice the smallness of every generated input,
# so the lambda check tests the bootstrap conclusion instead of passing
# vacuously.
VERIFY_CHECK_PARAMS = {"k": 3.0, "delta": 0.3, "R": 1.0, "k_sob": 1,
                       "stability_scale": 0.5}


def model_spec(cf):
    return cf.ModelSpec(D1, D2, cf.X + cf.Y, cf.X + cf.Y)


def model_dict(N: int) -> dict:
    return {"d": 1, "N": N, "d1": D1, "d2": D2,
            "p": [[1, 0, 1.0], [0, 1, 1.0]], "q": [[1, 0, 1.0], [0, 1, 1.0]]}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """POOL cosine data sets: means near 1e-2, amplitudes below the means.

    The v amplitude is kept under a tenth of its mean, as criterion c06
    keeps v constant: the fitted rate is then the slowest mode's rate
    8*pi^2*m^2*min(d1, d2), not a mixture with the faster v mode.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pool = []
    for _ in range(POOL):
        u_mean = 0.01 * float(rng.uniform(0.8, 1.2))
        v_mean = 0.01 * float(rng.uniform(0.8, 1.2))
        pool.append({"u_mean": u_mean, "u_amp": u_mean * float(rng.uniform(0.3, 0.9)),
                     "v_mean": v_mean, "v_amp": v_mean * float(rng.uniform(0.0, 0.1)),
                     "mode": int(rng.integers(1, 3))})
    return pool


def cosine_state(cf, d: int, N: int, inp: dict):
    """Initial state; in 2-d the wave runs along the diagonal x + y, so
    the solution depends on (i + j) mod N only and its reference is a
    single N-point profile."""
    grid = cf.TorusGrid(d, N)
    phase = grid.coords(0) if d == 1 else grid.coords(0) + grid.coords(1)
    wave = np.cos(2.0 * np.pi * inp["mode"] * phase)
    return cf.State(0.0, cf.Field(grid, inp["u_mean"] + inp["u_amp"] * wave),
                    cf.Field(grid, inp["v_mean"] + inp["v_amp"] * wave))


class Workload:
    """Prepared inputs of one workload and the job that consumes them."""

    name = ""
    cells = 0
    steps = 0

    def __init__(self, cf, seed: int, workdir: str):
        self.cf = cf
        self.spec = model_spec(cf)
        self.inputs = make_inputs(self.name, seed)
        self.prepare(workdir)

    def prepare(self, workdir: str) -> None:
        raise NotImplementedError

    def run(self, i: int) -> dict:
        raise NotImplementedError


class Sim1D(Workload):
    name = "sim-1d"
    cells = SIM1D_N
    steps = SIM1D_STEPS + RK4_STEPS

    def prepare(self, workdir):
        self.states = [cosine_state(self.cf, 1, SIM1D_N, inp) for inp in self.inputs]

    def run(self, i):
        cf, spec, state = self.cf, self.spec, self.states[i % POOL]
        imex = cf.simulate(cf.RunConfig(spec, state, dt=SIM1D_DT,
                                        t_end=SIM1D_STEPS * SIM1D_DT,
                                        record_every=SIM1D_RECORD))
        dt4 = RK4_SAFETY * cf.rk4_max_dt(spec, state)
        rk4 = cf.simulate(cf.RunConfig(spec, state, dt=dt4, t_end=RK4_STEPS * dt4,
                                       record_every=RK4_STEPS, scheme="rk4"))
        reports = [cf.check_mass(imex), cf.check_mass(rk4), cf.fit_decay_rate(imex)]
        last, last4 = imex.states[-1], rk4.states[-1]
        return {"fields": {"imex_u": last.u.values, "imex_v": last.v.values,
                           "rk4_u": last4.u.values, "rk4_v": last4.v.values},
                "reports": [r.to_json_dict() for r in reports]}


class Sim2D(Workload):
    name = "sim-2d"
    cells = SIM2D_N ** 2
    steps = SIM2D_STEPS

    def prepare(self, workdir):
        self.states = [cosine_state(self.cf, 2, SIM2D_N, inp) for inp in self.inputs]

    def run(self, i):
        cf = self.cf
        traj = cf.simulate(cf.RunConfig(self.spec, self.states[i % POOL], dt=SIM2D_DT,
                                        t_end=SIM2D_STEPS * SIM2D_DT,
                                        record_every=SIM2D_STEPS))
        last = traj.states[-1]
        return {"fields": {"u": last.u.values, "v": last.v.values},
                "reports": [cf.check_mass(traj).to_json_dict()]}


class Verify1D(Workload):
    """In-process `crossflux verify` on a config file per pool entry.

    The lambda check forces every step to be recorded, and the stability
    check integrates a second run, so a job advances two runs of 100 steps.
    """

    name = "verify-1d"
    cells = VERIFY_N
    steps = 2 * round(VERIFY_T_END / VERIFY_DT)

    def prepare(self, workdir):
        self.configs, self.reports = [], []
        for k, inp in enumerate(self.inputs):
            initial = {"kind": "cosine", **inp}
            cfg = {"model": model_dict(VERIFY_N), "initial": initial,
                   "dt": VERIFY_DT, "t_end": VERIFY_T_END,
                   "checks": VERIFY_CHECK_PARAMS}
            path = os.path.join(workdir, f"verify-{k}.json")
            with open(path, "w") as handle:
                json.dump(cfg, handle)
            self.configs.append(path)
            self.reports.append(os.path.join(workdir, f"report-{k}.json"))

    def run(self, i):
        report = self.reports[i % POOL]
        if os.path.exists(report):
            os.unlink(report)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cf.cli.run_cli(["verify", "--config", self.configs[i % POOL],
                                        "--checks", VERIFY_CHECKS, "--report", report])
        reports = []
        if os.path.exists(report):
            with open(report) as handle:
                reports = json.load(handle)
        return {"exit_code": code, "stderr": err.getvalue(), "reports": reports}


WORKLOAD_TYPES = {w.name: w for w in (Sim1D, Sim2D, Verify1D)}


def expected_rate(inp: dict) -> float:
    """Relaxation rate of the slowest mode, as in criterion c06."""
    return 8.0 * math.pi ** 2 * inp["mode"] ** 2 * min(D1, D2)
