"""The traced run: per-layer metrics from spans and from timed calls.

Three phases share the run's seconds:

1. overhead: untraced and traced jobs of the named workload alternate;
   `trace.overhead_frac` is the ratio of their medians minus one, and
   each traced output must equal its untraced twin bit for bit;
2. rounds: each traced round runs one job of every workload, so every
   layer is exercised whichever workload is named.  Span counts and
   times (`<layer>.<fn>.calls/.total_s/.self_s`) are per round;
3. ladder: calls into public functions timed from outside on the grid
   ladder 1-d N=32/256/4096 and 2-d N=64/256 (medians of repeats).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

import oracle
import spans
from workloads import (POOL, RK4_SAFETY, VERIFY_CHECK_PARAMS,
                       WORKLOAD_TYPES, WORKLOADS, cosine_state, make_inputs,
                       model_spec)

OVERHEAD_SHARE = 0.3
ROUNDS_SHARE = 0.3
MIN_REPEATS = 3

GRIDS = {"1d32": (1, 32), "1d256": (1, 256), "1d4096": (1, 4096),
         "2d64": (2, 64), "2d256": (2, 256)}
# steps per timed simulate call, scaled so that one call takes a few ms or more
SIM_STEPS = {"1d32": 50, "1d256": 50, "1d4096": 20, "2d64": 20, "2d256": 3}
RK4_GRIDS = {"1d32": 20, "1d256": 20, "2d64": 5}
RECORD_STEPS = 50
STATE_GRIDS = {"1d32": 20, "2d64": 5}
VERIFIER_FNS = ("track_lambda", "check_duality", "check_stability_pair",
                "check_energy_decay", "track_hk", "fit_decay_rate")
# k_sob must exceed d/2 on both ladder grids
LADDER_K_SOB = 2


def metric_units() -> dict:
    """Every per-layer metric name with its unit, independent of the seed."""
    units = {}
    for label in spans.LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.total_s"] = "s"
        units[f"{label}.self_s"] = "s"
    units.update({"spectral.fft.calls_per_step": "count",
                  "spectral.shift.calls_per_step": "count",
                  "spectral.fft.points_per_step": "count",
                  "spectral.fft.bytes_per_step": "B",
                  "spaces.besov_Nk.fft_calls": "count",
                  "trace.overhead_frac": "frac",
                  "accuracy.max_abs_err": "abs"})
    for g in GRIDS:
        for fn in ("transform", "inverse", "poly_field"):
            units[f"spectral.{fn}.us.{g}"] = "us"
        units[f"solver.simulate.us_per_step.{g}"] = "us"
    for g in RK4_GRIDS:
        units[f"solver.rk4.us_per_step.{g}"] = "us"
    units["solver.record.us_per_step.1d32"] = "us"
    for g in STATE_GRIDS:
        for fn in VERIFIER_FNS:
            units[f"verifier.{fn}.us_per_state.{g}"] = "us"
        units[f"model.flux.us_per_state.{g}"] = "us"
    units["model.smallness_functional.us.1d32"] = "us"
    return units


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


class Ledger:
    """Job outcomes of the traced run, and the largest reference deviation."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.problems = []
        self.max_abs_err = 0.0

    def record(self, wl, i, out, twin=None):
        self.attempted += 1
        ref = None if self.refs.get(wl.name) is None else self.refs[wl.name][i % POOL]
        problems, err = oracle.check(wl.name, wl.inputs[i % POOL], out, ref)
        if twin is not None and not oracle.same_output(out, twin):
            problems.append("traced output differs from the untraced output")
        if problems:
            self.problems.append(f"{wl.name} job {i}: " + "; ".join(problems))
        self.max_abs_err = max(self.max_abs_err, err)


def _overhead(wl, ledger, budget):
    plain, traced = [], []
    tracer = spans.Tracer()
    t_end = perf_counter() + budget
    i = 0
    while i < MIN_REPEATS or perf_counter() < t_end:
        out, dt = _timed(wl.run, i)
        plain.append(dt)
        ledger.record(wl, i, out)
        tracer.clear()
        with tracer.installed():
            out_t, dt = _timed(wl.run, i)
        traced.append(dt)
        ledger.record(wl, i, out_t, twin=out)
        i += 1
    return statistics.median(traced) / statistics.median(plain) - 1.0


def _rounds(cf, wl, seed, workdir, ledger, budget):
    """Traced rounds of one job per workload; returns the tracer holding
    their spans, and the round count."""
    runners = [wl if name == wl.name else WORKLOAD_TYPES[name](cf, seed, workdir)
               for name in WORKLOADS]
    twins = {r.name: [r.run(k) for k in range(POOL)] for r in runners}
    for r in runners:
        for k, out in enumerate(twins[r.name]):
            ledger.record(r, k, out)
    tracer = spans.Tracer()
    t_end = perf_counter() + budget
    n = 0
    with tracer.installed():
        while n < 1 or perf_counter() < t_end:
            for job, runner in enumerate(runners):
                with tracer.job_span(job, "job." + runner.name):
                    out = runner.run(n)
                ledger.record(runner, n, out, twin=twins[runner.name][n % POOL])
            n += 1
    return tracer, n


def _span_metrics(tracer, n_rounds) -> dict:
    arr = tracer.arrays()
    self_s = spans.self_times(arr)
    dur = arr["end"] - arr["start"]
    out = {}
    for label in spans.LABELS:
        lid = tracer.labels.index(label)
        mask = arr["name"] == lid
        out[f"{label}.calls"] = int(mask.sum()) / n_rounds
        out[f"{label}.total_s"] = float(dur[mask].sum()) / n_rounds
        out[f"{label}.self_s"] = float(self_s[mask].sum()) / n_rounds
    fft = arr["name"] == tracer.labels.index(spans.FFT)
    shift = arr["name"] == tracer.labels.index(spans.SHIFT)
    sim1d = arr["job"] == WORKLOADS.index("sim-1d")
    sim2d = arr["job"] == WORKLOADS.index("sim-2d")
    steps1d = n_rounds * WORKLOAD_TYPES["sim-1d"].steps
    steps2d = n_rounds * WORKLOAD_TYPES["sim-2d"].steps
    out["spectral.fft.calls_per_step"] = int((fft & sim1d).sum()) / steps1d
    out["spectral.shift.calls_per_step"] = int((shift & sim1d).sum()) / steps1d
    out["spectral.fft.points_per_step"] = int(arr["points"][fft & sim2d].sum()) / steps2d
    out["spectral.fft.bytes_per_step"] = int(arr["nbytes"][fft & sim2d].sum()) / steps2d
    besov = spans.inside(arr, tracer.labels.index("spaces.besov_Nk"))
    out["spaces.besov_Nk.fft_calls"] = int((fft & besov).sum()) / n_rounds
    return out


def _ladder(cf, seed, budget) -> dict:
    spec = model_spec(cf)
    inp = make_inputs("sim-1d", seed)[0]
    f1, _ = cf.flux_polys(spec)
    states = {g: cosine_state(cf, d, N, inp) for g, (d, N) in GRIDS.items()}
    # the budget is shared evenly by the ladder's metrics, all in us
    share = budget / sum(unit == "us" for unit in metric_units().values())

    def median(fn, *args):
        """Median time of repeated calls for `share` seconds."""
        times = []
        t_end = perf_counter() + share
        while len(times) < MIN_REPEATS or perf_counter() < t_end:
            times.append(_timed(fn, *args)[1])
        return statistics.median(times)

    out = {}

    def run(state, steps, record_every, scheme="imex", dt=1e-4):
        return cf.simulate(cf.RunConfig(spec, state, dt=dt, t_end=steps * dt,
                                        record_every=record_every, scheme=scheme))

    for g, s in states.items():
        sf = cf.transform(s.u)
        out[f"spectral.transform.us.{g}"] = 1e6 * median(cf.transform, s.u)
        out[f"spectral.inverse.us.{g}"] = 1e6 * median(cf.inverse, sf)
        out[f"spectral.poly_field.us.{g}"] = 1e6 * median(cf.poly_field, f1, s.u, s.v)
        n = SIM_STEPS[g]
        out[f"solver.simulate.us_per_step.{g}"] = 1e6 * median(run, s, n, n) / n
    for g, n in RK4_GRIDS.items():
        s = states[g]
        dt = RK4_SAFETY * cf.rk4_max_dt(spec, s)
        out[f"solver.rk4.us_per_step.{g}"] = (
            1e6 * median(run, s, n, n, "rk4", dt) / n)

    # dense minus sparse recording, paired back to back
    diffs = []
    t_end = perf_counter() + share
    s = states["1d32"]
    while len(diffs) < MIN_REPEATS or perf_counter() < t_end:
        dense = _timed(run, s, RECORD_STEPS, 1)[1]
        sparse = _timed(run, s, RECORD_STEPS, RECORD_STEPS)[1]
        diffs.append(dense - sparse)
    out["solver.record.us_per_step.1d32"] = 1e6 * statistics.median(diffs) / RECORD_STEPS

    delta, radius = VERIFY_CHECK_PARAMS["delta"], VERIFY_CHECK_PARAMS["R"]
    k = VERIFY_CHECK_PARAMS["k"]
    for g, steps in STATE_GRIDS.items():
        s = states[g]
        half = cf.State(0.0, s.u.values.mean() + 0.5 * (s.u - s.u.values.mean()),
                        s.v.values.mean() + 0.5 * (s.v - s.v.values.mean()))
        traj, traj2 = run(s, steps, 1), run(half, steps, 1)
        n_states = len(traj.states)
        mu = cf.TimeSeriesField(traj.times, [
            cf.Field(s.grid, spec.d1 + cf.poly_eval(spec.p, st.u, st.v).values)
            for st in traj.states])
        zero = cf.Field(s.grid, np.zeros(s.grid.shape))
        zeros = cf.TimeSeriesField(traj.times[[0, -1]], [zero, zero])
        calls = {
            "track_lambda": (cf.track_lambda, traj, spec, k, delta),
            "check_duality": (cf.check_duality, traj.series_u(), mu, zeros,
                              traj.states[0].u),
            "check_stability_pair": (cf.check_stability_pair, traj, traj2, spec,
                                     radius, delta),
            "check_energy_decay": (cf.check_energy_decay, traj, spec),
            "track_hk": (cf.track_hk, traj, LADDER_K_SOB),
            "fit_decay_rate": (cf.fit_decay_rate, traj),
        }
        for fn in VERIFIER_FNS:
            out[f"verifier.{fn}.us_per_state.{g}"] = 1e6 * median(*calls[fn]) / n_states

        def flux_all(traj=traj):
            for st in traj.states:
                cf.flux(spec, st.u, st.v)

        out[f"model.flux.us_per_state.{g}"] = 1e6 * median(flux_all) / n_states
    s = states["1d32"]
    out["model.smallness_functional.us.1d32"] = 1e6 * median(
        cf.smallness_functional, s.u, s.v, spec, k)
    return out


def traced_run(cf, wl, seed, seconds, workdir, refs, span_path):
    """Per-layer metrics for one traced run; returns (metrics, ledger)."""
    ledger = Ledger(refs)
    overhead = _overhead(wl, ledger, OVERHEAD_SHARE * seconds)
    tracer, n_rounds = _rounds(cf, wl, seed, workdir, ledger, ROUNDS_SHARE * seconds)
    values = _span_metrics(tracer, n_rounds)
    tracer.dump(span_path)
    del tracer
    values.update(_ladder(cf, seed, (1.0 - OVERHEAD_SHARE - ROUNDS_SHARE) * seconds))
    values["trace.overhead_frac"] = overhead
    values["accuracy.max_abs_err"] = ledger.max_abs_err
    units = metric_units()
    if set(values) != set(units):
        raise RuntimeError(f"metric names out of step: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}, ledger
