"""Energy-type inequalities evaluated along computed solutions.

First a scalar divergence-form problem with a rough coefficient is
solved and the dual-norm estimate is evaluated: the margin is positive
for generic data and collapses to zero for a constant state.  Then two
nearby system trajectories are compared in the weak distance, including
the exactly-predicted growth term coming from their mean mismatch.
"""

import numpy as np

from crossflux.model import ModelSpec, X, Y, stability_constants
from crossflux.solver import RunConfig, State, simulate, solve_kolmogorov
from crossflux.spaces import TimeSeriesField
from crossflux.spectral import Field, TorusGrid
from crossflux.verifier import check_duality, check_stability_pair

grid = TorusGrid(1, 32)
x = grid.coords(0)
t_end = 0.1
times = np.array([0.0, t_end])

rng = np.random.default_rng(11)
mu = TimeSeriesField(times, [Field(grid, 0.5 + np.abs(rng.standard_normal(32)))] * 2)
f = TimeSeriesField(times, [Field(grid, 0.3 * rng.standard_normal(32))] * 2)
z0 = Field(grid, rng.standard_normal(32))

z = solve_kolmogorov(z0, mu, f, dt=1e-4, t_end=t_end)
rep = check_duality(z, mu, f, z0)
print("rough-coefficient problem")
print(f"  estimate holds: {rep.passed}")
print(f"  final margin:   {rep.measured['final_margin']:.4e}")

zc = Field(grid, np.full(32, 0.8))
f0 = TimeSeriesField(times, [Field(grid, np.zeros(32))] * 2)
mu1 = TimeSeriesField(times, [Field(grid, np.ones(32))] * 2)
zc_series = solve_kolmogorov(zc, mu1, f0, dt=1e-4, t_end=t_end)
sharp = check_duality(zc_series, mu1, f0, zc)
print("constant state (saturating fixture)")
print(f"  final margin:   {sharp.measured['final_margin']:.2e}  (exactly tight)")

spec = ModelSpec(1.0, 1.0, X + Y, X + Y)
c_delta, admissible = stability_constants(spec, 1.0, 0.3)
print(f"\ntwo-trajectory comparison, C_delta = {c_delta} (admissible: {admissible})")


def config(um, vm):
    u0 = Field(grid, um + 0.02 * np.cos(2 * np.pi * x))
    v0 = Field(grid, vm + 0.02 * np.cos(2 * np.pi * x))
    return RunConfig(spec, State(0.0, u0, v0), dt=2e-4, t_end=0.5, record_every=1)


# both runs advance as one batch; each is bitwise its own single run
first, second = simulate([config(0.10, 0.12), config(0.13, 0.09)])
pair = check_stability_pair(first, second, spec, R=1.0, delta=0.3)
print(f"  inequality holds at every recorded time: {pair.passed}")
print(f"  worst LHS/RHS ratio: {pair.measured['max_ratio']:.6f}")
print(f"  mean-mismatch slope: {pair.measured['rhs_slope']:.6e}")
print(f"  hand value:          {0.03**2 * 3.0 + 0.03**2 * 3.0:.6e}")
