"""Closed forms for the norm layer, checked live.

Every norm the package computes has a hand-derivable value on a pure
cosine; this script prints each computed/exact pair, then reassembles a
random field from its dyadic frequency blocks and runs the randomized
inequality checks.
"""

import math

import numpy as np

from crossflux.spaces import (
    bernstein_check,
    besov_Nk,
    block_sequence_check,
    dyadic_blocks,
    heat_decay_check,
    lp_norm,
    sobolev_norm,
)
from crossflux.spectral import FOUR_PI_SQ, Field, TorusGrid

grid = TorusGrid(1, 128)
cos = Field(grid, np.cos(2 * np.pi * grid.coords(0)))

rows = [
    ("L2", lp_norm(cos, 2), math.sqrt(0.5)),
    ("L4", lp_norm(cos, 4), (3.0 / 8.0) ** 0.25),
    ("H1", sobolev_norm(cos, 1), math.sqrt(0.5 * (1 + FOUR_PI_SQ))),
    ("H-1", sobolev_norm(cos, -1), math.sqrt(0.5 / (1 + FOUR_PI_SQ))),
    ("N_2", besov_Nk(cos, 2), 1.0 / (4.0 * math.pi)),
    ("N_4", besov_Nk(cos, 4), (3.0 / (128.0 * math.pi**2)) ** 0.25),
]
print(f"{'norm':>5} {'computed':>18} {'exact':>18}")
for name, got, exact in rows:
    print(f"{name:>5} {got:>18.12f} {exact:>18.12f}")

rng = np.random.default_rng(7)
f = Field(grid, rng.standard_normal(128))
total = np.full(128, np.mean(f.values))
for block in dyadic_blocks(f):
    total = total + block.values
print(f"\ndyadic reconstruction error: {np.max(np.abs(total - f.values)):.2e}")

for rep in (
    bernstein_check(grid, m=8, k=2),
    heat_decay_check(grid, m=4, p=2, times=[0.0, 1e-4, 1e-3]),
    block_sequence_check(grid, k=2),
):
    key = "max_deviation" if "max_deviation" in rep.measured else "max_ratio"
    print(f"{rep.name:>16}: pass={rep.passed}  {key}={rep.measured[key]:.3g} "
          f"(bound {rep.tolerance})")
