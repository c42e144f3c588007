"""Pseudo-spectral simulation and estimate verification for two-species
cross-diffusion systems on the flat torus (one, two or three dimensions)."""

from .counterexample import (QuinticRoots, StaircasePair, build_pair,
                             quintic_roots, staircase, verify_counterexample)
from .errors import BlowupError, ConfigError, CrossfluxError, DomainError
from .model import (ModelSpec, Poly1, Poly2, X, Y, bootstrap_delta,
                    bootstrap_poly, derive_QR, find_delta_A, flux, flux_polys,
                    lipschitz_LR, model_json, parse_model_json, poly_eval,
                    smallness_functional, stability_constants, thresholds)
from .report import Report
from .solver import (RunConfig, State, Trajectory, rk4_max_dt, simulate,
                     solve_kolmogorov)
from .spaces import (REGRESSION_CONSTANTS, TimeSeriesField, bernstein_check,
                     besov_Nk, block_sequence_check, block_sequence_norm,
                     dyadic_blocks, heat_decay_check, lp_norm, maxreg_ratio,
                     mean, random_band_field, sobolev_norm, spacetime_lk)
from .spectral import (FOUR_PI_SQ, Field, SpectralField, TorusGrid, heat_propagate,
                       inverse, laplacian, mollify, poly_field, transform)
from .verifier import (check_duality, check_energy_decay,
                       check_lyapunov_nonconvex, check_mass,
                       check_stability_pair, fit_decay_rate,
                       fit_exponential_rate, grad_norm_sq, track_hk,
                       track_lambda)

__version__ = "0.1.0"
