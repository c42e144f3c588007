"""Time integration of the cross-diffusion system and its scalar form.

Two steppers share one spatial discretization (Fourier collocation with
dealiased polynomial fluxes):

* `imex`: the stiff linear parts d_i * Lap are implicit and diagonal in
  Fourier space, the polynomial excess flux is explicit.  First order,
  conserves both means exactly, unconditionally stable in the linear part.
* `rk4`: classical fourth-order Runge-Kutta on the full right-hand side,
  used as a cross-validation oracle under its explicit stability bound.

States are advanced as coefficient arrays; the zero mode is never
touched by either scheme, so masses are conserved to the last bit.
Most steps read only the coefficients, so the time loop turns them into
samples, diagnoses, records and stop-checks them in blocks of steps.
Recorded states are stacked into arrays with time as the leading axis.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BlowupError, ConfigError, DomainError
from .model import ModelSpec, X, Y, derive_QR, excess_flux_polys, require_nonnegative
from .spaces import TimeSeriesField, interp_linear
from .spectral import (_BLOCK_BYTES, FOUR_PI_SQ, Field, TorusGrid, Work, _operand, poly_plan,
                       spectral_plan)

RK4_STABILITY_CONSTANT = 0.4
# every step is diagnosed into preallocated arrays, so the count is capped
MAX_STEPS = 10 ** 7
# the recorded samples of a run, every field of every batch member in
# float64, are one preallocated array, so its size is capped too
MAX_RECORD_BYTES = 2 ** 31


@dataclass(frozen=True)
class State:
    """Densities of both species at one instant."""

    t: float
    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ConfigError("u and v live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid


def _recorded_steps(dt: float, t_end: float, record_every: int) -> np.ndarray:
    """Indices of the steps a run records: 0, every `record_every`-th
    step, and the last of the t_end / dt steps.

    This is the one rule for a run's time grid, shared by `RunConfig`
    and `solve_kolmogorov`: dt and t_end are finite, dt is positive and
    divides t_end into 1 to MAX_STEPS steps, and record_every is a
    positive integer, not a bool.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end)):
        raise ConfigError(f"dt and t_end must be finite, got {dt} and {t_end}")
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if t_end > MAX_STEPS * dt:
        raise ConfigError(f"t_end / dt = {t_end / dt:.3g} steps exceeds the limit of {MAX_STEPS}")
    n = round(t_end / dt)
    if n < 1:
        raise ConfigError("t_end must be at least one step long")
    if abs(n * dt - t_end) > 1e-8 * t_end:
        raise ConfigError("dt must divide t_end")
    if (isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer))
            or record_every < 1):
        raise ConfigError(f"record_every must be a positive integer, got {record_every!r}")
    every = min(record_every, n)
    return np.minimum(np.arange(-(-n // every) + 1) * every, n)


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one simulation run, validated here: the
    initial state is at t = 0, and an rk4 run's dt is at most the
    `rk4_max_dt` of its initial state.  The recording limit is checked
    when the run starts, over all members of its batch."""

    spec: ModelSpec
    initial: State
    dt: float
    t_end: float
    record_every: int = 1
    scheme: str = "imex"
    variant: str = "plain"

    def __post_init__(self):
        _recorded_steps(self.dt, self.t_end, self.record_every)
        if self.scheme not in ("imex", "rk4"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant not in ("plain", "regularized"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "regularized" and self.scheme != "imex":
            raise ConfigError("the regularized variant runs with the imex scheme")
        if self.variant == "regularized" and (self.spec.eta is None
                                              or self.spec.trunc_delta is None):
            raise ConfigError("regularized runs need eta and trunc_delta in the model")
        if self.initial.t != 0:
            raise ConfigError(f"the initial state must be at t = 0, got t = {self.initial.t}")
        require_nonnegative(self.initial.u, self.initial.v)
        if self.scheme == "rk4":
            bound = rk4_max_dt(self.spec, self.initial)
            if self.dt > bound:
                raise ConfigError(
                    f"dt = {self.dt:.3e} exceeds the rk4 stability bound {bound:.3e} "
                    "for this initial state")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Recorded states, stacked as u and v arrays of shape (T, *grid.shape)
    at `times`, plus cheap per-step diagnostics."""

    spec: ModelSpec
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    step_times: np.ndarray
    min_u: np.ndarray
    min_v: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(self.u.ndim - 1, self.u.shape[-1])

    @property
    def states(self) -> "_States":
        """The recorded states, each built when it is indexed; their
        fields are views into u and v."""
        return _States(self)

    def series_u(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, self.u)

    def series_v(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, self.v)


class _States(Sequence):
    """The read-only sequence of a trajectory's recorded states."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        traj, g = self._traj, self._traj.grid
        return State(float(traj.times[i]), Field(g, traj.u[i]), Field(g, traj.v[i]))


def amplitude(u: np.ndarray, v: np.ndarray) -> float:
    """Largest |u| or |v| over the given arrays (one state or a stack)."""
    return max(float(np.max(np.abs(u))), float(np.max(np.abs(v))))


def rk4_max_dt(spec: ModelSpec, state: State) -> float:
    """Explicit stability bound for the rk4 stepper at this state; 0 when
    the coupling polynomials overflow to inf at its amplitude."""
    g = state.grid
    amp = amplitude(state.u.values, state.v.values)
    q1, r1, q2, r2 = derive_QR(spec)
    s = max(spec.d1 + q1.eval(amp, amp) + r1.eval(amp, amp),
            spec.d2 + q2.eval(amp, amp) + r2.eval(amp, amp))
    return RK4_STABILITY_CONSTANT / (FOUR_PI_SQ * (g.N / 2) ** 2 * s)


def _imex_update(c, cw, dt_lam, inv_den) -> list:
    """The calls of the IMEX update c = (c - dt_lam * cw) / den, in place, by the operand rule,
    as the multiply by inv_den = 1 / den that numpy's division by den + 0j is, bar a 0's sign."""
    dt_lam, inv_den = (_operand(x, c) for x in (dt_lam, inv_den))
    return [(np.multiply, (dt_lam, cw, cw)), (np.subtract, (c, cw, c)),
            (np.multiply, (c, inv_den, c))]


def _rk4_step(plan, dt, c, d, fluxes, neg_lam, work) -> list:
    """The calls of one classical RK4 step of c, in place, with the
    arithmetic of c + dt/6 * (k1 + 2*k2 + 2*k3 + k4) in that order, by the operand rule."""
    k, total, stage = (work.array(name, c.shape, np.complex128)
                       for name in ("rk4 k", "rk4 total", "rk4 stage"))
    d, neg_lam = (_operand(x, c) for x in (d, neg_lam))
    half, full, two, sixth = (np.array(x, np.complex128) for x in (0.5 * dt, dt, 2, dt / 6.0))

    def rhs(a, out):
        # -lam * (d * a + flux coefficients), into out
        poly, cw = plan._poly_coeffs(fluxes, a, work)
        return ([(np.multiply, (d, a, out))] + poly
                + [(np.add, (out, cw, out)), (np.multiply, (neg_lam, out, out))])

    calls = rhs(c, total) + [(np.multiply, (half, total, stage)), (np.add, (c, stage, stage))]
    stage_rhs = rhs(stage, k)
    for step in (half, full):
        calls += stage_rhs + [(np.multiply, (step, k, stage)), (np.add, (c, stage, stage)),
                              (np.multiply, (two, k, k)), (np.add, (total, k, total))]
    return calls + stage_rhs + [(np.add, (total, k, total)),
                                (np.multiply, (sixth, total, total)), (np.add, (c, total, c))]


def _regularized_coeffs(plan, spec, c, vals, moll, work) -> tuple:
    """The calls of the explicit-part coefficients for the truncated,
    mollified flux, and their array.  The densities and the smoothed flux
    polynomials are stacked as `both`, so the dealiased product X * Y of
    `_poly_coeffs` gives u * P and v * Q."""
    capped, pq = work.array("capped", vals.shape), work.array("pq", vals.shape)
    # np.minimum deprecates a positional out
    calls = [(partial(np.minimum, out=capped), (vals, np.array(spec.trunc_delta, vals.dtype))),
             *spec.p.operations(*capped, pq[0], work), *spec.q.operations(*capped, pq[1], work)]
    transform, pq_coeffs = plan._to_coeffs(pq, work)
    both = work.array("factors", (2,) + c.shape, np.complex128)
    product, cw = plan._poly_coeffs((X * Y,), both, work)
    return (calls + transform + [(np.copyto, (both[0], c)),
                                 (np.multiply, (pq_coeffs, moll, both[1]))] + product), cw[0]


def _shared(config: RunConfig) -> tuple:
    """Everything of a run but its initial state."""
    return (config.spec, config.initial.grid, config.dt, config.t_end,
            config.record_every, config.scheme, config.variant)


def simulate(config: RunConfig | Sequence[RunConfig]) -> Trajectory | list:
    """Integrate the system as configured; never clips negative values.

    `config` is one `RunConfig`, or a sequence of them that differ only in
    their initial states: the same spec, grid, dt, t_end, record_every,
    scheme and variant, or else a `ConfigError`.  One config gives its
    `Trajectory`, or raises `BlowupError` with the partial trajectory.  A
    sequence gives a list with one `Trajectory` or `BlowupError` per
    member, in order.  Its members advance as one batch through one time
    loop, and each member's arrays, blow-up step included, are bitwise
    those of its single run.  A recording above MAX_RECORD_BYTES, over
    all members, is a `ConfigError` before the run starts.

    u and v advance as one coefficient stack of shape (2, ...), so each
    step makes one stacked transform of each kind.  The regularized
    variant evaluates the polynomial part of each flux at densities
    capped at trunc_delta and smoothed by the heat kernel at time eta
    before multiplying the density.
    """
    if isinstance(config, RunConfig):
        result, = _integrate((config,))
        if isinstance(result, BlowupError):
            raise result
        return result
    configs = tuple(config)
    if not configs:
        raise ConfigError("simulate needs at least one run config")
    for member in configs:
        if not isinstance(member, RunConfig):
            raise ConfigError(f"simulate takes RunConfigs, got {type(member).__name__}")
        if _shared(member) != _shared(configs[0]):
            raise ConfigError("batched runs must differ only in their initial states")
    return _integrate(configs)


def _integrate(configs: tuple) -> list:
    """`simulate` of configs that differ only in their initial states: one
    `Trajectory` or `BlowupError` per config.  The state is a stack of
    shape (2, *grid.shape) for one config, and (2, B, *grid.shape) for B."""
    config = configs[0]
    spec = config.spec
    grid = config.initial.grid
    dt = config.dt
    steps = _recorded_steps(dt, config.t_end, config.record_every)
    regularized = config.variant == "regularized"
    # p(u,v)*u and q(u,v)*v; the regularized flux multiplies two fields,
    # so its plan dealiases at least the quadratic X*Y
    fluxes = excess_flux_polys(spec)
    plan = poly_plan(grid, fluxes + (X * Y,) if regularized else fluxes)

    B = len(configs)
    stack = ((2, B) if B > 1 else (2,)) + grid.shape
    # the diffusivities and the reciprocal implicit denominators of both
    # species, broadcast against the stack
    d = np.reshape([spec.d1, spec.d2], (2,) + (1,) * (len(stack) - 1))
    dt_lam = dt * plan.lam
    inv_den = 1.0 + dt_lam * d
    np.divide(1.0, inv_den, out=inv_den)

    def step(c, vals, work):
        if config.scheme == "rk4":
            return _rk4_step(plan, dt, c, d, fluxes, -plan.lam, work)
        if regularized:
            calls, cw = _regularized_coeffs(plan, spec, c, vals,
                                            _operand(np.exp(-spec.eta * plan.lam), c), work)
        else:
            calls, cw = plan._poly_coeffs(fluxes, c, work)
        return calls + _imex_update(c, cw, dt_lam, inv_den)

    rec, mins, sums, ended = _loop(plan, [member.initial.u.values for member in configs]
                                   + [member.initial.v.values for member in configs],
                                   stack, steps, step, reads_values=regularized)
    step_times = np.arange(config.n_steps + 1) * dt

    def result(b, n, r):
        # sum / size is bitwise what `mean` computes, without its Python layer
        traj = Trajectory(spec, step_times[steps[:r]], rec[b, :r], rec[B + b, :r],
                          step_times[:n], mins[b, :n], mins[B + b, :n],
                          sums[:n, b] / grid.size, sums[:n, B + b] / grid.size)
        return BlowupError(n, traj) if b in ended else traj

    return [result(b, *ended.get(b, (config.n_steps + 1, len(steps)))) for b in range(B)]


def _check_recording(grid: TorusGrid, n_rows: int, members: int, n_records: int) -> None:
    """Refuses a recording of n_records samples of n_rows fields of
    `grid`, `members` runs in all, above MAX_RECORD_BYTES."""
    size = 8 * n_rows * grid.size * n_records
    if size > MAX_RECORD_BYTES:
        raise ConfigError(
            f"recording {members * n_records} states of {grid} takes {size / 2 ** 30:.3g} GiB, "
            f"above the limit of {MAX_RECORD_BYTES / 2 ** 30:g} GiB")


def _loop(plan, initial: list, shape: tuple, steps: np.ndarray, step,
          reads_values: bool = False) -> tuple:
    """The time loop of `simulate` and `solve_kolmogorov`.  `initial` is
    the samples of each row, field by field, of the stack of the given
    shape: one field, fields (S, *grid.shape) or a batch (S, B,
    *grid.shape).  `step(c, vals, work)` gives the calls, (function,
    arguments) pairs, that advance the coefficients c, a fixed array, by
    one step of its own dt; the loop builds them once and runs them each step.

    Steps are diagnosed in blocks of K: each step copies c into its slot of
    a block of K coefficient stacks, and after every K steps and the last
    one, one to_values call turns the block into samples, two reductions
    give their row minima and sums, the recorded steps among them are copied
    (every steps[1]-th step as one strided view, and the run's last step),
    and the stop rule reads the sums.  K is _BLOCK_BYTES // c.nbytes,
    at least 1 and at most the number of steps, and a c of at most that size
    gets the operand rule (`spectral._operand`).  At K = 1 the block is c
    itself and its samples are vals, the array of the initial samples, so a
    step that reads the samples vals of the step before (`reads_values`)
    runs with K = 1, and a large grid gets no new array.

    A recording above MAX_RECORD_BYTES is refused before it is allocated.
    The one stop rule: a member ends at its first step with a non-finite
    sample.  It is zeroed at the end of that block, a fixed point of every
    step, and the loop stops at the end of the block in which every
    member has ended, up to K - 1 steps after the last one ends.  Returns
    the records and every step's row minima and (time first) row sums,
    rows field by field so each member's are contiguous, and `ended`:
    member -> (step, records)."""
    grid = plan.grid
    n_rows = len(initial)
    B = shape[1] if len(shape) == grid.d + 2 else 1
    _check_recording(grid, n_rows, B, len(steps))
    steps = steps.tolist()
    n_steps = steps[-1]
    ended = {}  # member: the step it ended at and its number of records
    # the initial samples are stacked straight into the work array that
    # to_values rewrites at K = 1, so the run holds one array of samples
    work = Work()
    vals = work.array("values", shape)
    np.stack(initial, out=vals.reshape((n_rows,) + grid.shape))

    with np.errstate(over="ignore", invalid="ignore"):
        c = plan.to_coeffs(vals)
        K = 1 if reads_values else max(1, min(n_steps, _BLOCK_BYTES // c.nbytes))
        block = c if K == 1 else work.array("block", (K,) + c.shape, np.complex128, zero=True)
        to_values, samples = plan._to_values(block, work)
        rec = np.empty((n_rows, len(steps), grid.size))
        mins = np.empty((n_rows, n_steps + 1))
        sums = np.empty((n_steps + 1, n_rows))
        flat = vals.reshape(n_rows, -1)
        np.minimum.reduce(flat, axis=1, out=mins[:, 0])
        np.add.reduce(flat, axis=1, out=sums[0])
        rec[:, 0] = flat
        calls = step(c, vals, work)
        slots = [calls] if K == 1 else [calls + [(np.copyto, (slot, c))] for slot in block]
        n, r = 0, 1  # steps made, records made
        while n < n_steps:
            k = min(K, n_steps - n)  # the block of steps n + 1 .. n + k
            if k < K:
                to_values, samples = plan._to_values(block[:k], work)
            for slot_calls in slots[:k]:
                for f, args in slot_calls:
                    f(*args)
            for f, args in to_values:
                f(*args)
            flat = samples.reshape(k, n_rows, -1)
            np.minimum.reduce(flat, axis=2, out=mins[:, n + 1:n + k + 1].T)
            block_sums = np.add.reduce(flat, axis=2, out=sums[n + 1:n + k + 1])
            r0, r = r, bisect.bisect_right(steps, n + k, r, len(steps) - 1)
            rec[:, r0:r] = flat[steps[r0] - n - 1::steps[1]][:r - r0].swapaxes(0, 1)
            if n + k == n_steps:
                rec[:, -1] = flat[-1]
            # a row's samples are all finite exactly when its sum is, and a
            # member that ended earlier is zero; `first`: each member's
            # first step in the block with a non-finite row, k if none
            bad = ~np.isfinite(block_sums)
            if bad.any():
                first = np.where(bad.any(axis=0), bad.argmax(axis=0), k).reshape(-1, B).min(0)
                for b in np.flatnonzero(first < k).tolist():
                    m = n + 1 + int(first[b])
                    ended[b] = (m, bisect.bisect_left(steps, m))
                if len(ended) == B:
                    break
                for b in ended:
                    c[:, b] = vals[:, b] = 0.0
            n += k
    return rec.reshape((n_rows, len(steps)) + grid.shape), mins, sums, ended


def solve_kolmogorov(z_in: Field, mu: TimeSeriesField, f: TimeSeriesField,
                     dt: float, t_end: float,
                     record_every: int = 1) -> TimeSeriesField:
    """Integrate d_t z = Lap(mu * z) + Lap(f) with given coefficients.

    mu and f are interpolated piecewise-linearly in time.  Each step
    splits mu into its current spatial minimum (implicit, diagonal) plus
    the nonnegative remainder (explicit).  The forcing enters through the
    Laplacian, so the mean of z is conserved exactly.  z runs through
    `_loop` with its stop rule: the first step whose samples are not all
    finite raises `BlowupError`, with the series recorded so far.
    """
    grid = z_in.grid
    if mu.grid != grid or f.grid != grid:
        raise ConfigError("z_in, mu, and f must share one grid")
    steps = _recorded_steps(dt, t_end, record_every)
    if float(mu.values.min()) <= 0.0:
        raise DomainError("mu must be strictly positive")

    plan = spectral_plan(grid, grid.N)

    def step(c, z, work):
        forcing, den = work.array("forcing", z.shape), work.array("den", c.shape, np.complex128)
        dt_lam = _operand(dt * plan.lam, c)
        done = 0  # steps made

        def coefficients():
            # (mu_n - min mu_n) * z + f_n and 1 / (1 + dt_lam * min mu_n) at
            # the start of the step
            nonlocal done
            t = done * dt
            done += 1
            mu_n = interp_linear(mu.values, mu.times, t)
            mu_min = float(mu_n.min())
            np.subtract(mu_n, mu_min, out=forcing)
            np.multiply(forcing, z, out=forcing)
            np.add(forcing, interp_linear(f.values, f.times, t), out=forcing)
            np.divide(1.0, np.add(1.0, np.multiply(dt_lam, mu_min, out=den), out=den), out=den)

        transform, cw = plan._to_coeffs(forcing, work)
        return [(coefficients, ())] + transform + _imex_update(c, cw, dt_lam, den)

    rec, _, _, ended = _loop(plan, [z_in.values], grid.shape, steps, step, reads_values=True)
    if ended:
        n, r = ended[0]
        raise BlowupError(n, TimeSeriesField(steps[:r] * dt, rec[0, :r]))
    return TimeSeriesField(steps * dt, rec[0])
