"""crossflux benchmark: one workload run, one JSON result on the last line.

    python3 perfbench/run.py --workload sim-1d --seed 0 --seconds 20 --trace 0

Runs from a source checkout: it imports crossflux from the checkout's
`src/` and exits with code 2, printing no result, when that is missing.
Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
(`--trace 1`) report the per-layer metrics (see layers.py).  Scratch
files and span dumps go to `.bench_build/perfbench/` in the checkout.
"""

from __future__ import annotations

import os

# one thread: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402  imported before any timing, so not part of setup_s

import layers  # noqa: E402
import oracle  # noqa: E402
from workloads import POOL, WORKLOAD_TYPES, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 3
MIN_JOBS = 3
TAIL_BEYOND = 10
_SMALL = numpy.linspace(0.0, 1.0, 128)
_LARGE = numpy.outer(numpy.linspace(0.0, 1.0, 512), numpy.linspace(0.0, 1.0, 512))


def small_kernel():
    """Small FFTs and shifts in a Python loop: the per-call mix of a
    1-d spectral step."""
    x = _SMALL
    for _ in range(150):
        c = numpy.fft.fftshift(numpy.fft.fft(x))
        x = numpy.fft.ifft(numpy.fft.ifftshift(c)).real * 1.0000001


def large_kernel():
    """Transforms of 4 MiB arrays on a 512^2 grid: the working set of a
    2-d N=256 step."""
    for _ in range(2):
        numpy.fft.ifftn(numpy.fft.fftn(_LARGE) * 0.5)


# Calibration kernel of each workload, and its reference time: times are
# reported at the machine speed where the kernel takes that long.  Each
# workload gets the kernel whose slowdowns track its own: on the shared
# machine this was built on, the small kernel tracked sim-1d and not
# sim-2d, and the large one the reverse.
CALIBRATION = {"sim-1d": (small_kernel, 0.006), "sim-2d": (large_kernel, 0.027),
               "verify-1d": (small_kernel, 0.006)}

END_TO_END_UNITS = {"setup_s": "s", "job_s.p50": "s", "job_s.tail": "s",
                    "cell_steps_per_s": "1/s", "pass_frac": "frac",
                    "peak_rss_mb": "MiB"}


def calibrate(workload):
    """Time of one run of the workload's calibration kernel (no crossflux
    code) over its reference time."""
    kernel, ref_s = CALIBRATION[workload]
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) / ref_s


def scaled(raw, cal):
    """Times at the reference machine speed.

    raw[i] ran between kernel runs cal[i] and cal[i + 1].  On a shared
    machine the speed of a core drifts by tens of percent within
    seconds; dividing each time by the median of the four relative
    kernel times around it takes most of that drift out of the figures.
    """
    return [t / statistics.median(cal[max(0, i - 1):i + 3]) for i, t in enumerate(raw)]


def fresh_import():
    """Import crossflux (and its CLI module) as a first import would."""
    for name in [n for n in sys.modules if n == "crossflux" or n.startswith("crossflux.")]:
        del sys.modules[name]
    cf = importlib.import_module("crossflux")
    importlib.import_module("crossflux.cli")
    return cf


def run_job(wl, i, refs):
    """One timed job and its check; returns (seconds, problems)."""
    t0 = perf_counter()
    try:
        out = wl.run(i)
    except Exception as exc:  # a failed job is counted, not fatal
        return perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    elapsed = perf_counter() - t0
    ref = None if refs is None else refs[i % POOL]
    return elapsed, oracle.check(wl.name, wl.inputs[i % POOL], out, ref)[0]


def set_up(workload, seed, workdir, refs):
    """Import, build inputs and run one warm-up job, SETUP_REPEATS times.

    Each repeat re-imports crossflux, so module-level and first-call
    work is paid every time; setup_s is the median repeat.
    """
    raw, cal, problems = [], [calibrate(workload)], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cf = fresh_import()
        wl = WORKLOAD_TYPES[workload](cf, seed, workdir)
        _, warm_problems = run_job(wl, 0, refs)
        raw.append(perf_counter() - t0)
        cal.append(calibrate(workload))
        problems += warm_problems
    return cf, wl, statistics.median(scaled(raw, cal)), problems


def tail(times):
    """Job time at the highest percentile with TAIL_BEYOND jobs beyond it,
    with that percentile; the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl, refs, seconds):
    """Run jobs for `seconds`, with a calibration kernel before the first
    and after every job; returns job times, kernel times and failures."""
    raw, failures = [], []
    cal = [calibrate(wl.name)]
    t_end = perf_counter() + seconds
    i = 0
    while i < MIN_JOBS or perf_counter() < t_end:
        elapsed, problems = run_job(wl, i, refs)
        cal.append(calibrate(wl.name))
        raw.append(elapsed)
        if problems:
            failures.append(f"job {i}: " + "; ".join(problems))
        i += 1
    return raw, cal, failures


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crossflux", "__init__.py")):
        print(f"error: no crossflux sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.trace:
            refs = {name: oracle.load_reference(name, args.seed) for name in WORKLOADS}
            cf, wl, _, setup_problems = set_up(args.workload, args.seed, workdir,
                                               refs[args.workload])
            span_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.npz")
            metrics, ledger = layers.traced_run(cf, wl, args.seed, args.seconds,
                                                workdir, refs, span_path)
            attempted, failures = ledger.attempted, ledger.problems
            print(f"{args.workload}: spans written to {span_path}")
        else:
            refs = oracle.load_reference(args.workload, args.seed)
            cf, wl, setup_s, setup_problems = set_up(args.workload, args.seed,
                                                     workdir, refs)
            raw, cal, failures = measure(wl, refs, args.seconds)
            times = scaled(raw, cal)
            attempted = len(times)
            tail_s, pct = tail(times)
            values = {"setup_s": setup_s,
                      "job_s.p50": statistics.median(times),
                      "job_s.tail": tail_s,
                      "cell_steps_per_s": wl.cells * wl.steps * attempted / sum(times),
                      "pass_frac": (attempted - len(failures)) / attempted,
                      "peak_rss_mb": peak_rss_mib()}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            print(f"{args.workload}: {attempted} jobs, job_s.tail is p{pct:.1f} "
                  f"of {attempted} samples, reference "
                  f"{'stored' if refs is not None else 'absent: invariant checks only'}; "
                  f"unscaled job p50 {statistics.median(raw):.4f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in (setup_problems + failures)[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {"correct": not setup_problems and not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
