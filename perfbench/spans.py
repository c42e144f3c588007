"""In-memory span tracing around calls into crossflux's public functions.

The tracer replaces a function in the namespace of every crossflux module
that bound it (`from .spectral import transform` makes a separate name in
`verifier`, `spaces` and `model`), and replaces the `numpy.fft`
transforms and shifts, which the stepper calls directly.  Each call
records a span: name, start, end, parent, and the job it ran in.  Spans
stay in memory until `dump`.  Uninstalling restores every original.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

import numpy as np

# (layer label, module, attribute) of each traced crossflux function.
FUNCTIONS = (
    ("spectral.transform", "crossflux.spectral", "transform"),
    ("spectral.inverse", "crossflux.spectral", "inverse"),
    ("spectral.poly_field", "crossflux.spectral", "poly_field"),
    ("solver.simulate", "crossflux.solver", "simulate"),
    ("verifier.check_mass", "crossflux.verifier", "check_mass"),
    ("verifier.check_energy_decay", "crossflux.verifier", "check_energy_decay"),
    ("verifier.check_duality", "crossflux.verifier", "check_duality"),
    ("verifier.check_stability_pair", "crossflux.verifier", "check_stability_pair"),
    ("verifier.track_lambda", "crossflux.verifier", "track_lambda"),
    ("verifier.track_hk", "crossflux.verifier", "track_hk"),
    ("verifier.fit_decay_rate", "crossflux.verifier", "fit_decay_rate"),
    ("model.flux", "crossflux.model", "flux"),
    ("model.smallness_functional", "crossflux.model", "smallness_functional"),
    ("spaces.besov_Nk", "crossflux.spaces", "besov_Nk"),
    ("io.load_json", "crossflux.io", "load_json"),
    ("io.write_reports", "crossflux.io", "write_reports"),
    ("cli.run_cli", "crossflux.cli", "run_cli"),
)

FFT = "spectral.fft"
SHIFT = "spectral.shift"
NUMPY_FFT = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
NUMPY_SHIFT = ("fftshift", "ifftshift")

LABELS = tuple(label for label, _, _ in FUNCTIONS) + (FFT, SHIFT)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.labels = list(LABELS)
        self._label_id = {name: i for i, name in enumerate(self.labels)}
        self.name, self.parent, self.job = [], [], []
        self.start, self.end = [], []
        self.points, self.nbytes = [], []
        self._stack = []
        self._job = -1
        self._patched = []

    def _open(self, label_id):
        idx = len(self.name)
        self.name.append(label_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.points.append(0)
        self.nbytes.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, label, fn):
        label_id = self._label_id[label]

        def traced(*args, **kwargs):
            idx = self._open(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_fft(self, fn):
        label_id = self._label_id[FFT]

        def traced(a, *args, **kwargs):
            idx = self._open(label_id)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._close(idx)
            # computed from array sizes, not a measured memory bandwidth
            self.points[idx] = int(np.size(a))
            self.nbytes[idx] = int(getattr(a, "nbytes", 0)) + int(out.nbytes)
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function wherever a crossflux module bound it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "crossflux" or name.startswith("crossflux."))]
        for label, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for attr in NUMPY_FFT:
            self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))
        for attr in NUMPY_SHIFT:
            self._patch(np.fft, attr, self._wrap(SHIFT, getattr(np.fft, attr)))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def job_span(self, job_id: int, label: str):
        """Root span of one job; its children carry `job_id`."""
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        self._job = job_id
        idx = self._open(self._label_id[label])
        try:
            yield
        finally:
            self._close(idx)
            self._job = -1

    def clear(self):
        for store in (self.name, self.parent, self.job, self.start, self.end,
                      self.points, self.nbytes):
            store.clear()

    def arrays(self) -> dict:
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "job": np.asarray(self.job, dtype=np.int32),
                "start": np.asarray(self.start), "end": np.asarray(self.end),
                "points": np.asarray(self.points, dtype=np.int64),
                "nbytes": np.asarray(self.nbytes, dtype=np.int64)}

    def dump(self, path: str) -> None:
        """Write every span kept in memory, with the label table."""
        np.savez(path, labels=np.asarray(json.dumps(self.labels)), **self.arrays())


def self_times(arr: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a
    span never overlap and their summed durations are the covered part.
    """
    dur = arr["end"] - arr["start"]
    child = np.zeros_like(dur)
    has_parent = arr["parent"] >= 0
    np.add.at(child, arr["parent"][has_parent], dur[has_parent])
    return dur - child


def inside(arr: dict, label_id: int) -> np.ndarray:
    """Mask of spans that have an ancestor with the given label."""
    name, parent = arr["name"], arr["parent"]
    mask = np.zeros(len(name), dtype=bool)
    for i in range(len(name)):
        p = parent[i]
        if p >= 0 and (name[p] == label_id or mask[p]):
            mask[i] = True
    return mask
