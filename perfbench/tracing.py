"""Per-layer tracing of the micropolar package from outside its source.

Public functions and methods are wrapped by name after import: every binding
of the original object in a ``micropolar.*`` module is replaced, so calls made
through ``from .x import f`` names are caught too. Spans (name, start, end,
parent) are kept in memory and written out when the run ends. A wrapped name
that no longer exists is reported as missing instead of failing the run.

Nothing is recorded while ``Tracer.active`` is false, so the benchmark's own
output checks do not count towards any layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute path, layer name); the layer's time metric is f"{layer}_s"
TIMED = (
    ("micropolar.nonlinear", "assemble_rhs", "nonlinear.assemble_rhs"),
    ("micropolar.solver", "DuhamelPropagator.integrate_nodes", "solver.duhamel"),
    ("micropolar.solver", "initial_trajectory", "solver.initial_trajectory"),
    ("micropolar.solver", "picard_solve", "solver.picard_solve"),
    ("micropolar.solver", "picard_step", "solver.picard_step"),
    ("micropolar.solver", "global_solve", "solver.global_solve"),
    ("micropolar.checkpoint", "checkpoint_write", "checkpoint.write"),
    ("micropolar.checkpoint", "checkpoint_read", "checkpoint.read"),
    ("micropolar.analysis", "fit_lemma_constants", "analysis.fit_lemma_constants"),
    ("micropolar.analysis", "verify_bilinear", "analysis.verify_bilinear"),
    ("micropolar.analysis", "verify_smoothing", "analysis.verify_smoothing"),
    ("micropolar.analysis", "energy_report", "analysis.energy_report"),
    ("micropolar.kmbounds", "local_horizon", "kmbounds.local_horizon"),
    ("micropolar.exponents", "select_intermediate", "exponents.select_intermediate"),
    ("micropolar.cli", "write_report", "cli.write_report"),
)

# every public WeightedNorms method is one layer; only the outermost call counts
NORM_METHODS = ("fractional_norm", "weighted_curve", "iteration_table", "difference")

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class Tracer:
    """Collects spans, call counts, byte counts and FFT work."""

    def __init__(self):
        self.active = False
        self.spans = []            # (id, parent, name, start, end, thread)
        self.counts = Counter()    # name -> calls / items
        self.busy = defaultdict(float)
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> tuple:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, parent, name, start, end,
                               threading.get_ident()))
            self.busy[name] += end - start
            self.counts[name + ".calls"] += 1

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; record names that no longer exist."""
        for module, path, layer in TIMED:
            self._wrap(module, path, self._timed(layer))
        for meth in NORM_METHODS:
            self._wrap("micropolar.solver", f"WeightedNorms.{meth}",
                       self._outermost("solver.norms"))
        self._wrap("micropolar.analysis", "ensemble_rngs", self._ensemble)
        self._wrap_ffts()

    def _wrap(self, module: str, path: str, make) -> None:
        try:
            mod = importlib.import_module(module)
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        wrapper = functools.wraps(original)(make(original))
        if isinstance(owner, type):
            setattr(owner, parts[-1], wrapper)
        else:
            _rebind(original, wrapper)

    def _timed(self, layer: str):
        tracer = self
        byte_metric = {"checkpoint.write": "checkpoint.write_bytes",
                       "checkpoint.read": "checkpoint.read_bytes"}.get(layer)

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                sid, parent, start = tracer._open(layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(layer, sid, parent, start)
                if byte_metric is not None:
                    pos = 1 if layer == "checkpoint.write" else 0
                    path = kwargs["path"] if "path" in kwargs else args[pos]
                    tracer.add(byte_metric, os.path.getsize(path))
                return out
            return wrapper
        return make

    def _outermost(self, layer: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                depth = getattr(tracer._local, "norm_depth", 0)
                if depth:
                    return fn(*args, **kwargs)
                tracer._local.norm_depth = 1
                sid, parent, start = tracer._open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(layer, sid, parent, start)
                    tracer._local.norm_depth = 0
            return wrapper
        return make

    def _ensemble(self, fn):
        tracer = self

        def wrapper(seed, n, *args, **kwargs):
            if tracer.active:
                tracer.add("analysis.ensemble_members", int(n))
            return fn(seed, n, *args, **kwargs)
        return wrapper

    def _wrap_ffts(self) -> None:
        import numpy.fft

        modules = [numpy.fft]
        try:
            import scipy.fft
            modules.append(scipy.fft)
        except ImportError:
            pass
        tracer = self
        for mod in modules:
            for name in FFT_NAMES:
                original = getattr(mod, name, None)
                if original is None:
                    continue

                def make(fn):
                    @functools.wraps(fn)
                    def wrapper(a, *args, **kwargs):
                        out = fn(a, *args, **kwargs)
                        if tracer.active:
                            size = max(getattr(a, "size", 0), out.size)
                            with tracer._lock:
                                tracer.counts["fields.fft_calls"] += 1
                                tracer.counts["fields.fft_points"] += size
                        return out
                    return wrapper
                wrapped = make(original)
                setattr(mod, name, wrapped)
                _rebind(original, wrapped)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> tuple:
        with self._lock:
            return dict(self.counts), dict(self.busy)

    def self_times(self) -> dict:
        """Span duration minus the time its direct children cover, by name."""
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end, _thr in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, name, start, end, _thr in self.spans:
            out[name] += (end - start) - child_time.get(sid, 0.0)
        return dict(out)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        if self.tracer.active:
            self.state = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.tracer.active:
            self.tracer._close(self.name, *self.state)
        return False


def _rebind(original, wrapper) -> None:
    """Replace every module-level binding of original in micropolar modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "micropolar"
                               or modname.startswith("micropolar.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
