"""A fixed reference kernel that measures the host's speed during a run.

The host this benchmark runs on shares its cores: the same work runs up to
twice as fast at one moment as at another, in spells of seconds to minutes.
A run samples this kernel between the program's commands, while the program
is idle, and each round's time is rescaled by the mean kernel time of the
passes made during the round, so that it reads as seconds on a host that
runs the kernel in NOMINAL_S.

How much a slow spell slows code depends on the code, so the kernel does the
kind of work of the solver's right-hand side on the workload's own grid:
transforms of a vector field to grid values and back, spectral derivatives
and pointwise products, one small object per field. Its inputs are fixed and
it calls nothing of micropolar, so no change to the program moves it. Import
this module before any FFT wrapper is installed: it keeps the original numpy
functions.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.02       # the mean pass time on the machine described in README.md
PASSES_PER_SAMPLE = 4
_POINTS_PER_PASS = 6e5     # grid points transformed per pass, about 20 ms

_fftn, _ifftn = np.fft.fftn, np.fft.ifftn


class _Field:
    """Stands for the program's spectral field objects."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs


class Reference:
    """The kernel on a dim-dimensional grid of n points a side."""

    def __init__(self, dim: int, n: int):
        self.axes = tuple(range(1, dim + 1))
        shape = (n,) * dim
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        self.k = np.stack(np.meshgrid(*([k1] * dim), indexing="ij"))
        rng = np.random.default_rng(12345)
        self.u = _Field(_fftn(rng.standard_normal((dim,) + shape), axes=self.axes))
        self.reps = max(1, round(_POINTS_PER_PASS / (dim * (dim + 2) * n ** dim)))

    def _rhs(self, u: _Field) -> _Field:
        phys = _ifftn(u.coeffs, axes=self.axes).real
        out = np.zeros_like(phys)
        for a in range(len(self.axes)):
            grad = _Field(1j * self.k[a] * u.coeffs)
            out += phys[a] * _ifftn(grad.coeffs, axes=self.axes).real
        return _Field(_fftn(out, axes=self.axes))

    def kernel(self) -> float:
        """Seconds one pass of the reference work takes."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self._rhs(self.u)
        return time.perf_counter() - t0

    def sample(self, times: list) -> None:
        """Append the times of PASSES_PER_SAMPLE passes to times."""
        times.extend(self.kernel() for _ in range(PASSES_PER_SAMPLE))


def at_nominal(seconds: float, reference_s: float) -> float:
    """seconds, measured while the reference took reference_s a pass on the
    mean, as seconds at the nominal speed. The mean, not the median: a wall
    time adds up the fast and slow spells it ran through, and the mean weighs
    them the same way."""
    return seconds * NOMINAL_S / reference_s
