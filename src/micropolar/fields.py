"""Real fields on the periodic torus stored as truncated Fourier coefficient arrays.

Coefficients follow the convention f(x) = sum_k c_k exp(i 2pi k.x / L), so the
k=0 coefficient of a real field is its mean value.  A field is held as its
half spectrum (comp, *half): a leading component axis (1 for scalars, dim for
vectors), then numpy's fftn layout on every spatial axis but the last, which
keeps the modes 0..n/2 that a real transform computes; the other modes are
the conjugates of their negatives.  Every symbol below lives on the same
modes, a slice of the full fftn-layout array, so the Nyquist column holds
k = -n/2.  L2 norms and inner products are Parseval sums over the half
spectrum alone (`parseval_inner`), which counts each interior last-axis
column twice for the conjugate column it stands for.  The full spectrum is
filled only for readers of `SpectralField.coeffs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class GridSpec:
    """Uniform collocation grid on [0, L)^dim with N modes per axis."""

    dim: int = 2
    n: int = 32
    length: float = 2.0 * np.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigurationError(f"n must be an even integer >= 4, got {self.n}")
        if self.length <= 0:
            raise ConfigurationError(f"length must be positive, got {self.length}")
        if not (0 < self.dealias_fraction <= 1):
            raise ConfigurationError("dealias_fraction must lie in (0, 1]")
        if self.dealias_fraction * self.n / 2 < 1:
            raise ConfigurationError("dealias_fraction * n/2 must be >= 1")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return (self.length / self.n) ** self.dim

    @property
    def volume(self) -> float:
        return self.length ** self.dim

    @property
    def half_shape(self) -> tuple:
        """Spatial shape of a half spectrum: the last axis keeps modes 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def num_modes(self) -> int:
        return self.n ** self.dim

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n": self.n,
            "length": self.length,
            "dealias_fraction": self.dealias_fraction,
        }

    @staticmethod
    def from_dict(d: dict) -> "GridSpec":
        return GridSpec(
            dim=int(d["dim"]),
            n=int(d["n"]),
            length=float(d.get("length", 2.0 * np.pi)),
            dealias_fraction=float(d.get("dealias_fraction", 2.0 / 3.0)),
        )


@lru_cache(maxsize=64)
def _full_wavevectors(grid: GridSpec) -> tuple:
    """Integer wavevector component arrays on the full fftn layout, one per
    axis: the modes random_field draws its noise on."""
    k1d = np.fft.fftfreq(grid.n, d=1.0 / grid.n)  # 0,1,...,N/2-1,-N/2,...,-1
    comps = np.meshgrid(*([k1d] * grid.dim), indexing="ij")
    for c in comps:
        c.setflags(write=False)
    return tuple(comps)


@lru_cache(maxsize=64)
def integer_wavevectors(grid: GridSpec) -> tuple:
    """Integer wavevector component arrays on the half spectrum, one per axis
    (the Nyquist column holds k = -n/2, as the full layout does)."""
    comps = tuple(np.ascontiguousarray(half_spectrum(k)) for k in _full_wavevectors(grid))
    for c in comps:
        c.setflags(write=False)
    return comps


@lru_cache(maxsize=64)
def wavevectors(grid: GridSpec) -> tuple:
    """Physical wavevector components kappa = 2 pi k / L."""
    scale = 2.0 * np.pi / grid.length
    comps = tuple(scale * k for k in integer_wavevectors(grid))
    for c in comps:
        c.setflags(write=False)
    return comps


@lru_cache(maxsize=64)
def deriv_wavevectors(grid: GridSpec) -> tuple:
    """Wavevectors used for odd derivatives; the Nyquist mode is zeroed
    (its derivative sign is ambiguous on an even grid)."""
    comps = []
    for kappa in wavevectors(grid):
        k = kappa.copy()
        k[np.isclose(np.abs(k), np.pi * grid.n / grid.length)] = 0.0
        k.setflags(write=False)
        comps.append(k)
    return tuple(comps)


@lru_cache(maxsize=64)
def laplacian_symbol(grid: GridSpec) -> np.ndarray:
    """|kappa|^2 per mode, the (-Laplacian) eigenvalue array."""
    ksq = sum(k * k for k in wavevectors(grid))
    ksq.setflags(write=False)
    return ksq


@lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Per-axis 2/3-rule mask: keep |k_i| <= dealias_fraction * N/2."""
    cutoff = grid.dealias_fraction * grid.n / 2.0
    mask = np.ones(grid.half_shape, dtype=bool)
    for k in integer_wavevectors(grid):
        mask &= np.abs(k) <= cutoff + 1e-12
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=64)
def grid_points(grid: GridSpec) -> tuple:
    xs = [np.arange(grid.n) * (grid.length / grid.n) for _ in range(grid.dim)]
    comps = np.meshgrid(*xs, indexing="ij")
    for c in comps:
        c.setflags(write=False)
    return tuple(comps)


def _zero_index(grid: GridSpec) -> tuple:
    return (0,) * grid.dim


@dataclass(frozen=True)
class SpectralField:
    """Immutable truncated Fourier representation of a real field.

    half is its half spectrum, shape (components, *grid.half_shape);
    mean_zero marks fields whose k=0 mode is structurally absent (enforced
    at construction).
    """

    grid: GridSpec
    half: np.ndarray
    mean_zero: bool = field(default=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.half, dtype=np.complex128)
        if c.ndim == self.grid.dim:
            c = c[np.newaxis, ...]
        if c.shape[1:] != self.grid.half_shape:
            raise ConfigurationError(
                f"coefficient shape {c.shape} does not match the half spectrum "
                f"{self.grid.half_shape} of grid {self.grid.shape}"
            )
        if c.shape[0] < 1:
            raise ConfigurationError("field needs at least one component")
        if self.mean_zero:
            c = c.copy()
            c[(slice(None),) + _zero_index(self.grid)] = 0.0
        # a view: the caller's array keeps its flags
        c = c.view()
        c.setflags(write=False)
        object.__setattr__(self, "half", c)

    @property
    def coeffs(self) -> np.ndarray:
        """The full fftn-layout spectrum (components, n, ..., n), filled on
        each read: a view for readers outside the package, which computes on
        the half spectrum alone."""
        c = full_spectrum(self.grid, self.half)
        c.setflags(write=False)
        return c

    @property
    def components(self) -> int:
        return self.half.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.components == 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(grid: GridSpec, components: int = 1, mean_zero: bool = True) -> "SpectralField":
        return SpectralField(grid, np.zeros((components,) + grid.half_shape, dtype=np.complex128),
                             mean_zero)

    @staticmethod
    def single_mode(grid: GridSpec, k: tuple, amplitude) -> "SpectralField":
        """Real field amplitude * 2 Re[a exp(i 2pi k.x/L)] built from mode k and -k.

        amplitude is a scalar or a length-`components` sequence of complex
        amplitudes a_c for mode k; the conjugate mode is filled in.  The half
        spectrum holds whichever of +-k has last-axis index at most n/2.
        """
        amp = np.atleast_1d(np.asarray(amplitude, dtype=np.complex128))
        m = grid.n // 2 + 1
        c = np.zeros((amp.size,) + grid.half_shape, dtype=np.complex128)
        idx = tuple(int(ki) % grid.n for ki in k)
        neg = tuple((-int(ki)) % grid.n for ki in k)
        for j, a in enumerate(amp):
            if idx[-1] < m:
                c[(j,) + idx] = a
            if neg[-1] < m:
                c[(j,) + neg] += np.conj(a)  # self-conjugate modes collapse to 2 Re(a)
        is_dc = all(int(ki) % grid.n == 0 for ki in k)
        return SpectralField(grid, c, mean_zero=not is_dc)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.half + other.half,
                             self.mean_zero and other.mean_zero)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.half - other.half,
                             self.mean_zero and other.mean_zero)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.half * scalar, self.mean_zero)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)

    def _check_compatible(self, other: "SpectralField"):
        if self.grid != other.grid or self.components != other.components:
            raise ConfigurationError("incompatible fields")

    # -- structure ---------------------------------------------------------

    def dealias(self) -> "SpectralField":
        return SpectralField(self.grid, self.half * dealias_mask(self.grid), self.mean_zero)

    def drop_mean(self) -> "SpectralField":
        return SpectralField(self.grid, self.half, mean_zero=True)

    def mean_values(self) -> np.ndarray:
        """Spatial mean of each component (the k=0 coefficients)."""
        return self.half[(slice(None),) + _zero_index(self.grid)].real.copy()

    def l2(self) -> float:
        """Parseval L2 norm of the real field (exact for trig polynomials)."""
        return float(parseval_l2(self.grid, self.half[np.newaxis])[0])

    def hermitian_defect(self) -> float:
        """Max |c(-k) - conj(c(k))|; zero for a real field.  Only the planes
        k_last = 0 and n/2 hold both of a pair, so only they can fail."""
        return plane_defect(self.grid, self.half)


def _reflect(c: np.ndarray, dim: int) -> np.ndarray:
    """c(-k) for full-spectrum arrays whose last dim axes are spatial."""
    for ax in range(-dim, 0):
        c = np.roll(np.flip(c, axis=ax), 1, axis=ax)
    return c


def plane_defect(grid: GridSpec, half: np.ndarray) -> float:
    """Max |c(-k) - conj(c(k))| on the last-axis planes 0 and n/2 of half
    spectra (..., *half), the only modes whose conjugates they hold."""
    planes = np.moveaxis(half[..., [0, -1]], -1, 0)
    return float(np.max(np.abs(_reflect(planes, grid.dim - 1) - np.conj(planes))))


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The modes with last-axis index 0..n/2 that a real transform keeps (a view)."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


@lru_cache(maxsize=64)
def parseval_columns(grid: GridSpec) -> np.ndarray:
    """Last-axis weights (1, 2, ..., 2, 1) of the half spectrum: each
    interior column also stands for its conjugate column."""
    cols = np.full(grid.n // 2 + 1, 2.0)
    cols[[0, -1]] = 1.0
    cols.setflags(write=False)
    return cols


def parseval_inner(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 inner product of each pair of real fields from their stacked half
    spectra (fields, comp, *half): one sum per field over its C-ordered row,
    so that a field's value does not depend on the others in the stack."""
    terms = (a.real * b.real + a.imag * b.imag) * parseval_columns(grid)
    return grid.volume * np.sum(terms.reshape(len(terms), -1), axis=1)


def parseval_l2(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """L2 norm of each real field of stacked half spectra (fields, comp, *half)."""
    return np.sqrt(parseval_inner(grid, half, half))


@lru_cache(maxsize=64)
def _mirror_index(grid: GridSpec) -> np.ndarray:
    """Flat position of every full-spectrum mode in [half, conj(half)], both
    flattened: modes with last-axis index above n/2 are the conjugates of
    their negatives, which the half spectrum holds."""
    m = grid.n // 2 + 1
    half_shape = grid.shape[:-1] + (m,)
    idx = np.indices(grid.shape)
    upper = idx[-1] >= m
    src = np.where(upper, (-idx) % grid.n, idx)
    flat = np.ravel_multi_index(tuple(src), half_shape) + upper * int(np.prod(half_shape))
    flat = flat.reshape(-1)
    flat.setflags(write=False)
    return flat


def full_spectrum(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Full-spectrum coefficients of real fields from their half spectrum;
    any leading axes are kept."""
    lead = half.shape[: half.ndim - grid.dim]
    flat = half.reshape(lead + (-1,))
    mirror = flat.conj()
    # a zero imaginary part mirrors to +0.0, the value that arithmetic on the
    # conjugate modes themselves gives, so written spectra keep their bytes
    mirror.imag += 0.0
    both = np.concatenate([flat, mirror], axis=-1)
    return both[..., _mirror_index(grid)].reshape(lead + grid.shape)


# numpy.fft, not scipy.fft: importing scipy.fft alone adds about 27 MB of
# resident memory and 0.2 s of start-up to a process, which a simulate run's
# peak memory (about 81 MB) and start-up cannot absorb
def irfft_half(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Grid values from a half spectrum over the last dim axes (unscaled sum)."""
    return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.dim, 0)),
                         norm="forward")


def rfft_half(grid: GridSpec, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of real grid values over the last dim axes (scaled by
    1/N), written into out when given."""
    return np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)), norm="forward", out=out)


def to_physical(f: SpectralField) -> np.ndarray:
    """Inverse transform to the collocation grid; returns a real array
    of shape (components, n, ..., n)."""
    return irfft_half(f.grid, f.half)


def to_spectral(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Forward transform of real grid data; output satisfies Hermitian symmetry."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == grid.dim:
        v = v[np.newaxis, ...]
    if v.shape[1:] != grid.shape:
        raise ConfigurationError(
            f"physical data shape {v.shape} does not match grid {grid.shape}"
        )
    return SpectralField(grid, rfft_half(grid, v))


def random_field(grid: GridSpec, components: int, rng: np.random.Generator,
                 sigma: float = 2.0, amplitude: float = 1.0,
                 mean_zero: bool = True, dealias: bool = True,
                 kmax: int | None = None) -> SpectralField:
    """Random real field with spectral envelope |c_k| ~ |k|^(-sigma).

    Gaussian coefficients with random phases; lives inside the dealias ball
    by default so products stay alias-free.  kmax restricts the support to
    |k_i| <= kmax (low-mode probes).
    """
    shape = (components,) + grid.shape
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kmag = np.sqrt(sum(k * k for k in _full_wavevectors(grid)))
    envelope = np.where(kmag > 0, np.maximum(kmag, 1.0) ** (-sigma), 0.0 if mean_zero else 1.0)
    if kmax is not None:
        support = np.ones(grid.shape, dtype=bool)
        for k in _full_wavevectors(grid):
            support &= np.abs(k) <= kmax
        envelope = envelope * support
    c = noise * envelope
    # hermitianize: the real part of the field owns the symmetric part of c,
    # whose half spectrum is the field's
    half = half_spectrum(0.5 * (c + np.conj(_reflect(c, grid.dim))))
    if kmax is not None:
        half = half * half_spectrum(support)
    f = SpectralField(grid, half, mean_zero)
    if dealias:
        f = f.dealias()
    norm = f.l2()
    if norm > 0:
        f = f * (amplitude / norm)
    return f
