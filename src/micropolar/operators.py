"""Generators, fractional powers, semigroups, differential operators and norms.

On the torus every generator is diagonal per Fourier mode (the vector
elliptic generator block-diagonalizes into the subspaces parallel and
transverse to k), so fractional powers and semigroups are exact per-mode
scalar functions of the eigenvalues.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, SingularOperatorError
from .fields import (
    GridSpec,
    SpectralField,
    deriv_wavevectors,
    laplacian_symbol,
    to_physical,
    wavevectors,
    _zero_index,
)

MEAN_TOL = 1e-11


class OperatorKind(enum.Enum):
    STOKES = "stokes"          # -P Laplacian on solenoidal vector fields
    GAMMA = "gamma"            # -c_perp Lap - (c_para - c_perp) grad div
    LAPLACE = "laplace"        # -Laplacian, componentwise


@dataclass(frozen=True)
class OperatorSymbol:
    """Per-mode symbol of a generator raised to a real power.

    coeff_perp scales |kappa|^2 (the whole symbol for STOKES/LAPLACE and the
    transverse eigenvalue for GAMMA); coeff_para is GAMMA's eigenvalue factor
    on the span of k (unit-viscosity defaults 1 and 2).
    """

    kind: OperatorKind
    grid: GridSpec
    power: float = 1.0
    coeff_perp: float = 1.0
    coeff_para: float = 2.0

    def __post_init__(self):
        if self.coeff_perp <= 0 or self.coeff_para <= 0:
            raise ConfigurationError("operator coefficients must be positive")

    def with_power(self, power: float) -> "OperatorSymbol":
        return OperatorSymbol(self.kind, self.grid, power, self.coeff_perp, self.coeff_para)

    def eigenvalues(self) -> tuple:
        """Eigenvalue arrays per invariant subspace: one entry for scalar-like
        action, two (perp, para) for GAMMA acting on vectors."""
        ksq = laplacian_symbol(self.grid)
        if self.kind is OperatorKind.GAMMA:
            return (self.coeff_perp * ksq, self.coeff_para * ksq)
        return (self.coeff_perp * ksq,)

    def min_positive_eigenvalue(self) -> float:
        lam1 = lambda1(self.grid)
        if self.kind is OperatorKind.GAMMA:
            return min(self.coeff_perp, self.coeff_para) * lam1
        return self.coeff_perp * lam1


def stokes_operator(grid: GridSpec, power: float = 1.0, coeff: float = 1.0) -> OperatorSymbol:
    return OperatorSymbol(OperatorKind.STOKES, grid, power, coeff_perp=coeff)


def gamma_operator(grid: GridSpec, power: float = 1.0,
                   coeff_perp: float = 1.0, coeff_para: float = 2.0) -> OperatorSymbol:
    return OperatorSymbol(OperatorKind.GAMMA, grid, power, coeff_perp, coeff_para)


def laplace_operator(grid: GridSpec, power: float = 1.0, coeff: float = 1.0) -> OperatorSymbol:
    return OperatorSymbol(OperatorKind.LAPLACE, grid, power, coeff_perp=coeff)


def lambda1(grid: GridSpec) -> float:
    """Smallest positive Laplace eigenvalue on mean-zero torus fields, (2 pi / L)^2."""
    return (2.0 * np.pi / grid.length) ** 2


# ---------------------------------------------------------------------------
# Leray projection and parallel/transverse splitting


@lru_cache(maxsize=64)
def projector_symbols(grid: GridSpec) -> tuple:
    """Stacked wavevectors (dim, *grid) and |kappa|^2 with 1 at k = 0, the
    symbols of the split into the parts parallel and transverse to k."""
    kap = np.stack(wavevectors(grid))
    ksq = laplacian_symbol(grid).copy()
    ksq[_zero_index(grid)] = 1.0
    kap.setflags(write=False)
    ksq.setflags(write=False)
    return kap, ksq


def parallel_part(v: np.ndarray, kap: np.ndarray, ksq: np.ndarray) -> np.ndarray:
    """k (k . v) / |k|^2 per mode, zero at k=0.  v holds its vector components
    on the axis before the spatial axes that kap and ksq span (full or half
    spectrum); any leading axes are kept."""
    axis = -ksq.ndim - 1
    kdotv = np.sum(kap * v, axis=axis) / ksq
    return kap * np.expand_dims(kdotv, axis)


def _split_parallel(v_coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Component of v parallel to k per mode: k (k . v) / |k|^2 (zero at k=0)."""
    return parallel_part(v_coeffs, *projector_symbols(grid))


def leray_coeffs(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """v - k (k.v)/|k|^2 with the k=0 mode zeroed, on full-spectrum
    coefficients (..., dim, *grid); any leading axes are kept."""
    out = v - _split_parallel(v, grid)
    out[(Ellipsis,) + _zero_index(grid)] = 0.0
    return out


def leray_project(v: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: v - k (k.v)/|k|^2, k=0 mode zeroed."""
    if v.is_scalar:
        raise TypeError("Leray projection expects a vector field")
    return SpectralField(v.grid, leray_coeffs(v.grid, v.coeffs), mean_zero=True)


# ---------------------------------------------------------------------------
# Spectral functions of the generators


def _component_check(op: OperatorSymbol, f: SpectralField):
    if op.grid != f.grid:
        raise ConfigurationError("operator and field grids differ")
    if op.kind is OperatorKind.STOKES and f.is_scalar:
        raise TypeError("Stokes operator expects a vector field")


def spectral_coeffs(op: OperatorSymbol, fn, c: np.ndarray) -> np.ndarray:
    """fn(generator) per mode on full-spectrum coefficients (..., comp, *grid),
    any leading axes kept, respecting GAMMA's two invariant subspaces.

    fn maps an eigenvalue array to a weight array; fn(0) is applied at k=0.
    """
    grid = op.grid
    if op.kind is OperatorKind.GAMMA and c.shape[-grid.dim - 1] > 1:
        eig_perp, eig_para = op.eigenvalues()
        para = _split_parallel(c, grid)
        out = fn(eig_perp) * (c - para) + fn(eig_para) * para
        # k = 0: both eigenvalues vanish; act as the scalar fn(0)
        zi = (Ellipsis,) + _zero_index(grid)
        out[zi] = fn(np.zeros(1))[0] * c[zi]
        return out
    if op.kind is OperatorKind.STOKES:
        c = leray_coeffs(grid, c)
    return fn(op.eigenvalues()[0]) * c


def power_weight(eig: np.ndarray, power: float) -> np.ndarray:
    """eig**power per mode; zero eigenvalues map to 0 for power != 0 and to 1
    for power = 0."""
    if power == 0:
        return np.ones_like(eig)
    with np.errstate(divide="ignore"):
        out = np.where(eig > 0, eig, 1.0) ** power
    return np.where(eig > 0, out, 0.0)


def power_coeffs(op: OperatorSymbol, c: np.ndarray) -> np.ndarray:
    """Fractional power action on full-spectrum coefficients (..., comp, *grid);
    each index of the leading axes is one field.

    Zero eigenvalues map to zero for power > 0 and to identity for power = 0.
    A negative power needs every field mean-zero (SingularOperatorError
    otherwise) and zeroes the mean mode.
    """
    power, grid = op.power, op.grid
    if power < 0:
        zi = (Ellipsis,) + _zero_index(grid)
        flat = np.abs(c).reshape(c.shape[: c.ndim - grid.dim - 1] + (-1,))
        if np.any(np.max(np.abs(c[zi]), axis=-1)
                  > MEAN_TOL * np.maximum(1.0, np.max(flat, axis=-1))):
            raise SingularOperatorError(
                f"{op.kind.value} with power {power} needs a mean-zero field")
    return spectral_coeffs(op, lambda eig: power_weight(eig, power), c)


def apply_operator(op: OperatorSymbol, f: SpectralField) -> SpectralField:
    """Fractional power action on one field (see power_coeffs)."""
    _component_check(op, f)
    return SpectralField(op.grid, power_coeffs(op, f.coeffs),
                         f.mean_zero or op.power < 0)


def semigroup_apply(op: OperatorSymbol, t: float, f: SpectralField) -> SpectralField:
    """exp(-t * generator) applied per mode; t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if op.power != 1.0:
        raise ConfigurationError("semigroup_apply expects the generator (power=1)")
    _component_check(op, f)
    return SpectralField(op.grid, spectral_coeffs(op, lambda eig: np.exp(-t * eig), f.coeffs),
                         f.mean_zero)


# ---------------------------------------------------------------------------
# Differential operators (spectral)


def gradient(f: SpectralField) -> np.ndarray:
    """d f_c / d x_a as a complex array of shape (components, dim, *grid)."""
    ks = deriv_wavevectors(f.grid)
    return np.stack([1j * ks[a] * f.coeffs for a in range(f.grid.dim)], axis=1)


def divergence(v: SpectralField) -> SpectralField:
    if v.is_scalar:
        raise TypeError("divergence expects a vector field")
    ks = deriv_wavevectors(v.grid)
    out = sum(1j * ks[a] * v.coeffs[a] for a in range(v.grid.dim))
    return SpectralField(v.grid, out[np.newaxis], mean_zero=True)


def cross(c: np.ndarray, ks: tuple) -> np.ndarray:
    """k x c of a vector coefficient array (components first): 3D -> vector,
    2D -> scalar."""
    if len(ks) == 3:
        return np.stack([ks[1] * c[2] - ks[2] * c[1],
                         ks[2] * c[0] - ks[0] * c[2],
                         ks[0] * c[1] - ks[1] * c[0]])
    return (ks[0] * c[1] - ks[1] * c[0])[np.newaxis]


def curl(c: np.ndarray, ks: tuple) -> np.ndarray:
    """Curl of a coefficient array (components first) with derivative
    wavevectors ks: 3D vector -> vector; 2D vector -> scalar vorticity;
    2D scalar -> vector (d_y f, -d_x f)."""
    if len(ks) == 2 and c.shape[0] == 1:
        return np.stack([1j * ks[1] * c[0], -1j * ks[0] * c[0]])
    return 1j * cross(c, ks)


def rot(f: SpectralField) -> SpectralField:
    """Curl. 3D vector -> vector; 2D vector -> scalar vorticity;
    2D scalar -> vector (d_y f, -d_x f)."""
    if f.grid.dim == 3 and f.is_scalar:
        raise TypeError("3D rot expects a vector field")
    return SpectralField(f.grid, curl(f.coeffs, deriv_wavevectors(f.grid)),
                         mean_zero=True)


# ---------------------------------------------------------------------------
# Norms


def lebesgue_norm(f: SpectralField, s: float) -> float:
    """L^s norm by grid quadrature of the pointwise Euclidean magnitude."""
    phys = to_physical(f)
    mag_sq = np.sum(phys * phys, axis=0)
    if s == 2:
        return float(np.sqrt(np.sum(mag_sq) * f.grid.cell_volume))
    return float(np.sum(mag_sq ** (s / 2.0)) * f.grid.cell_volume) ** (1.0 / s)


def sobolev_norm(f: SpectralField, k: int, s: float) -> float:
    """Sum of L^s norms of all spectral derivative tensors up to order k."""
    total = lebesgue_norm(f, s)
    current = f
    for _ in range(k):
        g = gradient(current)  # (comp, dim, *grid)
        stacked = g.reshape((-1,) + f.grid.shape)
        current = SpectralField(f.grid, stacked, mean_zero=True)
        total += lebesgue_norm(current, s)
    return total


def divergence_defect(v: SpectralField) -> float:
    """||div v||_2 relative to ||v||_2 (0 for solenoidal fields)."""
    denom = v.l2()
    if denom == 0:
        return 0.0
    return divergence(v).l2() / denom
