"""Generators, fractional powers, semigroups, differential operators and norms.

On the torus every generator is diagonal per Fourier mode (the vector
elliptic generator block-diagonalizes into the subspaces parallel and
transverse to k), so fractional powers and semigroups are exact per-mode
scalar functions of the eigenvalues.  Every coefficient array here is a
half spectrum (comp, *half), with any leading axes, on the modes of the
symbols in fields.
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
# Symbols, the Leray projection and the invariant subspaces


@lru_cache(maxsize=64)
def projector_symbols(grid: GridSpec) -> tuple:
    """Stacked wavevectors (dim, *half) and |kappa|^2 with 1 at k = 0, the
    symbols of the split into the parts parallel and transverse to k."""
    kap = np.stack(wavevectors(grid))
    ksq = laplacian_symbol(grid).copy()
    ksq[_zero_index(grid)] = 1.0
    kap.setflags(write=False)
    ksq.setflags(write=False)
    return kap, ksq


@lru_cache(maxsize=64)
def derivative_symbol(grid: GridSpec) -> np.ndarray:
    """i kappa stacked (dim, *half), the Nyquist mode zeroed: the symbol of
    the gradient."""
    ik = 1j * np.stack(deriv_wavevectors(grid))
    ik.setflags(write=False)
    return ik


def parallel_part(v: np.ndarray, kap: np.ndarray, ksq: np.ndarray) -> np.ndarray:
    """k (k . v) / |k|^2 per mode, zero at k=0.  v holds its vector components
    on the axis before the spatial axes that kap and ksq span; any leading
    axes are kept."""
    axis = -ksq.ndim - 1
    kdotv = np.sum(kap * v, axis=axis) / ksq
    return kap * np.expand_dims(kdotv, axis)


def leray_coeffs(grid: GridSpec, v: np.ndarray) -> np.ndarray:
    """v - k (k.v)/|k|^2 with the k=0 mode zeroed, on half spectra
    (..., dim, *half); any leading axes are kept."""
    out = v - parallel_part(v, *projector_symbols(grid))
    out[(Ellipsis,) + _zero_index(grid)] = 0.0
    return out


def leray_project(v: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: v - k (k.v)/|k|^2, k=0 mode zeroed."""
    if v.is_scalar:
        raise TypeError("Leray projection expects a vector field")
    return SpectralField(v.grid, leray_coeffs(v.grid, v.half), mean_zero=True)


def eig_families(op: OperatorSymbol, components: int) -> list:
    """Eigenvalue arrays matching the subspace split of a field with the given
    component count (a scalar under the vector elliptic generator sees only
    the transverse coefficient)."""
    eigs = list(op.eigenvalues())
    if op.kind is OperatorKind.GAMMA and components == 1:
        return eigs[:1]
    return eigs


def subspaces(op: OperatorSymbol, c: np.ndarray) -> list:
    """(eigenvalues, part) per invariant subspace of half spectra
    (..., comp, *half), in eig_families order: the parts transverse and
    parallel to k of a vector under the elliptic generator, else c itself."""
    eigs = eig_families(op, c.shape[-op.grid.dim - 1])
    if len(eigs) == 2:
        para = parallel_part(c, *projector_symbols(op.grid))
        return [(eigs[0], c - para), (eigs[1], para)]
    return [(eigs[0], c)]


# ---------------------------------------------------------------------------
# Spectral functions of the generators


def _component_check(op: OperatorSymbol, f: SpectralField):
    if op.grid != f.grid:
        raise ConfigurationError("operator and field grids differ")
    if op.kind is OperatorKind.STOKES and f.is_scalar:
        raise TypeError("Stokes operator expects a vector field")


def spectral_coeffs(op: OperatorSymbol, fn, c: np.ndarray) -> np.ndarray:
    """fn(generator) per mode on half spectra (..., comp, *half), any
    leading axes kept, per invariant subspace; the Stokes operator acts on
    the Leray projection.

    fn maps an eigenvalue array to a weight array; fn(0) is applied at k=0.
    """
    if op.kind is OperatorKind.STOKES:
        c = leray_coeffs(op.grid, c)
    terms = [fn(eig) * part for eig, part in subspaces(op, c)]
    if len(terms) == 1:
        return terms[0]
    out = terms[0] + terms[1]
    # k = 0: both eigenvalues vanish; act as the scalar fn(0)
    zi = (Ellipsis,) + _zero_index(op.grid)
    out[zi] = fn(np.zeros(1))[0] * c[zi]
    return out


def power_weight(eig: np.ndarray, power: float) -> np.ndarray:
    """eig**power per mode; zero eigenvalues map to 0 for power != 0 and to 1
    for power = 0."""
    if power == 0:
        return np.ones_like(eig)
    with np.errstate(divide="ignore"):
        out = np.where(eig > 0, eig, 1.0) ** power
    return np.where(eig > 0, out, 0.0)


def power_coeffs(op: OperatorSymbol, c: np.ndarray) -> np.ndarray:
    """Fractional power action on half spectra (..., comp, *half); each
    index of the leading axes is one field.

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
    return SpectralField(op.grid, power_coeffs(op, f.half),
                         f.mean_zero or op.power < 0)


def semigroup_apply(op: OperatorSymbol, t: float, f: SpectralField) -> SpectralField:
    """exp(-t * generator) applied per mode; t = 0 is the identity."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if op.power != 1.0:
        raise ConfigurationError("semigroup_apply expects the generator (power=1)")
    _component_check(op, f)
    return SpectralField(op.grid, spectral_coeffs(op, lambda eig: np.exp(-t * eig), f.half),
                         f.mean_zero)


# ---------------------------------------------------------------------------
# Differential operators (spectral)


def gradient_planes(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Gradients of half spectra (..., comp, *half) as planes
    (..., comp * dim, *half); plane c * dim + a is d_a f_c."""
    nd = grid.dim
    grads = derivative_symbol(grid) * np.expand_dims(c, -nd - 1)
    return grads.reshape(c.shape[: c.ndim - nd - 1] + (-1,) + c.shape[-nd:])


def gradient(f: SpectralField) -> np.ndarray:
    """d f_c / d x_a as a complex half-spectrum array (components, dim, *half)."""
    return derivative_symbol(f.grid) * f.half[:, np.newaxis]


def divergence(v: SpectralField) -> SpectralField:
    if v.is_scalar:
        raise TypeError("divergence expects a vector field")
    ik = derivative_symbol(v.grid)
    out = sum(ik[a] * v.half[a] for a in range(v.grid.dim))
    return SpectralField(v.grid, out[np.newaxis], mean_zero=True)


def cross(c: np.ndarray, ks: tuple) -> np.ndarray:
    """k x c of a vector coefficient array (components first): 3D -> vector,
    2D -> scalar."""
    if len(ks) == 3:
        return np.stack([ks[1] * c[2] - ks[2] * c[1],
                         ks[2] * c[0] - ks[0] * c[2],
                         ks[0] * c[1] - ks[1] * c[0]])
    return (ks[0] * c[1] - ks[1] * c[0])[np.newaxis]


def curl_values(du: np.ndarray) -> np.ndarray:
    """Curl from the gradient du[c, a] = d_a u_c of a field, on the grid or
    the half spectrum: 3D vector -> vector; 2D vector -> scalar vorticity;
    2D scalar -> vector (d_y f, -d_x f)."""
    if du.shape[0] == 3:
        return np.stack([du[2, 1] - du[1, 2], du[0, 2] - du[2, 0],
                         du[1, 0] - du[0, 1]])
    if du.shape[0] == 1:
        return np.stack([du[0, 1], -du[0, 0]])
    return (du[1, 0] - du[0, 1])[np.newaxis]


def curl(c: np.ndarray, ks: tuple) -> np.ndarray:
    """Curl of a coefficient array (components first) with derivative
    wavevectors ks on its modes: the curl_values of its gradient."""
    return curl_values(np.array([[1j * k * comp for k in ks] for comp in c]))


def rot(f: SpectralField) -> SpectralField:
    """Curl. 3D vector -> vector; 2D vector -> scalar vorticity;
    2D scalar -> vector (d_y f, -d_x f)."""
    if f.grid.dim == 3 and f.is_scalar:
        raise TypeError("3D rot expects a vector field")
    return SpectralField(f.grid, curl(f.half, deriv_wavevectors(f.grid)), mean_zero=True)


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
        current = SpectralField(f.grid, gradient_planes(f.grid, current.half), mean_zero=True)
        total += lebesgue_norm(current, s)
    return total


def divergence_defect(v: SpectralField) -> float:
    """||div v||_2 relative to ||v||_2 (0 for solenoidal fields)."""
    denom = v.l2()
    if denom == 0:
        return 0.0
    return divergence(v).l2() / denom
