"""Pseudospectral evaluation of the coupling terms and the dissipation function.

All quadratic products are formed pointwise on the collocation grid and
truncated by the 2/3 rule afterwards, which is alias-free for fields already
supported inside the dealias ball.  Every evaluation stacks the planes it
needs into one inverse real transform and its outputs into one forward
transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fields import (
    GridSpec,
    SpectralField,
    dealias_mask,
    irfft_half,
    rfft_half,
    to_physical,
    to_spectral,
    _zero_index,
)
from .operators import (
    curl_values,
    derivative_symbol,
    gamma_operator,
    gradient_planes,
    laplace_operator,
    projector_symbols,
    stokes_operator,
)


@dataclass(frozen=True)
class CouplingParams:
    """Material constants of the coupled system.

    Defaults follow the normalization rho = 1, mu + mu_r = 1, c0 = 1/2,
    ca = 1/4, cd = 3/4, kappa = 1, cv = 1; the angular viscosities must
    satisfy c0 + cd > ca.
    """

    mu: float = 0.9
    mu_r: float = 0.1
    c0: float = 0.5
    ca: float = 0.25
    cd: float = 0.75
    kappa: float = 1.0
    cv: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        for name in ("mu", "c0", "ca", "cd", "kappa", "cv", "rho"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.mu_r < 0:
            raise ConfigurationError("mu_r must be nonnegative")
        if not self.c0 + self.cd > self.ca:
            raise ConfigurationError("coefficients must satisfy c0 + cd > ca")

    # generator coefficients after dividing the equations by rho (and rho*cv)
    @property
    def stokes_coeff(self) -> float:
        return (self.mu + self.mu_r) / self.rho

    @property
    def gamma_perp_coeff(self) -> float:
        return (self.ca + self.cd) / self.rho

    @property
    def gamma_para_coeff(self) -> float:
        return (self.c0 + 2.0 * self.cd) / self.rho

    @property
    def heat_coeff(self) -> float:
        return self.kappa / (self.rho * self.cv)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("mu", "mu_r", "c0", "ca", "cd", "kappa", "cv", "rho")}

    @staticmethod
    def from_dict(d: dict) -> "CouplingParams":
        return CouplingParams(**{k: float(v) for k, v in d.items()})


def generators(grid: GridSpec, params: CouplingParams) -> tuple:
    """The three generators (velocity, microrotation, temperature) for the
    given material constants."""
    a_op = stokes_operator(grid, coeff=params.stokes_coeff)
    g_op = gamma_operator(grid, coeff_perp=params.gamma_perp_coeff,
                          coeff_para=params.gamma_para_coeff)
    b_op = laplace_operator(grid, coeff=params.heat_coeff)
    return a_op, g_op, b_op


def lambda_chain_cap(grid: GridSpec, params: CouplingParams) -> float:
    """The generators' smallest positive eigenvalue, the exponent rules' Lambda_1."""
    return min(op.min_positive_eigenvalue() for op in generators(grid, params))


@dataclass(frozen=True)
class ForcingSpec:
    """Temperature-driven body force: zero, linear c*theta, or the bounded
    saturating form c * scale * tanh(theta/scale).  Both satisfy f(0) = 0 and
    are globally Lipschitz with constant |c|."""

    kind: str = "zero"                   # "zero" | "linear" | "tanh"
    c: tuple = field(default_factory=tuple)
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "tanh"):
            raise ConfigurationError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "tanh" and self.scale <= 0:
            raise ConfigurationError("tanh forcing needs a positive scale")
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))

    @property
    def lipschitz(self) -> float:
        if self.kind == "zero":
            return 0.0
        return float(np.linalg.norm(self.c))

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate pointwise on physical temperature values; returns an array
        of shape (len(c),) + theta.shape."""
        c = np.asarray(self.c, dtype=np.float64)
        if self.kind == "zero" or c.size == 0:
            return np.zeros((max(c.size, 1),) + theta.shape)
        if self.kind == "linear":
            return c.reshape((-1,) + (1,) * theta.ndim) * theta
        sat = self.scale * np.tanh(theta / self.scale)
        return c.reshape((-1,) + (1,) * theta.ndim) * sat

    def to_dict(self) -> dict:
        return {"kind": self.kind, "c": list(self.c), "scale": self.scale}

    @staticmethod
    def from_dict(d: dict) -> "ForcingSpec":
        return ForcingSpec(kind=d.get("kind", "zero"), c=tuple(d.get("c", ())),
                           scale=float(d.get("scale", 1.0)))

    @staticmethod
    def zero() -> "ForcingSpec":
        return ForcingSpec("zero", ())


def _forcing_values(spec: ForcingSpec, theta_vals: np.ndarray,
                    components: int) -> np.ndarray:
    vals = spec(theta_vals)
    if vals.shape[0] != components:
        raise ConfigurationError(
            f"forcing has {vals.shape[0]} components, expected {components}")
    return vals


def evaluate_forcing(spec: ForcingSpec, theta: SpectralField, components: int) -> SpectralField:
    """Transform f(theta) back to spectral space, dealiased."""
    if spec.kind == "zero":
        return SpectralField.zero(theta.grid, components, mean_zero=False)
    vals = _forcing_values(spec, to_physical(theta)[0], components)
    return to_spectral(theta.grid, vals).dealias()


def _plane_buffer(grid: GridSpec, values: tuple, grads: tuple) -> np.ndarray:
    """One plane-major buffer (planes, B, *half) of half spectra (B, comp,
    *half) that share B: the comp planes of each array of values, then the
    comp * dim gradient planes of each array of grads, plane c * dim + a of
    an array holding d_a f_c."""
    ik, nd = derivative_symbol(grid), grid.dim
    batch, half = grads[0].shape[0], grads[0].shape[2:]
    count = sum(v.shape[1] for v in values) + nd * sum(h.shape[1] for h in grads)
    buf = np.empty((count, batch) + half, dtype=np.complex128)
    p = 0
    for v in values:
        buf[p: p + v.shape[1]] = np.swapaxes(v, 0, 1)
        p += v.shape[1]
    for h in grads:
        c = h.shape[1]
        np.multiply(ik[:, np.newaxis], np.swapaxes(h, 0, 1)[:, np.newaxis],
                    out=buf[p: p + c * nd].reshape((c, nd, batch) + half))
        p += c * nd
    return buf


def _grid_values(grid: GridSpec, *halves: np.ndarray) -> list:
    """Grid values of batched half spectra (batch, planes, *half) from one
    inverse transform, each returned as (planes, batch, *grid): the batch axis
    after the component axes, where _phi_values takes it."""
    vals = irfft_half(grid, np.concatenate([h.reshape((-1,) + h.shape[2:])
                                            for h in halves]))
    out, start = [], 0
    for h in halves:
        stop = start + h.shape[0] * h.shape[1]
        out.append(np.swapaxes(vals[start:stop].reshape(h.shape[:2] + grid.shape), 0, 1))
        start = stop
    return out


# the (c, a, c', a') of each curl component d_a u_c - d_a' u_c': one in 2D,
# three in 3D
_CURL_INDICES = {2: ((1, 0, 0, 1),), 3: ((2, 1, 1, 2), (0, 2, 2, 0), (1, 0, 0, 1))}


def _phi_values(du, dv, om, psi, dom, dpsi, params: CouplingParams) -> np.ndarray:
    """Bilinear dissipation function at the grid points from grid values:
    velocity gradients du, dv (dim, dim, *grid) with [c, a] = d_a u_c,
    microrotations om, psi (C, *grid) and their gradients (C, dim, *grid);
    the axes after the component axes broadcast together.

    Each part is formed plane by plane in a few preallocated planes, its
    sum over component pairs taken in C order, and added to the result
    times its coefficient:
    2 mu sum_ca D_u[c, a] D_v[c, a] with D = (d + d^T) / 2, each
    off-diagonal product formed once; 4 mu_r sum_i r_u[i] r_v[i] with
    r = rot / 2 - om; in 3D (c0 div om) div psi,
    (ca + cd) sum_ca dom[c, a] dpsi[c, a] and
    (cd - ca) sum_ij dom[j, i] dpsi[i, j]; in 2D
    (ca + cd) sum_a dom[0, a] dpsi[0, a]."""
    dim = du.shape[0]
    shape = np.broadcast_shapes(du.shape[2:], dv.shape[2:], om.shape[1:], psi.shape[1:],
                                dom.shape[2:], dpsi.shape[2:])
    phi, term, prod = np.empty(shape), np.empty(shape), np.empty(shape)

    def dot(pairs, out):
        """sum of a * b over the (a, b) pairs, in order."""
        for k, (a, b) in enumerate(pairs):
            if k == 0:
                np.multiply(a, b, out=out)
            else:
                out += np.multiply(a, b, out=prod)
        return out

    def strain(d, c, a, out):
        np.add(d[c, a], d[a, c], out=out)
        return np.multiply(0.5, out, out=out)

    su = np.empty(du.shape[2:])
    sv = su if dv is du else np.empty(dv.shape[2:])
    off = {}                              # D is symmetric: D[c, a] = D[a, c]
    for c in range(dim):
        for a in range(dim):
            if a < c:
                phi += off[a, c]
                continue
            strain(du, c, a, su)
            if sv is not su:
                strain(dv, c, a, sv)
            if c == a == 0:
                np.multiply(su, sv, out=phi)
            elif a > c:
                off[c, a] = np.multiply(su, sv)
                phi += off[c, a]
            else:
                phi += np.multiply(su, sv, out=term)
    np.multiply(2.0 * params.mu, phi, out=phi)

    def relative(d, o, i, out):
        c1, a1, c2, a2 = _CURL_INDICES[dim][i]
        np.subtract(d[c1, a1], d[c2, a2], out=out)
        np.multiply(0.5, out, out=out)
        return np.subtract(out, o[i], out=out)

    ru = np.empty(np.broadcast_shapes(du.shape[2:], om.shape[1:]))
    rv = ru if (dv is du and psi is om) else np.empty(np.broadcast_shapes(dv.shape[2:],
                                                                         psi.shape[1:]))
    for i in range(len(_CURL_INDICES[dim])):
        relative(du, om, i, ru)
        if rv is not ru:
            relative(dv, psi, i, rv)
        if i == 0:
            np.multiply(ru, rv, out=term)
        else:
            term += np.multiply(ru, rv, out=prod)
    phi += np.multiply(4.0 * params.mu_r, term, out=term)

    if dim == 3 and om.shape[0] > 1:
        div_om = dom[0, 0] + dom[1, 1]      # sum_i d_i om_i
        div_om += dom[2, 2]
        div_psi = dpsi[0, 0] + dpsi[1, 1]
        div_psi += dpsi[2, 2]
        phi += np.multiply(np.multiply(params.c0, div_om, out=div_om), div_psi, out=term)
        grad = dot([(dom[c, a], dpsi[c, a]) for c in range(3) for a in range(3)], term)
        phi += np.multiply(params.ca + params.cd, grad, out=grad)
        grad_t = dot([(dom[j, i], dpsi[i, j]) for i in range(3) for j in range(3)], term)
        phi += np.multiply(params.cd - params.ca, grad_t, out=grad_t)
    else:
        # planar microrotation: only the transverse gradient part survives
        grad = dot([(dom[0, a], dpsi[0, a]) for a in range(dim)], term)
        phi += np.multiply(params.ca + params.cd, grad, out=grad)
    return phi


def _check_grids(*fs: SpectralField):
    g = fs[0].grid
    for f in fs[1:]:
        if f.grid != g:
            raise ConfigurationError("fields live on different grids")


def advect_coeffs(grid: GridSpec, uh: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """(u . grad) w on half spectra with a leading batch axis, dealiased:
    uh (B, dim, *half) and wh (B, C, *half), either B may be 1, give
    (B, C, *half).  One inverse transform takes u and grad w to the grid."""
    u_vals, dw = _grid_values(grid, uh, gradient_planes(grid, wh))
    dw = dw.reshape((wh.shape[1], grid.dim) + dw.shape[1:])
    return np.swapaxes(rfft_half(grid, np.sum(u_vals * dw, axis=1)), 0, 1) * dealias_mask(grid)


def advect(u: SpectralField, w: SpectralField) -> SpectralField:
    """(u . grad) w evaluated pointwise from spectral derivatives, dealiased."""
    _check_grids(u, w)
    if u.is_scalar:
        raise TypeError("advecting velocity must be a vector field")
    return SpectralField(u.grid, advect_coeffs(u.grid, u.half[np.newaxis], w.half[np.newaxis])[0])


def dissipation_coeffs(grid: GridSpec, uh: np.ndarray, vh: np.ndarray,
                       omh: np.ndarray, psih: np.ndarray, params: CouplingParams,
                       dealias: bool = True) -> np.ndarray:
    """Bilinear dissipation function on half spectra with a leading batch
    axis: uh, vh (B, dim, *half) and omh, psih (B, C, *half), any B may be 1,
    give (B, 1, *half).  One inverse transform takes om, psi and the
    gradients of all four to the grid; the quadratic form (vh is uh and
    psih is omh) transforms each distinct plane once."""
    dim = grid.dim
    if vh is uh and psih is omh:
        om_v, du, dom = _grid_values(grid, omh, *(gradient_planes(grid, x) for x in (uh, omh)))
        du = du.reshape((dim, dim) + du.shape[1:])
        dom = dom.reshape((omh.shape[1], dim) + dom.shape[1:])
        phi = _phi_values(du, du, om_v, om_v, dom, dom, params)
    else:
        om_v, psi_v, du, dv, dom, dpsi = _grid_values(
            grid, omh, psih, *(gradient_planes(grid, x) for x in (uh, vh, omh, psih)))
        phi = _phi_values(du.reshape((dim, dim) + du.shape[1:]),
                          dv.reshape((dim, dim) + dv.shape[1:]), om_v, psi_v,
                          dom.reshape((omh.shape[1], dim) + dom.shape[1:]),
                          dpsi.reshape((psih.shape[1], dim) + dpsi.shape[1:]), params)
    out = rfft_half(grid, phi)[:, np.newaxis]
    return out * dealias_mask(grid) if dealias else out


def dissipation_phi(u: SpectralField, v: SpectralField,
                    om: SpectralField, psi: SpectralField,
                    params: CouplingParams, dealias: bool = True) -> SpectralField:
    """Bilinear dissipation function evaluated pointwise, dealiased.

    The five parts: symmetric strain coupling 2 mu D(u):D(v); relative
    rotation 4 mu_r (rot u / 2 - om).(rot v / 2 - psi); compressive
    c0 div om div psi; gradient (ca+cd) grad om : grad psi; and transposed
    (cd-ca) grad om : (grad psi)^T.  In 2D the microrotation is scalar and
    the last two collapse to (ca+cd) grad om . grad psi.

    dealias=False keeps the aliased spectrum whose grid values are the exact
    pointwise quadratic form (used by the nonnegativity oracle); the k=0 mode
    (the integral of the product) is identical either way.
    """
    _check_grids(u, v, om, psi)
    out = dissipation_coeffs(u.grid, *(x.half[np.newaxis] for x in (u, v, om, psi)),
                             params, dealias)
    return SpectralField(u.grid, out[0])


def assemble_rhs(grid: GridSpec, uh: np.ndarray, omh: np.ndarray, thh: np.ndarray,
                 params: CouplingParams, f: ForcingSpec, g: ForcingSpec,
                 *, linear_only: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand sides of the projected system at a block of nodes.

    Velocity:       F = -P(u.grad)u + (2 mu_r / rho) P rot om + P f(theta)
    Microrotation:  G = -(u.grad)om - (4 mu_r / rho) om + (2 mu_r / rho) rot u + g(theta)
    Temperature:    H = -(u.grad)th + Phi(u; om) / (rho cv)

    uh, omh and thh are the node-stacked half spectra (B, comp, *half) of u,
    om and th; the result stacks F, G and H on the component axis,
    (B, dim + C + 1, *half), written into out when given (a C-ordered array
    of that shape, such as rows of a caller's node stack) and into a new
    array otherwise.  Each node's result is the one a block of that node
    alone gives, bit for bit.  linear_only drops transport and the
    dissipation function (linear-regime diagnostics).  All outputs are
    dealiased; F is solenoidal and mean-zero.

    One plane-major buffer (planes, B, *half) holds u, om, th when there
    is forcing, and the gradients i k (u, om, th), at every node of the
    block.  One inverse real transform takes it to the grid, where
    transport, Phi and the forcing are formed with the node axis after the
    plane axis, and one forward transform returns them into the plane-major
    view of the result.  The linear terms read the buffer's gradient
    planes; they, the 2/3 rule and the projection act in place on the half
    spectrum.  Transport, Phi, the linear terms
    and the projection write into preallocated planes; each sum runs over
    its terms in component order.
    """
    dim, ncomp = grid.dim, omh.shape[1]
    forced = f.kind != "zero" or g.kind != "zero"

    nout = dim + ncomp + 1
    # planes u, om, th when forced, then the gradients from plane nval on
    nval = dim + ncomp + forced
    buf = _plane_buffer(grid, (uh, omh, thh)[: 2 + forced], (uh, omh, thh))
    vals = np.empty((nout, uh.shape[0]) + grid.shape)  # F, G, H at the grid points
    if linear_only:
        vals[...] = 0.0
    else:
        planes = irfft_half(grid, buf)
        grads = planes[nval:].reshape((nout, dim) + vals.shape[1:])
        # transport 0 - (u_0 d_0 f + u_1 d_1 f + ...) of every plane f
        np.multiply(planes[0], grads[:, 0], out=vals)
        scratch = np.empty_like(vals)
        for a in range(1, dim):
            vals += np.multiply(planes[a], grads[:, a], out=scratch)
        np.subtract(0.0, vals, out=vals)
        du, dom = grads[:dim], grads[dim: dim + ncomp]
        om_vals = planes[dim: dim + ncomp]
        phi = _phi_values(du, du, om_vals, om_vals, dom, dom, params)
        vals[-1] += np.divide(phi, params.rho * params.cv, out=phi)
    if forced:
        # theta at the grid points of every node, (B, *grid)
        th_vals = irfft_half(grid, buf[nval - 1]) if linear_only else planes[nval - 1]
        if f.kind != "zero":
            vals[:dim] += _forcing_values(f, th_vals, dim)
        if g.kind != "zero":
            vals[dim: dim + ncomp] += _forcing_values(g, th_vals, ncomp)
    if out is None:
        out = np.empty((uh.shape[0], nout) + uh.shape[2:], dtype=np.complex128)
    res = np.swapaxes(out, 0, 1)        # F, G, H plane-major, (nout, B, *half)
    if forced or not linear_only:
        rfft_half(grid, vals, out=res)
    else:
        res[...] = 0.0

    # the linear terms and the projection, on half-spectrum planes (B, *half)
    spare = np.empty((2,) + res.shape[1:], dtype=np.complex128)
    if params.mu_r > 0:
        two_mur = 2.0 * params.mu_r / params.rho
        grad_h = buf[nval:].reshape((nout, dim) + res.shape[1:])
        rot_om = curl_values(grad_h[dim: dim + ncomp])
        res[:dim] += np.multiply(two_mur, rot_om, out=rot_om)
        rot_u = curl_values(grad_h[:dim])
        np.multiply(two_mur, rot_u, out=rot_u)
        for c in range(ncomp):
            lin = np.multiply(-2.0 * two_mur, buf[dim + c], out=spare[0])
            lin += rot_u[c]
            res[dim + c] += lin
    # F -= k (k . F) / |k|^2
    kap, ksq = projector_symbols(grid)
    kdotf = np.multiply(kap[0], res[0], out=spare[0])
    for a in range(1, dim):
        kdotf += np.multiply(kap[a], res[a], out=spare[1])
    np.divide(kdotf, ksq, out=kdotf)
    for a in range(dim):
        res[a] -= np.multiply(kap[a], kdotf, out=spare[1])
    res *= dealias_mask(grid)
    res[(slice(None, dim), slice(None)) + _zero_index(grid)] = 0.0
    return out
