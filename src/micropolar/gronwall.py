"""Generalized Gronwall inequality with weakly singular kernels.

For  y(t) <= sum_i a_i t^(-alpha_i) + sum_j b_j int_0^t (t-s)^(-beta_j) y(s) ds
with exponents in [0, 1), iterating the inequality n+1 times with
n = floor(beta/(1-beta)) + 1 removes the kernel singularity and a classical
Gronwall step controls the remainder.  The bound below carries explicit
constants so it provably dominates the fixed point of the equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .solver import beta_function

MAX_ORACLE_POINTS = 2 ** 21   # refined oracle grid; bounds its memory

# the largest share of grid points at which the oracle may exceed the bound
# for the bound still to count as dominating it
MAX_VIOLATION_FRACTION = 0.01


def _validate(a, alphas, b, betas):
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if a.shape != alphas.shape or b.shape != betas.shape:
        raise ConfigurationError("coefficient and exponent lists must match in length")
    if np.any(a <= 0) or np.any(b < 0):
        raise ConfigurationError("coefficients a_i must be positive, b_j nonnegative")
    if np.any(alphas < 0) or np.any(alphas >= 1) or np.any(betas < 0) or np.any(betas >= 1):
        raise ConfigurationError("all exponents must lie in [0, 1)")
    return a, alphas, b, betas


def singular_power_count(beta_max: float) -> int:
    """n = [beta/(1-beta)] + 1; then (n+1)(1-beta) > 1."""
    return int(np.floor(beta_max / (1.0 - beta_max))) + 1


@dataclass
class GronwallBound:
    times: np.ndarray
    values: np.ndarray
    n_singular: int
    beta_collect: float   # the common beta-function factor B(1-beta_max, 1-alpha_max)


def gronwall_bound(a, alphas, b, betas, t_max: float, n_points: int = 400,
                   times: np.ndarray | None = None) -> GronwallBound:
    """Closed-form majorant of the inequality on (0, t_max].

    With B1(t) = sum_j b_j t^(1-beta_j), Bc the collected beta-function factor,
    and n the singularity-removal count:

        y(t) <= a(t) * sum_{k<=n} (Bc B1(t))^k
                     * (1 + Bc^n B1(t)^(n+1) e^{Bc^n B1(t)^(n+1)} / (1-alpha_max))
    """
    a, alphas, b, betas = _validate(a, alphas, b, betas)
    if times is None:
        times = np.linspace(0.0, t_max, n_points + 1)[1:]
    times = np.asarray(times, dtype=np.float64)
    a_curve = sum(ai * times ** (-al) for ai, al in zip(a, alphas))
    if np.all(b == 0):
        return GronwallBound(times, a_curve, 0, 1.0)
    beta_max = float(np.max(betas[b > 0]))
    alpha_max = float(np.max(alphas))
    n = singular_power_count(beta_max)
    # collected factor dominating every beta value met while iterating
    eps = max(alpha_max, beta_max)
    bc = max(1.0, beta_function(1.0 - beta_max, 1.0 - eps))
    b1 = sum(bj * times ** (1.0 - bj_beta) for bj, bj_beta in zip(b, betas))
    series = sum((bc * b1) ** k for k in range(n + 1))
    tail_arg = bc ** n * b1 ** (n + 1)
    with np.errstate(over="ignore"):  # an overflowing majorant is still a majorant
        tail = 1.0 + tail_arg * np.exp(tail_arg) / (1.0 - alpha_max)
        values = a_curve * series * tail
    return GronwallBound(times, values, n, bc)


def violation_fraction(bound: GronwallBound, oracle: GronwallBound) -> float:
    """The share of the common grid points at which the oracle exceeds the
    bound by more than 1e-9 relative, a slack for the rounding of both."""
    return float(np.mean(oracle.values > bound.values * (1 + 1e-9)))


def gronwall_oracle(a, alphas, b, betas, t_max: float, n_points: int = 1200,
                    times: np.ndarray | None = None) -> GronwallBound:
    """Fixed point of the integral equality on a grid, by forward substitution
    with singularity-exact product-integration weights.

    The data singularity is removed by solving for z(t) = t^alpha* y(t)
    (alpha* the strongest data exponent), which is bounded with the known
    value z(0) = lim t^alpha* a(t).  The transformed kernel moments
    int (t-s)^(-beta) s^(k-alpha*) ds over each cell are exact incomplete
    beta integrals, with z piecewise linear; the system is lower triangular.

    A diagonal weight >= 1 would flip the sign of the substitution; then
    every cell is split into r equal parts, r doubling until all are below 1
    (at most MAX_ORACLE_POINTS points, else PreconditionError).
    """
    a, alphas, b, betas = _validate(a, alphas, b, betas)
    if times is None:
        times = np.linspace(0.0, t_max, n_points + 1)[1:]
    times = np.asarray(times, dtype=np.float64)
    astar = float(np.max(alphas))
    starts = np.concatenate(([0.0], times[:-1]))
    r = 1
    while True:
        if times.size * r > MAX_ORACLE_POINTS:
            raise PreconditionError(
                f"the kernel is too strong for the oracle: splitting each cell "
                f"into {r} parts exceeds {MAX_ORACLE_POINTS} grid points")
        fine = np.linspace(starts, times, r + 1, axis=1)[:, 1:].reshape(-1)
        z = _transformed_fixed_point(a, alphas, b, betas, astar, fine)
        if z is not None:
            break
        r *= 2
    # strong kernels can push the fixed point past float range; inf is the
    # faithful representation (the bound overflows alongside it)
    with np.errstate(over="ignore", invalid="ignore"):
        y = z[r::r] / times ** astar
    return GronwallBound(times, y, 0, 1.0)


def _transformed_fixed_point(a, alphas, b, betas, astar: float, times: np.ndarray):
    """z = t^alpha* y at 0 and at every time, or None when a diagonal weight
    reaches 1 before z overflows."""
    from scipy.special import betainc

    n = times.size
    a_tilde = sum(ai * times ** (astar - al) for ai, al in zip(a, alphas))
    x1, x2 = 1.0 - astar, 2.0 - astar
    kernels = [(bj, 1.0 - beta, beta_function(x1, 1.0 - beta),
                beta_function(x2, 1.0 - beta))
               for bj, beta in zip(b, betas) if bj != 0]
    # row[j]: coefficient of z(t_j) in the transformed integral at t_i
    # (entry 0 belongs to the known z(0)); cells are [t0[l], t0[l+1]].
    t0 = np.concatenate(([0.0], times))
    h = np.diff(t0)
    z = np.zeros(n + 1)
    z[0] = float(sum(ai for ai, al in zip(a, alphas) if al == astar))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            tn = times[i]
            xs = t0[: i + 2] / tn
            row = np.zeros(i + 2)
            for bj, y1, b1c, b2c in kernels:
                m0 = np.diff(b1c * betainc(x1, y1, xs) * tn ** (x1 + y1 - 1.0))
                m1 = np.diff(b2c * betainc(x2, y1, xs) * tn ** (x2 + y1 - 1.0))
                # m0 = int_cell (tn-s)^(-beta) s^(-astar) ds, m1 the same with s^(1-astar)
                scale = bj * tn ** astar
                row[1:] += scale * (m1 - t0[: i + 1] * m0) / h[: i + 1]   # right nodes
                row[:-1] += scale * (t0[1: i + 2] * m0 - m1) / h[: i + 1]  # left nodes
            if row[-1] >= 1.0:
                return None
            z[i + 1] = (a_tilde[i] + np.dot(row[:-1], z[: i + 1])) / (1.0 - row[-1])
            if np.isinf(z[i + 1]):
                # every later value sums this one with a positive weight
                z[i + 2:] = np.inf
                break
    return z
