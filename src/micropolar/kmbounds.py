"""Scalar bound recursion for the successive approximation.

The weighted norms of the iterates are dominated by monotone functions
K^m(t) obeying an explicit quadratic recursion whose coefficients combine
semigroup smoothing constants, the nine estimate constants, and beta
functions of the exponent configuration.  The same coefficients give an
a-priori contraction horizon: either three scalar factors (strict branch)
or the spectral radius of a 3x3 comparison matrix (equality branches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .exponents import ExponentConfig, equality_branches
from .fields import GridSpec
from .nonlinear import CouplingParams, ForcingSpec, generators
from .solver import (TrajectoryState, WeightedNorms, beta_function, initial_trajectory,
                     time_weight)


def semigroup_constant(a: float, lam: float, lam_min: float) -> float:
    """Sharp torus constant in sup_t t^a e^(lam t) ||L^a e^(-tL) f|| <= C ||f||
    for a diagonal generator with smallest positive eigenvalue lam_min:
    the per-mode calculus bound (a/e)^a (mu/(mu-lam))^a maximized at mu=lam_min."""
    if not 0 <= lam < lam_min:
        raise ValueError(f"need 0 <= lam < smallest eigenvalue, got {lam} vs {lam_min}")
    if a == 0:
        return 1.0
    if a < 0:
        raise ValueError("smoothing exponent must be nonnegative")
    return (a / math.e) ** a * (lam_min / (lam_min - lam)) ** a


def holder_constant(a: float) -> float:
    """sup_{x>0} (1 - e^(-x)) / x^a, the semigroup Hoelder-difference constant."""
    if not 0 < a <= 1:
        raise ValueError("exponent must lie in (0, 1]")
    if a == 1.0:
        return 1.0
    x = np.logspace(-8, 4, 20001)
    return float(np.max(-np.expm1(-x) / x ** a))


@dataclass(frozen=True)
class LemmaConstants:
    """Fitted estimate constants consumed by the bound recursion.

    c1..c9 are the torus-fitted constants of the nine bilinear/linear
    estimates; semigroup_scale inflates the analytic smoothing constants
    (1.0 is exact for the L2 scale)."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    semigroup_scale: float = 1.0

    def inflated(self, factor: float) -> "LemmaConstants":
        return LemmaConstants(*(getattr(self, f"c{i}") * factor for i in range(1, 10)),
                              semigroup_scale=self.semigroup_scale * factor)

    def to_dict(self) -> dict:
        d = {f"c{i}": getattr(self, f"c{i}") for i in range(1, 10)}
        d["semigroup_scale"] = self.semigroup_scale
        return d

    @staticmethod
    def from_dict(d: dict) -> "LemmaConstants":
        return LemmaConstants(**{k: float(v) for k, v in d.items()})


@dataclass
class KmTracker:
    times: np.ndarray
    history: list = field(default_factory=list)   # per-m dict (tag, exp) -> curve
    converged: bool = False
    sup_change: list = field(default_factory=list)

    @property
    def final(self) -> dict:
        return self.history[-1]


def k0_curves(start: TrajectoryState, cfg: ExponentConfig, params: CouplingParams,
              times: np.ndarray) -> dict:
    """K^0 at the nine exponents: running sup over s <= t of
    s^(x - x0) ||free evolution(s)|| from the one-node start state, zero at
    t = 0."""
    traj = initial_trajectory(start, times, params, strict=False)
    norms = WeightedNorms(cfg, start.grid, params)
    table = norms.iteration_table(traj)
    return {key: np.maximum.accumulate(curve) for key, curve in table.items()}


def _recursion_coefficients(cfg: ExponentConfig, params: CouplingParams,
                            constants: LemmaConstants, grid: GridSpec,
                            f: ForcingSpec, g: ForcingSpec) -> dict:
    """Beta-function coefficient of every recursion term, for each tracked
    exponent, with the generators' spectral gaps on grid and the Lipschitz
    constants of the forcings f and g.  Keys: (tag, exp) -> list of
    (coefficient, power, sources)."""
    lam = cfg.lam if cfg.lam is not None else 0.0
    a_min, g_min, b_min = (op.min_positive_eigenvalue() for op in generators(grid, params))
    lf, lg = f.lipschitz, g.lipschitz
    sc = constants.semigroup_scale
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    d1, d2, d3 = cfg.delta1, cfg.delta2, cfg.delta3
    mur = params.mu_r
    out = {}
    for a in cfg.alphas():
        ca_shift = sc * semigroup_constant(a + d1, lam, a_min)
        ca_plain = sc * semigroup_constant(a, lam, a_min)
        out[("u", a)] = [
            (ca_shift * constants.c1 * beta_function(1 - (a + d1), 1 + 2 * (a0 - cfg.alpha1)),
             1 + a0 - 2 * cfg.alpha1 - d1, (("u", cfg.alpha1), ("u", cfg.alpha1))),
            (2 * ca_shift * constants.c5 * mur
             * beta_function(1 - (a + d1), 1 + b0 - cfg.beta1),
             1 + b0 - a0 - cfg.beta1 - d1, (("om", cfg.beta1),)),
            (ca_plain * constants.c8 * lf * beta_function(1 - a, 1 + g0 - cfg.gamma1),
             1 + g0 - a0 - cfg.gamma1, (("th", cfg.gamma1),)),
        ]
    for b in cfg.betas():
        cg_shift = sc * semigroup_constant(b + d2, lam, g_min)
        cg_plain = sc * semigroup_constant(b, lam, g_min)
        out[("om", b)] = [
            (cg_shift * constants.c2
             * beta_function(1 - (b + d2), 1 + a0 + b0 - cfg.alpha2 - cfg.beta2),
             1 + a0 - cfg.alpha2 - cfg.beta2 - d2,
             (("u", cfg.alpha2), ("om", cfg.beta2))),
            (4 * cg_plain * constants.c6 * mur * beta_function(1 - b, 1 + b0 - cfg.beta2),
             1 - cfg.beta2, (("om", cfg.beta2),)),
            (2 * cg_shift * constants.c7 * mur
             * beta_function(1 - (b + d2), 1 + a0 - cfg.alpha2),
             1 + a0 - b0 - cfg.alpha2 - d2, (("u", cfg.alpha2),)),
            (cg_plain * constants.c9 * lg * beta_function(1 - b, 1 + g0 - cfg.gamma2),
             1 + g0 - b0 - cfg.gamma2, (("th", cfg.gamma2),)),
        ]
    for g in cfg.gammas():
        cb_shift = sc * semigroup_constant(g + d3, lam, b_min)
        cb_plain = sc * semigroup_constant(g, lam, b_min)
        out[("th", g)] = [
            (cb_shift * constants.c3
             * beta_function(1 - (g + d3), 1 + a0 + g0 - cfg.alpha3 - cfg.gamma3),
             1 + a0 - cfg.alpha3 - cfg.gamma3 - d3,
             (("u", cfg.alpha3), ("th", cfg.gamma3))),
            (cb_plain * constants.c4 * (1 + mur)
             * beta_function(1 - g, 1 + 2 * (a0 - cfg.alpha3)),
             1 + 2 * a0 - g0 - 2 * cfg.alpha3, (("u", cfg.alpha3), ("u", cfg.alpha3))),
            (2 * cb_plain * constants.c4 * (1 + mur)
             * beta_function(1 - g, 1 + a0 + b0 - cfg.alpha3 - cfg.beta3),
             1 + a0 + b0 - g0 - cfg.alpha3 - cfg.beta3,
             (("u", cfg.alpha3), ("om", cfg.beta3))),
            (cb_plain * constants.c4 * (1 + mur)
             * beta_function(1 - g, 1 + 2 * (b0 - cfg.beta3)),
             1 + 2 * b0 - g0 - 2 * cfg.beta3, (("om", cfg.beta3), ("om", cfg.beta3))),
        ]
    return out


def _recursion_weight(times: np.ndarray, power: float) -> np.ndarray:
    """t^power with the recursion's value at t = 0: 1 for power 0, else 0
    (time_weight gives 1 there for a negative power)."""
    return np.where(times > 0, time_weight(times, power), float(power == 0))


def km_recursion(k0: dict, cfg: ExponentConfig, params: CouplingParams,
                 constants: LemmaConstants, times: np.ndarray, grid: GridSpec,
                 f: ForcingSpec = ForcingSpec(), g: ForcingSpec = ForcingSpec(),
                 m_max: int = 200, tol: float = 1e-10) -> KmTracker:
    """Iterate the quadratic bound recursion on the node grid, for the
    system on grid with forcing f, g (zero by default).

    k0 maps the nine (tag, exponent) keys to the free-evolution sup curves;
    the recursion is monotone in m and converges on a contraction horizon."""
    if constants is None:
        raise ConfigurationError("km_recursion needs fitted estimate constants")
    if not cfg.has_intermediates:
        raise ConfigurationError("km_recursion needs a completed exponent config")
    times = np.asarray(times, dtype=np.float64)
    coeffs = _recursion_coefficients(cfg, params, constants, grid, f, g)
    tracker = KmTracker(times=times, history=[dict(k0)])
    tpow = {power: _recursion_weight(times, power)
            for terms in coeffs.values() for _, power, _ in terms}

    for m in range(1, m_max + 1):
        prev = tracker.history[-1]
        cur = {}
        for key, terms in coeffs.items():
            acc = k0[key].copy()
            for coefficient, power, sources in terms:
                prod = np.ones_like(times)
                for src in sources:
                    prod = prod * prev[src]
                acc = acc + coefficient * prod * tpow[power]
            cur[key] = acc
        change = max(float(np.max(np.abs(cur[k] - prev[k]))) for k in cur)
        tracker.history.append(cur)
        tracker.sup_change.append(change)
        if change < tol:
            tracker.converged = True
            break
    return tracker


def check_domination(tracker: KmTracker, iterate_norms: list,
                     rtol: float = 1e-9) -> dict:
    """Compare recorded iterate weighted norms against the bound curves.

    Returns per-(m, key) worst excess; nonpositive means dominated."""
    out = {}
    for m, table in enumerate(iterate_norms):
        if m >= len(tracker.history):
            break
        bound = tracker.history[m]
        for key, curve in table.items():
            excess = np.max(curve - bound[key] * (1 + rtol))
            out[(m, key)] = float(excess)
    return out


def contraction_coefficients(cfg: ExponentConfig, params: CouplingParams,
                             constants: LemmaConstants, grid: GridSpec,
                             f: ForcingSpec, g: ForcingSpec) -> tuple:
    """(quadratic, linear) coefficient maxima of the bound recursion of the
    system on grid with forcing f, g; the larger is the generic constant.

    Terms with two norm sources multiply the data size K^0 in the
    difference-contraction factor; single-source terms carry the coupling
    constants and multiply pure powers of t.  Keeping them separate gives a
    sharper (still sufficient) horizon factor cq K0(t) + cl t^a."""
    coeffs = _recursion_coefficients(cfg, params, constants, grid, f, g)
    cq = cl = 0.0
    for terms in coeffs.values():
        for coefficient, _, sources in terms:
            if len(sources) >= 2:
                cq = max(cq, coefficient)
            else:
                cl = max(cl, coefficient)
    return cq, cl


@dataclass
class HorizonResult:
    tstar: float | None
    branch: str
    generic_c: float
    factors: dict         # name -> curve over the grid
    times: np.ndarray


def _matrix_spectral_radius_curve(k0max: np.ndarray, cfg: ExponentConfig,
                                  cq: float, cl: float,
                                  times: np.ndarray) -> np.ndarray:
    """Spectral radius of the 3x3 difference-comparison matrix at each node,
    via the cubic characteristic polynomial.  Data-size entries carry the
    quadratic coefficient, coupling entries the linear one."""
    e_ab = 1 + cfg.alpha0 - cfg.beta0 - cfg.alpha2 - cfg.delta2
    tas = cl * _recursion_weight(times, e_ab)
    tbs = cl * _recursion_weight(times, 1 - cfg.beta2)
    rho = np.zeros_like(times)
    for j, (ta, tb) in enumerate(zip(tas, tbs)):
        k0 = cq * k0max[j]
        mat = np.array([
            [k0, cl, cl],
            [k0 + ta, k0 + tb, cl],
            [k0, k0, k0],
        ])
        tr = np.trace(mat)
        minors = (
            mat[1, 1] * mat[2, 2] - mat[1, 2] * mat[2, 1]
            + mat[0, 0] * mat[2, 2] - mat[0, 2] * mat[2, 0]
            + mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
        det = np.linalg.det(mat)
        roots = np.roots([1.0, -tr, minors, -det])
        rho[j] = float(np.max(np.abs(roots)))
    return rho


def local_horizon(start: TrajectoryState, cfg: ExponentConfig, params: CouplingParams,
                  constants: LemmaConstants, times: np.ndarray,
                  f: ForcingSpec = ForcingSpec(),
                  g: ForcingSpec = ForcingSpec()) -> HorizonResult:
    """Largest sampled horizon on which the contraction criteria hold for
    the system with forcing f, g (zero by default) from the start state.

    Strict branches: the scalar factors C (K0(t) + t^a), C (K0(t) + t^b) and
    C K0(t) must stay below one.  If any coupling rule sits in its equality
    branch, the spectral radius of the comparison matrix is used instead."""
    times = np.asarray(times, dtype=np.float64)
    k0 = k0_curves(start, cfg, params, times)
    k0max = np.max(np.stack(list(k0.values())), axis=0)
    cq, cl = contraction_coefficients(cfg, params, constants, start.grid, f, g)
    cg = max(cq, cl)
    if float(np.max(k0max)) == 0.0:
        # zero data: the iteration is stationary at the fixed point
        return HorizonResult(tstar=float(times[-1]), branch="trivial",
                             generic_c=cg, factors={}, times=times)
    eq = equality_branches(cfg)
    factors = {}
    if any(eq):
        rho = _matrix_spectral_radius_curve(k0max, cfg, cq, cl, times)
        factors["spectral_radius"] = rho
        ok = rho < 1.0
        branch = "equality"
    else:
        a = min(1 + cfg.beta0 - cfg.alpha0 - cfg.beta1 - cfg.delta1,
                1 + cfg.gamma0 - cfg.alpha0 - cfg.gamma1)
        b = min(1 + cfg.alpha0 - cfg.beta0 - cfg.alpha2 - cfg.delta2,
                1 - cfg.beta2,
                1 + cfg.gamma0 - cfg.beta0 - cfg.gamma2)
        # at t = 0 the factors are the data terms alone, whatever the sign of a, b
        ta = time_weight(times, a) * (times > 0)
        tb = time_weight(times, b) * (times > 0)
        factors["velocity"] = cq * k0max + cl * ta
        factors["microrotation"] = cq * k0max + cl * tb
        factors["temperature"] = cq * k0max
        ok = np.ones_like(times, dtype=bool)
        for f in factors.values():
            ok &= f < 1.0
        branch = "strict"
    admissible = np.nonzero(ok)[0]
    if admissible.size == 0 or not ok[0]:
        tstar = None
    else:
        # largest prefix of admissible nodes (the factors are monotone)
        breakpoints = np.nonzero(~ok)[0]
        last = (breakpoints[0] - 1) if breakpoints.size else (len(times) - 1)
        tstar = float(times[last]) if last >= 1 else None
    return HorizonResult(tstar=tstar, branch=branch, generic_c=cg,
                         factors=factors, times=times)
