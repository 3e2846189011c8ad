"""Scalar bound recursion for the successive approximation.

The weighted norms of the iterates are dominated by monotone functions
K^m(t) obeying an explicit quadratic recursion whose coefficients combine
semigroup smoothing constants, the nine estimate constants, and beta
functions of the exponent configuration; each term comes from one row of
ESTIMATES, the table of the coupling estimates.  The same coefficients give an
a-priori contraction horizon: either three scalar factors (strict branch)
or the spectral radius of a 3x3 comparison matrix (equality branches).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .exponents import ExponentConfig, equality_branches
from .fields import GridSpec
from .nonlinear import CouplingParams, ForcingSpec, generators
from .operators import leray_coeffs, power_coeffs
from .solver import (TAGS, TrajectoryState, WeightedNorms, beta_function, initial_trajectory,
                     tag_components, time_weight)


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

    @property
    def by_row(self) -> tuple:
        """c1..c9, one per ESTIMATES row in table order."""
        return tuple(getattr(self, f"c{i}") for i in range(1, 10))

    def inflated(self, factor: float) -> "LemmaConstants":
        return LemmaConstants(*(c * factor for c in self.by_row),
                              semigroup_scale=self.semigroup_scale * factor)


# ---------------------------------------------------------------------------
# The coupling estimates
#
# Each of the coupling estimates 2.5-2.13 bounds one left side by weighted
# fractional norms of its arguments,
#
#     ||outer(left(x_1, ..., x_k))||_(L^s of out) <= C prod_i ||op_i^(e_i) x_i||,
#
# and ESTIMATES states each one once: the bound recursion below and every
# estimate path of analysis read its row.


@dataclass(frozen=True)
class Estimate:
    """One coupling estimate.

    out is the tag of the left side's field: it fixes the Lebesgue exponent
    of the left side, the outer operator (the Leray projection for u, then
    the power -delta of out's generator) and the forcing a force row reads
    (f for u, g for om).  left is the kernel: advect (x_1 . grad) x_2, phi
    the dissipation function of (u, om) and (v, psi), rot, id, or force,
    the forcing at the temperature x_1.  slots holds one (field tag,
    ExponentConfig weight exponent) pair per argument, and delta names the
    ExponentConfig inverse power, or is None."""

    out: str
    left: str
    slots: tuple
    delta: str | None = None

    @property
    def arguments(self) -> tuple:
        """The slot of every argument field: phi takes two per slot, u, v
        then om, psi."""
        return tuple(s for s in self.slots for _ in range(2 if self.left == "phi" else 1))

    def hilbert(self, cfg: ExponentConfig) -> bool:
        """Whether every Lebesgue exponent the estimate reads is 2."""
        lebesgue = dict(zip(TAGS, (cfg.p, cfg.q, cfg.r)))
        return all(lebesgue[tag] == 2.0 for tag in {self.out} | set(dict(self.slots)))

    @property
    def quadratic(self) -> bool:
        """Whether the left side is bilinear in two slots (advect, phi)
        rather than zero-order in one (rot, id, force)."""
        return self.left in ("advect", "phi")

    def outer(self, cfg: ExponentConfig, ops: dict, half: np.ndarray,
              power=power_coeffs) -> np.ndarray:
        """The outer operator on stacked half spectra (..., comp, *half): the
        Leray projection for u, then out's generator in ops to the power
        -delta, applied by power (power_coeffs or _half_power)."""
        if self.out == "u":
            half = leray_coeffs(ops["u"].grid, half)
        if self.delta is None:
            return half
        return power(ops[self.out].with_power(-getattr(cfg, self.delta)), half)

    def terms(self, cfg: ExponentConfig) -> tuple:
        """(multiplicity, sources) of each bound-recursion term of the row,
        the sources being its slots as (field tag, exponent in cfg) pairs:
        phi, quadratic in (u, om), gives the three terms of (|u| + |om|)^2."""
        slots = tuple((tag, getattr(cfg, name)) for tag, name in self.slots)
        if self.left != "phi":
            return ((1, slots),)
        return tuple((1 if a == b else 2, (a, b))
                     for a, b in itertools.combinations_with_replacement(slots, 2))

    def forcing(self, f: ForcingSpec, g: ForcingSpec, dim: int) -> ForcingSpec:
        """The forcing a force row bounds, f for u and g for om, or the
        linear e1 probe in its place when it vanishes, since the estimate
        divides by its Lipschitz constant."""
        force = f if self.out == "u" else g
        components = tag_components(dim)[self.out]
        if force.lipschitz == 0:
            force = ForcingSpec("linear", (1.0,) + (0.0,) * (components - 1))
        if len(force.c) != components:
            raise ConfigurationError(
                f"forcing has {len(force.c)} components, expected {components}")
        return force


ESTIMATES = {
    "2.5": Estimate("u", "advect", (("u", "alpha1"), ("u", "alpha1")), "delta1"),
    "2.6": Estimate("om", "advect", (("u", "alpha2"), ("om", "beta2")), "delta2"),
    "2.7": Estimate("th", "advect", (("u", "alpha3"), ("th", "gamma3")), "delta3"),
    "2.8": Estimate("th", "phi", (("u", "alpha3"), ("om", "beta3"))),
    "2.9": Estimate("u", "rot", (("om", "beta1"),), "delta1"),
    "2.10": Estimate("om", "id", (("om", "beta2"),)),
    "2.11": Estimate("om", "rot", (("u", "alpha2"),), "delta2"),
    "2.12": Estimate("u", "force", (("th", "gamma1"),)),
    "2.13": Estimate("om", "force", (("th", "gamma2"),)),
}


@dataclass
class KmTracker:
    times: np.ndarray
    history: list = field(default_factory=list)   # per-m dict (tag, exp) -> curve
    converged: bool = False
    sup_change: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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


# Coefficient of each kernel in the right-hand side (nonlinear.assemble_rhs),
# from the material constants and the forcing of the row's field.
KERNEL_COEFFICIENTS = {
    "advect": lambda params, force: 1.0,
    "phi": lambda params, force: 1 / (params.rho * params.cv),
    "rot": lambda params, force: 2 * params.mu_r / params.rho,
    "id": lambda params, force: 4 * params.mu_r / params.rho,
    "force": lambda params, force: force.lipschitz,
}


def _recursion_coefficients(cfg: ExponentConfig, params: CouplingParams,
                            constants: LemmaConstants, grid: GridSpec,
                            f: ForcingSpec, g: ForcingSpec) -> dict:
    """Every recursion term of each tracked exponent, (tag, exp) -> list of
    (coefficient, power, sources), with the generators' spectral gaps on
    grid and the Lipschitz constants of the forcings f and g.  Each ESTIMATES
    row with out = tag gives its terms (Estimate.terms): its constant times
    its kernel's coefficient, the semigroup constant of tag's generator at
    exp + delta and the beta function of the time convolution."""
    lam = cfg.lam if cfg.lam is not None else 0.0
    gaps = dict(zip(TAGS, (op.min_positive_eigenvalue() for op in generators(grid, params))))
    base = dict(zip(TAGS, (cfg.alpha0, cfg.beta0, cfg.gamma0)))
    tracked = dict(zip(TAGS, (cfg.alphas(), cfg.betas(), cfg.gammas())))
    forcing = {"u": f, "om": g}
    out = {}
    for tag in TAGS:
        for x in tracked[tag]:
            terms = out[(tag, x)] = []
            for est, c in zip(ESTIMATES.values(), constants.by_row):
                if est.out != tag:
                    continue
                delta = getattr(cfg, est.delta) if est.delta else 0.0
                kernel = KERNEL_COEFFICIENTS[est.left](params, forcing.get(tag))
                scaled = (constants.semigroup_scale * semigroup_constant(x + delta, lam, gaps[tag])
                          * c * kernel)
                for copies, sources in est.terms(cfg):
                    # 1 + sum x0_i - sum e_i: the weighted source norms make
                    # the integrand s^(second - 1) near s = 0
                    second = sum([base[src] for src, _ in sources]
                                 + [-e for _, e in sources], 1.0)
                    terms.append((copies * scaled * beta_function(1 - (x + delta), second),
                                  second - base[tag] - delta, sources))
    return out


@np.errstate(over="ignore", invalid="ignore")
def km_recursion(k0: dict, cfg: ExponentConfig, params: CouplingParams,
                 constants: LemmaConstants, times: np.ndarray, grid: GridSpec,
                 f: ForcingSpec = ForcingSpec(), g: ForcingSpec = ForcingSpec(),
                 m_max: int = 200, tol: float = 1e-10) -> KmTracker:
    """Iterate the quadratic bound recursion on the node grid, for the
    system on grid with forcing f, g (zero by default).

    k0 maps the nine (tag, exponent) keys to the free-evolution sup curves;
    the recursion is monotone in m and converges on a contraction horizon;
    it stops at the first bound that is not finite and says so in notes."""
    if constants is None:
        raise ConfigurationError("km_recursion needs fitted estimate constants")
    if not cfg.has_intermediates:
        raise ConfigurationError("km_recursion needs a completed exponent config")
    times = np.asarray(times, dtype=np.float64)
    coeffs = _recursion_coefficients(cfg, params, constants, grid, f, g)
    tracker = KmTracker(times=times, history=[dict(k0)])
    tpow = {power: time_weight(times, power)
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
        tracker.history.append(cur)
        if not np.isfinite(list(cur.values())).all():
            tracker.notes.append(f"the bound is not finite at m = {m}: the recursion diverged")
            break
        change = max(float(np.max(np.abs(cur[k] - prev[k]))) for k in cur)
        tracker.sup_change.append(change)
        if change < tol:
            tracker.converged = True
            break
    return tracker


def check_domination(tracker: KmTracker, iterate_norms: list,
                     rtol: float = 1e-9) -> dict:
    """Compare recorded iterate weighted norms against the bound curves.

    Returns per-(m, key) worst excess; nonpositive means dominated, inf a bound that diverged."""
    bounded = np.isfinite(list(tracker.final.values())).all()
    out = {}
    for m, table in enumerate(iterate_norms):
        if m >= len(tracker.history):
            break
        bound = tracker.history[m]
        for key, curve in table.items():
            excess = np.max(curve - bound[key] * (1 + rtol)) if bounded else math.inf
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
    tas = cl * time_weight(times, e_ab)
    tbs = cl * time_weight(times, 1 - cfg.beta2)
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
    C K0(t) must stay below one, a and b the smallest time powers of the
    recursion's single-source u and om terms.  If any coupling rule sits in
    its equality branch, the spectral radius of the comparison matrix is
    used instead."""
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
        coeffs = _recursion_coefficients(cfg, params, constants, start.grid, f, g)
        for tag, name in zip(TAGS, ("velocity", "microrotation", "temperature")):
            powers = [power for (t, _), terms in coeffs.items() if t == tag
                      for _, power, sources in terms if len(sources) == 1]
            factors[name] = cq * k0max + (cl * time_weight(times, min(powers)) if powers else 0)
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
