"""Scalar bound recursion for the successive approximation.

The weighted norms of the iterates are dominated by monotone functions
K^m(t) obeying an explicit quadratic recursion whose coefficients combine
semigroup smoothing constants, the nine estimate constants, and beta
functions of the exponent configuration; each term comes from one row of
exponents.ESTIMATES, the table of the coupling estimates.  The same
coefficients give an a-priori contraction horizon: either three scalar
factors (strict branch) or the spectral radius of a 3x3 comparison matrix
(equality branches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .exponents import ESTIMATES, TAGS, ExponentConfig, beta_argument, equality_branches
from .fields import GridSpec
from .nonlinear import CouplingParams, ForcingSpec, generators
from .solver import TrajectoryState, WeightedNorms, beta_function, initial_trajectory, time_weight


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
    base = cfg.by_tag("base")
    forcing = {"u": f, "om": g}
    out = {}
    for tag, tracked in cfg.by_tag("tracked").items():
        for x in tracked:
            terms = out[(tag, x)] = []
            for est, c in zip(ESTIMATES.values(), constants.by_row):
                if est.out != tag:
                    continue
                delta = getattr(cfg, est.delta) if est.delta else 0.0
                kernel = KERNEL_COEFFICIENTS[est.left](params, forcing.get(tag))
                scaled = (constants.semigroup_scale * semigroup_constant(x + delta, lam, gaps[tag])
                          * c * kernel)
                for copies, sources in est.terms:
                    second = beta_argument(cfg, sources)
                    terms.append((copies * scaled * beta_function(1 - (x + delta), second),
                                  second - base[tag] - delta,
                                  tuple((src, getattr(cfg, name)) for src, name in sources)))
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
    system on grid with forcing f, g; the larger is the generic constant."""
    return _coefficient_maxima(_recursion_coefficients(cfg, params, constants, grid, f, g))


def _coefficient_maxima(coeffs: dict) -> tuple:
    """(quadratic, linear) maxima of the recursion coefficients coeffs.

    Terms with two norm sources multiply the data size K^0 in the
    difference-contraction factor; single-source terms carry the coupling
    constants and multiply pure powers of t.  Keeping them separate gives a
    sharper (still sufficient) horizon factor cq K0(t) + cl t^a."""
    terms = [term for key_terms in coeffs.values() for term in key_terms]
    quadratic = [c for c, _, sources in terms if len(sources) >= 2]
    linear = [c for c, _, sources in terms if len(sources) < 2]
    return max([0.0] + quadratic), max([0.0] + linear)


def _linear_powers(coeffs: dict, tag: str) -> dict:
    """Source tag -> smallest time power of the single-source recursion
    terms of tag's equation in coeffs."""
    out = {}
    for (key_tag, _), terms in coeffs.items():
        for _, power, sources in terms:
            if key_tag == tag and len(sources) == 1:
                out[sources[0][0]] = min(power, out.get(sources[0][0], power))
    return out


@dataclass
class HorizonResult:
    tstar: float | None
    branch: str
    generic_c: float
    factors: dict         # name -> curve over the grid
    times: np.ndarray


def _matrix_spectral_radius_curve(k0max: np.ndarray, coeffs: dict, cq: float, cl: float,
                                  times: np.ndarray) -> np.ndarray:
    """Spectral radius of the 3x3 difference-comparison matrix at each node.
    Data-size entries carry the quadratic coefficient, coupling entries the
    linear one; the om row's u and om entries also grow with t to the power
    of the om equation's single-source term with that source in coeffs."""
    powers = _linear_powers(coeffs, "om")
    k0, c = cq * k0max, np.full_like(k0max, cl)
    ta, tb = (cl * time_weight(times, powers[src]) for src in ("u", "om"))
    mats = np.moveaxis(np.array([[k0, c, c], [k0 + ta, k0 + tb, c], [k0, k0, k0]]), -1, 0)
    return np.max(np.abs(np.linalg.eigvals(mats)), axis=1)


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
    coeffs = _recursion_coefficients(cfg, params, constants, start.grid, f, g)
    cq, cl = _coefficient_maxima(coeffs)
    cg = max(cq, cl)
    if float(np.max(k0max)) == 0.0:
        # zero data: the iteration is stationary at the fixed point
        return HorizonResult(tstar=float(times[-1]), branch="trivial",
                             generic_c=cg, factors={}, times=times)
    if any(equality_branches(cfg)):
        branch = "equality"
        factors = {"spectral_radius": _matrix_spectral_radius_curve(k0max, coeffs, cq, cl, times)}
    else:
        branch, factors = "strict", {}
        for tag, name in zip(TAGS, ("velocity", "microrotation", "temperature")):
            powers = _linear_powers(coeffs, tag).values()
            factors[name] = cq * k0max + (cl * time_weight(times, min(powers)) if powers else 0)
    ok = np.all([factor < 1.0 for factor in factors.values()], axis=0)
    # the last node of the admissible prefix (the factors are monotone)
    last = len(times) - 1 if ok.all() else int(np.argmin(ok)) - 1
    tstar = float(times[last]) if last >= 1 else None
    return HorizonResult(tstar=tstar, branch=branch, generic_c=cg,
                         factors=factors, times=times)
