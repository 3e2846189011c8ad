"""Feasibility checking and automatic selection of the scalar exponents.

The machinery needs integrability exponents (p, q, r), base regularity
exponents (alpha0, beta0, gamma0), auxiliary negative-power exponents
(delta1..3), nine intermediate exponents, and the decay-rate chain
(lambda, lambda1, lambda2).  check_config evaluates every inequality
literally and reports each violation with its left/right values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError

EQ_TOL = 1e-12

# lattice resolutions 1/res of the exponent group searches, coarsest first
LATTICES = (32, 64, 128, 256)

BASE = "base"
REGULARITY = "regularity"
CLASSICAL = "classical"


@dataclass(frozen=True)
class ExponentConfig:
    p: float
    q: float
    r: float
    alpha0: float
    beta0: float
    gamma0: float
    delta1: float | None = None
    delta2: float | None = None
    delta3: float | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    alpha3: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    beta3: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None
    gamma3: float | None = None
    lam: float | None = None
    lam1: float | None = None
    lam2: float | None = None

    _INTERMEDIATES = ("alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3",
                      "gamma1", "gamma2", "gamma3")

    @property
    def has_intermediates(self) -> bool:
        return all(getattr(self, n) is not None for n in self._INTERMEDIATES) \
            and None not in (self.delta1, self.delta2, self.delta3)

    @property
    def has_lambdas(self) -> bool:
        return None not in (self.lam, self.lam1, self.lam2)

    def alphas(self) -> tuple:
        return (self.alpha1, self.alpha2, self.alpha3)

    def betas(self) -> tuple:
        return (self.beta1, self.beta2, self.beta3)

    def gammas(self) -> tuple:
        return (self.gamma1, self.gamma2, self.gamma3)

    def triples(self) -> tuple:
        """The three (alpha_i, beta_i, gamma_i) weighted-norm triples."""
        return tuple(zip(self.alphas(), self.betas(), self.gammas()))

    def validate_ranges(self):
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (1 < v < np.inf):
                raise ConfigurationError(f"{name} must lie in (1, inf), got {v}")
        for name in ("alpha0", "beta0", "gamma0"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (0 <= v < 1):
                raise ConfigurationError(f"{name} must lie in [0, 1), got {v}")
        for name in self._INTERMEDIATES + ("delta1", "delta2", "delta3",
                                           "lam", "lam1", "lam2"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ConfigurationError(f"{name} is not finite")

    def to_dict(self) -> dict:
        d = {"p": self.p, "q": self.q, "r": self.r,
             "alpha0": self.alpha0, "beta0": self.beta0, "gamma0": self.gamma0}
        for name in ("delta1", "delta2", "delta3") + self._INTERMEDIATES:
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        for attr, key in (("lam", "lambda"), ("lam1", "lambda1"), ("lam2", "lambda2")):
            v = getattr(self, attr)
            if v is not None:
                d[key] = v
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExponentConfig":
        kwargs = {}
        for name in ("p", "q", "r", "alpha0", "beta0", "gamma0", "delta1",
                     "delta2", "delta3") + ExponentConfig._INTERMEDIATES:
            if name in d and d[name] is not None:
                kwargs[name] = float(d[name])
        for attr, key in (("lam", "lambda"), ("lam1", "lambda1"), ("lam2", "lambda2")):
            if key in d and d[key] is not None:
                kwargs[attr] = float(d[key])
        return ExponentConfig(**kwargs)


@dataclass(frozen=True)
class Violation:
    label: str
    lhs: float
    relation: str
    rhs: float

    def __str__(self):
        return f"{self.label}: {self.lhs:.6g} {self.relation} {self.rhs:.6g} fails"


@dataclass
class CheckResult:
    level: str
    passed: bool
    violations: list = field(default_factory=list)
    checked: int = 0

    def __bool__(self):
        return self.passed


class _Checker:
    def __init__(self):
        self.violations = []
        self.count = 0

    def require(self, label: str, lhs: float, relation: str, rhs: float):
        self.count += 1
        ok = {
            "<": lhs < rhs,
            "<=": lhs <= rhs,
            ">": lhs > rhs,
            ">=": lhs >= rhs,
            "==": abs(lhs - rhs) <= EQ_TOL,
        }[relation]
        if not ok:
            self.violations.append(Violation(label, lhs, relation, rhs))


def _base_integrability(cfg: ExponentConfig, ch: _Checker):
    p, q, r = cfg.p, cfg.q, cfg.r
    ch.require("|1/p-1/q| < 1/3", abs(1 / p - 1 / q), "<", 1 / 3)
    ch.require("1/p-1/(2r) < 1/3", 1 / p - 1 / (2 * r), "<", 1 / 3)
    ch.require("1/r-1/p < 2/3", 1 / r - 1 / p, "<", 2 / 3)
    ch.require("1/q-1/(2r) < 1/3", 1 / q - 1 / (2 * r), "<", 1 / 3)
    ch.require("1/r-1/q < 2/3", 1 / r - 1 / q, "<", 2 / 3)


def _base_exponents(cfg: ExponentConfig, ch: _Checker):
    p, q, r = cfg.p, cfg.q, cfg.r
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    ch.require("alpha0 >= max{0, 3/(2p)-1/2}", a0, ">=", max(0.0, 1.5 / p - 0.5))
    ch.require("alpha0-beta0-(3/2)(1/p-1/q) <= 1/2",
               a0 - b0 - 1.5 * (1 / p - 1 / q), "<=", 0.5)
    ch.require("alpha0-gamma0/2-(3/2)(1/p-1/(2r)) >= 0",
               a0 - g0 / 2 - 1.5 * (1 / p - 1 / (2 * r)), ">=", 0.0)
    ch.require("alpha0-gamma0-(3/2)(1/p-1/r) > -1",
               a0 - g0 - 1.5 * (1 / p - 1 / r), ">", -1.0)
    ch.require("alpha0-gamma0-(3/2)(1/p-1/r) <= 1",
               a0 - g0 - 1.5 * (1 / p - 1 / r), "<=", 1.0)
    ch.require("beta0-gamma0/2-(3/2)(1/q-1/(2r)) >= 0",
               b0 - g0 / 2 - 1.5 * (1 / q - 1 / (2 * r)), ">=", 0.0)
    ch.require("beta0-gamma0-(3/2)(1/q-1/r) > -1",
               b0 - g0 - 1.5 * (1 / q - 1 / r), ">", -1.0)
    ch.require("beta0-gamma0-(3/2)(1/q-1/r) <= 1",
               b0 - g0 - 1.5 * (1 / q - 1 / r), "<=", 1.0)


def _regularity_conditions(cfg: ExponentConfig, ch: _Checker):
    p, q, r = cfg.p, cfg.q, cfg.r
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    ch.require("alpha0 >= 3(1/p-1/(2r))", a0, ">=", 3 * (1 / p - 1 / (2 * r)))
    ch.require("beta0 >= max{3/(2p)-1/2, 3(1/q-1/(2r))}", b0, ">=",
               max(1.5 / p - 0.5, 3 * (1 / q - 1 / (2 * r))))
    ch.require("gamma0 >= 3/(2p)-1/2", g0, ">=", 1.5 / p - 0.5)
    # time-derivative conditions
    ch.require("alpha0 >= (3/2)(1/p+1/q-1/r)", a0, ">=", 1.5 * (1 / p + 1 / q - 1 / r))
    ch.require("beta0 >= (3/2)(1/p+1/q-1/r)", b0, ">=", 1.5 * (1 / p + 1 / q - 1 / r))
    ch.require("alpha0-gamma0 >= (3/2)(1/p-1/q)-1/2", a0 - g0, ">=",
               1.5 * (1 / p - 1 / q) - 0.5)
    ch.require("beta0-gamma0 >= (3/2)(1/q-1/p)-1/2", b0 - g0, ">=",
               1.5 * (1 / q - 1 / p) - 0.5)
    ch.require("beta0-alpha0 > -1/2", b0 - a0, ">", -0.5)
    ch.require("beta0-gamma0 > -1/2", b0 - g0, ">", -0.5)
    ch.require("2alpha0-beta0 >= max{3/(2p)-1/2, 3(1/p-1/(2r))}", 2 * a0 - b0, ">=",
               max(1.5 / p - 0.5, 3 * (1 / p - 1 / (2 * r))))
    ch.require("2alpha0-gamma0 >= 3/(2p)-1/2", 2 * a0 - g0, ">=", 1.5 / p - 0.5)
    ch.require("2beta0-alpha0 >= 3(1/q-1/(2r))", 2 * b0 - a0, ">=",
               3 * (1 / q - 1 / (2 * r)))
    ch.require("alpha0+beta0-gamma0 >= 3/(2p)-1/2", a0 + b0 - g0, ">=", 1.5 / p - 0.5)
    ch.require("alpha0-beta0+gamma0 >= 3/(2p)-1/2", a0 - b0 + g0, ">=", 1.5 / p - 0.5)
    ch.require("alpha0-gamma0-(3/2)(1/q-1/r) > -1",
               a0 - g0 - 1.5 * (1 / q - 1 / r), ">", -1.0)
    ch.require("alpha0-gamma0-(3/2)(1/q-1/r) <= 1",
               a0 - g0 - 1.5 * (1 / q - 1 / r), "<=", 1.0)
    ch.require("beta0-gamma0-(3/2)(1/p-1/r) > -1",
               b0 - g0 - 1.5 * (1 / p - 1 / r), ">", -1.0)
    ch.require("beta0-gamma0-(3/2)(1/p-1/r) <= 1",
               b0 - g0 - 1.5 * (1 / p - 1 / r), "<=", 1.0)


def _classical_conditions(cfg: ExponentConfig, ch: _Checker):
    p, q, r = cfg.p, cfg.q, cfg.r
    ch.require("3 < p", 3.0, "<", p)
    ch.require("3 < r", 3.0, "<", r)
    ch.require("q == p", q, "==", p)
    ch.require("1/p-1/(2r) <= 0", 1 / p - 1 / (2 * r), "<=", 0.0)
    ch.require("1/r-1/p < 2/3", 1 / r - 1 / p, "<", 2 / 3)


def _delta_rule(cfg: ExponentConfig, ch: _Checker):
    for base, delta, name in ((cfg.alpha0, cfg.delta1, "delta1"),
                              (cfg.beta0, cfg.delta2, "delta2"),
                              (cfg.gamma0, cfg.delta3, "delta3")):
        if base > 0:
            ch.require(f"{name} == 0 (base exponent positive)", delta, "==", 0.0)
        else:
            ch.require(f"{name} > 0 (base exponent zero)", delta, ">", 0.0)


def delta_upper_bounds(cfg: ExponentConfig) -> tuple:
    """Open upper bounds on delta1..3 from the estimate hypotheses."""
    return (0.5 + 1.5 * (1 - 1 / cfg.p),
            0.5 + 1.5 * (1 - 1 / cfg.q),
            0.5 + 1.5 * (1 - 1 / cfg.r))


def branch_values(cfg: ExponentConfig) -> tuple:
    """Defining expressions of the three strict/equality branch conditions."""
    d49 = cfg.alpha0 - cfg.beta0 - 1.5 * (1 / cfg.p - 1 / cfg.q)
    d50 = cfg.alpha0 - cfg.gamma0 - 1.5 * (1 / cfg.p - 1 / cfg.r)
    d51 = cfg.beta0 - cfg.gamma0 - 1.5 * (1 / cfg.q - 1 / cfg.r)
    return d49, d50, d51


def equality_branches(cfg: ExponentConfig) -> tuple:
    """Booleans: is each of the three selection rules in its equality case."""
    d49, d50, d51 = branch_values(cfg)
    return (abs(d49 - 0.5) <= EQ_TOL, abs(d50 - 1.0) <= EQ_TOL, abs(d51 - 1.0) <= EQ_TOL)


def _lemma_hypotheses(cfg: ExponentConfig, ch: _Checker):
    p, q, r = cfg.p, cfg.q, cfg.r
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    d1, d2, d3 = cfg.delta1, cfg.delta2, cfg.delta3
    a1, a2, a3 = cfg.alphas()
    b1, b2, b3 = cfg.betas()
    g1, g2, g3 = cfg.gammas()
    up1, up2, up3 = delta_upper_bounds(cfg)

    # advective velocity estimate
    ch.require("alpha1 > 0", a1, ">", 0.0)
    ch.require("delta1 >= 0", d1, ">=", 0.0)
    ch.require("delta1 < 1/2+(3/2)(1-1/p)", d1, "<", up1)
    ch.require("alpha1+delta1 > 1/2", a1 + d1, ">", 0.5)
    ch.require("2alpha1+delta1 >= 3/(2p)+1/2", 2 * a1 + d1, ">=", 1.5 / p + 0.5)
    # microrotation transport estimate
    ch.require("alpha2 >= 0", a2, ">=", 0.0)
    ch.require("beta2 >= 0", b2, ">=", 0.0)
    ch.require("alpha2 > (3/2)(1/p-1/q)", a2, ">", 1.5 * (1 / p - 1 / q))
    ch.require("delta2 >= 0", d2, ">=", 0.0)
    ch.require("delta2 < 1/2+(3/2)(1-1/q)", d2, "<", up2)
    ch.require("beta2+delta2 > 1/2", b2 + d2, ">", 0.5)
    ch.require("alpha2+beta2+delta2 >= 3/(2p)+1/2", a2 + b2 + d2, ">=", 1.5 / p + 0.5)
    # temperature transport estimate
    ch.require("alpha3 >= 0", a3, ">=", 0.0)
    ch.require("gamma3 >= 0", g3, ">=", 0.0)
    ch.require("alpha3 > (3/2)(1/p-1/r)", a3, ">", 1.5 * (1 / p - 1 / r))
    ch.require("delta3 >= 0", d3, ">=", 0.0)
    ch.require("delta3 < 1/2+(3/2)(1-1/r)", d3, "<", up3)
    ch.require("gamma3+delta3 > 1/2", g3 + d3, ">", 0.5)
    ch.require("alpha3+gamma3+delta3 >= 3/(2p)+1/2", a3 + g3 + d3, ">=", 1.5 / p + 0.5)
    # dissipation-function estimate
    ch.require("alpha3 >= max{0, 1/2+(3/2)(1/p-1/(2r))}", a3, ">=",
               max(0.0, 0.5 + 1.5 * (1 / p - 1 / (2 * r))))
    ch.require("alpha3 <= 1", a3, "<=", 1.0)
    ch.require("beta3 >= max{0, 1/2+(3/2)(1/q-1/(2r))}", b3, ">=",
               max(0.0, 0.5 + 1.5 * (1 / q - 1 / (2 * r))))
    ch.require("beta3 <= 1", b3, "<=", 1.0)
    # curl coupling estimates
    ch.require("beta1 >= 0", b1, ">=", 0.0)
    ch.require("beta1 > (3/2)(1/q-1/p)", b1, ">", 1.5 * (1 / q - 1 / p))
    ch.require("beta1+delta1 >= (3/2)(1/q-1/p)+1/2", b1 + d1, ">=",
               1.5 * (1 / q - 1 / p) + 0.5)
    ch.require("0 <= beta2 <= 1 (zero-order bound)", b2, "<=", 1.0)
    ch.require("alpha2+delta2 >= (3/2)(1/p-1/q)+1/2", a2 + d2, ">=",
               1.5 * (1 / p - 1 / q) + 0.5)
    # forcing estimates
    ch.require("gamma1 >= max{0, (3/2)(1/r-1/p)}", g1, ">=",
               max(0.0, 1.5 * (1 / r - 1 / p)))
    ch.require("gamma1 <= 1", g1, "<=", 1.0)
    ch.require("gamma2 >= max{0, (3/2)(1/r-1/q)}", g2, ">=",
               max(0.0, 1.5 * (1 / r - 1 / q)))
    ch.require("gamma2 <= 1", g2, "<=", 1.0)


def _boxes_and_selection(cfg: ExponentConfig, ch: _Checker):
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    d1, d2, d3 = cfg.delta1, cfg.delta2, cfg.delta3
    for i, a in enumerate(cfg.alphas(), start=1):
        ch.require(f"alpha0 < alpha{i}", a0, "<", a)
        ch.require(f"alpha{i} < 1-delta1", a, "<", 1 - d1)
    for i, b in enumerate(cfg.betas(), start=1):
        ch.require(f"beta0 < beta{i}", b0, "<", b)
        ch.require(f"beta{i} < 1-delta2", b, "<", 1 - d2)
    for i, g in enumerate(cfg.gammas(), start=1):
        ch.require(f"gamma0 < gamma{i}", g0, "<", g)
        ch.require(f"gamma{i} < 1-delta3", g, "<", 1 - d3)
    # joint selection constraints
    ch.require("2alpha1+delta1 <= 1+alpha0", 2 * cfg.alpha1 + d1, "<=", 1 + a0)
    ch.require("alpha2+beta2+delta2 <= 1+alpha0", cfg.alpha2 + cfg.beta2 + d2, "<=", 1 + a0)
    ch.require("alpha2+delta2 < 1+alpha0-beta0", cfg.alpha2 + d2, "<", 1 + a0 - b0)
    ch.require("alpha3+gamma3+delta3 <= 1+alpha0", cfg.alpha3 + cfg.gamma3 + d3, "<=", 1 + a0)
    ch.require("alpha3 <= alpha0+(1-gamma0)/2", cfg.alpha3, "<=", a0 + (1 - g0) / 2)
    ch.require("beta3 <= beta0+(1-gamma0)/2", cfg.beta3, "<=", b0 + (1 - g0) / 2)
    # branch conditions for the three linear coupling exponents
    d49, d50, d51 = branch_values(cfg)
    eq49, eq50, eq51 = equality_branches(cfg)
    if eq49:
        ch.require("beta1+delta1 == 1-alpha0+beta0 (equality branch)",
                   cfg.beta1 + d1, "==", 1 - a0 + b0)
    else:
        ch.require("beta1+delta1 < 1-alpha0+beta0 (strict branch)",
                   cfg.beta1 + d1, "<", 1 - a0 + b0)
    if eq50:
        ch.require("gamma1 == 1-alpha0+gamma0 (equality branch)",
                   cfg.gamma1, "==", 1 - a0 + g0)
    else:
        ch.require("gamma1 < 1-alpha0+gamma0 (strict branch)",
                   cfg.gamma1, "<", 1 - a0 + g0)
    if eq51:
        ch.require("gamma2 == 1-beta0+gamma0 (equality branch)",
                   cfg.gamma2, "==", 1 - b0 + g0)
    else:
        ch.require("gamma2 < 1-beta0+gamma0 (strict branch)",
                   cfg.gamma2, "<", 1 - b0 + g0)
    # positivity of every time-weight exponent in the bound recursion
    for label, value in _recursion_weights(cfg).items():
        ch.require(f"recursion weight {label} > 0", value, ">", 0.0)


def _recursion_weights(cfg: ExponentConfig) -> dict:
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    return {
        "1+2(alpha0-alpha1)": 1 + 2 * (a0 - cfg.alpha1),
        "1+beta0-beta1": 1 + b0 - cfg.beta1,
        "1+gamma0-gamma1": 1 + g0 - cfg.gamma1,
        "1+alpha0+beta0-alpha2-beta2": 1 + a0 + b0 - cfg.alpha2 - cfg.beta2,
        "1+beta0-beta2": 1 + b0 - cfg.beta2,
        "1+alpha0-alpha2": 1 + a0 - cfg.alpha2,
        "1+gamma0-gamma2": 1 + g0 - cfg.gamma2,
        "1+alpha0+gamma0-alpha3-gamma3": 1 + a0 + g0 - cfg.alpha3 - cfg.gamma3,
        "1+2(alpha0-alpha3)": 1 + 2 * (a0 - cfg.alpha3),
        "1+alpha0+beta0-alpha3-beta3": 1 + a0 + b0 - cfg.alpha3 - cfg.beta3,
        "1+2(beta0-beta3)": 1 + 2 * (b0 - cfg.beta3),
    }


def _lambda_chain(cfg: ExponentConfig, ch: _Checker, lambda_cap: float):
    ch.require("lambda > 0", cfg.lam, ">", 0.0)
    ch.require("lambda < lambda1", cfg.lam, "<", cfg.lam1)
    ch.require("lambda1 < Lambda_1", cfg.lam1, "<", lambda_cap)
    ch.require("lambda < lambda2", cfg.lam, "<", cfg.lam2)
    ch.require("lambda2 < min{2 lambda, lambda1}", cfg.lam2, "<",
               min(2 * cfg.lam, cfg.lam1))


def check_config(cfg: ExponentConfig, level: str = BASE,
                 lambda_cap: float = 1.0) -> CheckResult:
    """Evaluate every inequality of the requested level; the result lists each
    violated inequality with its two sides."""
    if level not in (BASE, REGULARITY, CLASSICAL):
        raise ConfigurationError(f"unknown check level {level!r}")
    cfg.validate_ranges()
    ch = _Checker()
    if level == CLASSICAL:
        _classical_conditions(cfg, ch)
        return CheckResult(level, not ch.violations, ch.violations, ch.count)
    _base_integrability(cfg, ch)
    _base_exponents(cfg, ch)
    if cfg.has_intermediates:
        _delta_rule(cfg, ch)
        _lemma_hypotheses(cfg, ch)
        _boxes_and_selection(cfg, ch)
    if cfg.has_lambdas:
        _lambda_chain(cfg, ch, lambda_cap)
    if level == REGULARITY:
        _regularity_conditions(cfg, ch)
    return CheckResult(level, not ch.violations, ch.violations, ch.count)


# ---------------------------------------------------------------------------
# Selection of deltas and the nine intermediate exponents


@dataclass
class SelectionResult:
    feasible: bool
    config: ExponentConfig | None = None
    binding: list = field(default_factory=list)
    notes: str = ""


def _lattice(lo: float, hi: float, res: int) -> np.ndarray:
    """Multiples of 1/res strictly inside (lo, hi), ascending."""
    j_lo = int(np.floor(lo * res)) + 1
    j_hi = int(np.ceil(hi * res)) - 1
    vals = np.arange(j_lo, j_hi + 1, dtype=float) / res
    return vals[(vals > lo + EQ_TOL) & (vals < hi - EQ_TOL)]


def _conjoin(terms) -> np.ndarray:
    """Broadcast-safe conjunction of scalar/array boolean terms."""
    out = np.asarray(True)
    for t in terms:
        out = out & np.asarray(t)
    return out


def _first_feasible(grids: list, predicate) -> tuple | None:
    """Lexicographically first lattice point satisfying a vectorized predicate.

    grids: list of 1-D arrays; predicate maps broadcast meshes to a bool array.
    The outermost axis is scanned in order so the first hit is lexicographic.
    """
    if any(g.size == 0 for g in grids):
        return None
    if len(grids) == 1:
        ok = np.broadcast_to(predicate(grids[0]), grids[0].shape)
        idx = np.argmax(ok)
        return (float(grids[0][idx]),) if ok[idx] else None
    head, rest = grids[0], grids[1:]
    meshes = np.meshgrid(*rest, indexing="ij")
    for x in head:
        ok = np.broadcast_to(predicate(x, *meshes), meshes[0].shape)
        if ok.any():
            flat = np.argmax(ok.reshape(-1))
            idx = np.unravel_index(flat, ok.shape)
            return (float(x),) + tuple(float(m[idx]) for m in meshes)
    return None


def _binding_constraints(grids: list, constraints: list) -> list:
    """For an infeasible group, rank constraints by the fraction of lattice
    points they exclude."""
    meshes = np.meshgrid(*grids, indexing="ij") if len(grids) > 1 else [grids[0]]
    scores = []
    total = meshes[0].size if meshes else 0
    for label, fn in constraints:
        if total == 0:
            scores.append((label, 1.0))
            continue
        ok = fn(*meshes)
        scores.append((label, 1.0 - float(np.count_nonzero(ok)) / total))
    scores.sort(key=lambda t: -t[1])
    return [f"{label} (excludes {frac:.0%})" for label, frac in scores if frac > 0]


def _group_searches(cfg: ExponentConfig, d1: float, d2: float, d3: float,
                    res: int) -> tuple:
    """Search each nearly-independent exponent group on a 1/res lattice.

    Returns (intermediates, None) with the nine intermediates, or
    (None, (group, grids, constraints)) for the first group with no feasible
    lattice point."""
    p, q, r = cfg.p, cfg.q, cfg.r
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    eq49, eq50, eq51 = equality_branches(cfg)
    out = {}

    # alpha1
    cons_a1 = [
        ("alpha1+delta1 > 1/2", lambda a: a + d1 > 0.5),
        ("2alpha1+delta1 >= 3/(2p)+1/2", lambda a: 2 * a + d1 >= 1.5 / p + 0.5 - EQ_TOL),
        ("2alpha1+delta1 <= 1+alpha0", lambda a: 2 * a + d1 <= 1 + a0 + EQ_TOL),
        ("1+2(alpha0-alpha1) > 0", lambda a: 1 + 2 * (a0 - a) > EQ_TOL),
    ]
    grid_a1 = [_lattice(a0, 1 - d1, res)]
    hit = _first_feasible(grid_a1, lambda a: _conjoin(f(a) for _, f in cons_a1))
    if hit is None:
        return None, ("alpha1", grid_a1, cons_a1)
    out["alpha1"] = hit[0]

    # beta1 (pinned in the equality branch of the curl-coupling rule)
    lo_b1 = max(b0, 1.5 * (1 / q - 1 / p))
    cons_b1 = [
        ("beta1+delta1 >= (3/2)(1/q-1/p)+1/2",
         lambda b: b + d1 >= 1.5 * (1 / q - 1 / p) + 0.5 - EQ_TOL),
        ("1+beta0-beta1 > 0", lambda b: 1 + b0 - b > EQ_TOL),
    ]
    if eq49:
        b1 = 1 - a0 + b0 - d1
        ok = (lo_b1 < b1 < 1 - d2) and all(f(np.asarray(b1)) for _, f in cons_b1)
        if not ok:
            return None, ("beta1 (equality branch)", [np.asarray([b1])], cons_b1)
        out["beta1"] = b1
    else:
        cons_b1 = cons_b1 + [
            ("beta1+delta1 < 1-alpha0+beta0", lambda b: b + d1 < 1 - a0 + b0 - EQ_TOL)]
        grid_b1 = [_lattice(lo_b1, 1 - d2, res)]
        hit = _first_feasible(grid_b1, lambda b: _conjoin(f(b) for _, f in cons_b1))
        if hit is None:
            return None, ("beta1", grid_b1, cons_b1)
        out["beta1"] = hit[0]

    # (alpha2, beta2)
    cons_ab2 = [
        ("alpha2 > (3/2)(1/p-1/q)", lambda a, b: a > 1.5 * (1 / p - 1 / q) + EQ_TOL),
        ("beta2+delta2 > 1/2", lambda a, b: b + d2 > 0.5),
        ("alpha2+beta2+delta2 >= 3/(2p)+1/2",
         lambda a, b: a + b + d2 >= 1.5 / p + 0.5 - EQ_TOL),
        ("alpha2+delta2 >= (3/2)(1/p-1/q)+1/2",
         lambda a, b: a + d2 >= 1.5 * (1 / p - 1 / q) + 0.5 - EQ_TOL),
        ("alpha2+beta2+delta2 <= 1+alpha0", lambda a, b: a + b + d2 <= 1 + a0 + EQ_TOL),
        ("alpha2+delta2 < 1+alpha0-beta0", lambda a, b: a + d2 < 1 + a0 - b0 - EQ_TOL),
        ("1+alpha0+beta0-alpha2-beta2 > 0", lambda a, b: 1 + a0 + b0 - a - b > EQ_TOL),
        ("1+beta0-beta2 > 0", lambda a, b: 1 + b0 - b > EQ_TOL),
        ("1+alpha0-alpha2 > 0", lambda a, b: 1 + a0 - a > EQ_TOL),
    ]
    grids_ab2 = [_lattice(a0, 1 - d1, res), _lattice(b0, 1 - d2, res)]
    hit = _first_feasible(grids_ab2, lambda a, b: _conjoin(
        f(a, b) for _, f in cons_ab2))
    if hit is None:
        return None, ("alpha2/beta2", grids_ab2, cons_ab2)
    out["alpha2"], out["beta2"] = hit

    # (alpha3, beta3, gamma3)
    cons_3 = [
        ("alpha3 > (3/2)(1/p-1/r)", lambda a, b, g: a > 1.5 * (1 / p - 1 / r) + EQ_TOL),
        ("gamma3+delta3 > 1/2", lambda a, b, g: g + d3 > 0.5),
        ("alpha3+gamma3+delta3 >= 3/(2p)+1/2",
         lambda a, b, g: a + g + d3 >= 1.5 / p + 0.5 - EQ_TOL),
        ("alpha3 >= max{0,1/2+(3/2)(1/p-1/(2r))}",
         lambda a, b, g: a >= max(0.0, 0.5 + 1.5 * (1 / p - 1 / (2 * r))) - EQ_TOL),
        ("alpha3 <= 1", lambda a, b, g: a <= 1.0 + EQ_TOL),
        ("beta3 >= max{0,1/2+(3/2)(1/q-1/(2r))}",
         lambda a, b, g: b >= max(0.0, 0.5 + 1.5 * (1 / q - 1 / (2 * r))) - EQ_TOL),
        ("beta3 <= 1", lambda a, b, g: b <= 1.0 + EQ_TOL),
        ("alpha3+gamma3+delta3 <= 1+alpha0", lambda a, b, g: a + g + d3 <= 1 + a0 + EQ_TOL),
        ("alpha3 <= alpha0+(1-gamma0)/2", lambda a, b, g: a <= a0 + (1 - g0) / 2 + EQ_TOL),
        ("beta3 <= beta0+(1-gamma0)/2", lambda a, b, g: b <= b0 + (1 - g0) / 2 + EQ_TOL),
        ("1+alpha0+gamma0-alpha3-gamma3 > 0",
         lambda a, b, g: 1 + a0 + g0 - a - g > EQ_TOL),
        ("1+2(alpha0-alpha3) > 0", lambda a, b, g: 1 + 2 * (a0 - a) > EQ_TOL),
        ("1+alpha0+beta0-alpha3-beta3 > 0", lambda a, b, g: 1 + a0 + b0 - a - b > EQ_TOL),
        ("1+2(beta0-beta3) > 0", lambda a, b, g: 1 + 2 * (b0 - b) > EQ_TOL),
    ]
    grids_3 = [_lattice(a0, 1 - d1, res), _lattice(b0, 1 - d2, res),
               _lattice(g0, 1 - d3, res)]
    hit = _first_feasible(grids_3, lambda a, b, g: _conjoin(
        f(a, b, g) for _, f in cons_3))
    if hit is None:
        return None, ("alpha3/beta3/gamma3", grids_3, cons_3)
    out["alpha3"], out["beta3"], out["gamma3"] = hit

    # gamma1, gamma2 (pinned in their equality branches)
    for name, eq, base_that_side, lo_extra in (
            ("gamma1", eq50, a0, 1.5 * (1 / r - 1 / p)),
            ("gamma2", eq51, b0, 1.5 * (1 / r - 1 / q))):
        lo = max(g0, lo_extra)
        cons_g = [(f"{name} >= max(...)", lambda g: g >= lo - EQ_TOL),
                  (f"{name} <= 1", lambda g: g <= 1.0 + EQ_TOL),
                  (f"1+gamma0-{name} > 0", lambda g: 1 + g0 - g > EQ_TOL)]
        if eq:
            val = 1 - base_that_side + g0
            ok = (g0 < val < 1 - d3) and all(f(np.asarray(val)) for _, f in cons_g)
            if not ok:
                return None, (f"{name} (equality branch)", [np.asarray([val])], cons_g)
            out[name] = val
        else:
            cons_g = cons_g + [(f"{name} < 1-.._0+gamma0 (strict branch)",
                                lambda g: g < 1 - base_that_side + g0 - EQ_TOL)]
            grid_g = [_lattice(lo, 1 - d3, res)]
            hit = _first_feasible(grid_g, lambda g: _conjoin(
                f(g) for _, f in cons_g))
            if hit is None:
                return None, (name, grid_g, cons_g)
            out[name] = hit[0]

    return out, None


def _default_lambdas(lambda_cap: float) -> tuple:
    lam = 0.5 * lambda_cap
    lam1 = 0.5 * (lam + lambda_cap)
    lam2 = 0.5 * (lam + min(2 * lam, lam1))
    return lam, lam1, lam2


def select_intermediate(cfg: ExponentConfig, lambda_cap: float = 1.0) -> SelectionResult:
    """Choose deltas and the nine intermediate exponents.

    Deltas are zero when the matching base exponent is positive; otherwise the
    midpoint of the admissible interval (capped at 1 so the boxes stay
    nonempty), with a fallback scan if that midpoint is infeasible.  Each
    exponent group is searched on a uniform lattice refined from 1/32 to
    1/256; the lexicographically first feasible point wins, and equality
    branches pin their exponent exactly.
    """
    base_check = check_config(replace(
        cfg, delta1=None, delta2=None, delta3=None,
        **{n: None for n in ExponentConfig._INTERMEDIATES}), BASE,
        lambda_cap=lambda_cap)
    if not base_check.passed:
        return SelectionResult(False, None,
                               [str(v) for v in base_check.violations],
                               notes="base conditions fail")

    # delta-independent pinch check for the dissipation-estimate exponents:
    # the lower bound must not meet the strict caps (box < 1 at delta = 0 and
    # the positive-recursion-weight bound base + 1/2) nor exceed the closed
    # selection cap base + (1 - gamma0)/2.
    a0, b0, g0 = cfg.alpha0, cfg.beta0, cfg.gamma0
    a3_lo = max(a0, 0.5 + 1.5 * (1 / cfg.p - 1 / (2 * cfg.r)))
    b3_lo = max(b0, 0.5 + 1.5 * (1 / cfg.q - 1 / (2 * cfg.r)))

    def pinched(lo, base):
        hi_closed = base + (1 - g0) / 2
        hi_strict = min(1.0, base + 0.5)
        return lo > hi_closed + EQ_TOL or lo >= hi_strict - EQ_TOL

    if pinched(a3_lo, a0) or pinched(b3_lo, b0):
        name = "alpha3" if pinched(a3_lo, a0) else "beta3"
        lo = a3_lo if name == "alpha3" else b3_lo
        return SelectionResult(False, None, [
            f"{name} window at lower bound {lo:.6g} is empty",
            "dissipation-estimate lower bound meets the selection cap; "
            "the quadratic bound-recursion weight would degenerate"],
            notes="pinched dissipation exponent window")

    up = delta_upper_bounds(cfg)
    primary = tuple(0.0 if b > 0 else min(u, 1.0) / 2
                    for b, u in zip((cfg.alpha0, cfg.beta0, cfg.gamma0), up))

    def delta_candidates(i: int):
        if (cfg.alpha0, cfg.beta0, cfg.gamma0)[i] > 0:
            return [0.0]
        cap = min(up[i], 1.0)
        fallback = [f * cap for f in (0.25, 0.75, 0.1, 0.9)
                    if abs(f * cap - primary[i]) > 1e-9]
        return [primary[i]] + fallback

    last_binding = []
    for d1, d2, d3 in itertools.islice(
            itertools.product(delta_candidates(0), delta_candidates(1),
                              delta_candidates(2)), 125):
        for res in LATTICES:
            found, failure = _group_searches(cfg, d1, d2, d3, res)
            if found is not None:
                break
        if found is None:
            name, grids, cons = failure
            last_binding = [f"group {name}"] + _binding_constraints(grids, cons)
            continue
        lam, lam1, lam2 = (cfg.lam, cfg.lam1, cfg.lam2)
        if None in (lam, lam1, lam2):
            lam, lam1, lam2 = _default_lambdas(lambda_cap)
        full = replace(cfg, delta1=d1, delta2=d2, delta3=d3,
                       lam=lam, lam1=lam1, lam2=lam2, **found)
        verify = check_config(full, BASE, lambda_cap=lambda_cap)
        if verify.passed:
            return SelectionResult(True, full)
        last_binding = [str(v) for v in verify.violations]
    return SelectionResult(False, None, last_binding,
                           notes=f"no lattice point up to 1/{LATTICES[-1]}")
