"""Feasibility checking and automatic selection of the scalar exponents.

The machinery needs integrability exponents (p, q, r), base regularity
exponents (alpha0, beta0, gamma0), auxiliary negative-power exponents
(delta1..3), nine intermediate exponents, and the decay-rate chain
(lambda, lambda1, lambda2).  Each inequality is stated once, as a row of
RULES: check_config evaluates the rows literally at a point and reports each
violation with its left/right values, and the selection evaluates the same
rows over lattices of the intermediate exponents.  ESTIMATES, the table of
the coupling estimates, names exponents only, and its terms give the
recursion weight rows as well as the beta arguments of the bound recursion.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError

EQ_TOL = 1e-12

# the field tags in the order of generators(): velocity, microrotation,
# temperature
TAGS = ("u", "om", "th")
# the base exponent of each field tag
_BASE_NAMES = dict(zip(TAGS, ("alpha0", "beta0", "gamma0")))

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

    def by_tag(self, kind: str) -> dict:
        """{field tag: exponent} of one kind: "lebesgue" (p, q, r), "base"
        (alpha0, beta0, gamma0) or "tracked" (alphas(), betas(), gammas())."""
        if kind == "tracked":
            return dict(zip(TAGS, (self.alphas(), self.betas(), self.gammas())))
        names = {"lebesgue": ("p", "q", "r"), "base": _BASE_NAMES.values()}[kind]
        return {tag: getattr(self, name) for tag, name in zip(TAGS, names)}

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


_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": lambda lhs, rhs: abs(lhs - rhs) <= EQ_TOL,
}


class _Reads:
    """Stands in for a config and records the variables a function reads."""

    def __init__(self):
        self.names = set()

    def __getattr__(self, name):
        self.names.add(name)
        return 1.0


class Rule:
    """One exponent condition `lhs(v) relation rhs(v)`.

    v is an ExponentConfig, or a namespace with its fields and `lambda_cap`;
    the searched exponents may be lattice arrays.  A side is a function of v,
    a variable name or a constant.  The rule applies at the check levels in
    `levels`, and only where `when(v)` holds if `when` is given (the delta
    rule and the three coupling branches).  `reads` is the set of variables
    either side reads."""

    def __init__(self, label, lhs, relation, rhs, levels=(BASE, REGULARITY), when=None):
        self.label, self.relation, self.levels, self.when = label, relation, levels, when
        self.lhs, self.rhs = (operator.attrgetter(s) if isinstance(s, str) else s
                              if callable(s) else (lambda v, c=s: c) for s in (lhs, rhs))
        rec = _Reads()
        self.lhs(rec), self.rhs(rec)
        self.reads = frozenset(rec.names)

    def picked(self, v) -> bool:
        return self.when is None or self.when(v)

    def test(self, v) -> tuple:
        """(lhs, rhs, holds) at a point (floats) or over a lattice (arrays)."""
        lhs, rhs = self.lhs(v), self.rhs(v)
        return lhs, rhs, _RELATIONS[self.relation](lhs, rhs)


def _window(text: str, fn, levels=(BASE, REGULARITY)) -> tuple:
    """-1 < fn <= 1."""
    return (Rule(f"{text} > -1", fn, ">", -1.0, levels),
            Rule(f"{text} <= 1", fn, "<=", 1.0, levels))


# ---------------------------------------------------------------------------
# The coupling estimates
#
# Each of the coupling estimates 2.5-2.13 bounds one left side by weighted
# fractional norms of its arguments,
#
#     ||outer(left(x_1, ..., x_k))||_(L^s of out) <= C prod_i ||op_i^(e_i) x_i||,
#
# and ESTIMATES states each one once: the bound recursion, the recursion
# weight rules below and every estimate path of analysis read its row.


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

    @property
    def quadratic(self) -> bool:
        """Whether the left side is bilinear in two slots (advect, phi)
        rather than zero-order in one (rot, id, force)."""
        return self.left in ("advect", "phi")

    @property
    def terms(self) -> tuple:
        """(multiplicity, sources) of each bound-recursion term of the row,
        the sources being slots: phi, quadratic in (u, om), gives the three
        terms of (|u| + |om|)^2."""
        if self.left != "phi":
            return ((1, self.slots),)
        return tuple((1 if a == b else 2, (a, b))
                     for a, b in itertools.combinations_with_replacement(self.slots, 2))


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


def beta_argument(v, sources: tuple):
    """The recursion weight 1 + sum x0_i - sum e_i of a term with the given
    sources (Estimate.terms) at v, an ExponentConfig or a rule's namespace:
    the weighted source norms make the term's time convolution integrand
    s^(weight - 1) near s = 0, the second argument of its beta function."""
    return sum([getattr(v, _BASE_NAMES[tag]) for tag, _ in sources]
               + [-getattr(v, name) for _, name in sources], 1.0)


def _weight_rule(sources: tuple) -> Rule:
    """The recursion weight of a term stays positive; its label reads
    1+x0-x, 1+2(x0-x) for a repeated source, or 1+x0+y0-x-y."""
    bases = [_BASE_NAMES[tag] for tag, _ in sources]
    if len(set(sources)) < len(sources):
        text = f"1+2({bases[0]}-{sources[0][1]})"
    else:
        text = "+".join(["1"] + bases) + "".join(f"-{name}" for _, name in sources)
    return Rule(f"recursion weight {text} > 0", lambda v: beta_argument(v, sources),
                ">", 0.0)


# the box of each searched family: family0 < x < 1 - delta
_BOXES = {"alpha": "delta1", "beta": "delta2", "gamma": "delta3"}
_CLS, _REG = (CLASSICAL,), (REGULARITY,)

# Every condition, in the order check_config reports them.  A coupling rule
# takes its equality branch exactly when the matching base bound
# (_BRANCH_BOUNDS) holds with equality.
RULES = (
    Rule("3 < p", 3.0, "<", "p", _CLS),
    Rule("3 < r", 3.0, "<", "r", _CLS),
    Rule("q == p", "q", "==", "p", _CLS),
    Rule("1/p-1/(2r) <= 0", lambda v: 1 / v.p - 1 / (2 * v.r), "<=", 0.0, _CLS),
    # base integrability
    Rule("|1/p-1/q| < 1/3", lambda v: abs(1 / v.p - 1 / v.q), "<", 1 / 3),
    Rule("1/p-1/(2r) < 1/3", lambda v: 1 / v.p - 1 / (2 * v.r), "<", 1 / 3),
    Rule("1/r-1/p < 2/3", lambda v: 1 / v.r - 1 / v.p, "<", 2 / 3, (BASE, REGULARITY, CLASSICAL)),
    Rule("1/q-1/(2r) < 1/3", lambda v: 1 / v.q - 1 / (2 * v.r), "<", 1 / 3),
    Rule("1/r-1/q < 2/3", lambda v: 1 / v.r - 1 / v.q, "<", 2 / 3),
    # base exponents
    Rule("alpha0 >= max{0, 3/(2p)-1/2}", "alpha0", ">=", lambda v: max(0.0, 1.5 / v.p - 0.5)),
    (_D49 := Rule("alpha0-beta0-(3/2)(1/p-1/q) <= 1/2",
                  lambda v: v.alpha0 - v.beta0 - 1.5 * (1 / v.p - 1 / v.q), "<=", 0.5)),
    Rule("alpha0-gamma0/2-(3/2)(1/p-1/(2r)) >= 0",
         lambda v: v.alpha0 - v.gamma0 / 2 - 1.5 * (1 / v.p - 1 / (2 * v.r)), ">=", 0.0),
    *(_W50 := _window("alpha0-gamma0-(3/2)(1/p-1/r)",
                      lambda v: v.alpha0 - v.gamma0 - 1.5 * (1 / v.p - 1 / v.r))),
    Rule("beta0-gamma0/2-(3/2)(1/q-1/(2r)) >= 0",
         lambda v: v.beta0 - v.gamma0 / 2 - 1.5 * (1 / v.q - 1 / (2 * v.r)), ">=", 0.0),
    *(_W51 := _window("beta0-gamma0-(3/2)(1/q-1/r)",
                      lambda v: v.beta0 - v.gamma0 - 1.5 * (1 / v.q - 1 / v.r))),
    # delta rule
    *(rule for base, delta in (("alpha0", "delta1"), ("beta0", "delta2"), ("gamma0", "delta3"))
      for rule in (Rule(f"{delta} == 0 (base exponent positive)", delta, "==", 0.0,
                        when=lambda v, b=base: getattr(v, b) > 0),
                   Rule(f"{delta} > 0 (base exponent zero)", delta, ">", 0.0,
                        when=lambda v, b=base: not getattr(v, b) > 0))),
    # advective velocity estimate
    Rule("alpha1 > 0", "alpha1", ">", 0.0),
    Rule("delta1 >= 0", "delta1", ">=", 0.0),
    (_CAP1 := Rule("delta1 < 1/2+(3/2)(1-1/p)", "delta1", "<",
                   lambda v: 0.5 + 1.5 * (1 - 1 / v.p))),
    Rule("alpha1+delta1 > 1/2", lambda v: v.alpha1 + v.delta1, ">", 0.5),
    Rule("2alpha1+delta1 >= 3/(2p)+1/2", lambda v: 2 * v.alpha1 + v.delta1, ">=",
         lambda v: 1.5 / v.p + 0.5),
    # microrotation transport estimate
    Rule("alpha2 >= 0", "alpha2", ">=", 0.0),
    Rule("beta2 >= 0", "beta2", ">=", 0.0),
    Rule("alpha2 > (3/2)(1/p-1/q)", "alpha2", ">", lambda v: 1.5 * (1 / v.p - 1 / v.q)),
    Rule("delta2 >= 0", "delta2", ">=", 0.0),
    (_CAP2 := Rule("delta2 < 1/2+(3/2)(1-1/q)", "delta2", "<",
                   lambda v: 0.5 + 1.5 * (1 - 1 / v.q))),
    Rule("beta2+delta2 > 1/2", lambda v: v.beta2 + v.delta2, ">", 0.5),
    Rule("alpha2+beta2+delta2 >= 3/(2p)+1/2", lambda v: v.alpha2 + v.beta2 + v.delta2, ">=",
         lambda v: 1.5 / v.p + 0.5),
    # temperature transport estimate
    Rule("alpha3 >= 0", "alpha3", ">=", 0.0),
    Rule("gamma3 >= 0", "gamma3", ">=", 0.0),
    Rule("alpha3 > (3/2)(1/p-1/r)", "alpha3", ">", lambda v: 1.5 * (1 / v.p - 1 / v.r)),
    Rule("delta3 >= 0", "delta3", ">=", 0.0),
    (_CAP3 := Rule("delta3 < 1/2+(3/2)(1-1/r)", "delta3", "<",
                   lambda v: 0.5 + 1.5 * (1 - 1 / v.r))),
    Rule("gamma3+delta3 > 1/2", lambda v: v.gamma3 + v.delta3, ">", 0.5),
    Rule("alpha3+gamma3+delta3 >= 3/(2p)+1/2", lambda v: v.alpha3 + v.gamma3 + v.delta3, ">=",
         lambda v: 1.5 / v.p + 0.5),
    # dissipation-function estimate
    Rule("alpha3 >= max{0, 1/2+(3/2)(1/p-1/(2r))}", "alpha3", ">=",
         lambda v: max(0.0, 0.5 + 1.5 * (1 / v.p - 1 / (2 * v.r)))),
    Rule("alpha3 <= 1", "alpha3", "<=", 1.0),
    Rule("beta3 >= max{0, 1/2+(3/2)(1/q-1/(2r))}", "beta3", ">=",
         lambda v: max(0.0, 0.5 + 1.5 * (1 / v.q - 1 / (2 * v.r)))),
    Rule("beta3 <= 1", "beta3", "<=", 1.0),
    # curl coupling estimates
    Rule("beta1 >= 0", "beta1", ">=", 0.0),
    Rule("beta1 > (3/2)(1/q-1/p)", "beta1", ">", lambda v: 1.5 * (1 / v.q - 1 / v.p)),
    Rule("beta1+delta1 >= (3/2)(1/q-1/p)+1/2", lambda v: v.beta1 + v.delta1, ">=",
         lambda v: 1.5 * (1 / v.q - 1 / v.p) + 0.5),
    Rule("0 <= beta2 <= 1 (zero-order bound)", "beta2", "<=", 1.0),
    Rule("alpha2+delta2 >= (3/2)(1/p-1/q)+1/2", lambda v: v.alpha2 + v.delta2, ">=",
         lambda v: 1.5 * (1 / v.p - 1 / v.q) + 0.5),
    # forcing estimates
    Rule("gamma1 >= max{0, (3/2)(1/r-1/p)}", "gamma1", ">=",
         lambda v: max(0.0, 1.5 * (1 / v.r - 1 / v.p))),
    Rule("gamma1 <= 1", "gamma1", "<=", 1.0),
    Rule("gamma2 >= max{0, (3/2)(1/r-1/q)}", "gamma2", ">=",
         lambda v: max(0.0, 1.5 * (1 / v.r - 1 / v.q))),
    Rule("gamma2 <= 1", "gamma2", "<=", 1.0),
    # boxes
    *(rule for fam, delta in _BOXES.items() for i in (1, 2, 3) for rule in (
        Rule(f"{fam}0 < {fam}{i}", f"{fam}0", "<", f"{fam}{i}"),
        Rule(f"{fam}{i} < 1-{delta}", f"{fam}{i}", "<", lambda v, d=delta: 1 - getattr(v, d)))),
    # joint selection constraints
    Rule("2alpha1+delta1 <= 1+alpha0", lambda v: 2 * v.alpha1 + v.delta1, "<=",
         lambda v: 1 + v.alpha0),
    Rule("alpha2+beta2+delta2 <= 1+alpha0", lambda v: v.alpha2 + v.beta2 + v.delta2, "<=",
         lambda v: 1 + v.alpha0),
    Rule("alpha2+delta2 < 1+alpha0-beta0", lambda v: v.alpha2 + v.delta2, "<",
         lambda v: 1 + v.alpha0 - v.beta0),
    Rule("alpha3+gamma3+delta3 <= 1+alpha0", lambda v: v.alpha3 + v.gamma3 + v.delta3, "<=",
         lambda v: 1 + v.alpha0),
    Rule("alpha3 <= alpha0+(1-gamma0)/2", "alpha3", "<=", lambda v: v.alpha0 + (1 - v.gamma0) / 2),
    Rule("beta3 <= beta0+(1-gamma0)/2", "beta3", "<=", lambda v: v.beta0 + (1 - v.gamma0) / 2),
    # branch conditions for the three linear coupling exponents
    *(rule for k, lhs_text, lhs, rhs_text, rhs in (
        (0, "beta1+delta1", lambda v: v.beta1 + v.delta1,
         "1-alpha0+beta0", lambda v: 1 - v.alpha0 + v.beta0),
        (1, "gamma1", "gamma1", "1-alpha0+gamma0", lambda v: 1 - v.alpha0 + v.gamma0),
        (2, "gamma2", "gamma2", "1-beta0+gamma0", lambda v: 1 - v.beta0 + v.gamma0))
      for rule in (Rule(f"{lhs_text} == {rhs_text} (equality branch)", lhs, "==", rhs,
                        when=lambda v, k=k: equality_branches(v)[k]),
                   Rule(f"{lhs_text} < {rhs_text} (strict branch)", lhs, "<", rhs,
                        when=lambda v, k=k: not equality_branches(v)[k]))),
    # positivity of every distinct bound-recursion term's weight, in the
    # recursion's order: by out tag, then by table row
    *(_weight_rule(sources) for sources in dict.fromkeys(
        sources for tag in TAGS for est in ESTIMATES.values() if est.out == tag
        for _, sources in est.terms)),
    # decay-rate chain
    Rule("lambda > 0", "lam", ">", 0.0),
    Rule("lambda < lambda1", "lam", "<", "lam1"),
    Rule("lambda1 < Lambda_1", "lam1", "<", "lambda_cap"),
    Rule("lambda < lambda2", "lam", "<", "lam2"),
    Rule("lambda2 < min{2 lambda, lambda1}", "lam2", "<", lambda v: min(2 * v.lam, v.lam1)),
    # regularity conditions
    Rule("alpha0 >= 3(1/p-1/(2r))", "alpha0", ">=", lambda v: 3 * (1 / v.p - 1 / (2 * v.r)), _REG),
    Rule("beta0 >= max{3/(2p)-1/2, 3(1/q-1/(2r))}", "beta0", ">=",
         lambda v: max(1.5 / v.p - 0.5, 3 * (1 / v.q - 1 / (2 * v.r))), _REG),
    Rule("gamma0 >= 3/(2p)-1/2", "gamma0", ">=", lambda v: 1.5 / v.p - 0.5, _REG),
    # time-derivative conditions
    Rule("alpha0 >= (3/2)(1/p+1/q-1/r)", "alpha0", ">=",
         lambda v: 1.5 * (1 / v.p + 1 / v.q - 1 / v.r), _REG),
    Rule("beta0 >= (3/2)(1/p+1/q-1/r)", "beta0", ">=",
         lambda v: 1.5 * (1 / v.p + 1 / v.q - 1 / v.r), _REG),
    Rule("alpha0-gamma0 >= (3/2)(1/p-1/q)-1/2", lambda v: v.alpha0 - v.gamma0, ">=",
         lambda v: 1.5 * (1 / v.p - 1 / v.q) - 0.5, _REG),
    Rule("beta0-gamma0 >= (3/2)(1/q-1/p)-1/2", lambda v: v.beta0 - v.gamma0, ">=",
         lambda v: 1.5 * (1 / v.q - 1 / v.p) - 0.5, _REG),
    Rule("beta0-alpha0 > -1/2", lambda v: v.beta0 - v.alpha0, ">", -0.5, _REG),
    Rule("beta0-gamma0 > -1/2", lambda v: v.beta0 - v.gamma0, ">", -0.5, _REG),
    Rule("2alpha0-beta0 >= max{3/(2p)-1/2, 3(1/p-1/(2r))}", lambda v: 2 * v.alpha0 - v.beta0,
         ">=", lambda v: max(1.5 / v.p - 0.5, 3 * (1 / v.p - 1 / (2 * v.r))), _REG),
    Rule("2alpha0-gamma0 >= 3/(2p)-1/2", lambda v: 2 * v.alpha0 - v.gamma0, ">=",
         lambda v: 1.5 / v.p - 0.5, _REG),
    Rule("2beta0-alpha0 >= 3(1/q-1/(2r))", lambda v: 2 * v.beta0 - v.alpha0, ">=",
         lambda v: 3 * (1 / v.q - 1 / (2 * v.r)), _REG),
    Rule("alpha0+beta0-gamma0 >= 3/(2p)-1/2", lambda v: v.alpha0 + v.beta0 - v.gamma0, ">=",
         lambda v: 1.5 / v.p - 0.5, _REG),
    Rule("alpha0-beta0+gamma0 >= 3/(2p)-1/2", lambda v: v.alpha0 - v.beta0 + v.gamma0, ">=",
         lambda v: 1.5 / v.p - 0.5, _REG),
    *_window("alpha0-gamma0-(3/2)(1/q-1/r)",
             lambda v: v.alpha0 - v.gamma0 - 1.5 * (1 / v.q - 1 / v.r), _REG),
    *_window("beta0-gamma0-(3/2)(1/p-1/r)",
             lambda v: v.beta0 - v.gamma0 - 1.5 * (1 / v.p - 1 / v.r), _REG),
)

# the base bounds whose equality case puts a coupling rule in its equality
# branch, and the open upper bounds on delta1..3
_BRANCH_BOUNDS = (_D49, _W50[1], _W51[1])
_DELTA_CAPS = (_CAP1, _CAP2, _CAP3)
_SEARCHED = frozenset(ExponentConfig._INTERMEDIATES)


def equality_branches(cfg: ExponentConfig) -> tuple:
    """Booleans: is each of the three selection rules in its equality case."""
    return tuple(_RELATIONS["=="](rule.lhs(cfg), rule.rhs(cfg)) for rule in _BRANCH_BOUNDS)


def check_config(cfg: ExponentConfig, level: str = BASE,
                 lambda_cap: float = 1.0) -> CheckResult:
    """Evaluate every rule of the requested level; the result lists each
    violated inequality with its two sides.  A rule applies when every
    variable it reads is set."""
    if level not in (BASE, REGULARITY, CLASSICAL):
        raise ConfigurationError(f"unknown check level {level!r}")
    cfg.validate_ranges()
    v = SimpleNamespace(**vars(cfg), lambda_cap=lambda_cap)
    unset = frozenset(name for name, value in vars(cfg).items() if value is None)
    rules = [rule for rule in RULES
             if level in rule.levels and not rule.reads & unset and rule.picked(v)]
    violations = [Violation(rule.label, lhs, rule.relation, rhs)
                  for rule in rules for lhs, rhs, ok in [rule.test(v)] if not ok]
    return CheckResult(level, not violations, violations, len(rules))


# ---------------------------------------------------------------------------
# Selection of deltas and the nine intermediate exponents


@dataclass
class SelectionResult:
    feasible: bool
    config: ExponentConfig | None = None
    binding: list = field(default_factory=list)
    notes: str = ""


# the exponent groups, searched in this order; every rule that reads a
# searched exponent reads exponents of one group only
_GROUPS = (("alpha1",), ("beta1",), ("alpha2", "beta2"),
           ("alpha3", "beta3", "gamma3"), ("gamma1",), ("gamma2",))
_GROUP_RULES = {names: tuple(rule for rule in RULES if BASE in rule.levels
                             and set() < rule.reads & _SEARCHED <= set(names))
                for names in _GROUPS}


def _lattice(lo: float, hi: float, res: int) -> np.ndarray:
    """Multiples of 1/res strictly inside (lo, hi), ascending; res is a power
    of two, so lo * res and hi * res are exact."""
    return np.arange(int(np.floor(lo * res)) + 1, int(np.ceil(hi * res)), dtype=float) / res


def _pin(rule: Rule, env: ExponentConfig, name: str) -> float:
    """The value of `name` at which a rule linear in it holds with equality."""
    at0, at1 = (rule.lhs(replace(env, **{name: x})) for x in (0.0, 1.0))
    return (rule.rhs(env) - at0) / (at1 - at0)


def _search(names: tuple, rules: list, env: ExponentConfig, res: int) -> tuple:
    """Lexicographically first point of the group's box lattice that satisfies
    every rule, with an equality rule pinning its exponent.

    Returns (point, None), or (None, (group, shape, masks)) where masks holds
    each rule's label and its truth over the lattice."""
    grids = [_lattice(getattr(env, n[:-1] + "0"), 1 - getattr(env, _BOXES[n[:-1]]), res)
             for n in names]
    pins = [rule for rule in rules if rule.relation == "=="]
    for rule in pins:
        (name,) = rule.reads & set(names)
        grids[names.index(name)] = np.array([_pin(rule, env, name)])
    shape = tuple(g.size for g in grids)
    point = replace(env, **{n: g.reshape([-1 if j == k else 1 for j in range(len(names))])
                            for k, (n, g) in enumerate(zip(names, grids))})
    masks = [(rule.label, rule.test(point)[2]) for rule in rules]
    # conjoin the rules reading the same exponents first: few full-size passes
    by_shape = {}
    for _, mask in masks:
        by_shape[mask.shape] = by_shape.get(mask.shape, True) & mask
    ok = np.ones(shape, dtype=bool)
    for mask in by_shape.values():
        ok &= mask
    if ok.any():
        idx = np.unravel_index(np.argmax(ok), shape)
        return tuple(float(g[i]) for g, i in zip(grids, idx)), None
    group = "/".join(names) + (" (equality branch)" if pins else "")
    return None, (group, shape, masks)


def _group_searches(env: ExponentConfig, res: int, searches: dict | None = None) -> tuple:
    """Search each exponent group on a 1/res lattice, with the base exponents
    and the deltas of env substituted into its rules.

    Returns (intermediates, None) with the nine intermediates, or
    (None, failure) for the first group with no feasible lattice point.
    searches, when given, keeps each group's search under the group, the
    lattice, its picked rules and the values they and its box read, so that
    a call whose env differs only in values a group does not read reuses
    that group's search."""
    searches = {} if searches is None else searches
    out = {}
    for names in _GROUPS:
        rules = tuple(rule for rule in _GROUP_RULES[names] if rule.picked(env))
        reads = set().union(*(rule.reads for rule in rules)) - set(names)
        reads |= {n[:-1] + "0" for n in names} | {_BOXES[n[:-1]] for n in names}
        key = (names, res, rules, tuple((v, getattr(env, v)) for v in sorted(reads)))
        if key not in searches:
            searches[key] = _search(names, list(rules), env, res)
        point, failure = searches[key]
        if point is None:
            return None, failure
        out.update(zip(names, point))
    return out, None


def _binding_constraints(failure: tuple) -> list:
    """A failed group and its rules, ranked by the fraction of lattice points
    each excludes (all of them on an empty lattice)."""
    group, shape, masks = failure
    total = int(np.prod(shape))
    scores = sorted(((label, 1.0 - np.count_nonzero(mask) * (total // mask.size) / total
                      if total else 1.0) for label, mask in masks), key=lambda t: -t[1])
    return [f"group {group}"] + [f"{label} (excludes {frac:.0%})"
                                 for label, frac in scores if frac > 0]


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
    # A dissipation exponent whose own rules no point of the finest lattice
    # satisfies at delta = 0 has none at any delta: a larger delta only
    # shrinks the box, and the coarser lattices are subsets of the finest.
    env = replace(cfg, delta1=0.0, delta2=0.0, delta3=0.0)
    dissipation = _GROUP_RULES[("alpha3", "beta3", "gamma3")]
    for name in ("alpha3", "beta3"):
        rules = [rule for rule in dissipation if rule.reads & _SEARCHED == {name}]
        point, failure = _search((name,), rules, env, LATTICES[-1])
        if point is None:
            return SelectionResult(False, None, _binding_constraints(failure),
                                   notes="pinched dissipation exponent window")

    bases = (cfg.alpha0, cfg.beta0, cfg.gamma0)
    up = tuple(rule.rhs(cfg) for rule in _DELTA_CAPS)
    primary = tuple(0.0 if b > 0 else min(u, 1.0) / 2 for b, u in zip(bases, up))

    def delta_candidates(i: int):
        if bases[i] > 0:
            return [0.0]
        cap = min(up[i], 1.0)
        fallback = [f * cap for f in (0.25, 0.75, 0.1, 0.9)
                    if abs(f * cap - primary[i]) > 1e-9]
        return [primary[i]] + fallback

    binding, searches = [], {}
    for d1, d2, d3 in itertools.islice(
            itertools.product(delta_candidates(0), delta_candidates(1),
                              delta_candidates(2)), 125):
        env = replace(cfg, delta1=d1, delta2=d2, delta3=d3)
        for res in LATTICES:
            found, failure = _group_searches(env, res, searches)
            if found is not None:
                break
        if found is None:
            continue
        lam, lam1, lam2 = (cfg.lam, cfg.lam1, cfg.lam2)
        if None in (lam, lam1, lam2):
            lam, lam1, lam2 = _default_lambdas(lambda_cap)
        full = replace(env, lam=lam, lam1=lam1, lam2=lam2, **found)
        verify = check_config(full, BASE, lambda_cap=lambda_cap)
        if verify.passed:
            return SelectionResult(True, full)
        binding = [str(v) for v in verify.violations]
    if failure is not None:
        # the last candidate failed a group search: rank only that failure
        binding = _binding_constraints(failure)
    return SelectionResult(False, None, binding,
                           notes=f"no lattice point up to 1/{LATTICES[-1]}")
