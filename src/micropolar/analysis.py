"""Numerical verification of the quantitative estimates.

Each check measures the left-hand side of an estimate over its right-hand
side.  Where the extremal field is known, the constant is the ratio there:
the lowest eigenmode for the smoothing and semigroup-difference estimates,
and for the zero-order estimates with all Lebesgue exponents 2 (L2 Fourier
multipliers) the single mode where their symbol attains its max.  A few
seeded random members then cross-check it and turn the row to fail if one
exceeds the bound.  The other checks are
ratio tests over a seeded random-field ensemble with the max ratio as the
fitted constant, and a verdict that compares the max with the estimate's
closed-form constant or, without one, the stability of two independent
half-ensembles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError
from .exponents import ESTIMATES, TAGS, Estimate, ExponentConfig
from .fields import (
    GridSpec,
    SpectralField,
    dealias_mask,
    deriv_wavevectors,
    integer_wavevectors,
    irfft_half,
    parseval_columns,
    parseval_inner,
    parseval_l2,
    random_field,
    rfft_half,
    _zero_index,
)
from .kmbounds import LemmaConstants, holder_constant, semigroup_constant
from .nonlinear import (
    CouplingParams,
    ForcingSpec,
    advect,
    dissipation_phi,
    evaluate_forcing,
    generators,
    lambda_chain_cap,
    _forcing_values,
    _grid_values,
    _phi_values,
)
from .operators import (
    OperatorSymbol,
    apply_operator,
    curl,
    curl_values,
    eig_families,
    gradient_planes,
    lebesgue_norm,
    leray_coeffs,
    leray_project,
    power_coeffs,
    power_weight,
    rot,
    sobolev_norm,
    subspaces,
)
from .solver import (
    RHS_BLOCK_BYTES,
    TrajectoryState,
    WeightedNorms,
    node_rhs,
    tag_components,
    time_weight,
)


# spectral envelope exponent of every ensemble's random fields, |c_k| ~ |k|^-2
_SIGMA = 2.0


@dataclass
class EstimateReport:
    lemma_id: str
    ensemble_size: int
    ratio_max: float
    ratio_median: float
    fitted_constant: float
    verdict: bool
    notes: str = ""
    ratios: np.ndarray = field(default_factory=lambda: np.array([]))

    def to_dict(self) -> dict:
        return {"lemma_id": self.lemma_id, "ensemble_size": self.ensemble_size,
                "ratio_max": self.ratio_max, "ratio_median": self.ratio_median,
                "fitted_constant": self.fitted_constant,
                "verdict": "pass" if self.verdict else "fail", "notes": self.notes}


def _top_decile_median(vals: np.ndarray) -> float:
    k = max(1, int(np.ceil(vals.size / 10)))
    top = np.sort(vals)[-k:]
    return float(np.median(top))


# relative slack on a closed-form bound: covers the grid sup it is computed as
BOUND_RTOL = 1e-6


def make_report(lemma_id: str, ratios: np.ndarray, notes: str = "",
                bound: float | None = None) -> EstimateReport:
    """Stability verdict: the overall max must be finite and within 5% of the
    top-decile median of each independent half-ensemble.  Given the
    estimate's closed-form constant as bound, the verdict is instead that the
    max is finite, positive and at most bound * (1 + BOUND_RTOL)."""
    ratios = np.asarray(ratios, dtype=np.float64)
    half = ratios.size // 2
    ratio_max = float(np.max(ratios)) if ratios.size else np.nan
    ok = np.isfinite(ratio_max)
    if bound is not None:
        ok = ok and 0 < ratio_max <= bound * (1 + BOUND_RTOL)
    elif half >= 1:
        m_a = _top_decile_median(ratios[:half])
        m_b = _top_decile_median(ratios[half:])
        ok = ok and ratio_max <= 1.05 * min(m_a, m_b)
    return EstimateReport(
        lemma_id=lemma_id, ensemble_size=int(ratios.size), ratio_max=ratio_max,
        ratio_median=float(np.median(ratios)) if ratios.size else np.nan,
        fitted_constant=ratio_max, verdict=bool(ok), notes=notes, ratios=ratios)


# random members that cross-check a constant taken at a known extremal field
CROSS_CHECK_MEMBERS = 4


def cross_check_report(lemma_id: str, probe: float, ratios: np.ndarray,
                       bound: float, floor: float, notes: str = "") -> EstimateReport:
    """Report of an estimate whose constant is the ratio probe at its
    extremal field: the verdict is floor <= probe <= bound * (1 + BOUND_RTOL)
    with every random member in ratios at most bound * (1 + BOUND_RTOL).
    ratio_max is the largest ratio seen, the probe's included, and
    ratio_median the members' median."""
    ratios = np.asarray(ratios, dtype=np.float64)
    top = bound * (1 + BOUND_RTOL)
    ok = 0 < floor <= probe <= top and bool(np.all(ratios <= top))
    return EstimateReport(
        lemma_id=lemma_id, ensemble_size=int(ratios.size),
        ratio_max=float(np.max(ratios, initial=probe)),
        ratio_median=float(np.median(ratios)) if ratios.size else np.nan,
        fitted_constant=probe, verdict=bool(ok), notes=notes, ratios=ratios)


def ensemble_rngs(seed: int, n: int) -> list:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# Semigroup smoothing, Hoelder difference, and vanishing-weight proxy


def _field_components(op: OperatorSymbol) -> int:
    """Components of the random fields a generator's checks draw: 1 for the
    scalar Laplacian, the space dimension for the vector generators."""
    return 1 if op.kind.value == "laplace" else op.grid.dim


def _mode_energies(op: OperatorSymbol, f: SpectralField) -> list:
    """(eigenvalues, modal energy) pairs per invariant subspace on the half
    spectrum, flattened; energies carry the volume factor and the Parseval
    column weights, so sums are squared L2 norms."""
    if op.kind.value == "stokes" and not f.is_scalar:
        f = leray_project(f)
    weights = f.grid.volume * parseval_columns(f.grid)
    return [(eig.reshape(-1), (weights * np.sum(np.abs(part) ** 2, axis=0)).reshape(-1))
            for eig, part in subspaces(op.with_power(1.0), f.half)]


def _decay_matrices(eigs: list, t_grid: np.ndarray, holder: bool = False) -> list:
    """exp(-2 t mu), or with holder (1 - exp(-t mu))^2, over the t grid and
    the positive eigenvalues mu, one matrix per eigenvalue family in eigs."""
    mats = []
    for eig in eigs:
        eig = eig.reshape(-1)
        x = np.outer(t_grid, eig[eig > 0])
        mats.append(np.expm1(-x) ** 2 if holder else np.exp(-2.0 * x))
    return mats


def smoothing_ratio_curve(op: OperatorSymbol, f, alpha: float,
                          lam: float, t_grid: np.ndarray,
                          decay: list | None = None) -> np.ndarray:
    """t^alpha e^(lam t) ||op^alpha e^(-t op) f||_2 / ||f||_2 over the grid.

    f is a field or its _mode_energies, and decay the _decay_matrices of
    their eigenvalues on t_grid: callers that evaluate a field at many alpha
    or many fields on one grid compute them once."""
    fams = _mode_energies(op, f) if isinstance(f, SpectralField) else f
    total = sum(np.sum(e) for _, e in fams)
    if total == 0:
        return np.zeros_like(t_grid)
    if decay is None:
        decay = _decay_matrices([eig for eig, _ in fams], t_grid)
    vals = np.zeros_like(t_grid, dtype=np.float64)
    for (eig, energy), mat in zip(fams, decay):
        pos = eig > 0
        mu, en = eig[pos], energy[pos]
        amp = mu ** (2 * alpha) if alpha != 0 else np.ones_like(mu)
        vals += mat @ (amp * en)
        if alpha == 0:
            vals += np.sum(energy[~pos])  # zero modes persist under the semigroup
    return time_weight(t_grid, alpha) * np.exp(lam * t_grid) * np.sqrt(vals / total)


def default_t_grid(n: int = 240) -> np.ndarray:
    return np.concatenate(([0.0], np.logspace(-4, 1, n)))


def extremal_smoothing_probe(op: OperatorSymbol, components: int) -> SpectralField:
    """Lowest-eigenvalue eigenmode of the operator's slowest family (the
    transverse direction for the vector elliptic generator)."""
    grid = op.grid
    k_low = (1,) + (0,) * (grid.dim - 1)
    if components == 1:
        return SpectralField.single_mode(grid, k_low, 1.0)
    amp = [0.0] * components
    amp[1] = 1.0  # transverse to k_low, solenoidal
    return SpectralField.single_mode(grid, k_low, amp)


def _probe_t_grid(op: OperatorSymbol) -> np.ndarray:
    """default_t_grid() in units of 1/op.min_positive_eigenvalue(): the probe's
    ratio is a function of mu1 t alone, and peaks at mu1 t of order one."""
    return default_t_grid() / op.min_positive_eigenvalue()


@lru_cache(maxsize=1)
def _probe_work(op: OperatorSymbol, components: int, solenoidal: bool, seed: int,
                members: int, holder: bool) -> tuple:
    """What every alpha row of one generator's smoothing (or, with holder,
    semigroup-difference) check shares: the probe t grid, its
    _decay_matrices, and the _mode_energies of the extremal probe and then
    of each seeded random member field (Leray-projected when solenoidal),
    all read-only.  The cache holds one generator's arrays at a time."""
    _probe_work.cache_clear()   # frees the last generator's arrays first
    t_grid = _probe_t_grid(op)
    mats = tuple(_decay_matrices(eig_families(op, components), t_grid, holder))
    fields = [extremal_smoothing_probe(op, components)]
    for rng in ensemble_rngs(seed, members):
        f = random_field(op.grid, components, rng, sigma=_SIGMA)
        fields.append(leray_project(f) if solenoidal else f)
    energies = tuple(_mode_energies(op, f) for f in fields)
    for a in (t_grid, *mats, *(x for fams in energies for pair in fams for x in pair)):
        a.setflags(write=False)
    return t_grid, mats, energies


def verify_smoothing(op: OperatorSymbol, alpha: float, lam: float,
                     ensemble: int = 100, seed: int = 0,
                     solenoidal: bool = False) -> EstimateReport:
    """Smoothing-estimate ratio sup_t t^a e^(lam t) ||L^a e^(-tL) u|| / ||u||.

    The constant is the ratio of the extremal eigenmode, which must reach the
    analytic per-mode bound semigroup_constant(alpha, lam, lam_min) within
    criterion 1's factor 1.05 and stay at or below it; min(ensemble,
    CROSS_CHECK_MEMBERS) random members must stay at or below it too."""
    lam_min = op.min_positive_eigenvalue()
    if not 0 <= lam < lam_min:
        raise ValueError(f"need 0 <= lam < {lam_min}, got {lam}")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    t_grid, decay, energies = _probe_work(op, _field_components(op), solenoidal, seed,
                                          min(ensemble, CROSS_CHECK_MEMBERS), holder=False)
    ratios = [float(np.max(smoothing_ratio_curve(op, fams, alpha, lam, t_grid, decay)))
              for fams in energies]
    probe_ratio, ratios = ratios[0], np.array(ratios[1:])
    bound = semigroup_constant(alpha, lam, lam_min)
    return cross_check_report(f"smoothing a={alpha} lam={lam}", probe_ratio, ratios,
                              bound, floor=bound / 1.05,
                              notes=f"analytic per-mode bound {bound:.6g}")


def holder_ratio_curve(op: OperatorSymbol, f, alpha: float,
                       t_grid: np.ndarray, diff: list | None = None) -> np.ndarray:
    """||(e^(-t op) - I) f||_2 / (t^alpha ||op^alpha f||_2).

    f is a field or its _mode_energies, and diff the holder _decay_matrices
    of their eigenvalues on t_grid: callers that evaluate a field at many
    alpha or many fields on one grid compute them once."""
    fams = _mode_energies(op, f) if isinstance(f, SpectralField) else f
    denom_sq = sum(np.sum(np.where(e > 0, e ** (2 * alpha), 0.0) * en)
                   for e, en in fams)
    if denom_sq == 0:
        return np.zeros_like(t_grid)
    if diff is None:
        diff = _decay_matrices([eig for eig, _ in fams], t_grid, holder=True)
    vals = np.zeros_like(t_grid, dtype=np.float64)
    for (eig, energy), mat in zip(fams, diff):
        vals += mat @ energy[eig > 0]
    tpos = np.where(t_grid > 0, t_grid, 1.0)
    curve = np.sqrt(vals) / (tpos ** alpha * np.sqrt(denom_sq))
    return np.where(t_grid > 0, curve, 0.0)


def verify_holder_difference(op: OperatorSymbol, alpha: float,
                             ensemble: int = 100, seed: int = 0) -> EstimateReport:
    """Semigroup difference estimate ||(e^(-tL)-I)u|| <= C t^a ||L^a u||.

    Every eigenmode mu attains the analytic constant sup_x (1-e^-x)/x^a at
    t = x*/mu, so the constant is the ratio of the extremal eigenmode, which
    must reach holder_constant(alpha) within the factor 1.05 and stay at or
    below it; min(ensemble, CROSS_CHECK_MEMBERS) random members must stay at
    or below it too."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    t_grid, diff, energies = _probe_work(op, _field_components(op), False, seed,
                                         min(ensemble, CROSS_CHECK_MEMBERS), holder=True)
    ratios = [float(np.max(holder_ratio_curve(op, fams, alpha, t_grid, diff)))
              for fams in energies]
    probe_ratio, ratios = ratios[0], np.array(ratios[1:])
    bound = holder_constant(alpha)
    return cross_check_report(f"holder-difference a={alpha}", probe_ratio, ratios,
                              bound, floor=bound / 1.05,
                              notes=f"analytic bound {bound:.6g}")


def vanishing_weight_proxy(op: OperatorSymbol, alpha: float, ensemble: int = 20,
                           seed: int = 0) -> dict:
    """Dyadic-grid proxy for the o(t^-alpha) statement: below its peak the
    weighted ratio t^alpha ||L^alpha e^(-tL) u|| / ||u|| must decrease
    monotonically as t halves toward 0 (t = 1, 1/2, ..., 2^-15), by a large
    total factor.  A finite computation cannot certify the limit; this
    is a documented proxy."""
    components = _field_components(op)
    t_grid = np.sort(np.array([2.0 ** (-k) for k in range(16)]))
    decay = _decay_matrices(eig_families(op, components), t_grid)

    def one(rng):
        f = random_field(op.grid, components, rng, sigma=_SIGMA)
        curve = smoothing_ratio_curve(op, f, alpha, 0.0, t_grid, decay)
        peak = int(np.argmax(curve))
        monotone = bool(np.all(np.diff(curve[: peak + 1]) >= -1e-13))
        return monotone, float(curve[peak] / max(curve[0], 1e-300))

    results = [one(rng) for rng in ensemble_rngs(seed, ensemble)]
    return {"all_monotone": all(m for m, _ in results),
            "min_shrink_factor": min(s for _, s in results),
            "note": "finite-grid proxy; certifies decrease, not a limit"}


# ---------------------------------------------------------------------------
# Embeddings


def verify_embeddings(alpha: float, p: float, k: int, s: float,
                      grid: GridSpec, ensemble: int = 60, seed: int = 0,
                      solenoidal: bool = True) -> EstimateReport:
    """Fractional-space to Sobolev embedding ratio ||u||_{W^{k,s}} / ||L^a u||_p.

    At the boundary Sobolev index 1/s = 1/p - (2a-k)/3 the ratio is bounded
    but its ensemble sup converges slowly, so the verdict reports finiteness
    only."""
    if not (1 / p - (2 * alpha - k) / 3 - 1e-12 <= 1 / s <= 1 / p + 1e-12):
        raise ConfigurationError(
            f"embedding exponents violate 1/p - (2a-k)/3 <= 1/s <= 1/p "
            f"(a={alpha}, p={p}, k={k}, s={s})")
    boundary = abs(1 / p - (2 * alpha - k) / 3 - 1 / s) <= 1e-9
    from .operators import stokes_operator, laplace_operator

    op = stokes_operator(grid) if solenoidal else laplace_operator(grid)
    components = grid.dim if solenoidal else 1

    def ratio(f):
        num = sobolev_norm(f, k, s)
        den = lebesgue_norm(apply_operator(op.with_power(alpha), f), p)
        return num / den if den > 0 else 0.0

    def one(rng):
        best = 0.0
        for kmax in (None, None, 2, 2):
            f = random_field(grid, components, rng, sigma=_SIGMA, kmax=kmax)
            if solenoidal:
                f = leray_project(f)
            best = max(best, ratio(f))
        return best

    ratios = np.array([one(rng) for rng in ensemble_rngs(seed, ensemble)])
    report = make_report(f"embedding a={alpha} p={p} -> W^{k},{s}", ratios)
    if boundary:
        report.verdict = bool(np.isfinite(report.ratio_max))
        report.notes = "boundary Sobolev index: bounded ratio reported, " \
                       "stability not gated"
    return report


# ---------------------------------------------------------------------------
# The nine estimate constants
#
# Every path below (the random ratio, the L2 symbol, the exact sup, the
# Hilbert test and the fit) reads the estimate's row of exponents.ESTIMATES.


def _hilbert(est: Estimate, cfg: ExponentConfig) -> bool:
    """Whether every Lebesgue exponent the estimate reads is 2."""
    return all(cfg.by_tag("lebesgue")[tag] == 2.0 for tag in {est.out} | set(dict(est.slots)))


def _outer(est: Estimate, cfg: ExponentConfig, ops: dict, half: np.ndarray,
           power=power_coeffs) -> np.ndarray:
    """The estimate's outer operator on stacked half spectra (..., comp,
    *half): the Leray projection for u, then out's generator in ops to the
    power -delta, applied by power (power_coeffs or _half_power)."""
    if est.out == "u":
        half = leray_coeffs(ops["u"].grid, half)
    if est.delta is None:
        return half
    return power(ops[est.out].with_power(-getattr(cfg, est.delta)), half)


def _forcing(est: Estimate, f: ForcingSpec, g: ForcingSpec, dim: int) -> ForcingSpec:
    """The forcing a force row bounds, f for u and g for om, or the linear
    e1 probe in its place when it vanishes, since the estimate divides by
    its Lipschitz constant."""
    force = f if est.out == "u" else g
    components = tag_components(dim)[est.out]
    if force.lipschitz == 0:
        force = ForcingSpec("linear", (1.0,) + (0.0,) * (components - 1))
    if len(force.c) != components:
        raise ConfigurationError(
            f"forcing has {len(force.c)} components, expected {components}")
    return force


# For the quadratic estimates in the Hilbert case the fitted constant is
# computed by alternating exact maximization: with one argument frozen the
# estimate's left side is linear in the other, so its sharp constant over a
# low-mode subspace is the top singular value of an explicit matrix.  A few
# alternations from a random start land on a stationary pair, making the
# ensemble statistic concentrate at the (restricted) sup.
#
# The subspace of each argument slot depends on the lemma only, so
# verify_bilinear builds it once per call: weight-orthonormal fields with
# their grid values.  The members of a block then advance in lockstep.


def _real_mode_basis(grid: GridSpec, components: int, kmax: int) -> np.ndarray:
    """Real cosine/sine basis fields of the modes 0 < |k|_inf <= kmax as
    stacked half-spectrum coefficients (basis, components, *half), the
    2 components fields of one +-k pair next to each other."""
    axis = [int(k) for k in np.fft.fftfreq(grid.n, 1.0 / grid.n) if abs(k) <= kmax]
    # one representative per +-k pair: the one whose first nonzero component
    # is positive, in the fftn order of the modes
    reps = [kv for kv in itertools.product(axis, repeat=grid.dim)
            if next((k for k in kv if k), 0) > 0]
    basis = np.zeros((2 * components * len(reps), components) + grid.half_shape,
                     dtype=np.complex128)
    b = 0
    for kv in reps:
        for c in range(components):
            for amp in (0.5, -0.5j):    # cosine, sine
                basis[b, c] = SpectralField.single_mode(grid, kv, amp).half[0]
                b += 1
    return basis


def _parseval_rows(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Stacked half spectra (..., comp, *half) of real fields as real rows
    (..., 2 comp modes) whose Euclidean norm is the fields' L2 norm: real and
    imaginary parts times sqrt(volume), and times sqrt(2) on the interior
    last-axis modes, which stand for their conjugates too."""
    scale = np.sqrt(grid.volume * parseval_columns(grid))
    flat = (half * scale).reshape(half.shape[: half.ndim - grid.dim - 1] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _half_power(op: OperatorSymbol, half: np.ndarray) -> np.ndarray:
    """op's power on stacked half spectra (fields, comp, *half), per
    invariant subspace; unlike power_coeffs, no Leray projection."""
    return sum(power_weight(eig, op.power) * part for eig, part in subspaces(op, half))


@dataclass(frozen=True)
class _SlotSpace:
    """One argument slot of a quadratic estimate restricted to a mode basis,
    on the half spectrum of grid: weight-orthonormal fields (rank, comp,
    *half), so that the weight norm of sum_i x_i fields_i is |x|."""

    grid: GridSpec
    weight: OperatorSymbol
    fields: np.ndarray

    # grid values are made on first use, once per space: a lemma reads only
    # some of them, and on the 3D grid each takes tens of MB
    @cached_property
    def values(self) -> np.ndarray:
        """Grid values of the fields, (comp, rank, *grid)."""
        return _grid_values(self.grid, self.fields)[0]

    @cached_property
    def grads(self) -> np.ndarray:
        """Grid values of the fields' gradients, (comp, dim, rank, *grid)."""
        vals = _grid_values(self.grid, gradient_planes(self.grid, self.fields))[0]
        return vals.reshape(self.fields.shape[1:2] + (self.grid.dim,) + vals.shape[1:])


def _orthonormal_fields(basis: np.ndarray, weight: OperatorSymbol) -> np.ndarray:
    """Weight-orthonormal fields spanning the basis fields (fields, comp,
    *half) of _real_mode_basis, a (Leray-projected) group of 2 comp fields
    per +-k pair.  The weight acts mode by mode, so the groups are
    weight-orthogonal and each is orthonormalized on its own: with the
    group's weight rows W = U S V^T, the fields V S^-1 over the singular
    values above 1e-10 of the largest of all groups (pinv's rcond cut).

    One small SVD per group, not one over the whole basis: LAPACK's
    divide-and-conquer SVD of a matrix wider than 25 columns hands work to
    OpenBLAS's worker thread, and on a shared 2-core host waking it made a
    48-column call take anywhere from 0.4 to 50 ms."""
    group = 2 * basis.shape[1]
    rows = _parseval_rows(weight.grid, _half_power(weight, basis))
    rows = rows.reshape((-1, group, rows.shape[-1]))
    _, sing, vt = np.linalg.svd(np.swapaxes(rows, 1, 2), full_matrices=False)
    keep = sing > 1e-10 * np.max(sing)
    coef = vt / np.where(keep, sing, 1.0)[..., np.newaxis]
    fields = coef @ basis.reshape((len(rows), group, -1))
    return fields[keep].reshape((-1,) + basis.shape[1:])


# kmax of the mode basis of the exact-sup slots and of their random start
_EXACT_KMAX = 2


def _exact_grid(grid: GridSpec) -> GridSpec:
    """The smallest grid that holds the exact-sup products exactly.

    A product of fields with modes |k|_inf <= _EXACT_KMAX has modes
    |k|_inf <= 2 _EXACT_KMAX, which n = 4 _EXACT_KMAX + 2 points resolve
    without aliasing (Orszag's rule).  Dimension and length are the given
    grid's, and the dealias cutoff is min(n/2, the given grid's cutoff), so
    a coarse grid's 2/3 rule masks the same product modes as before; a grid
    of at most n points is returned as it is."""
    n = 4 * _EXACT_KMAX + 2
    if grid.n <= n:
        return grid
    cutoff = min(n / 2, grid.dealias_fraction * grid.n / 2)
    return GridSpec(grid.dim, n, grid.length, cutoff / (n / 2))


def _slot_spaces(lemma_id: str, cfg: ExponentConfig, grid: GridSpec,
                 params: CouplingParams) -> dict:
    """The slot spaces of a quadratic estimate by field tag, on
    _exact_grid(grid): velocity slots range over the Leray-projected basis."""
    grid = _exact_grid(grid)
    ops = dict(zip(TAGS, generators(grid, params)))
    comps = tag_components(grid.dim)
    spaces = {}
    for tag, name in dict(ESTIMATES[lemma_id].slots).items():
        basis = _real_mode_basis(grid, comps[tag], _EXACT_KMAX)
        if tag == "u":
            basis = leray_coeffs(grid, basis)
        weight = ops[tag].with_power(getattr(cfg, name))
        spaces[tag] = _SlotSpace(grid, weight, _orthonormal_fields(basis, weight))
    return spaces


def _member_block_size(spaces: dict) -> int:
    """Members per lockstep block of _exact_sups: as many as keep one float64
    grid array per field plane of the largest slot space (about the products
    a member forms in a half-step) within RHS_BLOCK_BYTES, and at
    least one."""
    values = max(len(s.fields) * s.fields.shape[1] * s.grid.num_modes
                 for s in spaces.values())
    return max(1, RHS_BLOCK_BYTES // (8 * values))


def _slot_maximizers(space: _SlotSpace, images: np.ndarray) -> tuple:
    """Every member's sup ||fwd(v)||_2 / ||weight(v)||_2 over the slot space
    and the maximizer's half spectrum (members, comp, *half), from the
    images (members, rank, comp', *half) of the space's fields under fwd."""
    rows = np.swapaxes(_parseval_rows(space.grid, images), 1, 2)
    _, sing, vt = np.linalg.svd(rows, full_matrices=False)
    flat = space.fields.reshape(len(space.fields), -1).view(np.float64)
    # one product per member, so a member's maximizer has the bits it has
    # in a block of its own
    best = (vt[:, :1] @ flat).view(np.complex128)
    return sing[:, 0], best.reshape((len(images),) + space.fields.shape[1:])


def _exact_sups(lemma_id: str, cfg: ExponentConfig, grid: GridSpec,
                params: CouplingParams, spaces: dict, rngs: list,
                alternations: int = 3) -> np.ndarray:
    """Alternating restricted maximization of a quadratic estimate ratio over
    the slot spaces of _slot_spaces, one member per stream of rngs, all in
    lockstep.

    Each member's random start is drawn on the given grid from its own
    stream, so it depends neither on where it is maximized nor on the other
    members; the maximization runs on _exact_grid(grid).  With p = q = r = 2
    every norm is Parseval's, so the result is the given grid's up to
    rounding.  A half-step takes every member's fixed field to the grid,
    forms its products with the kept grid values of the varied slot, and
    returns them in one forward transform; one stacked SVD per slot gives
    every member's sup and maximizer, whose weight norm is 1."""
    est = ESTIMATES[lemma_id]
    dim, vel = grid.dim, spaces["u"]
    small, members = vel.grid, len(rngs)
    starts = np.stack([leray_project(random_field(grid, dim, rng, sigma=_SIGMA,
                                                  kmax=_EXACT_KMAX)).half
                       for rng in rngs])
    # the starts' modes |k_i| <= _EXACT_KMAX, in the exact grid's half layout
    ks = [np.arange(-_EXACT_KMAX, _EXACT_KMAX + 1)] * (dim - 1) + [np.arange(_EXACT_KMAX + 1)]
    low = (slice(None),) * 2 + np.ix_(*ks)
    u = np.zeros(starts.shape[:2] + vel.fields.shape[2:], dtype=np.complex128)
    u[low] = starts[low]
    rows = _parseval_rows(small, _half_power(vel.weight, u))
    u = u * (1.0 / np.sqrt(np.sum(rows ** 2, axis=1))).reshape((-1,) + (1,) * (dim + 1))
    mask = dealias_mask(small)
    best = np.zeros(members)

    def forward(prod):
        """Dealiased half spectra (members, fields, comp, *half) of grid
        values (comp, members, fields, *grid)."""
        return np.moveaxis(rfft_half(small, prod), 0, 2) * mask

    if est.left == "phi":     # the left slot of each member is u or om
        mic = spaces["om"]
        comp = mic.fields.shape[1]
        zero_du = np.zeros((dim, dim) + (1,) * (dim + 2))
        zero_om = np.zeros((comp,) + (1,) * (dim + 2))
        zero_dom = np.zeros((comp, dim) + (1,) * (dim + 2))
        left_u, left_om = u, np.zeros((members, comp) + u.shape[2:], np.complex128)
        rank_v = len(vel.fields)
        for _ in range(alternations):
            om, du, dom = _grid_values(small, left_om, gradient_planes(small, left_u),
                                       gradient_planes(small, left_om))
            om = om[:, :, np.newaxis]
            du = du.reshape((dim, dim, members, 1) + small.shape)
            dom = dom.reshape((comp, dim, members, 1) + small.shape)
            phi_v = _phi_values(du, vel.grads[:, :, np.newaxis], om, zero_om, dom,
                                zero_dom, params)
            phi_p = _phi_values(du, zero_du, om, mic.values[:, np.newaxis], dom,
                                mic.grads[:, :, np.newaxis], params)
            images = forward(np.concatenate([phi_v, phi_p], axis=1)[np.newaxis])
            sup_v, v = _slot_maximizers(vel, images[:, :rank_v])
            sup_p, psi = _slot_maximizers(mic, images[:, rank_v:])
            best = np.maximum(best, np.maximum(sup_v, sup_p))
            pick = (sup_v >= sup_p).reshape((-1,) + (1,) * (dim + 1))
            left_u, left_om = np.where(pick, v, 0.0), np.where(pick, 0.0, psi)
        return best

    w_space = spaces[est.slots[1][0]]
    ops = dict(zip(TAGS, generators(small, params)))

    def lhs(u_vals, dw):
        """The outer operator of sum_a u_a d_a w from grid values u (dim,
        ...) and dw (comp, dim, ...), broadcast over (members, fields), its
        power by _half_power, which projects no second time."""
        out = forward(sum(u_vals[a] * dw[:, a] for a in range(dim)))
        shape = out.shape
        return _outer(est, cfg, ops, out.reshape((-1,) + shape[2:]), _half_power).reshape(shape)

    for _ in range(alternations):
        u_vals = _grid_values(small, u)[0][:, :, np.newaxis]
        sup_w, w = _slot_maximizers(w_space,
                                    lhs(u_vals, w_space.grads[:, :, np.newaxis]))
        dw = _grid_values(small, gradient_planes(small, w))[0]
        dw = dw.reshape((-1, dim, members, 1) + small.shape)
        sup_u, u = _slot_maximizers(vel, lhs(vel.values[:, np.newaxis], dw))
        best = np.maximum(best, np.maximum(sup_w, sup_u))
    return best


def _estimate_ratio(lemma_id: str, norms: WeightedNorms, params: CouplingParams,
                    f: ForcingSpec, g: ForcingSpec, *fields: SpectralField) -> float:
    """Left over right side of the estimate lemma_id at its argument fields
    (0 when the right side vanishes)."""
    est, cfg, grid = ESTIMATES[lemma_id], norms.cfg, norms.grid
    norm = [norms.fractional_norm(tag, x, getattr(cfg, name))
            for (tag, name), x in zip(est.arguments, fields)]
    rhs = math.prod(norm)
    if est.left == "advect":
        left = advect(*fields)
    elif est.left == "phi":
        left = dissipation_phi(*fields, params)
        # the bilinear form in (u, om) and (v, psi)
        rhs = sum(a * b for a in norm[::2] for b in norm[1::2])
    elif est.left == "rot":
        left = rot(fields[0])
    elif est.left == "id":
        left = fields[0]
    else:
        force = _forcing(est, f, g, grid.dim)
        left = evaluate_forcing(force, fields[0], tag_components(grid.dim)[est.out])
        rhs = force.lipschitz * norm[0]
    lhs = lebesgue_norm(SpectralField(grid, _outer(est, cfg, norms.ops, left.half)),
                        norms.lebesgue[est.out])
    return lhs / rhs if rhs > 0 else 0.0


def _zero_order_symbol(lemma_id: str, cfg: ExponentConfig, f: ForcingSpec,
                       g: ForcingSpec, norms: WeightedNorms) -> tuple:
    """The zero-order estimate lemma_id as an L2 Fourier multiplier (zero or
    linear forcing): at every nonzero mode k inside the 2/3 mask, one per
    +-k pair, sup_c |lhs(k) c| / |weight(k) c| over the amplitudes c of its
    argument, the forcing's Lipschitz constant divided out.

    lhs(k) is the kernel (rot, the identity or the forcing) and then the
    outer operator, and weight(k) the argument's weight, each applied to
    each unit amplitude at every mode; the sup is the top singular value of
    lhs(k) weight(k)^+, which is the largest ratio over the invariant
    families at k.  Returns the modes (M, dim), ordered by |k| and then
    lexicographically, the sups (M,) and maximizing amplitudes (M, comp)."""
    est, grid, ops = ESTIMATES[lemma_id], norms.grid, norms.ops
    dim = grid.dim
    [(tag, name)] = est.slots
    comp = tag_components(dim)[tag]
    # member j is the amplitude e_j at every half-spectrum mode but k = 0
    eye = np.zeros((comp, comp) + grid.half_shape, dtype=np.complex128)
    eye[...] = np.eye(comp).reshape((comp, comp) + (1,) * dim)
    eye[(Ellipsis,) + _zero_index(grid)] = 0.0

    weight = power_coeffs(ops[tag].with_power(getattr(cfg, name)), eye)
    if est.left == "rot":
        left = np.moveaxis(curl(np.moveaxis(eye, 1, 0), deriv_wavevectors(grid)), 0, 1)
    elif est.left == "id":
        left = eye
    else:
        force = _forcing(est, f, g, dim)
        c = np.asarray(force.c).reshape((1, -1) + (1,) * dim) / force.lipschitz
        left = c * eye
    lhs = _outer(est, cfg, ops, left)

    # one mode of each +-k pair, ordered by |k| and then lexicographically:
    # the half spectrum holds one of each pair with k_last > 0, and both of
    # those on the planes k_last = 0 and -n/2, of which the one whose first
    # nonzero component is positive
    ks = np.stack(integer_wavevectors(grid)).reshape(dim, -1)
    first = ks[np.argmax(ks != 0, axis=0), np.arange(ks.shape[1])]
    modes = np.flatnonzero(dealias_mask(grid).reshape(-1) & ((first > 0) | (ks[-1] > 0)))
    keys = tuple(ks[::-1, modes]) + (np.sum(ks[:, modes] ** 2, axis=0),)
    modes = modes[np.lexsort(keys)]

    def per_mode(a):    # (members, out, *half) -> (modes, out, members)
        return np.transpose(a.reshape(a.shape[:2] + (-1,))[:, :, modes], (2, 1, 0))

    # the weights are real per mode; lhs(k) weight(k)^+ goes to the real
    # form [[Re, -Im], [Im, Re]], whose singular values are its own, each
    # twice, so the SVD needs no complex LAPACK routine (whose code pages
    # alone add about 1 MB to the resident set)
    w_pinv = np.linalg.pinv(per_mode(weight).real)
    gain = per_mode(lhs) @ w_pinv
    _, sing, vh = np.linalg.svd(np.block([[gain.real, -gain.imag],
                                          [gain.imag, gain.real]]))
    top = vh[:, 0, :comp] + 1j * vh[:, 0, comp:]
    return ks[:, modes].T, sing[:, 0], np.einsum("mij,mj->mi", w_pinv, top)


def _symbol_extremal(lemma_id: str, cfg: ExponentConfig, f: ForcingSpec,
                     g: ForcingSpec, norms: WeightedNorms) -> tuple:
    """(symbol sup, single-mode field where it is attained); ties go to the
    lowest |k|, then to lexicographic order."""
    modes, sups, amps = _zero_order_symbol(lemma_id, cfg, f, g, norms)
    top = float(np.max(sups))
    j = int(np.flatnonzero(sups >= top * (1 - 1e-12))[0])
    # the phase that makes the largest component real
    amp = amps[j] * np.exp(-1j * np.angle(amps[j][np.argmax(np.abs(amps[j]))]))
    return top, SpectralField.single_mode(norms.grid, tuple(modes[j]), amp)


def _symbol_probe(lemma_id: str, cfg: ExponentConfig, grid: GridSpec,
                  params: CouplingParams, f: ForcingSpec,
                  g: ForcingSpec) -> tuple | None:
    """(symbol sup, ratio at the single mode attaining it) of a zero-order
    estimate whose forcing is zero or linear; None for the other estimates.
    With every Lebesgue exponent 2 that ratio is the estimate's constant."""
    est = ESTIMATES[lemma_id]
    # tanh forcing makes a force row nonlinear: it has no symbol
    if est.quadratic or est.left == "force" and _forcing(est, f, g, grid.dim).kind == "tanh":
        return None
    norms = WeightedNorms(cfg, grid, params)
    sup, x = _symbol_extremal(lemma_id, cfg, f, g, norms)
    return sup, _estimate_ratio(lemma_id, norms, params, f, g, x)


def verify_bilinear(lemma_id: str, cfg: ExponentConfig, grid: GridSpec,
                    params: CouplingParams, f: ForcingSpec | None = None,
                    g: ForcingSpec | None = None, ensemble: int = 100,
                    seed: int = 0) -> EstimateReport:
    """Ratio test for one of the nine coupling estimates; the fitted constant
    is consumed by the bound recursion.

    With every Lebesgue exponent the estimate reads equal to 2, the members
    of the quadratic estimates 2.5-2.8 are exact restricted sups, and the
    zero-order 2.9-2.13 (zero or linear forcing) are L2 Fourier multipliers: the
    constant is the ratio at the single mode where the symbol attains its
    max, which must agree with that max within BOUND_RTOL, and min(ensemble,
    CROSS_CHECK_MEMBERS) random members cross-check it.  Otherwise each of
    the ensemble's members reports the sup ratio over five full-spectrum and
    five low-mode field draws and the symbol's extremal mode where there is
    one, so the member statistic concentrates near the essential sup and the
    stability verdict is meaningful."""
    if lemma_id not in ESTIMATES:
        raise ConfigurationError(f"unknown estimate id {lemma_id!r}")
    if not cfg.has_intermediates:
        raise ConfigurationError("estimate checks need a completed exponent config")
    from .exponents import check_config

    verdict = check_config(cfg, lambda_cap=lambda_chain_cap(grid, params))
    if not verdict.passed:
        raise ValueError(
            "estimate hypotheses violated: "
            + "; ".join(str(v) for v in verdict.violations[:3]))
    f = f or ForcingSpec.zero()
    g = g or ForcingSpec.zero()

    est = ESTIMATES[lemma_id]
    hilbert = _hilbert(est, cfg)
    if est.quadratic and hilbert:
        spaces = _slot_spaces(lemma_id, cfg, grid, params)
        # members are exact restricted sups, maximized in lockstep blocks
        rngs = ensemble_rngs(seed, min(ensemble, 16))
        size = _member_block_size(spaces)
        ratios = np.concatenate([
            _exact_sups(lemma_id, cfg, grid, params, spaces, rngs[i: i + size])
            for i in range(0, len(rngs), size)])
        return make_report(lemma_id, ratios, notes=(
            "torus-fitted constant (alternating restricted maximization)"))

    norms = WeightedNorms(cfg, grid, params)
    comps = tag_components(grid.dim)

    def draw(tag, rng, kmax):
        x = random_field(grid, comps[tag], rng, sigma=_SIGMA, kmax=kmax)
        return leray_project(x) if tag == "u" else x

    def draws(rng):
        """The max ratio over five full-spectrum and five low-mode draws of
        one field per argument."""
        return max(_estimate_ratio(lemma_id, norms, params, f, g,
                                   *(draw(tag, rng, kmax) for tag, _ in est.arguments))
                   for kmax in (None,) * 5 + (2,) * 5)

    symbol = _symbol_probe(lemma_id, cfg, grid, params, f, g)
    if symbol is not None and hilbert:
        sup, probe = symbol
        members = min(ensemble, CROSS_CHECK_MEMBERS)
        ratios = [draws(rng) for rng in ensemble_rngs(seed, members)]
        return cross_check_report(
            lemma_id, probe, ratios, sup, floor=sup * (1 - BOUND_RTOL),
            notes=f"L2 symbol sup {sup:.6g}, attained at a single mode")
    probes = [] if symbol is None else [symbol[1]]
    ratios = [max([draws(rng)] + probes) for rng in ensemble_rngs(seed, ensemble)]
    return make_report(lemma_id, np.array(ratios), notes="torus-fitted constant")


def fit_lemma_constants(cfg: ExponentConfig, grid: GridSpec,
                        params: CouplingParams, f: ForcingSpec | None = None,
                        g: ForcingSpec | None = None, ensemble: int = 40,
                        seed: int = 0) -> LemmaConstants:
    """The constants c1-c9 of the ESTIMATES rows 2.5-2.13 for the bound
    recursion: the i-th is verify_bilinear's fitted constant at seed + 101 i.
    Where that is the ratio at the symbol's extremal mode (zero-order estimate,
    every Lebesgue exponent 2, zero or linear forcing), the fit takes it from
    the symbol alone and draws none of verify's cross-check members."""
    f = f or ForcingSpec.zero()
    g = g or ForcingSpec.zero()
    values = {}
    for i, (lemma_id, est) in enumerate(ESTIMATES.items()):
        symbol = _hilbert(est, cfg) and _symbol_probe(lemma_id, cfg, grid, params, f, g)
        values[f"c{i + 1}"] = symbol[1] if symbol else verify_bilinear(
            lemma_id, cfg, grid, params, f, g, ensemble=ensemble,
            seed=seed + 101 * i).fitted_constant
    return LemmaConstants(**values)


# ---------------------------------------------------------------------------
# Decay fits


@dataclass
class DecayFit:
    tag: str
    window: tuple
    kind: str            # "slope" (log-log near 0) or "rate" (semilog, large t)
    value: float
    expected: float
    residual: float
    passed: bool | None = None

    def to_row(self) -> dict:
        return {"tag": self.tag, "t_lo": self.window[0], "t_hi": self.window[1],
                "kind": self.kind, "value": self.value, "expected": self.expected,
                "residual": self.residual,
                "passed": "" if self.passed is None else str(self.passed)}


def _window_fit(times: np.ndarray, values: np.ndarray, lo: float, hi: float,
                loglog: bool) -> tuple:
    mask = (times >= lo) & (times <= hi) & (values > 0)
    if np.count_nonzero(mask) < 4:
        raise ValueError(f"too few nodes in fit window [{lo}, {hi}]")
    x = np.log(times[mask]) if loglog else times[mask]
    y = np.log(values[mask])
    coef = np.polyfit(x, y, 1)
    pred = np.polyval(coef, x)
    span = max(float(np.max(y) - np.min(y)), 1e-12)
    residual = float(np.sqrt(np.mean((y - pred) ** 2)) / span)
    return float(coef[0]), residual


def fit_decay(log: dict, cfg: ExponentConfig, exponents: dict | None = None,
              window_small: tuple | None = None, window_large: tuple | None = None,
              slope_tol: float = 0.1, rate_floor: float | None = None,
              residual_tol: float = 0.05) -> list:
    """Fit the near-zero power-law slopes and/or the large-time exponential
    rates of the fractional norms in a node log (solver.node_log).

    exponents maps field tag to a list of fractional exponents; defaults to
    the configured intermediate exponents.  An exponent listed twice is
    fitted once, at its first place.
    """
    base = cfg.by_tag("base")
    if exponents is None:
        exponents = cfg.by_tag("tracked")
    fits = []
    for tag, exps in exponents.items():
        for exp in dict.fromkeys(exps):
            vals = log[(tag, exp)]
            if np.all(vals < 1e-300):
                fits.append(DecayFit(f"{tag}^{exp}", (0, 0), "skipped",
                                     0.0, 0.0, 0.0, None))
                continue
            if window_small is not None:
                slope, res = _window_fit(log["t"], vals, *window_small, loglog=True)
                expected = base[tag] - exp
                fits.append(DecayFit(f"{tag}^{exp}", window_small, "slope", slope,
                                     expected, res,
                                     passed=slope >= expected - slope_tol))
            if window_large is not None:
                slope, res = _window_fit(log["t"], vals, *window_large, loglog=False)
                passed = None if rate_floor is None else (
                    -slope >= rate_floor and res <= residual_tol)
                fits.append(DecayFit(f"{tag}^{exp}", window_large, "rate", -slope,
                                     np.nan if rate_floor is None else rate_floor,
                                     res, passed=passed))
    return fits


# ---------------------------------------------------------------------------
# Strong-solution residuals


def _node_derivative(times: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """d/dt of node-stacked coefficients at the interior nodes by 3-point
    differentiation on the non-uniform grid (exact on quadratics)."""
    shape = (-1,) + (1,) * (nodes.ndim - 1)
    hm = np.diff(times)[:-1].reshape(shape)
    hp = np.diff(times)[1:].reshape(shape)
    d_plus = (nodes[2:] - nodes[1:-1]) * (1.0 / hp)
    d_minus = (nodes[1:-1] - nodes[:-2]) * (1.0 / hm)
    return (hm / (hm + hp)) * d_plus + (hp / (hm + hp)) * d_minus


def pde_residual(traj: TrajectoryState, params: CouplingParams,
                 f: ForcingSpec = ForcingSpec(), g: ForcingSpec = ForcingSpec(),
                 linear_only: bool = False) -> dict:
    """||d_t y + L y - RHS||_2 at interior nodes by 3-point differentiation
    (exact on quadratics, so second order on smooth trajectories); the RHS
    has forcing f, g (zero by default)."""
    grid = traj.grid
    rhs = node_rhs(traj, params, f, g, linear_only)
    out = {"times": traj.times[1:-1]}
    for (tag, half), op in zip(traj.coeffs.items(), generators(grid, params)):
        resid = (_node_derivative(traj.times, half) + _half_power(op, half[1:-1])
                 - rhs[tag][1:-1])
        out[tag] = parseval_l2(grid, resid)
    return out


def residual_refinement_order(residuals: list) -> list:
    """Empirical orders log2(r_k / r_{k+1}) from residual maxima at halved
    node spacings (compared over the middle third of each run)."""
    mids = []
    for res in residuals:
        t = res["times"]
        lo, hi = t[0] + (t[-1] - t[0]) / 3, t[-1] - (t[-1] - t[0]) / 3
        mask = (t >= lo) & (t <= hi)
        worst = max(float(np.max(res[tag][mask])) for tag in TAGS)
        mids.append(worst)
    return [float(np.log2(mids[k] / mids[k + 1])) for k in range(len(mids) - 1)]


def singular_derivative_fit(traj: TrajectoryState, cfg: ExponentConfig,
                            params: CouplingParams, tag: str = "u",
                            exp: float = 0.0) -> dict:
    """Boundedness probe for t^(1+exp-base) ||d_t field||: reports the sup of
    the weighted derivative norm and its log-log trend."""
    norms = WeightedNorms(cfg, traj.grid, params)
    base = norms.base[tag]
    ts = traj.times[1:-1]
    vals = norms.node_norms(tag, _node_derivative(traj.times, traj.coeffs[tag]), [exp])[0]
    weighted = ts ** (1 + exp - base) * vals
    slope, res = _window_fit(ts, vals, ts[0], ts[-1], loglog=True)
    return {"sup_weighted": float(np.max(weighted)), "slope": slope,
            "expected_slope": base - exp - 1, "fit_residual": res}


# ---------------------------------------------------------------------------
# Continuous dependence and time regularity


def dependence_ratio(base: TrajectoryState, pert: TrajectoryState,
                     cfg: ExponentConfig, params: CouplingParams,
                     d0: float) -> dict:
    """Weighted-difference norm over the initial-data distance, per triple
    (alpha_i, beta_i, gamma_i) of tracked exponents."""
    if base.node_count != pert.node_count or not np.allclose(base.times, pert.times):
        raise ConfigurationError("dependence runs must share a node grid")
    norms = WeightedNorms(cfg, base.grid, params)
    out = {}
    diff = {tag: base.coeffs[tag] - pert.coeffs[tag] for tag in TAGS}
    for triple in zip(*norms.exps.values()):
        curve = sum(norms.weighted_curve(tag, diff[tag], base.times, exp)
                    for tag, exp in zip(TAGS, triple))
        out[triple] = float(np.max(curve)) / d0
    return out


def initial_distance(u0, up, om0, omp, th0, thp, cfg: ExponentConfig,
                     params: CouplingParams) -> float:
    norms = WeightedNorms(cfg, u0.grid, params)
    return sum(norms.fractional_norm(tag, a - b, norms.base[tag])
               for tag, a, b in zip(TAGS, (u0, om0, th0), (up, omp, thp)))


# growth of the Hoelder quotient over two halvings of h that counts as a
# blowup: about 4^0.07, increments 0.07 rougher in exponent than tested
HOELDER_GROWTH = 1.1


def time_hoelder_quotients(traj: TrajectoryState, cfg: ExponentConfig,
                           params: CouplingParams, alpha_hat: float,
                           tau: float, tag: str = "u") -> dict:
    """sup over node pairs in [tau, T] of ||y(t+h) - y(t)||_(X^1) / h^alpha_hat,
    evaluated per dyadic h.  small_h_blowup flags a quotient that grows by
    more than HOELDER_GROWTH over the two smallest halvings of h: increments
    rougher than h^(alpha_hat - 0.07).  With fewer than three h it is False,
    since nothing was compared; a caller that gives a verdict must check."""
    if tau <= 0:
        raise ValueError("the Hoelder estimate holds away from t = 0; tau > 0 required")
    norms = WeightedNorms(cfg, traj.grid, params)
    half = traj.coeffs[tag]
    idx = np.nonzero(traj.times >= tau - 1e-12)[0]
    quotients = {}
    steps = 1
    while idx.size > steps:
        j, k = idx[:-steps], idx[steps:]
        h = traj.times[k] - traj.times[j]
        j, k, h = j[h > 0], k[h > 0], h[h > 0]
        if h.size:
            qs = norms.node_norms(tag, half[k] - half[j], [1.0])[0] / h ** alpha_hat
            quotients[float(np.median(h))] = float(np.max(qs))
        steps *= 2
    hs_sorted = sorted(quotients)
    small_h_trend = None
    if len(hs_sorted) >= 3:
        small_h_trend = quotients[hs_sorted[0]] / max(quotients[hs_sorted[2]], 1e-300)
    return {"quotients": quotients,
            "sup": max(quotients.values()) if quotients else 0.0,
            "small_h_blowup": bool(small_h_trend and small_h_trend > HOELDER_GROWTH)}


# ---------------------------------------------------------------------------
# Conserved-quantity oracle


@dataclass
class EnergyLog:
    times: np.ndarray
    kinetic: np.ndarray          # rho/2 (||u||^2 + ||om||^2)
    heat: np.ndarray             # rho cv int theta dx
    dissipation: np.ndarray      # int Phi dx
    forcing_work: np.ndarray
    total: np.ndarray
    conservative: bool

    @property
    def drift(self) -> float:
        return float(np.max(np.abs(self.total - self.total[0])))

    @property
    def relative_drift(self) -> float:
        return self.drift / max(abs(self.total[0]), 1e-12)

    def kinetic_monotone(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.kinetic) <= tol * max(self.kinetic[0], 1.0)))

    def identity_residuals(self) -> np.ndarray:
        """Midpoint residual of d/dt kinetic = -dissipation + work."""
        dt = np.diff(self.times)
        dk = np.diff(self.kinetic) / dt
        mid_d = 0.5 * (self.dissipation[1:] + self.dissipation[:-1])
        mid_w = 0.5 * (self.forcing_work[1:] + self.forcing_work[:-1])
        return dk + mid_d - mid_w


def _dissipation_integrals(grid: GridSpec, uh: np.ndarray, omh: np.ndarray,
                           params: CouplingParams) -> np.ndarray:
    """int Phi(u; om) dx at every node of node-stacked half spectra uh (B,
    dim, *half) and omh (B, C, *half), by discrete Parseval: one
    parseval_inner sum per node over the spectral planes of the strain
    D = (grad u + grad u^T) / 2, the relative rotation rot u / 2 - om and
    grad om, with in 3D div om and the transposed product
    grad om : grad om^T, each weighted by its coefficient in Phi.

    Parseval holds exactly for the grid values of the products, so this is
    the grid integral of the dissipation function, the mean mode of
    dissipation_coeffs times the volume, up to rounding, with no transform."""
    dim, ncomp, batch = grid.dim, omh.shape[1], uh.shape[0]
    half = uh.shape[2:]
    du = gradient_planes(grid, uh).reshape((batch, dim, dim) + half)  # [., c, a] = d_a u_c
    dom = gradient_planes(grid, omh).reshape((batch, ncomp, dim) + half)
    strain = 0.5 * (du + np.swapaxes(du, 1, 2))
    rel = 0.5 * np.swapaxes(curl_values(np.moveaxis(du, 0, 2)), 0, 1) - omh
    # (coefficient, plane of the left factor, plane of the right factor)
    terms = [(2.0 * params.mu, strain, strain), (4.0 * params.mu_r, rel, rel),
             (params.ca + params.cd, dom, dom)]
    if dim == 3 and ncomp > 1:
        div = np.trace(dom, axis1=1, axis2=2)[:, np.newaxis]
        terms += [(params.c0, div, div), (params.cd - params.ca, dom, np.swapaxes(dom, 1, 2))]
    left = np.concatenate([w * a.reshape((batch, -1) + half) for w, a, _ in terms], axis=1)
    right = np.concatenate([b.reshape((batch, -1) + half) for _, _, b in terms], axis=1)
    return parseval_inner(grid, left, right)


def energy_report(traj: TrajectoryState, params: CouplingParams,
                  f: ForcingSpec, g: ForcingSpec) -> EnergyLog:
    """Track the exact invariant: with zero forcing the kinetic plus thermal
    content rho/2(||u||^2+||om||^2) + rho cv int theta is conserved, and the
    kinetic part dissipates at rate int Phi.  The forcing work is
    rho (<f(theta), u> + <g(theta), om>) with f(theta) and g(theta)
    dealiased, as the RHS has them."""
    grid, vol = traj.grid, traj.grid.volume
    mean = (slice(None), 0) + _zero_index(grid)
    l2 = traj.l2_norms()
    kinetic = np.array([0.5 * params.rho * (a ** 2 + b ** 2)
                        for a, b in zip(l2["u"].tolist(), l2["om"].tolist())])
    heat = params.rho * params.cv * vol * traj.coeffs["th"][mean].real
    u, om = traj.coeffs["u"], traj.coeffs["om"]
    # per node block: the planes of a whole trajectory would set the peak memory
    dissipation = np.concatenate([_dissipation_integrals(grid, u[b], om[b], params)
                                  for b in traj.node_blocks()])
    # the work of each forcing on the field it drives, per node block: one
    # inverse transform of theta, the forcing at the grid points, a forward
    # transform and the 2/3 rule, as in the RHS
    forced = [(spec, traj.coeffs[tag]) for spec, tag in ((f, "u"), (g, "om"))
              if spec.kind != "zero"]
    mask = dealias_mask(grid)
    work = np.zeros(traj.node_count)
    for b in traj.node_blocks() if forced else []:
        th_vals = irfft_half(grid, traj.coeffs["th"][b, 0])
        for spec, half in forced:
            force = rfft_half(grid, _forcing_values(spec, th_vals, half.shape[1])) * mask
            work[b] += params.rho * parseval_inner(grid, np.swapaxes(force, 0, 1), half[b])
    total = kinetic + heat
    return EnergyLog(times=traj.times, kinetic=kinetic, heat=heat,
                     dissipation=dissipation, forcing_work=work, total=total,
                     conservative=not forced)
