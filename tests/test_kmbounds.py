import numpy as np
import pytest

import micropolar as mp
from micropolar import kmbounds
from micropolar.analysis import fit_lemma_constants
from micropolar.cli import lambda_chain_cap
from micropolar.exponents import RULES, equality_branches
from micropolar.kmbounds import (
    LemmaConstants,
    check_domination,
    contraction_coefficients,
    holder_constant,
    k0_curves,
    km_recursion,
    local_horizon,
    semigroup_constant,
    _matrix_spectral_radius_curve,
    _recursion_coefficients,
)

ZERO = mp.ForcingSpec.zero()


@pytest.fixture(scope="module")
def constants(cfg2, params):
    grid = mp.GridSpec(dim=2, n=16)
    return fit_lemma_constants(cfg2, grid, params, ensemble=8, seed=11)


def _small_data(grid, seed=7, amp=0.05):
    rng = np.random.default_rng(seed)
    u0 = mp.leray_project(mp.random_field(grid, grid.dim, rng, amplitude=amp))
    om0 = mp.random_field(grid, 1 if grid.dim == 2 else 3, rng, amplitude=amp)
    th0 = mp.random_field(grid, 1, rng, sigma=1.0, amplitude=amp)
    return u0, om0, th0


def test_semigroup_constant_values():
    assert semigroup_constant(0.0, 0.5, 1.0) == 1.0
    # (a/e)^a (lam_min/(lam_min-lam))^a
    assert semigroup_constant(0.5, 0.5, 1.0) == pytest.approx(
        (0.5 / np.e) ** 0.5 * 2 ** 0.5)
    with pytest.raises(ValueError):
        semigroup_constant(0.5, 1.5, 1.0)


def test_holder_constant_monotone():
    assert holder_constant(1.0) == pytest.approx(1.0, rel=1e-6)
    assert holder_constant(0.5) > 1.0 or holder_constant(0.5) <= 1.0  # finite
    assert np.isfinite(holder_constant(0.25))


def test_k0_curves_start_at_zero(grid2d, params, cfg2):
    u0, om0, th0 = _small_data(grid2d)
    times = np.linspace(0, 0.5, 33)
    k0 = k0_curves(mp.start_state(u0, om0, th0), cfg2, params, times)
    for curve in k0.values():
        assert curve[0] == 0.0
        assert np.all(np.diff(curve) >= -1e-15)  # running sup is monotone


def test_km_zero_data(grid2d, params, cfg2, constants):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 0.5, 17)
    k0 = k0_curves(mp.start_state(z2, z1, z1), cfg2, params, times)
    tracker = km_recursion(k0, cfg2, params, constants, times, grid2d)
    assert all(np.all(c == 0) for c in tracker.final.values())


def test_km_monotone_and_convergent(grid2d, params, cfg2, constants):
    u0, om0, th0 = _small_data(grid2d)
    times = np.linspace(0, 0.4, 33)
    k0 = k0_curves(mp.start_state(u0, om0, th0), cfg2, params, times)
    tracker = km_recursion(k0, cfg2, params, constants, times, grid2d)
    assert tracker.converged
    for m in range(len(tracker.history) - 1):
        for key in tracker.history[0]:
            assert np.all(tracker.history[m + 1][key] >= tracker.history[m][key] - 1e-12)


def _domination_excess(grid, cfg, params, constants) -> float:
    """Worst excess of the Picard iterates over the K^m bound with the
    constants inflated by 1.1; nonpositive means dominated."""
    u0, om0, th0 = _small_data(grid)
    pic = mp.PicardConfig(horizon=0.4, nodes_per_unit=64, tol=1e-10, m_max=20)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic,
                                record_norms=True)
    assert rep.converged
    k0 = k0_curves(mp.start_state(u0, om0, th0), cfg, params, traj.times)
    tracker = km_recursion(k0, cfg, params, constants.inflated(1.1), traj.times,
                           grid, m_max=len(rep.iterate_norms) + 2)
    return max(check_domination(tracker, rep.iterate_norms).values())


def test_km_domination_with_inflated_constants(grid2d, params, cfg2, constants):
    assert _domination_excess(grid2d, cfg2, params, constants) <= 0.0


def test_km_domination_counts_rho_and_cv(grid2d, cfg2):
    """The right-hand side divides the couplings by rho and Phi by rho cv,
    and so do the recursion's kernel coefficients: at rho = cv = 0.1 the
    bound still dominates the iterates."""
    params = mp.CouplingParams(rho=0.1, cv=0.1)
    constants = fit_lemma_constants(cfg2, grid2d, params, ensemble=8, seed=11)
    assert _domination_excess(grid2d, cfg2, params, constants) <= 0.0


def test_diverged_bound_dominates_nothing(params, cfg2):
    """Past the contraction horizon the bound overflows: the recursion stops
    at the first curve that is not finite and says so, and the domination
    check fails rather than reading an infinite bound as dominating."""
    grid = mp.GridSpec(dim=2, n=16)
    start = mp.start_state(*_small_data(grid, seed=3, amp=2.0))
    times = np.linspace(0, 0.5, 33)
    pic = mp.PicardConfig(horizon=0.5, m_max=30)
    _, rep = mp.picard_solve(start, cfg2, params, ZERO, ZERO, pic, times=times,
                             record_norms=True)
    k0 = k0_curves(start, cfg2, params, times)
    tracker = km_recursion(k0, cfg2, params, LemmaConstants(*[1.0] * 9), times, grid,
                           m_max=30)
    assert not tracker.converged
    assert len(tracker.history) == 11 and len(tracker.sup_change) == 9
    assert tracker.notes == ["the bound is not finite at m = 10: the recursion diverged"]
    assert max(check_domination(tracker, rep.iterate_norms).values()) > 0.0


# base exponents (p, q, r, alpha0, beta0, gamma0) of selections on both branches
SELECTIONS = [
    ((2, 2, 2, 0.5, 0.5, 0.0), "strict"),
    ((3, 3, 3, 0.5, 0.5, 0.25), "strict"),
    ((2, 2, 2, 0.75, 0.75, 0.5), "strict"),
    ((9, 9, 4, 0.0, 0.0, 0.0), "strict"),
    ((2, 2, 1.2, 0.75, 0.25, 0.25), "equality"),
]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("base,branch", SELECTIONS)
def test_recursion_powers_are_nonnegative(params, dim, base, branch):
    """Every time power of the recursion is the slack of a <= rule, so
    time_weight's value at t = 0 (1 for power 0, else 0) is the recursion's;
    on the strict branch the single-source powers behind the horizon
    factors are positive."""
    sel = mp.select_intermediate(mp.ExponentConfig(*base))
    assert sel.feasible and mp.check_config(sel.config)
    assert any(equality_branches(sel.config)) == (branch == "equality")
    grid = mp.GridSpec(dim=dim, n=8)
    f, g = mp.ForcingSpec("linear", (1.0,) * dim), mp.ForcingSpec("linear", (1.0,))
    coeffs = _recursion_coefficients(sel.config, params, mp.LemmaConstants(*[0.5] * 9), grid,
                                     f, g)
    terms = [term for key_terms in coeffs.values() for term in key_terms]
    assert len(terms) >= 11 and all(power >= 0 for _, power, _ in terms)
    if branch == "strict":
        assert all(power > 0 for _, power, sources in terms if len(sources) == 1)


@pytest.mark.parametrize("base", [base for base, _ in SELECTIONS])
def test_recursion_weight_rules_are_the_beta_arguments(monkeypatch, grid2d, params, base):
    """RULES holds one recursion weight row per distinct term of the bound
    recursion, in its order, and each row's left side is, bit for bit, the
    second argument of that term's beta function."""
    cfg = mp.select_intermediate(mp.ExponentConfig(*base)).config
    seconds = []
    monkeypatch.setattr(kmbounds, "beta_function", lambda a, b: seconds.append(b) or 1.0)
    coeffs = _recursion_coefficients(cfg, params, mp.LemmaConstants(*[0.5] * 9), grid2d,
                                     ZERO, ZERO)
    # each tag's three tracked exponents run through the same terms
    distinct, start = [], 0
    for tag in ("u", "om", "th"):
        count = len(next(terms for (t, _), terms in coeffs.items() if t == tag))
        block = seconds[start: start + 3 * count]
        assert block == block[:count] * 3
        distinct += block[:count]
        start += 3 * count
    assert start == len(seconds)
    weights = [rule for rule in RULES if rule.label.startswith("recursion weight")]
    assert len(weights) == len(distinct) == 11
    assert [rule.lhs(cfg) for rule in weights] == distinct


def test_local_horizon_zero_data(grid2d, params, cfg2, constants):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 0.7, 29)
    res = local_horizon(mp.start_state(z2, z1, z1), cfg2, params, constants, times)
    assert res.tstar == pytest.approx(0.7)


def test_local_horizon_monotone_in_data(grid2d, params, cfg2, constants):
    u0, om0, th0 = _small_data(grid2d, amp=0.02)
    times = np.linspace(0, 0.5, 65)
    base = local_horizon(mp.start_state(u0, om0, th0), cfg2, params, constants, times)
    assert base.tstar is not None
    previous = base.tstar
    for scale in (2.0, 4.0, 8.0):
        res = local_horizon(mp.start_state(scale * u0, scale * om0, scale * th0), cfg2, params,
                            constants, times)
        assert (res.tstar or 0.0) <= previous + 1e-12
        previous = res.tstar if res.tstar is not None else 0.0


def test_spectral_radius_matches_eigensolve(grid2d, params, cfg2):
    times = np.array([0.0, 0.1, 0.3])
    k0max = np.array([0.0, 0.2, 0.5])
    cq, cl = 0.8, 0.6
    coeffs = _recursion_coefficients(cfg2, params, LemmaConstants(*[0.5] * 9), grid2d,
                                     ZERO, ZERO)
    rho = _matrix_spectral_radius_curve(k0max, coeffs, cq, cl, times)
    e_ab = 1 + cfg2.alpha0 - cfg2.beta0 - cfg2.alpha2 - cfg2.delta2
    e_b2 = 1 - cfg2.beta2
    for j, t in enumerate(times):
        k0 = cq * k0max[j]
        ta = cl * (t ** e_ab if t > 0 else 0.0)
        tb = cl * (t ** e_b2 if t > 0 else 0.0)
        mat = np.array([[k0, cl, cl], [k0 + ta, k0 + tb, cl], [k0, k0, k0]])
        oracle = np.max(np.abs(np.linalg.eigvals(mat)))
        assert rho[j] == pytest.approx(oracle, rel=1e-10, abs=1e-12)
    # k0(0) = 0 with positive t-powers: the matrix is nilpotent, radius 0
    assert rho[0] == pytest.approx(0.0, abs=1e-10)


def test_equality_branch_uses_matrix(params, constants):
    grid = mp.GridSpec(dim=2, n=16)
    boundary = mp.ExponentConfig(p=2, q=2, r=1.2, alpha0=0.75, beta0=0.25,
                                 gamma0=0.25)
    sel = mp.select_intermediate(boundary)
    assert sel.feasible
    u0, om0, th0 = _small_data(grid)
    times = np.linspace(0, 0.3, 25)
    consts = fit_lemma_constants(sel.config, grid, params, ensemble=4, seed=3)
    res = local_horizon(mp.start_state(u0, om0, th0), sel.config, params, consts, times)
    assert res.branch == "equality"
    assert "spectral_radius" in res.factors


def test_generic_constant_positive(grid2d, params, cfg2, constants):
    cg = max(contraction_coefficients(cfg2, params, constants, grid2d, ZERO, ZERO))
    assert cg > 0 and np.isfinite(cg)


def test_contraction_horizon_counts_the_forcing(grid2d, params, cfg2):
    """picard_solve's T* comes from the recursion of the forced system: the
    Lipschitz constants of f and g enter its linear coefficients."""
    consts = fit_lemma_constants(cfg2, grid2d, params, ensemble=4, seed=1)
    u0, om0, th0 = _small_data(grid2d)
    times = np.linspace(0, 0.5, 129)
    pic = mp.PicardConfig(horizon=0.5, m_max=1)
    f, g = mp.ForcingSpec("linear", (2.0, 0.0)), mp.ForcingSpec("linear", (2.0,))
    tstar = {}
    for name, forcing in (("zero", (ZERO, ZERO)), ("forced", (f, g))):
        _, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, *forcing, pic,
                                 constants=consts, times=times)
        tstar[name] = rep.tstar
    assert tstar == {"zero": 0.03125, "forced": None}
    assert local_horizon(mp.start_state(u0, om0, th0), cfg2, params, consts, times,
                         f, g).tstar is None
    zero_cl = contraction_coefficients(cfg2, params, consts, grid2d, ZERO, ZERO)[1]
    assert contraction_coefficients(cfg2, params, consts, grid2d, f, g)[1] > zero_cl


def test_small_data_bound_uses_the_grid_spectral_gaps():
    """global_solve's small-data threshold takes the generators' smallest
    eigenvalues on the run's grid: on a torus of length 3 they exceed 1, and
    so does the decay rate lambda that the semigroup constants need below
    them."""
    grid = mp.GridSpec(dim=2, n=16, length=3.0)
    params = mp.CouplingParams(mu=1.8, mu_r=0.2)
    base = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    cfg = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params)).config
    assert cfg.lam > 1.0
    consts = mp.LemmaConstants(*[0.5] * 9)
    u0, om0, th0 = _small_data(grid, amp=1e-3)
    pic = mp.PicardConfig(horizon=0.05, nodes_per_unit=128, tol=1e-10)
    res = mp.global_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic, 0.1,
                          constants=consts)
    assert res.completed and res.e_bound is not None
    cg = max(contraction_coefficients(cfg, params, consts, grid, ZERO, ZERO))
    assert res.e_bound > 0 and 2.0 * cg * res.e_bound < 1.0


def test_local_horizon_degenerate_report(grid2d, params, cfg2, constants):
    u0, om0, th0 = _small_data(grid2d, amp=10.0)
    times = np.linspace(0, 0.5, 33)
    res = local_horizon(mp.start_state(u0, om0, th0), cfg2, params, constants, times)
    assert res.tstar is None
    assert res.branch in ("strict", "equality")


def test_weighted_distance_from_free_evolution_dominated(grid2d, params, cfg2,
                                                         constants):
    """Shape check: t^(a - a0) || y(t) - free(t) || stays below a stable
    multiple of the free-evolution sup curve K0."""
    u0, om0, th0 = _small_data(grid2d, amp=0.05)
    pic = mp.PicardConfig(horizon=0.4, nodes_per_unit=64, tol=1e-10, m_max=20)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    from micropolar.solver import WeightedNorms
    norms = WeightedNorms(cfg2, grid2d, params)
    k0 = k0_curves(mp.start_state(u0, om0, th0), cfg2, params, traj.times)
    k0max = np.max(np.stack(list(k0.values())), axis=0)
    for tag, half in traj.coeffs.items():
        for exp in norms.exps[tag]:
            diff = half - traj.free[tag]
            curve = norms.weighted_curve(tag, diff, traj.times, exp)
            with np.errstate(invalid="ignore"):
                ratio = np.where(k0max > 0, curve / np.maximum(k0max, 1e-300), 0.0)
            assert np.all(np.isfinite(ratio))
            assert float(np.max(ratio)) < 10.0  # stable multiple for small data
