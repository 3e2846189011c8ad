import os

import numpy as np
import pytest

import micropolar as mp
from micropolar.analysis import (
    dependence_ratio,
    default_t_grid,
    initial_distance,
    holder_ratio_curve,
    make_report,
    pde_residual,
    residual_refinement_order,
    smoothing_ratio_curve,
    time_hoelder_quotients,
    vanishing_weight_proxy,
    verify_holder_difference,
)
from micropolar.kmbounds import holder_constant, semigroup_constant
from micropolar.solver import WeightedNorms, node_log, node_rhs

ZERO = mp.ForcingSpec.zero()


def _small_data(grid, seed=7, amp=0.1, sigma=3.0):
    rng = np.random.default_rng(seed)
    u0 = mp.leray_project(mp.random_field(grid, grid.dim, rng, sigma=sigma,
                                          amplitude=amp))
    om0 = mp.random_field(grid, 1 if grid.dim == 2 else 3, rng, sigma=sigma,
                          amplitude=amp)
    th0 = mp.random_field(grid, 1, rng, sigma=sigma, amplitude=amp)
    return u0, om0, th0


def _solve(grid, params, cfg, seed=7, amp=0.1, horizon=0.25, npu=96, **kw):
    u0, om0, th0 = _small_data(grid, seed=seed, amp=amp)
    pic = mp.PicardConfig(horizon=horizon, nodes_per_unit=npu, tol=1e-10, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic, **kw)
    assert rep.converged
    return (u0, om0, th0), traj


# -- smoothing --------------------------------------------------------------

def test_smoothing_alpha_zero_constant_one(grid2d):
    op = mp.laplace_operator(grid2d)
    rep = mp.verify_smoothing(op, 0.0, 0.5, ensemble=20, seed=0)
    assert rep.ratio_max == pytest.approx(1.0, abs=1e-10)


def test_smoothing_single_eigenmode_analytic(grid2d):
    op = mp.stokes_operator(grid2d)
    mode = mp.SpectralField.single_mode(grid2d, (1, 0), [0.0, 1.0])
    curve = smoothing_ratio_curve(op, mode, 0.5, 0.5, default_t_grid(4000))
    analytic = semigroup_constant(0.5, 0.5, 1.0)
    assert float(np.max(curve)) == pytest.approx(analytic, rel=1e-6)


def test_smoothing_ensemble_below_bound(grid2d):
    op = mp.stokes_operator(grid2d)
    rep = mp.verify_smoothing(op, 0.5, 0.5, ensemble=60, seed=2, solenoidal=True)
    assert rep.verdict
    assert rep.ratio_max <= semigroup_constant(0.5, 0.5, 1.0) * (1 + 1e-9)


def test_smoothing_rejects_bad_lambda(grid2d):
    with pytest.raises(ValueError):
        mp.verify_smoothing(mp.laplace_operator(grid2d), 0.5, 1.5, ensemble=2)


def test_holder_difference_bounded(grid2d):
    rep = verify_holder_difference(mp.laplace_operator(grid2d), 0.5,
                                   ensemble=40, seed=1)
    assert rep.ratio_max <= holder_constant(0.5) * (1 + 1e-9)
    mode = mp.SpectralField.single_mode(grid2d, (1, 0), 1.0)
    curve = holder_ratio_curve(mp.laplace_operator(grid2d), mode, 0.5,
                               default_t_grid(2000))
    # single mode: sup_t (1 - e^{-t}) / t^0.5 equals the analytic constant
    assert float(np.max(curve)) == pytest.approx(holder_constant(0.5), rel=1e-4)


def test_vanishing_weight_proxy(grid2d):
    res = vanishing_weight_proxy(mp.laplace_operator(grid2d), 0.5, ensemble=10,
                                 seed=4)
    assert res["all_monotone"]
    assert res["min_shrink_factor"] > 10.0


# -- embeddings -------------------------------------------------------------

def test_embedding_identity_cases(grid2d):
    rep = mp.verify_embeddings(0.0, 2.0, 0, 2.0, grid2d, ensemble=20, seed=0)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        mp.verify_embeddings(0.25, 2.0, 1, 2.0, grid2d)  # 1/s below the range


def test_embedding_gradient_case_bounded(grid2d):
    rep = mp.verify_embeddings(0.5, 2.0, 1, 2.0, grid2d, ensemble=30, seed=0)
    # ||u||_{W^{1,2}} = ||u||_2 + ||grad u||_2 <= (1 + 1) ||A^(1/2) u||_2 on
    # mean-zero fields with smallest eigenvalue 1
    assert rep.ratio_max <= 2.0 + 1e-9
    assert rep.verdict


# -- bilinear reports -------------------------------------------------------

def test_bilinear_zero_slot_gives_zero(grid2d, params, cfg2, rng):
    om = mp.SpectralField.zero(grid2d, 1)
    # direct check of the trivial case: omega = 0 in the curl estimate
    lhs = mp.apply_operator(mp.stokes_operator(grid2d, power=-cfg2.delta1),
                            mp.leray_project(mp.rot(om)))
    assert lhs.l2() == 0.0


def test_bilinear_identity_case_213(grid2d, params, cfg2):
    # linear forcing with gamma2 = 0 and q = r would give ratio exactly 1;
    # here gamma2 > 0 so the single-mode probe realizes eig^(-gamma2)
    rep = mp.verify_bilinear("2.13", cfg2, grid2d, params,
                             g=mp.ForcingSpec("linear", (0.7,)),
                             ensemble=10, seed=0)
    assert rep.ratio_max == pytest.approx(1.0, rel=1e-9)
    assert rep.verdict


def test_report_stability_rule():
    good = make_report("x", np.full(40, 2.0))
    assert good.verdict
    spiky = np.full(40, 1.0)
    spiky[-1] = 2.0
    assert not make_report("x", spiky).verdict
    assert not make_report("x", np.array([np.inf] * 10)).verdict


# -- decay fits -------------------------------------------------------------

def test_fit_decay_pure_semigroup_single_mode(grid2d, params, cfg2):
    th0 = mp.SpectralField.single_mode(grid2d, (2, 0), 1.0)  # eigenvalue 4
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    # quadratically graded nodes resolve the small-t window
    times = 2.0 * np.linspace(0, 1, 257) ** 2
    traj = mp.initial_trajectory(mp.start_state(z2, z1, th0), times, params)
    fits = mp.fit_decay(node_log(traj, WeightedNorms(cfg2, grid2d, params)), cfg2,
                        exponents={"th": [cfg2.gamma0]},
                        window_small=(times[1], 3e-3),
                        window_large=(0.5, 2.0))
    slope = next(f for f in fits if f.kind == "slope")
    rate = next(f for f in fits if f.kind == "rate")
    assert abs(slope.value) <= 0.01          # no small-t blowup in Z^(gamma0)
    assert rate.value == pytest.approx(4.0, rel=1e-6)


def test_fit_decay_fits_each_distinct_exponent_once(grid2d, params):
    from micropolar.cli import load_config

    example = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "example_run.json")
    cfg = load_config(example).exponents
    assert cfg.gammas() == (0.03125, 0.03125, 0.03125)
    _, traj = _solve(grid2d, params, cfg, horizon=0.1, npu=320)
    fits = mp.fit_decay(node_log(traj, WeightedNorms(cfg, grid2d, params)), cfg,
                        window_small=(traj.times[2], 0.05))
    want = [f"{tag}^{x}" for tag, exps in (("u", cfg.alphas()), ("om", cfg.betas()),
                                           ("th", cfg.gammas()))
            for x in dict.fromkeys(exps)]
    assert [fit.tag for fit in fits] == want
    assert [fit.tag for fit in fits].count("th^0.03125") == 1


def test_fit_decay_zero_data_skipped(grid2d, params, cfg2):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 1, 33)
    traj = mp.initial_trajectory(mp.start_state(z2, z1, z1), times, params)
    fits = mp.fit_decay(node_log(traj, WeightedNorms(cfg2, grid2d, params)), cfg2,
                        window_small=(times[1], 0.5))
    assert all(f.kind == "skipped" for f in fits)


# -- residuals --------------------------------------------------------------

def test_pde_residual_zero_data(grid2d, params, cfg2):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 0.5, 17)
    traj = mp.initial_trajectory(mp.start_state(z2, z1, z1), times, params)
    res = pde_residual(traj, params)
    assert all(np.all(res[tag] == 0.0) for tag in ("u", "om", "th"))


def test_pde_residual_linear_single_mode(grid2d, params, cfg2):
    # pure-decay mode: the trajectory is exact, so with the analytic time
    # derivative the equation residual is at machine precision, and the
    # finite-difference residual is bounded by its truncation constant
    mu = 4.0
    th0 = mp.SpectralField.single_mode(grid2d, (2, 0), 1.0)
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=512, tol=1e-13, m_max=10,
                          linear_only=True)
    traj, _ = mp.picard_solve(mp.start_state(z2, z1, th0), cfg2, params, ZERO, ZERO, pic)
    b_op = mp.laplace_operator(grid2d, coeff=params.heat_coeff)
    rhs_th = node_rhs(traj, params, ZERO, ZERO, linear_only=True)["th"]
    for j in (5, 50, 100):
        th = traj.state_at(j)[2]
        analytic_dt = (-mu) * th
        resid = (analytic_dt + mp.apply_operator(b_op, th)
                 - mp.SpectralField(grid2d, rhs_th[j]))
        assert resid.l2() <= 1e-10
    res = pde_residual(traj, params, ZERO, ZERO, linear_only=True)
    dt = 1.0 / 512
    assert np.max(res["th"]) <= dt ** 2 * mu ** 3 * th0.l2()
    assert np.max(res["u"]) <= 1e-12


def test_residual_refinement_order(grid2d, params, cfg2):
    levels = []
    for npu in (64, 128, 256):
        _, traj = _solve(grid2d, params, cfg2, amp=0.3, npu=npu)
        levels.append(pde_residual(traj, params))
    orders = residual_refinement_order(levels)
    assert all(o >= 1.8 for o in orders)


# -- dependence and regularity ----------------------------------------------

def test_dependence_identical_runs(grid2d, params, cfg2):
    data, traj = _solve(grid2d, params, cfg2)
    ratios = dependence_ratio(traj, traj, cfg2, params, d0=1.0)
    assert all(v == 0.0 for v in ratios.values())


def test_dependence_linear_scaling(grid2d, params, cfg2):
    (u0, om0, th0), base = _solve(grid2d, params, cfg2, amp=0.2)
    rng = np.random.default_rng(99)
    direction = mp.leray_project(mp.random_field(grid2d, 2, rng, amplitude=1.0))
    ratios = {}
    for delta in (1e-4, 5e-5):
        up = mp.leray_project(u0 + delta * direction)
        pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=96, tol=1e-12, m_max=30)
        pert, rep = mp.picard_solve(mp.start_state(up, om0, th0), cfg2, params, ZERO, ZERO, pic)
        assert rep.converged
        d0 = initial_distance(u0, up, om0, om0, th0, th0, cfg2, params)
        ratios[delta] = max(dependence_ratio(base, pert, cfg2, params, d0).values())
    r1, r2 = ratios[1e-4], ratios[5e-5]
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def test_time_hoelder_quotients(grid2d, params, cfg2):
    _, traj = _solve(grid2d, params, cfg2, amp=0.2)
    res = time_hoelder_quotients(traj, cfg2, params, alpha_hat=0.5,
                                 tau=float(traj.times[-1]) / 4)
    assert np.isfinite(res["sup"]) and res["sup"] > 0
    assert not res["small_h_blowup"]   # smooth away from t = 0: the quotient falls
    with pytest.raises(ValueError):
        time_hoelder_quotients(traj, cfg2, params, 0.5, tau=0.0)


# -- energy -----------------------------------------------------------------

def test_energy_zero_data(grid2d, params, cfg2):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 0.5, 17)
    traj = mp.initial_trajectory(mp.start_state(z2, z1, z1), times, params)
    elog = mp.energy_report(traj, params, ZERO, ZERO)
    assert np.all(elog.total == 0.0)


def test_energy_conservation_and_monotonicity(grid2d, params, cfg2):
    _, traj = _solve(grid2d, params, cfg2, amp=0.3, npu=128)
    elog = mp.energy_report(traj, params, ZERO, ZERO)
    assert elog.conservative
    assert elog.relative_drift <= 1e-3
    assert elog.kinetic_monotone()
    # discrete dissipation identity: d/dt kinetic ~ -int Phi
    resid = elog.identity_residuals()
    assert np.max(np.abs(resid)) <= 5e-2 * max(np.max(elog.dissipation), 1e-12)


def test_energy_with_forcing_logs_work(grid2d, params, cfg2):
    rng = np.random.default_rng(3)
    u0 = mp.leray_project(mp.random_field(grid2d, 2, rng, amplitude=0.1, sigma=3.0))
    om0 = mp.random_field(grid2d, 1, rng, amplitude=0.1, sigma=3.0)
    th0 = mp.random_field(grid2d, 1, rng, amplitude=0.1, sigma=3.0)
    f = mp.ForcingSpec("linear", (0.05, 0.0))
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=64, tol=1e-9, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, f, ZERO, pic)
    assert rep.converged
    elog = mp.energy_report(traj, params, f, ZERO)
    assert not elog.conservative
    assert np.any(elog.forcing_work != 0.0)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_forced_ledger_work_matches_per_node_inner_products(dim, n, params, monkeypatch):
    """The ledger's work term, read per node block from the half spectra,
    is the per-node inner product of the dealiased forcings of state_at's
    temperature with its velocity and microrotation."""
    from micropolar import solver
    from micropolar.nonlinear import evaluate_forcing

    # blocks of 4 nodes: two full blocks and a short one
    monkeypatch.setattr(solver, "rhs_block_size", lambda grid, ncomp: 4)
    grid = mp.GridSpec(dim=dim, n=n)
    om_comp = 1 if dim == 2 else 3
    rng = np.random.default_rng(11)
    u0 = mp.leray_project(mp.random_field(grid, dim, rng, amplitude=0.3, sigma=3.0))
    om0 = mp.random_field(grid, om_comp, rng, amplitude=0.3, sigma=3.0)
    th0 = mp.random_field(grid, 1, rng, amplitude=0.5, sigma=1.0, mean_zero=False)
    f = mp.ForcingSpec("tanh", (0.7, -0.4, 0.2)[:dim], scale=0.3)
    g = mp.ForcingSpec("linear", (0.5, -0.3, 0.2)[:om_comp])
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), np.linspace(0, 0.1, 10), params,
                                 strict=False)
    traj = mp.picard_step(traj, params, f, g)
    elog = mp.energy_report(traj, params, f, g)
    want = []
    for j in range(traj.node_count):
        u, om, th = traj.state_at(j)
        fu, gw = evaluate_forcing(f, th, dim), evaluate_forcing(g, th, om_comp)
        want.append(params.rho * grid.volume * (
            np.sum(np.real(np.conj(fu.coeffs) * u.coeffs))
            + np.sum(np.real(np.conj(gw.coeffs) * om.coeffs))))
    assert not elog.conservative and np.min(np.abs(want)) > 0
    np.testing.assert_allclose(elog.forcing_work, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("mu_r", [0.1, 0.4])
def test_ledger_dissipation_of_a_shear_flow(mu_r):
    """u = (0, a sin x), om = 0: D has the off-diagonal a cos(x) / 2 and
    rot u = a cos x, so int Phi = (mu + mu_r) a^2 |Omega| / 2."""
    from micropolar.analysis import _dissipation_integrals

    grid, a = mp.GridSpec(dim=2, n=16), 0.7
    params = mp.CouplingParams(mu=0.8, mu_r=mu_r)
    u = mp.SpectralField.single_mode(grid, (1, 0), [0.0, -0.5j * a])
    om = mp.SpectralField.zero(grid, 1)
    got = _dissipation_integrals(grid, u.half[np.newaxis], om.half[np.newaxis], params)[0]
    want = (params.mu + mu_r) * a ** 2 * grid.volume / 2
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("mu_r", [0.0, 0.3])
def test_ledger_dissipation_matches_transformed_phi(dim, n, mu_r):
    """The Parseval sum of every node is the volume times the mean mode of
    dissipation_coeffs, the grid integral of the transformed dissipation
    function, within rounding, on random states inside the dealias ball."""
    from micropolar.analysis import _dissipation_integrals
    from micropolar.nonlinear import dissipation_coeffs

    grid = mp.GridSpec(dim=dim, n=n)
    params = mp.CouplingParams(mu=0.7, mu_r=mu_r, c0=0.4, ca=0.3, cd=0.8)
    om_comp = 1 if dim == 2 else 3
    rng = np.random.default_rng(5)
    uh = np.stack([mp.random_field(grid, dim, rng, sigma=1.0).half for _ in range(4)])
    omh = np.stack([mp.random_field(grid, om_comp, rng, sigma=1.0, mean_zero=False).half
                    for _ in range(4)])
    got = _dissipation_integrals(grid, uh, omh, params)
    mean = (slice(None), 0) + (0,) * dim
    want = grid.volume * dissipation_coeffs(grid, uh, uh, omh, omh, params)[mean].real
    assert np.min(want) > 0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_fitted_constants_seed_stable(grid2d, params, cfg2):
    """Fitted estimate constants reproduce across seeds within 10%."""
    for lemma in ("2.5", "2.9"):
        a = mp.verify_bilinear(lemma, cfg2, grid2d, params, ensemble=12,
                               seed=5).fitted_constant
        b = mp.verify_bilinear(lemma, cfg2, grid2d, params, ensemble=12,
                               seed=77).fitted_constant
        assert abs(a - b) <= 0.1 * max(a, b)


def test_ensemble_members_independent_of_size(grid2d, params, cfg2):
    # each member owns a spawned stream: the first k members of an ensemble
    # of n are an ensemble of k, bit for bit (2.5-2.8 maximize their members
    # in one lockstep block, whose size must not change a member; 2.10 runs
    # its cross-check of at most CROSS_CHECK_MEMBERS)
    for lemma, n, k in (("2.10", 4, 2), ("2.6", 2, 1), ("2.5", 3, 1), ("2.8", 3, 1)):
        full = mp.verify_bilinear(lemma, cfg2, grid2d, params, ensemble=n, seed=5)
        head = mp.verify_bilinear(lemma, cfg2, grid2d, params, ensemble=k, seed=5)
        assert full.ratios.size == n
        assert np.array_equal(full.ratios[:k], head.ratios)


# -- zero-order estimates as L2 Fourier multipliers ------------------------

# generic material constants, so that no symbol sup is 1 by accident
_SYMBOL_PARAMS = mp.CouplingParams(mu=0.7, mu_r=0.2, c0=0.4, ca=0.3, cd=0.6,
                                   kappa=0.8, rho=1.3)


def _selected(grid, params, p=2.0, q=2.0, r=2.0):
    from micropolar.cli import lambda_chain_cap

    base = mp.ExponentConfig(p=p, q=q, r=r, alpha0=0.5, beta0=0.5, gamma0=0.0)
    sel = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params))
    assert sel.feasible
    return sel.config


def _forcings(dim, kind):
    if kind == "zero":
        return ZERO, ZERO
    # linear, off the e1 axis
    return (mp.ForcingSpec("linear", (0.6, 0.8, 0.3)[:dim]),
            mp.ForcingSpec("linear", (0.5,) if dim == 2 else (0.5, -0.2, 0.7)))


@pytest.mark.parametrize("forcing", ["zero", "linear"])
@pytest.mark.parametrize("dim, n", [(2, 16), (2, 32), (3, 8)])
def test_zero_order_symbol_sup_is_its_single_mode_ratio(dim, n, forcing):
    from micropolar.analysis import _estimate_ratio, _symbol_extremal
    from micropolar.solver import WeightedNorms

    grid, params = mp.GridSpec(dim=dim, n=n), _SYMBOL_PARAMS
    cfg = _selected(grid, params)
    f, g = _forcings(dim, forcing)
    norms = WeightedNorms(cfg, grid, params)
    for lemma in ("2.9", "2.10", "2.11", "2.12", "2.13"):
        sup, x = _symbol_extremal(lemma, cfg, f, g, norms)
        ratio = _estimate_ratio(lemma, norms, params, f, g, x)
        assert ratio == pytest.approx(sup, rel=1e-12), lemma
    # 2.10 in closed form: the lowest transverse mode, (c_perp lambda1)^-beta2
    sup, _ = _symbol_extremal("2.10", cfg, f, g, norms)
    want = (params.gamma_perp_coeff * mp.lambda1(grid)) ** (-cfg.beta2)
    assert sup == pytest.approx(want, rel=1e-12)
    if forcing == "linear":
        # off e1 the Leray factor |P(k)c|/|c| peaks off the lowest modes: the
        # symbol's mode beats the transverse mode of the unit e1 probe
        k_perp = (0,) * (dim - 1) + (1,)
        low = _estimate_ratio("2.12", norms, params, f, g,
                              mp.SpectralField.single_mode(grid, k_perp, 1.0))
        assert _symbol_extremal("2.12", cfg, f, g, norms)[0] > 1.001 * low


def test_zero_order_constant_is_symbol_mode_with_cross_check(grid2d, params, cfg2):
    from micropolar.analysis import CROSS_CHECK_MEMBERS

    for lemma in ("2.9", "2.10", "2.11", "2.12", "2.13"):
        rep = mp.verify_bilinear(lemma, cfg2, grid2d, params, ensemble=20, seed=4)
        assert rep.verdict and rep.ensemble_size == CROSS_CHECK_MEMBERS
        assert np.all(rep.ratios <= rep.fitted_constant * (1 + 1e-6))
        assert rep.ratio_max == rep.fitted_constant
    # 2.9-2.11 read no forcing: tanh leaves them L2 multipliers
    tanh_f = mp.ForcingSpec("tanh", (0.6, 0.8), scale=0.5)
    tanh_g = mp.ForcingSpec("tanh", (0.5,), scale=0.5)
    for lemma in ("2.9", "2.10", "2.11"):
        rep = mp.verify_bilinear(lemma, cfg2, grid2d, params, tanh_f, tanh_g,
                                 ensemble=20, seed=4)
        assert rep.verdict and rep.ensemble_size == CROSS_CHECK_MEMBERS


@pytest.mark.parametrize("lemma, forcing, p", [
    ("2.12", "tanh", 2.0), ("2.13", "tanh", 2.0), ("2.9", "zero", 3.0),
    ("2.12", "zero", 3.0)])
def test_nonhilbert_zero_order_keeps_full_ensemble(grid2d, params, lemma, forcing, p):
    from micropolar.analysis import _estimate_ratio, _symbol_extremal
    from micropolar.solver import WeightedNorms

    cfg = _selected(grid2d, params, p=p)
    f = g = ZERO
    if forcing == "tanh":
        f = mp.ForcingSpec("tanh", (0.6, 0.8), scale=0.5)
        g = mp.ForcingSpec("tanh", (0.5,), scale=0.5)
    rep = mp.verify_bilinear(lemma, cfg, grid2d, params, f, g, ensemble=6, seed=2)
    assert rep.ensemble_size == 6 and rep.ratios.size == 6
    assert rep.fitted_constant == rep.ratio_max == float(np.max(rep.ratios))
    if forcing == "zero":
        # every member folds in the ratio at the L2 symbol's extremal mode
        norms = WeightedNorms(cfg, grid2d, params)
        x = _symbol_extremal(lemma, cfg, f, g, norms)[1]
        assert np.all(rep.ratios >= _estimate_ratio(lemma, norms, params, f, g, x))


# -- exact restricted maximization against the per-field reference --------
#
# The reference below maps one basis field at a time through the estimate's
# left side and sums the maximizer field by field; analysis maps the stacked
# basis at once and factors each slot's weight once per call.


def _reference_mode_basis(grid, components, kmax):
    ks = np.meshgrid(*[np.fft.fftfreq(grid.n, 1.0 / grid.n)] * grid.dim, indexing="ij")
    reps = []
    for idx in np.ndindex(*grid.shape):
        kv = tuple(int(ks[a][idx]) for a in range(grid.dim))
        if not all(abs(k) <= kmax for k in kv) or all(k == 0 for k in kv):
            continue
        if next(k for k in kv if k != 0) < 0:
            continue
        reps.append(kv)
    basis = []
    for kv in reps:
        for c in range(components):
            amp = np.zeros(components, dtype=complex)
            amp[c] = 0.5
            basis.append(mp.SpectralField.single_mode(grid, kv, amp))
            amp[c] = -0.5j
            basis.append(mp.SpectralField.single_mode(grid, kv, amp))
    return basis


def _stack_real(coeffs):
    flat = coeffs.reshape(-1)
    return np.concatenate([flat.real, flat.imag])


def _reference_slot_sup(fwd, weight, basis, project=None):
    fields, b_cols, s_cols = [], [], []
    for v in basis:
        if project is not None:
            v = project(v)
        w = weight(v)
        if w.l2() < 1e-12:
            continue
        fields.append(v)
        b_cols.append(_stack_real(w.coeffs))
        s_cols.append(_stack_real(fwd(v).coeffs))
    _, r_mat = np.linalg.qr(np.stack(b_cols, axis=1))
    r_pinv = np.linalg.pinv(r_mat, rcond=1e-10)
    _, sing, vt = np.linalg.svd(np.stack(s_cols, axis=1) @ r_pinv, full_matrices=False)
    x = r_pinv @ vt[0]
    out = fields[0] * float(x[0])
    for i in range(1, len(fields)):
        out = out + fields[i] * float(x[i])
    return float(sing[0]), out


def _reference_pair_sup(lemma_id, cfg, grid, params, rng, kmax=2, alternations=3,
                        sigma=2.0):
    from micropolar.solver import WeightedNorms

    a_op, g_op, b_op = mp.generators(grid, params)
    norms = WeightedNorms(cfg, grid, params)
    dim = grid.dim
    om_comp = 1 if dim == 2 else 3
    vec = _reference_mode_basis(grid, dim, kmax)
    mic = _reference_mode_basis(grid, om_comp, kmax)
    scal = _reference_mode_basis(grid, 1, kmax)
    P = mp.leray_project

    def unit(tag, fld, exp):
        n = norms.fractional_norm(tag, fld, exp)
        return fld * (1.0 / n) if n > 0 else fld

    def power(op, x):
        return lambda w: mp.apply_operator(op.with_power(x), w)

    alpha = {"2.5": cfg.alpha1, "2.6": cfg.alpha2}.get(lemma_id, cfg.alpha3)
    u = unit("u", P(mp.random_field(grid, dim, rng, sigma=sigma, kmax=kmax)), alpha)
    best = 0.0
    if lemma_id == "2.8":
        zero_u = mp.SpectralField.zero(grid, dim)
        zero_om = mp.SpectralField.zero(grid, om_comp, mean_zero=False)
        left_tag, left = "u", u
        for _ in range(alternations):
            lu = left if left_tag == "u" else zero_u
            lo = left if left_tag == "om" else zero_om
            sup_v, v = _reference_slot_sup(
                lambda w: mp.dissipation_phi(lu, w, lo, zero_om, params),
                power(a_op, cfg.alpha3), vec, project=P)
            sup_p, psi = _reference_slot_sup(
                lambda w: mp.dissipation_phi(lu, zero_u, lo, w, params),
                power(g_op, cfg.beta3), mic)
            best = max(best, sup_v, sup_p)
            if sup_v >= sup_p:
                left_tag, left = "u", unit("u", v, cfg.alpha3)
            else:
                left_tag, left = "om", unit("om", psi, cfg.beta3)
        return best
    op, delta, tag, exp, basis, project = {
        "2.5": (a_op, cfg.delta1, "u", cfg.alpha1, vec, P),
        "2.6": (g_op, cfg.delta2, "om", cfg.beta2, mic, None),
        "2.7": (b_op, cfg.delta3, "th", cfg.gamma3, scal, None)}[lemma_id]
    weight = power({"u": a_op, "om": g_op, "th": b_op}[tag], exp)

    def lhs(x, y):
        adv = mp.advect(x, y)
        return mp.apply_operator(op.with_power(-delta),
                                 P(adv) if lemma_id == "2.5" else adv)

    for _ in range(alternations):
        sup_w, w = _reference_slot_sup(lambda z: lhs(u, z), weight, basis, project)
        w = unit(tag, w, exp)
        sup_u, u = _reference_slot_sup(lambda z: lhs(z, w), power(a_op, alpha), vec, P)
        u = unit("u", u, alpha)
        best = max(best, sup_w, sup_u)
    return best


_LEMMAS = ["2.5", "2.6", "2.7", "2.8"]
# configured grids: 2D n=16 and 3D n=8 (the conftest grids), 2D n=12, whose 2/3
# cutoff of 4 the exact-sup grid keeps, 2D n=32, and 3D n=12 for 2.7 only
# (the 3D reference of the other lemmas takes about 5 s each)
_EXACT_SUP_CASES = (
    [pytest.param(dim, n, lemma, id=f"{dim}-{lemma}")
     for dim, n in ((2, 16), (3, 8)) for lemma in _LEMMAS]
    + [pytest.param(2, n, lemma, id=f"2n{n}-{lemma}")
       for n in (12, 32) for lemma in _LEMMAS]
    + [pytest.param(3, 12, "2.7", id="3n12-2.7")])


@pytest.mark.parametrize("dim, n, lemma", _EXACT_SUP_CASES)
def test_exact_pair_sup_matches_per_field_reference(dim, n, lemma, params):
    # the reference runs on the configured grid, the batched path on the
    # alias-free grid of its mode basis
    from micropolar.analysis import _exact_sups, _slot_spaces, ensemble_rngs
    from micropolar.cli import lambda_chain_cap

    grid = mp.GridSpec(dim=dim, n=n)
    base = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    cfg = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params)).config
    # the 3D basis has 372 velocity fields: one member, one alternation
    members, alternations = (2, 3) if dim == 2 else (1, 1)
    spaces = _slot_spaces(lemma, cfg, grid, params)
    assert all(s.grid.n == min(n, 10) for s in spaces.values())
    sups = _exact_sups(lemma, cfg, grid, params, spaces, ensemble_rngs(3, members),
                       alternations=alternations)
    assert sups.shape == (members,)
    for got, rng_ref in zip(sups, ensemble_rngs(3, members)):
        want = _reference_pair_sup(lemma, cfg, grid, params, rng_ref,
                                   alternations=alternations)
        assert want > 0
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("dim, n, want", [(2, 8, 8), (2, 10, 10), (2, 12, 10),
                                          (2, 16, 10), (2, 32, 10), (3, 16, 10)])
def test_exact_grid_holds_the_slot_products(dim, n, want):
    # |k|_inf <= 2 fields have products at |k|_inf <= 4: ten points hold them,
    # and the dealias cutoff stays the configured one where that is below 5
    from micropolar.analysis import _exact_grid
    from micropolar.fields import dealias_mask, integer_wavevectors

    grid = mp.GridSpec(dim=dim, n=n)
    small = _exact_grid(grid)
    assert (small.dim, small.n, small.length) == (dim, want, grid.length)
    cutoff = min(5.0, grid.dealias_fraction * n / 2)
    kept = dealias_mask(small)
    k = np.max(np.abs(np.stack(integer_wavevectors(small))), axis=0)
    assert np.array_equal(kept, k <= cutoff)
    if n <= 10:
        assert small == grid


def test_exact_sup_blocks_follow_byte_budget(params, monkeypatch):
    # a block keeps one grid array per field plane of its largest slot within
    # RHS_BLOCK_BYTES: the 24 x 2 velocity planes of the 2D n = 10 grid allow
    # 20 members, so 2D n = 32 runs its 16 in one block; the 248 x 3 planes
    # of 3D (5.9 MB) allow one
    from micropolar import analysis
    from micropolar.analysis import _member_block_size, _slot_spaces
    from micropolar.solver import RHS_BLOCK_BYTES

    grid2, grid3 = mp.GridSpec(dim=2, n=32), mp.GridSpec(dim=3, n=16)
    cfg = _selected(grid2, params)
    for lemma in _LEMMAS:
        spaces = _slot_spaces(lemma, cfg, grid2, params)
        assert spaces["u"].values.shape == (2, 24, 10, 10)
        assert _member_block_size(spaces) == RHS_BLOCK_BYTES // (24 * 2 * 100 * 8) == 20
    spaces = _slot_spaces("2.5", _selected(grid3, params), grid3, params)
    assert spaces["u"].values.shape == (3, 248, 10, 10, 10)
    assert 248 * 3 * 1000 * 8 > RHS_BLOCK_BYTES
    assert _member_block_size(spaces) == 1

    blocks, sups = [], analysis._exact_sups

    def counted(lemma, cfg, grid, params, spaces, rngs, **kw):
        blocks.append(len(rngs))
        return sups(lemma, cfg, grid, params, spaces, rngs, **kw)

    monkeypatch.setattr(analysis, "_exact_sups", counted)
    rep = mp.verify_bilinear("2.7", cfg, grid2, params, ensemble=40, seed=1)
    assert blocks == [16] and rep.ratios.size == 16


@pytest.mark.parametrize("dim", [2, 3])
def test_slot_spaces_are_weight_orthonormal(dim, params, monkeypatch):
    # the fields have an identity weight Gram matrix and span the projected
    # mode basis, whose rank in 2D is 24 in every slot (the velocity basis
    # has 48 fields); the kept grid values are theirs.  Every SVD has at
    # most 25 columns, below LAPACK's divide-and-conquer crossover, whose
    # calls wake OpenBLAS's threads
    from micropolar.analysis import _parseval_rows, _slot_spaces
    from micropolar.fields import half_spectrum, irfft_half
    from micropolar.operators import power_coeffs

    columns, svd = [], np.linalg.svd

    def recorded(a, *args, **kw):
        columns.append(np.shape(a)[-1])
        return svd(a, *args, **kw)

    grid = mp.GridSpec(dim=dim, n=32 if dim == 2 else 8)
    cfg = _selected(grid, params)
    comps = {"u": dim, "om": 1 if dim == 2 else 3, "th": 1}
    for lemma in ("2.6", "2.7"):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", recorded)
            spaces = _slot_spaces(lemma, cfg, grid, params)
        assert columns and max(columns) <= 25
        for tag, space in spaces.items():
            small = space.grid
            rows = _parseval_rows(small, power_coeffs(space.weight, space.fields))
            assert np.allclose(rows @ rows.T, np.eye(len(rows)), rtol=0, atol=1e-12)
            basis = _reference_mode_basis(small, comps[tag], 2)
            if tag == "u":
                basis = [mp.leray_project(b) for b in basis]
            old = np.stack([half_spectrum(b.coeffs) for b in basis])
            rank = np.linalg.matrix_rank(_parseval_rows(small, old), tol=1e-10)
            both = np.concatenate([old, space.fields])
            assert len(space.fields) == rank
            assert np.linalg.matrix_rank(_parseval_rows(small, both), tol=1e-10) == rank
            if dim == 2:
                assert rank == 24 and (tag != "u" or len(basis) == 48)
            values = irfft_half(small, space.fields)
            assert np.allclose(np.swapaxes(values, 0, 1), space.values, rtol=0, atol=1e-13)


def _reference_smoothing_curve(op, f, alpha, lam, t_grid):
    """The per-member formula: every call builds its own decay matrices."""
    from micropolar.analysis import _mode_energies

    fams = _mode_energies(op, f)
    total = sum(np.sum(e) for _, e in fams)
    vals = np.zeros_like(t_grid, dtype=np.float64)
    for eig, energy in fams:
        pos = eig > 0
        mu, en = eig[pos], energy[pos]
        amp = mu ** (2 * alpha) if alpha != 0 else np.ones_like(mu)
        vals += np.exp(-2.0 * np.outer(t_grid, mu)) @ (amp * en)
        if alpha == 0:
            vals += np.sum(energy[~pos])
    weight = np.where(t_grid > 0, t_grid, 1.0) ** alpha
    if alpha > 0:
        weight = np.where(t_grid > 0, weight, 0.0)
    return weight * np.exp(lam * t_grid) * np.sqrt(vals / total)


@pytest.mark.parametrize("kind", ["stokes", "gamma", "laplace"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_smoothing_ratios_match_per_member_formula(grid2d, params, kind, alpha):
    from micropolar.analysis import ensemble_rngs, extremal_smoothing_probe

    ops = dict(zip(("stokes", "gamma", "laplace"), mp.generators(grid2d, params)))
    op = ops[kind]
    lam = 0.5 * op.min_positive_eigenvalue()
    comp = 1 if kind == "laplace" else 2
    rep = mp.verify_smoothing(op, alpha, lam, ensemble=6, seed=3)
    t_grid = default_t_grid()
    probe = float(np.max(_reference_smoothing_curve(
        op, extremal_smoothing_probe(op, comp), alpha, lam, t_grid)))
    # the random members cross-check the probe: min(6, CROSS_CHECK_MEMBERS)
    # of them, each its own curve's max
    want = [float(np.max(_reference_smoothing_curve(
        op, mp.random_field(grid2d, comp, rng), alpha, lam, t_grid)))
        for rng in ensemble_rngs(3, 4)]
    assert rep.ratios.tolist() == want
    assert rep.fitted_constant == probe
    assert rep.ratio_max == max(want + [probe])


def _reference_holder_curve(op, f, alpha, t_grid):
    """The per-member formula: every call builds its own difference matrices."""
    from micropolar.analysis import _mode_energies

    fams = _mode_energies(op, f)
    denom_sq = sum(np.sum(np.where(e > 0, e ** (2 * alpha), 0.0) * en)
                   for e, en in fams)
    vals = np.zeros_like(t_grid, dtype=np.float64)
    for eig, energy in fams:
        pos = eig > 0
        vals += (np.expm1(-np.outer(t_grid, eig[pos])) ** 2) @ energy[pos]
    tpos = np.where(t_grid > 0, t_grid, 1.0)
    return np.where(t_grid > 0, np.sqrt(vals) / (tpos ** alpha * np.sqrt(denom_sq)),
                    0.0)


@pytest.mark.parametrize("target, solenoidal", [("2.1", False), ("2.1", True),
                                                ("2.2", False)])
def test_generator_rows_share_work_bit_for_bit(grid2d, params, target, solenoidal):
    """The alpha rows of one generator share its t grid, matrices and member
    fields: in alpha order and in reverse, each row equals the row computed
    alone and the per-member formula."""
    from micropolar.analysis import (
        _probe_t_grid,
        _probe_work,
        ensemble_rngs,
        extremal_smoothing_probe,
    )

    def row(op, alpha):
        if target == "2.1":
            return mp.verify_smoothing(op, alpha, 0.5 * op.min_positive_eigenvalue(),
                                       ensemble=6, seed=3, solenoidal=solenoidal)
        return verify_holder_difference(op, alpha, ensemble=6, seed=3)

    def reference(op, f, alpha):
        t_grid = _probe_t_grid(op)
        if target == "2.1":
            lam = 0.5 * op.min_positive_eigenvalue()
            return float(np.max(_reference_smoothing_curve(op, f, alpha, lam, t_grid)))
        return float(np.max(_reference_holder_curve(op, f, alpha, t_grid)))

    alphas = (0.25, 0.5, 0.75, 1.0) if target == "2.1" else (0.25, 0.5, 1.0)
    ops = mp.generators(grid2d, params)[:2 if solenoidal else 3]
    for op in ops:
        comp = 1 if op.kind.value == "laplace" else 2
        fields = [mp.random_field(grid2d, comp, rng) for rng in ensemble_rngs(3, 4)]
        if solenoidal:
            fields = [mp.leray_project(f) for f in fields]
        alone = {}
        for alpha in alphas:
            _probe_work.cache_clear()
            alone[alpha] = row(op, alpha)
        for order in (alphas, alphas[::-1]):
            for alpha in order:
                rep = row(op, alpha)
                assert rep.ratios.tolist() == alone[alpha].ratios.tolist()
                assert rep.ratios.tolist() == [reference(op, f, alpha) for f in fields]
                assert rep.fitted_constant == alone[alpha].fitted_constant \
                    == reference(op, extremal_smoothing_probe(op, comp), alpha)
    # one generator's arrays at a time
    for op in ops:
        row(op, alphas[0])
    assert _probe_work.cache_info().currsize == 1


def test_smoothing_rows_compute_each_fields_energies_once(grid2d, params, monkeypatch):
    """The twelve rows of verify 2.1 read 15 distinct fields, the extremal
    probe and four members per generator: each field's mode energies are
    computed once and shared by the generator's alpha rows."""
    from micropolar import analysis

    energies, calls = analysis._mode_energies, []

    def counting(*args):
        calls.append(args[0].kind)
        return energies(*args)

    monkeypatch.setattr(analysis, "_mode_energies", counting)
    analysis._probe_work.cache_clear()
    for op in mp.generators(grid2d, params):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            mp.verify_smoothing(op, alpha, 0.5 * op.min_positive_eigenvalue())
    assert len(calls) == 15
    assert [calls.count(op.kind) for op in mp.generators(grid2d, params)] == [5, 5, 5]


@pytest.mark.parametrize("case", ["zero", "linear", "tanh-g", "p3"])
def test_fitted_constants_equal_verify_bilinear(grid2d, params, case):
    """fit_lemma_constants takes a zero-order Hilbert constant from the
    symbol probe alone: every c_i still equals verify_bilinear's fitted
    constant at the same seed offset."""
    cfg = _selected(grid2d, params, p=3.0 if case == "p3" else 2.0)
    f, g = _forcings(2, "linear" if case == "linear" else "zero")
    if case == "tanh-g":
        f, g = _forcings(2, "linear")[0], mp.ForcingSpec("tanh", (0.5,), scale=0.5)
    consts = mp.fit_lemma_constants(cfg, grid2d, params, f, g, ensemble=2, seed=9)
    for i, lemma in enumerate(("2.5", "2.6", "2.7", "2.8", "2.9", "2.10", "2.11",
                               "2.12", "2.13")):
        rep = mp.verify_bilinear(lemma, cfg, grid2d, params, f, g, ensemble=2,
                                 seed=9 + 101 * i)
        assert getattr(consts, f"c{i + 1}") == rep.fitted_constant, lemma


@pytest.mark.parametrize("case", ["linear", "tanh-g", "p3", "q3", "r2.5"])
def test_fit_draws_no_dead_ensemble(grid2d, params, cfg2, monkeypatch, case):
    """In the Hilbert zero/linear case only 2.5-2.8 spawn member streams, 16
    each, on the exact path; a tanh g leaves 2.13 without a symbol, so it
    spawns its ensemble.  Off the Hilbert exponents every estimate that reads
    an exponent other than 2 spawns its ensemble, and only the quadratic
    estimates that read none take the exact path."""
    from micropolar import analysis

    spawned, exact = [], []
    rngs, sups = analysis.ensemble_rngs, analysis._exact_sups

    def counting(seed, n):
        spawned.append((seed, n))
        return rngs(seed, n)

    def counted(lemma, *args, **kw):
        exact.append(lemma)
        return sups(lemma, *args, **kw)

    monkeypatch.setattr(analysis, "ensemble_rngs", counting)
    monkeypatch.setattr(analysis, "_exact_sups", counted)
    f = mp.ForcingSpec("linear", (0.6, 0.8))
    g = mp.ForcingSpec("tanh" if case == "tanh-g" else "linear", (0.5,), scale=0.5)
    # per exponent set: the config, the estimates that spawn their ensemble
    # and those maximized exactly.  2.5-2.9, 2.11 and 2.12 read p; 2.6, 2.8,
    # 2.9, 2.10, 2.11 and 2.13 read q; 2.7, 2.8, 2.12 and 2.13 read r
    off = {"p3": ({"p": 3.0}, (0, 1, 2, 3, 4, 6, 7), []),
           "q3": ({"q": 3.0}, (0, 1, 2, 3, 4, 5, 6, 8), ["2.5", "2.7"]),
           "r2.5": ({"r": 2.5}, (0, 1, 2, 3, 7, 8), ["2.5", "2.6"])}
    if case in off:
        exps, spawn, want_exact = off[case]
        cfg = _selected(grid2d, params, **exps)
        analysis.fit_lemma_constants(cfg, grid2d, params, f, g, ensemble=2, seed=5)
        assert spawned == [(5 + 101 * i, 2) for i in spawn]
        assert exact == want_exact
        return
    analysis.fit_lemma_constants(cfg2, grid2d, params, f, g, ensemble=20, seed=5)
    want = [(5 + 101 * i, 16) for i in range(4)]
    if case == "tanh-g":
        want.append((5 + 101 * 8, 20))
    assert spawned == want
    assert exact == ["2.5", "2.6", "2.7", "2.8"]


def test_singular_derivative_fit(grid2d, params, cfg2):
    from micropolar.analysis import singular_derivative_fit
    rng = np.random.default_rng(13)
    u0 = mp.leray_project(mp.random_field(grid2d, 2, rng, sigma=2.0, amplitude=0.05))
    om0 = mp.random_field(grid2d, 1, rng, sigma=2.0, amplitude=0.05)
    th0 = mp.random_field(grid2d, 1, rng, sigma=1.0, amplitude=0.05)
    pic = mp.PicardConfig(horizon=0.1, nodes_per_unit=2048, tol=1e-10, m_max=30,
                          grading=2.0)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    res = singular_derivative_fit(traj, cfg2, params, tag="u", exp=0.0)
    # weighted derivative norm t^(1 + exp - alpha0) ||d_t u|| stays bounded
    assert np.isfinite(res["sup_weighted"])
    # log-log trend of ||d_t u|| does not blow up faster than the allowed
    # t^(alpha0 - exp - 1) rate (tolerance for the fit window)
    assert res["slope"] >= res["expected_slope"] - 0.35


def test_bilinear_rejects_violated_hypotheses(grid2d, params, cfg2):
    from dataclasses import replace
    bad = replace(cfg2, alpha1=0.999)  # breaks the selection constraints
    with pytest.raises(ValueError):
        mp.verify_bilinear("2.5", bad, grid2d, params, ensemble=2)
