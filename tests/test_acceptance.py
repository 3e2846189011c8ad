"""Acceptance suite: one test per criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or check the captured
output).  Grids are desk scale; the whole module runs in a few minutes.
"""

import time

import numpy as np
import pytest

import micropolar as mp
from micropolar.analysis import (
    default_t_grid,
    dependence_ratio,
    fit_decay,
    fit_lemma_constants,
    initial_distance,
    pde_residual,
    residual_refinement_order,
    smoothing_ratio_curve,
    verify_smoothing,
)
from micropolar.cli import lambda_chain_cap
from micropolar.gronwall import gronwall_bound, gronwall_oracle
from micropolar.kmbounds import local_horizon, semigroup_constant
from micropolar.operators import divergence
from micropolar.solver import WeightedNorms, duhamel_residual

ZERO = mp.ForcingSpec.zero()


def _verdict(number: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {tag}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def setup2d():
    grid = mp.GridSpec(dim=2, n=16)
    params = mp.CouplingParams()
    base = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    sel = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params))
    assert sel.feasible
    return grid, params, sel.config


def _smooth_data(grid, seed=42, amp=0.4, sigma=4.0):
    rng = np.random.default_rng(seed)
    u0 = mp.leray_project(mp.random_field(grid, grid.dim, rng, sigma=sigma,
                                          amplitude=amp))
    om0 = mp.random_field(grid, 1 if grid.dim == 2 else 3, rng, sigma=sigma,
                          amplitude=amp)
    th0 = mp.random_field(grid, 1, rng, sigma=sigma, amplitude=amp)
    return u0, om0, th0


def test_criterion_01_semigroup_smoothing():
    """Smoothing constants: ensemble sup within 1.05x of the per-mode bound."""
    start = time.time()
    grid = mp.GridSpec(dim=2, n=32)
    op = mp.stokes_operator(grid)
    lam = 0.5 * mp.lambda1(grid)
    ok = True
    details = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        rep = verify_smoothing(op, alpha, lam, ensemble=100, seed=17,
                               solenoidal=True)
        bound = semigroup_constant(alpha, lam, op.min_positive_eigenvalue())
        # the analytic argmax (lowest transverse eigenmode) realizes the bound
        probe = mp.SpectralField.single_mode(grid, (1, 0), [0.0, 1.0])
        probe_sup = float(np.max(smoothing_ratio_curve(op, probe, alpha, lam,
                                                       default_t_grid(2000))))
        ok &= np.isfinite(rep.ratio_max)
        ok &= rep.ratio_max <= 1.05 * bound
        ok &= probe_sup >= bound / 1.05
        details.append(f"a={alpha}: sup={rep.ratio_max:.4f} bound={bound:.4f}")
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    _verdict(1, "semigroup smoothing", ok,
             "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_operator_algebra():
    """Projection idempotence, solenoidality, power composition, semigroup law."""
    start = time.time()
    grid = mp.GridSpec(dim=2, n=32)
    a_op = mp.stokes_operator(grid)
    worst = {"P2": 0.0, "div": 0.0, "power": 0.0, "semigroup": 0.0}
    rngs = np.random.SeedSequence(5).spawn(100)
    for s in rngs:
        rng = np.random.default_rng(s)
        v = mp.random_field(grid, 2, rng)
        pv = mp.leray_project(v)
        worst["P2"] = max(worst["P2"], (mp.leray_project(pv) - pv).l2() / pv.l2())
        worst["div"] = max(worst["div"], divergence(pv).l2() / pv.l2())
        ab = mp.apply_operator(a_op.with_power(0.3),
                               mp.apply_operator(a_op.with_power(0.45), pv))
        direct = mp.apply_operator(a_op.with_power(0.75), pv)
        worst["power"] = max(worst["power"], (ab - direct).l2() / direct.l2())
        two = mp.semigroup_apply(a_op, 0.1, mp.semigroup_apply(a_op, 0.1, pv))
        one = mp.semigroup_apply(a_op, 0.2, pv)
        worst["semigroup"] = max(worst["semigroup"], (two - one).l2() / one.l2())
    elapsed = time.time() - start
    ok = all(v <= 1e-12 for v in worst.values()) and elapsed < 5.0
    _verdict(2, "Leray/operator algebra", ok,
             ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
             + f"; {elapsed:.1f}s")


def test_criterion_03_duhamel_quadrature_order(setup2d):
    """Integral-equation residual drops by a factor in [3.5, 4.5] per halving."""
    start = time.time()
    grid, params, cfg = setup2d
    u0, om0, th0 = _smooth_data(grid)
    worst = []
    for npu in (64, 128, 256):
        pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=npu, tol=1e-11,
                              m_max=40)
        traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
        assert rep.converged
        res = duhamel_residual(traj, params)
        worst.append(max(float(np.max(v)) for v in res.values()))
    factors = [worst[k] / worst[k + 1] for k in range(2)]
    elapsed = time.time() - start
    ok = all(3.5 <= f <= 4.5 for f in factors) and elapsed < 120.0
    _verdict(3, "Duhamel quadrature order", ok,
             f"factors={[round(f, 3) for f in factors]}; {elapsed:.1f}s")


def test_criterion_04_picard_contraction():
    """Contraction on [0, T*]: ratios < 1, geometric decay, >= 5 sweeps."""
    grid = mp.GridSpec(dim=2, n=16)
    params = mp.CouplingParams()
    base = mp.ExponentConfig(p=2, q=2, r=4 / 3, alpha0=0.5, beta0=0.5,
                             gamma0=0.25)
    sel = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params))
    assert sel.feasible
    cfg = sel.config
    constants = fit_lemma_constants(cfg, grid, params, ensemble=8, seed=11)
    u0, om0, th0 = _smooth_data(grid, seed=7, amp=0.2, sigma=3.0)
    horizon_grid = np.linspace(0, 0.6, 97)
    hres = local_horizon(mp.start_state(u0, om0, th0), cfg, params, constants, horizon_grid)
    assert hres.tstar is not None
    horizon = min(hres.tstar, 0.5)
    pic = mp.PicardConfig(horizon=horizon, nodes_per_unit=192, tol=1e-9, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic,
                                constants=constants)
    diffs = [rec.total for rec in rep.iterations]
    ok = (rep.converged and len(rep.iterations) >= 5
          and len(rep.iterations) <= 30
          and all(r < 1 for r in rep.ratios)
          and all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1)))
    _verdict(4, "Picard contraction", ok,
             f"T*={hres.tstar:.3f} T={horizon:.3f} sweeps={len(rep.iterations)} "
             f"ratios={[round(r, 3) for r in rep.ratios[:5]]}")


def test_criterion_05_local_smoothing_rates():
    """Near-zero power-law slopes of the fractional norms, rough data."""
    grid = mp.GridSpec(dim=2, n=32)
    params = mp.CouplingParams()
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0),
        lambda_cap=lambda_chain_cap(grid, params)).config
    rng = np.random.default_rng(21)
    amp = 0.02
    u0 = mp.leray_project(mp.random_field(grid, 2, rng, sigma=2.0, amplitude=amp))
    om0 = mp.random_field(grid, 1, rng, sigma=2.0, amplitude=amp)
    th0 = mp.random_field(grid, 1, rng, sigma=1.0, amplitude=amp)
    pic = mp.PicardConfig(horizon=0.05, nodes_per_unit=4096, tol=1e-10,
                          m_max=30, grading=2.0)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
    assert rep.converged
    exponents = {"u": [0.625, 0.75], "om": [0.625, 0.75], "th": [0.25, 0.5]}
    norms = WeightedNorms(cfg, grid, params)
    log = {"t": traj.times, **{(tag, x): v for tag, xs in exponents.items()
                               for x, v in zip(xs, norms.node_norms(tag, traj.coeffs[tag], xs))}}
    fits = fit_decay(log, cfg, exponents=exponents,
                     window_small=(3e-3, 0.03), slope_tol=0.1)
    ok = all(f.passed for f in fits)
    _verdict(5, "local smoothing rates", ok,
             "; ".join(f"{f.tag}:{f.value:.2f}>={f.expected - 0.1:.2f}"
                       for f in fits))


def test_criterion_06_global_decay():
    """Small-data global run: fitted rates of all three norms >= lambda."""
    grid = mp.GridSpec(dim=2, n=16)
    params = mp.CouplingParams(mu=0.95, mu_r=0.05)
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0),
        lambda_cap=lambda_chain_cap(grid, params)).config
    assert cfg.lam == pytest.approx(0.5 * mp.lambda1(grid))
    rng = np.random.default_rng(9)
    u0 = mp.leray_project(mp.random_field(grid, 2, rng, sigma=3.0, amplitude=1.0))
    om0 = mp.random_field(grid, 1, rng, sigma=3.0, amplitude=1.0)
    th0 = mp.random_field(grid, 1, rng, sigma=3.0, amplitude=1.0)
    norms = WeightedNorms(cfg, grid, params)
    d0 = (norms.fractional_norm("u", u0, cfg.alpha0)
          + norms.fractional_norm("om", om0, cfg.beta0)
          + norms.fractional_norm("th", th0, cfg.gamma0))
    scale = 0.99e-3 / d0
    u0, om0, th0 = u0 * scale, om0 * scale, th0 * scale
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=64, tol=1e-12, m_max=30)
    result = mp.global_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic, 5.0)
    assert result.completed
    fits = fit_decay(result.log, cfg,
                     exponents={"u": [cfg.alpha0], "om": [cfg.beta0],
                                "th": [cfg.gamma0]},
                     window_large=(1.0, 5.0), rate_floor=cfg.lam,
                     residual_tol=0.05)
    ok = all(f.passed for f in fits)
    _verdict(6, "global decay", ok,
             "; ".join(f"{f.tag}: rate={f.value:.3f} resid={f.residual:.4f}"
                       for f in fits))


def test_criterion_07_strong_solution_residual(setup2d):
    """Equation residual with discrete time derivative: order >= 1.8."""
    grid, params, cfg = setup2d
    u0, om0, th0 = _smooth_data(grid, amp=0.3)
    levels = []
    for npu in (64, 128, 256):
        pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=npu, tol=1e-11,
                              m_max=40)
        traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
        assert rep.converged
        levels.append(pde_residual(traj, params))
    orders = residual_refinement_order(levels)
    ok = all(o >= 1.8 for o in orders)
    _verdict(7, "strong-solution residual order", ok,
             f"orders={[round(o, 2) for o in orders]}")


def test_criterion_08_continuous_dependence(setup2d):
    """Perturbation-ratio agreement within 20% across two deltas."""
    grid, params, cfg = setup2d
    u0, om0, th0 = _smooth_data(grid, seed=3, amp=0.2, sigma=3.0)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=96, tol=1e-12, m_max=30)
    base, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
    assert rep.converged
    rng = np.random.default_rng(99)
    direction = mp.leray_project(mp.random_field(grid, 2, rng, amplitude=1.0))
    ratios = {}
    for delta in (1e-4, 5e-5):
        up = mp.leray_project(u0 + delta * direction)
        pert, prep = mp.picard_solve(mp.start_state(up, om0, th0), cfg, params, ZERO, ZERO, pic)
        assert prep.converged
        d0 = initial_distance(u0, up, om0, om0, th0, th0, cfg, params)
        ratios[delta] = max(dependence_ratio(base, pert, cfg, params, d0).values())
    r1, r2 = ratios[1e-4], ratios[5e-5]
    ok = abs(r1 - r2) <= 0.2 * max(r1, r2)
    _verdict(8, "continuous dependence", ok,
             f"ratios: {r1:.4f} vs {r2:.4f}")


def test_criterion_09_generalized_gronwall():
    """Closed-form bound dominates the Volterra fixed point pointwise."""
    start = time.time()
    rng = np.random.default_rng(123)
    worst_fraction = 0.0
    for _ in range(20):
        la, lb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        a = rng.uniform(0.1, 2.0, la)
        alphas = rng.uniform(0.0, 0.8, la)
        b = rng.uniform(0.1, 2.0, lb)
        betas = rng.uniform(0.0, 0.8, lb)
        bound = gronwall_bound(a, alphas, b, betas, 1.0)
        oracle = gronwall_oracle(a, alphas, b, betas, 1.0, times=bound.times)
        frac = float(np.mean(oracle.values > bound.values * (1 + 1e-9)))
        worst_fraction = max(worst_fraction, frac)
    elapsed = time.time() - start
    ok = worst_fraction <= 0.01 and elapsed < 30.0
    _verdict(9, "generalized Gronwall domination", ok,
             f"worst violation fraction={worst_fraction:.4f}; {elapsed:.1f}s")


def test_criterion_10_conservation(setup2d):
    """Total energy drift <= 1e-3 relative at dt=1e-3, halving with dt."""
    grid, params, cfg = setup2d
    u0, om0, th0 = _smooth_data(grid, seed=12, amp=0.3)
    drifts = {}
    for dt in (1e-3, 5e-4):
        pic = mp.PicardConfig(horizon=0.2, nodes_per_unit=int(round(1 / dt)),
                              tol=1e-12, m_max=40)
        traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
        assert rep.converged
        elog = mp.energy_report(traj, params, ZERO, ZERO)
        drifts[dt] = elog.relative_drift
        if dt == 1e-3:
            monotone = elog.kinetic_monotone()
    ok = (drifts[1e-3] <= 1e-3
          and drifts[5e-4] <= 0.6 * drifts[1e-3]
          and monotone)
    _verdict(10, "conservation oracle", ok,
             f"drift(1e-3)={drifts[1e-3]:.2e}, drift(5e-4)={drifts[5e-4]:.2e}, "
             f"kinetic monotone={monotone}")


def test_criterion_11_exponent_machinery():
    """Worked substitution verdicts, selection round trip, equality branches."""
    ok = True
    c1 = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    ok &= mp.check_config(c1, "base").passed
    c2 = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.5)
    res2 = mp.check_config(c2, "base")
    ok &= not res2.passed
    ok &= any(v.lhs == pytest.approx(-0.125) for v in res2.violations)
    c3 = mp.ExponentConfig(p=8, q=8, r=4, alpha0=0.0, beta0=0.0, gamma0=0.0)
    ok &= mp.check_config(c3, "classical").passed

    sel = mp.select_intermediate(c1)
    ok &= sel.feasible and mp.check_config(sel.config, "base").passed

    boundary = mp.ExponentConfig(p=2, q=2, r=1.2, alpha0=0.75, beta0=0.25,
                                 gamma0=0.25)
    selb = mp.select_intermediate(boundary)
    ok &= selb.feasible
    cfgb = selb.config
    ok &= cfgb.beta1 + cfgb.delta1 == pytest.approx(1 - cfgb.alpha0 + cfgb.beta0,
                                                    abs=1e-14)
    ok &= cfgb.gamma1 == pytest.approx(1 - cfgb.alpha0 + cfgb.gamma0, abs=1e-14)
    ok &= mp.check_config(cfgb, "base").passed
    _verdict(11, "exponent machinery", ok,
             "worked examples, selection round trip, equality branches exact")
