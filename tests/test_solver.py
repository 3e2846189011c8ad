import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

import micropolar as mp
from micropolar.errors import PreconditionError
from micropolar.fields import full_spectrum, half_spectrum
from micropolar.operators import OperatorKind, leray_coeffs, spectral_coeffs, subspaces
from micropolar.solver import (
    TAGS,
    DuhamelPropagator,
    WeightedNorms,
    duhamel_residual,
    interval_weights,
    node_log,
    node_rhs,
    TrajectoryState,
    picard_step,
    tag_components,
    time_weight,
    window_propagator,
)

ZERO = mp.ForcingSpec.zero()


def _stack(fields):
    """Node-stacked half spectra of a list of fields."""
    return np.stack([half_spectrum(f.coeffs) for f in fields])


def _field(grid, half):
    return mp.SpectralField(grid, half)


def _duhamel(op, rhs, times, j):
    """Duhamel integral at node j of node-stacked half-spectrum RHS samples."""
    prop = DuhamelPropagator((op,), (rhs.shape[1],), times)
    return _field(op.grid, prop.integrate_nodes(rhs)[j])


# -- beta function ----------------------------------------------------------

def test_beta_trivial_values():
    assert mp.beta_function(1, 1) == pytest.approx(1.0)
    assert mp.beta_function(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)


def test_beta_against_quadrature():
    val, _ = quad(lambda s: s ** (-0.7) * (1 - s) ** (-0.2), 0, 1)
    assert mp.beta_function(0.3, 0.8) == pytest.approx(val, rel=1e-9)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        mp.beta_function(0.0, 1.0)
    with pytest.raises(ValueError):
        mp.beta_function(1.0, -0.5)


@given(st.floats(0.05, 20), st.floats(0.05, 20))
def test_beta_symmetry(x, y):
    assert mp.beta_function(x, y) == pytest.approx(mp.beta_function(y, x), rel=1e-12)


# -- quadrature weights -----------------------------------------------------

def test_interval_weights_small_z_limit():
    eig = np.array([0.0, 1e-14, 1e-3])
    decay, w0, w1 = interval_weights(eig, 0.01)
    assert w0[0] == pytest.approx(0.005)  # trapezoid at zero eigenvalue
    assert w1[0] == pytest.approx(0.005)
    assert np.all(np.isfinite(w0)) and np.all(np.isfinite(w1))
    assert decay[0] == 1.0


def test_interval_weights_match_quadrature():
    for mu, h in ((3.7, 0.2), (120.0, 0.05), (0.4, 1.0)):
        _, w0, w1 = interval_weights(np.array([mu]), h)
        exact0, _ = quad(lambda s: math.exp(-(h - s) * mu) * (1 - s / h), 0, h)
        exact1, _ = quad(lambda s: math.exp(-(h - s) * mu) * (s / h), 0, h)
        assert w0[0] == pytest.approx(exact0, rel=1e-10)
        assert w1[0] == pytest.approx(exact1, rel=1e-10)


# -- Duhamel integral -------------------------------------------------------

def test_duhamel_zero_forcing(grid2d):
    times = np.linspace(0, 1, 17)
    z = _stack([mp.SpectralField.zero(grid2d, 1) for _ in times])
    out = _duhamel(mp.laplace_operator(grid2d), z, times, 16)
    assert out.l2() == 0.0


def test_duhamel_constant_mode_exact(grid2d):
    times = np.linspace(0, 0.5, 33)
    mode = mp.SpectralField.single_mode(grid2d, (2, 1), 0.3)
    mu = 5.0
    out = _duhamel(mp.laplace_operator(grid2d), _stack([mode] * len(times)), times, 32)
    expect = (1 - np.exp(-0.5 * mu)) / mu
    assert np.max(np.abs(out.coeffs - expect * mode.coeffs)) <= 1e-14


def test_duhamel_linear_data_exact(grid2d):
    times = np.linspace(0, 0.5, 21)
    mode = mp.SpectralField.single_mode(grid2d, (2, 1), 1.0)
    mu = 5.0
    rhs = _stack([mode * float(t) for t in times])
    out = _duhamel(mp.laplace_operator(grid2d), rhs, times, 20)
    expect = 0.5 / mu - (1 - np.exp(-0.5 * mu)) / mu ** 2
    assert np.max(np.abs(out.coeffs - expect * mode.coeffs)) <= 1e-12


def test_duhamel_gamma_vector_subspaces(grid3d):
    # parallel and transverse parts decay with their own eigenvalues
    times = np.linspace(0, 0.4, 41)
    g_op = mp.gamma_operator(grid3d)
    mode = mp.SpectralField.single_mode(grid3d, (1, 0, 0), [0.5, 0.5, 0.0])
    out = _duhamel(g_op, _stack([mode] * len(times)), times, 40)
    idx = (1, 0, 0)
    got_para = out.coeffs[0][idx]
    got_perp = out.coeffs[1][idx]
    assert got_para == pytest.approx((1 - np.exp(-0.4 * 2.0)) / 2.0 * 0.5, rel=1e-12)
    assert got_perp == pytest.approx((1 - np.exp(-0.4 * 1.0)) / 1.0 * 0.5, rel=1e-12)


# -- trajectories -----------------------------------------------------------

def _initial_data(grid, rng, amp=0.3, sigma=4.0):
    om_comp = 1 if grid.dim == 2 else 3
    u0 = mp.leray_project(mp.random_field(grid, grid.dim, rng, sigma=sigma,
                                          amplitude=amp))
    om0 = mp.random_field(grid, om_comp, rng, sigma=sigma, amplitude=amp)
    th0 = mp.random_field(grid, 1, rng, sigma=sigma, amplitude=amp)
    return u0, om0, th0


def test_initial_trajectory_zero_data(grid2d, params):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 1, 9)
    traj = mp.initial_trajectory(mp.start_state(z2, z1, z1), times, params)
    assert all(np.all(c == 0.0) for c in traj.coeffs.values())


def test_initial_trajectory_single_mode_decay(grid2d, params):
    th0 = mp.SpectralField.single_mode(grid2d, (2, 0), 1.0)  # eigenvalue 4
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 0.5, 11)
    traj = mp.initial_trajectory(mp.start_state(z2, z1, th0), times, params)
    for j, t in enumerate(times):
        assert traj.state_at(j)[2].l2() == pytest.approx(np.exp(-4 * t) * th0.l2(),
                                                         rel=1e-12)
    assert (traj.state_at(0)[2] - th0).l2() == 0.0


def test_initial_trajectory_rejects_bad_data(grid2d, params, rng):
    u_bad = mp.random_field(grid2d, 2, rng)
    z1 = mp.SpectralField.zero(grid2d, 1)
    times = np.linspace(0, 1, 5)
    with pytest.raises(PreconditionError):
        mp.initial_trajectory(mp.start_state(u_bad, z1, z1), times, params)
    th_mean = mp.to_spectral(grid2d, np.ones((1,) + grid2d.shape))
    u0 = mp.leray_project(u_bad)
    with pytest.raises(PreconditionError):
        mp.initial_trajectory(mp.start_state(u0, z1, th_mean), times, params)


@pytest.mark.parametrize("tag", TAGS)
def test_initial_trajectory_rejects_modes_outside_dealias_ball(grid2d, params, tag):
    """Initial data with a mode outside the 2/3 ball (n = 16: |k_i| <= 5) is
    refused, on the scale of the mean-mode check; the RHS transforms read
    the kept columns only.  A mode on the ball's edge is accepted."""
    comps = tag_components(2)
    times = np.linspace(0, 0.25, 5)

    def start(k):
        fields = {t: mp.SpectralField.zero(grid2d, c) for t, c in comps.items()}
        amp = [0.0, 0.1] if tag == "u" else [0.1] * comps[tag]  # solenoidal for k = (k0, 0)
        fields[tag] = mp.SpectralField.single_mode(grid2d, k, amp)
        return mp.start_state(*(fields[t] for t in TAGS))

    mp.initial_trajectory(start((5, 0)), times, params)
    with pytest.raises(PreconditionError, match="dealias ball"):
        mp.initial_trajectory(start((6, 0)), times, params)
    mp.initial_trajectory(start((6, 0)), times, params, strict=False)


def test_picard_zero_data_fixed_point(grid2d, params, cfg2):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=32, tol=1e-12, m_max=5)
    traj, rep = mp.picard_solve(mp.start_state(z2, z1, z1), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    assert len(rep.iterations) == 1 and rep.iterations[0].total == 0.0


def test_picard_step_matches_manual_duhamel(grid2d, params, cfg2, rng):
    u0, om0, th0 = _initial_data(grid2d, rng)
    times = np.linspace(0, 0.25, 17)
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), times, params)
    stepped = picard_step(traj, params, ZERO, ZERO)
    j = 10
    manual = _field(grid2d, traj.free["th"][j]) + _duhamel(
        mp.laplace_operator(grid2d, coeff=params.heat_coeff),
        node_rhs(traj, params, ZERO, ZERO)["th"], times, j)
    assert (stepped.state_at(j)[2] - manual).l2() <= 1e-13


def test_picard_contraction_and_divergence_reporting(grid2d, params, cfg2, rng):
    u0, om0, th0 = _initial_data(grid2d, rng, amp=0.3)
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=64, tol=1e-9, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged and not rep.diverged
    assert all(r < 1 for r in rep.ratios)
    # big data on a long horizon must be flagged, not loop forever
    ub, ob, tb = _initial_data(grid2d, rng, amp=60.0)
    picb = mp.PicardConfig(horizon=1.0, nodes_per_unit=64, tol=1e-9, m_max=12)
    _, repb = mp.picard_solve(mp.start_state(ub, ob, tb), cfg2, params, ZERO, ZERO, picb)
    assert repb.diverged and not repb.converged


def test_linear_regime_matches_matrix_exponential(grid2d, params, cfg2):
    k = (1, 2)
    mu = float(k[0] ** 2 + k[1] ** 2)
    aperp = np.array([-k[1], k[0]]) / np.hypot(*k)
    u0 = mp.SpectralField.single_mode(grid2d, k, 0.3 * aperp)
    om0 = mp.SpectralField.single_mode(grid2d, k, 0.2)
    th0 = mp.SpectralField.single_mode(grid2d, k, 0.1)
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=256, tol=1e-12, m_max=40,
                          linear_only=True)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    kap = np.array(k, float)
    mur = params.mu_r
    mat = np.zeros((4, 4), complex)
    mat[0, 0] = mat[1, 1] = -(params.mu + params.mu_r) * mu
    mat[0, 2] = 2 * mur * 1j * kap[1]
    mat[1, 2] = -2 * mur * 1j * kap[0]
    mat[2, 0] = -2 * mur * 1j * kap[1]
    mat[2, 1] = 2 * mur * 1j * kap[0]
    mat[2, 2] = -(params.ca + params.cd) * mu - 4 * mur
    mat[3, 3] = -params.kappa * mu
    state0 = np.array([u0.coeffs[0][k], u0.coeffs[1][k],
                       om0.coeffs[0][k], th0.coeffs[0][k]])
    dt = float(traj.times[1] - traj.times[0])
    for j in (32, 64, 128):
        exact = expm(mat * float(traj.times[j])) @ state0
        u, om, th = traj.state_at(j)
        got = np.array([u.coeffs[0][k], u.coeffs[1][k],
                        om.coeffs[0][k], th.coeffs[0][k]])
        assert np.max(np.abs(got - exact)) <= 10 * dt ** 2


def test_final_trajectory_satisfies_integral_equations(grid2d, params, cfg2, rng):
    u0, om0, th0 = _initial_data(grid2d, rng)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=128, tol=1e-10, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    res = duhamel_residual(traj, params)
    dt = 1.0 / 128
    for tag in ("u", "om", "th"):
        assert np.max(res[tag]) <= 10 * rep.iterations[-1].total + 5.0 * dt ** 2


def test_quadrature_refinement_factor(grid2d, params, cfg2, rng):
    u0, om0, th0 = _initial_data(grid2d, rng)
    worst = []
    for npu in (64, 128):
        pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=npu, tol=1e-11, m_max=40)
        traj, _ = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
        res = duhamel_residual(traj, params)
        worst.append(max(float(np.max(v)) for v in res.values()))
    assert 3.5 <= worst[0] / worst[1] <= 4.5


def test_restart_consistency(grid2d, params, cfg2, rng):
    u0, om0, th0 = _initial_data(grid2d, rng)
    pic1 = mp.PicardConfig(horizon=0.5, nodes_per_unit=96, tol=1e-11, m_max=40)
    pic2 = mp.PicardConfig(horizon=0.25, nodes_per_unit=96, tol=1e-11, m_max=40)
    windows = []
    g1 = mp.global_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic1, 0.5,
                         checkpoint_hook=lambda w, traj: windows.append(traj))
    g2 = mp.global_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic2, 0.5)
    res = duhamel_residual(windows[0], params)
    quad_err = max(float(np.max(v)) for v in res.values())
    for a, b in zip(g1.end.state_at(0), g2.end.state_at(0)):
        assert (a - b).l2() <= 10 * max(quad_err, 1e-12)


def test_duhamel_residual_of_joined_and_resumed_windows(grid2d, params, cfg2):
    """By the semigroup property a trajectory joined from windows, or resumed
    at t0 > 0, is one mild solution from its first node: its residual is that
    of a single window over the same span, not the size of a restart."""
    rng = np.random.default_rng(6)
    u0 = mp.leray_project(mp.random_field(grid2d, 2, rng, amplitude=0.2, sigma=3.0))
    om0 = mp.random_field(grid2d, 1, rng, amplitude=0.2, sigma=3.0)
    th0 = mp.random_field(grid2d, 1, rng, amplitude=0.2, sigma=3.0)

    def worst(windows):
        """The worst residual of the windows joined at their shared end nodes."""
        coeffs = {tag: np.concatenate([windows[0].coeffs[tag]]
                                      + [w.coeffs[tag][1:] for w in windows[1:]])
                  for tag in TAGS}
        times = np.concatenate([windows[0].times] + [w.times[1:] for w in windows[1:]])
        joined = TrajectoryState(times, windows[0].grid, coeffs, coeffs)
        return max(float(np.max(v)) for v in duhamel_residual(joined, params).values())

    pics = [mp.PicardConfig(horizon=h, nodes_per_unit=96, tol=1e-11, m_max=40)
            for h in (0.5, 0.25)]
    runs = {"one": [], "two": [], "resumed": []}

    def solve(name, start, pic):
        return mp.global_solve(start, cfg2, params, ZERO, ZERO, pic, 0.5,
                               checkpoint_hook=lambda w, traj: runs[name].append(traj))

    one = solve("one", mp.start_state(u0, om0, th0), pics[0])
    two = solve("two", mp.start_state(u0, om0, th0), pics[1])
    assert len(one.reports) == 1 and len(two.reports) == 2
    assert worst(runs["two"]) <= 2 * worst(runs["one"])
    # resume from the end state of the first window, as checkpoint resume does
    resumed = solve("resumed", runs["two"][0].end_state(), pics[1])
    assert resumed.log["t"][0] == 0.25
    assert worst(runs["resumed"]) <= 2 * worst(runs["one"])


def test_global_solve_elog_zero_data(grid2d, params, cfg2):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=16, tol=1e-12, m_max=4)
    res = mp.global_solve(mp.start_state(z2, z1, z1), cfg2, params, ZERO, ZERO, pic, 1.0)
    assert res.completed
    assert all(float(np.max(v)) == 0.0 for v in res.e_sup.values())


def test_weighted_norm_weights(grid2d, params, cfg2, rng):
    norms = WeightedNorms(cfg2, grid2d, params)
    u0, om0, th0 = _initial_data(grid2d, rng)
    times = np.linspace(0, 0.25, 9)
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), times, params)
    curve = norms.weighted_curve("u", traj.coeffs["u"], times, cfg2.alpha1)
    assert curve[0] == 0.0  # vanishing weight at t = 0 for alpha1 > alpha0
    assert np.all(np.isfinite(curve))


def _random_nodes(grid, rng, count):
    om_comp = 1 if grid.dim == 2 else 3
    u = [mp.leray_project(mp.random_field(grid, grid.dim, rng)) for _ in range(count)]
    om = [mp.random_field(grid, om_comp, rng, mean_zero=False) for _ in range(count)]
    th = [mp.random_field(grid, 1, rng, mean_zero=False) for _ in range(count)]
    return u, om, th


def _state(grid, times, nodes):
    """A trajectory whose three fields are the given per-node field lists."""
    coeffs = {tag: _stack(fields) for tag, fields in zip(TAGS, nodes)}
    return TrajectoryState(times, grid, coeffs, coeffs)


@pytest.mark.parametrize("s", [2.0, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_batched_norms_match_per_node(grid2d, grid3d, params, cfg2, s, dim):
    """weighted_curve and difference reduce over all nodes at once; they
    must equal the per-node fractional_norm loop."""
    grid = grid2d if dim == 2 else grid3d
    cfg = dataclasses.replace(cfg2, p=s, q=s, r=s)
    norms = WeightedNorms(cfg, grid, params)
    rng = np.random.default_rng(17)
    times = np.linspace(0.0, 0.25, 6)
    nodes_a = dict(zip(TAGS, _random_nodes(grid, rng, 6)))
    nodes_b = dict(zip(TAGS, _random_nodes(grid, rng, 6)))
    a = _state(grid, times, nodes_a.values())
    diffs = norms.difference(a, _state(grid, times, nodes_b.values()))
    for tag in TAGS:
        exps = tuple(norms.exps[tag]) + (0.0, norms.base[tag], 1.0)
        curves = norms.weighted_curve(tag, a.coeffs[tag], times, exps)
        for exp, got in zip(exps, curves):
            w = time_weight(times, exp - norms.base[tag])
            ref = w * np.array([norms.fractional_norm(tag, f, exp)
                                for f in nodes_a[tag]])
            single = norms.weighted_curve(tag, a.coeffs[tag], times, exp)
            for curve in (got, single):
                assert np.max(np.abs(curve - ref)) <= 1e-13 * np.max(np.abs(ref))
        for exp in norms.exps[tag]:
            w = time_weight(times, exp - norms.base[tag])
            ref = max(w[j] * norms.fractional_norm(tag, fa - fb, exp)
                      for j, (fa, fb) in enumerate(zip(nodes_a[tag], nodes_b[tag])))
            assert diffs[(tag, exp)] == pytest.approx(ref, rel=1e-13)


def test_contraction_ratio_nondecreasing_in_horizon(grid2d, params, cfg2, rng):
    """For fixed data the measured contraction factor grows with the horizon."""
    u0, om0, th0 = _initial_data(grid2d, rng, amp=0.3)
    first_ratios = []
    for horizon in (0.125, 0.25, 0.5):
        pic = mp.PicardConfig(horizon=horizon, nodes_per_unit=128, tol=1e-13,
                              m_max=6)
        _, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
        first_ratios.append(rep.ratios[0])
    assert all(first_ratios[i + 1] >= first_ratios[i] * (1 - 1e-9)
               for i in range(len(first_ratios) - 1))


def test_solver_3d_small_run():
    grid = mp.GridSpec(dim=3, n=8)
    params = mp.CouplingParams()
    from micropolar.cli import lambda_chain_cap
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0),
        lambda_cap=lambda_chain_cap(grid, params)).config
    rng = np.random.default_rng(31)
    u0 = mp.leray_project(mp.random_field(grid, 3, rng, sigma=4.0, amplitude=0.3))
    om0 = mp.random_field(grid, 3, rng, sigma=4.0, amplitude=0.3)
    th0 = mp.random_field(grid, 1, rng, sigma=4.0, amplitude=0.3)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=96, tol=1e-10, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, ZERO, ZERO, pic)
    assert rep.converged
    from micropolar.analysis import energy_report
    elog = energy_report(traj, params, ZERO, ZERO)
    assert elog.relative_drift <= 1e-3
    assert elog.kinetic_monotone()


def test_first_picard_step_against_fine_grid_quadrature(grid2d, params, cfg2, rng):
    """The m=0 -> m=1 update must match the Duhamel integral of the free
    trajectory's right-hand side computed on an independent 4x finer grid."""
    u0, om0, th0 = _initial_data(grid2d, rng, amp=0.3)
    coarse = np.linspace(0, 0.25, 17)
    fine = np.linspace(0, 0.25, 65)
    traj0 = mp.initial_trajectory(mp.start_state(u0, om0, th0), coarse, params)
    traj0_fine = mp.initial_trajectory(mp.start_state(u0, om0, th0), fine, params)
    stepped = picard_step(traj0, params, ZERO, ZERO)
    rhs_fine = node_rhs(traj0_fine, params, ZERO, ZERO)
    from micropolar.nonlinear import generators
    dt = float(coarse[1] - coarse[0])
    for i, (tag, op) in enumerate(zip(TAGS, generators(grid2d, params))):
        for j in (8, 16):
            refined = _field(grid2d, traj0.free[tag][j]) + _duhamel(
                op, rhs_fine[tag], fine, 4 * j)
            new = stepped.state_at(j)[i]
            err = new - refined
            scale = max(new.l2(), 1e-12)
            assert err.l2() / scale <= 10 * dt ** 2


def test_global_decay_bound_stable_under_data_halving(grid2d, params, cfg2, rng):
    """The decay-weighted sup over initial-data size is a stable fitted
    constant: halving the data changes it only mildly, and the small-data
    self-consistency threshold is not crossed."""
    from micropolar.analysis import fit_lemma_constants

    u0, om0, th0 = _initial_data(grid2d, rng, amp=0.01, sigma=3.0)
    norms = WeightedNorms(cfg2, grid2d, params)
    constants = fit_lemma_constants(cfg2, grid2d, params, ensemble=6, seed=2)
    pic = mp.PicardConfig(horizon=0.5, nodes_per_unit=48, tol=1e-12, m_max=30)
    cs = []
    for scale in (1.0, 0.5):
        data = (scale * u0, scale * om0, scale * th0)
        res = mp.global_solve(mp.start_state(*data), cfg2, params, ZERO, ZERO, pic, 2.0,
                              constants=constants)
        assert res.completed
        d0 = (norms.fractional_norm("u", data[0], cfg2.alpha0)
              + norms.fractional_norm("om", data[1], cfg2.beta0)
              + norms.fractional_norm("th", data[2], cfg2.gamma0))
        emax = max(float(np.max(v)) for v in res.e_sup.values())
        cs.append(emax / d0)
        if res.e_bound is not None:
            assert not res.bound_crossed
    assert abs(cs[0] - cs[1]) <= 0.2 * max(cs)


def test_window_horizons_follow_the_march_from_zero():
    from micropolar.solver import window_horizons

    pic = mp.PicardConfig(horizon=0.1)
    full = window_horizons(pic, 1.0)
    assert len(full) == 10
    t_end = 0.0
    for w in range(9):
        t_end += full[w]    # a window end as the march accumulates it
        assert window_horizons(pic, 1.0, t_end) == full[w + 1:]
    assert window_horizons(pic, 1.0, t_end + full[9]) == []
    assert window_horizons(pic, 0.0) == []
    # a start inside a window (the end of a shorter run) first runs to the
    # window's end, then on the grid of the march from zero
    pic = mp.PicardConfig(horizon=0.25)
    got = window_horizons(pic, 1.0, 0.3)
    assert got[1:] == [0.25, 0.25] and got[0] == pytest.approx(0.2, abs=1e-15)


def test_picard_solve_evaluates_one_rhs_per_node_and_sweep(grid2d, params, cfg2,
                                                           rng, monkeypatch):
    """The first sweep of a window evaluates the RHS of its input iterate
    at every node and later sweeps at nodes 1.. only, in blocks of nodes:
    node 0 of every iterate is the window's start state, whose RHS the
    first sweep keeps.  The converged iterate's own RHS is never
    evaluated."""
    import micropolar.solver as solver

    rows = []
    original = solver.assemble_rhs

    def counting(grid, uh, *args, **kwargs):
        rows.append(uh.shape[0])
        return original(grid, uh, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_rhs", counting)
    monkeypatch.setattr(solver, "RHS_BLOCK_BYTES", 8 * 11 * grid2d.num_modes * 8)
    # one thread, so that the blocks are assembled in order
    monkeypatch.setattr(solver, "workers", lambda: 1)
    u0, om0, th0 = _initial_data(grid2d, rng)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=32, tol=1e-10, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged and len(rep.iterations) >= 3
    sweeps = len(rep.iterations)
    assert sum(rows) == traj.node_count + (traj.node_count - 1) * (sweeps - 1)
    # 9 nodes a window: blocks of 8 and 1 in the first sweep, one of 8 after
    assert rows == [8, 1] + [8] * (sweeps - 1)


def test_picard_solve_integrates_once_per_sweep(grid2d, params, cfg2, rng, monkeypatch):
    """One recurrence serves the three fields: each sweep of a window runs
    integrate_nodes once, on the RHS stacked (nodes, dim + C + 1, *half)."""
    import micropolar.solver as solver

    shapes = []
    original = solver.DuhamelPropagator.integrate_nodes

    def counting(self, rhs):
        shapes.append(rhs.shape)
        return original(self, rhs)

    monkeypatch.setattr(solver.DuhamelPropagator, "integrate_nodes", counting)
    u0, om0, th0 = _initial_data(grid2d, rng)
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=32, tol=1e-10, m_max=30)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic)
    assert rep.converged
    assert shapes == [(traj.node_count, 4) + grid2d.half_shape] * len(rep.iterations)


def test_rhs_block_size_follows_byte_budget(monkeypatch):
    """Blocks hold about RHS_BLOCK_BYTES of inverse-transform grid values:
    11 planes a node in 2D, 27 in 3D.  The first sweep of a window blocks
    nodes 0..J, later sweeps nodes 1..J: 65 nodes take 8 blocks of 8 and one
    of 1, then 8 blocks of exactly 8."""
    import micropolar.solver as solver
    from micropolar.solver import RHS_BLOCK_BYTES, rhs_block_size

    grid2, grid3 = mp.GridSpec(dim=2, n=32), mp.GridSpec(dim=3, n=16)
    assert rhs_block_size(grid2, 1) == RHS_BLOCK_BYTES // (11 * 32 ** 2 * 8) == 8
    assert 27 * 16 ** 3 * 8 > RHS_BLOCK_BYTES
    assert rhs_block_size(grid3, 3) == 1
    u0, om0, th0 = _initial_data(grid2, np.random.default_rng(2))
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), np.linspace(0, 0.25, 65),
                                 mp.CouplingParams())
    blocks = traj.node_blocks()
    assert [b.stop - b.start for b in blocks] == [8] * 8 + [1]
    assert blocks[-1].stop == 65

    rows = []
    original = solver.assemble_rhs

    def counting(grid, uh, *args, **kwargs):
        rows.append(uh.shape[0])
        return original(grid, uh, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_rhs", counting)
    monkeypatch.setattr(solver, "workers", lambda: 1)
    params = mp.CouplingParams()
    prop = window_propagator(grid2, params, traj.times)
    traj = picard_step(traj, params, ZERO, ZERO, propagator=prop)
    picard_step(traj, params, ZERO, ZERO, propagator=prop)
    assert rows == [8] * 8 + [1] + [8] * 8


def _blocked_trajectory(dim, n, forced):
    """A 33-node iterate whose sweep takes five blocks (2D n = 32: 8 nodes a
    block; 3D n = 8: 7), and its forcings."""
    grid, params = mp.GridSpec(dim=dim, n=n), mp.CouplingParams()
    data = _initial_data(grid, np.random.default_rng(11), amp=0.5)
    traj = mp.initial_trajectory(mp.start_state(*data), np.linspace(0, 0.25, 33), params)
    assert len(traj.node_blocks()) == 5
    comps = tag_components(dim)
    f, g = ((mp.ForcingSpec("tanh", (0.7,) * comps["u"], 0.5),
             mp.ForcingSpec("linear", (-0.4,) * comps["om"])) if forced else (ZERO, ZERO))
    return traj, params, f, g


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
def test_rhs_stack_bits_do_not_depend_on_workers(monkeypatch, dim, n, forced):
    """Every node's RHS has the same bytes with 1, 2 and 3 threads, and
    with 8 threads, more than the 5 blocks and than the host's cores, with
    the interpreter switching threads every microsecond."""
    import sys

    import micropolar.solver as solver

    traj, params, f, g = _blocked_trajectory(dim, n, forced)
    stacks = {}
    for count in (1, 2, 3, 8):
        monkeypatch.setattr(solver, "workers", lambda count=count: count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stacks[count] = [solver._rhs_stack(traj, params, f, g, False, first)[first:]
                             for first in (0, 1)]
        finally:
            sys.setswitchinterval(interval)
    for count in (2, 3, 8):
        for got, want in zip(stacks[count], stacks[1]):
            assert got.tobytes() == want.tobytes(), count


@pytest.mark.parametrize("count", [1, 2, 3])
def test_rhs_stack_raises_a_failed_blocks_error(monkeypatch, count):
    """An exception in the block that starts at node 9 (a helper's block
    with 2 or 3 threads) reaches the caller, and every thread the sweep
    started has ended when it does."""
    import threading

    import micropolar.solver as solver

    traj, params, f, g = _blocked_trajectory(2, 32, False)
    original = solver.assemble_rhs
    ninth = traj.coeffs["u"][9:].__array_interface__["data"][0]

    def failing(grid, uh, *args, **kwargs):
        if uh.__array_interface__["data"][0] == ninth:
            raise RuntimeError("block at node 9")
        return original(grid, uh, *args, **kwargs)

    monkeypatch.setattr(solver, "assemble_rhs", failing)
    monkeypatch.setattr(solver, "workers", lambda: count)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block at node 9"):
        solver._rhs_stack(traj, params, f, g, False, 1)
    assert threading.active_count() == before


# -- one sweep against its per-interval and per-node references -------------

def _integrate_nodes_reference(op, times, rhs):
    """The Duhamel recurrence of one field with one complex accumulator per
    family, rebound each interval and summed into every node."""
    eigs, parts = zip(*subspaces(op, rhs))
    acc = [np.zeros_like(p[0]) for p in parts]
    out = np.zeros_like(rhs)
    for j in range(len(times) - 1):
        h = float(times[j + 1] - times[j])
        for i, eig in enumerate(eigs):
            decay, w0, w1 = interval_weights(eig, h)
            acc[i] = decay * acc[i] + w0 * parts[i][j] + w1 * parts[i][j + 1]
        out[j + 1] = sum(acc[1:], acc[0])
    return out


def _free_evolution_reference(op, f0, times):
    """exp(-t op) f0 one node at a time, f0 Leray-projected under Stokes as
    initial data is."""
    c = leray_coeffs(f0.grid, f0.half) if op.kind is OperatorKind.STOKES else f0.half
    return np.stack([spectral_coeffs(op, lambda eig: np.exp(-t * eig), c)
                     for t in times.tolist()])


def _reference_sweep(traj, params, f, g):
    """A sweep that assembles the RHS at every node and integrates it by the
    reference recurrence."""
    rhs = node_rhs(traj, params, f, g)
    new = {tag: traj.free[tag] + _integrate_nodes_reference(op, traj.times, rhs[tag])
           for tag, op in zip(TAGS, mp.generators(traj.grid, params))}
    new["u"][(Ellipsis,) + (0,) * traj.grid.dim] = 0.0
    return new


SWEEP_CASES = {
    "2d": (2, 16, 1.0, False),
    "3d": (3, 8, 1.0, False),          # the elliptic generator: two families
    "graded": (2, 16, 2.0, False),
    "forced": (2, 16, 1.0, True),      # th through the plane buffer
}


def _sweep_case(name):
    dim, n, grading, forced = SWEEP_CASES[name]
    grid, params = mp.GridSpec(dim=dim, n=n), mp.CouplingParams()
    u0, om0, th0 = _initial_data(grid, np.random.default_rng(7))
    f, g = ZERO, ZERO
    if forced:
        f = mp.ForcingSpec("tanh", (0.2, -0.1), scale=0.5)
        g = mp.ForcingSpec("linear", (0.3,))
        # a later window's start: the microrotation and temperature keep means
        om0, th0 = (x + mp.SpectralField.single_mode(grid, (0, 0), 0.05) for x in (om0, th0))
    times = mp.PicardConfig(horizon=0.25, nodes_per_unit=64, grading=grading).node_grid()
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), times, params, strict=not forced)
    return grid, params, f, g, (u0, om0, th0), traj


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_references_bit_for_bit(case):
    """The closed-form free evolution, the in-place Duhamel recurrence and
    the kept node-0 RHS give the bytes of the per-node free evolution and of
    a sweep that assembles every node and integrates by the reference."""
    grid, params, f, g, start, traj = _sweep_case(case)
    for tag, op, f0 in zip(TAGS, mp.generators(grid, params), start):
        assert traj.free[tag].tobytes() == _free_evolution_reference(op, f0, traj.times).tobytes()
    prop = window_propagator(grid, params, traj.times)
    for _ in range(3):
        new = picard_step(traj, params, f, g, propagator=prop)
        ref = _reference_sweep(traj, params, f, g)
        for tag in TAGS:
            assert new.coeffs[tag].tobytes() == ref[tag].tobytes()
        traj = new


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_kept_start_rhs_matches_fresh_assembly(case):
    """The node-0 RHS a window's first sweep keeps is, bit for bit, the one
    a fresh assemble_rhs gives at node 0 of a later iterate."""
    grid, params, f, g, _, traj = _sweep_case(case)
    prop = window_propagator(grid, params, traj.times)
    for _ in range(2):
        traj = picard_step(traj, params, f, g, propagator=prop)
    fresh = mp.assemble_rhs(grid, *(traj.coeffs[tag][:1] for tag in TAGS), params, f, g)[0]
    kept = prop.start_rhs
    assert kept.tobytes() == fresh.tobytes()


def _count_field_builds(monkeypatch) -> list:
    """From here on, one "field" per SpectralField built and one "fill" per
    full spectrum filled, in the list returned."""
    import sys

    from micropolar import fields

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    fill = fields.full_spectrum
    monkeypatch.setattr(fields.SpectralField, "__post_init__",
                        counting("field", fields.SpectralField.__post_init__))
    for name, mod in list(sys.modules.items()):
        if name.startswith("micropolar") and getattr(mod, "full_spectrum", None) is fill:
            monkeypatch.setattr(mod, "full_spectrum", counting("fill", fill))
    return calls


def test_picard_step_builds_no_fields(grid2d, params, rng, monkeypatch):
    """A sweep works on the trajectory's half spectra: it builds no
    SpectralField and fills no full spectrum (state_at, which builds
    fields, and their .coeffs, which fill, show that the counting sees them)."""
    u0, om0, th0 = _initial_data(grid2d, rng)
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), np.linspace(0, 0.1, 5), params)
    calls = _count_field_builds(monkeypatch)
    f = mp.ForcingSpec("tanh", (0.2, -0.1), scale=0.5)
    g = mp.ForcingSpec("linear", (0.3,))
    traj = picard_step(traj, params, f, g)
    picard_step(traj, params, ZERO, ZERO, linear_only=True)
    assert calls == []
    state = traj.state_at(0)
    assert calls == ["field"] * 3
    [f.coeffs for f in state]
    assert sorted(calls) == ["field"] * 3 + ["fill"] * 3


def test_reports_build_no_fields(grid2d, params, cfg2, rng, monkeypatch):
    """The node table, the energy ledger and both residual checks read the
    trajectory's half spectra: they build no SpectralField and fill no full
    spectrum (state_at and .coeffs show that the counting sees them)."""
    from types import SimpleNamespace

    from micropolar.analysis import energy_report, pde_residual
    from micropolar.cli import _norm_table_rows

    f = mp.ForcingSpec("tanh", (0.2, -0.1), scale=0.5)
    g = mp.ForcingSpec("linear", (0.3,))
    u0, om0, th0 = _initial_data(grid2d, rng)
    traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), np.linspace(0, 0.1, 5), params)
    traj = picard_step(traj, params, f, g)
    calls = _count_field_builds(monkeypatch)
    _norm_table_rows(node_log(traj, WeightedNorms(cfg2, grid2d, params)),
                     SimpleNamespace(exponents=cfg2))
    energy_report(traj, params, f, g)
    pde_residual(traj, params, f, g)
    duhamel_residual(traj, params, f, g)
    assert calls == []
    state = traj.state_at(0)
    assert calls == ["field"] * 3
    [f.coeffs for f in state]
    assert sorted(calls) == ["field"] * 3 + ["fill"] * 3


def test_solver_states_build_no_fields(grid2d, params, cfg2, rng, tmp_path, monkeypatch):
    """Start states, window restarts, checkpoints and resume carry the half
    spectra: global_solve over two windows, checkpoint_write, checkpoint_read
    and _march from a checkpoint build no SpectralField and fill no full
    spectrum (state_at and .coeffs show that the counting sees them)."""
    from micropolar.checkpoint import checkpoint_read, checkpoint_write
    from micropolar.cli import InitialDataSpec, RunConfig, _march, _new_bundle

    start = mp.start_state(*_initial_data(grid2d, rng))
    pic = mp.PicardConfig(horizon=0.125, nodes_per_unit=32, tol=1e-10)
    cfg = RunConfig(grid2d, cfg2, params, ZERO, ZERO, pic, InitialDataSpec(),
                    t_total=0.5, output_dir=str(tmp_path / "out"))
    path = str(tmp_path / "w.mpk")
    calls = _count_field_builds(monkeypatch)
    result = mp.global_solve(start, cfg2, params, ZERO, ZERO, pic, 0.25)
    assert len(result.reports) == 2
    checkpoint_write(result.end, path, window=1)
    assert _march(cfg, _new_bundle(cfg, "checkpoint resume"), checkpoint_read(path)) == 0
    assert sorted(os.listdir(cfg.output_dir))[:2] == ["checkpoint_w2.mpk", "checkpoint_w3.mpk"]
    assert calls == []
    state = checkpoint_read(path).state_at(0)
    assert calls == ["field"] * 3
    [f.coeffs for f in state]
    assert sorted(calls) == ["field"] * 3 + ["fill"] * 3


def test_estimate_paths_fill_no_full_spectrum(grid2d, params, cfg2, monkeypatch):
    """The estimate checks and the initial data work on half spectra: the
    smoothing and difference checks, the embeddings, the exact-sup,
    symbol and random-member coupling estimates and build_initial_data fill
    no full spectrum (reading .coeffs shows that the counting sees it)."""
    from micropolar.analysis import _probe_work, verify_embeddings, verify_holder_difference
    from micropolar.cli import InitialDataSpec, build_initial_data, lambda_chain_cap

    base = mp.ExponentConfig(p=3.0, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    p3 = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid2d, params)).config
    a_op, _, b_op = mp.generators(grid2d, params)
    _probe_work.cache_clear()
    calls = _count_field_builds(monkeypatch)
    mp.verify_smoothing(a_op, 0.5, 0.5 * a_op.min_positive_eigenvalue(), solenoidal=True)
    verify_holder_difference(b_op, 0.5)
    verify_embeddings(0.5, 2.0, 1, 2.0, grid2d, ensemble=2)
    for lemma_id in ("2.5", "2.10"):
        mp.verify_bilinear(lemma_id, cfg2, grid2d, params, ensemble=2)
    mp.verify_bilinear("2.6", p3, grid2d, params, ensemble=2)
    for kind in ("random", "single_mode", "zero"):
        data = build_initial_data(grid2d, InitialDataSpec(kind=kind), seed=1)
    assert "field" in calls and "fill" not in calls
    [f.coeffs for f in data]
    assert calls[-3:] == ["fill"] * 3


@pytest.mark.parametrize("mean", [True, False], ids=["mean", "mean-zero"])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_l2_matches_full_spectrum_sum(dim, n, mean):
    """SpectralField.l2 and TrajectoryState.l2_norms, Parseval sums on the
    half spectrum, agree with the sum over every mode of the full spectrum
    for fields with content in the Nyquist column."""
    grid = mp.GridSpec(dim=dim, n=n)
    rng = np.random.default_rng(5)
    fields = {}
    for tag, comp in tag_components(dim).items():
        fs = [mp.to_spectral(grid, rng.standard_normal((comp,) + grid.shape))
              for _ in range(4)]
        fields[tag] = fs if mean else [x.drop_mean() for x in fs]
    for fs in fields.values():
        assert np.min(np.abs(fs[0].coeffs[..., n // 2])) > 0
        assert (np.min(np.abs(fs[0].mean_values())) > 0) == mean
    halves = {tag: _stack(fs) for tag, fs in fields.items()}
    traj = TrajectoryState(times=np.linspace(0.0, 0.1, 4), grid=grid, coeffs=halves,
                           free=halves)
    norms = traj.l2_norms()
    for tag, fs in fields.items():
        want = [math.sqrt(grid.volume * float(np.sum(np.abs(x.coeffs) ** 2))) for x in fs]
        np.testing.assert_allclose([x.l2() for x in fs], want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(norms[tag], want, rtol=1e-14, atol=0)


def test_state_at_is_full_spectrum_of_stored_arrays(grid2d, grid3d, params, cfg2):
    for grid in (grid2d, grid3d):
        u0, om0, th0 = _initial_data(grid, np.random.default_rng(3))
        traj = mp.initial_trajectory(mp.start_state(u0, om0, th0), np.linspace(0, 0.1, 5), params)
        traj = picard_step(traj, params, ZERO, ZERO)
        for j in range(traj.node_count):
            for tag, fld in zip(TAGS, traj.state_at(j)):
                half = traj.coeffs[tag][j]
                assert fld.coeffs.tobytes() == full_spectrum(grid, half).tobytes()
                assert half_spectrum(fld.coeffs).tobytes() == half.tobytes()
        assert [f.coeffs.tobytes() for f in traj.u] \
            == [traj.state_at(j)[0].coeffs.tobytes() for j in range(traj.node_count)]


def test_global_log_joins_window_logs_at_shared_end_nodes(grid2d, params, cfg2, rng):
    """The run's log and energy ledger are each window's node_log and
    energy_report, bit for bit, joined at the shared end nodes; the end
    state is the last window's last node."""
    u0, om0, th0 = _initial_data(grid2d, rng)
    pic = mp.PicardConfig(horizon=0.125, nodes_per_unit=64, tol=1e-10, m_max=30)
    windows = []
    res = mp.global_solve(mp.start_state(u0, om0, th0), cfg2, params, ZERO, ZERO, pic, 0.375,
                          checkpoint_hook=lambda w, traj: windows.append(traj))
    assert res.completed and len(windows) == 3
    for a, b in zip(windows, windows[1:]):
        assert b.times[0] == a.times[-1]
    norms = WeightedNorms(cfg2, grid2d, params)
    logs = [node_log(w, norms) for w in windows]
    ledgers = [vars(mp.energy_report(w, params, ZERO, ZERO)) for w in windows]
    for got, parts in ((res.log, logs), (vars(res.ledger), ledgers)):
        assert got.keys() == parts[0].keys()
        for key, value in got.items():
            if isinstance(value, np.ndarray):
                joined = np.concatenate([parts[0][key]] + [p[key][1:] for p in parts[1:]])
                assert value.tobytes() == joined.tobytes(), key
    assert set(logs[0]) >= {"t", *TAGS} | set(res.e_sup)
    assert res.end.times.tobytes() == windows[-1].times[-1:].tobytes()
    for tag in TAGS:
        assert res.end.coeffs[tag].tobytes() == windows[-1].coeffs[tag][-1:].tobytes()
    assert res.end.m == windows[-1].m


def test_global_solve_holds_one_window_at_a_time(grid2d, params, cfg2, rng):
    """The march reduces each window to per-node scalars and drops it before
    the next: from 2 to 6 windows, the traced peak of global_solve grows by
    less than one window's coefficient bytes (a march that keeps one copy of
    the run grows by four)."""
    import tracemalloc

    start = mp.start_state(*_initial_data(grid2d, rng))
    pic = mp.PicardConfig(horizon=0.125, nodes_per_unit=128, tol=1e-10, m_max=30)
    peaks = []
    for t_total in (0.25, 0.75):
        tracemalloc.start()
        res = mp.global_solve(start, cfg2, params, ZERO, ZERO, pic, t_total)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert res.completed
    window = 17 * sum(c.nbytes for c in start.coeffs.values())
    assert peaks[1] - peaks[0] < window


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_node_norms_do_not_depend_on_the_row_count(params, cfg2, dim, n):
    """A node's node_norms (s = 2) have the same bits in blocks of 1, 8 and
    33 nodes as in all 65: in 3D the microrotation's second family too."""
    grid = mp.GridSpec(dim=dim, n=n)
    norms = WeightedNorms(cfg2, grid, params)
    start = mp.start_state(*_initial_data(grid, np.random.default_rng(5)))
    traj = picard_step(mp.initial_trajectory(start, np.linspace(0, 0.25, 65), params),
                       params, ZERO, ZERO)
    for tag, half in traj.coeffs.items():
        exps = (norms.base[tag],) + tuple(norms.exps[tag])
        whole = norms.node_norms(tag, half, exps)
        for size in (1, 8, 33):
            blocks = [norms.node_norms(tag, half[j:j + size], exps) for j in range(0, 65, size)]
            assert np.concatenate(blocks, axis=1).tobytes() == whole.tobytes(), (tag, size)
