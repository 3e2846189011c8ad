import numpy as np
import pytest
from hypothesis import given, strategies as st

import micropolar as mp
from micropolar.errors import ConfigurationError
from micropolar.fields import grid_points, half_spectrum, to_physical
from micropolar.nonlinear import evaluate_forcing
from micropolar.operators import divergence_defect, gradient


def test_coupling_param_validation():
    with pytest.raises(ConfigurationError):
        mp.CouplingParams(mu=-1.0)
    with pytest.raises(ConfigurationError):
        mp.CouplingParams(c0=0.1, ca=2.0, cd=0.5)  # c0 + cd <= ca
    p = mp.CouplingParams()
    assert p.mu + p.mu_r == pytest.approx(1.0)
    assert (p.c0, p.ca, p.cd, p.kappa, p.cv, p.rho) == (0.5, 0.25, 0.75, 1.0, 1.0, 1.0)


def test_advect_constant_target(grid2d, rng):
    u = mp.leray_project(mp.random_field(grid2d, 2, rng))
    w = mp.to_spectral(grid2d, np.full((1,) + grid2d.shape, 2.5))
    assert mp.advect(u, w).l2() <= 1e-13


def test_advect_hand_example(grid2d):
    x, y = grid_points(grid2d)
    u = mp.to_spectral(grid2d, np.stack([np.sin(y), np.zeros_like(y)]))
    w = mp.to_spectral(grid2d, np.sin(x)[None])
    expect = mp.to_spectral(grid2d, (np.sin(y) * np.cos(x))[None]).dealias()
    assert (mp.advect(u, w) - expect).l2() <= 1e-13


@given(st.integers(0, 5_000))
def test_advect_skew_symmetry(seed):
    grid = mp.GridSpec(dim=2, n=16)
    rng = np.random.default_rng(seed)
    u = mp.leray_project(mp.random_field(grid, 2, rng))
    w = mp.random_field(grid, 1, rng)
    aw = mp.advect(u, w)
    integral = grid.volume * np.sum(np.real(np.conj(aw.coeffs) * w.coeffs))
    assert abs(integral) <= 1e-12 * max(u.l2() * w.l2() ** 2, 1e-30)


def test_advect_grid_mismatch(grid2d, grid3d, rng):
    u = mp.random_field(grid2d, 2, rng)
    w = mp.random_field(grid3d, 1, rng)
    with pytest.raises(ConfigurationError):
        mp.advect(u, w)


def test_phi_zero_inputs(grid2d, params):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    assert mp.dissipation_phi(z2, z2, z1, z1, params).l2() == 0.0


def test_phi_constant_microrotation_2d(grid2d, params):
    z2 = mp.SpectralField.zero(grid2d, 2)
    om = mp.to_spectral(grid2d, np.full((1,) + grid2d.shape, 0.7))
    phi = mp.dissipation_phi(z2, z2, om, om, params, dealias=False)
    vals = to_physical(phi)
    assert np.allclose(vals, 4 * params.mu_r * 0.49, atol=1e-13)


def test_phi_constant_microrotation_3d(grid3d, params):
    z3 = mp.SpectralField.zero(grid3d, 3)
    c = np.array([0.2, -0.4, 0.1])
    om = mp.to_spectral(grid3d, np.broadcast_to(
        c[:, None, None, None], (3,) + grid3d.shape).copy())
    phi = mp.dissipation_phi(z3, z3, om, om, params, dealias=False)
    vals = to_physical(phi)
    assert np.allclose(vals, 4 * params.mu_r * np.sum(c * c), atol=1e-13)


def _random_state(grid, rng, scale=1.0):
    om_comp = 1 if grid.dim == 2 else 3
    u = mp.leray_project(mp.random_field(grid, grid.dim, rng)) * scale
    om = mp.random_field(grid, om_comp, rng) * scale
    th = mp.random_field(grid, 1, rng) * scale
    return u, om, th


def test_phi_diagonal_nonnegative(grid2d, grid3d, params, rng):
    for grid in (grid2d, grid3d):
        u, om, _ = _random_state(grid, rng)
        phi = mp.dissipation_phi(u, u, om, om, params, dealias=False)
        assert to_physical(phi).min() >= -1e-12


def test_phi_quadratic_form_oracle(grid2d, params, rng):
    # independent expansion: 2 mu |D|^2 + 4 mu_r |rot u/2 - om|^2 + 2 ca |grad om|^2
    # + 2 (cd-ca) |sym grad om|^2 (2D scalar microrotation: grad om is a vector,
    # so sym part is itself and the two terms give (ca+cd)|grad om|^2)
    u, om, _ = _random_state(grid2d, rng)
    du = gradient(u)
    d_sym = 0.5 * (du + np.swapaxes(du, 0, 1))
    d_phys = np.stack([to_physical(mp.SpectralField(grid2d, d_sym[i], mean_zero=True))
                       for i in range(2)])
    rot_u = to_physical(mp.rot(u))[0]
    om_p = to_physical(om)[0]
    gom = np.stack([to_physical(mp.SpectralField(grid2d, g[None], mean_zero=True))[0]
                    for g in gradient(om)[0]])
    oracle = (2 * params.mu * np.sum(d_phys ** 2, axis=(0, 1))
              + 4 * params.mu_r * (0.5 * rot_u - om_p) ** 2
              + (params.ca + params.cd) * np.sum(gom ** 2, axis=0))
    got = to_physical(mp.dissipation_phi(u, u, om, om, params, dealias=False))[0]
    assert np.max(np.abs(got - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_phi_symmetry(grid2d, params, rng):
    u, om, _ = _random_state(grid2d, rng)
    v, psi, _ = _random_state(grid2d, rng)
    left = mp.dissipation_phi(u, v, om, psi, params, dealias=False)
    right = mp.dissipation_phi(v, u, psi, om, params, dealias=False)
    assert (left - right).l2() <= 1e-13 * max(left.l2(), 1e-30)


def test_phi_bilinear_in_paired_slots(grid2d, params, rng):
    # phi is a bilinear form in the pairs (u, om) x (v, psi)
    u, om, _ = _random_state(grid2d, rng)
    v, psi, _ = _random_state(grid2d, rng)
    u2, om2, _ = _random_state(grid2d, rng)
    a, b = 1.7, -0.6
    base = mp.dissipation_phi(u, v, om, psi, params, dealias=False)
    scaled = mp.dissipation_phi(a * u, v, a * om, psi, params, dealias=False)
    assert (scaled - a * base).l2() <= 1e-12 * max(base.l2(), 1e-30)
    scaled_r = mp.dissipation_phi(u, b * v, om, b * psi, params, dealias=False)
    assert (scaled_r - b * base).l2() <= 1e-12 * max(base.l2(), 1e-30)
    summed = mp.dissipation_phi(u + u2, v, om + om2, psi, params, dealias=False)
    other = mp.dissipation_phi(u2, v, om2, psi, params, dealias=False)
    assert (summed - base - other).l2() <= 1e-12 * max(base.l2(), 1e-30)


def test_forcing_specs():
    z = mp.ForcingSpec.zero()
    assert z.lipschitz == 0.0
    lin = mp.ForcingSpec("linear", (0.3, -0.4))
    assert lin.lipschitz == pytest.approx(0.5)
    tanh = mp.ForcingSpec("tanh", (1.0, 0.0), scale=0.2)
    assert tanh.lipschitz == pytest.approx(1.0)
    assert np.allclose(lin(np.zeros(3)), 0.0)
    assert np.allclose(tanh(np.zeros(3)), 0.0)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_forcing_lipschitz_property(a, b):
    for spec in (mp.ForcingSpec("linear", (0.7, -0.2)),
                 mp.ForcingSpec("tanh", (0.7, -0.2), scale=0.5)):
        fa = spec(np.array([a]))
        fb = spec(np.array([b]))
        assert np.linalg.norm(fa - fb) <= spec.lipschitz * abs(a - b) + 1e-12


def test_forcing_serialization_roundtrip():
    spec = mp.ForcingSpec("tanh", (0.1, 0.2), scale=0.5)
    assert mp.ForcingSpec.from_dict(spec.to_dict()) == spec


def _halves(*fields):
    """One node's half spectra, (1, comp, *half) each."""
    return [half_spectrum(x.coeffs)[np.newaxis] for x in fields]


def _field(grid, half):
    return mp.SpectralField(grid, half)


def test_assemble_rhs_zero_state(grid2d, params):
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    zero = mp.ForcingSpec.zero()
    out = mp.assemble_rhs(grid2d, *_halves(z2, z1, z1), params, zero, zero)
    assert out.shape == (1, 4) + half_spectrum(z1.coeffs).shape[1:]
    assert not np.any(out)


def test_assemble_rhs_linear_term_isolation(grid2d, params):
    # u = 0, theta = 0, omega a single low mode: G = -4 mu_r omega exactly
    om = mp.SpectralField.single_mode(grid2d, (1, 0), 0.3)
    z2 = mp.SpectralField.zero(grid2d, 2)
    z1 = mp.SpectralField.zero(grid2d, 1)
    zero = mp.ForcingSpec.zero()
    (out,) = mp.assemble_rhs(grid2d, *_halves(z2, om, z1), params, zero, zero)
    expect = half_spectrum(((-4 * params.mu_r) * om).coeffs)
    assert np.max(np.abs(out[2:3] - expect)) <= 1e-14


def test_assemble_rhs_output_structure(grid2d, params, rng):
    u, om, th = _random_state(grid2d, rng)
    zero = mp.ForcingSpec.zero()
    (out,) = mp.assemble_rhs(grid2d, *_halves(u, om, th), params, zero, zero)
    assert divergence_defect(_field(grid2d, out[:2])) <= 1e-12
    # mean of H equals mean of Phi/(rho cv): transport integrates to zero
    phi = mp.dissipation_phi(u, u, om, om, params)
    lhs = out[3, 0, 0].real
    rhs = phi.mean_values()[0] / (params.rho * params.cv)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def _reference_rhs(u, om, th, params, f, g, linear_only=False):
    """The RHS composed from the single-purpose kernels, one transform pair
    each: the reference the fused assemble_rhs must reproduce."""
    grid = u.grid
    two_mur = 2.0 * params.mu_r / params.rho
    f_rhs = two_mur * mp.leray_project(mp.rot(om)) if params.mu_r > 0 else \
        mp.SpectralField.zero(grid, grid.dim)
    if f.kind != "zero":
        f_rhs = f_rhs + mp.leray_project(evaluate_forcing(f, th, grid.dim))
    if not linear_only:
        f_rhs = f_rhs - mp.leray_project(mp.advect(u, u))
    g_rhs = (-2.0 * two_mur) * om + two_mur * mp.rot(u) if params.mu_r > 0 else \
        mp.SpectralField.zero(grid, om.components, mean_zero=False)
    if g.kind != "zero":
        g_rhs = g_rhs + evaluate_forcing(g, th, om.components)
    if not linear_only:
        g_rhs = g_rhs - mp.advect(u, om)
    h_rhs = mp.SpectralField.zero(grid, 1, mean_zero=False)
    if not linear_only:
        phi = mp.dissipation_phi(u, u, om, om, params)
        h_rhs = (1.0 / (params.rho * params.cv)) * phi - mp.advect(u, th)
    return f_rhs.dealias(), g_rhs.dealias(), h_rhs.dealias()


def _forcings(kind, comps):
    c = tuple(0.3 * (-1) ** i / (i + 1) for i in range(comps))
    if kind == "zero":
        return mp.ForcingSpec.zero()
    return mp.ForcingSpec(kind, c, scale=0.05 if kind == "tanh" else 1.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("forcing", ["zero", "linear", "tanh"])
@pytest.mark.parametrize("mu_r", [0.0, 0.1])
@pytest.mark.parametrize("linear_only", [False, True])
def test_fused_rhs_matches_composition(grid2d, grid3d, dim, forcing, mu_r,
                                       linear_only):
    grid = grid2d if dim == 2 else grid3d
    params = mp.CouplingParams(mu=1.0 - mu_r, mu_r=mu_r, cv=1.5, rho=1.2)
    u, om, th = _random_state(grid, np.random.default_rng(dim), scale=0.7)
    f = _forcings(forcing, dim)
    g = _forcings(forcing, om.components)
    (got,) = mp.assemble_rhs(grid, *_halves(u, om, th), params, f, g,
                             linear_only=linear_only)
    ref = _reference_rhs(u, om, th, params, f, g, linear_only=linear_only)
    scale = max(r.l2() for r in ref)
    for a, b in zip(np.split(got, [dim, dim + om.components]), ref):
        assert a.shape == half_spectrum(b.coeffs).shape
        assert _field(grid, a - half_spectrum(b.coeffs)).l2() <= 1e-13 * scale
    assert np.all(got[(slice(None, dim),) + (0,) * dim] == 0)  # F's mean mode
    assert divergence_defect(_field(grid, got[:dim])) <= 1e-12


def _bit_equal(a, b):
    """Equal values and equal sign bits (np.array_equal takes -0.0 == 0.0)."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@pytest.mark.parametrize("dim,n,forcing", [(2, 32, "zero"), (2, 16, "tanh"),
                                           (3, 8, "linear")])
@pytest.mark.parametrize("linear_only", [False, True])
def test_node_blocked_rhs_matches_single_nodes(dim, n, forcing, linear_only):
    """A block of nodes gives each node the RHS of its own one-node call, bit
    for bit; 65 nodes in blocks of 8 end with a shorter block."""
    grid = mp.GridSpec(dim=dim, n=n)
    params = mp.CouplingParams(mu=0.9, mu_r=0.1, cv=1.5, rho=1.2)
    rng = np.random.default_rng(n)
    states = [_halves(*_random_state(grid, rng, scale=0.7)) for _ in range(65)]
    uh, omh, thh = (np.concatenate(x) for x in zip(*states))
    f = _forcings(forcing, dim)
    g = _forcings(forcing, omh.shape[1])
    blocked = np.concatenate([
        mp.assemble_rhs(grid, uh[j: j + 8], omh[j: j + 8], thh[j: j + 8], params,
                        f, g, linear_only=linear_only)
        for j in range(0, 65, 8)])
    single = np.concatenate([mp.assemble_rhs(grid, *state, params, f, g,
                                             linear_only=linear_only)
                             for state in states])
    assert _bit_equal(blocked, single)


def test_forcing_evaluation_component_check(grid2d, rng):
    th = mp.random_field(grid2d, 1, rng)
    spec = mp.ForcingSpec("linear", (1.0,))
    with pytest.raises(ConfigurationError):
        evaluate_forcing(spec, th, 2)


def test_generators_from_params(grid3d):
    params = mp.CouplingParams(mu=0.6, mu_r=0.2, c0=0.4, ca=0.3, cd=0.5,
                               kappa=1.5, cv=2.0, rho=1.0)
    a_op, g_op, b_op = mp.generators(grid3d, params)
    assert a_op.coeff_perp == pytest.approx(0.8)       # (mu + mu_r) / rho
    assert g_op.coeff_perp == pytest.approx(0.8)       # (ca + cd) / rho
    assert g_op.coeff_para == pytest.approx(1.4)       # (c0 + 2 cd) / rho
    assert b_op.coeff_perp == pytest.approx(0.75)      # kappa / (rho cv)


def test_dealiased_product_matches_fine_grid(grid2d, rng):
    """The 2/3-rule product of in-ball fields equals the exact product
    computed on a double-resolution grid and truncated."""
    u = mp.leray_project(mp.random_field(grid2d, 2, rng))
    w = mp.random_field(grid2d, 1, rng)
    coarse = mp.advect(u, w)

    fine_grid = mp.GridSpec(dim=2, n=2 * grid2d.n)
    def upsample(f):
        c = np.zeros((f.components,) + fine_grid.shape, complex)
        half = grid2d.n // 2
        ks = np.meshgrid(*[np.fft.fftfreq(grid2d.n, 1.0 / grid2d.n)] * 2, indexing="ij")
        it = np.ndindex(*grid2d.shape)
        for idx in it:
            kv = tuple(int(ks[a][idx]) for a in range(2))
            tgt = tuple(k % fine_grid.n for k in kv)
            c[(slice(None),) + tgt] = f.coeffs[(slice(None),) + idx]
        return mp.SpectralField(fine_grid, half_spectrum(c))

    fine = mp.advect(upsample(u), upsample(w))
    # compare the coefficients retained by the coarse dealias ball
    from micropolar.fields import dealias_mask, integer_wavevectors
    mask = dealias_mask(grid2d)
    ksc = integer_wavevectors(grid2d)
    worst = 0.0
    for idx in np.ndindex(*grid2d.half_shape):
        if not mask[idx]:
            continue
        kv = tuple(int(ksc[a][idx]) for a in range(2))
        tgt = tuple(k % fine_grid.n for k in kv)
        worst = max(worst, abs(coarse.half[(0,) + idx]
                               - fine.coeffs[(0,) + tgt]))
    assert worst <= 1e-14


def test_energy_consistency_general_heat_capacity(grid2d):
    """With cv != 1 the conserved total is rho/2(|u|^2+|om|^2) + rho cv int(theta):
    checks the generator/source scaling end to end."""
    params = mp.CouplingParams(mu=0.7, mu_r=0.3, kappa=1.5, cv=2.0)
    from micropolar.cli import lambda_chain_cap
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0),
        lambda_cap=lambda_chain_cap(grid2d, params)).config
    rng = np.random.default_rng(8)
    u0 = mp.leray_project(mp.random_field(grid2d, 2, rng, sigma=4.0, amplitude=0.3))
    om0 = mp.random_field(grid2d, 1, rng, sigma=4.0, amplitude=0.3)
    th0 = mp.random_field(grid2d, 1, rng, sigma=4.0, amplitude=0.3)
    zero = mp.ForcingSpec.zero()
    pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=128, tol=1e-11, m_max=40)
    traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, zero, zero, pic)
    assert rep.converged
    from micropolar.analysis import energy_report
    elog = energy_report(traj, params, zero, zero)
    assert elog.relative_drift <= 1e-4
    assert elog.kinetic_monotone()


# -- batched kernels against a per-field loop ------------------------------


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) <= 1e-14 * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_kernels_match_per_field_loop(dim, grid2d, grid3d, params):
    from micropolar.fields import full_spectrum, half_spectrum
    from micropolar.nonlinear import advect_coeffs, dissipation_coeffs

    grid = grid2d if dim == 2 else grid3d
    rng = np.random.default_rng(21)
    oc = 1 if dim == 2 else 3
    nb = 5
    us = [mp.leray_project(mp.random_field(grid, dim, rng)) for _ in range(nb)]
    vs = [mp.leray_project(mp.random_field(grid, dim, rng)) for _ in range(nb)]
    oms = [mp.random_field(grid, oc, rng) for _ in range(nb)]
    psis = [mp.random_field(grid, oc, rng) for _ in range(nb)]

    def stack(fields):
        return half_spectrum(np.stack([f.coeffs for f in fields]))

    def unstack(half):
        return full_spectrum(grid, half)

    # every member batched, then one side fixed (batch axis of length 1)
    got = unstack(advect_coeffs(grid, stack(us), stack(vs)))
    assert _close(got, np.stack([mp.advect(u, v).coeffs for u, v in zip(us, vs)]))
    got = unstack(advect_coeffs(grid, stack(us[:1]), stack(oms)))
    assert _close(got, np.stack([mp.advect(us[0], om).coeffs for om in oms]))
    got = unstack(advect_coeffs(grid, stack(us), stack(oms[:1])))
    assert _close(got, np.stack([mp.advect(u, oms[0]).coeffs for u in us]))

    got = unstack(dissipation_coeffs(grid, stack(us), stack(vs), stack(oms),
                                     stack(psis), params))
    assert got.shape == (nb, 1) + grid.shape
    assert _close(got, np.stack([mp.dissipation_phi(*x, params).coeffs
                                 for x in zip(us, vs, oms, psis)]))
    got = unstack(dissipation_coeffs(grid, stack(us[:1]), stack(vs), stack(oms[:1]),
                                     stack(psis[:1]), params, dealias=False))
    assert _close(got, np.stack([mp.dissipation_phi(us[0], v, oms[0], psis[0], params,
                                                    dealias=False).coeffs
                                 for v in vs]))
