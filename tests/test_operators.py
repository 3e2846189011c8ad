import numpy as np
import pytest
from hypothesis import given, strategies as st

import micropolar as mp
from micropolar.errors import SingularOperatorError
from micropolar.fields import grid_points, half_spectrum
from micropolar.operators import (
    divergence,
    divergence_defect,
    gradient,
    lebesgue_norm,
    sobolev_norm,
)


def test_leray_kills_gradients(grid2d, rng):
    phi = mp.random_field(grid2d, 1, rng)
    grad_phi = mp.SpectralField(grid2d, gradient(phi)[0], mean_zero=True)
    assert mp.leray_project(grad_phi).l2() <= 1e-13 * grad_phi.l2()


def test_leray_fixes_solenoidal(grid2d, rng):
    v = mp.leray_project(mp.random_field(grid2d, 2, rng))
    assert (mp.leray_project(v) - v).l2() <= 1e-14 * v.l2()


def test_leray_divergence_free(grid2d, rng):
    v = mp.leray_project(mp.random_field(grid2d, 2, rng))
    assert divergence_defect(v) <= 1e-13


def test_leray_mode_parallel_to_k(grid3d):
    # coefficient vector equal to k itself is annihilated
    v = mp.SpectralField.single_mode(grid3d, (1, 0, 0), [1.0, 0.0, 0.0])
    assert mp.leray_project(v).l2() <= 1e-14


def test_leray_rejects_scalars(grid2d, rng):
    with pytest.raises(TypeError):
        mp.leray_project(mp.random_field(grid2d, 1, rng))


def test_laplace_unit_eigenvalue(grid2d):
    f = mp.SpectralField.single_mode(grid2d, (1, 0), 1.0)
    b = mp.laplace_operator(grid2d)
    assert (mp.apply_operator(b, f) - f).l2() <= 1e-14


def test_stokes_half_power_scale(grid2d):
    # solenoidal single mode with |k| = 2: A^(1/2) scales by 2
    u = mp.SpectralField.single_mode(grid2d, (0, 2), [1.0, 0.0])
    a = mp.stokes_operator(grid2d, power=0.5)
    assert mp.apply_operator(a, u).l2() / u.l2() == pytest.approx(2.0)


def test_gamma_gradient_mode_doubles(grid3d):
    om = mp.SpectralField.single_mode(grid3d, (1, 0, 0), [1.0, 0.0, 0.0])
    g = mp.gamma_operator(grid3d)
    assert mp.apply_operator(g, om).l2() / om.l2() == pytest.approx(2.0)


def test_fractional_composition(grid2d, rng):
    u = mp.leray_project(mp.random_field(grid2d, 2, rng))
    a = mp.stokes_operator(grid2d)
    left = mp.apply_operator(a.with_power(0.35), mp.apply_operator(a.with_power(0.4), u))
    right = mp.apply_operator(a.with_power(0.75), u)
    assert (left - right).l2() <= 1e-13 * right.l2()


def test_negative_power_needs_mean_zero(grid2d):
    c = np.zeros((1,) + grid2d.shape, complex)
    c[0, 0, 0] = 1.0
    c[0, 1, 0] = 0.5
    c[0, -1, 0] = 0.5
    f = mp.SpectralField(grid2d, half_spectrum(c))
    b = mp.laplace_operator(grid2d, power=-0.5)
    with pytest.raises(SingularOperatorError):
        mp.apply_operator(b, f)


def test_semigroup_identity_and_closed_form(grid2d, rng):
    b = mp.laplace_operator(grid2d)
    f = mp.random_field(grid2d, 1, rng)
    assert (mp.semigroup_apply(b, 0.0, f) - f).l2() == 0.0
    mode = mp.SpectralField.single_mode(grid2d, (2, 0), 1.0)  # eigenvalue 4
    out = mp.semigroup_apply(b, 0.25, mode)
    assert out.l2() / mode.l2() == pytest.approx(np.exp(-1.0), rel=1e-13)


@given(st.integers(0, 10_000))
def test_semigroup_law(seed):
    grid = mp.GridSpec(dim=2, n=16)
    f = mp.random_field(grid, 1, np.random.default_rng(seed))
    b = mp.laplace_operator(grid)
    lhs = mp.semigroup_apply(b, 0.2, f)
    rhs = mp.semigroup_apply(b, 0.1, mp.semigroup_apply(b, 0.1, f))
    assert (lhs - rhs).l2() <= 1e-13 * max(lhs.l2(), 1e-30)


def test_semigroup_rejects_negative_time(grid2d, rng):
    with pytest.raises(ValueError):
        mp.semigroup_apply(mp.laplace_operator(grid2d), -0.1,
                           mp.random_field(grid2d, 1, rng))


def test_zero_field_norms(grid2d):
    z = mp.SpectralField.zero(grid2d, 1)
    assert lebesgue_norm(z, 2) == 0.0
    assert sobolev_norm(z, 1, 3.0) == 0.0
    assert lebesgue_norm(mp.apply_operator(mp.laplace_operator(grid2d, power=0.5), z), 2) == 0.0


def test_sine_l2_norm(grid2d):
    x, _ = grid_points(grid2d)
    f = mp.to_spectral(grid2d, np.sin(2 * np.pi * x / grid2d.length)[None])
    expect = np.sqrt(2 * np.pi) * np.sqrt(np.pi)  # sqrt(volume/2) in 2D
    assert lebesgue_norm(f, 2) == pytest.approx(expect, rel=1e-12)


def test_fractional_norm_diagonal_action(grid2d):
    u = mp.SpectralField.single_mode(grid2d, (0, 2), [1.0, 0.0])  # eigenvalue 4
    got = mp.apply_operator(mp.stokes_operator(grid2d).with_power(0.5), u).l2()
    assert got == pytest.approx(4 ** 0.5 * u.l2(), rel=1e-12)


def test_lambda1_values():
    assert mp.lambda1(mp.GridSpec(dim=2, n=16)) == pytest.approx(1.0)
    assert mp.lambda1(mp.GridSpec(dim=2, n=16, length=np.pi)) == pytest.approx(4.0)


def test_lambda1_matches_semigroup_decay(grid2d):
    mode = mp.SpectralField.single_mode(grid2d, (1, 0), 1.0)
    b = mp.laplace_operator(grid2d)
    t = 0.7
    assert mp.semigroup_apply(b, t, mode).l2() / mode.l2() == pytest.approx(
        np.exp(-t * mp.lambda1(grid2d)), rel=1e-13)


def test_smoothing_single_mode_exact(grid2d):
    # ||A^a e^{-tA} f|| = mu^a e^{-t mu} ||f|| per eigenmode
    u = mp.SpectralField.single_mode(grid2d, (1, 1), [1.0, -1.0])  # solenoidal, mu=2
    a = mp.stokes_operator(grid2d)
    t, alpha = 0.3, 0.5
    out = mp.apply_operator(a.with_power(alpha), mp.semigroup_apply(a, t, u))
    assert out.l2() / u.l2() == pytest.approx(2 ** alpha * np.exp(-2 * t), rel=1e-12)


def test_gradient_l2_equals_half_power(grid2d, rng):
    # Parseval identity oracle: ||grad u||_2 = ||A^(1/2) u||_2 for solenoidal u
    u = mp.leray_project(mp.random_field(grid2d, 2, rng))
    g = gradient(u).reshape((-1,) + grid2d.half_shape)
    grad_norm = mp.SpectralField(grid2d, g, mean_zero=True).l2()
    half = mp.apply_operator(mp.stokes_operator(grid2d, power=0.5), u).l2()
    assert grad_norm == pytest.approx(half, rel=1e-12)


def test_sobolev_norm_contains_lower_orders(grid2d, rng):
    f = mp.random_field(grid2d, 1, rng)
    assert sobolev_norm(f, 1, 2.0) > lebesgue_norm(f, 2.0)


def test_divergence_of_rot_vanishes(grid3d, rng):
    om = mp.random_field(grid3d, 3, rng)
    assert divergence(mp.rot(om)).l2() <= 1e-13 * om.l2()


def test_l4_norm_analytic(grid2d):
    x, _ = grid_points(grid2d)
    f = mp.to_spectral(grid2d, np.sin(x)[None])
    # mean of sin^4 is 3/8, so the integral over the 2D torus is 3 pi^2 / 2
    expect = (3 * np.pi ** 2 / 2) ** 0.25
    assert lebesgue_norm(f, 4) == pytest.approx(expect, rel=1e-12)


def test_w1_norm_analytic(grid2d):
    x, _ = grid_points(grid2d)
    f = mp.to_spectral(grid2d, np.sin(x)[None])
    mode_l2 = np.sqrt(2 * np.pi ** 2)
    assert sobolev_norm(f, 1, 2) == pytest.approx(2 * mode_l2, rel=1e-12)


def test_gamma_general_coefficients(grid3d):
    op = mp.gamma_operator(grid3d, coeff_perp=0.8, coeff_para=1.4)
    trans = mp.SpectralField.single_mode(grid3d, (1, 0, 0), [0.0, 1.0, 0.0])
    para = mp.SpectralField.single_mode(grid3d, (1, 0, 0), [1.0, 0.0, 0.0])
    assert mp.apply_operator(op, trans).l2() / trans.l2() == pytest.approx(0.8)
    assert mp.apply_operator(op, para).l2() / para.l2() == pytest.approx(1.4)


@pytest.mark.parametrize("kind", ["stokes", "gamma", "laplace"])
def test_batched_power_matches_per_field(grid2d, rng, kind):
    from micropolar.operators import leray_coeffs, power_coeffs

    op = {"stokes": mp.stokes_operator, "gamma": mp.gamma_operator,
          "laplace": mp.laplace_operator}[kind](grid2d)
    comp = 1 if kind == "laplace" else 2
    fields = [mp.random_field(grid2d, comp, rng) for _ in range(4)]
    stacked = np.stack([f.half for f in fields])
    for power in (-0.5, 0.0, 0.75):
        got = power_coeffs(op.with_power(power), stacked)
        want = np.stack([mp.apply_operator(op.with_power(power), f).half
                         for f in fields])
        assert np.array_equal(got, want)
    if comp == 2:
        want = np.stack([mp.leray_project(f).half for f in fields])
        assert np.array_equal(leray_coeffs(grid2d, stacked), want)


def test_batched_negative_power_checks_every_member(grid2d, rng):
    from micropolar.operators import power_coeffs

    op = mp.laplace_operator(grid2d, power=-0.5)
    stacked = np.stack([mp.random_field(grid2d, 1, rng).half for _ in range(3)])
    stacked[2, 0, 0, 0] = 0.1      # the last member alone has a mean
    with pytest.raises(SingularOperatorError):
        power_coeffs(op, stacked)
    out = power_coeffs(op, stacked[:2])
    assert np.all(out[:, :, 0, 0] == 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_cross_magnitude_equals_curl_bit_for_bit(dim):
    # |1j z| is |z| exactly, so the weighted norms may drop curl's 1j;
    # signed zeros included
    from micropolar.fields import deriv_wavevectors
    from micropolar.operators import cross, curl_values

    grid = mp.GridSpec(dim=dim, n=8)
    c = mp.random_field(grid, dim, np.random.default_rng(dim)).half.copy()
    c.real[..., 0] = -0.0
    curl = curl_values(gradient(mp.SpectralField(grid, c)))
    assert np.abs(cross(c, deriv_wavevectors(grid))).tobytes() == np.abs(curl).tobytes()
