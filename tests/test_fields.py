import numpy as np
import pytest
from hypothesis import given, strategies as st

import micropolar as mp
from micropolar.errors import ConfigurationError
from micropolar.fields import dealias_mask, grid_points, half_spectrum
from micropolar.operators import lebesgue_norm


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        mp.GridSpec(dim=4, n=16)
    with pytest.raises(ConfigurationError):
        mp.GridSpec(dim=2, n=7)
    with pytest.raises(ConfigurationError):
        mp.GridSpec(dim=2, n=16, length=-1.0)
    with pytest.raises(ConfigurationError):
        mp.GridSpec(dim=2, n=16, dealias_fraction=0.05)


def test_constant_field_is_dc_mode(grid2d):
    f = mp.to_spectral(grid2d, np.ones((1,) + grid2d.shape))
    assert f.coeffs[0, 0, 0] == pytest.approx(1.0)
    rest = f.coeffs.flatten()
    assert np.max(np.abs(rest[1:])) == 0.0


def test_cosine_mode_coefficients(grid2d):
    x, _ = grid_points(grid2d)
    f = mp.to_spectral(grid2d, np.cos(2 * np.pi * x / grid2d.length)[None])
    assert f.coeffs[0, 1, 0] == pytest.approx(0.5, abs=1e-14)
    assert f.coeffs[0, -1, 0] == pytest.approx(0.5, abs=1e-14)


@given(st.integers(0, 10_000))
def test_roundtrip_identity(seed):
    grid = mp.GridSpec(dim=2, n=16)
    vals = np.random.default_rng(seed).standard_normal((2,) + grid.shape)
    back = mp.to_physical(mp.to_spectral(grid, vals))
    assert np.max(np.abs(back - vals)) <= 1e-13 * max(1.0, np.max(np.abs(vals)))


@given(st.integers(0, 10_000))
def test_spectral_output_hermitian(seed):
    grid = mp.GridSpec(dim=2, n=16)
    vals = np.random.default_rng(seed).standard_normal((1,) + grid.shape)
    assert mp.to_spectral(grid, vals).hermitian_defect() < 1e-12


def test_size_mismatch_rejected(grid2d):
    with pytest.raises(ConfigurationError):
        mp.to_spectral(grid2d, np.ones((1, 8, 8)))


def test_parseval(grid2d, rng):
    f = mp.random_field(grid2d, 2, rng)
    quad = lebesgue_norm(f, 2)
    parseval = f.l2()
    assert quad == pytest.approx(parseval, rel=1e-12)


def test_dealias_mask_cutoff(grid2d):
    mask = dealias_mask(grid2d)
    # |k| <= 5 kept for N=16 with fraction 2/3
    assert mask[5, 0] and not mask[6, 0]
    f = mp.random_field(grid2d, 1, np.random.default_rng(0), dealias=False)
    g = f.dealias()
    assert np.all(g.half[0][~mask] == 0)


def test_mean_zero_flag(grid2d):
    c = np.zeros((1,) + grid2d.shape, complex)
    c[0, 0, 0] = 3.0
    f = mp.SpectralField(grid2d, half_spectrum(c), mean_zero=True)
    assert f.coeffs[0, 0, 0] == 0.0
    g = mp.SpectralField(grid2d, half_spectrum(c), mean_zero=False)
    assert g.mean_values()[0] == pytest.approx(3.0)


def test_field_leaves_the_callers_array_writeable(grid2d):
    # the field holds a read-only view: the array it was built from keeps
    # its flags
    c = np.zeros((1,) + grid2d.half_shape, complex)
    f = mp.SpectralField(grid2d, c)
    assert c.flags.writeable and not f.half.flags.writeable


def test_single_mode_realness(grid3d):
    f = mp.SpectralField.single_mode(grid3d, (1, 2, 0), [0.3 + 0.1j, 0.0, 0.2])
    assert f.hermitian_defect() < 1e-14
    phys = mp.to_physical(f)
    assert np.isrealobj(phys)


def test_field_algebra(grid2d, rng):
    f = mp.random_field(grid2d, 1, rng)
    g = mp.random_field(grid2d, 1, rng)
    assert ((f + g) - g - f).l2() < 1e-14
    assert (2.0 * f - f - f).l2() < 1e-14


def test_random_field_kmax_support(grid2d, rng):
    f = mp.random_field(grid2d, 1, rng, kmax=2)
    from micropolar.fields import integer_wavevectors
    ks = integer_wavevectors(grid2d)
    outside = (np.abs(ks[0]) > 2) | (np.abs(ks[1]) > 2)
    assert np.max(np.abs(f.half[0][outside])) == 0.0
