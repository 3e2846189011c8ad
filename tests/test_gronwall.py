import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from micropolar.errors import PreconditionError
from micropolar.gronwall import (
    MAX_ORACLE_POINTS,
    gronwall_bound,
    gronwall_oracle,
    singular_power_count,
)


def test_classical_case_matches_exponential():
    bound = gronwall_bound([1.0], [0.0], [1.0], [0.0], 1.0)
    oracle = gronwall_oracle([1.0], [0.0], [1.0], [0.0], 1.0, times=bound.times)
    assert np.max(np.abs(oracle.values - np.exp(bound.times))) <= 2e-5
    assert np.all(bound.values >= oracle.values)


def test_no_kernel_terms_equals_data():
    bound = gronwall_bound([1.0, 0.5], [0.25, 0.0], [0.0], [0.5], 1.0)
    oracle = gronwall_oracle([1.0, 0.5], [0.25, 0.0], [0.0], [0.5], 1.0,
                             times=bound.times)
    expect = bound.times ** (-0.25) + 0.5
    assert np.allclose(bound.values, expect)
    assert np.allclose(oracle.values, expect)


def test_singular_tuple_domination():
    bound = gronwall_bound([1.0], [0.25], [1.0], [0.5], 1.0)
    oracle = gronwall_oracle([1.0], [0.25], [1.0], [0.5], 1.0, times=bound.times)
    assert np.all(bound.values >= oracle.values)


def test_oracle_grid_convergence():
    coarse = gronwall_oracle([1.0], [0.25], [1.0], [0.5], 1.0, n_points=800)
    fine = gronwall_oracle([1.0], [0.25], [1.0], [0.5], 1.0, n_points=3200)
    assert abs(coarse.values[-1] - fine.values[-1]) / fine.values[-1] <= 5e-3


def test_oracle_value_monotone_in_kernel_weight():
    low = gronwall_oracle([1.0], [0.3], [0.5], [0.4], 1.0)
    high = gronwall_oracle([1.0], [0.3], [1.5], [0.4], 1.0, times=low.times)
    assert np.all(high.values >= low.values)


def test_oracle_splits_cells_for_strong_kernels():
    # on the 400-point grid the first diagonal weight is 1.16: unsplit, the
    # substitution flips sign and oscillates from t ~ 0.08
    a, alphas = [0.39094519, 1.36207586], [0.54746541, 0.74653152]
    b, betas = [1.52783099], [0.7414899]
    bound = gronwall_bound(a, alphas, b, betas, 1.0)
    oracle = gronwall_oracle(a, alphas, b, betas, 1.0, times=bound.times)
    split = gronwall_oracle(a, alphas, b, betas, 1.0,
                            times=np.linspace(0.0, 1.0, 801)[1:])
    assert np.all(oracle.values[1:] >= oracle.values[:-1])
    assert np.allclose(oracle.values, split.values[1::2], rtol=1e-9, atol=0)
    with pytest.raises(PreconditionError, match=str(MAX_ORACLE_POINTS)):
        gronwall_oracle([1.0], [0.25], [1e6], [0.5], 1.0, times=bound.times)


def test_singular_power_count():
    assert singular_power_count(0.0) == 1
    assert singular_power_count(0.5) == 2
    assert singular_power_count(0.8) == 5


def test_exponent_validation():
    with pytest.raises(ValueError):
        gronwall_bound([1.0], [1.2], [1.0], [0.5], 1.0)
    with pytest.raises(ValueError):
        gronwall_bound([1.0], [0.5], [1.0], [-0.1], 1.0)
    with pytest.raises(ValueError):
        gronwall_bound([-1.0], [0.5], [1.0], [0.1], 1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
@example(75)
def test_random_tuples_domination(seed):
    rng = np.random.default_rng(seed)
    la, lb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    a = rng.uniform(0.1, 2.0, la)
    alphas = rng.uniform(0.0, 0.8, la)
    b = rng.uniform(0.1, 2.0, lb)
    betas = rng.uniform(0.0, 0.8, lb)
    bound = gronwall_bound(a, alphas, b, betas, 1.0)
    oracle = gronwall_oracle(a, alphas, b, betas, 1.0, times=bound.times)
    violations = np.mean(oracle.values > bound.values * (1 + 1e-9))
    assert violations <= 0.01
