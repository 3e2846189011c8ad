import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import micropolar as mp
from micropolar.errors import ConfigurationError
from micropolar.exponents import (
    BASE,
    CLASSICAL,
    REGULARITY,
    RULES,
    _BRANCH_BOUNDS,
    _binding_constraints,
    _group_searches,
    equality_branches,
    select_intermediate,
)

BASE_OK = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
BASE_BAD = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.5)
CLASSICAL_OK = mp.ExponentConfig(p=8, q=8, r=4, alpha0=0.0, beta0=0.0, gamma0=0.0)
BOUNDARY = mp.ExponentConfig(p=2, q=2, r=1.2, alpha0=0.75, beta0=0.25, gamma0=0.25)


def test_worked_example_base_passes():
    assert mp.check_config(BASE_OK, BASE).passed


def test_worked_example_base_fails():
    result = mp.check_config(BASE_BAD, BASE)
    assert not result.passed
    labels = {v.label for v in result.violations}
    assert any("alpha0-gamma0/2" in s for s in labels)
    viol = next(v for v in result.violations if "alpha0-gamma0/2" in v.label)
    assert viol.lhs == pytest.approx(-0.125)


def test_worked_example_classical_passes():
    assert mp.check_config(CLASSICAL_OK, CLASSICAL).passed


def test_classical_requires_q_equal_p():
    bad = mp.ExponentConfig(p=8, q=6, r=4, alpha0=0.0, beta0=0.0, gamma0=0.0)
    assert not mp.check_config(bad, CLASSICAL).passed


def test_check_is_pure():
    a = mp.check_config(BASE_OK, BASE)
    b = mp.check_config(BASE_OK, BASE)
    assert a.passed == b.passed and a.checked == b.checked


def test_out_of_range_raises():
    with pytest.raises(ConfigurationError):
        mp.check_config(mp.ExponentConfig(p=0.5, q=2, r=2, alpha0=0, beta0=0,
                                          gamma0=0), BASE)
    with pytest.raises(ConfigurationError):
        mp.check_config(mp.ExponentConfig(p=2, q=2, r=2, alpha0=float("nan"),
                                          beta0=0, gamma0=0), BASE)


def test_selection_on_worked_example():
    sel = select_intermediate(BASE_OK)
    assert sel.feasible
    cfg = sel.config
    assert cfg.delta1 == 0.0 and cfg.delta2 == 0.0 and cfg.delta3 > 0.0
    for a in cfg.alphas():
        assert cfg.alpha0 < a < 1 - cfg.delta1
    for b in cfg.betas():
        assert cfg.beta0 < b < 1 - cfg.delta2
    for g in cfg.gammas():
        assert cfg.gamma0 < g < 1 - cfg.delta3
    assert mp.check_config(cfg, BASE).passed


def test_selection_equality_branches_pinned():
    d49, d50, d51 = (rule.lhs(BOUNDARY) for rule in _BRANCH_BOUNDS)
    assert d49 == pytest.approx(0.5)
    assert d50 == pytest.approx(1.0)
    eq = equality_branches(BOUNDARY)
    assert eq[0] and eq[1] and not eq[2]
    sel = select_intermediate(BOUNDARY)
    assert sel.feasible
    cfg = sel.config
    assert cfg.beta1 + cfg.delta1 == pytest.approx(1 - cfg.alpha0 + cfg.beta0, abs=1e-14)
    assert cfg.gamma1 == pytest.approx(1 - cfg.alpha0 + cfg.gamma0, abs=1e-14)
    assert mp.check_config(cfg, BASE).passed


def test_selection_infeasible_reports_not_raises():
    bad = mp.ExponentConfig(p=1.1, q=8, r=2, alpha0=0.9, beta0=0.0, gamma0=0.0)
    sel = select_intermediate(bad)
    assert not sel.feasible
    assert sel.binding  # names the violated base inequalities


def test_selection_reports_failed_group_search():
    # passes the base check, but no (alpha2, beta2) lattice point fits
    cfg = mp.ExponentConfig(p=2, q=3, r=2, alpha0=0.5, beta0=0.75, gamma0=0.0)
    assert mp.check_config(cfg, BASE).passed
    sel = select_intermediate(cfg)
    assert not sel.feasible
    assert sel.binding[:2] == ["group alpha2/beta2",
                               "alpha2+beta2+delta2 <= 1+alpha0 (excludes 75%)"]


def test_selection_pinched_corner_reported():
    # p = 2r with zero base exponents pins alpha3 where a recursion weight
    # would vanish; q = 2r with beta0 = 0 does the same to beta3
    beta3_pinch = mp.ExponentConfig(p=1.5, q=2.5, r=1.25, alpha0=0.5, beta0=0.0, gamma0=0.0)
    for cfg, group in ((CLASSICAL_OK, "group alpha3"), (beta3_pinch, "group beta3")):
        sel = select_intermediate(cfg)
        assert not sel.feasible
        assert "pinched" in sel.notes
        assert sel.binding[0] == group


ROW_LABELS = {rule.label for rule in RULES}


def _labels(binding):
    return [re.sub(r" \(excludes \d+%\)$", "", entry) for entry in binding]


@pytest.mark.parametrize("base, group, label", [
    ((1.5, 1.5, 1.25, 0.5, 0.5, 0.0), "group alpha3/beta3/gamma3",
     "alpha3 >= max{0, 1/2+(3/2)(1/p-1/(2r))}"),
    ((8.180080897919053, 6.7681652581565785, 1.5114247890380823, 0.75, 0.75, 0.5625),
     "group gamma1", "gamma1 < 1-alpha0+gamma0 (strict branch)"),
], ids=["dissipation", "gamma1-strict-branch"])
def test_failed_group_reports_checker_labels(base, group, label):
    sel = select_intermediate(mp.ExponentConfig(*base))
    assert not sel.feasible
    assert sel.binding[0] == group
    assert label in _labels(sel.binding[1:])
    assert set(_labels(sel.binding[1:])) <= ROW_LABELS


def test_check_counts_and_violation_order():
    # what `exponents check` prints: rows counted and violations in table order
    selected = select_intermediate(BASE_OK).config
    assert [mp.check_config(selected, level).checked
            for level in (BASE, REGULARITY, CLASSICAL)] == [91, 109, 5]
    base = mp.check_config(BASE_BAD, BASE)
    regularity = mp.check_config(BASE_BAD, REGULARITY)
    assert (base.checked, regularity.checked) == (13, 31)
    first = ["alpha0-gamma0/2-(3/2)(1/p-1/(2r)) >= 0",
             "beta0-gamma0/2-(3/2)(1/q-1/(2r)) >= 0"]
    assert [v.label for v in base.violations] == first
    assert [v.label for v in regularity.violations] == first + [
        "alpha0 >= 3(1/p-1/(2r))", "beta0 >= max{3/(2p)-1/2, 3(1/q-1/(2r))}",
        "alpha0 >= (3/2)(1/p+1/q-1/r)", "beta0 >= (3/2)(1/p+1/q-1/r)",
        "2alpha0-beta0 >= max{3/(2p)-1/2, 3(1/p-1/(2r))}",
        "2beta0-alpha0 >= 3(1/q-1/(2r))"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.tuples(*[st.floats(1.2, 9.0)] * 3),
       st.tuples(*[st.sampled_from([k / 16 for k in range(16)])] * 3),
       st.tuples(*[st.floats(0.05, 0.5)] * 3))
def test_search_accepts_only_checked_points(pqr, bases, zero_deltas):
    """A point the group search accepts passes check_config; a failed search
    names the checker's rows."""
    cfg = mp.ExponentConfig(*pqr, *bases)
    assume(mp.check_config(cfg, BASE).passed)
    deltas = [0.0 if b > 0 else d for b, d in zip(bases, zero_deltas)]
    env = replace(cfg, delta1=deltas[0], delta2=deltas[1], delta3=deltas[2])
    found, failure = _group_searches(env, 32)
    if found is not None:
        assert mp.check_config(replace(env, **found), BASE).passed
    else:
        binding = _binding_constraints(failure)
        assert binding[0].startswith("group ")
        assert set(_labels(binding[1:])) <= ROW_LABELS


def test_selection_feasible_zero_exponents():
    cfg = mp.ExponentConfig(p=9, q=9, r=4, alpha0=0.0, beta0=0.0, gamma0=0.0)
    sel = select_intermediate(cfg)
    assert sel.feasible
    assert sel.config.delta1 > 0 and sel.config.delta2 > 0 and sel.config.delta3 > 0
    assert mp.check_config(sel.config, BASE).passed


def test_selection_determinism():
    a = select_intermediate(BASE_OK).config
    b = select_intermediate(BASE_OK).config
    assert a.to_dict() == b.to_dict()


def test_regularity_level():
    cfg = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.75, beta0=0.75, gamma0=0.5)
    result = mp.check_config(cfg, REGULARITY)
    assert result.checked > mp.check_config(cfg, BASE).checked
    # beta0 - alpha0 > -1/2 violated here
    bad = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.9, beta0=0.3, gamma0=0.3)
    res = mp.check_config(bad, REGULARITY)
    assert any("beta0-alpha0" in v.label for v in res.violations)


def test_lambda_chain_checked():
    cfg = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0,
                            lam=0.5, lam1=0.75, lam2=0.9)  # lam2 >= min(2 lam, lam1)
    res = mp.check_config(cfg, BASE)
    assert any("lambda2" in v.label for v in res.violations)


@given(st.floats(0.51, 0.99))
def test_monotone_violation_under_tightening(gamma0):
    """Raising gamma0 beyond the worked failure point never flips the
    violated inequality back to a pass."""
    cfg = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=gamma0)
    res = mp.check_config(cfg, BASE)
    assert any("alpha0-gamma0/2" in v.label for v in res.violations)


def test_serialization_roundtrip():
    sel = select_intermediate(BASE_OK)
    d = sel.config.to_dict()
    assert "lambda" in d and "alpha1" in d
    back = mp.ExponentConfig.from_dict(d)
    assert back == sel.config


def test_group_searches_reuse_the_searches_of_unread_values(monkeypatch):
    """A group's search reads only its box and the values of its picked
    rules: with one shared table, envs that differ in delta2 and delta3
    search group alpha1 (which reads delta1) once, and every result is the
    one a search of its own gives."""
    import micropolar.exponents as exponents

    names = []
    search = exponents._search
    monkeypatch.setattr(exponents, "_search",
                        lambda group, *args: names.append(group) or search(group, *args))
    cfg = mp.ExponentConfig(p=3, q=4, r=1.25, alpha0=0.0, beta0=0.0, gamma0=0.0)
    searches = {}
    for d2, d3 in [(0.1, 0.1), (0.1, 0.3), (0.2, 0.1), (0.2, 0.3)]:
        env = replace(cfg, delta1=0.25, delta2=d2, delta3=d3)
        shared, alone = _group_searches(env, 64, searches), _group_searches(env, 64)
        assert shared[0] == alone[0]
        assert (shared[1] is None) == (alone[1] is None)
        if alone[1] is not None:
            assert _binding_constraints(shared[1]) == _binding_constraints(alone[1])
    # four searches of their own, and one shared
    assert names.count(("alpha1",)) == 5
