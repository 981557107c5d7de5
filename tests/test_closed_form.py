import math

import numpy as np
import pytest

from cascade_risk import closed_form
from cascade_risk import (FailureScenario, InvalidParameterError,
                          InvalidQueryError, InvalidSizeError, NoiseParams,
                          NumericalError, complete_graph_covariance,
                          complete_graph_sigma_c, complete_profile,
                          condition, risk_profile)
from cascade_risk.closed_form import _adjacent_runs, _tridiag_parts

from oracles import tridiag_matrix

NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)


def _runs(j, scenario):
    return _adjacent_runs(j, dict(zip(scenario.indices, scenario.states)))


def _moments(n, scenario, sc, d, j):
    """(mu_tilde, sigma_tilde) of pair j in the closed-form profile."""
    entry = complete_profile(n, scenario, sc, d, 1.0, 0.1)[j - 1]
    assert entry.j == j and not entry.failed
    return entry.mu_tilde, entry.sigma_tilde


def test_tridiag_inverse_m1():
    alpha, theta = _tridiag_parts(1, 2.5)
    assert alpha.shape == (1, 1)
    assert abs(alpha[0, 0] - 1.0 / 2.5) < 1e-15
    assert theta[1] == 2.5


def test_tridiag_inverse_m2_unit():
    alpha, _ = _tridiag_parts(2, 1.0)
    assert np.allclose(alpha, [[4.0 / 3.0, 2.0 / 3.0],
                               [2.0 / 3.0, 4.0 / 3.0]], atol=1e-14)


def test_tridiag_theta_sequence():
    sc = 3.0
    _, theta = _tridiag_parts(4, sc)
    for k in range(5):
        assert abs(theta[k] - 0.5 ** k * sc ** k * (k + 1)) < 1e-12


def test_tridiag_inverse_is_inverse():
    rng = np.random.default_rng(11)
    for m in range(1, 21):
        sc = float(rng.uniform(0.05, 10.0))
        alpha, _ = _tridiag_parts(m, sc)
        prod = alpha @ tridiag_matrix(m, sc)
        assert np.abs(prod - np.eye(m)).max() < 1e-8


def test_tridiag_inverse_simplified_entries():
    # the theta-ratio products collapse to 2 min(i,j) (m+1-max(i,j)) / (sc (m+1))
    m, sc = 7, 4.2
    alpha, _ = _tridiag_parts(m, sc)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            ref = 2.0 * min(i, j) * (m + 1 - max(i, j)) / (sc * (m + 1))
            assert abs(alpha[i - 1, j - 1] - ref) < 1e-12 * ref


def test_classify_one_sided_right():
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    assert _runs(22, scenario) == ([], [0.0] * 5)


def test_classify_one_sided_left():
    scenario = FailureScenario(tuple(range(23, 28)), (1.0, 2.0, 3.0, 4.0, 5.0))
    # front to back
    assert _runs(28, scenario) == ([1.0, 2.0, 3.0, 4.0, 5.0], [])


def test_classify_none():
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    assert _runs(30, scenario) == ([], [])
    assert _runs(1, scenario) == ([], [])


def test_classify_surrounded():
    scenario = FailureScenario((20, 21, 23, 24, 25), (1.0, 2.0, 3.0, 4.0, 5.0))
    assert _runs(22, scenario) == ([1.0, 2.0], [3.0, 4.0, 5.0])


def test_classify_drops_far_failures():
    scenario = FailureScenario((1, 7, 8), (0.5, 0.6, 0.7))
    assert _runs(5, scenario) == ([], [])
    assert _runs(6, scenario) == ([], [0.6, 0.7])


def test_classify_rejects():
    # a failed pair gets a zero entry; failed pairs go to n-1
    scenario = FailureScenario((3,), (0.0,))
    entry = complete_profile(10, scenario, 4.0, 3.0, 2.0, 0.1)[2]
    assert entry.j == 3 and entry.failed and entry.risk.branch == "zero"
    with pytest.raises(InvalidQueryError):
        FailureScenario((0,), (0.0,))
    for pair in (10, 12):
        with pytest.raises(InvalidQueryError):
            complete_profile(10, FailureScenario((pair,), (0.0,)), 4.0,
                             3.0, 2.0, 0.1)


def test_case_stats_none_is_marginal():
    sc = 4.0
    scenario = FailureScenario((1, 2), (0.0, 0.0))
    assert _moments(12, scenario, sc, 3.0, 7) == (3.0, 2.0)


def test_case_stats_single_on_target():
    # one adjacent failure observed exactly at the target gap
    sc, d = 4.0, 3.0
    mu, sig = _moments(12, FailureScenario((6,), (d,)), sc, d, 5)
    assert mu == d
    assert abs(sig - math.sqrt(sc - sc / 4.0)) < 1e-14


def test_case_stats_front_back_symmetry():
    sc, d = 5.0, 3.0
    states = (0.0, 1.0, 2.0)
    right = _moments(12, FailureScenario((6, 7, 8), states), sc, d, 5)
    left = _moments(12, FailureScenario((2, 3, 4), states[::-1]), sc, d, 5)
    assert abs(right[0] - left[0]) < 1e-12
    assert abs(right[1] - left[1]) < 1e-12


def test_case_stats_surrounded_degenerate_reduces():
    # an empty right run adds nothing: a failure two pairs to the right
    # leaves pair 5 exactly where its left run alone puts it
    sc, d = 6.0, 3.0
    left_only = _moments(12, FailureScenario((3, 4), (0.2, 0.9)), sc, d, 5)
    with_far = _moments(12, FailureScenario((3, 4, 7), (0.2, 0.9, 5.0)),
                        sc, d, 5)
    assert with_far == left_only


def test_case_stats_variance_reduction_formulas():
    sc, d = 4.0, 3.0
    _, one = _moments(12, FailureScenario((6, 7, 8), (d, d, d)), sc, d, 5)
    assert abs(one ** 2 - (sc - sc * 3.0 / 8.0)) < 1e-12
    _, both = _moments(12, FailureScenario((4, 6), (d, d)), sc, d, 5)
    assert abs(both ** 2 - (sc - sc * 0.5)) < 1e-12


def test_case_stats_matches_generic_conditioning():
    n = 12
    sigma = complete_graph_covariance(n, NOISE)
    sc = complete_graph_sigma_c(n, NOISE)
    d = 3.0
    rng = np.random.default_rng(3)
    scenarios = [
        (5, (6, 7)), (8, (6, 7)), (5, (3, 4, 6, 7)), (2, (1, 3)),
        (1, (2, 3, 4, 5)), (11, (7, 8, 9, 10)), (6, (1, 2, 10, 11)),
    ]
    for j, indices in scenarios:
        states = tuple(float(s) for s in rng.uniform(0.0, 2 * d,
                                                     size=len(indices)))
        scenario = FailureScenario(indices, states)
        mu, sig = _moments(n, scenario, sc, d, j)
        ref = condition(sigma, d, j, scenario)
        assert abs(mu - ref.mu_tilde) < 1e-10
        assert abs(sig - ref.sigma_tilde) < 1e-10


def test_complete_profile_matches_generic():
    n = 12
    sigma = complete_graph_covariance(n, NOISE)
    sc = complete_graph_sigma_c(n, NOISE)
    d, c, eps = 3.0, 1.0, 0.4
    scenario = FailureScenario((4, 5, 9), (0.0, 0.1, 5.0))
    fast = complete_profile(n, scenario, sc, d, c, eps)
    ref = risk_profile(sigma, scenario, d, c, eps)
    assert [e.j for e in fast] == [e.j for e in ref]
    for a, b in zip(fast, ref):
        assert a.failed == b.failed
        assert a.risk.branch == b.risk.branch
        if a.risk.branch == "finite":
            assert abs(a.risk.value - b.risk.value) < 1e-9


def test_complete_profile_overflowed_moment_raises():
    # five failures at 1e308 right of pair 1 shift its mean by
    # -(5/6 + 4/6 + ... + 1/6)(1e308 - 3), past the largest float; both
    # routes refuse it
    n = 7
    scenario = FailureScenario((2, 3, 4, 5, 6), (1e308,) * 5)
    sigma = complete_graph_covariance(n, NOISE)
    with pytest.raises(NumericalError):
        complete_profile(n, scenario, complete_graph_sigma_c(n, NOISE), 3.0,
                         1.0, 0.1)
    with pytest.raises(NumericalError):
        risk_profile(sigma, scenario, 3.0, 1.0, 0.1)


def test_complete_profile_rejects_bad_query_when_all_failed():
    # every pair failed: no pair reaches var_risk, so the query is
    # checked at entry
    scenario = FailureScenario((1, 2, 3), (0.0, 0.0, 0.0))
    complete_profile(4, scenario, 4.0, 3.0, 2.0, 0.1)
    for c, eps in ((2.0, 7.0), (2.0, 0.0), (0.5, 0.1)):
        with pytest.raises(InvalidQueryError):
            complete_profile(4, scenario, 4.0, 3.0, c, eps)
    with pytest.raises(InvalidParameterError):
        complete_profile(4, scenario, 4.0, 0.0, 2.0, 0.1)


def test_complete_profile_rejects_bad_sigma_c():
    for sc in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            complete_profile(12, FailureScenario((4,), (0.0,)), sc,
                             3.0, 2.0, 0.1)


def test_complete_profile_checks_each_input_once(monkeypatch):
    calls = {"_check_sigma_c": 0, "_check_query": 0}
    for name in calls:
        check = getattr(closed_form, name)

        def counting(*args, name=name, check=check):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(closed_form, name, counting)
    scenario = FailureScenario((4, 5, 9, 10, 11), (0.0, 0.1, 5.0, 2.0, 1.0))
    entries = complete_profile(50, scenario, 4.0, 3.0, 2.0, 0.1)
    assert len(entries) == 49
    assert calls == {"_check_sigma_c": 1, "_check_query": 1}


def test_complete_profile_rejects_bad_platoon_when_all_failed():
    # no pair is conditioned here, so size and range are checked at entry
    with pytest.raises(InvalidQueryError):
        complete_profile(3, FailureScenario((1, 2, 3), (0.0,) * 3), 4.0,
                         3.0, 2.0, 0.1)
    with pytest.raises(InvalidSizeError):
        complete_profile(1, FailureScenario((), ()), 4.0, 3.0, 2.0, 0.1)
