import math

import numpy as np
import pytest

from cascade_risk import closed_form
from cascade_risk import (AdjacencyCase, FailureScenario,
                          InvalidParameterError, InvalidQueryError,
                          InvalidSizeError, NoiseParams, case_stats,
                          classify, complete_graph_covariance,
                          complete_graph_sigma_c, complete_profile,
                          condition, risk_profile, tridiag_inverse)

from oracles import tridiag_matrix

NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)


def test_tridiag_inverse_m1():
    inv = tridiag_inverse(1, 2.5)
    assert inv.alpha.shape == (1, 1)
    assert abs(inv.alpha[0, 0] - 1.0 / 2.5) < 1e-15
    assert inv.sigma_c == 2.5


def test_tridiag_inverse_m2_unit():
    inv = tridiag_inverse(2, 1.0)
    assert np.allclose(inv.alpha, [[4.0 / 3.0, 2.0 / 3.0],
                                   [2.0 / 3.0, 4.0 / 3.0]], atol=1e-14)


def test_tridiag_theta_sequence():
    sc = 3.0
    inv = tridiag_inverse(4, sc)
    for k in range(5):
        assert abs(inv.theta[k] - 0.5 ** k * sc ** k * (k + 1)) < 1e-12


def test_tridiag_inverse_is_inverse():
    rng = np.random.default_rng(11)
    for m in range(1, 21):
        sc = float(rng.uniform(0.05, 10.0))
        inv = tridiag_inverse(m, sc)
        prod = inv.alpha @ tridiag_matrix(m, sc)
        assert np.abs(prod - np.eye(m)).max() < 1e-8


def test_tridiag_inverse_simplified_entries():
    # the theta-ratio products collapse to 2 min(i,j) (m+1-max(i,j)) / (sc (m+1))
    m, sc = 7, 4.2
    inv = tridiag_inverse(m, sc)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            ref = 2.0 * min(i, j) * (m + 1 - max(i, j)) / (sc * (m + 1))
            assert abs(inv.alpha[i - 1, j - 1] - ref) < 1e-12 * ref


def test_tridiag_inverse_validation():
    with pytest.raises(InvalidSizeError):
        tridiag_inverse(0, 1.0)
    with pytest.raises(InvalidParameterError):
        tridiag_inverse(3, 0.0)
    with pytest.raises(InvalidParameterError):
        tridiag_inverse(3, -1.0)


def test_classify_one_sided_right():
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    case = classify(22, scenario, 50)
    assert case.tag == "one_sided"
    assert case.m_prime == 5
    assert case.side == "right"
    assert case.run_states == (0.0,) * 5


def test_classify_one_sided_left():
    scenario = FailureScenario(tuple(range(23, 28)), (1.0, 2.0, 3.0, 4.0, 5.0))
    case = classify(28, scenario, 50)
    assert case.tag == "one_sided"
    assert case.m_prime == 5
    assert case.side == "left"
    assert case.run_states == (1.0, 2.0, 3.0, 4.0, 5.0)  # front to back


def test_classify_none():
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    assert classify(30, scenario, 50).tag == "none"
    assert classify(1, scenario, 50).tag == "none"


def test_classify_surrounded():
    scenario = FailureScenario((20, 21, 23, 24, 25), (1.0, 2.0, 3.0, 4.0, 5.0))
    case = classify(22, scenario, 50)
    assert case.tag == "surrounded"
    assert case.m1 == 2 and case.m2 == 3
    assert case.run_states == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_classify_drops_far_failures():
    scenario = FailureScenario((1, 7, 8), (0.5, 0.6, 0.7))
    case = classify(5, scenario, 12)
    assert case.tag == "none"
    case = classify(6, scenario, 12)
    assert case.tag == "one_sided" and case.m_prime == 2
    assert case.run_states == (0.6, 0.7)


def test_classify_rejects():
    scenario = FailureScenario((3,), (0.0,))
    with pytest.raises(InvalidQueryError):
        classify(3, scenario, 10)          # queried pair failed
    with pytest.raises(InvalidQueryError):
        classify(0, scenario, 10)
    with pytest.raises(InvalidQueryError):
        classify(10, scenario, 10)         # pairs go to n-1
    with pytest.raises(InvalidQueryError):
        classify(1, FailureScenario((12,), (0.0,)), 10)


def test_adjacency_case_validation():
    AdjacencyCase("none")
    AdjacencyCase("one_sided", m_prime=2, run_states=(0.0, 1.0), side="left")
    AdjacencyCase("surrounded", m1=1, m2=0, run_states=(0.0,))
    with pytest.raises(InvalidParameterError):
        AdjacencyCase("one_sided", m_prime=0, side="left")
    with pytest.raises(InvalidParameterError):
        AdjacencyCase("one_sided", m_prime=1, run_states=(0.0,), side="up")
    with pytest.raises(InvalidParameterError):
        AdjacencyCase("one_sided", m_prime=2, run_states=(0.0,), side="left")
    with pytest.raises(InvalidParameterError):
        AdjacencyCase("surrounded", m1=0, m2=0)
    with pytest.raises(InvalidParameterError):
        AdjacencyCase("bogus")


def test_case_stats_none_is_marginal():
    sc = 4.0
    cnd = case_stats(AdjacencyCase("none"), math.sqrt(sc), sc, 3.0)
    assert cnd.mu_tilde == 3.0
    assert cnd.sigma_tilde == 2.0


def test_case_stats_single_on_target():
    # one adjacent failure observed exactly at the target gap
    sc, d = 4.0, 3.0
    case = AdjacencyCase("one_sided", m_prime=1, run_states=(d,),
                         side="right")
    cnd = case_stats(case, math.sqrt(sc), sc, d)
    assert cnd.mu_tilde == d
    assert abs(cnd.sigma_tilde - math.sqrt(sc - sc / 4.0)) < 1e-14


def test_case_stats_front_back_symmetry():
    sc, d = 5.0, 3.0
    states = (0.0, 1.0, 2.0)
    right = case_stats(AdjacencyCase("one_sided", m_prime=3,
                                     run_states=states, side="right"),
                       math.sqrt(sc), sc, d)
    left = case_stats(AdjacencyCase("one_sided", m_prime=3,
                                    run_states=states[::-1], side="left"),
                      math.sqrt(sc), sc, d)
    assert abs(right.mu_tilde - left.mu_tilde) < 1e-12
    assert abs(right.sigma_tilde - left.sigma_tilde) < 1e-12


def test_case_stats_surrounded_degenerate_reduces():
    sc, d = 6.0, 3.0
    states = (0.2, 0.9)
    two_sided = case_stats(AdjacencyCase("surrounded", m1=2, m2=0,
                                         run_states=states),
                           math.sqrt(sc), sc, d)
    one_sided = case_stats(AdjacencyCase("one_sided", m_prime=2,
                                         run_states=states, side="left"),
                           math.sqrt(sc), sc, d)
    assert two_sided.mu_tilde == one_sided.mu_tilde
    assert two_sided.sigma_tilde == one_sided.sigma_tilde


def test_case_stats_variance_reduction_formulas():
    sc, d = 4.0, 3.0
    sj = math.sqrt(sc)
    one = case_stats(AdjacencyCase("one_sided", m_prime=3,
                                   run_states=(d, d, d), side="right"),
                     sj, sc, d)
    assert abs(one.sigma_tilde ** 2 - (sc - sc * 3.0 / 8.0)) < 1e-12
    both = case_stats(AdjacencyCase("surrounded", m1=1, m2=1,
                                    run_states=(d, d)), sj, sc, d)
    assert abs(both.sigma_tilde ** 2 - (sc - sc * 0.5)) < 1e-12


def test_case_stats_matches_generic_conditioning():
    n = 12
    sigma = complete_graph_covariance(n, NOISE)
    sc = complete_graph_sigma_c(n, NOISE)
    sj = math.sqrt(sc)
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
        fast = case_stats(classify(j, scenario, n), sj, sc, d)
        ref = condition(sigma, d, j, scenario)
        assert abs(fast.mu_tilde - ref.mu_tilde) < 1e-10
        assert abs(fast.sigma_tilde - ref.sigma_tilde) < 1e-10


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


def test_case_stats_validation():
    with pytest.raises(InvalidParameterError):
        case_stats(AdjacencyCase("none"), 1.0, 0.0, 3.0)
    with pytest.raises(InvalidParameterError):
        case_stats(AdjacencyCase("none"), 1.0, 4.0, -3.0)
    # inconsistent inputs: claimed sigma_j too small for the reduction
    case = AdjacencyCase("one_sided", m_prime=5, run_states=(0.0,) * 5,
                         side="right")
    with pytest.raises(InvalidParameterError):
        case_stats(case, 0.1, 4.0, 3.0)


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
    # no pair is classified here, so size and range are checked at entry
    with pytest.raises(InvalidQueryError):
        complete_profile(3, FailureScenario((1, 2, 3), (0.0,) * 3), 4.0,
                         3.0, 2.0, 0.1)
    with pytest.raises(InvalidSizeError):
        complete_profile(1, FailureScenario((), ()), 4.0, 3.0, 2.0, 0.1)
