import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import closed_form
from cascade_risk import (CovarianceMatrix, FailureScenario,
                          InvalidParameterError, InvalidQueryError,
                          InvalidSizeError, NoiseParams, NumericalError,
                          build_complete, complete_graph_sigma_c,
                          complete_profile, laplacian, risk_profile,
                          spectrum, steady_state_covariance)
from cascade_risk.closed_form import _run_weights

from oracles import conditional_moments, same_profile, tridiag_matrix

NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)


def _tridiag_cov(n, sigma_c):
    return CovarianceMatrix(tridiag_matrix(n - 1, sigma_c))


def _moments(n, scenario, sc, d, j):
    """(mu_tilde, sigma_tilde) of pair j in the closed-form profile."""
    entry = complete_profile(n, scenario, sc, d, 1.0, 0.1)[j - 1]
    assert entry.j == j and not entry.failed
    return entry.mu_tilde, entry.sigma_tilde


def _end_rows(m, sc):
    """First and last rows of the inverse of the m x m tridiagonal block,
    from the run weights: (2/sc) K_m^-1 with K_m^-1 ends (m+1-i)/(m+1)
    and i/(m+1)."""
    w = _run_weights(m)
    return 2.0 / sc * w[::-1], 2.0 / sc * w


def test_tridiag_inverse_m1():
    first, last = _end_rows(1, 2.5)
    assert first.shape == last.shape == (1,)
    assert abs(last[0] - 1.0 / 2.5) < 1e-15 and first[0] == last[0]


def test_tridiag_inverse_m2_unit():
    first, last = _end_rows(2, 1.0)
    assert np.allclose(first, [4.0 / 3.0, 2.0 / 3.0], rtol=0.0, atol=1e-15)
    assert np.allclose(last, [2.0 / 3.0, 4.0 / 3.0], rtol=0.0, atol=1e-15)


def test_tridiag_inverse_is_inverse():
    # the end rows times the block are the end rows of the identity
    rng = np.random.default_rng(11)
    for m in range(1, 21):
        sc = float(rng.uniform(0.05, 10.0))
        first, last = _end_rows(m, sc)
        block = tridiag_matrix(m, sc)
        assert np.abs(first @ block - np.eye(m)[0]).max() < 1e-12
        assert np.abs(last @ block - np.eye(m)[-1]).max() < 1e-12


def test_tridiag_inverse_simplified_entries():
    # the inverse's entries 2 min(i,j) (m+1-max(i,j)) / (sc (m+1)) at
    # j = 1 and j = m
    m, sc = 7, 4.2
    first, last = _end_rows(m, sc)
    for i in range(1, m + 1):
        ref_first = 2.0 * 1 * (m + 1 - i) / (sc * (m + 1))
        ref_last = 2.0 * i * (m + 1 - m) / (sc * (m + 1))
        assert abs(first[i - 1] - ref_first) < 1e-15 * ref_first
        assert abs(last[i - 1] - ref_last) < 1e-15 * ref_last


def test_classify_one_sided_right():
    # pair 22 sees only the run 23..27 on its right, through the
    # reversed weights 5/6 .. 1/6
    sc, d = 4.0, 3.0
    scenario = FailureScenario(tuple(range(23, 28)), (1.0, 2.0, 3.0, 4.0, 5.0))
    mu, sig = _moments(50, scenario, sc, d, 22)
    assert abs(mu - (d - (5 * -2 + 4 * -1 + 2 * 1 + 1 * 2) / 6.0)) < 1e-14
    assert abs(sig ** 2 - (sc - sc / 2.0 * 5.0 / 6.0)) < 1e-14


def test_classify_one_sided_left():
    # pair 28 sees only the run 23..27 on its left, front to back
    # through the weights 1/6 .. 5/6
    sc, d = 4.0, 3.0
    scenario = FailureScenario(tuple(range(23, 28)), (1.0, 2.0, 3.0, 4.0, 5.0))
    mu, sig = _moments(50, scenario, sc, d, 28)
    assert abs(mu - (d - (1 * -2 + 2 * -1 + 4 * 1 + 5 * 2) / 6.0)) < 1e-14
    assert abs(sig ** 2 - (sc - sc / 2.0 * 5.0 / 6.0)) < 1e-14


def test_classify_none():
    # pairs not next to the run keep their marginal law exactly
    sc, d = 4.0, 3.0
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    for j in (1, 21, 29, 30, 49):
        assert _moments(50, scenario, sc, d, j) == (d, 2.0)


def test_classify_surrounded():
    # pair 22 adds its left run 20..21 and its right run 23..25
    sc, d = 4.0, 3.0
    scenario = FailureScenario((20, 21, 23, 24, 25), (1.0, 2.0, 3.0, 4.0, 5.0))
    mu, sig = _moments(50, scenario, sc, d, 22)
    left = (1 * -2 + 2 * -1) / 3.0
    right = (3 * 0 + 2 * 1 + 1 * 2) / 4.0
    assert abs(mu - (d - left - right)) < 1e-14
    assert abs(sig ** 2 - (sc - sc / 2.0 * (2.0 / 3.0 + 3.0 / 4.0))) < 1e-14


def test_classify_drops_far_failures():
    # failures two or more pairs away leave pair 5 at its marginal law;
    # pair 6 sees only the run 7..8, pair 2 only the run 1
    sc, d = 4.0, 3.0
    scenario = FailureScenario((1, 7, 8), (0.5, 0.6, 0.7))
    assert _moments(12, scenario, sc, d, 5) == (d, 2.0)
    mu, sig = _moments(12, scenario, sc, d, 6)
    assert abs(mu - (d - (2 * (0.6 - d) + 1 * (0.7 - d)) / 3.0)) < 1e-14
    assert abs(sig ** 2 - (sc - sc / 2.0 * 2.0 / 3.0)) < 1e-14
    mu, sig = _moments(12, scenario, sc, d, 2)
    assert abs(mu - (d - (0.5 - d) / 2.0)) < 1e-14
    assert abs(sig ** 2 - (sc - sc / 4.0)) < 1e-14


def test_classify_rejects():
    # a failed pair gets a zero entry; failed pairs go to n-1
    scenario = FailureScenario((3,), (0.0,))
    entry = complete_profile(10, scenario, 4.0, 3.0, 2.0, 0.1)[2]
    assert entry.j == 3 and entry.failed and entry.branch == "zero"
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
    sc = complete_graph_sigma_c(n, NOISE)
    sigma = _tridiag_cov(n, sc)
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
        ref_mu, ref_sig = conditional_moments(sigma.values, d, j, indices,
                                              states)
        assert abs(mu - ref_mu) < 1e-10
        assert abs(sig - ref_sig) < 1e-10


def test_complete_profile_matches_generic():
    n = 12
    sc = complete_graph_sigma_c(n, NOISE)
    sigma = _tridiag_cov(n, sc)
    d, c, eps = 3.0, 1.0, 0.4
    scenario = FailureScenario((4, 5, 9), (0.0, 0.1, 5.0))
    fast = complete_profile(n, scenario, sc, d, c, eps)
    ref = risk_profile(sigma, scenario, d, c, eps)
    assert fast.j.tolist() == ref.j.tolist()
    assert fast.failed.tolist() == ref.failed.tolist()
    assert fast.branch.tolist() == ref.branch.tolist()
    finite = fast.branch == "finite"
    assert (np.abs(fast.risk[finite] - ref.risk[finite]) < 1e-9).all()


def test_complete_profile_overflowed_moment_raises():
    # five failures at 1e308 right of pair 1 shift its mean by
    # -(5/6 + 4/6 + ... + 1/6)(1e308 - 3), past the largest float; both
    # routes refuse it
    n = 7
    scenario = FailureScenario((2, 3, 4, 5, 6), (1e308,) * 5)
    sc = complete_graph_sigma_c(n, NOISE)
    with pytest.raises(NumericalError):
        complete_profile(n, scenario, sc, 3.0, 1.0, 0.1)
    with pytest.raises(NumericalError):
        risk_profile(_tridiag_cov(n, sc), scenario, 3.0, 1.0, 0.1)


def test_complete_profile_rejects_bad_query_when_all_failed():
    # every pair failed: no pair reaches the risk branches, so the query is
    # checked at entry
    scenario = FailureScenario((1, 2, 3), (0.0, 0.0, 0.0))
    complete_profile(4, scenario, 4.0, 3.0, 2.0, 0.1)
    for c, eps in ((2.0, 7.0), (2.0, 0.0), (0.5, 0.1)):
        with pytest.raises(InvalidQueryError):
            complete_profile(4, scenario, 4.0, 3.0, c, eps)
    with pytest.raises(InvalidParameterError):
        complete_profile(4, scenario, 4.0, 0.0, 2.0, 0.1)


def test_complete_profile_count_rule():
    # the vehicle count is an integer or an integral float, not a bool,
    # and inside the float range
    scenario = FailureScenario((2,), (0.0,))
    assert same_profile(complete_profile(5.0, scenario, 4.0, 3.0, 2.0, 0.1),
                        complete_profile(5, scenario, 4.0, 3.0, 2.0, 0.1))
    for bad in (5.5, True, math.inf, 10 ** 400):
        with pytest.raises(InvalidSizeError):
            complete_profile(bad, scenario, 4.0, 3.0, 2.0, 0.1)


@pytest.mark.parametrize("n", [10 ** 22, 1e300])
def test_complete_profile_refuses_pair_arrays_beyond_memory(n):
    # the n + 1 pair arrays fail to allocate at once, beyond numpy's
    # largest shape, without touching memory
    with pytest.raises(InvalidSizeError, match="does not fit in memory"):
        complete_profile(n, FailureScenario((), ()), 1.0, 3.0, 2.0, 0.1)


def test_complete_profile_rejects_bad_sigma_c():
    for sc in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            complete_profile(12, FailureScenario((4,), (0.0,)), sc,
                             3.0, 2.0, 0.1)


def test_complete_profile_checks_each_input_once(monkeypatch):
    # sigma_c is the one input closed_form puts through the real-number
    # rule itself; the query goes through _check_query
    calls = {"_real": 0, "_check_query": 0}
    for name in calls:
        check = getattr(closed_form, name)

        def counting(*args, _name=name, _check=check, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        monkeypatch.setattr(closed_form, name, counting)
    scenario = FailureScenario((4, 5, 9, 10, 11), (0.0, 0.1, 5.0, 2.0, 1.0))
    entries = complete_profile(50, scenario, 4.0, 3.0, 2.0, 0.1)
    assert len(entries) == 49
    assert calls == {"_real": 1, "_check_query": 1}


def test_complete_profile_rejects_bad_platoon_when_all_failed():
    # no pair is conditioned here, so size and range are checked at entry
    with pytest.raises(InvalidQueryError):
        complete_profile(3, FailureScenario((1, 2, 3), (0.0,) * 3), 4.0,
                         3.0, 2.0, 0.1)
    with pytest.raises(InvalidSizeError):
        complete_profile(1, FailureScenario((), ()), 4.0, 3.0, 2.0, 0.1)


def test_long_run_on_weak_noise_matches_generic():
    # pairs 1..58 of complete60 failed at 2.5 with sigma_c ~ 7e-7: the
    # last survivor is shifted by sum_i i/59 * 0.5 = 14.5 exactly, while
    # the (sigma_c/2)^k (k+1) powers of an explicit block inverse
    # underflow to 0/0
    n, d = 60, 3.0
    noise = NoiseParams(g=0.1, tau=0.01, beta=2.0)
    scenario = FailureScenario(tuple(range(1, 59)), (2.5,) * 58)
    sc = complete_graph_sigma_c(n, noise)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = complete_profile(n, scenario, sc, d, 2.0, 0.1)[-1]
    ref = risk_profile(steady_state_covariance(
        spectrum(laplacian(build_complete(n))), noise), scenario, d, 2.0,
        0.1)[-1]
    assert fast.j == ref.j == 59 and not fast.failed
    assert fast.mu_tilde == 17.5
    assert abs(fast.mu_tilde - ref.mu_tilde) <= 1e-12 * ref.mu_tilde
    assert abs(fast.sigma_tilde - ref.sigma_tilde) <= 1e-12 * ref.sigma_tilde
    assert (fast.risk, fast.branch) == (ref.risk, ref.branch)


@st.composite
def _complete_cases(draw):
    """(n, g, scenario, d): a run of 1..n-2 failures plus scattered
    ones, with states within a few standard deviations of d or spread
    over meters."""
    n = draw(st.integers(3, 80))
    length = draw(st.integers(1, n - 2))
    start = draw(st.integers(1, n - 1 - length))
    extra = draw(st.sets(st.integers(1, n - 1), max_size=n // 3))
    failed = sorted(set(range(start, start + length)) | extra)[:n - 2]
    g = 10.0 ** draw(st.floats(-3.0, 1.0))
    d = draw(st.floats(0.5, 10.0))
    near = draw(st.booleans())
    z = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(failed),
                      max_size=len(failed)))
    return n, g, failed, d, near, z


@settings(max_examples=150, deadline=None)
@given(case=_complete_cases(), epsilon=st.floats(1e-6, 0.45))
def test_complete_profile_matches_generic_property(case, epsilon):
    # moments within 1e-12 of the scale of the inputs, branches equal;
    # sigma_c spans ~1e-10 .. 1e-1. epsilon stays below 1/2: there iota
    # is 0, and simple states put a pair's mean exactly on the zero /
    # finite edge, where the last bit of each route picks the branch.
    n, g, failed, d, near, z = case
    noise = NoiseParams(g=g, tau=0.01, beta=2.0)
    sc = complete_graph_sigma_c(n, noise)
    unit = math.sqrt(sc) if near else d
    scenario = FailureScenario(tuple(failed), tuple(d + unit * x for x in z))
    fast = complete_profile(n, scenario, sc, d, 1.5, epsilon)
    ref = risk_profile(steady_state_covariance(
        spectrum(laplacian(build_complete(n))), noise), scenario, d, 1.5,
        epsilon)
    scale = d + unit * sum(map(abs, z))
    assert fast.j.tolist() == ref.j.tolist()
    assert fast.failed.tolist() == ref.failed.tolist()
    assert fast.branch.tolist() == ref.branch.tolist()
    live = ~fast.failed
    assert (np.abs(fast.mu_tilde - ref.mu_tilde)[live] <= 1e-12 * scale).all()
    assert (np.abs(fast.sigma_tilde - ref.sigma_tilde)[live]
            <= 1e-12 * ref.sigma_tilde[live]).all()
