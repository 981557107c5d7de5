import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (ConditionalDistribution, FailureScenario,
                          IllConditionedScenarioError, InvalidParameterError,
                          InvalidQueryError, NoiseParams, NumericalError,
                          RiskResult, build_path, condition, iota, laplacian,
                          risk_profile, spectrum, steady_state_covariance,
                          var_risk)
from cascade_risk.covariance import CovarianceMatrix
from cascade_risk.risk import _BRANCHES, _naive_column, _var_risk_array

from oracles import (conditional_moments, erfinv_bisect, normal_cdf,
                     var_bisect, var_risk_scalar)

PATH_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)


@pytest.fixture(scope="module")
def path6_sigma():
    spec = spectrum(laplacian(build_path(6)))
    return steady_state_covariance(spec, PATH_NOISE)


def test_failure_scenario_validation():
    s = FailureScenario((2, 5), (0.0, 1.5))
    assert s.m == 2
    assert 2 in s and 3 not in s
    with pytest.raises(InvalidQueryError):
        FailureScenario((5, 2), (0.0, 0.0))       # not increasing
    with pytest.raises(InvalidQueryError):
        FailureScenario((2, 2), (0.0, 0.0))       # duplicate
    with pytest.raises(InvalidQueryError):
        FailureScenario((0,), (0.0,))             # below range
    with pytest.raises(InvalidQueryError):
        FailureScenario((1, 2), (0.0,))           # length mismatch
    with pytest.raises(InvalidQueryError):
        FailureScenario((1,), (math.nan,))


def test_failure_scenario_rejects_non_integer_indices():
    # integral values are accepted, as build_custom accepts endpoints
    s = FailureScenario((np.int64(2), 5.0), (0.0, 1.5))
    assert s.indices == (2, 5) and all(type(i) is int for i in s.indices)
    for indices in ((1.5, 3), (True,), (1, False), (np.True_,),
                    (math.nan,), (math.inf,), ("2",)):
        with pytest.raises(InvalidQueryError):
            FailureScenario(indices, (0.0,) * len(indices))


def test_failure_scenario_rejects_bool_states():
    # a bool is not an observed distance, as in config's `states` check
    for states in ((True,), (np.False_,), (0.0, True)):
        with pytest.raises(InvalidQueryError):
            FailureScenario(tuple(range(1, len(states) + 1)), states)
    s = FailureScenario((1, 2), (1, np.float64(0.5)))
    assert s.states == (1.0, 0.5)


def test_risk_result_validation():
    RiskResult(0.0, "zero")
    RiskResult(math.inf, "infinite")
    RiskResult(1.5, "finite")
    for value, branch in ((1.0, "zero"), (2.0, "infinite"),
                          (math.inf, "finite"), (0.0, "finite"),
                          (-1.0, "finite"), (1.0, "bogus")):
        with pytest.raises(InvalidParameterError):
            RiskResult(value, branch)


def test_condition_rejects_bad_indices(path6_sigma):
    with pytest.raises(InvalidQueryError):      # queried pair already failed
        condition(path6_sigma, 3.0, 2, FailureScenario((2,), (0.0,)))
    for j in (0, 6, 9):                         # j outside 1..5
        with pytest.raises(InvalidQueryError):
            condition(path6_sigma, 3.0, j, FailureScenario((), ()))
    with pytest.raises(InvalidQueryError):      # failed pair outside 1..5
        condition(path6_sigma, 3.0, 1, FailureScenario((7,), (0.0,)))


def test_condition_empty_scenario(path6_sigma):
    cnd = condition(path6_sigma, 3.0, 2, FailureScenario((), ()))
    assert cnd.mu_tilde == 3.0
    assert cnd.sigma_tilde == math.sqrt(path6_sigma.values[1, 1])


def test_condition_on_target_states_keeps_mean(path6_sigma):
    d = 3.0
    cnd = condition(path6_sigma, d, 3, FailureScenario((1, 5), (d, d)))
    assert cnd.mu_tilde == d
    assert cnd.sigma_tilde < math.sqrt(path6_sigma.values[2, 2])


def test_condition_matches_matrix_inverse_oracle(path6_sigma):
    scenario = FailureScenario((1, 2, 5), (0.1, 0.5, 2.9))
    cnd = condition(path6_sigma, 3.0, 4, scenario)
    mu, sig = conditional_moments(path6_sigma.values, 3.0, 4,
                                  scenario.indices, scenario.states)
    assert abs(cnd.mu_tilde - mu) < 1e-12
    assert abs(cnd.sigma_tilde - sig) < 1e-12


def test_condition_rejects_singular_block():
    eps = 5e-14
    v = np.array([[1.0, 1.0 - eps, 0.1],
                  [1.0 - eps, 1.0, 0.1],
                  [0.1, 0.1, 1.0]])
    sigma = CovarianceMatrix(v)
    with pytest.raises(IllConditionedScenarioError):
        condition(sigma, 1.0, 3, FailureScenario((1, 2), (0.5, 0.5)))


def test_condition_rejects_bad_gap(path6_sigma):
    with pytest.raises(InvalidParameterError):
        condition(path6_sigma, 0.0, 1, FailureScenario((), ()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_condition_never_inflates_variance(seed):
    # rebuilt per call instead of via fixture; the f cache makes it cheap
    spec = spectrum(laplacian(build_path(6)))
    sigma = steady_state_covariance(spec, PATH_NOISE)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    idx = np.sort(rng.choice(5, size=m, replace=False)) + 1
    free = [j for j in range(1, 6) if j not in idx]
    j = int(rng.choice(free))
    states = rng.uniform(0.0, 6.0, size=m)
    cnd = condition(sigma, 3.0, j, FailureScenario(tuple(int(i) for i in idx),
                                                   tuple(states)))
    assert cnd.sigma_tilde <= math.sqrt(sigma.values[j - 1, j - 1]) + 1e-15


def test_iota_values():
    assert iota(0.5) == 0.0
    assert abs(iota(0.1) - erfinv_bisect(2 * 0.1 - 1.0)) < 1e-12
    assert abs(iota(0.1) + 0.9061938) < 1e-6
    for eps in (0.013, 0.2, 0.77, 0.995):
        assert abs(math.erf(iota(eps)) - (2 * eps - 1.0)) < 1e-12
    for bad in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(InvalidQueryError):
            iota(bad)


def test_iota_exact_over_whole_range():
    # erf(iota) = 2 eps - 1, read through erfc so that each tail keeps
    # its relative accuracy: erfc(-iota)/2 = eps and erfc(iota)/2 = 1 - eps.
    for eps in [10.0 ** -k for k in range(1, 301)] + [0.2, 0.3, 0.5]:
        assert abs(math.erfc(-iota(eps)) / 2.0 - eps) <= 1e-12 * eps
    for k in range(1, 17):
        eps = 1.0 - 10.0 ** -k
        tail = 1.0 - eps                        # exact
        assert abs(math.erfc(iota(eps)) / 2.0 - tail) <= 1e-12 * tail


def test_naive_risk_branch_stable_for_tiny_epsilon():
    # iota must stay finite below 1e-16, where 2 eps - 1 rounds to -1;
    # an iota of -inf would flip this query to `infinite`
    for eps in (1e-16, 1e-17, 1e-20):
        cnd = ConditionalDistribution(3.0, 0.1)
        assert var_risk(cnd, 3.0, 2.0, eps).branch == "zero"


def test_var_risk_zero_branch_boundary():
    cnd = ConditionalDistribution(3.0, 1.0)
    res = var_risk(cnd, 3.0, 1.0, 0.5)
    assert res.branch == "zero" and res.value == 0.0


def test_var_risk_infinite_branch():
    cnd = ConditionalDistribution(0.0, 1.0)
    res = var_risk(cnd, 3.0, 1.0, 0.3)
    assert res.branch == "infinite" and res.value == math.inf


def test_var_risk_finite_against_bisection():
    cnd = ConditionalDistribution(2.5, 0.8)
    res = var_risk(cnd, 3.0, 1.0, 0.2)
    assert res.branch == "finite"
    ref = var_bisect(2.5, 0.8, 3.0, 1.0, 0.2)
    assert abs(res.value - ref) < 1e-6
    # the defining probability identity holds at the returned value
    p = normal_cdf((3.0 / (res.value + 1.0) - 2.5) / 0.8)
    assert abs(p - 0.2) < 1e-9


def test_var_risk_branch_conditions_match_probabilities():
    # zero branch iff P{X < d/c} <= eps; infinite iff P{X < 0} >= eps
    rng = np.random.default_rng(7)
    for _ in range(200):
        mu = float(rng.uniform(-2.0, 8.0))
        sig = float(rng.uniform(0.05, 4.0))
        d = float(rng.uniform(0.5, 6.0))
        c = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.01, 0.99))
        res = var_risk(ConditionalDistribution(mu, sig), d, c, eps)
        p_at_zero = normal_cdf((d / c - mu) / sig)
        p_in_c = normal_cdf((0.0 - mu) / sig)
        if res.branch == "zero":
            assert p_at_zero <= eps + 1e-12
        elif res.branch == "infinite":
            assert p_in_c >= eps - 1e-12
        else:
            assert p_at_zero > eps - 1e-12
            assert p_in_c < eps + 1e-12


def test_naive_risk_equals_empty_conditioning(path6_sigma):
    # the no-failure column of profiles and sweeps
    d, c, eps = 3.0, 1.5, 0.23
    stds = [math.sqrt(path6_sigma.values[j - 1, j - 1]) for j in range(1, 6)]
    column = _naive_column(stds, d, c, iota(eps))
    for j, value in enumerate(column, start=1):
        b = var_risk(condition(path6_sigma, d, j, FailureScenario((), ())),
                     d, c, eps)
        assert value == b.value
    assert _naive_column([1.0], 3.0, 1.0, iota(0.5)) == [0.0]


def test_risk_profile_structure(path6_sigma):
    scenario = FailureScenario((2, 3), (0.0, 0.0))
    entries = risk_profile(path6_sigma, scenario, 3.0, 2.0, 0.1)
    assert [e.j for e in entries] == [1, 2, 3, 4, 5]
    for e in entries:
        if e.j in (2, 3):
            assert e.failed and e.risk.branch == "zero"
            assert e.mu_tilde is None
        else:
            assert not e.failed
            cnd = condition(path6_sigma, 3.0, e.j, scenario)
            assert e.mu_tilde == cnd.mu_tilde
            assert e.sigma_tilde == cnd.sigma_tilde
            assert e.risk == var_risk(cnd, 3.0, 2.0, 0.1)


def test_risk_profile_empty_scenario_is_naive(path6_sigma):
    entries = risk_profile(path6_sigma, FailureScenario((), ()),
                           3.0, 2.0, 0.1)
    for e in entries:
        ref = var_risk(ConditionalDistribution(
            3.0, math.sqrt(path6_sigma.values[e.j - 1, e.j - 1])), 3.0, 2.0, 0.1)
        assert e.risk.value == ref.value


def _singular_block_sigma():
    eps = 5e-14
    v = np.eye(4)
    v[0, 1] = v[1, 0] = 1.0 - eps
    v[2, 0] = v[0, 2] = 0.1
    v[2, 1] = v[1, 2] = 0.1
    return CovarianceMatrix(v)


def test_risk_profile_singular_block_marks_entries():
    sigma = _singular_block_sigma()
    entries = risk_profile(sigma, FailureScenario((1, 2), (0.5, 0.5)),
                           1.0, 1.0, 0.1)
    assert len(entries) == 4
    for e in entries:
        if e.failed:
            assert e.risk.branch == "zero"
        else:
            assert e.risk is None and e.error is not None


def test_risk_profile_rejects_bad_query_on_singular_block():
    # no pair reaches var_risk here, so the query is checked at entry
    sigma = _singular_block_sigma()
    scenario = FailureScenario((1, 2), (0.5, 0.5))
    for c, eps in ((1.0, 7.0), (0.5, 0.1)):
        with pytest.raises(InvalidQueryError):
            risk_profile(sigma, scenario, 1.0, c, eps)
    with pytest.raises(InvalidParameterError):
        risk_profile(sigma, scenario, -1.0, 1.0, 0.1)


def test_risk_profile_epsilon_monotone(path6_sigma):
    scenario = FailureScenario((3,), (0.3,))
    grid = np.linspace(0.02, 0.98, 49)
    prev = [math.inf] * 5
    for eps in grid:
        entries = risk_profile(path6_sigma, scenario, 3.0, 2.0, float(eps))
        for k, e in enumerate(entries):
            assert e.risk.value <= prev[k] + 1e-12
            prev[k] = e.risk.value


def test_risk_profile_overflowed_moment_raises():
    # mu of pair 1 is 3 + 1.9 * (1e308 - 3), past the largest float
    sigma = CovarianceMatrix(np.array([[4.0, 1.9], [1.9, 1.0]]))
    with pytest.raises(NumericalError):
        risk_profile(sigma, FailureScenario((2,), (1e308,)), 3.0, 1.0, 0.1)
    with pytest.raises(NumericalError):
        condition(sigma, 3.0, 1, FailureScenario((2,), (1e308,)))


_moment = st.floats(-50.0, 50.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(mu=_moment, sig=st.floats(1e-3, 20.0), d=st.floats(0.1, 10.0),
       c=st.floats(1.0, 4.0), eps=st.floats(1e-6, 1.0 - 1e-6),
       on=st.sampled_from(["free", "zero_edge", "infinite_edge"]),
       ulps=st.integers(-2, 2))
def test_var_risk_array_bitwise_equals_scalar(mu, sig, d, c, eps, on, ulps):
    it = iota(eps)
    # move mu onto either branch boundary, then a few ulps off it
    if on == "zero_edge":
        mu = (d - it * math.sqrt(2.0) * sig * c) / c
    elif on == "infinite_edge":
        mu = -it * math.sqrt(2.0) * sig
    for _ in range(abs(ulps)):
        mu = math.nextafter(mu, math.copysign(math.inf, ulps))
    ref_value, ref_branch = var_risk_scalar(mu, sig, d, c, it)
    if ref_branch == "finite" and not math.isfinite(ref_value):
        with pytest.raises(InvalidParameterError):
            _var_risk_array(np.array([mu]), np.array([sig]), d, c, it)
        return
    value, branch = _var_risk_array(np.array([mu, mu]), np.array([sig, sig]),
                                    d, c, it)
    for v, b in zip(value.tolist(), branch.tolist()):
        assert _BRANCHES[b] == ref_branch
        assert math.copysign(1.0, v) == math.copysign(1.0, ref_value)
        assert v == ref_value


def _random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return CovarianceMatrix(a @ a.T + 0.1 * np.eye(dim))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 8),
       kind=st.sampled_from(["empty", "scattered", "all_but_one"]))
def test_risk_profile_matches_matrix_inverse_oracle(seed, dim, kind):
    rng = np.random.default_rng(seed)
    sigma = _random_spd(rng, dim)
    if kind == "empty":
        idx = ()
    elif kind == "scattered":
        m = int(rng.integers(1, dim))
        idx = tuple(int(i) + 1 for i in np.sort(
            rng.choice(dim, size=m, replace=False)))
    else:
        keep = int(rng.integers(1, dim + 1))
        idx = tuple(j for j in range(1, dim + 1) if j != keep)
    states = tuple(rng.uniform(0.0, 6.0, size=len(idx)).tolist())
    d, c, eps = 3.0, 1.5, float(rng.uniform(0.01, 0.99))
    entries = risk_profile(sigma, FailureScenario(idx, states), d, c, eps)
    assert [e.j for e in entries] == list(range(1, dim + 1))
    for e in entries:
        if e.j in idx:
            assert e.failed and e.risk == RiskResult(0.0, "zero")
            continue
        assert e.error is None
        mu, sig = conditional_moments(sigma.values, d, e.j, idx, states)
        scale = abs(mu) + math.sqrt(sigma.values[e.j - 1, e.j - 1])
        assert abs(e.mu_tilde - mu) <= 1e-10 * scale
        assert abs(e.sigma_tilde - sig) <= 1e-10 * sig
        assert e.risk.branch == var_risk(ConditionalDistribution(mu, sig),
                                         d, c, eps).branch


def test_var_risk_exactly_on_infinite_edge():
    # mu = -sqrt(2) iota sigma puts P{X < 0} at epsilon: the risk is
    # infinite, not a division by a zero denominator
    it = iota(0.75)
    cnd = ConditionalDistribution(-it * math.sqrt(2.0) * 4.5, 4.5)
    res = var_risk(cnd, 1.0, 1.0, 0.75)
    assert res.branch == "infinite" and res.value == math.inf
