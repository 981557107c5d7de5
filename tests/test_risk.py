import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_risk import (FailureScenario, InvalidParameterError,
                          InvalidQueryError, NoiseParams, NumericalError,
                          WeightedGraph, build_custom, build_path, laplacian,
                          region_bound, risk_profile, spectrum,
                          steady_state_covariance)
from cascade_risk.covariance import CovarianceMatrix
from cascade_risk.experiments import add_edge_rows
from cascade_risk.risk import (RCOND_MIN, _condition_scenario,
                               _condition_stack, _factor_blocks, _forward,
                               _var_risk_array, iota)

from test_covariance import _stable_platoons

from oracles import (block_refused, branch_of, conditional_moments,
                     erfinv_bisect, forward_reference, normal_cdf,
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


def _assert_branches_agree_with_values(profile):
    """Each row's branch tag agrees with its risk: 0 for zero, +inf for
    infinite, finite and > 0 for finite, nan for error."""
    risk, branch = profile.risk, profile.branch
    assert set(branch.tolist()) <= {"zero", "finite", "infinite", "error"}
    assert (risk[branch == "zero"] == 0.0).all()
    assert (risk[branch == "infinite"] == math.inf).all()
    finite = risk[branch == "finite"]
    assert (np.isfinite(finite) & (finite > 0.0)).all()
    assert (np.isnan(risk) == (branch == "error")).all()


def test_profile_branch_agrees_with_value(path6_sigma):
    # every branch, the error one included, keeps its value
    seen = set()
    for scenario, c, eps in (
            (FailureScenario((), ()), 2.0, 0.1),
            (FailureScenario((3,), (0.3,)), 2.0, 0.02),
            (FailureScenario((3,), (0.3,)), 2.0, 0.98),
            (FailureScenario((3,), (-3.0,)), 2.0, 0.1),
            (FailureScenario((2, 3), (0.0, 0.0)), 2.0, 0.1)):
        profile = risk_profile(path6_sigma, scenario, 3.0, c, eps)
        _assert_branches_agree_with_values(profile)
        seen.update(profile.branch.tolist())
    profile = risk_profile(_singular_block_sigma(),
                           FailureScenario((1, 2), (0.5, 0.5)), 1.0, 1.0, 0.1)
    _assert_branches_agree_with_values(profile)
    seen.update(profile.branch.tolist())
    assert seen == {"zero", "finite", "infinite", "error"}


def _sparsity_singular_sigma(gap):
    """The covariance of test_experiments' singular failed block: pairs 1
    and 2 are (nearly) the same variable, so a scenario failing both is
    refused, by Cholesky at gap 0 and by the condition number at 5e-14."""
    v = np.eye(7)
    v[0, 1] = v[1, 0] = 1.0 - gap
    v[0, 2] = v[2, 0] = v[1, 2] = v[2, 1] = 0.1
    return CovarianceMatrix(v)


_BRANCH_SIGMAS = {
    "path6": steady_state_covariance(spectrum(laplacian(build_path(6))),
                                     PATH_NOISE),
    "path6-strong": steady_state_covariance(
        spectrum(laplacian(build_path(6))), NoiseParams(10.0, 0.03, 2.0)),
    "singular-cholesky": _sparsity_singular_sigma(0.0),
    "singular-cond": _sparsity_singular_sigma(5e-14),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_BRANCH_SIGMAS)),
       d=st.floats(0.5, 6.0), c=st.floats(1.0, 3.0),
       eps=st.floats(0.01, 0.99))
def test_profile_branch_is_the_tag_its_risk_names(data, name, d, c, eps):
    # failed rows, error rows and every risk branch: the tag is the one
    # the value names, and only the singular scenarios give error rows
    sigma = _BRANCH_SIGMAS[name]
    indices = data.draw(st.lists(st.integers(1, sigma.dim), max_size=3,
                                 unique=True))
    if name.startswith("singular"):
        indices += [j for j in (1, 2) if j not in indices]
    states = data.draw(st.lists(st.floats(-2.0, 8.0), min_size=len(indices),
                                max_size=len(indices)))
    profile = risk_profile(sigma, FailureScenario(tuple(sorted(indices)),
                                                  tuple(states)), d, c, eps)
    assert profile.branch.tolist() == [branch_of(r)
                                       for r in profile.risk.tolist()]
    assert (profile.risk[profile.failed] == 0.0).all()
    survivors = profile.branch[~profile.failed]
    assert (survivors == "error").all() == name.startswith("singular")


def test_risk_profile_is_read_only_record_per_pair(path6_sigma):
    scenario = FailureScenario((2, 3), (0.0, 0.0))
    profile = risk_profile(path6_sigma, scenario, 3.0, 2.0, 0.1)
    assert len(profile) == path6_sigma.dim == 5
    assert profile.dtype.names == ("j", "risk", "branch", "mu_tilde",
                                   "sigma_tilde", "failed", "error")
    assert [row.error for row in profile] == [None] * 5
    assert [row.j for row in profile] == [1, 2, 3, 4, 5]
    for column in profile.dtype.names:
        with pytest.raises(ValueError, match="read-only"):
            profile[column][0] = profile[column][1]
    with pytest.raises(ValueError, match="read-only"):
        profile.risk[:] = 0.0


def _entry(sigma, d, j, scenario):
    """Profile entry of pair j, at c = 1 and epsilon = 0.1."""
    entry = risk_profile(sigma, scenario, d, 1.0, 0.1)[j - 1]
    assert entry.j == j and not entry.failed
    return entry


def test_condition_rejects_bad_indices(path6_sigma):
    # the queried pair of add-edge: not failed, inside 1..5
    graph = build_path(6)
    with pytest.raises(InvalidQueryError):
        add_edge_rows(graph, 3.0, PATH_NOISE, 0.1, 1.0,
                      FailureScenario((2,), (0.0,)), 2)
    for j in (0, 6, 9):
        with pytest.raises(InvalidQueryError):
            add_edge_rows(graph, 3.0, PATH_NOISE, 0.1, 1.0,
                          FailureScenario((), ()), j)
    with pytest.raises(InvalidQueryError):      # failed pair outside 1..5
        risk_profile(path6_sigma, FailureScenario((7,), (0.0,)), 3.0, 1.0,
                     0.1)


def test_condition_empty_scenario(path6_sigma):
    entry = _entry(path6_sigma, 3.0, 2, FailureScenario((), ()))
    assert entry.mu_tilde == 3.0
    assert entry.sigma_tilde == math.sqrt(path6_sigma.values[1, 1])


def test_condition_on_target_states_keeps_mean(path6_sigma):
    d = 3.0
    entry = _entry(path6_sigma, d, 3, FailureScenario((1, 5), (d, d)))
    assert entry.mu_tilde == d
    assert entry.sigma_tilde < math.sqrt(path6_sigma.values[2, 2])


def test_condition_matches_matrix_inverse_oracle(path6_sigma):
    scenario = FailureScenario((1, 2, 5), (0.1, 0.5, 2.9))
    entry = _entry(path6_sigma, 3.0, 4, scenario)
    mu, sig = conditional_moments(path6_sigma.values, 3.0, 4,
                                  scenario.indices, scenario.states)
    assert abs(entry.mu_tilde - mu) < 1e-12
    assert abs(entry.sigma_tilde - sig) < 1e-12


def test_condition_rejects_singular_block():
    eps = 5e-14
    v = np.array([[1.0, 1.0 - eps, 0.1],
                  [1.0 - eps, 1.0, 0.1],
                  [0.1, 0.1, 1.0]])
    sigma = CovarianceMatrix(v)
    entry = _entry(sigma, 1.0, 3, FailureScenario((1, 2), (0.5, 0.5)))
    assert entry.branch == "error" and entry.error
    assert math.isnan(entry.risk) and math.isnan(entry.mu_tilde)
    assert math.isnan(entry.sigma_tilde)


@st.composite
def _failed_block(draw, m):
    """A symmetric m x m block of one of four kinds: positive definite
    with eigenvalues in 1e-14..1, positive definite with its condition
    number 1e-6..1e-1 (relative) above or below the cap, exactly
    singular (its last pair repeats the one before), or indefinite by
    rounding (one eigenvalue -1e-16)."""
    kind = draw(st.sampled_from(["spd", "edge", "singular", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    eig = 10.0 ** rng.uniform(-14.0, 0.0, m)
    if kind == "edge":
        off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -1.0)
        eig[0] = eig.max() * RCOND_MIN / (1.0 + off)
    if kind == "indefinite":
        eig[0] = -1e-16
    block = q * eig @ q.T
    block = (block + block.T) / 2.0
    if kind == "singular" and m > 1:
        block[-1] = block[-2]
        block[:, -1] = block[:, -2]
    return block


@settings(max_examples=300, deadline=None)
@given(blocks=st.integers(1, 11).flatmap(
    lambda m: st.lists(_failed_block(m), min_size=1, max_size=6)))
def test_factor_gate_equals_the_cholesky_and_svd_rule(blocks):
    # the one eigvalsh gate refuses what the oracle refuses, outside a
    # band about the cap: either route's smallest eigenvalue (singular
    # value) is off by up to ~m u |block| absolutely (Weyl, u the unit
    # roundoff), which at the cap is m u / RCOND_MIN relative; the band,
    # m eps / RCOND_MIN, is 2.7x the largest disagreement seen over
    # 40,000 blocks drawn near the cap
    stack = np.array(blocks)
    band = len(stack[0]) * np.finfo(float).eps / RCOND_MIN
    chol, errors = _factor_blocks(stack)
    for p, block in enumerate(blocks):
        svd_cond = np.linalg.cond(block)
        if errors[p] is None:
            # accepted: the factor LAPACK gives the block alone, also
            # through the gate alone
            alone = np.linalg.cholesky(block)
            assert chol[p].tobytes() == alone.tobytes()
            assert _factor_blocks(stack[p:p + 1])[0][0].tobytes() == \
                alone.tobytes()
        else:
            assert errors[p].startswith(
                "failed-block covariance condition number ")
            assert errors[p].endswith(" exceeds 1e+12")
            assert np.array_equal(chol[p], np.eye(len(block)))
        if not abs(svd_cond * RCOND_MIN - 1.0) <= band:
            assert (errors[p] is not None) == block_refused(block)


def _assert_forward_matches_solve(chol, rhs):
    # Either route's forward error is up to ~m cond(L) u of the solution
    # (u the unit roundoff), so they agree within 4 m cond(L) eps of the
    # largest entry of each column of each block's solution.
    ref = forward_reference(chol, rhs)
    scale = np.abs(ref).max(axis=1, keepdims=True)
    bound = (4 * chol.shape[1] * np.finfo(float).eps
             * np.linalg.cond(chol)[:, None, None] * scale)
    assert (np.abs(_forward(chol, rhs) - ref) <= bound).all()


@settings(max_examples=200, deadline=None)
@given(blocks=st.integers(1, 8).flatmap(
    lambda m: st.lists(_failed_block(m), min_size=1, max_size=6)),
    seed=st.integers(0, 2 ** 32 - 1))
def test_forward_substitution_matches_solve(blocks, seed):
    # on the factors the gate gives, accepted and refused alike, with
    # right-hand side columns of magnitudes 1e-5 .. 1e5
    chol = _factor_blocks(np.array(blocks))[0]
    rng = np.random.default_rng(seed)
    shape = (len(chol), chol.shape[1], 5)
    _assert_forward_matches_solve(
        chol, rng.standard_normal(shape)
        * 10.0 ** rng.integers(-5, 6, (len(chol), 1, 5)))


def test_forward_substitution_matches_solve_on_a_long_head():
    # the 100-pair head of a 200-vehicle chain against its whole
    # cross-covariance and one deviation column, as sweep-scale solves it
    sigma = steady_state_covariance(spectrum(laplacian(build_path(200))),
                                    PATH_NOISE).values
    chol = np.linalg.cholesky(sigma[None, :100, :100])
    rhs = np.concatenate((sigma[:100], np.full((100, 1), -3.0)), axis=1)
    _assert_forward_matches_solve(chol, rhs[None])


def test_forward_substitution_passes_refused_blocks_through():
    # a refused block has the identity as its factor
    rhs = np.random.default_rng(3).standard_normal((4, 5, 7))
    assert _forward(np.broadcast_to(np.eye(5), (4, 5, 5)),
                    rhs).tobytes() == rhs.tobytes()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 8))
def test_scenario_moments_do_not_depend_on_its_stack(seed, m):
    # each of 256 scenarios of m failures conditioned alone gives, bit
    # for bit, its moments inside the stack
    values = _random_spd(np.random.default_rng(seed), 20).values
    rng = np.random.default_rng(seed)
    idx = np.sort(np.array([rng.choice(20, m, replace=False)
                            for _ in range(256)]), axis=1)
    states = rng.uniform(-2.0, 5.0, idx.shape)
    stack = _condition_stack(values, idx, states, 3.0)
    for p in range(256):
        alone = _condition_stack(values, idx[p:p + 1], states[p:p + 1], 3.0)
        assert alone.mu.tobytes() == stack.mu[p].tobytes()
        assert alone.var.tobytes() == stack.var[p].tobytes()


def test_condition_rejects_bad_gap(path6_sigma):
    with pytest.raises(InvalidParameterError):
        risk_profile(path6_sigma, FailureScenario((), ()), 0.0, 1.0, 0.1)


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
    entry = _entry(sigma, 3.0, j, FailureScenario(tuple(int(i) for i in idx),
                                                  tuple(states)))
    assert entry.sigma_tilde <= math.sqrt(sigma.values[j - 1, j - 1]) + 1e-15


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


def _var_risk(mu, sig, d, c, eps):
    """_var_risk_array at one (mu, sig) as (value, branch tag)."""
    value = _var_risk_array(np.array([mu]), np.array([sig]), d, c,
                            iota(eps)).item()
    return value, branch_of(value)


def test_naive_risk_branch_stable_for_tiny_epsilon():
    # iota must stay finite below 1e-16, where 2 eps - 1 rounds to -1;
    # an iota of -inf would flip this query to `infinite`
    for eps in (1e-16, 1e-17, 1e-20):
        assert _var_risk(3.0, 0.1, 3.0, 2.0, eps)[1] == "zero"


def test_var_risk_zero_branch_boundary():
    value, branch = _var_risk(3.0, 1.0, 3.0, 1.0, 0.5)
    assert branch == "zero" and value == 0.0


def test_var_risk_infinite_branch():
    value, branch = _var_risk(0.0, 1.0, 3.0, 1.0, 0.3)
    assert branch == "infinite" and value == math.inf


def test_var_risk_finite_against_bisection():
    value, branch = _var_risk(2.5, 0.8, 3.0, 1.0, 0.2)
    assert branch == "finite"
    ref = var_bisect(2.5, 0.8, 3.0, 1.0, 0.2)
    assert abs(value - ref) < 1e-6
    # the defining probability identity holds at the returned value
    p = normal_cdf((3.0 / (value + 1.0) - 2.5) / 0.8)
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
        _, branch = _var_risk(mu, sig, d, c, eps)
        p_at_zero = normal_cdf((d / c - mu) / sig)
        p_in_c = normal_cdf((0.0 - mu) / sig)
        if branch == "zero":
            assert p_at_zero <= eps + 1e-12
        elif branch == "infinite":
            assert p_in_c >= eps - 1e-12
        else:
            assert p_at_zero > eps - 1e-12
            assert p_in_c < eps + 1e-12


def test_naive_risk_equals_empty_conditioning(path6_sigma):
    # the no-failure column of profiles and sweeps: the marginal law
    # N(d, sigma_jj) of each pair, to the bit
    d, c, eps = 3.0, 1.5, 0.23
    profile = risk_profile(path6_sigma, FailureScenario((), ()), d, c, eps)
    stds = [math.sqrt(v) for v in np.diagonal(path6_sigma.values).tolist()]
    assert profile.mu_tilde.tolist() == [d] * 5
    assert profile.sigma_tilde.tolist() == stds
    refs = [var_risk_scalar(d, std, d, c, iota(eps)) for std in stds]
    assert profile.risk.tolist() == [value for value, _ in refs]
    assert profile.branch.tolist() == [branch for _, branch in refs]
    profile = risk_profile(CovarianceMatrix(np.array([[1.0]])),
                           FailureScenario((), ()), 3.0, 1.0, 0.5)
    assert profile.risk.tolist() == [0.0]


def test_risk_profile_structure(path6_sigma):
    scenario = FailureScenario((2, 3), (0.0, 0.0))
    profile = risk_profile(path6_sigma, scenario, 3.0, 2.0, 0.1)
    assert profile.j.tolist() == [1, 2, 3, 4, 5]
    failed = np.isin(profile.j, (2, 3))
    assert (profile.failed == failed).all()
    assert profile.branch[failed].tolist() == ["zero", "zero"]
    assert profile.risk[failed].tolist() == [0.0, 0.0]
    assert np.isnan(profile.mu_tilde[failed]).all()
    assert np.isnan(profile.sigma_tilde[failed]).all()
    for j, mu_t, sig_t, risk, branch in zip(
            *(profile[name][~failed].tolist()
              for name in ("j", "mu_tilde", "sigma_tilde", "risk",
                           "branch"))):
        mu, sig = conditional_moments(path6_sigma.values, 3.0, j,
                                      scenario.indices, scenario.states)
        assert abs(mu_t - mu) < 1e-12
        assert abs(sig_t - sig) < 1e-12
        assert (risk, branch) == var_risk_scalar(mu_t, sig_t, 3.0, 2.0,
                                                 iota(0.1))


def test_risk_profile_empty_scenario_is_naive(path6_sigma):
    profile = risk_profile(path6_sigma, FailureScenario((), ()),
                           3.0, 2.0, 0.1)
    assert profile.risk.tolist() == [
        var_risk_scalar(3.0, math.sqrt(v), 3.0, 2.0, iota(0.1))[0]
        for v in np.diagonal(path6_sigma.values).tolist()]


def _singular_block_sigma():
    eps = 5e-14
    v = np.eye(4)
    v[0, 1] = v[1, 0] = 1.0 - eps
    v[2, 0] = v[0, 2] = 0.1
    v[2, 1] = v[1, 2] = 0.1
    return CovarianceMatrix(v)


def test_risk_profile_singular_block_marks_entries():
    sigma = _singular_block_sigma()
    profile = risk_profile(sigma, FailureScenario((1, 2), (0.5, 0.5)),
                           1.0, 1.0, 0.1)
    assert len(profile) == 4
    assert profile.failed.tolist() == [True, True, False, False]
    assert profile.branch.tolist() == ["zero", "zero", "error", "error"]
    assert profile.risk[:2].tolist() == [0.0, 0.0]
    assert np.isnan(profile.risk[2:]).all()
    assert [row.error is not None for row in profile] == [False, False,
                                                          True, True]


def test_risk_profile_rejects_bad_query_on_singular_block():
    # no pair reaches the risk branches here, so the query is checked at
    # entry
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
    prev = np.full(5, math.inf)
    for eps in grid:
        risk = risk_profile(path6_sigma, scenario, 3.0, 2.0, float(eps)).risk
        assert (risk <= prev + 1e-12).all()
        prev = risk


def test_risk_profile_overflowed_moment_raises():
    # mu of pair 1 is 3 + 1.9 * (1e308 - 3), past the largest float
    sigma = CovarianceMatrix(np.array([[4.0, 1.9], [1.9, 1.0]]))
    with pytest.raises(NumericalError):
        risk_profile(sigma, FailureScenario((2,), (1e308,)), 3.0, 1.0, 0.1)
    with pytest.raises(NumericalError):
        _condition_scenario(sigma, FailureScenario((2,), (1e308,)), 3.0)


def test_risk_profile_overflowed_risk_is_numerical():
    # mu of pair 1 is 1e300 + 0.5 (-1e300 - 1e300) = 0 exactly, and the
    # finite branch divides d by sqrt(2) iota sigma, about 2e-12: the
    # risk overflows, a numerical failure and not an invalid input
    sigma = CovarianceMatrix([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(NumericalError, match="risk overflowed"):
        risk_profile(sigma, FailureScenario((1,), (-1e300,)), d=1e300,
                     c=1.0, epsilon=0.5 + 1e-12)


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
        with pytest.raises(NumericalError, match="risk overflowed"):
            _var_risk_array(np.array([mu]), np.array([sig]), d, c, it)
        return
    value = _var_risk_array(np.array([mu, mu]), np.array([sig, sig]), d, c,
                            it)
    for v in value.tolist():
        assert branch_of(v) == ref_branch
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
    profile = risk_profile(sigma, FailureScenario(idx, states), d, c, eps)
    assert profile.j.tolist() == list(range(1, dim + 1))
    failed = np.isin(profile.j, idx)
    assert (profile.failed == failed).all()
    assert profile.risk[failed].tolist() == [0.0] * len(idx)
    assert profile.branch[failed].tolist() == ["zero"] * len(idx)
    assert all(e is None for e in profile.error)
    for j, mu_t, sig_t, branch in zip(
            *(profile[name][~failed].tolist()
              for name in ("j", "mu_tilde", "sigma_tilde", "branch"))):
        mu, sig = conditional_moments(sigma.values, d, j, idx, states)
        scale = abs(mu) + math.sqrt(sigma.values[j - 1, j - 1])
        assert abs(mu_t - mu) <= 1e-10 * scale
        assert abs(sig_t - sig) <= 1e-10 * sig
        assert branch == var_risk_scalar(mu, sig, d, c, iota(eps))[1]


def test_var_risk_exactly_on_infinite_edge():
    # mu = -sqrt(2) iota sigma puts P{X < 0} at epsilon: the risk is
    # infinite, not a division by a zero denominator
    it = iota(0.75)
    value, branch = _var_risk(-it * math.sqrt(2.0) * 4.5, 4.5, 1.0, 1.0, 0.75)
    assert branch == "infinite" and value == math.inf


@st.composite
def _profile_cases(draw):
    """A random connected weighted graph on 2..10 vehicles (a spanning
    tree plus extra links) with noise inside the stability region, and
    a random scenario on its pairs, all of them failed included."""
    n = draw(st.integers(2, 10))
    weight = st.floats(0.1, 3.0)
    edges = {(draw(st.integers(1, i - 1)), i): draw(weight)
             for i in range(2, n + 1)}
    for a, b in draw(st.lists(st.tuples(st.integers(1, n),
                                        st.integers(1, n)), max_size=n)):
        if a != b:
            edges[min(a, b), max(a, b)] = draw(weight)
    graph = build_custom(n, [(a, b, w) for (a, b), w in edges.items()])
    lam = spectrum(laplacian(graph)).eigenvalues
    tau = draw(st.floats(0.05, 0.9)) * (math.pi / 2) / lam[-1]
    beta = draw(st.floats(0.05, 0.9)) * region_bound(lam[1:] * tau).min() / tau
    failed = tuple(sorted(draw(st.sets(st.integers(1, n - 1)))))
    states = tuple(draw(st.lists(st.floats(0.0, 6.0), min_size=len(failed),
                                 max_size=len(failed))))
    return (graph, NoiseParams(g=0.1, tau=tau, beta=beta),
            FailureScenario(failed, states))


@settings(max_examples=80, deadline=None)
@given(case=_profile_cases(), d=st.floats(0.5, 6.0), c=st.floats(1.0, 3.0),
       eps=st.floats(0.01, 0.99))
def test_risk_profile_columns_match_oracles(case, d, c, eps):
    # the moment columns against textbook conditioning, the risk and
    # branch columns bit for bit against the scalar three-branch rule at
    # those moments; failed rows are zero risk with nan moments
    graph, noise, scenario = case
    sigma = steady_state_covariance(spectrum(laplacian(graph)), noise)
    profile = risk_profile(sigma, scenario, d, c, eps)
    assert profile.j.tolist() == list(range(1, graph.n))
    assert all(e is None for e in profile.error)
    failed = np.isin(profile.j, scenario.indices)
    assert (profile.failed == failed).all()
    assert (profile.risk[failed] == 0.0).all()
    assert (profile.branch[failed] == "zero").all()
    assert np.isnan(profile.mu_tilde[failed]).all()
    assert np.isnan(profile.sigma_tilde[failed]).all()
    live = profile[~failed]
    moments = [conditional_moments(sigma.values, d, j, scenario.indices,
                                   scenario.states) for j in live.j.tolist()]
    mu, sig = np.array(moments).reshape(-1, 2).T
    # a conditional variance is the marginal one less a reduction, so it
    # is exact to the marginal's scale, not to its own
    marginal = np.diagonal(sigma.values)[~failed]
    assert (np.abs(live.mu_tilde - mu)
            <= 1e-10 * (np.abs(mu) + np.sqrt(marginal))).all()
    assert (np.abs(live.sigma_tilde ** 2 - sig ** 2) <= 1e-10 * marginal).all()
    refs = [var_risk_scalar(m, s, d, c, iota(eps)) for m, s in
            zip(live.mu_tilde.tolist(), live.sigma_tilde.tolist())]
    assert live.risk.tolist() == [value for value, _ in refs]
    assert live.branch.tolist() == [branch for _, branch in refs]


@st.composite
def _conditioned_platoons(draw, mirrored=False):
    """A stable platoon of up to 12 vehicles (test_covariance's draw,
    a path or a p-cycle if mirrored), a target gap d, and a scenario of
    failed pairs observed at drawn states between 0 and 2d, leaving at
    least one survivor where the platoon has two pairs or more."""
    graph, spec, noise = draw(_stable_platoons(max_n=12, mirrored=mirrored))
    dim = graph.n - 1
    d = draw(st.floats(0.5, 10.0))
    failed = sorted(draw(st.sets(st.integers(1, dim), min_size=min(1, dim - 1),
                                 max_size=dim - 1)))
    states = tuple(d * draw(st.floats(0.0, 2.0)) for _ in failed)
    return graph, spec, noise, d, FailureScenario(tuple(failed), states)


def _moments(sigma, scenario, d):
    """The conditional mean and standard deviation of every pair, nan
    for a failed pair or one without a conditional law."""
    profile = risk_profile(sigma, scenario, d, 2.0, 0.1)
    return np.asarray(profile.mu_tilde), np.asarray(profile.sigma_tilde)


def _rounding_scales(sigma, scenario, d):
    """What the conditioning's rounding is proportional to, per pair,
    before the n eps cond factor: d + sqrt(S_jj) |x - d|_S22 for the
    mean (the shift is W^T z, with |W_j| <= sqrt(S_jj) and |z| the
    Mahalanobis length of the deviations) and S_jj for the variance;
    cond is the failed block's 2-norm condition number, which bounds
    how far a rounding of Sigma moves the solve."""
    s = sigma.values
    if not scenario.m:
        return d + 0.0 * np.diagonal(s), np.diagonal(s), 1.0
    idx = np.array(scenario.indices) - 1
    block = s[np.ix_(idx, idx)]
    dev = np.array(scenario.states) - d
    length = math.sqrt(abs(dev @ np.linalg.solve(block, dev)))
    return (d + np.sqrt(np.diagonal(s)) * length, np.diagonal(s),
            np.linalg.cond(block))


def _same_moments(got, want, sigma, scenario, d, var_factor, c):
    """got = (mu, sig) equals want within c n eps cond of the scales of
    _rounding_scales, the variance scale multiplied by var_factor. A
    failed pair has no moments on either side, and a survivor without a
    conditional law on one side has a variance within that tolerance
    of zero on the other."""
    (mu, sig), (mu_want, sig_want) = got, want
    mean_scale, var_scale, cond = _rounding_scales(sigma, scenario, d)
    tol = c * (len(mu) + 1) * np.finfo(float).eps * cond
    var_tol = tol * var_factor * var_scale
    both = ~np.isnan(sig) & ~np.isnan(sig_want)
    assert np.all(np.abs(mu - mu_want)[both] <= tol * mean_scale[both])
    assert np.all(np.abs(sig ** 2 - sig_want ** 2)[both] <= var_tol[both])
    failed = np.isin(np.arange(1, len(mu) + 1), scenario.indices)
    assert np.all(np.isnan(sig[failed]) & np.isnan(sig_want[failed]))
    for one, other in ((sig, sig_want), (sig_want, sig)):
        lost = np.isnan(one) & ~failed & ~np.isnan(other)
        assert np.all(other[lost] ** 2 <= var_tol[lost])


@settings(max_examples=60, deadline=None)
@given(case=_conditioned_platoons(),
       g=st.one_of(st.sampled_from([0.5, -2.0, 4.0]),
                   st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
def test_risk_noise_law(case, g):
    # Sigma(g) = g^2 Sigma(1), so the conditional mean does not depend
    # on g and the conditional deviation scales by |g|. At a power of
    # two g^2 tau^3 and every step of the conditioning scale exactly,
    # so the law holds bit for bit; elsewhere within c n eps cond of
    # _rounding_scales (c = 1.5 at worst over 900 draws of this domain)
    _, spec, noise, d, scenario = case
    unit = steady_state_covariance(spec,
                                   NoiseParams(1.0, noise.tau, noise.beta))
    sigma = steady_state_covariance(spec, NoiseParams(g, noise.tau,
                                                      noise.beta))
    mu, sig = _moments(sigma, scenario, d)
    mu_unit, sig_unit = _moments(unit, scenario, d)
    if abs(math.frexp(g)[0]) == 0.5:     # |g| a power of two
        assert np.array_equal(mu, mu_unit, equal_nan=True)
        assert np.array_equal(sig, abs(g) * sig_unit, equal_nan=True)
    else:
        _same_moments((mu, sig), (mu_unit, abs(g) * sig_unit), unit,
                      scenario, d, g * g, 16.0)


@settings(max_examples=60, deadline=None)
@given(case=_conditioned_platoons(),
       a=st.one_of(st.sampled_from([0.5, 2.0, 0.25, 4.0]),
                   st.floats(0.1, 10.0)))
def test_risk_time_rescaling_law(case, a):
    # weights x a, tau / a and beta x a scale Sigma by a^-3 (the
    # covariance half of this law), so the conditional mean is unchanged
    # and the conditional deviation scales by a^(-3/2). Where a^(-3/2)
    # is a power of two (a = 1/4, 4) and tau^3 scales exactly, the
    # Cholesky factor, the solve and the square root scale exactly too,
    # and the law holds bit for bit; at a = 1/2 and 2 the factor's
    # square root of 8 rounds, so there and elsewhere it holds within
    # c n eps cond of _rounding_scales (c = 7 at worst over 900 draws)
    graph, spec, noise, d, scenario = case
    sigma = steady_state_covariance(spec, noise)
    rescaled = steady_state_covariance(
        spectrum(laplacian(WeightedGraph(graph.n, graph.weights * a))),
        NoiseParams(noise.g, noise.tau / a, noise.beta * a))
    mu, sig = _moments(sigma, scenario, d)
    got = _moments(rescaled, scenario, d)
    if a in (0.25, 4.0) and (noise.tau / a) ** 3 == noise.tau ** 3 * a ** -3:
        assert np.array_equal(got[0], mu, equal_nan=True)
        assert np.array_equal(got[1], sig * a ** -1.5, equal_nan=True)
    else:
        _same_moments(got, (mu, sig * a ** -1.5), sigma, scenario, d,
                      a ** -3, 64.0)


@settings(max_examples=60, deadline=None)
@given(platoon=_stable_platoons(max_n=12), d=st.floats(0.5, 10.0),
       data=st.data())
def test_risk_one_failure_law(platoon, d, data):
    # one failed pair i observed at x: mu_j = d + S_ij (x - d) / S_ii
    # and sigma_j^2 = S_jj - S_ij^2 / S_ii, within a few roundings of
    # d + |S_ij (x - d) / S_ii| and S_jj (c = 1.9 at worst over 600
    # draws). The scaling laws hold with the conditioning shift's sign
    # flipped; this one does not
    graph, spec, noise = platoon
    sigma = steady_state_covariance(spec, noise)
    s = sigma.values
    i = data.draw(st.integers(1, graph.n - 1))
    x = d * data.draw(st.floats(0.0, 2.0))
    mu, sig = _moments(sigma, FailureScenario((i,), (x,)), d)
    shift = s[i - 1] * (x - d) / s[i - 1, i - 1]
    var = np.diagonal(s) - s[i - 1] ** 2 / s[i - 1, i - 1]
    tol = 4.0 * np.finfo(float).eps
    ok = ~np.isnan(sig)
    lost = ~ok
    lost[i - 1] = False     # the failed pair has no moments
    assert not ok[i - 1]
    assert np.all(np.abs(mu - (d + shift))[ok]
                  <= tol * (d + np.abs(shift))[ok])
    assert np.all(np.abs(sig ** 2 - var)[ok] <= tol * np.diagonal(s)[ok])
    # a survivor without a conditional law has a variance within
    # rounding of zero
    assert np.all(var[lost] <= tol * np.diagonal(s)[lost])


@settings(max_examples=60, deadline=None)
@given(case=_conditioned_platoons(mirrored=True))
def test_risk_reversal_law(case):
    # reversing the vehicles maps a path or a p-cycle to itself and pair
    # j to pair n - j, so the moments under failures F are those under
    # n - F read in reverse, within c n eps cond of _rounding_scales
    # (c = 7.3 at worst over 2600 draws). The rotations of a p-cycle are
    # left out: its n - 1 pairs are not cyclic
    graph, spec, noise, d, scenario = case
    n = graph.n
    assert np.array_equal(graph.weights, graph.weights[::-1, ::-1])
    mirror = FailureScenario(
        tuple(n - i for i in reversed(scenario.indices)),
        tuple(reversed(scenario.states)))
    sigma = steady_state_covariance(spec, noise)
    mu, sig = _moments(sigma, mirror, d)
    _same_moments((mu[::-1], sig[::-1]), _moments(sigma, scenario, d),
                  sigma, scenario, d, 1.0, 64.0)


_BRANCH_ORDER = {"zero": 0, "finite": 1, "infinite": 2}


@settings(max_examples=60, deadline=None)
@given(case=_conditioned_platoons(), c=st.floats(1.0, 3.0),
       eps=st.floats(0.01, 0.49), ratio=st.sampled_from([2.0, 4.0, 1024.0]))
def test_risk_monotone_in_noise(case, c, eps, ratio):
    # at epsilon < 1/2 iota < 0, so sqrt(2) iota sigma~ + mu~ falls as g
    # grows while mu~ stays fixed: a finite-branch risk does not fall,
    # and a branch only moves zero -> finite -> infinite. At a ratio of
    # g that is a power of two the moments scale exactly (the noise law
    # holds bit for bit there), and each step of the risk is monotone
    # under rounding, so the law holds with no tolerance
    _, spec, noise, d, scenario = case
    low, high = (risk_profile(steady_state_covariance(
        spec, NoiseParams(g, noise.tau, noise.beta)), scenario, d, c, eps)
        for g in (noise.g, noise.g * ratio))
    for weak, strong in zip(low, high):
        assert (weak.branch == "error") == (strong.branch == "error")
        if weak.branch == "error":
            continue
        assert _BRANCH_ORDER[strong.branch] >= _BRANCH_ORDER[weak.branch]
        if weak.branch == strong.branch == "finite":
            assert strong.risk >= weak.risk
