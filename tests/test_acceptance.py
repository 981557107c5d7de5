"""End-to-end gate for the package: nine checks, one per headline
guarantee, each with a pinned tolerance and a wall-clock budget."""
import itertools
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from cascade_risk import (CovarianceMatrix, FailureScenario, NoiseParams,
                          SimConfig, build_complete, build_path,
                          build_pcycle, check_platoon,
                          complete_graph_sigma_c, complete_profile,
                          laplacian, risk_profile, run, spectrum,
                          steady_state_covariance)
from cascade_risk.cli import main
from cascade_risk.closed_form import _run_weights
from cascade_risk.risk import _var_risk_array, iota

from oracles import (branch_of, chain_distance_covariance, normal_cdf,
                     tridiag_matrix, var_bisect, var_risk_scalar)

COMPLETE_NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)
PATH_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)
PCYCLE_NOISE = NoiseParams(g=0.1, tau=0.01, beta=2.0)


@pytest.fixture
def budget():
    start = time.perf_counter()
    yield lambda limit: time.perf_counter() - start < limit


def test_01_closed_form_covariance_matches_generic(budget):
    for n in (3, 10, 50):
        sigma_c = complete_graph_sigma_c(n, COMPLETE_NOISE)
        closed = tridiag_matrix(n - 1, sigma_c)
        generic = steady_state_covariance(
            spectrum(laplacian(build_complete(n))), COMPLETE_NOISE)
        diff = np.abs(closed - generic.values).max()
        assert diff <= 1e-10, f"n={n}: max abs diff {diff:.3g}"
    assert budget(5.0)


def test_02_case_stats_matches_conditioning_exhaustively(budget):
    n = 12
    sigma_c = complete_graph_sigma_c(n, COMPLETE_NOISE)
    sigma = CovarianceMatrix(tridiag_matrix(n - 1, sigma_c))
    d, c, epsilon = 3.0, 2.0, 0.1
    rng = np.random.default_rng(20260212)
    pairs = range(1, n)
    checked = 0
    for m in range(1, 5):
        for indices in itertools.combinations(pairs, m):
            states = tuple(rng.uniform(0.0, 2.0 * d, size=m))
            scenario = FailureScenario(indices, states)
            fast = complete_profile(n, scenario, sigma_c, d, c, epsilon)
            ref = risk_profile(sigma, scenario, d, c, epsilon)
            for a, b in zip(fast, ref):
                assert a.j == b.j and a.failed == b.failed
                if a.failed:
                    continue
                assert abs(a.mu_tilde - b.mu_tilde) <= 1e-10
                assert abs(a.sigma_tilde - b.sigma_tilde) <= 1e-10
                checked += 1
    assert checked == 4235
    assert budget(10.0)


def test_03_tridiagonal_inverse(budget):
    # the run weights i/(m+1), and reversed, times 2/sigma_c are the
    # last and first rows of the run block's inverse
    rng = np.random.default_rng(33)
    for m in range(1, 21):
        w = _run_weights(m)
        for sigma_c in rng.uniform(0.05, 10.0, size=10):
            inverse = np.linalg.inv(tridiag_matrix(m, float(sigma_c)))
            scaled = 2.0 / sigma_c * w
            assert np.abs(scaled - inverse[-1]).max() <= 1e-8
            assert np.abs(scaled[::-1] - inverse[0]).max() <= 1e-8
    assert budget(1.0)


def test_04_risk_against_bisection_oracle(budget):
    rng = np.random.default_rng(41)
    finite = zero = infinite = 0
    attempts = 0
    while finite < 1000:
        attempts += 1
        assert attempts < 20000
        mu = float(rng.uniform(-5.0, 15.0))
        sigma = float(rng.uniform(0.1, 10.0))
        d = float(rng.uniform(0.5, 10.0))
        c = float(rng.uniform(1.0, 5.0))
        epsilon = float(rng.uniform(0.01, 0.99))
        value = _var_risk_array(np.array([mu]), np.array([sigma]), d, c,
                                iota(epsilon)).item()
        branch = branch_of(value)
        if branch == "finite":
            oracle = var_bisect(mu, sigma, d, c, epsilon,
                                hi=2.0 * value + 10.0)
            assert abs(value - oracle) <= 1e-6
            finite += 1
        elif branch == "zero":
            # the tightest alarm zone is already improbable enough
            assert normal_cdf((d / c - mu) / sigma) <= epsilon + 1e-12
            zero += 1
        else:
            # even collision itself is too probable to tolerate
            assert normal_cdf(-mu / sigma) >= epsilon - 1e-12
            infinite += 1
    assert zero > 0 and infinite > 0
    assert budget(5.0)


def test_05_monte_carlo_matches_analytic(budget):
    graph = build_path(5)
    analytic = steady_state_covariance(spectrum(laplacian(graph)),
                                       PATH_NOISE).values
    # the Euler-Maruyama chain's stationary covariance sits O(dt) from
    # the analytic one: within 3 dt sqrt(sigma_ii sigma_jj), dt in s
    chain = chain_distance_covariance(graph, PATH_NOISE, 1e-3)
    scale = np.sqrt(np.outer(np.diag(analytic), np.diag(analytic)))
    assert np.all(np.abs(chain - analytic) <= 3e-3 * scale)
    sim = SimConfig(dt=1e-3, samples_per_trial=200, trials=64,
                    seed=20260825)
    empirical = run(graph, 3.0, PATH_NOISE, sim)
    # against the chain, every z within the Bonferroni bound for the 10
    # distinct entries at a 1e-3 false-alarm rate (3.89)
    z_chain = np.abs(empirical.cov - chain) / empirical.standard_errors
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * 10))
    assert np.all(z_chain <= bound), f"worst z = {z_chain.max():.3f}"
    z = np.abs(empirical.cov - analytic) / empirical.standard_errors
    assert z.max() <= 4.0
    assert budget(180.0)


def test_06_complete_graph_profile_reproduction(budget):
    n, d, c, epsilon = 50, 3.0, 2.0, 0.1
    sigma = steady_state_covariance(
        spectrum(laplacian(build_complete(n))), COMPLETE_NOISE)
    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    profile = risk_profile(sigma, scenario, d, c, epsilon)
    assert all(e is None for e in profile.error)
    for j, risk, branch in zip(profile.j.tolist(), profile.risk.tolist(),
                               profile.branch.tolist()):
        if j in scenario or 22 <= j <= 28:
            continue
        naive, naive_branch = var_risk_scalar(
            d, math.sqrt(sigma.values[j - 1, j - 1]), d, c, iota(epsilon))
        assert branch == naive_branch
        if math.isfinite(naive):
            assert abs(risk - naive) <= 1e-12
        else:
            assert risk == naive
    front, back = profile[21], profile[27]
    assert (front.j, back.j) == (22, 28)
    assert front.branch == back.branch
    if math.isfinite(front.risk):
        assert abs(front.risk - back.risk) <= 1e-12
    else:
        assert front.risk == back.risk
    assert budget(5.0)


def test_07_risk_monotone_in_epsilon(budget):
    d = 3.0
    setups = [
        (build_complete(20), COMPLETE_NOISE),
        (build_path(20), PATH_NOISE),
        (build_pcycle(20, 5), PCYCLE_NOISE),
    ]
    sigmas = [steady_state_covariance(spectrum(laplacian(g)), noise)
              for g, noise in setups]
    eps_grid = np.linspace(0.02, 0.98, 50)
    rng = np.random.default_rng(73)
    order = {"infinite": 0, "finite": 1, "zero": 2}
    for i in range(100):
        sigma = sigmas[i % 3]
        dim = sigma.dim
        m = int(rng.integers(1, 5))
        chosen = np.sort(rng.choice(dim, size=m + 1, replace=False)) + 1
        j = int(chosen[int(rng.integers(0, m + 1))])
        indices = tuple(int(k) for k in chosen if k != j)
        states = tuple(rng.uniform(0.0, 2.0 * d, size=m))
        c = float(rng.uniform(1.0, 3.0))
        entry = risk_profile(sigma, FailureScenario(indices, states), d, c,
                             0.5)[j - 1]
        assert entry.sigma_tilde <= \
            math.sqrt(sigma.values[j - 1, j - 1]) + 1e-12
        results = [_var_risk_array(np.array([entry.mu_tilde]),
                                   np.array([entry.sigma_tilde]), d, c,
                                   iota(float(eps))).item()
                   for eps in eps_grid]
        for prev, cur in zip(results, results[1:]):
            assert cur <= prev * (1.0 + 1e-12) + 1e-12
            assert order[branch_of(cur)] >= order[branch_of(prev)]
    assert budget(30.0)


def test_08_stability_classification(budget):
    cases = [
        (build_complete(50), COMPLETE_NOISE),
        (build_path(50), PATH_NOISE),
        (build_pcycle(50, 1), PCYCLE_NOISE),
        (build_pcycle(50, 5), PCYCLE_NOISE),
    ]
    for graph, noise in cases:
        report = check_platoon(spectrum(laplacian(graph)), noise.tau,
                               noise.beta)
        assert report.stable, f"{graph.n}-vehicle case should be stable"
    report = check_platoon(
        spectrum(laplacian(build_complete(50))), 0.04, 0.005)
    assert not report.stable
    assert abs(report.s1[np.argmin(report.margin)] - 2.0) <= 1e-12
    assert budget(1.0)


SIM_CFG = """\
[graph]
type = path
n = 3

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.03
beta = 2

[sim]
dt = 0.001
sample_interval = 0.1
samples_per_trial = 10
trials = 4
seed = 11
"""

SPARSITY_CFG = """\
[graph]
type = path
n = 10

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.03
beta = 2

[query]
epsilon = 0.4
c = 1

[scenario]
states = 0

[sim]
seed = 11

[experiment]
enum_cap = 1
sample_count = 40
"""


def test_09_cli_byte_determinism(tmp_path, budget):
    jobs = [
        ("simulate", SIM_CFG, ["simulate"]),
        ("sparsity", SPARSITY_CFG, ["sweep-sparsity", "--m", "3"]),
    ]
    for name, cfg_text, argv in jobs:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(cfg_text)
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.csv"
            code = main(argv + ["--config", str(cfg), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
    assert budget(60.0)
