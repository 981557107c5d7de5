import math
import sys
import threading
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascade_risk import (DivergenceError, InvalidParameterError,
                          InvalidSizeError, NoiseParams, SimConfig,
                          UnstablePlatoonError, build_complete, build_path,
                          build_pcycle, check_platoon,
                          laplacian, run, simulate, spectrum,
                          steady_state_covariance)
from cascade_risk.simulate import (_delay_steps, _drift, _initial_history,
                                   _stationary_cov)

from oracles import (chain_distance_covariance, em_distance_samples,
                     em_mode_matrix, pooled_cov_and_se)

PATH5_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)


def targets(n, d=3.0):
    """The positions run steers vehicles 1..n to: d, 2d, ..., nd."""
    return d * np.arange(1, n + 1, dtype=float)


def _stepped(graph):
    """The Laplacian of graph and its spectrum, as _samples takes them."""
    L = laplacian(graph)
    return L, spectrum(L)


@pytest.fixture(scope="module")
def reference_run():
    sim = SimConfig(dt=1e-3, sample_interval=0.6,
                    samples_per_trial=100, trials=24, seed=5)
    samples = simulate._samples(*_stepped(build_path(5)), 3.0, PATH5_NOISE,
                                sim)
    return simulate._pool(samples), samples


def test_sim_config_validation():
    SimConfig()
    with pytest.raises(InvalidParameterError):
        SimConfig(dt=0.0)
    with pytest.raises(InvalidParameterError):
        SimConfig(dt=-1e-3)
    with pytest.raises(InvalidParameterError):
        SimConfig(sample_interval=-0.1)
    SimConfig(samples_per_trial=2, trials=2)
    # the standard errors need 2 trials and 2 samples per trial
    for bad in (0, 1):
        with pytest.raises(InvalidParameterError):
            SimConfig(samples_per_trial=bad)
        with pytest.raises(InvalidParameterError):
            SimConfig(trials=bad)
    # counts and the seed are integers; integral values become ints
    sim = SimConfig(samples_per_trial=np.int64(4), trials=3.0,
                    seed=np.uint64(7))
    assert (sim.samples_per_trial, sim.trials, sim.seed) == (4, 3, 7)
    assert all(type(v) is int
               for v in (sim.samples_per_trial, sim.trials, sim.seed))
    for bad in (2.5, True, np.True_, math.nan, "4"):
        for name in ("samples_per_trial", "trials", "seed"):
            with pytest.raises(InvalidParameterError):
                SimConfig(**{name: bad})
    with pytest.raises(InvalidParameterError):
        SimConfig(seed=-1)
    with pytest.raises(InvalidParameterError):
        SimConfig(seed=2 ** 64)


def test_delay_steps():
    assert _delay_steps(5, 0.03, 1e-3) == 30
    assert _delay_steps(5, 0.03, 0.03) == 1
    with pytest.raises(InvalidParameterError):
        _delay_steps(5, 0.0301, 1e-3)      # not a multiple
    with pytest.raises(InvalidParameterError):
        _delay_steps(5, 0.03, 0.08)        # dt longer than the delay
    # tau / dt overflows to inf, or lies beyond what numpy can index
    for dt in (1e-320, 1e-300):
        with pytest.raises(InvalidSizeError, match="state history"):
            _delay_steps(5, 0.03, dt)


@settings(max_examples=60, deadline=None)
@given(build=st.sampled_from([build_path, build_complete,
                              lambda n: build_pcycle(n + 3, 2)]),
       n=st.integers(2, 6), k=st.integers(1, 40),
       tau=st.floats(1e-3, 0.3), beta=st.floats(0.01, 5.0))
def test_stationary_cov_solves_lyapunov(build, n, k, tau, beta):
    # P = A P A^T + e_1 e_1^T to 1e-13 of P for the mode's one-step map
    # A built by stepping each unit state; refused only where some
    # mode's chain has a spectral radius of 1 or more
    spec = spectrum(laplacian(build(n)))
    assume(check_platoon(spec, tau, beta).stable)
    lam = spec.eigenvalues[1:]
    dt = tau / k
    A = [em_mode_matrix(lam_i, beta, dt, k) for lam_i in lam]
    try:
        P = _stationary_cov(lam, beta, dt, k)
    except DivergenceError:
        assert max(np.abs(np.linalg.eigvals(a)).max() for a in A) > 1 - 1e-9
        return
    noise = np.zeros((k + 2, k + 2))
    noise[1, 1] = 1.0
    for a, p in zip(A, P):
        assert np.abs(a @ p @ a.T + noise - p).max() <= 1e-13 * np.abs(p).max()


def test_chain_bias_halves_with_dt():
    # the chain's stationary distance covariance sits O(dt) above the
    # analytic one: halving dt halves the gap of every variance
    for graph in (build_path(5), build_complete(5)):
        analytic = steady_state_covariance(spectrum(laplacian(graph)),
                                           PATH5_NOISE).values
        gap = [np.diag(chain_distance_covariance(graph, PATH5_NOISE, dt)
                       - analytic) for dt in (1e-3, 5e-4)]
        assert np.all(gap[1] > 0.0)
        assert np.all((1.8 <= gap[0] / gap[1]) & (gap[0] / gap[1] <= 2.2))


def test_initial_draws_match_stationary_cov():
    # 20000 draws on path3 at k = 3: the modal states rebuilt from the
    # physical history, (y_0, u_0, ..., u_{-k}) per mode, have the
    # covariance g^2 dt P mode by mode, and the modes are uncorrelated.
    # Entry z-scores use the exact variance of a Gaussian second moment
    # about a known zero mean, at the Bonferroni bound for the 55
    # distinct entries at a 1e-3 false-alarm rate.
    graph, dt, k, draws = build_path(3), 1e-3, 3, 20000
    noise = NoiseParams(g=0.1, tau=k * dt, beta=2.0)
    spec = spectrum(laplacian(graph))
    Q = spec.eigenvectors
    P = _stationary_cov(spec.eigenvalues[1:], noise.beta, dt, k)
    x, v = _initial_history(P, noise.g, dt, Q, targets(3),
                            [np.random.default_rng(3)] * draws)
    y = (x[-1] - targets(3)) @ Q[:, 1:]
    u = v[::-1] @ Q[:, 1:]
    states = np.concatenate([y[:, :, None], u.transpose(1, 2, 0)],
                            axis=2).reshape(draws, -1)
    size = k + 2
    expected = np.zeros((2 * size, 2 * size))
    for i in range(2):
        expected[i * size:(i + 1) * size, i * size:(i + 1) * size] = \
            noise.g ** 2 * dt * P[i]
    estimate = states.T @ states / draws
    var = np.diag(expected)
    se = np.sqrt((expected ** 2 + np.outer(var, var)) / draws)
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * 55))
    assert (np.abs(estimate - expected) / se).max() <= bound


def test_initial_history_follows_the_chain(monkeypatch):
    # the first block's drift reads the drawn history, states -k .. 0:
    # positions advance by dt times velocities, as on an Euler-Maruyama
    # path, and mode 1, the rigid translation, rests on the targets
    seen = []

    def recording(x_delayed, v_delayed, *args):
        seen.append((x_delayed.copy(), v_delayed.copy()))
        return _drift(x_delayed, v_delayed, *args)

    monkeypatch.setattr(simulate, "_drift", recording)
    sim = SimConfig(dt=1e-3, sample_interval=0.1,
                    samples_per_trial=2, trials=2)
    run(build_path(5), 3.0, PATH5_NOISE, sim)
    k = _delay_steps(5, PATH5_NOISE.tau, 1e-3)
    x, v = seen[0]
    assert x.shape == v.shape == (k + 1, 2, 5)
    assert np.abs(x[1:] - x[:-1] - 1e-3 * v[:-1]).max() <= 1e-13
    assert np.abs(x.mean(axis=2) - targets(5).mean()).max() <= 1e-13
    assert np.abs(v.sum(axis=2)).max() <= 1e-13
    assert np.abs(x - targets(5)).min() > 0.0 and np.all(v != 0.0)


def test_step_fixed_point_without_noise():
    # at the targets with zero velocities the delayed drift vanishes, so
    # a noiseless trajectory started there never moves
    noise = NoiseParams(g=0.1, tau=0.01, beta=2.0)
    L = laplacian(build_pcycle(7, 2))
    r = targets(7)
    assert np.all(_drift(r, np.zeros(7), r, L, noise.beta) == 0.0)
    batch = np.tile(r, (3, 1))
    assert np.all(_drift(batch, np.zeros((3, 7)), r, L, noise.beta) == 0.0)


def test_step_translation_invariance():
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    L = laplacian(build_path(4))
    rng = np.random.default_rng(8)
    xd = targets(4) + rng.normal(size=4)
    vd = rng.normal(size=4)
    a0 = _drift(xd, vd, targets(4), L, noise.beta)
    shift = 17.25
    a1 = _drift(xd + shift, vd, targets(4), L, noise.beta)
    assert np.abs(a1 - a0).max() < 1e-12


def test_drift_matches_per_vehicle_sums():
    # matrix form versus the summed control law, vehicle by vehicle
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    g = build_path(3)
    L = laplacian(g)
    rng = np.random.default_rng(17)
    r = targets(3)
    xd = r + rng.normal(size=3)
    vd = rng.normal(size=3)
    drift = _drift(xd, vd, r, L, noise.beta)
    for i in range(3):
        u = sum(g.weights[i, k] * ((vd[k] - vd[i])
                                   + noise.beta * ((xd[k] - xd[i]) - (r[k] - r[i])))
                for k in range(3))
        assert abs(drift[i] - u) < 1e-12


def _overflow_at_step_5(monkeypatch):
    # tau = 2 dt, so each _drift call covers a block of 3 steps; the
    # second call's row 1, the drift of step 5, overflows in both trials
    calls = []

    def overflowing(*args):
        calls.append(1)
        drift = _drift(*args)
        if len(calls) == 2:
            drift[1] = np.inf
        return drift

    monkeypatch.setattr(simulate, "_drift", overflowing)


class _NoiseFault(Exception):
    pass


def _recording_rngs(monkeypatch, fail_at=None, spike=None):
    # default_rng stand-ins that delegate to the real generators and
    # record each noise chunk's length; noise call fail_at raises
    # _NoiseFault, and spike = (trial, step, value) writes value into
    # that trial's noise at that step
    real = np.random.default_rng
    made = []

    class Recording:
        def __init__(self, seed):
            self.rng, self.sizes = real(seed), []
            made.append(self)

        def standard_normal(self, size=None, out=None):
            if out is None:                 # the initial history
                return self.rng.standard_normal(size)
            start = sum(self.sizes)
            self.sizes.append(out.shape[0])
            if len(self.sizes) == fail_at:
                raise _NoiseFault
            self.rng.standard_normal(out=out)
            if spike and made.index(self) == spike[0] \
                    and start <= spike[1] < start + out.shape[0]:
                out[spike[1] - start, 0] = spike[2]
            return out

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return made


def test_noise_failure_reaches_caller(monkeypatch):
    # an exception raised on the noise worker while the third chunk is
    # drawn is re-raised by run, and no thread is left behind
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    made = _recording_rngs(monkeypatch, fail_at=3)
    sim = SimConfig(dt=1e-3, sample_interval=0.1,
                    samples_per_trial=4, trials=2)
    threads = threading.active_count()
    with pytest.raises(_NoiseFault):
        run(build_path(3), 3.0,
            NoiseParams(g=0.1, tau=0.002, beta=2.0), sim)
    assert threading.active_count() == threads
    assert made[0].sizes == [15, 15, 15]    # the third of 20 chunks


@pytest.mark.parametrize("fault", [
    _overflow_at_step_5,
    # noise of inf in trial 1 at step 40 (0-based), inside the 14th block
    lambda mp: _recording_rngs(mp, spike=(1, 40, np.inf)),
    # nan noise in trial 0 at step 298 of 300, inside the last block: it
    # reaches the velocity of step 299 and the final position only
    lambda mp: _recording_rngs(mp, spike=(0, 298, np.nan)),
], ids=["drift_inf_at_step_5", "noise_inf_at_step_40",
        "noise_nan_in_last_block"])
def test_non_finite_state_is_refused_when_pooled(monkeypatch, fault):
    # a non-finite state stays non-finite in every later step, and the
    # last sample is the final state: _pool refuses the run
    fault(monkeypatch)
    # 15-step noise chunks: the noise worker is one chunk ahead, possibly
    # mid-draw, when the run stops
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    sim = SimConfig(dt=1e-3, sample_interval=0.1,
                    samples_per_trial=4, trials=2)
    threads = threading.active_count()
    with pytest.raises(DivergenceError, match="pooled estimate is not "
                                              "finite"):
        run(build_path(3), 3.0,
            NoiseParams(g=0.1, tau=0.002, beta=2.0), sim)
    # the noise worker does not outlive the call
    assert threading.active_count() == threads


@pytest.mark.parametrize("n, g", [(5, 1e307), (5, 1.7e308), (50, 1e307)])
def test_g_beyond_float_range_is_refused_without_warning(n, g):
    # the initial draw overflows; the stepper's errstate covers it, and
    # the run ends in the pooled refusal, not in a numpy RuntimeWarning
    sim = SimConfig(trials=2, samples_per_trial=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="pooled estimate is not "
                                                  "finite"):
            run(build_path(n), 3.0, NoiseParams(g=g, tau=0.03, beta=2.0),
                sim)


def _package_start(graph, noise, dt, seed, trials, steps):
    # the history and the noise of a run with this seed: each trial's
    # stream gives its initial history first, then its noise
    spec = spectrum(laplacian(graph))
    k = _delay_steps(graph.n, noise.tau, dt)
    P = _stationary_cov(spec.eigenvalues[1:], noise.beta, dt, k)
    rngs = [np.random.default_rng(np.random.SeedSequence(seed,
                                                         spawn_key=(t,)))
            for t in range(trials)]
    history = _initial_history(P, noise.g, dt, spec.eigenvectors,
                               targets(graph.n), rngs)
    xi = np.stack([rg.standard_normal((steps, graph.n)) for rg in rngs],
                  axis=1)
    return history, xi


def test_concurrent_runs_match_oracle(monkeypatch):
    # four runs at once, each with its own noise worker handing over 20
    # small chunks, under a short switch interval: a buffer read before
    # it is filled, or refilled while read, breaks bitwise equality
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    L = laplacian(build_path(3))
    results = {}

    def one(seed):
        sim = SimConfig(dt=1e-3, sample_interval=0.1,
                        samples_per_trial=4, trials=2, seed=seed)
        results[seed] = simulate._samples(*_stepped(build_path(3)), 3.0,
                                          noise, sim)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=one, args=(seed,))
                   for seed in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    for seed in range(4):
        history, xi = _package_start(build_path(3), noise, 1e-3, seed, 2,
                                     300)
        expected = em_distance_samples(L, targets(3), noise.g, noise.tau,
                                       noise.beta, 1e-3, xi, 0, 100, 4,
                                       history)
        assert np.array_equal(results[seed], expected)


def _run_against_oracle(monkeypatch, tau, dt, interval, n_samples,
                        noise_values):
    # block stepping reproduces per-step Euler-Maruyama to the bit when
    # the oracle starts from the package's own history and reads the
    # same per-trial (seed, trial) streams; returns the chunk lengths
    # trial 0 drew
    noise = NoiseParams(g=0.1, tau=tau, beta=2.0)
    trials, seed = 3, 11
    int_steps = round(interval / dt)
    k = _delay_steps(5, tau, dt)
    assert int_steps % (k + 1)
    total = (n_samples - 1) * int_steps
    history, xi = _package_start(build_path(5), noise, dt, seed, trials,
                                 total)
    expected = em_distance_samples(
        laplacian(build_path(5)), targets(5), noise.g, tau,
        noise.beta, dt, xi, 0, int_steps, n_samples, history)

    if noise_values is not None:
        monkeypatch.setattr(simulate, "_NOISE_VALUES", noise_values)
    made = _recording_rngs(monkeypatch)
    sim = SimConfig(dt=dt, sample_interval=interval,
                    samples_per_trial=n_samples, trials=trials, seed=seed)
    threads = threading.active_count()
    samples = simulate._samples(*_stepped(build_path(5)), 3.0, noise, sim)
    # a run that ends normally leaves no noise worker behind either
    assert threading.active_count() == threads
    assert np.array_equal(samples, expected)
    assert all(sum(rng.sizes) == total for rng in made)
    return made[0].sizes


@pytest.mark.parametrize("tau, dt, interval, n_samples, noise_values", [
    (0.03, 1e-3, 0.045, 7, 2000),       # k = 30, chunks of 124 steps
    (0.005, 0.005, 0.015, 8, 100),      # k = 1, chunks of 6 steps
    (0.03, 1e-3, 0.045, 400, None),     # k = 30, default chunk exceeded
])
def test_run_matches_per_step_oracle(monkeypatch, tau, dt, interval,
                                     n_samples, noise_values):
    # the interval and the run are not multiples of the k + 1 steps of a
    # block
    _run_against_oracle(monkeypatch, tau, dt, interval, n_samples,
                        noise_values)


@pytest.mark.parametrize("interval, noise_values, chunks", [
    (0.517, None, [3102]),         # one chunk: nothing is drawn ahead
    (0.598, 2000, [124] * 299),    # the last step ends a full chunk
])
def test_run_matches_per_step_oracle_at_chunk_edges(monkeypatch, interval,
                                                    noise_values, chunks):
    # the run spans exactly the given chunks
    n_samples = 1 + sum(chunks) // round(interval / 1e-3)
    assert _run_against_oracle(monkeypatch, 0.03, 1e-3, interval, n_samples,
                               noise_values) == chunks


def test_run_seed_determinism():
    sim = SimConfig(dt=1e-3, sample_interval=0.1,
                    samples_per_trial=8, trials=3, seed=42)
    a = run(build_path(3), 3.0,
            NoiseParams(g=0.1, tau=0.03, beta=2.0), sim)
    b = run(build_path(3), 3.0,
            NoiseParams(g=0.1, tau=0.03, beta=2.0), sim)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.standard_errors, b.standard_errors)
    other = run(build_path(3), 3.0,
                NoiseParams(g=0.1, tau=0.03, beta=2.0),
                SimConfig(dt=1e-3, sample_interval=0.1,
                          samples_per_trial=8, trials=3, seed=43))
    assert not np.array_equal(a.cov, other.cov)


def test_run_per_trial_streams_stable():
    # adding a trial must not perturb the existing trials' trajectories
    kw = dict(dt=1e-3, sample_interval=0.1,
              samples_per_trial=5, seed=9)
    graph = build_path(3)
    noise = NoiseParams(g=0.1, tau=0.03, beta=2.0)
    two = simulate._samples(*_stepped(graph), 3.0, noise,
                            SimConfig(trials=2, **kw))
    three = simulate._samples(*_stepped(graph), 3.0, noise,
                              SimConfig(trials=3, **kw))
    assert np.array_equal(two, three[:, :2, :])


def test_run_mean_matches_target(reference_run):
    emp, _ = reference_run
    z = np.abs(emp.mean - 3.0) / emp.mean_standard_errors
    assert z.max() <= 3.0


def test_run_covariance_matches_analytic(reference_run):
    emp, _ = reference_run
    analytic = steady_state_covariance(
        spectrum(laplacian(build_path(5))), PATH5_NOISE).values
    assert np.all(emp.standard_errors > 0.0)
    z = np.abs(emp.cov - analytic) / emp.standard_errors
    assert z.max() <= 3.0
    assert emp.sample_count == 2400


def test_run_marginal_is_normal(reference_run):
    _, samples = reference_run
    d1 = samples[:, :, 0].ravel()
    centered = (d1 - d1.mean()) / d1.std(ddof=0)
    n = d1.size
    skew = float(np.mean(centered ** 3))
    excess_kurtosis = float(np.mean(centered ** 4) - 3.0)
    assert abs(skew) <= 5.0 * math.sqrt(6.0 / n)
    assert abs(excess_kurtosis) <= 5.0 * math.sqrt(24.0 / n)


def test_dt_halving_within_monte_carlo_noise():
    # same Brownian path at dt and dt/2: coarse increments are scaled
    # sums of fine pairs, so the difference isolates discretization bias
    n, trials, samples = 5, 12, 60
    L = laplacian(build_path(n))
    dt = 1e-3
    burn_steps, int_steps = 4000, 600
    total = burn_steps + (samples - 1) * int_steps
    rng = np.random.default_rng(1)
    fine = rng.standard_normal((2 * total, trials, n))
    coarse = (fine[0::2] + fine[1::2]) / math.sqrt(2.0)
    sc = em_distance_samples(L, targets(n), 0.1, 0.03, 2.0, dt, coarse,
                             burn_steps, int_steps, samples)
    sf = em_distance_samples(L, targets(n), 0.1, 0.03, 2.0, dt / 2, fine,
                             2 * burn_steps, 2 * int_steps, samples)
    c1, se1 = pooled_cov_and_se(sc)
    c2, se2 = pooled_cov_and_se(sf)
    diff = np.abs(np.diag(c1) - np.diag(c2))
    combined = np.sqrt(np.diag(se1) ** 2 + np.diag(se2) ** 2)
    assert np.all(diff < combined)


def test_samples_decorrelate_at_widened_interval():
    # 20 tau = 0.6 s is still inside the slowest mode's relaxation time
    # here (1/(beta lambda_2) = 1.3 s), so the spacing that actually
    # meets the 0.2 target is 1.5 s; 0.6 s measures ~0.7.
    sim = SimConfig(dt=1e-3, sample_interval=1.5,
                    samples_per_trial=120, trials=8, seed=4)
    samples = simulate._samples(*_stepped(build_path(5)), 3.0, PATH5_NOISE,
                                sim)
    acs = []
    for b in range(samples.shape[1]):
        s = samples[:, b, 0]
        s = s - s.mean()
        acs.append(float((s[:-1] @ s[1:]) / (s @ s)))
    assert np.mean(acs) <= 0.2


def test_run_refuses_finite_samples_too_large_to_pool(monkeypatch):
    # one finite noise value of 1e200 keeps every sample finite, but
    # their squares overflow: a divergence of the simulation, not an
    # invalid parameter
    _recording_rngs(monkeypatch, spike=(0, 7, 1e200))
    sim = SimConfig(dt=1e-3, sample_interval=0.1, samples_per_trial=3,
                    trials=2)
    with pytest.raises(DivergenceError, match="pooled estimate is not "
                                              "finite"):
        run(build_path(5), 3.0, PATH5_NOISE, sim)


@pytest.mark.parametrize("graph, noise, dt", [
    # dt equal to the delay: stable platoons whose explicit chains grow
    (build_path(2), NoiseParams(g=0.1, tau=0.775, beta=0.02), 0.775),
    (build_complete(10), NoiseParams(g=0.1, tau=0.1, beta=5.0), 0.1),
])
def test_run_refuses_chain_without_stationary_law(monkeypatch, graph, noise,
                                                  dt):
    assert check_platoon(spectrum(laplacian(graph)), noise.tau,
                         noise.beta).stable
    made = _recording_rngs(monkeypatch)
    sim = SimConfig(dt=dt, sample_interval=dt, samples_per_trial=2,
                    trials=2)
    with pytest.raises(DivergenceError, match=rf"eigenvalue .* has no "
                                              rf"stationary law at dt={dt}"):
        run(graph, 3.0, noise, sim)
    assert made == []               # refused before any stream is spawned


def test_run_rejections():
    ok = SimConfig(dt=1e-3, sample_interval=0.1,
                   samples_per_trial=4, trials=2)
    with pytest.raises(UnstablePlatoonError):
        run(build_path(2), 3.0,
            NoiseParams(g=0.1, tau=0.8, beta=2.0), ok)
    # 10^7 steps a sample, each count in range, but 10^19 steps in all
    # are more than range can count: refused before any array is made
    huge = SimConfig(sample_interval=1e4, samples_per_trial=10 ** 12)
    with pytest.raises(InvalidSizeError, match="step count"):
        run(build_path(2), 3.0, PATH5_NOISE, huge)


def test_run_refuses_bad_gap():
    # the gap check of the risk routines, with their message
    sim = SimConfig(dt=1e-3, sample_interval=0.1,
                    samples_per_trial=4, trials=2)
    for d in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError,
                           match=r"target gap d=.* must be positive"):
            run(build_path(3), d, PATH5_NOISE, sim)


def test_run_refuses_sample_interval_of_zero_steps():
    graph = build_path(3)
    noise = NoiseParams(g=0.1, tau=0.03, beta=2.0)

    def sim(interval):
        return SimConfig(dt=0.01, sample_interval=interval,
                         samples_per_trial=2, trials=2)

    for interval in (1e-4, 0.005):  # 0.01 and 0.5 steps round to 0
        with pytest.raises(InvalidParameterError, match="0 steps"):
            run(graph, 3.0, noise, sim(interval))
    assert run(graph, 3.0, noise, sim(0.006)).sample_count == 4
