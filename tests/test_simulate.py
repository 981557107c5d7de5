import math
import sys
import threading

import numpy as np
import pytest

from cascade_risk import (DivergenceError, EmpiricalCovariance,
                          InvalidParameterError, NoiseParams, PlatoonParams,
                          SimConfig, UnstablePlatoonError, build_path,
                          build_pcycle, laplacian, run, simulate, spectrum,
                          steady_state_covariance)
from cascade_risk.simulate import _delay_steps, _drift

from oracles import em_distance_samples, pooled_cov_and_se

PATH5_NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)
PATH5_PARAMS = PlatoonParams(n=5, d=3.0)


@pytest.fixture(scope="module")
def reference_run():
    sim = SimConfig(dt=1e-3, burn_in=6.0, sample_interval=0.6,
                    samples_per_trial=100, trials=24, seed=5)
    return run(build_path(5), PATH5_PARAMS, PATH5_NOISE, sim,
               return_samples=True)


def test_sim_config_validation():
    SimConfig()
    with pytest.raises(InvalidParameterError):
        SimConfig(dt=0.0)
    with pytest.raises(InvalidParameterError):
        SimConfig(dt=-1e-3)
    with pytest.raises(InvalidParameterError):
        SimConfig(burn_in=0.0)
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
    assert _delay_steps(0.03, 1e-3) == 30
    assert _delay_steps(0.03, 0.03) == 1
    with pytest.raises(InvalidParameterError):
        _delay_steps(0.0301, 1e-3)      # not a multiple
    with pytest.raises(InvalidParameterError):
        _delay_steps(0.03, 0.08)        # dt longer than the delay


def test_initial_state_constant_history(monkeypatch):
    # run starts from a constant history: the first tau/dt + 1
    # steps, one block, read x on target and v = 0 one delay back, and
    # the next block's first step reads the state after the first step
    seen = []

    def recording(x_delayed, v_delayed, *args):
        seen.append((x_delayed.copy(), v_delayed.copy()))
        return _drift(x_delayed, v_delayed, *args)

    monkeypatch.setattr(simulate, "_drift", recording)
    sim = SimConfig(dt=1e-3, burn_in=0.3, sample_interval=0.1,
                    samples_per_trial=2, trials=2)
    run(build_path(5), PATH5_PARAMS, PATH5_NOISE, sim)
    k = _delay_steps(PATH5_NOISE.tau, 1e-3)
    assert k == 30
    x, v = seen[0]
    assert x.shape == v.shape == (k + 1, 2, 5)
    assert np.array_equal(x, np.tile(PATH5_PARAMS.targets, (k + 1, 2, 1)))
    assert np.all(v == 0.0)
    assert not np.all(seen[1][1][0] == 0.0)


def test_step_fixed_point_without_noise():
    # at the targets with zero velocities the delayed drift vanishes, so
    # a noiseless trajectory started there never moves
    noise = NoiseParams(g=0.1, tau=0.01, beta=2.0)
    params = PlatoonParams(n=7, d=3.0)
    L = laplacian(build_pcycle(7, 2))
    r = params.targets
    assert np.all(_drift(r, np.zeros(7), r, L, noise.beta) == 0.0)
    batch = np.tile(r, (3, 1))
    assert np.all(_drift(batch, np.zeros((3, 7)), r, L, noise.beta) == 0.0)


def test_step_translation_invariance():
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    params = PlatoonParams(n=4, d=3.0)
    L = laplacian(build_path(4))
    rng = np.random.default_rng(8)
    xd = params.targets + rng.normal(size=4)
    vd = rng.normal(size=4)
    a0 = _drift(xd, vd, params.targets, L, noise.beta)
    shift = 17.25
    a1 = _drift(xd + shift, vd, params.targets, L, noise.beta)
    assert np.abs(a1 - a0).max() < 1e-12


def test_drift_matches_per_vehicle_sums():
    # matrix form versus the summed control law, vehicle by vehicle
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    params = PlatoonParams(n=3, d=3.0)
    g = build_path(3)
    L = laplacian(g)
    rng = np.random.default_rng(17)
    r = params.targets
    xd = r + rng.normal(size=3)
    vd = rng.normal(size=3)
    drift = _drift(xd, vd, r, L, noise.beta)
    for i in range(3):
        u = sum(g.weights[i, k] * ((vd[k] - vd[i])
                                   + noise.beta * ((xd[k] - xd[i]) - (r[k] - r[i])))
                for k in range(3))
        assert abs(drift[i] - u) < 1e-12


def _overflow_at(monkeypatch, call, row, bad_trials):
    # tau = 2 dt, so each _drift call covers a block of 3 steps; the
    # drift of step 3 (call - 1) + row + 1 overflows in bad_trials, and
    # in trial 0 one step later
    calls = []

    def overflowing(*args):
        calls.append(1)
        drift = _drift(*args)
        if len(calls) == call:
            drift[row, list(bad_trials)] = np.inf
            drift[row + 1, 0] = np.inf
        return drift

    monkeypatch.setattr(simulate, "_drift", overflowing)
    # 15-step noise chunks: the noise worker is one chunk ahead, possibly
    # mid-draw, when the run stops
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    sim = SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                    samples_per_trial=4, trials=2)
    threads = threading.active_count()
    with pytest.raises(DivergenceError) as exc:
        run(build_path(3), PlatoonParams(n=3, d=3.0),
            NoiseParams(g=0.1, tau=0.002, beta=2.0), sim)
    # the noise worker does not outlive the call
    assert threading.active_count() == threads
    return exc.value


def test_step_divergence_detected(monkeypatch):
    # an overflowing drift at step 5, inside the second block, is
    # reported at step 5
    err = _overflow_at(monkeypatch, call=2, row=1, bad_trials=(0, 1))
    assert err.step == 5
    assert "trial 0 " in str(err)


def test_step_divergence_in_later_block(monkeypatch):
    # only trial 1 overflows, at step 11 inside the fourth block; trial
    # 0 turning non-finite at step 12 of the same block does not win
    err = _overflow_at(monkeypatch, call=4, row=1, bad_trials=(1,))
    assert err.step == 11
    assert "trial 1 " in str(err)


class _NoiseFault(Exception):
    pass


def _recording_rngs(monkeypatch, fail_at=None):
    # default_rng stand-ins that delegate to the real generators and
    # record each chunk's length; call fail_at raises _NoiseFault
    real = np.random.default_rng
    made = []

    class Recording:
        def __init__(self, seed):
            self.rng, self.sizes = real(seed), []
            made.append(self)

        def standard_normal(self, out):
            self.sizes.append(out.shape[0])
            if len(self.sizes) == fail_at:
                raise _NoiseFault
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    return made


def test_noise_failure_reaches_caller(monkeypatch):
    # an exception raised on the noise worker while the third chunk is
    # drawn is re-raised by run, and no thread is left behind
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    made = _recording_rngs(monkeypatch, fail_at=3)
    sim = SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                    samples_per_trial=4, trials=2)
    threads = threading.active_count()
    with pytest.raises(_NoiseFault):
        run(build_path(3), PlatoonParams(n=3, d=3.0),
            NoiseParams(g=0.1, tau=0.002, beta=2.0), sim)
    assert threading.active_count() == threads
    assert made[0].sizes == [15, 15, 15]    # the third of 54 chunks


def test_concurrent_runs_match_oracle(monkeypatch):
    # four runs at once, each with its own noise worker handing over 54
    # small chunks, under a short switch interval: a buffer read before
    # it is filled, or refilled while read, breaks bitwise equality
    monkeypatch.setattr(simulate, "_NOISE_VALUES", 100)
    noise = NoiseParams(g=0.1, tau=0.002, beta=2.0)
    params = PlatoonParams(n=3, d=3.0)
    L = laplacian(build_path(3))
    results = {}

    def one(seed):
        sim = SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                        samples_per_trial=4, trials=2, seed=seed)
        results[seed] = run(build_path(3), params, noise, sim,
                            return_samples=True)[1]

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
        xi = np.stack([np.random.default_rng(np.random.SeedSequence(
            seed, spawn_key=(t,))).standard_normal((800, 3))
            for t in range(2)], axis=1)
        expected = em_distance_samples(L, params.targets, noise.g, noise.tau,
                                       noise.beta, 1e-3, xi, 500, 100, 4)
        assert np.array_equal(results[seed], expected)


def _run_against_oracle(monkeypatch, tau, dt, burn_in, interval,
                        noise_values):
    # block stepping reproduces per-step Euler-Maruyama to the bit when
    # the oracle reads the same per-trial (seed, trial) streams; returns
    # the chunk lengths trial 0 drew
    noise = NoiseParams(g=0.1, tau=tau, beta=2.0)
    trials, n_samples, seed = 3, 7, 11
    burn_steps, int_steps = round(burn_in / dt), round(interval / dt)
    k = _delay_steps(tau, dt)
    assert burn_steps % (k + 1) and int_steps % (k + 1)
    total = burn_steps + (n_samples - 1) * int_steps
    xi = np.stack([np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(t,))).standard_normal((total, 5))
        for t in range(trials)], axis=1)
    expected = em_distance_samples(
        laplacian(build_path(5)), PATH5_PARAMS.targets, noise.g, tau,
        noise.beta, dt, xi, burn_steps, int_steps, n_samples)

    if noise_values is not None:
        monkeypatch.setattr(simulate, "_NOISE_VALUES", noise_values)
    made = _recording_rngs(monkeypatch)
    sim = SimConfig(dt=dt, burn_in=burn_in, sample_interval=interval,
                    samples_per_trial=n_samples, trials=trials, seed=seed)
    threads = threading.active_count()
    _, samples = run(build_path(5), PATH5_PARAMS, noise, sim,
                     return_samples=True)
    # a run that ends normally leaves no noise worker behind either
    assert threading.active_count() == threads
    assert np.array_equal(samples, expected)
    assert all(sum(rng.sizes) == total for rng in made)
    return made[0].sizes


@pytest.mark.parametrize("tau, dt, burn_in, interval, noise_values", [
    (0.03, 1e-3, 0.517, 0.045, 2000),   # k = 30, chunks of 124 steps
    (0.005, 0.005, 0.505, 0.015, 100),  # k = 1, chunks of 6 steps
    (0.03, 1e-3, 17.5, 0.045, None),    # k = 30, default chunk exceeded
])
def test_run_matches_per_step_oracle(monkeypatch, tau, dt, burn_in,
                                     interval, noise_values):
    # burn-in and interval are not multiples of the k + 1 steps of a block
    _run_against_oracle(monkeypatch, tau, dt, burn_in, interval,
                        noise_values)


@pytest.mark.parametrize("burn_in, noise_values, chunks", [
    (0.517, None, [787]),         # one chunk: nothing is drawn ahead
    (0.598, 2000, [124] * 7),     # the last step ends a full chunk
])
def test_run_matches_per_step_oracle_at_chunk_edges(monkeypatch, burn_in,
                                                    noise_values, chunks):
    assert _run_against_oracle(monkeypatch, 0.03, 1e-3, burn_in, 0.045,
                               noise_values) == chunks


def test_run_seed_determinism():
    sim = SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                    samples_per_trial=8, trials=3, seed=42)
    a = run(build_path(3), PlatoonParams(n=3, d=3.0),
            NoiseParams(g=0.1, tau=0.03, beta=2.0), sim)
    b = run(build_path(3), PlatoonParams(n=3, d=3.0),
            NoiseParams(g=0.1, tau=0.03, beta=2.0), sim)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.standard_errors, b.standard_errors)
    other = run(build_path(3), PlatoonParams(n=3, d=3.0),
                NoiseParams(g=0.1, tau=0.03, beta=2.0),
                SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                          samples_per_trial=8, trials=3, seed=43))
    assert not np.array_equal(a.cov, other.cov)


def test_run_per_trial_streams_stable():
    # adding a trial must not perturb the existing trials' trajectories
    kw = dict(dt=1e-3, burn_in=0.5, sample_interval=0.1,
              samples_per_trial=5, seed=9)
    graph = build_path(3)
    params = PlatoonParams(n=3, d=3.0)
    noise = NoiseParams(g=0.1, tau=0.03, beta=2.0)
    _, two = run(graph, params, noise, SimConfig(trials=2, **kw),
                 return_samples=True)
    _, three = run(graph, params, noise, SimConfig(trials=3, **kw),
                   return_samples=True)
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
    targets = PATH5_PARAMS.targets
    dt = 1e-3
    burn_steps, int_steps = 4000, 600
    total = burn_steps + (samples - 1) * int_steps
    rng = np.random.default_rng(1)
    fine = rng.standard_normal((2 * total, trials, n))
    coarse = (fine[0::2] + fine[1::2]) / math.sqrt(2.0)
    sc = em_distance_samples(L, targets, 0.1, 0.03, 2.0, dt, coarse,
                             burn_steps, int_steps, samples)
    sf = em_distance_samples(L, targets, 0.1, 0.03, 2.0, dt / 2, fine,
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
    sim = SimConfig(dt=1e-3, burn_in=6.0, sample_interval=1.5,
                    samples_per_trial=120, trials=8, seed=4)
    _, samples = run(build_path(5), PATH5_PARAMS, PATH5_NOISE, sim,
                     return_samples=True)
    acs = []
    for b in range(samples.shape[1]):
        s = samples[:, b, 0]
        s = s - s.mean()
        acs.append(float((s[:-1] @ s[1:]) / (s @ s)))
    assert np.mean(acs) <= 0.2


def test_run_divergence_reports_trial_and_step():
    # dt equal to the delay makes the explicit scheme blow up for a
    # mode sitting near the continuous stability boundary
    noise = NoiseParams(g=0.1, tau=0.775, beta=0.02)
    sim = SimConfig(dt=0.775, burn_in=4000 * 0.775, sample_interval=0.775,
                    samples_per_trial=2, trials=2, seed=0)
    with pytest.raises(DivergenceError) as exc:
        run(build_path(2), PlatoonParams(n=2, d=3.0), noise, sim)
    assert exc.value.step is not None and exc.value.step > 0
    assert "trial" in str(exc.value)


def test_empirical_covariance_validation():
    eye = np.eye(2)
    EmpiricalCovariance(np.zeros(2), eye, eye, 10, np.ones(2))
    with pytest.raises(InvalidParameterError):
        EmpiricalCovariance(np.zeros(3), eye, eye, 10, np.ones(2))
    with pytest.raises(InvalidParameterError):
        EmpiricalCovariance(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]),
                            eye, 10, np.ones(2))
    with pytest.raises(InvalidParameterError):
        EmpiricalCovariance(np.zeros(2), eye, eye, 1, np.ones(2))
    with pytest.raises(InvalidParameterError):
        EmpiricalCovariance(np.zeros(2), np.array([[np.nan, 0.0], [0.0, 1.0]]),
                            eye, 10, np.ones(2))


def test_run_rejections():
    graph = build_path(3)
    params = PlatoonParams(n=3, d=3.0)
    noise = NoiseParams(g=0.1, tau=0.03, beta=2.0)
    ok = SimConfig(dt=1e-3, burn_in=0.5, sample_interval=0.1,
                   samples_per_trial=4, trials=2)
    with pytest.raises(InvalidParameterError):
        run(graph, PlatoonParams(n=4, d=3.0), noise, ok)
    with pytest.raises(UnstablePlatoonError):
        run(build_path(2), PlatoonParams(n=2, d=3.0),
            NoiseParams(g=0.1, tau=0.8, beta=2.0), ok)
    with pytest.raises(InvalidParameterError):
        run(graph, params, noise,
            SimConfig(dt=1e-3, burn_in=0.2, sample_interval=0.1,
                      samples_per_trial=4, trials=2))   # burn_in < 10 tau


def test_run_refuses_sample_interval_of_zero_steps():
    graph, params = build_path(3), PlatoonParams(n=3, d=3.0)
    noise = NoiseParams(g=0.1, tau=0.03, beta=2.0)

    def sim(interval):
        return SimConfig(dt=0.01, burn_in=0.3, sample_interval=interval,
                         samples_per_trial=2, trials=2)

    for interval in (1e-4, 0.005):  # 0.01 and 0.5 steps round to 0
        with pytest.raises(InvalidParameterError, match="0 steps"):
            run(graph, params, noise, sim(interval))
    assert run(graph, params, noise, sim(0.006)).sample_count == 4
