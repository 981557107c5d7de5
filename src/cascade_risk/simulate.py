"""Monte Carlo integration of the delayed platoon dynamics.

Euler-Maruyama: positions advance with the current velocity, velocities
with the graph-coupled drift evaluated one delay (k = tau/dt steps) in
the past plus white acceleration noise. The delay lets the stepper
advance in blocks of k + 1 steps: their drifts read only the previous
block's states, so each block is one batched drift evaluation and two
running sums that add in the order single steps would. While the
blocks of one noise chunk are stepped, the one worker of a thread pool
draws the next chunk into a second buffer; the streams, the chunks and
the arithmetic are those of drawing in line, so results are identical
to the bit. Used to estimate the steady-state distance covariance
independently of the analytic route.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .covariance import NoiseParams, PlatoonParams
from .errors import DivergenceError, InvalidParameterError
from .graph import WeightedGraph, _integer, laplacian, spectrum
from .stability import check_platoon

# noise values drawn per chunk, ~1 MB; two chunk buffers are in use
_NOISE_VALUES = 2 ** 17


@dataclass(frozen=True)
class SimConfig:
    """Integration controls. When left None, run derives burn_in and
    sample_interval from the dynamics: burn_in max(10 tau,
    20/(beta lambda_2)), sample_interval 20 tau."""

    dt: float = 1e-3
    burn_in: float | None = None
    sample_interval: float | None = None
    samples_per_trial: int = 200
    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidParameterError(f"dt={self.dt!r} must be positive")
        if self.burn_in is not None and not (
                math.isfinite(self.burn_in) and self.burn_in > 0.0):
            raise InvalidParameterError(
                f"burn_in={self.burn_in!r} must be positive")
        if self.sample_interval is not None and not (
                math.isfinite(self.sample_interval) and self.sample_interval > 0.0):
            raise InvalidParameterError(
                f"sample_interval={self.sample_interval!r} must be positive")
        for name in ("samples_per_trial", "trials", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        # The standard errors need at least 2 trials and 2 samples each.
        if self.samples_per_trial < 2:
            raise InvalidParameterError(
                f"samples_per_trial={self.samples_per_trial} must be >= 2")
        if self.trials < 2:
            raise InvalidParameterError(f"trials={self.trials} must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidParameterError(
                f"seed={self.seed!r} must be a 64-bit unsigned integer")


def _count(name, value) -> int:
    """value as an int: an integer or an integral float, not a bool."""
    count = _integer(value)
    if count is None:
        raise InvalidParameterError(f"{name}={value!r} is not an integer")
    return count


def _delay_steps(tau: float, dt: float) -> int:
    """Delay expressed in steps; the delay must be an integer multiple
    of dt to within 1e-9 relative."""
    k = int(round(tau / dt))
    if k < 1:
        raise InvalidParameterError(
            f"dt={dt!r} exceeds the delay tau={tau!r}")
    if abs(k * dt - tau) > 1e-9 * tau:
        raise InvalidParameterError(
            f"tau={tau!r} is not an integer multiple of dt={dt!r}")
    return k


def _drift(x_delayed, v_delayed, targets, L, beta, out=None):
    """-(v L) - beta (x - targets) L for one state or a stack of states
    (L is symmetric, so right-multiplication serves both), into out if
    given. The stepper passes out and the result uses one temporary:
    several fresh temporaries of a block's size cost more in page faults
    than the arithmetic."""
    work = x_delayed - targets
    out = np.matmul(work, L, out=out)
    out *= beta
    work = np.matmul(v_delayed, L, out=work)
    np.negative(work, out=work)
    return np.subtract(work, out, out=out)


def _noise_chunks(rngs, n, total_steps, chunk, scale):
    """Scaled noise g sqrt(dt) xi as (trials, chunk, n) arrays, chunk
    after chunk, in two alternating buffers: chunk i lives in buffer
    i % 2. Before chunk i is yielded, the draw of chunk i + 1 goes to a
    one-worker pool, where standard_normal(out=...) runs without the GIL
    and so overlaps the caller's stepping; chunk i stays valid until the
    next one is taken. A failed draw is raised where its chunk is taken;
    closing the generator shuts the pool down and joins its worker."""
    bufs = (np.empty((len(rngs), chunk, n)), np.empty((len(rngs), chunk, n)))
    starts = range(0, total_steps, chunk)

    def draw(i):
        xi = bufs[i % 2]
        csz = min(chunk, total_steps - starts[i])
        for rg, out in zip(rngs, xi):
            rg.standard_normal(out=out[:csz])
        xi[:, :csz] *= scale
        return xi

    with ThreadPoolExecutor(1, thread_name_prefix="cascade-risk-noise") as pool:
        ahead = pool.submit(draw, 0)
        for i in range(1, len(starts) + 1):
            xi = ahead.result()
            if i < len(starts):
                ahead = pool.submit(draw, i)
            yield xi


@dataclass(frozen=True)
class EmpiricalCovariance:
    """Pooled distance mean/covariance across all retained samples, with
    per-entry standard errors from the between-trial spread."""

    mean: np.ndarray
    cov: np.ndarray
    standard_errors: np.ndarray
    sample_count: int
    mean_standard_errors: np.ndarray

    def __post_init__(self):
        m = self.mean.shape[0]
        if self.cov.shape != (m, m) or self.standard_errors.shape != (m, m):
            raise InvalidParameterError("covariance shapes disagree")
        if self.mean_standard_errors.shape != (m,):
            raise InvalidParameterError("mean SE shape disagrees")
        for name in ("mean", "cov", "standard_errors", "mean_standard_errors"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidParameterError(f"{name} contains non-finite values")
        if np.abs(self.cov - self.cov.T).max() > 1e-12 * np.abs(self.cov).max():
            raise InvalidParameterError("empirical covariance must be symmetric")
        if self.sample_count < 2:
            raise InvalidParameterError("need at least 2 samples")
        for name in ("mean", "cov", "standard_errors", "mean_standard_errors"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def run(graph: WeightedGraph, params: PlatoonParams, noise: NoiseParams,
        sim: SimConfig, return_samples: bool = False):
    """Simulate `trials` independent trajectories, thin each after
    burn-in, and pool the inter-vehicle distances.

    Per-trial noise streams are spawned from (seed, trial index), so a
    given trial's trajectory does not depend on how many trials run.
    The noise is drawn one chunk ahead on a one-worker thread pool, which
    is shut down, its worker joined, before run returns or raises.
    Returns EmpiricalCovariance, or (EmpiricalCovariance, samples) with
    samples shaped (samples_per_trial, trials, n-1) when requested.
    """
    if params.n != graph.n:
        raise InvalidParameterError(
            f"platoon n={params.n} does not match graph n={graph.n}")
    L = laplacian(graph)
    spec = spectrum(L)
    check_platoon(spec, noise.tau, noise.beta).require_stable()

    n = graph.n
    dt = sim.dt
    k = _delay_steps(noise.tau, dt)
    burn_in = sim.burn_in
    if burn_in is None:
        burn_in = max(10.0 * noise.tau,
                      20.0 / (noise.beta * spec.eigenvalues[1]))
    if burn_in < 10.0 * noise.tau * (1.0 - 1e-12):
        raise InvalidParameterError(
            f"burn_in={burn_in!r} shorter than 10 tau = {10 * noise.tau!r}")
    interval = sim.sample_interval
    if interval is None:
        interval = 20.0 * noise.tau
    int_steps = int(round(interval / dt))
    if int_steps < 1:
        raise InvalidParameterError(
            f"sample_interval={interval!r} rounds to 0 steps of dt={dt!r}")
    burn_steps = int(math.ceil(burn_in / dt - 1e-9))

    trials = sim.trials
    n_samples = sim.samples_per_trial
    total_steps = burn_steps + (n_samples - 1) * int_steps
    rngs = [np.random.default_rng(np.random.SeedSequence(
        entropy=sim.seed, spawn_key=(t,))) for t in range(trials)]

    # Step t reads state t - k, so the kb = k + 1 steps after state t0
    # read only states t0 - k .. t0: the previous block. Rows 1..kb of a
    # block buffer hold a block's states and row 0 the state before it;
    # the history before the first block is the targets at rest.
    kb = k + 1
    r = params.targets
    hx = np.empty((kb + 1, trials, n))
    hx[:] = r
    hv = np.zeros((kb + 1, trials, n))
    xs = np.empty_like(hx)
    vs = np.empty_like(hv)
    chunk = kb * max(1, _NOISE_VALUES // (kb * trials * n))
    samples = np.empty((n_samples, trials, n - 1))

    beta = noise.beta
    s_idx = 0
    chunks = _noise_chunks(rngs, n, total_steps, chunk,
                           noise.g * math.sqrt(dt))
    with closing(chunks), np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, total_steps, kb):
            c = t0 % chunk
            if c == 0:
                xi = next(chunks)
            m = min(kb, total_steps - t0)
            # v_{t+1} = v_t + dt drift + g sqrt(dt) xi_t and
            # x_{t+1} = x_t + dt v_t as running sums seeded with state t0,
            # which add in the order single steps would
            d = _drift(hx[1:m + 1], hv[1:m + 1], r, L, beta, vs[1:m + 1])
            np.multiply(d, dt, out=vs[1:m + 1])
            vs[1:m + 1] += xi[:, c:c + m].transpose(1, 0, 2)
            vs[0] = hv[kb]
            np.cumsum(vs[:m + 1], axis=0, out=vs[:m + 1])
            np.multiply(vs[:m], dt, out=xs[1:m + 1])
            xs[0] = hx[kb]
            np.cumsum(xs[:m + 1], axis=0, out=xs[:m + 1])
            # a non-finite entry stays non-finite in every later step, so
            # the block's last state shows whether any step diverged
            if not (np.isfinite(xs[m]).all() and np.isfinite(vs[m]).all()):
                bad = ~(np.isfinite(xs[1:m + 1]).all(axis=2)
                        & np.isfinite(vs[1:m + 1]).all(axis=2))
                j = int(np.argmax(bad.any(axis=1)))
                tn = t0 + j + 1
                raise DivergenceError(
                    f"trial {int(np.argmax(bad[j]))} diverged at step {tn} "
                    f"(t = {tn * dt:.6g} s); reduce dt or check stability "
                    f"margins", step=tn)
            # sample s is the state at step burn_steps + s int_steps
            if burn_steps + s_idx * int_steps <= t0 + m:
                s_end = min(n_samples, (t0 + m - burn_steps) // int_steps + 1)
                rows = burn_steps - t0 + int_steps * np.arange(s_idx, s_end)
                samples[s_idx:s_end] = np.diff(xs[rows], axis=2)
                s_idx = s_end
            hx, xs = xs, hx
            hv, vs = vs, hv
    assert s_idx == n_samples

    # On marginal EM instability the samples can be finite yet huge;
    # squaring then overflows and the finiteness check in
    # EmpiricalCovariance rejects the estimate without warning spam.
    with np.errstate(over="ignore", invalid="ignore"):
        flat = samples.reshape(n_samples * trials, n - 1)
        mean = flat.mean(axis=0)
        dev = flat - mean
        cov = dev.T @ dev / (flat.shape[0] - 1)
        cov = 0.5 * (cov + cov.T)

        trial_means = np.empty((trials, n - 1))
        trial_covs = np.empty((trials, n - 1, n - 1))
        for b in range(trials):
            xb = samples[:, b, :]
            mb = xb.mean(axis=0)
            db = xb - mb
            trial_means[b] = mb
            trial_covs[b] = db.T @ db / (n_samples - 1)
        se_cov = trial_covs.std(axis=0, ddof=1) / math.sqrt(trials)
        se_cov = 0.5 * (se_cov + se_cov.transpose())
        se_mean = trial_means.std(axis=0, ddof=1) / math.sqrt(trials)

    result = EmpiricalCovariance(mean, cov, se_cov,
                                 n_samples * trials, se_mean)
    if return_samples:
        return result, samples
    return result
