"""Monte Carlo integration of the delayed platoon dynamics.

Euler-Maruyama: positions advance with the current velocity, velocities
with the graph-coupled drift evaluated one delay (k = tau/dt steps) in
the past plus white acceleration noise. Every trial starts in the
chain's exact stationary law, so no step is spent on burn-in. The delay
lets the stepper advance in blocks of k + 1 steps: their drifts read
only the previous block's states, so each block is one batched drift
evaluation and two running sums that add in the order single steps
would. While the blocks of one noise chunk are stepped, the one worker
of a thread pool draws the next chunk into a second buffer; the
streams, the chunks and the arithmetic are those of drawing in line, so
results are identical to the bit. Used to estimate the steady-state
distance covariance independently of the analytic route.
"""
from __future__ import annotations

import math
import sys
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .covariance import NoiseParams
from .errors import DivergenceError, InvalidParameterError, InvalidSizeError
from .graph import (LaplacianSpectrum, WeightedGraph, _count, _real, _seed,
                    _spectrum, _zeros, laplacian)
from .stability import check_platoon

# noise values drawn per chunk, ~1 MB; two chunk buffers are in use
_NOISE_VALUES = 2 ** 17


# SimConfig field -> the check of its value, which returns it as a float
# or an int; sample_interval may also be None, and the counts are at
# least 2, which the standard errors need
_SIM_RULES = {
    "dt": lambda dt: _real(dt, "dt", positive=True),
    "sample_interval": lambda t: None if t is None else _real(
        t, "sample_interval", positive=True),
    "samples_per_trial": lambda n: _count(n, "samples_per_trial", 2),
    "trials": lambda n: _count(n, "trials", 2),
    "seed": _seed,
}


@dataclass(frozen=True)
class SimConfig:
    """Integration controls, the times as floats and the counts as ints.
    run takes sample_interval None as 20 tau, and spends no burn-in."""

    dt: float = 1e-3
    sample_interval: float | None = None
    samples_per_trial: int = 200
    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, rule in _SIM_RULES.items():
            object.__setattr__(self, name, rule(getattr(self, name)))


def _steps(n: int, steps: float, what: str) -> int:
    """steps rounded to an int, the one rule for every step count: one not
    below sys.maxsize (numpy's shapes, range) is an InvalidSizeError."""
    if not steps < sys.maxsize:     # nan too
        raise InvalidSizeError(
            f"n={n:.6g} vehicles: {what} does not fit in memory")
    return round(steps)


def _delay_steps(n: int, tau: float, dt: float) -> int:
    """The delay in steps, a positive multiple of dt to 1e-9 relative."""
    k = _steps(n, tau / dt, "the simulator's state history")
    if k < 1 or abs(k * dt - tau) > 1e-9 * tau:
        raise InvalidParameterError(
            f"tau={tau!r} is not a positive integer multiple of dt={dt!r}")
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


def _stationary_cov(lam, beta: float, dt: float, k: int) -> np.ndarray:
    """Stationary covariance P, per unit velocity noise variance, of each
    mode's Euler-Maruyama chain: y_{t+1} = y_t + dt u_t and u_{t+1} = u_t
    - dt lambda (u_{t-k} + beta y_{t-k}) + noise, with y_{t-k} = y_t - dt
    (u_{t-1} + ... + u_{t-k}), so s_t = (y_t, u_t, ..., u_{t-k}) steps as
    A s_t + noise. Smith's doubling, P <- P + A P A^T and A <- A^2 (SIAM
    J. Appl. Math. 16(1), 1968), sums P = A P A^T + e_1 e_1^T; a sum that
    is not finite or settled after 2**64 steps is a DivergenceError."""
    A = _zeros(lam.size + 1, (lam.size, k + 2, k + 2),
               "the simulator's stationary covariance")
    A[:, 0, :2] = 1.0, dt
    A[:, 1, :2] = np.stack([-dt * beta * lam, np.ones_like(lam)], axis=1)
    A[:, 1, 2:] = (dt * dt * beta * lam)[:, None]
    A[:, 1, -1] -= dt * lam
    A[:, 2:, 1:-1] = np.eye(k)
    P = np.zeros_like(A)
    P[:, 1, 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            term = A @ P @ A.transpose(0, 2, 1)     # positive semidefinite
            P += term
            # nan, and inf in P, never settle
            settled = term.max((1, 2)) < np.finfo(float).eps * P.max((1, 2))
            if settled.all():
                break
            A = A @ A
    if not settled.all():
        raise DivergenceError(
            f"the chain of the mode with eigenvalue "
            f"{lam[settled.argmin()]:.6g} has no stationary law at dt={dt!r}")
    return P


def _initial_history(P, g: float, dt: float, Q, r, rngs):
    """States -k .. 0 of each trial, drawn from its own stream in the law
    g^2 dt P of each oscillatory mode (mode 1 rests), as positions
    r + y Q^T and velocities u Q^T shaped (k + 1, trials, n)."""
    w, V = np.linalg.eigh(P)
    factor = V * (g * np.sqrt(dt * np.maximum(w, 0.0)))[:, None, :]
    z = np.stack([rg.standard_normal(P.shape[:2]) for rg in rngs])
    s = (factor @ z[..., None])[..., 0]         # (trials, modes, k + 2)
    # y_{-i} = y_0 - dt (u_{-1} + ... + u_{-i}) for i = 0 .. k
    y = s[..., :1] - dt * np.cumsum(np.insert(s[..., 2:], 0, 0.0, -1), -1)
    y, u = (a.transpose(2, 0, 1)[::-1] for a in (y, s[..., 1:]))
    return r + y @ Q[:, 1:].T, u @ Q[:, 1:].T


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

    # imported where the pool starts: concurrent.futures loads logging
    # and queue, which no other subcommand needs
    from concurrent.futures import ThreadPoolExecutor
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


def run(graph: WeightedGraph, d: float, noise: NoiseParams,
        sim: SimConfig) -> EmpiricalCovariance:
    """Simulate `trials` independent trajectories about the targets
    d, 2d, ..., nd from the Euler-Maruyama chain's stationary law, for
    (samples_per_trial - 1) sample_interval / dt steps each, thin each
    and pool the inter-vehicle distances.

    Per-trial noise streams are spawned from (seed, trial index), so a
    given trial's trajectory does not depend on how many trials run.
    The noise is drawn one chunk ahead on a one-worker thread pool, which
    is shut down, its worker joined, before run returns or raises. The
    Laplacian, its spectrum and the stability gate are built once, here,
    and the stepper reads them as they are.
    """
    d = _real(d, "target gap d", positive=True)
    L = laplacian(graph)
    spec = _spectrum(L)
    check_platoon(spec, noise.tau, noise.beta).require_stable()
    return _pool(_samples(L, spec, d, noise, sim))


def _samples(L: np.ndarray, spec: LaplacianSpectrum, d: float,
             noise: NoiseParams, sim: SimConfig) -> np.ndarray:
    """The distances run pools, shaped (samples_per_trial, trials, n-1),
    from the Laplacian L, its spectrum spec, which the caller has gated
    stable for noise, and the checked target gap d."""
    n = L.shape[0]
    dt = sim.dt
    k = _delay_steps(n, noise.tau, dt)
    interval = sim.sample_interval or 20.0 * noise.tau
    int_steps = _steps(n, interval / dt, "the simulator's step count")
    if int_steps < 1:
        raise InvalidParameterError(
            f"sample_interval={interval!r} rounds to 0 steps of dt={dt!r}")

    trials = sim.trials
    n_samples = sim.samples_per_trial
    total_steps = _steps(n, (n_samples - 1) * int_steps,
                         "the simulator's step count")

    # Step t reads state t - k, so the kb = k + 1 steps after state t0
    # read only states t0 - k .. t0: the previous block. Rows 1..kb of a
    # block buffer hold a block's states and row 0 the state before it;
    # the history before the first block is drawn below.
    kb = k + 1
    r = d * np.arange(1, n + 1, dtype=float)
    hx, hv, xs, vs = (_zeros(n, (kb + 1, trials, n),
                             "the simulator's state history")
                      for _ in range(4))
    samples = _zeros(n, (n_samples, trials, n - 1),
                     "the simulator's sample array")
    P = _stationary_cov(spec.eigenvalues[1:], noise.beta, dt, k)
    chunk = kb * max(1, _NOISE_VALUES // (kb * trials * n))
    # spawned only once the arrays are allocated and the chain has a law:
    # a refusal never costs one stream per trial
    rngs = [np.random.default_rng(np.random.SeedSequence(
        entropy=sim.seed, spawn_key=(t,))) for t in range(trials)]

    beta = noise.beta
    s_idx = 0
    chunks = _noise_chunks(rngs, n, total_steps, chunk,
                           noise.g * math.sqrt(dt))
    with closing(chunks), np.errstate(over="ignore", invalid="ignore"):
        hx[1:], hv[1:] = _initial_history(P, noise.g, dt, spec.eigenvectors,
                                          r, rngs)
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
            # sample s is the state at step s int_steps
            if s_idx * int_steps <= t0 + m:
                s_end = min(n_samples, (t0 + m) // int_steps + 1)
                rows = int_steps * np.arange(s_idx, s_end) - t0
                samples[s_idx:s_end] = np.diff(xs[rows], axis=2)
                s_idx = s_end
            hx, xs = xs, hx
            hv, vs = vs, hv
    assert s_idx == n_samples
    return samples


def _pool(samples: np.ndarray) -> EmpiricalCovariance:
    """The pooled estimate of run from its (samples, trials, pairs) array."""
    n_samples, trials, pairs = samples.shape
    # A non-finite state (g beyond the float range) stays so to the last
    # sample, and huge samples overflow when squared: both refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        flat = samples.reshape(n_samples * trials, pairs)
        mean = flat.mean(axis=0)
        dev = flat - mean
        cov = dev.T @ dev / (flat.shape[0] - 1)
        cov = 0.5 * (cov + cov.T)

        trial_means = np.empty((trials, pairs))
        trial_covs = np.empty((trials, pairs, pairs))
        for b in range(trials):
            xb = samples[:, b, :]
            mb = xb.mean(axis=0)
            db = xb - mb
            trial_means[b] = mb
            trial_covs[b] = db.T @ db / (n_samples - 1)
        se_cov = trial_covs.std(axis=0, ddof=1) / math.sqrt(trials)
        se_cov = 0.5 * (se_cov + se_cov.transpose())
        se_mean = trial_means.std(axis=0, ddof=1) / math.sqrt(trials)

    if not all(np.isfinite(a).all() for a in (mean, cov, se_cov, se_mean)):
        raise DivergenceError("pooled estimate is not finite: samples too "
                              "large to pool; reduce the noise intensity g")
    return EmpiricalCovariance(mean, cov, se_cov, n_samples * trials,
                               se_mean)
