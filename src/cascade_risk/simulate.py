"""Monte Carlo integration of the delayed platoon dynamics.

Euler-Maruyama: positions advance with the current velocity, velocities
with the graph-coupled drift evaluated one delay (k = tau/dt steps) in
the past plus white acceleration noise. Every trial starts in the
chain's exact stationary law, so no step is spent on burn-in. The delay
lets the stepper advance in blocks of k + 1 steps: their drifts read
only the previous block's states, so each block is one batched drift
evaluation and two running sums that add row by row, in the order single
steps would. One helper thread per run draws the noise: while the
blocks of one chunk are stepped, it draws the next chunk into a second
buffer. When the caller takes that chunk, it draws the trials the
helper has not taken, waits only for the helper's draw in flight on
that buffer, and scales the chunk by g sqrt(dt). Each trial is drawn
whole from its own stream, so who draws it changes no bit. Used to
estimate the steady-state distance covariance independently of the
analytic route.
"""
from __future__ import annotations

import math
import sys
import threading
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


def _drift(x_delayed, v_delayed, targets, L, beta, out=None, work=None):
    """-(v L) - beta (x - targets) L for one state or a stack of states
    (L is symmetric, so right-multiplication serves both), into out if
    given, using work, of out's shape, as the one workspace if given. The
    stepper passes both, so a block allocates nothing: fresh temporaries
    of a block's size cost more in page faults than the arithmetic."""
    work = np.subtract(x_delayed, targets, out=work)
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
    i % 2 until the next one is taken. One helper thread per run draws
    chunk i + 1 while the caller steps chunk i; standard_normal(out=...)
    runs without the GIL. Both threads take a chunk's trials from its
    buffer's iterator. Taking chunk i, the caller hands the other buffer
    to the helper, draws the trials the helper has not taken, waits on
    the buffer's lock for the helper's draw in flight only, and scales
    the chunk. A failed draw is raised where its chunk is taken; the
    helper is joined when the generator ends or is closed."""
    bufs = (np.empty((len(rngs), chunk, n)), np.empty((len(rngs), chunk, n)))
    starts = range(0, total_steps, chunk)
    # per buffer: (its chunk's view, the iterator over its trials), the
    # hand-backs the helper waits for, the lock it draws under, and the
    # helper's exception
    jobs = [None, None]
    handed = (threading.Semaphore(0), threading.Semaphore(0))
    drawing = (threading.Lock(), threading.Lock())
    failed = [None, None]
    stop = False

    def hand(i):
        jobs[i % 2] = (bufs[i % 2][:, :total_steps - starts[i]],
                       iter(range(len(rngs))))
        handed[i % 2].release()

    def draw(b):
        xi, order = jobs[b]
        for t in order:                 # next() is atomic under the GIL
            rngs[t].standard_normal(out=xi[t])

    def helper():
        # one pass per hand-back; a helper that fell behind finds a later
        # chunk in the buffer, or nothing left to draw
        for i in range(len(starts)):
            handed[i % 2].acquire()
            if stop:
                return
            with drawing[i % 2]:
                try:
                    draw(i % 2)
                except BaseException as exc:    # re-raised by the caller
                    failed[i % 2] = exc
                    return

    hand(0)
    thread = threading.Thread(target=helper, name="cascade-risk-noise")
    thread.start()
    try:
        for i in range(len(starts)):
            if i + 1 < len(starts):
                hand(i + 1)
            b = i % 2
            draw(b)
            with drawing[b]:            # the helper's draw in flight
                pass
            if failed[b] is not None:
                raise failed[b]
            np.multiply(jobs[b][0], scale, out=jobs[b][0])
            yield bufs[b]
    finally:
        stop = True
        for sem in handed:
            sem.release()
        thread.join()


def _running_sum(rows, m):
    """rows[0] .. rows[m] in place as their running sum: the adds of
    np.cumsum along axis 0, in its order, one row at a time, without
    its strided loop over the (trials, n) elements."""
    for prev, row in zip(rows[:m], rows[1:m + 1]):
        np.add(prev, row, out=row)


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
    The noise is drawn one chunk ahead by the run's one helper thread;
    the caller draws what the helper has not taken, waits only for a
    draw in flight and scales each chunk. The helper is joined before
    run returns or raises. The Laplacian, its spectrum and the stability
    gate are built once, here, and the stepper reads them as they are.
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
    # read only states t0 - k .. t0: the previous block. Block b writes
    # buffer b % 2 of x and v and reads the other; rows 1..kb of a buffer
    # hold a block's states and row 0 the state before it. The history
    # before the first block is drawn below, into buffer 1.
    kb = k + 1
    r = d * np.arange(1, n + 1, dtype=float)
    x, v = (_zeros(n, (2, kb + 1, trials, n), "the simulator's state history")
            for _ in range(2))
    # the row views the running sums add, made once per buffer
    x_rows, v_rows = ([list(a[0]), list(a[1])] for a in (x, v))
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
        x[1, 1:], v[1, 1:] = _initial_history(P, noise.g, dt,
                                              spec.eigenvectors, r, rngs)
        for b, t0 in enumerate(range(0, total_steps, kb)):
            new = b % 2
            hx, hv, xs, vs = x[1 - new], v[1 - new], x[new], v[new]
            c = t0 % chunk
            if c == 0:
                xi = next(chunks)
            m = min(kb, total_steps - t0)
            # v_{t+1} = v_t + dt drift + g sqrt(dt) xi_t and
            # x_{t+1} = x_t + dt v_t as running sums seeded with state t0,
            # which add in the order single steps would
            # xs[1:m + 1] is the drift's workspace until it is written
            d = _drift(hx[1:m + 1], hv[1:m + 1], r, L, beta, vs[1:m + 1],
                       xs[1:m + 1])
            np.multiply(d, dt, out=vs[1:m + 1])
            vs[1:m + 1] += xi[:, c:c + m].transpose(1, 0, 2)
            vs[0] = hv[kb]
            _running_sum(v_rows[new], m)
            np.multiply(vs[:m], dt, out=xs[1:m + 1])
            xs[0] = hx[kb]
            _running_sum(x_rows[new], m)
            # sample s is the state at step s int_steps
            if s_idx * int_steps <= t0 + m:
                s_end = min(n_samples, (t0 + m) // int_steps + 1)
                rows = int_steps * np.arange(s_idx, s_end) - t0
                samples[s_idx:s_end] = np.diff(xs[rows], axis=2)
                s_idx = s_end
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

        trial_means = np.array([samples[:, b, :].mean(axis=0)
                                for b in range(trials)])

        def trial_covs():
            for b in range(trials):
                db = samples[:, b, :] - trial_means[b]
                yield db.T @ db / (n_samples - 1)

        if pairs == 1:
            # numpy sums a (trials, 1, 1) stack pairwise, not in trial
            # order; that stack is only trials values
            spread = np.std(list(trial_covs()), axis=0, ddof=1)
        else:
            # the stacked covariances' std(axis=0, ddof=1) in two passes:
            # numpy adds a (trials, pairs, pairs) stack in trial order, so
            # the same adds give the same bits, with O(pairs^2) alive
            mean_cov = sum(trial_covs()) / trials
            spread = np.sqrt(sum((c - mean_cov) ** 2 for c in trial_covs())
                             / (trials - 1))
        se_cov = spread / math.sqrt(trials)
        se_cov = 0.5 * (se_cov + se_cov.transpose())
        se_mean = trial_means.std(axis=0, ddof=1) / math.sqrt(trials)

    if not all(np.isfinite(a).all() for a in (mean, cov, se_cov, se_mean)):
        raise DivergenceError("pooled estimate is not finite: samples too "
                              "large to pool; reduce the noise intensity g")
    return EmpiricalCovariance(mean, cov, se_cov, n_samples * trials,
                               se_mean)
