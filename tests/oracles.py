"""Independent numerical oracles for the test suite.

Everything here is built from math/numpy primitives only, on purpose:
the package computes the covariance integral from a delay Lyapunov
solve, not from the integrand, so these deliberately slower routes
(adaptive Simpson panels over the integrand, plain bisection, explicit
matrix inverses) give genuinely independent reference values. Two
exceptions use the package: `add_pair_edges` returns a package graph,
so that the augmented graph passes the full `WeightedGraph`
validation, and `sweep_scale_rows_per_level` runs the package's
conditioning core once per level, the route the nested one replaced.
`f_modes_reference` is not independent either: it is the package's
route to f as it stood before its mode-free blocks were built once, the
reference that f has stayed the same bit for bit. `block_refused` is
the failed-block refusal rule as it stood before one eigvalsh decided
it: a Cholesky that raises, or an SVD condition number.
`forward_reference` is the LU solve the failed blocks went through
before forward substitution, `laplacian_reference` the Laplacian
as it was built before it took one array, and
`simulate_rows_reference` the `simulate` comparison as one loop per
entry, before it was one numpy expression. `same_profile` and
`branch_of` are not oracles: the one is bitwise equality of two risk
profiles, the other the branch tag a risk value names. Nor is
`chain_distance_covariance`: it maps the package's stationary law of
the Euler-Maruyama chain to distances, the covariance a simulation
estimates; `em_mode_matrix` is the independent check of that law.
"""
import math

import numpy as np

from cascade_risk import WeightedGraph, laplacian, spectrum
from cascade_risk.experiments import _check_sweep
from cascade_risk.graph import pair_difference_matrix
from cascade_risk.risk import RCOND_MIN, _condition_stack, _stack_risk
from cascade_risk.simulate import _stationary_cov


def add_pair_edges(g, j, target):
    """g with both vehicles of pair j (nodes j and j+1) linked to the
    target node at weight 1; an existing link is set to 1. The reference
    for the candidate graphs of add-edge. Indices are 1-based."""
    w = np.array(g.weights)
    for node in (j, j + 1):
        w[node - 1, target - 1] = 1.0
        w[target - 1, node - 1] = 1.0
    return WeightedGraph(g.n, w)


def laplacian_reference(w):
    """np.diag(w.sum(axis=1)) - w, the Laplacian as two n x n arrays:
    the form the package's one-array Laplacian must equal bit for bit.
    A degree that overflows is left as inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.diag(w.sum(axis=1)) - w


def integrand(r, s1, s2):
    return 1.0 / ((s1 * s2 - r * r * math.cos(r)) ** 2
                  + r * r * (s1 - r * math.sin(r)) ** 2)


def _asimp(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15 * tol:
        return left + right + (left + right - whole) / 15
    return (_asimp(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
            + _asimp(f, m, b, fm, frm, fb, right, tol / 2, depth - 1))


def simpson_panel(f, a, b, tol):
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _asimp(f, a, b, fa, fm, fb, whole, tol, 50)


def f_simpson(s1, s2, rtol=1e-11):
    """Two-pass adaptive Simpson evaluation of the covariance integral:
    crude pass fixes the scale, refined pass integrates the head split
    at the near-singular radii, then half-period tail panels run until
    the 4/r^4 envelope bound is negligible."""
    g = lambda r: integrand(r, s1, s2)
    pts = sorted({0.0, 0.5 * math.sqrt(s1 * s2), math.sqrt(s1 * s2),
                  2.0 * math.sqrt(s1 * s2), math.sqrt(s1),
                  2 * math.sqrt(s1), 0.5, 1.0, 2.0, 4.0, 8.0})
    scale = sum(simpson_panel(g, lo, hi,
                              abs(simpson_panel(g, lo, hi, 1e300)))
                for lo, hi in zip(pts[:-1], pts[1:]))
    scale = max(abs(scale), 1.0 / (s1 * s2) ** 2 * s2 * 1e-3)
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += simpson_panel(g, lo, hi, 1e-2 * rtol * scale)
    r = 8.0
    while 4.0 / (3.0 * r ** 3) > rtol * total:
        total += simpson_panel(g, r, r + math.pi, 1e-2 * rtol * total)
        r += math.pi
    return 2.0 * total


def f_modes_reference(s1, s2):
    """The covariance integral f for each mode s1 at the common s2, by
    the same delay Lyapunov route as covariance._f_modes, with every
    mode-free block built afresh by `kron` and `block` on each call: the
    route production had before it built those blocks once, at import.
    The reference for f bit for bit."""
    s1 = s1[:, None, None]
    a0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [-s2, -1.0]])
    zero = np.zeros((4, 4))
    a0_right, a0_left = np.kron(np.eye(2), a0.T), np.kron(a0.T, np.eye(2))
    b_right, b_left = np.kron(np.eye(2), b.T), np.kron(b.T, np.eye(2))
    h = (np.block([[a0_right, zero], [zero, -a0_left]])
         + s1 * np.block([[zero, b_right], [-b_left, zero]])) / 32.0
    e = np.eye(8) + h / 9.0
    for k in range(8, 0, -1):
        e = np.eye(8) + h @ e / k
    for _ in range(5):
        e = e @ e
    rows = np.empty_like(e)
    rows[:, :4] = e[:, 4:]
    rows[:, :4, :4] -= np.eye(4)[[0, 2, 1, 3]]
    jump = s1 * b_left @ e[:, :4]
    jump[:, :, :4] += a0_right + a0_left
    jump[:, :, 4:] += s1 * b_right
    rows[:, 4:7] = jump[:, [0, 1, 3]]
    rows[:, 7] = [0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    rhs = np.zeros(rows.shape[:2] + (1,))
    rhs[:, 4] = -1.0
    return 2.0 * math.pi * np.linalg.solve(rows, rhs)[:, 3, 0]


def solve_a_bisect(s1):
    """Root of a*sin(a) = s1 on (0, pi/2) by plain bisection."""
    lo, hi = 0.0, math.pi / 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.sin(mid) < s1:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


def region_bound_bisect(s1):
    a = solve_a_bisect(s1)
    return a / math.tan(a)


def erfinv_bisect(y):
    """Inverse of math.erf on (-1, 1) by bisection."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def var_bisect(mu, sigma, d, c, epsilon, hi=1e6):
    """Smallest delta with P{X < d/(delta+c)} <= epsilon for
    X ~ N(mu, sigma); assumes the root exists in [0, hi]."""
    def excess(delta):
        return normal_cdf((d / (delta + c) - mu) / sigma) - epsilon

    lo = 0.0
    assert excess(lo) > 0.0 and excess(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def var_risk_scalar(mu, sigma, d, c, it):
    """Three-branch value-at-risk of X ~ N(mu, sigma) with
    it = iota(epsilon), one branch test at a time: (value, branch). The
    bitwise reference for the package's array routine, which evaluates
    the same expressions in the same order under masks."""
    den = math.sqrt(2.0) * it * sigma + mu
    if den <= 0.0:
        return math.inf, "infinite"
    risk = d / den - c
    if risk <= 0.0:
        return 0.0, "zero"
    return risk, "finite"


def branch_of(value):
    """The branch tag a risk value names: nan (no conditional law) is
    "error", inf "infinite", a value above 0 "finite", and 0 "zero"."""
    if math.isnan(value):
        return "error"
    if value == math.inf:
        return "infinite"
    return "finite" if value > 0.0 else "zero"


def block_refused(block):
    """Whether conditioning refuses a failed block by the two tests of
    the rule's first form: its Cholesky factorization raises, or its
    SVD condition number exceeds 1/RCOND_MIN or is nan."""
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return True
    return not np.linalg.cond(block) <= 1.0 / RCOND_MIN


def path_eigenvalue(n, k):
    """k-th (1-based, ascending) Laplacian eigenvalue of the n-node
    unit-weight path."""
    return 2.0 * (1.0 - math.cos((k - 1) * math.pi / n))


def pcycle_eigenvalues(n, p):
    """All Laplacian eigenvalues of the circulant ring where every node
    links to its p nearest neighbours each side, sorted ascending."""
    vals = []
    for k in range(n):
        vals.append(sum(2.0 * (1.0 - math.cos(2.0 * math.pi * k * l / n))
                        for l in range(1, p + 1)))
    return np.sort(np.array(vals))


def tridiag_matrix(m, sigma_c):
    """The m x m covariance block: sigma_c diagonal, -sigma_c/2 off."""
    t = np.zeros((m, m))
    np.fill_diagonal(t, sigma_c)
    idx = np.arange(m - 1)
    t[idx, idx + 1] = -0.5 * sigma_c
    t[idx + 1, idx] = -0.5 * sigma_c
    return t


def same_profile(a, b):
    """Two risk profiles are equal bit for bit: the same fields, every
    numeric column the same bytes (nan and -0.0 included) and the same
    error column."""
    return a.dtype == b.dtype and all(
        a[name].tolist() == b[name].tolist() if a.dtype[name] == object
        else a[name].tobytes() == b[name].tobytes()
        for name in a.dtype.names)


def conditional_moments(sigma, d, j, indices, states):
    """Textbook Gaussian conditioning with an explicit matrix inverse;
    j and indices are 1-based."""
    idx = np.asarray(indices, dtype=int) - 1
    s11 = sigma[j - 1, j - 1]
    s12 = sigma[j - 1, idx]
    s22 = sigma[np.ix_(idx, idx)]
    inv = np.linalg.inv(s22)
    mu = d + s12 @ inv @ (np.asarray(states, dtype=float) - d)
    var = s11 - s12 @ inv @ s12
    return float(mu), math.sqrt(float(var))


def em_distance_samples(L, targets, g, tau, beta, dt, noise,
                        burn_steps, int_steps, n_samples, history=None):
    """Reference Euler-Maruyama integrator, batched over trials.

    noise has shape (steps, trials, n) of standard normals. The history,
    states -k .. 0, is the pair (positions, velocities) of arrays shaped
    (k + 1, trials, n) if given, else constant at the target
    configuration. Sample s is the state at step burn_steps + s
    int_steps. Returns inter-vehicle distance snapshots shaped
    (n_samples, trials, n-1). Feeding the same Brownian path at dt and
    dt/2 (coarse increments = scaled sums of fine pairs) isolates the
    discretization effect from the Monte Carlo noise.
    """
    k = round(tau / dt)
    assert abs(k * dt - tau) <= 1e-9 * tau
    trials, n = noise.shape[1], noise.shape[2]
    if history is None:
        history = (np.broadcast_to(np.asarray(targets, dtype=float),
                                   (k + 1, trials, n)),
                   np.zeros((k + 1, trials, n)))
    # state t lives in slot t % (k + 1), states -k .. 0 included
    hx, hv = (np.roll(h, 1, axis=0) for h in history)
    x, v = history[0][-1], history[1][-1]
    out = np.empty((n_samples, trials, n - 1))
    s = 0
    if burn_steps == 0:
        out[0] = np.diff(x, axis=1)
        s = 1
    g_sqdt = g * math.sqrt(dt)
    for t in range(noise.shape[0]):
        tn = t + 1
        dslot = tn % (k + 1)
        dv = (-(hv[dslot] @ L) - beta * ((hx[dslot] - targets) @ L)) * dt \
            + g_sqdt * noise[t]
        x = x + v * dt
        v = v + dv
        hx[dslot] = x
        hv[dslot] = v
        if tn >= burn_steps and (tn - burn_steps) % int_steps == 0 \
                and s < n_samples:
            out[s] = np.diff(x, axis=1)
            s += 1
    assert s == n_samples
    return out


def em_mode_matrix(lam, beta, dt, k):
    """The one-step map A of a Laplacian mode's Euler-Maruyama chain on
    the state (y_t, u_t, u_{t-1}, ..., u_{t-k}), built column by column
    by stepping each unit state once: the delayed position y_{t-k} is
    rebuilt from y_t by undoing k position steps."""
    size = k + 2
    A = np.empty((size, size))
    for j, state in enumerate(np.eye(size)):
        y, us = state[0], state[1:]         # us[i] = u_{t-i}
        y_delayed = y
        for i in range(1, k + 1):
            y_delayed -= dt * us[i]
        u_next = us[0] - dt * lam * (us[k] + beta * y_delayed)
        A[:, j] = np.concatenate(([y + dt * us[0], u_next], us[:k]))
    return A


def chain_distance_covariance(graph, noise, dt):
    """The distance covariance of the Euler-Maruyama chain in its
    stationary law: W diag(g^2 dt P_yy) W^T over the modes k >= 2."""
    spec = spectrum(laplacian(graph))
    k = round(noise.tau / dt)
    P = _stationary_cov(spec.eigenvalues[1:], noise.beta, dt, k)
    W = pair_difference_matrix(spec.eigenvectors)[:, 1:]
    return noise.g ** 2 * dt * (W * P[:, 0, 0]) @ W.T


def pooled_cov_and_se(samples):
    """Pooled covariance across (n_samples, trials, m) snapshots plus
    per-entry SEs from the between-trial spread, mirroring the
    estimator contract."""
    n_samples, trials, m = samples.shape
    flat = samples.reshape(n_samples * trials, m)
    dev = flat - flat.mean(axis=0)
    cov = dev.T @ dev / (flat.shape[0] - 1)
    trial_covs = np.empty((trials, m, m))
    for b in range(trials):
        xb = samples[:, b, :]
        db = xb - xb.mean(axis=0)
        trial_covs[b] = db.T @ db / (n_samples - 1)
    se = trial_covs.std(axis=0, ddof=1) / math.sqrt(trials)
    return cov, se


def format_cell(value) -> str:
    """One CSV cell rendered by its Python type: strings as they are,
    integers in decimal, nan (a missing value) empty, any other float as
    `%.17g` (17 significant digits round-trip every double). None is
    refused: no row holds it."""
    if value is None:
        raise TypeError("a missing value is nan, not None")
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "" if math.isnan(value) else "%.17g" % value


def forward_reference(chol, rhs):
    """L^-1 rhs for a (P, m, m) stack of lower triangular factors by
    numpy's LU solve, the route risk._forward replaced."""
    return np.linalg.solve(chol, rhs)


def sweep_scale_rows_per_level(sigma, d, c, epsilon, max_m, state_value):
    """The (m, j, risk) rows of experiments.sweep_scale_rows's array,
    nan for an empty cell, conditioned level by level: failures {1..m}
    from scratch for each m = 0..max_m, through the package's one-stack
    conditioning core. The reference for the nested route, which reads
    every level off one factor."""
    max_m, state, d, c, it = _check_sweep(sigma, "max_m", max_m,
                                          state_value, d, c, epsilon)
    rows = []
    for m in range(max_m + 1):
        cnd = _condition_stack(sigma.values, np.arange(m)[None],
                               np.full((1, m), state), d)
        value = _stack_risk(cnd, d, c, it)
        rows += [(m, j, v)
                 for j, v in enumerate(value[0].tolist(), start=1)]
    return rows


def simulate_rows_reference(analytic, empirical):
    """The (i, j, analytic, empirical, se, z) rows of the `simulate` CSV
    and its max |z|, by one Python loop over the upper triangle: the
    route the vectorised comparison in cli replaced. z is the difference
    over its standard error; where that is 0, z is 0 if the two agree
    and inf if not."""
    rows = []
    max_abs_z = 0.0
    for i in range(analytic.dim):
        for j in range(i, analytic.dim):
            sa = float(analytic.values[i, j])
            se_ = float(empirical.cov[i, j])
            err = float(empirical.standard_errors[i, j])
            if err > 0.0:
                z = (se_ - sa) / err
            else:
                z = 0.0 if se_ == sa else math.inf
            max_abs_z = max(max_abs_z, abs(z))
            rows.append((i + 1, j + 1, sa, se_, err, z))
    return rows, max_abs_z
