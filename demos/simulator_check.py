"""Does the delayed-dynamics simulator reproduce the predicted spread?

Five vehicles in a chain are integrated with the stochastic
delay-differential dynamics, sixteen independent trials of a hundred
thinned snapshots each. Every trial starts in the exact stationary law
of the Euler-Maruyama chain, so no burn-in is spent. The pooled
inter-vehicle distances give an empirical 4x4 covariance whose entries
are compared, one z-score per entry, with two predictions: the chain's
own stationary covariance, which the snapshots estimate without bias,
and the analytic covariance of the continuous dynamics, which sits
O(dt) below it. With a healthy simulator every |z| against the chain
stays inside 3.89, the Bonferroni bound for the 10 distinct entries at
a 1e-3 false-alarm rate.

Run from the repository root:  python3 demos/simulator_check.py
CLI equivalent:
  cascade-risk simulate --config demos/configs/simulate_path5.cfg
"""
from statistics import NormalDist

import numpy as np

from cascade_risk import (NoiseParams, SimConfig, build_path, laplacian, run,
                          spectrum, steady_state_covariance)
from cascade_risk.graph import pair_difference_matrix
from cascade_risk.simulate import _stationary_cov

NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)
N, D = 5, 3.0   # vehicles, target gap (m)
SIM = SimConfig(dt=1e-3, sample_interval=0.6,
                samples_per_trial=100, trials=16, seed=7)


def chain_covariance(spec):
    """Distance covariance of the Euler-Maruyama chain's stationary law:
    each mode's position variance, mapped through the pair differences."""
    k = round(NOISE.tau / SIM.dt)
    P = _stationary_cov(spec.eigenvalues[1:], NOISE.beta, SIM.dt, k)
    W = pair_difference_matrix(spec.eigenvectors)[:, 1:]
    return NOISE.g ** 2 * SIM.dt * (W * P[:, 0, 0]) @ W.T


def main():
    graph = build_path(N)
    spec = spectrum(laplacian(graph))
    analytic = steady_state_covariance(spec, NOISE).values
    chain = chain_covariance(spec)
    emp = run(graph, D, NOISE, SIM)

    print(f"path graph, n = {N}, {SIM.trials} trials x "
          f"{SIM.samples_per_trial} samples = {emp.sample_count} snapshots")
    print(f"dt = {SIM.dt} s, stationary start, one snapshot every "
          f"{SIM.sample_interval} s\n")

    print("  pair means (target 3 m):")
    for j, (m, se) in enumerate(zip(emp.mean, emp.mean_standard_errors), 1):
        z = (m - D) / se
        print(f"    pair {j}:  {m:8.5f} +- {se:.5f}   z = {z:+.2f}")

    print("\n  covariance entries, empirical vs the chain and the analytic "
          "prediction:")
    print("    i  j    empirical        chain     analytic        se"
          "   z_chain  z_analytic")
    z_chain, z_analytic = [], []
    for i in range(len(analytic)):
        for j in range(i, len(analytic)):
            se = emp.standard_errors[i, j]
            z_chain.append((emp.cov[i, j] - chain[i, j]) / se)
            z_analytic.append((emp.cov[i, j] - analytic[i, j]) / se)
            print(f"    {i + 1}  {j + 1}   {emp.cov[i, j]:10.6f}   "
                  f"{chain[i, j]:10.6f}   {analytic[i, j]:10.6f}   "
                  f"{se:.6f}   {z_chain[-1]:+7.2f}   {z_analytic[-1]:+7.2f}")
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * len(z_chain)))
    worst = max(map(abs, z_chain))
    print(f"\n  chain minus analytic, largest relative gap: "
          f"{np.abs(chain - analytic).max() / np.abs(analytic).max():.2e} "
          f"(the O(dt) bias)")
    print(f"  largest |z| against the chain over {len(z_chain)} entries: "
          f"{worst:.2f}  ({'OK' if worst <= bound else 'SUSPECT'}, "
          f"bound {bound:.2f}); against the analytic prediction: "
          f"{max(map(abs, z_analytic)):.2f}")
    assert worst <= bound
    assert max(map(abs, z_analytic)) <= 4.0


if __name__ == "__main__":
    main()
