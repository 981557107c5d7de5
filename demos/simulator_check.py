"""Does the delayed-dynamics simulator reproduce the predicted spread?

Five vehicles in a chain are integrated with the stochastic
delay-differential dynamics, sixteen independent trials of a hundred
thinned snapshots each. The pooled inter-vehicle distances give an
empirical 4x4 covariance whose entries are compared, one z-score per
entry, against the analytic prediction. With a healthy simulator
every |z| should sit well inside 3.

Run from the repository root:  python3 demos/simulator_check.py
CLI equivalent:
  cascade-risk simulate --config demos/configs/simulate_path5.cfg
"""
import numpy as np

from cascade_risk import (NoiseParams, SimConfig, build_path, laplacian, run,
                          spectrum, steady_state_covariance)

NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)
N, D = 5, 3.0   # vehicles, target gap (m)
SIM = SimConfig(dt=1e-3, burn_in=6.0, sample_interval=0.6,
                samples_per_trial=100, trials=16, seed=7)


def main():
    graph = build_path(N)
    analytic = steady_state_covariance(spectrum(laplacian(graph)), NOISE)
    emp = run(graph, D, NOISE, SIM)

    print(f"path graph, n = {N}, {SIM.trials} trials x "
          f"{SIM.samples_per_trial} samples = {emp.sample_count} snapshots")
    print(f"dt = {SIM.dt} s, burn-in {SIM.burn_in} s, one snapshot every "
          f"{SIM.sample_interval} s\n")

    print("  pair means (target 3 m):")
    for j, (m, se) in enumerate(zip(emp.mean, emp.mean_standard_errors), 1):
        z = (m - D) / se
        print(f"    pair {j}:  {m:8.5f} +- {se:.5f}   z = {z:+.2f}")

    print("\n  covariance entries, empirical vs predicted:")
    print("    i  j    empirical    predicted        se       z")
    z_max = 0.0
    for i in range(analytic.dim):
        for j in range(i, analytic.dim):
            z = (emp.cov[i, j] - analytic.values[i, j]) / emp.standard_errors[i, j]
            z_max = max(z_max, abs(z))
            print(f"    {i + 1}  {j + 1}   {emp.cov[i, j]:10.6f}   "
                  f"{analytic.values[i, j]:10.6f}   {emp.standard_errors[i, j]:.6f}"
                  f"   {z:+.2f}")
    print(f"\n  largest |z| over {analytic.dim * (analytic.dim + 1) // 2} "
          f"entries: {z_max:.2f}  ({'OK' if z_max < 3.0 else 'SUSPECT'})")
    assert z_max < 3.0


if __name__ == "__main__":
    main()
