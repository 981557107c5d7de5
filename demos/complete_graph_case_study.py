"""Fifty fully-connected vehicles, five collided pairs in the middle.

Walks the whole analysis chain on the complete graph: stability of
every consensus mode, the tridiagonal distance covariance, and the
cascading collision risk of each surviving pair given that pairs 23-27
sit at distance 0. The complete graph has a closed form for all of it,
so the script also cross-checks the generic spectral route against the
shortcut.

Run from the repository root:  python3 demos/complete_graph_case_study.py
CLI equivalent:  cascade-risk risk-profile --config demos/configs/complete50.cfg
"""
import math

import numpy as np

from cascade_risk import (ConditionalDistribution, FailureScenario,
                          NoiseParams, build_complete, check_platoon,
                          complete_graph_covariance, complete_graph_sigma_c,
                          complete_profile, laplacian, risk_profile,
                          spectrum, var_risk)
from cascade_risk.experiments import sweep_scale_rows

N, D, C, EPSILON = 50, 3.0, 2.0, 0.1
NOISE = NoiseParams(g=10.0, tau=0.03, beta=0.005)


def main():
    spec = spectrum(laplacian(build_complete(N)))
    report = check_platoon(spec, NOISE.tau, NOISE.beta)
    worst = np.argmin(report.margin)
    print(f"platoon of {N} vehicles, complete interaction graph")
    print(f"stable: {report.stable}  "
          f"(worst mode margin {report.margin[worst]:.4f}, "
          f"s1 = {report.s1[worst]:.3f} of pi/2 = {math.pi / 2:.3f})")

    sigma_c = complete_graph_sigma_c(N, NOISE)
    sigma_j = math.sqrt(sigma_c)
    print(f"\nevery pair has variance sigma_c = {sigma_c:.6f} "
          f"(std {sigma_j:.4f} m) and couples only with its neighbours")

    scenario = FailureScenario(tuple(range(23, 28)), (0.0,) * 5)
    entries = complete_profile(N, scenario, sigma_c, D, C, EPSILON)
    # no failures: the marginal law N(D, sigma_j)
    naive = var_risk(ConditionalDistribution(D, sigma_j), D, C, EPSILON)
    print(f"\nfailed pairs: {scenario.indices}, observed at 0 m")
    print(f"naive (unconditional) risk of any pair: {naive.value}")
    print("\n  pair   risk        conditional mean/std")
    for e in entries:
        if e.failed:
            continue
        if 21 <= e.j <= 29:
            print(f"  {e.j:4d}   {e.risk.value!s:9s}   "
                  f"mu = {e.mu_tilde:7.3f}, sigma = {e.sigma_tilde:.4f}")
    far = [e for e in entries if not e.failed and not 22 <= e.j <= 28]
    same = all(e.risk.value == naive.value for e in far)
    print(f"\nall {len(far)} pairs away from the block keep the naive "
          f"risk: {same}")
    print("the adjacent pairs 22 and 28 are pinned by five zero-distance "
          "observations;")
    print("their conditional mean rises enough that the risk drops to "
          "zero while the")
    print("far pairs stay at the naive level, infinite at this epsilon.")

    sigma = complete_graph_covariance(N, NOISE)
    generic = risk_profile(sigma, scenario, D, C, EPSILON)
    agree = all(
        a.risk.value == b.risk.value or
        abs(a.risk.value - b.risk.value) < 1e-9
        for a, b in zip(entries, generic))
    print(f"\nclosed form matches the generic conditioning route: {agree}")

    rows = sweep_scale_rows(sigma, D, C, EPSILON, 20, 0.0)
    by_m = {}
    for m, j, value in rows:
        if j == m + 1:
            by_m[m] = value
    print("\nleading-block sweep (failures at pairs 1..m, risk of the "
          "first survivor):")
    print("  m:", ", ".join(str(m) for m in sorted(by_m) if m))
    print("  r:", ", ".join(f"{by_m[m]:.4f}" if math.isfinite(by_m[m])
                            else str(by_m[m]) for m in sorted(by_m) if m))
    shrinking = all(by_m[m + 1] <= by_m[m] + 1e-12
                    for m in range(1, 20))
    print(f"  non-increasing with the failure count: {shrinking}")


if __name__ == "__main__":
    main()
