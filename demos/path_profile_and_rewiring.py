"""Sparse chain topology: localized risk and what an extra link buys.

On the path graph each vehicle only senses its immediate neighbours, so
a block of collisions raises the risk of surviving pairs in a band
around it that decays with distance. The first part profiles a
50-vehicle chain with failures at pairs 32-36; the second part takes a
shorter chain and asks, for one endangered pair, which single extra
communication link (both vehicles of the pair wired to one remote
vehicle) lowers its risk, and which links backfire.

Run from the repository root:  python3 demos/path_profile_and_rewiring.py
CLI equivalents:
  cascade-risk risk-profile --config demos/configs/path50.cfg
  cascade-risk add-edge --config demos/configs/path20.cfg --pair 8
"""
import math

from cascade_risk import (FailureScenario, NoiseParams, build_path,
                          laplacian, risk_profile, spectrum,
                          steady_state_covariance)
from cascade_risk.experiments import add_edge_rows

NOISE = NoiseParams(g=0.1, tau=0.03, beta=2.0)
D, C, EPSILON = 3.0, 2.0, 0.1


def profile_part():
    n = 50
    sigma = steady_state_covariance(spectrum(laplacian(build_path(n))), NOISE)
    scenario = FailureScenario(tuple(range(32, 37)), (0.0,) * 5)
    profile = risk_profile(sigma, scenario, D, C, EPSILON)
    survivors = profile[~profile.failed]
    print(f"path graph, n = {n}, failures at pairs {scenario.indices}")
    print("  pair   risk")
    for j, risk in zip(survivors.j.tolist(), survivors.risk.tolist()):
        if 29 <= j <= 39:
            tag = f"{risk:.4f}" if math.isfinite(risk) else str(risk)
            print(f"  {j:4d}   {tag}")
    exposed = survivors.j[survivors.risk > 0.0].tolist()
    print(f"  pairs at any risk: {exposed[0]}..{exposed[-1]} "
          f"({len(exposed)} of {len(survivors)})")
    print("  the hazard peaks at the flanking pairs, decays with hop "
          "distance, and")
    print("  vanishes outside the band; the rest of the chain is "
          "unaffected.\n")


def rewiring_part():
    n = 20
    graph = build_path(n)
    scenario = FailureScenario((9, 10), (0.0, 0.0))
    j = 8
    rows = add_edge_rows(graph, D, NOISE, EPSILON, C, scenario, j)
    base = rows[0][1]
    print(f"path graph, n = {n}, failures at pairs {scenario.indices}, "
          f"queried pair {j}")
    print(f"  baseline risk of pair {j}: {base:.4f}")
    print("  risk after linking vehicles 8 and 9 to one extra vehicle:")
    for target, value, stable in rows[1:]:
        tag = "unstable" if not stable else (
            f"{value:.4f}" if math.isfinite(value) else str(value))
        print(f"    target {target:2d}  ->  {tag}")
    helped = sum(1 for _, v, s in rows[1:] if s and v < base)
    hurt = sum(1 for _, v, s in rows[1:] if s and v > base)
    print(f"  {helped} links reduce the risk, {hurt} make it worse")
    print("  links toward the front of the chain silence the pair "
          "entirely, while")
    print("  wiring it to the vehicles just behind the failed block "
          "drags it into")
    print("  the block's motion and the risk diverges.")


if __name__ == "__main__":
    profile_part()
    rewiring_part()
