"""Measure how a 1e-8 relative error in f reaches each job's cells.

Run from the repository root:

    python3 perfbench/derive_tolerance.py

Every f value is multiplied by 1 + 1e-8 or 1 - 1e-8, the sign drawn
once per distinct f key, and each job of the analytic workloads runs
against the stored reference. For each job and tolerance class of
check.py it prints the largest difference in units of 1e-8 times the
class's scale: the amplification of f's error. The job's risk_rel in
workloads.py is 1e-8 times ten times the largest amplification over the
draws, rounded up to one significant digit.
"""
import random
import sys
import tempfile
from pathlib import Path

import check
from run import read_reference
from workloads import WORKLOADS, write_configs

F_REL = 1e-8
DRAWS = 3


def amplification(actual: str, reference: str, c: float) -> dict:
    """Largest |actual - reference| / (F_REL * scale) per tolerance class."""
    worst = {}
    for col, key, got, want, rule, diff, scale in check.differences(
            check.Table(actual), check.Table(reference), c):
        if diff is None:
            raise SystemExit(f"{col} at {key}: {got!r} != {want!r}")
        if scale > 0:
            worst[rule] = max(worst.get(rule, 0.0), diff / (F_REL * scale))
    return worst


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from cascade_risk import cli, covariance

    exact_f = covariance.f_integral
    signs = {}

    def perturbed_f(s1, s2):
        key = (f"{s1:.11e}", f"{s2:.11e}", draw)
        if key not in signs:
            signs[key] = random.Random(str(key)).choice((-1.0, 1.0))
        return exact_f(s1, s2) * (1.0 + F_REL * signs[key])

    covariance.f_integral = perturbed_f
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for draw in range(DRAWS):
            for workload in WORKLOADS.values():
                if workload.name == "montecarlo":
                    continue
                configs = write_configs(workload, Path(tmp))
                for job in workload.jobs:
                    out = Path(tmp) / f"{job.name}.csv"
                    if cli.main(job.argv(configs[job.config], out, 1)) != 0:
                        raise SystemExit(f"{job.name} failed")
                    worst = amplification(
                        out.read_text(encoding="utf-8"),
                        read_reference(workload.name, job.name), job.c)
                    print(f"draw {draw} {workload.name}/{job.name}: " +
                          ", ".join(f"{rule} {value:.3g}"
                                    for rule, value in sorted(worst.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
