"""Regenerate the stored reference outputs in perfbench/reference/.

Run from the repository root, only at a commit whose outputs are
trusted:

    python3 perfbench/make_reference.py

Each workload runs in its own fresh interpreter, as in the benchmark,
so the `f` cache of one workload cannot leak into another. Seeded jobs
use REFERENCE_SEED; the checks ignore the seed-dependent columns.
"""
import gzip
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 1
# Larger outputs are stored gzip-compressed, as <job>.csv.gz.
GZIP_ABOVE_BYTES = 1 << 20


def write_reference(name: str, root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    from cascade_risk import cli

    workload = WORKLOADS[name]
    out = HERE / "reference" / name
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        configs = write_configs(workload, Path(tmp))
        for job in workload.jobs:
            argv = job.argv(configs[job.config], out / f"{job.name}.csv",
                            REFERENCE_SEED)
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{name}/{job.name} exited with {code}")
            _store(out / f"{job.name}.csv")


def _store(path: Path) -> None:
    packed = path.with_suffix(".csv.gz")
    packed.unlink(missing_ok=True)
    if path.stat().st_size > GZIP_ABOVE_BYTES:
        packed.write_bytes(gzip.compress(path.read_bytes(), mtime=0))
        path.unlink()


def main() -> int:
    root = Path.cwd()
    if len(sys.argv) == 2:
        write_reference(sys.argv[1], root)
        return 0
    for name in WORKLOADS:
        subprocess.run([sys.executable, __file__, name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
