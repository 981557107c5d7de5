"""Benchmark of the `cascade-risk` command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rewire --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run repeats workload passes for --seconds (at least MIN_PASSES). Each
pass is a fresh interpreter that imports `cascade_risk.cli` from ./src
and calls `cli.main` once per job, one job after another: a closed loop
with one client. Every output is checked against the stored reference
and must be byte-identical across the passes of a run.

--trace 0 reports the end-to-end metrics, as medians over passes:
setup_s (process start until `cascade_risk.cli` is imported), run_s
(the jobs after set-up) and peak_rss_mb. --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced ones,
plus the tracing overhead; traced outputs must equal untraced ones byte
for byte. The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import spans
from workloads import WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


def read_reference(workload: str, job: str) -> str:
    path = HERE / "reference" / workload / f"{job}.csv"
    if path.exists():
        return path.read_text(encoding="utf-8")
    return gzip.decompress(path.with_suffix(".csv.gz").read_bytes()).decode()


class PassFailed(Exception):
    pass


class Runner:
    """Spawns workload passes for one workload and checks their outputs."""

    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.configs = write_configs(workload, work)
        self.references = {job.name: read_reference(workload.name, job.name)
                           for job in workload.jobs}
        self.accepted = {}  # job name -> bytes of the first passing output
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def spawn(self, jobs: bool, trace: bool = False,
              environment: bool = False) -> dict:
        """One fresh interpreter; returns the worker's result with
        setup_s added. With jobs, outputs are checked and removed."""
        self.passes += 1
        tag = f"pass{self.passes}"
        out_dir = self.work / tag
        out_dir.mkdir()
        job_specs = []
        if jobs:
            job_specs = [{"name": job.name,
                          "argv": job.argv(self.configs[job.config],
                                           out_dir / f"{job.name}.csv",
                                           self.seed)}
                         for job in self.workload.jobs]
        spec = {"jobs": job_specs, "trace": trace,
                "spans_out": str(out_dir / "spans.jsonl"),
                "result_out": str(out_dir / "result.json"),
                "environment": environment}
        spec_path = out_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"{tag} timed out after {PASS_TIMEOUT_S} s") \
                from exc
        if proc.returncode != 0 or not (out_dir / "result.json").exists():
            raise PassFailed(f"{tag} exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads((out_dir / "result.json").read_text())
        result["setup_s"] = result["imported_at"] - started
        if trace:
            result["layers"] = spans.layer_metrics(
                spans.read_spans(out_dir / "spans.jsonl"))
        if jobs:
            self._check(result, out_dir, traced=trace)
        shutil.rmtree(out_dir)
        return result

    def _check(self, result: dict, out_dir: Path, traced: bool) -> None:
        by_name = {job.name: job for job in self.workload.jobs}
        for record in result["jobs"]:
            self.attempted += 1
            job = by_name[record["name"]]
            problem = self._problem(job, record, out_dir, traced)
            if problem:
                self.failures.append(f"pass {self.passes} {job.name}: "
                                     f"{problem}")

    def _problem(self, job, record: dict, out_dir: Path, traced: bool):
        if record["error"]:
            return "raised " + record["error"].strip().splitlines()[-1]
        if record["code"] != 0:
            return f"exit code {record['code']}"
        path = out_dir / f"{job.name}.csv"
        if not path.exists():
            return "wrote no output"
        text = path.read_text(encoding="utf-8")
        first = self.accepted.get(job.name)
        if first is not None:
            if text == first:
                return None
            if traced:
                return "traced output differs from the untraced output"
            return "output differs from the first pass of this run"
        if traced:
            return "traced pass ran before any accepted untraced output"
        problems = check.compare(text, self.references[job.name], job.c,
                                 job.risk_rel)
        if problems:
            return "; ".join(problems[:5])
        self.accepted[job.name] = text
        return None


def _median_metrics(dicts: list) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def measure(root: Path, work: Path, name: str, seed: int, seconds: float,
            trace: bool):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    workload = WORKLOADS[name]
    load_start = _loadavg()
    runner = Runner(root, work, workload, seed)
    # Untimed: compiles bytecode and warms the file cache, which a user
    # pays once per install, not once per call.
    warm = runner.spawn(jobs=False, environment=True)
    environment = warm["environment"]
    untraced, traced = [], []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if trace:
            if traced and elapsed >= seconds:
                break
            untraced.append(runner.spawn(jobs=True))
            traced.append(runner.spawn(jobs=True, trace=True))
        else:
            if len(untraced) >= MIN_PASSES and elapsed >= seconds:
                break
            untraced.append(runner.spawn(jobs=True))
    setup = [r["setup_s"] for r in untraced + traced]
    while not trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.spawn(jobs=False)["setup_s"])
    environment["loadavg_start"] = load_start
    environment["loadavg_end"] = _loadavg()
    environment["harness_cpu_count"] = os.cpu_count()
    print("environment " + json.dumps(environment, sort_keys=True))

    run_s = statistics.median(r["run_s"] for r in untraced)
    if trace:
        missing = traced[0].get("trace_missing") or []
        if missing:
            print("trace: functions not found: " + ", ".join(missing))
        metrics = _median_metrics([r["layers"] for r in traced])
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - run_s
        # Mean of per-pass shares, so that the shares add up to one.
        per_pass = [spans.layer_shares(r["layers"], r["run_s"])
                    for r in traced]
        shares = {layer: statistics.fmean(p[layer] for p in per_pass)
                  for layer in per_pass[0]}
        print(f"{name}: layer self time as a share of traced run_s, mean "
              f"over {len(traced)} traced passes (median traced run_s "
              f"{traced_run_s:.3f} s, untraced {run_s:.3f} s)")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:12s} {100 * share:6.1f} %")
        print("shares " + json.dumps({"workload": name, "shares": shares},
                                     sort_keys=True))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in untraced),
        }
    failed = len(runner.failures)
    for failure in runner.failures[:10]:
        print("FAILED " + failure)
    print(f"{name}: seed={seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced, {len(setup)} set-up samples; "
          f"{runner.attempted} jobs, {failed} failed")
    print("  run_s per pass: " + " ".join(f"{r['run_s']:.4f}"
                                           for r in untraced + traced))
    for key, value in metrics.items():
        unit = END_TO_END_UNITS.get(key) or _unit(key)
        print(f"  {key:30s} {value:.6g} {unit}")
    if not trace:
        print(f"  {'error_rate':30s} "
              f"{failed / max(runner.attempted, 1):.6g} ratio")
    return failed == 0, runner.attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "cascade_risk" / "cli.py").is_file():
        print(f"perfbench: no src/cascade_risk/cli.py under {root}; run "
              f"from the repository root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=root / WORK_DIR))
    try:
        results = {}
        for name in names:
            work = work_root / name
            work.mkdir()
            results[name] = measure(root, work, name, args.seed,
                                    args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    def entry(key, value):
        return {"value": value, "unit": END_TO_END_UNITS.get(key)
                or _unit(key)}

    if len(names) == 1:
        metrics = {k: entry(k, v) for k, v in results[names[0]][3].items()}
    else:
        metrics = {f"{name}.{k}": entry(k, v)
                   for name, result in results.items()
                   for k, v in result[3].items()}
    print(json.dumps({
        "correct": all(r[0] for r in results.values()),
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
