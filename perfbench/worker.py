"""One workload pass in a fresh interpreter.

Usage: python3 worker.py SPEC.json

The first statements import the command line and take the clock, so
the caller can time set-up from process start to a usable
`cascade_risk.cli`. SPEC.json holds the jobs (argument lists for
`cli.main`), whether to trace, and where to write the result. The pass
calls `cli.main` once per job, one after another.
"""
import time

import cascade_risk.cli as cli

IMPORTED_AT = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _openblas_symbols(name: str) -> list:
    return [f"{prefix}{name}{suffix}" for prefix in ("", "scipy_")
            for suffix in ("", "64_")]


def _call_first(lib, symbols, restype):
    """Result of the first of `symbols` that `lib` exports, else None."""
    for symbol in symbols:
        if hasattr(lib, symbol):
            function = getattr(lib, symbol)
            function.restype = restype
            return function()
    return None


def _blas_libraries() -> list:
    """Loaded BLAS libraries and their thread counts, read through each
    library's own entry points (threadpoolctl is not required)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "blas" in line.lower() or "mkl" in line.lower()})
    found = []
    for path in paths:
        # Extension modules that link BLAS would report it twice.
        if not path.startswith("/") or ".cpython-" in path:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _call_first(
            lib, _openblas_symbols("openblas_get_num_threads")
            + ["MKL_Get_Max_Threads"], ctypes.c_int)
        config = _call_first(lib, _openblas_symbols("openblas_get_config"),
                             ctypes.c_char_p)
        found.append({"path": path, "threads": threads,
                      "config": config.decode() if config else None})
    return found


def _peak_rss_mb() -> float:
    """High-water resident set of this process image. ru_maxrss is not
    used: a child spawned with vfork inherits its parent's peak at exec."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "cpu_count": os.cpu_count(),
        "package": cli.__file__,
    }


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    jobs = []
    started = time.monotonic()
    for job in spec["jobs"]:
        error = None
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashed job is recorded, the pass goes on
            code = None
            error = traceback.format_exc()
        jobs.append({"name": job["name"], "code": code, "error": error})
    run_s = time.monotonic() - started
    result = {
        "imported_at": IMPORTED_AT,
        "run_s": run_s,
        "jobs": jobs,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.write(spec["spans_out"])
        result["trace_missing"] = tracer.missing
    if spec["environment"]:
        result["environment"] = environment()
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
