"""End-to-end PS3 benchmark launcher.

Usage, from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 15 --trace 0

Runs one workload (``adhoc``, ``dashboard`` or ``ingest``; see
``workloads.py`` and ``NOTES.md``) against ``src/repro``. Prints a
detailed JSON report (every metric with its unit and sample count, the
measurement conditions and every correctness check), then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``). Exits 1 when a check fails and 2
when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Thread pools of the BLAS/OpenMP runtimes are pinned to one thread, so
#: the run never has more threads busy than the generator plus the
#: serving worker.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("adhoc", "dashboard", "ingest")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _openblas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS actually runs with."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"  # before numpy is first imported
    manifest = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not manifest.is_file():
        print(f"missing {manifest}", file=sys.stderr)
        return 2
    declared = json.loads(manifest.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    from workloads import run_workload

    run = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        ROOT / ".perfbench",
    )
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    produced = run.layers if args.trace else run.metrics
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        run.check("declared_metrics_reported", False, missing=missing)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "conditions": {
            **run.conditions,
            "openblas_threads": _openblas_threads(),
            "threads_env": {name: os.environ[name] for name in THREAD_ENV},
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "phase_seconds": run.phase_seconds,
        "end_to_end": run.metrics,
        "per_layer": run.layers,
        "checks": run.checks,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": produced[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
            if m["name"] in produced
        },
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
