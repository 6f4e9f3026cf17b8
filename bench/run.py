"""Benchmark of the dyglnet CPU stack: one workload per process.

    python3 bench/run.py --workload tiny-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30            # all workloads, one process each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown of a traced run. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--smoke`` shrinks every
workload to seconds; ``--inject-fault`` corrupts the first op's output
so the self-test can check that failures are counted. See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_ENV:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) >= 1:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return nproc


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "threads_seen": _proc_field("/proc/self/status", "Threads"),
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "cpu": _proc_field("/proc/cpuinfo", "model name"),
        "commit": _git_commit(),
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    import spec

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=spec.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes, for the self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first op's output (self-test only)")
    return ap.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    import spec

    status = 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] * args.smoke + ["--inject-fault"] * args.inject_fault
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "dyglnet" / "__init__.py").is_file():
        print(f"error: the dyglnet sources are missing under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import harness  # numpy and dyglnet load here, after the thread pin

    import_s = time.perf_counter() - T_START
    import spec

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, args.inject_fault, workdir)
        metrics = run.per_layer() if args.trace else run.end_to_end(import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted, failed = run.counts()
    units = {name: unit for name, unit, _ in spec.PER_LAYER + spec.END_TO_END}
    print("env " + json.dumps(environment(nproc)))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in run.notes:
        print(note)
    print(f"val_dice {run.workload.val_dice!r} (deterministic for the seed)")
    print(f"failed_op_ratio {failed / attempted!r} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
