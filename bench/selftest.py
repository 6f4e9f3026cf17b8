"""Self-test of the benchmark, at minimal sizes; takes well under a minute.

    python3 bench/selftest.py

Checks that:
- ``BENCHMARK.json`` names exactly the workloads and metrics of ``spec.py``;
- every workload, traced and untraced, ends with one JSON line holding
  every metric of its mode, each with its unit, and passes its checks;
- an injected bad output (a NaN logit, or a NaN step loss) is counted as
  a failed op and makes the run incorrect;
- without the dyglnet sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    cmd = [sys.executable, "bench/run.py", "--smoke", "--seconds", "1", "--seed", "3", *args]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    return result


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for key, metrics in (("end_to_end", spec.END_TO_END), ("per_layer", spec.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in doc[key]]
        assert listed == list(metrics), f"{key} differs from spec.py"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def check_metrics(result: dict, expected) -> None:
    got = result["metrics"]
    assert list(got) == [name for name, _, _ in expected], sorted(set(got) ^ {n for n, _, _ in expected})
    for name, unit, _ in expected:
        value = got[name]["value"]
        assert got[name]["unit"] == unit, (name, got[name]["unit"])
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def main() -> int:
    if not __debug__:
        sys.exit("the self-test uses assert; run it without -O")
    check_benchmark_json()
    print("PASS BENCHMARK.json matches spec.py")
    for name in spec.WORKLOADS:
        for trace, expected in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
            code, stdout = run("--workload", name, "--trace", trace)
            assert code == 0, (name, trace, stdout[-2000:])
            result = last_json(stdout)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert result["attempted"] >= 1
            check_metrics(result, expected)
            print(f"PASS {name} trace {trace}: {len(expected)} metrics with units, "
                  f"{result['attempted']} ops checked")
        code, stdout = run("--workload", name, "--trace", "0", "--inject-fault")
        result = last_json(stdout)
        assert code == 0 and not result["correct"] and result["failed"] >= 1, (name, result)
        print(f"PASS {name}: injected bad output counted "
              f"({result['failed']} of {result['attempted']} ops failed)")
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, stdout = run("--workload", spec.WORKLOADS[0], "--trace", "0", cwd=bare)
        assert code != 0 and not stdout.strip(), (code, stdout)
    finally:
        shutil.rmtree(bare)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("PASS without the sources: exit code", code, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
