"""Self-test of the benchmark itself (not of qesp_lab).

    python3 perfbench/selftest.py

Checks, each in a child process of ``run.py`` with a one-second budget:

* every workload passes and prints a result that matches ``BENCHMARK.json``
  (exact keys, every end-to-end metric with its declared unit; every
  per-module metric under ``--trace 1``);
* a planted wrong expectation -- for ``decap_hostile`` one flipped ciphertext
  byte on a packet expected to decap cleanly -- makes the run report
  ``correct: false`` with failed packets and exit non-zero;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the run
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_out" / "selftest"
TIMEOUT_S = 180

def check(failures: list[str], ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(cwd: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def matches_schema(result: dict | None, declared: list[dict]) -> bool:
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int) and isinstance(result["correct"], bool)):
        return False
    metrics = result["metrics"]
    return (set(metrics) == {m["name"] for m in declared}
            and all(set(metrics[m["name"]]) == {"value", "unit"}
                    and metrics[m["name"]]["unit"] == m["unit"]
                    and isinstance(metrics[m["name"]]["value"], (int, float))
                    for m in declared))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for wl in (w["name"] for w in spec["workloads"]):
        rc, out = run(ROOT, "--workload", wl, "--seed", "5", "--seconds", "1", "--trace", "0")
        result = result_of(out)
        check(failures, rc == 0 and matches_schema(result, spec["end_to_end"])
              and result["correct"] and result["failed"] == 0,
              f"{wl}: clean run passes and matches the end-to-end schema")

        rc, out = run(ROOT, "--workload", wl, "--seed", "5", "--seconds", "1", "--trace", "1")
        result = result_of(out)
        check(failures, rc == 0 and matches_schema(result, spec["per_layer"]) and result["correct"],
              f"{wl}: traced run passes and matches the per-module schema")

        rc, out = run(ROOT, "--workload", wl, "--seed", "5", "--seconds", "1", "--trace", "0",
                      "--fault")
        result = result_of(out)
        check(failures, rc != 0 and matches_schema(result, spec["end_to_end"])
              and not result["correct"] and result["failed"] >= 1,
              f"{wl}: planted wrong expectation fails the run")

    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    check(failures, rc != 0 and result_of(out) is None,
          "without the package source the run fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
