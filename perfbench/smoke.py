"""Smoke test of the benchmark itself, at toy size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload ``run.py`` knows (the ones ``BENCHMARK.json`` gates and
``city_static``) it runs ``run.py --toy`` untraced and traced, each in a
fresh process as the benchmark is meant to be run, and checks that

* both runs exit 0 and end with a ``correct`` result line carrying every
  metric ``BENCHMARK.json`` names (end-to-end untraced, per-layer traced);
* every window passed its output checks (digest repeats, sharded reference,
  ledger conservation);
* the traced run reproduces the untraced run's digest.

It also checks that the benchmark refuses to run, without a result line, in
a directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    failures = []
    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--toy")
            label = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            missing = [name for name in wanted[trace] if name not in result["metrics"]]
            if missing:
                failures.append(f"{label}: missing metrics {missing}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} "
                                f"windows failed\n{proc.stderr}")
            match = re.search(r"^digest (\w+) ", proc.stdout, re.MULTILINE)
            digests[trace] = match.group(1) if match else None
            print(f"{label}: {result['attempted']} windows, digest {digests[trace]}")
        if digests.get(0) is None or digests.get(0) != digests.get(1):
            failures.append(f"{workload}: traced digest {digests.get(1)} != "
                            f"untraced {digests.get(0)}")
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(Path(bare), "--workload", "city_static", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            failures.append("a directory without the program still produced a result")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
