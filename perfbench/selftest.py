"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that each
run is correct and prints exactly the metrics that BENCHMARK.json declares,
with the declared units, and that the traced run's output equals the untraced
one.  Then checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Takes about three minutes, most of it the battery, whose counting checks have
a fixed size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    problems = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            p = run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--tiny")
            label = f"{name} trace {trace}"
            before = len(problems)
            if p.returncode != 0:
                problems.append(f"{label}: exit {p.returncode}: {p.stderr[-400:]}")
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                extra = sorted(set(printed) - set(declared[trace]))
                missing = sorted(set(declared[trace]) - set(printed))
                units = sorted(k for k in printed.keys() & declared[trace].keys()
                               if printed[k] != declared[trace][k])
                problems.append(f"{label}: undeclared {extra}, missing {missing}, unit differs {units}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} checks failed")
            if trace and "# traced output matches untraced output: yes" not in p.stdout:
                problems.append(f"{label}: traced output differs from untraced output")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}")
    else:
        print("bare directory: refused")

    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
