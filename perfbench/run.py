"""The kingmesh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; the package is imported from ``src``.

``--trace 0`` runs the workload's commands back to back, each time in fresh
``kingmesh`` processes (a closed loop with one caller), for about S seconds,
checks every output, and prints the end-to-end metrics: medians over the runs
of the commands, and of the set-up time sampled between them, in reference
seconds (see ``speed.py``).

``--trace 1`` runs the workload once untraced and once traced inside one
interpreter each (``traced.py``) and prints the per-layer metrics.  The spans
go to ``perfbench/out/``.

The last line of stdout is the JSON result; the lines before it, starting with
``#``, are for people.  ``--tiny`` runs small inputs for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUP_SAMPLES = 15
TIME_LIMIT_S = 170  # every run ends within this, children included


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("ns_per_host_pattern"):
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("KINGMESH_JOBS", None)  # the workloads fix their own worker counts
    return env


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process's current image, from /proc.  Unlike
    ru_maxrss, this leaves out the pages the child held before exec, which
    are the benchmark's own."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class Runner:
    """Starts child processes, each bounded by the run's deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def spawn(self, cmd: list[str], watch_memory: bool = False) -> tuple[int, str, str, int]:
        """Run cmd to completion: (exit code, stdout, stderr, peak RSS in KB).
        With watch_memory a thread samples the child's peak RSS every 20 ms."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            return 124, "", "run deadline passed before start", 0
        p = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        peak = [0]
        done = threading.Event()

        def sample():
            while not done.wait(0.02):
                peak[0] = max(peak[0], vm_hwm_kb(p.pid))

        watcher = threading.Thread(target=sample, daemon=True) if watch_memory else None
        if watcher:
            watcher.start()
        try:
            out, err = p.communicate(timeout=left)
            code = p.returncode
        except subprocess.TimeoutExpired:
            p.kill()
            out, err = p.communicate()
            code, err = 124, f"timed out after {left:.0f} s"
        finally:
            done.set()
            if watcher:
                watcher.join()
        return code, out, err, peak[0]

    def process_cmd(self, commands) -> list[str]:
        if len(commands) == 1:
            return [sys.executable, "-m", "kingmesh.cli", *commands[0]]
        return [sys.executable, str(HERE / "batch.py"), json.dumps(commands)]

    def setup_seconds(self) -> float:
        """Interpreter start to ``kingmesh.cli`` imported and its parser built."""
        t = time.perf_counter()
        code, _, err, _ = self.spawn([sys.executable, "-m", "kingmesh.cli", "--help"])
        elapsed = time.perf_counter() - t
        if code != 0:
            raise RuntimeError(f"kingmesh does not start: {err.strip()[-400:]}")
        return elapsed


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def measure(workload, seconds: float, runner: Runner):
    """The untraced closed loop.  Returns (metrics, checks, per-op lines).

    Times are in reference seconds (see speed.py): each run of the commands is
    scaled by the CPU speed sampled on its CPUs while it ran, and the set-up
    times by the median speed of the run.
    """
    runner.setup_seconds()  # first start compiles the bytecode; not a sample
    setups, walls, cpus, peaks, scales, checks, lines = [], [], [], [], [], [], []
    start = time.perf_counter()
    while True:
        setups.append(runner.setup_seconds())
        # a one-worker workload runs on one CPU, so that the speed sampled
        # there is the speed it ran at
        everywhere = os.sched_getaffinity(0)
        pinned = everywhere if workload.jobs > 1 else {min(everywhere)}
        os.sched_setaffinity(0, pinned)  # inherited by the processes started here
        with speed.Sampler(pinned) as sampler:
            cpu0, t = children_cpu(), time.perf_counter()
            runs = [runner.spawn(runner.process_cmd(p), watch_memory=True) for p in workload.processes]
            wall, cpu = time.perf_counter() - t, children_cpu() - cpu0
        os.sched_setaffinity(0, everywhere)
        scales.append(sampler.scale())
        walls.append(wall * scales[-1])
        cpus.append(cpu * scales[-1])
        peaks.append(max(r[3] for r in runs) / 1024)
        outputs = [r[:3] for r in runs]
        op_checks = workloads.check(workload, outputs)
        checks += op_checks
        lines.append(f"op {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s, speed scale "
                     f"{scales[-1]:.3f}, {sum(not ok for _, ok in op_checks)} of "
                     f"{len(op_checks)} checks failed")
        for code, _, err in outputs:
            if code != 0:
                lines.append(f"exit {code}: {err.strip()[-400:]}")
        # stop before an op that would overrun the run length
        if time.perf_counter() - start + statistics.median(walls) / statistics.median(scales) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.setup_seconds())
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups) * statistics.median(scales),
    }
    return metrics, checks, lines


def traced_run(workload, seed: int, tiny: bool, runner: Runner):
    """Untraced and traced in-process runs.  Returns (metrics, checks, lines)."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    base = [sys.executable, str(HERE / "traced.py"), "--workload", workload.name,
            "--seed", str(seed)] + (["--tiny"] if tiny else [])
    checks, lines = [], []

    def child(*extra):
        code, out, err, _ = runner.spawn(base + list(extra))
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            checks.append((f"traced.py {' '.join(extra)}: result printed", False))
            lines.append(f"traced.py {' '.join(extra)} exit {code}: {err.strip()[-600:]}")
            return None
        checks.extend(tuple(c) for c in result["checks"])
        return result

    # Per-layer times are taken at one worker, so every layer call runs in the
    # traced process; the pool is measured separately, untraced.
    plain = child("--mode", "plain", "--jobs", "1")
    traced = child("--mode", "traced", "--jobs", "1", "--spans", str(spans_path))
    pooled = child("--mode", "plain", "--jobs", str(workload.jobs)) if workload.jobs > 1 else None
    if plain is None or traced is None or (workload.jobs > 1 and pooled is None):
        return {}, checks, lines

    m = dict(traced["metrics"])
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["oracle.parallel_speedup"] = plain["wall_s"] / pooled["wall_s"] if pooled else 0.0
    m["oracle.worker_cpu_s"] = pooled["children_cpu_s"] if pooled else 0.0

    same = traced["digests"] == plain["digests"]
    lines.append(f"traced output matches untraced output: {'yes' if same else 'NO'}")
    layers = {k: v for k, v in m.items() if k.endswith(".self_s")}
    lines.append(f"untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s; "
                 f"layer self times sum to {sum(layers.values()):.3f} s: "
                 + ", ".join(f"{k[:-7]} {v:.3f}" for k, v in layers.items()))
    if workload.name == "sweep":
        parts = (m["kings.enumerate_s"], m["mesh.occurrence_counts_s"], m["oracle.merge_s"])
        lines.append(f"enumerate {parts[0]:.3f} + occurrence_counts {parts[1]:.3f} + merge "
                     f"{parts[2]:.3f} = {sum(parts):.3f} s of untraced {plain['wall_s']:.3f} s")
    if workload.name == "battery":
        families = sum(v for k, v in m.items() if k.startswith("verify.") and k.endswith("_s")
                       and k != "verify.self_s")
        lines.append(f"battery families and catalog sweep sum to {families:.3f} s "
                     f"of untraced {plain['wall_s']:.3f} s")
    if workload.jobs > 1:
        lines.append(f"jobs 1 {plain['wall_s']:.3f} s, jobs {workload.jobs} {pooled['wall_s']:.3f} s")
    return m, checks, lines


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts(seed: int, workers: int) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "caches": caches,
        "commit": git_commit(),
        "seed": seed,
        "workers": workers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kingmesh benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kingmesh" / "cli.py").is_file():
        print(f"error: no kingmesh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.tiny)
    facts = machine_facts(args.seed, workload.jobs)
    if workload.jobs > facts["nproc"]:
        print(f"error: {workload.name} uses {workload.jobs} workers but only "
              f"{facts['nproc']} CPUs are available", file=sys.stderr)
        return 2

    runner = Runner()
    try:
        if args.trace:
            metrics, checks, lines = traced_run(workload, args.seed, args.tiny, runner)
        else:
            metrics, checks, lines = measure(workload, args.seconds, runner)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    lines.append(f"checks: {attempted} attempted, {failed} failed, "
                 f"fail_ratio {failed / attempted if attempted else 1.0:.4f}")
    lines += [f"FAILED {label}" for label, ok in checks if not ok][:20]
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    OUT.mkdir(exist_ok=True)
    record = {"machine": facts, "workload": workload.name, "tiny": args.tiny,
              "trace": args.trace, "notes": lines, **result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("# machine " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print("# " + line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
