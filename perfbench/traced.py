"""Run one workload's commands inside this interpreter, plain or traced.

    python3 perfbench/traced.py --workload NAME --mode plain|traced
        [--seed N] [--jobs N] [--tiny] [--spans PATH]

``run.py --trace 1`` starts this once per mode, each time in a fresh process so
that every ``lru_cache`` starts cold, as it does for a CLI user.  Both modes
call ``kingmesh.cli.main`` for each command with stdout captured.  The traced
mode first wraps the public calls of every layer (see ``spans.py``), and after
the commands it times two probes on the same inputs without tracing: draining
each enumeration alone, and the per-host set-up of ``occurrence_counts`` with
no patterns.  It also times ``Series`` ring operations on operands from
``gfs``.  The process prints one JSON line: wall time, output checks, and in
traced mode the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from spans import Tracer

from kingmesh import cli, gfs, kings, mesh, oracle, verify
from kingmesh.kings import KingClass

VERIFY_FAMILIES = (
    "counts_methods", "counts_classes", "kingchar", "golden", "theorem",
    "strongpoint_class", "strongpoint_sets", "halving", "mass", "equation",
)
GFS_FUNCTIONS = (
    "king_series", "class_series", "strong_point_series", "strong_point_avoiders",
    "avoidance_series", "distribution_series",
)
COUNT_METHODS = ("recurrence", "explicit", "gf", "enumerate")
LAYERS = ("kings", "mesh", "oracle", "gfs", "verify", "cli")


def with_jobs(argv: tuple[str, ...], jobs: int | None) -> list[str]:
    argv = list(argv)
    if jobs is not None and "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = str(jobs)
    return argv


def run_commands(workload, jobs, tracer=None):
    """Run every command; returns (wall seconds, [(exit, stdout, stderr)])."""
    outputs = []
    start = time.perf_counter()
    for proc in workload.processes:
        out, err, code = io.StringIO(), io.StringIO(), 0
        for argv in proc:
            argv = with_jobs(argv, jobs)
            span = tracer.span("cli.main", argv=" ".join(argv)) if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except Exception:  # a traceback is a failed command, not a crash of the benchmark
                    err.write(traceback.format_exc())
                    rc = 1
            code = code or rc
        outputs.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outputs


# verify_all has no per-family entry point; its families are timed through the
# module-level checks it calls.  A check a later verify.py no longer has is
# skipped and its family reads 0.
FAMILY_CHECKS = {
    "_check_counts_methods": "verify.counts_methods",
    "_check_class_counts": "verify.counts_classes",
    "_check_king_characterization": "verify.kingchar",
    "_check_pinned_series": "verify.golden",
    "verify_theorem": "verify.theorem",
    "_check_strong_point_class": "verify.strongpoint_class",
    "_check_strong_point_sets": "verify.strongpoint_sets",
    "_check_halving": "verify.halving",
    "_check_open_mass": "verify.mass",
    "verify_equation": "verify.equation",
    "verify_all": "verify.all",
}


# ---------------------------------------------------------------------------
# Tracing: wrappers around the public calls of each layer.
# ---------------------------------------------------------------------------


class Probe:
    """The wrappers of one traced run and what they observed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.streams: list[tuple[str, tuple, dict]] = []  # (calling module, args, kwargs)
        self.host_patterns = 0
        self.counted_perms = 0  # returned by count_kings(n, "enumerate")
        self.avoid_hits = 0
        self.enumerate_kings = kings.enumerate_kings
        self.occurrence_counts = mesh.occurrence_counts
        self.avoids = mesh.avoids
        self.count_kings = kings.count_kings

    def install(self) -> None:
        tr = self.tracer

        def enumerate_kings(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            self.streams.append((caller, args, kwargs))
            return self.enumerate_kings(*args, **kwargs)

        def occurrence_counts(patterns, perm):
            t = time.perf_counter()
            counts = self.occurrence_counts(patterns, perm)
            tr.charge("mesh.occurrence_counts", time.perf_counter() - t)
            self.host_patterns += len(patterns)
            return counts

        def avoids(pattern, perm):
            t = time.perf_counter()
            result = self.avoids(pattern, perm)
            tr.charge("mesh.avoids", time.perf_counter() - t)
            self.avoid_hits += not result
            return result

        def count_kings(n, method="recurrence", *args, **kwargs):
            with tr.span(f"kings.count_{method}"):
                value = self.count_kings(n, method, *args, **kwargs)
            if method == "enumerate":
                self.counted_perms += value
            return value

        tr.replace(self.enumerate_kings, enumerate_kings)
        tr.replace(self.occurrence_counts, occurrence_counts)
        tr.replace(self.avoids, avoids)
        tr.replace(self.count_kings, count_kings)
        for name in GFS_FUNCTIONS:
            fn = getattr(gfs, name, None)
            if fn is not None:
                tr.replace(fn, tr.spanned(fn, f"gfs.{name}"))
        tr.replace(oracle.distribution_tables, tr.spanned(oracle.distribution_tables, "oracle.distribution_tables"))
        for attr, span in FAMILY_CHECKS.items():
            fn = getattr(verify, attr, None)
            if fn is not None:
                tr.replace(fn, tr.spanned(fn, span))
        if hasattr(cli, "_emit_json"):
            tr.replace(cli._emit_json, tr.spanned(cli._emit_json, "cli.emit"))

    def drain_streams(self) -> tuple[dict[str, float], int]:
        """Seconds to drain each recorded enumeration alone, per calling module.

        Streams that ``kings`` drains itself (``count_kings`` by enumeration)
        are timed alone already by their ``kings.count_enumerate`` spans, so
        they are not drained again; that is most of the battery's enumeration.
        """
        seconds = {kings.__name__: self.tracer.total("kings.count_enumerate")}
        perms = self.counted_perms
        for caller, args, kwargs in self.streams:
            if caller == kings.__name__:
                continue
            t = time.perf_counter()
            count = 0
            for _ in self.enumerate_kings(*args, **kwargs):
                count += 1
            seconds[caller] = seconds.get(caller, 0.0) + time.perf_counter() - t
            perms += count
        return seconds, perms

    def host_setup(self) -> float:
        """occurrence_counts with no patterns over the oracle's hosts: only the
        per-host set-up (the prefix matrix) remains."""
        total = 0.0
        for caller, args, kwargs in self.streams:
            if caller != oracle.__name__:
                continue
            for perm in self.enumerate_kings(*args, **kwargs):
                t = time.perf_counter()
                self.occurrence_counts((), perm)
                total += time.perf_counter() - t
        return total


def median_op_seconds(op, budget: float = 0.25, min_reps: int = 5) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget:
        t = time.perf_counter()
        op()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def ring_operations() -> dict[str, float]:
    """Series multiply, divide and t -> ut substitution on closed forms."""
    out = {}
    for order in (30, 100):
        a = gfs.king_series(order)
        x = gfs.strong_point_series(KingClass.ALL, order)
        y = gfs.class_series(KingClass.S, order)
        out[f"series.mul_o{order}_s"] = median_op_seconds(lambda: x * y)
        out[f"series.div_o{order}_s"] = median_op_seconds(lambda: x / a)
    out["series.subst_ut_o100_s"] = median_op_seconds(lambda: x.subst_ut(1))
    return out


def layer_metrics(probe: Probe, outputs) -> dict[str, float]:
    tr = probe.tracer
    enum_by_caller, perms = probe.drain_streams()
    host_s = probe.host_setup()
    enumerate_s = sum(enum_by_caller.values())
    occ_calls, occ_s = tr.hot.get("mesh.occurrence_counts", (0, 0.0))
    av_calls, av_s = tr.hot.get("mesh.avoids", (0, 0.0))
    tables_s = tr.total("oracle.distribution_tables")
    m: dict[str, float] = {
        "kings.enumerate_s": enumerate_s,
        "kings.perms": perms,
        "kings.perms_per_s": perms / enumerate_s if enumerate_s else 0.0,
        "mesh.host_setup_s": host_s,
        "mesh.occurrence_counts_s": occ_s,
        "mesh.calls": occ_calls,
        "mesh.ns_per_host_pattern": occ_s / probe.host_patterns * 1e9 if probe.host_patterns else 0.0,
        "mesh.avoids_s": av_s,
        "mesh.avoids_calls": av_calls,
        "mesh.avoids_early_exit_ratio": probe.avoid_hits / av_calls if av_calls else 0.0,
        "oracle.distribution_tables_s": tables_s,
        # what the tables cost beyond enumerating and counting the same hosts
        "oracle.merge_s": tables_s - enum_by_caller.get(oracle.__name__, 0.0) - occ_s if tables_s else 0.0,
        "oracle.host_perms_per_s": occ_calls / tables_s if tables_s else 0.0,
    }
    for method in COUNT_METHODS:
        m[f"kings.count_{method}_s"] = tr.total(f"kings.count_{method}")
    for name in GFS_FUNCTIONS:
        m[f"gfs.{name}_s"] = tr.self_time(f"gfs.{name}")
    for family in VERIFY_FAMILIES:
        m[f"verify.{family}_s"] = tr.total(f"verify.{family}")
    # the catalog sweep is the tables call verify_all makes itself
    battery = {sp["id"] for sp in tr.spans if sp["name"] == "verify.all"}
    m["verify.catalog_sweep_s"] = sum(
        (sp["end"] - sp["start"] for sp in tr.spans
         if sp["name"] == "oracle.distribution_tables" and sp["parent"] in battery), 0.0)
    reports = []  # check reports among the outputs: verify prints a JSON list of them
    for _, out, _ in outputs:
        for line in out.splitlines():
            if line.startswith("["):
                reports += [r for r in json.loads(line) if isinstance(r, dict) and "status" in r]
    m["verify.checks"] = len(reports)
    m["verify.non_pass"] = sum(1 for r in reports if r.get("status") != "PASS")
    m["cli.emit_s"] = tr.total("cli.emit")
    m["cli.output_bytes"] = sum(len(out) for _, out, _ in outputs)
    selfs = tr.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m.update(ring_operations())
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--mode", required=True, choices=("plain", "traced"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans here as JSON lines")
    args = ap.parse_args(argv)

    workload = workloads.build(args.workload, args.tiny, shuffle_seed=args.seed)
    result: dict = {"mode": args.mode}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    if args.mode == "plain":
        wall, outputs = run_commands(workload, args.jobs)
    else:
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
        probe = Probe(tracer)
        probe.install()
        try:
            wall, outputs = run_commands(workload, args.jobs, tracer)
        finally:
            tracer.restore()
        result["metrics"] = layer_metrics(probe, outputs)
        if args.spans:
            tracer.write(args.spans)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["wall_s"] = wall
    result["children_cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result["checks"] = workloads.check(workload, outputs)
    result["digests"] = [workloads.digest(out) for _, out, _ in outputs]
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
