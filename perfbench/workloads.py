"""The four kingmesh workloads and the checks on their output.

Every workload is a fixed list of ``kingmesh`` command lines, grouped into the
processes that run them: a CLI user starts one process per command, except in
``closed-forms``, which runs all its commands in one interpreter so that the
series caches are shared as they are inside ``verify``.  All four are
exhaustive and deterministic; the pinned digests below were taken from the
outputs at the commit that added the benchmark, and the JSON output is meant
to stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass

SOLVED_IDS = (
    "X", "X'", "10", "11", "12", "13", "14", "16", "17", "19", "20",
    "22", "27", "28", "30", "33", "34", "36", "45", "55", "63", "64",
)
OPEN_IDS = ("3", "5", "8", "9", "15", "18", "21", "56", "65", "66")
SERIES_NAMES = ("A", "B", "C", "Atu", "Btu", "Ctu") + tuple(
    f"{kind}:{ident}" for kind in ("P", "E") for ident in SOLVED_IDS
)
EQUATION_IDS = (
    "EQ_B", "EQ_C", "EQ_PX", "EQ_ATU", "EQ_BTU", "EQ_CTU",
    "EQ_P12_AV", "EQ_P12_DIST", "EQ_P13_AV", "EQ_P13_DIST",
    "EQ_P16_AV", "EQ_P16_DIST", "EQ_P16_STAR", "EQ_P17_AV", "EQ_P17_DIST",
    "EQ_P19_AV", "EQ_P19_DIST", "EQ_P20_AV", "EQ_P20_DIST",
    "EQ_P22_AV", "EQ_P22_DIST", "EQ_P27_AV", "EQ_P27_DIST",
    "EQ_P28_AV", "EQ_P28_DIST", "EQ_P33_AV", "EQ_P33_DIST",
    "EQ_P55_AV", "EQ_P55_DIST", "EQ_P63_AV", "EQ_P63_DIST", "EQ_P63_STAR",
    "EQ_P64_AV", "EQ_P64_DIST", "EQ_P64_STAR",
)
# The 79 checks of `verify --all`.  Later checks may be added; they must PASS.
BATTERY_IDS = (
    ("counts:methods", "counts:classes", "kingchar", "golden:B", "golden:C",
     "golden:Atu", "halving:10", "strongpoint:s", "strongpoint:l",
     "strongpoint:sl", "strongpoint:ls", "strongpoint:sets")
    + tuple(f"theorem:{i}" for i in SOLVED_IDS)
    + tuple(f"mass:{i}" for i in OPEN_IDS)
    + tuple(f"equation:{e}" for e in EQUATION_IDS)
)

# Class sizes for n = 0..10 (OEIS A002464 and the S/SL restrictions), the
# value of every distribution row at u = 1.
_A = (1, 1, 0, 0, 2, 14, 90, 646, 5242, 47622, 479306)
_B = (1, 0, 0, 0, 2, 12, 78, 568, 4674, 42948, 436358)
_C = (1, 0, 0, 0, 2, 10, 68, 500, 4174, 38774, 397584)
CLASS_SIZES = {"all": _A, "s": _B, "l": _B, "sl": _C, "ls": _C}

# Sizes: the full workloads, and the tiny ones the self-test runs.
_SIZES = {
    False: {"sweep_n": 9, "classes_n": 10, "battery": ("--order", "30", "--n-max", "8"), "order": 100},
    True: {"sweep_n": 6, "classes_n": 7, "battery": ("--order", "8", "--n-max", "4"), "order": 12},
}

# sha256 of the stdout of each pinned command, per size.
_DIGESTS = {
    False: {
        "sweep": "b6d457cf7d99012860f81d7de5cce1a55999cc630b6073ed75b60eac8a7e22af",
        "classes:sl": "3555fb879dc9f66f370c05f8e218f980d6c2c340df017825c812d6ab0aa70b9e",
        "classes:ls": "be8d32ba5009ce95797321bce16aad765446130f2eff0a27de86f751ae5a76fd",
        "closed-forms:series": "761d9de3a47cc856a50bbd11ff8aefabd230dd4df1875bd7efb0c26084f221d6",
    },
    True: {
        "sweep": "7ce966b41e1cdb5b76c2e23a5486db03042f918d6d4fdde8ccc2ab2e56fd5305",
        "classes:sl": "a1a7ca786235cd5dae284553825ab1c57b41a309a4929dbb1fac3fcddb358d3d",
        "classes:ls": "375af757ef7f6cd447066599232255c37bc3a89a0b2d1be6bbe53e8f2ea3704f",
        "closed-forms:series": "badef555be2683a48263d32453e7faf1243a017d2f9268dec408bf190256ae7a",
    },
}

NAMES = ("sweep", "classes", "battery", "closed-forms")


@dataclass(frozen=True)
class Workload:
    name: str
    tiny: bool
    processes: tuple[tuple[tuple[str, ...], ...], ...]  # process -> commands -> argv
    jobs: int  # worker processes a command may start


def build(name: str, tiny: bool = False, shuffle_seed: int | None = None) -> Workload:
    """The workload's commands.  With ``shuffle_seed`` the commands of a
    multi-command workload are submitted in a seeded order (traced run)."""
    size = _SIZES[tiny]
    if name == "sweep":
        procs = [[("dist", "--all", "--n-max", str(size["sweep_n"]), "--format", "json")]]
        jobs = 1
    elif name == "classes":
        procs = [
            [("dist", "--pattern", pattern, "--class", kc, "--n-max", str(size["classes_n"]),
              "--jobs", "2", "--format", "json")]
            for pattern, kc in (("nr:X", "sl"), ("nr:X'", "ls"))
        ]
        jobs = 2
    elif name == "battery":
        procs = [[("verify", "--all", *size["battery"], "--format", "json")]]
        jobs = 1
    elif name == "closed-forms":
        order = str(size["order"])
        series = [("series", "--name", n, "--order", order, "--format", "json") for n in SERIES_NAMES]
        equations = [("verify", "--equation", e, "--order", order, "--format", "json")
                     for e in EQUATION_IDS]
        if shuffle_seed is not None:
            rng = random.Random(shuffle_seed)
            rng.shuffle(series)
            rng.shuffle(equations)
        procs = [series + equations]
        jobs = 1
    else:
        raise KeyError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    if shuffle_seed is not None and len(procs) > 1:
        random.Random(shuffle_seed).shuffle(procs)
    return Workload(name, tiny, tuple(tuple(tuple(c) for c in p) for p in procs), jobs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_TERM = re.compile(r"^(-?\d*)(u(\^\d+)?)?$")


def value_at_one(poly: str) -> int:
    """Evaluate a rendered Z[u] polynomial such as ``12+2u^4`` at u = 1."""
    total = 0
    for term in poly.replace("-", "+-").split("+"):
        if not term:
            continue
        m = _TERM.match(term)
        if m is None:
            raise ValueError(f"unreadable coefficient {poly!r}")
        digits = m.group(1)
        total += {"": 1, "-": -1}.get(digits) or int(digits)
    return total


def _dist_checks(label: str, text: str, pin: str) -> list[tuple[str, bool]]:
    checks = [(f"{label}: output digest", digest(text) == pin)]
    try:
        data = json.loads(text)
        tables = data if isinstance(data, list) else [data]
        ok = bool(tables) and all(
            value_at_one(row["coeff"]) == CLASS_SIZES[t["class"]][row["n"]]
            for t in tables
            for row in t["rows"]
        )
    except (ValueError, KeyError, IndexError, TypeError):
        ok = False
    checks.append((f"{label}: every row sums to the class size", ok))
    return checks


def _battery_checks(text: str) -> list[tuple[str, bool]]:
    try:
        status = {r["id"]: r["status"] for r in json.loads(text)}
    except (ValueError, KeyError, TypeError):
        status = {}
    checks = [(f"battery: {cid} PASS", status.get(cid) == "PASS") for cid in BATTERY_IDS]
    extra = set(status) - set(BATTERY_IDS)
    checks.append(("battery: added checks PASS", all(status[c] == "PASS" for c in extra)))
    return checks


def _closed_form_checks(text: str, pin: str) -> list[tuple[str, bool]]:
    series_lines, status = [], {}
    for line in text.splitlines():
        try:
            item = json.loads(line)
        except ValueError:
            continue
        if isinstance(item, dict) and "name" in item:
            series_lines.append(line)
        elif isinstance(item, list):
            status.update((r.get("id"), r.get("status")) for r in item if isinstance(r, dict))
    # the traced run submits the commands in a seeded order; the digest is
    # taken over the series rows in name order
    by_name = sorted(series_lines, key=lambda line: json.loads(line)["name"])
    checks = [("closed-forms: series rows digest", digest("\n".join(by_name)) == pin)]
    checks += [(f"closed-forms: equation:{e} PASS", status.get(f"equation:{e}") == "PASS")
               for e in EQUATION_IDS]
    return checks


def check(workload: Workload, outputs: list[tuple[int, str, str]]) -> list[tuple[str, bool]]:
    """Checks on one run of the workload.  ``outputs`` holds (exit code,
    stdout, stderr) per command group, in the order of ``workload.processes``."""
    pins = _DIGESTS[workload.tiny]
    checks: list[tuple[str, bool]] = []
    for proc, (code, out, err) in zip(workload.processes, outputs):
        head = " ".join(proc[0][:2])
        checks.append((f"{head}: exit 0, no traceback", code == 0 and "Traceback" not in err))
        if workload.name == "sweep":
            checks += _dist_checks("sweep", out, pins["sweep"])
        elif workload.name == "classes":
            kc = proc[0][proc[0].index("--class") + 1]
            checks += _dist_checks(f"classes:{kc}", out, pins[f"classes:{kc}"])
        elif workload.name == "battery":
            checks += _battery_checks(out)
        else:
            checks += _closed_form_checks(out, pins["closed-forms:series"])
    if len(outputs) != len(workload.processes):
        checks.append(("every process ran", False))
    return checks
