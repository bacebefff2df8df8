"""Write BENCH_<pr>.json: every benchmark metric of a change and of its parent
commit, from paired runs.

    python3 scripts/bench_file.py --pr N --parent ../parent-checkout

For every workload that ``BENCHMARK.json`` lists it runs the benchmark's
command at its ``run_seconds`` with ``--trace 0`` ``PAIRS`` times on each
checkout (this repository and ``--parent``), in pairs that alternate which
side goes first, and then once per side with ``--trace 1`` for the per-layer
metrics.  Each side records the seed, the run length, the checkout's commit
and the line count of its package modules (``src_lines``); its
``end_to_end`` value per metric is the median of its plain runs (every run's
value is kept under ``runs``), ``cases`` holds each case's median
``median_s`` over them and ``case_runs`` every run's.  ``comparison``
holds per workload and end-to-end metric each side's median and quartiles,
the pairs the change won (ties count for neither) and a reading:

* ``better`` -- the change won at least 9 in 10 pairs, and its median beats
  the parent's by more than the parent's interquartile range;
* ``unresolved`` -- the parent's interquartile range exceeds the metric's
  ``bound`` times its median, unless every change run beats every parent run;
* ``worse`` -- the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
* ``held`` -- otherwise.

``case_comparison`` holds the same quartiles and pairs won per workload and
case, from the cases' ``median_s`` (lower is better), with no reading, so
case-level before and after can be read from the file alone.

The file is written at the repository root.  Runs on one machine only compare
with each other; the file records ``nproc`` and the library versions of each
workload so that a reader can tell, and under ``"machine"`` the load averages and
the machine's total CPU steal time (``/proc/stat``) read just before and just
after each run, so that runs slowed by other load can be told apart, and
whether the run's interpreters write no bytecode (``dont_write_bytecode``), in
which case every fresh interpreter compiles the package's source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0
PAIRS = 10  # plain runs per side and workload


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, ``src/latticeframes/*.py``, as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "latticeframes").glob("*.py"))


def machine_state() -> dict:
    """The 1, 5 and 15 minute load averages and the CPU steal time so far, in
    seconds summed over all CPUs (None where ``/proc/stat`` is missing)."""
    try:
        with open("/proc/stat") as fh:
            # cpu user nice system idle iowait irq softirq steal ...
            steal = int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        steal = None
    return {"loadavg": list(os.getloadavg()), "steal_s": steal}


def run_workload(checkout: Path, bench: dict, workload: str, seed: int, trace: int):
    """One run of the benchmark's command; returns its report and its result line."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=True).stdout.strip().splitlines()
    return json.loads(out[-2])["report"], json.loads(out[-1])


def measured_run(checkout: Path, bench: dict, workload: str, seed: int, trace: int):
    """``run_workload`` with the machine state read around it."""
    before = machine_state()
    report, result = run_workload(checkout, bench, workload, seed, trace)
    # the run's interpreters inherit this environment, where a non-empty
    # PYTHONDONTWRITEBYTECODE acts as -B
    return report, result, {"before": before, "after": machine_state(),
                            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def side_record(plain: list, traced: tuple) -> dict:
    """One side's workload entry from its plain runs and its traced run."""
    reports, results, _ = zip(*plain)
    values = {name: [res["metrics"][name]["value"] for res in results]
              for name in results[0]["metrics"]}
    times = {}
    for report in reports:
        for row in report["cases"]:
            times.setdefault(row["case"], []).append(row["median_s"])
    return {
        "hygiene": traced[0]["hygiene"],
        "correct": all(res["correct"] for res in results) and traced[1]["correct"],
        "attempted": [res["attempted"] for res in results],
        "failed": [res["failed"] for res in results],
        "passes": [report["passes"] for report in reports],
        "end_to_end": {name: {"value": statistics.median(runs),
                              "unit": results[0]["metrics"][name]["unit"], "runs": runs}
                       for name, runs in values.items()},
        "per_layer": traced[1]["metrics"],
        "cases": {case: statistics.median(t) for case, t in times.items()},
        "case_runs": times,
        "machine": {"plain": [m for _, _, m in plain], "traced": traced[2]},
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def paired(parent: list, change: list, better: str = "lower") -> dict:
    """Quartiles of both sides' runs and the pairs the change won; run i of
    each side form pair i."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    won = sum(sign * b < sign * a for a, b in zip(parent, change))
    return {"parent": quartiles(parent), "change": quartiles(change), "pairs_won": won,
            "pairs": len(parent)}


def compare(parent: list, change: list, bound: float, better: str) -> dict:
    """``paired`` and the reading (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    pair = paired(parent, change, better)
    p, c, won = pair["parent"], pair["change"], pair["pairs_won"]
    spread, gap = p["q3"] - p["q1"], sign * (p["median"] - c["median"])
    margin = bound * abs(p["median"])
    if 10 * won >= 9 * len(parent) and gap > spread:
        reading = "better"
    elif spread > margin and max(sign * v for v in change) >= min(sign * v for v in parent):
        reading = "unresolved"
    elif -gap > margin:
        reading = "worse"
    else:
        reading = "held"
    return {**pair, "bound": bound, "reading": reading}


def bench_workload(checkouts: dict, bench: dict, workload: str, seed: int) -> dict:
    """PAIRS plain runs per side, pair i led by the parent when i is even and
    by the change when it is odd, then one traced run per side."""
    plain = {side: [] for side in checkouts}
    for i in range(PAIRS):
        for side in list(checkouts)[:: 1 if i % 2 == 0 else -1]:
            plain[side].append(measured_run(checkouts[side], bench, workload, seed, 0))
    records = {side: side_record(runs, measured_run(checkouts[side], bench, workload, seed, 1))
               for side, runs in plain.items()}
    for side, record in records.items():
        print(f"{side} {workload}: wall_s {record['end_to_end']['wall_s']['value']:.4f}",
              file=sys.stderr)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", type=Path, required=True,
                        help="a separate checkout of the parent commit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    records = {w["name"]: bench_workload(checkouts, bench, w["name"], args.seed)
               for w in bench["workloads"]}
    runs = {}
    for side, checkout in checkouts.items():
        runs[side] = {
            "commit": git(checkout, "rev-parse", "HEAD"),
            # tracked files that differ from the commit; untracked ones do not count
            "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
            "src_lines": src_lines(checkout),
            "workloads": {name: sides[side] for name, sides in records.items()},
        }
    comparison = {
        name: {m["name"]: compare(sides["parent"]["end_to_end"][m["name"]]["runs"],
                                  sides["change"]["end_to_end"][m["name"]]["runs"],
                                  m["bound"], m["better"])
               for m in bench["end_to_end"]}
        for name, sides in records.items()}
    case_comparison = {
        name: {case: paired(runs, sides["change"]["case_runs"][case])
               for case, runs in sides["parent"]["case_runs"].items()
               if case in sides["change"]["case_runs"]}
        for name, sides in records.items()}
    doc = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": bench["run_seconds"],
        "pairs": PAIRS,
        "command": " ".join(bench["command"])
                   + " --workload W --seed SEED --seconds SECONDS --trace {0,1}",
        "runs": runs,
        "comparison": comparison,
        "case_comparison": case_comparison,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
