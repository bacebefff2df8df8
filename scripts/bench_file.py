"""Write BENCH_<pr>.json: every benchmark metric of a change and of its parent
commit.

    python3 scripts/bench_file.py --pr N --parent ../parent-checkout

For both checkouts (this repository and ``--parent``) it runs the benchmark's
command on every workload that ``BENCHMARK.json`` lists, at its
``run_seconds``, first with ``--trace 0`` (the end-to-end metrics) and then
with ``--trace 1`` (the per-layer metrics), and records them with the seed,
the run length and the checkout's commit.  Each workload also keeps the
per-case ``median_s`` of the plain run under ``"cases"``, so case-level
before and after can be read from the file alone.  The file is written at
the repository root.  Runs on one machine only compare
with each other; the file records ``nproc`` and the library versions of each
run so that a reader can tell, and under ``"machine"`` the load averages and
the machine's total CPU steal time (``/proc/stat``) read just before and just
after each run, so that runs slowed by other load can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


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


def bench_checkout(checkout: Path, bench: dict, seed: int) -> dict:
    commit = git(checkout, "rev-parse", "HEAD")
    # tracked files that differ from the commit; untracked ones do not count
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        machine, runs = {}, []
        for key, trace in (("plain", 0), ("traced", 1)):
            before = machine_state()
            runs.append(run_workload(checkout, bench, workload, seed, trace))
            machine[key] = {"before": before, "after": machine_state()}
        (report, plain), (_, traced) = runs
        workloads[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "passes": report["passes"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "cases": {row["case"]: row["median_s"] for row in report["cases"]},
            "machine": machine,
        }
        print(f"{checkout.name} {workload}: wall_s "
              f"{plain['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
    return {
        "commit": commit,
        "dirty": dirty,
        "hygiene": report["hygiene"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent", type=Path, required=True,
                        help="a separate checkout of the parent commit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {
        "parent": bench_checkout(args.parent.resolve(), bench, args.seed),
        "change": bench_checkout(ROOT, bench, args.seed),
    }
    doc = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": bench["run_seconds"],
        "command": " ".join(bench["command"])
                   + " --workload W --seed SEED --seconds SECONDS --trace {0,1}",
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
