"""Benchmark entry point for latticeframes.

    python3 perfbench/run.py --workload phi_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is used from ``src`` (it is not
installed), and the CLI runs as ``python -m latticeframes.cli``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is a report with the run's settings and
every case.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import harness
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
MIN_PASSES = 3  # plain mode; per-case medians need at least three samples
MIN_TRACED_PASSES = 2  # one untraced and one traced
CASE_BUDGET_S = 45.0
PROBE_TIMEOUT_S = 20.0
RUN_LIMIT_S = 150.0  # no case runs past this point of the run
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> dict:
    """Pin BLAS to one thread (before numpy loads); returns the settings.

    On a 2-core machine two BLAS threads made the lattice sums no faster and
    doubled the pass-to-pass spread, so every run uses one.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return {var: os.environ[var] for var in BLAS_VARS}


def hygiene(nproc: int, blas: dict) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": openblas,
        "blas_threads": blas,
        "load": "one process, cases run one after another",
    }


def run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def setup_seconds(workload: str, env: dict) -> list[float]:
    """Fresh-interpreter import plus warm-up, timed inside each child."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    return [float(run_child(cmd, env, PROBE_TIMEOUT_S).stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def scipy_special_import_s(env: dict) -> float:
    """Cumulative import time of scipy.special under ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import latticeframes"]
    samples = []
    for _ in range(IMPORTTIME_PROBES):
        seconds = 0.0
        for line in run_child(cmd, env, PROBE_TIMEOUT_S).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.special":
                seconds = int(parts[1]) * 1e-6
        samples.append(seconds)
    return statistics.median(samples)


def case_report(passes, counted=None) -> list[dict]:
    medians = harness.case_medians(passes)
    last = {o.name: o for o in passes[-1]}
    failures = {}
    for outcomes in passes:
        for o in outcomes:
            if o.failed:
                failures.setdefault(o.name, f"{o.status}: {o.detail}")
    rows = []
    for name, seconds in medians.items():
        row = {"case": name, "median_s": seconds,
               "status": "failed" if name in failures else "ok",
               "computed": last[name].computed}
        if name in failures:
            row["failure"] = failures[name]
        if counted is not None:
            row["counted"] = counted.get(name, {})
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_presets", "phi_grid", "gram_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticeframes" / "__init__.py").is_file():
        print(f"perfbench: no latticeframes package under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    blas = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    import workloads  # imports numpy, so only after the BLAS threads are set

    setup = setup_seconds(args.workload, env)
    traced = bool(args.trace)
    cases = workloads.build(args.workload, args.seed, str(ROOT), env, in_process_cli=traced)
    if args.workload != "cli_presets" or traced:
        import latticeframes

        probe.WARMUPS[args.workload](latticeframes)

    pass_context = lambda i: contextlib.nullcontext()  # noqa: E731
    case_context = lambda name: contextlib.nullcontext()  # noqa: E731
    traced_spans: list[list] = []
    if traced:
        import tracing

        tracer = tracing.Tracer()

        @contextlib.contextmanager
        def pass_context(i):  # odd passes run traced, even passes plain
            if i % 2 == 0:
                yield
                return
            with tracer.installed():
                yield
            traced_spans.append(tracer.take())

        case_context = tracer.in_case

    passes = harness.run_passes(
        cases, args.seconds, MIN_TRACED_PASSES if traced else MIN_PASSES,
        deadline, CASE_BUDGET_S, pass_context, case_context)

    summary = harness.end_to_end(passes)
    correct = not any(o.status == "wrong" for p in passes for o in p)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes),
              "pass_wall_s": [sum(o.seconds for o in p) for p in passes],
              "hygiene": hygiene(nproc, blas), "setup_probes_s": setup}

    if traced and not traced_spans:
        print("perfbench: the run ended before a traced pass", file=sys.stderr)
        return 1
    if traced:
        plain_wall = harness.end_to_end(passes[0::2])["wall_s"]
        traced_wall = harness.end_to_end(passes[1::2])["wall_s"]
        per_pass = [tracing.layer_metrics(spans) for spans in traced_spans]
        values = tracing.median_metrics(per_pass)
        values["import.scipy_special_s"] = scipy_special_import_s(env)
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        units = {k: ("s" if k.endswith("_s") else "B" if k.endswith("_bytes")
                     else "frac" if k.endswith(("_share", "_frac")) else "count")
                 for k in values}
        report["cases"] = case_report(passes, tracing.span_table(traced_spans[-1])["cases"]
                                      if traced_spans else {})
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([tracing.spans_json(s) for s in traced_spans]))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "wall_s": summary["wall_s"],
            "setup_s": statistics.median(setup),
            "slowest_case_s": summary["slowest_case_s"],
            "case_p50_s": summary["case_p50_s"],
            "ok_frac": summary["ok_frac"],
            "peak_rss_mb": usage / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "slowest_case_s": "s", "case_p50_s": "s",
                 "ok_frac": "frac", "peak_rss_mb": "MB"}
        report["cases"] = case_report(passes)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
